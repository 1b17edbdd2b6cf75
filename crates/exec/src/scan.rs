//! What a scan hands on: a selection over its table, not rows.
//!
//! On either storage tier, **no operator copies a row it does not emit.**
//! A full scan decides which rows survive — a paged table's stripe by
//! stripe, from the zone maps and the pinned predicate columns alone; a
//! resident table's over the cached transpose of its predicate columns —
//! and records the survivors as positions ([`ScanSel`]). Rows are made
//! last, by whoever turns out to need them and only of the positions that
//! consumer still wants: all of them when the scan is a Select's first
//! input ([`ScanSel::gather`]), the build rows that found a partner when it
//! is the build side of a hash join or a left outer join
//! ([`ScanSel::gather_matched`], after the join hashed
//! [`ScanSel::column`]), none at all when a grand total folds its argument
//! columns.
//!
//! A resident table's `&[Row]` is read as a single stripe whose positions
//! are row indices. Nothing here keeps a page pinned between calls: each
//! gather opens the stripes it touches, pins what it reads, and lets go.

use decorr_common::columnar::{Column, ColumnGather, SelVec};
use decorr_common::{Result, Row};
use decorr_storage::{PageIo, Stripes};

/// Where a scan's survivors still are.
#[derive(Clone, Copy)]
pub(crate) enum Source<'t> {
    /// On the pages of a paged table.
    Stripes(Stripes<'t>),
    /// In the rows of a resident table: one stripe, numbered 0.
    Rows(&'t [Row]),
}

/// The surviving rows of a scan, in scan order, still in their table.
pub(crate) struct ScanSel<'t> {
    source: Source<'t>,
    /// The table columns (ascending) anything past the scan reads. A row
    /// gathered off pages has the table's arity, but only these are filled
    /// in; the pages of the others are never pinned.
    cols: Vec<usize>,
    /// `(stripe, its surviving positions, ascending)` in stripe order;
    /// stripes without a survivor have no entry.
    picks: Vec<(u32, SelVec)>,
    len: usize,
}

impl<'t> ScanSel<'t> {
    /// An empty selection over `source`, whose rows will be read at
    /// columns `cols` only.
    pub fn new(source: Source<'t>, cols: Vec<usize>) -> Self {
        ScanSel { source, cols, picks: Vec::new(), len: 0 }
    }

    /// Record the survivors of the next stripe.
    pub fn push(&mut self, stripe: usize, sel: SelVec) {
        if !sel.is_empty() {
            self.len += sel.len();
            self.picks.push((stripe as u32, sel));
        }
    }

    /// Number of surviving rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Append a row of each of `positions` of `stripe` to `out`.
    fn make_rows(
        &self,
        stripe: u32,
        positions: &[u32],
        out: &mut Vec<Row>,
        io: &mut PageIo,
    ) -> Result<()> {
        match self.source {
            Source::Stripes(stripes) => {
                stripes
                    .open(stripe as usize)
                    .gather(positions.iter().copied(), &self.cols, out, io)
            }
            Source::Rows(rows) => {
                out.extend(positions.iter().map(|&i| rows[i as usize].clone()));
                Ok(())
            }
        }
    }

    /// Make a row of every survivor.
    pub fn gather(&self, io: &mut PageIo) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(self.len);
        for (stripe, sel) in &self.picks {
            self.make_rows(*stripe, sel, &mut out, io)?;
        }
        Ok(out)
    }

    /// Column `col` at the surviving positions, copied out of its table.
    pub fn column(&self, col: usize, io: &mut PageIo) -> Result<Column> {
        let stripes = match self.source {
            Source::Stripes(stripes) => stripes,
            Source::Rows(rows) => {
                // (One stripe, so at most one pick.)
                let sel = self.picks.first().map_or(&[][..], |(_, sel)| sel);
                let values = sel.iter().map(|&i| &rows[i as usize][col]);
                return Ok(Column::from_values(values, self.len));
            }
        };
        let mut out = ColumnGather::new();
        for (stripe, sel) in &self.picks {
            let mut stripe = stripes.open(*stripe as usize);
            out.push(stripe.pin(col, io)?, sel);
        }
        Ok(out.finish())
    }

    /// Make a row of each survivor named in `wanted` (indices into the
    /// selection, any order, repeats allowed), once each. Returns the rows
    /// in scan order and, per survivor, where its row is (`u32::MAX` for a
    /// survivor nobody wanted).
    pub fn gather_matched(
        &self,
        wanted: impl Iterator<Item = u32>,
        io: &mut PageIo,
    ) -> Result<(Vec<Row>, Vec<u32>)> {
        const UNWANTED: u32 = u32::MAX;
        let mut slot = vec![UNWANTED; self.len];
        for i in wanted {
            slot[i as usize] = 0;
        }
        let mut rows = Vec::new();
        let mut base = 0;
        for (stripe, sel) in &self.picks {
            let slots = &mut slot[base..base + sel.len()];
            let mut picked = Vec::new();
            for (s, &pos) in slots.iter_mut().zip(sel) {
                if *s != UNWANTED {
                    *s = (rows.len() + picked.len()) as u32;
                    picked.push(pos);
                }
            }
            self.make_rows(*stripe, &picked, &mut rows, io)?;
            base += sel.len();
        }
        Ok((rows, slot))
    }
}
