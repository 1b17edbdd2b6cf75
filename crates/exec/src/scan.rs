//! What a paged scan hands on: a selection over stripes, not rows.
//!
//! A scan of a disk-backed table decides, stripe by stripe, which rows
//! survive — from the zone maps and from the pinned predicate columns
//! alone — and records the survivors as positions ([`PagedSel`]). Rows are
//! made last, by whoever turns out to need them and only of the positions
//! that consumer still wants: all of them when the scan is a Select's first
//! input ([`PagedSel::gather`]), the build rows that found a partner when
//! it is the build side of a hash join ([`PagedSel::gather_matched`], after
//! the join hashed [`PagedSel::column`]), none at all when a grand total
//! folds its argument columns.
//!
//! Nothing here keeps a page pinned between calls: each gather opens the
//! stripes it touches, pins what it reads, and lets go.

use decorr_common::columnar::{Column, ColumnGather, SelVec};
use decorr_common::{Result, Row};
use decorr_storage::{PageIo, Stripes};

/// The surviving rows of a paged scan, in scan order, still on their pages.
pub(crate) struct PagedSel<'t> {
    stripes: Stripes<'t>,
    /// The table columns (ascending) anything past the scan reads. A
    /// gathered row has the table's arity, but only these are filled in;
    /// the pages of the others are never pinned.
    cols: Vec<usize>,
    /// `(stripe, its surviving positions, ascending)` in stripe order;
    /// stripes without a survivor have no entry.
    picks: Vec<(u32, SelVec)>,
    len: usize,
}

impl<'t> PagedSel<'t> {
    /// An empty selection over `stripes`, whose rows will be read at
    /// columns `cols` only.
    pub fn new(stripes: Stripes<'t>, cols: Vec<usize>) -> Self {
        PagedSel { stripes, cols, picks: Vec::new(), len: 0 }
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

    /// Make a row of every survivor.
    pub fn gather(&self, io: &mut PageIo) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(self.len);
        for (stripe, sel) in &self.picks {
            self.stripes.open(*stripe as usize).gather(
                sel.iter().copied(),
                &self.cols,
                &mut out,
                io,
            )?;
        }
        Ok(out)
    }

    /// Column `col` at the surviving positions, copied out of its pages.
    pub fn column(&self, col: usize, io: &mut PageIo) -> Result<Column> {
        let mut out = ColumnGather::new();
        for (stripe, sel) in &self.picks {
            let mut stripe = self.stripes.open(*stripe as usize);
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
            self.stripes.open(*stripe as usize).gather(
                picked.into_iter(),
                &self.cols,
                &mut rows,
                io,
            )?;
            base += sel.len();
        }
        Ok((rows, slot))
    }
}
