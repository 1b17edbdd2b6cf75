//! What a paged scan hands on: a selection over its table's pages, not rows.
//!
//! A full scan of a paged table decides which rows survive stripe by
//! stripe, from the zone maps and the pinned predicate columns alone, and
//! records the survivors as positions ([`ScanSel`]). (A resident table's
//! survivors are positions into its rows — `tuple::Src::Table` — and need
//! nothing from here.) A consumer that reads whole columns — a join hashing
//! its keys, a grand total folding its arguments — copies them out with
//! [`ScanSel::column`]; one that reads values by position gets the values
//! of just the positions it still wants, once a join or filter has picked
//! them out, column by column ([`ScanSel::gather_matched`]). Neither makes
//! a row: rows are made last, of the survivors of the whole pipeline.
//!
//! Nothing here keeps a page pinned between calls: each gather opens the
//! stripes it touches, pins what it reads, and lets go.

use decorr_common::columnar::{Column, ColumnGather, SelVec};
use decorr_common::{Result, Value};
use decorr_storage::{PageIo, Stripes};

/// The surviving rows of a paged scan, in scan order, still on their pages.
pub(crate) struct ScanSel<'t> {
    stripes: Stripes<'t>,
    /// The table columns (ascending) anything past the scan reads: the
    /// only ones copied off the pages; the pages of the others are never
    /// pinned.
    cols: Vec<usize>,
    /// `(stripe, its surviving positions, ascending)` in stripe order;
    /// stripes without a survivor have no entry.
    picks: Vec<(u32, SelVec)>,
    len: usize,
}

impl<'t> ScanSel<'t> {
    /// An empty selection over `stripes`, whose rows will be read at
    /// columns `cols` only.
    pub fn new(stripes: Stripes<'t>, cols: Vec<usize>) -> Self {
        ScanSel { stripes, cols, picks: Vec::new(), len: 0 }
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

    /// Column `col` at the surviving positions, copied out of its pages.
    pub fn column(&self, col: usize, io: &mut PageIo) -> Result<Column> {
        let mut out = ColumnGather::new();
        for (stripe, sel) in &self.picks {
            let mut stripe = self.stripes.open(*stripe as usize);
            out.push(stripe.pin(col, io)?, sel);
        }
        Ok(out.finish())
    }

    /// The values of each survivor named in `wanted` (indices into the
    /// selection, any order, repeats allowed), copied off the pages once
    /// each, at the columns anything reads: per table column, the values
    /// in scan order (none for a column nobody reads); and per survivor,
    /// where its values are (`u32::MAX` for a survivor nobody wanted).
    pub fn gather_matched(
        &self,
        wanted: impl Iterator<Item = u32>,
        io: &mut PageIo,
    ) -> Result<(Vec<Vec<Value>>, Vec<u32>)> {
        const UNWANTED: u32 = u32::MAX;
        let mut slot = vec![UNWANTED; self.len];
        for i in wanted {
            slot[i as usize] = 0;
        }
        let mut values = vec![Vec::new(); self.cols.last().map_or(0, |&c| c + 1)];
        let (mut made, mut base) = (0, 0);
        for (stripe, sel) in &self.picks {
            let slots = &mut slot[base..base + sel.len()];
            let mut picked = Vec::new();
            for (s, &pos) in slots.iter_mut().zip(sel) {
                if *s != UNWANTED {
                    (*s, made) = (made, made + 1);
                    picked.push(pos as usize);
                }
            }
            base += sel.len();
            if picked.is_empty() {
                continue;
            }
            let mut stripe = self.stripes.open(*stripe as usize);
            for &col in &self.cols {
                let page = stripe.pin(col, io)?;
                values[col].extend(picked.iter().map(|&p| page.value_at(p)));
            }
        }
        Ok((values, slot))
    }
}
