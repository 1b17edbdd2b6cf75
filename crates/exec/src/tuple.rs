//! Candidate tuples: what scans and joins hand on instead of rows.
//!
//! A Select's running candidate set, an outer join's result and a scan's
//! survivors are one thing here: per bound input a *part* — where that
//! input's rows are ([`Src`]) and one `u32` position per candidate into
//! them — and, per column of a candidate, the part and the column of its
//! rows that hold it. A join appends the right input's parts and re-picks
//! every part at its pairs; a filter re-picks them at the survivors; a
//! projection of plain columns only re-maps the columns. No value is copied
//! until a consumer reads it — a kernel through [`Tuples::column`], the
//! evaluator through [`Tuples::row`], a GROUP BY key or aggregate argument
//! through [`Tuples::value`] — and a `Row` is made only of a survivor
//! ([`Tuples::into_rows`]). An outer join marks a null-extended candidate
//! with [`NULL_POS`] in its right input's parts.
//!
//! A paged scan's selection ([`Src::Paged`]) has nothing copied off its
//! pages yet: kernels read its columns there. When a join or filter
//! re-picks it, or something must read its values by position
//! ([`Tuples::settle`]), the values of the positions still wanted are
//! copied out once each, column by column ([`Src::Cols`]) — still no row.

use std::sync::Arc;

use decorr_common::columnar::Column;
use decorr_common::{Result, Row, RowBatch, Value};
use decorr_storage::PageIo;

use crate::exec::ScanSel;

/// The position of an outer join's right input in a null-extended
/// candidate.
pub(crate) const NULL_POS: u32 = u32::MAX;

static NULL: Value = Value::Null;

/// Where one input's rows are.
pub(crate) enum Src<'t> {
    /// A resident table's rows.
    Table(&'t [Row]),
    /// Rows this operator made.
    Owned(Vec<Row>),
    /// A child's batch, which a memo or cache may hold too.
    Batch(RowBatch),
    /// A paged scan's survivors, nothing copied off the pages yet;
    /// positions index the selection and are always every survivor, in
    /// order.
    Paged(ScanSel<'t>),
    /// Values copied off a paged scan's pages: per table column, one value
    /// per position (none for a column nobody reads, which reads as NULL).
    Cols(Vec<Vec<Value>>),
}

impl Src<'_> {
    fn rows(&self) -> Option<&[Row]> {
        match self {
            Src::Table(rows) => Some(rows),
            Src::Owned(rows) => Some(rows),
            Src::Batch(rows) => Some(rows),
            Src::Paged(_) | Src::Cols(_) => None,
        }
    }

    fn value(&self, at: usize, c: usize) -> &Value {
        match self {
            Src::Table(rows) => &rows[at][c],
            Src::Owned(rows) => &rows[at][c],
            Src::Batch(rows) => &rows[at][c],
            Src::Cols(cols) => cols.get(c).and_then(|col| col.get(at)).unwrap_or(&NULL),
            Src::Paged(_) => unreachable!("a paged input is read by position once it settles"),
        }
    }

    /// Rows (or values) of the selection: every survivor, or the ones `pos`
    /// names; `pos` then indexes them.
    fn settled(&mut self, pos: &mut [u32], io: &mut PageIo) -> Result<()> {
        if let Src::Paged(sel) = self {
            let wanted = pos.iter().copied().filter(|&p| p != NULL_POS);
            let (values, slot) = sel.gather_matched(wanted, io)?;
            for p in pos.iter_mut().filter(|p| **p != NULL_POS) {
                *p = slot[*p as usize];
            }
            *self = Src::Cols(values);
        }
        Ok(())
    }
}

struct Part<'t> {
    src: Src<'t>,
    pos: Vec<u32>,
}

impl Part<'_> {
    /// Re-pick at `picks` (indices into the current positions, or
    /// [`NULL_POS`]); a paged part copies out what it keeps.
    fn repick(&mut self, picks: impl Iterator<Item = u32>, io: &mut PageIo) -> Result<()> {
        let at = |k: u32| {
            if k == NULL_POS {
                k
            } else {
                self.pos[k as usize]
            }
        };
        self.pos = picks.map(at).collect();
        self.src.settled(&mut self.pos, io)
    }
}

/// Candidate tuples; see the module docs.
pub(crate) struct Tuples<'t> {
    parts: Vec<Part<'t>>,
    /// Per column: its part, and its column in that part's rows.
    cols: Vec<(usize, usize)>,
    len: usize,
    /// One part whose rows are the candidates whole, column for column.
    whole: bool,
}

impl<'t> Tuples<'t> {
    /// One candidate of no columns: what a Select without a Foreach
    /// quantifier ranges over.
    pub fn unit() -> Self {
        Tuples { parts: Vec::new(), cols: Vec::new(), len: 1, whole: false }
    }

    /// The rows of `src` at `pos`, each of `arity` columns.
    pub fn of(src: Src<'t>, pos: Vec<u32>, arity: usize) -> Self {
        let len = pos.len();
        let cols = (0..arity).map(|c| (0, c)).collect();
        Tuples { parts: vec![Part { src, pos }], cols, len, whole: true }
    }

    /// Every row of `src`, in order.
    pub fn every(src: Src<'t>, arity: usize) -> Self {
        let n = match &src {
            Src::Paged(sel) => sel.len(),
            _ => src.rows().map_or(0, <[Row]>::len),
        };
        Tuples::of(src, (0..n as u32).collect(), arity)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Column `c` of candidate `i`.
    pub fn value(&self, i: usize, c: usize) -> &Value {
        let (p, pc) = self.cols[c];
        let part = &self.parts[p];
        match part.pos[i] {
            NULL_POS => &NULL,
            at => part.src.value(at as usize, pc),
        }
    }

    /// The part column `c` is read from.
    pub fn part_of(&self, c: usize) -> usize {
        self.cols[c].0
    }

    /// Candidate `i`'s position in part `p`.
    pub fn position(&self, p: usize, i: usize) -> u32 {
        self.parts[p].pos[i]
    }

    /// Candidate `i` as a row of all its columns: the input's own row when
    /// the candidates are whole rows of one input, else `scratch` refilled.
    pub fn row<'s>(&'s self, i: usize, scratch: &'s mut Row) -> &'s Row {
        if let Some(rows) = self.whole_rows() {
            return &rows[self.parts[0].pos[i] as usize];
        }
        scratch.0.clear();
        scratch
            .0
            .extend((0..self.cols.len()).map(|c| self.value(i, c).clone()));
        scratch
    }

    /// Column `c` of every candidate, copied out — off the pages for a
    /// paged input.
    pub fn column(&self, c: usize, io: &mut PageIo) -> Result<Column> {
        let (p, pc) = self.cols[c];
        match &self.parts[p].src {
            Src::Paged(sel) => sel.column(pc, io),
            _ => Ok(Column::from_values(
                (0..self.len).map(|i| self.value(i, c)),
                self.len,
            )),
        }
    }

    /// Keep the candidates `sel`, in that order.
    pub fn pick(&mut self, sel: &[u32], io: &mut PageIo) -> Result<()> {
        for part in &mut self.parts {
            part.repick(sel.iter().copied(), io)?;
        }
        self.len = sel.len();
        Ok(())
    }

    /// The candidates of `pairs`: this set's at the left index, `right`'s
    /// at the right one ([`NULL_POS`]: none, null-extended).
    pub fn join(
        mut self,
        right: Tuples<'t>,
        pairs: &[(u32, u32)],
        io: &mut PageIo,
    ) -> Result<Self> {
        for part in &mut self.parts {
            part.repick(pairs.iter().map(|p| p.0), io)?;
        }
        let base = self.parts.len();
        for mut part in right.parts {
            part.repick(pairs.iter().map(|p| p.1), io)?;
            self.parts.push(part);
        }
        self.cols
            .extend(right.cols.iter().map(|&(p, c)| (base + p, c)));
        self.len = pairs.len();
        self.whole = false;
        Ok(self)
    }

    /// Read the columns `offs`, in that order, as the candidates' columns.
    pub fn project(&mut self, offs: &[usize]) {
        self.whole &= offs.iter().copied().eq(0..self.cols.len());
        self.cols = offs.iter().map(|&o| self.cols[o]).collect();
    }

    /// The rows of the single input whose rows are the candidates whole.
    fn whole_rows(&self) -> Option<&[Row]> {
        self.parts.first().filter(|_| self.whole)?.src.rows()
    }

    /// Copy out the values of every still-paged input, for a reader by
    /// position.
    pub fn settle(&mut self, io: &mut PageIo) -> Result<()> {
        for part in &mut self.parts {
            part.src.settled(&mut part.pos, io)?;
        }
        Ok(())
    }

    /// Every candidate as a row (settled first); when the candidates are
    /// every row of one input, whole and in order, those rows themselves.
    pub fn into_rows(mut self) -> Vec<Row> {
        let every = self.whole_rows().is_some_and(|rows| {
            let mut at = self.parts[0].pos.iter().enumerate();
            rows.len() == self.len && at.all(|(i, &p)| p as usize == i)
        });
        if every {
            return match self.parts.swap_remove(0).src {
                Src::Owned(rows) => rows,
                Src::Batch(mut b) => match Arc::get_mut(&mut b) {
                    Some(rows) => rows.iter_mut().map(std::mem::take).collect(),
                    None => b.to_vec(),
                },
                src => src.rows().map_or_else(Vec::new, <[Row]>::to_vec),
            };
        }
        let width = self.cols.len();
        let row = |i| (0..width).map(|c| self.value(i, c).clone()).collect();
        (0..self.len).map(row).collect()
    }
}
