//! Scans: a Select's Foreach input read along its lowered access path.
//!
//! What a paged scan hands on is a selection over its table's pages, not
//! rows. A full scan of a paged table decides which rows survive stripe by
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

use std::sync::Arc;

use decorr_common::columnar::{Column, ColumnGather, ColumnarBatch, SelVec};
use decorr_common::{CmpOp, Result, Row, Value};
use decorr_qgm::Expr;
use decorr_stats::shape::Input;
use decorr_storage::{Bound, PageIo, Stripes, Table};

use super::lower::{Access, Plan};
use super::{qualifies_all, CorrIndex, Executor};
use crate::env::{Env, Layout};
use crate::eval::eval_expr;
use crate::tuple::{Src, Tuples};
use crate::vector;

impl<'a> Executor<'a> {
    /// Read a Select's Foreach `input` along its `access` path with its own
    /// predicates (among the Select's `preds`): a base table — a deferred
    /// one whole — and any other input evaluated, then filtered. A resident
    /// table's survivors are positions into its rows; a paged table's, a
    /// selection over its pages.
    pub(super) fn scan_quant(
        &mut self,
        plan: &Plan<'_>,
        input: &Input<'_>,
        access: &Access<'_>,
        preds: &[Expr],
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        let (q, arity) = (input.q, input.arity);
        let mut q_layout = Layout::new();
        q_layout.push(q, arity);
        let q_layout = &q_layout;
        let kept: Vec<&Expr> = input.own.iter().map(|&i| &preds[i]).collect();
        let table = match access {
            Access::Derived => {
                // The child's batch, shared: its survivors are positions
                // into it.
                let rows = self.eval_child(plan, input.child, env)?;
                let mut out = Tuples::every(Src::Batch(rows), arity);
                self.filter(&mut out, q_layout, &kept, env)?;
                return Ok(out);
            }
            Access::Deferred(table)
            | Access::Index(table, _)
            | Access::Paged(table, ..)
            | Access::Correlated(table, _)
            | Access::Scan(table) => table,
        };
        let t: &'a Table = self.db.table(table)?;
        let at = |positions: Vec<u32>| Tuples::of(Src::Table(t.rows()), positions, arity);
        let empty_layout = Layout::new();
        let empty_row = Row::empty();
        let env0 = Env::new(&empty_layout, &empty_row, env);
        // The own predicates a probe on predicate `pi` leaves to run.
        let rest_of = |pi: usize| -> Vec<&Expr> {
            (input.own.iter())
                .filter(|&&i| i != pi)
                .map(|&i| &preds[i])
                .collect()
        };

        match access {
            Access::Index(_, probe) => {
                let key = eval_expr(probe.key, &env0)?;
                let idx = t
                    .index_on(&[probe.col])
                    .expect("the lowering saw the index");
                let positions = idx.lookup(std::slice::from_ref(&key)).iter().copied();
                return self
                    .fetch_probed(t, positions, &rest_of(probe.pred), q_layout, env)
                    .map(at);
            }
            Access::Paged(_, read) => {
                let stripes = t.stripes().expect("the lowering saw a paged table");
                let (read, bounds) = (read.clone(), &input.bounds);
                return self.scan_paged(t.len(), stripes, bounds, &kept, read, q_layout, env);
            }
            Access::Correlated(_, probe) => {
                let key = eval_expr(probe.key, &env0)?;
                if let Some(idx) = self.corr_index(t, probe.col)? {
                    let positions: &[u32] = key
                        .eq_key()
                        .and_then(|k| idx.get(&k))
                        .map_or(&[], |v| v.as_slice());
                    let positions = positions.iter().map(|&p| p as usize);
                    return self
                        .fetch_probed(t, positions, &rest_of(probe.pred), q_layout, env)
                        .map(at);
                }
            }
            _ => {}
        }

        // Full scan. Under `columnar` the filter columns transpose into the
        // per-run batch cache once, and each (re-)scan — notably nested
        // iteration's correlated re-scans, whose outer bindings compile to
        // literals — runs the filter kernels over it. The survivors stay
        // where they are: positions into the table's rows.
        self.stats.rows_scanned += t.len() as u64;
        let every = Tuples::every(Src::Table(t.rows()), arity);
        if kept.is_empty() {
            return Ok(every);
        }
        self.checkpoint(t.len() as u64)?;
        self.select_rows(&every, Some(t), q_layout, &kept, env)
            .map(at)
    }

    /// The correlation probe's hash partition of `t` by the probed column:
    /// the second scan of this shape in the run pays one build pass over
    /// the table, and every scan after it probes. One-shot scans never pay
    /// the build; the probe returns positions in scan order and the other
    /// predicates run per surviving row, so rows and row order are those of
    /// the full scan.
    fn corr_index(&mut self, t: &Table, col: usize) -> Result<Option<CorrIndex>> {
        let shape = (t.version(), col);
        match self.corr_index.get(&shape) {
            Some(Some(idx)) => return Ok(Some(Arc::clone(idx))),
            Some(None) => {}
            None => {
                self.corr_index.insert(shape, None);
                return Ok(None);
            }
        }
        self.checkpoint(t.len() as u64)?;
        self.stats.rows_scanned += t.len() as u64;
        self.stats.hash_build_rows += t.len() as u64;
        let built = Arc::new(vector::build_corr_index(t.rows(), col));
        self.corr_index.insert(shape, Some(Arc::clone(&built)));
        Ok(Some(built))
    }

    /// Scan a paged table through the buffer pool, stripe by stripe. A
    /// stripe whose zone maps refute one of the sargable `bounds`, each
    /// evaluated under the outer bindings (so correlated re-scans prune
    /// too), is skipped without touching its pages; over the others,
    /// predicates that compile to kernel form run on the pinned predicate
    /// columns alone, charging one evaluation per predicate per row still
    /// alive at its turn, exactly as [`vector::filter_range`] does over a
    /// resident batch. What comes back is the selection: no row has been
    /// made, and when one is, only its columns `read` will be fetched.
    /// Predicates that need the row-wise evaluator get rows — every row,
    /// whole, of every stripe the zone maps kept — and filter those.
    #[allow(clippy::too_many_arguments)]
    fn scan_paged(
        &mut self,
        table_rows: usize,
        stripes: Stripes<'a>,
        bounds: &[(usize, CmpOp, &Expr)],
        kept: &[&Expr],
        read: Vec<usize>,
        q_layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        self.checkpoint(table_rows as u64)?;
        let (empty_layout, empty_row) = (Layout::new(), Row::empty());
        let env0 = Env::new(&empty_layout, &empty_row, env);
        let bounds = bounds
            .iter()
            .map(|&(c, cmp, e)| Ok((c, cmp, eval_expr(e, &env0)?)));
        let bounds = bounds.collect::<Result<Vec<Bound>>>()?;
        let compiled = if self.opts.columnar {
            vector::compile_preds(kept, q_layout, env)
        } else {
            None
        };
        let row_wise = compiled.is_none() && !kept.is_empty();
        let mut filter = compiled.unwrap_or_default();
        let filter_cols = vector::pred_columns(&filter);
        vector::remap_preds(&mut filter, &filter_cols);

        let live: Vec<usize> = (0..stripes.count())
            .filter(|&page| stripes.may_match(page, &bounds))
            .collect();
        let mut io = PageIo::default();
        io.pages_pruned += (stripes.count() - live.len()) as u64;
        let scanned: u64 = live.iter().map(|&page| stripes.rows(page) as u64).sum();
        self.stats.rows_scanned += scanned;
        if !filter.is_empty() {
            self.checkpoint(scanned)?;
        }
        let read = match row_wise {
            true => (0..q_layout.width()).collect(),
            false => read,
        };
        let mut sel = ScanSel::new(stripes, read);
        let mut evals = 0u64;
        for page in live {
            self.checkpoint(0)?;
            let (mut stripe, n) = (stripes.open(page), stripes.rows(page) as u32);
            let cols = stripe.pin_all(&filter_cols, &mut io)?;
            let (survivors, e) = vector::filter_range(&|c| cols[c], &filter, 0, n);
            evals += e;
            sel.push(page, survivors);
        }
        self.note_io(io);
        self.note_preds(evals);
        let mut scanned = Tuples::every(Src::Paged(sel), q_layout.width());
        if row_wise {
            self.settle(&mut scanned)?;
            self.filter(&mut scanned, q_layout, kept, env)?;
        }
        Ok(scanned)
    }

    /// One index (or correlation-index) lookup: the probed positions of
    /// `t` in order whose rows pass the `rest` of the scan's predicates.
    fn fetch_probed(
        &mut self,
        t: &Table,
        positions: impl ExactSizeIterator<Item = usize>,
        rest: &[&Expr],
        q_layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<u32>> {
        self.stats.index_lookups += 1;
        self.stats.index_rows += positions.len() as u64;
        let mut out = Vec::new();
        let mut evals = 0u64;
        for p in positions {
            if qualifies_all(rest, &Env::new(q_layout, &t.rows()[p], env), &mut evals)? {
                out.push(p as u32);
            }
        }
        self.note_preds(evals);
        Ok(out)
    }

    /// The cached transpose of the base-table columns a compiled filter
    /// reads. Keyed per column set so repeated scans of the same table —
    /// notably nested iteration's correlated re-scans — transpose once;
    /// columns the filter never touches are never columnized. With a
    /// `shared_cache` the transpose is further shared *across* queries,
    /// keyed by the table's snapshot version so a long-lived process never
    /// reads a superseded snapshot.
    pub(super) fn table_batch(&mut self, t: &Table, cols: &[usize]) -> Arc<ColumnarBatch> {
        let key = (t.version(), cols.to_vec());
        if let Some(b) = self.col_cache.get(&key) {
            return Arc::clone(b);
        }
        let b = match &self.opts.shared_cache {
            Some(shared) => shared.get_or_build(t, cols, || vector::narrow_batch(t.rows(), cols)),
            None => Arc::new(vector::narrow_batch(t.rows(), cols)),
        };
        self.col_cache.insert(key, Arc::clone(&b));
        b
    }
}

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
