//! The Grouping box: accumulators, group tables and GROUP BY keys.
//!
//! `eval_grouping` picks the algorithm — hash aggregation ([`build_groups`]:
//! whole, per worker slice and merged, or per spilled partition) or the
//! kernel grand total ([`grand_total_groups`]); all fold the same values in
//! the same order, so the result bytes never depend on which one ran, or on
//! the memory budget. The input is candidate tuples (`crate::tuple`): a
//! GROUP BY list of plain columns compiles to column offsets
//! ([`GroupKeys`]), read through the candidates' positions, hashed and
//! compared where the values sit and copied only into the group a key
//! opens. When every key column comes from one input — an outer join's
//! left side, say — consecutive candidates at one position of it share
//! their key, which is then hashed once. Plain-column aggregate arguments
//! are read in place too; computed keys or arguments, and all of them when
//! `ExecOptions::columnar` is off, go through the evaluator over one
//! scratch row per candidate.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use decorr_common::columnar::{self, Column};
use decorr_common::{Error, FxHashMap, FxHashSet, FxHasher, Result, Row, Value};
use decorr_qgm::{AggFunc, BoxId, Expr};
use decorr_storage::{PageIo, SpillManager};

use super::lower::{GroupOp, Plan};
use super::{tag_row, untag_rows, Executor};
use crate::env::{Env, Layout};
use crate::eval::eval_expr;
use crate::tuple::{Src, Tuples};
use crate::vector;

impl Executor<'_> {
    pub(super) fn eval_grouping(
        &mut self,
        plan: &Plan<'_>,
        b: BoxId,
        group_by: &[Expr],
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let qgm = plan.qgm;
        let bx = qgm.boxref(b);
        let child = qgm.quant(bx.quants[0]).input;
        let op = plan.get(b).group.as_ref().expect("a Grouping is lowered");
        let (layout, agg_slots) = (&op.layout, &op.slots);

        // The input: a Select's or an outer join's candidates as they
        // stand — a scan's survivors perhaps still on their pages, a join's
        // pairs never concatenated.
        let mut input = self.eval_tuples(plan, child, env)?;
        let n = input.len();
        self.checkpoint(n as u64)?;
        self.stats.agg_input_rows += n as u64;

        // Memory governance: the hash table over this input holds one group
        // per row at worst — but a grand total (no GROUP BY) holds one
        // whatever its input, and never spills. Over the budget with a
        // spill manager, the input partitions by group-key hash to disk and
        // each partition aggregates alone; rows, float accumulation order
        // and first-appearance emission order are all those of the
        // in-memory hash path, which runs when there is no spill device or
        // its device is full.
        const WHAT: &str = "grouping input";
        let spilling = match group_by.is_empty() {
            true => None,
            false => self.spill_for(n, WHAT),
        };

        // Grand totals whose aggregates are plain-column COUNT/SUM/MIN/MAX
        // vectorize: the aggregate kernels fold each argument as a column —
        // copied out through the candidates' positions, or off the pages of
        // a scan that is still paged — and reproduce the serial fold
        // exactly (Double accumulation order and Int overflow included).
        // Anything else reads rows.
        let kernel_cols = op.kernel.as_ref().filter(|_| n > 0);
        let every_output_aggregates = agg_slots.len() == bx.outputs.len();
        if kernel_cols.is_none() || !every_output_aggregates {
            self.settle(&mut input)?;
        }
        let spill = |(mgr, parts): (Arc<SpillManager>, usize)| {
            self.spilled_groups(&input, op, env, &mgr, parts)
        };
        let spilled = match spilling.map(spill) {
            Some(Ok(groups)) => Some(groups),
            Some(Err(Error::StorageFull(_))) => {
                self.note_spill_full(WHAT);
                None
            }
            Some(Err(e)) => return Err(e),
            None => None,
        };

        // One accumulator vector per group (one accumulator per agg slot),
        // in first-appearance order. Large inputs aggregate into
        // thread-local tables over contiguous ranges, merged in range
        // order — the merge replays distinct values in first-seen order,
        // so the result is the one the serial fold produces.
        let mut groups: Vec<Group> = if let Some(groups) = spilled {
            groups
        } else if let Some(cols) = kernel_cols {
            let mut io = PageIo::default();
            let args = cols
                .iter()
                .map(|c| c.map(|c| input.column(c, &mut io)).transpose())
                .collect::<Result<Vec<_>>>()?;
            self.note_io(io);
            grand_total_groups(n, Some(0), agg_slots, &args)?
        } else if self.parallel_over(n) {
            let per = n.div_ceil(self.pool.threads());
            let partials = self.pool.run_indexed(n.div_ceil(per), |s| {
                let range = s * per..((s + 1) * per).min(n);
                build_groups(&input, range, op, env, true)
            });
            let mut merged: Vec<Group> = Vec::new();
            let mut index: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
            for partial in partials {
                merge_groups(&mut merged, &mut index, partial?, agg_slots)?;
            }
            merged
        } else {
            build_groups(&input, 0..n, op, env, false)?
        };

        // A grand-total aggregate (no GROUP BY) over empty input still
        // produces one row — the asymmetry behind the COUNT bug.
        if groups.is_empty() && group_by.is_empty() {
            groups.push(Group::new(Vec::new(), None, agg_slots.len()));
        }

        self.stats.agg_groups += groups.len() as u64;
        self.check_mem(groups.len(), "grouping")?;

        // The outputs that are not aggregates read the group's first
        // candidate.
        let mut out = Vec::with_capacity(groups.len());
        let (nulls, mut scratch) = (Row::nulls(layout.width()), Row::empty());
        for group in &groups {
            let rep = match group.rep {
                Some(i) if !every_output_aggregates => input.row(i as usize, &mut scratch),
                _ => &nulls,
            };
            let env1 = Env::new(layout, rep, env);
            let mut row = Row(Vec::with_capacity(bx.outputs.len()));
            for (i, o) in bx.outputs.iter().enumerate() {
                if let Some(si) = agg_slots.iter().position(|s| s.out_pos == i) {
                    row.0.push(group.accs[si].finish(agg_slots[si].func)?);
                } else {
                    row.0.push(eval_expr(&o.expr, &env1)?);
                }
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Partitioned (spilled) hash aggregation: the disk-backed path for a
    /// grouping input over the memory budget. Candidates partition to disk
    /// as rows, by group-key hash, tagged with their index; each partition
    /// — which holds *every* candidate of each of its groups, in input
    /// order — then hash-aggregates exactly like the in-memory path, and
    /// groups are stable-sorted by their first candidate to restore the
    /// global first-appearance emission order.
    fn spilled_groups(
        &mut self,
        input: &Tuples<'_>,
        op: &GroupOp<'_>,
        env: Option<&Env<'_>>,
        spill: &SpillManager,
        parts: usize,
    ) -> Result<Vec<Group>> {
        let mut set = spill.partition_set(parts)?;
        let mut scratch = Row::empty();
        for i in 0..input.len() {
            let env1 = op.keys.bind(input, i, &op.layout, &mut scratch, env);
            let part = op.keys.of(input, i, env1.as_ref())?.hash() % parts as u64;
            set.push(part as usize, tag_row(i, input.row(i, &mut scratch)))?;
        }
        set.finish()?;

        let mut io = PageIo::default();
        let mut groups: Vec<Group> = Vec::new();
        for p in 0..parts {
            self.checkpoint(0)?;
            let (origs, rows) = untag_rows(set.read_partition(p, &mut io)?)?;
            let rows = Tuples::every(Src::Owned(rows), op.layout.width());
            for mut g in build_groups(&rows, 0..rows.len(), op, env, false)? {
                g.rep = g.rep.map(|r| origs[r as usize] as u32);
                groups.push(g);
            }
        }
        self.note_io(io);
        groups.sort_by_key(|g| g.rep);
        Ok(groups)
    }
}

/// One aggregate call in a Grouping box's output list.
pub(crate) struct AggSlot<'e> {
    pub func: AggFunc,
    pub arg: Option<&'e Expr>,
    /// The input column `arg` is, when it is a plain column and kernels
    /// are on.
    pub col: Option<usize>,
    pub distinct: bool,
    pub out_pos: usize,
}

/// One aggregated group.
pub(crate) struct Group {
    key: Vec<Value>,
    /// The group's first input candidate, which the outputs that are not
    /// aggregates are read from; `None` for a total over nothing.
    pub rep: Option<u32>,
    /// One accumulator per aggregate slot.
    pub accs: Vec<Acc>,
}

impl Group {
    pub fn new(key: Vec<Value>, rep: Option<u32>, slots: usize) -> Self {
        Group { key, rep, accs: vec![Acc::new(); slots] }
    }
}

/// Accumulator state for one aggregate over one group.
#[derive(Clone)]
pub(crate) struct Acc {
    count: i64,
    sum: Value,
    min: Value,
    max: Value,
    distinct: FxHashSet<Value>,
    /// Distinct values in first-seen order. Parallel merges replay a later
    /// slice's values through [`acc_update`] in this order, reproducing the
    /// exact accumulation sequence of a serial scan (sum order included).
    distinct_order: Vec<Value>,
    /// Non-distinct SUM/AVG inputs in arrival order, recorded only by
    /// parallel slice workers. Floating-point addition is not associative,
    /// so merging partial sums would produce a (slightly) different Double
    /// than the serial fold; the merge replays these values instead.
    sum_order: Vec<Value>,
}

impl Acc {
    fn new() -> Self {
        Acc {
            count: 0,
            sum: Value::Null,
            min: Value::Null,
            max: Value::Null,
            distinct: FxHashSet::default(),
            distinct_order: Vec::new(),
            sum_order: Vec::new(),
        }
    }

    /// The aggregate's value once every row is folded in.
    pub fn finish(&self, func: AggFunc) -> Result<Value> {
        if self.count == 0 {
            return Ok(func.empty_value());
        }
        Ok(match func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => self.sum.clone(),
            // AVG is always a double, even when the sum divides exactly
            // (clients should not see the result type vary with the data).
            AggFunc::Avg => Value::Double(self.sum.as_double()? / self.count as f64),
            AggFunc::Min => self.min.clone(),
            AggFunc::Max => self.max.clone(),
        })
    }
}

/// Fold a (non-NULL, distinct-deduplicated upstream of the DISTINCT check
/// here) value into an accumulator.
fn acc_update(slot: &AggSlot<'_>, acc: &mut Acc, v: Value) -> Result<()> {
    if slot.distinct {
        if !acc.distinct.insert(v.clone()) {
            return Ok(());
        }
        acc.distinct_order.push(v.clone());
    }
    acc.count += 1;
    match slot.func {
        AggFunc::Count => {}
        AggFunc::Sum | AggFunc::Avg => {
            acc.sum = if acc.sum.is_null() {
                v.clone()
            } else {
                acc.sum.add(&v)?
            };
        }
        AggFunc::Min | AggFunc::Max => {
            if acc.min.is_null() || v < acc.min {
                acc.min = v.clone();
            }
            if acc.max.is_null() || v > acc.max {
                acc.max = v;
            }
        }
    }
    Ok(())
}

/// Per-slot kernel argument columns for a vectorizable grand total:
/// `None` inside the vec means `COUNT(*)`. `None` overall when any slot
/// needs the row-wise fold (DISTINCT, computed or unbound arguments).
pub(crate) fn grand_total_cols(slots: &[AggSlot<'_>]) -> Option<Vec<Option<usize>>> {
    let col = |s: &AggSlot<'_>| match s.arg {
        None => Some(None),
        Some(_) => s.col.map(Some),
    };
    slots
        .iter()
        .map(|s| col(s).filter(|_| !s.distinct))
        .collect()
}

/// Vectorized grand-total aggregation over `rows` input rows: one
/// accumulator per slot, computed by the columnar COUNT/SUM/MIN/MAX
/// kernels over the slot's argument column (`None`: `COUNT(*)`) instead of
/// a per-row fold. `rep` is the first input candidate, exactly as the
/// serial fold sets it.
pub(crate) fn grand_total_groups(
    rows: usize,
    rep: Option<u32>,
    slots: &[AggSlot<'_>],
    args: &[Option<Column>],
) -> Result<Vec<Group>> {
    let mut total = Group::new(Vec::new(), rep, slots.len());
    for ((slot, arg), acc) in slots.iter().zip(args).zip(&mut total.accs) {
        match arg {
            None => acc.count = rows as i64, // COUNT(*): every row counts
            Some(c) => {
                acc.count = columnar::count_kernel(c);
                match slot.func {
                    AggFunc::Count => {}
                    AggFunc::Sum | AggFunc::Avg => acc.sum = columnar::sum_kernel(c)?,
                    AggFunc::Min | AggFunc::Max => {
                        acc.min = columnar::min_kernel(c);
                        acc.max = columnar::max_kernel(c);
                    }
                }
            }
        }
    }
    Ok(vec![total])
}

/// The GROUP BY key of the row bound by `env`. Forced inline: as an
/// out-of-line call it cost hash aggregation ~30 ns per input row (+15 % on
/// the grouping box of EMP/DEPT under Dayal, measured).
#[inline(always)]
fn group_key(group_by: &[Expr], env: &Env<'_>) -> Result<Vec<Value>> {
    let mut key = Vec::with_capacity(group_by.len());
    for g in group_by {
        key.push(eval_expr(g, env)?);
    }
    Ok(key)
}

/// A Grouping's GROUP BY list, compiled once, and how its candidates are
/// read.
pub(crate) struct GroupKeys<'e> {
    exprs: &'e [Expr],
    /// Where each key sits in a candidate, when every key is a plain
    /// column and kernels are on; otherwise the evaluator makes the keys.
    offs: Option<Vec<usize>>,
    /// Do the keys or an aggregate argument need the evaluator, and so a
    /// row per candidate?
    row: bool,
}

/// One candidate's GROUP BY key.
pub(crate) enum RowKey<'r> {
    At(&'r Tuples<'r>, usize, &'r [usize]),
    Made(Vec<Value>),
}

impl<'e> GroupKeys<'e> {
    pub fn compile(exprs: &'e [Expr], layout: &Layout, columnar: bool, slots: &[AggSlot]) -> Self {
        let offs = vector::compile_projection(exprs.iter(), layout).filter(|_| columnar);
        let row = offs.is_none() || slots.iter().any(|s| s.arg.is_some() && s.col.is_none());
        GroupKeys { exprs, offs, row }
    }

    /// The key of candidate `i` of `input`, `env1` binding its row when
    /// the evaluator needs one.
    pub fn of<'r>(
        &'r self,
        input: &'r Tuples<'_>,
        i: usize,
        env1: Option<&Env<'_>>,
    ) -> Result<RowKey<'r>> {
        match &self.offs {
            Some(offs) => Ok(RowKey::At(input, i, offs)),
            None => {
                group_key(self.exprs, env1.expect("evaluated keys have a row")).map(RowKey::Made)
            }
        }
    }

    /// Candidate `i` bound for the evaluator, if anything needs it.
    pub fn bind<'s>(
        &self,
        input: &'s Tuples<'_>,
        i: usize,
        layout: &'s Layout,
        scratch: &'s mut Row,
        env: Option<&'s Env<'s>>,
    ) -> Option<Env<'s>> {
        self.row
            .then(|| Env::new(layout, input.row(i, scratch), env))
    }
}

impl RowKey<'_> {
    /// The hash of the key's values, the same whichever way it is held.
    pub fn hash(&self) -> u64 {
        fn of<'v>(values: impl Iterator<Item = &'v Value>) -> u64 {
            let mut h = FxHasher::default();
            values.for_each(|v| v.hash(&mut h));
            h.finish()
        }
        match self {
            RowKey::At(t, i, offs) => of(offs.iter().map(|&c| t.value(*i, c))),
            RowKey::Made(key) => of(key.iter()),
        }
    }

    fn is(&self, key: &[Value]) -> bool {
        match self {
            RowKey::At(t, i, offs) => offs.iter().map(|&c| t.value(*i, c)).eq(key),
            RowKey::Made(made) => made == key,
        }
    }

    fn into_values(self) -> Vec<Value> {
        match self {
            RowKey::At(t, i, offs) => offs.iter().map(|&c| t.value(i, c).clone()).collect(),
            RowKey::Made(key) => key,
        }
    }
}

/// Hash-aggregate the candidates `range` of `input` into per-group
/// accumulators, groups in first-appearance order, each with its first
/// candidate. Runs serially over the whole input, or as one worker's
/// thread-local aggregation over a contiguous range.
pub(crate) fn build_groups(
    input: &Tuples<'_>,
    range: std::ops::Range<usize>,
    op: &GroupOp<'_>,
    env: Option<&Env<'_>>,
    record_sum_order: bool,
) -> Result<Vec<Group>> {
    let GroupOp { layout, slots, keys, .. } = op;
    let mut groups: Vec<Group> = Vec::new();
    // Key hash → the groups carrying it.
    let mut index: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    // The one input every key column is read from, and the position in it
    // whose group the last candidate joined.
    let part = keys.offs.as_ref().and_then(|offs| {
        let p = input.part_of(*offs.first()?);
        offs.iter().all(|&c| input.part_of(c) == p).then_some(p)
    });
    let mut last: Option<(u32, usize)> = None;
    let mut scratch = Row::empty();
    for i in range {
        let env1 = keys.bind(input, i, layout, &mut scratch, env);
        let at = part.map(|p| input.position(p, i));
        let gi = match last {
            Some((pos, gi)) if at == Some(pos) => gi,
            _ => {
                let key = keys.of(input, i, env1.as_ref())?;
                let same_hash = index.entry(key.hash()).or_default();
                let gi = match same_hash.iter().find(|&&g| key.is(&groups[g as usize].key)) {
                    Some(&g) => g as usize,
                    None => {
                        same_hash.push(groups.len() as u32);
                        groups.push(Group::new(key.into_values(), Some(i as u32), slots.len()));
                        groups.len() - 1
                    }
                };
                last = at.map(|pos| (pos, gi));
                gi
            }
        };
        for (slot, acc) in slots.iter().zip(groups[gi].accs.iter_mut()) {
            let v = match (slot.arg, slot.col) {
                (None, _) => Value::Int(1), // COUNT(*): every row counts
                (Some(_), Some(c)) => input.value(i, c).clone(),
                (Some(a), None) => eval_expr(a, env1.as_ref().expect("arguments have a row"))?,
            };
            if slot.arg.is_some() && v.is_null() {
                continue; // NULLs are ignored by all aggregates
            }
            if record_sum_order
                && !slot.distinct
                && matches!(slot.func, AggFunc::Sum | AggFunc::Avg)
            {
                acc.sum_order.push(v.clone());
            }
            acc_update(slot, acc, v)?;
        }
    }
    Ok(groups)
}

/// Merge a later slice's groups into the accumulated result, preserving
/// first-appearance order across slices (slices are merged in input
/// order, so this is the serial appearance order).
pub(crate) fn merge_groups(
    into: &mut Vec<Group>,
    index: &mut FxHashMap<Vec<Value>, usize>,
    from: Vec<Group>,
    slots: &[AggSlot<'_>],
) -> Result<()> {
    for group in from {
        match index.get(&group.key) {
            Some(&gi) => {
                for ((slot, into_acc), from_acc) in
                    slots.iter().zip(into[gi].accs.iter_mut()).zip(group.accs)
                {
                    merge_acc(slot, into_acc, from_acc)?;
                }
            }
            None => {
                index.insert(group.key.clone(), into.len());
                into.push(group);
            }
        }
    }
    Ok(())
}

/// Combine two accumulators for the same (group, aggregate) pair. `into`
/// comes from an earlier input slice than `from`.
fn merge_acc(slot: &AggSlot<'_>, into: &mut Acc, from: Acc) -> Result<()> {
    if slot.distinct {
        // Partial DISTINCT sets may overlap; replay the later slice's
        // values (first-seen order) through the serial update, which
        // dedups against the earlier slice's set.
        for v in from.distinct_order {
            acc_update(slot, into, v)?;
        }
        return Ok(());
    }
    match slot.func {
        AggFunc::Count => into.count += from.count,
        AggFunc::Sum | AggFunc::Avg => {
            // Adding `from.sum` here would re-associate floating-point
            // addition (slice totals instead of the serial left-to-right
            // fold) and shift Double sums by an ulp or two. Replay the
            // later slice's inputs in arrival order instead; this also
            // advances `into.count`, once per value, exactly as the
            // serial scan did.
            for v in from.sum_order {
                acc_update(slot, into, v)?;
            }
        }
        AggFunc::Min | AggFunc::Max => {
            into.count += from.count;
            if !from.min.is_null() && (into.min.is_null() || from.min < into.min) {
                into.min = from.min;
            }
            if !from.max.is_null() && (into.max.is_null() || from.max > into.max) {
                into.max = from.max;
            }
        }
    }
    Ok(())
}
