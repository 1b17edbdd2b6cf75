//! Joins: how a join step finds its `(left, right)` pairs, and the one
//! equi-join kernel every join shares.
//!
//! Every decorrelated plan ends in an equi-join or a COUNT-bug-repairing
//! left outer join on a `NullEq` key against the magic table, so the
//! executor has exactly one implementation of each step of one:
//!
//! * [`split_equi_keys`] decides which predicates of a join are hash keys;
//! * [`JoinSide`] evaluates and bulk-hashes one input's keys — through the
//!   columnar hash kernels, or row-wise through [`extract_join_keys`] when
//!   a key is computed or `ExecOptions::columnar` is off;
//! * [`match_pairs`] builds and probes the hash table and returns the
//!   matching `(left, right)` candidate-index pairs in serial probe order.
//!
//! The pairs *are* the join's result: the inner join hands them on as
//! candidate tuples (`Tuples::join`), the outer join — which reaches its
//! pairs through the same `equi_join` as the inner one, or through an index
//! — walks them per left row first ([`walk_outer`]: residual ON
//! predicates, null extension), and a Grace spill over the memory budget
//! runs the kernel once per re-read partition and sorts its pairs back.
//! Index nested loops into a deferred table emit pairs in the same order.
//! No join makes a row.
//!
//! `ExecStats` parity is the design constraint: both key representations
//! hash with the same `eq_key`/total-order semantics, so equal keys hash
//! equally *across* them and the set of matching pairs — and with the
//! left-order probe, the output order — never depends on the
//! representation or the thread count.

use std::cmp::Ordering;

use decorr_common::columnar::{self, Column, SelVec, ValRef};
use decorr_common::{Error, FxHashMap, Result, Row, Value, WorkerPool, MORSEL_ROWS};
use decorr_qgm::{BinOp, Expr, QuantId};
use decorr_stats::access;
use decorr_stats::shape::{Input, SelectShape};
use decorr_storage::{PageIo, SpillManager, Table};

use super::{qualifies_all, tag_row, untag_rows, Executor};
use crate::env::{Env, Layout};
use crate::eval::eval_expr;
use crate::trace::JoinStrategy;
use crate::tuple::{Src, Tuples, NULL_POS};

/// One key part: the expression, and whether it matches under `IS NOT
/// DISTINCT FROM` (`true`: NULL matches NULL, the decorrelated re-join
/// with the magic table) or SQL `=` (`false`: NULL/NaN match nothing).
pub(crate) type KeyExpr<'e> = (&'e Expr, bool);

/// A join's predicates split into aligned key parts and residuals.
pub(crate) struct EquiKeys<'e> {
    pub left: Vec<KeyExpr<'e>>,
    pub right: Vec<KeyExpr<'e>>,
    /// Positions (in input order) of the predicates that are not keys.
    pub residual: Vec<usize>,
}

/// Classify join predicates: `a = b` / `a IS NOT DISTINCT FROM b` is a key
/// when one operand reads the `left` layout and never `right`, and the
/// other reads `right` and nothing of `left`. References bound by neither
/// (outer correlation) are constants during the join and may sit on either
/// side.
pub(crate) fn split_equi_keys<'e>(
    preds: impl IntoIterator<Item = &'e Expr>,
    left: &Layout,
    right: QuantId,
) -> EquiKeys<'e> {
    let on_left = |e: &Expr| {
        let q = e.referenced_quants();
        q.iter().all(|x| *x != right) && q.iter().any(|x| left.contains(*x))
    };
    let on_right = |e: &Expr| {
        let q = e.referenced_quants();
        q.contains(&right) && q.iter().all(|x| !left.contains(*x))
    };
    let mut keys = EquiKeys { left: Vec::new(), right: Vec::new(), residual: Vec::new() };
    for (i, p) in preds.into_iter().enumerate() {
        if let Expr::Binary { op: op @ (BinOp::Eq | BinOp::NullEq), left: a, right: b } = p {
            let null_ok = *op == BinOp::NullEq;
            let sides = if on_left(a) && on_right(b) {
                Some((a, b))
            } else if on_right(a) && on_left(b) {
                Some((b, a))
            } else {
                None
            };
            if let Some((l, r)) = sides {
                keys.left.push((&**l, null_ok));
                keys.right.push((&**r, null_ok));
                continue;
            }
        }
        keys.residual.push(i);
    }
    keys
}

/// Evaluate normalized join keys for every candidate — the row-wise key
/// evaluator, over one scratch row per candidate. `None` marks a candidate
/// whose `=` key is NULL/NaN (it can never match); `=` parts are
/// `eq_key`-normalized, `IS NOT DISTINCT FROM` parts kept raw (total-order
/// semantics, exactly `Value`'s `Eq`/`Hash`).
fn extract_join_keys(
    pool: &WorkerPool,
    tuples: &Tuples<'_>,
    layout: &Layout,
    keys: &[KeyExpr<'_>],
    env: Option<&Env<'_>>,
) -> Result<Vec<Option<Vec<Value>>>> {
    let n = tuples.len();
    let chunks = pool.run_indexed(n.div_ceil(MORSEL_ROWS), |m| {
        let mut out = Vec::with_capacity(MORSEL_ROWS);
        let mut scratch = Row::empty();
        'rows: for i in m * MORSEL_ROWS..((m + 1) * MORSEL_ROWS).min(n) {
            let env1 = Env::new(layout, tuples.row(i, &mut scratch), env);
            let mut key = Vec::with_capacity(keys.len());
            for (k, null_ok) in keys {
                let v = eval_expr(k, &env1)?;
                if *null_ok {
                    key.push(v);
                } else {
                    match v.eq_key() {
                        Some(v) => key.push(v),
                        None => {
                            out.push(None);
                            continue 'rows;
                        }
                    }
                }
            }
            out.push(Some(key));
        }
        Ok(out)
    });
    let mut all = Vec::with_capacity(n);
    for c in chunks {
        all.extend(c?);
    }
    Ok(all)
}

/// One side of an equi-join, bulk-hashed. `hashes[i]` is `None` iff the
/// row can never match (an `=` key part was NULL or NaN).
pub(crate) struct JoinSide {
    hashes: Vec<Option<u64>>,
    /// Per-part `IS NOT DISTINCT FROM` flag (raw total-order matching).
    null_ok: Vec<bool>,
    repr: SideRepr,
}

enum SideRepr {
    /// Transposed key-part columns (raw values; exclusion lives in `hashes`).
    Cols(Vec<Column>),
    /// Extracted keys, `=` parts `eq_key`-normalized.
    Keys(Vec<Option<Vec<Value>>>),
}

impl JoinSide {
    /// Hash one join input. With `columnar` and every key a plain local
    /// column, the key columns are copied out through the candidates'
    /// positions (off the pages, for a paged input) and hash through
    /// [`columnar::hash_kernel`] — no row and no per-candidate `Vec<Value>`
    /// is made. Otherwise (computed keys, correlation constants, the
    /// row-wise reference configuration) keys evaluate candidate by
    /// candidate and hash through the kernel-compatible
    /// [`columnar::hash_keys`].
    pub fn build(
        pool: &WorkerPool,
        tuples: &mut Tuples<'_>,
        layout: &Layout,
        keys: &[KeyExpr<'_>],
        env: Option<&Env<'_>>,
        columnar: bool,
        io: &mut PageIo,
    ) -> Result<JoinSide> {
        let null_ok: Vec<bool> = keys.iter().map(|&(_, ok)| ok).collect();
        let offs: Option<Vec<usize>> = keys
            .iter()
            .map(|(k, _)| match k {
                Expr::Col { quant, col } if columnar => {
                    layout.offset_of(*quant).map(|off| off + col)
                }
                _ => None,
            })
            .collect();
        if let Some(offs) = offs {
            let parts = offs
                .iter()
                .map(|&off| tuples.column(off, io))
                .collect::<Result<Vec<Column>>>()?;
            return Ok(JoinSide::from_columns(parts, null_ok));
        }
        tuples.settle(io)?;
        let keyed = extract_join_keys(pool, tuples, layout, keys, env)?;
        let hashes = columnar::hash_keys(&keyed);
        Ok(JoinSide { hashes, null_ok, repr: SideRepr::Keys(keyed) })
    }

    /// Hash a join input whose key parts are at hand as columns (one per
    /// part, all of the input's length).
    fn from_columns(parts: Vec<Column>, null_ok: Vec<bool>) -> JoinSide {
        let spec: Vec<(&Column, bool)> = parts.iter().zip(null_ok.iter().copied()).collect();
        let sel: SelVec = (0..parts.first().map_or(0, Column::len) as u32).collect();
        let hashes = columnar::hash_kernel(&spec, &sel);
        JoinSide { hashes, null_ok, repr: SideRepr::Cols(parts) }
    }

    /// Which of `parts` hash partitions row `i` belongs to — equal keys
    /// land in the same partition on both sides.
    pub fn partition(&self, i: usize, parts: usize) -> Option<usize> {
        self.hashes[i].map(|h| (h % parts as u64) as usize)
    }

    fn part(&self, row: usize, p: usize) -> ValRef<'_> {
        match &self.repr {
            SideRepr::Cols(parts) => parts[p].get(row),
            SideRepr::Keys(keys) => {
                ValRef::of(&keys[row].as_ref().expect("hashed row has a key")[p])
            }
        }
    }

    /// Do the keys of `self[i]` and `other[j]` match? Only called on rows
    /// whose hashes are present and equal (collision verification).
    ///
    /// `=` parts compare under SQL equality — valid whether the part is
    /// raw (`Cols`) or normalized (`Keys`), since exclusion already
    /// removed NULL/NaN and SQL equality folds `-0.0`/`0.0` and
    /// `Int`/`Double` the same way `eq_key` normalization does. `IS NOT
    /// DISTINCT FROM` parts compare under the total order, which both
    /// representations keep raw.
    fn key_eq(&self, i: usize, other: &JoinSide, j: usize) -> bool {
        (0..self.null_ok.len()).all(|p| {
            let a = self.part(i, p);
            let b = other.part(j, p);
            if self.null_ok[p] {
                a.total_cmp(b) == Ordering::Equal
            } else {
                a.sql_cmp(b) == Some(Ordering::Equal)
            }
        })
    }
}

/// Build a table over the `right` rows of `rs`, probe it with the `left`
/// rows of `ls` in the order given: the one equi-join hash table in the
/// executor. The table maps a key hash to the build rows carrying it, in
/// build order, and collisions verify by comparing the keyed rows *in
/// place* — no per-probe rehash, no owned map keys. The rows of all
/// hashes share one vector (each hash owns a contiguous run of it), so
/// building allocates a handful of times, not once per distinct key.
fn build_and_probe(
    ls: &JoinSide,
    rs: &JoinSide,
    left: impl Iterator<Item = u32>,
    right: impl Iterator<Item = u32>,
) -> Vec<(u32, u32)> {
    // First pass: number the distinct hashes and count their rows.
    let mut run_of: FxHashMap<u64, u32> = FxHashMap::default();
    let mut run_len: Vec<u32> = Vec::new();
    let mut keyed: Vec<(u32, u32)> = Vec::new(); // (build row, its run)
    for ri in right {
        if let Some(h) = rs.hashes[ri as usize] {
            let run = *run_of.entry(h).or_insert_with(|| {
                run_len.push(0);
                run_len.len() as u32 - 1
            });
            run_len[run as usize] += 1;
            keyed.push((ri, run));
        }
    }
    // Second pass: lay the runs out back to back, rows in build order.
    let mut run_end = run_len;
    let mut at = 0;
    for end in &mut run_end {
        at += *end;
        *end = at - *end; // the run's start, advanced to its end below
    }
    let mut rows = vec![0u32; keyed.len()];
    for (ri, run) in keyed {
        let slot = &mut run_end[run as usize];
        rows[*slot as usize] = ri;
        *slot += 1;
    }

    let mut pairs = Vec::new();
    for li in left {
        let Some(&run) = ls.hashes[li as usize].and_then(|h| run_of.get(&h)) else {
            continue;
        };
        let start = match run {
            0 => 0,
            run => run_end[run as usize - 1],
        };
        for &ri in &rows[start as usize..run_end[run as usize] as usize] {
            if ls.key_eq(li as usize, rs, ri as usize) {
                pairs.push((li, ri));
            }
        }
    }
    pairs
}

/// All matching `(left row, right row)` index pairs of an equi-join, in
/// serial probe order: ascending left row, and per left row ascending
/// right row. With `parallel`, both sides hash-partition into one
/// partition per worker and each partition builds + probes independently.
pub(crate) fn match_pairs(
    pool: &WorkerPool,
    ls: &JoinSide,
    rs: &JoinSide,
    parallel: bool,
) -> Vec<(u32, u32)> {
    let (nl, nr) = (ls.hashes.len(), rs.hashes.len());
    if !parallel {
        return build_and_probe(ls, rs, 0..nl as u32, 0..nr as u32);
    }
    let parts = pool.threads();
    let bucket = |side: &JoinSide, n: usize| -> Vec<Vec<u32>> {
        let mut b: Vec<Vec<u32>> = vec![Vec::new(); parts];
        for i in 0..n {
            if let Some(p) = side.partition(i, parts) {
                b[p].push(i as u32);
            }
        }
        b
    };
    let (left_parts, right_parts) = (bucket(ls, nl), bucket(rs, nr));
    let part_pairs: Vec<Vec<(u32, u32)>> = pool.run_indexed(parts, |p| {
        build_and_probe(
            ls,
            rs,
            left_parts[p].iter().copied(),
            right_parts[p].iter().copied(),
        )
    });
    // Stitch the per-partition pair lists back into global left-row order:
    // every left row lives in exactly one partition and its matches are
    // contiguous there, so a counting sort by left index restores the
    // serial probe order exactly (down to the floating-point aggregation
    // order downstream, where addition is not associative).
    let mut cursor = vec![0u32; nl + 1];
    for &(li, _) in part_pairs.iter().flatten() {
        cursor[li as usize + 1] += 1;
    }
    for i in 0..nl {
        cursor[i + 1] += cursor[i];
    }
    let mut merged = vec![(0u32, 0u32); cursor[nl] as usize];
    for (li, ri) in part_pairs.into_iter().flatten() {
        let slot = &mut cursor[li as usize];
        merged[*slot as usize] = (li, ri);
        *slot += 1;
    }
    merged
}

/// Walk a left outer join's candidates for the left rows `rows`, in order:
/// per left row, the right candidates its `pairs` ([`match_pairs`] order)
/// name, then `every_right`. Returns the pairs `keep(left, right)` accepts
/// and, for a left row it accepted none of, `(left, NULL_POS)`: its one
/// null-extended candidate.
pub(crate) fn walk_outer(
    rows: std::ops::Range<usize>,
    pairs: &[(u32, u32)],
    every_right: std::ops::Range<usize>,
    mut keep: impl FnMut(usize, usize) -> Result<bool>,
) -> Result<Vec<(u32, u32)>> {
    let mut out = Vec::new();
    let mut at = pairs.partition_point(|&(li, _)| (li as usize) < rows.start);
    for li in rows {
        let from = at;
        while pairs.get(at).is_some_and(|&(pl, _)| pl as usize == li) {
            at += 1;
        }
        let before = out.len();
        let keyed = pairs[from..at].iter().map(|&(_, ri)| ri as usize);
        for ri in keyed.chain(every_right.clone()) {
            if keep(li, ri)? {
                out.push((li as u32, ri as u32));
            }
        }
        if out.len() == before {
            out.push((li as u32, NULL_POS));
        }
    }
    Ok(out)
}

/// What index nested loops find: pairs `(candidate, k)` and the table
/// positions the `k` index.
type Probed = (Vec<(u32, u32)>, Vec<u32>);

impl<'a> Executor<'a> {
    /// Hash both inputs of an equi-join on `keys` (build side first).
    fn join_sides(
        &mut self,
        left: &mut Tuples<'_>,
        layout: &Layout,
        right: &mut Tuples<'_>,
        r_layout: &Layout,
        keys: &EquiKeys<'_>,
        env: Option<&Env<'_>>,
    ) -> Result<(JoinSide, JoinSide)> {
        let (pool, columnar, mut io) = (&self.pool, self.opts.columnar, PageIo::default());
        let mut side = |t: &mut Tuples<'_>, l: &Layout, k: &[KeyExpr<'_>]| {
            JoinSide::build(pool, t, l, k, env, columnar, &mut io)
        };
        let rs = side(right, r_layout, &keys.right)?;
        let ls = side(left, layout, &keys.left)?;
        self.note_io(io);
        Ok((ls, rs))
    }

    /// The pairs of an equi-join of `left` with `right` on `keys` — an
    /// inner join's, or an outer join's before its walk — in serial probe
    /// order (left candidate order, then build order) whichever algorithm
    /// runs: a Grace hash join when the build side is over the memory
    /// budget and there is a spill manager whose device takes the
    /// partitions, the in-memory hash join otherwise.
    pub(super) fn equi_join(
        &mut self,
        left: &mut Tuples<'_>,
        layout: &Layout,
        right: &mut Tuples<'_>,
        right_layout: &Layout,
        keys: &EquiKeys<'_>,
        env: Option<&Env<'_>>,
    ) -> Result<(JoinStrategy, Vec<(u32, u32)>)> {
        let (ls, rs) = self.join_sides(left, layout, right, right_layout, keys, env)?;
        let build_rows = right.len();
        const WHAT: &str = "hash-join build side";
        if let Some((spill, parts)) = self.spill_for(build_rows, WHAT) {
            self.settle(left)?;
            self.settle(right)?;
            let sides = [(&*left, layout, &ls), (&*right, right_layout, &rs)];
            match self.spilled_hash_join(sides, keys, env, &spill, parts) {
                Ok(pairs) => return Ok((JoinStrategy::GraceHash, pairs)),
                Err(Error::StorageFull(_)) => self.note_spill_full(WHAT),
                Err(e) => return Err(e),
            }
        }
        // In memory: build on the right (the fresh quantifier), probe with
        // the accumulated rows; large inputs hash-partition across the pool.
        let probe_rows = left.len();
        self.checkpoint((probe_rows + build_rows) as u64)?;
        self.stats.hash_build_rows += build_rows as u64;
        self.stats.hash_probes += probe_rows as u64;
        let parallel = self.parallel_over(probe_rows.max(build_rows));
        let pairs = match_pairs(&self.pool, &ls, &rs, parallel);
        self.check_mem(pairs.len(), "hash join")?;
        Ok((JoinStrategy::Hash, pairs))
    }

    /// Grace hash join: the disk-backed path for a build side over the
    /// memory budget. Each side — `(candidates, layout, keys hashed)`,
    /// probe side first — spills as rows tagged with their candidate index,
    /// hash-partitioned by its key hashes, and each partition is read back
    /// and joined by the same kernel as the in-memory join. Equal keys
    /// always land in the same partition and each partition preserves its
    /// side's input order, so stable-sorting the pairs by probe index
    /// reproduces the in-memory join's pairs exactly.
    fn spilled_hash_join(
        &mut self,
        sides: [(&Tuples<'_>, &Layout, &JoinSide); 2],
        keys: &EquiKeys<'_>,
        env: Option<&Env<'_>>,
        spill: &SpillManager,
        parts: usize,
    ) -> Result<Vec<(u32, u32)>> {
        let [(left, layout, ls), (right, right_layout, rs)] = sides;
        self.checkpoint((left.len() + right.len()) as u64)?;

        // Candidates whose key is NULL/NaN match nothing and never spill.
        let mut scratch = Row::empty();
        let mut spill_side = |tuples: &Tuples<'_>, hashed: &JoinSide| {
            let mut set = spill.partition_set(parts)?;
            for i in 0..tuples.len() {
                if let Some(p) = hashed.partition(i, parts) {
                    set.push(p, tag_row(i, tuples.row(i, &mut scratch)))?;
                }
            }
            set.finish()?;
            Ok::<_, Error>(set)
        };
        let (rset, lset) = (spill_side(right, rs)?, spill_side(left, ls)?);
        self.stats.hash_build_rows += right.len() as u64;
        self.stats.hash_probes += left.len() as u64;

        let mut io = PageIo::default();
        let mut tagged: Vec<(i64, i64)> = Vec::new();
        for p in 0..parts {
            self.checkpoint(0)?;
            let (rorig, build) = untag_rows(rset.read_partition(p, &mut io)?)?;
            let (lorig, probe) = untag_rows(lset.read_partition(p, &mut io)?)?;
            let mut build = Tuples::every(Src::Owned(build), right_layout.width());
            let mut probe = Tuples::every(Src::Owned(probe), layout.width());
            let (pls, prs) =
                self.join_sides(&mut probe, layout, &mut build, right_layout, keys, env)?;
            for (li, ri) in match_pairs(&self.pool, &pls, &prs, false) {
                tagged.push((lorig[li as usize], rorig[ri as usize]));
            }
            self.check_mem(tagged.len(), "hash join")?;
        }
        self.note_io(io);
        tagged.sort_by_key(|&(l, _)| l);
        Ok(tagged
            .into_iter()
            .map(|(l, r)| (l as u32, r as u32))
            .collect())
    }

    /// Join a *deferred* base table: drive it through an index
    /// (index nested loops) when an equality predicate binds an indexed
    /// column to the already-bound candidates and they are few; otherwise
    /// scan it now and fall back to the hash join.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn join_deferred(
        &mut self,
        shape: &SelectShape<'_>,
        input: &Input<'_>,
        table: &str,
        mut left: Tuples<'a>,
        layout: &Layout,
        applicable: &mut Vec<usize>,
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        let t = self.db.table(table)?;
        let arity = t.schema().arity();
        let indexed = |c: usize, _: &Expr| t.index_on(&[c]).is_some();
        let probe = shape
            .probe(applicable, input.q, indexed)
            .filter(|_| access::index_nl_pays(left.len() as f64, t.len() as f64));
        let Some(probe) = probe else {
            // (A deferred table carries an index, so it is resident.)
            self.stats.rows_scanned += t.len() as u64;
            let right = Tuples::every(Src::Table(t.rows()), arity);
            let preds = shape.exprs;
            return self.join_step(input, left, layout, right, preds, applicable, env);
        };
        applicable.retain(|&i| i != probe.pred);
        self.settle(&mut left)?;
        let (pairs, probed) = self.index_pairs(&left, layout, t, &probe, None, env)?;
        let strategy = JoinStrategy::IndexNestedLoop;
        self.note_joined(input.q, strategy, left.len(), t.len(), pairs.len());
        let right = Tuples::of(Src::Table(t.rows()), probed, arity);
        self.join_tuples(left, right, &pairs)
    }

    /// Index nested loops: each of the (settled) candidates `left` probes
    /// `t`'s index on column `probe.col` with `probe.key` evaluated over
    /// it. Returns the pairs `(left, k)`, in left order, and `probed`, the
    /// table positions they name (ascending per candidate, as the index
    /// keeps them) — only those whose row passes the `filter`, which reads
    /// a row of `t` as its own layout.
    pub(super) fn index_pairs(
        &mut self,
        left: &Tuples<'_>,
        layout: &Layout,
        t: &Table,
        probe: &access::Probe<'_>,
        filter: Option<(&Layout, &[&Expr])>,
        env: Option<&Env<'_>>,
    ) -> Result<Probed> {
        let idx = t
            .index_on(&[probe.col])
            .expect("the access rule checked the index");
        let (mut pairs, mut probed) = (Vec::new(), Vec::new());
        let (mut scratch, mut evals) = (Row::empty(), 0u64);
        for i in 0..left.len() {
            self.checkpoint(1)?;
            let key = eval_expr(probe.key, &Env::new(layout, left.row(i, &mut scratch), env))?;
            // The index normalizes the probe like any Eq key: NULL/NaN
            // find nothing, -0.0 finds 0.0.
            self.stats.index_lookups += 1;
            let positions = idx.lookup(std::slice::from_ref(&key));
            self.stats.index_rows += positions.len() as u64;
            for &p in positions {
                if let Some((t_layout, preds)) = filter {
                    let row = Env::new(t_layout, &t.rows()[p], env);
                    if !qualifies_all(preds, &row, &mut evals)? {
                        continue;
                    }
                }
                pairs.push((i as u32, probed.len() as u32));
                probed.push(p as u32);
            }
        }
        self.note_preds(evals);
        Ok((pairs, probed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Src;
    use decorr_common::row;

    fn q(i: u32) -> QuantId {
        QuantId::from_index(i)
    }

    /// Two key columns of adversarial values: NULL, NaN, signed zeros,
    /// Int-vs-Double twins, duplicates.
    fn adversarial() -> (Vec<Row>, Vec<Row>) {
        let vals = |i: usize| -> Value {
            match i % 9 {
                0 => Value::Null,
                1 => Value::Double(f64::NAN),
                2 => Value::Double(0.0),
                3 => Value::Double(-0.0),
                4 => Value::Int(0),
                5 => Value::Int(1),
                6 => Value::Double(1.0),
                7 => Value::Int(2),
                _ => Value::Double(2.5),
            }
        };
        // Co-prime strides so every (first part, second part) combination
        // of the nine classes occurs on both sides; enough rows that the
        // parallel arm spreads them over all four partitions.
        let left = (0..90)
            .map(|i| row![vals(i), vals(i / 9), i as i64])
            .collect();
        let right = (0..81)
            .map(|i| row![vals(i / 9), vals(i), i as i64])
            .collect();
        (left, right)
    }

    /// The reference: a nested loop with the comparison each operator is
    /// *defined* by — `=` is `sql_cmp == Equal`, `IS NOT DISTINCT FROM`
    /// is `total_cmp == Equal`.
    fn brute_force(left: &[Row], right: &[Row], null_ok: [bool; 2]) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for (li, l) in left.iter().enumerate() {
            for (ri, r) in right.iter().enumerate() {
                let eq = |p: usize| match null_ok[p] {
                    true => l[p].total_cmp(&r[p]) == Ordering::Equal,
                    false => l[p].sql_cmp(&r[p]) == Some(Ordering::Equal),
                };
                if eq(0) && eq(1) {
                    pairs.push((li as u32, ri as u32));
                }
            }
        }
        pairs
    }

    #[test]
    fn match_pairs_equals_brute_force_on_adversarial_keys() {
        let (left, right) = adversarial();
        let (ql, qr) = (q(0), q(1));
        let (mut ll, mut rl) = (Layout::new(), Layout::new());
        ll.push(ql, 3);
        rl.push(qr, 3);
        let (lk, rk): (Vec<Expr>, Vec<Expr>) = (
            (0..2).map(|c| Expr::col(ql, c)).collect(),
            (0..2).map(|c| Expr::col(qr, c)).collect(),
        );
        let mut nonempty = 0;
        for null_ok in [[false, false], [true, true], [false, true], [true, false]] {
            let want = brute_force(&left, &right, null_ok);
            nonempty += usize::from(!want.is_empty());
            let (lkeys, rkeys): (Vec<KeyExpr<'_>>, Vec<KeyExpr<'_>>) = (
                lk.iter().zip(null_ok).collect(),
                rk.iter().zip(null_ok).collect(),
            );
            for threads in [1, 4] {
                let pool = WorkerPool::new(threads);
                // Cols × Cols, Keys × Keys, and the two mixed pairings a
                // join with one computed side produces.
                for (lcol, rcol) in [(true, true), (false, false), (true, false), (false, true)] {
                    let side = |rows: &[Row], layout, keys, columnar| {
                        let mut t = Tuples::every(Src::Owned(rows.to_vec()), 3);
                        let io = &mut PageIo::default();
                        JoinSide::build(&pool, &mut t, layout, keys, None, columnar, io).unwrap()
                    };
                    let ls = side(&left, &ll, &lkeys, lcol);
                    let rs = side(&right, &rl, &rkeys, rcol);
                    assert_eq!(matches!(ls.repr, SideRepr::Cols(_)), lcol);
                    assert_eq!(matches!(rs.repr, SideRepr::Cols(_)), rcol);
                    let got = match_pairs(&pool, &ls, &rs, threads > 1);
                    assert_eq!(
                        got, want,
                        "null_ok={null_ok:?} threads={threads} cols=({lcol},{rcol})"
                    );
                }
            }
        }
        assert_eq!(nonempty, 4, "every operator mix must produce matches");
    }

    /// The outer walk over a morsel of left rows: each row's pairs in
    /// order, then the candidates offered to every row; what `keep`
    /// rejects is dropped, and a row left with nothing is null-extended
    /// once — whether it had no pairs or lost them all.
    #[test]
    fn walk_outer_keeps_order_and_null_extends_once() {
        let pairs = [(0, 4), (1, 2), (1, 3), (3, 0), (3, 9), (4, 1)];
        // Rows 1..5: row 2 has no pair, row 3's partner 9 is rejected.
        let keep_all_but_9 = |_: usize, ri: usize| Ok(ri != 9);
        let got = walk_outer(1..5, &pairs, 0..0, keep_all_but_9).unwrap();
        assert_eq!(got, [(1, 2), (1, 3), (2, NULL_POS), (3, 0), (4, 1)]);
        // Everything rejected: every row of the morsel null-extends.
        let got = walk_outer(0..2, &pairs, 0..0, |_, _| Ok(false)).unwrap();
        assert_eq!(got, [(0, NULL_POS), (1, NULL_POS)]);
        // The keyless walk: every right candidate, after the pairs.
        let odd = |_: usize, ri: usize| Ok(ri % 2 == 1);
        let got = walk_outer(2..4, &[], 0..4, odd).unwrap();
        assert_eq!(got, [(2, 1), (2, 3), (3, 1), (3, 3)]);
    }

    #[test]
    fn split_equi_keys_orients_keys_and_keeps_residuals() {
        let (ql, qr, outer) = (q(0), q(1), q(7));
        let mut ll = Layout::new();
        ll.push(ql, 2);
        let preds = vec![
            // right = left: flipped into (left, right) order.
            Expr::eq(Expr::col(qr, 0), Expr::col(ql, 0)),
            // an outer (correlation) reference rides on the left operand.
            Expr::bin(
                BinOp::NullEq,
                Expr::bin(BinOp::Add, Expr::col(ql, 1), Expr::col(outer, 0)),
                Expr::col(qr, 1),
            ),
            // not an equality: residual.
            Expr::bin(BinOp::Lt, Expr::col(ql, 0), Expr::col(qr, 0)),
            // both operands on one side: residual.
            Expr::eq(Expr::col(ql, 0), Expr::col(ql, 1)),
        ];
        let keys = split_equi_keys(&preds, &ll, qr);
        assert_eq!(keys.residual, vec![2, 3]);
        assert_eq!(keys.left.len(), 2);
        assert!(keys.left[0].0.references(ql) && keys.right[0].0.references(qr));
        assert_eq!((keys.left[0].1, keys.left[1].1), (false, true));
        assert!(keys.left[1].0.references(outer) && !keys.right[1].0.references(outer));
    }
}
