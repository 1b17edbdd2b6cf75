//! The Union box, and the order-preserving duplicate elimination it shares
//! with DISTINCT.

use decorr_common::columnar;
use decorr_common::{FxHashMap, Result, Row};
use decorr_qgm::BoxId;

use super::lower::Plan;
use super::Executor;
use crate::env::Env;

impl Executor<'_> {
    pub(super) fn eval_union(
        &mut self,
        plan: &Plan<'_>,
        b: BoxId,
        all: bool,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        for &q in &plan.qgm.boxref(b).quants {
            let rows = self.eval_child(plan, plan.qgm.quant(q).input, env)?;
            self.checkpoint(rows.len() as u64)?;
            out.extend(rows.iter().cloned());
            self.check_mem(out.len(), "union")?;
        }
        if !all {
            out = dedup_rows(out);
        }
        Ok(out)
    }
}

/// Order-preserving duplicate elimination (DISTINCT, UNION, the magic
/// table's binding set). Rows are bulk-hashed with total-order semantics
/// (the same equivalence as `Row`'s `Eq`) and a row compares against
/// earlier *kept* rows only on a hash collision — no row is ever cloned
/// into a side set.
pub(super) fn dedup_rows(rows: Vec<Row>) -> Vec<Row> {
    if rows.len() <= 1 {
        return rows;
    }
    let hashes = columnar::hash_rows(&rows);
    let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let mut keep = vec![false; rows.len()];
    for (i, h) in hashes.iter().enumerate() {
        let kept = buckets.entry(*h).or_default();
        if kept.iter().any(|&j| rows[j as usize] == rows[i]) {
            continue;
        }
        kept.push(i as u32);
        keep[i] = true;
    }
    let mut out = Vec::with_capacity(buckets.values().map(Vec::len).sum());
    for (r, keep) in rows.into_iter().zip(keep) {
        if keep {
            out.push(r);
        }
    }
    out
}
