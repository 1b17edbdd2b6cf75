//! Cross-query shared subplans: materialize magic/SUPP subtrees once.
//!
//! A service replaying query shapes computes the SUPP / MAGIC / DCO
//! subtrees of their decorrelated plans once per request. [`SubplanCache`],
//! the cross-query counterpart of the within-query CSE memo, is a
//! [`decorr_common::Cache`] of those results: the family is the subtree's
//! canonical shape, the version *the snapshot version of every base table
//! it reads* (`decorr_storage::Table::version`, process-unique), so a
//! write makes every dependent entry miss and its rebuild frees the stale
//! one. The executor claims a marked subtree single-flight; a retained
//! result charges its rows to the owner's
//! [`CacheLedger`](decorr_common::CacheLedger) (the server's admission
//! pool), and is not cached if the pool cannot cover it.

use std::ops::Deref;

use decorr_common::{Cache, FxHashMap, Row, RowBatch, Value};
use decorr_qgm::BoxId;
use decorr_storage::Database;

pub const DEFAULT_SUBPLAN_CACHE_BYTES: usize = 16 << 20;

/// Shared materialized-intermediate cache; claims, budget, ledger and
/// stats are the underlying [`Cache`]'s.
#[derive(Debug, Clone)]
pub struct SubplanCache(Cache<String, Vec<u64>, RowBatch>);

impl Default for SubplanCache {
    fn default() -> Self {
        SubplanCache::new(DEFAULT_SUBPLAN_CACHE_BYTES)
    }
}

impl Deref for SubplanCache {
    type Target = Cache<String, Vec<u64>, RowBatch>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl SubplanCache {
    /// A cache of `budget_bytes`; an entry charges the ledger its rows.
    pub fn new(budget_bytes: usize) -> Self {
        SubplanCache(Cache::new(budget_bytes, |rows| {
            (row_batch_bytes(rows), rows.len() as u64)
        }))
    }
}

/// One shareable subtree of a plan, as the executor needs it: the
/// version-free canonical form plus the base tables the subtree reads
/// (sorted). Produced from `decorr_core::shared_subplan_marks` on the
/// *concrete* (literal-bound) plan — same shape, different bindings must
/// key differently.
#[derive(Debug, Clone)]
pub struct SubplanShape {
    pub shape: String,
    pub tables: Vec<String>,
}

impl SubplanShape {
    /// The version half of the key: each table's snapshot version in `db`,
    /// in `tables` order; `None` if a table is missing.
    pub(crate) fn versions(&self, db: &Database) -> Option<Vec<u64>> {
        self.tables
            .iter()
            .map(|t| db.table(t).ok().map(|t| t.version()))
            .collect()
    }
}

/// Per-execution wiring handed to the executor via
/// [`crate::ExecOptions::shared_subplans`]: the process-wide cache plus
/// this plan's marked boxes.
#[derive(Debug, Clone)]
pub struct SharedSubplans {
    pub cache: SubplanCache,
    pub marks: FxHashMap<BoxId, SubplanShape>,
}

/// Approximate retained bytes of a batch (consistent, not
/// allocator-exact — all the budget needs).
fn row_batch_bytes(rows: &RowBatch) -> usize {
    let value = |v: &Value| size_of::<Value>() + if let Value::Str(s) = v { s.len() } else { 0 };
    let row = |r: &Row| size_of::<Row>() + r.values().iter().map(value).sum::<usize>();
    rows.iter().map(row).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{row, DataType, Schema};

    #[test]
    fn the_version_is_each_read_table_s_snapshot() {
        let mut db = Database::new();
        for name in ["a", "b"] {
            let t = db
                .create_table(name, Schema::from_pairs(&[("x", DataType::Int)]))
                .unwrap();
            t.insert(row![1]).unwrap();
        }
        let shape = SubplanShape { shape: "s".into(), tables: vec!["a".into(), "b".into()] };
        let before = shape.versions(&db).unwrap();
        assert_eq!(before.len(), 2);
        db.table_mut("b").unwrap().insert(row![2]).unwrap();
        let after = shape.versions(&db).unwrap();
        assert_eq!(after[0], before[0], "an untouched table keeps its version");
        assert_ne!(after[1], before[1], "a write re-versions the table");
        let missing = SubplanShape { tables: vec!["gone".into()], ..shape };
        assert_eq!(missing.versions(&db), None, "a missing table is no key");
    }
}
