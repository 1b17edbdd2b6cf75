//! A cross-query columnar batch cache for long-lived processes.
//!
//! The executor's per-run transpose cache (`col_cache`) dies with the
//! query. [`ColumnarCache`] is its long-lived counterpart, handed to the
//! executor via [`crate::ExecOptions::shared_cache`]: a
//! [`decorr_common::Cache`] whose family is `(table, columns)` and whose
//! version is the table's snapshot version
//! ([`decorr_storage::Table::version`]), so it never serves a stale
//! snapshot and a new snapshot's transpose replaces the old one.
//! Transposes have no byte budget and charge no ledger.

use std::ops::Deref;
use std::sync::Arc;

use decorr_common::columnar::ColumnarBatch;
use decorr_common::Cache;
use decorr_storage::Table;

/// A shared cache of narrow columnar transposes; its stats are the
/// underlying [`Cache`]'s.
#[derive(Debug, Clone)]
pub struct ColumnarCache(Cache<(String, Vec<usize>), u64, Arc<ColumnarBatch>>);

impl Default for ColumnarCache {
    fn default() -> Self {
        ColumnarCache(Cache::new(usize::MAX, |_| (0, 0)))
    }
}

impl Deref for ColumnarCache {
    type Target = Cache<(String, Vec<usize>), u64, Arc<ColumnarBatch>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl ColumnarCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached transpose of `cols` of the *current snapshot* of `t`,
    /// built by `build` on a miss — outside the lock, so transposing a
    /// large table blocks no other query's lookups. A concurrent builder
    /// may race this one; either batch transposes the same snapshot.
    pub fn get_or_build(
        &self,
        t: &Table,
        cols: &[usize],
        build: impl FnOnce() -> ColumnarBatch,
    ) -> Arc<ColumnarBatch> {
        let family = (t.name().to_string(), cols.to_vec());
        if let Some(b) = self.0.get(&family, &t.version()) {
            return b;
        }
        let b = Arc::new(build());
        self.0.insert(family, t.version(), Arc::clone(&b));
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{row, DataType, Schema};

    #[test]
    fn a_new_snapshot_replaces_the_old_transpose() {
        let cache = ColumnarCache::new();
        let mut t = Table::new("t", Schema::from_pairs(&[("x", DataType::Int)]));
        t.insert_all([row![1], row![2], row![3]]).unwrap();
        let transpose = |t: &Table| ColumnarBatch::from_rows(t.rows());
        let b1 = cache.get_or_build(&t, &[0], || transpose(&t));
        let b2 = cache.get_or_build(&t, &[0], || transpose(&t));
        assert!(Arc::ptr_eq(&b1, &b2));
        t.insert(row![4]).unwrap();
        let b3 = cache.get_or_build(&t, &[0], || transpose(&t));
        assert_eq!(b3.len(), 4, "mutated table must re-transpose");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }
}
