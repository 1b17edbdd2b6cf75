//! Regression: the cross-query columnar batch cache must never serve rows
//! from a stale table snapshot.
//!
//! PR 5 gave the executor a per-run transpose cache; a long-lived process
//! (the query service) shares one [`ColumnarCache`] across queries. This
//! suite mirrors the PR 3 "HashIndex survives drop/recreate" regression at
//! the cache layer: a table that is dropped and recreated, appended to, or
//! re-loaded under the same name must *miss* the shared cache — snapshot
//! versions, not names, are the key.

use decorr_common::{row, DataType, Schema, Value};
use decorr_exec::{execute_with, ColumnarCache, ExecOptions};
use decorr_sql::parse_and_bind;
use decorr_storage::Database;

const Q: &str = "SELECT e.building FROM emp e WHERE e.building > 0";

fn emp_db(buildings: &[i64]) -> Database {
    let mut db = Database::new();
    let t = db
        .create_table("emp", Schema::from_pairs(&[("building", DataType::Int)]))
        .unwrap();
    for &b in buildings {
        t.insert(row![b]).unwrap();
    }
    db
}

fn cached_opts(cache: &ColumnarCache) -> ExecOptions {
    ExecOptions { shared_cache: Some(cache.clone()), ..Default::default() }
}

fn run(db: &Database, cache: &ColumnarCache) -> Vec<i64> {
    let qgm = parse_and_bind(Q, db).unwrap();
    let (rows, _) = execute_with(db, &qgm, cached_opts(cache)).unwrap();
    let mut out: Vec<i64> = rows
        .iter()
        .map(|r| match r.values()[0] {
            Value::Int(i) => i,
            ref v => panic!("expected Int, got {v:?}"),
        })
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn drop_recreate_then_query_misses_the_cache() {
    let cache = ColumnarCache::new();
    let db = emp_db(&[1, 2, 3]);
    assert_eq!(run(&db, &cache), vec![1, 2, 3]);
    let misses_before = cache.stats().misses;

    // Drop and recreate under the same (case-normalized) name with
    // different contents. Without snapshot-version keying the shared cache
    // would happily serve the old transpose here.
    let mut db = db;
    db.drop_table("EMP").unwrap();
    let t = db
        .create_table("emp", Schema::from_pairs(&[("building", DataType::Int)]))
        .unwrap();
    for b in [7i64, 9] {
        t.insert(row![b]).unwrap();
    }
    assert_eq!(
        run(&db, &cache),
        vec![7, 9],
        "stale snapshot served after drop/recreate"
    );
    assert!(
        cache.stats().misses > misses_before,
        "recreated table must re-transpose"
    );
}

#[test]
fn reload_append_then_query_misses_the_cache() {
    let cache = ColumnarCache::new();
    let mut db = emp_db(&[1, 2]);
    assert_eq!(run(&db, &cache), vec![1, 2]);

    // An in-place reload (ANALYZE-style refresh or plain append) reassigns
    // the table's snapshot version; the cached batch is superseded.
    db.table_mut("emp").unwrap().insert(row![5]).unwrap();
    assert_eq!(
        run(&db, &cache),
        vec![1, 2, 5],
        "stale snapshot served after append"
    );
}

#[test]
fn unchanged_snapshot_hits_across_queries() {
    let cache = ColumnarCache::new();
    let db = emp_db(&[1, 2, 3]);
    assert_eq!(run(&db, &cache), vec![1, 2, 3]);
    let (hits, misses) = (cache.stats().hits, cache.stats().misses);
    assert_eq!(run(&db, &cache), vec![1, 2, 3]);
    assert!(
        cache.stats().hits > hits,
        "second identical query must hit the shared cache"
    );
    assert_eq!(
        cache.stats().misses,
        misses,
        "no re-transpose without a mutation"
    );
    // Superseded-snapshot eviction keeps exactly one batch per column set.
    assert_eq!(cache.stats().entries, 1);
}
