//! The one cross-query cache and its three key adapters.
//!
//! `decorr_common::Cache` is what the plan cache, the shared-subplan cache
//! and the columnar transpose cache are: a map holding one version per
//! family, LRU under a byte budget, an optional memory ledger, and
//! single-flight builds. The generic behaviour is tested here once, on a
//! cache whose entry `n` weighs `n` bytes and `n` ledger units; the
//! adapter tests at the end check what only an adapter knows (plan sizes,
//! transpose column sets, a magic plan's shared SUPP work).

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use decorr::common::{row, Cache, CacheLedger, Claim, DataType, FxHashMap, Schema};
use decorr::core::{apply_strategy, shared_subplan_marks, Strategy};
use decorr::exec::SubplanShape;
use decorr::exec::{execute_with, ColumnarCache, ExecOptions, SharedSubplans, SubplanCache};
use decorr::plan_cache::{plan_bytes, CachedPlan, PlanCache};
use decorr::prelude::{choose_strategy, parse_and_bind, Database, Table};

/// Entry `n` weighs `n` bytes and `n` ledger units.
fn cache(budget: usize) -> Cache<&'static str, u64, usize> {
    Cache::new(budget, |&n| (n, n as u64))
}

/// Claims `family` at version 1 and builds `n`, asserting it was a miss.
fn build(cache: &Cache<&'static str, u64, usize>, family: &'static str, n: usize) {
    let Claim::Build(guard) = cache.claim(&family, &1) else {
        panic!("{family} must be a miss");
    };
    guard.finish(n);
}

/// A counting ledger that can be told to refuse.
#[derive(Default)]
struct Pool {
    reserved: AtomicI64,
    full: bool,
}

impl CacheLedger for Pool {
    fn try_reserve(&self, units: u64) -> bool {
        if !self.full {
            self.reserved.fetch_add(units as i64, Ordering::SeqCst);
        }
        !self.full
    }

    fn release(&self, units: u64) {
        self.reserved.fetch_sub(units as i64, Ordering::SeqCst);
    }
}

#[test]
fn single_flight_hit_after_finish() {
    let c = cache(1 << 20);
    build(&c, "k", 3);
    assert!(matches!(c.claim(&"k", &1), Claim::Hit(3)));
    let s = c.stats();
    assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    assert_eq!((s.built, s.reused), (3, 3));
}

#[test]
fn dropped_guard_unclaims_the_slot() {
    let c = cache(1 << 20);
    let Claim::Build(guard) = c.claim(&"k", &1) else {
        panic!()
    };
    drop(guard); // the builder errored out
                 // The next caller becomes the builder, not a waiter.
    assert!(matches!(c.claim(&"k", &1), Claim::Build(_)));
}

#[test]
fn concurrent_waiter_gets_the_built_entry() {
    let c = cache(1 << 20);
    let Claim::Build(guard) = c.claim(&"k", &1) else {
        panic!()
    };
    let c2 = c.clone();
    let waiter = std::thread::spawn(move || match c2.claim(&"k", &1) {
        Claim::Hit(n) => n,
        _ => usize::MAX,
    });
    std::thread::sleep(Duration::from_millis(50));
    guard.finish(7);
    assert_eq!(waiter.join().unwrap(), 7);
    assert_eq!(c.stats().hits, 1);
    // A claim for another version while one builds computes locally.
    let Claim::Build(_guard) = c.claim(&"k", &2) else {
        panic!()
    };
    assert!(matches!(c.clone().claim(&"k", &3), Claim::Bypass));
}

#[test]
fn lru_eviction_under_byte_budget() {
    let pool = Arc::new(Pool::default());
    let c = cache(10);
    c.set_ledger(Arc::<Pool>::clone(&pool));
    c.insert("a", 1, 4);
    c.insert("b", 1, 4);
    // Touch "a" so "b" is the LRU victim.
    assert_eq!(c.get(&"a", &1), Some(4));
    build(&c, "c", 4);
    let s = c.stats();
    assert_eq!((s.evictions, s.entries, s.bytes), (1, 2, 8));
    assert_eq!(c.get(&"a", &1), Some(4), "recently used survives");
    assert_eq!(c.get(&"b", &1), None, "LRU entry evicted");
    assert_eq!(
        pool.reserved.load(Ordering::SeqCst),
        8,
        "2 entries x 4 units"
    );
    c.set_budget(0);
    assert_eq!(
        pool.reserved.load(Ordering::SeqCst),
        0,
        "emptying releases the pool"
    );
}

#[test]
fn refused_reservation_means_bypass_not_failure() {
    let c = cache(1 << 20);
    c.set_ledger(Arc::new(Pool { full: true, ..Pool::default() }));
    build(&c, "k", 3);
    let s = c.stats();
    assert_eq!(
        (s.entries, s.bypasses),
        (0, 1),
        "a refused entry is not retained"
    );
    // The family is claimable again rather than wedged in a build.
    assert!(matches!(c.claim(&"k", &1), Claim::Build(_)));
}

#[test]
fn a_new_version_replaces_the_old_one() {
    let pool = Arc::new(Pool::default());
    let c = cache(1 << 20);
    c.set_ledger(Arc::<Pool>::clone(&pool));
    c.insert("k", 1, 5);
    c.insert("other", 1, 2);
    c.insert("k", 2, 3);
    assert_eq!(c.get(&"k", &1), None, "the old version misses");
    assert_eq!(c.get(&"k", &2), Some(3));
    // A claim of a new version frees the stale one before building it.
    let Claim::Build(guard) = c.claim(&"other", &2) else {
        panic!()
    };
    assert_eq!(pool.reserved.load(Ordering::SeqCst), 3);
    guard.finish(6);
    let s = c.stats();
    assert_eq!((s.entries, s.bytes, s.evictions), (2, 9, 0));
    assert_eq!(pool.reserved.load(Ordering::SeqCst), 9);
}

#[test]
fn shrinking_budget_evicts_and_oversized_entries_skip() {
    let c = cache(40);
    c.insert("a", 1, 10);
    c.insert("b", 1, 10);
    c.set_budget(10); // only one fits now
    assert_eq!(c.stats().entries, 1);
    c.set_budget(5); // none fit
    assert_eq!(c.stats().entries, 0);
    c.insert("c", 1, 10); // bigger than the budget
    assert_eq!(c.stats().entries, 0, "oversized entry is not cached");
}

fn plan_entry(sql: &str) -> Arc<CachedPlan> {
    let mut db = Database::new();
    let t = db
        .create_table("t", Schema::from_pairs(&[("x", DataType::Int)]))
        .unwrap();
    for i in 1..=3 {
        t.insert(row![i]).unwrap();
    }
    let choice = choose_strategy(&db, parse_and_bind(sql, &db).unwrap()).unwrap();
    let bytes = plan_bytes(&choice.plan);
    Arc::new(CachedPlan { choice, param_count: 0, bytes })
}

#[test]
fn plan_bytes_scales_with_plan_size() {
    let small = plan_entry("SELECT t.x FROM t");
    let large = plan_entry(
        "SELECT t.x FROM t WHERE t.x > 1 AND t.x < 5 AND \
         t.x IN (SELECT t2.x FROM t t2 WHERE t2.x = 2)",
    );
    assert!(large.bytes > small.bytes);
    // The plan cache charges exactly that size against its budget.
    let plans = PlanCache::new(small.bytes);
    plans.insert("fp", 1, "auto", Arc::clone(&small));
    assert_eq!(plans.stats().bytes, small.bytes);
    plans.insert("fp2", 1, "auto", large);
    assert!(
        plans.get("fp2", 1, "auto").is_none(),
        "oversized entry is not cached"
    );
}

#[test]
fn distinct_column_sets_coexist() {
    let cache = ColumnarCache::new();
    let mut t = Table::new("t", Schema::from_pairs(&[("x", DataType::Int)]));
    t.insert(row![1]).unwrap();
    let transpose = || decorr::common::ColumnarBatch::from_rows(t.rows());
    cache.get_or_build(&t, &[0], transpose);
    cache.get_or_build(&t, &[], transpose);
    assert_eq!(cache.stats().entries, 2);
}

#[test]
fn magic_plan_shares_supp_work_across_executions() {
    let mut db = Database::new();
    let d = db
        .create_table(
            "dept",
            Schema::from_pairs(&[
                ("name", DataType::Str),
                ("num_emps", DataType::Int),
                ("building", DataType::Int),
            ]),
        )
        .unwrap();
    d.insert(row!["toys", 1, 3]).unwrap();
    d.insert(row!["shoes", 0, 4]).unwrap();
    let e = db
        .create_table(
            "emp",
            Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Int)]),
        )
        .unwrap();
    e.insert(row!["bob", 4]).unwrap();

    let qgm = parse_and_bind(
        "SELECT d.name FROM dept d WHERE d.num_emps > \
         (SELECT COUNT(*) FROM emp e WHERE d.building = e.building)",
        &db,
    )
    .unwrap();
    let plan = apply_strategy(&qgm, Strategy::Magic).unwrap();

    let cache = SubplanCache::new(1 << 20);
    let marks: FxHashMap<_, _> = shared_subplan_marks(&plan)
        .into_iter()
        .map(|m| (m.box_id, SubplanShape { shape: m.shape, tables: m.tables }))
        .collect();
    assert!(!marks.is_empty(), "magic plan must have shareable marks");
    let opts = || ExecOptions {
        shared_subplans: Some(SharedSubplans { cache: cache.clone(), marks: marks.clone() }),
        ..Default::default()
    };

    let (cold, cold_stats) = execute_with(&db, &plan, opts()).unwrap();
    let (warm, warm_stats) = execute_with(&db, &plan, opts()).unwrap();
    assert_eq!(warm, cold, "cached subtrees must not change results");
    assert!(warm_stats.shared_subplan_hits > 0, "second run must hit");
    assert!(
        warm_stats.total_work() < cold_stats.total_work(),
        "warm {} vs cold {}",
        warm_stats.total_work(),
        cold_stats.total_work()
    );
    let after_warm = cache.stats();

    // A write bumps emp's snapshot version: every emp-reading subtree
    // misses and rebuilds, replacing its stale entry (subtrees over dept
    // alone still hit), and the fresh run sees the new row.
    db.table_mut("emp").unwrap().insert(row!["eve", 3]).unwrap();
    let (fresh, fresh_stats) = execute_with(&db, &plan, opts()).unwrap();
    let after_fresh = cache.stats();
    assert!(
        after_fresh.misses > after_warm.misses,
        "emp-reading subtrees must miss after the version bump"
    );
    assert_eq!(
        after_fresh.entries, after_warm.entries,
        "stale entries were kept"
    );
    assert!(fresh_stats.total_work() > warm_stats.total_work());
    assert_ne!(fresh, cold, "new emp row changes the COUNT answer");
}
