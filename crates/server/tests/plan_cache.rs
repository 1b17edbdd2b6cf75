//! Plan-cache property suite: fingerprint normalization and epoch
//! fencing, driven through the real session loop.
//!
//! * Literal-only variants of a query collide to one fingerprint, hit the
//!   cache after the first execution, and return rows byte-identical to
//!   an uncached session.
//! * Alias and whitespace variants collide to the same fingerprint.
//! * `ANALYZE` and drop/recreate republishes bump the catalog epoch and
//!   force a plan-cache miss — a cached plan never crosses an epoch.
//! * Readers racing a republishing writer see internally consistent
//!   single-epoch results with the cache enabled (zero stale rows).

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

use decorr_common::{row, DataType, Schema};
use decorr_core::fingerprint;
use decorr_exec::CacheLedger;
use decorr_server::{AdmissionControl, Quotas, Session, SessionSettings, SharedCatalog};
use decorr_sql::{bind, parameterize, parse};
use decorr_storage::Database;
use proptest::prelude::*;

/// One table `t(x)` with rows 1..=n, so `WHERE t.x > k` thresholds give
/// predictable, literal-dependent payloads.
fn int_db(n: i64) -> Database {
    let mut db = Database::new();
    let t = db
        .create_table("t", Schema::from_pairs(&[("x", DataType::Int)]))
        .unwrap();
    for i in 1..=n {
        t.insert(row![i]).unwrap();
    }
    db
}

fn session_on(catalog: &Arc<SharedCatalog>, admission: &Arc<AdmissionControl>, id: u64) -> Session {
    Session::new(
        id,
        Arc::clone(catalog),
        Arc::clone(admission),
        SessionSettings::default(),
    )
}

/// Payload rows only (everything that isn't the `--` footer).
fn payload(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| !l.starts_with("--"))
        .cloned()
        .collect()
}

/// The `--` footer line of a response.
fn footer(lines: &[String]) -> &str {
    lines
        .iter()
        .rev()
        .find(|l| l.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("")
}

/// The normalized fingerprint the plan cache keys on: parse, strip the
/// literals out, bind against `db`.
fn fp(sql: &str, db: &Database) -> String {
    let q = parse(sql).expect("test SQL must parse");
    let (pq, _bindings) = parameterize(&q);
    let qgm = bind(&pq, db).expect("test SQL must bind");
    fingerprint(&qgm)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..Default::default() })]

    /// Literal-only variants share one fingerprint; after the first
    /// execution every variant is a cache hit, and the rows are
    /// byte-identical to an uncached session's.
    #[test]
    fn literal_variants_collide_and_rows_match_uncached(
        thresholds in prop::collection::vec(0i64..32, 2..6),
    ) {
        let db = int_db(32);
        let base_fp = fp("SELECT t.x FROM t WHERE t.x > 0", &db);
        let catalog = Arc::new(SharedCatalog::new(int_db(32)));
        let admission = Arc::new(AdmissionControl::new(Quotas::default()));
        let mut cached = session_on(&catalog, &admission, 1);
        let mut uncached = session_on(&catalog, &admission, 2);
        uncached.handle_line("\\set plan_cache off").unwrap();
        uncached.handle_line("\\set shared_subplans off").unwrap();

        for (i, k) in thresholds.iter().enumerate() {
            let sql = format!("SELECT t.x FROM t WHERE t.x > {k}");
            // Same shape regardless of the literal.
            prop_assert_eq!(fp(&sql, &db), base_fp.clone(), "literal {} changed the fingerprint", k);

            let hot = cached.handle_line(&sql).unwrap();
            let cold = uncached.handle_line(&sql).unwrap();
            let status = if i == 0 { "plan cache miss" } else { "plan cache hit" };
            prop_assert!(
                footer(&hot.lines).contains(status),
                "query {} expected {status}: {:?}", i, hot.lines
            );
            prop_assert!(footer(&cold.lines).contains("plan cache off"));
            // Byte-identical payloads: the cached template bound with fresh
            // literals computes exactly what a from-scratch plan does.
            prop_assert_eq!(payload(&hot.lines), payload(&cold.lines));
            prop_assert_eq!(payload(&hot.lines).len(), (32 - *k) as usize);
        }
        let stats = catalog.plan_cache().stats();
        prop_assert_eq!(stats.hits, thresholds.len() as u64 - 1);
    }

    /// Alias and whitespace choices are presentation, not shape: every
    /// variant fingerprints identically and hits the plan entry the
    /// canonical spelling populated.
    #[test]
    fn alias_and_whitespace_variants_collide(
        alias in 0u32..1000,
        pads in prop::collection::vec(1usize..4, 6..10),
        explicit_as in any::<bool>(),
    ) {
        let db = int_db(8);
        let base_fp = fp("SELECT t.x FROM t WHERE t.x > 3", &db);
        // `v<n>` can never collide with a keyword.
        let a = format!("v{alias}");
        let gap = |i: usize| " ".repeat(pads[i % pads.len()]);
        let as_kw = if explicit_as { format!("{}AS{}", gap(4), gap(5)) } else { gap(4) };
        let sql = format!(
            "SELECT{}{a}.x{}FROM{}t{as_kw}{a}{}WHERE{}{a}.x > 3",
            gap(0), gap(1), gap(2), gap(3), gap(4),
        );
        prop_assert_eq!(fp(&sql, &db), base_fp.clone(), "variant {:?} changed the fingerprint", sql);

        let catalog = Arc::new(SharedCatalog::new(int_db(8)));
        let admission = Arc::new(AdmissionControl::new(Quotas::default()));
        let mut s = session_on(&catalog, &admission, 1);
        let canonical = s.handle_line("SELECT t.x FROM t WHERE t.x > 3").unwrap();
        prop_assert!(footer(&canonical.lines).contains("plan cache miss"));
        let variant = s.handle_line(&sql).unwrap();
        prop_assert!(
            footer(&variant.lines).contains("plan cache hit"),
            "variant {:?} missed: {:?}", sql, variant.lines
        );
        prop_assert_eq!(payload(&variant.lines), payload(&canonical.lines));
    }

    /// Every epoch publish — `ANALYZE` (metadata-only) or drop/recreate
    /// (reload-style) — fences the cache: the next execution of a cached
    /// shape misses and replans against the new epoch's rows.
    #[test]
    fn epoch_bumps_force_a_plan_cache_miss(
        bumps in prop::collection::vec(any::<bool>(), 1..5),
    ) {
        let catalog = Arc::new(SharedCatalog::new(int_db(4)));
        let admission = Arc::new(AdmissionControl::new(Quotas::default()));
        let mut s = session_on(&catalog, &admission, 1);
        let sql = "SELECT t.x FROM t WHERE t.x > 1";
        s.handle_line(sql).unwrap();
        let mut rows: usize = 3; // x > 1 over rows 1..=4

        for (i, reload) in bumps.iter().enumerate() {
            // Warm: the shape is cached for the current epoch.
            let warm = s.handle_line(sql).unwrap();
            prop_assert!(footer(&warm.lines).contains("plan cache hit"), "{:?}", warm.lines);
            if *reload {
                // Drop/recreate with one more row: a stale plan would also
                // return a stale row count.
                let n = 5 + i as i64;
                catalog
                    .update(|db| {
                        db.drop_table("t")?;
                        let t = db.create_table(
                            "t",
                            Schema::from_pairs(&[("x", DataType::Int)]),
                        )?;
                        for v in 1..=n {
                            t.insert(row![v])?;
                        }
                        Ok(())
                    })
                    .unwrap();
                rows = (n - 1) as usize;
            } else {
                s.handle_line("ANALYZE").unwrap();
            }
            let after = s.handle_line(sql).unwrap();
            prop_assert!(
                footer(&after.lines).contains("plan cache miss"),
                "bump {} ({}) did not fence the cache: {:?}",
                i, if *reload { "reload" } else { "analyze" }, after.lines
            );
            prop_assert_eq!(payload(&after.lines).len(), rows, "stale rows after bump {}", i);
        }
    }
}

const ROWS_PER_EPOCH: usize = 16;

/// Readers with the plan cache enabled race a writer that republishes the
/// table under new marker values. Every response must hold exactly one
/// epoch's rows — a cached plan leaking across epochs would surface as a
/// mixed or short payload here.
#[test]
fn cached_readers_never_see_stale_epochs() {
    let mut db = Database::new();
    let t = db
        .create_table("t", Schema::from_pairs(&[("x", DataType::Int)]))
        .unwrap();
    for _ in 0..ROWS_PER_EPOCH {
        t.insert(row![0i64]).unwrap();
    }
    let catalog = Arc::new(SharedCatalog::new(db));
    let admission = Arc::new(AdmissionControl::new(Quotas {
        max_concurrent: 16,
        per_session_concurrent: 4,
        ..Default::default()
    }));
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let writer_catalog = Arc::clone(&catalog);
        let done_ref = &done;
        let writer = scope.spawn(move || {
            for marker in 1..=6i64 {
                writer_catalog
                    .update(|db| {
                        db.drop_table("t")?;
                        let t =
                            db.create_table("t", Schema::from_pairs(&[("x", DataType::Int)]))?;
                        for _ in 0..ROWS_PER_EPOCH {
                            t.insert(row![marker])?;
                        }
                        Ok(())
                    })
                    .unwrap();
                writer_catalog.analyze().unwrap();
            }
            done_ref.store(true, Ordering::Release);
        });

        let mut handles = Vec::new();
        for r in 0..3u64 {
            let catalog = Arc::clone(&catalog);
            let admission = Arc::clone(&admission);
            handles.push(scope.spawn(move || {
                let mut s = session_on(&catalog, &admission, 100 + r);
                for _ in 0..20 {
                    let resp = s
                        .handle_line("SELECT t.x FROM t WHERE t.x > -1")
                        .expect("reader query must not fail during republish");
                    let rows = payload(&resp.lines);
                    assert_eq!(rows.len(), ROWS_PER_EPOCH, "partial epoch: {rows:?}");
                    assert!(
                        rows.iter().all(|x| x == &rows[0]),
                        "rows from mixed epochs: {rows:?}"
                    );
                }
            }));
        }
        for h in handles {
            h.join().expect("reader thread");
        }
        writer.join().expect("writer thread");
    });

    // After the churn settles, the cache behaves normally again: one miss
    // to repopulate the final epoch, then hits.
    let mut s = session_on(&catalog, &admission, 999);
    let a = s.handle_line("SELECT t.x FROM t WHERE t.x > -1").unwrap();
    let b = s.handle_line("SELECT t.x FROM t WHERE t.x > -1").unwrap();
    assert!(footer(&b.lines).contains("plan cache hit"), "{:?}", b.lines);
    assert_eq!(payload(&a.lines), payload(&b.lines));
}

/// The cache below the plan cache: two sessions pinned to `\strategy
/// magic` on one catalog replay one correlated statement, so the
/// SUPP / magic subtrees the first execution materialises are served to
/// every later one — theirs and the other session's — with the same bytes.
#[test]
fn sessions_share_magic_subplans_with_identical_payloads() {
    use decorr_tpcd::{empdept, queries};
    let db = empdept::generate(&empdept::EmpDeptConfig::default()).unwrap();
    let catalog = Arc::new(SharedCatalog::new(db));
    let admission = Arc::new(AdmissionControl::new(Quotas::default()));
    let mut payloads = Vec::new();
    for id in [1, 2] {
        let mut s = session_on(&catalog, &admission, id);
        s.handle_line("\\strategy magic").unwrap();
        for _ in 0..2 {
            payloads.push(payload(&s.handle_line(queries::EMPDEPT).unwrap().lines));
        }
    }
    assert!(!payloads[0].is_empty());
    assert!(payloads.iter().all(|p| p == &payloads[0]), "{payloads:?}");
    let stats = catalog.subplan_cache().stats();
    assert!(stats.hits > 0, "no shared subplan was reused: {stats:?}");
}

/// A counting [`CacheLedger`]: the rows the shared-subplan cache holds.
#[derive(Default)]
struct Rows(AtomicI64);

impl CacheLedger for Rows {
    fn try_reserve(&self, rows: u64) -> bool {
        self.0.fetch_add(rows as i64, Ordering::SeqCst);
        true
    }

    fn release(&self, rows: u64) {
        self.0.fetch_sub(rows as i64, Ordering::SeqCst);
    }
}

/// A table write re-versions every subplan over that table. The rebuild
/// under the new version must free the stale entry and its ledger rows,
/// not leave them reserved until LRU pressure finds them: the cache ends
/// up holding exactly what a fresh catalog over the written data holds.
#[test]
fn a_table_write_frees_the_subplans_it_made_stale() {
    use decorr_tpcd::{empdept, queries};
    let run = |catalog: &Arc<SharedCatalog>| {
        let admission = Arc::new(AdmissionControl::new(Quotas::default()));
        let mut s = session_on(catalog, &admission, 1);
        s.handle_line("\\strategy magic").unwrap();
        payload(&s.handle_line(queries::EMPDEPT).unwrap().lines)
    };
    let with_ledger = |db: Database| {
        let catalog = Arc::new(SharedCatalog::new(db));
        let rows = Arc::new(Rows::default());
        catalog
            .subplan_cache()
            .set_ledger(Arc::<Rows>::clone(&rows));
        (catalog, rows)
    };
    let write = |db: &mut Database| db.table_mut("emp")?.insert(row!["new", 3]);

    let (catalog, rows) =
        with_ledger(empdept::generate(&empdept::EmpDeptConfig::default()).unwrap());
    run(&catalog);
    let before = catalog.subplan_cache().stats();
    assert!(before.entries > 0, "magic materialises no shared subplan");
    catalog.update(write).unwrap();
    let after_write = run(&catalog);
    let after = catalog.subplan_cache().stats();
    assert!(after.misses > before.misses, "stale subplans must miss");
    assert_eq!(after.entries, before.entries, "stale subplans stay cached");

    let (fresh, fresh_rows) = with_ledger(catalog.snapshot().db().clone());
    assert_eq!(run(&fresh), after_write);
    assert_eq!(fresh.subplan_cache().stats().entries, after.entries);
    assert_eq!(
        rows.0.load(Ordering::SeqCst),
        fresh_rows.0.load(Ordering::SeqCst),
        "the ledger holds rows of stale subplans"
    );
    catalog.subplan_cache().set_budget(0);
    assert_eq!(rows.0.load(Ordering::SeqCst), 0);
}
