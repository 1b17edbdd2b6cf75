//! Every strategy at every point of the execution lattice against the
//! reference interpreter (`tests/oracle`): the bounded query space in
//! every fixed world, the corpus of `tests/corpus` at every tier × budget
//! point, the paper's figure queries, and the oracle under the fault plane.
//!
//! `cargo test --release --test exec_lattice -- --ignored` runs the deep
//! space: a larger size bound plus seeded random queries past it.

mod oracle;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use decorr::common::{ChaosEnv, Error, FaultPlane, FaultRates};
use decorr::figures::Figure;
use decorr::prelude::Strategy::{Dayal, Magic, NestedIteration, OptMag};
use decorr::prelude::*;
use decorr::storage::StoreOptions;
use decorr_server::SharedCatalog;
use decorr_tpcd::empdept::EmpDeptConfig;
use oracle::space::{self, Case, Query, Text, World};
use oracle::Lane::{self, Is};
use oracle::{interp, Runner, Tier, Tiers, SEED};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Queries with at most this many deviations from the paper's COUNT-bug
/// query run in every world; the worlds of `LARGE` rows or more (the
/// stripe and morsel boundaries) take those of at most one.
const BOUND: usize = 2;
const LARGE: usize = 200;

fn check_space(runner: &mut Runner, queries: &[Query], large_bound: usize) {
    for world in space::worlds() {
        let large = world.rows() >= LARGE;
        let fits = |q: &&Query| !large || (q.depth() == 1 && q.size() <= large_bound);
        let cases: Vec<Case> = queries
            .iter()
            .filter(fits)
            .cloned()
            .map(Case::ast)
            .collect();
        runner.check_world(&world, &cases);
    }
}

#[test]
fn the_bounded_space_agrees_with_the_oracle() {
    let started = Instant::now();
    let queries = space::enumerate(BOUND);
    let mut runner = Runner::new(SEED, &Lane::ALL);
    check_space(&mut runner, &queries, 1);
    let secs = started.elapsed().as_secs_f64();
    eprintln!(
        "bounded space (size <= {BOUND}): {} queries; {}; {secs:.1}s",
        queries.len(),
        runner.cov.report()
    );
    runner.cov.assert_complete();
}

#[test]
#[ignore = "the deep space: minutes in the dev profile; CI runs it in release"]
fn the_deep_space_agrees_with_the_oracle() {
    let started = Instant::now();
    let mut runner = Runner::new(SEED + 1, &Lane::ALL);
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut queries = space::enumerate(BOUND + 1);
    queries.extend((0..400).map(|_| space::random_query(&mut rng)));
    check_space(&mut runner, &queries, BOUND);
    for seed in 0..64 {
        let world = space::random_world(seed, [0.1, 0.5][seed as usize % 2], seed % 3 == 0);
        let cases: Vec<Case> = (0..24)
            .map(|_| Case::ast(space::random_query(&mut rng)))
            .collect();
        runner.check_world(&world, &cases);
    }
    let secs = started.elapsed().as_secs_f64();
    eprintln!(
        "deep space: {} queries; {}; {secs:.1}s",
        queries.len(),
        runner.cov.report()
    );
    runner.cov.assert_complete();
}

/// The paper's traps, every shrunk divergence and the memo's key traps,
/// at every tier × budget.
#[test]
fn corpus_cases_agree_at_every_point() {
    let mut runner = oracle::sweep(&Lane::ALL);
    for dir in ["paper", "found", "memo"] {
        runner.check_corpus(dir);
    }
    eprintln!("corpus: {}", runner.cov.report());
}

#[test]
fn figure_queries_agree_across_the_lattice() {
    let figs = [Figure::Fig5, Figure::Fig6, Figure::Fig8, Figure::Fig9];
    oracle::check_figures(&mut oracle::sweep(&Lane::ALL), &figs);
}

/// The Section 2 query over a generated EMP/DEPT with a building without
/// employees and a NULL building on either side.
#[test]
fn count_bug_query_agrees_across_the_lattice() {
    let config = EmpDeptConfig { employees: 1500, buildings: 40, seed: 7, ..Default::default() };
    let mut db = decorr_tpcd::empdept::generate(&config).unwrap();
    let mut insert = |t: &str, row| db.table_mut(t).unwrap().insert(row).unwrap();
    insert("dept", decorr::row!["nowhere", 700.0, 2, Value::Null]);
    insert("emp", decorr::row!["nobody", Value::Null]);
    let case = Case::new("empdept", Text::Sql(decorr_tpcd::queries::EMPDEPT.into()));
    oracle::sweep(&Lane::ALL).check_world(&World::new("empdept", db), &[case]);
}

const AS_GIVEN: [Lane; 2] = [Lane::AsBound, Is(NestedIteration)];
const REWRITTEN: [Lane; 4] = [AS_GIVEN[0], AS_GIVEN[1], Is(Magic), Is(OptMag)];

/// Selects whose one input is the running row set, as bound and rewritten.
#[test]
fn single_input_selects_agree_across_the_lattice() {
    oracle::sweep(&REWRITTEN).check_corpus("single-input");
}

/// A scan as a Select's first input, as a hash join's build side
/// (filtered, pruned, under a computed key), `IN` lists and grand totals
/// straight over a scan.
#[test]
fn paged_scan_arms_agree_across_the_lattice() {
    oracle::sweep(&REWRITTEN).check_corpus("scan-arms");
}

/// The outer join building on a scan — filtered, on `IS NOT DISTINCT
/// FROM` keys, with a residual, a computed output, an empty right side, a
/// long left side, right sides at the stripe boundary — as patched into a
/// bound graph and as Dayal's rewrite makes it, and GROUP BY without an
/// aggregate. Then the outer join probing an index: NULL, NaN, ±0.0 and
/// mixed Int / Double left keys, left sides at the access rule's gate and
/// one row either side of it, duplicate left rows, COUNT(*) against COUNT
/// of a column, a right Select with a filter of its own. Every arm runs.
#[test]
fn outer_join_build_sides_agree_across_the_lattice() {
    let lanes = [&REWRITTEN[..], &[Is(Dayal)]].concat();
    let mut runner = oracle::sweep(&lanes);
    runner.check_corpus("outer-join");
    for arm in ["hash", "index-nested-loop", "grace-hash", "nested-loop"] {
        let arm = format!("outer join {arm}");
        assert!(
            runner.cov.reached.contains(&arm),
            "{arm}: {}",
            runner.cov.report()
        );
    }
}

/// The consumers of a join's candidate tuples: a Grouping over an outer
/// join, the next join, a residual filter, `IN` lists over odd keys, a
/// scalar subquery placed as soon as its binding is joined, and a hash
/// join's build side keyed `IS NOT DISTINCT FROM`.
#[test]
fn candidate_tuples_agree_across_the_lattice() {
    oracle::sweep(&REWRITTEN[..3]).check_corpus("candidate-tuples");
}

/// Hash, index nested-loop and nested-loop joins, inner and outer, on
/// `=` and `IS NOT DISTINCT FROM` over NULL, NaN, ±0.0 and mixed Int /
/// Double keys.
#[test]
fn join_arms_agree_on_odd_keys() {
    oracle::sweep(&AS_GIVEN).check_corpus("join-keys");
}

/// The oracle under the fault plane: one durable tier on a device that
/// fails reads (EIO) and delays operations once the catalog is open. Every
/// run ends in a typed I/O error or in the oracle's rows — never a panic,
/// a hang or other rows.
#[test]
fn faults_end_in_typed_errors_or_oracle_rows() {
    let tiers = Tiers::new(&space::stripe_world(513));
    let queries = space::enumerate(1).into_iter().filter(|q| q.depth() == 1);
    let cases: Vec<Case> = queries.map(Case::ast).collect();
    let preps: Vec<_> = cases
        .iter()
        .map(|c| oracle::prepare(&tiers, c).unwrap())
        .collect();
    let (mut equal, mut typed, mut faults) = (0, 0, 0);
    for seed in [3, 5, 8, 13, 21] {
        let rates = FaultRates { read_eio: 60, latency: 40, latency_ticks: 2, ..FaultRates::QUIET };
        let plane = FaultPlane::new(seed, rates);
        let env = ChaosEnv::new(plane.clone());
        env.set_faults(false);
        let opts =
            StoreOptions { pool_bytes: 16 << 10, page_rows: 512, env: Arc::new(env.clone()) };
        let unindexed = tiers.db(Tier::Unindexed).clone();
        let catalog = SharedCatalog::open_durable(Path::new("/faults"), opts, unindexed).unwrap();
        env.set_faults(true);
        let snapshot = catalog.snapshot();
        for (prep, s) in preps
            .iter()
            .flat_map(|p| [NestedIteration, Magic, Dayal].map(|s| (p, s)))
        {
            let Ok(plan) = apply_strategy(&prep.bound, s) else {
                continue;
            };
            let at = format!("seed {seed}, {s:?}: {}", prep.case.name);
            let run = || execute_with(snapshot.db(), &plan, ExecOptions::default());
            match catch_unwind(AssertUnwindSafe(run)) {
                Ok(Ok((rows, _))) if interp::same_multiset(&rows, &prep.want) => equal += 1,
                Ok(Err(Error::Io(_))) => typed += 1,
                Ok(Ok(_)) => panic!("{at}: rows other than the oracle's"),
                Ok(Err(e)) => panic!("{at}: an unexpected error {e}"),
                Err(_) => panic!("{at}: a panic under faults"),
            }
        }
        faults += plane.stats().read_eio;
    }
    eprintln!("fault plane: {equal} runs with the oracle's rows, {typed} typed I/O errors");
    assert!(
        equal > 0 && typed > 0 && faults > 0,
        "{equal} equal, {typed} typed, {faults} faults"
    );
}
