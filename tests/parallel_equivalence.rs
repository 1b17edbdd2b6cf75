//! A worker pool changes the wall time, never the answer: every lane here
//! runs at a seeded lattice point and again with the other thread count
//! (and possibly the other evaluator), and both runs must return the
//! reference interpreter's rows, the same rows in the same order, and the
//! same `ExecStats`. The checks are `tests/oracle/mod.rs`'s.

mod oracle;

use decorr::figures::{run_figure_with, Figure};
use decorr::prelude::Strategy;
use oracle::space::{self, Case, Query};
use oracle::Lane;

const NI: Lane = Lane::Is(Strategy::NestedIteration);
const MAG: Lane = Lane::Is(Strategy::Magic);
const OPTMAG: Lane = Lane::Is(Strategy::OptMag);

oracle::fuzz_tests! {
    parallel_matches_serial_on_generated_queries: [NI, MAG, OPTMAG], 0.1, false, Query::template;
    parallel_matches_serial_under_null_heavy_bindings: [NI, MAG], 0.5, false, Query::template;
    parallel_matches_serial_on_mixed_key_types: [MAG, OPTMAG], 0.1, true, Query::template;
}

#[test]
fn figure_queries_parallel_equal_serial() {
    let figs = [Figure::Fig5, Figure::Fig8, Figure::Fig9];
    oracle::check_figures(&mut oracle::twins(&Lane::ALL), &figs);
}

/// `run_figure_with` applies the same cross-strategy agreement check at any
/// pool width.
#[test]
fn run_figure_accepts_thread_count() {
    let fig = Figure::Fig8;
    let db = fig.database(0.02, 42).unwrap();
    let serial = run_figure_with(fig, &db, 1).unwrap();
    let parallel = run_figure_with(fig, &db, 4).unwrap();
    for (a, b) in serial.iter().zip(parallel.iter()) {
        assert_eq!(a.rows, b.rows, "{} row count changed", a.strategy.name());
    }
}

/// An `emp` past the morsel threshold, so every parallel path runs.
#[test]
fn merged_parallel_stats_equal_serial_stats() {
    let mut runner = oracle::twins(&[NI, MAG]);
    runner.check_world(&space::big_world(), &[Case::ast(Query::default())]);
}
