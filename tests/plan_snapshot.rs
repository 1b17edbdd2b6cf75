//! A planner snapshot: for the paper's figure queries (Figures 5–9) and the
//! EMP/DEPT example, on indexed and on un-indexed data, the strategy race's
//! ranked table with every estimate printed exactly, the winner's per-box
//! estimates, and the rendered graph (box ids included) that every strategy
//! rewrites the query into.
//!
//! The committed `tests/expected/plan_snapshot.txt` is the reference: a
//! change to the planner that moves no plan, no price and no pick leaves it
//! byte-for-byte equal. A deliberate change re-blesses it with
//! `cargo test --test plan_snapshot -- --ignored` and shows the difference
//! in review.

use std::fmt::Write as _;

use decorr::figures::Figure;
use decorr::prelude::*;
use decorr_tpcd::empdept::{generate as empdept, EmpDeptConfig};
use decorr_tpcd::{generate, queries, TpcdConfig};

const SCALE: f64 = 0.02;
const SEED: u64 = 42;

fn expected_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/expected/plan_snapshot.txt")
}

/// One query on one database: the race, then every strategy's rewrite.
fn section(out: &mut String, title: &str, db: &Database, sql: &str) {
    let model = Statistics::analyze(db).unwrap();
    let qgm = parse_and_bind(sql, db).unwrap();
    writeln!(out, "=== {title}").unwrap();
    writeln!(out, "-- bound\n{}", qgm_print::render(&qgm)).unwrap();
    let choice = choose_strategy_with(&model, qgm.clone()).unwrap();
    writeln!(out, "-- race: chose {}", choice.strategy.name()).unwrap();
    for e in &choice.ranked {
        writeln!(
            out,
            "{:<7} rows={:?} cost={:?} unsound={} note={:?}",
            e.strategy.name(),
            e.estimate.map(|est| est.rows),
            e.estimate.map(|est| est.cost),
            e.unsound,
            e.note
        )
        .unwrap();
    }
    for (b, est) in choice.plan_estimate.boxes() {
        writeln!(
            out,
            "  {b} rows={:?} cost={:?} invocations={:?}",
            est.rows, est.cost, est.invocations
        )
        .unwrap();
    }
    for s in Strategy::all() {
        match apply_strategy(&qgm, s) {
            Ok(plan) => writeln!(out, "-- {}\n{}", s.name(), qgm_print::render(&plan)).unwrap(),
            Err(e) => writeln!(out, "-- {}: {e}\n", s.name()).unwrap(),
        }
    }
}

fn snapshot() -> String {
    let mut out = String::new();
    for with_indexes in [true, false] {
        let tier = if with_indexes {
            "indexed"
        } else {
            "un-indexed"
        };
        let tpcd = generate(&TpcdConfig { scale: SCALE, seed: SEED, with_indexes }).unwrap();
        for fig in Figure::all() {
            let title = format!("{} {tier}", fig.id());
            if fig == Figure::Fig7 && with_indexes {
                // Figure 7 is Query 1(c) with the partsupp index dropped.
                section(
                    &mut out,
                    &title,
                    &fig.database(SCALE, SEED).unwrap(),
                    fig.sql(),
                );
            } else {
                section(&mut out, &title, &tpcd, fig.sql());
            }
        }
        let emp = empdept(&EmpDeptConfig { with_indexes, ..Default::default() }).unwrap();
        section(&mut out, &format!("empdept {tier}"), &emp, queries::EMPDEPT);
    }
    out
}

/// The lines of `want` and `got` that differ, as a unified-style listing
/// (longest common subsequence of what lies between the common prefix and
/// suffix, cut to 2 000 lines a side; at most `limit` changed lines shown).
fn diff(want: &str, got: &str, limit: usize) -> String {
    let (a, b): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let prefix = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
    let suffix = a[prefix..]
        .iter()
        .rev()
        .zip(b[prefix..].iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    let a = &a[prefix..(a.len() - suffix).min(prefix + 2_000)];
    let b = &b[prefix..(b.len() - suffix).min(prefix + 2_000)];
    let mut lcs = vec![vec![0u32; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let (mut i, mut j, mut shown, mut out) = (0, 0, 0, String::new());
    while (i < a.len() || j < b.len()) && shown < limit {
        if i < a.len() && j < b.len() && a[i] == b[j] {
            i += 1;
            j += 1;
        } else if j < b.len() && (i == a.len() || lcs[i][j + 1] >= lcs[i + 1][j]) {
            writeln!(out, "+{:>5} {}", prefix + j + 1, b[j]).unwrap();
            j += 1;
            shown += 1;
        } else {
            writeln!(out, "-{:>5} {}", prefix + i + 1, a[i]).unwrap();
            i += 1;
            shown += 1;
        }
    }
    out
}

#[test]
fn plans_prices_and_picks_match_the_snapshot() {
    let want = std::fs::read_to_string(expected_path()).expect("committed snapshot");
    let got = snapshot();
    if want != got {
        panic!(
            "the planner snapshot changed (re-bless with `cargo test --test plan_snapshot -- \
             --ignored` only if the change is intended):\n{}",
            diff(&want, &got, 80)
        );
    }
}

#[test]
#[ignore = "writes tests/expected/plan_snapshot.txt"]
fn bless() {
    std::fs::write(expected_path(), snapshot()).unwrap();
}
