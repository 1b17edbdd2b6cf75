//! RewriteTrace tests: the traced entry points must log every rewrite step
//! with usable snapshots, without changing what the rewrite produces.

use decorr_common::{DataType, Schema};
use decorr_core::magic::{magic_decorrelate_traced, MagicOptions};
use decorr_core::{apply_strategy, apply_strategy_traced, RewriteTrace, Strategy};
use decorr_qgm::print;
use decorr_sql::parse_and_bind;
use decorr_storage::Database;
use decorr_tpcd::{generate, queries, TpcdConfig};

/// The full log: every step's header, then its before/after snapshots.
fn render_full(trace: &RewriteTrace) -> String {
    let ids = |v: &[_]| {
        v.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut s = String::new();
    for (i, st) in trace.steps.iter().enumerate() {
        let note = if st.note.is_empty() {
            String::new()
        } else {
            format!(" — {}", st.note)
        };
        s += &format!(
            "=== step {}: {} target={} created=[{}] mutated=[{}]{note}\n",
            i + 1,
            st.rule,
            st.target,
            ids(&st.created),
            ids(&st.mutated),
        );
        for (label, snapshot) in [("before", &st.before), ("after", &st.after)] {
            s += &format!("--- {label}\n");
            for line in snapshot.lines() {
                s += &format!("    {line}\n");
            }
        }
    }
    s
}

fn empdept_db() -> Database {
    let mut db = Database::new();
    let d = db
        .create_table(
            "dept",
            Schema::from_pairs(&[
                ("name", DataType::Str),
                ("budget", DataType::Double),
                ("num_emps", DataType::Int),
                ("building", DataType::Int),
            ]),
        )
        .unwrap();
    d.set_key(&["name"]).unwrap();
    db.create_table(
        "emp",
        Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Int)]),
    )
    .unwrap();
    db
}

const PAPER_QUERY: &str = "Select D.name From Dept D \
    Where D.budget < 10000 and D.num_emps > \
    (Select Count(*) From Emp E Where D.building = E.building)";

#[test]
fn traced_magic_logs_feed_absorb_repair_and_cleanup() {
    let db = empdept_db();
    let mut g = parse_and_bind(PAPER_QUERY, &db).unwrap();
    let (rep, trace) = magic_decorrelate_traced(&mut g, &MagicOptions::default()).unwrap();

    assert_eq!(rep.feeds, 1);
    assert_eq!(trace.count_rule("FEED"), 1);
    assert_eq!(trace.count_rule("ABSORB"), 1);
    assert_eq!(
        trace.count_rule("LOJ-repair"),
        1,
        "COUNT demands the repair step"
    );
    assert!(
        trace.count_rule("merge-select") + trace.count_rule("bypass-identity") > 0,
        "cleanup steps must be individually recorded:\n{}",
        trace.render()
    );

    // Steps carry real snapshots: FEED visibly restructures the graph.
    let feed = trace.steps.iter().find(|s| s.rule == "FEED").unwrap();
    assert_ne!(feed.before, feed.after);
    assert!(feed.after.contains("SUPP"), "{}", feed.after);
    assert!(feed.after.contains("MAGIC"), "{}", feed.after);
    assert!(!feed.created.is_empty());

    // Renderings mention the rules; the full form embeds snapshots.
    let compact = trace.render();
    assert!(
        compact.contains("FEED") && compact.contains("ABSORB"),
        "{compact}"
    );
    let full = render_full(&trace);
    assert!(
        full.contains("--- before") && full.contains("--- after"),
        "{full}"
    );
}

/// Every strategy over the figure queries and EMP/DEPT: the traced
/// rewrite renders byte for byte as the untraced one, and a strategy that
/// does not apply refuses both with the same message.
#[test]
fn traced_rewrites_match_untraced_ones() {
    let mut tpcd = generate(&TpcdConfig { scale: 0.005, seed: 42, with_indexes: true }).unwrap();
    let figures = [
        ("fig5", queries::Q1A),
        ("fig6", queries::Q1B),
        ("fig8", queries::Q2),
        ("fig9", queries::Q3),
    ];
    let mut cases: Vec<(&str, &str, Database)> = Vec::new();
    for (name, sql) in figures {
        cases.push((name, sql, tpcd.clone()));
    }
    queries::drop_fig7_index(&mut tpcd).unwrap();
    cases.push(("fig7", queries::Q1C, tpcd));
    cases.push(("EMP/DEPT", queries::EMPDEPT, empdept_db()));
    let (mut traced_steps, mut refusals) = (0, 0);
    for (name, sql, db) in &cases {
        let qgm = parse_and_bind(sql, db).unwrap();
        for s in Strategy::all() {
            let plain = apply_strategy(&qgm, s).map(|g| print::render(&g));
            let traced = apply_strategy_traced(&qgm, s).map(|(g, trace)| {
                traced_steps += trace.steps.len();
                print::render(&g)
            });
            match (plain, traced) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{name} under {}", s.name()),
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "{name}");
                    refusals += 1;
                }
                (a, b) => panic!("{name} under {}: {a:?} vs {b:?}", s.name()),
            }
        }
    }
    assert!(
        traced_steps > 0 && refusals > 0,
        "{traced_steps} steps, {refusals} refusals"
    );
}

#[test]
fn traced_optmag_records_cse_elimination() {
    // Correlate on the dept key so OptMag applies.
    let db = empdept_db();
    let q = "Select D.name From Dept D Where D.num_emps > \
        (Select Count(*) From Emp E Where D.name = E.name)";
    let (g, trace) = {
        let g0 = parse_and_bind(q, &db).unwrap();
        apply_strategy_traced(&g0, Strategy::OptMag).unwrap()
    };
    assert_eq!(trace.count_rule("OptMag-CSE"), 1, "{}", trace.render());
    // Parity with the untraced strategy application.
    let plain = apply_strategy(&parse_and_bind(q, &db).unwrap(), Strategy::OptMag).unwrap();
    assert_eq!(print::render(&g), print::render(&plain));
}

#[test]
fn traced_baselines_record_one_whole_graph_step() {
    let db = empdept_db();
    let g0 = parse_and_bind(PAPER_QUERY, &db).unwrap();
    for strat in [Strategy::Kim, Strategy::Dayal, Strategy::GanskiWong] {
        let (_, trace) = apply_strategy_traced(&g0, strat).unwrap();
        assert_eq!(trace.count_rule(strat.name()), 1, "{:?}", strat);
        let step = trace.steps.iter().find(|s| s.rule == strat.name()).unwrap();
        assert_ne!(step.before, step.after, "{:?} must change the graph", strat);
    }
}

#[test]
fn trace_json_is_emitted() {
    let db = empdept_db();
    let mut g = parse_and_bind(PAPER_QUERY, &db).unwrap();
    let (_, trace) = magic_decorrelate_traced(&mut g, &MagicOptions::default()).unwrap();
    let json = trace.to_json();
    assert!(json.starts_with("{\"steps\":["), "{json}");
    assert!(json.ends_with("]}"), "{json}");
    assert!(json.contains("\"rule\":\"FEED\""), "{json}");
    assert!(json.contains("\"before\":"), "{json}");
    // Snapshots embed newlines; they must be escaped, never raw.
    assert!(!json.contains('\n'), "raw newline leaked into JSON");
}
