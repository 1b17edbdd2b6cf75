//! Session command-loop unit tests, relocated out of `src/` so the
//! no-panic grep gate covers `crates/server/src`.

use std::sync::Arc;

use decorr_common::{row, DataType, Error, Schema, Value};
use decorr_core::Strategy;
use decorr_server::session::parse_exec_args;
use decorr_server::{
    AdmissionControl, Control, Mode, Quotas, Response, Session, SessionSettings, SharedCatalog,
};
use decorr_storage::Database;

fn session() -> Session {
    session_under(Arc::new(AdmissionControl::new(Quotas::default())))
}

fn session_under(admission: Arc<AdmissionControl>) -> Session {
    let mut db = Database::new();
    let t = db
        .create_table("t", Schema::from_pairs(&[("x", DataType::Int)]))
        .unwrap();
    for i in 1..=3 {
        t.insert(row![i]).unwrap();
    }
    Session::new(
        1,
        Arc::new(SharedCatalog::new(db)),
        admission,
        SessionSettings::default(),
    )
}

#[test]
fn plain_sql_returns_rows_and_footer() {
    let mut s = session();
    let r = s.handle_line("SELECT t.x FROM t WHERE t.x > 1").unwrap();
    assert_eq!(r.control, Control::Continue);
    assert_eq!(r.lines.len(), 3); // two rows + footer
    assert!(r.lines[2].starts_with("-- 2 rows via"), "{:?}", r.lines);
}

#[test]
fn quit_signals_quit() {
    let mut s = session();
    assert_eq!(s.handle_line("\\quit").unwrap().control, Control::Quit);
}

#[test]
fn strategy_kim_warns_about_unsoundness() {
    let mut s = session();
    let r = s.handle_line("\\strategy kim").unwrap();
    assert!(
        r.lines.iter().any(|l| l.contains("unsound (COUNT bug)")),
        "pinning kim must warn: {:?}",
        r.lines
    );
    assert_eq!(s.mode(), Mode::Fixed(Strategy::Kim));
}

#[test]
fn set_and_show_settings() {
    let mut s = session();
    s.handle_line("\\set threads 4").unwrap();
    s.handle_line("\\set max_rows 10").unwrap();
    assert_eq!(s.settings().threads, 4);
    assert_eq!(s.settings().max_display_rows, Some(10));
    s.handle_line("\\set max_rows none").unwrap();
    assert_eq!(s.settings().max_display_rows, None);
    assert!(s.handle_line("\\set threads banana").is_err());
}

#[test]
fn analyze_publishes_a_new_epoch() {
    let mut s = session();
    let before = s.catalog().epoch();
    let r = s.handle_line("ANALYZE;").unwrap();
    assert!(r.lines.last().unwrap().contains("epoch"));
    assert_eq!(s.catalog().epoch(), before + 1);
}

fn footer(r: &Response) -> &str {
    r.lines.last().unwrap()
}

#[test]
fn repeated_shape_hits_the_plan_cache_with_fresh_bindings() {
    let mut s = session();
    let a = s.handle_line("SELECT t.x FROM t WHERE t.x > 1").unwrap();
    assert!(footer(&a).contains("plan cache miss"), "{:?}", a.lines);
    assert_eq!(a.lines.len(), 3); // x=2, x=3, footer
                                  // Same shape, different literal: must hit and use the new binding.
    let b = s.handle_line("SELECT t.x FROM t WHERE t.x > 2").unwrap();
    assert!(footer(&b).contains("plan cache hit"), "{:?}", b.lines);
    assert_eq!(b.lines.len(), 2, "{:?}", b.lines); // x=3, footer
    assert_eq!(b.lines[0], "(3)");
    let stats = s.catalog().plan_cache().stats();
    assert_eq!(stats.hits, 1);
    assert!(stats.misses >= 1);
}

#[test]
fn analyze_invalidates_cached_plans() {
    let mut s = session();
    s.handle_line("SELECT t.x FROM t WHERE t.x > 1").unwrap();
    s.handle_line("ANALYZE").unwrap();
    let r = s.handle_line("SELECT t.x FROM t WHERE t.x > 1").unwrap();
    assert!(footer(&r).contains("plan cache miss"), "{:?}", r.lines);
}

#[test]
fn plan_cache_off_bypasses_the_cache() {
    let mut s = session();
    s.handle_line("\\set plan_cache off").unwrap();
    let r = s.handle_line("SELECT t.x FROM t WHERE t.x > 1").unwrap();
    assert!(footer(&r).contains("plan cache off"), "{:?}", r.lines);
    assert_eq!(s.catalog().plan_cache().stats().misses, 0);
    assert!(s.handle_line("\\set plan_cache banana").is_err());
    assert!(s.handle_line("\\set shared_subplans banana").is_err());
}

#[test]
fn prepare_execute_deallocate_round_trip() {
    let mut s = session();
    let r = s
        .handle_line("PREPARE pick AS SELECT t.x FROM t WHERE t.x > 1")
        .unwrap();
    assert!(
        r.lines[0].starts_with("prepared pick (1 parameter)"),
        "{:?}",
        r.lines
    );
    // Defaults re-run the PREPARE-time literal.
    let d = s.handle_line("EXECUTE pick").unwrap();
    assert!(footer(&d).contains("plan cache hit"), "{:?}", d.lines);
    assert_eq!(d.lines.len(), 3); // x=2, x=3, footer
                                  // Explicit argument rebinds without re-racing.
    let e = s.handle_line("EXECUTE pick(2)").unwrap();
    assert!(footer(&e).contains("plan cache hit"), "{:?}", e.lines);
    assert_eq!(e.lines[0], "(3)");
    // Arity is checked.
    assert!(s.handle_line("EXECUTE pick(1, 2)").is_err());
    // Unknown literals are typed errors, not panics.
    assert!(s.handle_line("EXECUTE pick(t.x)").is_err());
    s.handle_line("DEALLOCATE pick").unwrap();
    assert!(s.handle_line("EXECUTE pick").is_err());
}

#[test]
fn execute_accepts_negative_string_and_null_literals() {
    let args = parse_exec_args("(-3, 'abc', NULL, TRUE, 1.5)").unwrap();
    assert_eq!(
        args,
        vec![
            Value::Int(-3),
            Value::Str("abc".into()),
            Value::Null,
            Value::Bool(true),
            Value::Double(1.5),
        ]
    );
    assert!(parse_exec_args("(1,)").is_err());
    assert!(parse_exec_args("(1) extra").is_err());
    assert!(parse_exec_args("1").is_err());
}

#[test]
fn explain_cost_reports_the_cached_plan() {
    let mut s = session();
    s.handle_line("SELECT t.x FROM t WHERE t.x > 1").unwrap();
    let r = s
        .handle_line("EXPLAIN COST SELECT t.x FROM t WHERE t.x > 2")
        .unwrap();
    assert!(
        r.lines[0].contains("[plan cache hit]"),
        "EXPLAIN COST must go through the cache: {:?}",
        r.lines
    );
}

#[test]
fn explain_cost_executes_under_admission() {
    // The audit execution behind EXPLAIN COST runs like any statement's:
    // one admission each, under a token the session's canceller reaches.
    let admission = Arc::new(AdmissionControl::new(Quotas::default()));
    let mut s = session_under(Arc::clone(&admission));
    for n in 1..=2 {
        s.handle_line("EXPLAIN COST SELECT t.x FROM t WHERE t.x > 1")
            .unwrap();
        assert_eq!(admission.stats().admitted, n);
    }
    assert!(s.canceller().cancel_active());

    // A session allowed no queries gets the plain statement's typed quota
    // error instead of an unadmitted execution.
    let closed = Quotas { per_session_concurrent: 0, ..Quotas::default() };
    let mut s = session_under(Arc::new(AdmissionControl::new(closed)));
    let plain = s.handle_line("SELECT t.x FROM t").unwrap_err();
    let explain = s.handle_line("EXPLAIN COST SELECT t.x FROM t").unwrap_err();
    assert!(matches!(plain, Error::QuotaExceeded(_)), "{plain}");
    assert_eq!(explain.to_string(), plain.to_string());
}

#[test]
fn cache_command_reports_counters() {
    let mut s = session();
    s.handle_line("SELECT t.x FROM t WHERE t.x > 1").unwrap();
    let r = s.handle_line("\\cache").unwrap();
    let text = r.lines.join("\n");
    assert!(text.contains("plan cache"), "{text}");
    assert!(text.contains("shared subplans"), "{text}");
    assert!(text.contains("shared work"), "{text}");
}
