//! An allocation budget for pass-through boxes.
//!
//! A row is a `Vec<Value>`, so every copy of a row set costs one heap
//! allocation per row. Under `auto` the nested-iteration lane runs the
//! graph as bound, pass-through Selects included: a Select over one input
//! must *adopt* that input (no seed row to cross it onto), a paged scan
//! without predicates must return the rows it stitched, and an identity
//! projection must hand its rows on. Counted here with a counting global
//! allocator: `Select count(*), sum(x) From T` makes one copy of `T` (the
//! scan), a Select that only reorders columns makes two (scan + gather).
//! Before first-input adoption these were three to four and five to six.
//!
//! On either tier a scan hands on positions, not rows, and a row is made
//! only for a position that survived: a filter keeping 1 % of `T`, or a
//! join — inner, or Dayal's outer join with `T` on its build side — finding
//! partners for 1 % of it, allocates in proportion to the survivors (and
//! the pages), and a grand total over the scan — which folds columns — in
//! proportion to the pages alone.
//!
//! Joins hand on positions too: nothing that a join produces and a later
//! step cuts down — an index nested-loop intermediate ten times the result,
//! an outer join's N / 2 pairs grouped into N / 100 groups — is ever a row.
//!
//! Planning is held to a budget too: a strategy race over a figure query
//! asks its graph questions of one traversal per graph state, not of a
//! fresh walk per question, and a lane that does not apply clones nothing.
//! So is nested iteration: a correlated Select evaluated once per binding
//! reads what was decided about it once per run. So is a repeated
//! statement: its literals fill a cached shape, and the front end does not
//! run.
//!
//! One `#[test]`, so nothing else allocates while a statement is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use decorr::figures::Figure;
use decorr::prelude::*;
use decorr::row;
use decorr_server::{AdmissionControl, Quotas, Session, SessionSettings, SharedCatalog};
use decorr_storage::StoreOptions;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 20_000;
/// Everything that does not grow with the table: parse, plan-cache lookup,
/// binding, the executor's maps, vector doublings, the rendered reply.
const C: u64 = 2_000;

fn table() -> Database {
    let mut db = Database::new();
    let t = db
        .create_table(
            "t",
            Schema::from_pairs(&[("k", DataType::Int), ("x", DataType::Double)]),
        )
        .unwrap();
    t.insert_all((0..N as i64).map(|i| row![i, i as f64 / 4.0]))
        .unwrap();
    // A partner for every hundredth row of `t`.
    let small = db
        .create_table("small", Schema::from_pairs(&[("k", DataType::Int)]))
        .unwrap();
    small
        .insert_all((0..N as i64).step_by(100).map(|k| row![k]))
        .unwrap();
    // (Dayal's rewrite asks for a keyed outer table.)
    small.set_key(&["k"]).unwrap();
    // Fifty `fan` rows for each of 400 keys; `hub` holds the first N / 100
    // of them, so every `hub` row has fifty partners. `j` is the row number.
    let fan = db
        .create_table(
            "fan",
            Schema::from_pairs(&[
                ("k", DataType::Int),
                ("j", DataType::Int),
                ("x", DataType::Double),
            ]),
        )
        .unwrap();
    fan.insert_all((0..N as i64).map(|i| row![i % 400, i, i as f64]))
        .unwrap();
    fan.create_index(&["k"]).unwrap();
    let hub = db
        .create_table("hub", Schema::from_pairs(&[("k", DataType::Int)]))
        .unwrap();
    hub.insert_all((0..N as i64 / 100).map(|k| row![k]))
        .unwrap();
    hub.set_key(&["k"]).unwrap();
    db
}

/// Heap allocations of one warm execution of `sql` (the first run fills
/// the plan cache and, on the durable catalog, the buffer pool).
fn allocations(session: &mut Session, sql: &str) -> u64 {
    let warm = session.handle_line(sql).unwrap().lines;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let reply = session.handle_line(sql).unwrap().lines;
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(reply[0], warm[0], "the rows (the footer carries timings)");
    counted
}

/// Heap allocations of one strategy race over `sql`: the bound graph is
/// moved in and the cost model is already built, so what is counted is the
/// rewrites, the cleanup rules and the estimates.
fn race_allocations(model: &Statistics, db: &Database, sql: &str) -> u64 {
    let qgm = parse_and_bind(sql, db).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let choice = choose_strategy_with(model, qgm).unwrap();
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(choice);
    counted
}

#[test]
fn pass_through_boxes_copy_their_input_once() {
    // The strategy race over the figure queries (5 to 9) on indexed data at
    // scale 0.01. While every graph question walked its subtree again, a
    // race made 3 197, 3 113, 3 113, 3 194 and 1 917 allocations; one
    // traversal per graph state brought them down to `CLONED`. A lane that
    // refuses the query — Ganski every figure, Dayal fig 9 — now refuses on
    // the borrowed graph instead of on a clone of it: 928, 928, 928, 890
    // and 480.
    const CLONED: [u64; 5] = [1_035, 1_041, 1_041, 983, 640];
    let tpcd = decorr_tpcd::generate(&decorr_tpcd::TpcdConfig {
        scale: 0.01,
        seed: 42,
        with_indexes: true,
    })
    .unwrap();
    let model = Statistics::analyze(&tpcd).unwrap();
    for (fig, cloned) in Figure::all().into_iter().zip(CLONED) {
        let raced = race_allocations(&model, &tpcd, fig.sql());
        println!("{}: the race made {raced} allocations", fig.id());
        assert!(
            raced < cloned,
            "{}: the race made {raced} allocations, {cloned} while refusals cloned",
            fig.id()
        );
    }

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("alloc-budget");
    let _ = std::fs::remove_dir_all(&dir);
    let catalogs = [
        ("resident", SharedCatalog::new(table())),
        (
            "durable",
            SharedCatalog::open_durable(&dir, StoreOptions::default(), table()).unwrap(),
        ),
    ];
    for (tier, catalog) in catalogs {
        let catalog = Arc::new(catalog);
        catalog.analyze().unwrap();
        assert_eq!(
            catalog.snapshot().db().table("t").unwrap().is_paged(),
            tier == "durable"
        );
        let admission = Arc::new(AdmissionControl::new(Quotas::default()));
        let mut session = Session::new(0, catalog, admission, SessionSettings::default());

        let n = N as u64;
        let total = allocations(&mut session, "Select count(*), sum(t.x) From T t");
        assert!(
            total <= n * 3 / 2 + C,
            "{tier}: pass-through aggregate made {total} allocations over {N} rows"
        );
        let reordered = allocations(
            &mut session,
            "Select count(*), sum(d.x) From (Select t.x, t.k From T t) As d",
        );
        assert!(
            reordered <= n * 5 / 2 + C,
            "{tier}: column reorder made {reordered} allocations over {N} rows"
        );
        println!("{tier}: {total} and {reordered} allocations over {N} rows");

        // Before rows were built last these three cost 20 222, 4 332 (one
        // 4096-row stripe survives the zone maps) and 40 964 allocations
        // on the durable tier — 20 204 and more on the resident one; the
        // last two are held to a tenth of that.
        assert!(
            total <= C,
            "{tier}: a total over a scan made {total} allocations; it folds columns"
        );
        let kept = allocations(&mut session, "Select count(*) From T t Where t.x < 50");
        let joined = allocations(
            &mut session,
            "Select count(*) From T t, Small s Where t.k = s.k",
        );
        println!("{tier}: {kept} allocations keeping 1 %, {joined} joining 1 %");
        assert!(
            kept <= 433,
            "{tier}: keeping {} of {N} rows made {kept} allocations",
            N / 100
        );
        assert!(
            joined <= 4_096,
            "{tier}: finding partners for {} of {N} rows made {joined} allocations",
            N / 100
        );

        // Dayal's shape: `Small LOJ (Select t.k, t.x, t.k As corr From T t)`
        // on `corr`, grouped by `Small`'s key. The build side is `T` behind
        // a Select that renames its columns — cloned and then projected,
        // that was 2 N allocations before a single pair was found. Now the
        // join's pairs are positions into `T` (or values copied off its
        // pages): a few allocations for each of the N / 100 `Small` rows
        // (group, rendered reply) and nothing that grows with N.
        session.handle_line("\\strategy dayal").unwrap();
        let outer = allocations(
            &mut session,
            "Select s.k From Small s Where 0 < (Select count(*) From T t Where t.k = s.k)",
        );
        session.handle_line("\\strategy auto").unwrap();
        println!("{tier}: {outer} allocations outer-joining 1 %");
        assert!(
            outer <= 20 * (n / 100) + C,
            "{tier}: an outer join finding partners for {} of {N} rows made {outer} allocations",
            N / 100
        );

        // Dayal's fan-out: `Hub LOJ Fan` is N / 2 pairs, fifty per `hub`
        // row, grouped by `hub`'s key into N / 100 groups. The group key is
        // hashed once per `hub` row and the average folds `fan.x` through
        // the pairs: the allocations follow the groups.
        session.handle_line("\\strategy dayal").unwrap();
        let fan_out = allocations(
            &mut session,
            "Select h.k From Hub h Where 0.0 < (Select avg(f.x) From Fan f Where f.k = h.k)",
        );
        session.handle_line("\\strategy auto").unwrap();
        // Three inputs: the first 100 `hub` rows, their 5 000 `fan`
        // partners (through `fan`'s index on the resident tier), and the
        // 100 of those whose `j` finds a `t` row under 200. The middle
        // step is fifty times the result and never becomes rows.
        let three_way = allocations(
            &mut session,
            "Select h.k, f.j, t.x From Hub h, Fan f, T t \
             Where h.k < 100 and f.k = h.k and t.k = f.j and t.k < 200",
        );
        println!("{tier}: {fan_out} allocations grouping N / 2 pairs, {three_way} joining three");
        // While joins wrote concatenated rows these cost 32 322 and 6 211
        // allocations on the resident tier, 32 400 and 11 333 on the
        // durable one.
        let groups = n / 100;
        assert!(
            fan_out <= 20 * groups + C,
            "{tier}: {groups} groups of fifty outer-join pairs made {fan_out} allocations"
        );
        assert!(
            three_way <= 20 * 100 + C,
            "{tier}: a 100-row result over a 5 000-row intermediate made {three_way} allocations"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Figure 8 under Dayal on resident indexed TPC-D at scale 0.1: the
    // outer join of the 569 selected `(lineitem, parts)` rows with all of
    // `lineitem` (60 000 rows, indexed on `l_partkey`) finds 17 309 pairs,
    // which the grouping above folds into 569 groups. Its allocations
    // follow the left rows — neither the pairs nor the table they index
    // ever become rows. 3 871 while the join hashed all of `lineitem`,
    // 3 805 since each left row probes the index.
    const LEFT: u64 = 569;
    let tpcd = decorr_tpcd::generate(&decorr_tpcd::TpcdConfig {
        scale: 0.1,
        seed: 42,
        with_indexes: true,
    })
    .unwrap();

    // Nested iteration over figures 6 and 8 on the same data: the bound
    // graph, executed as is. While every evaluation of a correlated Select
    // re-derived its predicate placement and laterality — a subtree walk
    // per Foreach input — these made 10 240 and 2 710 allocations; once the
    // executor lowered each Select once per run, 7 515 and 2 280, the bounds
    // here. A Grouping's aggregate slots, keys and layout are lowered once
    // per run too (7 279 and 2 214): none of them may come back per
    // evaluation.
    let figures = [(Figure::Fig6, 7_515), (Figure::Fig8, 2_280)];
    for (fig, derived) in figures {
        let qgm = parse_and_bind(fig.sql(), &tpcd).unwrap();
        let warm = execute_with(&tpcd, &qgm, ExecOptions::default()).unwrap();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let run = execute_with(&tpcd, &qgm, ExecOptions::default()).unwrap();
        let ni = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(run, warm);
        println!("{} under nested iteration: {ni} allocations", fig.id());
        assert!(
            ni <= derived,
            "{}: nested iteration made {ni} allocations, {derived} while re-derived",
            fig.id()
        );
    }
    let catalog = Arc::new(SharedCatalog::new(tpcd));
    catalog.analyze().unwrap();
    let admission = Arc::new(AdmissionControl::new(Quotas::default()));
    let mut session = Session::new(0, catalog, admission, SessionSettings::default());
    session.handle_line("\\strategy dayal").unwrap();
    let fig8 = allocations(&mut session, Figure::Fig8.sql());
    println!("fig 8 under Dayal: {fig8} allocations");
    assert!(
        fig8 <= 4 * LEFT + C,
        "fig 8 under Dayal: {fig8} allocations for {LEFT} left rows"
    );

    // Fig 8 repeated with new literals: the statement-shape cache takes
    // each statement from its tokens to the cached plan, with no parse,
    // parameterize, bind, validate or fingerprint. Through that front end a
    // statement made 771 allocations; 248 without it.
    const REPEATED: u64 = 300;
    session.handle_line("\\strategy auto").unwrap();
    session.handle_line(Figure::Fig8.sql()).unwrap();
    for pack in ["7 PACK", "8 PACK"] {
        let sql = Figure::Fig8.sql().replace("6 PACK", pack);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let reply = session.handle_line(&sql).unwrap().lines;
        let repeated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        println!("fig 8 with '{pack}': {repeated} allocations");
        assert!(
            reply.last().unwrap().contains("plan cache hit"),
            "{reply:?}"
        );
        assert!(
            repeated <= REPEATED,
            "fig 8 repeated with '{pack}': {repeated} allocations through the front end"
        );
    }
}
