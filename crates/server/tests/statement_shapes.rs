//! The statement-shape cache's fast path equals the slow path.
//!
//! A statement whose literal-normalised token stream is cached goes from
//! its tokens to the plan cache with no parse, parameterize, bind,
//! validate or fingerprint. For every query of the bounded oracle space
//! (`tests/oracle/space.rs`), the five figure queries and the corpus
//! (`tests/corpus`), each spelled again with its literals varied, this
//! checks that
//!
//! * the shape path's fingerprint and bindings are the front end's,
//!   `fingerprint(bind(parameterize(parse(sql))))` and its bindings;
//! * the session's reply is the same with the shape cache warm and cold.
//!
//! A variant that changes a literal `parameterize` leaves in place (in an
//! aggregating block's select list, GROUP BY or HAVING) must miss the
//! shape. The explicit cases below cover negative numbers, `''` escapes,
//! `NULL` / `TRUE` / `FALSE`, `IN` lists of other lengths, an
//! `i64`-overflowing literal (today's error) and an epoch bump between two
//! identical texts.

#[path = "../../../tests/oracle/space.rs"]
mod space;

use std::sync::Arc;

use decorr::figures::Figure;
use decorr::plan_cache::SHAPE_CACHE_BYTES;
use decorr_common::{row, DataType, Schema};
use decorr_core::fingerprint;
use decorr_server::{AdmissionControl, Quotas, Session, SessionSettings, SharedCatalog};
use decorr_sql::lexer::{tokenize, TokenKind};
use decorr_sql::param::parameterize_parsed;
use decorr_sql::parser::parse_tokens;
use decorr_sql::shape::ShapeKey;
use decorr_sql::{bind, parameterize, parse};
use decorr_storage::Database;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A session over its own catalog.
struct Harness {
    catalog: Arc<SharedCatalog>,
    session: Session,
}

impl Harness {
    fn new(db: Database) -> Harness {
        let catalog = Arc::new(SharedCatalog::new(db));
        let admission = Arc::new(AdmissionControl::new(Quotas::default()));
        let session = Session::new(
            0,
            Arc::clone(&catalog),
            admission,
            SessionSettings::default(),
        );
        Harness { catalog, session }
    }

    /// The reply to `sql` with the footer's timing cut out, or the error.
    fn reply(&mut self, sql: &str) -> Result<Vec<String>, String> {
        let lines = self
            .session
            .handle_line(sql)
            .map_err(|e| e.to_string())?
            .lines;
        Ok(lines.into_iter().map(untimed).collect())
    }

    /// Empty the shape cache, and only it.
    fn forget_shapes(&self) {
        let shapes = self.catalog.shape_cache();
        shapes.set_budget(0);
        shapes.set_budget(SHAPE_CACHE_BYTES);
    }

    /// What the shape path makes of `sql`: the cached fingerprint and the
    /// bindings the slots read off its tokens, if the shape is cached at
    /// the current epoch and its slots fill.
    fn shape_path(&self, sql: &str) -> Option<(String, String)> {
        let tokens = tokenize(sql).unwrap();
        let key = ShapeKey::new(&tokens);
        let shape = self
            .catalog
            .shape_cache()
            .get(&key, &self.catalog.epoch())?;
        let bindings = shape.slots.fill(&tokens)?;
        Some((shape.fingerprint.to_string(), format!("{bindings:?}")))
    }
}

/// A footer without its ` in 1.234 ms` part.
fn untimed(line: String) -> String {
    match (line.find(" in "), line.find(" ms (")) {
        (Some(a), Some(b)) if line.starts_with("--") && a < b => {
            format!("{}{}", &line[..a], &line[b + 3..])
        }
        _ => line,
    }
}

/// The slow path: `fingerprint(bind(parameterize(parse(sql))))` and the
/// bindings (their `Debug` form, which tells `Int` from `Double`). `None`
/// if the parameterized query does not bind: then no shape is cached.
fn slow_path(sql: &str, db: &Database) -> Option<(String, String)> {
    let (pquery, bindings) = parameterize(&parse(sql).ok()?);
    let qgm = bind(&pquery, db).ok()?;
    decorr_qgm::validate::validate(&qgm).ok()?;
    Some((fingerprint(&qgm), format!("{bindings:?}")))
}

/// `sql` spelled again token by token, one space apart, with the literals
/// `parameterize` replaces varied by `k` — and, with `all`, the ones it
/// leaves in place too. Also: does the variant change a kept literal?
fn variant(sql: &str, k: i64, all: bool) -> (String, bool) {
    let tokens = tokenize(sql).unwrap();
    let (_, _, origins) = parameterize_parsed(&parse_tokens(&tokens).unwrap());
    let origins = origins.expect("the walk meets every literal the parser made");
    let vary = |i: usize| all || origins.params.contains(&(i as u32));
    let words = tokens.iter().enumerate().map(|(i, t)| match t.kind {
        TokenKind::Number(n) if vary(i) => match n.split_once('.') {
            Some((whole, frac)) => format!("{}.{frac}", whole.parse::<i64>().unwrap() + k),
            None => (n.parse::<i64>().unwrap() + k).to_string(),
        },
        TokenKind::StringLit(s) if vary(i) => format!("'{s}{k}''s'"),
        TokenKind::Eof => String::new(),
        kind => kind.to_string(),
    });
    let text = words.collect::<Vec<_>>().join(" ");
    let kept_changed = all
        && origins.kept.iter().any(|&t| {
            matches!(
                tokens[t as usize].kind,
                TokenKind::Number(_) | TokenKind::StringLit(_)
            )
        });
    (text.trim_end().to_string(), kept_changed)
}

/// Run `sql`, then three variants of it, each checked for both claims.
/// False if the statement is not cacheable (it plans without the caches).
fn check(h: &mut Harness, db: &Database, sql: &str) -> bool {
    h.reply(sql).ok();
    let Some(slow) = slow_path(sql, db) else {
        return false;
    };
    assert_eq!(
        h.shape_path(sql),
        Some(slow),
        "the base statement's shape: {sql}"
    );
    for (k, all) in [(3, false), (11, false), (5, true)] {
        let (v, kept_changed) = variant(sql, k, all);
        let slow = slow_path(&v, db).expect("a variant binds like its base");
        match h.shape_path(&v) {
            Some(fast) => {
                assert!(!kept_changed, "a changed kept literal must miss: {v}");
                assert_eq!(fast, slow, "shape path vs front end: {v}");
            }
            None => assert!(kept_changed, "a changed parameter must hit: {v}"),
        }
        // The first run of a variant whose kept literal changed races a
        // new plan; the two compared runs find the plan cache warm alike.
        let first = h.reply(&v);
        let warm = h.reply(&v);
        h.forget_shapes();
        let cold = h.reply(&v);
        assert_eq!(warm, cold, "shape cache warm vs cold: {v}");
        assert_eq!(rows(&first), rows(&cold), "{v}");
    }
    true
}

/// A reply's rows, without the footer.
fn rows(reply: &Result<Vec<String>, String>) -> Result<&[String], &String> {
    reply.as_ref().map(|lines| &lines[..lines.len() - 1])
}

fn check_space(queries: &[space::Query]) {
    let world = space::fixed("paper");
    let mut h = Harness::new(world.db.clone());
    let cached = queries
        .iter()
        .filter(|q| check(&mut h, &world.db, &q.sql()))
        .count();
    eprintln!(
        "{cached} of {} queries through the shape cache",
        queries.len()
    );
    assert_eq!(
        cached,
        queries.len(),
        "every query of the space is cacheable"
    );
}

#[test]
fn the_bounded_space_takes_the_shape_path_faithfully() {
    check_space(&space::enumerate(2));
}

#[test]
#[ignore = "the deep space: minutes in the dev profile; CI runs it in release"]
fn the_deep_space_takes_the_shape_path_faithfully() {
    let mut queries = space::enumerate(3);
    let mut rng = SmallRng::seed_from_u64(40);
    queries.extend((0..500).map(|_| space::random_query(&mut rng)));
    check_space(&queries);
}

#[test]
fn the_figure_queries_take_the_shape_path_faithfully() {
    let db = decorr_tpcd::generate(&decorr_tpcd::TpcdConfig {
        scale: 0.002,
        seed: 42,
        with_indexes: true,
    })
    .unwrap();
    let mut h = Harness::new(db.clone());
    for fig in Figure::all() {
        assert!(check(&mut h, &db, fig.sql()), "{}", fig.id());
    }
}

#[test]
fn the_corpus_takes_the_shape_path_faithfully() {
    let root = space::corpus_dir();
    let mut checked = 0;
    for dir in std::fs::read_dir(&root).unwrap() {
        let dir = dir.unwrap().path();
        let Ok(files) = std::fs::read_dir(&dir) else {
            continue;
        };
        let mut files: Vec<_> = files.map(|f| f.unwrap().path()).collect();
        files.retain(|p| p.extension().is_some_and(|x| x == "case"));
        files.sort();
        for file in files {
            let name = file.file_stem().unwrap().to_string_lossy();
            let text = std::fs::read_to_string(&file).unwrap();
            let (world, case) = space::parse_case(&name, &text, &dir);
            let mut h = Harness::new(world.db.clone());
            checked += usize::from(check(&mut h, &world.db, &case.sql()));
        }
    }
    assert!(checked > 50, "only {checked} corpus files are cacheable");
}

/// `t(x INT, y DOUBLE, s STRING, b BOOL)`, ten rows.
fn small() -> Database {
    let mut db = Database::new();
    let schema = Schema::from_pairs(&[
        ("x", DataType::Int),
        ("y", DataType::Double),
        ("s", DataType::Str),
        ("b", DataType::Bool),
    ]);
    let t = db.create_table("t", schema).unwrap();
    let words = ["it's", "a", "b", "it's", "c"];
    for i in 0..10i64 {
        t.insert(row![
            i - 4,
            i as f64 / 2.0,
            words[i as usize % 5],
            i % 3 == 0
        ])
        .unwrap();
    }
    db
}

#[test]
fn explicit_literal_forms_take_the_shape_path_faithfully() {
    let db = small();
    let mut h = Harness::new(db.clone());
    for sql in [
        "SELECT t.x FROM t WHERE t.x > - 2",
        "SELECT t.x, - t.y FROM t WHERE t.y < - 0.5 OR t.x = -1",
        "SELECT t.x FROM t WHERE t.s = 'it''s'",
        "SELECT t.x FROM t WHERE t.s <> 'a' AND t.b = TRUE",
        "SELECT t.x FROM t WHERE t.b = FALSE OR t.s IS NULL",
        "SELECT t.x, COALESCE(t.s, NULL) FROM t WHERE t.x IN (1, 2)",
        "SELECT t.x FROM t WHERE t.x IN (1, 2, 3)",
        "SELECT t.x FROM t WHERE t.x BETWEEN - 1 AND 3 AND NOT t.y BETWEEN 1.5 AND 2",
        "SELECT t.x + 1, COUNT(*) FROM t WHERE t.y > 0.5 GROUP BY t.x + 1 HAVING COUNT(*) > 0",
        "SELECT 2 * SUM(t.x), COUNT(*) FROM t WHERE t.x > 1",
    ] {
        assert!(check(&mut h, &db, sql), "{sql}");
    }
    // `IN` lists of other lengths are other shapes; one of the same
    // length fills from the cached one. (`check` emptied the shape cache
    // last; each probe runs its base again first.)
    h.reply("SELECT t.x FROM t WHERE t.x IN (1, 2, 3)").unwrap();
    let three = "SELECT t.x FROM t WHERE t.x IN (4, 5, 6)";
    assert!(h.shape_path(three).is_some(), "same length, same shape");
    assert!(h
        .shape_path("SELECT t.x FROM t WHERE t.x IN (4, 5)")
        .is_none());
    assert!(h
        .shape_path("SELECT t.x FROM t WHERE t.x IN (4, 5, 6, 7)")
        .is_none());
    // A changed literal of an aggregating select list or HAVING misses.
    let grouped =
        "SELECT t.x + 1, COUNT(*) FROM t WHERE t.y > 0.5 GROUP BY t.x + 1 HAVING COUNT(*) > 0";
    h.reply(grouped).unwrap();
    assert!(h.shape_path(&grouped.replace("0.5", "9.5")).is_some());
    let having = grouped.replace("> 0", "> 1");
    assert_eq!(h.shape_path(&having), None);
    assert_eq!(h.shape_path(&grouped.replace("x + 1", "x + 2")), None);
    let scaled = "SELECT 2 * SUM(t.x), COUNT(*) FROM t WHERE t.x > 1";
    h.reply(scaled).unwrap();
    assert!(h.shape_path(&scaled.replace("> 1", "> 3")).is_some());
    assert_eq!(h.shape_path(&scaled.replace("2 *", "3 *")), None);
    assert_eq!(h.shape_path(&scaled.replace("2 *", "2.0 *")), None);
    // Through the session, a cached shape whose slots refuse the text
    // counts as a miss; the text's own shape then replaces it.
    let having = having.as_str();
    let shape_counts = |h: &Harness| {
        let s = h.catalog.shape_cache().stats();
        (s.hits, s.misses)
    };
    let before = shape_counts(&h);
    h.reply(having).unwrap();
    let refused = shape_counts(&h);
    let warm = h.reply(having);
    let after = shape_counts(&h);
    assert_eq!((refused.0 - before.0, refused.1 - before.1), (0, 1));
    assert_eq!((after.0 - refused.0, after.1 - refused.1), (1, 0));
    h.forget_shapes();
    assert_eq!(warm, h.reply(having));
}

#[test]
fn an_overflowing_literal_gives_the_front_ends_error() {
    let db = small();
    let mut h = Harness::new(db.clone());
    h.reply("SELECT t.x FROM t WHERE t.x > 5").unwrap();
    let over = "SELECT t.x FROM t WHERE t.x > 99999999999999999999";
    assert!(h.shape_path("SELECT t.x FROM t WHERE t.x > 6").is_some());
    assert_eq!(h.shape_path(over), None);
    let today = parse(over).unwrap_err().to_string();
    assert_eq!(h.reply(over), Err(today));
}

#[test]
fn an_epoch_bump_between_two_identical_texts_binds_again() {
    let mut h = Harness::new(small());
    let sql = "SELECT t.x FROM t WHERE t.x > 2";
    let first = h.reply(sql).unwrap();
    assert!(
        first.last().unwrap().contains("plan cache miss"),
        "{first:?}"
    );
    assert!(h
        .reply(sql)
        .unwrap()
        .last()
        .unwrap()
        .contains("plan cache hit"));

    // ANALYZE publishes a new epoch: the shape misses, the plan is raced
    // again, and the rows stay.
    h.catalog.analyze().unwrap();
    assert_eq!(h.shape_path(sql), None, "a shape never crosses an epoch");
    let before = h.catalog.shape_cache().stats();
    let again = h.reply(sql).unwrap();
    assert!(
        again.last().unwrap().contains("plan cache miss"),
        "{again:?}"
    );
    assert_eq!(first[..first.len() - 1], again[..again.len() - 1]);
    let after = h.catalog.shape_cache().stats();
    assert_eq!(
        (after.misses, after.insertions),
        (before.misses + 1, before.insertions + 1)
    );

    // A new schema under the same name: `t.x` is a DOUBLE now, so the
    // same text binds to another graph.
    let mut db = Database::new();
    let t = db
        .create_table("t", Schema::from_pairs(&[("x", DataType::Double)]))
        .unwrap();
    for i in 0..5 {
        t.insert(row![i as f64 + 0.5]).unwrap();
    }
    h.catalog.replace(db.clone()).unwrap();
    let replaced = h.reply(sql).unwrap();
    assert_eq!(h.shape_path(sql), slow_path(sql, &db));
    let mut fresh = Harness::new(db);
    let expected = fresh.reply(sql).unwrap();
    assert_eq!(
        replaced[..replaced.len() - 1],
        expected[..expected.len() - 1]
    );
    assert_eq!(replaced.len(), 4, "{replaced:?}");
}

#[test]
fn prepared_statements_share_the_text_statements_plan() {
    let mut h = Harness::new(small());
    let prepared = h
        .reply("PREPARE q AS SELECT t.x FROM t WHERE t.x > 2")
        .unwrap();
    assert!(prepared[0].contains("1 parameter"), "{prepared:?}");
    let by_exec = h.reply("EXECUTE q(0)").unwrap();
    let by_text = h.reply("SELECT t.x FROM t WHERE t.x > 0").unwrap();
    assert_eq!(by_exec, by_text);
    assert!(by_exec.last().unwrap().contains("plan cache hit"));
    // At a new epoch EXECUTE binds the prepared query again.
    h.catalog.analyze().unwrap();
    let rebound = h.reply("EXECUTE q(1)").unwrap();
    assert!(
        rebound.last().unwrap().contains("plan cache miss"),
        "{rebound:?}"
    );
    let again = h.reply("EXECUTE q(1)").unwrap();
    assert!(
        again.last().unwrap().contains("plan cache hit"),
        "{again:?}"
    );
    assert_eq!(rebound[..rebound.len() - 1], again[..again.len() - 1]);
}
