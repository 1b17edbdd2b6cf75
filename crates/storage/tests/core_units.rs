//! In-memory-tier unit tests (catalog, hash index, buffer pool, table),
//! relocated out of `src/` so the no-panic grep gate covers
//! `crates/storage/src`.

use decorr_common::{row, Column, DataType, Row, Schema, Value};
use decorr_storage::{
    write_segment, BufferPool, Database, HashIndex, PageData, PageIo, PageKey, PagedBacking,
    SegmentReader, Table,
};

/// Rows matching `value` on `col` via index; `None` if no usable index.
fn index_lookup<'t>(t: &'t Table, col: usize, value: &Value) -> Option<&'t [usize]> {
    t.index_on(&[col])
        .map(|i| i.lookup(std::slice::from_ref(value)))
}

/// An index of `t` whose column set is a subset of `cols` (so an equality
/// binding on all of `cols` can probe it), preferring the widest match.
fn best_index_for<'t>(t: &'t Table, cols: &[usize]) -> Option<&'t HashIndex> {
    let subsets = t.indexes().iter();
    let subsets = subsets.filter(|i| i.columns().iter().all(|c| cols.contains(c)));
    subsets.max_by_key(|i| i.columns().len())
}

// ------------------------------------------------------------- catalog

#[test]
fn catalog_create_lookup_drop() {
    let mut db = Database::new();
    db.create_table("Emp", Schema::from_pairs(&[("x", DataType::Int)]))
        .unwrap();
    assert!(db.has_table("emp"));
    assert!(db.table("EMP").is_ok());
    assert!(db.create_table("emp", Schema::default()).is_err());
    db.drop_table("Emp").unwrap();
    assert!(db.table("emp").is_err());
    assert!(db.drop_table("emp").is_err());
}

#[test]
fn catalog_drop_then_recreate_discards_old_index_state() {
    // Build a table with rows and a secondary hash index…
    let mut db = Database::new();
    let t = db
        .create_table(
            "Emp",
            Schema::from_pairs(&[("building", DataType::Int), ("name", DataType::Str)]),
        )
        .unwrap();
    for i in 0..10i64 {
        t.insert(row![i % 3, format!("e{i}")]).unwrap();
    }
    t.create_index(&["building"]).unwrap();
    assert_eq!(db.table("emp").unwrap().indexes().len(), 1);

    // …drop it and recreate under the same normalized key with a
    // different shape. Nothing of the old table — rows or HashIndex
    // state — may survive into the replacement.
    db.drop_table("EMP").unwrap();
    let t = db
        .create_table("emp", Schema::from_pairs(&[("salary", DataType::Double)]))
        .unwrap();
    assert_eq!(t.len(), 0);
    assert!(t.indexes().is_empty());
    assert!(t.index_on(&[0]).is_none());

    // The recreated table indexes its own data only.
    t.insert(row![100.0]).unwrap();
    t.create_index(&["salary"]).unwrap();
    let idx = db.table("emp").unwrap().index_on(&[0]).unwrap();
    assert_eq!(idx.distinct_keys(), 1);
}

#[test]
fn catalog_epoch_counts_structural_ddl() {
    let mut db = Database::new();
    assert_eq!(db.epoch(), 0);
    db.create_table("a", Schema::default()).unwrap();
    db.create_table("b", Schema::default()).unwrap();
    assert_eq!(db.epoch(), 2);
    // Failed DDL does not advance the epoch.
    assert!(db.create_table("a", Schema::default()).is_err());
    assert!(db.drop_table("nope").is_err());
    assert_eq!(db.epoch(), 2);
    db.drop_table("a").unwrap();
    assert_eq!(db.epoch(), 3);
}

#[test]
fn catalog_listing_is_in_creation_order() {
    let mut db = Database::new();
    for n in ["c", "a", "b"] {
        db.create_table(n, Schema::default()).unwrap();
    }
    let names: Vec<_> = db.tables().map(|t| t.name().to_string()).collect();
    assert_eq!(names, ["c", "a", "b"]);
}

// --------------------------------------------------------------- index

fn index_rows() -> Vec<Row> {
    vec![
        row![1, "a"],
        row![2, "b"],
        row![1, "c"],
        row![Value::Null, "d"],
    ]
}

#[test]
fn index_build_and_lookup() {
    let idx = HashIndex::build(vec![0], &index_rows());
    assert_eq!(idx.lookup(&[Value::Int(1)]), &[0, 2]);
    assert_eq!(idx.lookup(&[Value::Int(2)]), &[1]);
    assert_eq!(idx.lookup(&[Value::Int(9)]), &[] as &[usize]);
}

#[test]
fn index_null_keys_not_indexed_and_match_nothing() {
    let idx = HashIndex::build(vec![0], &index_rows());
    assert_eq!(idx.distinct_keys(), 2);
    assert_eq!(idx.lookup(&[Value::Null]), &[] as &[usize]);
}

#[test]
fn index_multi_column() {
    let rs = vec![row![1, "a"], row![1, "b"], row![1, "a"]];
    let idx = HashIndex::build(vec![0, 1], &rs);
    assert_eq!(idx.lookup(&[Value::Int(1), Value::str("a")]), &[0, 2]);
    assert!(idx.covers(&[1, 0]));
    assert!(!idx.covers(&[0]));
}

#[test]
fn index_incremental_insert() {
    let mut idx = HashIndex::build(vec![0], &index_rows());
    idx.insert(4, &row![2, "e"]);
    assert_eq!(idx.lookup(&[Value::Int(2)]), &[1, 4]);
}

// --------------------------------------------------------------- pager

fn page(n: i64) -> PageData {
    let values: Vec<Value> = (0..64).map(|i| Value::Int(n + i)).collect();
    PageData::Col(Column::from_values(values.iter(), values.len()))
}

#[test]
fn pager_hits_and_misses_are_counted() {
    let pool = BufferPool::new(1 << 20);
    let seg = pool.register_segment();
    let key = PageKey { seg, page: 0, col: 0 };
    let mut io = PageIo::default();
    let g = pool.get_pinned(key, &mut io, || Ok(page(0))).unwrap();
    assert_eq!((io.hits, io.misses), (0, 1));
    drop(g);
    let g = pool
        .get_pinned(key, &mut io, || panic!("must hit"))
        .unwrap();
    assert_eq!((io.hits, io.misses), (1, 1));
    assert_eq!(g.data().as_col().unwrap().len(), 64);
    let s = pool.stats();
    assert_eq!((s.hits, s.misses), (1, 1));
}

#[test]
fn pager_eviction_keeps_the_pool_under_budget() {
    // Budget fits roughly two pages; load many.
    let budget = page(0).approx_bytes() * 2 + 1;
    let pool = BufferPool::new(budget);
    let seg = pool.register_segment();
    let mut io = PageIo::default();
    for p in 0..32 {
        let key = PageKey { seg, page: p, col: 0 };
        drop(
            pool.get_pinned(key, &mut io, || Ok(page(p as i64)))
                .unwrap(),
        );
    }
    let s = pool.stats();
    assert!(s.resident_bytes <= budget as u64, "{s:?}");
    assert!(s.evictions >= 30, "{s:?}");
}

#[test]
fn pager_pinned_pages_survive_pressure() {
    let budget = page(0).approx_bytes() + 1; // room for ~one page
    let pool = BufferPool::new(budget);
    let seg = pool.register_segment();
    let mut io = PageIo::default();
    let pinned_key = PageKey { seg, page: 0, col: 0 };
    let guard = pool
        .get_pinned(pinned_key, &mut io, || Ok(page(0)))
        .unwrap();
    for p in 1..16 {
        let key = PageKey { seg, page: p, col: 0 };
        drop(
            pool.get_pinned(key, &mut io, || Ok(page(p as i64)))
                .unwrap(),
        );
    }
    // The pinned page was never evicted: refetching it is a hit.
    let before = io.hits;
    drop(guard);
    let _ = pool
        .get_pinned(pinned_key, &mut io, || panic!("pinned page was evicted"))
        .unwrap();
    assert_eq!(io.hits, before + 1);
}

#[test]
fn pager_forget_segment_drops_its_pages() {
    let pool = BufferPool::new(1 << 20);
    let seg = pool.register_segment();
    let mut io = PageIo::default();
    drop(
        pool.get_pinned(PageKey { seg, page: 0, col: 0 }, &mut io, || Ok(page(0)))
            .unwrap(),
    );
    pool.forget_segment(seg);
    assert_eq!(pool.stats().resident_pages, 0);
    // A new fetch faults in again.
    drop(
        pool.get_pinned(PageKey { seg, page: 0, col: 0 }, &mut io, || Ok(page(0)))
            .unwrap(),
    );
    assert_eq!(io.misses, 2);
}

#[test]
fn pager_forgotten_segments_leave_the_clock_too() {
    // Under budget no sweep ever runs, so forgetting is the only thing
    // that can take a dead segment's entries off the clock.
    let pool = BufferPool::new(1 << 20);
    let mut io = PageIo::default();
    for _ in 0..1000 {
        let seg = pool.register_segment();
        for p in 0..3 {
            let key = PageKey { seg, page: p, col: 0 };
            drop(pool.get_pinned(key, &mut io, || Ok(page(0))).unwrap());
        }
        pool.forget_segment(seg);
        assert!(pool.clock_len() as u64 <= pool.stats().resident_pages);
    }
    assert_eq!((pool.clock_len(), pool.stats().resident_bytes), (0, 0));
    assert_eq!(pool.stats().evictions, 0, "the pool never went over budget");
}

#[test]
fn pager_forgetting_mid_sweep_keeps_the_hand_on_the_clock() {
    // Room for four pages; two segments interleaved on the clock, the hand
    // advanced past some of each, then one forgotten: the sweep carries on
    // over what is left and the pool stays within its budget.
    let budget = page(0).approx_bytes() * 4 + 1;
    let pool = BufferPool::new(budget);
    let (a, b) = (pool.register_segment(), pool.register_segment());
    let mut io = PageIo::default();
    let mut load = |seg, p| {
        let key = PageKey { seg, page: p, col: 0 };
        drop(pool.get_pinned(key, &mut io, || Ok(page(0))).unwrap());
    };
    for p in 0..6 {
        load(a, p);
        load(b, p);
    }
    pool.forget_segment(a);
    assert!(pool.clock_len() as u64 == pool.stats().resident_pages);
    for p in 6..40 {
        load(b, p);
        let s = pool.stats();
        assert!(s.resident_bytes <= budget as u64, "{s:?}");
        assert_eq!(pool.clock_len() as u64, s.resident_pages);
    }
}

// --------------------------------------------------------------- table

/// `rows` two-column rows as a paged table of 64-row stripes on `pool`.
fn paged_table(pool: &std::sync::Arc<BufferPool>, name: &str, rows: i64) -> Table {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]);
    let data: Vec<Row> = (0..rows).map(|i| row![i, format!("s{}", i % 7)]).collect();
    let path = std::env::temp_dir().join(format!(
        "decorr-core-units-{}-{name}.seg",
        std::process::id()
    ));
    let env = decorr_common::RealEnv;
    write_segment(&env, &path, name, &schema, None, &data, 64).unwrap();
    let seg = std::sync::Arc::new(SegmentReader::open(&env, &path).unwrap());
    // The reader holds the file open; the name can go.
    std::fs::remove_file(&path).unwrap();
    Table::paged(PagedBacking::new(
        seg,
        std::sync::Arc::clone(pool),
        format!("{name}.seg"),
    ))
}

#[test]
fn paged_table_pages_leave_the_pool_with_its_last_handle() {
    let pool = BufferPool::new(1 << 20);
    let (t, other) = (
        paged_table(&pool, "t", 300),
        paged_table(&pool, "other", 100),
    );
    let mut io = PageIo::default();
    assert_eq!(t.read_rows(&mut io).unwrap().len(), 300);
    assert_eq!(other.read_rows(&mut io).unwrap().len(), 100);
    // 5 and 2 stripes of 2 columns.
    assert_eq!((io.misses, pool.stats().resident_pages), (14, 14));

    // A snapshot reader still holding the table keeps it cached …
    let reader = t.clone();
    drop(t);
    assert_eq!(pool.stats().resident_pages, 14);
    let mut warm = PageIo::default();
    assert_eq!(reader.read_rows(&mut warm).unwrap().len(), 300);
    assert_eq!((warm.hits, warm.misses), (10, 0));

    // … and the last handle takes the table's pages, and only those.
    drop(reader);
    assert_eq!(pool.stats().resident_pages, 4);
    assert_eq!(pool.clock_len(), 4);
    let mut still = PageIo::default();
    other.read_rows(&mut still).unwrap();
    assert_eq!(still.misses, 0);
}

fn emp() -> Table {
    let mut t = Table::new(
        "emp",
        Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Int)]),
    );
    t.insert_all(vec![row!["a", 1], row!["b", 2], row!["c", 1]])
        .unwrap();
    t
}

#[test]
fn table_schema_enforced_on_insert() {
    let mut t = emp();
    assert!(t.insert(row![1, "oops"]).is_err());
    assert!(t.insert(row!["d"]).is_err());
    assert_eq!(t.len(), 3);
}

#[test]
fn table_index_lifecycle() {
    let mut t = emp();
    t.create_index(&["building"]).unwrap();
    assert_eq!(index_lookup(&t, 1, &Value::Int(1)).unwrap(), &[0, 2]);
    // Index maintained across later inserts.
    t.insert(row!["d", 1]).unwrap();
    assert_eq!(index_lookup(&t, 1, &Value::Int(1)).unwrap(), &[0, 2, 3]);
    // Idempotent creation.
    t.create_index(&["building"]).unwrap();
    assert_eq!(t.indexes().len(), 1);
    t.drop_index(&["building"]).unwrap();
    assert!(index_lookup(&t, 1, &Value::Int(1)).is_none());
    assert!(t.drop_index(&["building"]).is_err());
}

#[test]
fn table_version_changes_on_every_mutation_and_never_repeats() {
    let mut t = emp();
    let mut seen = vec![t.version()];
    t.insert(row!["d", 2]).unwrap();
    seen.push(t.version());
    t.create_index(&["building"]).unwrap();
    seen.push(t.version());
    // Idempotent index creation is a no-op: no new snapshot.
    t.create_index(&["building"]).unwrap();
    assert_eq!(t.version(), *seen.last().unwrap());
    t.drop_index(&["building"]).unwrap();
    seen.push(t.version());
    t.set_key(&["name"]).unwrap();
    seen.push(t.version());
    let mut dedup = seen.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(
        dedup.len(),
        seen.len(),
        "versions must never repeat: {seen:?}"
    );
    // A clone holds the same snapshot; a fresh same-name table does not.
    assert_eq!(t.clone().version(), t.version());
    assert_ne!(Table::new("emp", t.schema().clone()).version(), t.version());
}

#[test]
fn table_key_metadata() {
    let mut t = emp();
    assert!(t.key().is_none());
    t.set_key(&["name"]).unwrap();
    assert_eq!(t.key(), Some(&[0usize][..]));
    assert!(t.set_key(&["nope"]).is_err());
}

#[test]
fn table_best_index_prefers_widest() {
    let mut t = emp();
    t.create_index(&["building"]).unwrap();
    t.create_index(&["building", "name"]).unwrap();
    let best = best_index_for(&t, &[0, 1]).unwrap();
    assert_eq!(best.columns().len(), 2);
    let only = best_index_for(&t, &[1]).unwrap();
    assert_eq!(only.columns(), &[1]);
}
