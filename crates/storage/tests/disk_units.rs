//! Unit-grained tests for the disk subsystem (WAL, manifest, segments,
//! spill, persistent store), relocated out of `src/` so the no-panic grep
//! gate can cover `crates/storage/src` — and ported onto the
//! [`StorageEnv`] abstraction.

use std::path::PathBuf;
use std::sync::Arc;

use decorr_common::{row, Column, DataType, RealEnv, Row, Schema, Value};
use decorr_storage::manifest::{read_manifest, write_manifest};
use decorr_storage::wal::{valid_prefix, WalWriter};
use decorr_storage::{
    write_segment, BufferPool, Database, PageIo, PersistentStore, SegmentReader, SpillManager,
    StoreOptions, Table,
};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decorr-diskunit-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------- WAL

#[test]
fn wal_append_then_reopen_replays_all() {
    let env = RealEnv;
    let path = tmp_dir("wal-basic").join("basic.wal");
    let (mut w, records) = WalWriter::open(&env, &path).unwrap();
    assert!(records.is_empty());
    w.append(b"one").unwrap();
    w.append(b"two").unwrap();
    drop(w);
    let (_, records) = WalWriter::open(&env, &path).unwrap();
    assert_eq!(records, vec![b"one".to_vec(), b"two".to_vec()]);
}

#[test]
fn wal_torn_tail_is_dropped_at_every_truncation_point() {
    let env = RealEnv;
    let path = tmp_dir("wal-torn").join("torn.wal");
    let (mut w, _) = WalWriter::open(&env, &path).unwrap();
    w.append(b"alpha").unwrap();
    w.append(b"beta").unwrap();
    w.append(b"gamma").unwrap();
    drop(w);
    let full = std::fs::read(&path).unwrap();
    // Simulate a crash at *every* byte offset: recovery must always
    // yield a prefix of the appended records.
    for cut in 0..=full.len() {
        let (records, valid) = valid_prefix(&full[..cut]);
        assert!(valid <= cut as u64);
        let expected: Vec<&[u8]> =
            [b"alpha".as_slice(), b"beta", b"gamma"][..records.len()].to_vec();
        assert_eq!(records, expected, "cut at {cut}");
    }
}

#[test]
fn wal_corrupt_byte_fails_closed_and_reopen_truncates() {
    let env = RealEnv;
    let path = tmp_dir("wal-corrupt").join("corrupt.wal");
    let (mut w, _) = WalWriter::open(&env, &path).unwrap();
    w.append(b"first").unwrap();
    w.append(b"second").unwrap();
    drop(w);
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 2] ^= 0x40; // flip a bit inside the second payload
    std::fs::write(&path, &bytes).unwrap();
    let (mut w, records) = WalWriter::open(&env, &path).unwrap();
    assert_eq!(records, vec![b"first".to_vec()]);
    // Appending after truncation keeps the log coherent.
    w.append(b"third").unwrap();
    assert!(!w.is_wedged());
    drop(w);
    let (_, records) = WalWriter::open(&env, &path).unwrap();
    assert_eq!(records, vec![b"first".to_vec(), b"third".to_vec()]);
}

// ----------------------------------------------------------- manifest

#[test]
fn manifest_write_read_replace() {
    let env = RealEnv;
    let dir = tmp_dir("manifest-rw");
    assert_eq!(read_manifest(&env, &dir).unwrap(), None);
    write_manifest(&env, &dir, b"state-1").unwrap();
    assert_eq!(read_manifest(&env, &dir).unwrap().unwrap(), b"state-1");
    write_manifest(&env, &dir, b"state-2").unwrap();
    assert_eq!(read_manifest(&env, &dir).unwrap().unwrap(), b"state-2");
}

#[test]
fn manifest_corruption_is_an_error_not_an_empty_catalog() {
    let env = RealEnv;
    let dir = tmp_dir("manifest-corrupt");
    write_manifest(&env, &dir, b"precious").unwrap();
    let path = dir.join("MANIFEST");
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 1] ^= 1;
    std::fs::write(&path, &bytes).unwrap();
    assert!(read_manifest(&env, &dir).is_err());
}

// ----------------------------------------------------------- segments

fn sample_rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            row![
                i,
                format!("name{}", i % 7),
                if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Double(i as f64 / 3.0)
                }
            ]
        })
        .collect()
}

fn sample_schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int),
        ("name", DataType::Str),
        ("score", DataType::Double),
    ])
}

#[test]
fn segment_round_trips_across_pages() {
    let env = RealEnv;
    let path = tmp_dir("seg-rt").join("roundtrip.seg");
    let rows = sample_rows(1000);
    write_segment(&env, &path, "t", &sample_schema(), Some(&[0]), &rows, 128).unwrap();
    let seg = SegmentReader::open(&env, &path).unwrap();
    assert_eq!(seg.meta().row_count, 1000);
    assert_eq!(seg.meta().n_pages, 8);
    assert_eq!(seg.meta().key, Some(vec![0]));
    assert_eq!(seg.meta().schema, sample_schema());
    let mut rebuilt = Vec::new();
    for p in 0..seg.meta().n_pages {
        let cols: Vec<Column> = (0..3).map(|c| seg.read_page(p, c).unwrap()).collect();
        for i in 0..seg.meta().page_len(p) {
            rebuilt.push(Row::new(cols.iter().map(|c| c.value_at(i)).collect()));
        }
    }
    assert_eq!(rows, rebuilt);
}

#[test]
fn segment_zone_maps_cover_pages() {
    let env = RealEnv;
    let path = tmp_dir("seg-zones").join("zones.seg");
    let rows = sample_rows(512);
    write_segment(&env, &path, "t", &sample_schema(), None, &rows, 128).unwrap();
    let seg = SegmentReader::open(&env, &path).unwrap();
    // Page 0 of the id column holds 0..127.
    let z = seg.meta().zone(0, 0);
    assert_eq!(z.min, Value::Int(0));
    assert_eq!(z.max, Value::Int(127));
    let all = seg.meta().column_zone(0);
    assert_eq!(all.max, Value::Int(511));
    assert_eq!(all.rows, 512);
}

#[test]
fn segment_corruption_fails_closed() {
    let env = RealEnv;
    let path = tmp_dir("seg-corrupt").join("corrupt.seg");
    write_segment(
        &env,
        &path,
        "t",
        &sample_schema(),
        None,
        &sample_rows(100),
        32,
    )
    .unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip a byte inside the first page frame.
    bytes[16] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let seg = SegmentReader::open(&env, &path).unwrap(); // footer still valid
    assert!(seg.read_page(0, 0).is_err());
    // Truncate the trailer: open itself must fail.
    bytes.truncate(bytes.len() - 4);
    std::fs::write(&path, &bytes).unwrap();
    assert!(SegmentReader::open(&env, &path).is_err());
}

#[test]
fn segment_empty_tables_round_trip() {
    let env = RealEnv;
    let path = tmp_dir("seg-empty").join("empty.seg");
    write_segment(&env, &path, "t", &sample_schema(), None, &[], 128).unwrap();
    let seg = SegmentReader::open(&env, &path).unwrap();
    assert_eq!(seg.meta().row_count, 0);
    assert_eq!(seg.meta().n_pages, 0);
}

// -------------------------------------------------------------- spill

fn spill_manager(name: &str) -> SpillManager {
    SpillManager::new(tmp_dir(name), RealEnv::shared(), BufferPool::new(1 << 20)).unwrap()
}

#[test]
fn spill_partitions_round_trip_in_push_order() {
    let m = spill_manager("spill-rt");
    let mut set = m.partition_set(3).unwrap();
    for i in 0..5000i64 {
        set.push((i % 3) as usize, row![i, format!("r{i}")])
            .unwrap();
    }
    set.finish().unwrap();
    let mut io = PageIo::default();
    for part in 0..3 {
        let rows = set.read_partition(part, &mut io).unwrap();
        assert_eq!(rows.len(), set.partition_rows(part));
        // Push order: strictly increasing ids within the partition.
        for w in rows.windows(2) {
            assert!(w[0][0] < w[1][0]);
        }
    }
    assert!(io.misses > 0);
    // Second pass hits the pool.
    let before = io.hits;
    let _ = set.read_partition(0, &mut io).unwrap();
    assert!(io.hits > before);
}

#[test]
fn spill_dropping_the_set_removes_the_file() {
    let m = spill_manager("spill-drop");
    let mut set = m.partition_set(1).unwrap();
    set.push(0, row![1]).unwrap();
    set.finish().unwrap();
    let path = set.path().to_path_buf();
    assert!(path.exists());
    drop(set);
    assert!(!path.exists());
    assert_eq!(m.cleanup_failures(), 0);
}

// ----------------------------------------------------- persistent store

fn seed_db() -> Database {
    let mut db = Database::new();
    let schema = Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)]);
    let t = db.create_table("people", schema).unwrap();
    t.insert(row![1, "ada"]).unwrap();
    t.insert(row![2, "grace"]).unwrap();
    db
}

fn all_rows(db: &Database, name: &str) -> Vec<Row> {
    let mut io = PageIo::default();
    db.table(name)
        .unwrap()
        .read_rows(&mut io)
        .unwrap()
        .into_owned()
}

#[test]
fn store_fresh_commit_then_reopen_recovers_epoch_and_rows() {
    let dir = tmp_dir("store-fresh");
    let mut rec = PersistentStore::open(&dir, StoreOptions::default()).unwrap();
    assert!(rec.fresh);
    assert!(rec.db.tables().next().is_none());
    let db = seed_db();
    let converted = rec
        .store
        .commit(2, &db)
        .unwrap()
        .expect("resident table converted");
    assert!(converted.table("people").unwrap().is_paged());
    assert_eq!(
        all_rows(&converted, "people"),
        db.table("people").unwrap().rows()
    );

    let mut rec2 = PersistentStore::open(&dir, StoreOptions::default()).unwrap();
    assert!(!rec2.fresh);
    assert_eq!(rec2.epoch, 2);
    assert_eq!(
        all_rows(&rec2.db, "people"),
        db.table("people").unwrap().rows()
    );
    // Already-paged catalogs re-commit without writing new segments.
    assert!(rec2.store.commit(3, &rec2.db).unwrap().is_none());
}

#[test]
fn store_checkpoint_truncates_wal_and_survives_reopen() {
    let dir = tmp_dir("store-ckpt");
    let mut rec = PersistentStore::open(&dir, StoreOptions::default()).unwrap();
    rec.store.commit(2, &seed_db()).unwrap();
    let ck = rec.store.checkpoint().unwrap();
    assert_eq!(ck.epoch, 2);
    assert_eq!(ck.gc_failed, 0);
    assert_eq!(std::fs::metadata(dir.join("wal.log")).unwrap().len(), 0);

    let rec2 = PersistentStore::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(rec2.epoch, 2);
    assert_eq!(all_rows(&rec2.db, "people").len(), 2);
}

#[test]
fn store_torn_wal_tail_recovers_previous_epoch() {
    let dir = tmp_dir("store-torn");
    let mut rec = PersistentStore::open(&dir, StoreOptions::default()).unwrap();
    rec.store.commit(2, &seed_db()).unwrap();
    let mut db2 = seed_db();
    let schema = Schema::from_pairs(&[("x", DataType::Int)]);
    db2.create_table("extra", schema)
        .unwrap()
        .insert(row![7])
        .unwrap();
    rec.store.commit(3, &db2).unwrap();
    drop(rec);

    // Tear the last WAL record: recovery must land on epoch 2 exactly.
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
    let rec2 = PersistentStore::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(rec2.epoch, 2);
    assert!(rec2.db.table("extra").is_err());
    assert_eq!(all_rows(&rec2.db, "people").len(), 2);
}

#[test]
fn store_checkpoint_gc_removes_unreferenced_segments() {
    let dir = tmp_dir("store-gc");
    let mut rec = PersistentStore::open(&dir, StoreOptions::default()).unwrap();
    let converted = rec.store.commit(2, &seed_db()).unwrap().unwrap();
    // Drop the table, commit the empty catalog, checkpoint: the old
    // segment file must be collected.
    let mut db = converted;
    db.drop_table("people").unwrap();
    rec.store.commit(3, &db).unwrap();
    let ck = rec.store.checkpoint().unwrap();
    assert_eq!(ck.gc_removed, 1);
    assert_eq!(ck.gc_failed, 0);
    let n_segs = std::fs::read_dir(dir.join("segs")).unwrap().count();
    assert_eq!(n_segs, 0);
    let rec2 = PersistentStore::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(rec2.epoch, 3);
    assert!(rec2.db.tables().next().is_none());
}

#[test]
fn table_paged_via_env_reads_identically() {
    // The same table, resident vs paged through a RealEnv-backed segment.
    let env = RealEnv;
    let path = tmp_dir("table-paged").join("t.seg");
    let rows = sample_rows(300);
    write_segment(&env, &path, "t", &sample_schema(), None, &rows, 64).unwrap();
    let seg = Arc::new(SegmentReader::open(&env, &path).unwrap());
    let pool = BufferPool::new(1 << 20);
    let paged = Table::paged(decorr_storage::PagedBacking::new(seg, pool, "t.seg".into()));
    let mut io = PageIo::default();
    assert_eq!(paged.read_rows(&mut io).unwrap().into_owned(), rows);
}
