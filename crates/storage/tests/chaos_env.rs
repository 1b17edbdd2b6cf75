//! The PR-9 acceptance tests for [`ChaosEnv`]: the crash-point sweep,
//! fail-closed ENOSPC, byte-identity with [`RealEnv`], and durability of
//! acked commits under the full probabilistic fault mix.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use decorr_common::{row, ChaosEnv, DataType, Error, FaultPlane, Row, Schema, StorageEnv};
use decorr_storage::{Database, PageIo, PersistentStore, Recovered, StoreOptions};

const SEED: u64 = 0x9e37_79b9_cafe_f00d;

/// The deterministic workload the sweep replays: epochs 2..=5, each adding
/// rows (and epoch 4 adding a table), with a checkpoint after epoch 3.
/// Returns the expected row model per epoch: `epoch -> table -> rows`.
fn model() -> BTreeMap<u64, BTreeMap<String, Vec<Row>>> {
    let mut m = BTreeMap::new();
    let mut people: Vec<Row> = Vec::new();
    let mut audit: Vec<Row> = Vec::new();
    // Epoch 1 is the fresh, empty catalog.
    m.insert(1, BTreeMap::new());
    for epoch in 2u64..=5 {
        for i in 0..4i64 {
            let id = (epoch as i64) * 10 + i;
            people.push(row![id, format!("p{id}")]);
        }
        let mut tables = BTreeMap::new();
        tables.insert("people".to_string(), people.clone());
        if epoch >= 4 {
            audit.push(row![epoch as i64]);
            tables.insert("audit".to_string(), audit.clone());
        }
        m.insert(epoch, tables);
    }
    m
}

fn build_db(tables: &BTreeMap<String, Vec<Row>>) -> Database {
    let mut db = Database::new();
    for (name, rows) in tables {
        let schema = if name == "audit" {
            Schema::from_pairs(&[("epoch", DataType::Int)])
        } else {
            Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)])
        };
        let t = db.create_table(name, schema).unwrap();
        for r in rows {
            t.insert(r.clone()).unwrap();
        }
    }
    db
}

fn rows_of(db: &Database) -> BTreeMap<String, Vec<Row>> {
    let mut io = PageIo::default();
    let mut out = BTreeMap::new();
    for t in db.tables() {
        out.insert(
            t.name().to_string(),
            t.read_rows(&mut io).unwrap().into_owned(),
        );
    }
    out
}

/// Replay the workload on `env`, stopping at the first error (the crash
/// point, when one is armed). Returns the highest epoch whose commit was
/// acked — the durability floor recovery must respect.
fn replay(env: &ChaosEnv, dir: &Path) -> u64 {
    let model = model();
    let opened = PersistentStore::open(dir, StoreOptions::on_env(Arc::new(env.clone())));
    let Ok(mut rec) = opened else { return 0 };
    let mut acked = rec.epoch;
    for epoch in 2u64..=5 {
        let db = build_db(&model[&epoch]);
        match rec.store.commit(epoch, &db) {
            Ok(_) => acked = epoch,
            Err(_) => return acked,
        }
        if epoch == 3 && rec.store.checkpoint().is_err() {
            return acked;
        }
    }
    acked
}

fn reopen(env: &ChaosEnv, dir: &Path) -> Recovered {
    PersistentStore::open(dir, StoreOptions::on_env(Arc::new(env.clone()))).unwrap()
}

/// The tentpole acceptance test: kill the env at *every* op of the
/// workload, reopen, and require recovery to land on exactly one of the
/// model epochs, at or above the durability floor, with bit-identical
/// rows.
#[test]
fn crash_point_sweep_recovers_newest_intact_epoch() {
    let dir = PathBuf::from("/chaos/store");
    let model = model();

    // Dry run, faults off: count the ops the workload consumes.
    let dry = ChaosEnv::new(FaultPlane::quiet(SEED));
    let acked = replay(&dry, &dir);
    assert_eq!(acked, 5, "dry run must ack every epoch");
    let total_ops = dry.op_count();
    assert!(
        total_ops > 50,
        "workload too small to sweep ({total_ops} ops)"
    );

    for k in 0..total_ops {
        let env = ChaosEnv::new(FaultPlane::quiet(SEED));
        env.set_crash_point(k);
        let acked = replay(&env, &dir);
        // The env died mid-workload (or the workload finished if the
        // crash landed in its final ops). Power-cycle and recover.
        env.revive();
        let rec = reopen(&env, &dir);
        assert!(
            rec.epoch >= acked.max(1),
            "crash at op {k}: recovered epoch {} below durability floor {acked}",
            rec.epoch
        );
        let expected = model
            .get(&rec.epoch)
            .unwrap_or_else(|| panic!("crash at op {k}: recovered unknown epoch {}", rec.epoch));
        assert_eq!(
            &rows_of(&rec.db),
            expected,
            "crash at op {k}: epoch {} rows diverge from the model",
            rec.epoch
        );
    }
}

/// ENOSPC is fail-closed: commits and checkpoints return the typed
/// [`Error::StorageFull`], never panic, never publish a partial epoch —
/// and the store keeps serving reads the whole time.
#[test]
fn enospc_is_fail_closed_and_reads_keep_serving() {
    let dir = PathBuf::from("/chaos/enospc");
    let env = ChaosEnv::new(FaultPlane::quiet(SEED));
    let model = model();
    let mut rec = PersistentStore::open(&dir, StoreOptions::on_env(Arc::new(env.clone()))).unwrap();
    let paged = rec
        .store
        .commit(2, &build_db(&model[&2]))
        .unwrap()
        .expect("epoch 2 pages out");

    env.set_disk_full(true);
    // Every mutation is rejected with the typed error...
    let err = rec.store.commit(3, &build_db(&model[&3])).unwrap_err();
    assert!(matches!(err, Error::StorageFull(_)), "commit: {err}");
    let err = rec.store.checkpoint().unwrap_err();
    assert!(matches!(err, Error::StorageFull(_)), "checkpoint: {err}");
    // ...while reads keep serving from the published epoch.
    assert_eq!(rows_of(&paged), model[&2]);
    assert!(env.stats().enospc >= 2);

    // The device recovers: nothing was partially published, the store
    // still sits on epoch 2, and the next commit goes through cleanly.
    env.set_disk_full(false);
    let rec2 = reopen(&env, &dir);
    assert_eq!(rec2.epoch, 2);
    assert_eq!(rows_of(&rec2.db), model[&2]);
    let mut rec2 = rec2;
    rec2.store.commit(3, &build_db(&model[&3])).unwrap();
    let rec3 = reopen(&env, &dir);
    assert_eq!(rec3.epoch, 3);
    assert_eq!(rows_of(&rec3.db), model[&3]);
}

/// With faults disabled, a [`ChaosEnv`] and a [`RealEnv`] produce byte-
/// identical on-disk artifacts for the same workload — the chaos model is
/// the real storage stack, minus the hardware.
#[test]
fn quiet_chaos_env_matches_real_env_byte_for_byte() {
    // Chaos side.
    let chaos_root = PathBuf::from("/chaos/ident");
    let chaos = ChaosEnv::new(FaultPlane::quiet(SEED));
    replay(&chaos, &chaos_root);
    let mut chaos_files: Vec<(String, Vec<u8>)> = chaos
        .dump()
        .unwrap()
        .into_iter()
        .map(|(p, bytes)| {
            let rel = p
                .strip_prefix(&chaos_root)
                .unwrap()
                .to_string_lossy()
                .into_owned();
            (rel, bytes)
        })
        .collect();
    chaos_files.sort();

    // Real side: the same workload against std::fs in a temp dir.
    let real_root = std::env::temp_dir().join(format!("decorr-chaos-ident-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&real_root);
    {
        let model = model();
        let mut rec = PersistentStore::open(&real_root, StoreOptions::default()).unwrap();
        for epoch in 2u64..=5 {
            rec.store.commit(epoch, &build_db(&model[&epoch])).unwrap();
            if epoch == 3 {
                rec.store.checkpoint().unwrap();
            }
        }
    }
    let mut real_files: Vec<(String, Vec<u8>)> = Vec::new();
    let mut stack = vec![real_root.clone()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let entry = entry.unwrap();
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(&real_root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                real_files.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    real_files.sort();
    // The spill dir is runtime scratch (swept on open, absent unless a
    // query spilled); everything else must match byte for byte.
    let names = |v: &[(String, Vec<u8>)]| v.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&chaos_files), names(&real_files));
    for ((name, c), (_, r)) in chaos_files.iter().zip(real_files.iter()) {
        assert_eq!(
            c, r,
            "artifact {name} diverges between ChaosEnv and RealEnv"
        );
    }
}

/// Under the full probabilistic fault mix (ENOSPC, torn writes, transient
/// EIO, lying fsync, latency) the store never panics, every error is
/// typed, and once the weather clears the newest *acked* epoch is exactly
/// what recovery serves.
#[test]
fn acked_commits_survive_the_probabilistic_fault_mix() {
    let model = model();
    let mut injected = 0u64;
    for seed in [SEED, 1, 42, 0xDEAD_BEEF] {
        let dir = PathBuf::from("/chaos/mix");
        let env = ChaosEnv::new(FaultPlane::chaos(seed));
        let mut rec = match PersistentStore::open(&dir, StoreOptions::on_env(Arc::new(env.clone())))
        {
            Ok(r) => r,
            // Open itself may be hit (transient EIO on the manifest read);
            // that is a typed, retryable outcome.
            Err(e) => {
                assert!(matches!(e, Error::Io(_) | Error::StorageFull(_)), "{e}");
                continue;
            }
        };
        let mut acked = 1u64;
        for epoch in 2u64..=5 {
            // Retry commits through transient faults, as a caller would.
            for _ in 0..16 {
                match rec.store.commit(epoch, &build_db(&model[&epoch])) {
                    Ok(_) => {
                        acked = epoch;
                        break;
                    }
                    Err(e) => {
                        assert!(
                            matches!(e, Error::Io(_) | Error::StorageFull(_)),
                            "seed {seed}: untyped commit error {e}"
                        );
                    }
                }
            }
            let _ = rec.store.checkpoint(); // may fail; must stay typed
        }
        drop(rec);
        // Clear weather: recovery must land exactly on the acked epoch
        // (no crash was injected, so acked bytes are still live).
        env.set_faults(false);
        let rec = reopen(&env, &dir);
        assert_eq!(rec.epoch, acked, "seed {seed}");
        assert_eq!(rows_of(&rec.db), model[&acked], "seed {seed}");
        // A single short workload may dodge every per-mille draw for one
        // seed; across the seed set the mix must actually fire.
        injected += env.stats().disk_faults() + env.stats().latency_ticks;
    }
    assert!(injected > 0, "no seed injected any fault");
}
