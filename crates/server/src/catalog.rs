//! The shared, epoch-versioned catalog.
//!
//! A long-lived service cannot hand every session `&Database`: `\load`,
//! `ANALYZE` and DDL mutate the catalog while other sessions are mid-query.
//! [`SharedCatalog`] resolves this with copy-on-write versioning — the
//! current catalog is an immutable [`CatalogVersion`] behind an `Arc`;
//! readers grab a [`snapshot`](SharedCatalog::snapshot) (one `Arc` clone,
//! held for the whole query) and are **never blocked by writers**. A writer
//! clones the `Database` value, mutates the clone, and publishes it as a
//! new version with the next epoch; in-flight readers keep executing
//! against the snapshot they started with, so every query sees one
//! internally consistent catalog — never a mix of epochs.
//!
//! Every version a writer publishes carries the [`Statistics`] the
//! strategy race prices plans with. The writer builds them
//! before publishing: statistics are held per table and keyed by
//! [`Table::version`](decorr_storage::Table::version), so the entries of
//! tables the write did not touch are carried over from the previous
//! epoch (shared, not copied) and only the changed tables are analyzed —
//! on the rows the writer already holds, before a durable catalog turns
//! them into segments. Readers therefore never analyze on a published
//! epoch; only the version a catalog is constructed or reopened with
//! builds its statistics on first use.
//!
//! The catalog also owns the process-wide caches, each a
//! [`decorr_common::Cache`] fenced by a version: the [`PlanCache`] by
//! epoch, the [`SubplanCache`] and the [`ColumnarCache`] by the snapshot
//! versions of the tables an entry read. Publishing a new epoch makes their
//! stale entries miss by construction, and the entry built under the new
//! version replaces the stale one, so a write frees what it made stale.

use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use decorr::plan_cache::PlanCache;
use decorr_common::{Error, FaultStats, Result, StorageEnv};
use decorr_exec::{ColumnarCache, SubplanCache};
use decorr_stats::Statistics;
use decorr_storage::{
    BufferPool, Checkpoint, Database, PersistentStore, PoolStats, Recovered, SpillManager,
    StoreOptions,
};

/// One immutable published version of the catalog.
pub struct CatalogVersion {
    epoch: u64,
    db: Arc<Database>,
    /// Statistics for this version, shared by every query planned against
    /// this epoch. `Some` from the start on every version
    /// a writer published; `None` until first use on the version a catalog
    /// was constructed or reopened with.
    model: Mutex<Option<Arc<Statistics>>>,
}

impl CatalogVersion {
    /// The epoch this version was published at (monotonically increasing,
    /// starting at 1 for the database the catalog was created with).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The immutable database of this version.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The statistics for this version. On a catalog's first epoch the
    /// first caller analyzes the catalog (later callers wait for it, then
    /// share them); every published epoch already carries its own.
    ///
    /// A table that cannot be read must not become this epoch's
    /// statistics: the failing call prices its statement with none, caches
    /// nothing, and the next call analyzes again. The scan the statement
    /// goes on to run surfaces the I/O error itself.
    pub fn cost_model(&self) -> Arc<Statistics> {
        let mut model = self.model.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(m) = &*model {
            return Arc::clone(m);
        }
        match Statistics::analyze(&self.db) {
            Ok(m) => Arc::clone(model.insert(Arc::new(m))),
            Err(_) => Arc::new(Statistics::default()),
        }
    }

    /// The statistics, if this version has them yet.
    fn built_model(&self) -> Option<Arc<Statistics>> {
        self.model
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// The concurrent catalog: current [`CatalogVersion`] plus the shared
/// columnar batch cache. See the module docs for the versioning contract.
pub struct SharedCatalog {
    current: RwLock<Arc<CatalogVersion>>,
    /// Serializes writers; readers never take it. Held across the whole
    /// clone-mutate-publish cycle so concurrent writers cannot lose
    /// updates to each other.
    writer: Mutex<()>,
    cache: ColumnarCache,
    /// Process-wide plan cache. Keys include the epoch, so publishing a
    /// new version invalidates every cached plan by construction.
    plans: PlanCache,
    /// Process-wide materialized-intermediate cache for magic/SUPP
    /// subtrees, keyed by subtree shape + table snapshot versions.
    subplans: SubplanCache,
    /// Durable backing, when the catalog was opened with a data directory.
    /// `None` means ephemeral: epochs live only in this process.
    persist: Option<Durable>,
}

/// The durable half of a catalog: the store behind a lock (commits are
/// serialized by the writer mutex anyway) plus unlocked handles to the
/// pool and spill manager, which sessions grab per query.
struct Durable {
    store: Mutex<PersistentStore>,
    pool: Arc<BufferPool>,
    spill: Arc<SpillManager>,
    env: Arc<dyn StorageEnv>,
}

fn poisoned() -> Error {
    Error::internal("catalog lock poisoned: a writer panicked mid-update")
}

impl SharedCatalog {
    /// Publish `db` as epoch 1, ephemeral: nothing survives the process.
    pub fn new(db: Database) -> Self {
        Self::with_persist(db, 1, None)
    }

    /// Open (or create) a durable catalog rooted at `dir`.
    ///
    /// A fresh directory commits `seed` as epoch 1 and publishes the
    /// segment-backed conversion; a recovered directory publishes exactly
    /// the last durable epoch — `seed` is ignored, because the disk is the
    /// source of truth. Every later [`update`](SharedCatalog::update) /
    /// [`replace`](SharedCatalog::replace) / [`analyze`](SharedCatalog::analyze)
    /// makes its epoch durable (segments + WAL, fsynced) *before*
    /// publishing it, so an epoch a client saw acknowledged is an epoch
    /// recovery reproduces.
    pub fn open_durable(dir: &Path, opts: StoreOptions, seed: Database) -> Result<SharedCatalog> {
        let Recovered { mut store, db, epoch, fresh } = PersistentStore::open(dir, opts)?;
        let (epoch, db) = if fresh {
            let converted = store.commit(1, &seed)?;
            (1, converted.unwrap_or(seed))
        } else {
            (epoch, db)
        };
        let durable = Durable {
            pool: store.pool(),
            spill: store.spill(),
            env: store.env(),
            store: Mutex::new(store),
        };
        Ok(Self::with_persist(db, epoch, Some(durable)))
    }

    fn with_persist(db: Database, epoch: u64, persist: Option<Durable>) -> SharedCatalog {
        SharedCatalog {
            current: RwLock::new(Arc::new(CatalogVersion {
                epoch,
                db: Arc::new(db),
                model: Mutex::new(None),
            })),
            writer: Mutex::new(()),
            cache: ColumnarCache::new(),
            plans: PlanCache::default(),
            subplans: SubplanCache::default(),
            persist,
        }
    }

    /// The current version. The returned snapshot stays valid (and
    /// internally consistent) for as long as the caller holds it, no
    /// matter how many epochs writers publish meanwhile.
    pub fn snapshot(&self) -> Arc<CatalogVersion> {
        match self.current.read() {
            Ok(g) => Arc::clone(&g),
            // A poisoned RwLock means a reader panicked while holding the
            // guard for an Arc clone — the data itself is an immutable Arc
            // and still sound, so recover it rather than cascading.
            Err(p) => Arc::clone(&p.into_inner()),
        }
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// The process-wide columnar batch cache, for
    /// [`decorr_exec::ExecOptions::shared_cache`].
    pub fn columnar_cache(&self) -> &ColumnarCache {
        &self.cache
    }

    /// The process-wide plan cache (fingerprint + epoch + mode → raced
    /// plan template).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// The process-wide shared-subplan cache, for
    /// [`decorr_exec::ExecOptions::shared_subplans`].
    pub fn subplan_cache(&self) -> &SubplanCache {
        &self.subplans
    }

    /// Copy-on-write update: clone the current database, apply `f`, and
    /// publish the result as a new epoch. Readers holding older snapshots
    /// are unaffected. If `f` fails — or a changed table cannot be
    /// analyzed — nothing is published. In durable mode the epoch is
    /// committed (segments + WAL, fsynced) before it becomes visible to
    /// any session.
    pub fn update<T>(&self, f: impl FnOnce(&mut Database) -> Result<T>) -> Result<T> {
        let _w = self.writer.lock().map_err(|_| poisoned())?;
        let snap = self.snapshot();
        let mut db = (*snap.db).clone();
        let out = f(&mut db)?;
        self.publish_next(&snap, Arc::new(db))?;
        Ok(out)
    }

    /// Replace the whole database (`\load`): publish `db` as a new epoch.
    /// In durable mode the published catalog is the segment-backed
    /// conversion — `\load` returns only after the data is on disk.
    pub fn replace(&self, db: Database) -> Result<u64> {
        let _w = self.writer.lock().map_err(|_| poisoned())?;
        let snap = self.snapshot();
        self.publish_next(&snap, Arc::new(db))?;
        Ok(snap.epoch + 1)
    }

    /// `ANALYZE`: publish a new epoch sharing the same (unchanged) data and
    /// return its statistics. They are kept per table version, so this analyzes
    /// only what no earlier epoch has — straight after a write, nothing.
    pub fn analyze(&self) -> Result<Arc<Statistics>> {
        let _w = self.writer.lock().map_err(|_| poisoned())?;
        let snap = self.snapshot();
        self.publish_next(&snap, Arc::clone(&snap.db))
    }

    /// The tail of every write: bring `snap`'s statistics up to `db`
    /// (analyzing only the tables whose version changed, while their rows
    /// are still resident), make the next epoch durable, and publish it
    /// with its statistics attached. Any error publishes nothing. Callers hold
    /// the writer lock.
    fn publish_next(&self, snap: &CatalogVersion, db: Arc<Database>) -> Result<Arc<Statistics>> {
        let mut stats = match snap.built_model() {
            Some(m) => m.refreshed(&db)?,
            None => Statistics::analyze(&db)?,
        };
        let epoch = snap.epoch + 1;
        let db = self.commit_durable(epoch, db)?;
        stats.rebind(&db);
        let model = Arc::new(stats);
        let version =
            Arc::new(CatalogVersion { epoch, db, model: Mutex::new(Some(Arc::clone(&model))) });
        *self.current.write().map_err(|_| poisoned())? = version;
        Ok(model)
    }

    /// Durable commit of `epoch`, returning the database to publish (the
    /// segment-backed conversion when the store produced one; an already
    /// segment-backed catalog, as under `ANALYZE`, only appends the epoch
    /// to the WAL so recovery lands on the epoch sessions last saw).
    /// Ephemeral catalogs pass `db` through untouched. Callers hold the
    /// writer lock, so the writer → store lock order is invariant.
    fn commit_durable(&self, epoch: u64, db: Arc<Database>) -> Result<Arc<Database>> {
        let Some(d) = &self.persist else {
            return Ok(db);
        };
        let mut store = d.store.lock().map_err(|_| poisoned())?;
        Ok(store.commit(epoch, &db)?.map_or(db, Arc::new))
    }

    /// Is this catalog backed by a data directory?
    pub fn is_durable(&self) -> bool {
        self.persist.is_some()
    }

    /// The buffer pool disk pages fault through (`None` when ephemeral).
    pub fn buffer_pool(&self) -> Option<Arc<BufferPool>> {
        self.persist.as_ref().map(|d| Arc::clone(&d.pool))
    }

    /// Pool counters for `\pool` (`None` when ephemeral).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.persist.as_ref().map(|d| d.pool.stats())
    }

    /// The spill manager over-budget operators partition through
    /// (`None` when ephemeral — in-memory catalogs run them in memory).
    pub fn spill(&self) -> Option<Arc<SpillManager>> {
        self.persist.as_ref().map(|d| Arc::clone(&d.spill))
    }

    /// Checkpoint the durable store: manifest the current epoch, truncate
    /// the WAL and collect unreferenced segments. Returns the checkpointed
    /// epoch plus GC counts, or `None` for an ephemeral catalog.
    pub fn checkpoint(&self) -> Result<Option<Checkpoint>> {
        let Some(d) = &self.persist else {
            return Ok(None);
        };
        let _w = self.writer.lock().map_err(|_| poisoned())?;
        let mut store = d.store.lock().map_err(|_| poisoned())?;
        Ok(Some(store.checkpoint()?))
    }

    /// Injected-fault counters of the storage environment (all zero on
    /// the real filesystem; `None` when ephemeral).
    pub fn env_stats(&self) -> Option<FaultStats> {
        self.persist.as_ref().map(|d| d.env.stats())
    }

    /// Cleanup/GC deletions that failed on the durable store (`None` when
    /// ephemeral).
    pub fn gc_failures(&self) -> Result<Option<u64>> {
        let Some(d) = &self.persist else {
            return Ok(None);
        };
        let store = d.store.lock().map_err(|_| poisoned())?;
        Ok(Some(store.gc_failures()))
    }
}
