//! Everything before the measured window: generate the tables, `ANALYZE`,
//! persist and open the durable catalog, boot the server, connect.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use decorr_common::Result;
use decorr_server::{
    serve, AdmissionControl, LineClient, Quotas, ServerConfig, ServerHandle, Session,
    SessionSettings, SharedCatalog,
};
use decorr_storage::{Database, StoreOptions};
use decorr_tpcd::{empdept, generate, TpcdConfig};

use crate::workload::{Front, Spec, Storage, DATA_SEED};

/// TPC-D at `scale` plus the paper's EMP/DEPT tables, in one catalog.
pub fn build_db(scale: f64, indexes: bool) -> Result<Database> {
    let mut db = generate(&TpcdConfig { scale, seed: DATA_SEED, with_indexes: indexes })?;
    let small = empdept::generate(&empdept::EmpDeptConfig {
        seed: DATA_SEED,
        with_indexes: indexes,
        ..Default::default()
    })?;
    for t in small.tables() {
        db.add_table(t.clone())?;
    }
    Ok(db)
}

pub fn store_options(pool_bytes: usize) -> StoreOptions {
    StoreOptions { pool_bytes, ..StoreOptions::default() }
}

/// The system under test, set up and warm.
pub struct Env {
    pub catalog: Arc<SharedCatalog>,
    pub admission: Arc<AdmissionControl>,
    /// The in-process caller (`Front::Session`), or the in-process twin
    /// the traced run compares the wire against (`Front::Server`).
    pub session: Session,
    pub server: Option<ServerHandle>,
    pub clients: Vec<LineClient>,
    /// The durable catalog's directory, removed at tear-down.
    pub data_dir: Option<PathBuf>,
}

impl Env {
    /// Generate, open, analyze, boot and connect. `dir` is where a durable
    /// catalog goes; it must not exist yet.
    pub fn set_up(spec: &Spec, dir: &Path) -> Result<Env> {
        let db = build_db(spec.scale, spec.indexes)?;
        let settings = SessionSettings { plan_cache: spec.plan_cache, ..Default::default() };
        let data_dir = match spec.storage {
            Storage::Resident => None,
            Storage::Durable { .. } => Some(dir.to_path_buf()),
        };
        let store = match spec.storage {
            Storage::Resident => StoreOptions::default(),
            Storage::Durable { pool_bytes } => store_options(pool_bytes),
        };
        let (catalog, admission, server, clients) = match spec.front {
            Front::Session => {
                let catalog = match &data_dir {
                    Some(dir) => SharedCatalog::open_durable(dir, store, db)?,
                    None => SharedCatalog::new(db),
                };
                let admission = AdmissionControl::new(Quotas::default());
                (Arc::new(catalog), Arc::new(admission), None, Vec::new())
            }
            Front::Server { clients } => {
                let handle = serve(
                    db,
                    ServerConfig {
                        session_defaults: settings.clone(),
                        data_dir: data_dir.clone(),
                        store,
                        ..ServerConfig::default()
                    },
                )?;
                let conns = (0..clients)
                    .map(|_| LineClient::connect(handle.local_addr()))
                    .collect::<Result<Vec<_>>>()?;
                (handle.catalog(), handle.admission(), Some(handle), conns)
            }
        };
        catalog.analyze()?;
        let session = Session::new(0, Arc::clone(&catalog), Arc::clone(&admission), settings);
        Ok(Env { catalog, admission, session, server, clients, data_dir })
    }

    /// Disconnect, stop the server, drop the catalog and delete its files.
    pub fn tear_down(self) {
        let Env { catalog, session, server, clients, data_dir, .. } = self;
        for c in clients {
            let _ = c.quit();
        }
        drop(session);
        if let Some(mut s) = server {
            s.shutdown();
        }
        drop(catalog);
        if let Some(dir) = data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
