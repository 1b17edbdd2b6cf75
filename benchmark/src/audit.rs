//! Probes a traced run takes beside the measured window, each through
//! public functions alone: `ANALYZE` per table, storage timings on a scratch
//! directory, and one traced execution per statement class under every
//! sound strategy.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use decorr::choose::choose_strategy_with;
use decorr_core::{apply_strategy, Strategy};
use decorr_exec::{execute_traced, ExecOptions, ExecTrace};
use decorr_qgm::Qgm;
use decorr_server::{AdmissionStats, SharedCatalog};
use decorr_sql::parse_and_bind;
use decorr_stats::{q_error, TableStats};
use decorr_storage::{PageIo, PersistentStore, PoolStats};

use crate::setup::{build_db, store_options, Env};
use crate::util::dir_bytes;
use crate::workload::{Spec, Storage};

/// Storage-layer timings taken on a scratch directory through
/// `PersistentStore` and `Table::read_rows` alone.
#[derive(Default)]
pub struct StorageAudit {
    pub commit_ms: f64,
    pub checkpoint_ms: f64,
    pub reopen_ms: f64,
    pub read_rows_cold_ms: f64,
    pub read_rows_warm_ms: f64,
    pub bytes_per_user_byte: f64,
}

pub fn storage_audit(spec: &Spec, dir: &Path) -> Result<StorageAudit, String> {
    let Storage::Durable { pool_bytes } = spec.storage else {
        return Ok(StorageAudit::default());
    };
    let e = |e: decorr_common::Error| e.to_string();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let db = build_db(spec.scale, false).map_err(e)?;
    let user_bytes: usize = db
        .tables()
        .flat_map(|t| t.rows().iter())
        .map(|r| r.to_string().len() + 1)
        .sum();
    let mut audit = StorageAudit::default();
    let mut store = PersistentStore::open(dir, store_options(pool_bytes))
        .map_err(e)?
        .store;
    let t = Instant::now();
    store.commit(1, &db).map_err(e)?;
    audit.commit_ms = ms(t);
    let t = Instant::now();
    store.checkpoint().map_err(e)?;
    audit.checkpoint_ms = ms(t);
    drop(store);
    let t = Instant::now();
    let reopened = PersistentStore::open(dir, store_options(pool_bytes)).map_err(e)?;
    audit.reopen_ms = ms(t);
    let lineitem = reopened.db.table("lineitem").map_err(e)?;
    let mut io = PageIo::default();
    let t = Instant::now();
    let n = lineitem.read_rows(&mut io).map_err(e)?.len();
    audit.read_rows_cold_ms = ms(t);
    let t = Instant::now();
    let m = lineitem.read_rows(&mut io).map_err(e)?.len();
    audit.read_rows_warm_ms = ms(t);
    if n != m || n != db.table("lineitem").map_err(e)?.len() {
        return Err("storage audit: reopened lineitem lost rows".into());
    }
    audit.bytes_per_user_byte = dir_bytes(dir) as f64 / user_bytes.max(1) as f64;
    drop(reopened);
    let _ = std::fs::remove_dir_all(dir);
    Ok(audit)
}

/// Optimisation cost against execution benefit, one statement per class:
/// the race's pick against every sound pinned strategy, the cost estimate
/// against the work actually done, and self time per box kind.
#[derive(Default)]
pub struct ClassAudit {
    /// `(class, chosen, regret in work units, regret in ms)`.
    pub regrets: Vec<(String, String, f64, f64)>,
    pub worst_cost_qerror: f64,
    /// Mean self wall time per statement of the mix, ms, by box kind.
    pub box_ms: BTreeMap<&'static str, f64>,
}

/// Self time per box kind: a box's wall time minus its children's. A box
/// with several parents is taken off the first one that reaches it.
fn box_self_ms(qgm: &Qgm, trace: &ExecTrace) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut claimed = std::collections::BTreeSet::new();
    for b in qgm.reachable_boxes(qgm.top()) {
        let Some(t) = trace.get(b) else { continue };
        let mut own = t.wall.as_secs_f64() * 1e3;
        for &q in &qgm.boxref(b).quants {
            let child = qgm.quant(q).input;
            if claimed.insert(child.index()) {
                own -= trace.get(child).map_or(0.0, |c| c.wall.as_secs_f64() * 1e3);
            }
        }
        *out.entry(qgm.boxref(b).kind.name()).or_default() += own.max(0.0);
    }
    out
}

pub fn class_audit(spec: &Spec, catalog: &SharedCatalog) -> Result<ClassAudit, String> {
    const SOUND: [(&str, Strategy); 5] = [
        ("ni", Strategy::NestedIteration),
        ("dayal", Strategy::Dayal),
        ("ganski", Strategy::GanskiWong),
        ("magic", Strategy::Magic),
        ("optmag", Strategy::OptMag),
    ];
    let e = |e: decorr_common::Error| e.to_string();
    let snap = catalog.snapshot();
    let model = snap.cost_model();
    let card = spec.cardinalities();
    let mut audit = ClassAudit { worst_cost_qerror: 1.0, ..Default::default() };
    let mut weight_total = 0.0;
    let mut seen: Vec<&str> = Vec::new();
    for m in &spec.mix {
        if seen.contains(&m.class.name) {
            continue;
        }
        seen.push(m.class.name);
        let sql = (m.class.sql)(0, &card);
        let qgm = parse_and_bind(&sql, snap.db()).map_err(e)?;
        let correlated = qgm
            .reachable_boxes(qgm.top())
            .iter()
            .any(|&b| qgm.is_correlated(b));
        let choice = choose_strategy_with(&model, qgm.clone()).map_err(e)?;

        // Work, wall time and box self times of one traced execution.
        let run = |plan: &Qgm| -> Result<(f64, f64, BTreeMap<&'static str, f64>), String> {
            let opts = ExecOptions { spill: catalog.spill(), ..Default::default() };
            let t = Instant::now();
            let (_, stats, trace) = execute_traced(snap.db(), plan, opts).map_err(e)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            Ok((stats.total_work() as f64, ms, box_self_ms(plan, &trace)))
        };
        let mut runs = BTreeMap::new();
        runs.insert("auto", run(&choice.plan)?);
        for (name, s) in SOUND {
            let wanted = correlated || spec.mix.iter().any(|x| x.strategy == name);
            if let (true, Ok(plan)) = (wanted, apply_strategy(&qgm, s)) {
                runs.insert(name, run(&plan)?);
            }
        }

        let (chosen_work, chosen_ms, _) = runs["auto"];
        audit.worst_cost_qerror = audit
            .worst_cost_qerror
            .max(q_error(choice.estimate.cost, chosen_work));
        for x in spec.mix.iter().filter(|x| x.class.name == m.class.name) {
            if let Some((_, _, boxes)) = runs.get(x.strategy) {
                for (kind, ms) in boxes {
                    *audit.box_ms.entry(kind).or_default() += ms * x.count as f64;
                }
                weight_total += x.count as f64;
            }
        }
        if correlated {
            let best_work = runs.values().map(|r| r.0).fold(f64::MAX, f64::min);
            let best_ms = runs.values().map(|r| r.1).fold(f64::MAX, f64::min);
            audit.regrets.push((
                m.class.name.to_string(),
                choice.strategy.name().to_string(),
                chosen_work / best_work.max(1.0),
                chosen_ms / best_ms.max(1e-6),
            ));
        }
    }
    for v in audit.box_ms.values_mut() {
        *v /= weight_total.max(1.0);
    }
    Ok(audit)
}

pub fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0);
    for x in xs {
        sum += x.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Measurements a traced run takes beside the window, while the catalog
/// is still up.
pub struct Probes {
    /// `TableStats::analyze` of each table, ms.
    pub analyze_ms: Vec<(String, f64)>,
    pub class: ClassAudit,
    pub storage: StorageAudit,
    pub admission: AdmissionStats,
    pub pool: Option<PoolStats>,
}

impl Probes {
    pub fn take(spec: &Spec, env: &Env, audit_dir: &Path) -> Result<Probes, String> {
        let snap = env.catalog.snapshot();
        let analyze_ms = snap
            .db()
            .tables()
            .map(|t| {
                let t0 = Instant::now();
                let stats = TableStats::analyze(t);
                (stats.name, t0.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
        Ok(Probes {
            analyze_ms,
            class: class_audit(spec, &env.catalog)?,
            storage: storage_audit(spec, audit_dir)?,
            admission: env.admission.stats(),
            pool: env.catalog.pool_stats(),
        })
    }
}
