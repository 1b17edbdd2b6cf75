//! `bless`: compute the expected answers once, from the most naive
//! configuration the engine has, and cross-check them against every sound
//! strategy before they are written.
//!
//! Naive means `\strategy ni` with the correlation memo, batched invocation,
//! columnar kernels and every cache off, one thread, on resident indexed
//! tables: tuple-at-a-time nested iteration, the semantics the paper's
//! rewrites must preserve. Kim is never consulted (COUNT bug).

use std::sync::Arc;

use decorr_common::Error;
use decorr_server::{AdmissionControl, Quotas, Session, SessionSettings, SharedCatalog};

use crate::digest::{digest_lines, expected_path, Answer, Expected};
use crate::runner::home;
use crate::setup::build_db;
use crate::workload::{sql_key, Spec, NAMES};

/// Every sound way to run a statement besides the naive one.
const CROSS_CHECKS: [&str; 6] = ["auto", "ni", "dayal", "ganski", "magic", "optmag"];

pub fn bless(force: bool) -> Result<(), String> {
    let e = |e: Error| e.to_string();
    for name in NAMES {
        let path = expected_path(&home(), name);
        let mut expected = if path.exists() {
            Expected::load(&path)?
        } else {
            Expected::default()
        };
        let mut changed = Vec::new();
        for smoke in [false, true] {
            let spec = Spec::named(name, smoke).ok_or("workload list out of step")?;
            let catalog = Arc::new(SharedCatalog::new(build_db(spec.scale, true).map_err(e)?));
            let admission = Arc::new(AdmissionControl::new(Quotas::default()));
            let session = |settings: SessionSettings, strategy: &str| {
                let mut s = Session::new(0, Arc::clone(&catalog), Arc::clone(&admission), settings);
                s.handle_line(&format!("\\strategy {strategy}")).map(|_| s)
            };
            let uncached =
                SessionSettings { plan_cache: false, shared_subplans: false, ..Default::default() };
            let mut naive = session(
                SessionSettings {
                    columnar: false,
                    ni_memo: false,
                    ni_batch: false,
                    ..uncached.clone()
                },
                "ni",
            )
            .map_err(e)?;
            let mut others = CROSS_CHECKS
                .iter()
                .map(|s| session(uncached.clone(), s).map(|sess| (*s, sess)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(e)?;
            for (class, sql) in spec.pool() {
                let lines = naive
                    .handle_line(&sql)
                    .map_err(|err| {
                        format!("{name}/{}: naive run failed: {err}: {sql}", class.name)
                    })?
                    .lines;
                let (rows, digest) = digest_lines(lines.iter().map(String::as_str));
                for (strategy, sess) in &mut others {
                    match sess.handle_line(&sql) {
                        Ok(r) => {
                            let got = digest_lines(r.lines.iter().map(String::as_str));
                            if got != (rows, digest) {
                                return Err(format!(
                                    "{name}/{}: {strategy} returns {} rows where naive nested \
                                     iteration returns {rows}, or other rows: {sql}",
                                    class.name, got.0
                                ));
                            }
                        }
                        // The rewrite does not apply to this query shape.
                        Err(Error::Rewrite(_)) => {}
                        Err(err) => {
                            return Err(format!("{name}/{}: {strategy}: {err}: {sql}", class.name))
                        }
                    }
                }
                let answer = Answer { rows, digest, class: class.name.to_string() };
                let key = sql_key(&sql);
                match expected.get(spec.scale, key) {
                    Some(old) if *old == answer => {}
                    Some(old) if !force => {
                        return Err(format!(
                            "{}: blessed answer of {} differs from the committed one \
                             ({} rows {:016x}, was {} rows {:016x}); pass --force to overwrite: {sql}",
                            path.display(),
                            class.name,
                            rows,
                            digest,
                            old.rows,
                            old.digest
                        ));
                    }
                    _ => {
                        changed.push(class.name);
                        expected.insert(spec.scale, key, answer);
                    }
                }
            }
        }
        if changed.is_empty() {
            println!("{name}: {} answers, all as committed", expected.len());
        } else {
            expected
                .save(&path, name)
                .map_err(|err| format!("{}: {err}", path.display()))?;
            println!(
                "{name}: {} answers, {} written to {}",
                expected.len(),
                changed.len(),
                path.display()
            );
        }
    }
    Ok(())
}
