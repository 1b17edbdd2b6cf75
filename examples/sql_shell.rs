//! An interactive SQL shell over the decorrelation engine.
//!
//! ```text
//! cargo run --release --example sql_shell
//! cargo run --release --example sql_shell -- --data-dir ./decorr-data
//! echo "SELECT COUNT(*) FROM parts" | cargo run --release --example sql_shell
//! ```
//!
//! Commands (besides plain SQL, executed with the cost-based plan chooser):
//!
//! ```text
//! \load tpcd [scale]     load the TPC-D benchmark database
//! \load empdept          load the Section 2 EMP/DEPT example
//! \tables                list tables
//! \strategy <s>          auto | ni | kim | dayal | ganski | magic | optmag
//! \explain <sql>         show the (rewritten) query graph instead of rows
//! \set <knob> <value>    threads | columnar | timeout_ticks | wall_ms | max_rows
//! \session  \stats       session / service introspection
//! \pool  \checkpoint     buffer pool counters / manifest + WAL checkpoint
//! \quit
//! ```
//!
//! SQL-level statements beyond queries:
//!
//! ```text
//! ANALYZE;               collect table statistics and print them
//! EXPLAIN COST <query>;  race the sound strategies, show the ranked
//!                        estimates and the per-box est-vs-actual q-error
//! ```
//!
//! With `--data-dir <dir>` the catalog is durable: `\load`, `\drop` and
//! `ANALYZE` are committed (segments + WAL, fsynced) before they are
//! acknowledged, and restarting the shell on the same directory recovers
//! exactly the last acknowledged epoch. `--pool-bytes <n>` bounds the
//! decoded-page cache. Without a data dir the shell runs ephemerally and
//! says so up front.
//!
//! The shell is a thin stdin/stdout driver over the same session layer the
//! `decorr-server` TCP service uses (`decorr_server::Session` +
//! `run_repl`), so `\strategy`, `\set` and per-query cancellation behave
//! identically in both. Unlike the historical shell, a stdin read *error*
//! is reported and exits nonzero — only a genuine EOF exits cleanly.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use decorr::prelude::Result;
use decorr_server::{run_repl, AdmissionControl, Quotas, Session, SessionSettings, SharedCatalog};
use decorr_storage::StoreOptions;
use decorr_tpcd::{generate, TpcdConfig};

struct Args {
    data_dir: Option<PathBuf>,
    pool_bytes: Option<usize>,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args { data_dir: None, pool_bytes: None };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--data-dir" => {
                let v = it.next().ok_or("--data-dir needs a path")?;
                args.data_dir = Some(PathBuf::from(v));
            }
            "--pool-bytes" => {
                let v = it.next().ok_or("--pool-bytes needs a number")?;
                args.pool_bytes = Some(v.parse().map_err(|_| format!("bad --pool-bytes {v:?}"))?);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> Result<()> {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: sql_shell [--data-dir <dir>] [--pool-bytes <n>]");
            std::process::exit(2);
        }
    };
    // Durable shells seed from a fresh directory only; paged tables carry
    // no secondary indexes, so skip building them when they'd be dropped.
    let with_indexes = args.data_dir.is_none();
    let db = generate(&TpcdConfig { scale: 0.02, seed: 42, with_indexes })?;
    let catalog = match &args.data_dir {
        Some(dir) => {
            let mut opts = StoreOptions::default();
            if let Some(bytes) = args.pool_bytes {
                opts.pool_bytes = bytes;
            }
            Arc::new(SharedCatalog::open_durable(dir, opts, db)?)
        }
        None => Arc::new(SharedCatalog::new(db)),
    };
    let admission = Arc::new(AdmissionControl::new(Quotas::default()));
    // Match the historical shell: truncate displays at 20 rows.
    let settings = SessionSettings { max_display_rows: Some(20), ..Default::default() };

    match &args.data_dir {
        Some(dir) => println!(
            "decorr SQL shell — durable catalog at {} (epoch {}); \\load, \\tables, \\pool, \\checkpoint, \\quit",
            dir.display(),
            catalog.epoch()
        ),
        None => println!(
            "decorr SQL shell — EPHEMERAL: catalog lives in memory only, nothing survives exit \
             (pass --data-dir <dir> for durability); \\load, \\tables, \\strategy, \\explain, \\quit"
        ),
    }
    let mut session = Session::new(0, catalog, admission, settings);
    let prompt = if std::env::var("DECORR_NO_PROMPT").is_err() {
        Some("decorr> ")
    } else {
        None
    };
    run_repl(&mut session, io::stdin().lock(), io::stdout(), prompt)
}
