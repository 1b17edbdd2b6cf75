//! The repo's benchmark. See `README.md` beside this package.
//!
//! ```text
//! decorr-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--detail FILE]
//! decorr-benchmark run       [--seed N] [--seconds S] [--smoke]
//! decorr-benchmark calibrate [--sets N] [--seed N] [--seconds S]
//! decorr-benchmark bless     [--force]
//! ```
//!
//! The first form is one run of one workload and is what `BENCHMARK.json`
//! names; its last line of output is one JSON object
//! `{correct, attempted, failed, metrics}`.

mod audit;
mod bless;
mod digest;
mod report;
mod runner;
mod setup;
mod staged;
mod suite;
mod trace;
mod util;
mod workload;

use std::process::ExitCode;

use util::{obj, Json};

/// `--name value` pairs and bare `--flags` after the optional subcommand.
struct Cli {
    args: Vec<String>,
}

impl Cli {
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.args.iter().position(|a| a == name)?;
        self.args.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: bad value {v:?}")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }
}

fn single(cli: &Cli) -> Result<bool, String> {
    let args = runner::Args {
        workload: cli
            .value("--workload")
            .ok_or("--workload is required")?
            .to_string(),
        // Any whole number is a seed; a negative one wraps.
        seed: cli.parsed::<i128>("--seed")?.unwrap_or(42) as u64,
        seconds: cli
            .parsed("--seconds")?
            .unwrap_or(if cli.flag("--smoke") { 0.0 } else { 10.0 }),
        trace: match cli.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace: bad value {v:?}")),
        },
        smoke: cli.flag("--smoke"),
    };
    let out = runner::run(&args)?;
    for m in &out.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for why in &out.reasons {
        eprintln!("failed: {why}");
    }
    if let Some(path) = cli.value("--detail").map(std::path::Path::new) {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, out.detail.render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let metrics = out.metrics.iter().map(|m| {
        (
            m.name.clone(),
            obj([("value", Json::from(m.value)), ("unit", m.unit.into())]),
        )
    });
    println!(
        "{}",
        obj([
            ("correct", Json::from(out.correct)),
            ("attempted", out.attempted.into()),
            ("failed", out.failed.into()),
            ("metrics", Json::Obj(metrics.collect())),
        ])
        .render()
    );
    Ok(true)
}

fn dispatch(mut args: Vec<String>) -> Result<bool, String> {
    let sub = match args.first() {
        Some(a) if !a.starts_with("--") => args.remove(0),
        _ => String::new(),
    };
    let cli = Cli { args };
    let suite = || -> Result<suite::SuiteOpts, String> {
        Ok(suite::SuiteOpts {
            seed: cli.parsed("--seed")?.unwrap_or(42),
            seconds: cli.parsed("--seconds")?,
            smoke: cli.flag("--smoke"),
        })
    };
    match sub.as_str() {
        "" => single(&cli),
        "run" => suite::run(&suite()?),
        "calibrate" => suite::calibrate(&suite()?, cli.parsed("--sets")?.unwrap_or(5)),
        "bless" => bless::bless(cli.flag("--force")).map(|()| true),
        other => Err(format!(
            "unknown subcommand {other:?}; try run, calibrate or bless"
        )),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
