//! Runs the CI-sized suite (`run --smoke`) and holds the record it writes
//! against `BENCHMARK.json`: same workloads, same metric names, nothing
//! failed.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

#[path = "../src/util.rs"]
#[allow(dead_code)]
mod util;
use util::Json;

fn names(list: Option<&Json>) -> BTreeSet<String> {
    list.map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|x| Some(x.get("name")?.str()?.to_string()))
        .collect()
}

fn keys(obj: Option<&Json>) -> BTreeSet<String> {
    obj.map(Json::fields)
        .unwrap_or_default()
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn read(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn smoke_record_has_exactly_the_contracted_names() {
    let home = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_decorr-benchmark"))
        .args(["run", "--smoke", "--seed", "7"])
        .env("DECORR_BENCHMARK_DIR", home)
        .output()
        .expect("spawn decorr-benchmark");
    assert!(
        out.status.success(),
        "run --smoke failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let contract = read(&home.join("../BENCHMARK.json"));
    let record = read(&home.join("out/record.json"));
    assert_eq!(
        record.get("schema").and_then(Json::str),
        Some("decorr-benchmark/1")
    );
    assert_eq!(record.get("seed").and_then(Json::num), Some(7.0));

    let workloads = record.get("workloads");
    assert_eq!(keys(workloads), names(contract.get("workloads")));
    let mut end_to_end = names(contract.get("end_to_end"));
    // Reported by the suite from `failed` / `attempted`; it is 0 on a
    // healthy run, which the contract's end-to-end metrics may never be.
    end_to_end.insert("failed_share".into());
    let per_layer = names(contract.get("per_layer"));
    for (name, w) in workloads.map(Json::fields).unwrap_or_default() {
        assert_eq!(
            keys(w.get("end_to_end")),
            end_to_end,
            "{name}: end-to-end metrics"
        );
        assert_eq!(
            keys(w.get("layers")),
            per_layer,
            "{name}: per-layer metrics"
        );
        let failed = w
            .get("end_to_end")
            .and_then(|m| m.get("failed_share"))
            .and_then(|m| m.get("value"))
            .and_then(Json::num);
        assert_eq!(failed, Some(0.0), "{name}: failed_share");
        for row in w.get("rows").map(Json::arr).unwrap_or_default() {
            for field in ["class", "n", "p50_ms", "p90_ms"] {
                assert!(row.get(field).is_some(), "{name}: row without {field}");
            }
        }
    }
}
