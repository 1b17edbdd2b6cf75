#!/usr/bin/env bash
# Build the benchmark offline, then run it.
#
#   benchmark/run.sh                      every workload, seed 42 (`run`)
#   benchmark/run.sh run --smoke          the CI-sized suite
#   benchmark/run.sh calibrate --sets 5   noise table against BENCHMARK.json
#   benchmark/run.sh bless [--force]      rewrite expected/*.digest
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run of one workload, as the
#                                         gating pipeline calls it
#
# Builds into $CARGO_TARGET_DIR when set, else into the repo's shared
# target/ next to this directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
if [ "$#" -eq 0 ]; then
    set -- run --seed 42
fi
DECORR_BENCHMARK_DIR="$here" exec "$CARGO_TARGET_DIR/release/decorr-benchmark" "$@"
