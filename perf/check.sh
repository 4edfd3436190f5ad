#!/bin/sh
# A/A self-check: run the whole suite twice on the same code, seed and
# machine, then apply the benchmark's own bounds. Fails if any end-to-end
# (metric, workload) pair is not `ok`.
set -eu
cd "$(dirname "$0")/.."
seed="${1:-1}"
perf() {
    cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- "$@"
}
perf run --seed "$seed" --out perf/out/check-a.json
perf run --seed "$seed" --out perf/out/check-b.json
perf compare perf/out/check-a.json perf/out/check-b.json
