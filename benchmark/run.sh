#!/usr/bin/env bash
# Build once, run every workload in its own process, then the traced run.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--scale full|smoke]
#                    [--out DIR] [--tag T]
#   benchmark/run.sh compare <dirA> <dirB>
#
# Prints one line per metric (`workload metric value unit n min max`) and
# writes <out>/<workload>[.<tag>].json per workload, plus <out>/layers.json
# and <out>/trace.json from the traced run. `compare` applies the bounds
# of BENCHMARK.json to two result directories and prints one row per
# (metric, workload): ok | worse | unresolved; it exits 1 on any `worse`.
#
# A/B two checkouts (see README.md): build both, then alternate
#   A/benchmark/run.sh --out results/A --tag $i
#   B/benchmark/run.sh --out results/B --tag $i
# for i = 1..10, and `run.sh compare results/A results/B`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/benchmark"

if [[ "${1:-}" == "compare" ]]; then
    [[ $# -eq 3 ]] || { echo "usage: run.sh compare <dirA> <dirB>" >&2; exit 2; }
    exec "$bin" compare "$2" "$3" --benchmark-json "$root/BENCHMARK.json"
fi

seed=7 seconds=12 scale=full out="$here/out" tag=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --scale) scale="$2" ;;
        --out) out="$2" ;;
        --tag) tag=(--tag "$2") ;;
        *) echo "unknown option $1" >&2; exit 2 ;;
    esac
    shift 2
done

# The metric lines only; the JSON result line is for the driver, and the
# same numbers are in the files under $out.
status=0
for workload in sim_steady sim_skew_fail regen_probe live_flood live_kill; do
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        --scale "$scale" --out "$out" "${tag[@]}" | grep -v '^{' || status=1
done
"$bin" --workload sim_steady --seed "$seed" --trace 1 --scale "$scale" --out "$out" \
    | sed 's/^sim_steady /layers /' | grep -v '^{' || status=1
exit $status
