#!/usr/bin/env bash
# Pair protocol for a performance claim: runs two builds of the suite
# against each other, one process per workload and run, alternating
# which side goes first, then prints each side's median and quartiles
# per workload and metric and flags any end-to-end metric that got
# worse by more than its BENCHMARK.json bound.
#
#   xbench/compare.sh PARENT_BIN CHANGE_BIN [PAIRS]
#
# PARENT_BIN and CHANGE_BIN are `suite` executables built from the two
# commits (see xbench/README.md). Pair k runs both sides on seed k.
# Run from the repository root. Environment: WORKLOADS (space-separated
# subset), OUT (results directory, default target/xbench/compare).
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN [PAIRS=10]" >&2
    exit 2
fi
parent=$1
change=$2
pairs=${3:-10}
workloads=${WORKLOADS:-layer_simd4 layer_vector4 layer_cluster8 net_mobilenet serve_clean serve_chaos}
out=${OUT:-target/xbench/compare}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
if [ -z "$seconds" ]; then
    echo "error: no run_seconds in BENCHMARK.json (run from the repository root)" >&2
    exit 2
fi

mkdir -p "$out"
results="$out/results.jsonl"
: > "$results"

run() { # side bin workload seed
    local last
    last=$("$2" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 --out "$out/runs" | tail -n 1)
    printf '{"side": "%s", "workload": "%s", "result": %s}\n' "$1" "$3" "$last" >> "$results"
}

for k in $(seq 1 "$pairs"); do
    for w in $workloads; do
        echo "pair $k/$pairs $w" >&2
        if [ $((k % 2)) -eq 1 ]; then
            run parent "$parent" "$w" "$k"
            run change "$change" "$w" "$k"
        else
            run change "$change" "$w" "$k"
            run parent "$parent" "$w" "$k"
        fi
    done
done

"$change" --compare "$results" --bench BENCHMARK.json
