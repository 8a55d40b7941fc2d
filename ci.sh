#!/usr/bin/env sh
# CI gate: formatting, lints, and the tier-1 build+test suite, all
# against the committed Cargo.lock (--locked) so an offline or
# registry-less environment builds exactly what was committed.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --locked -- -D warnings

# The benchmark crate is a workspace of its own, so neither command
# above reaches it.
echo "==> xbench: cargo fmt --check, cargo clippy (-D warnings)"
cargo fmt --manifest-path xbench/Cargo.toml -- --check
cargo clippy --manifest-path xbench/Cargo.toml --all-targets --locked -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release --locked

echo "==> tier-1: cargo test -q"
cargo test -q --locked

# The text parser reports a malformed line as a line-numbered error
# (exit 1). Exit 101 would mean it panicked instead.
echo "==> xpulpnn dis on a bare lp.count (line-numbered error, exit 1)"
bare_lp=$(mktemp)
printf 'lp.count\n' > "$bare_lp"
set +e
bare_out=$(cargo run --release -q --locked -p xpulpnn-cli -- dis "$bare_lp" 2>&1)
bare_rc=$?
set -e
rm -f "$bare_lp"
if [ "$bare_rc" -ne 1 ] || ! echo "$bare_out" | grep -E "line [0-9]+:" > /dev/null; then
    echo "xpulpnn dis on a bare lp.count exited $bare_rc (want 1 and a line number):"
    echo "$bare_out"
    exit 1
fi

# Static verification gate: every shipped kernel program (8 conv
# variants + the 5 vector-backend conv variants +
# depthwise/pool/relu/linear testbench kernels) plus the
# eight 8-hart parallel cluster kernels must lint clean against the
# tensor regions its layout declares.
echo "==> xpulpnn lint (all shipped kernels, zero diagnostics)"
lint_out=$(cargo run --release -q --locked -p xpulpnn-cli -- lint)
echo "$lint_out" | grep -F "28 kernels lint-clean" > /dev/null || {
    echo "shipped kernels no longer lint clean:"
    echo "$lint_out"
    exit 1
}

# SPMD race verification gate: the same 28 kernels must be *proved*
# data-race-free on 8 harts — per-hart abstract execution shows every
# barrier region write-disjoint, reads unsynced with no peer write,
# DMA bands clear of compute footprints, and the dispatch slab
# respected (DRF-01..05).
echo "==> xpulpnn lint --races (all shipped kernels, 8 harts, race-free proof)"
races_out=$(cargo run --release -q --locked -p xpulpnn-cli -- lint --races --cores 8)
echo "$races_out" | grep -F "28 kernels race-clean" > /dev/null || {
    echo "shipped kernels are no longer provably race-free:"
    echo "$races_out"
    exit 1
}

# Static/dynamic race-detector cross-validation: every cluster variant
# on 1/2/4/8 harts must be clean under both the static verifier and
# the merge's dynamic conflict detector, and injected races (tampered
# dispatch table, missing barrier, overlapping DMA band) must be
# caught by both at overlapping address ranges.
echo "==> conformance races cross-validation (8 variants x 1/2/4/8 harts + 3 injected)"
races_xv=$(cargo run --release -q --locked -p xpulpnn-cli -- conformance --races --seed 42)
echo "$races_xv" | grep -F "32/32 clean configs agree" > /dev/null || {
    echo "race-detector cross-validation disagreed:"
    echo "$races_xv"
    exit 1
}
echo "$races_xv" | grep -F "3/3 injected races caught by both detectors" > /dev/null || {
    echo "an injected race escaped a detector:"
    echo "$races_xv"
    exit 1
}

# Lint-vs-execution cross-validation: lint-clean generated programs
# must run trap-free, and dynamic uninit-read oracle hits must be
# caught by the strict static profile.
echo "==> conformance cross-validation smoke (200 cases, seed 1)"
cargo run --release -q --locked -p xpulpnn-cli -- conformance --crossval --cases 200 --seed 1

echo "==> conformance smoke (1000 cases, seed 1)"
cargo run --release -q --locked -p xpulpnn-cli -- conformance --cases 1000 --seed 1

# Vector-mode conformance: generated programs mixing Xrvv vector
# instructions into the scalar/SIMD stream, the DUT's vector unit
# lock-stepped against the reference interpreter's independent vector
# semantics (vl, SEW and all 32 vector registers compared per step).
echo "==> conformance vector lockstep (300 cases, seed 1)"
cargo run --release -q --locked -p xpulpnn-cli -- conformance --vector --cases 300 --seed 1
# A second, longer seed: it is the one that reaches a vdot whose
# sources hold stale bits past a vl that ends mid-word.
echo "==> conformance vector lockstep (3000 cases, seed 7)"
cargo run --release -q --locked -p xpulpnn-cli -- conformance --vector --cases 3000 --seed 7

# Fast-path lockstep oracle: the decoded-block engine against the
# interpreter over the fuzzer corpus, per-step state + perf compared,
# plus a whole-program batched replay per case under an exact cycle
# budget (any cycle drift trips the watchdog).
echo "==> conformance fast-path lockstep (500 cases, seed 1)"
cargo run --release -q --locked -p xpulpnn-cli -- conformance --fastpath --cases 500 --seed 1

# Pinned simulated-cycle counts must hold with the fast path enabled:
# the Fig. 8 layer (1,440,804 cycles / 1,337,750 instret) and the
# 8-variant golden matrix, bit-exact interpreter-vs-fast-path.
echo "==> fast-path pinned cycles + bit-exactness (release)"
cargo test --release -q --locked -p pulp-kernels fastpath

# The campaign is a pure function of its seed; the exact totals line is
# asserted so any drift in kernel schedules, core timing, or the RNG
# shows up here instead of silently changing fault behaviour.
echo "==> fault-campaign smoke (8 variants x 2 trials, seed 1)"
faults_out=$(cargo run --release -q --locked -p xpulpnn-cli -- faults --seed 1 --trials 2)
echo "$faults_out" | grep -F "totals: detected=0 masked=13 sdc=3" > /dev/null || {
    echo "fault campaign totals drifted:"
    echo "$faults_out"
    exit 1
}

# Cluster acceptance: the full kernel matrix stays bit-exact on every
# cluster size, simulated cycles are invariant under host scheduling,
# the merge's dynamic conflict counters stay pinned at zero on every
# variant and cluster size, and the single-hart cluster stays pinned
# to the Fig. 8 measurement.
# (These run in the tier-1 suite too; re-running the release binary
# here keeps the gate meaningful if the default test profile changes.)
echo "==> cluster equivalence + determinism (release)"
cargo test --release -q --locked -p pulp-cluster --test cluster

# 8-core AVF smoke: the cluster campaign is seed-deterministic like the
# single-core one; the exact totals line is asserted, so a change to
# cluster staging that moves a fault target shows up here.
echo "==> cluster fault-campaign smoke (8 harts, 8 variants x 1 trial, seed 1)"
cfaults_out=$(cargo run --release -q --locked -p xpulpnn-cli -- faults --cluster --cores 8 --seed 1 --trials 1)
echo "$cfaults_out" | grep -F "cluster totals: detected=0 masked=7 sdc=1" > /dev/null || {
    echo "cluster fault campaign totals drifted:"
    echo "$cfaults_out"
    exit 1
}

# Benchmark artifacts: one BENCH_<label>.json per configuration, with
# the stall/conflict breakdown and per-core utilization inside. The
# vector record is the three-way comparison's data point
# (EXPERIMENTS.md): the Fig. 8 4-bit layer on the Xrvv backend.
echo "==> bench artifacts (BENCH_single_core.json, BENCH_cluster8.json, BENCH_vector.json)"
cargo run --release -q --locked -p xpulpnn-cli -- bench --json --out .
for f in BENCH_single_core.json BENCH_cluster8.json BENCH_vector.json; do
    [ -s "$f" ] || { echo "missing bench artifact $f"; exit 1; }
    grep -F '"macs_per_cycle"' "$f" > /dev/null || {
        echo "bench artifact $f lacks macs_per_cycle:"
        cat "$f"
        exit 1
    }
done

# Host-throughput artifact: simulated cycles per wall-clock second,
# interpreted vs. fast path, on the Fig. 8 4-bit layer. The floor is
# deliberately modest (>= 2x) — CI machines are noisy and the point of
# the gate is "the fast path is on and substantially faster", not a
# micro-benchmark; EXPERIMENTS.md records the measured ratio.
echo "==> bench artifact (BENCH_host_throughput.json)"
cargo run --release -q --locked -p xpulpnn-cli -- bench --host --out .
[ -s BENCH_host_throughput.json ] || { echo "missing BENCH_host_throughput.json"; exit 1; }
awk -F'[:,]' '/"speedup"/ { if ($2 + 0 >= 2.0) exit 0; else exit 1 }' BENCH_host_throughput.json || {
    echo "fast path speedup below 2x floor:"
    cat BENCH_host_throughput.json
    exit 1
}

# Serving-layer smoke: a seeded 200-request loadgen campaign through
# the snapshot-forked worker pool. The response count is exact, the
# scheduling-independent digest must match between a 4-worker and a
# single-worker run of the same trace (the determinism contract), and
# the BENCH_serving.json artifact must carry sane p50 <= p99 latency.
echo "==> loadgen smoke (200 requests, seed 1, 4 workers vs 1 worker)"
lg4_out=$(cargo run --release -q --locked -p xpulpnn-cli -- loadgen --seed 1 --requests 200 --workers 4 --out .)
echo "$lg4_out" | grep -F "responses : 200 (200 ok, 0 masked, 0 recovered, 0 degraded)" > /dev/null || {
    echo "loadgen lost or degraded requests:"
    echo "$lg4_out"
    exit 1
}
lg1_out=$(cargo run --release -q --locked -p xpulpnn-cli -- loadgen --seed 1 --requests 200 --workers 1 --out .)
digest4=$(echo "$lg4_out" | awk '/^digest/ { print $3 }')
digest1=$(echo "$lg1_out" | awk '/^digest/ { print $3 }')
[ -n "$digest4" ] && [ "$digest4" = "$digest1" ] || {
    echo "loadgen digest differs across worker counts: 4w=$digest4 1w=$digest1"
    exit 1
}
[ -s BENCH_serving.json ] || { echo "missing BENCH_serving.json"; exit 1; }
awk -F'[:,]' '
    /"sim_cycles_p50"/ { p50 = $2 + 0 }
    /"sim_cycles_p99"/ { p99 = $2 + 0 }
    END { if (p50 > 0 && p99 >= p50) exit 0; else exit 1 }
' BENCH_serving.json || {
    echo "BENCH_serving.json latency percentiles are not sane (want 0 < p50 <= p99):"
    cat BENCH_serving.json
    exit 1
}

# Resilience soak smoke: the seeded five-phase campaign (overload →
# fault storm → hang injection → template corruption → recovery)
# through the supervisor. The resilience counters are a pure function
# of (seed, scale) — the exact summary lines are asserted so any drift
# in shedding, breaker, reap or quarantine behaviour trips CI — and
# the scheduling-independent digest must match between a 4-worker and
# a single-worker run. The subcommand itself exits nonzero on a lost
# request or a breaker left open.
echo "==> soak smoke (seed 1, 4 workers vs 1 worker)"
soak4_out=$(cargo run --release -q --locked -p xpulpnn-cli -- soak --seed 1 --workers 4 --out .)
for line in \
    "responses : 128 (128 requests, zero lost, every outcome typed)" \
    "shed      : 8 queue-full, 13 deadline-pressure" \
    "deadlines : 16 retried, 0 timed out" \
    "breakers  : 2 trip(s), 2 re-close(s), 12 golden fallback(s)" \
    "workers   : 1 reap(s), 2 template quarantine(s)"
do
    echo "$soak4_out" | grep -F "$line" > /dev/null || {
        echo "soak counters drifted; wanted: $line"
        echo "$soak4_out"
        exit 1
    }
done
soak1_out=$(cargo run --release -q --locked -p xpulpnn-cli -- soak --seed 1 --workers 1 --out .)
sdigest4=$(echo "$soak4_out" | awk '/^digest/ { print $3 }')
sdigest1=$(echo "$soak1_out" | awk '/^digest/ { print $3 }')
[ -n "$sdigest4" ] && [ "$sdigest4" = "$sdigest1" ] || {
    echo "soak digest differs across worker counts: 4w=$sdigest4 1w=$sdigest1"
    exit 1
}
[ -s BENCH_soak.json ] || { echo "missing BENCH_soak.json"; exit 1; }
grep -F '"breakers_closed": true' BENCH_soak.json > /dev/null || {
    echo "BENCH_soak.json ended with an open breaker:"
    cat BENCH_soak.json
    exit 1
}

# Benchmark pins: the xbench suite (its own workspace, built against
# the workspace crates' public API) runs every workload briefly and
# checks the exact counters in xbench/pins.json — 1,440,804 / 1,387,556
# / 190,138 cycles, 740,148 on net_mobilenet, loadgen digest
# 82bb53c17b27c9db — so drift in any pinned value, or a broken public
# path the suite imports, fails here.
echo "==> xbench pins (six workloads, exact counters)"
cargo test --release --locked --manifest-path xbench/Cargo.toml

echo "==> ci: all green"
