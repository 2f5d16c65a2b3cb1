#!/usr/bin/env bash
# Offline CI gate for the hermetic workspace.
#
# Everything runs with --offline: the workspace has no registry
# dependencies (see DESIGN.md, "Zero-dependency policy"), so a network
# or crates.io index must never be required. A step that tries to reach
# the network is itself a regression.
#
# Usage: examples/scripts/ci.sh   (from anywhere; cd's to the repo root)

set -euo pipefail

cd "$(dirname "$0")/../.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test --offline"
cargo test -q --workspace --offline

# The fused executor's differential suites must stay parallel-safe even
# on 1-core hosts, where cargo would otherwise run their tests one at a
# time.
echo "==> fused-executor suites with 8 test threads"
cargo test -q --offline -p bcag-spmd --test fuse_exec --test tune_dispatch \
    -- --test-threads=8

# The ledger is a workspace of its own, so the steps above never build
# it. Build and run every workload briefly so an API change it uses
# cannot break the benchmark unnoticed; gate only on its output checks,
# never on a figure.
echo "==> ledger smoke: every workload builds, runs and checks its outputs"
ledger_last="$(python3 ledger/run.py --workload all --seconds 1 | tail -n 1)"
python3 -c '
import json, sys
r = json.loads(sys.argv[1])
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit("ledger smoke: correct=%s failed=%s" % (r.get("correct"), r.get("failed")))
' "$ledger_last"

echo "==> bench smoke (--quick) for every target"
for bench in construction sorting_ablation gcd_effect codeshapes \
             tableless comm_schedule comm_throughput exec_latency \
             special_cases trace_overhead pack_throughput \
             transport_throughput traffic cache_contention fuse \
             locality_tuning; do
    echo "--> $bench"
    cargo bench -q --offline -p bcag-bench --bench "$bench" -- --quick \
        > /dev/null
    report="target/bcag-bench/$bench.json"
    [ -s "$report" ] || { echo "missing bench report: $report" >&2; exit 1; }
done
# The traffic report must carry the percentile + cache-hit-rate payload
# plus the serving SLO block, and its committed snapshot must exist at
# the repo root.
grep -q '"p99_ns"' target/bcag-bench/traffic.json \
    || { echo "traffic report lacks percentiles" >&2; exit 1; }
grep -q '"hit_rate"' target/bcag-bench/traffic.json \
    || { echo "traffic report lacks cache hit rate" >&2; exit 1; }
for slo_key in p99_ceiling_ns hit_rate_floor p99_within_slo hit_rate_within_slo; do
    grep -q "\"$slo_key\"" target/bcag-bench/traffic.json \
        || { echo "traffic report lacks SLO key $slo_key" >&2; exit 1; }
done
[ -s BENCH_traffic.json ] \
    || { echo "missing committed BENCH_traffic.json snapshot" >&2; exit 1; }

# Serving SLO gates bind on the committed full-profile snapshots (the
# quick smoke's sample counts are too small for a stable p99): traffic
# p99 under its committed ceiling + hit rate over its floor, and the
# sharded cache's contention win at or above the committed floor.
awk '
    /"p99_ns":/         { gsub(/[^0-9]/, "", $2); p99 = $2 }
    /"p99_ceiling_ns":/ { gsub(/[^0-9]/, "", $2); ceil = $2 }
    /"hit_rate":/       { gsub(/[^0-9.]/, "", $2); rate = $2 }
    /"hit_rate_floor":/ { gsub(/[^0-9.]/, "", $2); floor = $2 }
    END {
        if (p99 == "" || ceil == "" || rate == "" || floor == "")
            { print "BENCH_traffic.json missing SLO fields" > "/dev/stderr"; exit 1 }
        if (p99 + 0 > ceil + 0)
            { printf "traffic p99 %d ns exceeds SLO ceiling %d ns\n", p99, ceil > "/dev/stderr"; exit 1 }
        if (rate + 0 < floor + 0)
            { printf "traffic hit rate %s below SLO floor %s\n", rate, floor > "/dev/stderr"; exit 1 }
    }' BENCH_traffic.json
[ -s BENCH_cache.json ] \
    || { echo "missing committed BENCH_cache.json snapshot" >&2; exit 1; }
# The contention win is a multi-core property: with a single hardware
# thread the sharded cache's readers serialize anyway and the committed
# floor (measured on a multi-core box) cannot bind, so gate it only when
# this host can actually contend.
if [ "$(nproc)" -gt 1 ]; then
    awk '
        $1 == "\"speedup_at_32\":"     { gsub(/[^0-9.]/, "", $2); speedup = $2 }
        $1 == "\"min_speedup_at_32\":" { gsub(/[^0-9.]/, "", $2); floor = $2 }
        END {
            if (speedup == "" || floor == "")
                { print "BENCH_cache.json missing speedup fields" > "/dev/stderr"; exit 1 }
            if (speedup + 0 < floor + 0)
                { printf "cache speedup %sx below SLO floor %sx\n", speedup, floor > "/dev/stderr"; exit 1 }
        }' BENCH_cache.json
else
    echo "--> single hardware thread: skipping multi-core cache contention floor"
fi

# Fused-epoch SLO gates, on the fresh report the --quick smoke above
# just wrote (both are A/B ratios taken within that one run): the fused
# statement compiler must beat the interpreted path by its floor and stay
# within its ceiling of hand-coded BLAS-1. The committed full-profile
# snapshot records the trajectory only.
[ -s BENCH_fuse.json ] \
    || { echo "missing committed BENCH_fuse.json snapshot" >&2; exit 1; }
awk '
    $1 == "\"fused_over_interpreted\":"     { gsub(/[^0-9.]/, "", $2); speedup = $2 }
    $1 == "\"min_fused_over_interpreted\":" { gsub(/[^0-9.]/, "", $2); floor = $2 }
    $1 == "\"fused_vs_blas1\":"             { gsub(/[^0-9.]/, "", $2); vsblas = $2 }
    $1 == "\"max_fused_vs_blas1\":"         { gsub(/[^0-9.]/, "", $2); ceil = $2 }
    END {
        if (speedup == "" || floor == "" || vsblas == "" || ceil == "")
            { print "fuse report missing SLO fields" > "/dev/stderr"; exit 1 }
        if (speedup + 0 < floor + 0)
            { printf "fused speedup %sx below SLO floor %sx\n", speedup, floor > "/dev/stderr"; exit 1 }
        if (vsblas + 0 > ceil + 0)
            { printf "fused statement %sx of blas1 exceeds SLO ceiling %sx\n", vsblas, ceil > "/dev/stderr"; exit 1 }
    }' target/bcag-bench/fuse.json

# Self-tuning dispatch SLO gates on the committed full-profile snapshot:
# tuned dispatch must beat forced-Runs on the sparse low-utilization
# shape by its committed factor, and must stay within parity of the best
# forced mode on every cell (the decision lookup is the only allowed
# overhead). Both are single-threaded pack-loop properties and bind on
# any host.
[ -s BENCH_tune.json ] \
    || { echo "missing committed BENCH_tune.json snapshot" >&2; exit 1; }
awk '
    $1 == "\"tuned_over_runs_sparse\":"     { gsub(/[^0-9.]/, "", $2); sparse = $2 }
    $1 == "\"min_tuned_over_runs_sparse\":" { gsub(/[^0-9.]/, "", $2); sfloor = $2 }
    $1 == "\"parity_worst\":"               { gsub(/[^0-9.]/, "", $2); parity = $2 }
    $1 == "\"min_parity\":"                 { gsub(/[^0-9.]/, "", $2); pfloor = $2 }
    END {
        if (sparse == "" || sfloor == "" || parity == "" || pfloor == "")
            { print "BENCH_tune.json missing SLO fields" > "/dev/stderr"; exit 1 }
        if (sparse + 0 < sfloor + 0)
            { printf "tuned sparse speedup %sx below SLO floor %sx\n", sparse, sfloor > "/dev/stderr"; exit 1 }
        if (parity + 0 < pfloor + 0)
            { printf "tuned parity %sx below SLO floor %sx\n", parity, pfloor > "/dev/stderr"; exit 1 }
    }' BENCH_tune.json
# The blocked-epoch margin is host-class-dependent (PR 9-style nproc
# guard, inverted host class): the committed snapshot's A/B ran with the
# pool's two node threads time-sharing one hardware thread, where the
# win is a pure per-core L2-residency effect. With genuinely concurrent
# node threads the memory system is shared differently and the 1-core
# margin is not evidence either way, so bind the floor only on the host
# class the snapshot was measured on.
if [ "$(nproc)" -eq 1 ]; then
    awk '
        $1 == "\"blocked_over_unblocked\":"     { gsub(/[^0-9.]/, "", $2); blocked = $2 }
        $1 == "\"min_blocked_over_unblocked\":" { gsub(/[^0-9.]/, "", $2); bfloor = $2 }
        END {
            if (blocked == "" || bfloor == "")
                { print "BENCH_tune.json missing blocked SLO fields" > "/dev/stderr"; exit 1 }
            if (blocked + 0 < bfloor + 0)
                { printf "blocked epochs %sx below SLO floor %sx\n", blocked, bfloor > "/dev/stderr"; exit 1 }
        }' BENCH_tune.json
else
    echo "--> multi-thread host: skipping single-thread blocked-epoch floor"
fi

echo "==> trace smoke: bcag trace on examples/scripts/triad.hpf"
trace_out="target/ci-trace.json"
trace_chrome="target/ci-trace.chrome.json"
rm -f "$trace_out" "$trace_chrome"
target/release/bcag trace --file examples/scripts/triad.hpf \
    --trace "$trace_out" > /dev/null
[ -s "$trace_out" ] || { echo "missing trace summary: $trace_out" >&2; exit 1; }
[ -s "$trace_chrome" ] || { echo "missing chrome trace: $trace_chrome" >&2; exit 1; }
grep -q '"format": "bcag-trace/v2"' "$trace_out" \
    || { echo "summary is not bcag-trace/v2: $trace_out" >&2; exit 1; }
grep -q '"histograms"' "$trace_out" \
    || { echo "summary has no histograms section: $trace_out" >&2; exit 1; }
grep -q '"traceEvents"' "$trace_chrome" \
    || { echo "chrome file has no traceEvents: $trace_chrome" >&2; exit 1; }

echo "==> cache + pool smoke: bcag trace on examples/scripts/cache_loop.hpf"
cache_out="target/ci-cache.json"
cache_chrome="target/ci-cache.chrome.json"
rm -f "$cache_out" "$cache_chrome"
target/release/bcag trace --file examples/scripts/cache_loop.hpf \
    --trace "$cache_out" > /dev/null
grep -q '"schedule_cache_hits"' "$cache_out" \
    || { echo "no schedule_cache_hits in summary: $cache_out" >&2; exit 1; }
# The statement loop must run on the resident pool: dispatch spans in the
# chrome export, arena recycling in the counter totals.
grep -q '"pool.dispatch"' "$cache_chrome" \
    || { echo "no pool.dispatch spans in chrome trace: $cache_chrome" >&2; exit 1; }
grep -q '"pool_buffer_reuses"' "$cache_out" \
    || { echo "no pool_buffer_reuses in summary: $cache_out" >&2; exit 1; }
# Run coalescing must be active on the statement loop's data movement.
grep -q '"runs_coalesced"' "$cache_out" \
    || { echo "no runs_coalesced in summary: $cache_out" >&2; exit 1; }
# In-process statements default to the fused compiler (BCAG_FUSE=on):
# the loop must run as fused epochs without going dark in the trace.
grep -q '"fused_epochs"' "$cache_out" \
    || { echo "no fused_epochs in summary: $cache_out" >&2; exit 1; }
grep -q '"recv_wait_ns"' "$cache_out" \
    || { echo "fused trace lost recv_wait_ns: $cache_out" >&2; exit 1; }

echo "==> multi-process smoke: bcag spmd --procs 4 on cache_loop.hpf"
spmd_out="target/ci-spmd.json"
rm -f "$spmd_out" "target/ci-spmd.chrome.json"
got="$(target/release/bcag spmd --file examples/scripts/cache_loop.hpf \
    --procs 4 --trace "$spmd_out")"
want="$(target/release/bcag run --file examples/scripts/cache_loop.hpf)"
[ "$got" = "$want" ] \
    || { echo "spmd output diverges from in-process run" >&2; exit 1; }
grep -q '"node-3"' "$spmd_out" \
    || { echo "merged spmd trace lost per-node lanes: $spmd_out" >&2; exit 1; }
grep -q '"transport": "proc"' "$spmd_out" \
    || { echo "spmd trace missing transport tag: $spmd_out" >&2; exit 1; }
# Percentile telemetry must survive the per-node trace merge: the merged
# summary carries a histograms section with the node lanes' wait-time
# distributions.
grep -q '"histograms"' "$spmd_out" \
    || { echo "merged spmd trace lost histograms: $spmd_out" >&2; exit 1; }
grep -q '"recv_wait_ns"' "$spmd_out" \
    || { echo "merged spmd trace lost recv_wait_ns: $spmd_out" >&2; exit 1; }

echo "ci: OK"
