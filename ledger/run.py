#!/usr/bin/env python3
"""The bcag performance ledger: build, run, check and report.

One workload, as a benchmark driver calls it (the last stdout line is a
JSON object with `correct`, `attempted`, `failed` and `metrics`):

    python3 ledger/run.py --workload steady_triad --seed 1 --seconds 10 --trace 0

Every workload, every end-to-end metric with its unit:

    python3 ledger/run.py --workload all

Steadiness: repeat each workload over several seeds and compare each
end-to-end metric's quartile spread with its bound in BENCHMARK.json:

    python3 ledger/run.py --steadiness 5 [--workload cold_shapes]

With `--trace 1` a run reports the per-layer metrics instead, taken from
a traced phase, and states the tracing overhead. See ledger/README.md for
the workloads and every metric.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent
SPEC = ROOT / "BENCHMARK.json"
BIN_NAME = "bcag-ledger"

# Set-up is measured in this many processes per run; the median is reported.
SETUP_SAMPLES = 11
# Figures every report prints after BENCHMARK.json's metrics: the wall-clock
# view of the same run, and the failure ratio.
WALL_FIGURES = [("ops_per_s", "1/s"), ("elems_per_s", "1/s"), ("op_p50_us", "us"),
                ("op_tail_us", "us"), ("fail_ratio", "ratio"), ("setup_wall_s", "s")]
# Every child process gets at most this long; the whole run stays within
# the harness limit of 180 s.
CHILD_TIMEOUT_S = 150
# Variables that only steer the test suites, not the runtime.
TEST_ONLY_VARS = ("BCAG_PROPTEST_",)


def fail(msg, code=1):
    print(f"ledger: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC.name}: {e}")


def target_dir():
    """Cargo's target directory; a relative CARGO_TARGET_DIR is taken
    from the repository root, where the build runs."""
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Builds the ledger binary from source; returns its path."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(LEDGER / "Cargo.toml")]
    try:
        res = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if res.returncode != 0:
        fail(f"build failed:\n{res.stderr}")
    exe = target_dir() / "release" / BIN_NAME
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def knobs():
    """BCAG_* runtime variables in effect (A/B knobs and overrides)."""
    return {k: v for k, v in sorted(os.environ.items())
            if k.startswith("BCAG_") and not k.startswith(TEST_ONLY_VARS)}


def command_output(cmd):
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return res.stdout.strip() if res.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def host_block(child_host):
    """The host and configuration block of a report."""
    block = dict(child_host)
    block["rustc"] = command_output(["rustc", "--version"])
    block["commit"] = (command_output(["git", "rev-parse", "HEAD"])
                       if (ROOT / ".git").exists() else "unknown")
    block["machine"] = platform.machine()
    return block


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def steal_share(before, after):
    """Share of the host's CPU time the hypervisor took between two
    cpu_ticks() readings (None when unknown)."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def run_child(exe, workload, seed, seconds, trace=False, setup_only=False):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    if res.returncode != 0:
        fail(f"{workload} exited with {res.returncode}:\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result")
    return json.loads(lines[-1])


def measure(exe, spec, workload, seed, seconds, trace):
    """Runs one workload in its own processes; returns the contract result
    plus the full child report."""
    ticks = cpu_ticks()
    if trace:
        out = run_child(exe, workload, seed, seconds, trace=True)
        wanted = spec["per_layer"]
        source = out["layers"]
        values = {m["name"]: source[m["name"]]["value"] for m in wanted}
        setups = [out]
    else:
        # Set-up is repeated in fresh processes (nothing warm carries
        # over) and reported as the median with the main run's own.
        setups = [run_child(exe, workload, seed, seconds, setup_only=True)
                  for _ in range(SETUP_SAMPLES - 1)]
        out = run_child(exe, workload, seed, seconds)
        setups.append(out)
        wanted = spec["end_to_end"]
        values = dict(out["e2e"])
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        values["setup_wall_s"] = statistics.median(s["setup_wall_s"] for s in setups)
        values["peak_rss_mib"] = out["peak_rss_mib"]
        out["wall"] = {name: {"value": values[name], "unit": unit} for name, unit in WALL_FIGURES}
    out["steal_share"] = steal_share(ticks, cpu_ticks())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    # Every process's operations count, the set-up processes' warm-up too.
    failed = sum(s["failed"] for s in setups)
    result = {
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in setups),
        "failed": failed,
        "metrics": metrics,
    }
    return result, out, [s["setup_s"] for s in setups]


def print_report(workload, result, out, setup, host):
    e2e = out.get("e2e", {})
    print(f"== {workload} (seed {out['seed']})")
    if "layers" not in out:
        print(f"   setup_s samples (CPU): {', '.join(f'{s:.4f}' for s in setup)}")
    if e2e:
        print(f"   op_tail_us is p{e2e['tail_pct']:g} over {e2e['samples']} samples; "
              f"{result['failed']} of {result['attempted']} operations failed "
              f"({out['panicked']} panicked); {e2e['windows']} throughput windows, "
              f"window spread {e2e['window_spread']:.3f}")
    for name, m in result["metrics"].items():
        print(f"   {name:<28} {m['value']:>18.4f} {m['unit']}")
    if out.get("wall"):
        print("   wall clock and failures:")
    for name, m in out.get("wall", {}).items():
        print(f"   {name:<28} {m['value']:>18.4f} {m['unit']}")
    if "layers" in out:
        traced = out["traced_e2e"]
        print(f"   traced phase: {traced['cpu_us_per_op']:.1f} CPU us/op and "
              f"{traced['ops_per_s']:.2f} ops/s against {e2e['cpu_us_per_op']:.1f} and "
              f"{e2e['ops_per_s']:.2f} untraced "
              f"(overhead ratio {out['layers']['trace.overhead_ratio']['value']:.3f})")
        shown = set(result["metrics"])
        rest = {k: v for k, v in out["layers"].items() if k not in shown}
        if rest:
            print("   further layer figures:")
            for name, m in rest.items():
                print(f"   {name:<28} {m['value']:>18.4f} {m['unit']}")
    if out["steal_share"] is not None:
        print(f"   hypervisor steal during the run: {100 * out['steal_share']:.1f}% of CPU time")
    print(f"   host: {json.dumps(host, sort_keys=True)}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(exe, spec, workloads, runs, seconds):
    """Repeats each workload `runs` times with seeds 1..runs and reports
    each end-to-end metric's median, quartiles and spread against its
    bound. Returns False when any spread exceeds its bound."""
    steady = True
    summary = {}
    for w in workloads:
        samples = {m["name"]: [] for m in spec["end_to_end"]}
        failed = 0
        for seed in range(1, runs + 1):
            result, out, _ = measure(exe, spec, w, seed, seconds, trace=False)
            failed += result["failed"]
            for name, m in result["metrics"].items():
                samples[name].append(m["value"])
            steal = out["steal_share"]
            print(f"   {w} seed {seed}: "
                  + ", ".join(f"{n} {m['value']:.4g}" for n, m in result["metrics"].items())
                  + f", ops_per_s {out['e2e']['ops_per_s']:.4g} (wall)"
                  + ("" if steal is None else f", steal {100 * steal:.1f}%"), flush=True)
        print(f"== {w}: {runs} runs, {failed} failed operations", flush=True)
        summary[w] = {}
        for m in spec["end_to_end"]:
            q1, q2, q3 = quartiles(samples[m["name"]])
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag = "  EXCEEDS BOUND"
                steady = False
            elif spread > m["bound"] / 3:
                flag = "  above bound/3"
            print(f"   {m['name']:<14} median {q2:>16.4f} {m['unit']:<5} q1 {q1:>16.4f} "
                  f"q3 {q3:>16.4f} spread {spread:7.4f} bound {m['bound']}{flag}")
            summary[w][m["name"]] = {"median": q2, "q1": q1, "q3": q3, "spread": spread}
    print(json.dumps({"steady": steady, "workloads": summary}))
    return steady


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", type=int, metavar="RUNS",
                    help="repeat each workload over RUNS seeds and check spreads")
    args = ap.parse_args()

    set_knobs = knobs()
    if set_knobs:
        fail(f"refusing to write a result with A/B knobs set: {set_knobs}", code=3)
    workloads = names if args.workload == "all" else [args.workload]
    exe = build()
    if args.steadiness:
        ok = steadiness(exe, spec, workloads, args.steadiness, args.seconds)
        sys.exit(0 if ok else 4)

    results = {}
    for w in workloads:
        t0 = time.monotonic()
        result, out, setup = measure(exe, spec, w, args.seed, args.seconds, args.trace == 1)
        host = host_block(out["host"])
        print_report(w, result, out, setup, host)
        print(f"   wall {time.monotonic() - t0:.1f} s")
        results[w] = result
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))


if __name__ == "__main__":
    main()
