#!/usr/bin/env python3
"""Wall-clock serving benchmark runner.

Builds servebench/ (Release, into .bench_build/ at the repository root)
when needed, clears inherited CORTEX_* variables, runs bench_e2e once per
workload, and prints every metric by name with its unit. The last line of
standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

An untraced run reports the end-to-end metrics named in BENCHMARK.json
(setup_s is the median of fresh --setup-only processes); --trace 1
reports the per-layer metrics instead and writes a Chrome trace-event
file. Each run also leaves a full record (metrics, diagnostics such as
the ungated p99 and CPU time, and the effective configuration) in --out,
which compare.py reads. The exit code is nonzero when any output differs
from the oracle (the result then reads "correct": false), when an
untraced p99 has fewer than ten samples beyond it, or when the metric
names differ from BENCHMARK.json.

  python3 servebench/run.py --seed 1                  # all workloads
  python3 servebench/run.py --workload dagrnn-batch --seed 3 --seconds 25
  python3 servebench/run.py --seed 1 --trace          # + per-layer metrics
  CORTEX_BENCH_SMOKE=1 python3 servebench/run.py      # shrunken, ~1 s each
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["seqlstm-single", "seqlstm-saturate", "treelstm-poisson",
             "dagrnn-batch"]
SETUP_RUNS = 11
# Busy time on every core before the cold starts are timed. After a few
# seconds idle the host runs a cold start 2-3x slower, and it takes 1-3 s
# of busy cores to get back to speed (README, "Host noise").
WARM_CORES_S = 2.0
# Ten samples beyond the reported p99 (nearest rank) at least.
MIN_BEYOND_P99 = 10
PROCESS_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("run.py: " + msg)
    sys.exit(code)


def build():
    """Configures and builds bench_e2e; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the cortex sources (src/) are not next to servebench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "bench_e2e")


def expected_metrics():
    """{trace: [metric names]} from BENCHMARK.json, or None without it."""
    if not os.path.isfile(BENCHMARK):
        return None
    with open(BENCHMARK) as f:
        spec = json.load(f)
    return {0: sorted(m["name"] for m in spec["end_to_end"]),
            1: sorted(m["name"] for m in spec["per_layer"])}


def git_sha():
    # Outside a git checkout, git would search the directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_bench(binary, args, env):
    """Runs bench_e2e and returns its last stdout line as JSON.

    Each process gets an empty JIT cache directory inside the build tree,
    so a cold start stays cold and nothing is written outside it."""
    jit_dir = tempfile.mkdtemp(prefix="jit-", dir=BUILD)
    try:
        proc = subprocess.run([binary] + args,
                              env=dict(env, CORTEX_JIT_CACHE_DIR=jit_dir),
                              stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bench_e2e %s timed out" % " ".join(args), 1)
    finally:
        shutil.rmtree(jit_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("bench_e2e %s printed no result (exit %d)"
             % (" ".join(args), proc.returncode), 1)
    result = json.loads(lines[-1])
    if proc.returncode != 0 and result.get("correct", True):
        fail("bench_e2e %s exited %d" % (" ".join(args), proc.returncode), 1)
    return result


def warm_cores(seconds):
    """Keeps every core busy for `seconds`, one spinning process each."""
    spin = ("import time\nt = time.monotonic() + %r\n"
            "while time.monotonic() < t: pass\n" % seconds)
    procs = [subprocess.Popen([sys.executable, "-c", spin])
             for _ in range(os.cpu_count() or 1)]
    for p in procs:
        p.wait()


def setup_seconds(binary, base, env):
    """Cold starts of fresh processes, in seconds, on cores brought to
    speed first."""
    warm_cores(WARM_CORES_S)
    return [run_bench(binary, base + ["--setup-only"], env)["setup_s"]
            for _ in range(SETUP_RUNS)]


def run_workload(binary, workload, opts, env, cleared):
    """One bench_e2e run (plus setup processes when untraced) -> record."""
    base = ["--workload", workload, "--seed", str(opts.seed)]
    if opts.smoke:
        base.append("--smoke")
    args = base + ["--seconds", repr(opts.seconds)]
    trace_path = None
    if opts.trace:
        trace_path = os.path.join(opts.out, "trace-%s.json" % workload)
        args += ["--trace-out", trace_path]
    setups = [] if opts.trace else setup_seconds(binary, base, env)
    res = run_bench(binary, args, env)
    metrics = res["metrics"]
    config = res["config"]
    if not opts.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        config["setup_runs_s"] = setups
    config.update(git_sha=git_sha(), env_cleared=True,
                  cleared_vars=cleared, trace_file=trace_path)
    return {
        "workload": workload, "seed": opts.seed, "seconds": opts.seconds,
        "trace": int(opts.trace), "correct": res["correct"],
        "attempted": res["attempted"], "failed": res["failed"],
        "metrics": metrics, "diagnostics": res["diagnostics"],
        "config": config,
    }


def save(record, out):
    name = "%s-seed%d-trace%d.json" % (record["workload"], record["seed"],
                                       record["trace"])
    with open(os.path.join(out, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")


def problems(record, smoke, expected):
    """Reasons this record must fail the run."""
    out = []
    if not record["correct"] or record["failed"]:
        out.append("%d of %d structures failed or differed from the oracle"
                   % (record["failed"], record["attempted"]))
    beyond = record["diagnostics"]["beyond_p99"]
    if not record["trace"] and not smoke and beyond < MIN_BEYOND_P99:
        out.append("p99 has %d samples beyond it (need %d)"
                   % (beyond, MIN_BEYOND_P99))
    if expected and sorted(record["metrics"]) != expected[record["trace"]]:
        out.append("metrics differ from BENCHMARK.json: %s"
                   % sorted(set(record["metrics"]) ^
                            set(expected[record["trace"]])))
    return out


def show(rec):
    diag = rec["diagnostics"]
    print("%s (seed %d, %s): %d attempted, %d failed, error_frac %g"
          % (rec["workload"], rec["seed"],
             "traced" if rec["trace"] else "untraced",
             rec["attempted"], rec["failed"], diag["error_frac"]))
    for name, m in sorted(rec["metrics"].items()):
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    if not rec["trace"]:
        for name, m in sorted(diag["window"].items()):
            print("  %-36s %14.6g %s  (ungated)"
                  % (name, m["value"], m["unit"]))
    print("  %-36s %14d      (%d samples)" % (
        "(check) samples beyond the p99", diag["beyond_p99"],
        diag["latency_samples"]))
    m = rec["metrics"]
    if rec["trace"] and m["engine_pool.run_ms_p50"]["value"] > 0:
        # The pool call's wall time against its parts: dispatch plus the
        # slowest shard replayed as linearize + run_linearized.
        parts = (m["engine_pool.dispatch_us_p50"]["value"] * 1e-3 +
                 m["engine_pool.slowest_shard_ms_p50"]["value"])
        print("  %-36s %14.6g ratio" % (
            "(check) pool parts / run_ms_p50",
            parts / m["engine_pool.run_ms_p50"]["value"]))
    if "tracing_overhead_ms" in rec["config"]:
        print("  %-36s %14.6g ms" % ("(tracing overhead, p50)",
                                     rec["config"]["tracing_overhead_ms"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measured window per run")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="per-layer metrics + trace file")
    ap.add_argument("--out", default=os.path.join(BUILD, "results"),
                    help="directory for result records and traces")
    ap.add_argument("--binary", help="use this bench_e2e, skip the build")
    opts = ap.parse_args()
    # Shrunken inputs; the oracle is still checked.
    opts.smoke = os.environ.get("CORTEX_BENCH_SMOKE", "0") not in ("", "0")
    if opts.smoke and opts.seconds == ap.get_default("seconds"):
        opts.seconds = 1.0

    binary = opts.binary or build()
    expected = expected_metrics()
    os.makedirs(BUILD, exist_ok=True)
    os.makedirs(opts.out, exist_ok=True)
    # Library defaults only: no inherited CORTEX_* knob reaches the bench.
    cleared = sorted(k for k in os.environ if k.startswith("CORTEX_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("CORTEX_")}

    workloads = [opts.workload] if opts.workload else WORKLOADS
    records, bad = [], []
    for w in workloads:
        rec = run_workload(binary, w, opts, env, cleared)
        if opts.trace and not opts.workload:
            # Tracing overhead: the same workload untraced, p50 to p50.
            plain = argparse.Namespace(**vars(opts))
            plain.trace = 0
            base = run_workload(binary, w, plain, env, cleared)
            p50 = "latency_p50_ms"
            rec["config"]["tracing_overhead_ms"] = (
                rec["diagnostics"]["end_to_end"][p50]["value"] -
                base["diagnostics"]["end_to_end"][p50]["value"])
            save(base, opts.out)
            records.append(base)
            bad += ["%s: %s" % (w, p)
                    for p in problems(base, opts.smoke, expected)]
        save(rec, opts.out)
        records.append(rec)
        bad += ["%s: %s" % (w, p) for p in problems(rec, opts.smoke, expected)]

    for rec in records:
        show(rec)
    for b in bad:
        log("FAIL " + b)

    correct = all(r["correct"] and not r["failed"] for r in records)
    if opts.workload:
        rec = records[-1]
        result = {"correct": correct, "attempted": rec["attempted"],
                  "failed": rec["failed"], "metrics": rec["metrics"]}
    else:
        result = {"correct": correct,
                  "attempted": sum(r["attempted"] for r in records),
                  "failed": sum(r["failed"] for r in records),
                  "workloads": {"%s/trace%d" % (r["workload"], r["trace"]):
                                r["metrics"] for r in records}}
    print(json.dumps(result, sort_keys=True))
    if bad:
        sys.exit(1)


if __name__ == "__main__":
    main()
