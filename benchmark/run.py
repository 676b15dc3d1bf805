"""gridsplines benchmark launcher.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gridsplines checkout; the library is imported from
its ``src/`` directory, so nothing is installed or built.  Each repetition
runs ``worker.py`` in a fresh interpreter with every BLAS/OpenMP thread
variable set to 1, one repetition at a time (one closed-loop caller, no
threads).  Repetitions are started until ``--seconds`` of wall time have
passed, and at least three of them, so that set-up is measured several times.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` repetitions alternate between
untraced and traced, and the JSON object holds the per-layer metrics.  The
lines before it print every metric by name with its unit.  The exit code is
0 only when every output check passed.  Details and spans are written under
``benchmark/out/``.  README.md describes the workloads and the metrics.
"""

import argparse
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

from calibrate import REFERENCE_LOOP_S  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKLOADS = ("point_1d_n19q12", "converge_3d_n5q4", "validate_all")
CHILD_SHARE = 10  # a repetition that may repeat passes measures for seconds / CHILD_SHARE
RUN_LIMIT_S = 170.0  # the whole run, set-up and checks included, stays below this
REPETITION_KEYS = (
    "traced", "setup_wall_s", "setup_loops", "pass_ns", "pass_loops", "attempted", "failed", "peak_rss_mb", "report",
)  # fmt: skip
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class HarnessError(Exception):
    """A repetition could not run; no result is printed for the run."""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every repetition compiles the same sources: same set-up work
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def run_child(args, index: int, traced: bool, timeout: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--budget", repr(args.seconds / CHILD_SHARE),
        "--traced", str(int(traced)),
        "--reference", str(int(index == 0)),
        "--corrupt", str(int(args.corrupt and index == 0)),
        "--spans", os.path.join(OUT_DIR, f"{args.workload}.rep{index}.spans.csv"),
    ]  # fmt: skip
    spawned_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"repetition {index} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"repetition {index} exited with code {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = (result["ready_ns"] - spawned_ns) / 1e9
    # interpreter start-up comes before the worker can sample the loop: count it at the first sample's speed
    result["setup_loops"] += (result["started_ns"] - spawned_ns) / result["first_loop_ns"]
    return result


def run_repetitions(args) -> list:
    min_children = 4 if args.trace else 3
    started = time.monotonic()
    children = []
    while len(children) < min_children or time.monotonic() - started < args.seconds:
        elapsed = time.monotonic() - started
        if elapsed > RUN_LIMIT_S / 2 and len(children) >= min_children:
            break
        traced = bool(args.trace) and len(children) % 2 == 1
        children.append(run_child(args, len(children), traced, RUN_LIMIT_S - elapsed))
    return children


def percentile(sorted_values, share: float):
    return sorted_values[min(len(sorted_values) - 1, int(share * len(sorted_values)))]


def end_to_end(children) -> tuple:
    """Metrics from the untraced repetitions, plus extra figures for the report."""
    plain = [c for c in children if not c["traced"]]
    passes_s = [ns / 1e9 for c in plain for ns in c["pass_ns"]]
    # every pass of a repetition does the same number of operations
    rates = [c["attempted"] / len(c["pass_ns"]) / (ns / 1e9) for c in plain for ns in c["pass_ns"]]
    metrics = {
        "setup_s": (statistics.median(c["setup_loops"] for c in plain) * REFERENCE_LOOP_S, "s"),
        "pass_s": (statistics.median(pass_loops(plain)) * REFERENCE_LOOP_S, "s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in plain), "MB"),
    }
    extra = {
        "setup_wall_s": (statistics.median(c["setup_wall_s"] for c in plain), "s"),
        "wall_s": (statistics.median(passes_s), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "calibration_loop_ms": (statistics.median(ns / 1e6 for c in plain for ns in c["calibration_loop_ns"]), "ms"),
        "passes": (len(passes_s), "count"),
        "repetitions": (len(plain), "count"),
    }
    latencies = sorted(ns for c in plain for ns in c.get("latency_ns", ()))
    if latencies:
        extra["eval_us_p50"] = (percentile(latencies, 0.50) / 1e3, "us")
        extra["eval_us_p99"] = (percentile(latencies, 0.99) / 1e3, "us")
        extra["eval_latency_samples"] = (len(latencies), "count")
    report = children[0]["report"]
    if "err_vs_exact" in report:
        extra["err_vs_exact"] = (report["err_vs_exact"], "ratio")
    return metrics, extra


def pass_loops(children) -> list:
    """Each pass's work in calibration loops (calibrate.py)."""
    return [loops for c in children for loops in c["pass_loops"]]


def per_layer(children) -> dict:
    """Per-layer metrics from the traced repetitions."""
    traced = [c for c in children if c["traced"]]
    plain = [c for c in children if not c["traced"]]
    passes = sum(len(c["pass_ns"]) for c in traced)
    traced_wall_ns = sum(ns for c in traced for ns in c["pass_ns"])
    metrics = {}
    self_ns_total = 0
    for layer in LAYERS:
        calls = sum(c["layers"][layer][0] for c in traced)
        self_ns = sum(c["layers"][layer][1] for c in traced)
        self_ns_total += self_ns
        metrics[f"{layer}.calls"] = (calls / passes, "count")
        metrics[f"{layer}.self_us_per_call"] = (self_ns / calls / 1e3 if calls else 0.0, "us")
    counts = traced[0]["counts"]
    metrics["field.gather_local.bytes_computed"] = (counts["gather_bytes"], "B")
    metrics["basis.beta_eval.flops_computed"] = (counts["beta_flops"], "flop")
    metrics["field.accumulate.flops_computed"] = (counts["accumulate_flops"], "flop")
    for function, layer in (("derive_alpha", "basis"), ("derive_stencil", "stencil")):
        info = traced[0]["cache"][function]
        lookups = info["hits"] + info["misses"]
        metrics[f"{layer}.{function}.cache_hit_ratio"] = (info["hits"] / lookups if lookups else 0.0, "ratio")
    traced_median = statistics.median(pass_loops(traced))
    plain_median = statistics.median(pass_loops(plain))
    metrics["trace.overhead_frac"] = (traced_median / plain_median - 1.0, "ratio")
    metrics["trace.self_sum_frac"] = (self_ns_total / traced_wall_ns, "ratio")
    return metrics


def environment(args, children) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": children[0]["python"],
        "numpy": children[0]["numpy"],
        "seed": args.seed,
        "threads": {name: "1" for name in THREAD_VARIABLES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gridsplines benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corrupt", action="store_true", help="corrupt one result (harness self-test)")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the running repetition
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "gridsplines", "__init__.py")):
        print("error: run from the root of a gridsplines checkout (src/gridsplines not found)", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    for stale in glob.glob(os.path.join(OUT_DIR, f"{args.workload}.rep*.spans.csv")):
        os.remove(stale)
    try:
        children = run_repetitions(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(args, children)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    correct = failed == 0
    e2e, extra = end_to_end(children)
    extra["ops_failed_frac"] = (failed / attempted, "ratio")
    layers = per_layer(children) if args.trace else {}
    shown = layers if args.trace else e2e

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, (value, unit) in {**e2e, **extra, **layers}.items():
        print(f"  {name:44s} {value:<24.6g} {unit}")
    report = children[0]["report"]
    if "rows" in report:
        for row in report["rows"]:
            print(f"  h={row['h']:<8g} max_error={row['max_error']:<24s} observed_order={row['observed_order']}")
        same = {tuple(row["max_error"] for row in c["report"]["rows"]) for c in children}
        repeatable = len(same) == 1 and all(c["report"]["max_error_repeatable"] for c in children)
        print(f"  max_error reproduced bit for bit by every pass: {repeatable}")
    if args.trace:
        # where tracing costs less than the run-to-run noise, the overhead estimate can come out negative
        gap = abs(1.0 - layers["trace.self_sum_frac"][0])
        overhead = abs(layers["trace.overhead_frac"][0])
        print(f"  layer self times vs traced wall: off by {gap:.2e}, within |overhead| {overhead:.3f}: {gap <= overhead}")
    for child in children:
        for error in child["errors"]:
            print(error, file=sys.stderr)
    if not correct:
        print(f"FAILED: {failed} of {attempted} operations failed their output checks", file=sys.stderr)

    details = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in {**e2e, **extra, **layers}.items()},
        "report": report,
        "repetitions": [
            {k: c[k] for k in REPETITION_KEYS}
            for c in children
        ],
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}.trace{args.trace}.json"), "w") as fh:
        json.dump(details, fh, indent=1)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
