"""Checks of the benchmark harness itself.

    python3 benchmark/selftest.py

Run from the root of a checkout.  For every workload in BENCHMARK.json it
runs a short clean run in both trace modes and checks that the result line
carries exactly the metrics and units BENCHMARK.json names, then a run with
one deliberately corrupted result, which must be counted as failed and give
a nonzero exit.  Last, it runs the launcher in a directory that holds only
BENCHMARK.json and the benchmark's files, where it must fail without a
result.  Exits nonzero if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = "1"


def launch(workload, trace, *extra, cwd="."):
    cmd = [
        sys.executable, os.path.join("benchmark", "run.py"),
        "--workload", workload, "--seed", "11", "--seconds", SECONDS, "--trace", str(trace), *extra,
    ]  # fmt: skip
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, proc.stderr


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok, message):
        print(f"{'ok  ' if ok else 'FAIL'} {message}", flush=True)
        if not ok:
            problems.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, stderr = launch(workload, trace)
            expect(code == 0 and result is not None and result["correct"], f"{workload} trace {trace}: clean run passes")
            if result is not None:
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                expect(units == expected[trace], f"{workload} trace {trace}: metric names and units match BENCHMARK.json")
                expect(result["attempted"] >= 1 and result["failed"] == 0, f"{workload} trace {trace}: no failed operations")
            elif stderr:
                print(stderr, file=sys.stderr)
        code, result, _ = launch(workload, 0, "--corrupt")
        expect(
            code != 0 and result is not None and not result["correct"] and result["failed"] > 0,
            f"{workload}: a corrupted result is counted as failed and exits nonzero",
        )

    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "benchmark"))
    shutil.copy("BENCHMARK.json", bare)
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "benchmark"))
    try:
        code, result, _ = launch(spec["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    expect(code != 0 and result is None, "without src/ the launcher exits nonzero and prints no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
