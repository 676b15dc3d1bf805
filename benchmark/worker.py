"""One benchmark repetition: set up a workload, time passes over it, check the outputs.

run.py starts this script once per repetition, each time in a fresh
single-threaded interpreter, and reads the JSON object printed on the last
line of its standard output.  Everything before the first timed pass is
set-up (interpreter start, imports, derivation, input generation); run.py
measures it from the moment it started this process, up to ``ready_ns``.
Set-up and every pass are also measured in calibration loops (calibrate.py),
which is why the calibration starts before the heavy imports.

The workloads only call public gridsplines functions.  Why each workload
exists is written down in README.md next to this file.
"""

import time

STARTED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

from calibrate import Calibrator  # noqa: E402

CALIBRATOR = Calibrator()
FIRST_LOOP_NS = CALIBRATOR.start()  # set-up is measured in loops from here on

import argparse  # noqa: E402
import array  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

import gridsplines as gs  # noqa: E402
from gridsplines import cli  # noqa: E402
from tracer import Tracer  # noqa: E402

SPAN_CAP = 50_000  # span rows kept per traced repetition; the statistics count every span
LATENCY_RING = 65_536  # per-call latencies kept per repetition (the latest ones), preallocated


class Workload:
    """Set-up happens in ``__init__``; ``run_pass`` is timed, the checks are not.

    ``check_pass`` runs after every pass and ``finish`` once after the last
    one; both add to ``attempted`` and ``failed``.
    """

    max_passes = None  # None: repeat passes until the time budget is spent
    dims = 0
    family = None

    def __init__(self, seed: int, corrupt: bool, clock):
        self.seed = seed
        self.corrupt = corrupt
        self.clock = clock  # for timing inside a pass: stands still while the calibration loop runs
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def record_error(self):
        if len(self.errors) < 3:
            self.errors.append(traceback.format_exc())

    def finish(self, last, reference: bool) -> dict:
        return {}

    def eval_orders(self) -> list:
        """Per-axis derivative orders of every evaluation in one pass."""
        return []

    def computed_counts(self) -> dict:
        """Work per evaluation, computed exactly from the kind, D and the frozen arrays.

        The flop counts follow the loops in the library: Horner does one
        multiply and one add per coefficient, and the accumulation does
        D - 2 multiplies per outer patch index plus three flops per term
        (two per term for D = 1).
        """
        orders = self.eval_orders()
        if not orders:
            return {"gather_bytes": 0, "beta_flops": 0, "accumulate_flops": 0}
        q, dims = self.family.q, self.dims
        horner = self.family.horner_by_order
        beta = sum(2 * len(c) for axis_orders in orders for l in axis_orders for c in horner[l])
        accumulate = 2 * q if dims == 1 else q ** (dims - 1) * (dims - 2 + 3 * q)
        return {
            "gather_bytes": 8 * q**dims,
            "beta_flops": beta / len(orders),
            "accumulate_flops": accumulate,
        }


class PointDerivative(Workload):
    """point_1d_n19q12: single-point evaluate_derivative calls, order cycling 0..m."""

    name = "point_1d_n19q12"
    kind = (19, 12)
    dims = 1
    nodes = 65536
    calls_per_pass = 4096
    reference_points = 1000
    max_scaled_error = 1e-3

    def __init__(self, seed, corrupt, clock):
        super().__init__(seed, corrupt, clock)
        self.spline = gs.SplineKind(*self.kind)
        self.family = gs.derive_beta(self.spline)
        rng = np.random.default_rng(seed)
        self.field = gs.GridField(rng.standard_normal(self.nodes), h=1.0 / self.nodes)
        orders = self.family.m + 1
        self.calls = [((float(x),), (i % orders,)) for i, x in enumerate(rng.random(self.calls_per_pass))]
        picker = np.random.default_rng([seed, 1])
        self.reference_idx = sorted(
            picker.choice(self.calls_per_pass, self.reference_points, replace=False).tolist()
        )
        self.evaluate = gs.evaluate_derivative
        # a fixed ring keeps the harness's memory the same however many passes fit in the budget
        self.latencies = array.array("q", bytes(8 * LATENCY_RING))
        self.calls_made = 0

    def trace(self, tracer):
        self.evaluate = tracer.wrap("field.evaluate", self.evaluate)

    def run_pass(self):
        field, spline, evaluate = self.field, self.spline, self.evaluate
        latencies = self.latencies
        made = self.calls_made
        clock = self.clock
        out = []
        for point, orders in self.calls:
            start = clock()
            try:
                value = evaluate(field, point, spline, orders)
            except Exception:
                value = None
                self.record_error()
            latencies[made % LATENCY_RING] = clock() - start
            made += 1
            out.append(value)
        self.calls_made = made
        return out

    def check_pass(self, out):
        self.attempted += len(out)
        self.failed += sum(1 for v in out if v is None or not math.isfinite(v))

    def scaled_error(self, polys, index: int, value: float) -> float:
        """|float - exact| over sum |w_exact * f|, both in derivative units.

        The exact value uses the exact basis polynomials at the same cell
        fraction the float path evaluates (the fraction is itself a float,
        so it converts to a Fraction without rounding).
        """
        (x,), (order,) = self.calls[index]
        cc = gs.grid_coordinates((x,), self.field)
        xi = Fraction(cc.frac[0])
        values = gs.gather_local(self.field, cc.cell, self.family.g).values.ravel().tolist()
        terms = [p(xi) * Fraction(v) for p, v in zip(polys[order], values)]
        scale = Fraction(self.field.h[0]) ** -order
        exact = sum(terms) * scale
        norm = sum(abs(t) for t in terms) * scale
        return float(abs(Fraction(value) - exact) / norm)

    def finish(self, last, reference):
        if not reference:
            return {}
        if self.corrupt:
            index = self.reference_idx[0]
            last[index] += self.field.h[0] ** -self.calls[index][1][0]
        family = self.family
        polys = [
            [family.poly(offset).derivative(l) for offset in range(-family.g, family.g + 2)]
            for l in range(family.m + 1)
        ]
        by_order = [0.0] * (family.m + 1)
        for index in self.reference_idx:
            value = last[index]
            if value is None or not math.isfinite(value):
                continue  # already counted by check_pass
            err = self.scaled_error(polys, index, value)
            order = self.calls[index][1][0]
            by_order[order] = max(by_order[order], err)
            if err > self.max_scaled_error:
                self.failed += 1
        return {"err_vs_exact": max(by_order), "err_by_order": by_order}

    def eval_orders(self):
        return [orders for _, orders in self.calls]


class Convergence(Workload):
    """converge_3d_n5q4: cli.run_convergence on the fourier function, D = 3, kind (5,4)."""

    name = "converge_3d_n5q4"
    kind = (5, 4)
    dims = 3
    function = "fourier"
    spacings = (1 / 8, 1 / 16, 1 / 32)
    samples = 4000
    order_tolerance = 0.5

    def __init__(self, seed, corrupt, clock):
        super().__init__(seed, corrupt, clock)
        n, q = self.kind
        self.family = gs.derive_beta(gs.SplineKind(n, q))  # derivation stays out of the timed phase
        self.expected_order = min(n, q - 2) + 1  # min(n, 2g) + 1
        self.run_convergence = cli.run_convergence
        self.max_errors = set()

    def trace(self, tracer):
        self.run_convergence = tracer.wrap("cli.run_convergence", self.run_convergence)

    def run_pass(self):
        try:
            return self.run_convergence(
                cli.FUNCTIONS[self.function], self.dims, [self.kind], self.spacings, self.samples, self.seed
            )
        except Exception:
            self.record_error()
            return None

    def failed_evaluations(self, rows) -> int:
        """Evaluations behind the rows whose error or observed order is off."""
        if rows is None:
            return self.samples * len(self.spacings)
        failed = 0
        for row in rows:
            ok = math.isfinite(row.max_error) and row.max_error > 0.0
            if row.observed_order is not None:
                ok = ok and abs(row.observed_order - self.expected_order) <= self.order_tolerance
            if not ok:
                failed += self.samples
        return failed

    def check_pass(self, rows):
        self.attempted += self.samples * len(self.spacings)
        self.failed += self.failed_evaluations(rows)
        if rows is not None:
            self.max_errors.add(tuple(row.max_error for row in rows))

    def finish(self, last, reference):
        if last is None:
            return {}
        if self.corrupt:
            last[-1].observed_order -= 3.0
            self.failed += self.failed_evaluations(last)
        return {
            "rows": [
                {"h": row.h, "max_error": repr(row.max_error), "observed_order": row.observed_order}
                for row in last
            ],
            "max_error_repeatable": len(self.max_errors) == 1,
        }

    def eval_orders(self):
        return [(0,) * self.dims]


class Validation(Workload):
    """validate_all: cli.run_validation(19, 12) from cold derivation caches."""

    name = "validate_all"
    max_passes = 1  # the caches are warm after one pass; a fresh interpreter is the cold state
    max_n, max_q = 19, 12

    def __init__(self, seed, corrupt, clock):
        super().__init__(seed, corrupt, clock)  # the validated kinds are fixed; the seed selects nothing
        self.run_validation = cli.run_validation

    def trace(self, tracer):
        self.run_validation = tracer.wrap("cli.run_validation", self.run_validation)

    def run_pass(self):
        try:
            return self.run_validation(self.max_n, self.max_q, inject_defect=self.corrupt)
        except Exception:
            self.record_error()
            return None

    def check_pass(self, report):
        if report is None:
            self.attempted += 1
            self.failed += 1
        else:
            self.attempted += len(report.checks)
            self.failed += len(report.failures())

    def finish(self, last, reference):
        return {"failures": last.failures()[:5] if last else []}


WORKLOADS = {w.name: w for w in (PointDerivative, Convergence, Validation)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of timed passes")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced repetition writes its spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, bool(args.corrupt), CALIBRATOR.clock)
    run_pass = workload.run_pass
    tracer = None
    if args.traced:
        tracer = Tracer(SPAN_CAP, CALIBRATOR.clock)
        tracer.install()
        workload.trace(tracer)
        run_pass = tracer.wrap("harness.pass", run_pass)

    _, setup_loops = CALIBRATOR.stop()
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    deadline = time.perf_counter() + args.budget
    pass_ns = []
    pass_loops = []
    while True:
        if tracer:
            tracer.pass_id += 1
        result, program_ns, loops = CALIBRATOR.measure(run_pass)
        pass_ns.append(program_ns)
        pass_loops.append(loops)
        workload.check_pass(result)
        if len(pass_ns) == workload.max_passes or time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = workload.finish(result, bool(args.reference))
    out = {
        "workload": workload.name,
        "traced": bool(args.traced),
        "started_ns": STARTED_NS,
        "first_loop_ns": FIRST_LOOP_NS,
        "setup_loops": setup_loops,
        "ready_ns": ready_ns,
        "pass_ns": pass_ns,
        "pass_loops": pass_loops,
        "calibration_loop_ns": CALIBRATOR.loop_ns,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "errors": workload.errors,
        "peak_rss_mb": peak_rss_mb,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "counts": workload.computed_counts(),
        "cache": {
            "derive_alpha": gs.derive_alpha.cache_info()._asdict(),
            "derive_stencil": gs.derive_stencil.cache_info()._asdict(),
        },
        "report": report,
    }
    if isinstance(workload, PointDerivative):
        out["latency_ns"] = workload.latencies[: workload.calls_made].tolist()
    if tracer:
        out["layers"] = tracer.stats
        tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
