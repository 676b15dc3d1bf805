"""Command-line surface: coefficient export, validation runs, convergence studies, benchmarks.

The consumers are batch scripts and developers; every command is
non-interactive, seeds its randomness, and exits nonzero on failure.
"""

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .basis import (
    MAX_NODES,
    MAX_ORDER,
    BetaFamily,
    SplineKind,
    ValidationReport,
    _hermite_inverse,
    alpha_closed_form,
    derive_alpha,
    derive_beta,
    derive_beta_direct,
    export_records,
    validate_family,
)
from .exact import RationalPolynomial, _is_integer, rational_from_str
from .field import PERIODIC, GridField, _is_real, evaluate, evaluate_derivative, evaluate_many, load_field
from .stencil import derive_stencil


@dataclass
class ConvergenceRow:
    """One measurement of a convergence study."""

    kind: tuple
    h: float
    max_error: float
    observed_order: "float | None" = None


def _fn_constant(point):
    return 0.75


def _fn_sin(point):
    return np.sin(2.0 * math.pi * point[0])


def _fn_sinprod(point):
    out = 1.0
    for x in point:
        out = out * np.sin(2.0 * math.pi * x)
    return out


def _fn_fourier(point):
    out = 0.0
    for j, x in enumerate(point):
        out = out + 0.6**j * np.sin(2.0 * math.pi * x + 0.3 * (j + 1))
        out = out + 0.2 * 0.5**j * np.cos(4.0 * math.pi * x - 0.1 * j)
    return out


# Each function takes a point as a tuple of D coordinates, either floats or
# numpy arrays that broadcast together, so that GridField.sample and
# run_convergence tabulate it with one call per grid or point set.
FUNCTIONS = {
    "constant": _fn_constant,
    "sin": _fn_sin,
    "sinprod": _fn_sinprod,
    "fourier": _fn_fourier,
}


# The phases run_validation times, in the order cmd_validate prints them.
VALIDATION_PHASES = ("alpha solve", "closed form", "derive_beta", "derive_beta_direct", "family checks")


def run_validation(max_n: int, max_q: int, inject_defect: bool = False) -> ValidationReport:
    """Exact invariants for every valid kind in range, plus the closed-form check.

    ``inject_defect`` perturbs the first derived family before checking; it
    exists so the failure path of the harness can itself be tested.  Bounds
    that select no check at all raise ValueError.  The report's ``seconds``
    holds the wall time spent in each of VALIDATION_PHASES.
    """
    checks = []
    seconds = dict.fromkeys(VALIDATION_PHASES, 0.0)

    def timed(phase, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        seconds[phase] += time.perf_counter() - start
        return out

    for n in range(1, min(max_n, MAX_ORDER) + 1, 2):
        family = timed("alpha solve", derive_alpha, n)
        bad = timed(
            "closed form",
            lambda: [
                (i, l)
                for i in (0, 1)
                for l in range(family.m + 1)
                if alpha_closed_form(n, l, i) != family.polys[i][l]
            ],
        )
        checks.append((f"alpha(n={n}) closed-form equivalence", not bad, f"(i, l) {bad}" if bad else ""))

    pending_defect = inject_defect
    for q in range(4, min(max_q, MAX_NODES) + 1, 2):
        for n in range(1, min(2 * q - 3, max_n, MAX_ORDER) + 1, 2):
            kind = SplineKind(n, q)
            beta = timed("derive_beta", derive_beta, kind)
            if pending_defect:
                polys = list(beta.polys)
                polys[beta.g] = polys[beta.g] + RationalPolynomial.monomial(1)
                beta = BetaFamily(n=beta.n, q=beta.q, polys=tuple(polys))
                pending_defect = False
            report = timed("family checks", validate_family, beta)
            checks.extend(report.checks)
            routes_agree = timed("derive_beta_direct", derive_beta_direct, kind).polys == beta.polys
            checks.append((f"({n},{q}) derivation route agreement", routes_agree, ""))
    if not checks:
        raise ValueError(f"bounds max_n={max_n}, max_q={max_q} select no check")
    return ValidationReport(checks=checks, seconds=seconds)


def run_convergence(func, dims: int, kinds, spacings, samples: int, seed: int) -> list:
    """Max interpolation error of ``func`` over random points, per kind and spacing.

    ``func`` is called once per (kind, spacing) on the grid nodes (see
    :meth:`GridField.sample`) and once per study on the sample points, as a
    tuple of coordinate arrays.  Every row shares those points, drawn from
    ``default_rng(seed)``, and they are read-only: a ``func`` that writes into
    them raises.  A value that is not finite raises ValueError naming the
    point and the spacing; the sample points are checked with the first
    spacing, after its grid nodes.  ``dims`` and ``samples`` must be integers
    >= 1, and each spacing a positive, finite number dividing the unit period.
    """
    for name, value in (("dims", dims), ("samples", samples)):
        if not (_is_integer(value) and value >= 1):
            raise ValueError(f"{name} {value!r} is not an integer >= 1")
    rows = []
    points = reference = None
    for n, q in kinds:
        kind = SplineKind(n, q)
        prev = None
        for h in spacings:
            if not (_is_real(h) and 0.0 < h < math.inf):
                raise ValueError(f"spacing {h!r} is not a positive, finite number")
            nodes = int(round(1.0 / h))
            if abs(nodes * h - 1.0) > 1e-12:
                raise ValueError(f"spacing {h} does not divide the unit period")
            field = GridField.sample(func, (nodes,) * dims, h, PERIODIC)
            _require_finite(field.data, h, lambda i: tuple(int(j) * h for j in np.unravel_index(i, field.dims)))
            if points is None:
                points = np.random.default_rng(seed).random((samples, dims))
                points.setflags(write=False)
                reference = np.broadcast_to(np.asarray(func(tuple(points.T)), dtype=np.float64), (samples,))
                _require_finite(reference, h, lambda i: tuple(points[i].tolist()))
            err = float(np.max(np.abs(evaluate_many(field, points, kind) - reference), initial=0.0))
            order = None
            if prev is not None and err > 0.0 and prev > 0.0:
                order = math.log2(prev / err)
            rows.append(ConvergenceRow(kind=(n, q), h=float(h), max_error=err, observed_order=order))
            prev = err
    return rows


def _require_finite(values, h, locate) -> None:
    """Raise ValueError for the first non-finite function value, naming its point ``locate(flat index)``."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        value = float(values.flat[i])
        raise ValueError(f"function value {value!r} at point {locate(i)} is not finite (spacing {h!r})")


def write_convergence_csv(rows, stream) -> None:
    """One CSV line per row, under the field names; csv writes None as an empty field and a float as its repr."""
    writer = csv.DictWriter(stream, [f.name for f in fields(ConvergenceRow)], lineterminator="\n")
    writer.writeheader()
    writer.writerows({**vars(row), "kind": "({},{})".format(*row.kind)} for row in rows)


# Interleaved timings per path in run_benchmark: an odd count, so the median is one of the runs.
BENCH_REPEATS = 5
# Points each path evaluates once before the timed loops, which derives the family and builds its forms.
BENCH_WARMUP = 200


def run_benchmark(field: GridField, kind: SplineKind, points, orders=None):
    """Time scalar :func:`evaluate` per point and one :func:`evaluate_many` call, interleaved BENCH_REPEATS times.

    With per-axis derivative ``orders``, the scalar path is
    :func:`evaluate_derivative` and the batched call passes the orders.
    Returns, per path, the min and median ns/evaluation over the repeats and
    the evaluations/second of the median.  ``bitwise_identical`` says whether
    every batched result equals the scalar results bit for bit.  Before any
    timing, points that are not of shape (N, D), a ragged list or a bad
    coordinate raise :func:`evaluate_many`'s error, and an empty point set
    ValueError.
    """
    evaluate_many(field, points, kind, orders)  # a warm-up, and the library's error for bad points before any timing
    points = np.asarray(points)  # no cast: the library has checked the caller's values
    if not len(points):
        raise ValueError(f"points of shape {points.shape} are an empty point set: nothing to time")
    tuples = [tuple(p) for p in points.tolist()]

    def scalar_pass(tuples):
        if orders is None:
            return [evaluate(field, p, kind) for p in tuples]
        return [evaluate_derivative(field, p, kind, orders) for p in tuples]

    scalar_pass(tuples[:BENCH_WARMUP])
    seconds = {"scalar": [], "batched": []}
    identical = True
    for _ in range(BENCH_REPEATS):
        start = time.perf_counter()
        scalar = scalar_pass(tuples)
        seconds["scalar"].append(time.perf_counter() - start)
        start = time.perf_counter()
        batched = evaluate_many(field, points, kind, orders)
        seconds["batched"].append(time.perf_counter() - start)
        identical = identical and np.array(scalar).tobytes() == batched.tobytes()
    paths = {}
    for name, runs in seconds.items():
        median = sorted(runs)[BENCH_REPEATS // 2]
        paths[name] = {
            "min_ns_per_eval": 1e9 * min(runs) / len(points),
            "ns_per_eval": 1e9 * median / len(points),
            "evals_per_second": len(points) / median,
        }
    return {"repeats": BENCH_REPEATS, "paths": paths, "bitwise_identical": identical}


def _parse_kind(text: str):
    try:
        n_text, q_text = text.split(",")
        return int(n_text), int(q_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected 'n,q', got {text!r}") from exc


def _parse_spacing(text: str) -> float:
    try:
        h = float(rational_from_str(text))
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"expected a spacing such as 1/16, got {text!r}") from exc
    if not h > 0.0:
        raise argparse.ArgumentTypeError(f"spacing must be positive, got {text!r}")
    return h


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def cmd_export(args) -> int:
    kind = SplineKind(args.n, args.q)
    records = export_records(derive_beta(kind))
    with open(args.out, "w", newline="") as fh:
        if args.format == "json":
            json.dump(records, fh, indent=2)
            fh.write("\n")
        else:
            writer = csv.DictWriter(fh, list(records[0]), lineterminator="\n")
            writer.writeheader()
            for rec in records:
                writer.writerow({k: ";".join(map(str, v)) if isinstance(v, list) else v for k, v in rec.items()})
    print(f"wrote {len(records)} records for kind {kind} to {args.out}")
    return 0


def cmd_validate(args) -> int:
    report = run_validation(args.max_n, args.max_q, inject_defect=args.inject_defect)
    print(report)
    print("cold seconds by phase: " + ", ".join(f"{phase} {s:.4f}" for phase, s in report.seconds.items()))
    caches = (derive_alpha, _hermite_inverse, derive_beta, derive_stencil)
    print("caches: " + "; ".join(f"{fn.__name__} {fn.cache_info()}" for fn in caches))
    total = len(report.checks)
    failed = len(report.failures())
    print(f"{total - failed}/{total} checks passed")
    return 0 if report.ok else 1


def cmd_converge(args) -> int:
    func = FUNCTIONS[args.function]
    spacings = []
    h = args.h_coarse
    h_fine = args.h_fine
    while h >= h_fine * (1.0 - 1e-12):
        spacings.append(h)
        h /= 2.0
    if not spacings:
        raise ValueError(f"--h-coarse {args.h_coarse!r} is finer than --h-fine {h_fine!r}: no spacing to sweep")
    kinds = args.kind or [(3, 4), (5, 4)]
    rows = run_convergence(func, args.dims, kinds, spacings, args.samples, args.seed)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_convergence_csv(rows, fh)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        write_convergence_csv(rows, sys.stdout)
    return 0


def cmd_bench(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.field:
        field = load_field(args.field)
    else:
        dims = (args.grid,) * args.dims
        field = GridField(rng.standard_normal(dims), h=1.0, boundary=PERIODIC)
    kind = SplineKind(args.n, args.q)
    extents = [d * hj for d, hj in zip(field.dims, field.h)]
    if not all(map(math.isfinite, extents)):
        raise ValueError(f"{args.field}: field extent {extents} is not finite")
    low, high = 0.0, extents
    if field.boundary != PERIODIC:  # draw each coordinate where its strict stencil fits
        for axis, d in enumerate(field.dims):
            if d < kind.q:
                raise ValueError(f"{args.field}: axis {axis} has {d} nodes, fewer than q = {kind.q}")
        low = [kind.g * hj for hj in field.h]
        high = [(d - kind.g - 1) * hj for d, hj in zip(field.dims, field.h)]
    points = rng.uniform(low, high, size=(args.points, field.ndim))
    orders = None if args.order is None else (args.order,) * field.ndim
    report = run_benchmark(field, kind, points, orders=orders)
    grid_text = "x".join(str(d) for d in field.dims)
    what = "evaluations" if orders is None else f"order-{args.order} derivatives"
    print(f"kind {kind}, grid {grid_text}, {len(points)} {what}, {report['repeats']} interleaved repeats")
    for path, stats in report["paths"].items():
        print(
            f"  {path:8s} min {stats['min_ns_per_eval']:10.0f} ns/eval  median {stats['ns_per_eval']:10.0f} ns/eval"
            f"  {stats['evals_per_second']:12.0f} evals/s"
        )
    print(f"  batched vs scalar bitwise identical: {report['bitwise_identical']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridsplines",
        description="Derive, validate, and benchmark high-order grid-spline interpolation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("export", help="dump exact and Horner coefficients for one kind")
    p.add_argument("--n", type=int, required=True, help="spline order (odd)")
    p.add_argument("--q", type=int, required=True, help="nodes per axis (even)")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("validate", help="run the exact invariant suite over a range of kinds")
    p.add_argument("--max-n", type=_positive_int, default=MAX_ORDER)
    p.add_argument("--max-q", type=_int_at_least(4), default=MAX_NODES)
    p.add_argument("--inject-defect", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("converge", help="empirical order-of-accuracy study on the unit torus")
    p.add_argument("--function", choices=sorted(FUNCTIONS), default="sin")
    p.add_argument("--dims", type=_positive_int, default=1)
    p.add_argument("--kind", type=_parse_kind, action="append", help="spline kind as 'n,q' (repeatable)")
    p.add_argument("--h-coarse", type=_parse_spacing, default="1/16", help="coarsest spacing, e.g. 1/16")
    p.add_argument("--h-fine", type=_parse_spacing, default="1/256", help="finest spacing; sweep halves down to it")
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_int_at_least(0), default=2024)
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    p.set_defaults(func=cmd_converge)

    # no abbreviations, so that an unknown option such as --h is an error rather than --help, which exits 0
    p = sub.add_parser("bench", help="evaluation throughput on a seeded workload", allow_abbrev=False)
    p.add_argument("--dims", type=_positive_int, default=3)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--grid", type=_positive_int, default=32, help="nodes per axis for the synthetic field")
    p.add_argument("--points", type=_positive_int, default=20000)
    p.add_argument("--seed", type=_int_at_least(0), default=2024)
    p.add_argument("--field", help="evaluate a saved field container instead of a synthetic one")
    p.add_argument(
        "--order", type=_int_at_least(0), help="derivative order on every axis: evaluate_derivative, not evaluate"
    )
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
