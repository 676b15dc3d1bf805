"""Acceptance suite: one test per criterion, each printing a pass line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Criteria with stated runtime budgets assert them.
"""

import math
import time
from fractions import Fraction

import numpy as np

from exact_oracle import direct_evaluate
from gridsplines.basis import (
    SplineKind,
    alpha_closed_form,
    derive_alpha,
    derive_beta,
)
from gridsplines.cli import FUNCTIONS, run_convergence
from gridsplines.exact import RationalPolynomial
from gridsplines.field import (
    STRICT,
    GridField,
    evaluate,
    evaluate_at_cell,
    evaluate_derivative,
    evaluate_hermite,
    evaluate_many,
    gather_local,
    grid_coordinates,
    partitioned_evaluate,
)

MAX_N = 19
MAX_Q = 12


def _report(num, text):
    print(f"[criterion {num:02d}] PASS {text}")


def _valid_kinds(node_counts):
    for q in node_counts:
        for n in range(1, min(2 * q - 3, MAX_N) + 1, 2):
            yield n, q


def test_criterion_01_printed_quintic_family():
    start = time.perf_counter()
    beta = derive_beta(SplineKind(5, 4))
    x = RationalPolynomial.monomial(1)
    xm1 = RationalPolynomial((-1, 1))
    half = Fraction(1, 2)
    printed = {
        -1: half * xm1**3 * x * RationalPolynomial((1, 2)),
        0: -half * xm1 * RationalPolynomial((2, 2, 0, -9, 6)),
        1: half * x * RationalPolynomial((1, 1, 9, -15, 6)),
        2: -half * xm1 * x**3 * RationalPolynomial((-3, 2)),
    }
    for offset, expected in printed.items():
        assert beta.poly(offset) == expected, f"offset {offset}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"(5,4) family equals the published quintic polynomials exactly ({elapsed:.3f}s)")


def test_criterion_02_closed_form_equivalence_to_n19():
    start = time.perf_counter()
    checked = 0
    for n in range(1, MAX_N + 1, 2):
        family = derive_alpha(n)
        for i in (0, 1):
            for l in range(family.m + 1):
                assert alpha_closed_form(n, l, i) == family.polys[i][l], (n, l, i)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"closed form equals solved form for all {checked} members up to n=19 ({elapsed:.3f}s)")


def test_criterion_03_smoothness_chain():
    start = time.perf_counter()
    zero = RationalPolynomial()
    checked = 0
    for n, q in _valid_kinds((4, 6, 8, 10)):
        beta = derive_beta(SplineKind(n, q))
        g = beta.g

        def edge(off):
            return beta.poly(off) if -g <= off <= g + 1 else zero

        for l in range(beta.m + 1):
            for off in range(-g, g + 3):
                left = edge(off).derivative(l)(Fraction(1))
                right = edge(off - 1).derivative(l)(Fraction(0))
                assert left == right, (n, q, l, off)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, f"smoothness chain exact for q in 4..10, {checked} junction conditions ({elapsed:.3f}s)")


def test_criterion_04_partition_of_unity_and_reflection():
    start = time.perf_counter()
    kinds = 0
    for n, q in _valid_kinds((4, 6, 8, 10, 12)):
        beta = derive_beta(SplineKind(n, q))
        g = beta.g
        total = RationalPolynomial()
        for off in range(-g, g + 2):
            total = total + beta.poly(off)
        assert total == RationalPolynomial.constant(1), (n, q)
        for off in range(-g, g + 2):
            assert beta.poly(off) == beta.poly(1 - off).reflected(), (n, q, off)
        kinds += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, f"partition of unity and reflection exact for all {kinds} supported kinds ({elapsed:.3f}s)")


def test_criterion_05_reproduction_degree():
    start = time.perf_counter()
    for n, q in _valid_kinds((4, 6, 8, 10, 12)):
        beta = derive_beta(SplineKind(n, q))
        g = beta.g
        for p in range(min(n, 2 * g) + 1):
            assembled = RationalPolynomial()
            for off in range(-g, g + 2):
                assembled = assembled + Fraction(off) ** p * beta.poly(off)
            assert assembled == RationalPolynomial.monomial(p), (n, q, p)

    # field level: strict grid, 100 interior points per kind and power
    for n, q in ((3, 4), (5, 6), (9, 6)):
        kind = SplineKind(n, q)
        g = kind.g
        h, nodes = 0.5, 14
        rng = np.random.default_rng(500 + n + q)
        for p in range(min(n, 2 * g) + 1):
            f = GridField.sample(lambda pt: pt[0] ** p, (nodes,), h, STRICT)
            cells = rng.integers(g, nodes - 1 - g, size=100)
            fracs = rng.random(100)
            for c, fr in zip(cells, fracs):
                xval = (c + fr) * h
                got = evaluate(f, (xval,), kind)
                assert abs(got - xval**p) <= 1e-11 * max(1.0, abs(xval**p)), (n, q, p, xval)
    elapsed = time.perf_counter() - start
    _report(5, f"monomial reproduction exact per kind; field evaluations within 1e-11 ({elapsed:.3f}s)")


def test_criterion_06_direct_system_equivalence_2d():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    kind = SplineKind(3, 4)
    for trial in range(20):
        data = rng.standard_normal((6, 6))
        f = GridField(data, h=(1.0, 1.0))
        point = tuple(rng.uniform(0.0, 6.0, size=2))
        cc = grid_coordinates(point, f)
        fracs = tuple(Fraction(v) for v in cc.frac)
        want = float(direct_evaluate(data, cc.cell, fracs, 3, 1))
        got = evaluate(f, point, kind)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (trial, point)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(6, f"tensor evaluation equals the direct 2D system on 20 random fields ({elapsed:.3f}s)")


def test_criterion_07_input_counts():
    for dims in (1, 2, 3):
        for n in (3, 5):
            m = (n - 1) // 2
            calls = []

            def provider(orders, node):
                calls.append((orders, node))
                return 1.0

            evaluate_hermite(provider, (0.4,) * dims, n)
            assert len(calls) == 2**dims * (m + 1) ** dims, (dims, n)
            assert len(set(calls)) == len(calls)
        for q in (4, 6):
            g = (q - 2) // 2
            f = GridField(np.zeros((10,) * dims), h=(1.0,) * dims)
            patch = gather_local(f, (5,) * dims, g)
            assert patch.values.size == q**dims, (dims, q)
    _report(7, "derivative-data count is 2^D (m+1)^D and patch size is q^D for D=1..3")


def test_criterion_08_empirical_convergence_order():
    start = time.perf_counter()
    targets = {(3, 4): 3.0, (5, 4): 3.0, (5, 6): 5.0, (9, 6): 5.0}
    spacings = [1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256]
    rows = run_convergence(FUNCTIONS["sin"], 1, sorted(targets), spacings, 1000, seed=2024)
    finest = {}
    for row in rows:
        if row.observed_order is not None:
            finest[row.kind] = row.observed_order
    summary = []
    for kind, target in targets.items():
        observed = finest[kind]
        assert observed >= target - 0.2, (kind, observed, target)
        summary.append(f"{kind}:{observed:.2f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(8, f"observed orders {' '.join(summary)} meet their floors ({elapsed:.1f}s)")


def test_criterion_09_partitioned_evaluation_3d():
    rng = np.random.default_rng(77)
    for n, q in ((3, 4), (5, 4)):
        kind = SplineKind(n, q)
        for _ in range(10):
            data = rng.standard_normal((9, 8, 10))
            f = GridField(data, h=(1.0, 0.5, 2.0))
            point = tuple(rng.uniform(0.0, d * hj) for d, hj in zip(f.dims, f.h))
            full = evaluate(f, point, kind)
            cc = grid_coordinates(point, f)
            for axis in range(3):
                base = cc.cell[axis] - kind.g
                for split in range(base, base + kind.q + 1):
                    low, high = partitioned_evaluate(f, point, kind, axis, split)
                    assert abs((low + high) - full) <= 1e-12 * max(1.0, abs(full)), (n, q, axis, split)
    _report(9, "low + high partial sums equal the full evaluation across all stencil splits")


def test_criterion_10_derivative_consistency():
    rng = np.random.default_rng(9)
    modes = [(k, rng.standard_normal() / k, rng.uniform(0, 2 * math.pi)) for k in (1, 2, 3)]

    def fourier(point):
        return sum(a * np.sin(2 * math.pi * k * point[0] + phi) for k, a, phi in modes)

    nodes = 32
    h = 1.0 / nodes
    f = GridField.sample(fourier, (nodes,), h)
    kinds = [SplineKind(3, 4), SplineKind(5, 4), SplineKind(5, 6), SplineKind(9, 6)]

    for kind in kinds:
        cells = rng.integers(0, nodes, size=40)
        fracs = rng.uniform(0.2, 0.8, size=40)
        values = []
        for c, fr in zip(cells, fracs):
            x = (c + fr) * h
            values.append((x, evaluate_derivative(f, (x,), kind, (1,))))
        scale = max(abs(v) for _, v in values)
        step = 1e-5 * h
        for x, ev in values:
            if abs(ev) < 1e-3 * scale:
                continue  # relative error is meaningless at a derivative zero crossing
            fd = (evaluate(f, (x + step,), kind) - evaluate(f, (x - step,), kind)) / (2 * step)
            assert abs(fd - ev) <= 1e-5 * abs(ev), (kind.n, kind.q, x)

    # one-sided limits of every continuous derivative order agree at the nodes
    g1 = GridField(rng.standard_normal(16), h=(1.0,))
    for kind in kinds:
        for cell in (2, 7, 15):
            for order in range(kind.m + 1):
                right = evaluate_at_cell(g1, (cell,), (0.0,), kind, orders=(order,))
                left = evaluate_at_cell(g1, (cell - 1,), (1.0,), kind, orders=(order,))
                assert abs(right - left) <= 1e-10 * max(1.0, abs(right), abs(left)), (kind.n, kind.q, order)
    _report(10, "first derivatives match finite differences; all orders <= m continuous at nodes")


def test_criterion_11_batched_bitwise_identity():
    rng = np.random.default_rng(42)
    data = rng.standard_normal((16, 16, 16))
    f = GridField(data, h=(1.0, 1.0, 1.0))
    kind = SplineKind(5, 4)
    points = rng.uniform(0.0, 16.0, size=(100_000, 3))
    start = time.perf_counter()
    batched = evaluate_many(f, points, kind)
    scalar = np.array([evaluate(f, p, kind) for p in points.tolist()])
    elapsed = time.perf_counter() - start
    assert batched.tobytes() == scalar.tobytes()
    _report(11, f"evaluate_many bitwise identical to scalar evaluate on 100000 points ({elapsed:.1f}s)")
