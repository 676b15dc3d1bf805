"""Spline basis families: derivation, closed forms, exact identities."""

import hashlib
import math
import random
import struct
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from gridsplines import cli, field
from gridsplines.basis import (
    MAX_NODES,
    MAX_ORDER,
    BetaFamily,
    FrozenForm,
    SplineKind,
    _solve_hermite,
    alpha_closed_form,
    beta_eval,
    derive_alpha,
    derive_beta,
    derive_beta_direct,
    export_records,
    validate_family,
)
from gridsplines.cli import run_validation
from gridsplines.errors import DerivativeTooHigh, InvalidKind, InvalidOrder
from gridsplines.exact import RationalPolynomial, rational_from_str, solve_linear_system
from gridsplines.field import evaluate_hermite
from gridsplines.stencil import derive_stencil


def poly(*coeffs):
    return RationalPolynomial(coeffs)


# -- kind validation


def test_kind_accepts_supported_range():
    assert SplineKind(1).m == 0
    assert SplineKind(19, 12).g == 5
    assert SplineKind(9, 6).m == 4


def test_kind_rejects_even_order():
    with pytest.raises(InvalidOrder):
        SplineKind(4, 6)


def test_kind_rejects_odd_node_count():
    with pytest.raises(InvalidKind):
        SplineKind(3, 5)


def test_kind_rejects_insufficient_nodes():
    with pytest.raises(InvalidKind):
        SplineKind(7, 4)  # needs n <= 2q - 3 = 5


def test_kind_rejects_out_of_range_order():
    with pytest.raises(InvalidOrder):
        SplineKind(21, 12)


def test_kind_rejects_a_bool_order_or_node_count():
    with pytest.raises(InvalidOrder, match="got True"):
        SplineKind(True, 4)
    with pytest.raises(InvalidKind, match="got True"):
        SplineKind(5, True)


def test_kind_takes_numpy_integers_and_stores_plain_ints():
    kind = SplineKind(np.int64(5), np.int32(4))
    assert (type(kind.n), type(kind.q)) == (int, int)
    assert kind == SplineKind(5, 4) and hash(kind) == hash(SplineKind(5, 4))
    assert str(kind) == "(5,4)"
    assert derive_beta(kind) is derive_beta(SplineKind(5, 4))


# -- endpoint-data basis


def test_alpha_n3_is_the_classic_cubic_basis():
    fam = derive_alpha(3)
    assert fam.polys[0][0] == poly(1, 0, -3, 2)
    assert fam.polys[0][1] == poly(0, 1, -2, 1)


def test_alpha_n1_is_linear_interpolation():
    fam = derive_alpha(1)
    assert fam.polys[0][0] == poly(1, -1)
    assert fam.polys[1][0] == poly(0, 1)


def test_alpha_n5_value_member():
    want = poly(1, -1) ** 3 * poly(1, 3, 6)  # (1-x)^3 (1 + 3x + 6x^2)
    assert derive_alpha(5).polys[0][0] == want


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_alpha_defining_system(n):
    fam = derive_alpha(n)
    for i in (0, 1):
        for l0 in range(fam.m + 1):
            p = fam.polys[i][l0]
            for j in (0, 1):
                for l in range(fam.m + 1):
                    assert p.derivative(l)(Fraction(j)) == int(i == j and l0 == l)


@pytest.mark.parametrize("n", [1, 3, 5, 9])
def test_alpha_reflection(n):
    fam = derive_alpha(n)
    for l in range(fam.m + 1):
        mirrored = fam.polys[0][l].reflected()
        if l % 2:
            mirrored = -mirrored
        assert fam.polys[1][l] == mirrored


def test_alpha_rejects_bad_orders():
    for n in (0, 2, -3, 21):
        with pytest.raises(InvalidOrder):
            derive_alpha(n)


def test_alpha_rejects_a_bool_order_without_caching_it():
    fresh = lru_cache(maxsize=None)(derive_alpha.__wrapped__)
    with pytest.raises(InvalidOrder, match="got True"):
        fresh(True)
    assert type(fresh(1).n) is int and fresh(1).n == 1
    with pytest.raises(InvalidOrder, match="got True"):
        alpha_closed_form(True, 0, 0)


def test_alpha_takes_a_numpy_integer_order():
    family = derive_alpha(np.int64(3))
    assert type(family.n) is int and family.n == 3
    assert family.polys == derive_alpha(3).polys


def hermite_matrix(n: int) -> list:
    """The full (n+1)-square endpoint system: row (end i, order l), column x**k, entry perm(k, l) i**(k-l)."""
    m = (n - 1) // 2
    return [
        [math.perm(k, l) * i ** (k - l) if k >= l else 0 for k in range(n + 1)] for i in (0, 1) for l in range(m + 1)
    ]


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1, 2))
def test_alpha_matches_the_full_hermite_solve(n):
    units = [[int(r == c) for r in range(n + 1)] for c in range(n + 1)]
    polys = [RationalPolynomial(x) for x in solve_linear_system(hermite_matrix(n), units)]
    m = (n - 1) // 2
    assert derive_alpha(n).polys == (tuple(polys[: m + 1]), tuple(polys[m + 1 :]))


@pytest.mark.parametrize("seed", range(4))
def test_solve_hermite_meets_random_endpoint_data(seed):
    rng = random.Random(seed)
    for _ in range(8):
        n = rng.randrange(1, MAX_ORDER + 1, 2)
        rows = [
            [rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-99, 99), rng.randint(1, 60)))) for _ in range(n + 1)]
            for _ in range(rng.randint(1, 4))
        ]
        polys = _solve_hermite(n, rows)
        assert len(polys) == len(rows)
        for row, p in zip(rows, polys):
            assert p.degree <= n
            at_zero, at_one = p.end_derivatives((n + 1) // 2)
            assert at_zero + at_one == row
    assert _solve_hermite(5, [[0] * 6]) == [RationalPolynomial()]


def test_closed_form_examples():
    assert alpha_closed_form(3, 0, 0) == poly(1, 0, -3, 2)
    assert alpha_closed_form(1, 0, 1) == poly(0, 1)
    want = RationalPolynomial.monomial(2, Fraction(1, 2)) * poly(1, -1) ** 3
    assert alpha_closed_form(5, 2, 0) == want


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_closed_form_matches_solved(n):
    fam = derive_alpha(n)
    for i in (0, 1):
        for l in range(fam.m + 1):
            assert alpha_closed_form(n, l, i) == fam.polys[i][l]


def test_closed_form_rejects_order_above_m():
    with pytest.raises(InvalidOrder):
        alpha_closed_form(3, 2, 0)


@pytest.mark.parametrize("bad", [1.0, True, "1"])
def test_closed_form_rejects_an_order_that_is_not_an_integer(bad):
    with pytest.raises(InvalidOrder, match=f"got {bad!r}"):
        alpha_closed_form(5, bad, 0)


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_closed_form_rejects_a_cell_end_that_is_not_an_integer(bad):
    with pytest.raises(ValueError, match=f"got {bad!r}"):
        alpha_closed_form(5, 1, bad)


def test_closed_form_takes_a_numpy_integer_cell_end():
    assert alpha_closed_form(5, 1, np.int64(1)) == alpha_closed_form(5, 1, 1)


# -- node-value basis


def test_beta_54_matches_printed_family():
    beta = derive_beta(SplineKind(5, 4))
    x = RationalPolynomial.monomial(1)
    xm1 = poly(-1, 1)
    half = Fraction(1, 2)
    assert beta.poly(-1) == half * xm1**3 * x * poly(1, 2)
    assert beta.poly(0) == -half * xm1 * poly(2, 2, 0, -9, 6)
    assert beta.poly(1) == half * x * poly(1, 1, 9, -15, 6)
    assert beta.poly(2) == -half * xm1 * x**3 * poly(-3, 2)


def test_beta_14_ignores_outer_nodes():
    beta = derive_beta(SplineKind(1, 4))
    assert beta.poly(-1).is_zero()
    assert beta.poly(0) == poly(1, -1)
    assert beta.poly(1) == poly(0, 1)
    assert beta.poly(2).is_zero()


def test_beta_34_is_catmull_rom():
    beta = derive_beta(SplineKind(3, 4))
    half = Fraction(1, 2)
    x = RationalPolynomial.monomial(1)
    assert beta.poly(-1) == -half * x * poly(1, -1) ** 2
    assert beta.poly(2) == half * x**2 * poly(-1, 1)
    total = RationalPolynomial()
    for off in range(-1, 3):
        total = total + beta.poly(off)
    assert total == RationalPolynomial.constant(1)


@pytest.mark.parametrize("n,q", [(1, 4), (3, 4), (5, 4), (3, 6), (5, 6), (9, 6), (7, 8), (19, 12)])
def test_derivation_routes_agree(n, q):
    kind = SplineKind(n, q)
    assert derive_beta(kind).polys == derive_beta_direct(kind).polys


def test_beta_requires_node_count():
    with pytest.raises(InvalidKind):
        derive_beta(SplineKind(5))
    with pytest.raises(InvalidKind):
        derive_beta_direct(SplineKind(5))


@pytest.mark.parametrize("n,q", [(5, 4), (3, 6), (9, 6), (13, 8)])
def test_validate_family_passes(n, q):
    report = validate_family(derive_beta(SplineKind(n, q)))
    assert report.ok, str(report)


def test_validate_family_catches_partition_defect():
    beta = derive_beta(SplineKind(5, 4))
    polys = list(beta.polys)
    polys[beta.g] = polys[beta.g] + RationalPolynomial.monomial(1)
    report = validate_family(BetaFamily(n=beta.n, q=beta.q, polys=tuple(polys)))
    assert not report.ok
    assert any("partition" in name for name, _ in report.failures())


@pytest.mark.parametrize("n,q", [(3, 4), (5, 6), (9, 6)])
def test_monomial_reproduction_identity(n, q):
    beta = derive_beta(SplineKind(n, q))
    g = beta.g
    for p in range(min(n, 2 * g) + 1):
        assembled = RationalPolynomial()
        for off in range(-g, g + 2):
            assembled = assembled + Fraction(off) ** p * beta.poly(off)
        assert assembled == RationalPolynomial.monomial(p)


def test_degree_bound():
    for n, q in [(5, 4), (9, 6), (19, 12)]:
        beta = derive_beta(SplineKind(n, q))
        assert all(p.degree <= n for p in beta.polys)


# -- float evaluation


def test_beta_eval_at_nodes():
    beta = derive_beta(SplineKind(5, 4))
    assert beta_eval(beta, 0, 0.0) == [0.0, 1.0, 0.0, 0.0]
    assert beta_eval(beta, 0, 1.0) == [0.0, 0.0, 1.0, 0.0]


def test_beta_eval_midpoint():
    # dyadic coefficients at a dyadic point: Horner is exact here
    assert beta_eval(derive_beta(SplineKind(5, 4)), 0, 0.5) == [-0.0625, 0.5625, 0.5625, -0.0625]


def test_beta_eval_rejects_order_above_m():
    with pytest.raises(DerivativeTooHigh):
        beta_eval(derive_beta(SplineKind(3, 4)), 2, 0.3)


@pytest.mark.parametrize("bad", [1.0, True, "1"])
def test_derivative_order_that_is_not_an_integer_is_rejected(bad):
    beta = derive_beta(SplineKind(5, 4))
    with pytest.raises(ValueError, match=f"derivative order {bad!r} is not an integer"):
        beta_eval(beta, bad, 0.3)
    with pytest.raises(ValueError, match=f"derivative order {bad!r} is not an integer"):
        beta.form(bad)


def test_beta_eval_partition_of_unity_in_floats():
    beta = derive_beta(SplineKind(9, 6))
    for k in range(18):
        xi = k / 17
        assert abs(sum(beta_eval(beta, 0, xi)) - 1.0) <= 1e-14


@pytest.mark.parametrize("n,q", [(5, 4), (9, 6)])
def test_horner_tracks_exact_evaluation(n, q):
    beta = derive_beta(SplineKind(n, q))
    for j in range(64):
        x = j / 63
        weights = beta_eval(beta, 0, x)
        for p, w in zip(beta.polys, weights):
            exact = float(p(Fraction(x)))
            assert abs(w - exact) <= 1e-14 * max(1.0, abs(exact))


def test_export_records_roundtrip():
    beta = derive_beta(SplineKind(5, 4))
    records = export_records(beta)
    assert [rec["i"] for rec in records] == [-1, 0, 1, 2]
    for rec in records:
        assert rec["n"] == 5 and rec["q"] == 4
        rebuilt = RationalPolynomial([rational_from_str(c) for c in rec["coeffs_exact"]])
        assert rebuilt == beta.poly(rec["i"])
        assert tuple(rec["coeffs_horner"]) == rebuilt.horner_coeffs()


SUPPORTED_KINDS = [(n, q) for q in range(4, MAX_NODES + 1, 2) for n in range(1, min(2 * q - 3, MAX_ORDER) + 1, 2)]


@pytest.mark.parametrize("n,q", SUPPORTED_KINDS)
def test_beta_direct_matches_the_full_hermite_solve(n, q):
    kind = SplineKind(n, q)
    table = derive_stencil(kind.g)
    impulses = [
        [table.weight(l, node - i) for i in (0, 1) for l in range(kind.m + 1)] for node in range(-kind.g, kind.g + 2)
    ]
    want = tuple(RationalPolynomial(x) for x in solve_linear_system(hermite_matrix(n), impulses))
    assert derive_beta_direct(kind).polys == want


def exact_digest(kinds) -> str:
    """SHA-256 over one "n,q,i:c0,c1,..." line per exported record, kinds in the given order."""
    digest = hashlib.sha256()
    for n, q in kinds:
        for rec in export_records(derive_beta(SplineKind(n, q))):
            digest.update(f"{n},{q},{rec['i']}:{','.join(rec['coeffs_exact'])}\n".encode())
    return digest.hexdigest()


def test_exact_coefficients_are_pinned():
    # every supported kind's coeffs_exact strings, byte for byte: a rewrite of the
    # exact layer (solver, polynomial arithmetic, derivation) must leave them alone
    assert len(SUPPORTED_KINDS) == 34
    assert exact_digest(SUPPORTED_KINDS) == "154537023fb6281018f4627ef9ae9933fd0dcbbbd5c01322382f73476d5413d3"


def loop_horner(arrays, x):
    """The interpreted Horner loop that the compiled kernels unroll: the bitwise oracle."""
    weights = []
    for coeffs in arrays:
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        weights.append(acc)
    return weights


def loop_beta_eval(beta, order, xi):
    return loop_horner(beta.horner_by_order[order], float(xi))


def loop_alpha_weights(alpha, x):
    """Every alpha member by the loop, flat: entry ``2*l + i`` is member (i, l)."""
    return loop_horner([alpha.polys[i][l].horner_coeffs() for l in range(alpha.m + 1) for i in (0, 1)], x)


def bits(values):
    return [struct.pack("<d", v) for v in values]


def oracle_points(seed):
    """Edge cases (in and out of the cell) and 24 seeded points in [0, 1)."""
    edges = [0.0, 1.0, 1 - 2**-53, 5e-324, -0.0, -0.37, float("inf"), float("-inf"), float("nan")]
    return edges + np.random.default_rng(seed).random(24).tolist()


@pytest.mark.parametrize("n,q", SUPPORTED_KINDS)
def test_kernels_match_the_horner_loop_bit_for_bit(n, q):
    beta = derive_beta(SplineKind(n, q))
    points = oracle_points([n, q])
    for order in range(beta.m + 1):
        for x in points:
            assert bits(beta_eval(beta, order, x)) == bits(loop_beta_eval(beta, order, x)), (order, x)
    assert all("kernel" in vars(beta.form(order)) for order in range(beta.m + 1))


@pytest.mark.parametrize("n,q", SUPPORTED_KINDS)
def test_tables_match_the_kernels_bit_for_bit(n, q):
    beta = derive_beta(SplineKind(n, q))
    points = [0.0, 1.0, 1 - 2**-53] + np.random.default_rng([n, q]).random(24).tolist()
    for order in range(beta.m + 1):
        form = beta.form(order)
        acc = np.zeros((q, len(points)))  # evaluate_many's Horner loop, one column per point
        for row in form.table:
            acc = acc * np.array(points) + row[:, None]
        for x, column in zip(points, acc.T):
            assert bits(column.tolist()) == bits(form.kernel(x)), (order, x)


def test_table_pads_unequal_arrays_in_front():
    # the arrays of one beta order share a length, so only this case pads a non-empty array
    arrays = [(1.5, -2.0), (3.0, -1.0, 0.25, 7.0), (-0.5,), (0.125, 4.0, -3.0)]
    form = FrozenForm(arrays)
    assert form.table.shape == (4, 4)
    points = [0.0, 1.0, 1 - 2**-53] + np.random.default_rng(5).random(24).tolist()
    for x in points:
        acc = [0.0] * len(arrays)  # evaluate_many's Horner loop down each column
        for row in form.table:
            acc = [a * x + c for a, c in zip(acc, row.tolist())]
        assert bits(acc) == bits(form.kernel(x)), x


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1, 2))
def test_hermite_weights_match_the_horner_loop_bit_for_bit(n, monkeypatch):
    alpha = derive_alpha(n)
    points = oracle_points([n])
    for x in points:
        assert bits(alpha.form.kernel(x)) == bits(loop_alpha_weights(alpha, x)), x
    # the weights evaluate_hermite hands to its sum, at every point inside the cell
    summed = []
    monkeypatch.setattr(field, "_accumulate", lambda data, gammas: summed.extend(gammas) or 0.0)
    inside = [x for x in points if 0.0 <= x <= 1.0]
    for x in inside:
        evaluate_hermite(lambda orders, node: 0.0, (x,), n)
    assert [bits(w) for w in summed] == [bits(loop_alpha_weights(alpha, x)) for x in inside]


def test_kernel_is_compiled_once_per_order_on_first_use():
    beta = derive_beta.__wrapped__(SplineKind(7, 6))
    kernels = []
    for order in (2, 0, 2, np.int64(2), 0):
        assert bits(beta_eval(beta, order, 0.3)) == bits(loop_beta_eval(beta, int(order), 0.3))
        kernels.append(vars(beta.form(order))["kernel"])
    assert [l for l in range(beta.m + 1) if "kernel" in vars(beta.form(l))] == [0, 2]
    assert kernels[0] is kernels[2] is kernels[3] and kernels[1] is kernels[4]


def test_derivation_and_validation_build_no_kernel(monkeypatch):
    derived = []

    def uncached(derive):  # a fresh family per call: no earlier test's forms can hide a new one
        def derive_fresh(arg):
            derived.append(derive.__wrapped__(arg))
            return derived[-1]

        return derive_fresh

    with monkeypatch.context() as patch:
        patch.setattr(cli, "derive_alpha", uncached(derive_alpha))
        patch.setattr(cli, "derive_beta", uncached(derive_beta))
        assert run_validation(19, 12).ok
    derived += [derive_alpha.__wrapped__(19), derive_beta.__wrapped__(SplineKind(19, 12))]
    assert not [family for family in derived if {"form", "_forms", "horner_by_order"} & vars(family).keys()]

    # a scalar evaluation compiles kernels only, a batched one builds tables only
    kind = SplineKind(5, 4)
    scalar, batched, alpha = derive_beta.__wrapped__(kind), derive_beta.__wrapped__(kind), derive_alpha.__wrapped__(5)
    grid = field.GridField(np.arange(8.0), h=0.125)
    monkeypatch.setattr(field, "derive_beta", lambda kind: scalar)
    monkeypatch.setattr(field, "derive_alpha", lambda n: alpha)
    field.evaluate(grid, (0.3,), kind)
    field.evaluate_derivative(grid, (0.3,), kind, (1,))
    field.partitioned_evaluate(grid, (0.3,), kind, 0, 2)
    evaluate_hermite(lambda orders, node: 1.0, (0.3,), 5)
    monkeypatch.setattr(field, "derive_beta", lambda kind: batched)
    field.evaluate_many(grid, [[0.3], [0.4]], kind, (1,))

    def built(form):
        return "kernel" in vars(form), "table" in vars(form)

    assert [built(scalar.form(l)) for l in (0, 1, 2)] == [(True, False), (True, False), (False, False)]
    assert built(alpha.form) == (True, False)
    assert [built(batched.form(l)) for l in (0, 1, 2)] == [(False, False), (False, True), (False, False)]
