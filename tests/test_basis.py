"""Spline basis families: derivation, closed forms, exact identities."""

import hashlib
import itertools
import math
import random
import re
import struct
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from exact_oracle import family_checks
from gridsplines import basis, cli, field
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
    stacked_table,
    stacked_weights,
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
    assert SplineKind(1, 4).m == 0
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


def test_alpha_cache_keys_a_numpy_integer_order_as_the_int():
    fresh = basis._cached_on_int(derive_alpha.__wrapped__)
    assert fresh(np.int64(3)) is fresh(3) is fresh(np.int32(3))
    assert fresh.cache_info().misses == 1 and fresh.cache_info().hits == 2
    assert derive_alpha(np.int64(3)) is derive_alpha(3)
    assert derive_alpha.__name__ == "derive_alpha" and derive_alpha.__wrapped__(3) == derive_alpha(3)


def test_an_order_the_cache_cannot_hash_reaches_the_derivation_checks():
    with pytest.raises(InvalidOrder, match=r"got \[3\]"):
        derive_alpha([3])
    with pytest.raises(InvalidOrder, match=r"got \[3\]"):
        evaluate_hermite(lambda orders, node: 1.0, (0.5,), [3])
    with pytest.raises(ValueError, match=r"half-width \[2\] is not an integer"):
        derive_stencil([2])


def test_equal_kinds_hash_equal_and_share_one_derivation():
    kind, twin = SplineKind(19, 12), SplineKind(np.int64(19), 12)
    assert kind == twin and kind is not twin and hash(kind) == hash(twin) == hash((19, 12))
    assert repr(kind) == "SplineKind(n=19, q=12)" and str(kind) == "(19,12)"
    derive_beta(kind)
    before = derive_beta.cache_info()
    assert derive_beta(twin) is derive_beta(kind)
    after = derive_beta.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)


def test_a_kind_that_is_not_a_spline_kind_never_reaches_the_cache():
    before = derive_beta.cache_info()
    for kind in ([5, 4], (5, 4), None):
        with pytest.raises(InvalidKind, match=re.escape(f"kind {kind!r} is not a SplineKind")):
            derive_beta(kind)
    assert derive_beta.cache_info() == before


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
            at_zero = [p.derivative(l)(Fraction(0)) for l in range((n + 1) // 2)]
            at_one = [p.derivative(l)(Fraction(1)) for l in range((n + 1) // 2)]
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
    with pytest.raises(InvalidKind, match="got None"):
        SplineKind(5, None)


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


# every kind run_validation(19, 12) checks
VALIDATED_KINDS = [(n, q) for q in range(4, MAX_NODES + 1, 2) for n in range(1, min(2 * q - 3, MAX_ORDER) + 1, 2)]


def test_validate_family_reports_what_the_plain_checks_report_on_every_validated_kind():
    assert len(VALIDATED_KINDS) == 34
    for n, q in VALIDATED_KINDS:
        beta = derive_beta(SplineKind(n, q))
        assert validate_family(beta).checks == family_checks(beta), (n, q)


# x**10 (1 - x)**9: its derivatives of orders 0..9 vanish at x = 0, and of orders 0..8 at x = 1
_FLAT_AT_ZERO = RationalPolynomial.monomial(10) * poly(1, -1) ** 9


@pytest.mark.parametrize(
    "n,q,changes",
    [
        (5, 4, [(0, poly(0, 1))]),  # the centre member plus x, as `validate --inject-defect` does
        (9, 6, [(-2, poly(Fraction(1, 3)))]),  # the far member -g, by a constant
        (5, 4, [(1, RationalPolynomial.monomial(7, -2))]),  # a degree above n
        (13, 8, [(2, RationalPolynomial.monomial(4, Fraction(-5, 7)))]),  # one reflection pair, (-1, 2), breaks
        (9, 6, [(1, poly(0, 0, 0, 1)), (0, poly(1, -3, 3, -1))]),  # x**3 and its mirror: reflection holds
        (13, 8, [(-3, poly(0, Fraction(1, 2))), (3, poly(0, Fraction(-1, 2)))]),  # weight moved: unity holds
        (19, 12, [(0, _FLAT_AT_ZERO), (1, -_FLAT_AT_ZERO)]),  # moved between members: only order-9 data at x = 1
    ],
)
def test_validate_family_reports_what_the_plain_checks_report_on_perturbed_families(n, q, changes):
    beta = derive_beta(SplineKind(n, q))
    polys = list(beta.polys)
    for offset, change in changes:
        polys[offset + beta.g] = polys[offset + beta.g] + change
    perturbed = BetaFamily(n=n, q=q, polys=tuple(polys))
    report = validate_family(perturbed)
    assert not report.ok
    assert report.checks == family_checks(perturbed)


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


def test_monomial_horner_arrays_are_the_rounded_derivative_coefficients():
    # the benchmark counts its flops from these arrays; each is the derivative's exact coefficients, rounded
    for n, q in SUPPORTED_KINDS:
        beta = derive_beta(SplineKind(n, q))
        want = tuple(
            tuple(tuple(float(c) for c in reversed(p.derivative(l).coeffs)) for p in beta.polys) for l in range(beta.m + 1)
        )
        got = beta.horner_by_order
        assert [[list(map(float.hex, node)) for node in order] for order in got] == [
            [list(map(float.hex, node)) for node in order] for order in want
        ], (n, q)


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


@lru_cache(maxsize=None)
def paired_parts(members, order):
    """(E, O) per member, straight from the exact layer: p^(order)(1/2 + t) = E(t*t) + t O(t*t), floats degree-descending."""
    parts = []
    for p in members:
        coeffs = p.compose_affine(1, Fraction(1, 2)).derivative(order).coeffs  # ascending powers of t
        parts.append(([float(c) for c in coeffs[0::2]][::-1], [float(c) for c in coeffs[1::2]][::-1]))
    return parts


def loop_horner(coeffs, s):
    """Horner from the leading coefficient; 0.0 for no coefficients."""
    if not coeffs:
        return 0.0
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * s + c
    return acc


def loop_paired(members, signs, order, x):
    """The interpreted loop of the paired scheme that the compiled kernels unroll: the bitwise oracle.

    Members first, then the mirrors in reverse pair order.
    """
    t = x - 0.5
    s = t * t
    lower, mirror = [], []
    for (even, odd), sign in zip(paired_parts(members, order), signs):
        e = loop_horner(even, s)
        o = t * loop_horner(odd, s)
        lower.append(e + o)
        mirror.append(e - o if sign > 0 else o - e)
    return lower + mirror[::-1]


def loop_beta_eval(beta, order, xi):
    lower = beta.polys[: beta.g + 1]
    return loop_paired(lower, [(-1) ** order] * len(lower), order, float(xi))


def loop_alpha_weights(alpha, x):
    """Every alpha member by the loop: entry l <= m is member (0, l), entry 2m + 1 - l is member (1, l)."""
    return loop_paired(alpha.polys[0], [(-1) ** l for l in range(alpha.m + 1)], 0, x)


def stacked_loop(forms, points):
    """evaluate_many's per-point Horner stage for one form per axis, all at the given points."""
    rows, odd = stacked_table(forms)
    x = np.array([points] * len(forms), dtype=np.float64)
    out = np.empty((len(forms), rows.shape[2], len(points)))
    stacked_weights(rows, odd, x, out, np.empty(x.size + out.size))
    return out


def bits(values):
    return [struct.pack("<d", v) for v in values]


def oracle_points(seed):
    """Edge cases (in and out of the cell), points in [0, 0.25) where x - 0.5 rounds, and seeded points in [0, 1)."""
    edges = [0.0, 1.0, 1 - 2**-53, 5e-324, -0.0, 0.25, 0.5, -0.37, float("inf"), float("-inf"), float("nan")]
    rng = np.random.default_rng(seed)
    return edges + (rng.random(8) / 4).tolist() + rng.random(16).tolist()


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
    points = [x for x in oracle_points([n, q, 1]) if 0.0 <= x <= 1.0]
    for order in range(beta.m + 1):
        form = beta.form(order)
        # the table alone, and beside every other order's (padded in front to the longest table)
        for forms in ([form], [form, beta.form(0), beta.form(beta.m)]):
            weights = stacked_loop(forms, points)[0]
            for x, column in zip(points, weights.T):
                assert bits(column.tolist()) == bits(form.kernel(x)), (order, x)


def test_table_pads_unequal_arrays_in_front():
    # E and O of unequal lengths, a constant (no O) and the zero polynomial (neither)
    members = [poly(3, -2, 5), poly(Fraction(7, 3)), poly(-1, 4, 0, 1), poly()]
    form = FrozenForm(members, (1, -1, -1, 1))
    assert [(len(e), len(o)) for e, o in form.parts] == [(2, 1), (1, 0), (2, 2), (0, 0)]
    rows, odd = stacked_table([form])
    assert rows.shape == (2, 1, 8, 1) and odd == (False,) and not rows.flags.writeable
    assert rows[0, 0, :4, 0].tolist() == [form.parts[0][0][0], 0.0, form.parts[2][0][0], 0.0]
    points = [x for x in oracle_points(5) if 0.0 <= x <= 1.0]
    for x in points:
        assert bits(form.kernel(x)) == bits(loop_paired(tuple(members), form.signs, 0, x)), x
        # the classic loop from 0.0 down each padded column, then the pairing: padding leaves +0.0
        t = x - 0.5
        s = t * t
        acc = [0.0] * 8
        for row in rows[:, 0, :, 0]:
            acc = [a * s + c for a, c in zip(acc, row.tolist())]
        e, o = acc[:4], [t * v for v in acc[4:]]
        mirrors = [a - b if sign > 0 else b - a for a, b, sign in zip(e, o, form.signs)]
        assert bits([a + b for a, b in zip(e, o)] + mirrors[::-1]) == bits(form.kernel(x)), x


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1, 2))
def test_hermite_weights_match_the_horner_loop_bit_for_bit(n):
    alpha = derive_alpha(n)
    points = oracle_points([n])
    for x in points:
        assert bits(alpha.form.kernel(x)) == bits(loop_alpha_weights(alpha, x)), x
    # the weights evaluate_hermite sums, at every point inside the cell: a provider that is 1.0 on one member and
    # 0.0 on every other returns that member's weight, exactly, after the 0.0 the sum starts from (which turns a
    # -0.0 weight into +0.0)
    walk = [((l,), (0,)) for l in range(alpha.m + 1)] + [((l,), (1,)) for l in range(alpha.m, -1, -1)]
    for x in [x for x in points if 0.0 <= x <= 1.0]:
        weights = [0.0 + w for w in loop_alpha_weights(alpha, x)]
        found = [evaluate_hermite(lambda orders, node, i=i: float((orders, node) == i), (x,), n) for i in walk]
        assert bits(found) == bits(weights), x


def loop_sum(values, gammas):
    """The sum the evaluators unroll, as loops: the row-major values in rows of the last axis's length, each row
    times that axis's gammas summed in index order from 0.0, then the same over the row sums axis by axis, last
    axis first, down to one number.  An empty slab gives 0.0."""
    sums = list(values)
    if not sums:
        return 0.0
    for gamma in reversed(gammas):
        rows = []
        for start in range(0, len(sums), len(gamma)):
            acc = 0.0
            for v, w in zip(sums[start : start + len(gamma)], gamma):
                acc += v * w
            rows.append(acc)
        sums = rows
    return sums[0]


# (kind, extents, boundary): D = 1..4 and q = 4..12; the periodic grids are smaller than q, so every patch wraps
EVALUATOR_CASES = [
    ((19, 12), (8,), field.PERIODIC),
    ((11, 8), (30,), field.STRICT),
    ((9, 6), (5, 4), field.PERIODIC),
    ((15, 10), (14, 12), field.STRICT),
    ((5, 4), (3, 2, 3), field.PERIODIC),
    ((19, 12), (13, 12, 14), field.STRICT),
    ((3, 4), (3, 2, 2, 3), field.PERIODIC),
    ((13, 8), (9, 8, 9, 8), field.STRICT),
    ((19, 12), (3, 2, 2, 2), field.PERIODIC),
]


@pytest.mark.parametrize("kind,extents,boundary", EVALUATOR_CASES)
def test_scalar_entries_match_the_loop_bit_for_bit(kind, extents, boundary):
    kind = SplineKind(*kind)
    beta = derive_beta(kind)
    rng = np.random.default_rng([kind.q, *extents])
    h = tuple(rng.uniform(0.1, 2.0, len(extents)))
    grid = field.GridField(rng.standard_normal(extents), h=h, boundary=boundary)
    low = [kind.g if boundary == field.STRICT else -3 * d for d in extents]  # the cells where a strict stencil fits
    high = [d - kind.g - 2 if boundary == field.STRICT else 3 * d for d in extents]

    def want(cell, frac, orders):
        values = field.gather_local(grid, cell, kind.g).values.ravel().tolist()
        scale = 1.0
        for h, l in zip(grid.h, orders):
            scale *= h**-l
        return loop_sum(values, [loop_beta_eval(beta, l, x) for l, x in zip(orders, frac)]) * scale

    for trial in range(3):
        cell = [int(rng.integers(a, b + 1)) for a, b in zip(low, high)]
        point = tuple((c + x) * h for c, x, h in zip(cell, rng.random(len(cell)), grid.h))
        orders = tuple(rng.integers(0, beta.m + 1, len(cell)).tolist())  # mixed orders
        cc = field.grid_coordinates(point, grid)
        assert bits([field.evaluate_derivative(grid, point, kind, orders)]) == bits([want(*cc, orders)]), point
        # the cell ends too: a fraction 1.0 is the limit from the left, and Fractions are read as floats
        frac = [[1.0, 0.0, Fraction(1, 3)][(trial + j) % 3] for j in range(len(cell))]
        got = field.evaluate_at_cell(grid, cell, frac, kind, orders)
        assert bits([got]) == bits([want(cell, [float(x) for x in frac], orders)]), (cell, frac)
        # one evaluator per tuple of forms, compiled on the first call and reused
        forms = tuple(beta.form(l) for l in orders)
        evaluator = forms[0].tensors[forms].evaluator
        field.evaluate_derivative(grid, point, kind, orders)
        assert forms[0].tensors[forms].evaluator is evaluator
        # each part of a partition is the slab's own sum, in the same order
        axis = trial % len(cell)
        gammas = [loop_beta_eval(beta, 0, x) for x in cc.frac]
        patch = field.gather_local(grid, cc.cell, kind.g).values
        for cut in (0, int(rng.integers(1, kind.q)), kind.q):
            parts = field.partitioned_evaluate(grid, point, kind, axis, cc.cell[axis] - kind.g + cut)
            sums = []
            for slab in (slice(None, cut), slice(cut, None)):
                values = patch[(slice(None),) * axis + (slab,)].ravel().tolist()
                sums.append(loop_sum(values, gammas[:axis] + [gammas[axis][slab]] + gammas[axis + 1 :]))
            assert bits(parts) == bits(sums), (axis, cut)


@pytest.mark.parametrize("n,dims", [(19, 1), (9, 2), (5, 3), (3, 4)])
def test_hermite_matches_the_loop_bit_for_bit(n, dims):
    alpha = derive_alpha(n)
    walk = [(l, 0) for l in range(alpha.m + 1)] + [(l, 1) for l in range(alpha.m, -1, -1)]
    rng = np.random.default_rng([n, dims])
    data = {}

    def provider(orders, node):
        return data.setdefault((orders, node), float(rng.standard_normal()))

    for point in [(1.0, 0.0, 0.5, 1 / 3)[:dims]] + rng.random((4, dims)).tolist():
        got = evaluate_hermite(provider, point, n)
        values = [data[tuple(zip(*index))] for index in itertools.product(walk, repeat=dims)]
        assert bits([got]) == bits([loop_sum(values, [loop_alpha_weights(alpha, x) for x in point])]), point


def test_one_sided_limits_at_a_cell_end_use_the_kernel_at_one():
    # frac = 1.0 in the left cell is the limit from the left at the node; its weights are the kernel's at 1.0
    kind = SplineKind(19, 12)
    beta = derive_beta(kind)
    grid = field.GridField(np.random.default_rng(2).standard_normal(40), h=0.025)
    values = grid.data[np.arange(7 - beta.g, 7 + beta.g + 2) % 40].tolist()
    for order in range(beta.m + 1):
        left = field.evaluate_at_cell(grid, (7,), (1.0,), kind, (order,))
        want = 0.0
        for v, w in zip(values, loop_beta_eval(beta, order, 1.0)):
            want += v * w
        want *= grid.h[0] ** -order
        assert bits([left]) == bits([want]), order
        right = field.evaluate_at_cell(grid, (8,), (0.0,), kind, (order,))
        assert abs(left - right) <= 1e-12 * max(1.0, abs(right)) * 40.0**order, order


def exact_at(poly, x: float) -> Fraction:
    """poly at the float x, exactly, by integer Horner over x's dyadic ratio."""
    a, b = x.as_integer_ratio()
    den = math.lcm(*(c.denominator for c in poly.coeffs), 1)
    acc = 0
    for k, c in enumerate(reversed(poly.coeffs)):
        acc = acc * a + c.numerator * (den // c.denominator) * b**k
    return Fraction(acc, den * b ** max(poly.degree, 0))


# Measured maxima of |float - exact| / weight scale over all 34 kinds (2-vCPU Xeon, CPython 3.11;
# pure Python float arithmetic, so the same on every IEEE-754 machine): 2.7e-16 at order 0,
# 2.4e-15 at 1, 2.1e-14 at 2, 2.3e-13 at 3..9 ((19,12), order 4).  The bounds leave a margin of 4x or more.
def weight_error_bound(order: int) -> float:
    return 1e-15 * 10 ** min(order, 3)


@pytest.mark.parametrize("n,q", SUPPORTED_KINDS)
def test_float_weights_track_the_exact_layer_at_every_order(n, q):
    beta = derive_beta(SplineKind(n, q))
    points = [0.0, 0.25, 0.5, 1.0, 1 - 2**-53] + np.random.default_rng([n, q, 2]).random(24).tolist()
    for order in range(beta.m + 1):
        polys = [p.derivative(order) for p in beta.polys]
        exact = [[exact_at(p, x) for p in polys] for x in points]
        scale = max(abs(v) for row in exact for v in row)  # the weight scale: largest exact weight
        err = max(abs(Fraction(w) - v) for x, row in zip(points, exact) for w, v in zip(beta_eval(beta, order, x), row))
        assert float(err / scale) <= weight_error_bound(order), (order, float(err / scale), float(scale))


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

    # a scalar evaluation compiles the evaluator of its forms (on the parts) and no kernel; a batched one builds
    # the parts and the table of its forms only
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
        tensor = vars(form.tensors[(form,)]) if (form,) in form.tensors else {}
        return "kernel" in vars(form), "parts" in vars(form), "evaluator" in tensor, "table" in tensor

    assert [built(scalar.form(l)) for l in (0, 1, 2)] == [(False, True, True, False)] * 2 + [(False,) * 4]
    assert [len(scalar.form(l).tensors) for l in (0, 1, 2)] == [1, 1, 0]
    assert built(alpha.form) == (False, True, True, False)
    assert [built(batched.form(l)) for l in (0, 1, 2)] == [(False,) * 4, (False, True, False, True), (False,) * 4]
