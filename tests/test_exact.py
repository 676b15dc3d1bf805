"""Exact arithmetic layer: polynomials, matrices, linear solves."""

import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsplines.basis import SplineKind, derive_beta
from gridsplines.errors import SingularMatrix
from gridsplines.exact import (
    RationalPolynomial,
    rational_from_str,
    rational_to_str,
    solve_linear_system,
    weighted_sum,
)


def test_identity_solve():
    b = [Fraction(1), Fraction(1, 2), Fraction(-3)]
    identity = [[int(r == c) for c in range(3)] for r in range(3)]
    assert solve_linear_system(identity, b) == b


def test_vandermonde_solve_linear_data():
    # interpolation nodes 0, 1, -1 with data from f(x) = x: the quadratic
    # coefficients are (0, 1, 0), worked out by hand elimination
    A = [[1, 0, 0], [1, 1, 1], [1, -1, 1]]
    assert solve_linear_system(A, [0, 1, -1]) == [0, 1, 0]


def test_rank_deficient_raises():
    with pytest.raises(SingularMatrix):
        solve_linear_system([[1, 1], [2, 2]], [1, 3])


def test_random_solve_roundtrip():
    rng = random.Random(12)
    solved = 0
    while solved < 25:
        size = rng.randint(1, 6)
        A = [[Fraction(rng.randint(-5, 5)) for _ in range(size)] for _ in range(size)]
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]
        b = [sum(A[r][c] * x[c] for c in range(size)) for r in range(size)]
        try:
            got = solve_linear_system(A, b)
        except SingularMatrix:
            continue
        assert got == x
        solved += 1


# derandomized, so that the suite gives the same verdict on every run
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
small_ints = st.integers(-5, 5)
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
entries = st.one_of(small_ints, rationals)


@st.composite
def nonsingular_matrices(draw):
    """P*L*U: unit lower L, upper U with a nonzero diagonal, rows permuted so pivoting is exercised.

    Entries are integers or non-integer rationals.  Rows 1..zeros of L start
    with 0, so those rows of the product do too; half the time they are moved
    to the top, and then the first pivot needs a row swap.
    """
    size = draw(st.integers(1, 8))
    zeros = draw(st.integers(0, size - 1))
    lower = [
        [0 if c == 0 < r <= zeros else draw(entries) if c < r else int(c == r) for c in range(size)]
        for r in range(size)
    ]
    upper = [
        [draw(entries.filter(bool)) if c == r else draw(entries) if c > r else 0 for c in range(size)]
        for r in range(size)
    ]
    product = [[sum(lower[r][k] * upper[k][c] for k in range(size)) for c in range(size)] for r in range(size)]
    rows = draw(st.permutations(product))
    if draw(st.booleans()):
        rows.sort(key=lambda row: row[0] != 0)
    return rows


@PROPERTY
@given(st.data())
def test_multi_rhs_solve_matches_single_solves(data):
    A = data.draw(nonsingular_matrices())
    size = len(A)
    rhs = data.draw(st.lists(st.lists(rationals, min_size=size, max_size=size), min_size=1, max_size=5))
    solutions = solve_linear_system(A, rhs)
    assert len(solutions) == len(rhs)
    for b, x in zip(rhs, solutions):
        assert [sum(A[r][c] * x[c] for c in range(size)) for r in range(size)] == b
        assert x == solve_linear_system(A, b)


def test_array_rows_are_several_right_hand_sides():
    A = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    rhs = [[1, 0, 0], [0, 1, 0], [Fraction(1, 2), 2, -1]]
    want = solve_linear_system(A, rhs)
    # a 2-D array, or a list of 1-D arrays, is one right-hand side per row; a 1-D array is one right-hand side
    assert solve_linear_system(A, np.array([[1, 0, 0], [0, 1, 0], [0.5, 2, -1]])) == want
    assert solve_linear_system(A, [np.array(b, dtype=object) for b in rhs]) == want
    assert solve_linear_system(A, np.array(rhs[0])) == want[0]


@PROPERTY
@given(st.data())
def test_singular_matrix_raises_in_both_forms(data):
    size = data.draw(st.integers(1, 8))
    A = data.draw(st.lists(st.lists(small_ints, min_size=size, max_size=size), min_size=size, max_size=size))
    # the last row is a combination of the others (zero when size is 1), so A is singular
    weights = data.draw(st.lists(small_ints, min_size=size - 1, max_size=size - 1))
    A[-1] = [sum(w * row[c] for w, row in zip(weights, A[:-1])) for c in range(size)]
    rhs = [[1] * size, list(range(size))]
    with pytest.raises(SingularMatrix):
        solve_linear_system(A, rhs[0])
    with pytest.raises(SingularMatrix):
        solve_linear_system(A, rhs)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        solve_linear_system([[1, 2, 3], [4, 5, 6]], [1, 2])


def test_power_rule():
    assert RationalPolynomial.monomial(3).derivative(2) == RationalPolynomial.monomial(1, 6)


BAD_COUNTS = [-1, -2, True, False, 1.5, 2.0, Fraction(1, 2), "2"]


@pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
def test_bad_power_or_order_is_rejected_by_name(bad):
    p = RationalPolynomial((1, 2, 3))
    message = f"{bad!r} is not an integer >= 0"
    with pytest.raises(ValueError, match=f"^power {re.escape(message)}$"):
        RationalPolynomial.monomial(bad)
    with pytest.raises(ValueError, match=f"^power {re.escape(message)}$"):
        RationalPolynomial.monomial(bad, 3)
    with pytest.raises(ValueError, match=f"^power {re.escape(message)}$"):
        p**bad
    with pytest.raises(ValueError, match=f"^derivative order {re.escape(message)}$"):
        p.derivative(bad)


def test_numpy_integer_power_and_order_are_accepted():
    p = RationalPolynomial((1, 2, 3))
    assert RationalPolynomial.monomial(np.int64(2), 3) == RationalPolynomial((0, 0, 3))
    assert p ** np.int64(2) == p * p
    assert p.derivative(np.int64(1)) == RationalPolynomial((2, 6))
    assert p ** 0 == RationalPolynomial.constant(1)
    assert p.derivative(0) == p


def test_derivative_of_constant():
    assert RationalPolynomial.constant(5).derivative(1).is_zero()


def test_derivative_two_terms():
    p = RationalPolynomial.monomial(5, 2) - RationalPolynomial.monomial(2, 3)
    want = RationalPolynomial.monomial(4, 10) - RationalPolynomial.monomial(1, 6)
    assert p.derivative(1) == want


def test_derivative_composes():
    rng = random.Random(3)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(rng.randint(0, 8))]
        p = RationalPolynomial(coeffs)
        assert p.derivative(1).derivative(1) == p.derivative(2)


def test_eval_at_root():
    p = RationalPolynomial((-1, 0, 1))  # x^2 - 1
    assert p(Fraction(1)) == 0


def test_eval_outer_quintic_weight_at_half():
    # 1/2 (x-1)^3 x (2x+1) evaluated at 1/2 is -1/16
    p = (
        RationalPolynomial((-1, 1)) ** 3
        * RationalPolynomial.monomial(1)
        * RationalPolynomial((1, 2))
        * Fraction(1, 2)
    )
    assert p(Fraction(1, 2)) == Fraction(-1, 16)


def test_eval_zero_polynomial():
    assert RationalPolynomial()(Fraction(7, 3)) == 0


def test_polynomial_text_forms():
    assert repr(RationalPolynomial([1, Fraction(1, 2)])) == "RationalPolynomial((Fraction(1, 1), Fraction(1, 2)))"
    assert str(RationalPolynomial([1, 0, Fraction(-3, 4)])) == "(1) + (-3/4)*x^2"
    assert str(RationalPolynomial()) == "0"


def test_polynomial_arithmetic_with_a_number_is_not_implemented():
    p = RationalPolynomial([1, 2])
    for op in (lambda: p + 1, lambda: p - 1, lambda: 1 + p):
        with pytest.raises(TypeError):
            op()
    assert (p == 1) is False and (p != 1) is True
    assert p * 2 == RationalPolynomial([2, 4])  # a rational scalar is the one number * takes


def test_canonical_form_idempotent():
    once = RationalPolynomial((1, 0, 2, 0, 0))
    twice = RationalPolynomial(once.coeffs)
    assert once == twice
    assert once.coeffs == (1, 0, 2)


def test_reflection_of_cube():
    assert RationalPolynomial.monomial(3).reflected() == RationalPolynomial((1, -3, 3, -1))


def test_compose_affine_matches_direct_eval():
    rng = random.Random(9)
    for _ in range(10):
        p = RationalPolynomial([rng.randint(-3, 3) for _ in range(6)])
        a, b = Fraction(rng.randint(1, 4), 3), Fraction(rng.randint(-5, 5))
        q = p.compose_affine(a, b)
        for x in (Fraction(0), Fraction(2, 7), Fraction(-1)):
            assert q(x) == p(a * x + b)


def binomial_compose_affine(p, scale, offset):
    """The x**j coefficient as the binomial double sum: sum_k binom(k, j) c_k scale**j offset**(k-j)."""
    scale, offset, c = Fraction(scale), Fraction(offset), p.coeffs
    return RationalPolynomial(
        [scale**j * sum(math.comb(k, j) * c[k] * offset ** (k - j) for k in range(j, len(c))) for j in range(len(c))]
    )


@pytest.mark.parametrize("n,q", [(19, 12), (13, 8)])
def test_taylor_shift_matches_the_binomial_sum_on_beta_polynomials(n, q):
    polys = derive_beta(SplineKind(n, q)).polys + (RationalPolynomial(),)
    for scale, offset in [(-1, 1), (1, Fraction(1, 2)), (Fraction(3, 7), Fraction(-5, 3))]:
        for p in polys:
            assert p.compose_affine(scale, offset) == binomial_compose_affine(p, scale, offset)


# The integer kernels below are checked against the same arithmetic done
# directly on Fractions, one coefficient at a time.


polynomials = st.lists(entries, max_size=9).map(RationalPolynomial)
scalars = st.one_of(st.integers(-3, 3), rationals)


def _fraction_product(a, b) -> list:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fraction_derivative(coeffs) -> list:
    return [k * c for k, c in enumerate(coeffs) if k]


@PROPERTY
@given(polynomials, polynomials)
def test_product_matches_fraction_arithmetic(p, q):
    assert (p * q) == RationalPolynomial(_fraction_product(p.coeffs, q.coeffs))


@PROPERTY
@given(polynomials, scalars, scalars)
def test_compose_affine_matches_fraction_arithmetic(p, scale, offset):
    # sum_k c_k (scale*x + offset)**k, expanding the power by repeated products
    want, power = [], [Fraction(1)]
    for c in p.coeffs:
        want = [a + c * b for a, b in itertools.zip_longest(want, power, fillvalue=Fraction(0))]
        power = _fraction_product(power, [Fraction(offset), Fraction(scale)])
    assert p.compose_affine(scale, offset) == RationalPolynomial(want)


@PROPERTY
@given(st.lists(st.tuples(polynomials, st.one_of(st.just(0), scalars)), max_size=8))
def test_weighted_sum_matches_fraction_arithmetic(terms):
    want = []
    for p, w in terms:
        want = [a + w * b for a, b in itertools.zip_longest(want, p.coeffs, fillvalue=Fraction(0))]
    got = weighted_sum([p for p, _ in terms], [w for _, w in terms])
    assert got == RationalPolynomial(want)


@PROPERTY
@given(polynomials, st.integers(0, 12))
def test_derivatives_match_fraction_arithmetic(p, orders):
    coeffs = list(p.coeffs)
    for l in range(orders):
        assert p.derivative(l) == RationalPolynomial(coeffs)
        coeffs = _fraction_derivative(coeffs)
    assert p.horner_coeffs() == tuple(float(c) for c in reversed(p.coeffs))


# One stored form: every route to a polynomial lands on the same integers,
# and the Fraction view is the lowest-terms, zero-stripped coefficient list.


def _fraction_coeffs(values) -> tuple:
    out = [Fraction(v) for v in values]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _assert_lowest_terms(p):
    assert all(type(c) is Fraction for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    assert p.degree == len(p.coeffs) - 1


@PROPERTY
@given(polynomials, polynomials, st.one_of(scalars, st.just(Fraction(0))))
def test_linear_operations_match_fraction_arithmetic(p, q, c):
    pairs = list(itertools.zip_longest(p.coeffs, q.coeffs, fillvalue=Fraction(0)))
    cases = [
        (p + q, [a + b for a, b in pairs]),
        (p - q, [a - b for a, b in pairs]),
        (-p, [-a for a in p.coeffs]),
        (c * p, [c * a for a in p.coeffs]),
        (p * c, [a * c for a in p.coeffs]),
    ]
    for got, want in cases:
        assert got.coeffs == _fraction_coeffs(want)
        _assert_lowest_terms(got)
    assert p - p == RationalPolynomial()
    assert (p - p).coeffs == () and (p - p).degree == -1


@PROPERTY
@given(st.lists(entries, max_size=9), st.integers(0, 3), rationals.filter(bool))
def test_every_route_to_a_polynomial_gives_one_value_and_hash(raw, zeros, c):
    p = RationalPolynomial(raw)
    routes = [
        RationalPolynomial(raw + [0] * zeros),
        RationalPolynomial([Fraction(v) for v in raw]),
        RationalPolynomial(p.coeffs),
        p + RationalPolynomial(),
        (p * c) * (1 / c),
        p.compose_affine(1, 0),
        weighted_sum([p, p], [2, -1]),
    ]
    for other in routes:
        assert other == p
        assert hash(other) == hash(p)
        assert other.coeffs == p.coeffs == _fraction_coeffs(raw)
    assert len({p, *routes}) == 1
    _assert_lowest_terms(p)


def test_coeffs_are_built_only_when_read():
    p = RationalPolynomial([Fraction(1, 2), 3]) * RationalPolynomial([1, Fraction(-2, 3)])
    p = (p + p.derivative(1)).compose_affine(Fraction(1, 2), 1)
    assert "coeffs" not in vars(p)
    assert p == RationalPolynomial(p.coeffs)
    assert "coeffs" in vars(p)


def test_rational_strings():
    assert rational_to_str(Fraction(-3, 2)) == "-3/2"
    assert rational_from_str("-3/2") == Fraction(-3, 2)
    assert rational_to_str(Fraction(4)) == "4/1"
    assert rational_from_str("4") == 4


def test_rational_with_a_zero_denominator_is_a_value_error_naming_it():
    with pytest.raises(ValueError, match=re.escape("rational '1/0' has a zero denominator")):
        rational_from_str("1/0")


@pytest.mark.parametrize("bad", [None, 1j, float("nan"), float("inf"), "1/0", "x"])
def test_a_value_that_is_not_rational_is_a_value_error_naming_it(bad):
    # every exact entry reads its numbers with the one rational reader
    p = RationalPolynomial([1, 2])
    entries = [lambda: RationalPolynomial([bad]), lambda: p.compose_affine(bad, 1)]
    entries += [lambda: solve_linear_system([[bad]], [1]), lambda: rational_from_str(bad)]
    if bad is not None:  # weighted_sum skips a falsy weight as a zero one before reading it
        entries.append(lambda: weighted_sum((p, p), (1, bad)))
    for entry in entries:
        with pytest.raises(ValueError, match=re.escape(f"rational {bad!r} ")):
            entry()


def test_matrix_shape_validation():
    with pytest.raises(ValueError, match="square"):
        solve_linear_system([[1, 2], [3]], [1, 2])
    with pytest.raises(ValueError, match="right-hand side length"):
        solve_linear_system([[1, 2], [3, 4]], [1, 2, 3])
    with pytest.raises(ValueError, match="right-hand side length"):
        solve_linear_system([[1, 2], [3, 4]], [[1, 2], [3]])
