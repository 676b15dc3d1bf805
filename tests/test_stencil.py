"""Centered-difference weight derivation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gridsplines.stencil import derive_stencil


def test_first_order_row_g1():
    assert derive_stencil(1).coeffs[1] == (Fraction(-1, 2), Fraction(0), Fraction(1, 2))


def test_second_order_row_g1():
    assert derive_stencil(1).coeffs[2] == (Fraction(1), Fraction(-2), Fraction(1))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_value_row_is_delta(g):
    st = derive_stencil(g)
    assert st.coeffs[0] == tuple(Fraction(int(k == g)) for k in range(2 * g + 1))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_derivative_rows_sum_to_zero(g):
    st = derive_stencil(g)
    for order in range(1, 2 * g + 1):
        assert sum(st.coeffs[order]) == 0


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_parity(g):
    st = derive_stencil(g)
    for order in range(2 * g + 1):
        for k in range(-g, g + 1):
            assert st.weight(order, -k) == (-1) ** order * st.weight(order, k)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_exact_on_low_degree_monomials(g):
    # row l applied to x**p sampled on the nodes returns the exact order-l
    # derivative of x**p at 0: p! when l == p, zero otherwise (p <= 2g)
    st = derive_stencil(g)
    for p in range(2 * g + 1):
        samples = [Fraction(k) ** p for k in range(-g, g + 1)]
        for order in range(2 * g + 1):
            want = Fraction(math.factorial(p)) if order == p else Fraction(0)
            assert sum(c * v for c, v in zip(st.coeffs[order], samples)) == want


def test_weight_outside_range_is_zero():
    st = derive_stencil(2)
    assert st.weight(1, 3) == 0
    assert st.weight(1, -5) == 0


def test_invalid_half_width():
    with pytest.raises(ValueError):
        derive_stencil(0)


@pytest.mark.parametrize(
    "order,offset,named",
    [
        (-1, 0, "difference order -1 is not an integer in 0..4"),
        (5, 0, "difference order 5 is not an integer in 0..4"),
        (1.0, 0, "difference order 1.0 is not an integer in 0..4"),
        (True, 0, "difference order True is not an integer in 0..4"),
        (1, 0.5, "node offset 0.5 is not an integer"),
        (1, True, "node offset True is not an integer"),
        (1, "0", "node offset '0' is not an integer"),
    ],
)
def test_weight_rejects_bad_arguments(order, offset, named):
    with pytest.raises(ValueError, match=named):
        derive_stencil(2).weight(order, offset)


def test_weight_accepts_numpy_integers():
    st = derive_stencil(2)
    assert st.weight(np.int64(1), np.int32(-2)) == st.weight(1, -2)
    assert st.weight(np.int64(4), np.int64(7)) == 0


@pytest.mark.parametrize("g", [True, 1.5, 2.0, "2", 0, -1])
def test_half_width_that_is_not_a_positive_integer_is_rejected(g):
    with pytest.raises(ValueError, match=f"stencil half-width {g!r} is not an integer >= 1"):
        derive_stencil(g)
