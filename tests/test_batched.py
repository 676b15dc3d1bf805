"""evaluate_many against the scalar path it vectorises: bit for bit, errors included."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsplines.basis import SplineKind
from gridsplines.errors import OutOfDomain
from gridsplines.field import (
    CHUNK_TERMS,
    PERIODIC,
    STRICT,
    GridField,
    evaluate,
    evaluate_derivative,
    evaluate_many,
)

KINDS = [(3, 4), (5, 4), (9, 6), (19, 12)]

# derandomized, so that the suite gives the same verdict on every run
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def cases(draw, boundary):
    """A random field, kind, derivative orders and points, some negative or several periods out."""
    ndim = draw(st.integers(1, 3))
    n, q = draw(st.sampled_from(KINDS))
    kind = SplineKind(n, q)
    dims = tuple(draw(st.integers(1, 14)) for _ in range(ndim))
    h = tuple(draw(st.sampled_from([1.0, 0.5, 0.1, 1 / 3, 2.5])) for _ in range(ndim))
    seed = draw(st.integers(0, 2**32 - 1))
    field = GridField(np.random.default_rng(seed).standard_normal(dims), h=h, boundary=boundary)
    orders = tuple(draw(st.integers(0, kind.m)) for _ in range(ndim))
    extents = [d * hj for d, hj in zip(dims, h)]
    count = draw(st.integers(0, 8))
    points = [
        tuple(draw(st.floats(-3.0 * e, 3.0 * e, allow_nan=False)) for e in extents) for _ in range(count)
    ]
    return field, kind, orders, np.array(points, dtype=np.float64).reshape(count, ndim)


@PROPERTY
@given(cases(PERIODIC))
def test_periodic_batched_equals_scalar(case):
    field, kind, orders, points = case
    want = [evaluate_derivative(field, tuple(p), kind, orders) for p in points]
    assert _bits(evaluate_many(field, points, kind, orders)) == _bits(want)
    values = [evaluate(field, tuple(p), kind) for p in points]
    assert _bits(evaluate_many(field, points, kind)) == _bits(values)


def _scalar_or_error(field, point, kind, orders):
    try:
        return evaluate_derivative(field, point, kind, orders), None
    except OutOfDomain as exc:
        return None, str(exc)


@PROPERTY
@given(cases(STRICT))
def test_strict_batched_raises_for_the_same_points(case):
    field, kind, orders, points = case
    results = [_scalar_or_error(field, tuple(p), kind, orders) for p in points]
    for p, (value, error) in zip(points, results):
        if error is None:
            assert _bits(evaluate_many(field, p[None, :], kind, orders)) == _bits([value])
        else:
            with pytest.raises(OutOfDomain):
                evaluate_many(field, p[None, :], kind, orders)
    errors = [error for _, error in results if error is not None]
    if errors:
        with pytest.raises(OutOfDomain) as info:
            evaluate_many(field, points, kind, orders)
        assert str(info.value) == errors[0]  # the first bad point is the one reported
    else:
        assert _bits(evaluate_many(field, points, kind, orders)) == _bits([v for v, _ in results])


@pytest.mark.parametrize("n,q,ndim", [(5, 4, 3), (19, 12, 2), (9, 6, 1)])
def test_chunk_boundaries(n, q, ndim):
    kind = SplineKind(n, q)
    step = CHUNK_TERMS // q**ndim
    rng = np.random.default_rng(7)
    field = GridField(rng.standard_normal((13,) * ndim), h=(0.5,) * ndim)
    points = rng.uniform(-13.0, 26.0, size=(step + 1, ndim))
    orders = (kind.m,) + (0,) * (ndim - 1)
    want = [evaluate_derivative(field, p, kind, orders) for p in points.tolist()]
    for count in (0, 1, step - 1, step, step + 1):
        assert _bits(evaluate_many(field, points[:count], kind, orders)) == _bits(want[:count])


def test_signed_zeros_match_scalar():
    # on an all -0.0 field the scalar sum's 0.0 start decides the sign of zero results
    field = GridField(np.full((6, 6), -0.0), h=(1.0, 0.5))
    kind = SplineKind(5, 4)
    points = np.array([(-0.0, -0.0), (0.0, -0.0), (2.0, 1.5), (-0.0, 0.25)])
    for orders in ((0, 0), (1, 0), (2, 2)):
        want = [evaluate_derivative(field, tuple(p), kind, orders) for p in points]
        assert _bits(evaluate_many(field, points, kind, orders)) == _bits(want)
