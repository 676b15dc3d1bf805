"""evaluate_many against the scalar path it vectorises: bit for bit, errors included."""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsplines import field as field_module
from gridsplines.basis import SplineKind
from gridsplines.errors import OutOfDomain
from gridsplines.field import (
    CHUNK_TERMS,
    PERIODIC,
    STRICT,
    GridField,
    _block_weights,
    _layout,
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


def test_signed_zeros_match_scalar_at_high_order():
    # every order of a q = 12 kind, at node hits and at fractions below 1/4, where x - 0.5 rounds
    field = GridField(np.full(24, -0.0), h=0.125)
    kind = SplineKind(19, 12)
    points = np.array([(-0.0,), (0.0,), (1.0,), (0.125 * 7,), (0.0625 * 1e-9,), (0.125 * 3.2,), (2.9999999999999996,)])
    for order in range(kind.m + 1):
        want = [evaluate_derivative(field, tuple(p), kind, (order,)) for p in points]
        assert _bits(evaluate_many(field, points, kind, (order,))) == _bits(want), order


def test_out_of_domain_names_the_point_on_both_paths():
    field = GridField(np.zeros((9, 7)), h=(0.5, 0.25), boundary=STRICT)
    kind = SplineKind(9, 6)
    inside = (2.2, 0.8)
    for point in [(0.3, 0.8), (2.2, 1.7), (-0.125, 0.5), (4.0, -3.0)]:
        want = f"point {point}: cell "
        with pytest.raises(OutOfDomain) as scalar:
            evaluate(field, point, kind)
        assert str(scalar.value).startswith(want)
        with pytest.raises(OutOfDomain) as batched:
            evaluate_many(field, np.array([inside, point]), kind, (1, 0))
        assert str(batched.value) == str(scalar.value)


def test_wide_stencil_wraps_small_extents_many_periods_out():
    # q = 12 nodes around every cell of extents 1, 2 and 13: the ghost padding wraps each axis several times
    kind = SplineKind(19, 12)
    dims = (1, 2, 13)
    h = (0.5, 0.25, 0.1)
    field = GridField(np.random.default_rng(11).standard_normal(dims), h=h)
    rng = np.random.default_rng(12)
    periods = np.array([d * hj for d, hj in zip(dims, h)])
    # every sign combination of being 4 to 7 periods out, plus node hits and in-period points
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    far = signs * rng.uniform(4.0, 7.0, size=(8, 3)) * periods
    nodes = rng.integers(-40, 40, size=(4, 3)) * np.array(h)
    points = np.concatenate([far, nodes, rng.uniform(0.0, 1.0, size=(4, 3)) * periods])
    for orders in [(0, 0, 0), (9, 0, 3), (1, 9, 0), (2, 2, 9)]:
        want = [evaluate_derivative(field, tuple(p), kind, orders) for p in points.tolist()]
        assert _bits(evaluate_many(field, points, kind, orders)) == _bits(want)


def test_signed_zeros_match_scalar_in_3d():
    field = GridField(np.full((4, 3, 5), -0.0), h=(1.0, 0.5, 0.25))
    kind = SplineKind(5, 4)
    points = np.array([(-0.0, -0.0, -0.0), (0.0, -0.0, 0.0), (2.0, 1.5, 1.25), (-0.0, 0.25, -3.125), (7.5, -4.0, 0.1)])
    for orders in itertools.product(range(3), repeat=3):
        want = [evaluate_derivative(field, tuple(p), kind, orders) for p in points.tolist()]
        assert _bits(evaluate_many(field, points, kind, orders)) == _bits(want)


@pytest.mark.parametrize("boundary", [PERIODIC, STRICT])
def test_batched_leaves_field_data_unchanged_and_read_only(boundary):
    field = GridField(np.random.default_rng(3).standard_normal((6, 5, 7)), h=0.5, boundary=boundary)
    before = field.data.copy()
    points = np.random.default_rng(4).uniform(1.0, 1.5, size=(40, 3))
    evaluate_many(field, points, SplineKind(5, 4), (1, 0, 2))
    assert field.data.tobytes() == before.tobytes()
    assert not field.data.flags.writeable


# (D, kind, orders): one sub-chunk per block for the first two, several for the last two
BLOCK_CASES = [(1, (19, 12), (3,)), (2, (9, 6), (0, 4)), (3, (5, 4), (2, 0, 1)), (3, (19, 12), (0, 9, 1))]


@pytest.mark.parametrize("ndim,nq,orders", BLOCK_CASES)
def test_block_boundaries(ndim, nq, orders):
    kind = SplineKind(*nq)
    step, block = _layout(ndim, kind.q)
    rng = np.random.default_rng(ndim)
    field = GridField(rng.standard_normal((11,) * ndim), h=(0.25,) * ndim)
    points = rng.uniform(-2.75, 5.5, size=(2 * block + 1, ndim))
    want = [evaluate_derivative(field, p, kind, orders) for p in points.tolist()]
    # block + 1 leaves one point in the second block; step + 1 and block + step + 1 end a block
    # in a one-point sub-chunk wherever a block holds several sub-chunks
    counts = {block - 1, block, block + 1, 2 * block + 1} | ({step + 1, block + step + 1} if block > step else set())
    for count in sorted(counts):
        assert _bits(evaluate_many(field, points[:count], kind, orders)) == _bits(want[:count]), count


@pytest.mark.parametrize("ndim,nq,orders", BLOCK_CASES)
def test_strict_error_names_the_first_bad_point_of_a_later_block(ndim, nq, orders):
    kind = SplineKind(*nq)
    _, block = _layout(ndim, kind.q)
    field = GridField(np.random.default_rng(0).standard_normal((14,) * ndim), h=1.0, boundary=STRICT)
    points = np.random.default_rng(1).uniform(6.0, 8.0, size=(block + 5, ndim))
    for first in (block, block + 2):  # the one-point tail of block + 1 points, and a point inside block two
        bad = points.copy()
        bad[first, -1] = 0.5  # the stencil leaves the grid below
        bad[first + 1 :, 0] = np.nan  # later bad points must not be the one reported
        with pytest.raises(OutOfDomain) as scalar:
            evaluate_derivative(field, tuple(bad[first]), kind, orders)
        for count in (first + 1, len(bad)):
            with pytest.raises(OutOfDomain) as batched:
                evaluate_many(field, bad[:count], kind, orders)
            assert str(batched.value) == str(scalar.value)


# (D, kind, points) where, with CHUNK_TERMS = 2**13 and BLOCK_WEIGHTS = 2**16, a block's per-axis weights
# need more scratch, (D + q/2) floats a point, than the patch stage's 2 * span + span // q floats
RETUNED_CASES = [(1, (5, 4), 7000), (2, (9, 6), 4000), (3, (5, 4), 4000), (4, (5, 4), 4000)]


@pytest.mark.parametrize("ndim,nq,count", RETUNED_CASES)
def test_workspace_holds_the_weights_scratch_under_retuned_constants(monkeypatch, ndim, nq, count):
    monkeypatch.setattr(field_module, "CHUNK_TERMS", 1 << 13)
    monkeypatch.setattr(field_module, "BLOCK_WEIGHTS", 1 << 16)
    kind = SplineKind(*nq)
    step, block = _layout(ndim, kind.q)
    assert (ndim + kind.q // 2) * min(block, count) > 2 * step * kind.q**ndim + step * kind.q ** (ndim - 1)
    rng = np.random.default_rng(ndim)
    field = GridField(rng.standard_normal((9,) * ndim), h=0.5)
    points = rng.uniform(-1.0, 6.0, size=(count, ndim))
    want = [evaluate(field, p, kind) for p in points[::97].tolist()]
    assert _bits(evaluate_many(field, points, kind)[::97]) == _bits(want)


def _call_peaks(field, kind, batches) -> list:
    """:func:`evaluate_many`'s traced peak for each batch, after a warm call at every size."""

    def peak(points):
        """The traced peak of one call, less its result array, over the traced size just before it."""
        # a full collection empties the interpreter's free lists, which hold traced blocks, and resets the
        # collector's counts, so that no collection falls at a different place in either call
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]  # this int lives through the call, the same on every call
        tracemalloc.reset_peak()
        evaluate_many(field, points, kind)
        return tracemalloc.get_traced_memory()[1] - before - 8 * len(points)

    # one tracing session, with a warm call at each size first: numpy's caches of small blocks are then
    # in the same state before both measured calls, whatever ran earlier in the process
    tracemalloc.start()
    try:
        for points in batches:
            evaluate_many(field, points, kind)
        return [peak(points) for points in batches]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_point_count():
    # one workspace per call, sized by the kind and the field, not by the number of points
    kind = SplineKind(5, 4)
    field = GridField(np.random.default_rng(0).standard_normal((32,) * 3), h=1 / 32)
    peaks = _call_peaks(field, kind, [np.random.default_rng(count).random((count, 3)) for count in (4000, 40000)])
    assert peaks[0] == peaks[1]
    # both counts above span several blocks; one block against three shows an array a block keeps while the
    # next block's per-point stage runs (8 bytes a point: 64 KiB for the 8 192-point blocks of 1-D q = 4)
    kind = SplineKind(3, 4)
    block = _layout(1, kind.q)[1]
    field = GridField(np.random.default_rng(0).standard_normal(4096), h=1 / 4096)
    old = np.setbufsize(16)  # numpy's ufunc buffers held down, so that the arrays of the module show
    try:
        peaks = _call_peaks(field, kind, [np.random.default_rng(n).random((n * block, 1)) for n in (1, 3)])
    finally:
        np.setbufsize(old)
    assert abs(peaks[1] - peaks[0]) <= 1024, peaks


def test_peak_memory_matches_the_documented_formula():
    # the field module's formula: the padded copy, the workspace, and per point of a block about 26 * D bytes
    # of coordinate and index arrays; 4000 points fill whole blocks
    kind = SplineKind(5, 4)
    dims, count = (32,) * 3, 4000
    field = GridField(np.random.default_rng(0).standard_normal(dims), h=1 / 32)
    points = np.random.default_rng(1).random((count, 3))
    step, block = _layout(3, kind.q)
    span = min(step, count) * kind.q**3
    padded = 8 * int(np.prod([d + kind.q - 1 for d in dims]))
    workspace = 8 * (min(block, count) * 3 * kind.q + 2 * span + span // kind.q)
    formula = padded + workspace + 26 * 3 * min(block, count)
    # tracing allocates a few KiB more (offsets, Horner rows, Python objects); a spare block-sized float array,
    # 8 * D bytes a point, adds 24 KiB
    slack = 12 * 1024
    # numpy's ufunc buffers (64 KiB each by default) are held down, so that the arrays of the module show
    old = np.setbufsize(16)
    tracemalloc.start()
    try:
        evaluate_many(field, points, kind)  # warm
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        evaluate_many(field, points, kind)
        peak = tracemalloc.get_traced_memory()[1] - before - 8 * count
    finally:
        tracemalloc.stop()
        np.setbufsize(old)
    assert 0 <= peak - formula <= slack, (peak, formula)


def test_patch_range_is_checked_per_point_before_the_gather():
    # the gather reads with mode="wrap"; handed an array its patches leave, the per-point stage must raise
    field = GridField(np.zeros((6, 6)), h=1.0)
    kind = SplineKind(5, 4)
    limit = field.data.size - (kind.q - 1) * 7  # corners past 14 put the last patch offset outside 0..35
    points = np.array([(1.0, 1.0), (4.5, 2.0)])  # the second patch would need rows 4..7 of 6
    with pytest.raises(IndexError, match=r"patch corners 7\.\.26 leave the flat range 0\.\.14"):
        _block_weights(field, points, kind, np.array([6, 1]), limit, np.zeros((1, 2, 4, 1)), np.empty(16))
