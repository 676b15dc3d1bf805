"""evaluate_many against the scalar path it vectorises: bit for bit, errors included."""

import contextlib
import copy
import gc
import itertools
import json
import math
import pickle
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsplines import field as field_module
from gridsplines.basis import SplineKind
from gridsplines.errors import DerivativeTooHigh, InvalidKind, InvalidPoint, OutOfDomain
from gridsplines.field import (
    PERIODIC,
    STRICT,
    GridField,
    _block_weights,
    evaluate,
    evaluate_derivative,
    evaluate_many,
)

KINDS = [(3, 4), (5, 4), (9, 6), (19, 12)]

# derandomized, so that the suite gives the same verdict on every run
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _block(ndim: int, q: int) -> int:
    """Points per block of evaluate_many under the CHUNK_TERMS in force."""
    return max(2, field_module.CHUNK_TERMS // q**ndim)


def _stage(ndim: int, q: int) -> int:
    """Points per stage of evaluate_many's per-point steps under the CHUNK_TERMS in force."""
    return max(_block(ndim, q), field_module.CHUNK_TERMS // (ndim * q))


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
    # the default block size, with points several periods out and the top order on the first axis
    kind = SplineKind(n, q)
    step = _block(ndim, q)
    rng = np.random.default_rng(7)
    field = GridField(rng.standard_normal((13,) * ndim), h=(0.5,) * ndim)
    points = rng.uniform(-13.0, 26.0, size=(step + 1, ndim))
    orders = (kind.m,) + (0,) * (ndim - 1)
    want = [evaluate_derivative(field, p, kind, orders) for p in points.tolist()]
    for count in (0, 1, step - 1, step, step + 1):
        assert _bits(evaluate_many(field, points[:count], kind, orders)) == _bits(want[:count])


@pytest.mark.parametrize("dtype", [np.bool_, np.int64, np.float32, np.float64])
def test_a_one_point_call_gives_the_scalar_bits(dtype):
    kind = SplineKind(9, 6)
    field = GridField(np.random.default_rng(11).standard_normal((9, 7)), h=(1.0, 0.5))
    for row in ((True, False), (3, 5), (2.75, 1.3), (-7.1, 40.2)):
        point = np.array([row]).astype(dtype)
        for orders in (None, (0, 0), (2, 1)):
            want = evaluate_derivative(field, tuple(point[0]), kind, orders)
            assert _bits(evaluate_many(field, point, kind, orders)) == _bits([want]), (row, orders)


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


@pytest.mark.parametrize(
    "kind,orders,error",
    [((5, 4), None, InvalidKind), ([5, 4], None, InvalidKind), (SplineKind(5, 4), (0.5, 0), ValueError),
     (SplineKind(5, 4), (0, 3), DerivativeTooHigh), (SplineKind(5, 4), (0,), ValueError)],
    ids=["tuple kind", "list kind", "order 0.5", "order too high", "one order"],
)
def test_a_zero_point_call_checks_the_kind_and_the_orders(kind, orders, error):
    # no point to evaluate, yet the kind and orders raise the scalar entry's error
    field = GridField(np.zeros((6, 6)), h=1.0)
    with pytest.raises(error) as scalar:
        evaluate_derivative(field, (1.5, 2.5), kind, orders)
    with pytest.raises(error) as batched:
        evaluate_many(field, np.empty((0, 2)), kind, orders)
    assert str(batched.value) == str(scalar.value)
    assert evaluate_many(field, np.empty((0, 2)), SplineKind(5, 4), (2, 0)).shape == (0,)


def test_an_iterator_of_orders_is_read_once():
    # the plan and the row route of a one-point call share one read of the orders, as the engine does
    field = GridField(np.random.default_rng(5).standard_normal(16), h=0.5)
    kind = SplineKind(5, 4)
    want = evaluate_derivative(field, (3.3,), kind, (1,))
    assert _bits(evaluate_many(field, [[3.3]], kind, iter([1]))) == _bits([want])
    assert _bits(evaluate_many(field, [[3.3], [3.3]], kind, iter([1]))) == _bits([want, want])
    with pytest.raises(DerivativeTooHigh, match=r"derivative order 5 on axis 0 not in 0\.\.2"):
        evaluate_many(field, [[3.3]], kind, iter([5]))


# (D, kind, orders)
BLOCK_CASES = [(1, (19, 12), (3,)), (2, (9, 6), (0, 4)), (3, (5, 4), (2, 0, 1)), (3, (19, 12), (0, 9, 1))]


@pytest.mark.parametrize("ndim,nq,orders", BLOCK_CASES)
def test_block_boundaries(ndim, nq, orders):
    kind = SplineKind(*nq)
    block = _block(ndim, kind.q)
    rng = np.random.default_rng(ndim)
    field = GridField(rng.standard_normal((11,) * ndim), h=(0.25,) * ndim)
    points = rng.uniform(-2.75, 5.5, size=(2 * block + 1, ndim))
    want = [evaluate_derivative(field, p, kind, orders) for p in points.tolist()]
    # block + 1 and 2 * block + 1 leave one point in the last block, which is taken with its neighbour
    for count in (0, 1, block - 1, block, block + 1, 2 * block + 1):
        assert _bits(evaluate_many(field, points[:count], kind, orders)) == _bits(want[:count]), count


@pytest.mark.parametrize("ndim,nq,orders", BLOCK_CASES)
def test_strict_error_names_the_first_bad_point_of_a_later_block(ndim, nq, orders):
    kind = SplineKind(*nq)
    block = _block(ndim, kind.q)
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


# (D, kind, points) spanning several stages with CHUNK_TERMS = 2**13: 2 048, 227, 128 and 32 points a block,
# 2 048, 682, 682 and 512 a stage
RETUNED_CASES = [(1, (5, 4), 7000), (2, (9, 6), 4000), (3, (5, 4), 4000), (4, (5, 4), 4000)]


@pytest.mark.parametrize("ndim,nq,count", RETUNED_CASES)
def test_workspace_holds_the_weights_scratch_under_retuned_constants(monkeypatch, ndim, nq, count):
    monkeypatch.setattr(field_module, "CHUNK_TERMS", 1 << 13)
    kind = SplineKind(*nq)
    block, stage = _block(ndim, kind.q), _stage(ndim, kind.q)
    span = block * kind.q**ndim
    # a stage's per-axis weights need (D + q/2) floats a point of scratch, which the patch area after them holds
    assert (ndim + kind.q // 2) * stage <= 2 * span
    rng = np.random.default_rng(ndim)
    field = GridField(rng.standard_normal((9,) * ndim), h=0.5)
    points = rng.uniform(-1.0, 6.0, size=(count, ndim))
    want = [evaluate(field, p, kind) for p in points[::97].tolist()]
    assert _bits(evaluate_many(field, points, kind)[::97]) == _bits(want)


# a caller's ufunc buffer below, at and above the engine's cap (field.UFUNC_BUFFER), numpy's default among them
BUFFER_SIZES = [16, 1 << 10, 1 << 13, 1 << 16]


def _picked_under_each_buffer(field, points, kind, orders, picks) -> dict:
    """The bits of ``evaluate_many(...)[picks]`` with each of BUFFER_SIZES as the caller's ufunc buffer."""
    found = {}
    for size in BUFFER_SIZES:
        old = np.setbufsize(size)
        try:
            found[size] = _bits(evaluate_many(field, points, kind, orders)[picks])
        finally:
            np.setbufsize(old)
    return found


@pytest.mark.parametrize("chunk_terms", [1, 1 << 13, 1 << 18])
def test_chunk_terms_sweep_keeps_the_bits(monkeypatch, chunk_terms):
    # 2-point blocks, smaller and larger blocks than the default, each under every caller's ufunc buffer: neither
    # changes a bit, for values and first derivatives, on either boundary
    monkeypatch.setattr(field_module, "CHUNK_TERMS", chunk_terms)
    for ndim, nq in [(1, (5, 4)), (2, (9, 6)), (3, (5, 4)), (4, (5, 4))]:
        kind = SplineKind(*nq)
        block = _block(ndim, kind.q)
        rng = np.random.default_rng(ndim)
        data = rng.standard_normal((9,) * ndim)
        points = rng.uniform(-1.0, 6.0, size=(2 * block + 1, ndim))  # ends in a one-point tail
        inside = rng.uniform(1.0, 3.0, size=points.shape)  # every stencil inside the 9-node strict grid
        picks = sorted({*range(0, len(points), 97), block - 1, block, len(points) - 2, len(points) - 1})
        for (boundary, pts), orders in itertools.product([(PERIODIC, points), (STRICT, inside)], [None, (1,) * ndim]):
            field = GridField(data, h=0.5, boundary=boundary)
            want = _bits([evaluate_derivative(field, p, kind, orders) for p in pts[picks].tolist()])
            found = _picked_under_each_buffer(field, pts, kind, orders, picks)
            assert found == dict.fromkeys(BUFFER_SIZES, want), (ndim, nq, boundary, orders)


@pytest.mark.parametrize("chunk_terms", [1 << 10, 1 << 13, 1 << 16])
def test_stage_sweep_keeps_the_bits(monkeypatch, chunk_terms):
    # stages of several blocks, under every caller's ufunc buffer: a call may end in a one-point stage or a
    # one-point block, and each is taken with its neighbour; at 2**10, a 2-D (9,6) stage of 85 points ends in a
    # one-point block of its own
    monkeypatch.setattr(field_module, "CHUNK_TERMS", chunk_terms)
    for ndim, nq in [(2, (9, 6)), (3, (5, 4)), (3, (19, 12))]:
        kind = SplineKind(*nq)
        block, stage = _block(ndim, kind.q), _stage(ndim, kind.q)
        assert stage > block
        rng = np.random.default_rng(ndim)
        field = GridField(rng.standard_normal((9,) * ndim), h=0.5)
        points = rng.uniform(-1.0, 6.0, size=(2 * stage + 1, ndim))
        # one past a block, a stage, a stage and a block, and two stages: each ends in a one-point tail
        for count in (block + 1, stage + 1, stage + block + 1, 2 * stage + 1):
            edges = {a + d for a in range(0, count, block) for d in (-1, 0)} | {count - 2, count - 1}
            picks = sorted(i for i in edges | {*range(0, count, 97)} if 0 <= i < count)
            want = _bits([evaluate(field, p, kind) for p in points[picks].tolist()])
            found = _picked_under_each_buffer(field, points[:count], kind, None, picks)
            assert found == dict.fromkeys(BUFFER_SIZES, want), (ndim, nq, count)


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


def _in_a_fresh_interpreter(measure):
    """``measure()``, a function of this module that returns JSON data, run in a new interpreter.

    numpy's caches of small blocks then start in one state, whatever ran earlier in the suite: traced peaks
    compared to the byte would otherwise differ now and then.
    """
    name = measure.__name__
    code = f"import json, sys; sys.path[:0] = {sys.path!r}; from {__name__} import {name}; print(json.dumps({name}()))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def _peaks_at_two_point_counts() -> list:
    """The traced peaks of two calls at different point counts, for two fields."""
    kind = SplineKind(5, 4)
    field = GridField(np.random.default_rng(0).standard_normal((32,) * 3), h=1 / 32)
    counts = [n * _stage(3, kind.q) + 1 for n in (3, 10)]  # 5 461-point stages; each count ends in a one-point tail
    peaks = [_call_peaks(field, kind, [np.random.default_rng(count).random((count, 3)) for count in counts])]
    kind = SplineKind(3, 4)
    stage = _stage(1, kind.q)
    field = GridField(np.random.default_rng(0).standard_normal(4096), h=1 / 4096)
    old = np.setbufsize(16)  # numpy's ufunc buffers held down, so that the arrays of the module show
    try:
        peaks.append(_call_peaks(field, kind, [np.random.default_rng(n).random((n * stage, 1)) for n in (1, 3)]))
    finally:
        np.setbufsize(old)
    return peaks


def test_peak_memory_does_not_grow_with_the_point_count():
    # one workspace per call, sized by the kind and the field, not by the number of points
    peaks, spread = _in_a_fresh_interpreter(_peaks_at_two_point_counts)
    assert peaks[0] == peaks[1]
    # both counts above span several stages; one stage against three shows an array a stage keeps while the
    # next stage's per-point steps run (8 bytes a point: 128 KiB for the 16 384-point stages of 1-D q = 4)
    assert abs(spread[1] - spread[0]) <= 1024, spread


def _warm_call_peak() -> int:
    """The traced peak of a warm 4 000-point call of kind (5,4) on a 32**3 periodic field, less its result."""
    field = GridField(np.random.default_rng(0).standard_normal((32,) * 3), h=1 / 32)
    points = np.random.default_rng(1).random((4000, 3))
    # numpy's ufunc buffers (UFUNC_BUFFER floats each in the engine) are held down, so the module's arrays show
    old = np.setbufsize(16)
    tracemalloc.start()
    try:
        evaluate_many(field, points, SplineKind(5, 4))  # warm: this call pads the field
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        evaluate_many(field, points, SplineKind(5, 4))
        return tracemalloc.get_traced_memory()[1] - before - 8 * len(points)
    finally:
        tracemalloc.stop()
        np.setbufsize(old)


def test_peak_memory_matches_the_documented_formula():
    # the field module's formula: the workspace, and per point of a stage about 26 * D bytes of coordinate and
    # index arrays; 4000 points fit in one stage (of up to 5 461 points) and span four blocks
    kind = SplineKind(5, 4)
    count = 4000
    block, stage = _block(3, kind.q), min(_stage(3, kind.q), count)
    span = min(block, count) * kind.q**3
    workspace = 8 * (stage * 3 * kind.q + 2 * span)
    formula = workspace + 26 * 3 * stage
    # tracing allocates a few KiB more (offsets, Horner rows, Python objects); a spare stage-sized float array,
    # 8 * D bytes a point, adds 94 KiB
    slack = 12 * 1024
    peak = _in_a_fresh_interpreter(_warm_call_peak)
    assert 0 <= peak - formula <= slack, (peak, formula)


def test_the_padded_copy_is_made_once_per_field_on_either_path():
    # after a batched call on a periodic field, neither a scalar call nor a second batched call pads it again
    kind = SplineKind(5, 4)
    dims = (32,) * 3
    field = GridField(np.random.default_rng(0).standard_normal(dims), h=1 / 32)
    points = np.random.default_rng(1).random((100, 3))
    padded = 8 * math.prod(d + kind.q - 1 for d in dims)
    evaluate_many(field, points, kind)
    tracemalloc.start()
    try:
        for call in (lambda: evaluate(field, (0.0, 0.5, 1.0), kind), lambda: evaluate_many(field, points, kind)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            assert tracemalloc.get_traced_memory()[1] - before < padded
    finally:
        tracemalloc.stop()


def test_a_field_evaluated_on_both_paths_is_freed_by_reference_counting():
    # a field's padded copies and plans hold no reference back to it, so no cycle keeps the field or its copies
    # alive
    field = GridField(np.random.default_rng(0).standard_normal((8, 8)), h=1 / 8)
    evaluate_many(field, np.random.default_rng(1).random((10, 2)), SplineKind(5, 4))
    evaluate(field, (0.5, 0.5), SplineKind(9, 6))
    for kind, orders in itertools.product([SplineKind(5, 4), SplineKind(9, 6)], [(0, 0), (1, 0), (2, 1)]):
        evaluate_derivative(field, (0.5, 0.5), kind, orders)
    assert len(field._plans) == 7  # evaluate's plan, and one per kind and orders
    refs = [weakref.ref(field), weakref.ref(field._boxes[1]), weakref.ref(field._boxes[2])]
    gc.disable()
    try:
        del field
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("boundary", [PERIODIC, STRICT])
def test_a_pickled_or_copied_field_carries_its_data_alone(boundary):
    # pickling and copying rebuild the field from data, h and boundary: no padded copy or plan travels with it,
    # the copy's data is read-only again, and both paths give the original's bits on it
    kind, orders = SplineKind(5, 4), (1, 0, 2)
    data = np.random.default_rng(0).standard_normal((32,) * 3)
    field = GridField(data, h=1 / 32, boundary=boundary)
    points = 0.1 + 0.8 * np.random.default_rng(1).random((50, 3))

    def both_paths(f):
        scalar = [evaluate_derivative(f, p, kind, orders) for p in points]
        return _bits(evaluate_many(f, points, kind, orders)), _bits(scalar)

    want = both_paths(field)
    assert want[0] == want[1] and field._plans
    fresh = len(pickle.dumps(GridField(data, h=1 / 32, boundary=boundary)))
    assert len(pickle.dumps(field)) == fresh
    for twin in (pickle.loads(pickle.dumps(field)), copy.deepcopy(field), copy.copy(field)):
        assert not twin.data.flags.writeable
        assert (twin.h, twin.boundary, twin._plans) == (field.h, field.boundary, {})
        assert both_paths(twin) == want


def test_patch_range_is_checked_per_point_before_the_gather():
    # the gather reads with mode="wrap"; handed an array its patches leave, the per-point stage must raise
    field = GridField(np.zeros((6, 6)), h=1.0)
    kind = SplineKind(5, 4)
    limit = field.data.size - (kind.q - 1) * 7  # corners past 14 put the last patch offset outside 0..35
    points = np.array([(1.0, 1.0), (4.5, 2.0)])  # the second patch would need rows 4..7 of 6
    with pytest.raises(IndexError, match=r"patch corners 7\.\.26 leave the flat range 0\.\.14"):
        _block_weights(field, points, kind, np.array([6, 1]), limit, np.zeros((1, 2, 4, 1)), np.empty(16))


@pytest.mark.parametrize("failure", [None, InvalidPoint, OutOfDomain, IndexError])
def test_the_callers_ufunc_buffer_is_left_as_found(monkeypatch, failure):
    # the engine runs under the smaller of the caller's buffer and its cap, and restores the caller's, also when
    # it raises: for a nan row, for a strict stencil past the edge, and for the patch-range check of the test above
    # (the unpadded strides and limit below)
    kind = SplineKind(5, 4)
    field = GridField(np.zeros((6, 6)), h=1.0, boundary=STRICT if failure is OutOfDomain else PERIODIC)
    points = np.array([(1.0, 1.0), (np.nan if failure is InvalidPoint else 4.5, 2.0)])
    seen = []
    block_weights = field_module._block_weights

    def recorded(field, pts, kind, strides, limit, horner, weights):
        seen.append(np.getbufsize())
        if failure is IndexError:
            strides, limit = np.array([6, 1]), field.data.size - (kind.q - 1) * 7
        return block_weights(field, pts, kind, strides, limit, horner, weights)

    monkeypatch.setattr(field_module, "_block_weights", recorded)
    for size in BUFFER_SIZES:
        old = np.setbufsize(size)
        try:
            with pytest.raises(failure) if failure else contextlib.nullcontext():
                evaluate_many(field, points, kind)
            assert np.getbufsize() == size
        finally:
            np.setbufsize(old)
    assert seen == [min(size, field_module.UFUNC_BUFFER) for size in BUFFER_SIZES]
