"""Grid fields: coordinates, gathering, tensor-product evaluation, container io."""

import hashlib
import itertools
import math
import os
import re
import struct
import tempfile
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from exact_oracle import direct_evaluate, exact_weights_sum
from gridsplines import field as field_module
from gridsplines.basis import SplineKind, beta_eval, derive_alpha, derive_beta
from gridsplines.errors import DerivativeTooHigh, InvalidKind, InvalidOrder, InvalidPoint, OutOfDomain
from gridsplines.field import (
    PERIODIC,
    STRICT,
    GridField,
    evaluate,
    evaluate_at_cell,
    evaluate_derivative,
    evaluate_hermite,
    evaluate_many,
    gather_local,
    grid_coordinates,
    load_field,
    partitioned_evaluate,
    save_field,
)
from gridsplines.stencil import derive_stencil


def test_grid_coordinates_interior():
    f = GridField(np.zeros(8), h=(1.0,))
    cc = grid_coordinates((2.5,), f)
    assert cc.cell == (2,)
    assert cc.frac == (0.5,)


def test_grid_coordinates_negative_point():
    f = GridField(np.zeros(8), h=(0.5,))
    cc = grid_coordinates((-0.25,), f)
    assert cc.cell == (-1,)
    assert cc.frac == (0.5,)


def test_grid_coordinates_exact_node():
    f = GridField(np.zeros(8), h=(1.0,))
    cc = grid_coordinates((3.0,), f)
    assert cc.cell == (3,)
    assert cc.frac == (0.0,)


def test_grid_coordinates_rounding_folds_into_next_cell():
    f = GridField(np.zeros(8), h=(1.0,))
    cc = grid_coordinates((-1e-17,), f)  # frac would round up to 1.0
    assert cc.cell == (0,)
    assert cc.frac == (0.0,)


def test_grid_coordinates_dimension_mismatch():
    f = GridField(np.zeros((4, 4)), h=(1.0, 1.0))
    with pytest.raises(ValueError):
        grid_coordinates((0.5,), f)


def test_gather_periodic_wraps():
    f = GridField(np.arange(8.0), h=(1.0,))
    patch = gather_local(f, (7,), 1)
    assert patch.values.tolist() == [6.0, 7.0, 0.0, 1.0]


def test_gather_patch_size_2d():
    f = GridField(np.zeros((10, 10)), h=(1.0, 1.0))
    patch = gather_local(f, (4, 4), 1)
    assert patch.q == 4
    assert patch.values.shape == (4, 4)


def test_gather_rejects_cell_with_wrong_axis_count():
    f = GridField(np.zeros((10, 10)), h=(1.0, 1.0))
    with pytest.raises(ValueError, match="cell has 1 indices, field has 2 axes"):
        gather_local(f, (4,), 1)
    with pytest.raises(ValueError, match="cell has 3 indices, field has 2 axes"):
        gather_local(f, (4, 4, 4), 1)


@pytest.mark.parametrize("g", [-3, 0, 1.5, True, None])
def test_gather_rejects_half_width_that_is_not_a_positive_integer(g):
    f = GridField(np.zeros((10, 10)), h=(1.0, 1.0))
    with pytest.raises(ValueError, match=f"half-width g {g!r} is not an integer >= 1"):
        gather_local(f, (4, 4), g)


def test_gather_accepts_numpy_half_width():
    f = GridField(np.arange(100.0).reshape(10, 10), h=(1.0, 1.0))
    assert np.array_equal(gather_local(f, (4, 4), np.int64(2)).values, gather_local(f, (4, 4), 2).values)


@pytest.mark.parametrize("boundary", [PERIODIC, STRICT])
@pytest.mark.parametrize("cell", [3.5, 0.5, 3.0, True, np.float64(3.0), "3", None], ids=repr)
def test_cell_index_that_is_not_an_integer_is_rejected(boundary, cell):
    f = GridField(np.arange(16.0), h=0.5, boundary=boundary)
    named = f"cell index {re.escape(repr(cell))} on axis 1 is not an integer"
    with pytest.raises(ValueError, match=named):
        gather_local(GridField(np.zeros((16, 16)), h=0.5, boundary=boundary), (3, cell), 1)
    with pytest.raises(ValueError, match=named.replace("axis 1", "axis 0")):
        evaluate_at_cell(f, (cell,), (0.5,), SplineKind(5, 4))


def test_cell_index_beyond_int64_wraps_on_a_periodic_field_and_leaves_a_strict_one():
    f, kind = GridField(np.arange(16.0), h=0.5), SplineKind(5, 4)
    strict = GridField(np.arange(16.0), h=0.5, boundary=STRICT)
    for cell in (2**63 - 1, 10**30, -(2**63), np.int64(2**63 - 1), -(10**30) + 3):
        want = gather_local(f, (int(cell) % 16,), 1).values.tolist()
        assert gather_local(f, (cell,), 1).values.tolist() == gather_local(f, (cell,), np.int64(1)).values.tolist() == want
        assert evaluate_at_cell(f, (cell,), (0.5,), kind) == evaluate_at_cell(f, (int(cell) % 16,), (0.5,), kind)
        with pytest.raises(OutOfDomain, match=f"cell \\({int(cell)},\\)"):
            evaluate_at_cell(strict, (cell,), (0.5,), kind)


def test_gather_strict_raises_at_edge():
    f = GridField(np.arange(8.0), h=(1.0,), boundary=STRICT)
    with pytest.raises(OutOfDomain):
        gather_local(f, (7,), 1)


def test_out_of_domain_names_cell_and_axis_on_both_paths():
    f = GridField(np.zeros((8, 6)), h=(1.0, 0.5), boundary=STRICT)
    kind = SplineKind(5, 4)
    point = (3.25, 2.75)  # cell (3, 5): axis 0 is inside, axis 1 needs nodes 4..7 of 0..5
    want = "point (3.25, 2.75): cell (3, 5): stencil nodes [4, 8) on axis 1 leave its node range 0..5"
    with pytest.raises(OutOfDomain) as scalar:
        evaluate(f, point, kind)
    assert str(scalar.value) == want
    with pytest.raises(OutOfDomain) as batched:
        evaluate_many(f, np.array([(1.5, 1.0), point]), kind)
    assert str(batched.value) == want
    with pytest.raises(OutOfDomain) as partitioned:
        partitioned_evaluate(f, point, kind, 0, 3)
    assert str(partitioned.value) == want


@pytest.mark.parametrize(
    "point,cell,axis,extent",
    [
        ((3.25, 2.75), (3, 5), 1, 6),
        ((0.5, 1.25), (0, 2), 0, 8),
        ((7.75, 0.25), (7, 0), 0, 8),
        # coordinates that are not Python floats: exc.point holds them as floats
        ((0.5, 1), (0, 2), 0, 8),
        ((np.float32(3.25), 2.75), (3, 5), 1, 6),
        ((Fraction(13, 4), 2.75), (3, 5), 1, 6),
    ],
)
def test_out_of_domain_carries_point_cell_axis_and_extent(point, cell, axis, extent):
    f = GridField(np.zeros((8, 6)), h=(1.0, 0.5), boundary=STRICT)
    kind = SplineKind(5, 4)
    with_point = [
        lambda: evaluate(f, point, kind),
        lambda: evaluate_derivative(f, point, kind, (1, 2)),
        lambda: evaluate_many(f, np.array([(1.5, 1.0), point]), kind),
        lambda: evaluate_many(f, np.array([point]), kind, (0, 1)),
        lambda: partitioned_evaluate(f, point, kind, 0, 3),
    ]
    without_point = [
        lambda: evaluate_at_cell(f, cell, (0.5, 0.5), kind),
        lambda: gather_local(f, cell, kind.g),
    ]
    for call, want in [(c, point) for c in with_point] + [(c, None) for c in without_point]:
        with pytest.raises(OutOfDomain) as info:
            call()
        exc = info.value
        assert (exc.point, exc.cell, exc.axis, exc.extent) == (want, cell, axis, extent)
        assert all(type(v) is int for v in exc.cell + (exc.axis, exc.extent))
        assert all(type(v) is float for v in exc.point or ())


@pytest.mark.parametrize("point,axis", [((3.5, float("inf")), 1), ((-1e300, 1.5), 0)])
def test_invalid_point_carries_point_and_axis(point, axis):
    f = GridField(np.zeros((8, 8)), h=(1.0, 0.5))
    kind = SplineKind(3, 4)
    calls = [
        lambda: evaluate(f, point, kind),
        lambda: evaluate_derivative(f, point, kind, (0, 1)),
        lambda: grid_coordinates(point, f),
        lambda: evaluate_many(f, np.array([(3.5, 1.5), point]), kind),
    ]
    for call in calls:
        with pytest.raises(InvalidPoint) as info:
            call()
        assert (info.value.point, info.value.axis) == (point, axis)
        assert all(type(v) is float for v in info.value.point)


def reference_gather(field, cell, g):
    """Every stencil index built and wrapped explicitly, then one fancy-index copy."""
    q = 2 * g + 2
    axes = []
    for axis, (c, extent) in enumerate(zip(cell, field.dims)):
        start = c - g
        idx = np.arange(start, start + q)
        if field.boundary == PERIODIC:
            idx %= extent
        elif start < 0 or start + q > extent:
            raise OutOfDomain(
                f"cell {tuple(int(v) for v in cell)}: stencil nodes [{start}, {start + q}) on axis {axis}"
                f" leave its node range 0..{extent - 1}"
            )
        axes.append(idx)
    return field.data[np.ix_(*axes)]


GATHER_SHAPES = [
    # every periodic extent 1..q+1 in 1-D, below q included
    *[((extent,), g) for g in (1, 2) for extent in range(1, 2 * g + 4)],
    ((3, 5), 1),
    ((4, 1), 1),
    ((7, 6), 2),
    ((1, 4, 5), 1),
    ((5, 2, 3), 1),
]


@pytest.mark.parametrize("boundary", [PERIODIC, STRICT])
@pytest.mark.parametrize("dims,g", GATHER_SHAPES, ids=[f"{'x'.join(map(str, d))}-g{g}" for d, g in GATHER_SHAPES])
def test_gather_matches_wrapped_index_reference(dims, g, boundary):
    # every cell whose stencil lies inside, touches either edge, or wraps past it, at any distance up to q + 1,
    # or lies near +-2**62, with Python and numpy integer indices; the scalar core's read, field._patch, too
    q = 2 * g + 2
    f = GridField(np.random.default_rng(len(dims) + g).standard_normal(dims), h=1.0, boundary=boundary)
    far = [2**62, -(2**62), np.int64(2**62 + 5), np.int32(-3), np.uint8(2)]
    for cell in itertools.product(*([*range(-q - 1, extent + q + 1), *far] for extent in dims)):
        try:
            want = reference_gather(f, cell, g)
        except OutOfDomain as exc:
            for read in (gather_local, field_module._patch):
                with pytest.raises(OutOfDomain) as info:
                    read(f, cell, g)
                assert str(info.value) == str(exc), cell
            continue
        patch = gather_local(f, cell, g)
        assert patch.q == q
        assert patch.values.shape == want.shape
        assert patch.values.tobytes() == want.tobytes()
        values = field_module._patch(f, cell, g)
        assert values.shape == want.shape and values.tobytes() == want.tobytes(), cell
    # an index that is not an integer, on any axis, before or after one whose stencil leaves a strict grid
    bad = [3.5, np.float64(1.0), True]
    for cell in itertools.product(*([-q - 1, 0, extent, *bad] for extent in dims)):
        if not any(c is b for c in cell for b in bad):
            continue
        with pytest.raises(ValueError) as want:
            gather_local(f, cell, g)
        with pytest.raises(ValueError) as info:
            field_module._patch(f, cell, g)
        assert type(info.value) is type(want.value) and str(info.value) == str(want.value), cell


def test_gather_inside_the_grid_is_a_read_only_view():
    # strict: a patch inside the grid is a view of the data itself
    data = np.arange(60.0).reshape(6, 10)
    f = GridField(data, h=1.0, boundary=STRICT)
    values = gather_local(f, (2, 5), 1).values
    assert np.shares_memory(values, f.data)
    assert not values.flags.writeable
    # periodic: every patch, inside, wrapped on axis 0, or of extents smaller than q, is a view of the field's one
    # padded array, never a fresh copy
    f, small = GridField(data, h=1.0), GridField(data[:2, :3], h=1.0)  # small: extents 2 and 3 < q = 4
    for field, cell in ((f, (2, 5)), (f, (0, 5)), (small, (0, 1)), (small, (-7, 9))):
        values = gather_local(field, cell, 1).values
        assert values.base is field._boxes[1], (field.dims, cell)
        assert not values.flags.writeable and not values.base.flags.writeable


def scalar_digest(field, kind, points, orders) -> str:
    values = [evaluate_derivative(field, p, kind, o) for p, o in zip(points, orders)]
    return hashlib.sha256(np.array(values).tobytes()).hexdigest()


def test_scalar_results_are_pinned_1d_n19q12():
    # bit patterns of the scalar path with the centered, reflection-paired float forms
    rng = np.random.default_rng(6)
    f = GridField(rng.standard_normal(64), h=1.0 / 64)
    points = [(x,) for x in rng.uniform(-1.5, 2.5, 4096).tolist()]
    orders = [(i % 10,) for i in range(4096)]
    digest = scalar_digest(f, SplineKind(19, 12), points, orders)
    assert digest == "affdbc6d8c5d26138eba40db9046704b186ea7c65f8fee5bc615ef63ab3986b0"


def test_scalar_results_are_pinned_3d_periodic_edges():
    rng = np.random.default_rng(7)
    dims, h = (3, 6, 9), (0.5, 0.25, 0.125)
    f = GridField(rng.standard_normal(dims), h=h)
    # every coordinate within one cell of the low edge 0 or of the high edge extent * h
    edge = rng.integers(0, 2, (4096, 3)) * np.array(dims)
    points = [tuple(p) for p in ((edge + rng.uniform(-1.0, 1.0, (4096, 3))) * np.array(h)).tolist()]
    orders = [(i % 3, (i // 3) % 3, (i // 9) % 3) for i in range(4096)]
    digest = scalar_digest(f, SplineKind(5, 4), points, orders)
    assert digest == "1f741a31dbb2d3e94be56935975c8a1539ecc965869f441b3736da99b458e443"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    x=st.floats(-1e6, 1e6) | st.sampled_from([-1e-17, -5e-324, -0.0, 0.0, 5e-324, 1.0 - 2**-53, -(2.0**-60)]),
    h=st.sampled_from([1.0, 0.5, 0.1, 1 / 3, 1 / 64, 3.0]),
)
def test_grid_coordinates_floor_and_fold(x, h):
    f = GridField(np.zeros(8), h=h)
    cc = grid_coordinates((x,), f)
    (c,), (frac,) = cc.cell, cc.frac
    u = x / h
    assert type(c) is int
    assert 0.0 <= frac < 1.0
    assert c == math.floor(u) or (c == math.floor(u) + 1 and frac == 0.0)  # fold: frac rounded up to 1
    # cell + fraction is the scaled coordinate up to the one rounding of u - floor(u)
    assert abs(Fraction(c) + Fraction(frac) - Fraction(u)) <= Fraction(2) ** -53


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    ticks=st.integers(-(2**24), 2**24),
    periods=st.integers(-50, 50),
    extent=st.integers(1, 13),
    shift=st.integers(0, 6),
)
def test_grid_coordinates_periodic_shift(ticks, periods, extent, shift):
    # dyadic points and spacings keep every coordinate exact: a whole-period shift
    # moves the cell by whole extents, keeps the fraction, and evaluates to the same bits
    h = 2.0**-shift
    x = ticks * 2.0**-16
    f = GridField(np.random.default_rng(extent).standard_normal(extent), h=h)
    shifted = x + periods * extent * h
    a = grid_coordinates((x,), f)
    b = grid_coordinates((shifted,), f)
    assert b.cell == (a.cell[0] + periods * extent,)
    assert b.frac == a.frac
    kind = SplineKind(5, 6)
    assert evaluate(f, (shifted,), kind) == evaluate(f, (x,), kind)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    data=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    ),
    h=st.floats(min_value=5e-324, max_value=1e300),
    boundary=st.sampled_from([PERIODIC, STRICT]),
)
def test_container_roundtrip_keeps_bits(data, h, boundary):
    f = GridField(data, h=h, boundary=boundary)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.gfd")
        save_field(f, path)
        back = load_field(path)
    assert back.dims == f.dims
    assert back.data.tobytes() == f.data.tobytes()
    assert back.h == f.h
    assert back.boundary == boundary


def test_field_validation():
    with pytest.raises(ValueError):
        GridField(np.zeros((4, 4)), h=(1.0,))
    with pytest.raises(ValueError):
        GridField(np.zeros(4), h=(-1.0,))
    with pytest.raises(ValueError):
        GridField(np.zeros(4), h=(1.0,), boundary="clamp")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0, -0.5])
def test_field_rejects_grid_constant_that_is_not_positive_and_finite(bad):
    with pytest.raises(ValueError, match=f"grid constant {bad!r} on axis 1 is not positive and finite"):
        GridField(np.zeros((4, 4)), h=(1.0, bad))
    with pytest.raises(ValueError, match=f"grid constant {bad!r} on axis 0"):
        GridField(np.zeros(4), h=bad)


@pytest.mark.parametrize("h", [np.array(0.5), np.float32(0.5), (np.array(0.5), 0.5), np.array([0.5, 0.5])])
def test_field_takes_a_0d_array_or_numpy_scalar_grid_constant(h):
    want = GridField(np.zeros((4, 4)), h=0.5)
    assert GridField(np.zeros((4, 4)), h=h).h == want.h == (0.5, 0.5)
    assert GridField.sample(lambda p: 0.0, (4, 4), h).h == want.h


# a grid constant passes the real-number test coordinates pass: text, Decimal and np.timedelta64 are not real numbers
@pytest.mark.parametrize(
    "bad", [None, "half", [1.0, 2.0], object(), "0.5", b"0.5", Decimal("0.5"), np.timedelta64(1, "ns")]
)
def test_grid_constant_that_is_not_a_number_is_rejected(bad):
    _assert_grid_constant_rejected(bad, "is not a real number")


@pytest.mark.parametrize("bad", [10**400, np.longdouble("1e400")], ids=["int", "longdouble"])
def test_grid_constant_beyond_the_float_range_is_rejected(bad):
    _assert_grid_constant_rejected(bad, "is beyond the float range")


def _assert_grid_constant_rejected(bad, reason):
    named = f"grid constant {re.escape(repr(bad))} on axis 1 {reason}$"  # the value as given
    with pytest.raises(ValueError, match=named):
        GridField(np.zeros((4, 4)), h=(1.0, bad))
    with pytest.raises(ValueError, match=named):
        GridField.sample(lambda p: 0.0, (4, 4), (1.0, bad))
    if not isinstance(bad, list):  # a list is one constant per axis
        with pytest.raises(ValueError, match=named.replace("axis 1", "axis 0")):
            GridField(np.zeros(4), h=bad)
        with pytest.raises(ValueError, match=named.replace("axis 1", "axis 0")):
            GridField.sample(lambda p: 0.0, (4,), bad)


def test_sample_checks_the_grid_constants_before_it_calls_func():
    for h in (0.0, (1.0,), None):
        with pytest.raises(ValueError):
            GridField.sample(lambda p: pytest.fail("func called"), (4, 4), h)


def test_field_rejects_data_without_axes():
    for h in ((), 1.0):
        with pytest.raises(ValueError, match="no axes"):
            GridField(np.array(3.0), h=h)


def test_field_rejects_complex_data():
    named = re.escape(f"field data entry {np.complex128(1 + 2j)!r} at index (0,) is not a real number")
    with pytest.raises(ValueError, match=named):
        GridField(np.full(8, 1 + 2j), h=1.0)


@pytest.mark.parametrize(
    "data,index,reason",
    [
        ([None, 1.0, 2.0, 3.0], (0,), "is not a real number"),
        (np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"), (0,), "is not a real number"),
        (np.array([[1, 2]], dtype="timedelta64[s]"), (0, 0), "is not a real number"),
        (["1.0", "2.0"], (0,), "is not a real number"),
        ([1.0, Decimal("2.5")], (1,), "is not a real number"),
        ([1j, None], (0,), "is not a real number"),
        ([10**400, 1.0], (0,), "is beyond the float range"),
        (np.array([1.0, np.longdouble("1e400")], dtype=np.longdouble), (1,), "is beyond the float range"),
    ],
)
def test_field_rejects_data_entries_that_are_not_real_floats(data, index, reason):
    entry = repr(np.asarray(data)[index])
    with pytest.raises(ValueError, match=re.escape(f"field data entry {entry} at index {index} {reason}")):
        GridField(data, h=1.0)


def test_sample_rejects_a_function_that_returns_none():
    with pytest.raises(ValueError, match=re.escape("field data entry None at index (0, 0) is not a real number")):
        GridField.sample(lambda p: None, (4, 2), 0.25)


def test_field_widens_each_real_entry_of_an_object_array():
    data = GridField([Fraction(1, 3), np.float32(0.1), True, 2], h=1.0).data
    assert data.dtype == np.float64 and data.tolist() == [1 / 3, float(np.float32(0.1)), 1.0, 2.0]


def test_sample_rejects_a_complex_function():
    named = re.escape(f"field data entry {np.complex128(1)!r} at index (0,) is not a real number")
    with pytest.raises(ValueError, match=named):
        GridField.sample(lambda p: np.exp(1j * p[0]), (8,), 0.125)


def test_evaluate_many_rejects_complex_points():
    f = GridField(np.zeros(8), h=1.0)
    named = re.escape("point ((1.5+0.5j),): coordinate (1.5+0.5j) on axis 0 is complex: a point has real coordinates")
    with pytest.raises(InvalidPoint, match=named):
        evaluate_many(f, np.full((3, 1), 1.5 + 0.5j), SplineKind(5, 4))
    with pytest.raises(InvalidPoint, match=named):  # the scalar path's message
        evaluate(f, (np.complex128(1.5 + 0.5j),), SplineKind(5, 4))


SCALAR_ENTRIES = {
    "evaluate": evaluate,
    "evaluate_derivative": lambda f, point, kind: evaluate_derivative(f, point, kind, (0, 1)),
    "partitioned_evaluate": lambda f, point, kind: partitioned_evaluate(f, point, kind, 1, 3),
}


@pytest.mark.parametrize("entry", SCALAR_ENTRIES)
@pytest.mark.parametrize("x", [np.complex128(1.5 + 0.5j), 1.5 + 0.5j, np.complex64(1.5)], ids=["np128", "py", "np64"])
def test_scalar_entries_reject_a_complex_coordinate(entry, x):
    f = GridField(np.zeros((8, 8)), h=(1.0, 0.5))
    with pytest.raises(InvalidPoint, match="is complex") as info:
        SCALAR_ENTRIES[entry](f, (3.5, x), SplineKind(3, 4))
    assert (info.value.point, info.value.axis) == ((3.5, complex(x)), 1)
    assert f"{complex(x)!r} on axis 1" in str(info.value)


@pytest.mark.parametrize("entry", SCALAR_ENTRIES)
def test_scalar_entries_accept_float32_and_fraction_coordinates(entry):
    f = GridField(np.random.default_rng(3).standard_normal((8, 8)), h=(1.0, 0.5))
    want = SCALAR_ENTRIES[entry](f, (3.5, 1.25), SplineKind(3, 4))
    for point in ((np.float32(3.5), np.float32(1.25)), (Fraction(7, 2), Fraction(5, 4))):
        assert SCALAR_ENTRIES[entry](f, point, SplineKind(3, 4)) == want
    # at h = 0.1 a narrow float divided in its own precision lands on another cell fraction
    f, kind = GridField(np.sin(np.arange(64.0) * 0.3).reshape(8, 8), h=0.1), SplineKind(5, 4)
    for dtype in (np.float32, np.float16):
        pts = np.random.default_rng(0).uniform(0.0, 0.8, (16, 2)).astype(dtype)
        got = [SCALAR_ENTRIES[entry](f, tuple(p), kind) for p in pts]
        assert got == [SCALAR_ENTRIES[entry](f, tuple(p.tolist()), kind) for p in pts]
        if entry != "partitioned_evaluate":
            orders = (0, 1) if entry == "evaluate_derivative" else None
            assert np.array(got).tobytes() == evaluate_many(f, pts, kind, orders).tobytes()


@pytest.mark.parametrize("extent,shown", [(8.7, "8.7"), (True, "True"), (0, "0"), (-3, "-3"), (4.0, "4.0")])
def test_sample_rejects_an_extent_that_is_not_a_positive_integer(extent, shown):
    with pytest.raises(ValueError, match=re.escape(f"extent {shown} on axis 1 is not an integer >= 1")):
        GridField.sample(lambda p: pytest.fail("func called"), (4, extent), 0.125)


def test_sample_rejects_dims_that_are_not_a_sequence():
    with pytest.raises(ValueError, match=re.escape("dims 8 is not a sequence: need one extent per axis")):
        GridField.sample(lambda p: pytest.fail("func called"), 8, 1.0)


def test_sample_takes_numpy_integer_extents():
    assert GridField.sample(lambda p: p[0], (np.int64(3), np.uint8(2)), 0.5).dims == (3, 2)


def test_field_rejects_zero_extent_axis():
    with pytest.raises(ValueError, match="axis 1 has extent 0"):
        GridField(np.zeros((4, 0)), h=1.0)
    with pytest.raises(ValueError, match="axis 0 has extent 0"):
        GridField(np.zeros(0), h=1.0, boundary=STRICT)


def test_non_integer_derivative_order_is_rejected_on_every_path():
    f = GridField(np.arange(64.0).reshape(8, 8), h=1.0)
    kind = SplineKind(5, 4)
    want = r"derivative order 1\.5 on axis 1 is not an integer"
    with pytest.raises(ValueError, match=want):
        evaluate_derivative(f, (3.5, 3.5), kind, (0, 1.5))
    with pytest.raises(ValueError, match=want):
        evaluate_at_cell(f, (3, 3), (0.5, 0.5), kind, orders=(0, 1.5))
    with pytest.raises(ValueError, match=want):
        evaluate_many(f, np.full((2, 2), 3.5), kind, orders=(0, 1.5))
    with pytest.raises(ValueError, match=r"derivative order 1\.0 on axis 0"):
        evaluate_derivative(f, (3.5, 3.5), kind, (1.0, 0))
    # numpy integers are orders like any other
    dx = evaluate_derivative(f, (3.5, 3.5), kind, (1, 0))
    assert evaluate_derivative(f, (3.5, 3.5), kind, (np.int64(1), 0)) == dx


@pytest.mark.parametrize("bad", [1, 1.5, np.int64(2)])
def test_orders_that_are_not_a_sequence_are_rejected_on_every_path(bad):
    f = GridField(np.arange(16.0), h=1.0)
    kind = SplineKind(5, 4)
    want = re.escape(f"derivative orders {bad!r} are not a sequence: need one order per axis")
    with pytest.raises(ValueError, match=want):
        evaluate_derivative(f, (1.5,), kind, bad)
    with pytest.raises(ValueError, match=want):
        evaluate_at_cell(f, (3,), (0.5,), kind, orders=bad)
    with pytest.raises(ValueError, match=want):
        evaluate_many(f, np.full((2, 1), 1.5), kind, bad)


@pytest.mark.parametrize("bad", [True, False, np.True_])
def test_bool_derivative_order_is_rejected_on_every_path(bad):
    f = GridField(np.arange(64.0).reshape(8, 8), h=1.0)
    kind = SplineKind(5, 4)
    want = f"derivative order {bad!r} on axis 0 is not an integer"
    with pytest.raises(ValueError, match=want):
        evaluate_derivative(f, (3.5, 3.5), kind, (bad, 0))
    with pytest.raises(ValueError, match=want):
        evaluate_at_cell(f, (3, 3), (0.5, 0.5), kind, orders=(bad, 0))
    with pytest.raises(ValueError, match=want):
        evaluate_many(f, np.full((2, 2), 3.5), kind, orders=(bad, 0))


def test_order_beyond_m_is_rejected_before_scaling():
    # 1e-3 ** -400 overflows a float: the order must be rejected first
    f = GridField(np.zeros(16), h=1e-3)
    with pytest.raises(DerivativeTooHigh):
        evaluate_derivative(f, (0.005,), SplineKind(5, 4), (400,))
    with pytest.raises(DerivativeTooHigh):
        evaluate_many(f, np.full((2, 1), 0.005), SplineKind(5, 4), orders=(400,))


def test_an_order_above_m_names_its_axis_on_every_path():
    f = GridField(np.arange(64.0).reshape(8, 8), h=1.0)
    strict = GridField(f.data, h=1.0, boundary=STRICT)
    kind = SplineKind(5, 4)
    want = "^" + re.escape("derivative order 3 on axis 1 not in 0..2 for kind (5,4)") + "$"
    with pytest.raises(DerivativeTooHigh, match=want):
        evaluate_derivative(f, (3.5, 3.5), kind, (0, 3))
    with pytest.raises(DerivativeTooHigh, match=want):
        evaluate_at_cell(f, (3, 3), (0.5, 0.5), kind, orders=(0, 3))
    # evaluate_many's own order check (an empty set), then its row-by-row route: numeric rows, ragged rows and a
    # first point whose strict stencil leaves the grid all meet the order first
    for field, points in [
        (f, np.empty((0, 2))),
        (f, np.full((2, 2), 3.5)),
        (f, [[3.5, 3.5], [3.5]]),
        (strict, [[0.5, 0.5], [3.5, 3.5]]),
    ]:
        with pytest.raises(DerivativeTooHigh, match=want):
            evaluate_many(field, points, kind, orders=(0, 3))
    # the basis layer has no axis to name
    with pytest.raises(DerivativeTooHigh, match=r"^derivative order 3 not in 0\.\.2 for kind \(5,4\)$"):
        derive_beta(kind).form(3)


def test_evaluate_at_cell_checks_its_arguments():
    f = GridField(np.arange(8.0), h=1.0)
    kind = SplineKind(3, 4)
    with pytest.raises(ValueError, match=r"fraction 7\.5 on axis 0 is outside \[0, 1\]"):
        evaluate_at_cell(f, (3,), (7.5,), kind)
    with pytest.raises(ValueError, match=r"fraction -0\.25 on axis 0"):
        evaluate_at_cell(f, (3,), (-0.25,), kind)
    with pytest.raises(ValueError, match=r"fraction nan on axis 0"):
        evaluate_at_cell(f, (3,), (float("nan"),), kind)
    with pytest.raises(ValueError, match="one derivative order per axis, got 3"):
        evaluate_at_cell(f, (3,), (0.5,), kind, orders=(0, 1, 1))
    with pytest.raises(ValueError, match="one cell index and one fraction per axis, got 1 and 2"):
        evaluate_at_cell(f, (3,), (0.5, 0.5), kind)
    with pytest.raises(ValueError, match="one cell index and one fraction per axis, got 2 and 1"):
        evaluate_at_cell(f, (3, 3), (0.5,), kind)
    # both ends of the unit interval stay legal: frac = 1.0 is the left-hand limit at the next node
    assert evaluate_at_cell(f, (3,), (1.0,), kind) == evaluate_at_cell(f, (4,), (0.0,), kind) == 4.0


@pytest.mark.parametrize(
    "bad", [np.complex128(0.5 + 0.5j), np.complex64(0.5), 0.5 + 0j, "0.5", None, np.timedelta64(0, "ns")]
)
def test_a_fraction_that_is_not_real_is_rejected(bad):
    # numpy orders complex values lexicographically, so 0 <= 0.5+0.5j <= 1 holds for a numpy complex
    for axis, frac in enumerate([(bad,), (0.5, bad)]):
        want = re.escape(f"cell fraction {bad!r} on axis {axis} is not a real number")
        f = GridField(np.arange(16.0 ** len(frac)).reshape((16,) * len(frac)), h=1.0)
        with pytest.raises(ValueError, match=want):
            evaluate_at_cell(f, (3,) * len(frac), frac, SplineKind(5, 4))
        with pytest.raises(ValueError, match=want):
            evaluate_hermite(lambda orders, node: 1.0, frac, 3)


@pytest.mark.parametrize(
    "huge",
    [10**400, -(10**400), Fraction(10**400, 3), np.longdouble("1e400"), -np.longdouble("1e400")],
    ids=["int", "negative int", "Fraction", "longdouble", "negative longdouble"],
)
def test_a_fraction_beyond_the_float_range_says_so(huge):
    for axis, frac in enumerate([(huge,), (0.5, huge)]):
        want = re.escape(f"cell fraction {huge!r} on axis {axis} is beyond the float range")
        f = GridField(np.arange(16.0 ** len(frac)).reshape((16,) * len(frac)), h=1.0)
        with pytest.raises(ValueError, match=want):
            evaluate_at_cell(f, (3,) * len(frac), frac, SplineKind(5, 4))
        with pytest.raises(ValueError, match=want):
            evaluate_hermite(lambda orders, node: 1.0, frac, 3)


_F = GridField(np.zeros((8, 6)), h=(1.0, 0.5), boundary=STRICT)
_K, _TUPLE = SplineKind(5, 4), (5, 4)
_OUTSIDE, _NAN = (3.25, 2.75), (3.25, float("nan"))  # cell (3, 5): its axis-1 stencil leaves the grid
PRECEDENCE = [
    # evaluate and evaluate_derivative: point, then kind, then orders (a sequence, then length, then per axis
    # in axis order: integer, then range), then the domain, named with the point
    ("length|kind", lambda: evaluate(_F, (3.25,), _TUPLE), ValueError, "point has 1 coordinates"),
    ("point|tuple kind", lambda: evaluate(_F, _NAN, _TUPLE), InvalidPoint, "not finite"),
    ("tuple kind|domain", lambda: evaluate(_F, _OUTSIDE, _TUPLE), InvalidKind, "not a SplineKind"),
    ("point|kind", lambda: evaluate(_F, _NAN, None), InvalidPoint, "not finite"),
    ("kind|domain", lambda: evaluate(_F, _OUTSIDE, None), InvalidKind, "kind None is not a SplineKind"),
    ("d:point|kind", lambda: evaluate_derivative(_F, _NAN, _TUPLE, (0,)), InvalidPoint, "not finite"),
    ("d:kind|orders", lambda: evaluate_derivative(_F, _OUTSIDE, _TUPLE, (0,)), InvalidKind, "not a SplineKind"),
    ("d:length|integer", lambda: evaluate_derivative(_F, _OUTSIDE, _K, (1.5,)), ValueError, "per axis, got 1"),
    ("d:point|sequence", lambda: evaluate_derivative(_F, _NAN, _K, 1), InvalidPoint, "not finite"),
    ("d:kind|sequence", lambda: evaluate_derivative(_F, _OUTSIDE, _TUPLE, 1), InvalidKind, "not a SplineKind"),
    ("d:sequence|domain", lambda: evaluate_derivative(_F, _OUTSIDE, _K, 1), ValueError, "orders 1 are not a sequence"),
    ("d:integer|range", lambda: evaluate_derivative(_F, _OUTSIDE, _K, (1.5, 9)), ValueError, "1.5 on axis 0"),
    ("d:range|integer", lambda: evaluate_derivative(_F, _OUTSIDE, _K, (9, 1.5)), DerivativeTooHigh, "order 9 on axis 0"),
    ("d:integer|domain", lambda: evaluate_derivative(_F, _OUTSIDE, _K, (0, 1.5)), ValueError, "1.5 on axis 1"),
    ("d:range|domain", lambda: evaluate_derivative(_F, _OUTSIDE, _K, (0, 3)), DerivativeTooHigh, "order 3 on axis 1"),
    ("d:domain", lambda: evaluate_derivative(_F, _OUTSIDE, _K, (1, 2)), OutOfDomain, r"^point \(3\.25, 2\.75\): cell"),
    # evaluate_at_cell: kind, then the cell and fraction lengths, fractions, orders, then per axis in axis
    # order the cell index (an integer) and the domain (no point)
    ("c:kind|length", lambda: evaluate_at_cell(_F, (3,), (0.5, 0.5), _TUPLE), InvalidKind, "not a SplineKind"),
    ("c:kind|cell sequence", lambda: evaluate_at_cell(_F, 3, (0.5, 0.5), _TUPLE), InvalidKind, "not a SplineKind"),
    ("c:cell sequence|fraction sequence", lambda: evaluate_at_cell(_F, 3, 0.5, _K), ValueError, "^cell 3 is not a"),
    ("c:fraction sequence|length", lambda: evaluate_at_cell(_F, (3,), 0.5, _K), ValueError, r"^frac 0\.5 is not a seq"),
    ("c:length|fraction", lambda: evaluate_at_cell(_F, (3,), (7.5, 0.5), _K), ValueError, "got 1 and 2"),
    ("c:fraction|orders", lambda: evaluate_at_cell(_F, (3, 5), (7.5, 0.5), _K, (0,)), ValueError, "fraction 7.5"),
    ("c:real|orders", lambda: evaluate_at_cell(_F, (3, 5), (0.5, 0.5j), _K, 1), ValueError, "0.5j on axis 1 is not a real"),
    ("c:orders|domain", lambda: evaluate_at_cell(_F, (3, 5), (0.5, 0.5), _K, (3, 0)), DerivativeTooHigh, "order 3 on axis 0"),
    ("c:orders|cell", lambda: evaluate_at_cell(_F, (3.5, 5), (0.5, 0.5), _K, (3, 0)), DerivativeTooHigh, "order 3 on axis 0"),
    ("c:cell|domain", lambda: evaluate_at_cell(_F, (3.5, 5), (0.5, 0.5), _K), ValueError, "3.5 on axis 0"),
    ("c:domain|cell", lambda: evaluate_at_cell(_F, (9, 2.5), (0.5, 0.5), _K), OutOfDomain, r"^cell \(9, 2\.5\): .* axis 0"),
    ("c:domain", lambda: evaluate_at_cell(_F, (3, 5), (0.5, 0.5), _K, (1, 2)), OutOfDomain, r"^cell \(3, 5\)"),
    # evaluate_many: the points' shape, then the first point, kind and orders as the scalar entries order them
    # (a later bad point comes after the kind and orders), then the first bad point
    ("m:shape|kind", lambda: evaluate_many(_F, [3.25], _TUPLE), ValueError, r"shape \(N, 2\), got \(1,\)"),
    ("m:point|tuple kind", lambda: evaluate_many(_F, [_NAN, _OUTSIDE], _TUPLE), InvalidPoint, "not finite"),
    ("m:point|text kind", lambda: evaluate_many(_F, [_NAN, _OUTSIDE], "x"), InvalidPoint, "not finite"),
    ("m:point|list kind", lambda: evaluate_many(_F, [_NAN], [5, 4]), InvalidPoint, "not finite"),
    ("m:point|integer", lambda: evaluate_many(_F, [_NAN, _OUTSIDE], _K, (1.5, 0)), InvalidPoint, "not finite"),
    ("m:point|range", lambda: evaluate_many(_F, [_NAN, _OUTSIDE], _K, (3, 0)), InvalidPoint, "not finite"),
    ("m:point|sequence", lambda: evaluate_many(_F, [_NAN], _K, 1), InvalidPoint, "not finite"),
    ("m:kind|later point", lambda: evaluate_many(_F, [_OUTSIDE, _NAN], _TUPLE), InvalidKind, "not a SplineKind"),
    ("m:range|later point", lambda: evaluate_many(_F, [_OUTSIDE, _NAN], _K, (3, 0)), DerivativeTooHigh, "order 3 on axis 0"),
    ("m:range|domain", lambda: evaluate_many(_F, [_OUTSIDE, _OUTSIDE], _K, (3, 0)), DerivativeTooHigh, "order 3 on axis 0"),
    ("m:domain|later point", lambda: evaluate_many(_F, [_OUTSIDE, _NAN], _K), OutOfDomain, r"^point \(3\.25, 2\.75\)"),
    ("m:domain|later text row", lambda: evaluate_many(_F, [_OUTSIDE, ("x", 1.0)], _K), OutOfDomain, r"^point \(3\.25, 2\.75\)"),
    # gather_local: the half-width, then the cell (a sequence, then its length), then the domain
    ("l:half-width|cell sequence", lambda: gather_local(_F, 3, 0), ValueError, "half-width g 0 is not an integer >= 1"),
    ("l:cell sequence", lambda: gather_local(_F, 3, 1), ValueError, "^cell 3 is not a sequence: need one index per"),
    ("l:length|domain", lambda: gather_local(_F, (3,), 1), ValueError, "cell has 1 indices, field has 2 axes"),
    # partitioned_evaluate: split_axis and split_index (each an integer), the split axis, then kind, point, domain
    ("p:split axis|index", lambda: partitioned_evaluate(_F, _NAN, _TUPLE, 0.5, 2.5), ValueError, "split_axis 0.5"),
    ("p:split index|axis", lambda: partitioned_evaluate(_F, _NAN, _TUPLE, 5, 2.5), ValueError, "split_index 2.5"),
    ("p:axis|kind", lambda: partitioned_evaluate(_F, _NAN, _TUPLE, 2, 3), ValueError, "split_axis 2 is not an axis"),
    ("p:kind|point", lambda: partitioned_evaluate(_F, _NAN, _TUPLE, 1, 3), InvalidKind, "not a SplineKind"),
    ("p:point|domain", lambda: partitioned_evaluate(_F, (99.0, math.nan), _K, 1, 3), InvalidPoint, "not finite"),
    ("p:domain", lambda: partitioned_evaluate(_F, _OUTSIDE, _K, 1, 3), OutOfDomain, r"^point \(3\.25, 2\.75\): cell"),
    # GridField: complex data, a data entry that is not a real float, axes, the grid constants (their count, then
    # per axis a real number, then positive and finite), a zero extent, the boundary
    ("g:complex|axes", lambda: GridField(np.array(1j), h=()), ValueError, r"entry .*1j.* at index \(\) is not a real"),
    ("g:real|axes", lambda: GridField(np.array(None), h=()), ValueError, r"entry None at index \(\) is not a real"),
    ("g:axes|count", lambda: GridField(np.array(3.0), h=(1.0,)), ValueError, "field data has no axes"),
    ("g:count|constant", lambda: GridField(np.zeros((0, 4)), h=(None,)), ValueError, "got 1 for 2 axes"),
    ("g:number|positive", lambda: GridField(np.zeros((0, 4)), h=(None, -1.0)), ValueError, "None on axis 0 is not a"),
    ("g:positive|extent", lambda: GridField(np.zeros((0, 4)), h=(1.0, -1.0)), ValueError, "-1.0 on axis 1 is not pos"),
    ("g:extent|boundary", lambda: GridField(np.zeros((4, 0)), h=1.0, boundary="x"), ValueError, "axis 1 has extent 0"),
    ("g:boundary", lambda: GridField(np.zeros((4, 2)), h=1.0, boundary="x"), ValueError, "boundary must be"),
]


@pytest.mark.parametrize("call,error,match", [p[1:] for p in PRECEDENCE], ids=[p[0] for p in PRECEDENCE])
def test_scalar_entries_keep_their_error_precedence(call, error, match):
    # each case is bad in two adjacent steps (one, the last, only in the domain): the earlier step's error wins
    with pytest.raises(error, match=match) as info:
        call()
    assert type(info.value) is error


def test_a_point_that_is_not_a_sequence_is_rejected():
    f = GridField(np.zeros(8), h=1.0)
    named = re.escape("point 1.5 is not a sequence: need one coordinate per axis")
    for call in (
        lambda: grid_coordinates(1.5, f),
        lambda: evaluate(f, 1.5, SplineKind(5, 4)),
        lambda: evaluate_derivative(f, 1.5, SplineKind(5, 4), (1,)),
        lambda: partitioned_evaluate(f, 1.5, SplineKind(5, 4), 0, 3),
        lambda: evaluate_hermite(lambda orders, node: 1.0, 1.5, 3),
    ):
        with pytest.raises(ValueError, match=named):
            call()


_NUMPY_REALS = (np.float64, np.float32, np.float16, np.longdouble, np.int64, np.uint8)
COORDINATES = st.one_of(
    st.floats(),
    st.floats(-20.0, 20.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -2.0**63, 5e-324]),  # non-finite, huge and tiny
    st.sampled_from([np.longdouble("1e400"), -np.longdouble("1e400")]),  # finite, beyond the float range
    st.integers(),
    st.builds(lambda t, x: t(x), st.sampled_from(_NUMPY_REALS), st.integers(0, 20)),
    st.builds(np.float32, st.floats(-20.0, 20.0, width=32)),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.fractions(),
    st.decimals(),
    st.complex_numbers(),
    st.complex_numbers(max_magnitude=20.0).map(np.complex128),
    st.text(max_size=4),
    st.none(),
)
_FIELDS = [GridField(np.sin(np.arange(48.0)).reshape(8, 6), h=(1.0, 0.5), boundary=b) for b in (PERIODIC, STRICT)]


def _outcome(call):
    """The result's bytes, or the class and message of the library error raised."""
    try:
        return np.float64(call()).tobytes()
    except ValueError as exc:  # every library error is a ValueError
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.tuples(COORDINATES, COORDINATES), st.sampled_from(_FIELDS))
def test_scalar_and_batched_paths_share_one_input_contract(point, f):
    # a one-row object array: numpy would turn a row that mixes numbers and text into text
    kind = SplineKind(5, 4)
    scalar = _outcome(lambda: evaluate(f, point, kind))
    assert _outcome(lambda: evaluate_many(f, np.array([point], dtype=object), kind)[0]) == scalar


@pytest.mark.parametrize("bad", ["1.5", None, Decimal("1.5"), np.timedelta64(3, "ns"), np.timedelta64(2, "s")])
def test_both_paths_reject_a_coordinate_that_is_not_a_real_number(bad):
    f, kind = GridField(np.sin(np.arange(64.0)).reshape(8, 8), h=1.0), SplineKind(5, 4)
    named = re.escape(f"point (1.5, {bad!r}): coordinate {bad!r} on axis 1 is not a real number")
    for call in (
        lambda: evaluate(f, (1.5, bad), kind),
        lambda: evaluate_many(f, np.array([(2.5, 1.5), (1.5, bad)], dtype=object), kind),
    ):
        with pytest.raises(InvalidPoint, match=named):
            call()


@pytest.mark.parametrize(
    "huge",
    [10**400, -(10**400), Fraction(10**400, 3), np.longdouble("1e400")],
    ids=["int", "negative", "fraction", "longdouble"],
)
def test_both_paths_reject_a_coordinate_beyond_the_float_range(huge):
    # a longdouble row makes a longdouble array, which evaluate_many hands to the scalar entry row by row
    f, kind = GridField(np.sin(np.arange(64.0)).reshape(8, 8), h=1.0), SplineKind(5, 4)
    named = re.escape(f"point (1.5, {huge!r}): coordinate {huge!r} on axis 1 is beyond the float range")
    for call in (lambda: evaluate(f, (1.5, huge), kind), lambda: evaluate_many(f, [(2.5, 1.5), (1.5, huge)], kind)):
        with pytest.raises(InvalidPoint, match=named):
            call()
    # naming an earlier bad coordinate does not convert the huge one
    for call in (lambda: evaluate(f, (math.nan, huge), kind), lambda: evaluate_many(f, [(math.nan, huge)], kind)):
        with pytest.raises(InvalidPoint, match=re.escape("coordinate nan on axis 0 is not finite")):
            call()


def test_evaluate_many_reads_each_coordinate_as_given():
    f, kind = GridField(np.sin(np.arange(64.0)).reshape(8, 8), h=1.0), SplineKind(5, 4)
    # a text array is not parsed, and a list row mixing numbers with text or complex values names the bad one
    with pytest.raises(InvalidPoint, match=re.escape("coordinate '1.5' on axis 0 is not a real number")):
        evaluate_many(f, [["1.5", "2.5"], ["2.5", "1.5"]], kind)
    with pytest.raises(InvalidPoint, match=re.escape("point (1.5, 'x'): coordinate 'x' on axis 1 is not a real")):
        evaluate_many(f, [[1.5, "x"], [2.5, 1.5]], kind)
    with pytest.raises(InvalidPoint, match=re.escape("point (1.5, (2+1j)): coordinate (2+1j) on axis 1 is complex")):
        evaluate_many(f, [[1.5, 2 + 1j], [2.5, 1.5]], kind)
    # an array keeps its values: a datetime64 array is not read as integer nanoseconds
    stamps = np.array([[1, 2], [3, 4]], dtype="datetime64[ns]")
    with pytest.raises(InvalidPoint, match=re.escape(f"coordinate {stamps[0, 0]!r} on axis 0 is not a real number")):
        evaluate_many(f, stamps, kind)
    with pytest.raises(InvalidPoint, match=re.escape(f"coordinate {stamps[0, 0]!r} on axis 0 is not a real number")):
        evaluate(f, tuple(stamps[0]), kind)
    # an object array of Fractions is read as their values
    fractions = np.array([[Fraction(3, 2), Fraction(5, 2)], [Fraction(1, 3), 2]], dtype=object)
    want = evaluate_many(f, [[1.5, 2.5], [1 / 3, 2.0]], kind)
    assert evaluate_many(f, fractions, kind).tobytes() == want.tobytes() != np.zeros(2).tobytes()


def test_field_data_is_immutable():
    f = GridField(np.zeros(4), h=(1.0,))
    with pytest.raises(ValueError):
        f.data[0] = 1.0


@pytest.mark.parametrize("n,q", [(3, 4), (5, 6), (9, 6)])
def test_constant_field_reproduced(n, q):
    f = GridField(np.full((9, 7), 4.25), h=(0.5, 2.0))
    v = evaluate(f, (1.3, 9.9), SplineKind(n, q))
    assert abs(v - 4.25) <= 1e-13 * 4.25


def test_linear_field_reproduced():
    f = GridField.sample(lambda p: p[0], (40,), 0.25, STRICT)
    for x in (1.1, 3.7, 8.45):
        assert abs(evaluate(f, (x,), SplineKind(3, 4)) - x) <= 1e-12 * abs(x)


@pytest.mark.parametrize("kind", [(5, 4), "5,4", None])
def test_a_kind_that_is_not_a_spline_kind_raises_invalid_kind(kind):
    f = GridField(np.zeros(8), h=(1.0,))
    named = re.escape(f"kind {kind!r} is not a SplineKind")
    for call in (lambda: derive_beta(kind), lambda: evaluate(f, (0.5,), kind), lambda: evaluate_many(f, [[0.5]], kind)):
        with pytest.raises(InvalidKind, match=named):
            call()


LIST_KIND_ENTRIES = {
    "evaluate": lambda f, kind: evaluate(f, (0.5,), kind),
    "evaluate_derivative": lambda f, kind: evaluate_derivative(f, (0.5,), kind, (1,)),
    "evaluate_at_cell": lambda f, kind: evaluate_at_cell(f, (3,), (0.5,), kind),
    "partitioned_evaluate": lambda f, kind: partitioned_evaluate(f, (0.5,), kind, 0, 3),
    "evaluate_many": lambda f, kind: evaluate_many(f, [[0.5], [1.5]], kind),
    "derive_beta": lambda f, kind: derive_beta(kind),
}


@pytest.mark.parametrize("entry", LIST_KIND_ENTRIES)
def test_a_list_kind_raises_invalid_kind(entry):
    # derive_beta checks the kind before its cache, which could not hash a list
    with pytest.raises(InvalidKind, match=re.escape("kind [5, 4] is not a SplineKind")):
        LIST_KIND_ENTRIES[entry](GridField(np.zeros(8), h=(1.0,)), [5, 4])


def test_2d_evaluate_matches_direct_tensor_system():
    rng = np.random.default_rng(21)
    data = rng.standard_normal((6, 6))
    f = GridField(data, h=(1.0, 1.0))
    point = (0.3, 0.7)
    cc = grid_coordinates(point, f)
    want = float(direct_evaluate(data, cc.cell, tuple(Fraction(v) for v in cc.frac), 3, 1))
    got = evaluate(f, point, SplineKind(3, 4))
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_derivative_of_constant_is_zero():
    f = GridField(np.full((8, 8), 3.0), h=(1.0, 1.0))
    v = evaluate_derivative(f, (2.2, 5.5), SplineKind(5, 4), (1, 0))
    assert abs(v) <= 1e-12


def test_derivative_of_linear_field():
    f = GridField.sample(lambda p: p[0], (40,), 0.25, STRICT)
    v = evaluate_derivative(f, (4.3,), SplineKind(5, 4), (1,))
    assert abs(v - 1.0) <= 1e-11


def test_second_derivative_of_quadratic():
    f = GridField.sample(lambda p: p[0] ** 2, (24,), 1.0, STRICT)
    kind = SplineKind(5, 4)
    v = evaluate_derivative(f, (10.5,), kind, (2,))
    assert abs(v - 2.0) <= 1e-10 * 2.0
    # cross-check against a second difference of evaluate
    d = 1e-3
    fd = (
        evaluate(f, (10.5 + d,), kind)
        - 2.0 * evaluate(f, (10.5,), kind)
        + evaluate(f, (10.5 - d,), kind)
    ) / d**2
    assert abs(fd - v) <= 1e-5 * abs(v)


def test_derivative_rejects_order_above_m():
    f = GridField(np.zeros(8), h=(1.0,))
    with pytest.raises(DerivativeTooHigh):
        evaluate_derivative(f, (2.5,), SplineKind(3, 4), (2,))


def test_derivative_scaling_with_grid_constant():
    # d/dx of sin(x) sampled with h != 1 must come out in physical units
    f = GridField.sample(lambda p: np.sin(p[0]), (64,), 0.1, STRICT)
    v = evaluate_derivative(f, (3.21,), SplineKind(5, 6), (1,))
    assert abs(v - np.cos(3.21)) <= 1e-5  # truncation-limited; a missing 1/h would be off by 10x


def test_hermite_linear_2d():
    def provider(orders, node):
        if orders == (0, 0):
            return float(node[0] + node[1])
        if orders in ((1, 0), (0, 1)):
            return 1.0
        return 0.0

    assert abs(evaluate_hermite(provider, (0.5, 0.5), 3) - 1.0) <= 1e-13


def test_hermite_reproduces_cubic():
    def provider(orders, node):
        x = float(node[0])
        return {0: x**3, 1: 3 * x**2}[orders[0]]

    for x in (0.0, 0.25, 0.37, 0.9, 1.0):
        assert abs(evaluate_hermite(provider, (x,), 3) - x**3) <= 1e-12


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 5])
def test_hermite_provider_call_count(dims, n):
    m = (n - 1) // 2
    calls = []

    def provider(orders, node):
        calls.append((orders, node))
        return 1.0

    evaluate_hermite(provider, (0.3,) * dims, n)
    assert len(calls) == 2**dims * (m + 1) ** dims
    assert len(set(calls)) == len(calls)


def test_hermite_rejects_bad_points():
    def provider(orders, node):
        return 1.0

    with pytest.raises(ValueError, match="no coordinates"):
        evaluate_hermite(provider, (), 3)
    with pytest.raises(ValueError, match=r"cell fraction 2\.0 on axis 0 is outside \[0, 1\]"):
        evaluate_hermite(provider, (2.0,), 3)
    with pytest.raises(ValueError, match=r"cell fraction -0\.1 on axis 1 is outside \[0, 1\]"):
        evaluate_hermite(provider, (0.5, -0.1), 3)
    with pytest.raises(ValueError, match="cell fraction nan on axis 0"):
        evaluate_hermite(provider, (float("nan"), 0.5), 3)
    # both ends of the cell stay legal
    assert evaluate_hermite(provider, (0.0, 1.0), 3) == 1.0


@pytest.mark.parametrize(
    "bad", ["x", None, Decimal("0.5"), 1 + 2j, np.complex128(1.0), np.array(1.0), np.timedelta64(1, "s")]
)
def test_hermite_rejects_a_provider_value_that_is_not_real(bad):
    def provider(orders, node):
        return bad if (orders, node) == ((1, 0), (1, 0)) else 1.0

    want = re.escape(f"provider value {bad!r} for orders (1, 0) at node (1, 0) is not a real number")
    with pytest.raises(ValueError, match=want):
        evaluate_hermite(provider, (0.5, 0.25), 3)
    # numpy and Python real numbers all pass
    for good in (np.float32(1.0), np.int64(1), np.bool_(True), Fraction(1), True):
        assert evaluate_hermite(lambda orders, node, v=good: v if orders == (0, 0) else 0.0, (0.5, 0.25), 3) == 1.0


def test_hermite_sums_each_provider_value_as_a_float():
    # a float32 value is widened before the sum, as a float32 coordinate is: the float64 provider's bits
    def provider(value):
        return lambda orders, node: value if orders == (1,) else 0.25

    want = evaluate_hermite(provider(float(np.float32(0.1))), (0.3,), 3)
    got = evaluate_hermite(provider(np.float32(0.1)), (0.3,), 3)
    assert type(got) is float and got == want
    for huge in (10**400, Fraction(-(10**400), 3), np.longdouble("1e400")):
        named = re.escape(f"provider value {huge!r} for orders (1,) at node (0,) is beyond the float range")
        with pytest.raises(ValueError, match=named):
            evaluate_hermite(provider(huge), (0.3,), 3)


def test_hermite_consistent_with_grid_spline():
    # feeding the stencil output of the sampled field as derivative data must
    # land on the grid-spline value
    rng = np.random.default_rng(5)
    data = rng.standard_normal(16)
    f = GridField(data, h=(1.0,))
    kind = SplineKind(5, 4)
    table = derive_stencil(kind.g)
    cc = grid_coordinates((7.3,), f)
    cell = cc.cell[0]

    def provider(orders, node):
        vals = [data[(cell + node[0] + k) % 16] for k in range(-kind.g, kind.g + 1)]
        return float(sum(c * v for c, v in zip(table.coeffs[orders[0]], vals)))

    hermite = evaluate_hermite(provider, cc.frac, kind.n)
    grid = evaluate(f, (7.3,), kind)
    assert abs(hermite - grid) <= 1e-12 * max(1.0, abs(grid))


@pytest.mark.parametrize("n,q", [(3, 4), (5, 4), (5, 6), (9, 6)])
def test_continuity_across_cell_boundaries(n, q):
    rng = np.random.default_rng(11)
    f = GridField(rng.standard_normal(16), h=(1.0,))
    kind = SplineKind(n, q)
    for cell in (3, 9, 15):
        for order in range(kind.m + 1):
            right = evaluate_at_cell(f, (cell,), (0.0,), kind, orders=(order,))
            left = evaluate_at_cell(f, (cell - 1,), (1.0,), kind, orders=(order,))
            assert abs(right - left) <= 1e-12 * max(1.0, abs(right), abs(left))


def test_separable_field_factors():
    rng = np.random.default_rng(8)
    u = rng.standard_normal(8)
    v = rng.standard_normal(8)
    f2 = GridField(np.outer(u, v), h=(1.0, 1.0))
    fu = GridField(u, h=(1.0,))
    fv = GridField(v, h=(1.0,))
    kind = SplineKind(5, 4)
    for p in [(2.3, 4.7), (0.1, 7.9), (6.5, 6.5)]:
        lhs = evaluate(f2, p, kind)
        rhs = evaluate(fu, (p[0],), kind) * evaluate(fv, (p[1],), kind)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_partition_split_outside_stencil():
    rng = np.random.default_rng(4)
    f = GridField(rng.standard_normal((8, 8, 8)), h=(1.0, 1.0, 1.0))
    kind = SplineKind(5, 4)
    point = (3.3, 4.4, 3.7)
    full = evaluate(f, point, kind)
    low, high = partitioned_evaluate(f, point, kind, 2, 100)
    assert high == 0.0
    assert low == pytest.approx(full, rel=1e-12)
    low, high = partitioned_evaluate(f, point, kind, 2, -100)
    assert low == 0.0
    assert high == pytest.approx(full, rel=1e-12)


def test_partition_bisecting_the_stencil():
    rng = np.random.default_rng(13)
    f = GridField(rng.standard_normal((8, 8, 8)), h=(1.0, 1.0, 1.0))
    kind = SplineKind(5, 4)
    point = (3.3, 4.4, 3.7)
    full = evaluate(f, point, kind)
    cc = grid_coordinates(point, f)
    for axis in range(3):
        base = cc.cell[axis] - kind.g
        for split in range(base, base + kind.q + 1):
            low, high = partitioned_evaluate(f, point, kind, axis, split)
            assert abs((low + high) - full) <= 1e-12 * max(1.0, abs(full))


def test_partition_slabs_are_the_zeroed_field_evaluations():
    # low holds exactly the nodes below split_index along split_axis, high the rest:
    # each equals, bit for bit, evaluate on a copy with the other slab's nodes zeroed
    rng = np.random.default_rng(31)
    for n, q in ((3, 4), (5, 6)):
        kind = SplineKind(n, q)
        data = rng.standard_normal((9, 8, 10))
        f = GridField(data, h=(1.0, 0.5, 2.0), boundary=STRICT)
        for _ in range(3):
            point = tuple(rng.uniform(kind.g, d - kind.g - 1) * hj for d, hj in zip(f.dims, f.h))
            cc = grid_coordinates(point, f)
            for axis in range(3):
                base = cc.cell[axis] - kind.g
                for split in range(base - 1, base + q + 2):
                    below = (np.arange(f.dims[axis]) < split).reshape([-1 if j == axis else 1 for j in range(3)])
                    low, high = partitioned_evaluate(f, point, kind, axis, split)
                    want_low = evaluate(GridField(np.where(below, data, 0.0), f.h, STRICT), point, kind)
                    want_high = evaluate(GridField(np.where(below, 0.0, data), f.h, STRICT), point, kind)
                    assert (low, high) == (want_low, want_high), (n, q, axis, split)


def test_partition_rejects_bad_split_arguments():
    f = GridField(np.zeros((8, 8, 8)), h=1.0)
    kind = SplineKind(5, 4)
    point = (3.3, 4.4, 3.7)
    with pytest.raises(ValueError, match="split_axis 3 is not an axis"):
        partitioned_evaluate(f, point, kind, 3, 4)
    with pytest.raises(ValueError, match="split_axis -1 is not an axis"):
        partitioned_evaluate(f, point, kind, -1, 4)
    with pytest.raises(ValueError, match=r"split_axis 1\.0 is not an integer"):
        partitioned_evaluate(f, point, kind, 1.0, 4)
    with pytest.raises(ValueError, match=r"split_index 2\.5 is not an integer"):
        partitioned_evaluate(f, point, kind, 2, 2.5)
    with pytest.raises(ValueError, match="split_axis True is not an integer"):
        partitioned_evaluate(f, point, kind, True, 4)
    with pytest.raises(ValueError, match="split_index False is not an integer"):
        partitioned_evaluate(f, point, kind, 2, False)
    assert partitioned_evaluate(f, point, kind, np.int64(2), np.int64(4)) == (0.0, 0.0)


def test_partition_reads_numpy_integer_splits_as_python_ints():
    # a numpy split index near 2**63 would overflow against the cell index: a numpy warning and a wrong split
    f = GridField(np.arange(1.0, 17.0), h=1.0)
    kind = SplineKind(5, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert partitioned_evaluate(f, (-(2.0**62),), kind, 0, np.int64(2**62)) == (1.0, 0.0)
        for x, split in itertools.product([-(2.0**62), 2.0**62, 5.5], [2**62, -(2**62), 3, 7]):
            want = np.array(partitioned_evaluate(f, (x,), kind, 0, split))
            got = np.array(partitioned_evaluate(f, (x,), kind, np.int64(0), np.int64(split)))
            assert got.tobytes() == want.tobytes(), (x, split)


_TD = np.timedelta64(1, "ns")  # numpy makes it an integer type (numbers.Integral); it is a duration, not a count


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda f, k: evaluate_derivative(f, (2.5,), k, (_TD,)), ValueError, f"derivative order {_TD!r} on axis 0"),
        (lambda f, k: evaluate_many(f, [[2.5], [3.5]], k, (_TD,)), ValueError, f"derivative order {_TD!r} on axis 0"),
        (lambda f, k: evaluate_at_cell(f, (_TD,), (0.5,), k), ValueError, f"cell index {_TD!r} on axis 0"),
        (lambda f, k: gather_local(f, (_TD,), 1), ValueError, f"cell index {_TD!r} on axis 0"),
        (lambda f, k: derive_beta(k).form(_TD), ValueError, f"derivative order {_TD!r}"),
        (lambda f, k: beta_eval(derive_beta(k), _TD, 0.5), ValueError, f"derivative order {_TD!r}"),
        (lambda f, k: partitioned_evaluate(f, (2.5,), k, 0, _TD), ValueError, f"split_index {_TD!r}"),
        (lambda f, k: GridField.sample(lambda x: 0.0, (_TD * 8,), 1.0), ValueError, f"extent {_TD * 8!r} on axis 0"),
        (lambda f, k: SplineKind(5, _TD * 4), InvalidKind, "node count must be an even integer"),
        (lambda f, k: SplineKind(_TD * 5, 4), InvalidOrder, "order must be an odd integer"),
        (lambda f, k: derive_alpha(_TD * 5), InvalidOrder, "order must be an odd integer"),
    ],
    ids=["evaluate_derivative", "evaluate_many", "evaluate_at_cell", "gather_local", "form", "beta_eval",
         "partitioned_evaluate", "sample", "kind_q", "kind_n", "derive_alpha"],
)
def test_a_timedelta_is_not_an_integer(call, error, message):
    with pytest.raises(error, match=re.escape(message) + ".*(is not an integer|got)"):
        call(GridField(np.arange(8.0), h=1.0), SplineKind(5, 4))


def test_evaluate_many_matches_scalar_bitwise():
    rng = np.random.default_rng(42)
    f = GridField(rng.standard_normal((8, 8, 8)), h=(1.0, 1.0, 1.0))
    kind = SplineKind(5, 4)
    points = rng.uniform(0, 8, size=(50, 3))
    want = np.array([evaluate(f, tuple(p), kind) for p in points])
    assert evaluate_many(f, points, kind).tobytes() == want.tobytes()


def test_evaluate_many_rejects_bad_arguments():
    f = GridField(np.zeros((8, 8)), h=(1.0, 1.0))
    kind = SplineKind(5, 4)
    with pytest.raises(ValueError, match=r"shape \(N, 2\)"):
        evaluate_many(f, np.zeros((3, 3)), kind)
    with pytest.raises(ValueError, match=r"shape \(N, 2\)"):
        evaluate_many(f, [0.5, 0.5], kind)
    with pytest.raises(ValueError, match="one derivative order per axis"):
        evaluate_many(f, np.zeros((3, 2)), kind, orders=(1,))
    with pytest.raises(DerivativeTooHigh):
        evaluate_many(f, np.zeros((3, 2)), kind, orders=(0, 3))
    with pytest.raises(InvalidKind):
        evaluate_many(f, np.zeros((3, 2)), (5, 4))


BAD_COORDINATES = [
    (float("nan"), "not finite"),
    (float("inf"), "not finite"),
    (float("-inf"), "not finite"),
    (1e300, "int64"),
    (-1e300, "int64"),
    (2.0**62, "int64"),  # 2**63 cells at h = 0.5
    (-(2.0**62), "int64"),
]


@pytest.mark.parametrize("x,reason", BAD_COORDINATES)
@pytest.mark.parametrize("boundary", [PERIODIC, STRICT])
def test_bad_point_raises_invalid_point_on_both_paths(x, reason, boundary):
    f = GridField(np.zeros((8, 8)), h=(1.0, 0.5), boundary=boundary)
    kind = SplineKind(3, 4)
    point = (3.5, x)
    calls = [
        lambda: evaluate(f, point, kind),
        lambda: evaluate_derivative(f, point, kind, (0, 1)),
        lambda: evaluate_many(f, np.array([(3.5, 1.5), point]), kind),
        lambda: evaluate_many(f, np.array([point]), kind, orders=(1, 0)),
    ]
    for call in calls:
        with pytest.raises(InvalidPoint, match=reason) as info:
            call()
        assert "axis 1" in str(info.value)
        assert f"({3.5!r}, {x!r})" in str(info.value)


def test_largest_valid_cell_index_evaluates():
    # the largest float below 2**63 cells still fits an int64 cell index
    f = GridField(np.arange(8.0), h=(1.0,))
    kind = SplineKind(3, 4)
    x = np.nextafter(2.0**63, 0.0)
    assert evaluate_many(f, np.array([[x], [-x]]), kind).tolist() == [
        evaluate(f, (x,), kind),
        evaluate(f, (-x,), kind),
    ]


def test_sample_calls_func_once_with_sparse_node_axes():
    h = (0.1, 0.3, 0.7)
    calls = []

    def func(p):
        calls.append(p)
        return p[0] + p[1] + p[2]

    GridField.sample(func, (3, 4, 5), h)
    assert len(calls) == 1
    (axes,) = calls
    assert [a.shape for a in axes] == [(3, 1, 1), (1, 4, 1), (1, 1, 5)]
    assert all(a.dtype == np.float64 for a in axes)
    assert axes[1].ravel().tolist() == [i * 0.3 for i in range(4)]


def test_sample_broadcasts_constants_and_single_axis_functions():
    f = GridField.sample(lambda p: 2.5, (3, 4), 0.5)
    assert f.data.shape == (3, 4)
    assert (f.data == 2.5).all()
    f = GridField.sample(lambda p: p[1], (3, 4), (1.0, 0.25))
    assert f.data.tolist() == [[0.0, 0.25, 0.5, 0.75]] * 3


def test_sample_rejects_result_that_does_not_broadcast():
    with pytest.raises(ValueError, match=r"returned shape \(5,\), which does not broadcast to \(3, 4\)"):
        GridField.sample(lambda p: np.zeros(5), (3, 4), 1.0)


def test_sample_tabulates_row_major_nodes():
    h = (0.1, 0.3, 0.7)
    f = GridField.sample(lambda p: p[0] + 10.0 * p[1] + 100.0 * p[2], (3, 4, 5), h)
    want = np.empty((3, 4, 5))
    for idx in np.ndindex(3, 4, 5):
        p = tuple(i * hj for i, hj in zip(idx, h))
        want[idx] = p[0] + 10.0 * p[1] + 100.0 * p[2]
    assert f.data.tobytes() == want.tobytes()


@pytest.mark.parametrize("n,q", [(3, 4), (5, 6), (9, 6)])
def test_polynomial_reproduction_at_field_level(n, q):
    kind = SplineKind(n, q)
    g = kind.g
    h, nodes = 0.5, 12
    for p in range(min(n, 2 * g) + 1):
        f = GridField.sample(lambda pt: pt[0] ** p, (nodes,), h, STRICT)
        rng = np.random.default_rng(100 + p)
        cells = rng.integers(g, nodes - 1 - g, size=20)
        fracs = rng.random(20)
        for c, fr in zip(cells, fracs):
            x = (c + fr) * h
            got = evaluate(f, (x,), kind)
            assert abs(got - x**p) <= 1e-11 * max(1.0, abs(x**p))


def test_concurrent_evaluation_over_shared_state():
    # families and fields are immutable; parallel readers need no coordination
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(17)
    f = GridField(rng.standard_normal((8, 8)), h=(1.0, 1.0))
    kind = SplineKind(5, 4)
    points = [tuple(p) for p in rng.uniform(0, 8, size=(64, 2))]
    expected = [evaluate(f, p, kind) for p in points]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda p: evaluate(f, p, kind), points))
    assert got == expected


def test_container_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    f = GridField(rng.standard_normal((4, 5, 6)), h=(0.5, 1.0, 2.0), boundary=STRICT)
    path = tmp_path / "field.gfd"
    save_field(f, path)
    back = load_field(path)
    assert back.dims == f.dims
    assert back.h == f.h
    assert back.boundary == f.boundary
    assert np.array_equal(back.data, f.data)


def test_container_roundtrip_periodic_1d(tmp_path):
    f = GridField(np.arange(5.0), h=(0.25,))
    path = tmp_path / "field.gfd"
    save_field(f, path)
    assert load_field(path).boundary == PERIODIC


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.gfd"
    path.write_bytes(b"NOTAFLD0" + b"\x00" * 24)
    with pytest.raises(ValueError, match="magic"):
        load_field(path)


def test_container_rejects_truncated_payload(tmp_path):
    f = GridField(np.arange(5.0), h=(0.25,))
    path = tmp_path / "field.gfd"
    save_field(f, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_field(path)


def container_header(dims, h=None, boundary=0) -> bytes:
    h = (1.0,) * len(dims) if h is None else h
    return (
        b"GRIDFLD1"
        + struct.pack("<I", len(dims))
        + struct.pack(f"<{len(dims)}I", *dims)
        + struct.pack(f"<{len(dims)}d", *h)
        + struct.pack("<B", boundary)
    )


def test_save_field_writes_the_header_then_the_little_endian_payload(tmp_path):
    data = np.arange(6.0).reshape(2, 3) / 7.0
    path = tmp_path / "field.gfd"
    save_field(GridField(data, h=(0.5, 0.1), boundary=STRICT), path)
    assert path.read_bytes() == container_header((2, 3), (0.5, 0.1), 1) + data.astype("<f8").tobytes()


def test_container_rejects_short_header(tmp_path):
    path = tmp_path / "short.gfd"
    header = container_header((4, 5))
    for cut in range(len(b"GRIDFLD1"), len(header)):
        path.write_bytes(header[:cut])
        with pytest.raises(ValueError, match="short.gfd: truncated header"):
            load_field(path)


def test_container_bounds_axis_count_by_file_size(tmp_path):
    path = tmp_path / "huge.gfd"
    path.write_bytes(b"GRIDFLD1" + struct.pack("<I", 2**32 - 1) + b"\x00" * 16)
    with pytest.raises(ValueError, match="4294967295 axes need"):
        load_field(path)


def test_container_rejects_an_unknown_boundary_code(tmp_path):
    path = tmp_path / "code.gfd"
    path.write_bytes(container_header((3,), boundary=2) + b"\x00" * 24)
    with pytest.raises(ValueError, match="code.gfd: unknown boundary code 2"):
        load_field(path)


def test_container_rejects_zero_extent_axis(tmp_path):
    path = tmp_path / "empty.gfd"
    path.write_bytes(container_header((3, 0)))
    with pytest.raises(ValueError, match="empty.gfd: axis 1 has extent 0"):
        load_field(path)


@pytest.mark.parametrize("h,named", [((1.0, float("nan")), "grid constant nan on axis 1"), ((), "field data has no axes")])
def test_container_rejects_bad_grid(tmp_path, h, named):
    path = tmp_path / "bad.gfd"
    dims = (3, 2)[: len(h)]
    path.write_bytes(container_header(dims, h) + b"\x00" * 8 * int(np.prod(dims)))
    with pytest.raises(ValueError, match=f"bad.gfd: {named}"):
        load_field(path)


@pytest.mark.parametrize("n,q", [(5, 4), (9, 6), (7, 8), (13, 8)])
def test_derivative_convergence_order_is_min_n_2g_plus_one_minus_l(n, q):
    # 1-D sin(2 pi x), periodic on [0, 1); its order-l derivative is (2 pi)**l sin(2 pi x + l pi / 2)
    kind = SplineKind(n, q)
    x = np.random.default_rng(20261).uniform(0.0, 1.0, size=(4000, 1))
    fields = [GridField.sample(lambda c: np.sin(2 * np.pi * c[0]), (cells,), 1 / cells) for cells in (16, 32, 64)]
    for l in range(min(kind.m, 3) + 1):
        exact = (2 * np.pi) ** l * np.sin(2 * np.pi * x[:, 0] + l * np.pi / 2)
        errors = [np.max(np.abs(evaluate_many(f, x, kind, (l,)) - exact)) for f in fields]
        observed = math.log2(errors[1] / errors[2])
        assert abs(observed - (min(n, 2 * kind.g) + 1 - l)) <= 0.1, (l, errors)


def test_high_order_derivatives_stay_near_the_float_data_floor():
    # (19,12) orders 4 and 6 of sin(2 pi x): the float path's error against the exact derivative, over that of
    # the exact weights summed exactly on the same float data, which no float form can beat.  300 points
    # measured at most 5.7x (h = 1/512, where the data's rounding dominates); the 60 points here, 6.4x.
    # The bound is 2x the 5.7x.
    kind = SplineKind(19, 12)
    family = derive_beta(kind)
    xs = np.random.default_rng(20261).uniform(0.0, 1.0, size=60).tolist()
    for cells in (64, 512):
        f = GridField.sample(lambda c: np.sin(2 * np.pi * c[0]), (cells,), 1 / cells)
        for l in (4, 6):
            exact = [(2 * math.pi) ** l * math.sin(2 * math.pi * x + l * math.pi / 2) for x in xs]
            floats = [evaluate_derivative(f, (x,), kind, (l,)) for x in xs]
            exacts = [float(exact_weights_sum(f, (x,), family, (l,))) for x in xs]
            floor = max(abs(v - e) for v, e in zip(exacts, exact))
            error = max(abs(v - e) for v, e in zip(floats, exact))
            assert error <= 2 * 5.7 * floor, (cells, l, error, floor)


# (kind, orders): D = 2..4, q = 4..12, values and mixed derivative orders
ROUNDING_CASES = [
    ((9, 6), (2, 1)), ((5, 4), (1, 1, 1)), ((9, 6), (0, 0, 0)), ((19, 12), (3, 2, 1)), ((3, 4), (1, 0, 1, 0)),
]


@pytest.mark.parametrize("nq,orders", ROUNDING_CASES)
def test_multi_axis_sum_rounds_within_the_factorised_bound(nq, orders):
    # the float path against the exact sum of v * prod w_j over its own float weights (h = 1, so no scale): each
    # of the D axes rounds q products and q - 1 adds per row, so the error stays within D * (q + 1) * 2**-53
    # times sum |v| prod |w_j|.  Over these 40 points a case, the worst ratio error / (2**-53 sum |v| prod |w_j|)
    # measured 0.70-3.52, and 1.83-6.40 with the weights multiplied out before one sum over the patch
    kind = SplineKind(*nq)
    family, ndim = derive_beta(kind), len(orders)
    rng = np.random.default_rng([kind.q, *orders])
    f = GridField(rng.standard_normal((8,) * ndim), h=1.0)
    for point in rng.uniform(-2.0, 10.0, (40, ndim)).tolist():
        cc = grid_coordinates(point, f)
        weights = [[Fraction(w) for w in beta_eval(family, l, x)] for l, x in zip(orders, cc.frac)]
        values = gather_local(f, cc.cell, kind.g).values.ravel().tolist()
        terms = [Fraction(v) * math.prod(ws) for v, ws in zip(values, itertools.product(*weights))]
        error = abs(Fraction(evaluate_derivative(f, point, kind, orders)) - sum(terms))
        assert error <= ndim * (kind.q + 1) * Fraction(1, 2**53) * sum(map(abs, terms)), point
