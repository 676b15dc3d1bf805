"""D-dimensional grid fields and tensor-product spline evaluation.

A :class:`GridField` stores scalar samples on a regular rectangular grid with
per-axis spacings.  Evaluation rescales the query point to unit cells, gathers
the q**D node values the stencil needs (a view of one array per field and
stencil width), evaluates the per-axis basis weights, and sums the patch
against them one axis at a time.

Every scalar interpolant here is that one sum, run by the ``evaluator`` that
:class:`basis.TensorForm` compiles once per tuple of per-axis forms, as
:func:`_contract` runs it across points: last axis first, each row of q
values times the axis's weights is added in index order to a sum that
starts at 0.0, and the row sums, q at a time, are the next axis's rows,
down to one number.  The scalar entries check their arguments, then run one
private core, :func:`_at_cell`, on the (q,)*D node patch.  Each part of
:func:`partitioned_evaluate` is that sum with the other slab's values
zeroed, which add only +-0.0: it holds exactly the terms, and the
rounding, of its slab.
:func:`evaluate_hermite` sums the (2(m+1),)*D patch of endpoint data in the
alpha form's member order: index l <= m along an axis is order l at cell
end 0, index 2m + 1 - l order l at cell end 1.  Coordinates, cell fractions,
provider values, field data and grid constants must be real numbers
(numbers.Real or np.bool_, but not np.timedelta64) on every path.

The batched engine of :func:`evaluate_many` performs the same floating-point
operations in the same order as :func:`evaluate`, vectorised across points,
and is therefore bitwise identical to it.  Per stage of
S = max(P, CHUNK_TERMS // (D * q)) points, :func:`_block_weights` takes the
coordinates, cell fold, patch corner and domain check, and every axis's
weights at once (:func:`basis.stacked_weights`); per block of
P = CHUNK_TERMS // q**D points (at least 2) of the stage, :func:`_contract`
gathers every patch with one flat ``take`` at precomputed row-major offsets,
then, last axis first, weighs the (rows, q, points) view in place and sums
over q with one ``np.add.reduce`` from 0.0, which adds in index order, not
pairwise, as q is not the contiguous axis.  A one-point tail of either is
taken with its neighbour.  Both paths read a patch as one box of the
field's array for its g (see :class:`GridField`), with one corner rule per
axis: the cell index modulo the extent if periodic, else the first stencil
node, checked to lie inside.

Memory per call, besides the result and the padded copy the field keeps:
one workspace, which the Horner loop and every patch step write with
``out=``; each stage's per-point coordinate and index arrays, about 26 * D
bytes a point; and NumPy's ufunc buffers, UFUNC_BUFFER floats an operand at
most (the default np.getbufsize() is 8 192).
The workspace holds the stage's weights, D * q * S floats, and two parts of
q**D * P floats each, at most CHUNK_TERMS, which the axes' sums take by
turns: the gather offsets (int64) and the patch (before both, the weights'
scratch, (D + q/2) * S floats).  For a 3-D (5,4) kind on a 32**3 grid and
4 000 points (one stage, 1 024-point blocks), that is 375 + 1 024 + 305 KiB,
and tracemalloc sees 1 707 KiB (a first call also pads the field: 335 KiB).

The gather reads the flat array with ``mode="wrap"``, since ``mode="raise"``
buffers its output and so allocates it again.  Its range is checked per point
instead: the per-point stage raises IndexError for a corner whose patch,
flat offsets 0..(q-1)*sum(strides) past it, would leave the array.
"""

import itertools
import math
import numbers
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .basis import SplineKind, _require_derivative_order, _require_grid_kind, derive_alpha, derive_beta, stacked_weights
from .basis import beta_eval  # noqa: F401  (unused here: the benchmark's traced runs bind field.beta_eval)
from .errors import InvalidPoint, OutOfDomain
from .exact import _integer, _is_integer

PERIODIC = "periodic"
STRICT = "strict"

# Scaled coordinates must lie strictly inside (-2**63, 2**63): then the cell
# index, and every stencil offset from it, fits in an int64.
_CELL_LIMIT = 2.0**63
_REAL = (numbers.Real, np.bool_)  # numpy registers its integer and float types as numbers.Real, not np.bool_

# Patch terms per block, and weights per stage, of evaluate_many: a block holds CHUNK_TERMS // q**D points, at
# least 2 (1 024 for a 3-D q = 4 kind, 37 for 3-D q = 12, 5 461 for 1-D q = 12), and a stage the larger of a
# block and CHUNK_TERMS // (D * q) points (5 461, 1 820 and 5 461), so that the workspace's weights, gather
# offsets and terms stay at 512 KiB each.
CHUNK_TERMS = 1 << 16
# The engine's ufunc buffer at most, in elements: NumPy runs each broadcasting call through it, and such a call
# slows as it grows (an index add 3.5x, an axis's weight multiply 1.4x at the default 8 192 against 1 024).
UFUNC_BUFFER = 1 << 10


@dataclass(frozen=True, eq=False)
class GridField:
    """Immutable scalar samples on a regular grid.

    ``data`` is row-major with the last axis contiguous; node (j_1..j_D) sits
    at physical position (j_1*h_1, ..., j_D*h_D).  ``boundary`` selects how
    evaluation treats the edges: PERIODIC wraps indices, STRICT raises
    :class:`OutOfDomain` when the stencil leaves the grid.  Every data entry
    and grid constant must be a real number within the float range, as a
    coordinate must.

    Every patch of half-width g is one box of one read-only array: ``data``
    if strict; if periodic, ``data`` padded with g nodes below and g + 1
    above each axis, made on the first evaluation with that g on either
    path and kept, one per g: at most five, and one per other g that
    :func:`gather_local` is asked for.
    """

    data: np.ndarray
    h: tuple
    boundary: str = PERIODIC

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.dtype.kind not in "biuf" or data.dtype.itemsize > 8:  # a numeric array (not longdouble) at once
            entries = [_real(v, "field data entry {!r} at index {}", index) for index, v in np.ndenumerate(data)]
            data = np.array(entries).reshape(data.shape)
        data = np.array(data, dtype=np.float64, order="C")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        h = self.h if isinstance(self.h, (tuple, list)) or np.ndim(self.h) else (self.h,) * data.ndim  # 0-d: a scalar
        if data.ndim == 0:
            raise ValueError("field data has no axes: a grid needs at least one axis")
        if len(h) != data.ndim:
            raise ValueError(f"need one grid constant per axis: got {len(h)} for {data.ndim} axes")
        for axis, v in enumerate(h):
            v = _real(v[()] if isinstance(v, np.ndarray) else v, "grid constant {!r} on axis {}", axis)  # 0-d: a scalar
            if not 0.0 < v < math.inf:
                raise ValueError(f"grid constant {v!r} on axis {axis} is not positive and finite")
        if 0 in data.shape:
            raise ValueError(f"axis {data.shape.index(0)} has extent 0: every axis needs at least one node")
        object.__setattr__(self, "h", tuple(map(float, h)))
        if self.boundary not in (PERIODIC, STRICT):
            raise ValueError(f"boundary must be {PERIODIC!r} or {STRICT!r}, got {self.boundary!r}")
        object.__setattr__(self, "_boxes", _Boxes(data, self.boundary == PERIODIC))

    @property
    def dims(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @classmethod
    def sample(cls, func: Callable, dims, h, boundary: str = PERIODIC) -> "GridField":
        """Tabulate ``func`` on the grid nodes with a single call.

        ``func`` receives a tuple of D float64 arrays, the node coordinates
        ``i * h_j`` of each axis shaped to broadcast against the others (a
        sparse ``np.meshgrid``), and returns values that broadcast to
        ``dims``: a function of one axis need only return one value per
        node on that axis, a constant function a scalar.  An extent that is
        not an integer >= 1 raises ValueError before ``func`` is called.
        """
        try:
            dims = tuple(dims)
        except TypeError:
            raise _not_a_sequence("dims", dims, "extent") from None
        dims = tuple(_integer(d, "extent {!r} on axis {}", axis, least=1) for axis, d in enumerate(dims))
        h = cls(np.empty((1,) * len(dims)), h).h  # the constructor's checks, on a one-node grid
        coords = np.meshgrid(*(np.arange(d) * hj for d, hj in zip(dims, h)), indexing="ij", sparse=True)
        values = np.asarray(func(tuple(coords)))
        try:
            data = np.broadcast_to(values, dims)
        except ValueError:
            raise ValueError(
                f"sampled function returned shape {values.shape}, which does not broadcast to {dims}"
            ) from None
        return cls(data=data, h=h, boundary=boundary)


class _Boxes(dict):
    """Per half-width g, the read-only array of :class:`GridField` whose boxes are every stencil of g."""

    def __init__(self, data, periodic):  # the data, not the field: no cycle, so reference counting frees a field
        self.data, self.periodic = data, periodic

    def __missing__(self, g):  # the first lookup of g pads a periodic field's data
        ext = np.pad(self.data, [(g, g + 1)] * self.data.ndim, mode="wrap") if self.periodic else self.data
        ext.setflags(write=False)
        return self.setdefault(g, ext)


# Built once per scalar call, by tuple.__new__ at under half the cost of the generated __new__.
class CellCoordinates(NamedTuple):
    """Integer cell indices plus in-cell fractions, one pair per axis."""

    cell: tuple
    frac: tuple


class LocalPatch(NamedTuple):
    """The q**D node values around one cell.

    ``values`` has shape (q,)*D; storage index t along an axis corresponds to
    node offset t - g, so storage (g, ..., g) is the cell's lower corner.
    """

    q: int
    values: np.ndarray


def grid_coordinates(point: Sequence[float], field: GridField) -> CellCoordinates:
    """Split a point into cell indices and unit-cell fractions.

    Floor semantics: negative coordinates land in the correct cell.  A
    fraction that rounds up to 1.0 is folded into the next cell so the
    invariant 0 <= frac < 1 always holds.  A coordinate that is not a real
    number, or beyond the float range, or not finite, or whose cell index
    would not fit an int64, raises :class:`InvalidPoint`.
    """
    h = field.h
    try:
        if len(point) != len(h):
            raise ValueError(f"point has {len(point)} coordinates, field has {len(h)} axes")
    except TypeError:
        raise _not_a_sequence("point", point, "coordinate") from None
    cells, fracs = [], []
    for x, hj in zip(point, h):  # len(cells): the axis
        if type(x) is not float:  # a numpy float would divide in its own precision, so it is widened first
            try:
                x = _as_float(x)
            except ValueError as exc:
                raise _invalid_point(point, len(cells), str(exc)) from None
        u = x / hj
        if not abs(u) < _CELL_LIMIT:
            reason = f"scales to cell coordinate {u:.3g}, beyond the int64 range"
            raise _invalid_point(point, len(cells), reason if math.isfinite(x) else "is not finite")
        c = math.floor(u)  # an int
        frac = u - c
        if frac >= 1.0:
            c += 1
            frac = 0.0
        cells.append(c)
        fracs.append(frac)
    return tuple.__new__(CellCoordinates, (tuple(cells), tuple(fracs)))


def _not_a_sequence(name: str, value, item: str) -> ValueError:
    return ValueError(f"{name} {value!r} is not a sequence: need one {item} per axis")


def _is_real(x) -> bool:
    """The one real-number test: numbers.Real or np.bool_, not np.timedelta64 (numpy registers it as an integer)."""
    return isinstance(x, _REAL) and not isinstance(x, np.timedelta64)


def _as_float(x) -> float:
    """float(x) for a real x within the float range; otherwise ValueError whose message is the reason.

    The reason is "is not a real number" or "is beyond the float range", for the caller to put after the value.
    """
    if not _is_real(x):
        raise ValueError("is not a real number")
    try:
        v = float(x)  # an int or Fraction beyond the range raises OverflowError here; np.longdouble's cast gives inf
    except OverflowError:
        v = math.inf
    if math.isinf(v) and x != v:
        raise ValueError("is beyond the float range")
    return v


def _real(v, what: str, *args) -> float:
    """:func:`_as_float` of an outside value; ValueError naming it as ``what.format(v, *args)`` where that fails."""
    try:
        return _as_float(v)
    except ValueError as exc:
        raise ValueError(f"{what.format(v, *args)} {exc}") from None


def _shown(v):
    """A coordinate as an error names it: a real as a float where one holds it, a complex as complex, else as given."""
    try:
        return _as_float(v)
    except ValueError:
        return complex(v) if isinstance(v, numbers.Complex) and not isinstance(v, numbers.Real) else v


def _invalid_point(point, axis: int, reason: str) -> InvalidPoint:
    point = tuple(map(_shown, point))
    if isinstance(point[axis], complex):
        reason = "is complex: a point has real coordinates"
    return InvalidPoint(f"point {point}: coordinate {point[axis]!r} on axis {axis} {reason}", point=point, axis=axis)


def gather_local(field: GridField, cell: Sequence[int], g: int) -> LocalPatch:
    """The q**D node values whose offsets span -g..g+1 around the cell.

    The patch is a read-only view, one basic slice: of ``field.data`` on a
    strict field, and of the field's padded copy for g on a periodic one,
    where it starts at the cell index modulo the extent, so that it wraps
    as often as needed when the extent is smaller than q, from any integer
    cell index.  An index that is not an integer (a bool included) raises
    ValueError naming its axis.
    """
    g = _integer(g, "stencil half-width g {!r}", least=1)  # an int: a numpy integer would overflow near 2**63
    try:
        if len(cell) != field.ndim:
            raise ValueError(f"cell has {len(cell)} indices, field has {field.ndim} axes")
    except TypeError:
        raise _not_a_sequence("cell", cell, "index") from None
    return LocalPatch(2 * g + 2, _patch(field, cell, g))


def _patch(field, cell, g, point=None):
    """The (q,)*D patch of :func:`gather_local` at a cell, each index checked; OutOfDomain names ``point`` if given."""
    periodic = field.boundary == PERIODIC
    q = 2 * g + 2
    box = []
    for c, extent in zip(cell, field.data.shape):  # len(box) is the axis
        if type(c) is not int:
            c = _integer(c, "cell index {!r} on axis {}", len(box))
        start = c % extent if periodic else c - g  # the patch's corner in field._boxes[g]
        if not (periodic or 0 <= start <= extent - q):
            where = tuple(int(v) if _is_integer(v) else v for v in cell)  # a later axis's bad index stays as given
            message = (
                f"cell {where}: stencil nodes [{start}, {start + q}) on axis {len(box)}"
                f" leave its node range 0..{extent - 1}"
            )
            if point is not None:
                point = tuple(map(_shown, point))
                message = f"point {point}: {message}"
            raise OutOfDomain(message, point=point, axis=len(box), cell=where, extent=extent)
        box.append(slice(start, start + q))
    return field._boxes[g][tuple(box)]


def _fractions(frac) -> tuple:
    """The cell fractions as floats; ValueError naming the first that is not a real number in [0, 1]."""
    for axis, x in enumerate(frac):  # numpy orders complex values lexicographically: _real tests the type first
        if not 0.0 <= _real(x, "cell fraction {!r} on axis {}", axis) <= 1.0:
            raise ValueError(f"cell fraction {x!r} on axis {axis} is outside [0, 1]")
    return tuple(map(float, frac))


def _orders_and_scale(field: GridField, orders, family) -> tuple:
    """Each axis's form of derivative order l (all 0 for None), as a tuple, and prod h_j**-l_j.

    Each l is checked, naming its axis, before h**-l, which overflows for absurd orders.
    """
    h = field.h
    if orders is None:
        orders = (0,) * len(h)
    else:
        try:
            orders = tuple(orders)
        except TypeError:
            raise ValueError(f"derivative orders {orders!r} are not a sequence: need one order per axis") from None
        if len(orders) != len(h):
            raise ValueError(f"need one derivative order per axis, got {len(orders)}")
    forms, found, scale = family._forms, [], 1.0
    for hj, lj in zip(h, orders):  # len(found) is the axis
        if type(lj) is not int or not 0 <= lj < len(forms):
            _require_derivative_order(family, lj, len(found))
        found.append(forms[lj])
        scale *= hj ** (-lj)
    return tuple(found), scale


def _at_cell(field, point, cell, frac, orders, kind):
    """The scalar core at a checked cell: the forms' evaluator on the patch, times prod h_j**-l_j."""
    family = derive_beta(kind)
    forms, scale = _orders_and_scale(field, orders, family)
    values = _patch(field, cell, family.g, point)
    return forms[0].tensors[forms].evaluator(frac, values) * scale


def evaluate_at_cell(
    field: GridField,
    cell: Sequence[int],
    frac: Sequence[float],
    kind: SplineKind,
    orders: Sequence[int] = None,
) -> float:
    """Evaluate at explicitly given cell coordinates, once they are checked.

    The tool for one-sided limits at cell boundaries: frac = 1.0 in the left
    cell versus frac = 0.0 in the right.  ``cell``, ``frac`` and ``orders``
    need one entry per axis: the cell indices integers, the fractions in [0, 1].
    """
    _require_grid_kind(kind)
    for name, value, item in (("cell", cell, "index"), ("frac", frac, "fraction")):
        if not hasattr(value, "__len__"):
            raise _not_a_sequence(name, value, item)
    if not len(cell) == len(frac) == len(field.h):
        raise ValueError(f"need one cell index and one fraction per axis, got {len(cell)} and {len(frac)}")
    return _at_cell(field, None, cell, _fractions(frac), orders, kind)


def evaluate(field: GridField, point: Sequence[float], kind: SplineKind) -> float:
    """Interpolated field value at an arbitrary point.

    Per axis the q basis weights are evaluated once at the cell fraction;
    the q**D patch values are summed against them one axis at a time, last
    axis first.
    """
    cell, frac = grid_coordinates(point, field)
    return _at_cell(field, point, cell, frac, None, kind)


def evaluate_derivative(
    field: GridField,
    point: Sequence[float],
    kind: SplineKind,
    orders: Sequence[int],
) -> float:
    """Interpolated mixed partial derivative, orders given per axis.

    The per-axis weights are those of the orders' frozen forms; the sum is
    rescaled by prod h_j**-l_j (the chain rule for the unit-cell variable).
    Orders above m are rejected: the interpolant is not continuous there.
    """
    cell, frac = grid_coordinates(point, field)
    return _at_cell(field, point, cell, frac, orders, kind)


def evaluate_many(field: GridField, points, kind: SplineKind, orders: Sequence[int] = None) -> np.ndarray:
    """Batched :func:`evaluate_derivative` (:func:`evaluate` when ``orders`` is None).

    ``points`` has shape (N, D).  The result, of shape (N,), is bit for bit
    what the scalar functions return point by point.  A bool, integer or
    float array (not longdouble) of two or more points, with a good kind and
    orders, runs the engine: each step repeats the scalar floating-point
    operations in their order, vectorised across the points of a stage or a
    block (see CHUNK_TERMS).  Every other call is :func:`evaluate_derivative`
    on each of the caller's rows.  The engine reads the patches from the
    array the scalar path reads (see :class:`GridField`).
    Bad input raises what the scalar path raises for the first bad point:
    :class:`InvalidPoint` for a coordinate that is not a real number, beyond
    the float range, not finite or beyond the int64 cell range,
    :class:`OutOfDomain` where a strict stencil leaves the grid.
    """
    try:
        pts = np.asarray(points)
    except ValueError:  # ragged rows: the row-by-row route below
        pts = np.empty((len(points), field.ndim), object)
    if pts.ndim != 2 or pts.shape[1] != field.ndim:
        raise ValueError(f"points must have shape (N, {field.ndim}), got {pts.shape}")
    try:
        family = derive_beta(kind)
        forms, scale = _orders_and_scale(field, orders, family)
    except ValueError:  # a bad kind or bad orders
        if not len(pts):
            raise
        family = None
    if family is None or len(pts) < 2 or pts.dtype.kind not in "biuf" or pts.dtype.itemsize > 8:  # > 8: longdouble
        # the scalar entry on the caller's own rows: its bits, or its error for the first bad point
        return np.array([evaluate_derivative(field, p, kind, orders) for p in points])
    old = np.setbufsize(min(np.getbufsize(), UFUNC_BUFFER))
    try:
        pts = pts.astype(np.float64, copy=False)
        g, q, ndim = family.g, family.q, field.ndim
        ext = field._boxes[g]
        strides = np.array(ext.strides) // ext.itemsize
        offsets = (np.indices((q,) * ndim).reshape(ndim, -1).T @ strides)[:, None]  # row-major patch order
        block = max(2, CHUNK_TERMS // q**ndim)  # points of a patch step
        stage = max(block, CHUNK_TERMS // (ndim * q))  # points of a per-point step: as many weights as terms
        gamma, span = min(stage, len(pts)) * ndim * q, min(block, len(pts)) * q**ndim
        # one workspace, laid out as the module docstring says
        work = np.empty(gamma + 2 * span)
        front, terms = np.split(work[gamma:], [span])
        out = np.empty(len(pts))
        flat = ext.ravel()
        horner = forms[0].tensors[forms].table
        # a one-point tail, of the call or of a stage, is taken with its neighbour, computed twice to the same bits
        for lo in range(0, len(pts), stage):
            hi = min(lo + stage, len(pts))
            lo = min(lo, hi - 2)
            base, gammas = _block_weights(field, pts[lo:hi], kind, strides, flat.size - offsets[-1, 0], horner, work)
            for a in range(0, hi - lo, block):
                b = min(a + block, hi - lo)
                a = min(a, b - 2)
                _contract(flat, offsets, base[a:b], gammas[..., a:b], front, terms, out[lo + a : lo + b])
            del base  # free the corners before the next stage's per-point steps run
        out *= scale
        return out
    finally:
        np.setbufsize(old)


def _block_weights(field, pts, kind, strides, limit, horner, weights) -> tuple:
    """Per-point steps of :func:`_at_cell`: patch corners in the flat ext, and (D, q, points) weights.

    The first bad point raises what the scalar path raises.  A corner at or
    past ``limit``, where its patch would leave ext, raises IndexError: the
    gather does not check its range.  ``stacked_weights(*horner, ...)``
    writes the weights to the front of ``weights``, its scratch after them.
    """
    u = np.divide(pts.T, np.array(field.h)[:, None], out=np.empty(pts.shape[::-1]))  # (axis, point)
    valid = np.abs(u) < _CELL_LIMIT  # False for nan and inf too
    u[~valid] = 0.0
    cell = np.floor(u)
    frac = np.subtract(u, cell, out=u)
    fold = frac >= 1.0
    cell[fold] += 1.0
    frac[fold] = 0.0
    corner = cell.astype(np.int64)  # of the patch in ext: the cell modulo the extent, or the first stencil node
    del cell  # before more per-point arrays: the block's peak memory
    bad = ~valid.all(axis=0)
    dims = np.array(field.dims)[:, None]
    if field.boundary == PERIODIC:
        corner %= dims
    else:
        corner -= kind.g
        bad |= ((corner < 0) | (corner + kind.q > dims)).any(axis=0)
    if bad.any():  # the scalar path raises the error of the first bad point
        evaluate(field, tuple(pts[np.flatnonzero(bad)[0]].tolist()), kind)
    base = strides @ corner
    if not 0 <= base.min() <= base.max() < limit:
        raise IndexError(f"patch corners {base.min()}..{base.max()} leave the flat range 0..{limit - 1}")
    gammas = weights[: kind.q * u.size].reshape(len(u), kind.q, -1)
    stacked_weights(*horner, frac, gammas, weights[gammas.size :])
    return base, gammas


def _contract(flat, offsets, base, gammas, front, terms, out) -> None:
    """Patch steps of :func:`_at_cell` for a block, in place: gather, then one sum per axis, last first, to ``out``."""
    ndim, q, n = gammas.shape
    size = len(offsets) * n
    index = np.add(offsets, base, out=front[:size].view(np.int64).reshape(-1, n))
    sums = flat.take(index, out=terms[:size].reshape(-1, n), mode="wrap")  # "raise" would buffer out
    for j in range(ndim - 1, -1, -1):
        rows = sums.reshape(-1, q, n)
        rows *= gammas[j]
        into = (front, terms)[(ndim - 1 - j) % 2] if j else out
        sums = np.add.reduce(rows, axis=1, initial=0.0, out=into[: len(rows) * n].reshape(-1, n))


def partitioned_evaluate(
    field: GridField,
    point: Sequence[float],
    kind: SplineKind,
    split_axis: int,
    split_index: int,
):
    """Evaluate as two partial sums split by node index along one axis.

    Stencil terms whose (unwrapped) node index along ``split_axis`` is below
    ``split_index`` go into the first sum, the rest into the second; the two
    add up to :func:`evaluate`.  This mirrors running on two memory domains
    that each own a slab of nodes.
    """
    axis, split_index = _integer(split_axis, "split_axis {!r}"), _integer(split_index, "split_index {!r}")
    if not 0 <= axis < field.ndim:  # the message shows the argument as given
        raise ValueError(f"split_axis {split_axis!r} is not an axis of a field with {field.ndim} axes")
    _require_grid_kind(kind)
    cell, frac = grid_coordinates(point, field)
    forms, _ = _orders_and_scale(field, None, derive_beta(kind))
    values = _patch(field, cell, kind.g, point)
    cut = min(max(split_index - (cell[axis] - kind.g), 0), kind.q)
    sums = []
    for other in (slice(cut, None), slice(None, cut)):  # each part is the whole sum with the other slab zeroed
        part = values.copy()
        part[(slice(None),) * axis + (other,)] = 0.0
        sums.append(forms[0].tensors[forms].evaluator(frac, part))
    return tuple(sums)


def evaluate_hermite(provider: Callable, point: Sequence[float], n: int) -> float:
    """Tensor-product interpolation from value and derivative data.

    ``provider(orders, node)`` must return the mixed derivative of the target
    function with per-axis orders ``orders`` (each 0..m) at ``node`` (each
    coordinate 0 or 1).  It is called exactly once per combination, i.e.
    2**D * (m+1)**D times.  ``point`` lives in the unit cell [0, 1]**D.
    """
    try:
        if len(point) == 0:
            raise ValueError("point has no coordinates: need one per axis")
    except TypeError:
        raise _not_a_sequence("point", point, "coordinate") from None
    point = _fractions(point)
    family = derive_alpha(n)
    # (order, cell end) of each member of AlphaFamily.form, in its order
    walk = [(l, 0) for l in range(family.m + 1)] + [(l, 1) for l in range(family.m, -1, -1)]
    data = []  # widened values: a narrow or wide numpy float would keep its own precision in the sum
    for idx in itertools.product(walk, repeat=len(point)):
        orders, node = zip(*idx)
        data.append(_real(provider(orders, node), "provider value {!r} for orders {} at node {}", orders, node))
    return family.form.tensors[(family.form,) * len(point)].evaluator(point, np.array(data))


_MAGIC = b"GRIDFLD1"
_BOUNDARIES = (PERIODIC, STRICT)  # indexed by the container's boundary code


def _header(ndim: int) -> str:
    """The container header's struct format: magic, axis count, extents, grid constants, boundary code."""
    return f"<8sI{ndim}I{ndim}dB"


def save_field(field: GridField, path) -> None:
    """Write the binary field container (layout documented in the README)."""
    with open(path, "wb") as fh:
        code = _BOUNDARIES.index(field.boundary)
        fh.write(struct.pack(_header(field.ndim), _MAGIC, field.ndim, *field.dims, *field.h, code))
        fh.write(np.ascontiguousarray(field.data, dtype="<f8").tobytes())


def load_field(path) -> GridField:
    """Read a field container written by :func:`save_field`.

    A malformed file raises ValueError naming the path: bad magic, a header
    cut short, a payload of the wrong size, an unknown boundary code, or
    header values :class:`GridField` rejects.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a grid field container (bad magic)")
    off = len(_MAGIC)
    if len(raw) < off + 4:
        raise ValueError(f"{path}: truncated header: the axis count needs {off + 4} bytes, file has {len(raw)}")
    (ndim,) = struct.unpack_from("<I", raw, off)
    end = struct.calcsize(_header(ndim))
    if len(raw) < end:
        raise ValueError(f"{path}: truncated header: {ndim} axes need {end} bytes, file has {len(raw)}")
    _, _, *values, bcode = struct.unpack_from(_header(ndim), raw)
    if bcode >= len(_BOUNDARIES):
        raise ValueError(f"{path}: unknown boundary code {bcode}")
    count = math.prod(values[:ndim])
    if len(raw) != end + 8 * count:
        raise ValueError(f"{path}: truncated or oversized payload ({len(raw)} vs {end + 8 * count} bytes)")
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=end).reshape(values[:ndim])
    try:
        return GridField(data=data, h=values[ndim:], boundary=_BOUNDARIES[bcode])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
