"""D-dimensional grid fields and tensor-product spline evaluation.

A :class:`GridField` stores scalar samples on a regular rectangular grid with
per-axis spacings.  Evaluation rescales the query point to unit cells, gathers
the q**D node values the stencil needs (a view of the data wherever the
stencil lies inside the grid), evaluates the per-axis basis weights, and
accumulates one fused sum over the patch.

Every scalar interpolant here is that one sum, :func:`_accumulate`: a patch of
inputs against one weight vector per axis, multiplied out as :func:`_contract`
forms its tensor (patch index (i_0..i_{D-1}) weighs ((gamma_0 * gamma_1) * ...)
* gamma_{D-1}), each input times its weight added row-major, last axis
innermost, to a sum that starts at 0.0.  Coordinates, cell fractions,
provider values, field data and grid constants must be real numbers
(numbers.Real or np.bool_, but not np.timedelta64) on every path.
The scalar entries check their arguments, then run one private core,
:func:`_at_cell`, on the (q,)*D node patch; the two parts of
:func:`partitioned_evaluate` walk its two slabs on either side of the split,
in the same order, so each part holds exactly the terms, and the rounding,
of its slab.
:func:`evaluate_hermite` walks the (2(m+1),)*D patch of endpoint data in
the alpha form's member order: index l <= m along an axis is order l at
cell end 0, index 2m + 1 - l order l at cell end 1.

The batched engine of :func:`evaluate_many` performs the same floating-point
operations in the same order as :func:`evaluate`, vectorised across points,
and is therefore bitwise identical to it.  Per stage of
S = max(P, CHUNK_TERMS // (D * q)) points, :func:`_block_weights` takes the
coordinates, cell fold, patch corner and domain check, and every axis's
weights at once (:func:`basis.stacked_weights`); per block of
P = CHUNK_TERMS // q**D points (at least 2) of the stage, :func:`_contract`
gathers every patch with one flat ``take`` at precomputed row-major offsets,
forms the weight tensor, and sums the (q**D, points) terms with one
``np.add.reduce`` that adds the rows in row-major patch order, starting from
0.0.  A one-point tail of either is taken with its neighbour.  A periodic
field is padded once per call with g ghost nodes below and g + 1 above each
axis, so that every stencil, wrapped or not, is one box of the padded array.

Memory per call, besides the result: the padded copy, prod(d_j + q - 1) * 8
bytes; one workspace, which the Horner loop and every patch step write with
``out=``; each stage's per-point coordinate and index arrays, about 26 * D
bytes a point; and NumPy's ufunc buffers, UFUNC_BUFFER floats an operand at
most (the default np.getbufsize() is 8 192).
The workspace holds the stage's weights, D * q * S floats; the gather
offsets (int64, then the float weight tensor; before both, the weights'
scratch, (D + q/2) * S floats) and the terms, q**D * P floats each, at most
CHUNK_TERMS; and a q-th of that for the weight product before the last axis.
For a 3-D (5,4) kind on a 32**3 grid and 4 000 points (one stage, 1 024-point
blocks), that is 335 + 375 + 1 152 + 305 KiB, and tracemalloc sees 2 173 KiB.

The gather reads the padded copy with ``mode="wrap"``, since ``mode="raise"``
buffers its output and so allocates it again.  Its range is checked per point
instead: the per-point stage raises IndexError for a corner whose patch,
flat offsets 0..(q-1)*sum(strides) past it, would leave the copy.
"""

import itertools
import math
import numbers
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .basis import SplineKind, _require_grid_kind, beta_eval, derive_alpha, derive_beta, stacked_table, stacked_weights
from .errors import DerivativeTooHigh, InvalidPoint, OutOfDomain
from .exact import _is_integer

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
# slows as it grows (an index add 3.5x, a weight product 1.5x at the default 8 192 against 1 024).
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
        for axis, d in enumerate(dims):
            if not (_is_integer(d) and d >= 1):
                raise ValueError(f"extent {d!r} on axis {axis} is not an integer >= 1")
        dims = tuple(map(int, dims))
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
            except (TypeError, OverflowError):
                raise _invalid_point(point, len(cells), x, x) from None
        u = x / hj
        if not abs(u) < _CELL_LIMIT:
            raise _invalid_point(point, len(cells), x, u)
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
    """float(x) for a real x; TypeError for any other x, OverflowError for one beyond the float range."""
    if not _is_real(x):
        raise TypeError(f"{x!r} is not a real number")
    v = float(x)  # an int or Fraction beyond the range raises OverflowError here; np.longdouble's cast gives inf
    if math.isinf(v) and x != v:
        raise OverflowError(f"{x!r} is beyond the float range")
    return v


def _real(v, what: str, *args) -> float:
    """:func:`_as_float` of an outside value; ValueError naming it as ``what.format(v, *args)`` where that fails."""
    try:
        return _as_float(v)
    except TypeError:
        reason = "is not a real number"
    except OverflowError:
        reason = "is beyond the float range"
    raise ValueError(f"{what.format(v, *args)} {reason}")


def _shown(v):
    """A coordinate as an error names it: a real as a float where one holds it, a complex as complex, else as given."""
    try:
        return _as_float(v)
    except (TypeError, OverflowError):
        return complex(v) if isinstance(v, numbers.Complex) and not isinstance(v, numbers.Real) else v


def _invalid_point(point, axis: int, x, u) -> InvalidPoint:
    point = tuple(map(_shown, point))
    if isinstance(point[axis], complex):
        reason = "is complex: a point has real coordinates"
    elif not _is_real(x):
        reason = "is not a real number"
    elif not isinstance(point[axis], float):  # a real that float() overflows
        reason = "is beyond the float range"
    elif math.isfinite(x):
        reason = f"scales to cell coordinate {float(u):.3g}, beyond the int64 range"
    else:
        reason = "is not finite"
    return InvalidPoint(f"point {point}: coordinate {point[axis]!r} on axis {axis} {reason}", point=point, axis=axis)


def gather_local(field: GridField, cell: Sequence[int], g: int) -> LocalPatch:
    """The q**D node values whose offsets span -g..g+1 around the cell.

    Along an axis where the stencil lies inside the grid the nodes are one
    basic slice, so a patch inside the grid is a read-only view of
    ``field.data``.  Only a periodic stencil that crosses an edge is gathered
    through indices taken modulo the extent, which wrap as often as needed
    when the extent is smaller than q, from any integer cell index; one that
    is not an integer (a bool included) raises ValueError naming its axis.
    """
    if not ((type(g) is int or _is_integer(g)) and g >= 1):
        raise ValueError(f"stencil half-width g {g!r} is not an integer >= 1")
    try:
        if len(cell) != field.ndim:
            raise ValueError(f"cell has {len(cell)} indices, field has {field.ndim} axes")
    except TypeError:
        raise _not_a_sequence("cell", cell, "index") from None
    g = int(g)  # a numpy integer would overflow the node range of a cell index near 2**63
    return LocalPatch(2 * g + 2, _patch(field, cell, g))


def _patch(field, cell, g, point=None):
    """The (q,)*D patch of :func:`gather_local` at a cell, each index checked; OutOfDomain names ``point`` if given."""
    data = field.data
    q = 2 * g + 2
    box = []
    wrapped = []
    for c, extent in zip(cell, data.shape):  # len(box) is the axis
        if type(c) is not int:
            if not _is_integer(c):
                raise ValueError(f"cell index {c!r} on axis {len(box)} is not an integer")
            c = int(c)
        start = c - g
        stop = start + q
        if 0 <= start and stop <= extent:
            box.append(slice(start, stop))
        elif field.boundary == PERIODIC:
            wrapped.append((len(box), (start % extent + np.arange(q)) % extent))
            box.append(slice(None))
        else:
            where = tuple(int(v) if _is_integer(v) else v for v in cell)  # a later axis's bad index stays as given
            message = (
                f"cell {where}: stencil nodes [{start}, {stop}) on axis {len(box)}"
                f" leave its node range 0..{extent - 1}"
            )
            if point is not None:
                point = tuple(map(float, point))
                message = f"point {point}: {message}"
            raise OutOfDomain(message, point=point, axis=len(box), cell=where, extent=extent)
    values = data[tuple(box)]
    for axis, idx in wrapped:
        values = values.take(idx, axis=axis)
    return values


def _accumulate(values, gammas) -> float:
    """Row-major sum of the flat ``values`` times per-axis weight products formed as :func:`_contract` forms them."""
    acc = 0.0
    for v, w in zip(values, gammas[0] if len(gammas) == 1 else _weight_products(gammas)):
        acc += v * w
    return acc


def _weight_products(gammas) -> list:
    weights = gammas[0]  # called at D > 1 only: in _accumulate the comprehension's closure cell costs every call
    for gamma in gammas[1:]:
        weights = [w * g for w in weights for g in gamma]  # row-major, ((gamma_0 * gamma_1) * ...) * gamma_{D-1}
    return weights


def _check_fractions(frac) -> None:
    for axis, x in enumerate(frac):
        if not _is_real(x):  # numpy orders complex values lexicographically: test the type, not 0 <= x
            raise ValueError(f"cell fraction {x!r} on axis {axis} is not a real number")
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"cell fraction {x!r} on axis {axis} is outside [0, 1]")


def _orders_and_scale(field: GridField, orders, lookup, family, frac) -> tuple:
    """``lookup(family, l, x)`` for each axis's derivative order l (all 0 for None) and fraction x, and prod h_j**-l_j.

    The lookup checks l (basis._require_derivative_order) before h**-l, which
    overflows for absurd orders; a non-integer order's error names its axis.
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
    found, scale = [], 1.0
    for hj, lj, x in zip(h, orders, frac):  # len(found) is the axis
        try:
            found.append(lookup(family, lj, x))
        except DerivativeTooHigh:
            raise
        except ValueError:
            raise ValueError(f"derivative order {lj!r} on axis {len(found)} is not an integer") from None
        scale *= hj ** (-lj)
    return found, scale


def _at_cell(field, point, cell, frac, orders, kind):
    """The scalar core at a checked cell: the fused sum of patch and weights, times prod h_j**-l_j."""
    family = derive_beta(kind)
    gammas, scale = _orders_and_scale(field, orders, beta_eval, family, frac)
    values = _patch(field, cell, family.g, point)
    return _accumulate(values.ravel().tolist(), gammas) * scale


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
    _check_fractions(frac)
    return _at_cell(field, None, cell, frac, orders, kind)


def evaluate(field: GridField, point: Sequence[float], kind: SplineKind) -> float:
    """Interpolated field value at an arbitrary point.

    Per axis the q basis weights are evaluated once at the cell fraction;
    the result is a single fused sum of the q**D patch values against the
    tensor product of those weights.
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
    on each of the caller's rows.
    A periodic field is padded once per engine call (see the module's
    memory note), so pass all points in one call.
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
        forms, scale = _orders_and_scale(field, orders, lambda beta, l, _: beta.form(l), family, itertools.repeat(None))
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
        # with g ghost nodes below and g + 1 above, every periodic stencil is one box of ext
        ext = np.pad(field.data, [(g, g + 1)] * ndim, mode="wrap") if field.boundary == PERIODIC else field.data
        strides = np.array(ext.strides) // ext.itemsize
        offsets = (np.indices((q,) * ndim).reshape(ndim, -1).T @ strides)[:, None]  # row-major patch order
        block = max(2, CHUNK_TERMS // q**ndim)  # points of a patch step
        stage = max(block, CHUNK_TERMS // (ndim * q))  # points of a per-point step: as many weights as terms
        gamma, span = min(stage, len(pts)) * ndim * q, min(block, len(pts)) * q**ndim
        # one workspace, laid out as the module docstring says
        work = np.empty(gamma + 2 * span + span // q)
        front, terms, partial = np.split(work[gamma:], [span, 2 * span])
        out = np.empty(len(pts))
        flat = ext.ravel()
        horner = stacked_table(forms)
        # a one-point tail, of the call or of a stage, is taken with its neighbour, computed twice to the same bits
        for lo in range(0, len(pts), stage):
            hi = min(lo + stage, len(pts))
            lo = min(lo, hi - 2)
            base, gammas = _block_weights(field, pts[lo:hi], kind, strides, flat.size - offsets[-1, 0], horner, work)
            for a in range(0, hi - lo, block):
                b = min(a + block, hi - lo)
                a = min(a, b - 2)
                _contract(flat, offsets, base[a:b], gammas[..., a:b], front, terms, partial, out[lo + a : lo + b])
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


def _contract(flat, offsets, base, gammas, front, terms, partial, out) -> None:
    """Patch steps of :func:`_at_cell` for a block, each in place: gather, weight, sum into ``out``.

    The weight tensor goes into ``front`` once the gather is done with the
    offsets there; from D = 3 on, the products before it alternate between
    ``partial`` and ``front``.
    """
    ndim, q, n = gammas.shape
    size = len(offsets) * n
    index = np.add(offsets, base, out=front[:size].view(np.int64).reshape(-1, n))
    terms = flat.take(index, out=terms[:size].reshape(-1, n), mode="wrap")  # "raise" would buffer out
    weights = gammas[0]  # weight of patch index (i_0..i_{D-1}) is ((gamma_0 * gamma_1) * ...) * gamma_{D-1}
    for j in range(1, ndim):
        buf = (front if (ndim - j) % 2 else partial)[: q ** (j + 1) * n]
        weights = np.multiply(weights[..., None, :], gammas[j], out=buf.reshape((q,) * (j + 1) + (n,)))
    np.multiply(terms, weights.reshape(terms.shape), out=terms)
    np.add.reduce(terms, axis=0, initial=0.0, out=out)  # the rows in row-major patch order, from 0.0


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
    for name, value in (("split_axis", split_axis), ("split_index", split_index)):
        if not _is_integer(value):
            raise ValueError(f"{name} {value!r} is not an integer")
    if not 0 <= split_axis < field.ndim:
        raise ValueError(f"split_axis {split_axis!r} is not an axis of a field with {field.ndim} axes")
    _require_grid_kind(kind)
    cell, frac = grid_coordinates(point, field)
    gammas, _ = _orders_and_scale(field, None, beta_eval, derive_beta(kind), frac)
    values = _patch(field, cell, kind.g, point)
    cut = min(max(split_index - (cell[split_axis] - kind.g), 0), kind.q)
    sums = []
    for slab in (slice(None, cut), slice(cut, None)):
        weights = gammas[:split_axis] + [gammas[split_axis][slab]] + gammas[split_axis + 1 :]
        sums.append(_accumulate(values[(slice(None),) * split_axis + (slab,)].ravel().tolist(), weights))
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
    _check_fractions(point)
    family = derive_alpha(n)
    # (order, cell end) of each member of AlphaFamily.form, in its order
    walk = [(l, 0) for l in range(family.m + 1)] + [(l, 1) for l in range(family.m, -1, -1)]
    data = []  # widened values: a narrow or wide numpy float would keep its own precision in the sum
    for idx in itertools.product(walk, repeat=len(point)):
        orders, node = zip(*idx)
        data.append(_real(provider(orders, node), "provider value {!r} for orders {} at node {}", orders, node))
    return _accumulate(data, [family.form.kernel(float(x)) for x in point])


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
