"""D-dimensional grid fields and tensor-product spline evaluation.

A :class:`GridField` stores scalar samples on a regular rectangular grid with
per-axis spacings.  Evaluation rescales the query point to unit cells, gathers
the q**D node values the stencil needs (a view of the data wherever the
stencil lies inside the grid), evaluates the per-axis basis weights, and
accumulates one fused sum over the patch.

Every scalar interpolant here is that one sum, :func:`_accumulate`: a
patch of inputs against one weight vector per axis, walked row-major with
the last axis innermost.  Each term is the input times the weight product
taken left to right across the axes, added to a sum that starts at 0.0.
:func:`evaluate` and :func:`evaluate_derivative` walk the (q,)*D node
patch.  The two parts of :func:`partitioned_evaluate` walk the two slabs of
that patch on either side of the split, in the same order, so each part
holds exactly the terms, and the rounding, of its slab.
:func:`evaluate_hermite` walks the (2(m+1),)*D patch of endpoint data,
where index 2l + i along an axis stands for derivative order l at cell end
i.

:func:`evaluate_many` performs the same floating-point operations in the
same order as :func:`evaluate`, vectorised across the points of a chunk,
and is therefore bitwise identical to it.  Per chunk it runs one Horner
loop for all axes at once (each axis's rows zero-padded in front to one
length), gathers every patch with one flat ``take`` at precomputed
row-major offsets, and sums the (q**D, points) terms with one
``np.add.reduce`` that adds the rows in row-major patch order, starting
from 0.0.  A periodic field is padded once per call with g ghost nodes
below and g + 1 above each axis, so that every stencil, wrapped or not,
is one box of the padded array.
"""

import itertools
import math
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .basis import SplineKind, beta_eval, derive_alpha, derive_beta
from .errors import DerivativeTooHigh, InvalidPoint, OutOfDomain
from .exact import _is_integer

PERIODIC = "periodic"
STRICT = "strict"

# Scaled coordinates must lie strictly inside (-2**63, 2**63): then the cell
# index, and every stencil offset from it, fits in an int64.
_CELL_LIMIT = 2.0**63

# Patch terms evaluate_many processes at once; a chunk holds CHUNK_TERMS // q**D
# points (512 for a 3-D q = 4 kind), at least 2, so that the gather's index
# array and the terms array stay at 256 KiB each.
CHUNK_TERMS = 1 << 15


@dataclass(frozen=True, eq=False)
class GridField:
    """Immutable scalar samples on a regular grid.

    ``data`` is row-major with the last axis contiguous; node (j_1..j_D) sits
    at physical position (j_1*h_1, ..., j_D*h_D).  ``boundary`` selects how
    evaluation treats the edges: PERIODIC wraps indices, STRICT raises
    :class:`OutOfDomain` when the stencil leaves the grid.
    """

    data: np.ndarray
    h: tuple
    boundary: str = PERIODIC

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64, order="C")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        h = self.h if isinstance(self.h, (tuple, list, np.ndarray)) else (self.h,) * data.ndim
        h = tuple(float(v) for v in h)
        if data.ndim == 0:
            raise ValueError("field data has no axes: a grid needs at least one axis")
        if len(h) != data.ndim:
            raise ValueError(f"need one grid constant per axis: got {len(h)} for {data.ndim} axes")
        for axis, v in enumerate(h):
            if not 0.0 < v < math.inf:
                raise ValueError(f"grid constant {v!r} on axis {axis} is not positive and finite")
        if 0 in data.shape:
            raise ValueError(f"axis {data.shape.index(0)} has extent 0: every axis needs at least one node")
        object.__setattr__(self, "h", h)
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
        node on that axis, a constant function a scalar.
        """
        dims = tuple(int(d) for d in dims)
        h = h if isinstance(h, (tuple, list, np.ndarray)) else (h,) * len(dims)
        h = tuple(float(v) for v in h)
        coords = np.meshgrid(*(np.arange(d) * hj for d, hj in zip(dims, h)), indexing="ij", sparse=True)
        values = np.asarray(func(tuple(coords)), dtype=np.float64)
        try:
            data = np.broadcast_to(values, dims)
        except ValueError:
            raise ValueError(
                f"sampled function returned shape {values.shape}, which does not broadcast to {dims}"
            ) from None
        return cls(data=data, h=h, boundary=boundary)


# The scalar path builds one CellCoordinates and one LocalPatch per call; as
# NamedTuples they cost about a third less to build than frozen dataclasses.
class CellCoordinates(NamedTuple):
    """Integer cell indices plus in-cell fractions, one pair per axis."""

    cell: tuple
    frac: tuple


class LocalPatch(NamedTuple):
    """The q**D node values around one cell.

    ``values`` has shape (q,)*D; storage index t along an axis corresponds to
    node offset t - g, so storage (g, ..., g) is the cell's lower corner.
    It may be a read-only view of the field's data rather than a copy.
    """

    q: int
    values: np.ndarray


def grid_coordinates(point: Sequence[float], field: GridField) -> CellCoordinates:
    """Split a point into cell indices and unit-cell fractions.

    Floor semantics: negative coordinates land in the correct cell.  A
    fraction that rounds up to 1.0 is folded into the next cell so the
    invariant 0 <= frac < 1 always holds.  A coordinate that is not finite,
    or whose cell index would not fit in an int64, raises :class:`InvalidPoint`.
    """
    h = field.h
    if len(point) != len(h):
        raise ValueError(f"point has {len(point)} coordinates, field has {len(h)} axes")
    cells = []
    fracs = []
    for x, hj in zip(point, h):
        u = x / hj
        if not abs(u) < _CELL_LIMIT:  # len(cells) is the axis: no enumerate on the hot path
            raise InvalidPoint(_invalid_point_message(point, len(cells), x, u))
        c = math.floor(u)  # an int
        frac = u - c
        if frac >= 1.0:
            c += 1
            frac = 0.0
        cells.append(c)
        fracs.append(frac)
    return CellCoordinates(tuple(cells), tuple(fracs))


def _point_text(point) -> str:
    return f"point {tuple(float(v) for v in point)}"


def _invalid_point_message(point, axis: int, x, u) -> str:
    where = f"{_point_text(point)}: coordinate {float(x)!r} on axis {axis}"
    if not math.isfinite(x):
        return f"{where} is not finite"
    return f"{where} scales to cell coordinate {float(u):.3g}, beyond the int64 range"


def gather_local(field: GridField, cell: Sequence[int], g: int) -> LocalPatch:
    """The q**D node values whose offsets span -g..g+1 around the cell.

    Along an axis where the stencil lies inside the grid the nodes are one
    basic slice, so a patch inside the grid is a read-only view of
    ``field.data``.  Only a periodic stencil that crosses an edge is gathered
    through indices taken modulo the extent, which wrap as often as needed
    when the extent is smaller than q.
    """
    data = field.data
    shape = data.shape
    if not ((type(g) is int or _is_integer(g)) and g >= 1):
        raise ValueError(f"stencil half-width g {g!r} is not an integer >= 1")
    if len(cell) != len(shape):
        raise ValueError(f"cell has {len(cell)} indices, field has {len(shape)} axes")
    q = 2 * g + 2
    box = []
    wrapped = []
    for c, extent in zip(cell, shape):  # len(box) is the axis
        start = c - g
        stop = start + q
        if 0 <= start and stop <= extent:
            box.append(slice(start, stop))
        elif field.boundary == PERIODIC:
            wrapped.append((len(box), np.arange(start, stop) % extent))
            box.append(slice(None))
        else:
            raise OutOfDomain(
                f"cell {tuple(int(v) for v in cell)}: stencil nodes [{start}, {stop}) on axis {len(box)}"
                f" leave its node range 0..{extent - 1}"
            )
    values = data[tuple(box)]
    for axis, idx in wrapped:
        values = values.take(idx, axis=axis)
    return LocalPatch(q, values)


def _accumulate(values, gammas) -> float:
    """Row-major weighted sum of the flat ``values`` against per-axis weights; last axis innermost."""
    acc = 0.0
    if len(gammas) == 1:
        for v, gv in zip(values, gammas[0]):
            acc += v * gv
        return acc
    pos = 0
    last = gammas[-1]
    for outer in itertools.product(*gammas[:-1]):
        w = outer[0]
        for v in outer[1:]:
            w = w * v
        for gv in last:
            acc += values[pos] * (w * gv)
            pos += 1
    return acc


def _check_fractions(frac) -> None:
    for axis, x in enumerate(frac):
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"cell fraction {x!r} on axis {axis} is outside [0, 1]")


def _orders_and_scale(field: GridField, orders, lookup) -> tuple:
    """``lookup(axis, l)`` for each axis's derivative order l (all 0 for None), and the factor prod h_j**-l_j.

    The lookup checks l (basis._require_derivative_order) before h**-l, which
    overflows for absurd orders; a non-integer order's error names its axis.
    """
    h = field.h
    if orders is None:
        orders = (0,) * len(h)
    elif len(orders) != len(h):
        raise ValueError(f"need one derivative order per axis, got {len(orders)}")
    found = []
    scale = 1.0
    for hj, lj in zip(h, orders):  # len(found) is the axis
        try:
            found.append(lookup(len(found), lj))
        except DerivativeTooHigh:
            raise
        except ValueError:
            raise ValueError(f"derivative order {lj!r} on axis {len(found)} is not an integer") from None
        scale *= hj ** (-lj)
    return found, scale


def evaluate_at_cell(
    field: GridField,
    cell: Sequence[int],
    frac: Sequence[float],
    kind: SplineKind,
    orders: Sequence[int] = None,
) -> float:
    """Evaluate with explicitly given cell coordinates.

    This is the fixed-cell core of :func:`evaluate`; it is also the tool for
    probing one-sided limits at cell boundaries (frac = 1.0 in the left cell
    versus frac = 0.0 in the right cell).  ``cell``, ``frac`` and ``orders``
    need one entry per axis, and every fraction must lie in [0, 1].
    """
    family = derive_beta(kind)
    ndim = len(field.h)
    if len(cell) != ndim or len(frac) != ndim:
        raise ValueError(f"need one cell index and one fraction per axis, got {len(cell)} and {len(frac)}")
    _check_fractions(frac)
    gammas, scale = _orders_and_scale(field, orders, lambda axis, l: beta_eval(family, l, frac[axis]))
    values = gather_local(field, cell, family.g).values.ravel().tolist()
    return _accumulate(values, gammas) * scale


def evaluate(field: GridField, point: Sequence[float], kind: SplineKind) -> float:
    """Interpolated field value at an arbitrary point.

    Per axis the q basis weights are evaluated once at the cell fraction;
    the result is a single fused sum of the q**D patch values against the
    tensor product of those weights.
    """
    cell, frac = grid_coordinates(point, field)
    try:
        return evaluate_at_cell(field, cell, frac, kind)
    except OutOfDomain as exc:
        raise OutOfDomain(f"{_point_text(point)}: {exc}") from None


def evaluate_derivative(
    field: GridField,
    point: Sequence[float],
    kind: SplineKind,
    orders: Sequence[int],
) -> float:
    """Interpolated mixed partial derivative, orders given per axis.

    The per-axis weights come from the derivative Horner arrays; the sum is
    rescaled by the grid constants (chain rule for the unit-cell variable).
    Orders above m are rejected because the interpolant would not be
    continuous there.
    """
    cell, frac = grid_coordinates(point, field)
    try:
        return evaluate_at_cell(field, cell, frac, kind, tuple(orders))
    except OutOfDomain as exc:
        raise OutOfDomain(f"{_point_text(point)}: {exc}") from None


def evaluate_many(field: GridField, points, kind: SplineKind, orders: Sequence[int] = None) -> np.ndarray:
    """Batched :func:`evaluate_derivative` (:func:`evaluate` when ``orders`` is None).

    ``points`` has shape (N, D).  The result, of shape (N,), is bit for bit
    what the scalar functions return point by point: each step repeats their
    floating-point operations in their order, vectorised across the points of
    a chunk (see CHUNK_TERMS).  A periodic field is padded once per call, a
    temporary prod(d_j + q - 1) * 8 bytes, so pass all points in one call.
    Bad input raises what the scalar path raises for the first bad point:
    :class:`InvalidPoint` for a coordinate not finite or beyond the int64
    cell range, :class:`OutOfDomain` where a strict stencil leaves the grid.
    """
    family = derive_beta(kind)
    tables, scale = _orders_and_scale(field, orders, lambda axis, l: family.form(l).table)
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != field.ndim:
        raise ValueError(f"points must have shape (N, {field.ndim}), got {pts.shape}")
    g, q, ndim = family.g, family.q, field.ndim
    horner = np.zeros((max(len(t) for t in tables), ndim, q, 1))  # every axis's Horner rows, zero-padded in front
    for j, table in enumerate(tables):
        horner[len(horner) - len(table) :, j, :, 0] = table
    # with g ghost nodes below and g + 1 above, every periodic stencil is one box of ext
    ext = np.pad(field.data, [(g, g + 1)] * ndim, mode="wrap") if field.boundary == PERIODIC else field.data
    strides = np.array(ext.strides) // ext.itemsize
    offsets = (np.indices((q,) * ndim).reshape(ndim, -1).T @ strides)[:, None]  # row-major patch order
    step = max(2, CHUNK_TERMS // q**ndim)
    out = np.empty(len(pts))
    for lo in range(0, len(pts), step):
        out[lo : lo + step] = _evaluate_chunk(field, pts[lo : lo + step], kind, ext, strides, offsets, horner)
    out *= scale
    return out


def _evaluate_chunk(field, pts, kind, ext, strides, offsets, horner) -> np.ndarray:
    """Steps of :func:`evaluate_at_cell` for each of ``pts``, arrays laid out (..., point)."""
    if len(pts) == 1:  # np.add.reduce sums a single column pairwise, not row by row
        return _evaluate_chunk(field, pts[[0, 0]], kind, ext, strides, offsets, horner)[:1]
    u = pts / np.array(field.h)
    valid = np.abs(u) < _CELL_LIMIT  # False for nan and inf too
    u[~valid] = 0.0
    cell = np.floor(u)
    frac = u - cell
    fold = frac >= 1.0
    cell[fold] += 1.0
    frac[fold] = 0.0
    corner = cell.astype(np.int64)  # of the patch in ext: the cell modulo the extent, or the first stencil node
    bad = ~valid.all(axis=1)
    if field.boundary == PERIODIC:
        corner %= np.array(field.dims)
    else:
        corner -= kind.g
        bad |= ((corner < 0) | (corner + kind.q > np.array(field.dims))).any(axis=1)
    if bad.any():  # the scalar path raises the error of the first bad point
        evaluate(field, tuple(pts[np.flatnonzero(bad)[0]].tolist()), kind)
    terms = ext.ravel().take(offsets + corner @ strides)  # before the weights: fewer live temporaries
    gammas = np.zeros((field.ndim, kind.q, len(pts)))  # per axis, the q weights of beta_eval for every point
    x = np.ascontiguousarray(frac.T)[:, None, :]
    for row in horner:
        gammas *= x
        gammas += row
    # weight of patch index (i_0..i_{D-1}) is ((gamma_0 * gamma_1) * ...) * gamma_{D-1}
    weights = gammas[0]
    for gamma in gammas[1:]:
        weights = weights[..., None, :] * gamma
    terms *= weights.reshape(terms.shape)
    return np.add.reduce(terms, axis=0, initial=0.0)  # the rows in row-major patch order, from 0.0


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
    family = derive_beta(kind)
    cc = grid_coordinates(point, field)
    values = gather_local(field, cc.cell, family.g).values
    gammas = [beta_eval(family, 0, x) for x in cc.frac]
    cut = min(max(split_index - (cc.cell[split_axis] - family.g), 0), family.q)
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
    if len(point) == 0:
        raise ValueError("point has no coordinates: need one per axis")
    _check_fractions(point)
    family = derive_alpha(n)
    # index 2l + i along an axis is order l at cell end i, as in AlphaFamily.form
    data = [
        provider(tuple(k // 2 for k in idx), tuple(k % 2 for k in idx))
        for idx in itertools.product(range(2 * family.m + 2), repeat=len(point))
    ]
    return _accumulate(data, [family.form.kernel(float(x)) for x in point])


_MAGIC = b"GRIDFLD1"
_BOUNDARY_CODE = {PERIODIC: 0, STRICT: 1}
_BOUNDARY_NAME = {0: PERIODIC, 1: STRICT}


def save_field(field: GridField, path) -> None:
    """Write the binary field container (layout documented in the README)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", field.ndim))
        fh.write(struct.pack(f"<{field.ndim}I", *field.dims))
        fh.write(struct.pack(f"<{field.ndim}d", *field.h))
        fh.write(struct.pack("<B", _BOUNDARY_CODE[field.boundary]))
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
    # the axis count comes first and fixes the header length: 4 + 12 * ndim + 1 bytes
    off = len(_MAGIC)
    if len(raw) < off + 4:
        raise ValueError(f"{path}: truncated header: the axis count needs {off + 4} bytes, file has {len(raw)}")
    (ndim,) = struct.unpack_from("<I", raw, off)
    end = off + 4 + 12 * ndim + 1
    if len(raw) < end:
        raise ValueError(f"{path}: truncated header: {ndim} axes need {end} bytes, file has {len(raw)}")
    dims = struct.unpack_from(f"<{ndim}I", raw, off + 4)
    h = struct.unpack_from(f"<{ndim}d", raw, off + 4 + 4 * ndim)
    (bcode,) = struct.unpack_from("<B", raw, end - 1)
    off = end
    if bcode not in _BOUNDARY_NAME:
        raise ValueError(f"{path}: unknown boundary code {bcode}")
    count = math.prod(dims)
    expected = off + 8 * count
    if len(raw) != expected:
        raise ValueError(f"{path}: truncated or oversized payload ({len(raw)} vs {expected} bytes)")
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(dims)
    try:
        return GridField(data=data, h=h, boundary=_BOUNDARY_NAME[bcode])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
