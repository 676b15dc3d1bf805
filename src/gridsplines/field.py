"""D-dimensional grid fields and tensor-product spline evaluation.

A :class:`GridField` stores scalar samples on a regular rectangular grid with
per-axis spacings.  Evaluation rescales the query point to unit cells, gathers
the q**D node values the stencil needs (a view of the data wherever the
stencil lies inside the grid), evaluates the per-axis basis weights, and
accumulates one fused sum over the patch.

The accumulation order is pinned: a row-major loop nest over the patch with
the last axis innermost.  :func:`evaluate_many` performs the same
floating-point operations in the same order as :func:`evaluate`, vectorised
across points, and is therefore bitwise identical to it.
"""

import itertools
import math
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .basis import SplineKind, beta_eval, derive_alpha, derive_beta
from .errors import InvalidKind, InvalidPoint, OutOfDomain

PERIODIC = "periodic"
STRICT = "strict"

# Scaled coordinates must lie strictly inside (-2**63, 2**63): then the cell
# index, and every stencil offset from it, fits in an int64.
_CELL_LIMIT = 2.0**63

# Patch terms evaluate_many processes at once; a chunk holds CHUNK_TERMS // q**D
# points (512 for a 3-D q = 4 kind), so each temporary array stays at 256 KiB.
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
    if len(point) != field.ndim:
        raise ValueError(f"point has {len(point)} coordinates, field has {field.ndim} axes")
    cells = []
    fracs = []
    for axis, (x, hj) in enumerate(zip(point, field.h)):
        u = x / hj
        if not abs(u) < _CELL_LIMIT:
            raise InvalidPoint(_invalid_point_message(point, axis, x, u))
        c = math.floor(u)  # an int
        frac = u - c
        if frac >= 1.0:
            c += 1
            frac = 0.0
        cells.append(c)
        fracs.append(frac)
    return CellCoordinates(cell=tuple(cells), frac=tuple(fracs))


def _invalid_point_message(point, axis: int, x, u) -> str:
    where = f"point {tuple(float(v) for v in point)}: coordinate {float(x)!r} on axis {axis}"
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
    q = 2 * g + 2
    box = []
    wrapped = []
    for axis, (c, extent) in enumerate(zip(cell, field.data.shape)):
        start = c - g
        if 0 <= start and start + q <= extent:
            box.append(slice(start, start + q))
        elif field.boundary == PERIODIC:
            box.append(slice(None))
            wrapped.append((axis, np.arange(start, start + q) % extent))
        else:
            raise OutOfDomain(
                f"cell {tuple(int(v) for v in cell)}: stencil nodes [{start}, {start + q}) on axis {axis}"
                f" leave its node range 0..{extent - 1}"
            )
    values = field.data[tuple(box)]
    for axis, idx in wrapped:
        values = values.take(idx, axis=axis)
    return LocalPatch(q=q, values=values)


def _accumulate(values, gammas) -> float:
    """Row-major weighted sum over the patch; last axis innermost."""
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


def _accumulate_split(values, gammas, axis: int, threshold: int):
    """Row-major weighted sum split into (low, high) by one axis index."""
    low = 0.0
    high = 0.0
    pos = 0
    for idx in itertools.product(*(range(len(g)) for g in gammas)):
        w = gammas[0][idx[0]]
        for j in range(1, len(gammas)):
            w = w * gammas[j][idx[j]]
        term = values[pos] * w
        if idx[axis] < threshold:
            low += term
        else:
            high += term
        pos += 1
    return low, high


def _grid_family(kind: SplineKind):
    if kind.q is None:
        raise InvalidKind("field evaluation requires a grid-spline kind (n, q)")
    return derive_beta(kind)


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
    family = _grid_family(kind)
    ndim = field.ndim
    if orders is None:
        orders = (0,) * ndim
    elif len(orders) != ndim:
        raise ValueError(f"need one derivative order per axis, got {len(orders)}")
    if len(cell) != ndim or len(frac) != ndim:
        raise ValueError(f"need one cell index and one fraction per axis, got {len(cell)} and {len(frac)}")
    for axis, x in enumerate(frac):
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"cell fraction {x!r} on axis {axis} is outside [0, 1]")
    values = gather_local(field, cell, family.g).values.ravel().tolist()
    gammas = [beta_eval(family, l, x) for l, x in zip(orders, frac)]
    acc = _accumulate(values, gammas)
    if any(orders):
        scale = 1.0
        for hj, lj in zip(field.h, orders):
            scale *= hj ** (-lj)
        acc *= scale
    return acc


def evaluate(field: GridField, point: Sequence[float], kind: SplineKind) -> float:
    """Interpolated field value at an arbitrary point.

    Per axis the q basis weights are evaluated once at the cell fraction;
    the result is a single fused sum of the q**D patch values against the
    tensor product of those weights.
    """
    cc = grid_coordinates(point, field)
    return evaluate_at_cell(field, cc.cell, cc.frac, kind)


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
    cc = grid_coordinates(point, field)
    return evaluate_at_cell(field, cc.cell, cc.frac, kind, orders=tuple(orders))


def evaluate_many(field: GridField, points, kind: SplineKind, orders: Sequence[int] = None) -> np.ndarray:
    """Batched :func:`evaluate_derivative` (:func:`evaluate` when ``orders`` is None).

    ``points`` has shape (N, D).  The result, of shape (N,), is bit for bit
    what the scalar functions return point by point: each step repeats their
    floating-point operations in their order, vectorised across the points of
    a chunk (see CHUNK_TERMS).  Bad input raises what the scalar path raises
    for the first bad point: :class:`InvalidPoint` for a coordinate that is
    not finite or out of the int64 cell range, :class:`OutOfDomain` where a
    strict field's stencil leaves the grid.
    """
    family = _grid_family(kind)
    if orders is None:
        orders = (0,) * field.ndim
    elif len(orders) != field.ndim:
        raise ValueError(f"need one derivative order per axis, got {len(orders)}")
    tables = [family.horner_table(l) for l in orders]
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != field.ndim:
        raise ValueError(f"points must have shape (N, {field.ndim}), got {pts.shape}")
    step = max(1, CHUNK_TERMS // family.q**field.ndim)
    out = np.empty(len(pts))
    for lo in range(0, len(pts), step):
        out[lo : lo + step] = _evaluate_chunk(field, pts[lo : lo + step], family, tables)
    if any(orders):
        scale = 1.0
        for hj, lj in zip(field.h, orders):
            scale *= hj ** (-lj)
        out *= scale
    return out


def _evaluate_chunk(field, pts, family, tables) -> np.ndarray:
    """Steps of :func:`evaluate_at_cell` for each of ``pts``, arrays laid out (..., point)."""
    g, q, n = family.g, family.q, len(pts)
    u = pts / np.array(field.h)
    valid = np.abs(u) < _CELL_LIMIT  # False for nan and inf too
    u[~valid] = 0.0
    cell = np.floor(u)
    frac = u - cell
    fold = frac >= 1.0
    cell[fold] += 1.0
    frac[fold] = 0.0
    start = cell.astype(np.int64) - g
    bad = ~valid.all(axis=1)
    if field.boundary == STRICT:
        bad |= ((start < 0) | (start + q > np.array(field.dims))).any(axis=1)
    if bad.any():
        # the scalar checks raise the error of the first bad point
        point = tuple(pts[np.flatnonzero(bad)[0]].tolist())
        gather_local(field, grid_coordinates(point, field).cell, g)
    # axis j's node indices, shaped to broadcast into the (q,)*D + (n,) patch; % only wraps when periodic
    offsets = np.arange(q)[:, None]
    index = tuple(
        ((start[:, j] + offsets) % extent).reshape((1,) * j + (q,) + (1,) * (field.ndim - 1 - j) + (n,))
        for j, extent in enumerate(field.dims)
    )
    gammas = []  # per axis, the q weights of beta_eval for every point: (q, n)
    for table, x in zip(tables, frac.T):
        acc = np.zeros((q, n))
        for coeffs in table:
            acc *= x
            acc += coeffs[:, None]
        gammas.append(acc)
    # weight of patch index (i_0..i_{D-1}) is ((gamma_0 * gamma_1) * ...) * gamma_{D-1}
    weights = gammas[0]
    for gamma in gammas[1:]:
        weights = weights[..., None, :] * gamma
    terms = field.data[index].reshape(-1, n)
    terms *= weights.reshape(-1, n)
    acc = np.zeros(n)
    for term in terms:  # one row per patch index, in the scalar sum's row-major order
        acc += term
    return acc


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
    family = _grid_family(kind)
    cc = grid_coordinates(point, field)
    patch = gather_local(field, cc.cell, family.g)
    gammas = [beta_eval(family, 0, cc.frac[j]) for j in range(field.ndim)]
    values = patch.values.ravel().tolist()
    threshold = split_index - (cc.cell[split_axis] - family.g)
    return _accumulate_split(values, gammas, split_axis, threshold)


def evaluate_hermite(provider: Callable, point: Sequence[float], n: int) -> float:
    """Tensor-product interpolation from value and derivative data.

    ``provider(orders, node)`` must return the mixed derivative of the target
    function with per-axis orders ``orders`` (each 0..m) at ``node`` (each
    coordinate 0 or 1).  It is called exactly once per combination, i.e.
    2**D * (m+1)**D times.  ``point`` lives in the unit cell [0, 1]**D.
    """
    family = derive_alpha(n)
    m = family.m
    D = len(point)
    tables = [family.eval_table(float(x)) for x in point]
    acc = 0.0
    for orders in itertools.product(range(m + 1), repeat=D):
        for node in itertools.product((0, 1), repeat=D):
            w = tables[0][orders[0]][node[0]]
            for j in range(1, D):
                w = w * tables[j][orders[j]][node[j]]
            acc += provider(orders, node) * w
    return acc


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
