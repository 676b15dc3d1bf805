"""Spline basis families over the unit cell, derived exactly.

:class:`AlphaFamily` holds the polynomials multiplying the value and
derivative data at the two cell ends, for odd order n = 2m + 1.
:class:`BetaFamily` holds the polynomials multiplying the raw values on the
q = 2g + 2 surrounding nodes, obtained by feeding centered differences into
the alpha basis.

Families carry their exact coefficients.  Their floats live in one kind
of object, :class:`FrozenForm`, built from the lower half of the members
and the reflection that maps each to its mirror (beta node o to node 1 - o,
alpha member (0, l) to (1, l)).  It freezes each member expanded about the
cell midpoint, split into even and odd parts in (x - 1/2)**2; one Horner
pass over each part gives both members of a pair, with well-conditioned
coefficients.  A straight-line ``kernel``, compiled on first use, serves
:func:`beta_eval`.  One form per axis makes a :class:`TensorForm`, cached
on the leading form: its compiled ``evaluator`` fuses the kernels' lines
with the patch sum, one axis at a time, for scalar calls, and its
``table`` stacks the parts zero-padded (:func:`stacked_table`) for
:func:`stacked_weights`.  A beta family has one form per derivative order
0..m (:meth:`BetaFamily.form`), an alpha family one form over all its
members; none is built before the first evaluation, so exact derivation
and validation never pay for them.
Every float comes from one conversion, :meth:`RationalPolynomial.horner_coeffs`:
the frozen parts, and the monomial arrays of :meth:`BetaFamily.horner_by_order`
and ``export_records``, which are not evaluated.
Validation compares integer numerators, and :func:`alpha_closed_form` is an
integer convolution over l!.
"""

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from .errors import DerivativeTooHigh, InvalidKind, InvalidOrder
from .exact import RationalPolynomial, _cached_on_int, _common_numerators, _is_integer, _over_common_denominator
from .exact import _cached_on, _real, rational_to_str, solve_linear_system, weighted_sum
from .stencil import MAX_NODES, derive_stencil

MAX_ORDER = 19  # largest validated odd order n


def _require_valid_order(n) -> None:
    if not _is_integer(n) or n < 1 or n % 2 == 0 or n > MAX_ORDER:
        raise InvalidOrder(f"order must be an odd integer in 1..{MAX_ORDER}, got {n!r}")


@dataclass(frozen=True)
class SplineKind:
    """Validated grid-spline scheme: odd order n and even node count q.

    The smoothness order m = (n-1)/2 may not exceed the stencil exactness
    2g, i.e. n <= 2q - 3.  The endpoint-data (Hermite) basis needs the order
    alone: :func:`derive_alpha` takes n.  A kind hashes as the tuple (n, q):
    :func:`derive_beta` caches on the kind itself, and a field keeps its
    plans by (n, q, orders).
    """

    n: int
    q: int

    def __post_init__(self):
        _require_valid_order(self.n)
        object.__setattr__(self, "n", int(self.n))  # a numpy integer is stored as the plain int
        if not _is_integer(self.q) or self.q % 2 or self.q < 4 or self.q > MAX_NODES:
            raise InvalidKind(f"node count must be an even integer in 4..{MAX_NODES}, got {self.q!r}")
        object.__setattr__(self, "q", int(self.q))
        if self.n > 2 * self.q - 3:
            raise InvalidKind(f"order {self.n} exceeds 2q-3 = {2 * self.q - 3} for q = {self.q}")

    @property
    def m(self) -> int:
        """Number of matched derivative orders minus one; smoothness class."""
        return (self.n - 1) // 2

    @property
    def g(self) -> int:
        """Stencil half-width."""
        return (self.q - 2) // 2

    def __str__(self):
        return f"({self.n},{self.q})"


def _horner_expr(coeffs, s: str) -> str:
    """Source of the Horner evaluation of degree-descending ``coeffs`` at ``s``, from the leading one; 0.0 for none."""
    return reduce(lambda expr, c: f"({expr} * {s} + {c!r})", coeffs[1:], repr(coeffs[0])) if coeffs else "0.0"


def _compiled(name: str, args: str, body: list):
    """The function ``name(args)`` with the given body lines, compiled with no globals but builtins."""
    exec(compile("\n    ".join([f"def {name}({args}):"] + body), f"<FrozenForm {name}>", "exec"), names := {})
    return names[name]


class FrozenForm:
    """A family's floats at one derivative order, centered at 1/2 and paired by reflection.

    Built from the exact lower-half members p_k and one sign per pair: with
    P_k = p_k^(order), the mirror of member k is sign_k P_k(1 - x).  The only
    floats frozen are ``parts``: per pair, the even and odd parts of the
    exact P_k(1/2 + t) = E_k(t*t) + t O_k(t*t), degree-descending in
    s = t*t.  With e = E_k(s) and o = t O_k(s), the member is e + o and its
    mirror e - o (sign +1) or o - e (sign -1).  The members come first, then
    the mirrors in reverse pair order: node order for a beta family.

    ``kernel(x)`` is straight-line code compiled on first use: t = x - 0.5,
    s = t * t, each part by Horner from its leading coefficient,
    ``(c_0 * s + c_1) * s + ...``, then o = t * (O's value) and the sums and
    differences (``repr`` writes each coefficient back exactly).  Its lines
    come from :meth:`horner_source`, as do those of the evaluators in
    ``tensors``: the :class:`TensorForm` of each tuple of forms this one leads.
    """

    def __init__(self, members, signs, order=0):
        self.members = tuple(members)
        self.signs = tuple(signs)
        self.order = order
        self.tensors = _Tensors()

    @cached_property
    def parts(self) -> tuple:
        parts = []
        for p in self.members:
            ascending = p.compose_affine(1, Fraction(1, 2)).derivative(self.order).horner_coeffs()[::-1]  # powers of t
            parts.append((ascending[0::2][::-1], ascending[1::2][::-1]))
        return tuple(parts)

    def horner_source(self, x: str, tag="") -> tuple:
        """The kernel's lines at ``x``, each local's name ending in ``tag``, and the weights' expressions in order."""
        t, s = f"t{tag}", f"s{tag}"
        lines = [f"{t} = {x} - 0.5", f"{s} = {t} * {t}"]
        for k, (even, odd) in enumerate(self.parts):
            lines += [f"e{tag}_{k} = {_horner_expr(even, s)}", f"o{tag}_{k} = {t} * {_horner_expr(odd, s)}"]
        pairs = [(f"e{tag}_{k}", f"o{tag}_{k}") for k in range(len(self.parts))]
        mirrors = [f"{e} - {o}" if sign > 0 else f"{o} - {e}" for (e, o), sign in zip(pairs, self.signs)]
        return lines, [f"{e} + {o}" for e, o in pairs] + mirrors[::-1]

    @cached_property
    def kernel(self):
        lines, weights = self.horner_source("x")
        return _compiled("kernel", "x", lines + [f"return [{', '.join(weights)}]"])


class TensorForm:
    """One :class:`FrozenForm` per axis, with ``table``, their :func:`stacked_table`, and ``evaluator``, each lazy.

    ``evaluator(frac, values)`` runs the kernels' lines at the float fractions, then :mod:`field`'s sum over ``values``,
    one axis at a time, last axis first: a loop over rows of q per axis down to axis 1, then axis 0's one row.
    """

    def __init__(self, forms: tuple):
        self.forms = forms

    @cached_property
    def evaluator(self):
        ndim = len(self.forms)
        body = [f"{''.join(f'x{j}, ' for j in range(ndim))}= frac"]
        for j, form in enumerate(self.forms):
            lines, weights = form.horner_source(f"x{j}", j)
            body += lines + [f"w{j}_{i} = {w}" for i, w in enumerate(weights)]
        q, row = len(weights), "".join(f"v{i}, " for i in range(len(weights)))
        terms = [" + ".join(f"v{i} * w{j}_{i}" for i in range(q)) for j in range(ndim)]
        body.append(f"r = values.reshape(-1, {q}).tolist()" if ndim > 1 else "r = values.tolist()")  # the rows
        for j in range(ndim - 1, 0, -1):  # last axis first: each row times axis j's weights, summed from 0.0
            rows = "t" if j == ndim - 1 else f"zip(*[iter(t)] * {q})"  # the previous axis's sums, q at a time
            body += ["t, r = r, []", f"for {row}in {rows}:", f"    r.append(0.0 + {terms[j]})"]
        return _compiled("evaluator", "frac, values", body + [f"{row}= r", f"return 0.0 + {terms[0]}"])  # one row left

    @cached_property
    def table(self) -> tuple:
        return stacked_table(self.forms)


class _Tensors(dict):
    def __missing__(self, forms):  # the first lookup of a tuple of forms makes its TensorForm
        return self.setdefault(forms, TensorForm(forms))


def stacked_table(forms) -> tuple:
    """One form per axis as the Horner table of :func:`stacked_weights`: ``(rows, odd)``.

    ``rows[:, j, :, 0]`` holds form j's ``parts``, the E_k then the O_k,
    padded in front with zeros to one length; ``odd[j]`` is true where form
    j has sign -1 (mirrors o - e).  Padding changes no bit: for finite x,
    s = t * t is +0.0 or positive, so ``0.0 * s + 0.0`` stays +0.0 through
    the padding, and at the first real coefficient c, ``0.0 * s + c`` is c
    (a frozen coefficient is never -0.0: a numerator 0 over d gives +0.0),
    where the kernel starts.
    """
    columns = [[even for even, _ in f.parts] + [odd for _, odd in f.parts] for f in forms]
    width = max(len(c) for axis in columns for c in axis)
    rows = np.array([[(0.0,) * (width - len(c)) + c for c in axis] for axis in columns]).transpose(2, 0, 1)[..., None]
    rows.setflags(write=False)  # read-only: a TensorForm caches it
    return rows, tuple(f.signs[0] < 0 for f in forms)


def stacked_weights(rows, odd, x, out, scratch) -> None:
    """Every axis's :meth:`FrozenForm.kernel` at many points, bit for bit: the kernel's steps on whole arrays.

    ``rows`` and ``odd`` are the :func:`stacked_table` of one form per axis.
    x, (D, points), is overwritten with t; the weights go to ``out``,
    (D, q, points), which also holds the Horner loop; ``scratch`` holds s
    and one axis's mirrors, (D + q / 2) * points floats.
    """
    half, size = out.shape[1] // 2, x.size
    t = np.subtract(x, 0.5, out=x)
    s = np.multiply(t, t, out=scratch[:size].reshape(t.shape))[:, None, :]
    np.copyto(out, rows[0])  # the kernel's start: the leading coefficient, or +0.0 in padding
    for row in rows[1:]:
        out *= s
        out += row
    mirror = scratch[size : size + half * len(t[0])].reshape(half, -1)
    for j, odd_axis in enumerate(odd):  # one axis at a time: t broadcast across axes is buffered
        even, odd_part = out[j, :half], out[j, half:]
        odd_part *= t[j]
        np.subtract(*((odd_part, even) if odd_axis else (even, odd_part)), out=mirror)
        even += odd_part
        odd_part[...] = mirror[::-1]  # pair k's mirror is node q - 1 - k


@dataclass(frozen=True)
class AlphaFamily:
    """Endpoint-data basis: ``polys[i][l]`` multiplies the order-l data at cell end i."""

    n: int
    polys: tuple

    @property
    def m(self) -> int:
        return (self.n - 1) // 2

    @cached_property
    def form(self) -> FrozenForm:
        """Every member's float form: entry l <= m is member (0, l), entry 2m + 1 - l is member (1, l)."""
        return FrozenForm(self.polys[0], [(-1) ** l for l in range(self.m + 1)])


@dataclass(frozen=True)
class BetaFamily:
    """Node-value basis: one polynomial per node offset -g..g+1.

    ``polys`` is stored with index ``offset + g``; use :meth:`poly` for
    offset-based access.
    """

    n: int
    q: int
    polys: tuple

    @property
    def m(self) -> int:
        return (self.n - 1) // 2

    @property
    def g(self) -> int:
        return (self.q - 2) // 2

    def poly(self, offset: int) -> RationalPolynomial:
        """Exact polynomial attached to the node at the given offset."""
        return self.polys[offset + self.g]

    @cached_property
    def horner_by_order(self) -> tuple:
        """Monomial Horner arrays for every derivative order 0..m, indexed [order][node]; built on first use.

        Evaluation does not run these: it runs :meth:`form`.
        """
        return tuple(tuple(p.derivative(l).horner_coeffs() for p in self.polys) for l in range(self.m + 1))

    def form(self, order: int) -> FrozenForm:
        """The float form of derivative order ``order``, weights in node order."""
        _require_derivative_order(self, order)
        return self._forms[order]

    @cached_property
    def _forms(self) -> tuple:
        # offsets -g..0; offset o's mirror is 1 - o, and d^l/dx^l of p(1 - x) carries (-1)**l
        lower = self.polys[: self.g + 1]
        return tuple(FrozenForm(lower, [(-1) ** l] * len(lower), l) for l in range(self.m + 1))


def _require_derivative_order(beta: BetaFamily, order: int, axis: int = None) -> None:
    """The only derivative-order check; its error names ``axis`` where one is given.

    A plain int in 0..m passes on one type test and one range test; anything else takes the full check.
    """
    if type(order) is int and 0 <= order <= beta.m:
        return
    where = "" if axis is None else f" on axis {axis}"
    if not _is_integer(order):
        raise ValueError(f"derivative order {order!r}{where} is not an integer")
    if not 0 <= order <= beta.m:
        kind = f"kind ({beta.n},{beta.q})"
        raise DerivativeTooHigh(f"derivative order {order}{where} not in 0..{beta.m} for {kind}")


@_cached_on_int
def _hermite_inverse(n: int) -> tuple:
    """Order n's endpoint system, eliminated once: ``(at_one, inverse, den)``.

    ``at_one[l][k]`` = perm(k, l), the order-l datum of x**k at 1; its columns
    m+1..n are F[l][j] = perm(m+1+j, l), and F**-1 = ``inverse`` / ``den``.
    """
    size = (n - 1) // 2 + 1
    at_one = [[math.perm(k, l) for k in range(n + 1)] for l in range(size)]
    columns = solve_linear_system([p[size:] for p in at_one], [[int(r == c) for r in range(size)] for c in range(size)])
    flat, den = _over_common_denominator([x for row in zip(*columns) for x in row])
    return at_one, [flat[r * size : (r + 1) * size] for r in range(size)], den


def _solve_hermite(n: int, rows) -> list:
    """The degree <= n polynomials with the given endpoint data, one per data row.

    A row holds the order-0..m data at cell end 0, then at cell end 1.  At
    x = 0 the order-l datum is l! c_l, so c_0..c_m follow from the row
    directly.  What they leave of the end-1 data fixes c_(m+1)..c_n: one
    integer product with the order's :func:`_hermite_inverse`.  Each row is
    scaled to integers by D = lcm(row denominators) * m!, which makes every
    D c_l with l <= m an integer.  Being linear, a wrong inverse would spoil
    both derivation routes alike, so route agreement cannot catch it;
    ``alpha_closed_form`` and the random endpoint-data test do.
    """
    size = (n - 1) // 2 + 1
    at_one, inverse, den = _hermite_inverse(n)
    factorials = [math.factorial(l) for l in range(size)]
    polys = []
    for row in rows:
        scale = math.lcm(*(v.denominator for v in row)) * factorials[-1]
        data = [v.numerator * (scale // v.denominator) for v in row]
        head = [d // f for d, f in zip(data, factorials)]  # D c_0 .. D c_m
        rest = [d - sum(map(operator.mul, p[:size], head)) for d, p in zip(data[size:], at_one)]
        tail = [sum(map(operator.mul, r, rest)) for r in inverse]  # den D c_(m+1) .. den D c_n
        polys.append(RationalPolynomial._over([c * den for c in head] + tail, scale * den))
    return polys


@_cached_on_int
def derive_alpha(n: int) -> AlphaFamily:
    """Solve the endpoint value/derivative conditions for each basis member.

    Member (i, l) is the unique degree <= n polynomial whose order-l
    derivative is 1 at cell end i, all other endpoint data being zero.  The
    unit data rows go through :func:`_solve_hermite`: the end-0 data give
    the low half of the coefficients outright, and the order's one
    falling-factorial elimination, shared with the direct beta route, the rest.
    """
    _require_valid_order(n)
    n = int(n)
    m = (n - 1) // 2
    # the unit data rows in condition order (end i, then order l)
    polys = _solve_hermite(n, [[int(r == c) for r in range(n + 1)] for c in range(n + 1)])
    return AlphaFamily(n=n, polys=(tuple(polys[: m + 1]), tuple(polys[m + 1 :])))


def alpha_closed_form(n: int, l: int, i: int) -> RationalPolynomial:
    """Product-form alpha basis member, expanded to monomials.

    For the left end:  (x**l / l!) * (1-x)**(m+1) * sum_k binom(m+k, k) x**k,
    with k running to m - l: an integer convolution over l!.  The right end
    follows by the reflection identity (sign (-1)**l, argument 1 - x).
    """
    _require_valid_order(n)
    m = (n - 1) // 2
    if not _is_integer(l) or not 0 <= l <= m:
        raise InvalidOrder(f"derivative order must be an integer in 0..{m} for n = {n}, got {l!r}")
    if not _is_integer(i) or i not in (0, 1):
        raise ValueError(f"cell end must be 0 or 1, got {i!r}")
    sign = -1 if i and l % 2 else 1  # applied before the reflection, which is linear
    one_minus_x_power = [sign * (-1) ** k * math.comb(m + 1, k) for k in range(m + 2)]
    numerators = [0] * (n + 1)
    for j in range(m - l + 1):
        for k, b in enumerate(one_minus_x_power, l + j):
            numerators[k] += math.comb(m + j, j) * b
    poly = RationalPolynomial._over(numerators, math.factorial(l))
    return poly.reflected() if i else poly


def _require_grid_kind(kind: SplineKind) -> None:
    if not isinstance(kind, SplineKind):
        raise InvalidKind(f"kind {kind!r} is not a SplineKind: build one with SplineKind(n, q)")


@_cached_on(SplineKind)
def derive_beta(kind: SplineKind) -> BetaFamily:
    """Node-value basis via composition: difference weights feeding the alpha basis.

    The polynomial attached to node j collects every route by which f(j)
    reaches the cell: weight of f(j) in the order-l data at cell end i, times
    the alpha member (i, l).  Cached per kind; anything but a SplineKind
    skips the cache and raises InvalidKind.
    """
    _require_grid_kind(kind)
    alpha = derive_alpha(kind.n)
    g = kind.g
    table = derive_stencil(g)
    routes = [(i, l) for l in range(alpha.m + 1) for i in (0, 1)]
    members = [alpha.polys[i][l] for i, l in routes]
    polys = tuple(
        weighted_sum(members, [table.weight(l, node - i) for i, l in routes]) for node in range(-g, g + 2)
    )
    return BetaFamily(n=kind.n, q=kind.q, polys=polys)


def derive_beta_direct(kind: SplineKind) -> BetaFamily:
    """Node-value basis by the substitution route: the endpoint system solved for each node.

    Sets f to the unit impulse at each node, computes the centered-difference
    data that impulse produces at both cell ends, and solves the endpoint
    system for the resulting cell polynomial with :func:`_solve_hermite`:
    the end-0 data fix the low half of the coefficients, and the inverse of
    the (m+1)-square falling-factorial system, eliminated once per order n
    and shared with :func:`derive_alpha`, gives the high half.  Must agree
    exactly with :func:`derive_beta`; validation checks that agreement.
    """
    _require_grid_kind(kind)
    n, g, m = kind.n, kind.g, kind.m
    table = derive_stencil(g)
    impulses = [
        [table.weight(l, node - i) for i in (0, 1) for l in range(m + 1)]
        for node in range(-g, g + 2)
    ]
    return BetaFamily(n=n, q=kind.q, polys=tuple(_solve_hermite(n, impulses)))


@dataclass
class ValidationReport:
    """Outcome of the exact family checks; failures are data, not exceptions.

    ``seconds`` maps a phase name to the wall time spent in it, where the
    producer measured that (see ``cli.run_validation``).
    """

    checks: list
    seconds: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failures(self) -> list:
        return [(name, detail) for name, passed, detail in self.checks if not passed]

    def __str__(self):
        return "\n".join(
            f"{'PASS' if passed else 'FAIL'} {name}{': ' + detail if detail else ''}"
            for name, passed, detail in self.checks
        )


def validate_family(beta: BetaFamily) -> ValidationReport:
    """Run every exact identity the node-value family must satisfy, comparing integers only.

    Reflection and the degree bound aside, every check reads one table N: the members over their common
    denominator d, n + 1 wide or more, with zero rows at offsets -g-1 and g+2.  Times d, row i's order-l datum is
    l! N[i][l] at x = 0 and sum_k perm(k, l) N[i][k] at x = 1.  x**p is reproduced (p = 0: partition of unity)
    when sum_i o_i**p N[i][k] is d for k = p and 0 otherwise.
    """
    checks = []
    g, m, n = beta.g, beta.m, beta.n
    nodes = range(-g, g + 2)
    label = f"({n},{beta.q})"

    table, den = _common_numerators((RationalPolynomial(),) + beta.polys + (RationalPolynomial(),), n + 1)
    falling = [[math.perm(k, l) for k in range(len(table[0]))] for l in range(m + 1)]
    at_zero = [[math.factorial(l) * row[l] for l in range(m + 1)] for row in table]
    at_one = [[sum(map(operator.mul, f, row)) for f in falling] for row in table]

    bad = [
        offset
        for offset, low, high in zip(nodes, at_zero[1:], at_one[1:])
        for value, want in ((low[0], offset == 0), (high[0], offset == 1))
        if value != want * den
    ]
    checks.append((f"{label} node interpolation", not bad, f"offsets {bad}" if bad else ""))

    powers = [[offset**p for offset in nodes] for p in range(min(n, 2 * g) + 1)]
    moments = [[sum(map(operator.mul, w, column)) for column in zip(*table[1:-1])] for w in powers]
    reproduced = [row == [den * (k == p) for k in range(len(row))] for p, row in enumerate(moments)]
    ok = reproduced[0]
    detail = "" if ok else f"sum = {weighted_sum(beta.polys, [1] * len(beta.polys))}"
    checks.append((f"{label} partition of unity", ok, detail))

    chain = list(zip(range(-g, g + 3), at_zero, at_one[1:]))  # member o at x = 1 meets member o - 1 at x = 0
    bad = [(l, o) for l in range(m + 1) for o, low, high in chain if high[l] != low[l]]
    checks.append((f"{label} smoothness chain", not bad, f"(order, offset) {bad}" if bad else ""))

    # reflection is an involution, so the pair (o, 1 - o) passes or fails as one
    bad = sorted(sum(((o, 1 - o) for o in range(-g, 1) if beta.poly(o) != beta.poly(1 - o).reflected()), ()))
    checks.append((f"{label} reflection symmetry", not bad, f"offsets {bad}" if bad else ""))

    bad = [offset for offset in nodes if beta.poly(offset).degree > n]
    checks.append((f"{label} degree bound", not bad, f"offsets {bad}" if bad else ""))

    bad = [p for p, holds in enumerate(reproduced) if not holds]
    checks.append((f"{label} monomial reproduction", not bad, f"powers {bad}" if bad else ""))

    return ValidationReport(checks=checks)


def beta_eval(beta: BetaFamily, derivative_order: int, xi: float) -> list:
    """Weights multiplying the q node values at cell fraction xi.

    Runs the kernel of the requested derivative order's form, compiled on
    its first use; orders above m would interpolate a discontinuous
    quantity and are rejected before xi is read.  Any real xi in the float
    range is evaluated (the cell is [0, 1]); else ValueError names it.
    """
    return beta.form(derivative_order).kernel(_real(xi, "cell fraction {!r}"))


def export_records(beta: BetaFamily) -> list:
    """Rows for the coefficient dump: exact "num/den" strings plus Horner floats.

    Field names are stable: n, q, i, coeffs_exact (ascending powers),
    coeffs_horner (degree-descending floats).
    """
    records = []
    for offset in range(-beta.g, beta.g + 2):
        p = beta.poly(offset)
        records.append(
            {
                "n": beta.n,
                "q": beta.q,
                "i": offset,
                "coeffs_exact": [rational_to_str(c) for c in p.coeffs],
                "coeffs_horner": list(p.horner_coeffs()),
            }
        )
    return records
