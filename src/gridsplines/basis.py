"""Spline basis families over the unit cell, derived exactly.

:class:`AlphaFamily` holds the polynomials multiplying the value and
derivative data at the two cell ends, for odd order n = 2m + 1.
:class:`BetaFamily` holds the polynomials multiplying the raw values on the
q = 2g + 2 surrounding nodes, obtained by feeding centered differences into
the alpha basis.

Families carry their exact coefficients.  Their floats live in one kind
of object, :class:`FrozenForm`: a list of degree-descending Horner arrays,
with a straight-line ``kernel`` compiled from them for scalar calls and a
zero-padded ``table`` of them for batched calls, each built on first use.
A beta family has one form per derivative order 0..m (:meth:`BetaFamily.form`),
an alpha family one form over all its members; none is built before the
first evaluation, so exact derivation and validation never pay for them.
"""

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import DerivativeTooHigh, InvalidKind, InvalidOrder
from .exact import RationalPolynomial, _is_integer, rational_to_str, solve_linear_system, weighted_sum
from .stencil import derive_stencil

MAX_ORDER = 19  # largest validated odd order n
MAX_NODES = 12  # largest supported node count q


def _require_valid_order(n) -> None:
    if not _is_integer(n) or n < 1 or n % 2 == 0 or n > MAX_ORDER:
        raise InvalidOrder(f"order must be an odd integer in 1..{MAX_ORDER}, got {n!r}")


@dataclass(frozen=True)
class SplineKind:
    """Validated interpolation scheme: order n, plus node count q for grid splines.

    ``q`` is None for a pure derivative-matching (Hermite) scheme.  For grid
    splines the smoothness order m = (n-1)/2 may not exceed the stencil
    exactness 2g, i.e. n <= 2q - 3.
    """

    n: int
    q: "int | None" = None

    def __post_init__(self):
        _require_valid_order(self.n)
        object.__setattr__(self, "n", int(self.n))  # a numpy integer is stored as the plain int
        if self.q is not None:
            q = self.q
            if not _is_integer(q) or q % 2 or q < 4 or q > MAX_NODES:
                raise InvalidKind(f"node count must be an even integer in 4..{MAX_NODES}, got {q!r}")
            object.__setattr__(self, "q", int(q))
            if self.n > 2 * q - 3:
                raise InvalidKind(f"order {self.n} exceeds 2q-3 = {2 * q - 3} for q = {q}")

    @property
    def m(self) -> int:
        """Number of matched derivative orders minus one; smoothness class."""
        return (self.n - 1) // 2

    @property
    def g(self):
        """Stencil half-width, or None for pure Hermite kinds."""
        return None if self.q is None else (self.q - 2) // 2

    def __str__(self):
        return f"({self.n},{self.q})" if self.q is not None else f"(n={self.n})"


class FrozenForm:
    """Degree-descending float Horner arrays, with a compiled kernel and a padded table built on first use.

    ``kernel(x)`` returns every array's value at x: array j's entry is the
    expression ``((0.0*x + c_0)*x + c_1)*x + ...``, the multiplies and adds
    of the loop ``acc = 0.0; acc = acc*x + c`` in the same order, so the
    same float (``repr`` writes each coefficient back exactly).  Row k of
    the read-only ``table`` holds every array's k-th coefficient, each array
    padded in front with zeros to the common length; Horner keeps ``acc``
    at exactly 0.0 through the padding (x >= 0), so a column of the table
    gives bit for bit what the kernel gives.
    """

    def __init__(self, arrays):
        self.arrays = tuple(arrays)

    @cached_property
    def kernel(self):
        terms = []
        for coeffs in self.arrays:
            expr = "0.0"
            for c in coeffs:
                expr = f"({expr} * x + {c!r})"
            terms.append(expr)
        return eval(compile(f"lambda x: [{', '.join(terms)}]", "<FrozenForm kernel>", "eval"))

    @cached_property
    def table(self) -> np.ndarray:
        width = max(len(c) for c in self.arrays)
        table = np.array([(0.0,) * (width - len(c)) + c for c in self.arrays]).T.copy()
        table.setflags(write=False)
        return table


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
        """Every member's float form, flat: entry ``2*l + i`` is member (i, l)."""
        return FrozenForm(self.polys[i][l].horner_coeffs() for l in range(self.m + 1) for i in (0, 1))


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
        """Horner arrays for every derivative order 0..m, indexed [order][node]; built on first use."""
        return tuple(zip(*(p.horner_chain(self.m + 1) for p in self.polys)))

    def form(self, order: int) -> FrozenForm:
        """The float form of derivative order ``order``: one array per node."""
        _require_derivative_order(self, order)
        return self._forms[order]

    @cached_property
    def _forms(self) -> tuple:
        return tuple(map(FrozenForm, self.horner_by_order))


def _require_derivative_order(beta: BetaFamily, order: int) -> None:
    """The only derivative-order check: each evaluation path runs it where it looks up the order's arrays."""
    if not _is_integer(order):
        raise ValueError(f"derivative order {order!r} is not an integer")
    if not 0 <= order <= beta.m:
        raise DerivativeTooHigh(f"derivative order {order} not in 0..{beta.m} for kind ({beta.n},{beta.q})")


def _solve_hermite(n: int, rows) -> list:
    """The degree <= n polynomials with the given endpoint data, one per data row.

    A row holds the order-0..m data at cell end 0, then at cell end 1.  At
    x = 0 the order-l datum is l! c_l, so c_0..c_m follow from the row
    directly.  What they leave of the end-1 data fixes c_(m+1)..c_n through
    the (m+1)-square falling-factorial system F[l][j] = perm(m+1+j, l),
    solved for every row in one call.  Each row is scaled to integers by
    D = lcm(row denominators) * m!, which makes every D c_l with l <= m an
    integer.
    """
    m = (n - 1) // 2
    size = m + 1
    factorials = [math.factorial(l) for l in range(size)]
    at_one = [[math.perm(k, l) for k in range(n + 1)] for l in range(size)]  # row l: order-l data of x**k at 1
    heads, rests, scales = [], [], []
    for row in rows:
        scale = math.lcm(*(v.denominator for v in row)) * factorials[m]
        data = [v.numerator * (scale // v.denominator) for v in row]
        head = [d // f for d, f in zip(data, factorials)]  # D c_0 .. D c_m
        rests.append([d - sum(map(operator.mul, p[:size], head)) for d, p in zip(data[size:], at_one)])
        heads.append(head)
        scales.append(scale)
    polys = []
    for head, tail, scale in zip(heads, solve_linear_system([p[size:] for p in at_one], rests), scales):
        den = math.lcm(*(x.denominator for x in tail))  # tail holds D c_(m+1) .. D c_n
        numerators = [c * den for c in head] + [x.numerator * (den // x.denominator) for x in tail]
        polys.append(RationalPolynomial._over(numerators, scale * den))
    return polys


@lru_cache(maxsize=None)
def derive_alpha(n: int) -> AlphaFamily:
    """Solve the endpoint value/derivative conditions for each basis member.

    Member (i, l) is the unique degree <= n polynomial whose order-l
    derivative is 1 at cell end i, all other endpoint data being zero.  The
    unit data rows go through :func:`_solve_hermite`: the end-0 data give
    the low half of the coefficients outright, and one elimination of the
    (m+1)-square falling-factorial system gives the high half of every member.
    """
    _require_valid_order(n)
    n = int(n)
    m = (n - 1) // 2
    # the unit data rows in condition order (end i, then order l)
    units = [[int(r == c) for r in range(n + 1)] for c in range(n + 1)]
    polys = _solve_hermite(n, units)
    return AlphaFamily(n=n, polys=(tuple(polys[: m + 1]), tuple(polys[m + 1 :])))


def alpha_closed_form(n: int, l: int, i: int) -> RationalPolynomial:
    """Product-form alpha basis member, expanded to monomials.

    For the left end:  (x**l / l!) * (1-x)**(m+1) * sum_k binom(m+k, k) x**k,
    with k running to m - l.  The right end follows by the reflection
    identity (sign (-1)**l, argument 1 - x).
    """
    _require_valid_order(n)
    m = (n - 1) // 2
    if not _is_integer(l) or not 0 <= l <= m:
        raise InvalidOrder(f"derivative order must be an integer in 0..{m} for n = {n}, got {l!r}")
    if not _is_integer(i) or i not in (0, 1):
        raise ValueError(f"cell end must be 0 or 1, got {i!r}")
    series = RationalPolynomial(
        [
            Fraction(math.factorial(m + k), math.factorial(m) * math.factorial(k))
            for k in range(m - l + 1)
        ]
    )
    one_minus_x_power = RationalPolynomial([(-1) ** k * math.comb(m + 1, k) for k in range(m + 2)])
    poly = RationalPolynomial.monomial(l, Fraction(1, math.factorial(l)))
    poly = poly * one_minus_x_power * series
    if i == 1:
        poly = poly.reflected()
        if l % 2:
            poly = -poly
    return poly


def _require_grid_kind(kind: SplineKind) -> None:
    if kind.q is None:
        raise InvalidKind(f"kind {kind} has no node count q: the grid-spline basis needs a kind (n, q)")


@lru_cache(maxsize=None)
def derive_beta(kind: SplineKind) -> BetaFamily:
    """Node-value basis via composition: difference weights feeding the alpha basis.

    The polynomial attached to node j collects every route by which f(j)
    reaches the cell: weight of f(j) in the order-l data at cell end i, times
    the alpha member (i, l).  Cached per kind.
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
    the end-0 data fix the low half of the coefficients, and one elimination
    of the (m+1)-square falling-factorial system takes every node's impulse
    for the high half.  Must agree exactly with :func:`derive_beta`; the
    agreement is exercised by the test suite.
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
    """Run every exact identity the node-value family must satisfy."""
    checks = []
    g, m, n = beta.g, beta.m, beta.n
    nodes = range(-g, g + 2)
    label = f"({n},{beta.q})"

    ends = {offset: beta.poly(offset).end_derivatives(m + 1) for offset in nodes}
    no_data = ([0] * (m + 1),) * 2  # the zero polynomial beyond the stencil

    bad = [
        offset
        for offset in nodes
        for side, want in ((0, int(offset == 0)), (1, int(offset == 1)))
        if ends[offset][side][0] != want
    ]
    checks.append((f"{label} node interpolation", not bad, f"offsets {bad}" if bad else ""))

    total = weighted_sum(beta.polys, [1] * len(beta.polys))
    ok = total == RationalPolynomial.constant(1)
    checks.append((f"{label} partition of unity", ok, "" if ok else f"sum = {total}"))

    bad = [
        (l, offset)
        for l in range(m + 1)
        for offset in range(-g, g + 3)
        if ends.get(offset, no_data)[1][l] != ends.get(offset - 1, no_data)[0][l]
    ]
    checks.append((f"{label} smoothness chain", not bad, f"(order, offset) {bad}" if bad else ""))

    bad = [offset for offset in nodes if beta.poly(offset) != beta.poly(1 - offset).reflected()]
    checks.append((f"{label} reflection symmetry", not bad, f"offsets {bad}" if bad else ""))

    bad = [offset for offset in nodes if beta.poly(offset).degree > n]
    checks.append((f"{label} degree bound", not bad, f"offsets {bad}" if bad else ""))

    bad = [
        p
        for p in range(min(n, 2 * g) + 1)
        if weighted_sum(beta.polys, [offset**p for offset in nodes]) != RationalPolynomial.monomial(p)
    ]
    checks.append((f"{label} monomial reproduction", not bad, f"powers {bad}" if bad else ""))

    return ValidationReport(checks=checks)


def beta_eval(beta: BetaFamily, derivative_order: int, xi: float) -> list:
    """Weights multiplying the q node values at cell fraction xi.

    Runs the kernel of the requested derivative order's form, compiled on
    its first use; orders above m would interpolate a discontinuous
    quantity and are rejected.
    """
    forms = beta._forms
    if type(derivative_order) is not int or not 0 <= derivative_order < len(forms):
        _require_derivative_order(beta, derivative_order)
    return forms[derivative_order].kernel(float(xi))


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
