"""Brute-force oracles: the tensor interpolant, the exact family checks, and exact weights on float data.

:func:`direct_evaluate` is independent of the per-axis machinery under test:
the full multidimensional Taylor system and the full cell-polynomial system
are assembled over all axes at once and solved with exact rational
elimination, then the cell polynomial is evaluated exactly.  It shares only
the linear solver with the library.

:func:`family_checks` runs the identities of ``basis.validate_family`` the
plain way, on Fractions and polynomials: end derivatives as Fractions, one
weighted sum per reproduced power, and one reflection per member.

:func:`exact_weights_sum` is the float path's sum with every weight and
every operation exact, on the same cell, fractions and node values.
"""

import itertools
import math
from fractions import Fraction

from gridsplines.exact import RationalPolynomial, solve_linear_system, weighted_sum
from gridsplines.field import gather_local, grid_coordinates


def direct_evaluate(data, cell, fracs, n, g):
    """Exact value of the unique tensor cell polynomial at the given fractions.

    ``data`` is a D-dimensional periodic array of samples, ``cell`` the cell
    indices, ``fracs`` the in-cell fractions as Fractions.  Returns a Fraction.
    """
    D = len(cell)
    m = (n - 1) // 2
    dims = data.shape

    # Taylor data per cell corner: raw monomial coefficients of the unique
    # interpolant through the symmetric node block around that corner.
    t_orders = list(itertools.product(range(2 * g + 1), repeat=D))
    v_nodes = list(itertools.product(range(-g, g + 1), repeat=D))
    lagrange = [
        [_tensor_power(v, k) for k in t_orders]
        for v in v_nodes
    ]
    taylor = {}
    for corner in itertools.product((0, 1), repeat=D):
        rhs = []
        for v in v_nodes:
            idx = tuple((cell[j] + corner[j] + v[j]) % dims[j] for j in range(D))
            rhs.append(Fraction(float(data[idx])))
        taylor[corner] = dict(zip(t_orders, solve_linear_system(lagrange, rhs)))

    # Cell polynomial: mixed derivatives at every corner must equal the
    # factorial-scaled Taylor coefficients of that corner.
    s_orders = list(itertools.product(range(n + 1), repeat=D))
    matrix = []
    rhs = []
    for corner in itertools.product((0, 1), repeat=D):
        for lvec in itertools.product(range(m + 1), repeat=D):
            row = []
            for k in s_orders:
                entry = Fraction(1)
                for j in range(D):
                    kj, lj = k[j], lvec[j]
                    if kj < lj:
                        entry = Fraction(0)
                        break
                    falling = math.factorial(kj) // math.factorial(kj - lj)
                    entry *= falling * Fraction(corner[j]) ** (kj - lj)
                row.append(entry)
            matrix.append(row)
            scale = 1
            for lj in lvec:
                scale *= math.factorial(lj)
            rhs.append(scale * taylor[corner][lvec])
    coeffs = solve_linear_system(matrix, rhs)

    value = Fraction(0)
    for k, c in zip(s_orders, coeffs):
        value += c * _tensor_power(fracs, k)
    return value


def _tensor_power(values, exponents):
    out = Fraction(1)
    for v, e in zip(values, exponents):
        out *= Fraction(v) ** e
    return out


def _end_derivatives(p, orders):
    """The derivatives of orders 0..orders-1 at x = 0 and at x = 1, each evaluated exactly, as two lists."""
    chain = [p.derivative(l) for l in range(orders)]
    return [d(Fraction(0)) for d in chain], [d(Fraction(1)) for d in chain]


def family_checks(beta):
    """The (name, passed, detail) list ``basis.validate_family`` must report for ``beta``."""
    checks = []
    g, m, n = beta.g, beta.m, beta.n
    nodes = range(-g, g + 2)
    label = f"({n},{beta.q})"

    ends = {offset: _end_derivatives(beta.poly(offset), m + 1) for offset in nodes}
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
    return checks


def exact_weights_sum(field, point, family, orders):
    """The scalar path's interpolant with exact weights: a Fraction.

    The cell, the fractions and the node patch are the float path's own
    (a float fraction is exact as a Fraction); the weights are the exact
    basis polynomials' derivatives at those fractions, and the sum over the
    patch and the factor prod h_j**-l_j are exact too.
    """
    cc = grid_coordinates(point, field)
    polys = [
        [family.poly(offset).derivative(l) for offset in range(-family.g, family.g + 2)] for l in orders
    ]
    weights = [[p(Fraction(x)) for p in axis] for axis, x in zip(polys, cc.frac)]
    values = gather_local(field, cc.cell, family.g).values.ravel().tolist()
    total = Fraction(0)
    for v, ws in zip(values, itertools.product(*weights)):
        total += Fraction(v) * math.prod(ws)
    return total * math.prod(Fraction(h) ** -l for h, l in zip(field.h, orders))
