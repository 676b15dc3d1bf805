"""Centered-difference weights from symmetric Lagrange interpolation.

The weights turn the 2g+1 node values around a grid node into Taylor data for
that node.  Because the node set is symmetric, the data is the same no matter
which neighbouring cell asks for it, which is what makes the assembled spline
globally smooth.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import _cached_on_int, _integer, _is_integer, solve_linear_system

MAX_NODES = 12  # largest supported node count q = 2g + 2


@dataclass(frozen=True)
class StencilTable:
    """Difference weights for one half-width g, all orders l = 0..2g.

    ``coeffs[l]`` holds the weights for node offsets -g..g (storage index
    ``offset + g``).  Row l applied to the node values yields the order-l
    Taylor value at the center node: l! times the x**l coefficient of the
    degree-2g interpolant through the nodes.  Exact for polynomials of
    degree <= 2g.
    """

    g: int
    coeffs: tuple

    def weight(self, order: int, offset: int) -> Fraction:
        """Weight of f(node + offset) in the order-``order`` row; zero outside the symmetric range.

        ``order`` must be an integer in 0..2g and ``offset`` an integer;
        bools are neither.
        """
        g = self.g
        if type(order) is not int or type(offset) is not int or not 0 <= order <= 2 * g:
            if not (_is_integer(order) and 0 <= order <= 2 * g):
                raise ValueError(f"difference order {order!r} is not an integer in 0..{2 * g}")
            if not _is_integer(offset):
                raise ValueError(f"node offset {offset!r} is not an integer")
        if abs(offset) > g:
            return Fraction(0)
        return self.coeffs[order][offset + g]


@_cached_on_int
def derive_stencil(g: int) -> StencilTable:
    """Solve the symmetric interpolation system on nodes -g..g.

    One solve propagates every unit node value through the Vandermonde
    system; solution j gives the contribution of f(node_j) to every Taylor
    order.  A half-width above MAX_NODES // 2 - 1 raises ValueError.
    """
    g = _integer(g, "stencil half-width {!r}", least=1)
    if g > MAX_NODES // 2 - 1:
        raise ValueError(f"stencil half-width {g} exceeds {MAX_NODES // 2 - 1}, the largest for q <= {MAX_NODES}")
    size = 2 * g + 1
    nodes = range(-g, g + 1)
    vandermonde = [[Fraction(v) ** p for p in range(size)] for v in nodes]
    units = [[int(r == j) for r in range(size)] for j in range(size)]
    columns = solve_linear_system(vandermonde, units)
    coeffs = tuple(
        tuple(math.factorial(order) * columns[j][order] for j in range(size))
        for order in range(size)
    )
    return StencilTable(g=g, coeffs=coeffs)
