"""Exact rational arithmetic: dense polynomials and linear solves over fractions.

Everything in this module is exact; floats never enter a computation.
``Rational`` is an alias for :class:`fractions.Fraction`, which already keeps
values in lowest terms with a positive denominator and arbitrary-precision
integer parts.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import SingularMatrix

Rational = Fraction

RationalLike = Union[int, Fraction]


def rational_to_str(value: RationalLike) -> str:
    """Serialize a rational as ``"num/den"`` (always with an explicit denominator)."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def rational_from_str(text: str) -> Fraction:
    """Parse ``"num/den"`` (or a plain integer string) back into a Fraction."""
    return Fraction(text)


def _canonical(coeffs: Iterable[RationalLike]) -> tuple:
    out = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _powers(value: RationalLike, count: int) -> list:
    """value**0 .. value**(count - 1); plain ints when value is integral."""
    value = Fraction(value)
    if value.denominator == 1:
        value = value.numerator
    out = [1]
    for _ in range(1, count):
        out.append(out[-1] * value)
    return out


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense univariate polynomial over rationals; ``coeffs[k]`` multiplies x**k.

    Canonical form: no trailing zero coefficients.  The zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _canonical(self.coeffs))

    @classmethod
    def constant(cls, value: RationalLike) -> "RationalPolynomial":
        return cls((Fraction(value),))

    @classmethod
    def monomial(cls, power: int, coefficient: RationalLike = 1) -> "RationalPolynomial":
        c = Fraction(coefficient)
        if c == 0:
            return cls()
        return cls((Fraction(0),) * power + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> Fraction:
        """Coefficient of x**power, zero beyond the stored degree."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __add__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for k, c in enumerate(b):
            merged[k] += c
        return RationalPolynomial(merged)

    def __neg__(self):
        return RationalPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            if self.is_zero() or other.is_zero():
                return RationalPolynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RationalPolynomial(out)
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        out = RationalPolynomial.constant(1)
        for _ in range(exponent):
            out = out * self
        return out

    def derivative(self, order: int = 1) -> "RationalPolynomial":
        """Exact formal derivative of the given order."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        coeffs = self.coeffs
        for _ in range(order):
            coeffs = tuple(k * coeffs[k] for k in range(1, len(coeffs)))
        return RationalPolynomial(coeffs)

    def __call__(self, x):
        """Horner evaluation; exact for Fraction input, float for float input."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_affine(self, scale: RationalLike, offset: RationalLike) -> "RationalPolynomial":
        """Exact substitution x -> scale*x + offset.

        Binomial expansion: the x**j coefficient is
        scale**j * sum_k binom(k, j) * offset**(k-j) * c_k.
        """
        coeffs = self.coeffs
        size = len(coeffs)
        scale_pow = _powers(scale, size)
        offset_pow = _powers(offset, size)
        return RationalPolynomial(
            tuple(
                scale_pow[j] * sum(math.comb(k, j) * offset_pow[k - j] * coeffs[k] for k in range(j, size))
                for j in range(size)
            )
        )

    def reflected(self) -> "RationalPolynomial":
        """The polynomial p(1 - x)."""
        return self.compose_affine(-1, 1)

    def horner_coeffs(self) -> tuple:
        """Float coefficients in degree-descending order, ready for Horner loops."""
        return tuple(float(c) for c in reversed(self.coeffs))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = [f"({c})*x^{k}" if k else f"({c})" for k, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(parts)


def solve_linear_system(matrix: Sequence[Sequence[RationalLike]], rhs) -> list:
    """Solve A*x = b exactly by Gaussian elimination over the rationals.

    ``matrix`` is a square nested sequence of rationals.  ``rhs`` is either
    one right-hand side, a sequence of n rationals, and the result is its
    solution as a list; or a sequence of right-hand sides, each a list or
    tuple of n rationals, and the result is one solution list per
    right-hand side, in order.  All right-hand sides ride along one forward
    elimination, so each distinct matrix needs to be eliminated only once.

    Pivoting just picks the first nonzero entry in each column; with exact
    arithmetic no magnitude heuristics are needed.

    Raises :class:`SingularMatrix` when some column has no nonzero pivot.
    """
    rows = [[Fraction(v) for v in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    single = not (len(rhs) and isinstance(rhs[0], (list, tuple)))
    columns = [[Fraction(v) for v in b] for b in ([rhs] if single else rhs)]
    if any(len(b) != n for b in columns):
        raise ValueError("right-hand side length must match the matrix size")

    aug = [row + [b[r] for b in columns] for r, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix(f"no nonzero pivot in column {col}")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        tail = aug[col][col:]  # entries left of col are zero in every row from col down
        for r in range(col + 1, n):
            row = aug[r]
            factor = row[col]
            if factor == 0:
                continue
            factor /= tail[0]
            row[col:] = [a - factor * p if p else a for a, p in zip(row[col:], tail)]

    solutions = []
    for k in range(n, n + len(columns)):
        x = [Fraction(0)] * n
        for r in range(n - 1, -1, -1):
            row = aug[r]
            acc = row[k]
            for c in range(r + 1, n):
                if row[c]:
                    acc -= row[c] * x[c]
            x[r] = acc / row[r]
        solutions.append(x)
    return solutions[0] if single else solutions
