"""Exact rational arithmetic: dense polynomials and linear solves over fractions.

Everything in this module is exact; floats never enter a computation.

A polynomial is stored in one form only: integer numerators over one
positive denominator, in lowest terms (no trailing zero numerator, and the
denominator and numerators share no factor).  That pair is unique for a
polynomial, so equality and hashing compare it.  Products, weighted sums
(which serve ``+``, ``-`` and scalar ``*``), affine substitutions and
derivatives work on the integers, and each reduces its result by one gcd.
An affine substitution is an integer Taylor shift: scale, shift by 1 with
additions only (synthetic division), scale again; no binomial sums.  The
exact checks compare polynomials over one common denominator, as integers
too.  Values cross the module boundary as Fractions: ``coeffs`` (built on
first read) is a lowest-terms Fraction view, and the solver, which scales
each augmented row to integers and runs fraction-free (Bareiss)
elimination, returns Fractions.  Both are the values plain Fraction
arithmetic gives, so they and the ``"num/den"`` export strings do not
depend on the representation.
"""

import math
import numbers
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from typing import Iterable, Sequence, Union

from .errors import SingularMatrix

RationalLike = Union[int, Fraction]


def rational_to_str(value: RationalLike) -> str:
    """Serialize a rational as ``"num/den"`` (always with an explicit denominator)."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def rational_from_str(text: str) -> Fraction:
    """Parse ``"num/den"`` (or a plain integer string) back into a Fraction.

    Text that is not a rational, a zero denominator included, raises ValueError.
    """
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"rational {text!r} has a zero denominator") from exc


def _over_common_denominator(values) -> tuple:
    """Rationals as (integer numerators, d), d being the lcm of their denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _rational(value):
    """An int or Fraction as it is, anything else converted to a Fraction."""
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def _is_integer(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _cached_on_int(derive):
    """``lru_cache`` of a one-argument derivation, keyed on ``int(n)`` for any integer n.

    ``lru_cache`` keys a numpy integer apart from the equal int.  Anything
    else goes to the uncached derivation, whose checks reject it by name: a
    list, which the cache could not hash, included.  The result keeps the
    cache's ``cache_info`` and ``cache_clear``, and ``__wrapped__`` is the
    uncached derivation.
    """
    cached = lru_cache(maxsize=None)(derive)

    @wraps(derive)
    def lookup(n):
        return cached(int(n)) if _is_integer(n) else derive(n)

    lookup.cache_info, lookup.cache_clear = cached.cache_info, cached.cache_clear
    return lookup


def _require_count(name: str, value) -> None:
    """A power or derivative order: a non-negative integer, and not a bool."""
    if not _is_integer(value) or value < 0:
        raise ValueError(f"{name} {value!r} is not a non-negative integer")


def _powers(value: int, count: int) -> list:
    """value**0 .. value**(count - 1)."""
    out = [1]
    for _ in range(1, count):
        out.append(out[-1] * value)
    return out


class RationalPolynomial:
    """Dense univariate polynomial over rationals; ``coeffs[k]`` multiplies x**k.

    Stored as integer numerators over one positive denominator, in lowest
    terms: no trailing zero numerator, and the denominator and numerators
    have gcd 1.  That pair is unique, so equality and hashing compare it.
    The zero polynomial has no numerators, denominator 1 and degree -1.
    """

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        self._store(*_over_common_denominator([_rational(c) for c in coeffs]))

    def _store(self, numerators, denominator: int) -> None:
        num = list(numerators)
        while num and not num[-1]:
            num.pop()
        common = math.gcd(denominator, *num)
        self._num = tuple(a // common for a in num)
        self._den = denominator // common

    @classmethod
    def _over(cls, numerators, denominator: int) -> "RationalPolynomial":
        """The polynomial with coefficients ``numerators[k] / denominator`` (denominator > 0)."""
        poly = cls.__new__(cls)
        poly._store(numerators, denominator)
        return poly

    @classmethod
    def constant(cls, value: RationalLike) -> "RationalPolynomial":
        return cls((value,))

    @classmethod
    def monomial(cls, power: int, coefficient: RationalLike = 1) -> "RationalPolynomial":
        _require_count("power", power)
        return cls((0,) * power + (coefficient,))

    @cached_property
    def coeffs(self) -> tuple:
        """Lowest-terms Fractions in ascending powers, built on first read."""
        return tuple(Fraction(a, self._den) for a in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self):
        return f"RationalPolynomial({self.coeffs!r})"

    def __add__(self, other):
        return weighted_sum((self, other), (1, 1)) if isinstance(other, RationalPolynomial) else NotImplemented

    def __sub__(self, other):
        return weighted_sum((self, other), (1, -1)) if isinstance(other, RationalPolynomial) else NotImplemented

    def __neg__(self):
        return weighted_sum((self,), (-1,))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return weighted_sum((self,), (other,))
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RationalPolynomial()
        out = [0] * (len(self._num) + len(other._num) - 1)
        for i, x in enumerate(self._num):
            if x:
                for j, y in enumerate(other._num, i):
                    out[j] += x * y
        return RationalPolynomial._over(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        _require_count("power", exponent)
        out = RationalPolynomial.constant(1)
        for _ in range(exponent):
            out = out * self
        return out

    def derivative(self, order: int = 1) -> "RationalPolynomial":
        """Exact formal derivative of the given order: x**k becomes perm(k, order) x**(k - order)."""
        _require_count("derivative order", order)
        return RationalPolynomial._over([math.perm(k, order) * x for k, x in enumerate(self._num)][order:], self._den)

    def __call__(self, x):
        """Horner evaluation; exact for Fraction input, float for float input."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_affine(self, scale: RationalLike, offset: RationalLike) -> "RationalPolynomial":
        """Exact substitution x -> scale*x + offset, by an integer Taylor shift.

        With scale = s/t, offset = u/v, coefficients c_k = a_k/d and degree N,
        b_k = a_k v**(N-k) are the coefficients of B(y) = d v**N p(y/v).  The
        shift B(y + u) is the shift by 1 of B(u y), whose coefficients are
        b_k u**k: synthetic division does it with N(N+1)/2 additions, and
        dividing coefficient j by u**j (exactly) undoes the scaling.  Then
        y = (v s/t) x makes the x**j coefficient (v s)**j t**(N-j) times the
        shifted b_j, over the common denominator d t**N v**N.
        """
        if self.is_zero():
            return self
        scale, offset = _rational(scale), _rational(offset)
        u, v = offset.numerator, offset.denominator
        top = len(self._num) - 1
        v_powers = _powers(v, top + 1)
        b = [a * v_powers[top - k] for k, a in enumerate(self._num)]
        if u:
            u_powers = _powers(u, top + 1)
            b = [x * p for x, p in zip(b, u_powers)]
            for i in range(top):
                for k in range(top - 1, i - 1, -1):
                    b[k] += b[k + 1]
            b = [x // p for x, p in zip(b, u_powers)]
        vs = _powers(v * scale.numerator, top + 1)
        t = _powers(scale.denominator, top + 1)
        return RationalPolynomial._over(
            [x * vs[j] * t[top - j] for j, x in enumerate(b)], self._den * t[top] * v_powers[top]
        )

    def reflected(self) -> "RationalPolynomial":
        """The polynomial p(1 - x)."""
        return self.compose_affine(-1, 1)

    def horner_coeffs(self) -> tuple:
        """Float coefficients, degree-descending for Horner loops; each rounds as float(Fraction) does."""
        return tuple(x / self._den for x in reversed(self._num))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = [f"({c})*x^{k}" if k else f"({c})" for k, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(parts)


def weighted_sum(polys: Sequence[RationalPolynomial], weights: Sequence[RationalLike]) -> RationalPolynomial:
    """sum_j weights[j] * polys[j], accumulated in integers over one common denominator."""
    terms = [(_rational(w), p) for p, w in zip(polys, weights) if w]
    den = math.lcm(*(w.denominator * p._den for w, p in terms))
    acc = [0] * max((len(p._num) for _, p in terms), default=0)
    for w, p in terms:
        factor = w.numerator * (den // (w.denominator * p._den))
        for k, x in enumerate(p._num):
            acc[k] += factor * x
    return RationalPolynomial._over(acc, den)


def _common_numerators(polys: Sequence[RationalPolynomial], width: int) -> tuple:
    """The polynomials over their one denominator d: (numerator rows, d), each row padded to ``width`` or longer."""
    den = math.lcm(*(p._den for p in polys))
    width = max([width] + [len(p._num) for p in polys])
    return [[a * (den // p._den) for a in p._num] + [0] * (width - len(p._num)) for p in polys], den


def solve_linear_system(matrix: Sequence[Sequence[RationalLike]], rhs) -> list:
    """Solve A*x = b exactly by fraction-free Gaussian elimination.

    ``matrix`` is a square nested sequence of rationals.  ``rhs`` is either
    one right-hand side, a sequence of n rationals, and the result is its
    solution as a list of Fractions; or a sequence of right-hand sides, each
    a sequence of n rationals (a list, a tuple, a row of a 2-D array), and
    the result is one solution list per right-hand side, in order.  All
    right-hand sides ride along one forward elimination, so each distinct
    matrix needs to be eliminated only once.

    Each augmented row is scaled to integers by the lcm of its denominators,
    which leaves the solution unchanged, and eliminated with Bareiss's
    integer-preserving step: every entry stays an integer (a minor of the
    scaled matrix) and every division is exact.  Back substitution finds
    det * x, which is integral by Cramer's rule, and each solution entry
    becomes one Fraction.  Pivoting just picks the first nonzero entry in
    each column; with exact arithmetic no magnitude heuristics are needed.

    Raises :class:`SingularMatrix` when some column has no nonzero pivot.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    single = not len(rhs) or isinstance(rhs[0], (numbers.Number, str))  # else each entry is a right-hand side
    columns = [rhs] if single else rhs
    if any(len(b) != n for b in columns):
        raise ValueError("right-hand side length must match the matrix size")

    aug = [
        _over_common_denominator([_rational(v) for v in row] + [_rational(b[r]) for b in columns])[0]
        for r, row in enumerate(matrix)
    ]
    previous = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrix(f"no nonzero pivot in column {col}")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col][col]
        tail = aug[col][col + 1 :]
        # column col below the pivot is never read again, so it is left as it is
        for r in range(col + 1, n):
            row = aug[r]
            factor = row[col]
            row[col + 1 :] = [(head * a - factor * p) // previous for a, p in zip(row[col + 1 :], tail)]
        previous = head

    det = previous  # the last pivot: the determinant of the scaled, row-swapped matrix
    solutions = []
    for k in range(n, n + len(columns)):
        y = [0] * n  # det * x
        for r in range(n - 1, -1, -1):
            row = aug[r]
            y[r] = (det * row[k] - sum(row[c] * y[c] for c in range(r + 1, n))) // row[r]
        solutions.append([Fraction(v, det) for v in y])
    return solutions[0] if single else solutions
