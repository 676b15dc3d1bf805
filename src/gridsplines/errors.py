"""Exception types shared across the library."""


class SingularMatrix(ArithmeticError):
    """Gaussian elimination found no nonzero pivot for some column."""


class InvalidOrder(ValueError):
    """Polynomial order must be odd and inside the supported range."""


class InvalidKind(ValueError):
    """The (n, q) pair violates parity, range, or the n <= 2q - 3 bound."""


class DerivativeTooHigh(ValueError):
    """Requested derivative order exceeds the smoothness order m = (n - 1) / 2."""


class OutOfDomain(ValueError):
    """A strict-boundary field was evaluated where its stencil leaves the grid.

    ``point`` is the query point, as a tuple of floats, or None where only a
    cell was given (:func:`~gridsplines.field.evaluate_at_cell`).  ``cell``
    holds the cell indices, ``axis`` the axis whose stencil leaves the grid
    and ``extent`` that axis's node count.
    """

    def __init__(self, message, *, point=None, axis=None, cell=None, extent=None):
        super().__init__(message)
        self.point = point
        self.axis = axis
        self.cell = cell
        self.extent = extent

    def _at_point(self, point) -> "OutOfDomain":
        """This error for the query ``point``, which the message names first."""
        point = tuple(float(v) for v in point)
        return OutOfDomain(f"point {point}: {self}", point=point, axis=self.axis, cell=self.cell, extent=self.extent)


class InvalidPoint(ValueError):
    """A query point coordinate is complex or not finite, or its cell index does not fit in an int64.

    ``point`` is the query point, as a tuple of floats (a complex coordinate
    as a complex), and ``axis`` the axis of the bad coordinate.
    """

    def __init__(self, message, *, point=None, axis=None):
        super().__init__(message)
        self.point = point
        self.axis = axis
