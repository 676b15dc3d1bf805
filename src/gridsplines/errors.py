"""Exception types shared across the library."""


class SingularMatrix(ArithmeticError):
    """Gaussian elimination found no nonzero pivot for some column."""


class InvalidOrder(ValueError):
    """Polynomial order must be odd and inside the supported range."""


class InvalidKind(ValueError):
    """The (n, q) pair violates parity, range, or the n <= 2q - 3 bound."""


class DerivativeTooHigh(ValueError):
    """Requested derivative order exceeds the smoothness order m = (n - 1) / 2; an evaluation entry names its axis."""


class OutOfDomain(ValueError):
    """A strict-boundary field was evaluated where its stencil leaves the grid.

    ``point`` is the query point, as a tuple of floats, or None where only a
    cell was given (:func:`~gridsplines.field.evaluate_at_cell`,
    :func:`~gridsplines.field.gather_local`).  ``cell`` holds the cell
    indices, ``axis`` the axis whose stencil leaves the grid and ``extent``
    that axis's node count.
    """

    def __init__(self, message, *, point=None, axis=None, cell=None, extent=None):
        super().__init__(message)
        self.point = point
        self.axis = axis
        self.cell = cell
        self.extent = extent


class InvalidPoint(ValueError):
    """A point coordinate is not real, is complex, beyond the float range or not finite, or its cell index beyond int64.

    ``point`` is the query point, as a tuple of floats (a complex coordinate as a
    complex, any other non-float as given), and ``axis`` the bad coordinate's axis.
    """

    def __init__(self, message, *, point=None, axis=None):
        super().__init__(message)
        self.point = point
        self.axis = axis
