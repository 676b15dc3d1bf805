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
    """A strict-boundary field was evaluated where its stencil leaves the grid."""


class InvalidPoint(ValueError):
    """A query point coordinate is not finite, or its cell index does not fit in an int64."""
