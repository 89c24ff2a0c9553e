"""Exception types shared across the package, and the budget they enforce."""


class InputError(ValueError):
    """Malformed or dimensionally inconsistent input."""


class _StackError(ArithmeticError):
    """A check failed on a matrix; ``index`` is its flat place in a stack, or None."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NotPositiveError(_StackError):
    """A matrix required to be positive definite is not."""


class _UnderflowError(NotPositiveError):
    """A weight e^{-q} P is not positive definite because e^{-q} underflows to 0."""


class NotPsdError(ArithmeticError):
    """A quadratic form required to be positive semidefinite is indefinite."""


class SymmetryError(_StackError):
    """An assembled operator violates its symmetry invariant beyond tolerance."""


class QuadratureError(ArithmeticError):
    """A quadrature result is unusable (non-positive integral, rule too coarse)."""


#: Cap on the node count of a tensor-product rule, the points of a scan, the
#: starts of a rank-one search and the (n d)^2 entries of a field's curvature
#: matrix at one point; a field over it is refused before any of its terms or
#: arrays are built.
NODE_BUDGET = 10**7


class BudgetError(ValueError):
    """A rule, scan, search or field shape would exceed ``NODE_BUDGET``."""
