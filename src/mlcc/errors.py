"""Exception types shared across the package, and the budget they enforce."""


class InputError(ValueError):
    """Malformed or dimensionally inconsistent input."""


class NotPositiveError(ArithmeticError):
    """A matrix required to be positive definite is not.

    ``index`` is the position of the first such matrix in a stack (None for a
    single matrix).
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NotPsdError(ArithmeticError):
    """A quadratic form required to be positive semidefinite is indefinite."""


class SymmetryError(ArithmeticError):
    """An assembled operator violates its symmetry invariant beyond tolerance."""


class QuadratureError(ArithmeticError):
    """A quadrature result is unusable (non-positive integral, rule too coarse)."""


#: Cap on the node count of a tensor-product rule, the points of a scan and
#: the starts of a rank-one search.
NODE_BUDGET = 10**7


class BudgetError(ValueError):
    """A rule, scan or search would exceed ``NODE_BUDGET``."""
