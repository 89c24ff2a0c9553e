"""Exception types shared across the package."""


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


class BudgetError(ValueError):
    """A tensor-product rule would exceed the node budget."""
