"""Exception types shared across the package, the budget they enforce and the validators
of the one input rule: a whole number is an int, a NumPy integer or an integral float
(64.0), a real a finite int or float; a bool, str, complex, None or other object is
neither, an InputError naming the input, raised before NumPy could warn."""

import math

import numpy as np


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


def _whole(key: str, value, least: int | None = None) -> int:
    """``value`` as an int if it is a whole number, and at least ``least`` when one is
    given; else an InputError naming ``key`` and the value."""
    whole = None
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            or isinstance(value, (float, np.floating)) and float(value).is_integer()):
        whole = int(value)
    if whole is None or (least is not None and whole < least):
        bound = "" if least is None else f" >= {least}"
        raise InputError(f"{key} must be a whole number{bound}, got {value!r}")
    return whole


def _real(key: str, value, positive: bool = False) -> float:
    """``value`` as a float if it is a real, and > 0 when ``positive``; else an InputError
    naming ``key`` and the value."""
    real = math.nan
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:  # an int beyond the floats
            pass
    if not (math.isfinite(real) and (real > 0.0 or not positive)):
        rule = "finite and > 0" if positive else "a finite number"
        raise InputError(f"{key} must be {rule}, got {value!r}")
    return real


def _reals(key: str, value) -> np.ndarray:
    """``value`` as a float array if NumPy reads it as reals (an integer or float dtype,
    and no bool in a list), finite or not; else an InputError naming ``key`` and the value."""
    if type(value) is np.ndarray and value.dtype == float:  # read as it is
        return value
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):  # a ragged list, say
        a = None
    if a is None or a.dtype.kind not in "iuf" or (isinstance(value, (list, tuple)) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat)):
        raise InputError(f"{key} must be real, got {value!r}")
    return a.astype(float, copy=False)


def _points(key: str, x, n: int) -> np.ndarray:
    """``x`` as a finite float array of one point in R^n, shape (n,), or a stack of N >= 1
    of them, (N, n) or (..., n); else an InputError naming ``key``."""
    a = _reals(key, x)
    if not a.ndim or a.shape[-1] != n or not a.size:
        raise InputError(f"{key} must be a point in R^{n} or a nonempty stack of them, got "
                         f"shape {a.shape}")
    if np.count_nonzero(np.isfinite(a)) < a.size:
        raise InputError(f"{key} must be finite, got {x!r}")
    return a
