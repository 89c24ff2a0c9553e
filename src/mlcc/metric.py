"""Inner products and quadratic-form calculus induced by a positive matrix.

The metric here is always a symmetric positive definite matrix ``g``; on
column-block matrices it acts blockwise as id_n (x) g, carried as ``g`` alone.
The module supplies the weighted inner products, the g-adjoint, and polar
(dual) quadratic forms with explicit handling of degenerate directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NotPositiveError, NotPsdError

#: Eigenvalues of a nominally PSD form are accepted down to this relative level;
#: finite-difference assembly leaves O(h^2) noise on the small end of the spectrum.
PSD_TOL = 1e-9

#: Default relative threshold below which a form eigenvalue counts as null.
DEFAULT_NULL_TOL = 1e-10


@dataclass(frozen=True)
class SpdMatrix:
    """A dense real symmetric positive definite matrix.

    The entries are symmetrized on construction so the symmetry invariant
    holds exactly; positivity is checked against ``tol_spd``.
    """

    entries: np.ndarray

    def __init__(self, entries, tol_spd: float = 0.0):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise InputError("matrix entries must be finite")
        sym = 0.5 * (a + a.T)
        lam_min = float(np.linalg.eigvalsh(sym)[0])
        if lam_min <= tol_spd:
            raise NotPositiveError(
                f"matrix is not positive definite (min eigenvalue {lam_min:.3e})"
            )
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def sqrt_and_invsqrt(self) -> tuple[np.ndarray, np.ndarray]:
        """Matrix square root and inverse square root via eigendecomposition."""
        lam, v = np.linalg.eigh(self.entries)
        root = np.sqrt(lam)
        return (v * root) @ v.T, (v / root) @ v.T


@dataclass(frozen=True)
class ColumnBlockMatrix:
    """An element of R^n tensor R^d stored as n columns in R^d."""

    columns: tuple

    def __init__(self, columns):
        cols = tuple(np.asarray(c, dtype=float) for c in columns)
        if not cols:
            raise InputError("need at least one column")
        d = cols[0].shape
        if any(c.ndim != 1 or c.shape != d for c in cols):
            raise InputError("all columns must be vectors of the same dimension")
        object.__setattr__(self, "columns", cols)

    @property
    def d(self) -> int:
        return self.columns[0].shape[0]

    @property
    def n(self) -> int:
        return len(self.columns)

    def flatten(self) -> np.ndarray:
        """Stack columns: entry (j, l) lands at index j*d + l."""
        return np.concatenate(self.columns)

    @classmethod
    def from_flat(cls, v: np.ndarray, d: int) -> "ColumnBlockMatrix":
        v = np.asarray(v, dtype=float)
        if v.size % d:
            raise InputError("flat vector length is not a multiple of d")
        return cls(tuple(v[k * d : (k + 1) * d] for k in range(v.size // d)))


class ExtendedReal:
    """A real number extended with a distinguished infinite value.

    Infinite values arise only from polar evaluation along degenerate
    directions (and from the Schur gap built on top of it).
    """

    __slots__ = ("_value",)

    def __init__(self, value: float):
        self._value = float(value)

    @classmethod
    def infinite(cls, sign: int = 1) -> "ExtendedReal":
        return cls(math.inf if sign > 0 else -math.inf)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self._value)

    @property
    def value(self) -> float:
        return self._value

    def finite_value(self) -> float:
        if self.is_infinite:
            raise InputError("extended real is infinite")
        return self._value

    def __float__(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"ExtendedReal({self._value!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, ExtendedReal):
            return self._value == other._value
        return self._value == other


@dataclass(frozen=True)
class QuadraticFormSpec:
    """A nonnegative quadratic form Q(u) = <C u, u>_metric on R^{dn}.

    ``form`` is the plain symmetric matrix metric @ C.  The metric is a d x d
    ``g`` weighting R^{dn} blockwise as id_n (x) g (n = 1 when the form is
    d x d); the block-diagonal matrix itself is never formed.
    """

    metric: SpdMatrix
    form: np.ndarray = field(repr=False)

    def __init__(self, metric: SpdMatrix, form):
        a = np.asarray(form, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % metric.dim:
            raise InputError("form dimension is not a multiple of the metric's")
        scale = np.abs(a).max() if a.size else 0.0
        if np.abs(a - a.T).max() > 1e-10 * max(scale, 1.0):
            raise InputError("form matrix is not symmetric within tolerance")
        sym = 0.5 * (a + a.T)
        sym.setflags(write=False)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "form", sym)

    @property
    def dim(self) -> int:
        return self.form.shape[0]

    def __call__(self, u) -> float:
        u = np.asarray(u, dtype=float)
        return float(u @ self.form @ u)


def metric_pencil(invroot: np.ndarray, form: np.ndarray) -> np.ndarray:
    """Symmetrized (id_n (x) g)^{-1/2} form (id_n (x) g)^{-1/2}, from g^{-1/2}.

    Each d x d block of ``form`` is congruenced by ``invroot`` in place of
    two dn x dn products with the block-diagonal inverse root.
    """
    d, nd = invroot.shape[0], form.shape[0]
    left = invroot @ form.reshape(nd // d, d, nd)
    pencil = (left.reshape(-1, d) @ invroot).reshape(nd, nd)
    return 0.5 * (pencil + pencil.T)


def g_inner(g: SpdMatrix, u, v) -> float:
    """Weighted inner product <g u, v>."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (g.dim,) or v.shape != (g.dim,):
        raise InputError("vector dimensions do not match the metric")
    return float(u @ g.entries @ v)


def tensor_inner(g: SpdMatrix, U: ColumnBlockMatrix, V: ColumnBlockMatrix) -> float:
    """Column-wise weighted inner product sum_k <g u_k, v_k> = tr((gU)^T V)."""
    if U.d != g.dim or V.d != g.dim or U.n != V.n:
        raise InputError("block matrix shapes do not match")
    return float(sum(u @ g.entries @ v for u, v in zip(U.columns, V.columns)))


def g_adjoint(g: SpdMatrix, a) -> np.ndarray:
    """Adjoint of the operator ``a`` w.r.t. the g-inner product: g^{-1} a^T g."""
    a = np.asarray(a, dtype=float)
    if a.shape != (g.dim, g.dim):
        raise InputError("operator shape does not match the metric")
    return np.linalg.solve(g.entries, a.T @ g.entries)


class PolarOperator:
    """Precomputed spectral data for evaluating a polar quadratic form.

    The generalized eigenproblem (form, metric) is symmetrized through the
    metric square root; null directions are detected relative to the largest
    eigenvalue.  Reusable across many evaluation vectors.
    """

    def __init__(self, spec: QuadraticFormSpec, psd_tol: float = PSD_TOL):
        root, invroot = spec.metric.sqrt_and_invsqrt()
        lam, w = np.linalg.eigh(metric_pencil(invroot, spec.form))
        lam_max = float(lam[-1])
        if lam[0] < -psd_tol * max(lam_max, 0.0) and lam[0] < -psd_tol:
            raise NotPsdError(
                f"form is indefinite (generalized eigenvalue {lam[0]:.3e})"
            )
        self.eigenvalues = np.maximum(lam, 0.0)
        self.lam_max = max(lam_max, 0.0)
        # maps v to its metric-orthonormal eigencoordinates w^T (id_n (x) root) v
        d = root.shape[0]
        self._coord_map = (w.T.reshape(-1, w.shape[0] // d, d) @ root).reshape(w.shape)

    def value(self, v, rel_null_tol: float = DEFAULT_NULL_TOL) -> ExtendedReal:
        if not 0.0 < rel_null_tol <= 1e-3:
            raise InputError("rel_null_tol must lie in (0, 1e-3]")
        v = np.asarray(v, dtype=float)
        c = self._coord_map @ v
        norm = float(np.linalg.norm(c))
        if norm == 0.0:
            return ExtendedReal(0.0)
        null = self.eigenvalues <= rel_null_tol * self.lam_max
        if float(np.linalg.norm(c[null])) > rel_null_tol * norm:
            return ExtendedReal.infinite()
        live = ~null
        return ExtendedReal(float(np.sum(c[live] ** 2 / self.eigenvalues[live])))


def polar_value(
    spec: QuadraticFormSpec, v, rel_null_tol: float = DEFAULT_NULL_TOL
) -> ExtendedReal:
    """Polar form Q°(v) = sup { <u,v>_metric^2 : Q(u) <= 1 }.

    Evaluated through the generalized eigendecomposition of (form, metric);
    eigenvalues below ``rel_null_tol`` times the largest are treated as null,
    and a metric-projection of ``v`` onto the null space beyond the same
    relative tolerance yields an infinite value.
    """
    return PolarOperator(spec).value(v, rel_null_tol)
