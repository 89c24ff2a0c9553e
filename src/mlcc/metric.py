"""Inner products and quadratic-form calculus induced by a positive matrix.

The metric here is always a symmetric positive definite matrix ``g``; on
column-block matrices it acts blockwise as id_n (x) g, carried as ``g`` alone.
The module supplies the weighted inner products, the g-adjoint, and polar
(dual) quadratic forms with explicit handling of degenerate directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, NotPositiveError, NotPsdError

#: Eigenvalues of a nominally PSD form are accepted down to this relative level;
#: finite-difference assembly leaves O(h^2) noise on the small end of the spectrum.
PSD_TOL = 1e-9

#: Default relative threshold below which a form eigenvalue counts as null.
DEFAULT_NULL_TOL = 1e-10


def _first(bad: np.ndarray) -> int | None:
    """Flat index of the first True flag of a stack (None for one matrix's flag)."""
    return int(np.argmax(bad)) if bad.ndim else None


@dataclass(frozen=True)
class SpdMatrix:
    """A dense real symmetric positive definite matrix, or a stack (..., d, d).

    The entries are symmetrized on construction so the symmetry invariant
    holds exactly; every matrix must have a smallest eigenvalue > 0 (NaN is
    not), and the error names the first one that does not (by its flat index).
    """

    entries: np.ndarray

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim < 2 or a.shape[-1] != a.shape[-2] or not a.size:
            raise InputError(f"expected a nonempty square matrix or a stack of them, got shape "
                             f"{a.shape}")
        if not np.isfinite(a).all():
            raise InputError("matrix entries must be finite")
        half = 0.5 * a  # halved before the sum: finite entries cannot overflow
        sym = half + half.swapaxes(-1, -2)
        lam_min = np.linalg.eigvalsh(sym)[..., 0]
        if not lam_min.min() > 0.0:  # a NaN eigenvalue is not > 0 either
            i = _first(~(lam_min > 0.0))
            which = "matrix" if i is None else f"matrix {i} of {lam_min.size}"
            raise NotPositiveError(
                f"{which} is not positive definite "
                f"(min eigenvalue {float(lam_min.flat[i or 0]):.3e})",
                i,
            )
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    def __getitem__(self, index) -> "SpdMatrix":
        """The matrix at ``index`` of a stack, or the stack a slice of it selects.

        It is validated with the stack, not again, and shares the stack's
        roots once they are computed (NumPy's batched eigensolvers give each
        matrix of a stack the bits they give it on its own).
        """
        entries = self.entries[index] if self.entries.ndim > 2 else None
        if entries is None or entries.shape[-2:] != self.entries.shape[-2:]:
            raise InputError(f"index {index!r} does not select matrices of a stack of shape "
                             f"{self.entries.shape}")
        node = object.__new__(SpdMatrix)
        object.__setattr__(node, "entries", entries)
        if "_roots" in self.__dict__:
            node.__dict__["_roots"] = tuple(r[index] for r in self._roots)
        return node

    def sqrt_and_invsqrt(self) -> tuple[np.ndarray, np.ndarray]:
        """Matrix square root and inverse square root via eigendecomposition,
        computed once per instance and returned read-only."""
        return self._roots

    @cached_property
    def _roots(self) -> tuple[np.ndarray, np.ndarray]:
        lam, v = np.linalg.eigh(self.entries)
        root = np.sqrt(lam)[..., None, :]
        vt = v.swapaxes(-1, -2)
        out = (v * root) @ vt, (v / root) @ vt
        for a in out:
            a.setflags(write=False)
        return out


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
        return self.columns[0].shape[-1]

    @property
    def n(self) -> int:
        return len(self.columns)

    def flatten(self) -> np.ndarray:
        """Stack columns: entry (j, l) lands at index j*d + l."""
        return np.concatenate(self.columns)

    @classmethod
    def from_flat(cls, v: np.ndarray, d: int) -> "ColumnBlockMatrix":
        v = np.asarray(v, dtype=float)
        if d < 1:
            raise InputError(f"d must be at least 1, got {d}")
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
    d x d); the block-diagonal matrix itself is never formed.  A stack of
    metrics (N, d, d) goes with a stack of forms (N, dn, dn).
    """

    metric: SpdMatrix
    form: np.ndarray = field(repr=False)

    def __init__(self, metric: SpdMatrix, form):
        a = np.asarray(form, dtype=float)
        if (a.ndim != metric.entries.ndim or a.shape[-1] != a.shape[-2]
                or a.shape[:-2] != metric.entries.shape[:-2] or a.shape[-1] % metric.dim):
            raise InputError("form dimension is not a multiple of the metric's")
        at = a.swapaxes(-1, -2)
        dev = np.abs(a - at)
        # each form's asymmetry against 1e-10 of its own scale (at least 1e-10)
        if dev.max() > 1e-10 and (dev.max(axis=(-2, -1))
                                  > 1e-10 * np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)).any():
            raise InputError("form matrix is not symmetric within tolerance")
        sym = 0.5 * (a + at)
        sym.setflags(write=False)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "form", sym)

    @property
    def dim(self) -> int:
        return self.form.shape[-1]

    def __call__(self, u) -> float:
        u = np.asarray(u, dtype=float)
        return float(u @ self.form @ u)


def metric_pencil(invroot: np.ndarray, form: np.ndarray) -> np.ndarray:
    """Symmetrized (id_n (x) g)^{-1/2} form (id_n (x) g)^{-1/2}, from g^{-1/2}.

    Each d x d block of ``form`` is congruenced by ``invroot`` in place of
    two dn x dn products with the block-diagonal inverse root; stacks of
    both give a stack of pencils.
    """
    d, nd = invroot.shape[-1], form.shape[-1]
    lead = form.shape[:-2]
    left = invroot[..., None, :, :] @ form.reshape(lead + (nd // d, d, nd))
    pencil = (left.reshape(lead + (nd * nd // d, d)) @ invroot).reshape(lead + (nd, nd))
    return 0.5 * (pencil + pencil.swapaxes(-1, -2))


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


def _sum_rows(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ..., added in index order.

    NumPy's ``sum`` adds 8 or more contiguous terms pairwise but strided ones in
    order, so its bits would depend on the memory layout; this order does not.
    """
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out


class PolarOperator:
    """Precomputed spectral data for evaluating a polar quadratic form.

    The generalized eigenproblem (form, metric) is symmetrized through the
    metric square root; null directions are detected relative to the largest
    eigenvalue.  Reusable across many evaluation vectors.  Built on a stack of
    forms, it evaluates one vector per form, and checks each form.

    On a stack of N forms of dimension dn, :meth:`value` keeps the node axis
    last: the eigencoordinate map as contiguous (dn, dn, N) rows and the
    eigenvalues as (dn, N) rows, so NumPy's inner loops run over the N nodes
    rather than over an eigen axis of a few entries (the einsum runs 3-4x
    faster on 2304 4 x 4 forms).  The constructor builds them, read-only, and
    ``_coord_map`` (N, dn, dn) and ``eigenvalues`` (N, dn) are their
    node-first views.  One form needs no rows: it adds the same products in
    the same order as the stack's einsum does at each node, and every sum
    over the eigen axis runs in index order (``_sum_rows``), so its value
    carries the bits it has as a node of a stack.
    """

    def __init__(self, spec: QuadraticFormSpec):
        root, invroot = spec.metric.sqrt_and_invsqrt()
        self._build(metric_pencil(invroot, spec.form), root)
        if self._coord_map.ndim > 2:  # a stack: (dn, dn, N) and (dn, N) rows behind views
            self._coord_rows = np.ascontiguousarray(self._coord_map.transpose(1, 2, 0))
            eigen_rows = np.ascontiguousarray(self.eigenvalues.T)
            for a in (self._coord_rows, eigen_rows):
                a.setflags(write=False)
            self._coord_map, self.eigenvalues = self._coord_rows.transpose(2, 0, 1), eigen_rows.T

    @classmethod
    def _of_pencil(cls, pencil: np.ndarray) -> "PolarOperator":
        """The polar operator of a form under the identity metric, built on ``pencil`` (a
        symmetric matrix or a stack) as ``__init__`` builds it on a metric pencil: the same
        ``eigh``, indefiniteness check and null rule.  Its eigencoordinate map is w^T, so a
        form already congruenced by its metric's inverse root, such as a block of a
        curvature pencil, is not congruenced again.  It is read through ``_coord_map`` and
        the null split, not :meth:`value`, so a stack lays out no node-last rows."""
        polar = object.__new__(cls)
        polar._build(pencil, None)
        return polar

    def _build(self, pencil: np.ndarray, root: np.ndarray | None) -> None:
        """Diagonalize ``pencil``, check that each form is PSD, and keep the eigenvalues and
        the eigencoordinate map w^T (id_n (x) root), or w^T when ``root`` is None."""
        lam, w = np.linalg.eigh(pencil)
        lam_min, lam_max = lam[..., 0], lam[..., -1]
        if lam_min.min() < -PSD_TOL:
            bad = (lam_min < -PSD_TOL * np.maximum(lam_max, 0.0)) & (lam_min < -PSD_TOL)
            if bad.any():
                i = _first(bad)
                raise NotPsdError(
                    f"form{'' if i is None else f' {i} of {bad.shape[0]}'} is indefinite "
                    f"(generalized eigenvalue {float(lam_min.flat[i or 0]):.3e})"
                )
        self.eigenvalues = np.maximum(lam, 0.0)
        self.lam_max = np.maximum(lam_max, 0.0)
        self._coord_map = w.swapaxes(-1, -2)
        if root is not None:
            # maps v to its metric-orthonormal eigencoordinates w^T (id_n (x) root) v
            d, nd = root.shape[-1], w.shape[-1]
            wt = self._coord_map.reshape(w.shape[:-2] + (nd * nd // d, d))
            self._coord_map = (wt @ root).reshape(w.shape)
        self._null_split = (None, None, None)  # (rel_null_tol, null flags, denominators)

    def _denominators_and_off_range(self, c2, rel_null_tol: float = DEFAULT_NULL_TOL):
        """The eigenvalues with inf in place of the null ones, and whether vectors with
        squared eigencoordinates ``c2`` (eigen axis last) leave the range: their null
        part exceeds rel_null_tol of their norm (None when no eigenvalue is null).
        The null split is kept for the last tolerance asked for."""
        if not 0.0 < rel_null_tol <= 1e-3:
            raise InputError("rel_null_tol must lie in (0, 1e-3]")
        if self._null_split[0] != rel_null_tol:
            null = self.eigenvalues <= rel_null_tol * self.lam_max[..., None]
            self._null_split = ((rel_null_tol, null, np.where(null, np.inf, self.eigenvalues))
                                if null.any() else (rel_null_tol, None, self.eigenvalues))
        _, null, denominators = self._null_split
        if null is None:
            return denominators, None
        null_part, norm = (_sum_rows(np.moveaxis(a, -1, 0)) for a in (np.where(null, c2, 0.0), c2))
        return denominators, null_part > rel_null_tol**2 * norm

    def value(self, v, rel_null_tol: float = DEFAULT_NULL_TOL):
        """Q°(v) as an ExtendedReal; on a stack, v is (N, dn) and the result an
        (N,) array of floats, inf where v leaves the range of that node's form.  A v of
        any other shape is an InputError."""
        v = np.asarray(v, dtype=float)
        shape = self._coord_map.shape[:-1]
        if v.shape != shape:
            which = "form" if len(shape) == 1 else "stack"
            raise InputError(f"v has shape {v.shape}; the {which} takes shape {shape}")
        if self._coord_map.ndim == 2:
            # one form: column by column, the products added in index order, as the
            # stack's einsum adds them at each node
            c = _sum_rows((self._coord_map.T * v[:, None]).swapaxes(0, -2))
        else:
            c = np.einsum("ijn,jn->in", self._coord_rows, v.T).T
        c2 = c**2  # eigen axis last; on a stack, a node-first view of (dn, N) rows
        denominators, off_range = self._denominators_and_off_range(c2, rel_null_tol)
        out = _sum_rows((c2 / denominators).T)
        if off_range is not None:
            out = np.where(off_range, np.inf, out)
        return ExtendedReal(float(out)) if out.ndim == 0 else out


def polar_value(spec: QuadraticFormSpec, v, rel_null_tol: float = DEFAULT_NULL_TOL):
    """Polar form Q°(v) = sup { <u,v>_metric^2 : Q(u) <= 1 }.

    Evaluated through the generalized eigendecomposition of (form, metric);
    eigenvalues below ``rel_null_tol`` times the largest are treated as null,
    and a metric-projection of ``v`` onto the null space beyond the same
    relative tolerance yields an infinite value.  An ExtendedReal for one
    form; for a stack of forms, an (N,) array as from PolarOperator.value.
    """
    return PolarOperator(spec).value(v, rel_null_tol)
