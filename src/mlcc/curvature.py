"""Pointwise curvature operator of a matrix field and log-concavity tests.

The curvature blocks are theta_{j,k} = d_k(g^{-1} d_j g); multiplied by g
they assemble into a symmetric dn x dn matrix whose nonpositivity (in the
block-weighted inner product) is the Nakano log-concavity condition.  The
weaker Griffiths condition tests the same operator on rank-one directions
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NODE_BUDGET, BudgetError, InputError, SymmetryError
from .fields import Jet2, MatrixField
from .metric import (
    ColumnBlockMatrix,
    ExtendedReal,
    QuadraticFormSpec,
    SpdMatrix,
    _first,
    metric_pencil,
    polar_value,
)

#: Largest generalized eigenvalue below which the operator counts as nonpositive.
TOL_PSD = 1e-9

#: Relative asymmetry of the assembled operator beyond which the jet is broken.
ASYMMETRY_TOL = 1e-6

#: Relative change of a start's value at which the rank-one search stops that start.
RANK_ONE_STOP_TOL = 1e-10


def theta_block(jet: Jet2, j: int, k: int) -> np.ndarray:
    """Curvature block theta_{j,k} = g^{-1}[d2_{kj} g - (d_k g) g^{-1} (d_j g)].

    Indices are 0-based.  Solves against g, never forming its inverse.
    """
    n = jet.n
    if not (0 <= j < n and 0 <= k < n):
        raise InputError(f"block index ({j}, {k}) out of range for n={n}")
    g = jet.value.entries
    inner = jet.d2[k, j] - jet.d1[k] @ np.linalg.solve(g, jet.d1[j])
    return np.linalg.solve(g, inner)


@dataclass(frozen=True)
class CurvatureMatrix:
    """The curvature operator at a point, as a dn x dn symmetric matrix.

    Index (j, l) of the flattened space is j*d + l for column j and
    coordinate l (0-based).  The metric id_n (x) g is carried as ``g``.
    ``asymmetry`` records the pre-symmetrization asymmetry norm.  Built from
    a stack of jets, ``theta_tilde``, ``g`` and ``asymmetry`` carry a leading
    node axis.
    """

    d: int
    n: int
    theta_tilde: np.ndarray
    g: SpdMatrix
    asymmetry: float

    @property
    def dim(self) -> int:
        return self.d * self.n

    def quadratic_form(self, u: ColumnBlockMatrix) -> float:
        v = u.flatten()
        return float(v @ self.theta_tilde @ v)


def curvature_from_jet(jet: Jet2) -> CurvatureMatrix:
    """Assemble the symmetric curvature matrix from a 2-jet, or a stack of them.

    Block (row k, column j) is g * theta_{j,k} = d2_{kj} g - (d_k g) g^{-1} (d_j g).
    The asymmetry gate runs on every matrix of a stack; the error carries the
    flat index of the first that fails (``curvature_matrix`` names its point).
    """
    n, d = jet.n, jet.d
    g = jet.value.entries
    ginv_d1 = np.linalg.solve(g[..., None, :, :], jet.d1)
    # [..., k, j] = d2_{kj} - (d_k g) g^{-1} (d_j g): row-block k, column-block j
    blocks = jet.d2 - jet.d1[..., :, None, :, :] @ ginv_d1[..., None, :, :, :]
    raw = blocks.swapaxes(-3, -2).reshape(g.shape[:-2] + (n * d, n * d))
    raw_t = raw.swapaxes(-1, -2)
    # Frobenius norms per matrix, with np.linalg.norm's arithmetic
    diff = raw - raw_t
    asym = np.sqrt(np.add.reduce(diff * diff, axis=(-2, -1)))
    scale = np.sqrt(np.add.reduce(raw * raw, axis=(-2, -1)))
    bad = (scale > 0.0) & (asym > ASYMMETRY_TOL * scale)
    if bad.any():
        i = _first(bad)
        a, norm = float(asym.flat[i or 0]), float(scale.flat[i or 0])
        raise SymmetryError(f"curvature matrix asymmetry {a:.3e} exceeds {ASYMMETRY_TOL:.0e} of "
                            f"norm {norm:.3e}; the jet is inconsistent", i)
    theta = 0.5 * (raw + raw_t)
    theta.setflags(write=False)
    return CurvatureMatrix(d=d, n=n, theta_tilde=theta, g=jet.value,
                           asymmetry=asym if asym.ndim else float(asym))


def curvature_matrix(field: MatrixField, x, jet: Jet2 | None = None) -> CurvatureMatrix:
    """Curvature operator of ``field`` at ``x``, or at each point of a stack.

    ``jet``, when given, is the jet of ``field`` at ``x``, already evaluated.
    An asymmetric jet names its point.
    """
    x = np.asarray(x, dtype=float)
    try:
        return curvature_from_jet(field.jet(x) if jet is None else jet)
    except SymmetryError as exc:
        raise SymmetryError(f"{field._where(x, exc.index)}: {exc}", exc.index) from None


class NakanoVerdict(NamedTuple):
    lambda_max: float | list
    is_nlogconcave: bool | list
    lambda_max_std: float | list


def nakano_verdict(cm: CurvatureMatrix, tol_psd: float = TOL_PSD) -> NakanoVerdict:
    """Largest generalized eigenvalue of (theta_tilde, id_n (x) g) and the verdict.

    ``lambda_max_std`` is the largest standard eigenvalue of theta_tilde; it
    shares the sign of ``lambda_max`` since the metric is positive definite.
    Floats and a bool at one point; lists over a stack (one batched eigensolve).
    """
    lam_max = generalized_spectrum(cm)[..., -1]
    lam_std = np.linalg.eigvalsh(cm.theta_tilde)[..., -1]
    return NakanoVerdict(lam_max.tolist(), (lam_max <= tol_psd).tolist(), lam_std.tolist())


def generalized_spectrum(cm: CurvatureMatrix) -> np.ndarray:
    """All generalized eigenvalues of (theta_tilde, id_n (x) g), ascending."""
    _, invroot = cm.g.sqrt_and_invsqrt()
    return np.linalg.eigvalsh(metric_pencil(invroot, cm.theta_tilde))


def griffiths_min_gap(
    cm: CurvatureMatrix,
    n_starts: int = 32,
    max_iter: int = 200,
    seed: int = 0,
) -> float:
    """Best found value of <Theta(y (x) u), y (x) u> over unit rank-one pairs.

    Alternating maximization (top generalized eigenvector in u at fixed y,
    top eigenvector in y at fixed u), multi-started; the result is a lower
    bound on the true rank-one maximum.  The starts run as one stack: each
    step makes one batched eigensolve in u and one in y over the starts that
    are still live, and a start leaves the stack once its value changes by
    at most ``RANK_ONE_STOP_TOL`` (1e-10) relative, or after ``max_iter``
    steps.  The result is the largest value over the starts, NaN starts
    skipped (-inf if none is a number).  ``n_starts`` lies in [8, NODE_BUDGET] and ``seed`` is
    non-negative; start s draws its y then its u from ``default_rng(seed)``.
    """
    if n_starts < 8:
        raise InputError("need at least 8 starts")
    if n_starts > NODE_BUDGET:
        raise BudgetError(f"{n_starts} starts exceed the budget of {NODE_BUDGET}")
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")
    d, n = cm.d, cm.n
    g = cm.g.entries
    # [k, a, j, b] is entry (a, b) of block (j, k), of theta_tilde and of its
    # pencil; the pencil is linear in the block, so the u-step's pencil at any
    # y is the y-contraction of the one computed here.  Both contractions are
    # one matrix product: by (y (x) y) with the pencil as P[(j, k), (a, b)], and
    # by (u (x) u) with theta_tilde as T[(a, b), (j, k)]
    theta4 = cm.theta_tilde.reshape(n, d, n, d)
    _, invroot = cm.g.sqrt_and_invsqrt()
    pencil4 = metric_pencil(invroot, cm.theta_tilde).reshape(n, d, n, d)
    p_mat = pencil4.transpose(2, 0, 1, 3).reshape(n * n, d * d)
    t_mat = theta4.transpose(1, 3, 2, 0).reshape(d * d, n * n)
    # row s is start s's y then its u; the u-step overwrites u before it is read
    y = np.random.default_rng(seed).standard_normal((n_starts, n + d))[:, :n]
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    prev = np.full(n_starts, -np.inf)
    live = np.arange(n_starts)
    for _ in range(max_iter):
        if not live.size:
            break
        yl = y[live]
        # u-step: top generalized eigenpair of (sum y_j y_k block_{j,k}, g)
        yy = (yl[:, :, None] * yl[:, None, :]).reshape(-1, n * n)
        _, w = np.linalg.eigh((yy @ p_mat).reshape(-1, d, d))
        u = w[:, :, -1] @ invroot.T
        # y-step: top eigenpair of the n x n matrix [u^T block_{j,k} u]
        uu = (u[:, :, None] * u[:, None, :]).reshape(-1, d * d)
        b = (uu @ t_mat).reshape(-1, n, n)
        lam_y, w_y = np.linalg.eigh(0.5 * (b + b.swapaxes(1, 2)))
        y[live] = w_y[:, :, -1]
        val = lam_y[:, -1] / ((u @ g) * u).sum(1)
        done = np.abs(val - prev[live]) <= RANK_ONE_STOP_TOL * np.maximum(1.0, np.abs(val))
        prev[live] = val
        live = live[~done]
    return float(np.fmax.reduce(prev, initial=-np.inf))


@dataclass(frozen=True)
class BlockSplit:
    """Coordinate split of the curvature matrix into (0,0), (0,1), (1,1) parts.

    ``theta01_tilde`` maps flattened V0 to the flattened weighted image; the
    action of the mixed operator itself requires a solve against id_n1 (x) g,
    done blockwise with ``g``.
    """

    d: int
    n0: int
    n1: int
    theta00: np.ndarray
    theta01_tilde: np.ndarray
    theta11: np.ndarray
    g: SpdMatrix


def block_split(cm: CurvatureMatrix, n0: int) -> BlockSplit:
    """Split off the first ``n0`` column-blocks of the curvature operator."""
    if not 1 <= n0 < cm.n:
        raise InputError(f"n0 must satisfy 1 <= n0 < {cm.n}")
    d = cm.d
    n1 = cm.n - n0
    cut = n0 * d
    t = cm.theta_tilde
    return BlockSplit(
        d=d,
        n0=n0,
        n1=n1,
        theta00=t[..., :cut, :cut],
        theta01_tilde=t[..., cut:, :cut],
        theta11=t[..., cut:, cut:],
        g=cm.g,
    )


def mixed_block_action(split: BlockSplit, v0: ColumnBlockMatrix) -> ColumnBlockMatrix:
    """Theta_{0,1} V0 = [sum_j theta_{j, n0+k} v_j]_k as a d x n1 block matrix,
    at one point (a stacked split is an InputError)."""
    if split.g.entries.ndim != 2 or v0.d != split.d or v0.n != split.n0:
        raise InputError("V0 must match the split, and the split be of one node, not a stack")
    weighted = (split.theta01_tilde @ v0.flatten()).reshape(split.n1, split.d)
    return ColumnBlockMatrix(np.linalg.solve(split.g.entries, weighted.T).T)


def schur_gap(split: BlockSplit, v0: ColumnBlockMatrix):
    """<-Theta_00 V0, V0> minus the polar Q°_11 at Theta_01 V0, at one point.

    Nonnegative (up to numerics) when the parent field is N-log-concave;
    an infinite polar along a degenerate direction (null directions judged at
    ``DEFAULT_NULL_TOL``) yields -inf.
    """
    mixed = mixed_block_action(split, v0).flatten()
    flat0 = v0.flatten()
    lead = -(flat0 @ split.theta00 @ flat0)
    polar = polar_value(QuadraticFormSpec(split.g, -split.theta11), mixed)
    if polar.is_infinite:
        return ExtendedReal.infinite(-1)
    return ExtendedReal(lead - polar.value)
