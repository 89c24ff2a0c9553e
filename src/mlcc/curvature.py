"""Pointwise curvature operator of a matrix field and log-concavity tests.

The curvature blocks are theta_{j,k} = d_k(g^{-1} d_j g); multiplied by g
they assemble into a symmetric dn x dn matrix whose nonpositivity (in the
block-weighted inner product) is the Nakano log-concavity condition.  The
weaker Griffiths condition tests the same operator on rank-one directions
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

    Indices are 0-based.  Solves against g, never forming its inverse.  On a
    stack of jets, the result is each point's block, with the stack's lead axes.
    """
    n = jet.n
    if not (0 <= j < n and 0 <= k < n):
        raise InputError(f"block index ({j}, {k}) out of range for n={n}")
    return np.linalg.solve(jet.value.entries, jet.d2[..., k, j, :, :]
                           - jet.d1[..., k, :, :] @ jet._log_d1[..., j, :, :])


@dataclass(frozen=True)
class CurvatureMatrix:
    """The curvature operator at a point, as a dn x dn symmetric matrix.

    Index (j, l) of the flattened space is j*d + l for column j and
    coordinate l (0-based).  The metric id_n (x) g is carried as ``g``.
    ``asymmetry`` records the pre-symmetrization asymmetry norm.  Built from
    a stack of jets, ``theta_tilde``, ``g``, ``asymmetry`` and ``pencil`` carry
    a leading node axis.
    """

    d: int
    n: int
    theta_tilde: np.ndarray
    g: SpdMatrix
    asymmetry: float

    @property
    def dim(self) -> int:
        return self.d * self.n

    @cached_property
    def pencil(self) -> np.ndarray:
        """The pencil P = (id_n (x) g)^{-1/2} theta_tilde (id_n (x) g)^{-1/2}, whose
        eigenvalues are the generalized ones of (theta_tilde, id_n (x) g).

        Formed by ``metric_pencil`` from g^{-1/2} on first read, once per curvature,
        and returned read-only; every verdict reads this one.
        """
        pencil = metric_pencil(self.g.sqrt_and_invsqrt()[1], self.theta_tilde)
        pencil.setflags(write=False)
        return pencil

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
    # [..., k, j] = d2_{kj} - (d_k g) g^{-1} (d_j g): row-block k, column-block j
    blocks = jet.d2 - jet.d1[..., :, None, :, :] @ jet._log_d1[..., None, :, :, :]
    raw = blocks.swapaxes(-3, -2).reshape(jet.d1.shape[:-3] + (n * d, n * d))
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
    """All generalized eigenvalues of (theta_tilde, id_n (x) g), ascending: the
    spectrum of ``cm.pencil``."""
    return np.linalg.eigvalsh(cm.pencil)


def griffiths_min_gap(
    cm: CurvatureMatrix,
    n_starts: int = 32,
    max_iter: int = 200,
    seed: int = 0,
) -> float:
    """Largest found value of <Theta(y (x) u), y (x) u> over unit rank-one pairs.

    When n = d = 2 the value is the rank-one maximum in closed form (``_circle_max``), up
    to rounding of the pencil's size (about eps * max|P|, not eps * |value|): every
    stationary angle of the one-angle function that the maximization over u leaves is a
    root of one polynomial of degree 8, and the value is the largest at those angles, each
    refined by one Newton step.  When min(n, d) = 1 every vector is rank-one, so the value
    is Nakano's lambda_max, the top generalized eigenvalue (as ``generalized_spectrum``
    gives it).  On both shapes ``n_starts``, ``max_iter`` and ``seed`` are checked but not
    used, and no random number is drawn.  On every shape, a pencil with an entry that is
    not finite gives -inf, as for a search whose starts are all NaN, with no eigensolve and
    no random number (LAPACK fails to converge on a 3 x 3 NaN matrix).

    Every other shape runs an alternating maximization (top generalized eigenvector in u
    at fixed y, top eigenvector in y at fixed u), multi-started.  The starts run as one
    stack: each step makes one batched eigensolve in u and one in y for the starts that
    are still live, and a start leaves the stack once its value changes by at most
    ``RANK_ONE_STOP_TOL`` (1e-10) relative, or after ``max_iter`` steps.  The result is
    the largest value over the starts, NaN starts skipped (-inf if none is a number); it
    is a lower bound on the rank-one maximum only up to the rounding of g^{-1/2} and of
    the pencil, which can leave it a few units in the last place above the maximum.
    Start s draws its y then its u from ``default_rng(seed)``.

    ``n_starts`` is an integer in [8, NODE_BUDGET], ``max_iter`` a positive integer and
    ``seed`` a non-negative integer (a bool is none of them), on every shape.
    """
    if not _is_integer(n_starts):
        raise InputError(f"n_starts must be an integer, got {n_starts!r}")
    if n_starts < 8:
        raise InputError("need at least 8 starts")
    if n_starts > NODE_BUDGET:
        raise BudgetError(f"{n_starts} starts exceed the budget of {NODE_BUDGET}")
    if not _is_integer(max_iter) or max_iter < 1:
        raise InputError(f"max_iter must be a positive integer, got {max_iter!r}")
    if not _is_integer(seed) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    d, n, pencil = cm.d, cm.n, cm.pencil
    if not np.isfinite(pencil).all():
        return -np.inf
    if min(n, d) == 1:
        return float(generalized_spectrum(cm)[-1])
    # theta_tilde and its pencil, shaped (n, d, n, d), hold entry (a, b) of block
    # (j, k) at [k, a, j, b]; row (j, k) of P is the pencil of block (j, k), and as
    # the pencil is linear in the block, the u-step's pencil at y is (y (x) y) P
    p_mat = pencil.reshape(n, d, n, d)
    p_mat = p_mat.transpose(2, 0, 1, 3).reshape(n * n, d * d)
    if n == d == 2:
        return _circle_max(p_mat)
    # row s is start s's y then its u, which the first u-step replaces unread
    y = np.random.default_rng(seed).standard_normal((n_starts, n + d))[:, :n]
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    prev = np.full(n_starts, -np.inf)
    live = np.arange(n_starts)
    for _ in range(max_iter):
        if not live.size:
            break
        # the u-step's matrix is (y (x) y) P, with top unit eigenvector w = g^{1/2} u, and
        # the y-step's is [w^T P_{jk} w] = (w (x) w) P^T, whose top eigenvalue is the value
        yy = (y[:, :, None] * y[:, None, :]).reshape(-1, n * n)
        w = np.linalg.eigh((yy @ p_mat).reshape(-1, d, d))[1][:, :, -1]
        ww = (w[:, :, None] * w[:, None, :]).reshape(-1, d * d)
        b = (ww @ p_mat.T).reshape(-1, n, n)
        lam_y, w_y = np.linalg.eigh(0.5 * (b + b.swapaxes(1, 2)))
        val = lam_y[:, -1]
        done = np.abs(val - prev[live]) <= RANK_ONE_STOP_TOL * np.maximum(1.0, np.abs(val))
        prev[live] = val
        live, y = live[~done], w_y[~done, :, -1]
    return float(np.fmax.reduce(prev, initial=-np.inf))


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer other than a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


#: Rows: the coefficients of 1, cos 2t and sin 2t in (cos t, sin t) m (cos t, sin t)^T,
#: for m a 2 x 2 matrix flattened as (m00, m01, m10, m11).
_HALF_ANGLE = 0.5 * np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0]])

#: Share of the largest coefficient below which an end coefficient of ``_circle_max``'s
#: polynomial is rounding of zero.
_EPS = np.finfo(float).eps

#: Rows: the quadratics in t = tan(theta / 2), of t^2 first, of (1 + t^2) e and
#: (1 + t^2) e' for e = (1, cos theta, sin theta) and e' = (0, -sin theta, cos theta).
_E = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
_DE = np.array([[0.0, 0.0, 0.0], [0.0, -2.0, 0.0], [-1.0, 0.0, 1.0]])


def _circle_rows(theta: np.ndarray, k: np.ndarray):
    """e K and e' K at each angle of ``theta``."""
    cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
    return k[0] + cos * k[1] + sin * k[2], cos * k[2] - sin * k[1]


def _circle_poly(k: np.ndarray) -> np.ndarray:
    """The coefficients, of t^8 first, of (1 + t^2)^4 T(2 arctan t) (``_circle_max``): the
    rows of K^T ``_E`` and K^T ``_DE`` are the quadratics of (1 + t^2) times e K and e' K."""
    a, da = k.T @ _E, k.T @ _DE
    dot = np.convolve(a[1], da[1]) + np.convolve(a[2], da[2])
    sq = np.convolve(a[1], a[1]) + np.convolve(a[2], a[2])
    return np.convolve(np.convolve(da[0], da[0]), sq) - np.convolve(dot, dot)


def _circle_max(p_mat: np.ndarray) -> float:
    """The rank-one maximum when n = d = 2, from its stationary angles.

    With e(t) = (1, cos 2t, sin 2t), the pencil's form at y = (cos phi, sin phi) and
    w = g^{1/2} u = (cos psi, sin psi) is e(phi)^T K e(psi), K = H P H^T for P the
    pencil as P[(j, k), (a, b)] (``p_mat``) and H the rows of ``_HALF_ANGLE``.  As
    h0 id + [[h1, h2], [h2, -h1]] has the top eigenvalue h0 + hypot(h1, h2), the maximum
    over psi is F(theta) = (e K)_0 + |c|, with theta = 2 phi, e = e(phi), c = (e K)_{1:}.
    |c| has no maximum at a kink, so F's maximum is where F' = (e' K)_0 + c.c'/|c| = 0,
    with e' = de/dtheta and c' = (e' K)_{1:}.  Those angles are roots of the degree-4
    trigonometric polynomial T = (e' K)_0^2 |c|^2 - (c.c')^2, and so of the degree-8
    polynomial (1 + t^2)^4 T in t = tan(theta / 2) (``_circle_poly``), whose companion
    matrix gives them all, with the spurious roots that the squaring adds.  Its
    coefficients at either end below eps of the largest are rounding of zero, and are
    dropped with their roots near t = 0 and t = infinity, so theta = 0 and pi are
    candidates too.  So are the angles of +-K_{1:,0}, which hold the maximum where T
    vanishes identically (c = 0 at every angle, or F' = 2 (e' K)_0 on an arc).

    Where c nearly vanishes close to the maximum, T is flat there and its roots can be
    off by 1e-7, which costs F a few 1e-14.  So each candidate also takes one Newton step
    on F' where F'' < 0: F'' = K_00 - (e K)_0 + (c x c')^2 / |c|^3 + c.K_{0,1:} / |c| - |c|,
    as e'' = (1, 0, 0) - e.  Every candidate and every step is an attained value, so the
    largest, NaN skipped (-inf if none is a number), is the maximum up to rounding.
    F cancels terms of the size of K, so that rounding is about eps * max|P|, not
    eps * |value|: a pencil with max|K| ~ 1e6 and maximum ~ -619 misses it by up to 1.2e-10.
    """
    k = _HALF_ANGLE @ p_mat @ _HALF_ANGLE.T
    coef = _circle_poly(k)
    size = np.abs(coef)
    keep = np.flatnonzero(size > _EPS * size.max())
    phi = np.arctan2(k[2, 0], k[1, 0])
    theta = np.array([0.0, np.pi, phi, phi + np.pi])
    if keep.size > 1:
        poly = coef[keep[0]:keep[-1] + 1]
        companion = np.eye(len(poly) - 1, k=-1)
        companion[0] = -poly[1:] / poly[0]
        theta = np.concatenate([theta, 2.0 * np.arctan(np.linalg.eigvals(companion).real)])
    ek, dek = _circle_rows(theta, k)
    c, dc = ek[:, 1:], dek[:, 1:]
    r = np.hypot(c[:, 0], c[:, 1])
    inv = 1.0 / (r + (r == 0.0))  # where c = 0, F' and F'' are those of (e K)_0
    f1 = dek[:, 0] + (c * dc).sum(axis=1) * inv
    q = (c[:, 0] * dc[:, 1] - c[:, 1] * dc[:, 0]) * inv
    f2 = k[0, 0] - ek[:, 0] + (q * q + c @ k[0, 1:]) * inv - r
    turn = np.divide(f1, -f2, out=np.zeros_like(f1), where=f2 < 0.0)
    step, _ = _circle_rows(theta + turn, k)
    f = np.concatenate([ek[:, 0] + r, step[:, 0] + np.hypot(step[:, 1], step[:, 2])])
    return float(np.fmax.reduce(f, initial=-np.inf))


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
