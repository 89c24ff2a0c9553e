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
    top eigenvector in y at fixed u), multi-started.  The starts run as one
    stack: each step moves the starts that are still live, and a start leaves
    the stack once its value changes by at most ``RANK_ONE_STOP_TOL`` (1e-10)
    relative, or after ``max_iter`` steps.  When n = d = 2 both half-steps run
    on the circle, in half angles, with no eigensolve (``_circle_steps``), and
    from the second step on each step also takes a safeguarded Newton step on
    the one-angle function that the u-step leaves; the result is then the
    rank-one maximum up to rounding, unless no start reaches the basin of the
    global maximum (that function can have two local maxima).  Every other
    shape makes one batched eigensolve in u and one in y per step
    (``_eigh_steps``), and its result is a lower bound on the rank-one maximum
    only up to the rounding of g^{-1/2} and of the pencil, which can leave it
    a few units in the last place above the maximum.  The result is the largest value over the starts, NaN
    starts skipped (-inf if none is a number).  ``n_starts`` lies in [8, NODE_BUDGET] and ``seed`` is
    non-negative; start s draws its y then its u from ``default_rng(seed)``.
    """
    if n_starts < 8:
        raise InputError("need at least 8 starts")
    if n_starts > NODE_BUDGET:
        raise BudgetError(f"{n_starts} starts exceed the budget of {NODE_BUDGET}")
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")
    d, n = cm.d, cm.n
    _, invroot = cm.g.sqrt_and_invsqrt()
    # theta_tilde and its pencil, shaped (n, d, n, d), hold entry (a, b) of block
    # (j, k) at [k, a, j, b]; row (j, k) of P is the pencil of block (j, k), and as
    # the pencil is linear in the block, the u-step's pencil at y is (y (x) y) P
    p_mat = metric_pencil(invroot, cm.theta_tilde).reshape(n, d, n, d)
    p_mat = p_mat.transpose(2, 0, 1, 3).reshape(n * n, d * d)
    # row s is start s's y then its u, which the first u-step replaces unread
    y = np.random.default_rng(seed).standard_normal((n_starts, n + d))[:, :n]
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    step = (_circle_steps if n == d == 2 else _eigh_steps)(p_mat, y)
    prev = np.full(n_starts, -np.inf)
    live = np.arange(n_starts)
    for _ in range(max_iter):
        if not live.size:
            break
        val = step(live)
        done = np.abs(val - prev[live]) <= RANK_ONE_STOP_TOL * np.maximum(1.0, np.abs(val))
        prev[live] = val
        live = live[~done]
    return float(np.fmax.reduce(prev, initial=-np.inf))


def _eigh_steps(p_mat: np.ndarray, y: np.ndarray):
    """The search's step for any shape: ``step(live)`` moves the starts ``live`` of the
    unit rows ``y`` (updated in place) by one batched eigensolve in u and one in y, and
    returns their values.  Both read the pencil P[(j, k), (a, b)] (``p_mat``) alone: the
    u-step's matrix is (y (x) y) P, with top unit eigenvector w = g^{1/2} u, and the
    y-step's is [w^T P_{jk} w] = (w (x) w) P^T, whose top eigenvalue is the value."""
    n, d = y.shape[1], round(p_mat.shape[1] ** 0.5)

    def step(live):
        yl = y[live]
        yy = (yl[:, :, None] * yl[:, None, :]).reshape(-1, n * n)
        w = np.linalg.eigh((yy @ p_mat).reshape(-1, d, d))[1][:, :, -1]
        ww = (w[:, :, None] * w[:, None, :]).reshape(-1, d * d)
        b = (ww @ p_mat.T).reshape(-1, n, n)
        lam_y, w_y = np.linalg.eigh(0.5 * (b + b.swapaxes(1, 2)))
        y[live] = w_y[:, :, -1]
        return lam_y[:, -1]

    return step


#: Rows: the coefficients of 1, cos 2t and sin 2t in (cos t, sin t) m (cos t, sin t)^T,
#: for m a 2 x 2 matrix flattened as (m00, m01, m10, m11).
_HALF_ANGLE = 0.5 * np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0]])


def _unit(v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The rows of ``v`` over their lengths ``r``; (1, 0) where r is 0."""
    zero = r == 0.0
    out = v / (r + zero)[:, None]
    out[:, 0] += zero
    return out


#: Largest turn of theta = 2 phi in a Newton step on the circle; where F'' >= 0 the step
#: turns this far uphill.
_MAX_TURN = np.pi / 4

#: Keeps that step's denominator positive where F' = 0 and F'' >= 0.
_TINY = np.finfo(float).tiny


def _circle_steps(p_mat: np.ndarray, y: np.ndarray):
    """The search's step when n = d = 2, in half angles: ``step(live)`` moves the starts
    ``live`` and returns their values, with no eigensolve.

    With e(t) = (1, cos 2t, sin 2t), the pencil's form at y = (cos phi, sin phi) and
    w = g^{1/2} u = (cos psi, sin psi) is e(phi)^T K e(psi), K = H P H^T for P the
    pencil as P[(j, k), (a, b)] (``p_mat``) and H the rows of ``_HALF_ANGLE``.  A symmetric
    2 x 2 matrix h0 id + [[h1, h2], [h2, -h1]] has the top eigenvalue
    h0 + hypot(h1, h2) at (cos t, sin t) with (cos 2t, sin 2t) = (h1, h2) / hypot(h1, h2).
    So the u-step reads (h1, h2) from e(phi)^T K, and the y-step (h0, h1, h2) from
    K e(psi), whose top eigenvalue is the start's value (|w| = 1, so u^T g u = 1): a plain
    step maps (cos 2phi, sin 2phi) to (cos 2psi, sin 2psi) to the next (cos 2phi, sin 2phi).
    A step matrix that is a multiple of the identity takes the direction (1, 0).  The
    unit rows ``y`` are read once, for the starts' (cos 2phi, sin 2phi).

    The first step is plain.  As the u-step maximizes over psi exactly, the search
    maximizes F(theta) = (e K)_0 + |c| over theta = 2 phi, with c = (e K)_{1:} and e
    = e(phi).  Each later step takes the plain successor and a Newton step on F from the
    start's point, and keeps whichever has the larger F, which is the step's value.  The
    Newton step turns by -F'/F'', at most ``_MAX_TURN``; where F'' >= 0 it turns by
    ``_MAX_TURN`` uphill.  F' and F'' are closed forms in the u-step's c and |c| and in
    e' K, for e' = (0, -sin theta, cos theta), as e'' = (1, 0, 0) - e; so each start keeps
    (cos theta, sin theta), e K and e' K at its point from step to step.  Where |c| = 0,
    u follows ``_unit``'s rule.
    """
    k = _HALF_ANGLE @ p_mat @ _HALF_ANGLE.T
    k_u, k0_u, k_y, k0_y = k[1:, 1:].copy(), k[0, 1:].copy(), k[:, 1:].T.copy(), k[:, 0].copy()
    # (cos theta, sin theta) @ k_t + k0_t is a start's row: as complex pairs, cos theta +
    # i sin theta, c, c' = (e' K)_{1:} and (e K)_0 + i (e' K)_0
    k1, dk1 = k[1:], np.stack([k[2], -k[1]])
    k_t = np.concatenate([np.eye(2), k1[:, 1:], dk1[:, 1:], k1[:, :1], dk1[:, :1]], axis=1)
    k0_t = np.concatenate([np.zeros(2), k[0, 1:], np.zeros(2), k[0, :1], np.zeros(1)])
    cs = np.stack([y[:, 0] * y[:, 0] - y[:, 1] * y[:, 1], 2.0 * y[:, 0] * y[:, 1]], axis=1)
    rows = np.empty((len(cs), 8))
    plain = True

    def step(live):
        nonlocal plain
        if plain:
            plain = False
            h = cs[live] @ k_u + k0_u
            h = _unit(h, np.hypot(h[:, 0], h[:, 1])) @ k_y + k0_y
            r = np.hypot(h[:, 1], h[:, 2])
            rows[live] = _unit(h[:, 1:], r) @ k_t + k0_t
            return h[:, 0] + r
        a, c, dc, e = rows[live].view(complex).T
        r = np.abs(c)
        zero = r == 0.0
        inv = 1.0 / (r + zero)
        u = c * inv + zero  # _unit's rule in complex, without a complex division (NaN warns)
        h = u.view(float).reshape(-1, 2) @ k_y + k0_y
        # conj(u) c' = u.c' + i (u x c'); so F' = (e' K)_0 + u.c' and, as h_0 = K_00 +
        # u.K_{0,1:}, F'' = (u x c')^2 / |c| + h_0 - |c| - (e K)_0
        t = u.conj() * dc
        f1 = e.imag + t.real
        f2 = t.imag * t.imag * inv + (h[:, 0] - r) - e.real
        # -F'/F'' where F'' < 0 and the turn is at most _MAX_TURN, else _MAX_TURN uphill
        turn = f1 / np.maximum(-f2, np.abs(f1) / _MAX_TURN + _TINY)
        g = h[:, 1:].view(complex)[:, 0]
        r = np.abs(g)
        zero = r == 0.0
        # the plain successor over the Newton point, as cos theta + i sin theta
        both = np.concatenate([g * (1.0 / (r + zero)) + zero, a * np.exp(1j * turn)])
        both = both.view(float).reshape(-1, 2) @ k_t + k0_t
        f = both[:, 6] + np.hypot(both[:, 2], both[:, 3])
        m = len(live)
        newton = f[m:] > f[:m]
        np.copyto(both[:m], both[m:], where=newton[:, None])
        np.copyto(f[:m], f[m:], where=newton)
        rows[live] = both[:m]
        return f[:m]

    return step


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
