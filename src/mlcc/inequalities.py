"""Executable certifications: variance inequality, Bochner identities, marginals.

Each check compares two independent computation routes and returns a
structured :class:`CheckReport`.  The headline anti-bug oracle is the
two-route computation of the marginal's curvature: finite differences on the
quadrature marginal versus the curvature-plus-variance decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .curvature import (
    CurvatureMatrix,
    block_split,
    curvature_from_jet,
    curvature_matrix,
    generalized_spectrum,
    nakano_verdict,
    schur_gap,
)
from .errors import InputError
from .fields import Jet2, MatrixField, central_differences, restrict_field
from .metric import ColumnBlockMatrix, ExtendedReal, SpdMatrix, metric_pencil
from .quadrature import (
    DirichletEvaluator,
    QuadratureRule,
    VectorFieldFn,
    integrate_field,
    pairwise_sum,
    variance_functional,
)

ROUTE_TOL = 1e-4


@dataclass
class CheckReport:
    """Outcome of one certification check."""

    name: str
    status: str  # pass | fail | degenerate
    metrics: dict = dc_field(default_factory=dict)
    tolerances: dict = dc_field(default_factory=dict)
    settings: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def bl_gap(
    field: MatrixField,
    f: VectorFieldFn,
    rule: QuadratureRule,
    rel_null_tol: float = 1e-10,
    tol_gap: float | None = None,
    evaluator: DirichletEvaluator | None = None,
) -> CheckReport:
    """Brascamp-Lieb check: weighted variance of F against the Dirichlet energy.

    ``evaluator`` (built on the same field and rule) saves rebuilding the
    curvature; ``rel_null_tol`` applies either way.
    """
    lhs = variance_functional(field, f, rule)
    if evaluator is None:
        evaluator = DirichletEvaluator(field, rule)
    rhs = evaluator.energy(f, rel_null_tol)
    settings = {"rule": rule.kind, "nodes": rule.count}
    if rhs.is_infinite:
        return CheckReport(
            name="bl_gap",
            status="degenerate",
            metrics={"lhs": lhs, "rhs": rhs.value, "gap": float("inf")},
            tolerances={"tol_gap": tol_gap if tol_gap is not None else 1e-6,
                        "rel_null_tol": rel_null_tol},
            settings=settings,
        )
    gap = rhs.value - lhs
    tol = tol_gap if tol_gap is not None else 1e-6 * max(1.0, rhs.value)
    return CheckReport(
        name="bl_gap",
        status="pass" if gap >= -tol else "fail",
        metrics={"lhs": lhs, "rhs": rhs.value, "gap": gap},
        tolerances={"tol_gap": tol, "rel_null_tol": rel_null_tol},
        settings=settings,
    )


def weighted_laplacian(field: MatrixField, f: VectorFieldFn, x) -> np.ndarray:
    """L F = Delta F + sum_k (g^{-1} d_k g) d_k F at the point ``x``, or at
    each point of a stack (result (N, d)).

    The first-order term carries the plus sign: with g = e^{-phi} this is
    the classical operator Delta - grad phi . grad, and it is the sign that
    makes the integration-by-parts identity hold (see ipp_residual).
    """
    x = np.asarray(x, dtype=float)
    jet = field.jet(x)
    log_d = np.linalg.solve(jet.value.entries[..., None, :, :], jet.d1)  # g^{-1} d_k g
    first = np.einsum("...kab,...bk->...a", log_d, f.grad(x))
    return np.einsum("...ljj->...l", f.hess(x)) + first


def _node_form(u, g, v) -> np.ndarray:
    """u_i . g_i v_i at every node i of stacks u, v (N, d) and g (N, d, d)."""
    return (u[:, None, :] @ g @ v[:, :, None])[:, 0, 0]


def ipp_residual(
    field: MatrixField,
    f: VectorFieldFn,
    g_fn: VectorFieldFn,
    rule: QuadratureRule,
    tol_res: float = 1e-6,
) -> CheckReport:
    """Integration by parts: int <LF, G>_g = -int <grad F, grad G>_{id (x) g}."""
    x, w = rule.nodes, rule.weights
    gv = field.value(x)
    lhs = float(pairwise_sum(w * _node_form(weighted_laplacian(field, f, x), gv, g_fn.value(x))))
    grad_pair = np.einsum("nlk,nlm,nmk->n", f.grad(x), gv, g_fn.grad(x))
    rhs = float(pairwise_sum(-w * grad_pair))
    residual = abs(lhs - rhs)
    tol = tol_res * max(1.0, abs(lhs), abs(rhs))
    return CheckReport(
        name="ipp_residual",
        status="pass" if residual <= tol else "fail",
        metrics={"lhs": lhs, "rhs": rhs, "residual": residual},
        tolerances={"tol_res": tol},
        settings={"rule": rule.kind, "nodes": rule.count},
    )


def bochner_residual(
    field: MatrixField,
    psi: VectorFieldFn,
    rule: QuadratureRule,
    tol_res: float = 1e-6,
) -> CheckReport:
    """Bochner identity: int ||L Psi||_g^2 equals curvature plus Hessian terms."""
    x, w = rule.nodes, rule.weights
    cm = curvature_matrix(field, x)
    gv = cm.g.entries
    lf = weighted_laplacian(field, psi, x)
    v = psi.grad(x).swapaxes(-1, -2).reshape(rule.count, -1)  # flatten (j, l) -> j*d + l
    h = psi.hess(x)  # (N, d, n, n)
    lhs = float(pairwise_sum(w * _node_form(lf, gv, lf)))
    term_curv = float(pairwise_sum(-w * _node_form(v, cm.theta_tilde, v)))
    term_hess = float(pairwise_sum(w * np.einsum("nljk,nlm,nmjk->n", h, gv, h)))
    residual = abs(lhs - term_curv - term_hess)
    tol = tol_res * max(1.0, abs(lhs), abs(term_curv) + abs(term_hess))
    return CheckReport(
        name="bochner_residual",
        status="pass" if residual <= tol else "fail",
        metrics={
            "lhs": lhs,
            "term_curv": term_curv,
            "term_hess": term_hess,
            "residual": residual,
        },
        tolerances={"tol_res": tol},
        settings={"rule": rule.kind, "nodes": rule.count},
    )


def _marginal_jet(field: MatrixField, t, rule: QuadratureRule, h: float,
                  richardson: bool = True) -> Jet2:
    """2-jet of alpha(t) = int g(t, y) dy by central differences in t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))

    def alpha(ts):
        return np.stack([integrate_field(restrict_field(field, tt), rule).entries for tt in ts])

    a0, d1, d2 = central_differences(alpha, t, h, richardson)
    return Jet2(value=SpdMatrix(a0), d1=d1, d2=d2)


def marginal_theta_fd(
    field: MatrixField, t, rule: QuadratureRule, h: float = 1e-3,
    richardson: bool = True,
) -> CurvatureMatrix:
    """Route A: curvature of the marginal by differentiating the integral."""
    return curvature_from_jet(_marginal_jet(field, t, rule, h, richardson))


def theta_alpha_decomposed(
    field: MatrixField, t, rule: QuadratureRule
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route B for Theta^alpha: (total, fiber term, variance term) as d*n0 x d*n0
    matrices in the flat index j*d + l, so <Theta^alpha V0, V0> = v @ total @ v
    for v = V0.flatten().  The fiber term is int theta_00; the variance term is
    the weighted covariance of V0 -> F = g^{-1} D v, D = [d_{t_1} g | ... | d_{t_n0} g]:
    int D^T g^{-1} D - (int D)^T (int g)^{-1} (int D).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n0, d = t.shape[0], field.d
    if rule.m != field.n - n0:
        raise InputError("rule dimension must equal the number of integrated variables")
    w = rule.weights[:, None, None]
    jet = field.jet(_fiber_nodes(t, rule))
    g = jet.value.entries
    # D = [d_{t_1} g | ... | d_{t_n0} g] at every node, (N, d, n0 * d)
    dmat = jet.d1[:, :n0].swapaxes(1, 2).reshape(rule.count, d, n0 * d)
    term_curv00 = pairwise_sum(w * block_split(curvature_from_jet(jet), n0).theta00)
    mean_d = pairwise_sum(w * dmat)
    z = pairwise_sum(w * g)
    sq = pairwise_sum(w * (dmat.swapaxes(1, 2) @ np.linalg.solve(g, dmat)))
    term_var = sq - mean_d.T @ np.linalg.solve(z, mean_d)
    return term_curv00 + term_var, term_curv00, term_var


def _schur_margin(cm: CurvatureMatrix, n0: int) -> float:
    """Smallest generalized eigenvalue of (S, id_n0 (x) g) at one fiber node,
    or the smallest over a stack of them.

    S is the matrix of the quadratic form V0 -> schur_gap(split, V0), taken by
    polarization from the gaps along each e_i and e_i + e_j (i < j), each one
    call for the whole stack; -inf when one of them is infinite at some node
    (a null direction of Theta_11).
    """
    split = block_split(cm, n0)
    dim = split.d * n0
    basis = np.eye(dim)
    gaps = np.empty(cm.theta_tilde.shape[:-2] + (dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            v = basis[i] if i == j else basis[i] + basis[j]
            gap = schur_gap(split, ColumnBlockMatrix.from_flat(v, split.d))
            gaps[..., i, j] = gaps[..., j, i] = gap.value if isinstance(gap, ExtendedReal) else gap
    if np.isinf(gaps).any():
        return -np.inf
    diag = np.diagonal(gaps, axis1=-2, axis2=-1)[..., None, :]
    s = np.where(np.eye(dim, dtype=bool), gaps, 0.5 * (gaps - diag.swapaxes(-1, -2) - diag))
    _, invroot = cm.g.sqrt_and_invsqrt()
    return float(np.linalg.eigvalsh(metric_pencil(invroot, s))[..., 0].min())


def _fiber_nodes(t: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """The points (t, y_i) over the rule's nodes y_i, as an (N, n0 + m) stack."""
    return np.concatenate([np.broadcast_to(t, (rule.count, t.shape[0])), rule.nodes], axis=1)


def prekopa_check(
    field: MatrixField,
    t,
    n0: int,
    rule: QuadratureRule,
    h: float = 1e-3,
    tol_psd: float = 1e-8,
    tol_route: float = ROUTE_TOL,
) -> CheckReport:
    """Certify that the marginal of ``field`` over the last variables is
    N-log-concave at ``t``, with two-route agreement on the quadratic form.

    The hypothesis gate requires N-log-concavity of the field at every fiber
    node (t, y_i); if it fails, the report is degenerate and
    ``lambda_max_nodes`` is the largest curvature eigenvalue at the first node
    above ``tol_psd``.  ``route_diff`` is d*n0 times the spectral norm of the
    difference of the two routes' matrices, which bounds
    |v (A - B) v| / (1 + |v B v|) over the box [-1, 1]^{d*n0}.
    ``schur_margin`` is the smallest generalized eigenvalue of (Schur form,
    id_n0 (x) g) over the fiber nodes before the first gate failure (all of
    them on a passing gate), -inf (and the status degenerate) when the form
    is infinite along some direction.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape[0] != n0 or not 1 <= n0 < field.n:
        raise InputError("t must have length n0 with 1 <= n0 < n")
    settings = {"rule": rule.kind, "nodes": rule.count, "h": h}
    cm = curvature_matrix(field, _fiber_nodes(t, rule))
    lambda_max = generalized_spectrum(cm)[:, -1]
    above = np.flatnonzero(lambda_max > tol_psd)
    if above.size:
        first = int(above[0])
        if first:
            # the margin goes unreported, but an indefinite -Theta_11 at a node
            # before the first failure still raises NotPsdError
            _schur_margin(CurvatureMatrix(cm.d, cm.n, cm.theta_tilde[:first],
                                          SpdMatrix(cm.g.entries[:first]),
                                          cm.asymmetry[:first]), n0)
        return CheckReport(
            name="prekopa_check",
            status="degenerate",
            metrics={"lambda_max_nodes": float(lambda_max[first])},
            tolerances={"tol_psd": tol_psd},
            settings=settings,
        )
    schur_margin = _schur_margin(cm, n0)
    cm_alpha = marginal_theta_fd(field, t, rule, h)
    lambda_max_alpha = nakano_verdict(cm_alpha).lambda_max
    total, _, _ = theta_alpha_decomposed(field, t, rule)
    route_diff = field.d * n0 * float(np.linalg.norm(cm_alpha.theta_tilde - total, 2))
    ok = lambda_max_alpha <= tol_psd and route_diff <= tol_route
    status = "degenerate" if schur_margin == -np.inf else ("pass" if ok else "fail")
    return CheckReport(
        name="prekopa_check",
        status=status,
        metrics={
            "lambda_max_alpha": lambda_max_alpha,
            "route_diff": route_diff,
            "schur_margin": schur_margin,
        },
        tolerances={"tol_psd": tol_psd, "tol_route": tol_route},
        settings=settings,
    )
