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
    nakano_verdict,
    schur_gap,
)
from .errors import InputError
from .fields import Jet2, MatrixField, central_differences, restrict_field
from .metric import ColumnBlockMatrix, SpdMatrix, metric_pencil
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
    """Brascamp-Lieb check: weighted variance of F against the Dirichlet energy."""
    lhs = variance_functional(field, f, rule)
    if evaluator is None:
        evaluator = DirichletEvaluator(field, rule, rel_null_tol)
    rhs = evaluator.energy(f)
    if rhs.is_infinite:
        return CheckReport(
            name="bl_gap",
            status="degenerate",
            metrics={"lhs": lhs, "rhs": rhs.value, "gap": float("inf")},
            tolerances={"tol_gap": tol_gap if tol_gap is not None else 1e-6},
            settings={"rule": rule.kind, "nodes": rule.count},
        )
    gap = rhs.value - lhs
    tol = tol_gap if tol_gap is not None else 1e-6 * max(1.0, rhs.value)
    return CheckReport(
        name="bl_gap",
        status="pass" if gap >= -tol else "fail",
        metrics={"lhs": lhs, "rhs": rhs.value, "gap": gap},
        tolerances={"tol_gap": tol},
        settings={"rule": rule.kind, "nodes": rule.count},
    )


def weighted_laplacian(field: MatrixField, f: VectorFieldFn, x) -> np.ndarray:
    """L F = Delta F + sum_k (g^{-1} d_k g) d_k F at the point ``x``.

    The first-order term carries the plus sign: with g = e^{-phi} this is
    the classical operator Delta - grad phi . grad, and it is the sign that
    makes the integration-by-parts identity hold (see ipp_residual).
    """
    jet = field.jet(np.asarray(x, dtype=float))
    g = jet.value.entries
    grad = f.grad(x)  # (d, n)
    lap = np.einsum("ljj->l", f.hess(x))
    first = np.zeros(field.d)
    for k in range(field.n):
        first += np.linalg.solve(g, jet.d1[k]) @ grad[:, k]
    return lap + first


def ipp_residual(
    field: MatrixField,
    f: VectorFieldFn,
    g_fn: VectorFieldFn,
    rule: QuadratureRule,
    tol_res: float = 1e-6,
) -> CheckReport:
    """Integration by parts: int <LF, G>_g = -int <grad F, grad G>_{id (x) g}."""
    lhs_terms = []
    rhs_terms = []
    for w, x in zip(rule.weights, rule.nodes):
        gv = field.value(x)
        lf = weighted_laplacian(field, f, x)
        lhs_terms.append(w * float(lf @ gv @ g_fn.value(x)))
        gf = f.grad(x)
        gg = g_fn.grad(x)
        rhs_terms.append(-w * float(np.einsum("lk,lm,mk->", gf, gv, gg)))
    lhs = float(pairwise_sum(lhs_terms))
    rhs = float(pairwise_sum(rhs_terms))
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
    lhs_terms = []
    curv_terms = []
    hess_terms = []
    for w, x in zip(rule.weights, rule.nodes):
        cm = curvature_matrix(field, x)
        gv = cm.g.entries
        lf = weighted_laplacian(field, psi, x)
        lhs_terms.append(w * float(lf @ gv @ lf))
        v = psi.grad(x).T.reshape(-1)
        curv_terms.append(-w * float(v @ cm.theta_tilde @ v))
        h = psi.hess(x)  # (d, n, n)
        hess_terms.append(w * float(np.einsum("ljk,lm,mjk->", h, gv, h)))
    lhs = float(pairwise_sum(lhs_terms))
    term_curv = float(pairwise_sum(curv_terms))
    term_hess = float(pairwise_sum(hess_terms))
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

    def alpha(tt):
        return integrate_field(restrict_field(field, tt), rule).entries

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
    curv_terms, sq_terms, d_terms, z_terms = [], [], [], []
    for w, y in zip(rule.weights, rule.nodes):
        jet = field.jet(np.concatenate([t, y]))
        g = jet.value.entries
        dmat = jet.d1[:n0].transpose(1, 0, 2).reshape(d, n0 * d)
        curv_terms.append(w * block_split(curvature_from_jet(jet), n0).theta00)
        sq_terms.append(w * (dmat.T @ np.linalg.solve(g, dmat)))
        d_terms.append(w * dmat)
        z_terms.append(w * g)
    term_curv00 = pairwise_sum(curv_terms)
    mean_d = pairwise_sum(d_terms)
    z = pairwise_sum(z_terms)
    term_var = pairwise_sum(sq_terms) - mean_d.T @ np.linalg.solve(z, mean_d)
    return term_curv00 + term_var, term_curv00, term_var


def _schur_margin(cm: CurvatureMatrix, n0: int) -> float:
    """Smallest generalized eigenvalue of (S, id_n0 (x) g) at one fiber node.

    S is the matrix of the quadratic form V0 -> schur_gap(split, V0), taken by
    polarization from the gaps along each e_i and e_i + e_j (i < j); -inf when
    one of them is infinite (a null direction of Theta_11).
    """
    split = block_split(cm, n0)
    dim = split.d * n0
    basis = np.eye(dim)
    gaps = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            v = basis[i] if i == j else basis[i] + basis[j]
            gap = schur_gap(split, ColumnBlockMatrix.from_flat(v, split.d))
            if gap.is_infinite:
                return -np.inf
            gaps[i, j] = gaps[j, i] = gap.value
    diag = np.diag(gaps)
    s = np.where(np.eye(dim, dtype=bool), gaps, 0.5 * (gaps - diag[:, None] - diag))
    _, invroot = cm.g.sqrt_and_invsqrt()
    return float(np.linalg.eigvalsh(metric_pencil(invroot, s))[0])


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

    ``route_diff`` is d*n0 times the spectral norm of the difference of the
    two routes' matrices, which bounds |v (A - B) v| / (1 + |v B v|) over the
    box [-1, 1]^{d*n0}.  ``schur_margin`` is the smallest generalized
    eigenvalue of (Schur form, id_n0 (x) g) over all fiber nodes, -inf (and
    the status degenerate) when the form is infinite along some direction.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape[0] != n0 or not 1 <= n0 < field.n:
        raise InputError("t must have length n0 with 1 <= n0 < n")
    settings = {"rule": rule.kind, "nodes": rule.count, "h": h}
    # hypothesis gate: N-log-concavity of the parent field at every fiber node;
    # the Schur margin is taken at the same nodes
    worst = -np.inf
    schur_margin = np.inf
    for y in rule.nodes:
        cm = curvature_matrix(field, np.concatenate([t, y]))
        worst = max(worst, nakano_verdict(cm).lambda_max)
        if worst > tol_psd:
            return CheckReport(
                name="prekopa_check",
                status="degenerate",
                metrics={"lambda_max_nodes": worst},
                tolerances={"tol_psd": tol_psd},
                settings=settings,
            )
        schur_margin = min(schur_margin, _schur_margin(cm, n0))
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
