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
from .metric import ColumnBlockMatrix, ExtendedReal, SpdMatrix
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


def _metric_value(v) -> float:
    return v.value if isinstance(v, ExtendedReal) else float(v)


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


def _mixed_vector_field(field: MatrixField, t, v0: ColumnBlockMatrix) -> VectorFieldFn:
    """F(y) = sum_j (g^{-1} d_{t_j} g)(t, y) v_j as a function of y."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n0 = t.shape[0]
    n1 = field.n - n0

    def value(y):
        jet = field.jet(np.concatenate([t, np.atleast_1d(y)]))
        g = jet.value.entries
        out = np.zeros(field.d)
        for j in range(n0):
            out += np.linalg.solve(g, jet.d1[j]) @ v0.columns[j]
        return out

    return VectorFieldFn(n1, field.d, value)


def theta_alpha_decomposed(
    field: MatrixField, t, v0: ColumnBlockMatrix, rule: QuadratureRule
) -> tuple[float, float, float]:
    """Route B for <Theta^alpha V0, V0>: fiber curvature term plus variance term."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n0 = t.shape[0]
    if v0.d != field.d or v0.n != n0:
        raise InputError("V0 shape does not match the split")
    if rule.m != field.n - n0:
        raise InputError("rule dimension must equal the number of integrated variables")
    flat0 = v0.flatten()
    curv_terms = []
    for w, y in zip(rule.weights, rule.nodes):
        cm = curvature_matrix(field, np.concatenate([t, y]))
        split = block_split(cm, n0)
        curv_terms.append(w * float(flat0 @ split.theta00 @ flat0))
    term_curv00 = float(pairwise_sum(curv_terms))
    restricted = restrict_field(field, t)
    term_var = variance_functional(restricted, _mixed_vector_field(field, t, v0), rule)
    return term_curv00 + term_var, term_curv00, term_var


def prekopa_check(
    field: MatrixField,
    t,
    n0: int,
    rule: QuadratureRule,
    h: float = 1e-3,
    n_v0: int = 20,
    seed: int = 0,
    tol_psd: float = 1e-8,
    tol_route: float = ROUTE_TOL,
    schur_samples: int = 10,
) -> CheckReport:
    """Certify that the marginal of ``field`` over the last variables is
    N-log-concave at ``t``, with two-route agreement on the quadratic form."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape[0] != n0 or not 1 <= n0 < field.n:
        raise InputError("t must have length n0 with 1 <= n0 < n")
    settings = {"rule": rule.kind, "nodes": rule.count, "h": h, "n_v0": n_v0,
                "seed": seed}
    # hypothesis gate: N-log-concavity of the parent field at the sampled fibers
    worst = -np.inf
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
    cm_alpha = marginal_theta_fd(field, t, rule, h)
    lambda_max_alpha = nakano_verdict(cm_alpha).lambda_max
    rng = np.random.default_rng(seed)
    route_diff = 0.0
    for _ in range(n_v0):
        v0 = ColumnBlockMatrix(
            [rng.uniform(-1.0, 1.0, field.d) for _ in range(n0)]
        )
        q_a = cm_alpha.quadratic_form(v0)
        total, _, _ = theta_alpha_decomposed(field, t, v0, rule)
        route_diff = max(route_diff, abs(q_a - total) / (1.0 + abs(total)))
    # Schur margin over a subsample of fibers
    schur_margin = np.inf
    degenerate_direction = False
    idx = np.linspace(0, rule.count - 1, min(schur_samples, rule.count)).astype(int)
    for i in idx:
        cm = curvature_matrix(field, np.concatenate([t, rule.nodes[i]]))
        split = block_split(cm, n0)
        for _ in range(3):
            v0 = ColumnBlockMatrix(
                [rng.uniform(-1.0, 1.0, field.d) for _ in range(n0)]
            )
            gap = schur_gap(split, v0)
            if gap.is_infinite:
                degenerate_direction = True
            else:
                schur_margin = min(schur_margin, gap.value)
    ok = lambda_max_alpha <= tol_psd and route_diff <= tol_route
    status = "degenerate" if degenerate_direction else ("pass" if ok else "fail")
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
