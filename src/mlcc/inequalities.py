"""Executable certifications: pointwise curvature verdicts, variance inequality,
Bochner identities, marginals.

Each check returns a structured :class:`CheckReport` whose status comes from
one rule (``_status``).  The pointwise checks (Nakano, rank-one, Schur) read
one curvature matrix; the quadrature checks compare two independent
computation routes.  The headline anti-bug oracle is the two-route
computation of the marginal's curvature: finite differences on the
quadrature marginal versus the curvature-plus-variance decomposition.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field

import numpy as np

from .curvature import (
    TOL_PSD,
    CurvatureMatrix,
    block_split,
    curvature_from_jet,
    curvature_matrix,
    generalized_spectrum,
    griffiths_min_gap,
    nakano_verdict,
    schur_gap,
)
from .errors import InputError, _points, _real, _reals, _UnderflowError, _whole
from .fields import Jet2, MatrixField, _checked_differences, restrict_field
from .metric import DEFAULT_NULL_TOL, ColumnBlockMatrix, PolarOperator
from .quadrature import (
    DirichletEvaluator,
    QuadratureRule,
    VectorFieldFn,
    _check_test_fns,
    _integral,
    _rule_nodes,
    integrate_field,
    variance_functional,
)

#: Largest route_diff and schur_route_diff of a passing Prekopa check.
ROUTE_TOL = 1e-4

_MARGINAL_STEP_NAME = "the marginal step h (--marginal-h)"


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


def _status(value: float, ok: bool) -> str:
    """The status of every check from its metric ``value``: degenerate when the value
    is not a finite number (an overflowed integral, an infinite polar, a NaN
    eigenvalue), else pass when ``ok`` and fail when not.  A Prekopa check whose
    hypothesis gate fails is the one report that is degenerate without it."""
    return "degenerate" if not math.isfinite(value) else "pass" if ok else "fail"


def _one_point(cm: CurvatureMatrix, check: str) -> None:
    """The pointwise checks' guard: the curvature of a stack of points is an InputError
    naming the ``check``."""
    if cm.theta_tilde.ndim != 2:
        raise InputError(f"{check} takes the curvature at one point, not a stack of "
                         f"{math.prod(cm.theta_tilde.shape[:-2])}")


def nakano_check(cm: CurvatureMatrix, tol_psd: float = TOL_PSD) -> CheckReport:
    """Nakano check at one point: N-log-concave when the largest generalized
    eigenvalue of (theta_tilde, id_n (x) g) is at most ``tol_psd``."""
    _real("tol_psd", tol_psd)
    _one_point(cm, "nakano_check")
    verdict = nakano_verdict(cm, tol_psd=tol_psd)
    return CheckReport(name="nakano", status=_status(verdict.lambda_max, verdict.is_nlogconcave),
                       metrics={"lambda_max": verdict.lambda_max,
                                "lambda_max_std": verdict.lambda_max_std,
                                "asymmetry": cm.asymmetry},
                       tolerances={"tol_psd": tol_psd})


def griffiths_check(cm: CurvatureMatrix, n_starts: int = 32, seed: int = 0,
                    tol_psd: float = TOL_PSD) -> CheckReport:
    """Rank-one check at one point: ``griffiths_min_gap``'s best value is at most
    ``tol_psd``.  A search that found no number (-inf, every start NaN) is degenerate."""
    _real("tol_psd", tol_psd)
    _one_point(cm, "griffiths_check")
    value = griffiths_min_gap(cm, n_starts=n_starts, seed=seed)
    return CheckReport(name="griffiths", status=_status(value, value <= tol_psd),
                       metrics={"rank_one_max": value}, tolerances={"tol_psd": tol_psd})


def schur_check(cm: CurvatureMatrix, n0: int, v0: ColumnBlockMatrix | None = None,
                tol_gap: float = 1e-8) -> CheckReport:
    """Block Schur inequality at one point: ``schur_gap`` of the first ``n0``
    column-blocks at ``v0`` (e_1 in every column when None) is at least
    -``tol_gap``; ``n0`` is checked first, by ``block_split``.  An infinite polar
    (gap -inf) is degenerate.  A zero ``v0`` is an
    InputError: its gap is 0 on every field, so the check would pass unread."""
    _real("tol_gap", tol_gap)
    _one_point(cm, "schur_check")
    split = block_split(cm, n0)
    if v0 is None:
        v0 = ColumnBlockMatrix([np.eye(cm.d)[0]] * split.n0)
    elif not v0.flatten().any():
        raise InputError("V0 (--v0) is zero; the Schur inequality holds at V0 = 0 for every "
                         "field, so it tests nothing")
    gap = schur_gap(split, v0).value
    return CheckReport(name="schur", status=_status(gap, gap >= -tol_gap),
                       metrics={"gap": gap}, tolerances={"tol_gap": tol_gap})


def bl_gap(
    field: MatrixField,
    f: VectorFieldFn,
    rule: QuadratureRule,
    rel_null_tol: float = DEFAULT_NULL_TOL,
    evaluator: DirichletEvaluator | None = None,
) -> CheckReport:
    """Brascamp-Lieb check: weighted variance of F against the Dirichlet energy.

    Both sides read the ``evaluator``'s node cache (g, Z and the polar
    operators of -Theta), so a check evaluates only F.  The evaluator must
    be built on this very field and rule (else an InputError); without one,
    the check builds its own.  ``rel_null_tol`` applies either way.
    """
    _check_test_fns(field, f)
    if evaluator is None:
        evaluator = DirichletEvaluator(field, rule)
    lhs = variance_functional(field, f, rule, evaluator)
    rhs = evaluator.energy(f, rel_null_tol)
    gap, tol = ((math.inf, 1e-6) if rhs.is_infinite
                else (rhs.value - lhs, 1e-6 * max(1.0, rhs.value)))
    return CheckReport(
        name="bl_gap",
        status=_status(gap, gap >= -tol),
        metrics={"lhs": lhs, "rhs": rhs.value, "gap": gap},
        tolerances={"tol_gap": tol, "rel_null_tol": rel_null_tol},
        settings={"rule": rule.kind, "nodes": rule.count},
    )


def weighted_laplacian(field: MatrixField, f: VectorFieldFn, x) -> np.ndarray:
    """L F = Delta F + sum_k (g^{-1} d_k g) d_k F at the point ``x``, or at
    each point of a stack (result (N, d)).

    The first-order term carries the plus sign: with g = e^{-phi} this is
    the classical operator Delta - grad phi . grad, and it is the sign that
    makes the integration-by-parts identity hold (see ipp_residual).
    """
    x = _reals("x", x)  # read as a point by field.jet
    return _laplacian(field.jet(x), f.grad(x), f.hess(x))


def _laplacian(jet: Jet2, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """L F from the field's jet and F's gradient and Hessian at the same points; the
    log-derivatives g^{-1} d_k g are the jet's, solved once per jet.

    The einsum adds its k and b products in an order set by its operands' layout, so
    the gradient is read C-contiguous: L F has the same bits whether F hands it
    node-first or as a view of node-last rows (``VectorFieldFn.polynomial``).
    """
    first = np.einsum("...kab,...bk->...a", jet._log_d1, np.ascontiguousarray(grad))
    return np.einsum("...ljj->...l", hess) + first


def _node_form(u, g, v) -> np.ndarray:
    """u_i . g_i v_i at every node i of stacks u, v (N, d) and g (N, d, d)."""
    return np.einsum("na,nab,nb->n", u, g, v)


def ipp_residual(
    field: MatrixField,
    f: VectorFieldFn,
    g_fn: VectorFieldFn,
    rule: QuadratureRule,
    tol_res: float = 1e-6,
) -> CheckReport:
    """Integration by parts: int <LF, G>_g = -int <grad F, grad G>_{id (x) g}."""
    _real("tol_res", tol_res)
    _check_test_fns(field, f, g_fn)
    x = rule.nodes
    with _rule_nodes():
        jet = field.jet(x)
    gv = jet.value.entries
    # the gradients are read C-contiguous, as in _laplacian: the einsum's order of
    # summation follows its operands' strides
    f_grad, g_grad = (np.ascontiguousarray(fn.grad(x)) for fn in (f, g_fn))
    lf = _laplacian(jet, f_grad, f.hess(x))
    # Z is the gate on the weight: positive definite, the tail checked
    lhs, rhs = map(float, _integral(
        rule, gv, _node_form(lf, gv, g_fn.value(x)),
        -np.einsum("nlk,nlm,nmk->n", f_grad, gv, g_grad))[1:])
    residual = abs(lhs - rhs)
    tol = tol_res * max(1.0, abs(lhs), abs(rhs))
    return CheckReport(
        name="ipp_residual",
        status=_status(residual, residual <= tol),
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
    _real("tol_res", tol_res)
    _check_test_fns(field, psi)
    x = rule.nodes
    with _rule_nodes():
        jet = field.jet(x)
    gv = jet.value.entries
    cm = curvature_matrix(field, x, jet)
    grad, h = psi.grad(x), psi.hess(x)  # (N, d, n), (N, d, n, n)
    lf = _laplacian(jet, grad, h)
    v = grad.swapaxes(-1, -2).reshape(rule.count, -1)  # flatten (j, l) -> j*d + l
    # Z is the gate on the weight: positive definite, the tail checked
    lhs, term_curv, term_hess = map(float, _integral(
        rule, gv, _node_form(lf, gv, lf), -_node_form(v, cm.theta_tilde, v),
        np.einsum("nljk,nlm,nmjk->n", h, gv, h))[1:])
    residual = abs(lhs - term_curv - term_hess)
    tol = tol_res * max(1.0, abs(lhs), abs(term_curv) + abs(term_hess))
    return CheckReport(
        name="bochner_residual",
        status=_status(residual, residual <= tol),
        metrics={
            "lhs": lhs,
            "term_curv": term_curv,
            "term_hess": term_hess,
            "residual": residual,
        },
        tolerances={"tol_res": tol},
        settings={"rule": rule.kind, "nodes": rule.count},
    )


_FIBER_T_HINT = ", or another --t (every rule puts its fiber nodes (t, y_i) at this t)"
_ROUTE_A_T_HINT = (", or another --t or a smaller --marginal-h (every rule puts route A's "
                   "nodes (s, y_i) at s = t, t +- h/2 and t +- h)")


@contextmanager
def _frozen_t(hint: str):
    """Around an evaluation inside ``_rule_nodes`` at nodes whose first coordinates the
    rule does not choose: a weight that underflows there also gets ``hint``, which names
    the flags that put those coordinates where they are."""
    try:
        yield
    except _UnderflowError as exc:
        raise _UnderflowError(f"{exc}{hint}", exc.index) from None


def _marginal_jet(field: MatrixField, t, rule: QuadratureRule, h: float) -> Jet2:
    """2-jet of alpha(t) = int g(t, y) dy by Richardson-extrapolated differences in t."""
    h = _real(_MARGINAL_STEP_NAME, h, positive=True)
    t = np.atleast_1d(_reals("t", t))
    integrals = []  # validated, in stencil order: the centre is the jet's value

    def alpha(ts):
        with _frozen_t(_ROUTE_A_T_HINT):
            integrals[:] = [integrate_field(restrict_field(field, tt), rule) for tt in ts]
        return np.stack([a.entries for a in integrals])

    d1, d2 = _checked_differences(alpha, t, h, richardson=True, what=_MARGINAL_STEP_NAME)
    return Jet2(value=integrals[0], d1=d1, d2=d2)


def marginal_theta_fd(
    field: MatrixField, t, rule: QuadratureRule, h: float = 1e-3
) -> CurvatureMatrix:
    """Route A: curvature of the marginal by differentiating the integral."""
    return curvature_from_jet(_marginal_jet(field, t, rule, h))


def theta_alpha_decomposed(
    field: MatrixField, t, rule: QuadratureRule,
    fiber: tuple[Jet2, CurvatureMatrix] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route B for Theta^alpha: (total, fiber term, variance term) as d*n0 x d*n0
    matrices in the flat index j*d + l, so <Theta^alpha V0, V0> = v @ total @ v
    for v = V0.flatten().  The fiber term is int theta_00; the variance term is
    the weighted covariance of V0 -> F = g^{-1} D v, D = [d_{t_1} g | ... | d_{t_n0} g]:
    int D^T g^{-1} D - (int D)^T (int g)^{-1} (int D).

    ``fiber`` is the jet and curvature stack of the field over the fiber
    nodes (t, y_i), as ``prekopa_check``'s gate made them; without it they
    are made here.  int g comes from ``_integral`` with the three other sums:
    its tail is checked, and not positive definite it is a QuadratureError.
    """
    t = np.atleast_1d(_reals("t", t))
    n0, d = t.shape[0], field.d
    if rule.m != field.n - n0:
        raise InputError("rule dimension must equal the number of integrated variables")
    jet, cm = fiber or _fiber_pass(field, t, rule)
    # D = [d_{t_1} g | ... | d_{t_n0} g] at every node, (N, d, n0 * d), and g^{-1} D alike
    dmat, ginv_d = (a[:, :n0].swapaxes(1, 2).reshape(rule.count, d, n0 * d)
                    for a in (jet.d1, jet._log_d1))
    z, term_curv00, mean_d, sq = _integral(rule, jet.value.entries, block_split(cm, n0).theta00,
                                           dmat, dmat.swapaxes(1, 2) @ ginv_d)
    term_var = sq - mean_d.T @ np.linalg.solve(z.entries, mean_d)
    return term_curv00 + term_var, term_curv00, term_var


def _schur_margin(cm: CurvatureMatrix, n0: int):
    """Smallest generalized eigenvalue of (S, id_n0 (x) g) over one fiber node or a
    stack, the node attaining it (None for one node) and its eigenvector V0 with
    <V0, V0>_g = 1.  S = -Theta_00 - Theta_10^T (-Theta_11)^+ Theta_10 is the matrix of
    V0 -> schur_gap(split, V0); -inf (no node, no V0) when a column of Theta_10 leaves
    the range of -Theta_11.

    All of it is read off the blocks of ``cm.pencil``, P = (id_n (x) g)^{-1/2} Theta
    (id_n (x) g)^{-1/2}: the generalized eigenvalues of (S, id_n0 (x) g) are those of
    S~ = -P_00 - P_10^T (-P_11)^+ P_10, whose pseudo-inverse part is the polar form of
    -P_11 under the identity metric (``PolarOperator._of_pencil``, with its null rule) on
    the columns of P_10, and V0 = (id_n0 (x) g^{-1/2}) w for S~'s eigenvector w.  The S~
    stack stays in pencil coordinates: S itself is its congruence by (id_n0 (x) g^{1/2}).
    """
    _, invroot = cm.g.sqrt_and_invsqrt()
    pencil = cm.pencil
    d, cut, lead = cm.d, n0 * cm.d, pencil.shape[:-2]
    polar = PolarOperator._of_pencil(-pencil[..., cut:, cut:])
    coords = polar._coord_map @ pencil[..., cut:, :cut]
    denominators, off_range = polar._denominators_and_off_range(
        np.moveaxis(coords, -1, 0) ** 2)
    if off_range is not None and off_range.any():
        return -np.inf, None, None
    s = -pencil[..., :cut, :cut] - coords.swapaxes(-1, -2) @ (coords / denominators[..., None])
    lam, w = np.linalg.eigh(s)  # S~ from its lower triangle: s is symmetric up to rounding
    # V0 = (id_n0 (x) g^{-1/2}) w at every node
    v0 = (w[..., :, 0].reshape(lead + (n0, d)) @ invroot).reshape(-1, cut)
    lam_min = lam[..., 0].reshape(-1)
    i = int(np.argmin(lam_min))
    return float(lam_min[i]), i if lead else None, v0[i]


def _nodes(cm: CurvatureMatrix, index) -> CurvatureMatrix:
    """The curvature at node ``index`` of a stack, or at the nodes a slice selects;
    its g keeps the stack's validation and roots, and it reads its part of the stack's
    pencil once that is formed."""
    node = CurvatureMatrix(cm.d, cm.n, cm.theta_tilde[index], cm.g[index], cm.asymmetry[index])
    if "pencil" in cm.__dict__:
        node.__dict__["pencil"] = cm.pencil[index]
    return node


def _fiber_nodes(t: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """The points (t, y_i) over the rule's nodes y_i, as an (N, n0 + m) stack."""
    return np.concatenate([np.broadcast_to(t, (rule.count, t.shape[0])), rule.nodes], axis=1)


def _fiber_pass(field: MatrixField, t: np.ndarray,
                rule: QuadratureRule) -> tuple[Jet2, CurvatureMatrix]:
    """The jet and the curvature stack of ``field`` over the fiber nodes (t, y_i),
    from one jet evaluation; an asymmetric jet names its fiber point."""
    x = _fiber_nodes(t, rule)
    with _frozen_t(_FIBER_T_HINT), _rule_nodes():
        jet = field.jet(x)
    return jet, curvature_matrix(field, x, jet)


def prekopa_check(
    field: MatrixField,
    t,
    n0: int,
    rule: QuadratureRule,
    h: float = 1e-3,
    tol_psd: float = 1e-8,
) -> CheckReport:
    """Certify that the marginal of ``field`` over the last variables is
    N-log-concave at ``t``, with two-route agreement on the quadratic form.

    The hypothesis gate requires N-log-concavity of the field at every fiber
    node (t, y_i): the top eigenvalue of the fiber curvature's pencil
    (``CurvatureMatrix.pencil``, formed once per check) must be at most
    ``tol_psd`` at every node.  If the gate fails, the report is degenerate and
    ``lambda_max_nodes`` is the largest curvature eigenvalue at the first node
    above ``tol_psd``.  ``route_diff`` is d*n0 times the spectral norm of the
    difference of the two routes' matrices, which bounds
    |v (A - B) v| / (1 + |v B v|) over the box [-1, 1]^{d*n0}.
    ``schur_margin`` is the smallest generalized eigenvalue of (Schur
    complement S, id_n0 (x) g) over the fiber nodes before the first gate
    failure (all of them on a passing gate), read off the blocks of the same
    pencil (``_schur_margin``), -inf (and the status degenerate) when the form
    is infinite along some direction.  ``schur_route_diff`` is
    |schur_gap - schur_margin| / max(1, |schur_margin|) for schur_gap at the
    attaining node and its unit eigenvector V0; it is held to ``ROUTE_TOL``
    (1e-4, reported as ``tol_route``) with ``route_diff``, and absent when the
    margin is -inf.
    """
    _real("tol_psd", tol_psd)
    n0 = _whole("n0", n0)
    if not 1 <= n0 < field.n:
        raise InputError(f"n0 must satisfy 1 <= n0 < {field.n}, got {n0}")
    t = np.atleast_1d(_reals("t", t))
    if t.shape != (n0,):
        raise InputError("t must have length n0 with 1 <= n0 < n")
    t = _points("t", t, n0)
    h = _real(_MARGINAL_STEP_NAME, h, positive=True)
    settings = {"rule": rule.kind, "nodes": rule.count, "h": h}
    jet, cm = _fiber_pass(field, t, rule)
    lambda_max = generalized_spectrum(cm)[:, -1]
    above = np.flatnonzero(lambda_max > tol_psd)
    if above.size:
        first = int(above[0])
        if first:
            # the margin goes unreported, but an indefinite -Theta_11 at a node
            # before the first failure still raises NotPsdError
            _schur_margin(_nodes(cm, slice(first)), n0)
        return CheckReport(
            name="prekopa_check",
            status="degenerate",
            metrics={"lambda_max_nodes": float(lambda_max[first])},
            tolerances={"tol_psd": tol_psd},
            settings=settings,
        )
    schur_margin, node, v0 = _schur_margin(cm, n0)
    cm_alpha = marginal_theta_fd(field, t, rule, h)
    lambda_max_alpha = float(generalized_spectrum(cm_alpha)[-1])
    total, _, _ = theta_alpha_decomposed(field, t, rule, (jet, cm))
    route_diff = field.d * n0 * float(np.linalg.norm(cm_alpha.theta_tilde - total, 2))
    metrics = {"lambda_max_alpha": lambda_max_alpha, "route_diff": route_diff,
               "schur_margin": schur_margin}
    ok = False
    if schur_margin != -np.inf:
        # the second route: schur_gap at the node and V0 that attain the margin
        gap = schur_gap(block_split(_nodes(cm, node), n0), ColumnBlockMatrix.from_flat(v0, cm.d))
        diff = abs(gap.value - schur_margin) / max(1.0, abs(schur_margin))
        metrics["schur_route_diff"] = diff
        ok = lambda_max_alpha <= tol_psd and max(route_diff, diff) <= ROUTE_TOL
    return CheckReport(
        name="prekopa_check",
        status=_status(schur_margin, ok),
        metrics=metrics,
        tolerances={"tol_psd": tol_psd, "tol_route": ROUTE_TOL},
        settings=settings,
    )
