"""Quadrature of matrix- and vector-valued integrands against a matrix weight.

Tensor-product Gauss-Hermite (with the inverse Gaussian factor folded into
the weights, so rules integrate plain dy) and trapezoid grids.  All
reductions go through a fixed pairwise-summation tree, so results do not
depend on evaluation order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._poly import poly_diff, poly_eval
from .curvature import curvature_matrix
from .errors import BudgetError, InputError, QuadratureError
from .fields import MatrixField, central_differences
from .metric import DEFAULT_NULL_TOL, ExtendedReal, PolarOperator, QuadraticFormSpec, SpdMatrix

#: Cap on the node count of a tensor-product rule.
NODE_BUDGET = 10**7

#: Relative size of the outermost integrand summand that triggers a tail warning.
TAIL_WARN_REL = 1e-12


def pairwise_sum(terms):
    """Sum a sequence of arrays (or floats) along a fixed pairwise tree."""
    items = list(terms)
    if not items:
        raise InputError("nothing to sum")
    while len(items) > 1:
        paired = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights on R^m integrating plain Lebesgue measure."""

    m: int
    nodes: np.ndarray  # (N, m)
    weights: np.ndarray  # (N,)
    kind: str

    def __post_init__(self):
        if self.nodes.shape != (self.weights.shape[0], self.m):
            raise InputError("node/weight shapes inconsistent")
        if not (self.weights > 0).all():
            raise InputError("weights must be positive")

    @property
    def count(self) -> int:
        return self.weights.shape[0]


def _gauss_hermite_axis(order: int, center: float, scale: float):
    x, w = np.polynomial.hermite.hermgauss(order)
    nodes = center + scale * x
    weights = scale * w * np.exp(x**2)
    return nodes, weights


def build_rule(kind: str, **params) -> QuadratureRule:
    """Build a tensor-product rule.

    gauss_hermite: order (>= 2), m, center (scalar or per-axis), scale > 0.
    uniform_grid: box (pair or list of pairs), resolution (>= 8 unless
    explicitly small for didactic cases), trapezoid weights.
    """
    if kind == "gauss_hermite":
        order = int(params.get("order", 64))
        m = int(params.get("m", 1))
        if order < 2:
            raise InputError("gauss_hermite order must be >= 2")
        if order**m > NODE_BUDGET:
            raise BudgetError(f"{order}^{m} nodes exceed the budget of {NODE_BUDGET}")
        center = np.broadcast_to(
            np.asarray(params.get("center", 0.0), dtype=float), (m,)
        )
        scale = np.broadcast_to(np.asarray(params.get("scale", 1.0), dtype=float), (m,))
        if not (scale > 0).all():
            raise InputError("scale must be positive")
        axes = [_gauss_hermite_axis(order, center[i], scale[i]) for i in range(m)]
    elif kind == "uniform_grid":
        box = params["box"]
        resolution = int(params["resolution"])
        if resolution < 2:
            raise InputError("resolution must be >= 2")
        if np.isscalar(box[0]):
            box = [box]
        m = len(box)
        if resolution**m > NODE_BUDGET:
            raise BudgetError("grid exceeds the node budget")
        axes = []
        for lo, hi in box:
            pts = np.linspace(float(lo), float(hi), resolution)
            h = (hi - lo) / (resolution - 1)
            w = np.full(resolution, h)
            w[0] *= 0.5
            w[-1] *= 0.5
            axes.append((pts, w))
    else:
        raise InputError(f"unknown rule kind {kind!r}")
    node_grids = [a[0] for a in axes]
    weight_grids = [a[1] for a in axes]
    nodes = np.array(list(product(*node_grids)))
    weights = np.array([np.prod(ws) for ws in product(*weight_grids)])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(m=len(axes), nodes=nodes, weights=weights, kind=kind)


class VectorFieldFn:
    """A C^1 (optionally C^2) map R^n -> R^d with derivative oracles.

    Gradients are (d, n); Hessians (d, n, n).  Missing oracles fall back to
    central first differences of the value (gradient) or gradient (Hessian).
    """

    def __init__(self, n, d, value, grad=None, hess=None, fd_step: float = 1e-5):
        self.n = int(n)
        self.d = int(d)
        self._value = value
        self._grad = grad
        self._hess = hess
        self._h = float(fd_step)

    def value(self, x) -> np.ndarray:
        out = np.atleast_1d(np.asarray(self._value(np.asarray(x, float)), float))
        if out.shape != (self.d,):
            raise InputError(f"vector field value has shape {out.shape}, want ({self.d},)")
        return out

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._grad is not None:
            out = np.asarray(self._grad(x), dtype=float)
            if out.shape != (self.d, self.n):
                raise InputError("gradient oracle returned wrong shape")
            return out
        _, d1, _ = central_differences(self.value, x, self._h, second=False)
        return d1.T

    def hess(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._hess is not None:
            out = np.asarray(self._hess(x), dtype=float)
            if out.shape != (self.d, self.n, self.n):
                raise InputError("hessian oracle returned wrong shape")
            return out
        _, d1, _ = central_differences(self.grad, x, self._h, second=False)
        out = np.moveaxis(d1, 0, 2)
        return 0.5 * (out + out.transpose(0, 2, 1))

    @classmethod
    def polynomial(cls, n: int, components) -> "VectorFieldFn":
        """Exact polynomial vector field; ``components[l]`` is a term list."""
        comps = [[(float(c), tuple(degs)) for c, degs in comp] for comp in components]
        d = len(comps)
        grads = [[poly_diff(comp, j) for j in range(n)] for comp in comps]
        hesses = [
            [[poly_diff(grads[l][j], k) for k in range(n)] for j in range(n)]
            for l in range(d)
        ]

        def value(x):
            return np.array([poly_eval(comp, x) for comp in comps])

        def grad(x):
            return np.array(
                [[poly_eval(grads[l][j], x) for j in range(n)] for l in range(d)]
            )

        def hess(x):
            return np.array(
                [
                    [[poly_eval(hesses[l][j][k], x) for k in range(n)] for j in range(n)]
                    for l in range(d)
                ]
            )

        return cls(n, d, value, grad, hess)


def _node_values(field: MatrixField, rule: QuadratureRule):
    if field.n != rule.m:
        raise InputError("field and rule dimensions differ")
    return [field.value(x) for x in rule.nodes]


def _tail_check(rule: QuadratureRule, terms, total) -> None:
    center = rule.nodes.mean(axis=0)
    outer = int(np.argmax(np.linalg.norm(rule.nodes - center, axis=1)))
    tail = float(np.linalg.norm(np.atleast_1d(terms[outer])))
    bulk = float(np.linalg.norm(np.atleast_1d(total)))
    if bulk > 0 and tail > TAIL_WARN_REL * bulk:
        warnings.warn(
            "outermost quadrature node still carries relative weight "
            f"{tail / bulk:.2e}; the rule may not cover the integrand's support",
            stacklevel=3,
        )


def integrate_field(field: MatrixField, rule: QuadratureRule) -> SpdMatrix:
    """sum_i w_i g(node_i), validated positive definite."""
    values = _node_values(field, rule)
    terms = [w * v for w, v in zip(rule.weights, values)]
    total = pairwise_sum(terms)
    _tail_check(rule, terms, total)
    try:
        return SpdMatrix(total)
    except Exception as exc:
        raise QuadratureError(
            "integrated field is not positive definite; the rule is too coarse "
            "or the field is not integrable"
        ) from exc


def weighted_mean(field: MatrixField, f: VectorFieldFn, rule: QuadratureRule) -> np.ndarray:
    """Z^{-1} * sum_i w_i g(node_i) F(node_i)."""
    z = integrate_field(field, rule)
    terms = [
        w * (field.value(x) @ f.value(x)) for w, x in zip(rule.weights, rule.nodes)
    ]
    return np.linalg.solve(z.entries, pairwise_sum(terms))


def variance_functional(field: MatrixField, f: VectorFieldFn, rule: QuadratureRule) -> float:
    """Weighted variance of F: int ||F||_g^2 - ||Z^{-1} int gF||_Z^2."""
    sq_terms = []
    gf_terms = []
    z_terms = []
    for w, x in zip(rule.weights, rule.nodes):
        g = field.value(x)
        val = f.value(x)
        gf = g @ val
        sq_terms.append(w * float(val @ gf))
        gf_terms.append(w * gf)
        z_terms.append(w * g)
    z = pairwise_sum(z_terms)
    gf = pairwise_sum(gf_terms)
    second = float(pairwise_sum(sq_terms))
    return second - float(gf @ np.linalg.solve(z, gf))


class DirichletEvaluator:
    """Per-node polar operators of -Theta, reusable across test functions."""

    def __init__(self, field: MatrixField, rule: QuadratureRule,
                 rel_null_tol: float = DEFAULT_NULL_TOL):
        if field.n != rule.m:
            raise InputError("field and rule dimensions differ")
        self.field = field
        self.rule = rule
        self.rel_null_tol = float(rel_null_tol)
        self._polars = []
        for x in rule.nodes:
            cm = curvature_matrix(field, x)
            spec = QuadraticFormSpec(cm.g, -cm.theta_tilde)
            self._polars.append(PolarOperator(spec))

    def energy(self, f: VectorFieldFn) -> ExtendedReal:
        terms = []
        for w, x, polar in zip(self.rule.weights, self.rule.nodes, self._polars):
            v = f.grad(x).T.reshape(-1)  # flatten (j, l) -> j*d + l
            val = polar.value(v, self.rel_null_tol)
            if val.is_infinite:
                return ExtendedReal.infinite()
            terms.append(w * val.value)
        return ExtendedReal(float(pairwise_sum(terms)))


def dirichlet_energy(
    field: MatrixField,
    f: VectorFieldFn,
    rule: QuadratureRule,
    rel_null_tol: float = DEFAULT_NULL_TOL,
) -> ExtendedReal:
    """int Q°_{id_n (x) g, -Theta}(grad F) dx, infinite on degenerate directions."""
    return DirichletEvaluator(field, rule, rel_null_tol).energy(f)
