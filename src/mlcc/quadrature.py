"""Quadrature of matrix- and vector-valued integrands against a matrix weight.

Tensor-product Gauss-Hermite (with the inverse Gaussian factor folded into
the weights, so rules integrate plain dy) and trapezoid grids.  All
reductions go through a fixed pairwise-summation tree, so results do not
depend on evaluation order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from ._poly import poly_diff, poly_eval, poly_stack
from .curvature import curvature_matrix
from .errors import NODE_BUDGET, BudgetError, InputError, QuadratureError
from .fields import MatrixField, central_differences
from .metric import DEFAULT_NULL_TOL, ExtendedReal, PolarOperator, QuadraticFormSpec, SpdMatrix

#: Relative size of the outermost integrand summand that triggers a tail warning.
TAIL_WARN_REL = 1e-12


def pairwise_sum(terms):
    """Sum along axis 0 by a fixed pairwise tree.

    ``terms`` is an array of shape (N, ...) or a sequence of N equal-shape
    arrays or floats.  Level by level, items 2i and 2i + 1 are added and an
    odd last item is carried up, so the result depends on N alone, not on
    how the items were produced.
    """
    items = np.asarray(terms if isinstance(terms, np.ndarray) else list(terms), dtype=float)
    if items.ndim == 0 or items.shape[0] == 0:
        raise InputError("nothing to sum")
    while items.shape[0] > 1:
        paired = items[0:-1:2] + items[1::2]
        items = np.concatenate([paired, items[-1:]]) if items.shape[0] % 2 else paired
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


@cache
def _hermgauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights of one order, computed once, read-only."""
    x, w = np.polynomial.hermite.hermgauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_hermite_axis(order: int, center: float, scale: float):
    x, w = _hermgauss(order)
    nodes = center + scale * x
    weights = scale * w * np.exp(x**2)
    return nodes, weights


def _rule_dimension(m: int) -> int:
    if m < 1:
        raise InputError(f"a rule integrates over m >= 1 variables, got m = {m}")
    return m


def build_rule(kind: str, **params) -> QuadratureRule:
    """Build a tensor-product rule.

    gauss_hermite: order (>= 2), m, center (scalar or per-axis), scale > 0.
    uniform_grid: box (pair or list of pairs), resolution (>= 8 unless
    explicitly small for didactic cases), trapezoid weights.
    """
    if kind == "gauss_hermite":
        order = int(params.get("order", 64))
        m = _rule_dimension(int(params.get("m", 1)))
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
        if len(box) and np.isscalar(box[0]):
            box = [box]
        m = _rule_dimension(len(box))
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
    # tensor product with the last axis fastest; weights multiply left to right
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    nodes = np.stack(grids, axis=-1).reshape(-1, len(axes))
    weights = reduce(np.multiply.outer, [a[1] for a in axes]).reshape(-1)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(m=len(axes), nodes=nodes, weights=weights, kind=kind)


def _shaped(out, x: np.ndarray, tail: tuple, what: str) -> np.ndarray:
    """``out`` as floats, checked to have the shape of x's stack plus ``tail``."""
    out = np.asarray(out, dtype=float)
    if out.shape != x.shape[:-1] + tail:
        raise InputError(f"{what} has shape {out.shape}, want {x.shape[:-1] + tail}")
    return out


def _rowwise(fn):
    """A per-point callable mapped over the rows of a stack of points."""
    if fn is None:
        return None

    def stacked(x):
        rows = x.reshape(-1, x.shape[-1])
        out = np.stack([np.atleast_1d(np.asarray(fn(row), dtype=float)) for row in rows])
        return out.reshape(x.shape[:-1] + out.shape[1:])

    return stacked


class VectorFieldFn:
    """A C^1 (optionally C^2) map R^n -> R^d with derivative oracles.

    Values are (d,), gradients (d, n), Hessians (d, n, n) at one point,
    shape (n,); a stack of points, shape (N, n), adds a leading axis of
    length N.  The callables given here take one point and are mapped over
    the rows of a stack; :meth:`polynomial` evaluates whole stacks.  Missing
    oracles fall back to central first differences of the value (gradient)
    or gradient (Hessian).
    """

    def __init__(self, n, d, value, grad=None, hess=None, fd_step: float = 1e-5):
        self.n = int(n)
        self.d = int(d)
        self._value = _rowwise(value)
        self._grad = _rowwise(grad)
        self._hess = _rowwise(hess)
        self._h = float(fd_step)

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _shaped(self._value(x), x, (self.d,), "vector field value")

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._grad is not None:
            return _shaped(self._grad(x), x, (self.d, self.n), "gradient oracle")
        _, d1, _ = central_differences(self.value, x, self._h, second=False)
        return d1.swapaxes(-1, -2)

    def hess(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._hess is not None:
            return _shaped(self._hess(x), x, (self.d, self.n, self.n), "hessian oracle")
        _, d1, _ = central_differences(self.grad, x, self._h, second=False)
        out = np.moveaxis(d1, -3, -1)
        return 0.5 * (out + out.swapaxes(-1, -2))

    @classmethod
    def polynomial(cls, n: int, components) -> "VectorFieldFn":
        """Exact polynomial vector field; ``components[l]`` is a term list.

        The components, their gradients and their Hessians are stacked into
        one term list each (see ``poly_stack``), so a value, gradient or
        Hessian is one evaluation for a whole stack of points.
        """
        zero = [(0.0, (0,) * n)]
        comps = [[(float(c), tuple(degs)) for c, degs in comp] or zero for comp in components]
        d = len(comps)
        grads = [[poly_diff(comp, j) for j in range(n)] for comp in comps]
        value_terms = poly_stack(comps)
        grad_terms = poly_stack([g for row in grads for g in row])
        hess_terms = poly_stack([poly_diff(g, k) for row in grads for g in row for k in range(n)])

        def value(x):
            return poly_eval(value_terms, x)

        def grad(x):
            out = poly_eval(grad_terms, x)
            return out.reshape(out.shape[:-1] + (d, n))

        def hess(x):
            out = poly_eval(hess_terms, x)
            return out.reshape(out.shape[:-1] + (d, n, n))

        fn = cls(n, d, None)
        fn._value, fn._grad, fn._hess = value, grad, hess  # stack-native, not row-mapped
        return fn


def _node_values(field: MatrixField, rule: QuadratureRule) -> np.ndarray:
    if field.n != rule.m:
        raise InputError("field and rule dimensions differ")
    return field.value(rule.nodes)


def _tail_check(rule: QuadratureRule, terms, total) -> None:
    center = rule.nodes.mean(axis=0)
    outer = int(np.argmax(np.linalg.norm(rule.nodes - center, axis=1)))
    tail = float(np.linalg.norm(np.atleast_1d(terms[outer])))
    bulk = float(np.linalg.norm(np.atleast_1d(total)))
    if bulk > 0 and tail > TAIL_WARN_REL * bulk:
        warnings.warn(
            "outermost quadrature node still carries relative weight "
            f"{tail / bulk:.2e}; the rule may not cover the integrand's support",
            stacklevel=4,
        )


def _integral(rule: QuadratureRule, values: np.ndarray) -> SpdMatrix:
    """sum_i w_i values_i, validated positive definite, with the tail check."""
    terms = rule.weights[:, None, None] * values
    total = pairwise_sum(terms)
    _tail_check(rule, terms, total)
    try:
        return SpdMatrix(total)
    except Exception as exc:
        raise QuadratureError(
            "integrated field is not positive definite; the rule is too coarse "
            "or the field is not integrable"
        ) from exc


def integrate_field(field: MatrixField, rule: QuadratureRule) -> SpdMatrix:
    """sum_i w_i g(node_i), validated positive definite."""
    return _integral(rule, _node_values(field, rule))


def weighted_mean(field: MatrixField, f: VectorFieldFn, rule: QuadratureRule) -> np.ndarray:
    """Z^{-1} * sum_i w_i g(node_i) F(node_i)."""
    g = _node_values(field, rule)
    z = _integral(rule, g)
    gf = (g @ f.value(rule.nodes)[..., None])[..., 0]
    return np.linalg.solve(z.entries, pairwise_sum(rule.weights[:, None] * gf))


def variance_functional(field: MatrixField, f: VectorFieldFn, rule: QuadratureRule) -> float:
    """Weighted variance of F: int ||F||_g^2 - ||Z^{-1} int gF||_Z^2."""
    w = rule.weights
    g = _node_values(field, rule)
    val = f.value(rule.nodes)
    gf = (g @ val[..., None])[..., 0]
    z = pairwise_sum(w[:, None, None] * g)
    mean = pairwise_sum(w[:, None] * gf)
    second = float(pairwise_sum(w * np.sum(val * gf, axis=-1)))
    return second - float(mean @ np.linalg.solve(z, mean))


class DirichletEvaluator:
    """Polar operators of -Theta at every node, reusable across test functions.

    The curvature and its polar data are built once, as one stack over the
    rule's nodes; a node where -Theta is indefinite raises NotPsdError.
    """

    def __init__(self, field: MatrixField, rule: QuadratureRule):
        if field.n != rule.m:
            raise InputError("field and rule dimensions differ")
        self.field = field
        self.rule = rule
        cm = curvature_matrix(field, rule.nodes)
        self._polar = PolarOperator(QuadraticFormSpec(cm.g, -cm.theta_tilde))

    def energy(self, f: VectorFieldFn, rel_null_tol: float = DEFAULT_NULL_TOL) -> ExtendedReal:
        """int Q°(grad F); infinite when grad F leaves the range of -Theta at any
        node, null directions judged relative to ``rel_null_tol``."""
        grad = f.grad(self.rule.nodes)  # (N, d, n)
        v = grad.swapaxes(-1, -2).reshape(grad.shape[0], -1)  # flatten (j, l) -> j*d + l
        values = self._polar.value(v, rel_null_tol)
        if np.isinf(values).any():
            return ExtendedReal.infinite()
        return ExtendedReal(float(pairwise_sum(self.rule.weights * values)))


def dirichlet_energy(
    field: MatrixField,
    f: VectorFieldFn,
    rule: QuadratureRule,
    rel_null_tol: float = DEFAULT_NULL_TOL,
) -> ExtendedReal:
    """int Q°_{id_n (x) g, -Theta}(grad F) dx, infinite on degenerate directions."""
    return DirichletEvaluator(field, rule).energy(f, rel_null_tol)
