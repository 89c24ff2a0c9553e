"""Quadrature of matrix- and vector-valued integrands against a matrix weight.

Tensor-product Gauss-Hermite (with the inverse Gaussian factor folded into
the weights, so rules integrate plain dy) and trapezoid grids.  All
reductions go through a fixed pairwise-summation tree, so results do not
depend on evaluation order.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from ._poly import poly_diff, poly_eval, poly_stack
from .curvature import curvature_matrix
from .errors import NODE_BUDGET, BudgetError, InputError, QuadratureError
from .fields import MatrixField, central_differences
from .metric import DEFAULT_NULL_TOL, ExtendedReal, PolarOperator, QuadraticFormSpec, SpdMatrix

#: Relative size of the outermost integrand summand that triggers a tail warning.
TAIL_WARN_REL = 1e-12

#: Central-difference step of the derivatives of a callable test function.
FD_STEP = 1e-5

#: Highest Gauss-Hermite order whose weights are finite and positive: at 371
#: NumPy's ``hermgauss`` (measured on NumPy 2.4) returns a zero weight and
#: overflows, and its n x n companion matrix grows as n^2 (74.5 GiB at n = 10^5).
GH_MAX_ORDER = 370


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

    @cached_property
    def outermost(self) -> int:
        """Index of the node farthest from the nodes' mean (the tail check's node)."""
        center = self.nodes.mean(axis=0)
        return int(np.argmax(np.linalg.norm(self.nodes - center, axis=1)))


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

    gauss_hermite: order (2 to ``GH_MAX_ORDER`` = 370, checked before any node
    is computed), m, center (scalar or per-axis), scale > 0.
    uniform_grid: box (a list of one (lo, hi) pair per axis), resolution
    (>= 2 points per axis), trapezoid weights.
    """
    if kind == "gauss_hermite":
        order = int(params.get("order", 64))
        m = _rule_dimension(int(params.get("m", 1)))
        if not 2 <= order <= GH_MAX_ORDER:
            raise InputError(f"gauss_hermite order must lie in [2, {GH_MAX_ORDER}], got {order}")
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


def _rowwise(fn):
    """A per-point callable mapped over the rows of a stack of points."""

    def stacked(x):
        rows = x.reshape(-1, x.shape[-1])
        out = np.stack([np.atleast_1d(np.asarray(fn(row), dtype=float)) for row in rows])
        return out.reshape(x.shape[:-1] + out.shape[1:])

    return stacked


class VectorFieldFn:
    """A C^1 (optionally C^2) map R^n -> R^d with derivative oracles.

    Values are (d,), gradients (d, n), Hessians (d, n, n) at one point,
    shape (n,); a stack of points, shape (N, n), adds a leading axis of
    length N.  The value callable given here takes one point and is mapped
    over the rows of a stack; its gradient and Hessian are central first
    differences (step ``FD_STEP``) of the value and of the gradient.
    :meth:`polynomial` evaluates whole stacks, with exact derivatives.
    """

    def __init__(self, n, d, value):
        self.n = int(n)
        self.d = int(d)
        self._value = _rowwise(value)
        self._grad = self._hess = None

    def _points(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n,):
            raise InputError(f"points of shape {x.shape} do not have the test function's "
                             f"n = {self.n} coordinates")
        return x

    def value(self, x) -> np.ndarray:
        x = self._points(x)
        out = np.asarray(self._value(x), dtype=float)
        if out.shape != x.shape[:-1] + (self.d,):
            raise InputError(f"vector field value has shape {out.shape}, "
                             f"want {x.shape[:-1] + (self.d,)}")
        return out

    def grad(self, x) -> np.ndarray:
        x = self._points(x)
        if self._grad is not None:
            return self._grad(x)
        _, d1, _ = central_differences(self.value, x, FD_STEP, second=False)
        return d1.swapaxes(-1, -2)

    def hess(self, x) -> np.ndarray:
        x = self._points(x)
        if self._hess is not None:
            return self._hess(x)
        _, d1, _ = central_differences(self.grad, x, FD_STEP, second=False)
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

        @cache
        def hess_terms():
            # built on first use: a variance or energy pass never asks for Hessians
            return poly_stack([poly_diff(g, k) for row in grads for g in row for k in range(n)])

        def value(x):
            return poly_eval(value_terms, x)

        def grad(x):
            out = poly_eval(grad_terms, x)
            return out.reshape(out.shape[:-1] + (d, n))

        def hess(x):
            out = poly_eval(hess_terms(), x)
            return out.reshape(out.shape[:-1] + (d, n, n))

        fn = cls(n, d, value)
        fn._value, fn._grad, fn._hess = value, grad, hess  # stack-native, not row-mapped
        return fn


def _node_values(field: MatrixField, rule: QuadratureRule) -> np.ndarray:
    if field.n != rule.m:
        raise InputError("field and rule dimensions differ")
    return field.value(rule.nodes)


def _frobenius(a: np.ndarray) -> float:
    """sqrt(a . a) over every entry: ``np.linalg.norm(a)``'s arithmetic, bit for bit."""
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _caller_stacklevel() -> int:
    """The ``warnings.warn`` stacklevel, for a warning issued by this function's
    caller, of the first frame outside the mlcc package (counted frame by frame:
    ``skip_file_prefixes`` needs Python 3.12)."""
    frame, level = sys._getframe(2), 2
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == "mlcc":
        frame, level = frame.f_back, level + 1
    return level


def _tail_check(rule: QuadratureRule, terms, total) -> None:
    tail = _frobenius(terms[rule.outermost])
    bulk = _frobenius(total)
    if bulk > 0 and tail > TAIL_WARN_REL * bulk:
        warnings.warn(
            "outermost quadrature node still carries relative weight "
            f"{tail / bulk:.2e}; the rule may not cover the integrand's support",
            stacklevel=_caller_stacklevel(),
        )


def _spd_integral(total: np.ndarray) -> SpdMatrix:
    """An integral of g, validated positive definite (else a QuadratureError)."""
    try:
        return SpdMatrix(total)
    except Exception as exc:
        raise QuadratureError(
            "integrated field is not positive definite; the rule is too coarse "
            "or the field is not integrable"
        ) from exc


def _integral(rule: QuadratureRule, values: np.ndarray) -> SpdMatrix:
    """sum_i w_i values_i, validated positive definite, with the tail check.

    The path of every integral of g over a rule but route B's fused sums,
    which share its check (``_spd_integral``), and so the gate on the weight
    of every quadrature check.  A weighted sum of exactly symmetric
    matrices is exactly symmetric, so the result's entries are the sum's bits.
    """
    terms = rule.weights[:, None, None] * values
    total = pairwise_sum(terms)
    _tail_check(rule, terms, total)
    return _spd_integral(total)


def _check_test_fns(field: MatrixField, *fns: VectorFieldFn) -> None:
    """Each test function maps the field's n variables to its d components, else
    an InputError (before any node is evaluated)."""
    for f in fns:
        if f.n != field.n:
            raise InputError(f"test function takes {f.n} variables but the field has {field.n}")
        if f.d != field.d:
            raise InputError(f"test function has {f.d} components but the field needs {field.d}")


def _moments(g: np.ndarray, val: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """sum_i w_i g_i F_i and sum_i w_i F_i . g_i F_i, from one pairwise tree.

    g F is an einsum over the node stack (a stacked ``@`` costs ~3x more on
    2 x 2 matrices); the tree adds column by column, so the two sums carry
    the bits of two separate trees.
    """
    gf = np.einsum("nab,nb->na", g, val)
    cols = np.concatenate([gf, np.sum(val * gf, axis=-1)[:, None]], axis=1)
    sums = pairwise_sum(w[:, None] * cols)
    return sums[:-1], float(sums[-1])


def integrate_field(field: MatrixField, rule: QuadratureRule) -> SpdMatrix:
    """sum_i w_i g(node_i), validated positive definite."""
    return _integral(rule, _node_values(field, rule))


def weighted_mean(field: MatrixField, f: VectorFieldFn, rule: QuadratureRule) -> np.ndarray:
    """Z^{-1} * sum_i w_i g(node_i) F(node_i)."""
    _check_test_fns(field, f)
    g = _node_values(field, rule)
    z = _integral(rule, g)
    mean, _ = _moments(g, f.value(rule.nodes), rule.weights)
    return np.linalg.solve(z.entries, mean)


def _weighted_values(field: MatrixField, rule: QuadratureRule):
    """g at the rule's nodes and Z = sum_i w_i g(node_i), both read-only (g as
    ``field.value`` returns it), Z checked by ``_integral``."""
    g = _node_values(field, rule)
    return g, _integral(rule, g).entries


def variance_functional(
    field: MatrixField,
    f: VectorFieldFn,
    rule: QuadratureRule,
    evaluator: DirichletEvaluator | None = None,
) -> float:
    """Weighted variance of F: int ||F||_g^2 - ||Z^{-1} int gF||_Z^2.

    With an ``evaluator`` (built on this very field and rule, else an
    InputError), g and Z come from its node cache and only F is evaluated.
    """
    _check_test_fns(field, f)
    if evaluator is None:
        g, z = _weighted_values(field, rule)
    elif evaluator.field is not field or evaluator.rule is not rule:
        raise InputError("the DirichletEvaluator was built on another field or rule; "
                         "build one on the field and rule of the check")
    else:
        g, z = evaluator.g, evaluator.z
    mean, second = _moments(g, f.value(rule.nodes), rule.weights)
    return second - float(mean @ np.linalg.solve(z, mean))


class DirichletEvaluator:
    """The node cache of one field and rule, reusable across test functions.

    Built once: g at every node (``g``, by ``field.value``) and its integral
    ``z`` = sum_i w_i g(node_i), both read-only, for ``variance_functional``
    (``z`` from ``_integral``: not positive definite, a QuadratureError);
    and the polar operators of -Theta, from one curvature stack over the
    nodes, for :meth:`energy`.  A node off the SPD cone raises
    NotPositiveError, one where -Theta is indefinite NotPsdError.
    """

    def __init__(self, field: MatrixField, rule: QuadratureRule):
        self.field = field
        self.rule = rule
        self.g, self.z = _weighted_values(field, rule)
        self._polar = _polar_over_nodes(field, rule)

    def energy(self, f: VectorFieldFn, rel_null_tol: float = DEFAULT_NULL_TOL) -> ExtendedReal:
        """int Q°(grad F); infinite when grad F leaves the range of -Theta at any
        node, null directions judged relative to ``rel_null_tol``."""
        _check_test_fns(self.field, f)
        return _energy(self._polar, self.rule, f, rel_null_tol)


def _polar_over_nodes(field: MatrixField, rule: QuadratureRule) -> PolarOperator:
    """The polar operators of -Theta at the rule's nodes, from one curvature stack."""
    if field.n != rule.m:
        raise InputError("field and rule dimensions differ")
    cm = curvature_matrix(field, rule.nodes)
    return PolarOperator(QuadraticFormSpec(cm.g, -cm.theta_tilde))


def _energy(polar: PolarOperator, rule: QuadratureRule, f: VectorFieldFn,
            rel_null_tol: float) -> ExtendedReal:
    grad = f.grad(rule.nodes)  # (N, d, n)
    v = grad.swapaxes(-1, -2).reshape(grad.shape[0], -1)  # flatten (j, l) -> j*d + l
    values = polar.value(v, rel_null_tol)
    if np.isinf(values).any():
        return ExtendedReal.infinite()
    return ExtendedReal(float(pairwise_sum(rule.weights * values)))


def dirichlet_energy(
    field: MatrixField,
    f: VectorFieldFn,
    rule: QuadratureRule,
) -> ExtendedReal:
    """int Q°_{id_n (x) g, -Theta}(grad F) dx, infinite on degenerate directions
    (null directions judged at ``DEFAULT_NULL_TOL``).

    One-shot: one curvature stack over the nodes, without the evaluator's
    cache of g and Z, which the energy never reads.
    """
    _check_test_fns(field, f)
    return _energy(_polar_over_nodes(field, rule), rule, f, DEFAULT_NULL_TOL)
