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
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from ._poly import Poly, poly_degrees, poly_diff, poly_rows
from .curvature import curvature_matrix
from .errors import NODE_BUDGET, BudgetError, InputError, QuadratureError, _UnderflowError
from .fields import MatrixField, _whole_number, central_differences
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


def _per_axis(key: str, value, m: int) -> np.ndarray:
    """``value`` as one float per axis of m, from a number or m of them; else an
    InputError naming ``key``."""
    try:
        return np.broadcast_to(np.asarray(value, dtype=float), (m,))
    except (TypeError, ValueError):
        raise InputError(f"{key} must be a number or {m} of them, one per axis, got "
                         f"{value!r}") from None


def build_rule(kind: str, **params) -> QuadratureRule:
    """Build a tensor-product rule.

    gauss_hermite: order (2 to ``GH_MAX_ORDER`` = 370), m, center (finite,
    scalar or per-axis), scale (finite and > 0).
    uniform_grid: box (a list of one finite (lo, hi) pair per axis, lo < hi),
    resolution (>= 2 points per axis), trapezoid weights.  order, m and resolution are
    whole numbers (64.0 is one; 8.9, "12" and True are not), and every parameter is
    checked before any node is computed: a missing or malformed one is an InputError
    that names it.
    """
    if kind == "gauss_hermite":
        order = _whole_number("order", params.get("order", 64))
        m = _rule_dimension(_whole_number("m", params.get("m", 1)))
        if not 2 <= order <= GH_MAX_ORDER:
            raise InputError(f"gauss_hermite order must lie in [2, {GH_MAX_ORDER}], got {order}")
        if order**m > NODE_BUDGET:
            raise BudgetError(f"{order}^{m} nodes exceed the budget of {NODE_BUDGET}")
        center = _per_axis("center", params.get("center", 0.0), m)
        scale = _per_axis("scale", params.get("scale", 1.0), m)
        if not np.isfinite(center).all():
            raise InputError(f"center must be finite, got {params['center']}")
        if not np.isfinite(scale).all():
            raise InputError(f"scale must be finite, got {params['scale']}")
        if not (scale > 0).all():
            raise InputError("scale must be positive")
        axes = [_gauss_hermite_axis(order, center[i], scale[i]) for i in range(m)]
    elif kind == "uniform_grid":
        for key in ("box", "resolution"):
            if key not in params:
                raise InputError(f"uniform_grid needs {key!r}")
        try:
            box = [(float(lo), float(hi)) for lo, hi in params["box"]]
        except (TypeError, ValueError):
            raise InputError(f"box must be a list of (lo, hi) pairs, one per axis, got "
                             f"{params['box']!r}") from None
        for lo, hi in box:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise InputError(f"box must be finite with lo < hi on every axis, got "
                                 f"({lo!r}, {hi!r})")
        resolution = _whole_number("resolution", params["resolution"])
        if resolution < 2:
            raise InputError("resolution must be >= 2")
        m = _rule_dimension(len(box))
        if resolution**m > NODE_BUDGET:
            raise BudgetError("grid exceeds the node budget")
        axes = []
        for lo, hi in box:
            pts = np.linspace(lo, hi, resolution)
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
        d1, _ = central_differences(self.value, x, FD_STEP, second=False)
        return d1.swapaxes(-1, -2)

    def hess(self, x) -> np.ndarray:
        x = self._points(x)
        if self._hess is not None:
            return self._hess(x)
        d1, _ = central_differences(self.grad, x, FD_STEP, second=False)
        out = np.moveaxis(d1, -3, -1)
        return 0.5 * (out + out.swapaxes(-1, -2))

    @classmethod
    def polynomial(cls, n: int, components) -> "VectorFieldFn":
        """Exact polynomial vector field; ``components[l]`` is a term list.

        ``n`` is an int >= 1 and there is at least one component; a term that is not a
        ``(coeff, degs)`` pair with a real coefficient (named with its component), a coefficient
        that is not finite and degrees that ``poly_degrees`` refuses are InputErrors.  F is
        collected as the terms are read, by ``poly_collect``'s rule on rows (term t's
        coefficient in its component's column, 0.0 in the others), into a (T, d) block; d_j F
        and, on first use, d_k d_j F are ``poly_diff``'s, one ``poly_rows`` block each for a
        stack of points.  Values and gradients are node-first views of those node-last rows,
        (d, N) and (n, d, N) with row j d + l for d_j F_l, which the Brascamp-Lieb node pass
        reads with no copy; at one point, or as Hessians, they are contiguous.
        """
        components = list(components)
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1 or not components:
            raise InputError(f"a polynomial test function needs n >= 1 variables and at least "
                             f"one component, got n = {n!r} and {len(components)} components")

        d, rows = len(components), {}  # degrees -> row of F, in the order of first occurrence
        for l, comp in enumerate(components):
            for term in comp:
                try:
                    c, degs = term
                    c = float(c)
                except (TypeError, ValueError):
                    raise InputError(f"test function component {l}: term {term!r} is not a "
                                     "(coeff, degs) pair with a real coefficient") from None
                if not math.isfinite(c):
                    raise InputError(f"test function coefficients must be finite, got {c!r}")
                row = [0.0] * d
                row[l] = c
                if (old := rows.setdefault(poly_degrees(degs, n), row)) is not row:
                    old[:] = [a + b for a, b in zip(old, row)]  # the whole row, from the left
        poly = Poly(np.array(list(rows), dtype=np.int64).reshape(-1, n),
                    np.array(list(rows.values())).reshape(-1, d))
        grads = [poly_diff(poly, j) for j in range(n)]
        hessians = None  # built on first use: a variance or energy pass never asks for them

        def value(x):
            return poly_rows([poly], x)[0].T.reshape(x.shape[:-1] + (d,))

        def grad(x):
            rows = poly_rows(grads, x).T  # (N, d, n)
            return rows.reshape(x.shape[:-1] + (d, n)) if x.ndim > 1 else rows[0].copy()

        def hess(x):
            nonlocal hessians
            if hessians is None:  # part j n + k is d_k d_j F
                hessians = [poly_diff(g, k) for g in grads for k in range(n)]
            rows = poly_rows(hessians, x).reshape(n, n, d, -1).transpose(3, 2, 0, 1)
            return np.ascontiguousarray(rows).reshape(x.shape[:-1] + (d, n, n))

        fn = cls(n, d, value)
        fn._value, fn._grad, fn._hess = value, grad, hess  # stack-native, not row-mapped
        return fn


@contextmanager
def _rule_nodes():
    """Around an evaluation at a rule's nodes: a weight that underflows there says which
    flags move the nodes in, which a pointwise command does not take."""
    try:
        yield
    except _UnderflowError as exc:
        raise _UnderflowError(f"{exc}; a quadrature rule reaching this far into the tail "
                              "needs a lower --order or --scale", exc.index) from None


def _node_values(field: MatrixField, rule: QuadratureRule) -> np.ndarray:
    if field.n != rule.m:
        raise InputError("field and rule dimensions differ")
    with _rule_nodes():
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


def _integral(rule: QuadratureRule, values: np.ndarray, *integrands: np.ndarray) -> tuple:
    """(Z, then sum_i w_i a_i for each further node stack a): Z = sum_i w_i values_i,
    validated positive definite (else a QuadratureError), with the tail check.

    The path of every weighted sum of a quadrature check, and so the gate on
    its weight.  The stacks' entries are the columns of one block, summed by
    one pairwise tree that adds column by column, so each sum keeps the bits
    of a tree of its own; each is read off the tree's output at its running
    offset.  A weighted sum of exactly symmetric matrices is exactly
    symmetric, so Z's entries are the sum's bits.
    """
    stacks = (values, *integrands)
    terms = rule.weights[:, None] * np.concatenate(
        [a.reshape(rule.count, -1) for a in stacks], axis=1)
    total, sums, start = pairwise_sum(terms), [], 0
    for a in stacks:
        sums.append(total[start:start + a[0].size].reshape(a.shape[1:]))
        start += a[0].size
    _tail_check(rule, terms[:, :values[0].size], sums[0])
    try:
        sums[0] = SpdMatrix(sums[0])
    except Exception as exc:
        raise QuadratureError(
            "integrated field is not positive definite; the rule is too coarse "
            "or the field is not integrable"
        ) from exc
    return tuple(sums)


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

    g (N, d, d) and F (N, d) are read with the node axis last: g F is the
    einsum "abn,bn->an" of their transposes, written into the first d rows of
    one (d + 1, N) block and F . g F into its last.  On g stored as (d, d, N)
    rows (``_weighted_values``), the einsum's inner loop runs over the N
    nodes, not over a row's d entries, and no columns are concatenated: at
    GH 48^2 the whole takes half the time it took node-first.  The tree runs
    over the block's (N, d + 1) transpose and adds column by column, so the
    two sums carry the bits of two separate trees.  A polynomial F
    (``VectorFieldFn.polynomial``) is a node-first view of contiguous (d, N)
    rows, so ``val.T`` is read as rows too, with no copy.
    """
    d = val.shape[-1]
    block = np.empty((d + 1, val.shape[0]))
    gf = np.einsum("abn,bn->an", g.transpose(1, 2, 0), val.T, out=block[:d])
    np.sum(val.T * gf, axis=0, out=block[d])
    sums = pairwise_sum((w * block).T)
    return sums[:-1], float(sums[-1])


def integrate_field(field: MatrixField, rule: QuadratureRule) -> SpdMatrix:
    """sum_i w_i g(node_i), validated positive definite."""
    return _integral(rule, _node_values(field, rule))[0]


def weighted_mean(field: MatrixField, f: VectorFieldFn, rule: QuadratureRule) -> np.ndarray:
    """Z^{-1} * sum_i w_i g(node_i) F(node_i)."""
    _check_test_fns(field, f)
    g, z = _weighted_values(field, rule)
    mean, _ = _moments(g, f.value(rule.nodes), rule.weights)
    return np.linalg.solve(z, mean)


def _weighted_values(field: MatrixField, rule: QuadratureRule):
    """g at the rule's nodes and Z = sum_i w_i g(node_i), both read-only, Z checked
    by ``_integral``.  g is stored node axis last, as contiguous (d, d, N) rows
    (``_moments`` reads it so), and returned as their node-first (N, d, d) view."""
    rows = np.ascontiguousarray(np.moveaxis(_node_values(field, rule), 0, -1))
    rows.setflags(write=False)
    g = np.moveaxis(rows, -1, 0)
    return g, _integral(rule, g)[0].entries


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

    Both caches keep the node axis last, as contiguous rows: g as (d, d, N)
    behind the node-first (N, d, d) view ``g``, the polar operators'
    eigencoordinates as (dn, dn, N) (see :class:`PolarOperator`).  Every
    check contracts them over the tiny d and dn, so NumPy's inner loops run
    over the N nodes instead, not over a short matrix axis.
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
    with _rule_nodes():
        cm = curvature_matrix(field, rule.nodes)
    return PolarOperator(QuadraticFormSpec(cm.g, -cm.theta_tilde))


def _energy(polar: PolarOperator, rule: QuadratureRule, f: VectorFieldFn,
            rel_null_tol: float) -> ExtendedReal:
    grad = f.grad(rule.nodes)  # (N, d, n); a polynomial F's is a view of (n, d, N) rows
    # node axis last, (j, l) -> row j*d + l: those rows, or one copy of a callable's gradient
    rows = grad.transpose(2, 1, 0).reshape(-1, grad.shape[0])
    values = polar.value(rows.T, rel_null_tol)
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
