"""The Brascamp-Lieb node pass against the formulas it replaced.

``variance_functional`` and ``weighted_mean`` form g F by an einsum over the
node stack and reduce the mean vector and the second moment in one pairwise
tree; ``PolarOperator.value`` forms a stack's eigencoordinates by einsum.
The references are the replaced formulas: stacked ``@`` products and two
separate trees.  Both sides multiply the same numbers, but a BLAS product may
fuse a multiply and an add, so they agree to the last bits, not bit for bit.
"""

import numpy as np
import pytest

from mlcc import (
    DirichletEvaluator,
    MatrixField,
    QuadraticFormSpec,
    SpdMatrix,
    VectorFieldFn,
    bl_gap,
    build_rule,
    builtin_field,
    curvature_matrix,
    pairwise_sum,
    variance_functional,
    weighted_mean,
)
from mlcc.metric import PolarOperator
from mlcc.quadrature import _moments
from test_node_pass import CASES

pytestmark = pytest.mark.filterwarnings("ignore:outermost quadrature node")

#: Largest relative difference from the replaced formulas.
REL = 1e-15

#: (field, params, F) on top of test_node_pass's CASES.
FIELDS = {name: (params, f) for name, (params, f, _) in CASES.items()}
FIELDS["gaussian_scalar_n2"] = ({"n": 2}, [[(1.0, (2, 1)), (-0.5, (0, 3)), (0.3, (1, 0))]])
JET_MODES = ["exact", "finite_difference"]

#: Scalar weight e^{-x1^2}, constant along x2: F = x2 leaves the range of -Theta.
DEGENERATE = MatrixField(2, 1, [(1.0, (2, 0))], [((0, 0), np.eye(1))])


def _field(name, jet_mode):
    params, _ = FIELDS[name]
    field_name = name.removesuffix("_n2")
    return builtin_field(field_name, params).with_jet_mode(jet_mode)


def _callable(poly: VectorFieldFn) -> VectorFieldFn:
    """The same F as a per-point callable: value mapped row by row, fd derivatives."""
    return VectorFieldFn(poly.n, poly.d, lambda x: poly.value(x))


def _test_fns(name, n):
    poly = VectorFieldFn.polynomial(n, FIELDS[name][1])
    return {"polynomial": poly, "callable": _callable(poly)}


def _close(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    np.testing.assert_array_equal(np.isinf(got), np.isinf(ref))
    fin = np.isfinite(ref)
    np.testing.assert_allclose(got[fin], ref[fin], rtol=REL, atol=0.0)


def _moments_as_before(g, val, w):
    gf = (g @ val[..., None])[..., 0]
    return pairwise_sum(w[:, None] * gf), float(pairwise_sum(w * np.sum(val * gf, axis=-1)))


def _variance_as_before(ev, f):
    mean, second = _moments_as_before(ev.g, f.value(ev.rule.nodes), ev.rule.weights)
    return second - float(mean @ np.linalg.solve(ev.z, mean))


def _polar_as_before(polar, v, rel_null_tol):
    c2 = (polar._coord_map @ v[..., None])[..., 0] ** 2
    denominators, off_range = polar._denominators_and_off_range(c2, rel_null_tol)
    out = (c2 / denominators).sum(-1)
    return out if off_range is None else np.where(off_range, np.inf, out)


def _energy_as_before(ev, f, rel_null_tol):
    grad = f.grad(ev.rule.nodes)
    v = grad.swapaxes(-1, -2).reshape(grad.shape[0], -1)
    values = _polar_as_before(ev._polar, v, rel_null_tol)
    return np.inf if np.isinf(values).any() else float(pairwise_sum(ev.rule.weights * values))


def _evaluator(field):
    return DirichletEvaluator(field, build_rule("gauss_hermite", order=12, m=field.n))


@pytest.mark.parametrize("kind", ["polynomial", "callable"])
@pytest.mark.parametrize("jet_mode", JET_MODES)
@pytest.mark.parametrize("name", sorted(FIELDS))
class TestAgainstTheReplacedFormulas:
    def test_variance_and_weighted_mean(self, name, jet_mode, kind):
        field = _field(name, jet_mode)
        ev = _evaluator(field)
        f = _test_fns(name, field.n)[kind]
        _close(variance_functional(field, f, ev.rule, ev), _variance_as_before(ev, f))
        _close(variance_functional(field, f, ev.rule), _variance_as_before(ev, f))
        mean, _ = _moments_as_before(ev.g, f.value(ev.rule.nodes), ev.rule.weights)
        _close(weighted_mean(field, f, ev.rule), np.linalg.solve(ev.z, mean))

    @pytest.mark.parametrize("rel_null_tol", [1e-10, 1e-4])
    def test_energy_and_bl_gap(self, name, jet_mode, kind, rel_null_tol):
        field = _field(name, jet_mode)
        ev = _evaluator(field)
        f = _test_fns(name, field.n)[kind]
        rhs = _energy_as_before(ev, f, rel_null_tol)
        _close(ev.energy(f, rel_null_tol).value, rhs)
        report = bl_gap(field, f, ev.rule, rel_null_tol, ev)
        _close([report.metrics["lhs"], report.metrics["rhs"]], [_variance_as_before(ev, f), rhs])


@pytest.mark.parametrize("rel_null_tol", [1e-10, 1e-4])
def test_an_infinite_energy_matches_the_replaced_formulas(rel_null_tol):
    ev = _evaluator(DEGENERATE)
    f = VectorFieldFn.polynomial(2, [[(1.0, (0, 1))]])
    assert _energy_as_before(ev, f, rel_null_tol) == np.inf
    report = bl_gap(DEGENERATE, f, ev.rule, rel_null_tol, ev)
    assert report.status == "degenerate" and report.metrics["rhs"] == np.inf
    _close(report.metrics["lhs"], _variance_as_before(ev, f))


def test_one_tree_carries_the_two_trees_bits():
    """The tree adds column by column: the fused sums are the separate sums' bits
    once the products are the same."""
    rng = np.random.default_rng(3)
    for count in (1, 2, 7, 64, 2304):
        g = rng.standard_normal((count, 3, 3))
        val, w = rng.standard_normal((count, 3)), rng.uniform(0.1, 1.0, count)
        gf = np.einsum("nab,nb->na", g, val)
        mean, second = _moments(g, val, w)
        assert mean.tobytes() == pairwise_sum(w[:, None] * gf).tobytes()
        assert second == float(pairwise_sum(w * np.sum(val * gf, axis=-1)))


@pytest.mark.parametrize("name,params", [("perturbed_gaussian_spd", {}),
                                         ("gaussian_cross_spd", {"c": 0.5, "d": 2}),
                                         ("gaussian_times_spd", {"n": 1})])
def test_stacked_and_one_node_polar_values_agree(name, params):
    field = builtin_field(name, params)
    xs = np.random.default_rng(7).uniform(-0.8, 0.8, (9, field.n))
    cm = curvature_matrix(field, xs)
    polar = PolarOperator(QuadraticFormSpec(cm.g, -cm.theta_tilde))
    vs = np.random.default_rng(8).standard_normal((9, field.n * field.d))
    stacked = polar.value(vs)
    _close(stacked, _polar_as_before(polar, vs, 1e-10))
    for i in range(9):
        one = PolarOperator(QuadraticFormSpec(SpdMatrix(cm.g.entries[i]), -cm.theta_tilde[i]))
        assert one.value(vs[i]).value == stacked[i]
