"""Reference tests for the shared numerics: the metric pencil, exact jets,
read-only polynomial coefficients, the central-difference stencil, the
Prekopa route B matrices, the stacked node axis, the stacked rank-one
search, the DirichletEvaluator's node cache, the Prekopa check's one
fiber pass, polynomial evaluation, the polar operator's null split and
the builtins built from an array of parameter values.

The references are the formulas the shared helpers replaced: a dense
generalized eigensolve against the block-diagonal metric id_n (x) g,
symbolic differentiation of e^{-q} P, route B evaluated one V0 at a time
as fiber curvature plus the variance of a vector field, and the quadrature
passes, the Prekopa fiber pass (gate and Schur margin) and the residual
checks as loops over the nodes, one point per call, and the Griffiths
search as a loop over its starts (and, when n = d = 2, as a 40-digit mpmath
maximum over one angle); ``poly_eval`` as the point-major sum of
term-by-term ``**`` powers it was before it went coefficient-major; a
builtin built from an array of values as one build per value.
"""

import gc
import json
from itertools import product

import numpy as np
import pytest

import mlcc.cli
import mlcc.curvature
import mlcc.inequalities
from mlcc import (
    ColumnBlockMatrix,
    DirichletEvaluator,
    CurvatureMatrix,
    InputError,
    NotPositiveError,
    NotPsdError,
    QuadraticFormSpec,
    SpdMatrix,
    SymmetryError,
    VectorFieldFn,
    bl_gap,
    block_split,
    bochner_residual,
    build_rule,
    builtin_field,
    conjugate_field,
    curvature_matrix,
    dirichlet_energy,
    generalized_spectrum,
    griffiths_check,
    griffiths_min_gap,
    integrate_field,
    ipp_residual,
    marginal_theta_fd,
    nakano_verdict,
    pairwise_sum,
    polynomial_field_from_json,
    prekopa_check,
    restrict_field,
    schur_gap,
    tensor_inner,
    theta_alpha_decomposed,
    variance_functional,
    weighted_laplacian,
    weighted_mean,
)
from conftest import poly_of, poly_terms, poly_written
from mlcc._poly import poly_diff, poly_eval, poly_substitute_prefix
from mlcc.curvature import curvature_from_jet
from mlcc.fields import MatrixField
from mlcc.inequalities import _schur_margin
from mlcc.metric import PolarOperator, metric_pencil

from conftest import random_orthogonal

FIXTURES = [
    ("raufi_corrected", {"s": 0.75}),
    ("perturbed_gaussian_spd", {}),
    ("gaussian_cross_spd", {"c": 0.5, "d": 2}),
]


def _points(seed, count=4, radius=0.3):
    rng = np.random.default_rng(seed)
    return rng.uniform(-radius, radius, (count, 2))


class TestMetricPencil:
    @pytest.mark.parametrize("name,params", FIXTURES)
    def test_spectrum_matches_dense_generalized_eigh(self, name, params):
        linalg = pytest.importorskip("scipy.linalg")
        field = builtin_field(name, params)
        for x in _points(7):
            cm = curvature_matrix(field, x)
            metric = np.kron(np.eye(cm.n), cm.g.entries)
            ref = linalg.eigh(cm.theta_tilde, metric, eigvals_only=True)
            scale = np.abs(ref).max()
            np.testing.assert_allclose(generalized_spectrum(cm), ref, rtol=0, atol=1e-12 * scale)
            assert nakano_verdict(cm).lambda_max == pytest.approx(ref[-1], rel=1e-12,
                                                                  abs=1e-12 * scale)

    @pytest.mark.parametrize("name,params", FIXTURES)
    def test_polar_operator_matches_dense_generalized_eigh(self, name, params):
        linalg = pytest.importorskip("scipy.linalg")
        field = builtin_field(name, params)
        rng = np.random.default_rng(11)
        for x in _points(13, radius=0.1):
            cm = curvature_matrix(field, x)
            metric = np.kron(np.eye(cm.n), cm.g.entries)
            lam, w = linalg.eigh(-cm.theta_tilde, metric)
            polar = PolarOperator(QuadraticFormSpec(cm.g, -cm.theta_tilde))
            np.testing.assert_allclose(polar.eigenvalues, lam, rtol=1e-12)
            for _ in range(3):
                v = rng.standard_normal(cm.dim)
                ref = float(np.sum((w.T @ metric @ v) ** 2 / lam))
                assert polar.value(v).value == pytest.approx(ref, rel=1e-12)


def _random_field_spec(rng):
    """A random N = 2, d = 2 polynomial field with envelope, in the JSON schema."""
    monos = [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2], [2, 1]]

    def poly(const):
        return [[const + float(rng.uniform(-0.5, 0.5)) if m == [0, 0]
                 else float(rng.uniform(-0.5, 0.5)), m] for m in monos]

    q = [[float(rng.uniform(0.2, 1.0)), [2, 0]], [float(rng.uniform(0.2, 1.0)), [0, 2]],
         [float(rng.uniform(-0.2, 0.2)), [1, 1]], [float(rng.uniform(-0.3, 0.3)), [1, 0]]]
    return {"n": 2, "d": 2, "q": q,
            "entries": {"1,1": poly(3.0), "1,2": poly(0.0), "2,2": poly(3.0)}}


def _sympy_weight(sp, x, spec):
    def poly(monomials):
        return sum(sp.Float(c) * x[0] ** a * x[1] ** b for c, (a, b) in monomials)

    p = sp.Matrix(2, 2, lambda i, j: poly(spec["entries"][f"{min(i, j) + 1},{max(i, j) + 1}"]))
    return sp.exp(-poly(spec["q"])) * p


class TestExactJetAgainstSympy:
    def _check(self, sp, field, weight, x_sym, points):
        d1 = [weight.diff(xj) for xj in x_sym]
        d2 = [[weight.diff(xj, xk) for xk in x_sym] for xj in x_sym]
        for x in points:
            jet = field.jet(x)
            subs = dict(zip(x_sym, map(float, x)))

            def num(m):
                return np.array(m.evalf(30, subs=subs).tolist(), dtype=float)

            ref_value = num(weight)
            scale = np.abs(ref_value).max()
            np.testing.assert_allclose(jet.value.entries, ref_value, rtol=1e-12,
                                       atol=1e-12 * scale)
            for j in range(2):
                np.testing.assert_allclose(jet.d1[j], num(d1[j]), rtol=1e-12, atol=1e-12 * scale)
                for k in range(2):
                    np.testing.assert_allclose(jet.d2[j, k], num(d2[j][k]), rtol=1e-12,
                                               atol=1e-12 * scale)

    def test_perturbed_gaussian_spd(self):
        sp = pytest.importorskip("sympy")
        x1, x2 = sp.symbols("x1 x2")
        eps = sp.Rational(1, 50)
        b = sp.Matrix([[sp.Rational(3, 10), sp.Rational(1, 10)],
                       [sp.Rational(1, 10), sp.Rational(-2, 10)]])
        weight = sp.exp(-(x1**2 + x2**2)) * (sp.eye(2) + eps * (x1 + x2) * b)
        field = builtin_field("perturbed_gaussian_spd")
        self._check(sp, field, weight, (x1, x2), _points(3, radius=1.0))

    def test_random_polynomial_field_with_envelope(self):
        sp = pytest.importorskip("sympy")
        x1, x2 = sp.symbols("x1 x2")
        spec = _random_field_spec(np.random.default_rng(5))
        field = polynomial_field_from_json(spec)
        self._check(sp, field, _sympy_weight(sp, (x1, x2), spec), (x1, x2),
                    _points(17, radius=0.5))


class TestCoefficientsUnchanged:
    def test_field_operations_leave_coefficients_alone(self):
        field = builtin_field("perturbed_gaussian_spd")
        before = [(c.copy(), degs) for c, degs in poly_terms(field._p)]
        x = np.array([0.3, -0.2])
        field.value(x)
        field.jet(x)
        field.with_jet_mode("finite_difference").jet(x)
        restrict_field(field, [0.4]).jet(np.array([0.1]))
        conjugate_field(field, np.array([[0.0, 1.0], [1.0, 0.0]])).value(x)
        assert not field._p.coeffs.flags.writeable and not field._p.exps.flags.writeable
        for (c, degs), (c0, degs0) in zip(poly_terms(field._p), before):
            assert degs == degs0
            np.testing.assert_array_equal(c, c0)

    def test_term_list_helpers_do_not_mutate_arrays(self):
        a = np.array([[1.0, 2.0], [2.0, 5.0]])
        poly = poly_of([(a, (0, 0)), (a.copy(), (1, 2))])
        np.testing.assert_array_equal(poly_eval(poly, [2.0, 3.0]), 19.0 * a)
        poly_substitute_prefix(poly, [2.0])
        poly_diff(poly, 1)
        for c, _ in poly_terms(poly):
            np.testing.assert_array_equal(c, [[1.0, 2.0], [2.0, 5.0]])
        np.testing.assert_array_equal(poly.exps, [[0, 0], [1, 2]])
        np.testing.assert_array_equal(a, [[1.0, 2.0], [2.0, 5.0]])

    def test_empty_derivative_keeps_coefficient_shape(self):
        zero = poly_eval(poly_diff(poly_of([(np.eye(3), (0, 1))]), 0), [0.5, 0.5])
        np.testing.assert_array_equal(zero, np.zeros((3, 3)))
        frozen = poly_substitute_prefix(poly_of([(np.eye(3), (1, 1))]), [0.0])
        np.testing.assert_array_equal(poly_eval(frozen, [0.5]), np.zeros((3, 3)))


def test_marginal_jet_evaluates_the_centre_once(monkeypatch):
    calls = []
    original = mlcc.inequalities.integrate_field

    def counting(field, rule):
        calls.append(field)
        return original(field, rule)

    monkeypatch.setattr(mlcc.inequalities, "integrate_field", counting)
    field = builtin_field("gaussian_cross_spd", {"c": 0.5, "d": 2})
    marginal_theta_fd(field, [0.1], build_rule("gauss_hermite", order=32, m=1))
    assert len(calls) == 5


# -- Prekopa route B, one V0 at a time --------------------------------------------


def _mixed_vector_field(field, t, v0):
    """F(y) = sum_j (g^{-1} d_{t_j} g)(t, y) v_j as a function of y."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n0 = t.shape[0]

    def value(y):
        jet = field.jet(np.concatenate([t, np.atleast_1d(y)]))
        g = jet.value.entries
        out = np.zeros(field.d)
        for j in range(n0):
            out += np.linalg.solve(g, jet.d1[j]) @ v0.columns[j]
        return out

    return VectorFieldFn(field.n - n0, field.d, value)


def route_b_reference(field, t, v0, rule):
    """<Theta^alpha V0, V0> as (total, fiber term, variance term) for one V0."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    flat0 = v0.flatten()
    curv_terms = []
    for w, y in zip(rule.weights, rule.nodes):
        split = block_split(curvature_matrix(field, np.concatenate([t, y])), t.shape[0])
        curv_terms.append(w * float(flat0 @ split.theta00 @ flat0))
    term_curv00 = float(pairwise_sum(curv_terms))
    term_var = variance_functional(restrict_field(field, t), _mixed_vector_field(field, t, v0),
                                   rule)
    return term_curv00 + term_var, term_curv00, term_var


ROUTE_B_FIXTURES = [
    ("gaussian_cross_spd", {"c": 0.5, "d": 2}),
    ("perturbed_gaussian_spd", {}),
    ("gaussian_times_spd", {"n": 2, "A": np.diag([1.0, 2.0])}),
]


def _draws(rng, field, n0, count):
    return [ColumnBlockMatrix([rng.uniform(-1.0, 1.0, field.d) for _ in range(n0)])
            for _ in range(count)]


class TestRouteBMatrices:
    @pytest.mark.parametrize("name,params", ROUTE_B_FIXTURES)
    def test_quadratic_forms_match_the_per_v0_route(self, name, params):
        field = builtin_field(name, params)
        rule = build_rule("gauss_hermite", order=32, m=1)
        mats = theta_alpha_decomposed(field, [0.1], rule)
        for v0 in _draws(np.random.default_rng(23), field, 1, 10):
            v = v0.flatten()
            for m, ref in zip(mats, route_b_reference(field, [0.1], v0, rule)):
                tol = 1e-12 * max(1.0, abs(ref))
                assert float(v @ m @ v) == pytest.approx(ref, rel=0, abs=tol)

    @pytest.mark.parametrize("name,params", ROUTE_B_FIXTURES)
    def test_route_diff_bounds_the_sampled_value(self, name, params):
        # replays the sampled metric: 20 draws from [-1, 1]^{d n0} with seed 0
        field = builtin_field(name, params)
        rule = build_rule("gauss_hermite", order=32, m=1)
        report = prekopa_check(field, [0.1], 1, rule)
        cm_alpha = marginal_theta_fd(field, [0.1], rule)
        sampled = 0.0
        for v0 in _draws(np.random.default_rng(0), field, 1, 20):
            total = route_b_reference(field, [0.1], v0, rule)[0]
            q_a = cm_alpha.quadratic_form(v0)
            sampled = max(sampled, abs(q_a - total) / (1.0 + abs(total)))
        assert report.metrics["route_diff"] >= sampled - 1e-14


# -- the stacked node axis against the per-node loops it replaced -------------------


def integrate_field_loop(field, rule):
    return pairwise_sum([w * field.value(x) for w, x in zip(rule.weights, rule.nodes)])


def weighted_mean_loop(field, f, rule):
    z = integrate_field_loop(field, rule)
    terms = [w * (field.value(x) @ f.value(x)) for w, x in zip(rule.weights, rule.nodes)]
    return np.linalg.solve(z, pairwise_sum(terms))


def variance_functional_loop(field, f, rule):
    sq_terms, gf_terms, z_terms = [], [], []
    for w, x in zip(rule.weights, rule.nodes):
        g = field.value(x)
        val = f.value(x)
        gf = g @ val
        sq_terms.append(w * float(val @ gf))
        gf_terms.append(w * gf)
        z_terms.append(w * g)
    z = pairwise_sum(z_terms)
    gf = pairwise_sum(gf_terms)
    return float(pairwise_sum(sq_terms)) - float(gf @ np.linalg.solve(z, gf))


def energy_loop(field, f, rule, rel_null_tol=1e-10):
    terms = []
    for w, x in zip(rule.weights, rule.nodes):
        cm = curvature_matrix(field, x)
        polar = PolarOperator(QuadraticFormSpec(cm.g, -cm.theta_tilde))
        val = polar.value(f.grad(x).T.reshape(-1), rel_null_tol)
        if val.is_infinite:
            return np.inf
        terms.append(w * val.value)
    return float(pairwise_sum(terms))


def theta_alpha_decomposed_loop(field, t, rule):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n0, d = t.shape[0], field.d
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


def _close(got, ref, rel=1e-12):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert np.abs(got - ref).max() <= rel * max(np.abs(ref).max(), 1e-300)


def _cubic_fn(rng, n, d):
    monos = [e for e in np.ndindex(*(4,) * n) if sum(e) <= 3]
    return VectorFieldFn.polynomial(
        n, [[(float(rng.uniform(-1, 1)), tuple(e)) for e in monos] for _ in range(d)])


def _random_field():
    return polynomial_field_from_json(_random_field_spec(np.random.default_rng(5)))


STACK_FIXTURES = [
    # the bench fixtures (the 2-D one at a smaller order), a non-product Gaussian and
    # a random polynomial field with envelope, whose rule stays where it is SPD
    (lambda: builtin_field("perturbed_gaussian_spd"), 2, 16, 1.0),
    (lambda: builtin_field("gaussian_times_spd", {"n": 1, "A": np.diag([1.0, 2.0])}), 1, 64, 1.0),
    (lambda: builtin_field("gaussian_scalar", {"n": 1}), 1, 64, 1.0),
    (lambda: builtin_field("gaussian_cross_spd", {"c": 0.5, "d": 2}), 2, 12, 1.0),
    (_random_field, 2, 12, 0.25),
]


# the random field's rule does not cover its support; only the agreement matters here
@pytest.mark.filterwarnings("ignore:outermost quadrature node")
class TestStackedQuadrature:
    @pytest.mark.parametrize("make,m,order,scale", STACK_FIXTURES)
    def test_passes_match_the_node_loops(self, make, m, order, scale):
        field = make()
        rule = build_rule("gauss_hermite", order=order, m=m, scale=scale)
        ev = DirichletEvaluator(field, rule)
        rng = np.random.default_rng(order)
        _close(integrate_field(field, rule).entries, integrate_field_loop(field, rule))
        for _ in range(3):
            fn = _cubic_fn(rng, field.n, field.d)
            _close(weighted_mean(field, fn, rule), weighted_mean_loop(field, fn, rule))
            _close(variance_functional(field, fn, rule), variance_functional_loop(field, fn, rule))
            _close(ev.energy(fn).value, energy_loop(field, fn, rule))

    @pytest.mark.parametrize("name,params", ROUTE_B_FIXTURES)
    def test_theta_alpha_decomposed_matches_the_node_loop(self, name, params):
        field = builtin_field(name, params)
        rule = build_rule("gauss_hermite", order=32, m=1)
        for got, ref in zip(theta_alpha_decomposed(field, [0.1], rule),
                            theta_alpha_decomposed_loop(field, [0.1], rule)):
            _close(got, ref)

    def test_theta_alpha_decomposed_random_field(self):
        field = _random_field()
        rule = build_rule("gauss_hermite", order=16, m=1, scale=0.2)
        for got, ref in zip(theta_alpha_decomposed(field, [0.2], rule),
                            theta_alpha_decomposed_loop(field, [0.2], rule)):
            _close(got, ref)


class TestStackedPointwise:
    @pytest.mark.parametrize("jet_mode", ["exact", "finite_difference"])
    @pytest.mark.parametrize("name,params", FIXTURES + [("gaussian_scalar", {"n": 2})])
    def test_value_and_jet_equal_the_per_point_calls(self, name, params, jet_mode):
        field = builtin_field(name, params, jet_mode=jet_mode)
        xs = _points(29, count=9, radius=0.2)
        values, jet = field.value(xs), field.jet(xs)
        for i, x in enumerate(xs):
            one = field.jet(x)
            np.testing.assert_array_equal(values[i], field.value(x))
            np.testing.assert_array_equal(jet.value.entries[i], one.value.entries)
            np.testing.assert_array_equal(jet.d1[i], one.d1)
            np.testing.assert_array_equal(jet.d2[i], one.d2)

    def test_random_field_and_test_function_equal_the_per_point_calls(self):
        field = _random_field()
        fn = _cubic_fn(np.random.default_rng(3), 2, 2)
        xs = _points(31, count=9, radius=0.5)
        jet = field.jet(xs)
        for i, x in enumerate(xs):
            np.testing.assert_array_equal(jet.d2[i], field.jet(x).d2)
            np.testing.assert_array_equal(fn.value(xs)[i], fn.value(x))
            np.testing.assert_array_equal(fn.grad(xs)[i], fn.grad(x))
            np.testing.assert_array_equal(fn.hess(xs)[i], fn.hess(x))

    @pytest.mark.parametrize("n,d", [(1, 1), (1, 3), (2, 2), (3, 2)])
    def test_test_function_views_equal_the_per_point_calls(self, n, d):
        """A stack's value and gradient are node-first views of (d, N) and (n, d, N) rows,
        row j d + l holding d_j F_l; one point and the Hessians are contiguous arrays.
        Each stacked entry has the per-point call's bits."""
        fn = _cubic_fn(np.random.default_rng(10 * n + d), n, d)
        xs = np.random.default_rng(47).uniform(-0.5, 0.5, (9, n))
        value, grad, hess = fn.value(xs), fn.grad(xs), fn.hess(xs)
        assert value.shape == (9, d) and value.T.flags.c_contiguous
        assert grad.shape == (9, d, n) and grad.transpose(2, 1, 0).flags.c_contiguous
        assert hess.shape == (9, d, n, n) and hess.flags.c_contiguous
        for i, x in enumerate(xs):
            one = fn.value(x), fn.grad(x), fn.hess(x)
            assert [a.shape for a in one] == [(d,), (d, n), (d, n, n)]
            assert all(a.flags.c_contiguous for a in one)
            for stacked, a in zip((value, grad, hess), one):
                assert stacked[i].tobytes() == a.tobytes()

    def test_curvature_and_polar_values_match_the_per_point_calls(self):
        field = builtin_field("perturbed_gaussian_spd")
        xs = _points(37, count=9, radius=0.5)
        cm = curvature_matrix(field, xs)
        polar = PolarOperator(QuadraticFormSpec(cm.g, -cm.theta_tilde))
        vs = np.random.default_rng(1).standard_normal((9, 4))
        values = polar.value(vs)
        for i, x in enumerate(xs):
            one = curvature_matrix(field, x)
            _close(cm.theta_tilde[i], one.theta_tilde)
            one_polar = PolarOperator(QuadraticFormSpec(one.g, -one.theta_tilde))
            _close(values[i], one_polar.value(vs[i]).value)

    @staticmethod
    def _assert_field_equals_the_per_point_calls(field, xs):
        values, jet = field.value(xs), field.jet(xs)
        for i, x in enumerate(xs):
            one = field.jet(x)
            np.testing.assert_array_equal(values[i], field.value(x))
            np.testing.assert_array_equal(jet.value.entries[i], one.value.entries)
            np.testing.assert_array_equal(jet.d1[i], one.d1)
            np.testing.assert_array_equal(jet.d2[i], one.d2)

    @pytest.mark.parametrize("jet_mode", ["exact", "finite_difference"])
    def test_quartic_field_equals_the_per_point_calls(self, jet_mode):
        # x^4 in the envelope: powers beyond the square are formed by multiplication
        field = builtin_field("double_well_scalar", jet_mode=jet_mode)
        self._assert_field_equals_the_per_point_calls(field, _points(41, count=9, radius=0.8))

    @pytest.mark.parametrize("jet_mode", ["exact", "finite_difference"])
    def test_member_stack_equals_the_per_point_calls(self, jet_mode):
        stacked = builtin_field("raufi_corrected", {"s": np.array([0.25, 0.75, 1.0])},
                                jet_mode=jet_mode)
        xs = _points(43, count=9, radius=0.2)
        assert stacked.value(xs).shape == (9, 3, 2, 2)
        self._assert_field_equals_the_per_point_calls(stacked, xs)


def pairwise_sum_list(items):
    """The list form of the pairwise tree."""
    items = list(items)
    while len(items) > 1:
        paired = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


@pytest.mark.parametrize("count", range(1, 34))
def test_pairwise_sum_of_a_stack_equals_the_list_form(count):
    rng = np.random.default_rng(count)
    stack = rng.standard_normal((count, 3, 3)) * np.exp(rng.uniform(-8, 8, (count, 1, 1)))
    ref = pairwise_sum_list(list(stack))
    np.testing.assert_array_equal(pairwise_sum(stack), ref)
    np.testing.assert_array_equal(pairwise_sum(list(stack)), ref)


class TestOneBadNodeInAStack:
    # GH 5 nodes are about (-2.02, -0.96, 0, 0.96, 2.02): only the middle one is y = 0
    RULE = build_rule("gauss_hermite", order=5, m=1)

    def test_degenerate_node_gives_infinite_energy(self):
        # -Theta = 12 y^2 vanishes at y = 0 only
        field = MatrixField(1, 1, [(1.0, (4,))], [((0,), np.eye(1))])
        fn = VectorFieldFn.polynomial(1, [[(1.0, (1,))]])
        assert DirichletEvaluator(field, self.RULE).energy(fn).is_infinite
        even = build_rule("gauss_hermite", order=6, m=1)
        assert not DirichletEvaluator(field, even).energy(fn).is_infinite

    def test_indefinite_node_raises_not_psd(self):
        # -Theta = 12 y^2 - 4 is negative for |y| < 0.58: the middle node only
        field = MatrixField(1, 1, [(1.0, (4,)), (-2.0, (2,))], [((0,), np.eye(1))])
        with pytest.raises(NotPsdError, match="form 2 of 5 is indefinite"):
            DirichletEvaluator(field, self.RULE)

    def test_off_cone_node_raises_not_positive(self):
        # P = y^2 - 0.01 is negative for |y| < 0.1: the middle node only
        field = MatrixField(1, 1, [], [((2,), np.eye(1)), ((0,), -0.01 * np.eye(1))])
        with pytest.raises(NotPositiveError, match=r"at x = \[0\.\]: matrix 2 of 5") as exc:
            field.value(self.RULE.nodes)
        assert exc.value.index == 2
        with pytest.raises(NotPositiveError):
            integrate_field(field, self.RULE)
        with pytest.raises(NotPositiveError, match="matrix 2 of 5"):
            SpdMatrix(np.stack([np.eye(2)] * 2 + [-np.eye(2)] + [np.eye(2)] * 2))


# -- the Prekopa fiber pass and the residual checks, one node per call ---------------


def schur_margin_node(cm, n0):
    """The Schur margin at one fiber node, one polar operator per direction."""
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


def fiber_pass_loop(field, t, n0, rule, tol_psd=1e-8):
    """The gate and the Schur margin node by node: (largest lambda_max up to the first
    node above tol_psd, the Schur margin before it, whether the gate failed)."""
    worst, margin = -np.inf, np.inf
    for y in rule.nodes:
        cm = curvature_matrix(field, np.concatenate([t, y]))
        worst = max(worst, nakano_verdict(cm).lambda_max)
        if worst > tol_psd:
            return worst, margin, True
        margin = min(margin, schur_margin_node(cm, n0))
    return worst, margin, False


def weighted_laplacian_loop(field, f, x):
    jet = field.jet(np.asarray(x, dtype=float))
    g = jet.value.entries
    grad = f.grad(x)
    first = np.zeros(field.d)
    for k in range(field.n):
        first += np.linalg.solve(g, jet.d1[k]) @ grad[:, k]
    return np.einsum("ljj->l", f.hess(x)) + first


def ipp_loop(field, f, g_fn, rule):
    lhs_terms, rhs_terms = [], []
    for w, x in zip(rule.weights, rule.nodes):
        gv = field.value(x)
        lhs_terms.append(w * float(weighted_laplacian_loop(field, f, x) @ gv @ g_fn.value(x)))
        rhs_terms.append(-w * float(np.einsum("lk,lm,mk->", f.grad(x), gv, g_fn.grad(x))))
    return float(pairwise_sum(lhs_terms)), float(pairwise_sum(rhs_terms))


def bochner_loop(field, psi, rule):
    lhs_terms, curv_terms, hess_terms = [], [], []
    for w, x in zip(rule.weights, rule.nodes):
        cm = curvature_matrix(field, x)
        gv = cm.g.entries
        lf = weighted_laplacian_loop(field, psi, x)
        lhs_terms.append(w * float(lf @ gv @ lf))
        v = psi.grad(x).T.reshape(-1)
        curv_terms.append(-w * float(v @ cm.theta_tilde @ v))
        h = psi.hess(x)
        hess_terms.append(w * float(np.einsum("ljk,lm,mjk->", h, gv, h)))
    return tuple(float(pairwise_sum(t)) for t in (lhs_terms, curv_terms, hess_terms))


def _fibers(t, rule):
    return np.concatenate([np.broadcast_to(t, (rule.count, len(t))), rule.nodes], axis=1)


#: q = t^2 - y^2 / 2 + 0.3 y^3 + y^4 is not convex in y for -0.37 < y < 0.22, where the
#: fiber curvature 1 - 1.8 y - 12 y^2 is positive: on a GH 20 rule at scale 0.5 it reads
#: 0.03, 1.04 and 0.60 at the nodes y = -0.37, -0.12, 0.12 (indices 8 to 10), and below
#: 0 at every other node
WIGGLE = MatrixField(2, 1, [(1.0, (2, 0)), (-0.5, (0, 2)), (0.3, (0, 3)), (1.0, (0, 4))],
                     [((0, 0), np.eye(1))])


class TestStackedFiberPass:
    @pytest.mark.parametrize("name,params", ROUTE_B_FIXTURES)
    def test_gate_and_schur_margin_equal_the_node_loop(self, name, params):
        field = builtin_field(name, params)
        rule = build_rule("gauss_hermite", order=32, m=1)
        t = np.array([0.1])
        cm = curvature_matrix(field, _fibers(t, rule))
        ref = [nakano_verdict(curvature_matrix(field, x)).lambda_max for x in _fibers(t, rule)]
        np.testing.assert_array_equal(generalized_spectrum(cm)[:, -1], ref)
        margins = [schur_margin_node(curvature_matrix(field, x), 1) for x in _fibers(t, rule)]
        _close(schur_margin_of(cm, 1)[0], min(margins))
        worst, margin, failed = fiber_pass_loop(field, t, 1, rule)
        report = prekopa_check(field, t, 1, rule)
        assert not failed and report.passed
        _close(report.metrics["schur_margin"], margin)

    def test_interior_gate_failure_matches_the_node_loop(self):
        rule = build_rule("gauss_hermite", order=20, m=1, scale=0.5)
        t = np.array([0.1])
        worst, _, failed = fiber_pass_loop(WIGGLE, t, 1, rule)
        lam = generalized_spectrum(curvature_matrix(WIGGLE, _fibers(t, rule)))[:, -1]
        # the first node above tol_psd is interior, and not the largest
        assert failed and worst == lam[8] < lam.max() and (lam[:8] < 0).all()
        report = prekopa_check(WIGGLE, t, 1, rule)
        assert report.status == "degenerate"
        assert report.metrics == {"lambda_max_nodes": worst}

    @pytest.mark.parametrize("tol_psd,nodes", [(0.5, 9), (10.0, 20)])
    def test_indefinite_theta11_before_the_failure_still_raises(self, tol_psd, nodes):
        # at tol_psd 0.5 node 9 fails the gate and node 8 passes it, with -Theta_11 =
        # q_yy = -0.03 there; at 10 every node passes
        rule = build_rule("gauss_hermite", order=20, m=1, scale=0.5)
        with pytest.raises(NotPsdError):
            fiber_pass_loop(WIGGLE, np.array([0.1]), 1, rule, tol_psd=tol_psd)
        with pytest.raises(NotPsdError, match=f"form 8 of {nodes} is indefinite"):
            prekopa_check(WIGGLE, [0.1], 1, rule, tol_psd=tol_psd)

    def test_null_direction_at_one_node_gives_minus_inf(self):
        # node 1: Theta_10 has a component along the null direction of Theta_11
        theta = np.array([[[-1.0, 0.2], [0.2, -1.5]],
                          [[-1.0, 0.1], [0.1, 0.0]],
                          [[-2.0, 0.3], [0.3, -0.5]]])
        g = SpdMatrix(np.array([[[1.0]], [[2.0]], [[0.5]]]))
        cm = CurvatureMatrix(1, 2, theta, g, np.zeros(3))
        assert schur_margin_of(cm, 1) == (-np.inf, None, None)
        v0 = ColumnBlockMatrix([np.array([0.7])])
        with pytest.raises(InputError, match="of one node, not a stack"):
            schur_gap(block_split(cm, 1), v0)
        assert schur_gap(block_split(mlcc.inequalities._nodes(cm, 1), 1), v0).is_infinite


def _random_field_3():
    """A non-separable N = 3, d = 2 field e^{-q}(A + 0.1 B(x)): q is a random positive
    definite quadratic with cross terms, A is SPD and B(x) a symmetric linear polynomial."""
    rng = np.random.default_rng(17)
    root = rng.uniform(-0.5, 0.5, (3, 3)) + 1.5 * np.eye(3)
    hess, e = root @ root.T, [tuple(int(v) for v in row) for row in np.eye(3)]
    # q = x^T hess x / 2, one monomial x_i x_j per ordered pair (i, j)
    q = [(0.5 * hess[i, j], tuple(a + b for a, b in zip(e[i], e[j])))
         for i in range(3) for j in range(3)]
    a = rng.uniform(-0.5, 0.5, (2, 2))
    terms = [((0, 0, 0), a @ a.T + 2.0 * np.eye(2))]
    for k in range(3):
        b = rng.uniform(-0.1, 0.1, (2, 2))
        terms.append((e[k], b + b.T))
    return MatrixField(3, 2, q, terms)


def schur_margin_of(cm, n0):
    """``_schur_margin`` on ``cm``, as ``prekopa_check`` calls it: off ``cm.pencil``."""
    return _schur_margin(cm, n0)


def schur_margin_dense(cm, n0):
    """min over the nodes of the smallest eigenvalue of the pencil (S, id_n0 (x) g),
    S = -Theta_00 - Theta_10^T pinv(-Theta_11) Theta_10, dense."""
    linalg = pytest.importorskip("scipy.linalg")
    cut = cm.d * n0
    margin = np.inf
    for t, g in zip(cm.theta_tilde, cm.g.entries):
        s = -t[:cut, :cut] - t[cut:, :cut].T @ np.linalg.pinv(-t[cut:, cut:]) @ t[cut:, :cut]
        margin = min(margin, linalg.eigh(s, np.kron(np.eye(n0), g), eigvals_only=True)[0])
    return margin


class TestSchurComplement:
    @pytest.mark.parametrize("name,params", ROUTE_B_FIXTURES)
    def test_margin_matches_the_dense_oracle_on_fibers(self, name, params):
        field = builtin_field(name, params)
        cm = curvature_matrix(field, _fibers(np.array([0.1]), build_rule("gauss_hermite",
                                                                         order=32, m=1)))
        _close(schur_margin_of(cm, 1)[0], schur_margin_dense(cm, 1))

    def test_margin_matches_the_dense_oracle_on_a_random_field(self):
        field = _random_field_3()
        xs = np.random.default_rng(19).uniform(-0.3, 0.3, (6, 3))
        cm = curvature_matrix(field, xs)
        margin, node, v0 = schur_margin_of(cm, 2)
        _close(margin, schur_margin_dense(cm, 2))
        _close(margin, min(schur_margin_node(curvature_matrix(field, x), 2) for x in xs))
        # the second route: the gap at the attaining node's V0, with <V0, V0>_g = 1
        split = block_split(curvature_matrix(field, xs[node]), 2)
        v0 = ColumnBlockMatrix.from_flat(v0, 2)
        assert tensor_inner(split.g, v0, v0) == pytest.approx(1.0, rel=1e-12)
        _close(schur_gap(split, v0).value, margin)


# the random field's rule does not cover its support; only the agreement matters here
@pytest.mark.filterwarnings("ignore:outermost quadrature node")
class TestStackedResiduals:
    @pytest.mark.parametrize("make,m,order,scale", STACK_FIXTURES)
    def test_laplacian_ipp_and_bochner_match_the_node_loops(self, make, m, order, scale):
        field = make()
        rule = build_rule("gauss_hermite", order=min(order, 16), m=m, scale=scale)
        rng = np.random.default_rng(order + 1)
        f, g_fn = _cubic_fn(rng, field.n, field.d), _cubic_fn(rng, field.n, field.d)
        lap = weighted_laplacian(field, f, rule.nodes)
        for i, x in enumerate(rule.nodes):
            _close(lap[i], weighted_laplacian_loop(field, f, x))
        ipp = ipp_residual(field, f, g_fn, rule).metrics
        for got, ref in zip((ipp["lhs"], ipp["rhs"]), ipp_loop(field, f, g_fn, rule)):
            _close(got, ref)
        boch = bochner_residual(field, f, rule).metrics
        for key, ref in zip(("lhs", "term_curv", "term_hess"), bochner_loop(field, f, rule)):
            _close(boch[key], ref)


def griffiths_loop(cm, n_starts=32, max_iter=200, seed=0, tol=1e-10):
    """The rank-one search one start at a time, with Python's ``max`` over the starts."""
    d, n = cm.d, cm.n
    g = cm.g.entries
    theta4 = cm.theta_tilde.reshape(n, d, n, d)
    _, invroot = cm.g.sqrt_and_invsqrt()
    pencil4 = metric_pencil(invroot, cm.theta_tilde).reshape(n, d, n, d)
    rng = np.random.default_rng(seed)
    best = -np.inf
    for _ in range(n_starts):
        y = rng.standard_normal(n)
        y /= np.linalg.norm(y)
        u = rng.standard_normal(d)
        u /= np.sqrt(u @ g @ u)
        prev = -np.inf
        for _ in range(max_iter):
            _, w = np.linalg.eigh(np.einsum("j,kajb,k->ab", y, pencil4, y))
            u = invroot @ w[:, -1]
            b = np.einsum("a,kajb,b->jk", u, theta4, u)
            lam_y, w_y = np.linalg.eigh(0.5 * (b + b.T))
            y = w_y[:, -1]
            val = float(lam_y[-1]) / float(u @ g @ u)
            if abs(val - prev) <= tol * max(1.0, abs(val)):
                prev = val
                break
            prev = val
        best = max(best, prev)
    return best


def rank_one_circle_max(cm, dps=40):
    """n = d = 2: the rank-one maximum of ``cm``'s pencil, to ``dps`` digits (mpmath).

    At y = (cos phi, sin phi) the maximum over unit w = g^{1/2} u is the top eigenvalue
    of the 2 x 2 matrix B = sum_jk y_j y_k P_jk, (B00 + B11)/2 + hypot((B00 - B11)/2, B01).
    Its maximum over phi in [0, pi) starts from 64 equally spaced angles: each angle whose
    value is at least its neighbours' brackets a root of the derivative, refined by a
    bracketing root-finder."""
    import mpmath

    _, invroot = cm.g.sqrt_and_invsqrt()
    # entry (a, b) of the pencil's block (j, k) at [k, a, j, b]
    p = metric_pencil(invroot, cm.theta_tilde).reshape(2, 2, 2, 2)
    with mpmath.workdps(dps):
        pen = [[[[mpmath.mpf(float(p[k, a, j, b])) for b in range(2)] for a in range(2)]
                for k in range(2)] for j in range(2)]

        def top(phi):
            y = (mpmath.cos(phi), mpmath.sin(phi))
            m = [[sum(y[j] * y[k] * pen[j][k][a][b] for j in range(2) for k in range(2))
                  for b in range(2)] for a in range(2)]
            return (m[0][0] + m[1][1]) / 2 + mpmath.sqrt(((m[0][0] - m[1][1]) / 2) ** 2
                                                         + ((m[0][1] + m[1][0]) / 2) ** 2)

        def slope(phi):
            return mpmath.diff(top, phi)

        step = mpmath.pi / 64
        vals = [top(i * step) for i in range(64)]
        best = max(vals)
        for i in range(64):
            lo, hi = (i - 1) * step, (i + 1) * step
            if vals[i] >= max(vals[i - 1], vals[(i + 1) % 64]) and slope(lo) > 0 > slope(hi):
                best = max(best, top(mpmath.findroot(slope, (lo, hi), solver="anderson")))
        return float(best)


GRIFFITHS_SHAPES = [
    ("gaussian_scalar", {"n": 1}),
    ("gaussian_scalar", {"n": 3}),
    ("gaussian_times_spd", {"n": 1}),
    ("gaussian_times_spd", {"n": 2}),
    ("perturbed_gaussian_spd", {}),
    ("gaussian_cross_spd", {"c": 0.5, "d": 2}),
    ("gaussian_cross_spd", {"c": 0.5, "d": 3}),
    ("double_well_scalar", {}),
    ("raufi_corrected", {"s": 0.75}),
    ("raufi_printed", {"s": 0.5}),
]

#: seed, n_starts and max_iter; with one step no start converges
GRIFFITHS_SETTINGS = list(product((0, 5), (8, 32), (1, 200)))


def _griffiths_agree(cm):
    """The search against the start loop; when n = d = 2, the closed form against
    ``rank_one_circle_max`` at every setting (the loop stops short of the maximum, and
    at one step far from it)."""
    circle = rank_one_circle_max(cm) if cm.n == cm.d == 2 else None
    for seed, n_starts, max_iter in GRIFFITHS_SETTINGS:
        ref = griffiths_loop(cm, n_starts, max_iter, seed) if circle is None else circle
        got = griffiths_min_gap(cm, n_starts, max_iter, seed)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (seed, n_starts, max_iter)


class TestStackedGriffiths:
    @pytest.mark.parametrize("name,params", GRIFFITHS_SHAPES)
    def test_builtin_shapes_match_the_start_loop(self, name, params):
        field = builtin_field(name, params)
        for x in np.random.default_rng(3).uniform(-0.5, 0.5, (2, field.n)):
            _griffiths_agree(curvature_matrix(field, x))

    @pytest.mark.parametrize("jet_mode", ["exact", "finite_difference"])
    def test_raufi_corrected_over_s_matches_the_start_loop(self, jet_mode):
        rng = np.random.default_rng(11)
        # one s from each sixteenth of [0.05, 1], at a point in the disc of radius 0.05
        for k in range(16):
            s = 0.05 + (k + rng.uniform()) / 16 * 0.95
            field = builtin_field("raufi_corrected", {"s": s}, jet_mode=jet_mode)
            cm = curvature_matrix(field, rng.uniform(-0.035, 0.035, 2))
            _griffiths_agree(cm)

    @pytest.mark.parametrize("name,params,max_iter,calls", [
        # n = d = 2: g's roots only, the closed form makes no eigh call
        ("raufi_corrected", {"s": 0.75}, 1, 1),
        ("raufi_corrected", {"s": 0.75}, 200, 1),
        # min(n, d) = 1: g's root only, the top generalized eigenvalue is an eigvalsh
        ("gaussian_scalar", {"n": 3}, 1, 1),
        ("gaussian_scalar", {"n": 3}, 200, 1),
        # one eigensolve in u and one in y per step; no start stops before its second
        ("gaussian_times_spd", {"n": 3, "d": 2}, 1, 3),
        ("gaussian_times_spd", {"n": 3, "d": 2}, 2, 5),
        ("gaussian_cross_spd", {"c": 0.5, "d": 3}, 2, 5),
    ])
    def test_eigensolves_per_search(self, monkeypatch, name, params, max_iter, calls):
        field = builtin_field(name, params)
        cm = curvature_matrix(field, np.full(field.n, 0.1))
        counted = _count_calls(monkeypatch, np.linalg, "eigh")
        griffiths_min_gap(cm, max_iter=max_iter)
        assert len(counted) == calls

    def test_nan_starts_are_skipped(self):
        # a NaN curvature makes every start NaN; the loop's max then keeps -inf.  n = 2
        # with d = 1 takes the top generalized eigenvalue, NaN, and with d = 2 the closed
        # form, whose candidates are then all NaN
        for field in (builtin_field("gaussian_scalar", {"n": 2}), builtin_field("raufi_corrected")):
            cm = curvature_matrix(field, np.zeros(2))
            bad = CurvatureMatrix(cm.d, cm.n, np.full_like(cm.theta_tilde, np.nan), cm.g, 0.0)
            assert griffiths_loop(bad, 8, 3) == -np.inf
            assert griffiths_min_gap(bad, 8, 3) == -np.inf

    @pytest.mark.parametrize("name,params", [
        ("gaussian_times_spd", {"n": 3, "d": 2}),
        ("gaussian_cross_spd", {"c": 0.5, "d": 3}),
    ])
    def test_a_nan_curvature_skips_the_search(self, monkeypatch, name, params):
        # LAPACK fails to converge on these shapes' 3 x 3 NaN u- or y-step matrices, so
        # a pencil that is not finite is -inf before any start is drawn or eigensolved
        field = builtin_field(name, params)
        cm = curvature_matrix(field, np.full(field.n, 0.1))
        bad = CurvatureMatrix(cm.d, cm.n, np.full_like(cm.theta_tilde, np.nan), cm.g, 0.0)
        cm.g.sqrt_and_invsqrt()  # g's roots are not counted below

        def no_rng(*args, **kwargs):
            raise AssertionError("a random number generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        counted = _count_calls(monkeypatch, np.linalg, "eigh")
        assert griffiths_min_gap(bad) == -np.inf
        assert griffiths_check(bad).status == "degenerate"
        assert counted == []


class TestEveryVectorIsRankOne:
    """min(n, d) = 1: every vector is rank-one, so the value is Nakano's lambda_max, found
    without a search and without a random number."""

    @pytest.mark.parametrize("name,params", [
        ("gaussian_times_spd", {"n": 1, "d": 3, "a12": 0.3, "a23": -0.2}),
        ("gaussian_times_spd", {"n": 3, "d": 1}),
        ("double_well_scalar", {}),
    ])
    def test_the_value_is_the_nakano_maximum(self, monkeypatch, name, params):
        field = builtin_field(name, params)
        points = np.random.default_rng(7).uniform(-1.5, 1.5, (4, field.n))

        def no_rng(*args, **kwargs):
            raise AssertionError("a random number generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        for x in points:
            cm = curvature_matrix(field, x)
            lam = nakano_verdict(cm).lambda_max
            for seed, n_starts, max_iter in GRIFFITHS_SETTINGS:
                assert griffiths_min_gap(cm, n_starts, max_iter, seed) == lam

    @pytest.mark.parametrize("n,d", [(1, 3), (3, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_curvature_not_finite_gives_minus_inf(self, monkeypatch, n, d, bad):
        # LAPACK fails to converge on a 3 x 3 NaN pencil, so none is eigensolved
        cm = curvature_matrix(builtin_field("gaussian_times_spd", {"n": n, "d": d}), np.zeros(n))
        theta = cm.theta_tilde.copy()
        theta[0, 0] = bad
        counted = _count_calls(monkeypatch, np.linalg, "eigvalsh")
        with np.errstate(invalid="ignore"):  # inf * 0.0 in the congruence
            assert griffiths_min_gap(CurvatureMatrix(d, n, theta, cm.g, 0.0)) == -np.inf
        assert counted == []


#: s of raufi_corrected, down to a maximum of +4.1e-9 at s = -3e-9 (RAUFI_POINT)
RAUFI_S = [1.0, 0.5, 0.15, 0.05, 0.02, 0.005, -3e-9]
RAUFI_POINT = (0.01, -0.02)


class TestNewtonOnTheCircle:
    """n = d = 2: the closed form (the stationary angles as the roots of one polynomial,
    each with one Newton step) finds the rank-one maximum, where the plain alternating
    steps converge at a rate of 1 - O(s) and stop short of it."""

    @staticmethod
    def _raufi(s, jet_mode="exact", x=RAUFI_POINT):
        field = builtin_field("raufi_corrected", {"s": s}, jet_mode=jet_mode)
        return curvature_matrix(field, np.array(x))

    @pytest.mark.parametrize("x", [RAUFI_POINT, (0.3, 0.2), (0.02, 0.03), (-0.4, 0.45)])
    @pytest.mark.parametrize("jet_mode", ["exact", "finite_difference"])
    @pytest.mark.parametrize("s", RAUFI_S)
    def test_the_value_is_the_maximum(self, s, jet_mode, x):
        cm = self._raufi(s, jet_mode, x)
        m = rank_one_circle_max(cm)
        assert abs(griffiths_min_gap(cm) - m) <= 1e-12 * max(1.0, abs(m))

    @pytest.mark.parametrize("s", RAUFI_S)
    def test_the_value_is_the_same_for_every_seed_start_count_and_step_count(self, s):
        cm = self._raufi(s)
        values = {griffiths_min_gap(cm, n_starts, max_iter, seed)
                  for seed, n_starts, max_iter in product(range(4), (8, 32), (1, 200))}
        assert len(values) == 1

    def test_no_random_number_is_drawn(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("a random number generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        griffiths_min_gap(self._raufi(0.5))
        # shapes with n, d >= 2 other than n = d = 2 draw their starts
        with pytest.raises(AssertionError, match="generator was made"):
            griffiths_min_gap(curvature_matrix(builtin_field("gaussian_times_spd",
                                                             {"n": 3, "d": 2}), np.zeros(3)))

    def test_a_maximum_just_above_tol_psd_fails(self, capsys):
        argv = ["griffiths", "--field", "raufi_corrected", "--param", "s=-3e-9",
                "--point", "0.01,-0.02", "--no-timestamp"]
        assert mlcc.cli.run(argv) == 1
        check = json.loads(capsys.readouterr().out)["checks"][0]
        assert check["status"] == "fail"
        assert check["metrics"]["rank_one_max"] == pytest.approx(4.080016e-9, rel=1e-6)

    @staticmethod
    def _k(cm):
        """K = H P H^T of the closed form, from the pencil P of ``cm``."""
        _, invroot = cm.g.sqrt_and_invsqrt()
        p = metric_pencil(invroot, cm.theta_tilde).reshape(2, 2, 2, 2)
        h = mlcc.curvature._HALF_ANGLE
        return h @ p.transpose(2, 0, 1, 3).reshape(4, 4) @ h.T

    @pytest.mark.parametrize("name,params", [("gaussian_times_spd", {"n": 2, "d": 2}),
                                             ("gaussian_cross_spd", {"c": 0.0, "d": 2})])
    def test_no_floating_point_warning_where_c_is_zero(self, name, params):
        # an isotropic pencil: c = 0 at every angle, up to rounding, and T vanishes
        cm = curvature_matrix(builtin_field(name, params), np.zeros(2))
        with np.errstate(all="raise"):
            value = griffiths_min_gap(cm)
        assert value == pytest.approx(nakano_verdict(cm).lambda_max, abs=1e-12)
        k = self._k(cm)
        assert value == pytest.approx(k[0, 0] + np.hypot(k[1, 0], k[2, 0]), abs=1e-14)

    def test_a_pencil_whose_c_is_zero(self):
        # theta_tilde = S (x) id at g = id: K[0, 1:] = 0 and K[1:, 1:] = 0 exactly, so T = 0
        # at every angle and the maximum is K00 + |K[1:, 0]|, the top eigenvalue of S
        s = np.array([[-1.5, 0.7], [0.7, 0.4]])
        cm = CurvatureMatrix(2, 2, np.kron(s, np.eye(2)), SpdMatrix(np.eye(2)), 0.0)
        k = self._k(cm)
        assert not k[0, 1:].any() and not k[1:, 1:].any() and k[1:, 0].all()
        with np.errstate(all="raise"):
            value = griffiths_min_gap(cm)
        assert value == pytest.approx(k[0, 0] + np.hypot(k[1, 0], k[2, 0]), rel=1e-15)
        assert value == pytest.approx(np.linalg.eigvalsh(s)[-1], rel=1e-15)


# -- the parameter scan, one value per call -----------------------------------------


def scan_loop(name, span, point, base=None, tol_psd=1e-9, **jet):
    """``mlcc scan`` one parameter value at a time: a field, a jet, a curvature and a
    verdict per value, as (value, lambda_max, verdict) rows."""
    param, _, rng = span.partition("=")
    start, stop, step = (float(v) for v in rng.split(":"))
    rows = []
    for i in range(int(round((stop - start) / step)) + 1):
        value = start + i * step
        field = builtin_field(name, {**(base or {}), param: value}, **jet)
        verdict = nakano_verdict(curvature_matrix(field, np.asarray(point, dtype=float)),
                                 tol_psd)
        rows.append((value, verdict.lambda_max, verdict.is_nlogconcave))
    return rows


def _scan_rows(tmp_path, name, span, point, jet_mode):
    path = tmp_path / "scan.csv"
    argv = ["scan", "--field", name, "--point", ",".join(map(repr, point)),
            "--param-range", span, "--csv", str(path), "--no-timestamp"]
    if jet_mode == "finite_difference":
        argv += ["--jet", "fd"]
    assert mlcc.cli.run(argv) == 0
    return [(float(v), float(lam), ok == "true")
            for v, lam, ok in (line.split(",") for line in path.read_text().splitlines()[1:])]


def _scan_agrees(tmp_path, name, span, point, jet_mode):
    got = _scan_rows(tmp_path, name, span, point, jet_mode)
    ref = scan_loop(name, span, point, jet_mode=jet_mode)
    assert [r[0] for r in got] == [r[0] for r in ref]
    assert [r[2] for r in got] == [r[2] for r in ref]
    _close([r[1] for r in got], [r[1] for r in ref])


JET_MODES = ["exact", "finite_difference"]


class TestStackedScan:
    @pytest.mark.parametrize("jet_mode", JET_MODES)
    @pytest.mark.parametrize("name", ["raufi_corrected", "raufi_printed"])
    @pytest.mark.parametrize("point", [(0.0, 0.0), (0.031, -0.022), (0.3, -0.4)])
    def test_raufi_scans_match_the_value_loop(self, tmp_path, name, point, jet_mode):
        _scan_agrees(tmp_path, name, "s=0:1:0.05", point, jet_mode)

    @pytest.mark.parametrize("jet_mode", JET_MODES)
    @pytest.mark.parametrize("name,span,point", [
        ("gaussian_cross_spd", "c=-1:1:0.25", (0.1, 0.2)),
        ("perturbed_gaussian_spd", "eps=0:0.5:0.05", (0.1, -0.2)),
        # d = 2, 3, 4: a block per shape
        ("gaussian_times_spd", "d=2:4:1", (0.1,)),
    ])
    def test_other_builtins_match_the_value_loop(self, tmp_path, name, span, point, jet_mode):
        _scan_agrees(tmp_path, name, span, point, jet_mode)

    @pytest.mark.parametrize("jet_mode", JET_MODES)
    def test_small_blocks_match_the_value_loop(self, tmp_path, monkeypatch, jet_mode):
        monkeypatch.setattr(mlcc.cli, "SCAN_BLOCK", 3)
        _scan_agrees(tmp_path, "raufi_corrected", "s=0:1:0.05", (0.031, -0.022), jet_mode)

    @pytest.mark.parametrize("span,block,calls", [
        ("s=0:1:0.05", 1024, 1),
        ("s=0:1:0.05", 3, 7),
        ("s=0:1:0.05", 21, 1),
        ("s=0:1:0.05", 20, 2),
    ])
    def test_one_curvature_assembly_per_block(self, tmp_path, monkeypatch, span, block, calls):
        counted = []
        original = mlcc.curvature.curvature_from_jet

        def counting(jet):
            counted.append(jet.value.entries.shape[0])
            return original(jet)

        monkeypatch.setattr(mlcc.curvature, "curvature_from_jet", counting)
        monkeypatch.setattr(mlcc.cli, "SCAN_BLOCK", block)
        _scan_rows(tmp_path, "raufi_corrected", span, (0.0, 0.0), "exact")
        assert len(counted) == calls and sum(counted) == 21

    def test_blocks_split_on_shape(self, tmp_path, monkeypatch):
        counted = []
        original = mlcc.curvature.curvature_from_jet

        def counting(jet):
            counted.append(jet.value.entries.shape)
            return original(jet)

        monkeypatch.setattr(mlcc.curvature, "curvature_from_jet", counting)
        _scan_rows(tmp_path, "gaussian_times_spd", "d=2:4:1", (0.1,), "exact")
        assert counted == [(1, 2, 2), (1, 3, 3), (1, 4, 4)]

    def test_a_stacked_field_is_not_derived_from(self):
        stacked = builtin_field("raufi_corrected", {"s": np.array([0.0, 1.0])})
        with pytest.raises(InputError, match="evaluated, not derived from"):
            stacked.with_jet_mode("finite_difference")


#: Every scannable parameter: builtin, fixed parameters, the parameter and its values
ARRAY_PARAMETERS = [
    ("raufi_corrected", {}, "s", [0.0, 0.25, 0.5, 0.75, 1.0]),
    ("raufi_printed", {}, "s", [0.0, 0.3, 0.55, 1.0]),
    ("gaussian_cross_spd", {}, "c", [-1.0, -0.25, 0.5, 1.0]),
    ("perturbed_gaussian_spd", {}, "eps", [0.0, 0.02, 0.25, 0.5]),
    ("gaussian_times_spd", {}, "a11", [0.5, 1.0, 2.0]),
    ("gaussian_times_spd", {"n": 2}, "a12", [-0.5, 0.0, 0.3]),
    ("gaussian_times_spd", {"d": 3}, "a22", [0.5, 1.0, 2.0]),
    ("gaussian_cross_spd", {}, "a11", [0.5, 1.5, 3.0]),
    ("gaussian_cross_spd", {"d": 3}, "a12", [-0.4, 0.1, 0.7]),
    ("gaussian_cross_spd", {}, "a22", [0.25, 1.0, 4.0]),
]


class TestArrayParameter:
    """A builtin built from an array of values against one build per value."""

    @pytest.mark.parametrize("jet_mode", JET_MODES)
    @pytest.mark.parametrize("name,base,key,values", ARRAY_PARAMETERS)
    def test_members_equal_the_per_value_fields(self, name, base, key, values, jet_mode):
        stacked = builtin_field(name, {**base, key: np.array(values)}, jet_mode=jet_mode)
        assert stacked.members[0] == key and stacked.members[1].tolist() == values
        xs = _points(47, count=5, radius=0.3)[:, : stacked.n]
        got, jet = stacked.value(xs), stacked.jet(xs)
        assert got.shape == (5, len(values), stacked.d, stacked.d)
        for k, v in enumerate(values):
            one = builtin_field(name, {**base, key: v}, jet_mode=jet_mode)
            ref = one.jet(xs)
            np.testing.assert_array_equal(got[:, k], one.value(xs))
            np.testing.assert_array_equal(jet.value.entries[:, k], ref.value.entries)
            np.testing.assert_array_equal(jet.d1[:, k], ref.d1)
            np.testing.assert_array_equal(jet.d2[:, k], ref.d2)

    @pytest.mark.parametrize("name,key", [("gaussian_times_spd", "d"), ("gaussian_scalar", "n")])
    def test_a_shape_parameter_gives_one_member(self, name, key):
        stacked = builtin_field(name, {key: np.array([3.0])})
        one = builtin_field(name, {key: 3})
        assert stacked.members[0] == key and (stacked.n, stacked.d) == (one.n, one.d)
        x = np.full(one.n, 0.1)
        np.testing.assert_array_equal(stacked.value(x), one.value(x)[None])
        with pytest.raises(InputError, match=f"{key} sets the field's shape"):
            builtin_field(name, {key: np.array([2.0, 3.0])})

    @pytest.mark.parametrize("params,message", [
        ({"c": np.array([0.1, 0.2]), "a12": np.array([0.0, 0.1])},
         "only one parameter may take an array of values"),
        ({"c": np.zeros((2, 2))}, "'c' must be a number or a 1-D array"),
        ({"c": np.array([])}, "'c' must be a number or a 1-D array"),
        ({"c": np.array([0.5, np.nan])}, "field coefficients must be finite"),
        ({"a12": np.array([0.5, np.inf])}, "field coefficients must be finite"),
    ])
    def test_malformed_arrays_are_input_errors(self, params, message):
        with pytest.raises(InputError, match=message):
            builtin_field("gaussian_cross_spd", params)

    @pytest.mark.parametrize("name,span,point,calls", [
        ("raufi_corrected", "s=0:1:0.0005", (0.1, 0.2), [1024, 977]),
        ("raufi_corrected", "s=0:1:0.05", (0.1, 0.2), [21]),
        # d sets the shape: one call per value
        ("gaussian_times_spd", "d=2:4:1", (0.1,), [1, 1, 1]),
    ])
    def test_one_builtin_field_call_per_block(self, tmp_path, monkeypatch, name, span, point,
                                              calls):
        counted = []
        original = mlcc.cli.builtin_field

        def counting(field, params, **jet):
            counted.append(np.size(params[span.partition("=")[0]]))
            return original(field, params, **jet)

        monkeypatch.setattr(mlcc.cli, "builtin_field", counting)
        monkeypatch.setattr(mlcc.cli, "SCAN_BLOCK", 1024)
        rows = _scan_rows(tmp_path, name, span, point, "exact")
        assert counted == calls and len(rows) == sum(calls)


class TestStackedNakanoVerdict:
    @pytest.mark.parametrize("name,params", GRIFFITHS_SHAPES)
    def test_a_stack_matches_the_node_loop(self, name, params):
        field = builtin_field(name, params)
        x = np.random.default_rng(5).uniform(-0.5, 0.5, (6, field.n))
        got = nakano_verdict(curvature_matrix(field, x), tol_psd=1e-3)
        for i, point in enumerate(x):
            ref = nakano_verdict(curvature_matrix(field, point), tol_psd=1e-3)
            assert got.is_nlogconcave[i] == ref.is_nlogconcave
            _close(got.lambda_max[i], ref.lambda_max)
            _close(got.lambda_max_std[i], ref.lambda_max_std)

    def test_one_node_gives_floats(self):
        verdict = nakano_verdict(curvature_matrix(builtin_field("raufi_corrected"), np.zeros(2)))
        assert type(verdict.lambda_max) is float and type(verdict.lambda_max_std) is float
        assert type(verdict.is_nlogconcave) is bool


# -- the DirichletEvaluator as the node cache of its field and rule ----------------


def _count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` to record each call's arguments; returns the record."""
    calls, original = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.filterwarnings("ignore:outermost quadrature node")
class TestEvaluatorNodeCache:
    @pytest.mark.parametrize("make,m,order,scale", STACK_FIXTURES)
    def test_with_and_without_an_evaluator_agree_exactly(self, make, m, order, scale):
        field = make()
        rule = build_rule("gauss_hermite", order=order, m=m, scale=scale)
        ev = DirichletEvaluator(field, rule)
        rng = np.random.default_rng(order)
        for _ in range(3):
            fn = _cubic_fn(rng, field.n, field.d)
            assert variance_functional(field, fn, rule, ev) == variance_functional(field, fn, rule)
            with_ev, without = bl_gap(field, fn, rule, evaluator=ev), bl_gap(field, fn, rule)
            assert with_ev.metrics == without.metrics and with_ev.status == without.status

    def test_a_check_with_an_evaluator_never_evaluates_the_field(self, monkeypatch):
        field = builtin_field("perturbed_gaussian_spd")
        rule = build_rule("gauss_hermite", order=12, m=2)
        calls = _count_calls(monkeypatch, MatrixField, "value")
        ev = DirichletEvaluator(field, rule)
        assert len(calls) == 1
        fn = _cubic_fn(np.random.default_rng(3), field.n, field.d)
        for _ in range(3):
            bl_gap(field, fn, rule, evaluator=ev)
            variance_functional(field, fn, rule, ev)
        assert len(calls) == 1
        bl_gap(field, fn, rule)  # the one-shot path builds its own evaluator
        assert len(calls) == 2

    def test_the_one_shot_energy_skips_the_node_cache(self, monkeypatch):
        # dirichlet_energy never reads g or Z, so it never evaluates the field's value
        field = builtin_field("perturbed_gaussian_spd")
        rule = build_rule("gauss_hermite", order=12, m=2)
        fn = _cubic_fn(np.random.default_rng(5), field.n, field.d)
        expected = DirichletEvaluator(field, rule).energy(fn)
        calls = _count_calls(monkeypatch, MatrixField, "value")
        assert dirichlet_energy(field, fn, rule) == expected
        assert calls == []

    def test_cached_arrays_are_read_only(self):
        field = builtin_field("gaussian_times_spd", {"n": 1, "A": np.diag([1.0, 2.0])})
        rule = build_rule("gauss_hermite", order=16, m=1)
        ev = DirichletEvaluator(field, rule)
        assert ev.g.shape == (16, 2, 2) and ev.z.shape == (2, 2)
        assert np.array_equal(ev.g, field.value(rule.nodes))
        assert np.array_equal(ev.z, pairwise_sum(rule.weights[:, None, None] * ev.g))
        for a in (ev.g, ev.z):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    @pytest.mark.parametrize("make,m,order,scale", STACK_FIXTURES[:4])
    def test_node_first_caches_are_read_only_views_of_node_last_rows(self, make, m, order, scale):
        field = make()
        rule = build_rule("gauss_hermite", order=order, m=m, scale=scale)
        ev = DirichletEvaluator(field, rule)
        # the constructor laid out the rows; a check reads them, not a copy
        ev.energy(_cubic_fn(np.random.default_rng(order), field.n, field.d))
        cm = curvature_matrix(field, rule.nodes)
        fresh = PolarOperator(QuadraticFormSpec(cm.g, -cm.theta_tilde))
        dn = field.n * field.d
        for view, ref, shape in ((ev.g, field.value(rule.nodes), (rule.count, field.d, field.d)),
                                 (ev._polar._coord_map, fresh._coord_map, (rule.count, dn, dn)),
                                 (ev._polar.eigenvalues, fresh.eigenvalues, (rule.count, dn))):
            assert view.shape == shape and np.array_equal(view, ref)
            # a view, not a copy, of rows with the node axis last
            assert view.base is not None and np.moveaxis(view, 0, -1).flags.c_contiguous
            assert not view.flags.writeable
        assert np.shares_memory(ev._polar._coord_map, ev._polar._coord_rows)

    def test_an_evaluator_of_another_field_is_an_input_error(self):
        # its weight would make the rhs 1.77 where the true value is 10.03: a false fail
        field = builtin_field("gaussian_scalar", {"n": 1})
        rule = build_rule("gauss_hermite", order=32, m=1)
        other = builtin_field("gaussian_times_spd", {"n": 1, "d": 1, "A": [[1.0]]})
        ev = DirichletEvaluator(other, rule)
        fn = VectorFieldFn.polynomial(1, [[(1.0, (2,))]])
        with pytest.raises(InputError, match="another field or rule"):
            bl_gap(field, fn, rule, evaluator=ev)
        with pytest.raises(InputError, match="another field or rule"):
            variance_functional(field, fn, rule, ev)

    def test_an_evaluator_of_another_rule_is_an_input_error(self):
        # an equal rule built again is another rule too: identity, not equality
        field = builtin_field("gaussian_scalar", {"n": 1})
        rule = build_rule("gauss_hermite", order=32, m=1)
        fn = VectorFieldFn.polynomial(1, [[(1.0, (2,))]])
        for other in (build_rule("gauss_hermite", order=16, m=1),
                      build_rule("gauss_hermite", order=32, m=1)):
            ev = DirichletEvaluator(field, other)
            with pytest.raises(InputError, match="another field or rule"):
                bl_gap(field, fn, rule, evaluator=ev)
            with pytest.raises(InputError, match="another field or rule"):
                variance_functional(field, fn, rule, ev)


# -- one fiber jet per Prekopa check ------------------------------------------------


@pytest.mark.filterwarnings("ignore:outermost quadrature node")
class TestOneFiberPass:
    @pytest.mark.parametrize("name,params", ROUTE_B_FIXTURES[:2])
    def test_a_passing_gate_makes_one_jet(self, monkeypatch, name, params):
        field = builtin_field(name, params)
        rule = build_rule("gauss_hermite", order=16, m=1)
        calls = _count_calls(monkeypatch, MatrixField, "jet")
        assert prekopa_check(field, [0.1], 1, rule).passed
        assert len(calls) == 1

    def test_the_fiber_inverse_root_is_computed_once(self, monkeypatch):
        field = builtin_field("gaussian_cross_spd", {"c": 0.5, "d": 2})
        rule = build_rule("gauss_hermite", order=16, m=1)
        outs = []
        original = SpdMatrix.sqrt_and_invsqrt

        def recording(self):
            out = original(self)
            if self.entries.shape[0] == rule.count:
                outs.append(out)
            return out

        monkeypatch.setattr(SpdMatrix, "sqrt_and_invsqrt", recording)
        assert prekopa_check(field, [0.1], 1, rule).passed
        # the fiber pencil of the gate and the Schur margin, and the margin's map to V0
        assert len(outs) == 2 and all(o[1] is outs[0][1] for o in outs)

    def test_the_shared_fiber_gives_the_same_route_b(self):
        field = builtin_field("perturbed_gaussian_spd")
        rule = build_rule("gauss_hermite", order=32, m=1)
        t = np.array([0.1])
        fiber = mlcc.inequalities._fiber_pass(field, t, rule)
        for got, ref in zip(theta_alpha_decomposed(field, t, rule, fiber),
                            theta_alpha_decomposed(field, t, rule)):
            assert np.array_equal(got, ref)

    def test_an_asymmetric_fiber_jet_names_its_point(self, monkeypatch):
        field = builtin_field("gaussian_cross_spd", {"c": 0.5, "d": 2})
        rule = build_rule("gauss_hermite", order=8, m=1)
        original = MatrixField.jet

        def skewed(self, x):
            jet = original(self, x)
            d2 = jet.d2.copy()
            d2[3, 0, 1, 0, 1] += 1.0  # node 3: d2_{t y} no longer symmetric
            return type(jet)(value=jet.value, d1=jet.d1, d2=d2)

        monkeypatch.setattr(MatrixField, "jet", skewed)
        with pytest.raises(SymmetryError, match=r"field gaussian_cross_spd at x = \[ 0\.1 +-0\.381187\]: curvature"):
            prekopa_check(field, [0.1], 1, rule)


def test_matrix_roots_are_computed_once_and_read_only():
    m = SpdMatrix(np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 4.0]]]))
    first, second = m.sqrt_and_invsqrt(), m.sqrt_and_invsqrt()
    assert first[0] is second[0] and first[1] is second[1]
    for a in first:
        with pytest.raises(ValueError):
            a[0, 0, 0] = 1.0
    _close(first[0] @ first[0], m.entries)
    _close(first[0] @ first[1], np.broadcast_to(np.eye(2), (2, 2, 2)))


# -- poly_eval against term-by-term powers; the polar operator's null split --------


def poly_eval_power_reference(terms, x):
    """poly_eval as a point-major sum of terms, each ``coeff * x_j ** d_j * ...``."""
    x = np.asarray(x, dtype=float)
    lead, n = x.shape[:-1], x.shape[-1]
    shape = np.asarray(terms[0][0]).shape
    cols = x.reshape(-1, n).T.copy().reshape((n, -1) + (1,) * len(shape))
    total = np.zeros(cols.shape[1:2] + shape)
    for coeff, degs in terms:
        m = coeff
        for j, dj in enumerate(degs):
            if dj:
                m = m * cols[j] ** dj
        total = total + m
    return total.reshape(lead + shape)


COEFF_SHAPES = [(), (3,), (2, 2), (4, 2, 2)]


def _random_terms(rng, n, shape, max_deg, count=8):
    return [(rng.standard_normal(shape) if shape else float(rng.standard_normal()),
             tuple(int(k) for k in rng.integers(0, max_deg + 1, n))) for _ in range(count)]


class TestPolyEval:
    @pytest.mark.parametrize("shape", COEFF_SHAPES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degree_two_matches_the_power_reference_bit_for_bit(self, n, shape):
        rng = np.random.default_rng(n)
        terms = _random_terms(rng, n, shape, 2) + [(np.ones(shape) if shape else 1.0, (0,) * n)]
        x = rng.uniform(-3, 3, (40, n))
        got = poly_eval(poly_written(terms), x)
        assert got.shape == (40,) + shape and got.flags.c_contiguous
        np.testing.assert_array_equal(got, poly_eval_power_reference(terms, x))
        np.testing.assert_array_equal(poly_eval(poly_written(terms), x[7]), got[7])

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_a_higher_power_is_within_4_ulp_of_pow(self, k):
        x = np.random.default_rng(k).uniform(-3, 3, (500, 2))
        terms = [(1.0, (k, 0)), (1.0, (0, k))]
        for j in range(2):
            got = poly_eval(poly_written(terms[j:j + 1]), x)
            ref = poly_eval_power_reference(terms[j:j + 1], x)
            assert (np.abs(got - ref) <= 4 * np.finfo(float).eps * np.abs(ref)).all()

    @pytest.mark.parametrize("shape", COEFF_SHAPES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degree_six_is_within_4_ulp_of_the_power_reference(self, n, shape):
        # relative to the sum of the terms' magnitudes, which bounds any cancellation
        rng = np.random.default_rng(10 + n)
        terms = _random_terms(rng, n, shape, 6)
        x = rng.uniform(-2, 2, (40, n))
        got = poly_eval(poly_written(terms), x)
        assert got.shape == (40,) + shape and got.flags.c_contiguous
        magnitude = poly_eval_power_reference([(np.abs(c), d) for c, d in terms], np.abs(x))
        ref = poly_eval_power_reference(terms, x)
        assert (np.abs(got - ref) <= 4 * np.finfo(float).eps * magnitude).all()

    def test_a_huge_exponent_takes_a_few_multiplications(self):
        x = np.array([[-1.0], [0.0], [0.5], [1.0], [2.0]])
        for k in (10**12, 10**12 + 1):
            with np.errstate(over="ignore"):
                got, ref = poly_eval(poly_written([(1.0, (k,))]), x), x[:, 0] ** k
            np.testing.assert_array_equal(got, ref)

    def test_leaves_no_reference_cycle(self):
        # a cycle would keep each call's power cache alive until the next full collection
        terms = [(np.ones(2), (3, 1)), (np.ones(2), (0, 2))]
        x = np.random.default_rng(4).uniform(-1, 1, (64, 2))
        poly = poly_written(terms)
        gc.collect()
        gc.disable()
        try:
            poly_eval(poly, x)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_lead_shape_of_points_is_kept(self):
        terms = [(np.eye(2), (3, 1)), (np.ones((2, 2)), (0, 2))]
        x = np.random.default_rng(2).uniform(-1, 1, (3, 4, 2))
        got = poly_eval(poly_written(terms), x)
        assert got.shape == (3, 4, 2, 2) and got.flags.c_contiguous
        np.testing.assert_array_equal(got.reshape(12, 2, 2),
                                      poly_eval(poly_written(terms), x.reshape(12, 2)))


def _forms_with_null_nodes(rng, count, dim, null_nodes):
    """A metric stack and PSD forms of full rank but at ``null_nodes``, which lose one
    direction outright and another to a relative 1e-7, null under a loose tolerance."""
    a = rng.standard_normal((count, dim, dim))
    metric = SpdMatrix(a @ a.swapaxes(1, 2) + dim * np.eye(dim))
    q = np.stack([random_orthogonal(rng, dim) for _ in range(count)])
    lam = rng.uniform(1.0, 2.0, (count, dim))
    lam[null_nodes, 0] = 0.0
    lam[null_nodes, 1] = 1e-7
    forms = (q * lam[:, None, :]) @ q.swapaxes(1, 2)
    return QuadraticFormSpec(metric, metric.entries @ forms @ metric.entries)


class TestPolarNullSplit:
    @pytest.mark.parametrize("null_nodes", [[], [1, 4]])
    def test_tolerances_in_turn_equal_fresh_operators(self, null_nodes):
        rng = np.random.default_rng(len(null_nodes))
        spec = _forms_with_null_nodes(rng, 6, 3, null_nodes)
        vs = rng.standard_normal((6, 3))
        # at a null node, v has no part along the exact null direction but one along
        # the near-null one: finite under the tight tolerance, off range under the loose
        _, invroot = spec.metric.sqrt_and_invsqrt()
        _, w = np.linalg.eigh(metric_pencil(invroot, spec.form))
        for i in null_nodes:
            vs[i] = invroot[i] @ w[i] @ np.array([0.0, 1.0, 1.0])
        polar = PolarOperator(spec)
        got = {}
        for tol in (1e-10, 1e-5, 1e-10):
            got[tol] = polar.value(vs, tol)
            np.testing.assert_array_equal(got[tol], PolarOperator(spec).value(vs, tol))
            for i in range(6):
                one = QuadraticFormSpec(SpdMatrix(spec.metric.entries[i]), spec.form[i])
                np.testing.assert_allclose(got[tol][i], PolarOperator(one).value(vs[i], tol).value,
                                           rtol=1e-9)
        assert np.isfinite(got[1e-10]).all()
        assert np.isinf(got[1e-5][null_nodes]).all()
        assert np.isfinite(np.delete(got[1e-5], null_nodes)).all()
