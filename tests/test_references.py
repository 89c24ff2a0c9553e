"""Reference tests for the shared numerics: the metric pencil, exact jets,
read-only polynomial coefficients, the central-difference stencil and the
Prekopa route B matrices.

The references are the formulas the shared helpers replaced: a dense
generalized eigensolve against the block-diagonal metric id_n (x) g,
symbolic differentiation of e^{-q} P, and route B evaluated one V0 at a time
as fiber curvature plus the variance of a vector field.
"""

import numpy as np
import pytest

import mlcc.inequalities
from mlcc import (
    ColumnBlockMatrix,
    QuadraticFormSpec,
    VectorFieldFn,
    block_split,
    build_rule,
    builtin_field,
    conjugate_field,
    curvature_matrix,
    generalized_spectrum,
    marginal_theta_fd,
    nakano_verdict,
    pairwise_sum,
    polynomial_field_from_json,
    prekopa_check,
    restrict_field,
    theta_alpha_decomposed,
    variance_functional,
)
from mlcc._poly import poly_diff, poly_eval, poly_substitute_prefix
from mlcc.metric import PolarOperator

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
        before = [(c.copy(), degs) for c, degs in field._p]
        x = np.array([0.3, -0.2])
        field.value(x)
        field.jet(x)
        field.with_jet_mode("finite_difference").jet(x)
        restrict_field(field, [0.4]).jet(np.array([0.1]))
        conjugate_field(field, np.array([[0.0, 1.0], [1.0, 0.0]])).value(x)
        for (c, degs), (c0, degs0) in zip(field._p, before):
            assert not c.flags.writeable
            assert degs == degs0
            np.testing.assert_array_equal(c, c0)

    def test_term_list_helpers_do_not_mutate_arrays(self):
        a = np.array([[1.0, 2.0], [2.0, 5.0]])
        terms = [(a, (0, 0)), (a.copy(), (1, 2))]
        np.testing.assert_array_equal(poly_eval(terms, [2.0, 3.0]), 19.0 * a)
        poly_substitute_prefix(terms, [2.0])
        poly_diff(terms, 1)
        for c, _ in terms:
            np.testing.assert_array_equal(c, [[1.0, 2.0], [2.0, 5.0]])

    def test_empty_derivative_keeps_coefficient_shape(self):
        terms = [(np.eye(3), (0, 1))]
        zero = poly_eval(poly_diff(terms, 0), [0.5, 0.5])
        np.testing.assert_array_equal(zero, np.zeros((3, 3)))
        frozen = poly_substitute_prefix([(np.eye(3), (1, 1))], [0.0])
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
