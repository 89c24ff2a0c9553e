import math

import numpy as np
import pytest

import mlcc._poly
import mlcc.quadrature

from mlcc import (
    BudgetError,
    DirichletEvaluator,
    NotPositiveError,
    VectorFieldFn,
    build_rule,
    builtin_field,
    dirichlet_energy,
    integrate_field,
    pairwise_sum,
    variance_functional,
    weighted_mean,
)
from mlcc.fields import MatrixField

SQRT_2PI = math.sqrt(2.0 * math.pi)


class TestBuildRule:
    def test_gauss_hermite_order_two(self):
        rule = build_rule("gauss_hermite", m=1, order=2, scale=math.sqrt(2.0))
        np.testing.assert_allclose(sorted(p[0] for p in rule.nodes), [-1.0, 1.0],
                                   atol=1e-14)
        total = pairwise_sum(
            [w * math.exp(-y[0] ** 2 / 2.0) for y, w in zip(rule.nodes, rule.weights)]
        )
        # an order-2 rule is exact for the quadratic Taylor truncation only
        assert total == pytest.approx(SQRT_2PI, rel=0.1)

    def test_gauss_hermite_high_order_moment(self, gh64):
        total = pairwise_sum(
            [w * math.exp(-y[0] ** 2 / 2.0) for y, w in zip(gh64.nodes, gh64.weights)]
        )
        assert total == pytest.approx(SQRT_2PI, abs=1e-10)

    def test_uniform_grid(self):
        rule = build_rule("uniform_grid", m=1, box=[(-1.0, 1.0)], resolution=3)
        np.testing.assert_allclose(sorted(p[0] for p in rule.nodes), [-1.0, 0.0, 1.0])
        assert pairwise_sum(rule.weights) == pytest.approx(2.0)

    def test_tensor_product_count(self):
        rule = build_rule("gauss_hermite", m=2, order=32)
        assert rule.m == 2
        assert rule.count == 1024
        assert len(rule.nodes) == 1024
        assert len(rule.weights) == 1024

    def test_node_budget(self):
        with pytest.raises(BudgetError):
            build_rule("gauss_hermite", m=5, order=100)

    def test_unknown_kind(self):
        with pytest.raises(Exception):
            build_rule("monte_carlo", n=1, order=8)


class TestPairwiseSum:
    def test_matches_fsum(self):
        rng = np.random.default_rng(7)
        vals = list(rng.standard_normal(1013) * np.exp(rng.uniform(-8, 8, 1013)))
        assert pairwise_sum(vals) == pytest.approx(math.fsum(vals), rel=1e-14)

    def test_deterministic(self):
        vals = [0.1] * 999
        assert pairwise_sum(vals) == pairwise_sum(list(vals))


class TestIntegrateField:
    def test_gaussian_scalar_mass(self, gauss1, gh64):
        z = integrate_field(gauss1, gh64)
        assert z.entries[0, 0] == pytest.approx(SQRT_2PI, abs=1e-10)

    def test_gaussian_times_spd(self, gh64):
        a = np.diag([1.0, 2.0])
        f = builtin_field("gaussian_times_spd", {"n": 1, "A": a})
        z = integrate_field(f, gh64)
        np.testing.assert_allclose(z.entries, math.sqrt(math.pi) * a / math.sqrt(2.0)
                                   * math.sqrt(2.0), atol=1e-10)

    def test_refinement_stability(self, gauss1):
        z40 = integrate_field(gauss1, build_rule("gauss_hermite", m=1, order=40))
        z64 = integrate_field(gauss1, build_rule("gauss_hermite", m=1, order=64))
        assert abs(z40.entries[0, 0] - z64.entries[0, 0]) < 1e-12 * z64.entries[0, 0]

    def test_determinism(self, gauss2):
        rule = build_rule("gauss_hermite", m=2, order=24)
        a = integrate_field(gauss2, rule).entries
        b = integrate_field(gauss2, rule).entries
        np.testing.assert_array_equal(a, b)

    def test_not_positive_propagates(self, gh32x1):
        rule = build_rule("gauss_hermite", m=2, order=16, scale=2.0)
        f = builtin_field("raufi_corrected", {"s": 0.75})
        with pytest.raises(NotPositiveError):
            integrate_field(f, rule)

    def test_tail_warning(self):
        # a box too small for the double-well mass leaves a fat boundary term
        f = builtin_field("double_well_scalar", {})
        rule = build_rule("uniform_grid", m=2, box=[(-1.2, 1.2), (-1.2, 1.2)],
                         resolution=9)
        with pytest.warns(UserWarning):
            integrate_field(f, rule)

    @pytest.mark.filterwarnings("ignore:outermost quadrature node")
    @pytest.mark.parametrize("params", [
        {"kind": "gauss_hermite", "order": 12, "m": 2, "center": [0.5, -1.0], "scale": 0.5},
        {"kind": "uniform_grid", "box": [(-1.2, 0.8), (0.0, 3.0)], "resolution": 9},
    ])
    def test_outermost_node_is_found_once_per_rule(self, monkeypatch, params):
        rule = build_rule(**params)
        center = rule.nodes.mean(axis=0)
        outer = int(np.argmax(np.linalg.norm(rule.nodes - center, axis=1)))
        assert rule.outermost == outer
        # later integrals read the cached index
        monkeypatch.setattr(np, "argmax",
                            lambda *a, **k: pytest.fail("outermost node searched again"))
        for _ in range(2):
            integrate_field(builtin_field("gaussian_scalar", {"n": 2}), rule)


class TestWeightedMean:
    def test_constant(self, gauss1, gh64):
        fn = VectorFieldFn.polynomial(1, [[(3.0, (0,))]])
        np.testing.assert_allclose(weighted_mean(gauss1, fn, gh64), [3.0], atol=1e-12)

    def test_odd_vanishes(self, gauss1, gh64):
        fn = VectorFieldFn.polynomial(1, [[(1.0, (1,))]])
        np.testing.assert_allclose(weighted_mean(gauss1, fn, gh64), [0.0], atol=1e-12)

    def test_second_moment(self, gauss1, gh64):
        fn = VectorFieldFn.polynomial(1, [[(1.0, (2,))]])
        np.testing.assert_allclose(weighted_mean(gauss1, fn, gh64), [1.0], atol=1e-10)


class TestVariance:
    def test_linear(self, gauss1, gh64):
        fn = VectorFieldFn.polynomial(1, [[(1.0, (1,))]])
        assert variance_functional(gauss1, fn, gh64) == pytest.approx(
            SQRT_2PI, abs=1e-10
        )

    def test_quadratic(self, gauss1, gh64):
        fn = VectorFieldFn.polynomial(1, [[(1.0, (2,))]])
        assert variance_functional(gauss1, fn, gh64) == pytest.approx(
            2.0 * SQRT_2PI, abs=1e-9
        )

    def test_constant_is_zero(self, gauss1, gh64):
        fn = VectorFieldFn.polynomial(1, [[(5.0, (0,))]])
        assert variance_functional(gauss1, fn, gh64) == pytest.approx(0.0, abs=1e-10)

    def test_matches_two_pass_definition(self, gh64):
        a = np.array([[2.0, 0.4], [0.4, 1.0]])
        f = builtin_field("gaussian_times_spd", {"n": 1, "A": a})
        fn = VectorFieldFn.polynomial(
            1, [[(1.0, (1,)), (0.5, (2,))], [(0.3, (1,))]]
        )
        got = variance_functional(f, fn, gh64)
        # second pass: subtract the weighted mean, integrate the squared norm
        mean = weighted_mean(f, fn, gh64)
        vals = []
        for y, w in zip(gh64.nodes, gh64.weights):
            g = f.value(y)
            dev = fn.value(np.asarray(y)) - mean
            vals.append(w * float(dev @ g @ dev))
        direct = pairwise_sum(vals)
        assert got == pytest.approx(direct, rel=1e-10)


class TestDirichlet:
    def test_linear(self, gauss1, gh64):
        fn = VectorFieldFn.polynomial(1, [[(1.0, (1,))]])
        assert dirichlet_energy(gauss1, fn, gh64) == pytest.approx(
            SQRT_2PI, abs=1e-10
        )

    def test_constant_is_zero(self, gauss1, gh64):
        fn = VectorFieldFn.polynomial(1, [[(2.0, (0,))]])
        assert dirichlet_energy(gauss1, fn, gh64) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic(self, gauss1, gh64):
        fn = VectorFieldFn.polynomial(1, [[(1.0, (2,))]])
        assert dirichlet_energy(gauss1, fn, gh64) == pytest.approx(
            4.0 * SQRT_2PI, abs=1e-9
        )

    def test_degenerate_direction_is_infinite(self):
        # weight constant along x2: the polar form blows up on that direction
        f = MatrixField(2, 1, [(1.0, (2, 0))], [((0, 0), np.eye(1))])
        rule = build_rule("uniform_grid", m=2, box=[(-4, 4), (-4, 4)], resolution=33)
        fn = VectorFieldFn.polynomial(2, [[(1.0, (0, 1))]])
        energy = DirichletEvaluator(f, rule).energy(fn)
        assert energy.is_infinite

    def test_evaluator_reuse_matches_oneshot(self, gauss1, gh64):
        ev = DirichletEvaluator(gauss1, gh64)
        for comps in ([[(1.0, (1,))]], [[(1.0, (2,))]], [[(1.0, (3,))]]):
            fn = VectorFieldFn.polynomial(1, comps)
            assert ev.energy(fn).value == pytest.approx(
                dirichlet_energy(gauss1, fn, gh64).value, rel=1e-12
            )


class TestVectorFieldFn:
    def test_fd_gradient_matches_exact(self):
        comps = [[(1.0, (2, 1)), (0.5, (0, 3))], [(2.0, (1, 0))]]
        exact = VectorFieldFn.polynomial(2, comps)
        fd = VectorFieldFn(n=2, d=2, value=exact.value)
        x = np.array([0.7, -0.4])
        np.testing.assert_allclose(fd.grad(x), exact.grad(x), atol=1e-5)

    def test_fd_hessian_matches_exact(self):
        comps = [[(1.0, (2, 1))], [(1.0, (0, 2))]]
        exact = VectorFieldFn.polynomial(2, comps)
        fd = VectorFieldFn(n=2, d=2, value=exact.value)
        x = np.array([0.3, 0.2])
        np.testing.assert_allclose(fd.hess(x), exact.hess(x), atol=1e-4)

    def test_polynomial_hessian_terms_are_built_on_first_use(self, monkeypatch):
        calls, original = [], mlcc._poly.poly_diff

        def counting(poly, j):  # the variable of each partial taken
            calls.append(j)
            return original(poly, j)

        monkeypatch.setattr(mlcc.quadrature, "poly_diff", counting)
        fn = VectorFieldFn.polynomial(2, [[(1.0, (2, 1)), (0.5, (0, 3))], [(2.0, (1, 0))]])
        x = np.array([[0.7, -0.4], [0.3, 0.2]])
        fn.value(x), fn.grad(x)
        assert calls == [0, 1]  # the gradients' d_0 F and d_1 F, at the build
        first = fn.hess(x)
        # d_k d_j F for (j, k) row-major, on the first Hessian only
        assert np.array_equal(fn.hess(x), first) and calls == [0, 1, 0, 1, 0, 1]
        # d^2/dy0^2 of y0^2 y1 + 0.5 y1^3 is 2 y1; d^2/dy1^2 is 3 y1; the rest is exact too
        np.testing.assert_array_equal(first[:, 0, 0, 0], 2.0 * x[:, 1])
        np.testing.assert_array_equal(first[:, 0, 1, 1], 3.0 * x[:, 1])
        np.testing.assert_array_equal(first[:, 0, 0, 1], 2.0 * x[:, 0])
        np.testing.assert_array_equal(first[:, 1], 0.0)

    def test_the_build_collects_without_poly_collect(self, monkeypatch):
        # the rows are collected as the terms are read: no scattered block to collect
        calls, original = [], mlcc._poly.poly_collect

        def counting(exps, coeffs):
            calls.append(len(exps))
            return original(exps, coeffs)

        monkeypatch.setattr(mlcc._poly, "poly_collect", counting)
        assert not hasattr(mlcc.quadrature, "poly_collect")
        comps = [[(1.0, (2, 1)), (0.5, (0, 3)), (-0.0, (2, 1))], [(2.0, (0, 3)), (1.0, (1, 0))]]
        fn = VectorFieldFn.polynomial(2, comps)
        x = np.array([[0.7, -0.4], [0.3, 0.2]])
        fn.value(x), fn.grad(x), fn.hess(x)
        assert calls == []
