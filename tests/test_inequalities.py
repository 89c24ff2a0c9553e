import json
import math
from itertools import product

import numpy as np
import pytest

import mlcc
from mlcc import (
    ColumnBlockMatrix,
    InputError,
    VectorFieldFn,
    bl_gap,
    block_split,
    bochner_residual,
    build_rule,
    builtin_field,
    curvature_matrix,
    generalized_spectrum,
    griffiths_check,
    ipp_residual,
    marginal_theta_fd,
    mixed_block_action,
    nakano_check,
    nakano_verdict,
    prekopa_check,
    schur_check,
    theta_alpha_decomposed,
    weighted_laplacian,
)
from test_references import _mixed_vector_field
from mlcc.cli import run
from mlcc.quadrature import DirichletEvaluator, variance_functional

SQRT_2PI = math.sqrt(2.0 * math.pi)


def poly_fn(n, comps):
    return VectorFieldFn.polynomial(n, comps)


def _same_as_cli(capsys, report, argv):
    """Whether ``report`` equals the first check of ``mlcc`` on ``argv``, keys in order."""
    run(argv + ["--no-timestamp"])
    check = json.loads(capsys.readouterr().out)["checks"][0]
    return vars(report) == check and json.dumps(vars(report)) == json.dumps(check)


class TestPointwiseChecks:
    """nakano_check, griffiths_check and schur_check give the report of the matching
    subcommand, key for key."""

    @pytest.mark.parametrize("s, point, jet", product(
        [0.3, 0.75], [(0.1, 0.2), (0.2, -0.1)], ["exact", "fd"]))
    def test_raufi_corrected(self, capsys, s, point, jet):
        field = builtin_field("raufi_corrected", {"s": s},
                              **({"jet_mode": "finite_difference"} if jet == "fd" else {}))
        cm = curvature_matrix(field, np.array(point))
        argv = ["--field", "raufi_corrected", "--param", f"s={s}",
                "--point", ",".join(map(str, point)), "--jet", jet]
        assert _same_as_cli(capsys, nakano_check(cm), ["nakano", *argv])
        assert _same_as_cli(capsys, griffiths_check(cm), ["griffiths", *argv])
        assert _same_as_cli(capsys, schur_check(cm, 1), ["schur", *argv, "--n0", "1"])
        v0 = ColumnBlockMatrix([np.array([0.3, -0.7])])
        assert _same_as_cli(capsys, schur_check(cm, 1, v0),
                            ["schur", *argv, "--n0", "1", "--v0", "0.3,-0.7"])

    def test_griffiths_with_d_3(self, capsys):
        params = {"n": 2, "d": 3, "a12": 0.3, "a23": -0.2}
        cm = curvature_matrix(builtin_field("gaussian_times_spd", params), np.array([0.1, -0.2]))
        argv = ["griffiths", "--field", "gaussian_times_spd", "--point", "0.1,-0.2"]
        argv += [arg for k, v in params.items() for arg in ("--param", f"{k}={v}")]
        assert _same_as_cli(capsys, griffiths_check(cm), argv)

    @pytest.mark.parametrize("check", [nakano_check, griffiths_check,
                                       lambda cm: schur_check(cm, 1)],
                             ids=["nakano", "griffiths", "schur"])
    def test_a_stack_of_points_is_an_input_error(self, check):
        # nakano raised a TypeError and griffiths a ValueError on a stack
        field = builtin_field("raufi_corrected", {"s": 0.75})
        cm = curvature_matrix(field, np.array([[0.1, 0.2], [0.2, -0.1]]))
        with pytest.raises(InputError, match="_check takes the curvature at one point, not a "
                                             "stack of 2"):
            check(cm)

    def test_the_checks_are_exported(self):
        for name in ("nakano_check", "griffiths_check", "schur_check"):
            assert getattr(mlcc, name) is getattr(mlcc.inequalities, name)


class TestBrascampLieb:
    def test_linear_is_tight(self, gauss1, gh64):
        report = bl_gap(gauss1, poly_fn(1, [[(1.0, (1,))]]), gh64)
        assert report.passed
        assert abs(report.metrics["gap"]) <= 1e-8

    def test_quadratic_gap(self, gauss1, gh64):
        report = bl_gap(gauss1, poly_fn(1, [[(1.0, (2,))]]), gh64)
        assert report.passed
        assert report.metrics["gap"] == pytest.approx(2.0 * SQRT_2PI, abs=1e-6)

    def test_degenerate_direction(self):
        from mlcc.fields import MatrixField

        f = MatrixField(2, 1, [(1.0, (2, 0))], [((0, 0), np.eye(1))])
        rule = build_rule("uniform_grid", box=[(-4, 4), (-4, 4)], resolution=33)
        report = bl_gap(f, poly_fn(2, [[(1.0, (0, 1))]]), rule)
        assert report.status == "degenerate"

    def test_evaluator_reuse(self, gauss1, gh64):
        ev = DirichletEvaluator(gauss1, gh64)
        a = bl_gap(gauss1, poly_fn(1, [[(1.0, (2,))]]), gh64, evaluator=ev)
        b = bl_gap(gauss1, poly_fn(1, [[(1.0, (2,))]]), gh64)
        assert a.metrics["gap"] == pytest.approx(b.metrics["gap"], rel=1e-12)


class TestWeightedLaplacian:
    def test_gaussian_linear(self, gauss1):
        fn = poly_fn(1, [[(1.0, (1,))]])
        for y in (-2.0, 0.0, 1.5):
            np.testing.assert_allclose(
                weighted_laplacian(gauss1, fn, np.array([y])), [-y], atol=1e-12
            )

    def test_gaussian_quadratic(self, gauss1):
        fn = poly_fn(1, [[(1.0, (2,))]])
        for y in (-1.0, 0.5):
            np.testing.assert_allclose(
                weighted_laplacian(gauss1, fn, np.array([y])),
                [2.0 - 2.0 * y**2],
                atol=1e-12,
            )

    def test_constant_weight_reduces_to_laplacian(self):
        from mlcc.fields import MatrixField

        f = MatrixField(1, 1, [], [((0,), np.array([[3.0]]))])
        fn = poly_fn(1, [[(1.0, (2,))]])
        np.testing.assert_allclose(
            weighted_laplacian(f, fn, np.array([0.8])), [2.0], atol=1e-12
        )

    def test_constant_function(self, gauss2):
        fn = poly_fn(2, [[(4.0, (0, 0))]])
        np.testing.assert_allclose(
            weighted_laplacian(gauss2, fn, np.array([0.3, -0.2])), [0.0], atol=1e-12
        )


class TestIntegrationByParts:
    def test_constant_pair(self, gauss1, gh64):
        fn = poly_fn(1, [[(2.0, (0,))]])
        report = ipp_residual(gauss1, fn, fn, gh64)
        assert report.passed
        assert report.metrics["residual"] <= 1e-12

    def test_linear_pair(self, gauss1, gh64):
        fn = poly_fn(1, [[(1.0, (1,))]])
        report = ipp_residual(gauss1, fn, fn, gh64)
        assert report.passed
        assert report.metrics["residual"] <= 1e-8
        # closed form: int <Ly, y> g = -int y^2 g = -sqrt(2 pi)
        assert report.metrics["lhs"] == pytest.approx(-SQRT_2PI, abs=1e-9)

    def test_compact_support_pair_on_grid(self, gauss1):
        # F = G = (1 - y^2)^2 vanishes to first order at the box boundary
        comps = [[(1.0, (0,)), (-2.0, (2,)), (1.0, (4,))]]
        fn = poly_fn(1, comps)
        rule = build_rule("uniform_grid", box=[(-1.0, 1.0)], resolution=2048)
        report = ipp_residual(gauss1, fn, fn, rule, tol_res=1e-4)
        assert report.passed
        assert report.metrics["residual"] <= 1e-4

    def test_matrix_weight(self, gh64):
        a = np.array([[2.0, 0.4], [0.4, 1.0]])
        f = builtin_field("gaussian_times_spd", {"n": 1, "A": a})
        fn = poly_fn(1, [[(1.0, (1,))], [(0.5, (2,))]])
        gn = poly_fn(1, [[(0.3, (2,))], [(1.0, (1,))]])
        report = ipp_residual(f, fn, gn, gh64)
        assert report.passed


class TestBochner:
    def test_linear(self, gauss1, gh64):
        report = bochner_residual(gauss1, poly_fn(1, [[(1.0, (1,))]]), gh64)
        assert report.passed
        assert report.metrics["lhs"] == pytest.approx(SQRT_2PI, abs=1e-9)
        assert report.metrics["term_curv"] == pytest.approx(SQRT_2PI, abs=1e-9)
        assert report.metrics["term_hess"] == pytest.approx(0.0, abs=1e-12)

    def test_quadratic(self, gauss1, gh64):
        report = bochner_residual(gauss1, poly_fn(1, [[(1.0, (2,))]]), gh64)
        assert report.passed
        assert report.metrics["lhs"] == pytest.approx(8.0 * SQRT_2PI, abs=1e-8)
        assert report.metrics["term_curv"] == pytest.approx(4.0 * SQRT_2PI, abs=1e-8)
        assert report.metrics["term_hess"] == pytest.approx(4.0 * SQRT_2PI, abs=1e-8)

    def test_matrix_weight_identity(self, gh64):
        a = np.array([[1.5, 0.2], [0.2, 1.0]])
        f = builtin_field("gaussian_times_spd", {"n": 1, "A": a})
        report = bochner_residual(f, poly_fn(1, [[(1.0, (2,))], [(1.0, (1,))]]), gh64)
        assert report.passed

    def test_fd_jet_halving_converges_second_order(self):
        # residual of the identity under raw central differences shrinks ~h^2
        rule = build_rule("gauss_hermite", m=1, order=48)
        residuals = []
        for h in (1e-2, 5e-3, 2.5e-3):
            f = builtin_field(
                "gaussian_scalar", {"n": 1}, jet_mode="finite_difference", h=h,
                richardson=False
            )
            rep = bochner_residual(f, poly_fn(1, [[(1.0, (3,))]]), rule,
                                   tol_res=1.0)
            residuals.append(rep.metrics["residual"])
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 3.5 <= coarse / fine <= 4.5


class TestMarginalCurvature:
    def test_separable_gaussian(self, gh64):
        f = builtin_field("gaussian_scalar", {"n": 2})
        cm = marginal_theta_fd(f, [0.0], gh64)
        np.testing.assert_allclose(generalized_spectrum(cm), [-1.0], atol=1e-6)

    def test_gaussian_times_spd(self, gh64):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        f = builtin_field("gaussian_times_spd", {"n": 2, "A": a})
        cm = marginal_theta_fd(f, [0.2], gh64)
        np.testing.assert_allclose(generalized_spectrum(cm), [-2.0, -2.0], atol=1e-6)

    def test_constant_in_t_is_flat(self, gh64):
        from mlcc.fields import MatrixField

        # weight depends only on the integrated variable
        f = MatrixField(2, 1, [(0.5, (0, 2))], [((0, 0), np.eye(1))])
        cm = marginal_theta_fd(f, [0.4], gh64)
        np.testing.assert_allclose(cm.theta_tilde, 0.0, atol=1e-6)


def _route_b(f, t, v0, rule):
    """<Theta^alpha V0, V0> and its two terms, from route B's matrices."""
    v = v0.flatten()
    return tuple(float(v @ m @ v) for m in theta_alpha_decomposed(f, t, rule))


class TestThetaAlphaDecomposed:
    def test_separable_has_no_variance_term(self, gh64):
        f = builtin_field("gaussian_scalar", {"n": 2})
        v0 = ColumnBlockMatrix([np.array([0.7])])
        total, term_curv00, term_var = _route_b(f, [0.1], v0, gh64)
        assert term_var == pytest.approx(0.0, abs=1e-10)
        cm = marginal_theta_fd(f, [0.1], gh64)
        assert total == pytest.approx(cm.quadratic_form(v0), abs=1e-6)

    def test_constant_in_t(self, gh64):
        from mlcc.fields import MatrixField

        f = MatrixField(2, 1, [(0.5, (0, 2))], [((0, 0), np.eye(1))])
        v0 = ColumnBlockMatrix([np.array([1.0])])
        total, term_curv00, term_var = _route_b(f, [0.0], v0, gh64)
        assert total == pytest.approx(0.0, abs=1e-10)

    def test_nonseparable_matches_route_a(self, gh64):
        f = builtin_field("gaussian_cross_spd", {"c": 0.5, "d": 1})
        v0 = ColumnBlockMatrix([np.array([1.0])])
        total, term_curv00, term_var = _route_b(f, [0.2], v0, gh64)
        assert term_var > 1e-6  # genuinely non-product
        cm = marginal_theta_fd(f, [0.2], gh64)
        q_a = cm.quadratic_form(v0)
        assert abs(q_a - total) / (1.0 + abs(total)) <= 1e-4

    def test_perturbed_matrix_fixture(self, gh64):
        f = builtin_field("perturbed_gaussian_spd", {})
        rng = np.random.default_rng(11)
        cm = marginal_theta_fd(f, [0.1], gh64)
        for _ in range(5):
            v0 = ColumnBlockMatrix([rng.uniform(-1, 1, 2)])
            total, _, _ = _route_b(f, [0.1], v0, gh64)
            q_a = cm.quadratic_form(v0)
            assert abs(q_a - total) / (1.0 + abs(total)) <= 1e-4


class TestMixedVectorField:
    def test_gradient_matches_mixed_block_action(self):
        f = builtin_field("gaussian_cross_spd", {"c": 0.4, "d": 2})
        t = np.array([0.15])
        v0 = ColumnBlockMatrix([np.array([0.8, -0.4])])
        fn = _mixed_vector_field(f, t, v0)
        for y in (-0.5, 0.3):
            cm = curvature_matrix(f, np.array([t[0], y]))
            split = block_split(cm, 1)
            image = mixed_block_action(split, v0)
            np.testing.assert_allclose(
                fn.grad(np.array([y]))[:, 0], image.columns[0], atol=1e-5
            )


class TestPrekopa:
    def test_separable_gaussian_passes(self, gh64):
        f = builtin_field("gaussian_scalar", {"n": 2})
        report = prekopa_check(f, [0.0], 1, gh64)
        assert report.passed
        assert report.metrics["lambda_max_alpha"] == pytest.approx(-1.0, abs=1e-5)
        assert report.metrics["route_diff"] <= 1e-4
        assert report.metrics["schur_margin"] >= -1e-8

    def test_nonseparable_passes(self, gh64):
        f = builtin_field("gaussian_cross_spd", {"c": 0.5, "d": 2})
        report = prekopa_check(f, [0.1], 1, gh64)
        assert report.passed
        assert report.metrics["lambda_max_alpha"] <= 1e-8

    def test_perturbed_matrix_passes(self, gh64):
        f = builtin_field("perturbed_gaussian_spd", {})
        report = prekopa_check(f, [0.05], 1, gh64)
        assert report.passed

    def test_double_well_is_degenerate(self, gh64):
        f = builtin_field("double_well_scalar", {})
        report = prekopa_check(f, [0.0], 1, gh64)
        assert report.status == "degenerate"
        assert report.metrics["lambda_max_nodes"] > 0

    def test_local_inequality_along_nodes(self, gh64):
        # node-wise certificate: the Schur margin reported is nonnegative
        f = builtin_field("gaussian_cross_spd", {"c": 0.6, "d": 2})
        report = prekopa_check(f, [0.2], 1, gh64)
        assert report.passed
        assert report.metrics["schur_margin"] >= -1e-8

    def test_variance_bounded_by_dirichlet_on_mixed_field(self, gh64):
        # the decomposition's variance term obeys the variance inequality
        f = builtin_field("gaussian_cross_spd", {"c": 0.5, "d": 2})
        t = np.array([0.1])
        v0 = ColumnBlockMatrix([np.array([1.0, 0.5])])
        from mlcc.fields import restrict_field

        restricted = restrict_field(f, t)
        fn = _mixed_vector_field(f, t, v0)
        var = variance_functional(restricted, fn, gh64)
        energy = DirichletEvaluator(restricted, gh64).energy(fn)
        assert not energy.is_infinite
        assert var <= energy.value + 1e-6 * max(1.0, energy.value)
