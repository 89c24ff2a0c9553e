import importlib
import itertools
import pkgutil

import numpy as np
import pytest

import mlcc
from mlcc import (
    ColumnBlockMatrix,
    InputError,
    SpdMatrix,
    SymmetryError,
    block_split,
    builtin_field,
    conjugate_field,
    curvature_matrix,
    generalized_spectrum,
    griffiths_min_gap,
    mixed_block_action,
    nakano_verdict,
    schur_gap,
    theta_block,
)
from mlcc.curvature import curvature_from_jet
from mlcc.fields import Jet2, MatrixField

from conftest import random_orthogonal


def scalar_envelope_field(q_terms, n):
    """d=1 field exp(-phi) for a polynomial phi."""
    return MatrixField(n, 1, q_terms, [((0,) * n, np.eye(1))])


class TestThetaBlock:
    def test_gaussian_scalar_theta_is_minus_one(self, gauss1):
        for y in (-1.0, 0.0, 2.0):
            jet = gauss1.jet(np.array([y]))
            assert theta_block(jet, 0, 0)[0, 0] == pytest.approx(-1.0)

    def test_constant_field_is_flat(self):
        f = MatrixField(2, 2, [], [((0, 0), np.array([[2.0, 0.5], [0.5, 1.0]]))])
        jet = f.jet(np.array([0.4, -0.1]))
        for j in range(2):
            for k in range(2):
                np.testing.assert_allclose(theta_block(jet, j, k), 0.0)

    @pytest.mark.parametrize("s", [0.3, 0.75])
    def test_raufi_corrected_blocks_at_zero(self, s):
        jet = builtin_field("raufi_corrected", {"s": s}).jet(np.zeros(2))
        np.testing.assert_allclose(theta_block(jet, 0, 0), -np.diag([2 * s, 2.0]))
        np.testing.assert_allclose(
            theta_block(jet, 0, 1), -np.array([[0.0, 1.0], [1.0, 0.0]])
        )

    def test_index_range(self, gauss1):
        jet = gauss1.jet(np.array([0.0]))
        with pytest.raises(InputError):
            theta_block(jet, 0, 1)

    @pytest.mark.parametrize("jet_mode", ["exact", "finite_difference"])
    def test_a_stack_gives_each_points_blocks(self, jet_mode):
        field = builtin_field("raufi_corrected", {"s": 0.75}, jet_mode=jet_mode)
        x = np.array([[0.1, 0.2], [0.2, -0.1]])
        jet = field.jet(x)
        theta = curvature_from_jet(jet).theta_tilde
        for j, k in itertools.product(range(2), repeat=2):
            stacked = theta_block(jet, j, k)
            assert stacked.shape == (2, 2, 2)
            for i, point in enumerate(x):
                np.testing.assert_array_equal(stacked[i], theta_block(field.jet(point), j, k))
            # g theta_{j,k} is block (row k, column j) of theta_tilde
            block = theta[:, 2 * k:2 * k + 2, 2 * j:2 * j + 2]
            np.testing.assert_allclose(jet.value.entries @ stacked, block, rtol=0, atol=1e-12)


class TestCurvatureMatrix:
    def test_matches_displayed_example(self):
        s = 0.75
        cm = curvature_matrix(builtin_field("raufi_corrected", {"s": s}), np.zeros(2))
        displayed = np.array(
            [
                [-2 * s, 0.0, 0.0, -1.0],
                [0.0, -2.0, -1.0, 0.0],
                [0.0, -1.0, -2.0, 0.0],
                [-1.0, 0.0, 0.0, -2 * s],
            ]
        )
        # order-invariant comparison plus the direct one in our flattening
        np.testing.assert_allclose(
            np.linalg.eigvalsh(cm.theta_tilde), np.linalg.eigvalsh(displayed), atol=1e-12
        )
        np.testing.assert_allclose(cm.theta_tilde, displayed, atol=1e-12)

    def test_gaussian_scalar_generalized_spectrum(self, gauss2):
        cm = curvature_matrix(gauss2, np.array([0.5, -1.0]))
        np.testing.assert_allclose(generalized_spectrum(cm), [-1.0, -1.0], atol=1e-12)

    def test_gaussian_times_spd_block(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        f = builtin_field("gaussian_times_spd", {"n": 1, "A": a})
        cm = curvature_matrix(f, np.array([0.7]))
        g = f.value([0.7])
        np.testing.assert_allclose(cm.theta_tilde, -2.0 * g, atol=1e-12)
        np.testing.assert_allclose(generalized_spectrum(cm), [-2.0, -2.0], atol=1e-12)

    def test_quadratic_form_consistency(self):
        f = builtin_field("raufi_corrected", {"s": 0.8})
        x = np.array([0.03, -0.02])
        cm = curvature_matrix(f, x)
        jet = f.jet(x)
        g = jet.value.entries
        rng = np.random.default_rng(31)
        for _ in range(100):
            cols = [rng.standard_normal(2) for _ in range(2)]
            u = ColumnBlockMatrix(cols)
            blockwise = sum(
                float(cols[k] @ (g @ theta_block(jet, j, k)) @ cols[j])
                for j in range(2)
                for k in range(2)
            )
            assert cm.quadratic_form(u) == pytest.approx(blockwise, rel=1e-10, abs=1e-12)

    def test_broken_jet_raises_symmetry_error(self):
        d2 = np.zeros((2, 2, 1, 1))
        d2[0, 1] = 1.0  # deliberately unsymmetrized cross derivatives
        jet = Jet2(value=SpdMatrix(np.eye(1)), d1=np.zeros((2, 1, 1)), d2=d2)
        with pytest.raises(SymmetryError):
            curvature_from_jet(jet)

    def test_d1_reduction_scalar_weight(self):
        # for g = exp(-phi), theta_tilde must equal -g * Hess(phi)
        q = [(1.0, (2, 0)), (1.0, (0, 2)), (0.5, (1, 1))]
        f = scalar_envelope_field(q, 2)
        x = np.array([0.4, -0.3])
        cm = curvature_matrix(f, x)
        hess = np.array([[2.0, 0.5], [0.5, 2.0]])
        g = f.value(x)[0, 0]
        np.testing.assert_allclose(cm.theta_tilde, -g * hess, atol=1e-8)


class TestNakano:
    def test_threshold_cases(self):
        f = builtin_field("raufi_corrected", {"s": 0.75})
        v = nakano_verdict(curvature_matrix(f, np.zeros(2)))
        assert v.lambda_max == pytest.approx(-0.5, abs=1e-12)
        assert v.is_nlogconcave

        f = builtin_field("raufi_corrected", {"s": 0.4})
        v = nakano_verdict(curvature_matrix(f, np.zeros(2)))
        assert v.lambda_max == pytest.approx(0.2, abs=1e-12)
        assert not v.is_nlogconcave

    def test_gaussian_scalar_anywhere(self):
        f = builtin_field("gaussian_scalar", {"n": 3})
        v = nakano_verdict(curvature_matrix(f, np.array([1.0, -2.0, 0.3])))
        assert v.lambda_max == pytest.approx(-1.0, abs=1e-10)
        assert v.is_nlogconcave

    def test_std_eigenvalue_sign_agrees(self):
        for s in (0.3, 0.75):
            f = builtin_field("raufi_corrected", {"s": s})
            v = nakano_verdict(curvature_matrix(f, np.zeros(2)))
            assert np.sign(v.lambda_max) == np.sign(v.lambda_max_std)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(37)
        f = builtin_field("raufi_corrected", {"s": 0.6})
        x = np.array([0.01, -0.02])
        base = nakano_verdict(curvature_matrix(f, x))
        for _ in range(5):
            p = random_orthogonal(rng, 2)
            v = nakano_verdict(curvature_matrix(conjugate_field(f, p), x))
            assert v.is_nlogconcave == base.is_nlogconcave
            assert v.lambda_max == pytest.approx(base.lambda_max, abs=1e-9)


class TestGriffiths:
    def test_nakano_implies_griffiths(self):
        f = builtin_field("raufi_corrected", {"s": 0.75})
        cm = curvature_matrix(f, np.zeros(2))
        assert griffiths_min_gap(cm) <= 1e-9

    def test_n_equal_one_matches_nakano(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        f = builtin_field("gaussian_times_spd", {"n": 1, "A": a})
        cm = curvature_matrix(f, np.array([0.2]))
        v = nakano_verdict(cm)
        assert griffiths_min_gap(cm) == pytest.approx(v.lambda_max, abs=1e-8)

    def test_gaussian_scalar_two_dim(self, gauss2):
        cm = curvature_matrix(gauss2, np.array([0.3, 0.1]))
        assert griffiths_min_gap(cm) == pytest.approx(-1.0, abs=1e-8)

    def test_minimum_starts(self, gauss2):
        cm = curvature_matrix(gauss2, np.zeros(2))
        with pytest.raises(InputError):
            griffiths_min_gap(cm, n_starts=4)

    def test_no_module_holds_a_complex_array(self):
        # the circle's polynomial is built from real quadratics in each call, so no
        # module computes a complex table when it is imported
        for info in pkgutil.iter_modules(mlcc.__path__, "mlcc."):
            module = importlib.import_module(info.name)
            held = [name for name, value in vars(module).items()
                    if isinstance(value, np.ndarray) and np.iscomplexobj(value)]
            assert not held, f"{info.name} holds complex arrays {held}"


class TestBlockSplit:
    def test_raufi_split(self):
        s = 0.75
        cm = curvature_matrix(builtin_field("raufi_corrected", {"s": s}), np.zeros(2))
        split = block_split(cm, 1)
        np.testing.assert_allclose(split.theta00, -np.diag([2 * s, 2.0]), atol=1e-12)
        np.testing.assert_allclose(split.theta11, -np.diag([2.0, 2 * s]), atol=1e-12)
        v0 = ColumnBlockMatrix([np.array([1.0, 0.0])])
        image = mixed_block_action(split, v0)
        np.testing.assert_allclose(image.columns[0], [0.0, -1.0], atol=1e-12)

    def test_reassembly(self):
        cm = curvature_matrix(builtin_field("raufi_corrected", {"s": 0.9}),
                              np.array([0.02, 0.01]))
        split = block_split(cm, 1)
        d = cm.d
        rebuilt = np.zeros_like(cm.theta_tilde)
        rebuilt[:d, :d] = split.theta00
        rebuilt[d:, :d] = split.theta01_tilde
        rebuilt[:d, d:] = split.theta01_tilde.T
        rebuilt[d:, d:] = split.theta11
        np.testing.assert_array_equal(rebuilt, cm.theta_tilde)

    def test_gaussian_scalar_split(self, gauss2):
        cm = curvature_matrix(gauss2, np.zeros(2))
        split = block_split(cm, 1)
        assert split.theta00[0, 0] == pytest.approx(-1.0)
        assert split.theta11[0, 0] == pytest.approx(-1.0)
        np.testing.assert_allclose(split.theta01_tilde, 0.0, atol=1e-14)

    def test_out_of_range(self, gauss2):
        cm = curvature_matrix(gauss2, np.zeros(2))
        with pytest.raises(InputError):
            block_split(cm, 2)


class TestSchurGap:
    def test_worked_example(self):
        cm = curvature_matrix(builtin_field("raufi_corrected", {"s": 0.75}), np.zeros(2))
        split = block_split(cm, 1)
        v0 = ColumnBlockMatrix([np.array([1.0, 0.0])])
        gap = schur_gap(split, v0)
        assert gap.value == pytest.approx(1.5 - 2.0 / 3.0, abs=1e-12)

    def test_zero_mixed_image(self, gauss2):
        cm = curvature_matrix(gauss2, np.array([0.3, -0.5]))
        split = block_split(cm, 1)
        v0 = ColumnBlockMatrix([np.array([2.0])])
        g = gauss2.value([0.3, -0.5])[0, 0]
        gap = schur_gap(split, v0)
        assert gap.value == pytest.approx(4.0 * g, rel=1e-10)

    def test_nonnegative_for_nlogconcave(self):
        f = builtin_field("raufi_corrected", {"s": 0.75})
        rng = np.random.default_rng(41)
        for _ in range(20):
            x = rng.uniform(-0.05, 0.05, 2)
            cm = curvature_matrix(f, x)
            split = block_split(cm, 1)
            for _ in range(10):
                v0 = ColumnBlockMatrix([rng.uniform(-1, 1, 2)])
                assert schur_gap(split, v0).value >= -1e-8
