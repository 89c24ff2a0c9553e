import numpy as np
import pytest

from mlcc import (
    ColumnBlockMatrix,
    InputError,
    NotPositiveError,
    NotPsdError,
    QuadraticFormSpec,
    SpdMatrix,
    g_adjoint,
    g_inner,
    polar_value,
    tensor_inner,
)


class TestSpdMatrix:
    def test_symmetrized_storage(self):
        m = SpdMatrix([[2.0, 1.0 + 1e-14], [1.0, 2.0]])
        assert (m.entries == m.entries.T).all()

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveError):
            SpdMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(InputError):
            SpdMatrix(np.ones((2, 3)))

    def test_rejects_a_negative_definite_matrix_at_the_overflow_threshold(self):
        # 0.5 (a + a^T) overflowed to -inf and its NaN eigenvalues passed the check
        with pytest.raises(NotPositiveError, match=r"min eigenvalue -1\.000e\+308"):
            SpdMatrix([[-1e308, -1.0], [-1.0, -1e308]])

    def test_accepts_a_positive_definite_matrix_at_the_overflow_threshold(self):
        big = np.diag([1e308, 1e308])
        assert SpdMatrix(big).entries.tobytes() == big.tobytes()

    def test_rejects_a_nan_eigenvalue(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full_like(eigvalsh(a), np.nan))
        with pytest.raises(NotPositiveError, match=r"matrix 0 of 2 is not positive definite"):
            SpdMatrix(np.stack([np.eye(2)] * 2))


class TestInnerProducts:
    def test_identity_metric(self):
        g = SpdMatrix(np.eye(2))
        assert g_inner(g, [1.0, 1.0], [1.0, 1.0]) == pytest.approx(2.0)

    def test_diagonal_orthogonality(self):
        g = SpdMatrix(np.diag([2.0, 3.0]))
        assert g_inner(g, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_direct_arithmetic(self):
        g = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert g_inner(g, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        g = SpdMatrix(np.eye(2))
        with pytest.raises(InputError):
            g_inner(g, [1.0, 0.0, 0.0], [1.0, 0.0])

    def test_positivity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        g = SpdMatrix(a @ a.T + 3 * np.eye(3))
        for _ in range(20):
            u = rng.standard_normal(3)
            assert g_inner(g, u, u) > 0.0


class TestTensorInner:
    def test_identity(self):
        g = SpdMatrix(np.eye(2))
        u = ColumnBlockMatrix([[1.0, 0.0], [0.0, 1.0]])
        assert tensor_inner(g, u, u) == pytest.approx(2.0)

    def test_scaling(self):
        g = SpdMatrix(2.0 * np.eye(2))
        u = ColumnBlockMatrix([[1.0, 0.0], [0.0, 1.0]])
        assert tensor_inner(g, u, u) == pytest.approx(4.0)

    def test_d1_reduces_to_weighted_dot(self):
        g = SpdMatrix([[3.0]])
        u = ColumnBlockMatrix([[1.0], [2.0]])
        v = ColumnBlockMatrix([[1.0], [1.0]])
        assert tensor_inner(g, u, v) == pytest.approx(9.0)

    def test_matches_g_inner_single_column(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        g = SpdMatrix(a @ a.T + 2 * np.eye(3))
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        assert tensor_inner(g, ColumnBlockMatrix([u]), ColumnBlockMatrix([v])) == (
            pytest.approx(g_inner(g, u, v))
        )

    def test_nonnegative_zero_iff_zero(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 2))
        g = SpdMatrix(a @ a.T + np.eye(2))
        z = ColumnBlockMatrix([np.zeros(2), np.zeros(2)])
        assert tensor_inner(g, z, z) == 0.0
        for _ in range(20):
            u = ColumnBlockMatrix([rng.standard_normal(2) for _ in range(3)])
            assert tensor_inner(g, u, u) > 0.0

    def test_shape_mismatch(self):
        g = SpdMatrix(np.eye(2))
        u = ColumnBlockMatrix([[1.0, 0.0]])
        v = ColumnBlockMatrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InputError):
            tensor_inner(g, u, v)


class TestGAdjoint:
    def test_identity_metric_is_transpose(self):
        g = SpdMatrix(np.eye(3))
        a = np.arange(9.0).reshape(3, 3)
        np.testing.assert_allclose(g_adjoint(g, a), a.T)

    def test_commuting_symmetric_fixed(self):
        g = SpdMatrix(np.diag([1.0, 4.0]))
        a = np.diag([2.0, 5.0])
        np.testing.assert_allclose(g_adjoint(g, a), a)

    def test_direct_arithmetic(self):
        # g^{-1} A^T g: the (2,1) entry picks up g_11 / g_22
        g = SpdMatrix(np.diag([1.0, 4.0]))
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(g_adjoint(g, a), [[0.0, 0.0], [0.25, 0.0]])

    def test_adjoint_property(self):
        rng = np.random.default_rng(29)
        b = rng.standard_normal((3, 3))
        g = SpdMatrix(b @ b.T + 2 * np.eye(3))
        a = rng.standard_normal((3, 3))
        adj = g_adjoint(g, a)
        for _ in range(10):
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            assert g_inner(g, a @ u, v) == pytest.approx(g_inner(g, u, adj @ v))

    def test_involution(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((4, 4))
        g = SpdMatrix(b @ b.T + 2 * np.eye(4))
        a = rng.standard_normal((4, 4))
        back = g_adjoint(g, g_adjoint(g, a))
        np.testing.assert_allclose(back, a, rtol=1e-12, atol=1e-12)


def _random_spec(rng, dim, rank=None):
    b = rng.standard_normal((dim, dim))
    metric = SpdMatrix(b @ b.T + dim * np.eye(dim))
    rank = dim if rank is None else rank
    r = rng.standard_normal((rank, dim))
    c_tilde = r.T @ r  # PSD in the plain sense
    # form = metric @ C with C metric-symmetric: take C = metric^{-1} c_tilde
    return QuadraticFormSpec(metric, c_tilde)


class TestPolarValue:
    def test_self_polar_identity(self):
        spec = QuadraticFormSpec(SpdMatrix(np.eye(3)), np.eye(3))
        v = np.array([1.0, -2.0, 0.5])
        assert polar_value(spec, v).value == pytest.approx(float(v @ v))

    def test_diagonal_inverse(self):
        spec = QuadraticFormSpec(SpdMatrix(np.eye(2)), np.diag([2.0, 0.5]))
        assert polar_value(spec, [1.0, 1.0]).value == pytest.approx(2.5)

    def test_degenerate_direction_is_infinite(self):
        spec = QuadraticFormSpec(SpdMatrix(np.eye(2)), np.diag([1.0, 0.0]))
        assert polar_value(spec, [0.0, 1.0]).is_infinite

    def test_in_range_of_degenerate_form(self):
        spec = QuadraticFormSpec(SpdMatrix(np.eye(2)), np.diag([2.0, 0.0]))
        assert polar_value(spec, [1.0, 0.0]).value == pytest.approx(0.5)

    def test_definite_equals_inverse_form(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            spec = _random_spec(rng, dim)
            v = rng.standard_normal(dim)
            c = np.linalg.solve(spec.metric.entries, spec.form)
            direct = float(np.linalg.solve(c, v) @ spec.metric.entries @ v)
            assert polar_value(spec, v).value == pytest.approx(direct, rel=1e-9)

    def test_indefinite_raises(self):
        spec_form = np.diag([1.0, -1.0])
        with pytest.raises(NotPsdError):
            polar_value(QuadraticFormSpec(SpdMatrix(np.eye(2)), spec_form), [1.0, 0.0])

    def test_rejects_bad_null_tol(self):
        spec = QuadraticFormSpec(SpdMatrix(np.eye(2)), np.eye(2))
        with pytest.raises(InputError):
            polar_value(spec, [1.0, 0.0], rel_null_tol=0.5)

    def test_legendre_cross_check(self):
        # stationarity oracle: maximize 2<u,v>_M - Q(u); at the optimum
        # form @ u = M v and the value is <u, v>_M
        rng = np.random.default_rng(17)
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            rank = int(rng.integers(1, dim + 1))
            spec = _random_spec(rng, dim, rank)
            w = rng.standard_normal(dim)
            v = np.linalg.solve(spec.metric.entries, spec.form @ w)
            u_star, *_ = np.linalg.lstsq(spec.form, spec.metric.entries @ v, rcond=None)
            oracle = float(u_star @ spec.metric.entries @ v)
            got = polar_value(spec, v)
            assert not got.is_infinite
            assert got.value == pytest.approx(oracle, rel=0.01)

    def test_bipolar_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            spec = _random_spec(rng, dim)
            m = spec.metric.entries
            # polar of a definite form is Q_{g, C^{-1}}; its form matrix is
            # M @ (M^{-1} form)^{-1} = M @ form^{-1} @ M
            bipolar = QuadraticFormSpec(spec.metric, m @ np.linalg.solve(spec.form, m))
            v = rng.standard_normal(dim)
            assert polar_value(bipolar, v).value == pytest.approx(
                spec(v), rel=1e-8
            )

    def test_asymmetric_form_rejected(self):
        with pytest.raises(InputError):
            QuadraticFormSpec(SpdMatrix(np.eye(2)), [[1.0, 0.5], [0.0, 1.0]])
