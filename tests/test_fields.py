import math

import numpy as np
import pytest

from mlcc import (
    InputError,
    NotPositiveError,
    builtin_field,
    conjugate_field,
    curvature_matrix,
    nakano_verdict,
    polynomial_field,
    polynomial_field_from_json,
    restrict_field,
)
from mlcc.fields import MatrixField

from conftest import random_orthogonal


def constant_field(a, n=2):
    a = np.asarray(a, dtype=float)
    return MatrixField(n, a.shape[0], [], [((0,) * n, a)], name="constant")


class TestBuiltins:
    def test_raufi_printed_at_zero(self):
        f = builtin_field("raufi_printed", {"s": 0.0})
        np.testing.assert_allclose(f.value([0.0, 0.0]), np.eye(2))

    def test_gaussian_scalar_value(self):
        f = builtin_field("gaussian_scalar", {"n": 1})
        assert f.value([2.0])[0, 0] == pytest.approx(math.exp(-2.0))

    def test_raufi_corrected_substitution(self):
        f = builtin_field("raufi_corrected", {"s": 1.0})
        np.testing.assert_allclose(f.value([0.1, 0.0]), np.diag([0.99, 0.99]))

    def test_unknown_name(self):
        with pytest.raises(InputError):
            builtin_field("nonexistent")

    def test_positivity_enforced_per_evaluation(self):
        f = builtin_field("raufi_corrected", {"s": 1.0})
        with pytest.raises(NotPositiveError):
            f.value([2.0, 0.0])

    def test_nonfinite_point(self):
        f = builtin_field("gaussian_scalar", {"n": 1})
        with pytest.raises(InputError):
            f.value([float("nan")])


class TestEvaluateJet:
    def test_constant_field(self):
        f = constant_field([[2.0, 0.5], [0.5, 1.0]])
        jet = f.jet([0.3, -0.7])
        np.testing.assert_allclose(jet.d1, 0.0)
        np.testing.assert_allclose(jet.d2, 0.0)

    def test_gaussian_scalar_at_zero(self):
        f = builtin_field("gaussian_scalar", {"n": 1})
        jet = f.jet([0.0])
        assert jet.value.entries[0, 0] == pytest.approx(1.0)
        assert jet.d1[0][0, 0] == pytest.approx(0.0)
        assert jet.d2[0, 0][0, 0] == pytest.approx(-1.0)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_raufi_corrected_jet_at_zero(self, s):
        f = builtin_field("raufi_corrected", {"s": s})
        jet = f.jet([0.0, 0.0])
        np.testing.assert_allclose(jet.value.entries, np.eye(2))
        np.testing.assert_allclose(jet.d1, 0.0, atol=1e-15)
        np.testing.assert_allclose(jet.d2[0, 0], -np.diag([2 * s, 2.0]), atol=1e-15)

    def test_jet_symmetry_exact(self):
        f = builtin_field("raufi_corrected", {"s": 0.7})
        jet = f.jet([0.02, -0.01])
        np.testing.assert_array_equal(jet.d2[0, 1], jet.d2[1, 0])

    def test_jet_symmetry_fd(self):
        f = builtin_field("raufi_corrected", {"s": 0.7}).with_jet_mode(
            "finite_difference", h=1e-4
        )
        jet = f.jet([0.02, -0.01])
        np.testing.assert_array_equal(jet.d2[0, 1], jet.d2[1, 0])

    def test_fd_matches_exact_on_polynomials(self):
        entries = {
            "1,1": [[4.0, [0, 0]], [1.0, [3, 0]], [-0.5, [1, 1]]],
            "2,2": [[3.0, [0, 0]], [0.5, [1, 2]]],
            "1,2": [[0.2, [1, 1]], [0.1, [0, 2]]],
        }
        exact = polynomial_field(2, 2, entries)
        fd = exact.with_jet_mode("finite_difference", h=1e-4, richardson=True)
        for x in ([0.0, 0.0], [0.3, -0.2], [0.5, 0.5]):
            je = exact.jet(np.array(x))
            jf = fd.jet(np.array(x))
            np.testing.assert_allclose(jf.d1, je.d1, atol=1e-6)
            np.testing.assert_allclose(jf.d2, je.d2, atol=1e-6)


class TestConjugate:
    def test_identity_is_noop(self):
        f = builtin_field("raufi_corrected", {"s": 0.75})
        g = conjugate_field(f, np.eye(2))
        x = np.array([0.01, 0.02])
        np.testing.assert_allclose(g.value(x), f.value(x))

    def test_rotation_of_constant_diagonal(self):
        f = constant_field(np.diag([1.0, 2.0]))
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        g = conjugate_field(f, rot)
        np.testing.assert_allclose(g.value([0.0, 0.0]), np.diag([2.0, 1.0]), atol=1e-15)

    def test_non_orthogonal_rejected(self):
        f = constant_field(np.eye(2))
        with pytest.raises(InputError):
            conjugate_field(f, [[1.0, 0.1], [0.0, 1.0]])

    def test_verdict_invariant(self):
        f = builtin_field("raufi_corrected", {"s": 0.75})
        rng = np.random.default_rng(23)
        base = nakano_verdict(curvature_matrix(f, np.zeros(2)))
        for _ in range(5):
            p = random_orthogonal(rng, 2)
            other = nakano_verdict(curvature_matrix(conjugate_field(f, p), np.zeros(2)))
            assert other.is_nlogconcave == base.is_nlogconcave
            assert other.lambda_max == pytest.approx(base.lambda_max, abs=1e-9)


class TestRestrict:
    def test_gaussian_scalar_restriction(self):
        parent = builtin_field("gaussian_scalar", {"n": 2})
        child = restrict_field(parent, [0.0])
        ref = builtin_field("gaussian_scalar", {"n": 1})
        for y in (-1.0, 0.0, 0.7):
            np.testing.assert_allclose(child.value([y]), ref.value([y]))

    def test_constant_restriction(self):
        f = constant_field(np.diag([1.0, 3.0]), n=3)
        child = restrict_field(f, [1.0, 2.0])
        np.testing.assert_allclose(child.value([0.5]), np.diag([1.0, 3.0]))

    def test_separable_product(self):
        a = np.diag([1.0, 2.0])
        f = builtin_field("gaussian_times_spd", {"n": 2, "A": a})
        child = restrict_field(f, [1.0])
        y = 0.4
        np.testing.assert_allclose(
            child.value([y]), math.exp(-1.0) * math.exp(-(y**2)) * a
        )

    def test_restricted_jet_is_parent_y_block(self):
        f = builtin_field("gaussian_cross_spd", {"c": 0.5, "a11": 1.0, "a22": 2.0})
        t, y = 0.3, -0.2
        parent = f.jet(np.array([t, y]))
        child = restrict_field(f, [t]).jet(np.array([y]))
        np.testing.assert_allclose(child.value.entries, parent.value.entries, atol=1e-12)
        np.testing.assert_allclose(child.d1[0], parent.d1[1], atol=1e-12)
        np.testing.assert_allclose(child.d2[0, 0], parent.d2[1, 1], atol=1e-12)

    def test_cannot_freeze_everything(self):
        f = builtin_field("gaussian_scalar", {"n": 2})
        with pytest.raises(InputError):
            restrict_field(f, [0.0, 0.0])


class TestPolynomialJson:
    def test_roundtrip(self, tmp_path):
        obj = {
            "n": 2,
            "d": 2,
            "entries": {
                "1,1": [[2.0, [0, 0]], [-1.0, [2, 0]]],
                "2,2": [[2.0, [0, 0]]],
                "1,2": [[0.5, [1, 1]]],
            },
        }
        path = tmp_path / "field.json"
        import json

        path.write_text(json.dumps(obj))
        f = polynomial_field_from_json(str(path))
        np.testing.assert_allclose(f.value([0.0, 0.0]), np.diag([2.0, 2.0]))
        np.testing.assert_allclose(
            f.value([0.5, 1.0]), [[1.75, 0.25], [0.25, 2.0]]
        )

    def test_lower_triangle_key_rejected(self):
        with pytest.raises(InputError):
            polynomial_field(2, 2, {"2,1": [[1.0, [0, 0]]]})

    def test_bad_degree_length(self):
        with pytest.raises(InputError):
            polynomial_field(2, 1, {"1,1": [[1.0, [0]]]})
