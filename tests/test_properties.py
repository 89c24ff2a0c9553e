"""Property tests (hypothesis): the Prekopa check on the cross Gaussian family.

For g = exp(-(t^2 + y^2 + c t y)) A the marginal is N-log-concave for |c| < 2,
and the Schur form is (2 - c^2/2) id (x) g at every fiber node.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from mlcc import build_rule, builtin_field, prekopa_check  # noqa: E402

GH32 = build_rule("gauss_hermite", order=32, m=1)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(c=st.floats(-1.5, 1.5), d=st.sampled_from([1, 2]), t=st.floats(-0.5, 0.5))
def test_cross_gaussian_prekopa_is_exact(c, d, t):
    report = prekopa_check(builtin_field("gaussian_cross_spd", {"c": c, "d": d}), [t], 1, GH32)
    assert report.status == "pass"
    assert report.metrics["schur_margin"] == pytest.approx(2.0 - c * c / 2.0, abs=1e-10)
    assert report.metrics["route_diff"] <= 1e-6
