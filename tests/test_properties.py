"""Property tests (hypothesis): the Prekopa check on the cross Gaussian family,
the rank-one search against the Nakano spectrum and, when n = d = 2, against the
eigensolve loop of ``test_references`` on random polynomial fields and against dense
sampling and the Nakano spectrum on random indefinite pencils, the circle's polynomial
against the function whose stationary angles it holds, and one formula for g on those
fields with their terms written as repeated monomials.

For g = exp(-(t^2 + y^2 + c t y)) A the marginal is N-log-concave for |c| < 2,
and the Schur form is (2 - c^2/2) id (x) g at every fiber node.  Every rank-one
direction y (x) u is a direction of the full space, so the Griffiths maximum is
at most the largest Nakano eigenvalue, with equality when n = 1 or d = 1.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from mlcc import (  # noqa: E402
    CurvatureMatrix,
    SpdMatrix,
    build_rule,
    builtin_field,
    curvature_matrix,
    griffiths_min_gap,
    nakano_verdict,
    prekopa_check,
)
from conftest import poly_terms  # noqa: E402
from mlcc.curvature import _circle_poly  # noqa: E402
from mlcc.fields import MatrixField  # noqa: E402
from mlcc.metric import metric_pencil  # noqa: E402
from test_references import griffiths_loop, schur_margin_dense, schur_margin_of  # noqa: E402

GH32 = build_rule("gauss_hermite", order=32, m=1)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(c=st.floats(-1.5, 1.5), d=st.sampled_from([1, 2]), t=st.floats(-0.5, 0.5))
def test_cross_gaussian_prekopa_is_exact(c, d, t):
    report = prekopa_check(builtin_field("gaussian_cross_spd", {"c": c, "d": d}), [t], 1, GH32)
    assert report.status == "pass"
    assert report.metrics["schur_margin"] == pytest.approx(2.0 - c * c / 2.0, abs=1e-10)
    assert report.metrics["route_diff"] <= 1e-6


def _random_polynomial_field(rng, n, d, eps=0.1):
    """e^{-q}(A + eps B(x)): q a sum of squares of linear forms plus a small convex
    quartic, A SPD and B(x) a symmetric linear matrix polynomial.  The weight is SPD
    for |x_k| <= 1/2: A >= id, and eps sum_k |x_k| ||B_k|| <= eps n d < 1."""
    e = [tuple(int(v) for v in row) for row in np.eye(n)]
    lin = rng.standard_normal((n, n))
    hess = lin.T @ lin
    q = [(0.5 * hess[i, j], tuple(a + b for a, b in zip(e[i], e[j])))
         for i in range(n) for j in range(n)]
    q += [(float(rng.uniform(0.0, 0.1)), tuple(4 * v for v in e[i])) for i in range(n)]
    a = rng.standard_normal((d, d))
    terms = [((0,) * n, a @ a.T + np.eye(d))]
    for k in range(n):
        b = rng.uniform(-1.0, 1.0, (d, d))
        terms.append((e[k], eps * (b + b.T)))
    return MatrixField(n, d, q, terms)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), d=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_rank_one_maximum_is_at_most_the_nakano_maximum(n, d, seed):
    rng = np.random.default_rng(seed)
    field = _random_polynomial_field(rng, n, d)
    cm = curvature_matrix(field, rng.uniform(-0.5, 0.5, n))
    lam = nakano_verdict(cm).lambda_max
    rank_one = griffiths_min_gap(cm)
    assert rank_one <= lam + 1e-12 * max(1.0, abs(lam))
    if n == 1 or d == 1:
        # every direction is rank-one
        assert rank_one == pytest.approx(lam, rel=1e-8, abs=1e-8)


def _pencil_scale(cm):
    """max(1, the largest entry of the pencil): the scale of a value's rounding."""
    _, invroot = cm.g.sqrt_and_invsqrt()
    return max(1.0, float(np.abs(metric_pencil(invroot, cm.theta_tilde)).max()))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_iter=st.sampled_from([1, 200]))
def test_the_circle_steps_match_the_start_loop(seed, max_iter):
    """n = d = 2: the closed form finds the converged value of the eigensolve loop, and
    at one step, where the loop stops short of the maximum, no less than its value."""
    rng = np.random.default_rng(seed)
    cm = curvature_matrix(_random_polynomial_field(rng, 2, 2), rng.uniform(-0.5, 0.5, 2))
    ref = griffiths_loop(cm, max_iter=max_iter)
    if max_iter == 1:
        scale = max(abs(ref), _pencil_scale(cm))
        assert griffiths_min_gap(cm, max_iter=max_iter) >= ref - 1e-15 * scale
    else:
        assert griffiths_min_gap(cm, max_iter=max_iter) == pytest.approx(ref, rel=1e-12, abs=0.0)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), start_seed=st.integers(0, 9),
       n_starts=st.sampled_from([8, 32]), max_iter=st.sampled_from([1, 2, 3, 5, 200]))
def test_the_newton_steps_find_no_less_than_the_start_loop(seed, start_seed, n_starts, max_iter):
    """n = d = 2: the search is at least the eigensolve loop's value at the same starts
    and steps, up to rounding.  The two differ by up to 2e-15 at one step, where both
    take the same plain step, so the rounding allowance scales with the pencil's entries."""
    rng = np.random.default_rng(seed)
    cm = curvature_matrix(_random_polynomial_field(rng, 2, 2), rng.uniform(-0.5, 0.5, 2))
    ref = griffiths_loop(cm, n_starts, max_iter, start_seed)
    _, invroot = cm.g.sqrt_and_invsqrt()
    scale = max(1.0, abs(ref), float(np.abs(metric_pencil(invroot, cm.theta_tilde)).max()))
    assert griffiths_min_gap(cm, n_starts, max_iter, start_seed) >= ref - 1e-15 * scale


@settings(max_examples=100, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-6.0, 6.0))
def test_the_circle_maximum_lies_between_dense_sampling_and_nakano(seed, log_scale):
    """n = d = 2, random indefinite pencils and SPD g: the value is at least the largest
    rank-one value at 4096 equally spaced angles of y, each the top eigenvalue of
    sum_jk y_j y_k P_jk, and at most the largest Nakano eigenvalue, up to rounding."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((4, 4)), rng.standard_normal((2, 2))
    cm = CurvatureMatrix(2, 2, 10.0**log_scale * (a + a.T), SpdMatrix(b @ b.T + np.eye(2)), 0.0)
    value = griffiths_min_gap(cm)
    _, invroot = cm.g.sqrt_and_invsqrt()
    # entry (a, b) of the pencil's block (j, k) at [k, a, j, b]
    pencil = metric_pencil(invroot, cm.theta_tilde).reshape(2, 2, 2, 2)
    phi = np.pi * np.arange(4096) / 4096
    y = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    sampled = np.linalg.eigvalsh(np.einsum("ij,ik,kajb->iab", y, y, pencil))[:, -1].max()
    assert value >= sampled - 1e-15 * _pencil_scale(cm)
    lam = nakano_verdict(cm).lambda_max
    assert value <= lam + 1e-12 * max(1.0, abs(lam))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-6.0, 6.0))
def test_the_circle_polynomial_is_t_in_the_half_angle_tangent(seed, log_scale):
    """For a random 3 x 3 K the coefficients of the circle's polynomial give
    (1 + t^2)^4 T(2 arctan t), T = (e' K)_0^2 |c|^2 - (c.c')^2 for c = (e K)_{1:} and
    c' = (e' K)_{1:}, at random t, to 1e-12 of the largest coefficient times
    (1 + t^2)^4, which bounds the polynomial's size at t."""
    rng = np.random.default_rng(seed)
    k = 10.0**log_scale * rng.standard_normal((3, 3))
    coef = _circle_poly(k)
    t = np.tan(rng.uniform(-0.5 * np.pi, 0.5 * np.pi, 32))
    theta = 2.0 * np.arctan(t)
    cos, sin = np.cos(theta), np.sin(theta)
    ek = np.stack([np.ones_like(t), cos, sin], axis=1) @ k
    dek = np.stack([np.zeros_like(t), -sin, cos], axis=1) @ k
    c, dc = ek[:, 1:], dek[:, 1:]
    t_value = dek[:, 0] ** 2 * (c * c).sum(axis=1) - (c * dc).sum(axis=1) ** 2
    scale = (1.0 + t * t) ** 4
    assert coef.shape == (9,)
    assert np.all(np.abs(np.polyval(coef, t) - scale * t_value)
                  <= 1e-12 * np.abs(coef).max() * scale)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), d=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**32 - 1), jet_mode=st.sampled_from(["exact", "finite_difference"]))
def test_value_and_jet_value_are_one_formula_with_repeated_terms(n, d, seed, jet_mode):
    """Each term of the random field written as two or three monomials, shuffled: the
    field collects them once, so its value and its jet's value agree bit for bit."""
    rng = np.random.default_rng(seed)
    field = _random_polynomial_field(rng, n, d)

    def repeated(terms):
        pieces = [(c * w, degs) for c, degs in terms
                  for w in rng.dirichlet(np.ones(rng.integers(2, 4)))]
        return [pieces[i] for i in rng.permutation(len(pieces))]

    split = MatrixField(n, d, repeated(poly_terms(field._q)),
                        [(degs, c) for c, degs in repeated(poly_terms(field._p))],
                        jet_mode=jet_mode)
    for x in (rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, (64, n))):
        value, jet_value = split.value(x), split.jet(x).value.entries
        assert value.shape == jet_value.shape and value.tobytes() == jet_value.tobytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n0=st.sampled_from([1, 2]), n1=st.sampled_from([1, 2]),
       d=st.sampled_from([1, 2, 3]), nodes=st.integers(1, 5), null=st.booleans())
def test_the_pencil_margin_is_the_dense_schur_margin(seed, n0, n1, d, nodes, null):
    """On a random curvature stack with -Theta_11 positive definite, Theta_00 shifted so
    the margin takes either sign, and a random SPD g at each node, the margin read off the
    pencil's blocks is the dense generalized Schur margin; when -Theta_11 of one node is
    singular and a column of Theta_10 has a part along its null vector, it is -inf."""
    rng = np.random.default_rng(seed)
    nd, cut = (n0 + n1) * d, n0 * d
    b = rng.standard_normal((nodes, nd, nd))
    theta = -(b @ b.swapaxes(1, 2))
    c = rng.standard_normal((nodes, cut, cut))
    theta[:, :cut, :cut] += c + c.swapaxes(1, 2)
    if null:
        q = np.linalg.qr(rng.standard_normal((nd - cut, nd - cut)))[0]
        lam = np.append(rng.uniform(0.5, 2.0, nd - cut - 1), 0.0)
        mixed = rng.standard_normal((nd - cut, cut))
        mixed += np.outer(q[:, -1], rng.uniform(0.5, 1.0, cut))  # a part along the null vector
        k = rng.integers(nodes)
        theta[k, cut:, cut:] = -(q * lam) @ q.T
        theta[k, cut:, :cut], theta[k, :cut, cut:] = mixed, mixed.T
    m = rng.standard_normal((nodes, d, d))
    g = SpdMatrix(m @ m.swapaxes(1, 2) + 0.5 * np.eye(d))
    cm = CurvatureMatrix(d, n0 + n1, theta, g, np.zeros(nodes))
    margin = schur_margin_of(cm, n0)[0]
    if null:
        assert margin == -np.inf
    else:
        assert margin == pytest.approx(schur_margin_dense(cm, n0), rel=1e-8, abs=1e-9)
