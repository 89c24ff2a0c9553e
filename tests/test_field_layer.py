"""The field layer's whole-array steps equal, bit for bit, the loops they replaced.

``fields.central_differences`` forms its stencil from a cached plan and its
differences by slicing one value stack; the per-direction loop it replaced is
kept here as the reference, and ``term_lists`` keeps the term-list polynomials
that the exponent matrix and coefficient block replaced.  Every exact partial,
of a field's jet or of a polynomial test function, is ``poly_diff``'s polynomial
summed by ``poly_rows``; ``scattered_build`` keeps the test functions' build that
collected a scattered block, which the build as the terms are read equals.
"""

from itertools import product
from unittest import mock

import numpy as np
import pytest

import mlcc.quadrature
import scattered_build
import term_lists
from conftest import poly_arrays, poly_terms
from hypothesis import given, settings, strategies as st
from mlcc import VectorFieldFn, builtin_field, polynomial_field, polynomial_field_from_json
from mlcc._poly import poly_collect, poly_diff, poly_eval, poly_rows, poly_substitute_prefix
from mlcc.fields import central_differences
from mlcc.quadrature import FD_STEP


def _loop_central_differences(fn, x, h, richardson=False, second=True):
    """The per-direction loop that ``central_differences`` replaced."""
    n, lead = x.shape[-1], x.ndim - 1
    steps = (h, h / 2.0) if richardson else (h,)
    pts = [x] if second else []
    for step in steps:
        e = step * np.eye(n)
        pts += [x + e[j] for j in range(n)] + [x - e[j] for j in range(n)]
        if second:
            for j in range(n):
                for k in range(j + 1, n):
                    pts += [x + e[j] + e[k], x + e[j] - e[k], x - e[j] + e[k], x - e[j] - e[k]]
    vals = fn(np.stack(pts, axis=-2).reshape(-1, n))
    vals = vals.reshape(x.shape[:-1] + (len(pts),) + vals.shape[1:])
    vals = iter(np.moveaxis(vals, lead, 0))  # in the order of pts
    value = next(vals) if second else None

    def at(step):
        plus = [next(vals) for _ in range(n)]
        minus = [next(vals) for _ in range(n)]
        d1 = np.stack([(plus[j] - minus[j]) / (2.0 * step) for j in range(n)], axis=lead)
        if not second:
            return d1, None
        d2 = [[None] * n for _ in range(n)]
        for j in range(n):
            d2[j][j] = (plus[j] - 2.0 * value + minus[j]) / step**2
            for k in range(j + 1, n):
                pp, pm, mp, mm = (next(vals) for _ in range(4))
                d2[j][k] = d2[k][j] = (pp - pm - mp + mm) / (4.0 * step**2)
        return d1, np.stack([np.stack(row, axis=lead) for row in d2], axis=lead)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d1, d2 = at(h)
        if richardson:
            d1_half, d2_half = at(h / 2.0)
            d1 = (4.0 * d1_half - d1) / 3.0
            if second:
                d2 = (4.0 * d2_half - d2) / 3.0
    return d1, d2


def _same(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


#: n -> a field in n variables; n = 2 is stacked over s.
FIELDS = {
    1: builtin_field("gaussian_times_spd", {"n": 1, "a12": 0.3}),
    2: builtin_field("raufi_corrected", {"s": np.array([0.3, 0.75, 0.9])}),
    3: polynomial_field(3, 2, {"1,1": [[2.0, [0, 0, 0]], [0.3, [1, 1, 0]], [-0.2, [0, 1, 2]]],
                               "1,2": [[0.1, [1, 0, 1]], [0.05, [3, 0, 0]]],
                               "2,2": [[1.5, [0, 0, 0]], [0.4, [0, 2, 1]]]}),
}


def _points(n, stack):
    """One point with a signed zero (-0.0 + 0.0 is +0.0, -0.0 - 0.0 is -0.0), or five."""
    one = np.array([-0.0, 0.03, -0.02][:n])
    return np.vstack([one, np.random.default_rng(n).uniform(-0.1, 0.1, (4, n))]) if stack else one


class TestCentralDifferences:
    @pytest.mark.parametrize("n, stack, richardson, second",
                             product([1, 2, 3], [False, True], [False, True], [False, True]))
    def test_field_values_equal_the_loop(self, n, stack, richardson, second):
        field, x = FIELDS[n], _points(n, stack)

        def values(p):
            return field.value(p)

        for h in (1e-4, 0.3):
            got = central_differences(values, x, h, richardson, second)
            want = _loop_central_differences(values, x, h, richardson, second)
            assert _same(got[0], want[0]) and got[0].flags.c_contiguous
            assert got[1] is None if not second else (_same(got[1], want[1])
                                                      and got[1].flags.c_contiguous)

    def test_the_stencil_points_equal_the_loop(self):
        for n, stack, richardson, second in product([1, 2, 3], [False, True], [False, True],
                                                    [False, True]):
            seen = []

            def record(p):
                seen.append(p.copy())
                return p

            x = _points(n, stack)
            central_differences(record, x, 1e-4, richardson, second)
            _loop_central_differences(record, x, 1e-4, richardson, second)
            assert _same(seen[0], seen[1])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_fd_gradient_and_hessian_of_a_callable(self, n):
        # VectorFieldFn's derivatives are first differences (second=False) of a callable
        exact = VectorFieldFn.polynomial(n, [[(1.0, (2,) + (1,) * (n - 1)), (0.5, (0,) * n)],
                                             [(-0.3, (1,) * n), (2.0, (0,) * (n - 1) + (3,))]])
        fn = VectorFieldFn(n, 2, exact.value)
        for x in (_points(n, False), _points(n, True), _points(n, True)[:4].reshape(2, 2, n)):
            d1, _ = _loop_central_differences(fn.value, x, FD_STEP, second=False)
            assert _same(fn.grad(x), d1.swapaxes(-1, -2))
            d1, _ = _loop_central_differences(fn.grad, x, FD_STEP, second=False)
            hess = np.moveaxis(d1, -3, -1)
            assert _same(fn.hess(x), 0.5 * (hess + hess.swapaxes(-1, -2)))


def _same_terms(got, want) -> bool:
    """The polynomial ``got`` has the terms of the term list ``want``, bit for bit."""
    got = poly_terms(got)
    return ([degs for _, degs in got] == [tuple(degs) for _, degs in want]
            and all(_same(np.asarray(c), np.asarray(w)) for (c, _), (w, _) in zip(got, want)))


# -- the polynomial type against the term lists it replaced ----------------------


def _coefficient(entries, shape, lead):
    """A coefficient of ``shape`` behind ``lead`` from three entries per member: a float,
    or the symmetric 2 x 2 matrix [[a, b], [b, d]]."""
    entries = np.array(entries).reshape(lead + (3,))
    if not shape:
        return entries[..., 0] if lead else float(entries[0])
    a, b, d = entries[..., 0], entries[..., 1], entries[..., 2]
    return np.stack([np.stack([a, b], -1), np.stack([b, d], -1)], -2)


@st.composite
def term_list_cases(draw):
    """(n, terms) with n <= 3 variables and degrees <= 4, monomials repeated, -0.0 among
    the coefficients; float or symmetric 2 x 2 coefficients, with or without a member axis
    of 2."""
    n = draw(st.integers(1, 3))
    shape = draw(st.sampled_from([(), (2, 2)]))
    lead = draw(st.sampled_from([(), (2,)]))
    values = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 0.1, 0.3, 1e16, -1e16, 3.0e-3])
    monomials = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=4))
    terms = []
    size = 3 * (lead[0] if lead else 1)  # three entries of a symmetric 2 x 2 per member
    for _ in range(draw(st.integers(1, 7))):
        coeff = _coefficient(draw(st.lists(values, min_size=size, max_size=size)), shape, lead)
        terms.append((coeff, draw(st.sampled_from(monomials))))
    return n, terms


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=term_list_cases(), seed=st.integers(0, 2**16))
def test_the_polynomial_type_equals_the_term_lists_bit_for_bit(case, seed):
    """Collection, value, the first and second partials, each part of one ``poly_rows``
    block of them and the substitution of 1 and 2 leading coordinates equal the term
    lists, bit for bit (a zero polynomial has no terms: the term lists' zero term,
    ``_or_zero``, is left out)."""
    n, terms = case
    with mock.patch.object(term_lists, "_or_zero", lambda out, terms, dropped=0: out):
        _check_against_term_lists(n, terms, seed)


def _check_against_term_lists(n, terms, seed):
    poly, ref = poly_collect(*poly_arrays(terms)), term_lists.poly_collect(terms)
    assert _same_terms(poly, ref)
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, (5, n))
    assert _same(poly_eval(poly, x), term_lists.poly_eval(ref, x))
    assert _same(poly_eval(poly, x[0]), term_lists.poly_eval(ref, x[0]))
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    d1 = [poly_diff(poly, j) for j in range(n)]
    ref_d1 = [term_lists.poly_diff(ref, j) for j in range(n)]
    d2 = [poly_diff(d1[j], k) for j, k in pairs]
    ref_d2 = [term_lists.poly_diff(ref_d1[j], k) for j, k in pairs]
    for got, want in zip(d1 + d2, ref_d1 + ref_d2):
        assert _same_terms(got, want)
    # every part is term_lists.poly_eval of term_lists.poly_diff (zeros with no terms)
    for got, want in zip(poly_rows([poly, *d1, *d2], x), [ref, *ref_d1, *ref_d2]):
        want = term_lists.poly_eval(want, x) if want else np.zeros((len(x),) + got.shape[:-1])
        assert _same(np.moveaxis(got, -1, 0), want)
    for n0 in (1, 2):
        if n0 < n:
            rng = np.random.default_rng(seed + n0)  # 0.0 among values whose powers round
            t = np.where(rng.random(n0) < 0.2, 0.0, rng.uniform(-2.0, 2.0, n0))
            with np.errstate(over="ignore", invalid="ignore"):
                got = poly_substitute_prefix(poly, t)
                want = term_lists.poly_substitute_prefix(ref, t)
            assert got.n == n - n0 and _same_terms(got, want)


# -- one derivative: every exact partial is poly_diff's polynomial -------------


@pytest.mark.parametrize("n, degs", [(1, (3,)), (2, (2, 1)), (2, (0, 4)), (3, (1, 1, 1))])
def test_a_repeated_test_function_monomial_is_the_monomial_written_once(n, degs):
    """As a field collects q and P, a polynomial test function collects its components: a
    monomial that a component writes twice, a and b, gives the value, gradient and
    Hessian bits of the same function with (a + b) written once."""
    other = (-0.3, (1,) + (0,) * (n - 1))
    x = np.random.default_rng(n).uniform(-1.5, 1.5, (7, n))
    for a, b in ((0.1, 0.7), (1.0 / 3.0, 0.2), (-2.5, 1e-3)):
        twice = VectorFieldFn.polynomial(n, [[(a, degs), other, (b, degs)], [other]])
        once = VectorFieldFn.polynomial(n, [[(a + b, degs), other], [other]])
        for points in (x, x[0]):
            for method in ("value", "grad", "hess"):
                got, want = getattr(twice, method)(points), getattr(once, method)(points)
                assert _same(got, want), (a, b, method)


#: Fields with an envelope q, stacked over a parameter or not, beside ``FIELDS``.
JET_FIELDS = [
    *FIELDS.values(),
    builtin_field("double_well_scalar"),
    builtin_field("perturbed_gaussian_spd", {"eps": np.array([0.02, 0.2])}),
    builtin_field("gaussian_cross_spd", {"c": np.array([0.5, -0.3]), "d": 3}),
    polynomial_field_from_json({
        "n": 3, "d": 2,
        "q": [[0.5, [2, 0, 0]], [0.2, [1, 1, 0]], [0.01, [2, 1, 1]], [0.15, [1, 1, 0]],
              [-0.02, [0, 3, 0]], [0.7, [0, 0, 2]]],
        "entries": {"1,1": [[1.0, [0, 0, 0]], [0.02, [2, 0, 1]], [0.015, [1, 1, 1]]],
                    "1,2": [[0.03, [1, 0, 0]], [0.01, [1, 2, 1]]],
                    "2,2": [[1.0, [0, 0, 0]], [0.012, [0, 2, 1]], [-0.01, [3, 0, 1]]]}}),
]


@pytest.mark.parametrize("field", JET_FIELDS, ids=lambda f: f"{f.name}-n{f.n}")
@pytest.mark.parametrize("stack", [False, True])
def test_each_jet_partial_is_poly_eval_of_its_poly_diff_chain(field, stack):
    """The exact jet reads each partial of q and P as ``poly_eval`` of its ``poly_diff``
    chain, d_j p and d_k d_j p for j <= k: its derivatives are the closed form assembled
    from those values, bit for bit, for a stacked (member) field too."""
    x, q, p, n = _points(field.n, stack), field._q, field._p, field.n

    def at(poly, *js):
        for j in js:
            poly = poly_diff(poly, j)
        return poly_eval(poly, x)

    def lift(a):
        return a[..., None, None]

    p0, env = at(p), np.exp(-lift(at(q)))

    def second(j, k):
        lo, hi = min(j, k), max(j, k)
        qj, qk, pj, pk = lift(at(q, j)), lift(at(q, k)), at(p, j), at(p, k)
        return env * (at(p, lo, hi) - (qj * pk + qk * pj) + (qj * qk - lift(at(q, lo, hi))) * p0)

    jet = field.jet(x)
    d1 = np.stack([env * (at(p, j) - lift(at(q, j)) * p0) for j in range(n)], axis=-3)
    d2 = np.stack([np.stack([second(j, k) for k in range(n)], axis=-3) for j in range(n)],
                  axis=-4)
    assert _same(jet.d1, d1) and _same(jet.d2, d2)
    assert _same(jet.value.entries, field.value(x))


# -- a polynomial test function collected as its terms are read ---------------------


@st.composite
def vector_field_cases(draw):
    """(n, components) with n <= 3 variables and d <= 3 components, some of them empty;
    each term's monomial is drawn from a pool of at most 4, so monomials repeat within a
    component and across components, and each coefficient from signed zeros, 1/3 and
    +-1e16 among others."""
    n = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=4))
    values = st.sampled_from([-0.0, 0.0, 1.0, 0.1, 1.0 / 3.0, 1e16, -1e16])
    term = st.tuples(values, st.sampled_from(pool))
    return n, draw(st.lists(st.lists(term, max_size=6), min_size=1, max_size=3))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=vector_field_cases(), seed=st.integers(0, 2**16))
def test_the_test_function_build_equals_the_scattered_block_bit_for_bit(case, seed):
    """F's exponent matrix and coefficient block, its gradient polynomials and the value,
    gradient and Hessian on a stack of points and at one point equal the scatter-and-
    collect build of ``scattered_build``, bit for bit (-0.0 + 0.0 is 0.0 there too)."""
    n, components = case
    built = []  # (the polynomial differentiated, its partial) per poly_diff call
    original = mlcc.quadrature.poly_diff

    def spy(poly, j):
        built.append((poly, original(poly, j)))
        return built[-1][1]

    with mock.patch.object(mlcc.quadrature, "poly_diff", spy):
        fn = VectorFieldFn.polynomial(n, components)
    ref_fn, ref, ref_grads = scattered_build.polynomial(n, components)
    got = built[0][0]
    assert all(poly is got for poly, _ in built) and len(built) == n
    for poly, want in zip([got, *(g for _, g in built)], [ref, *ref_grads]):
        assert _same(poly.exps, want.exps) and poly.exps.dtype == want.exps.dtype
        assert _same(poly.coeffs, want.coeffs) and poly.coeffs.dtype == want.coeffs.dtype
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, (5, n))
    for points in (x, x[0]):
        for method in ("value", "grad", "hess"):
            assert _same(getattr(fn, method)(points), getattr(ref_fn, method)(points)), method
