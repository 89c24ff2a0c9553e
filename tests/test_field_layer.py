"""The field layer's whole-array steps equal, bit for bit, the loops they replaced.

``fields.central_differences`` forms its stencil from a cached plan and its
differences by slicing one value stack; ``_poly.poly_stack`` sums a family's
coefficients into one block.  The per-direction and per-monomial loops they
replaced are kept here as the references, and ``term_lists`` keeps the term-list
polynomials that the exponent matrix and coefficient block replaced.
"""

from itertools import product
from unittest import mock

import numpy as np
import pytest

import term_lists
from conftest import poly_arrays, poly_terms, poly_written
from hypothesis import given, settings, strategies as st
from mlcc import VectorFieldFn, _poly, builtin_field, polynomial_field
from mlcc._poly import (poly_collect, poly_diff, poly_eval, poly_partials, poly_stack,
                        poly_substitute_prefix)
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


def _loop_poly_stack(polys):
    """The per-monomial accumulation that ``poly_stack`` replaced."""
    collected = {}
    if not any(polys):
        return []
    shape = np.asarray(next(c for terms in polys for c, _ in terms)).shape
    for k, terms in enumerate(polys):
        for coeff, degs in terms:
            c = collected.get(degs)
            if c is None:
                c = collected[degs] = np.zeros((len(polys),) + shape)
            c[k] += coeff
    return [(c, degs) for degs, c in collected.items()]


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


def _family(poly, n):
    d1 = [poly_diff(poly, j) for j in range(n)]
    return [poly] + d1 + [poly_diff(d1[j], k) for j in range(n) for k in range(j, n)]


#: name -> polynomials to stack; the repeats are summed in an order that rounding shows
POLYS = {
    "scalar repeats": [poly_written([(1e16, (1, 0)), (1.0, (0, 1)), (1.0, (1, 0)),
                                     (-1e16, (1, 0))]),
                       poly_written([(-0.0, (0, 1)), (0.1, (2, 0)), (0.2, (2, 0)),
                                     (0.3, (2, 0))])],
    "matrix repeats": [poly_written([(np.array([[1e16, 1.0], [1.0, -0.0]]), (1,)),
                                     (np.full((2, 2), 1.0), (1,)),
                                     (np.full((2, 2), -1e16), (1,))]),
                       poly_written([(np.eye(2), (0,)), (0.3 * np.eye(2), (0,))])],
    "scalar family": _family(builtin_field("double_well_scalar")._q, 2),
    "matrix family": _family(builtin_field("perturbed_gaussian_spd")._p, 2),
}


def _same_terms(got, want) -> bool:
    """The polynomial ``got`` has the terms of the term list ``want``, bit for bit."""
    got = poly_terms(got)
    return ([degs for _, degs in got] == [tuple(degs) for _, degs in want]
            and all(_same(np.asarray(c), np.asarray(w)) for (c, _), (w, _) in zip(got, want)))


class TestPolyStack:
    @pytest.mark.parametrize("name", POLYS)
    def test_equals_the_per_monomial_loop(self, name):
        got = poly_stack(POLYS[name])
        assert _same_terms(got, _loop_poly_stack([poly_terms(p) for p in POLYS[name]]))

    def test_one_read_only_block(self):
        got = poly_stack(POLYS["matrix family"])
        assert not got.coeffs.flags.writeable and not got.exps.flags.writeable

    def test_the_family_axis_goes_behind_a_member_axis(self):
        field = builtin_field("raufi_corrected", {"s": np.array([0.3, 0.75])})
        for poly in (field._q, field._p):
            polys = _family(poly, 2)
            got, want = poly_stack(polys, lead=1), _loop_poly_stack([poly_terms(p) for p in polys])
            assert _same_terms(got, [(np.moveaxis(w, 0, 1), degs) for w, degs in want])
            assert not got.coeffs.flags.writeable


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
    """Collection, value, the first and second partials, their stacked family and the
    substitution of 1 and 2 leading coordinates equal the term lists, bit for bit (a
    zero polynomial has no terms: the term lists' zero term, ``_or_zero``, is left out)."""
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
    lead = 1 if np.ndim(terms[0][0]) in (1, 3) else 0
    parts = [(0, ()), *((0, (j,)) for j in range(n)), *((0, pair) for pair in pairs)]
    got = poly_partials([poly], parts, lead)
    want = term_lists.poly_stack([ref] + ref_d1 + ref_d2, lead)
    assert _same_terms(got, want)
    assert _same(poly_eval(got, x), term_lists.poly_eval(want, x))
    for n0 in (1, 2):
        if n0 < n:
            rng = np.random.default_rng(seed + n0)  # 0.0 among values whose powers round
            t = np.where(rng.random(n0) < 0.2, 0.0, rng.uniform(-2.0, 2.0, n0))
            with np.errstate(over="ignore", invalid="ignore"):
                got = poly_substitute_prefix(poly, t)
                want = term_lists.poly_substitute_prefix(ref, t)
            assert got.n == n - n0 and _same_terms(got, want)


# -- the family layout cache: a warm cache gives the bits of a cold one -----------


@st.composite
def structure_cases(draw):
    """(n, structure, lead, two coefficient draws): 1 to 3 polynomials in n <= 3
    variables, each a list of 1 to 6 monomials from a pool of at most 4 (so repeated),
    with float or symmetric 2 x 2 coefficients, with or without a member axis of 2."""
    n = draw(st.integers(1, 3))
    shape = draw(st.sampled_from([(), (2, 2)]))
    lead = draw(st.sampled_from([(), (2,)]))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=4))
    structure = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=6),
                              min_size=1, max_size=3))
    values = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 0.1, 0.3, 1e16, -1e16, 3.0e-3])
    size = 3 * (lead[0] if lead else 1)
    draws = [[[_coefficient(draw(st.lists(values, min_size=size, max_size=size)), shape, lead)
               for _ in monomials] for monomials in structure] for _ in range(2)]
    return n, structure, lead, draws


def _builds(n, polys, lead, t):
    """Every polynomial built from the term lists ``polys``: each collected, their stacked
    family of values, first and second partials as written, and each with its leading
    coordinates frozen at ``t``; then the family as ``VectorFieldFn.polynomial`` groups it
    (float coefficients without a member axis only)."""
    written = [poly_written(terms) for terms in polys]
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    parts = [(i, part) for i in range(len(polys))
             for part in [(), *((j,) for j in range(n)), *pairs]]
    out = [poly_collect(*poly_arrays(terms)) for terms in polys]
    out.append(poly_partials(written, parts, int(bool(lead))))
    with np.errstate(over="ignore", invalid="ignore"):
        out += [poly_substitute_prefix(p, t) for p in written if len(t) < n]
    if written[0].coeffs.ndim == 1:
        rows = [list(map(tuple, p.exps.tolist())) for p in written]
        out += _poly.poly_family(n, rows, np.concatenate([p.coeffs for p in written]), [
            [(i, None) for i in range(len(rows))],
            [(i, j) for i in range(len(rows)) for j in range(n)]])
    return out


def _references(n, polys, lead, t):
    """``_builds``' first polynomials from the term lists of ``term_lists``."""
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    family = []
    for ref in polys:
        d1 = [term_lists.poly_diff(ref, j) for j in range(n)]
        family += [ref, *d1, *(term_lists.poly_diff(d1[j], k) for j, k in pairs)]
    out = [term_lists.poly_collect(ref) for ref in polys]
    out.append(term_lists.poly_stack(family, int(bool(lead))))
    with np.errstate(over="ignore", invalid="ignore"):
        out += [term_lists.poly_substitute_prefix(ref, t) for ref in polys if len(t) < n]
    return out


def _same_poly(a, b) -> bool:
    return _same(a.exps, b.exps) and _same(a.coeffs, b.coeffs)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=structure_cases(), t=st.sampled_from([0.0, -0.7, 1.3]))
def test_a_warm_layout_gives_the_bits_of_a_cold_one_and_of_the_term_lists(case, t):
    """One structure built twice with different coefficients: the second build, on the
    layouts the first cached, equals a build with the cache cleared and the term lists,
    bit for bit."""
    n, structure, lead, draws = case
    t = np.array([t, 0.4][: max(1, n - 1)])
    for coeffs in draws:
        polys = [list(zip(c, monomials)) for c, monomials in zip(coeffs, structure)]
        hits = _poly._family_layout.cache_info().hits
        warm = _builds(n, polys, lead, t)
        if coeffs is draws[1]:  # the first build cached every layout of this structure
            assert _poly._family_layout.cache_info().hits > hits
        _poly._family_layout.cache_clear()
        cold = _builds(n, polys, lead, t)
        assert len(warm) == len(cold) and all(map(_same_poly, warm, cold))
        with mock.patch.object(term_lists, "_or_zero", lambda out, terms, dropped=0: out):
            want = _references(n, polys, lead, t)
        assert all(map(_same_terms, warm, want))


def test_cached_layouts_are_read_only():
    rows = (((2, 1), (0, 3), (2, 1)), ((1, 0),))
    groups = (((0, None), (1, None)), ((0, 0), (0, 1), (1, 0), (1, 1)))
    layout = _poly._family_layout(2, rows, groups)
    arrays = list(_arrays(layout))
    assert len(arrays) == 5 and not any(a.flags.writeable for a in arrays)
    # the polynomials hold the cached exponent matrices, not copies
    family = _poly.poly_family(2, rows, np.arange(4.0), groups)
    assert all(p.exps is exps for p, (exps, _) in zip(family, layout[3]))
    with pytest.raises(ValueError, match="read-only"):
        layout[3][0][0][0, 0] = 5


def test_the_cache_keeps_at_most_32_layouts():
    _poly._family_layout.cache_clear()
    for k in range(40):  # 40 structures, each with a repeated monomial
        VectorFieldFn.polynomial(1, [[(1.0, (k,)), (2.0, (k,))]])
    info = _poly._family_layout.cache_info()
    assert info.maxsize == 32 and info.currsize == 32 and info.misses >= 40


def _arrays(value):
    """Every array in a nest of tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _arrays(v)
