"""The field layer's whole-array steps equal, bit for bit, the loops they replaced.

``fields.central_differences`` forms its stencil from a cached plan and its
differences by slicing one value stack; ``_poly.poly_stack`` sums a family's
coefficients into one block.  The per-direction and per-monomial loops they
replaced are kept here as the references.
"""

from itertools import product

import numpy as np
import pytest

from mlcc import VectorFieldFn, builtin_field, polynomial_field
from mlcc._poly import poly_diff, poly_stack
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
    shape = np.asarray(polys[0][0][0]).shape
    collected = {}
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


def _family(terms, n):
    d1 = [poly_diff(terms, j) for j in range(n)]
    return [terms] + d1 + [poly_diff(d1[j], k) for j in range(n) for k in range(j, n)]


#: name -> polynomials to stack; the repeats are summed in an order that rounding shows
POLYS = {
    "scalar repeats": [[(1e16, (1, 0)), (1.0, (0, 1)), (1.0, (1, 0)), (-1e16, (1, 0))],
                       [(-0.0, (0, 1)), (0.1, (2, 0)), (0.2, (2, 0)), (0.3, (2, 0))]],
    "matrix repeats": [[(np.array([[1e16, 1.0], [1.0, -0.0]]), (1,)),
                        (np.full((2, 2), 1.0), (1,)), (np.full((2, 2), -1e16), (1,))],
                       [(np.eye(2), (0,)), (0.3 * np.eye(2), (0,))]],
    "scalar family": _family(builtin_field("double_well_scalar")._q, 2),
    "matrix family": _family(builtin_field("perturbed_gaussian_spd")._p, 2),
}


class TestPolyStack:
    @pytest.mark.parametrize("name", POLYS)
    def test_equals_the_per_monomial_loop(self, name):
        got, want = poly_stack(POLYS[name]), _loop_poly_stack(POLYS[name])
        assert [degs for _, degs in got] == [degs for _, degs in want]
        assert all(_same(c, w) for (c, _), (w, _) in zip(got, want))

    def test_one_read_only_block(self):
        got = poly_stack(POLYS["matrix family"])
        assert all(not c.flags.writeable and c.base is got[0][0].base for c, _ in got)

    def test_the_family_axis_goes_behind_a_member_axis(self):
        field = builtin_field("raufi_corrected", {"s": np.array([0.3, 0.75])})
        for terms in (field._q, field._p):
            polys = _family(terms, 2)
            got, want = poly_stack(polys, lead=1), _loop_poly_stack(polys)
            assert [degs for _, degs in got] == [degs for _, degs in want]
            assert all(_same(c, np.moveaxis(w, 0, 1)) for (c, _), (w, _) in zip(got, want))
            assert all(not c.flags.writeable for c, _ in got)
