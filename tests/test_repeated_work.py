"""The Prekopa check does no work twice: counts of its eigensolves and reductions,
and the bit identity of each shortcut with the formula it replaced.

The references are the replaced formulas: ``np.any`` as the zero test of
``poly_substitute_prefix``, ``np.linalg.norm`` for the tail check's and the
curvature gate's Frobenius norms, ``nakano_verdict(...).lambda_max`` for
``lambda_max_alpha``, a fresh ``SpdMatrix`` for a node of a validated stack,
a fresh validation of the marginal's centre integral, and one ``pairwise_sum``
call per weighted sum of route B.
"""

from collections import Counter

import numpy as np
import pytest

import mlcc._poly
import mlcc.fields
import mlcc.inequalities
from mlcc import (
    InputError,
    SpdMatrix,
    block_split,
    build_rule,
    builtin_field,
    marginal_theta_fd,
    nakano_verdict,
    prekopa_check,
    theta_alpha_decomposed,
)
from mlcc._poly import poly_substitute_prefix
from mlcc.curvature import curvature_from_jet
from mlcc.inequalities import _fiber_pass, _marginal_jet, _nodes
from mlcc.quadrature import _frobenius, integrate_field, pairwise_sum

pytestmark = pytest.mark.filterwarnings("ignore:outermost quadrature node")

#: The two fields of the benchmark's Prekopa sweep.
BENCH_FIXTURES = {
    "gaussian_cross_spd": {"c": 0.5, "d": 2},
    "perturbed_gaussian_spd": {},
}


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@pytest.fixture
def counts(monkeypatch):
    """Calls of the eigensolvers, np.any, SpdMatrix's validation and restrict_field."""
    seen = Counter()

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("eigh", "eigvalsh"):
        counted(np.linalg, name, name)
    counted(np, "any", "np.any")
    counted(SpdMatrix, "__init__", "SpdMatrix")
    counted(mlcc.inequalities, "restrict_field", "restrict_field")
    return seen


class TestPrekopaCounts:
    """One GH 16 check on each benchmark field, counted call by call: the fiber
    stack and every integral of route A validated once, no standard spectrum,
    one g^{-1/2} per stack, and no np.any in the restrictions."""

    @pytest.mark.parametrize("name", sorted(BENCH_FIXTURES))
    @pytest.mark.parametrize("t", [-0.3, 0.1])
    def test_eigensolves_and_reductions_per_check(self, counts, name, t):
        field = builtin_field(name, BENCH_FIXTURES[name])
        rule = build_rule("gauss_hermite", order=16, m=1)
        counts.clear()
        assert prekopa_check(field, [t], 1, rule).status == "pass"
        # eigvalsh: the fiber stack's validation, the gate's spectrum, the 5 node stacks
        # and 5 integrals of route A, route B's integral and the marginal's spectrum
        assert counts["eigvalsh"] == 14
        # eigh: the fiber's and the marginal's roots, the polar operator and the pencil
        # of the Schur margin, and the polar operator of its second route
        assert counts["eigh"] == 5
        assert counts["SpdMatrix"] == 12
        assert counts["restrict_field"] == 5
        assert counts["np.any"] == 0

    def test_a_restriction_makes_no_np_any_call(self, counts):
        field = builtin_field("perturbed_gaussian_spd")
        mlcc.fields.restrict_field(field, [0.25])
        assert counts["np.any"] == 0


def _substitute_with_np_any(terms, t):
    """``poly_substitute_prefix`` as it was, with np.any as the zero test."""
    n0 = len(t)
    collected = {}
    for coeff, degs in terms:
        c = coeff
        for ti, di in zip(t, degs[:n0]):
            if di:
                c = c * ti**di
        rest = degs[n0:]
        collected[rest] = collected[rest] + c if rest in collected else c
    out = [(c, degs) for degs, c in collected.items() if np.any(c)]
    return mlcc._poly._or_zero(out, terms, n0)


_E = np.array([[1.0, 2.0], [2.0, -1.0]])
_NAN_ENTRY = np.array([[np.nan, 0.0], [0.0, 0.0]])
SUBSTITUTIONS = {
    # collected to 0.0, to -0.0 (t = 0 times -1), kept, and cancelled among three
    "floats": ([(1.0, (1, 0)), (-1.0, (1, 0)), (-1.0, (1, 1)), (2.0, (0, 2)),
                (3.0, (2, 3)), (-3.0, (2, 3))], [0.0]),
    "float_cancel_at_t": ([(2.0, (1, 0)), (-1.0, (2, 0)), (5.0, (0, 1))], [2.0]),
    "negative_zero": ([(-1.0, (1, 2)), (0.5, (0, 0))], [0.0]),
    "nan_float": ([(np.nan, (0, 1)), (1.0, (1, 0)), (-1.0, (1, 0))], [0.7]),
    "nan_times_zero": ([(np.nan, (1, 1)), (1.0, (0, 0))], [0.0]),
    "inf_float": ([(np.inf, (1, 0)), (1.0, (0, 1))], [0.3]),
    "matrices": ([(_E, (1, 0)), (-_E, (1, 0)), (_E, (0, 2)), (np.eye(2), (0, 0)),
                  (-np.eye(2), (1, 1))], [0.0]),
    "matrix_cancel_at_t": ([(_E, (1, 1)), (-0.5 * _E, (2, 1)), (np.eye(2), (0, 0))], [2.0]),
    "one_nonzero_entry": ([(np.array([[0.0, 1e-300], [1e-300, 0.0]]), (1, 0))], [1.0]),
    "nan_matrix": ([(_NAN_ENTRY, (1, 0)), (np.eye(2), (0, 1))], [0.5]),
    "all_dropped_float": ([(1.0, (1, 0)), (-1.0, (1, 0))], [3.0]),
    "all_dropped_matrix": ([(_E, (1, 2)), (-_E, (1, 2))], [0.5]),
    "two_frozen": ([(1.0, (1, 1, 0)), (-1.0, (0, 2, 0)), (4.0, (2, 0, 1))], [1.5, 1.5]),
}


@pytest.mark.parametrize("case", sorted(SUBSTITUTIONS))
def test_substitution_drops_exactly_the_all_zero_terms(case):
    terms, t = SUBSTITUTIONS[case]
    t = np.asarray(t)
    got, ref = poly_substitute_prefix(terms, t), _substitute_with_np_any(terms, t)
    assert [degs for _, degs in got] == [degs for _, degs in ref]
    for (c, _), (r, _) in zip(got, ref):
        assert np.shape(c) == np.shape(r) and _bits(c) == _bits(r)


def test_substitution_keeps_nan_and_drops_signed_zeros():
    terms = [(-1.0, (1, 0)), (np.nan, (1, 1)), (np.zeros((2, 2)), (0, 2)), (1.0, (0, 3))]
    got = poly_substitute_prefix(terms, np.array([0.0]))
    assert [degs for _, degs in got] == [(1,), (3,)]
    assert np.isnan(got[0][0])


@pytest.mark.parametrize("seed", range(4))
def test_frobenius_equals_np_linalg_norm(seed):
    rng = np.random.default_rng(seed)
    cases = [rng.standard_normal((d, d)) * 10.0 ** rng.integers(-150, 150)
             for d in (1, 2, 3, 5)]
    cases += [np.zeros((2, 2)), np.full((2, 2), 1e-310), rng.standard_normal(7)]
    for a in cases:
        assert _bits(_frobenius(a)) == _bits(np.linalg.norm(np.atleast_1d(a)))


def test_the_tail_warning_reads_np_linalg_norm(recwarn):
    field = builtin_field("gaussian_cross_spd", {"c": 0.5, "d": 2})
    rule = build_rule("gauss_hermite", order=16, m=1)
    restricted = mlcc.fields.restrict_field(field, [0.1])
    values = restricted.value(rule.nodes)
    terms = rule.weights[:, None, None] * values
    tail = float(np.linalg.norm(np.atleast_1d(terms[rule.outermost])))
    bulk = float(np.linalg.norm(np.atleast_1d(pairwise_sum(terms))))
    integrate_field(restricted, rule)
    assert f"relative weight {tail / bulk:.2e};" in str(recwarn.pop(UserWarning).message)


def _raw_curvature(jet):
    """The curvature matrix before symmetrization, assembled as curvature_from_jet does."""
    n, d = jet.n, jet.d
    g = jet.value.entries
    ginv_d1 = np.linalg.solve(g[..., None, :, :], jet.d1)
    blocks = jet.d2 - jet.d1[..., :, None, :, :] @ ginv_d1[..., None, :, :, :]
    return blocks.swapaxes(-3, -2).reshape(g.shape[:-2] + (n * d, n * d))


@pytest.mark.parametrize("jet_mode", ["exact", "finite_difference"])
@pytest.mark.parametrize("name", ["raufi_corrected", "perturbed_gaussian_spd",
                                  "gaussian_cross_spd"])
def test_asymmetry_equals_np_linalg_norm(name, jet_mode):
    field = builtin_field(name).with_jet_mode(jet_mode)
    x = np.random.default_rng(7).uniform(-0.3, 0.3, (9, 2))
    for pts in (x, x[4]):
        jet = field.jet(pts)
        raw = _raw_curvature(jet)
        cm = curvature_from_jet(jet)
        assert _bits(cm.theta_tilde) == _bits(0.5 * (raw + raw.swapaxes(-1, -2)))
        ref = np.linalg.norm(raw - raw.swapaxes(-1, -2), axis=(-2, -1))
        assert _bits(cm.asymmetry) == _bits(ref)
        assert type(cm.asymmetry) is (float if pts.ndim == 1 else np.ndarray)


@pytest.mark.parametrize("name", sorted(BENCH_FIXTURES))
@pytest.mark.parametrize("t", [-0.45, 0.0, 0.2])
def test_lambda_max_alpha_equals_the_nakano_verdict(name, t):
    field = builtin_field(name, BENCH_FIXTURES[name])
    rule = build_rule("gauss_hermite", order=32, m=1)
    report = prekopa_check(field, [t], 1, rule)
    expected = nakano_verdict(marginal_theta_fd(field, [t], rule)).lambda_max
    assert report.metrics["lambda_max_alpha"] == expected
    assert type(report.metrics["lambda_max_alpha"]) is float


class TestNodesOfAValidatedStack:
    @pytest.fixture
    def stack(self):
        field = builtin_field("perturbed_gaussian_spd")
        x = np.random.default_rng(3).uniform(-1.0, 1.0, (12, 2))
        return field.value(x)

    @pytest.mark.parametrize("roots_first", [True, False])
    def test_a_node_or_a_prefix_equals_a_fresh_matrix(self, stack, roots_first):
        g = SpdMatrix(stack)
        if roots_first:
            g.sqrt_and_invsqrt()
        for index in [0, 5, 11, -1, slice(4), slice(1, 12), slice(12)]:
            node, fresh = g[index], SpdMatrix(stack[index])
            assert node.entries.shape == fresh.entries.shape
            assert _bits(node.entries) == _bits(fresh.entries)
            for a, b in zip(node.sqrt_and_invsqrt(), fresh.sqrt_and_invsqrt()):
                assert _bits(a) == _bits(b) and not a.flags.writeable
            assert not node.entries.flags.writeable

    def test_a_node_is_not_validated_again_and_shares_the_roots(self, stack, counts):
        g = SpdMatrix(stack)
        root, invroot = g.sqrt_and_invsqrt()
        counts.clear()
        node = g[3]
        assert node.sqrt_and_invsqrt()[1] is not None
        assert counts["eigvalsh"] == counts["eigh"] == counts["SpdMatrix"] == 0
        assert np.shares_memory(node.sqrt_and_invsqrt()[0], root)

    def test_without_roots_a_node_computes_its_own(self, stack, counts):
        g = SpdMatrix(stack)
        counts.clear()
        g[2].sqrt_and_invsqrt()
        assert counts["eigh"] == 1 and "_roots" not in g.__dict__

    @pytest.mark.parametrize("index", [(0, 0), (slice(None), 0), (Ellipsis, 1)])
    def test_an_index_into_the_matrices_is_an_input_error(self, stack, index):
        with pytest.raises(InputError, match="does not select matrices"):
            SpdMatrix(stack)[index]

    def test_a_single_matrix_has_no_nodes(self):
        with pytest.raises(InputError, match="does not select matrices"):
            SpdMatrix(np.eye(2))[0]

    def test_the_nodes_of_a_fiber_curvature(self):
        field = builtin_field("gaussian_cross_spd", {"c": 0.5, "d": 2})
        rule = build_rule("gauss_hermite", order=8, m=1)
        _, cm = _fiber_pass(field, np.array([0.1]), rule)
        cm.g.sqrt_and_invsqrt()
        for index in (4, slice(3)):
            node = _nodes(cm, index)
            fresh = SpdMatrix(cm.g.entries[index])
            assert _bits(node.g.entries) == _bits(fresh.entries)
            for a, b in zip(node.g.sqrt_and_invsqrt(), fresh.sqrt_and_invsqrt()):
                assert _bits(a) == _bits(b)


@pytest.mark.parametrize("name", sorted(BENCH_FIXTURES))
def test_the_marginal_jet_keeps_its_centre_integral(name, counts):
    field = builtin_field(name, BENCH_FIXTURES[name])
    rule = build_rule("gauss_hermite", order=16, m=1)
    counts.clear()
    jet = _marginal_jet(field, np.array([0.2]), rule, 1e-3)
    assert counts["SpdMatrix"] == 10  # 5 node stacks and 5 integrals, none again
    fresh = SpdMatrix(integrate_field(mlcc.fields.restrict_field(field, [0.2]), rule).entries)
    assert _bits(jet.value.entries) == _bits(fresh.entries)


def _route_b_with_four_sums(field, t, rule):
    """Route B's matrices as before, one pairwise_sum per weighted sum."""
    n0, d = len(t), field.d
    w = rule.weights[:, None, None]
    jet, cm = _fiber_pass(field, t, rule)
    g = jet.value.entries
    dmat = jet.d1[:, :n0].swapaxes(1, 2).reshape(rule.count, d, n0 * d)
    term_curv00 = pairwise_sum(w * block_split(cm, n0).theta00)
    mean_d = pairwise_sum(w * dmat)
    z = pairwise_sum(w * g)
    sq = pairwise_sum(w * (dmat.swapaxes(1, 2) @ np.linalg.solve(g, dmat)))
    term_var = sq - mean_d.T @ np.linalg.solve(z, mean_d)
    return term_curv00 + term_var, term_curv00, term_var


def _polynomial_field_n3():
    """A non-separable n = 3, d = 2 field with a Gaussian envelope, for n0 = 2 and m = 1."""
    q = [(1.0, (2, 0, 0)), (1.0, (0, 2, 0)), (1.0, (0, 0, 2)), (0.3, (1, 0, 1)),
         (-0.2, (0, 1, 1))]
    p = [((0, 0, 0), np.eye(2)), ((1, 0, 1), 0.05 * _E), ((0, 1, 0), 0.1 * np.eye(2))]
    return mlcc.fields.MatrixField(3, 2, q, p)


@pytest.mark.parametrize("case", ["gaussian_cross_spd", "perturbed_gaussian_spd", "n0=2"])
@pytest.mark.parametrize("order", [5, 16, 48])
def test_route_b_sums_equal_four_pairwise_sums(case, order):
    if case == "n0=2":
        field, t = _polynomial_field_n3(), np.array([0.1, -0.2])
    else:
        field, t = builtin_field(case, BENCH_FIXTURES[case]), np.array([0.3])
    rule = build_rule("gauss_hermite", order=order, m=field.n - len(t))
    for got, ref in zip(theta_alpha_decomposed(field, t, rule),
                        _route_b_with_four_sums(field, t, rule)):
        assert got.shape == ref.shape and _bits(got) == _bits(ref)


def test_route_b_makes_one_pairwise_sum(monkeypatch):
    calls = []
    original = mlcc.inequalities.pairwise_sum
    monkeypatch.setattr(mlcc.inequalities, "pairwise_sum",
                        lambda terms: calls.append(terms.shape) or original(terms))
    field = builtin_field("gaussian_cross_spd", BENCH_FIXTURES["gaussian_cross_spd"])
    theta_alpha_decomposed(field, [0.1], build_rule("gauss_hermite", order=8, m=1))
    assert calls == [(8, 4 * 4)]  # theta_00, D, g and D^T g^-1 D: 4 entries each
