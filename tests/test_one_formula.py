"""One formula for g: a field's like monomials are collected once, when it is built.

``MatrixField.value`` and ``MatrixField.jet(x).value`` then read g by the same
formula, bit for bit, exact and finite-difference, at a point and over a stack;
and a field that repeats a monomial computes, bit for bit, what the same field
written with each monomial once computes.  ``poly_collect`` is the one place
where like monomials are summed.
"""

import numpy as np
import pytest

from mlcc import (
    VectorFieldFn,
    bl_gap,
    build_rule,
    builtin_field,
    conjugate_field,
    integrate_field,
    polynomial_field,
    polynomial_field_from_json,
    restrict_field,
    variance_functional,
)
from mlcc._poly import poly_collect, poly_substitute_prefix
from mlcc.fields import BUILTIN_PARAMS, _entry_terms

JETS = ["exact", "finite_difference"]
ROTATION = np.array([[np.cos(0.5), -np.sin(0.5)], [np.sin(0.5), np.cos(0.5)]])


def _bits(a) -> tuple:
    a = np.asarray(getattr(a, "entries", a), dtype=float)  # an SpdMatrix by its entries
    return a.shape, a.tobytes()


def _points(n: int, stack: bool, box: float) -> np.ndarray:
    """One point, or a stack of 256, in the box [-box, box]^n."""
    rng = np.random.default_rng(n)
    return rng.uniform(-box, box, (256, n) if stack else n)


def _assert_one_formula(field, stack: bool, box: float = 0.3):
    """At 0.3 every builtin is positive definite, at 1 every JSON field here."""
    x = _points(field.n, stack, box)
    assert _bits(field.value(x)) == _bits(field.jet(x).value.entries)


# -- JSON fields that repeat a monomial, and their twins written once -----------

#: q repeats y2^2 and y1 y2 (the two-formula example: 0.3 + 0.2 and 0.1 + 0.05).
REPEATED_Q = {
    "n": 2, "d": 2,
    "q": [[0.3, [0, 2]], [0.2, [0, 2]], [0.5, [2, 0]], [0.1, [1, 1]], [0.05, [1, 1]]],
    "entries": {"1,1": [[1.0, [0, 0]], [0.08, [1, 0]]], "1,2": [[0.02, [1, 0]]],
                "2,2": [[1.0, [0, 0]]]},
}
#: the entry (1,1) repeats x1 and x2^2; q repeats the cubic x1^3
REPEATED_IN_AN_ENTRY = {
    "n": 2, "d": 2,
    "q": [[0.5, [2, 0]], [0.5, [0, 2]], [0.0037, [3, 0]], [0.0061, [3, 0]]],
    "entries": {"1,1": [[1.0, [0, 0]], [0.05, [1, 0]], [0.03, [1, 0]], [0.02, [0, 2]],
                        [0.01, [0, 2]]],
                "2,2": [[1.0, [0, 0]]]},
}
#: x1^2 in three entries, and x1 in two; q repeats the quartic x2^4
IN_TWO_ENTRIES = {
    "n": 2, "d": 2,
    "q": [[0.5, [2, 0]], [0.5, [0, 2]], [0.113, [0, 4]], [0.127, [0, 4]]],
    "entries": {"1,1": [[1.0, [0, 0]], [0.1, [2, 0]], [0.04, [1, 0]]],
                "1,2": [[0.1, [2, 0]], [0.03, [1, 0]]],
                "2,2": [[1.0, [0, 0]], [0.3, [2, 0]]]},
}
REPEATED = {"repeated_q": REPEATED_Q, "repeated_in_an_entry": REPEATED_IN_AN_ENTRY,
            "in_two_entries": IN_TWO_ENTRIES}


def _written_once(monomials: list) -> list:
    """The monomials with each repeat summed from the left, in first-occurrence order."""
    once: dict = {}
    for c, degs in monomials:
        once[tuple(degs)] = once[tuple(degs)] + c if tuple(degs) in once else c
    return [[c, list(degs)] for degs, c in once.items()]


def _twin(obj: dict) -> dict:
    return {**obj, "q": _written_once(obj["q"]),
            "entries": {k: _written_once(v) for k, v in obj["entries"].items()}}


def _json_fields():
    """Each repeated field, its restriction at t = 0.3 and its conjugate by a rotation."""
    out = {}
    for name, obj in REPEATED.items():
        field = polynomial_field_from_json(obj)
        out[name] = field
        out[f"{name}|t"] = restrict_field(field, [0.3])
        out[f"{name}~"] = conjugate_field(field, ROTATION)
    return out


JSON_FIELDS = _json_fields()

# -- value and jet(x).value are one formula -------------------------------------


@pytest.mark.parametrize("stack", [False, True], ids=["point", "stack"])
@pytest.mark.parametrize("jet_mode", JETS)
@pytest.mark.parametrize("name", sorted(BUILTIN_PARAMS))
def test_builtins(name, jet_mode, stack):
    _assert_one_formula(builtin_field(name, jet_mode=jet_mode), stack)


MEMBER_STACKS = {
    "raufi_corrected_s": ("raufi_corrected", {"s": np.array([0.25, 0.5, 0.75])}),
    "perturbed_gaussian_spd_eps": ("perturbed_gaussian_spd", {"eps": np.array([0.0, 0.02, 0.1])}),
    "gaussian_cross_spd_c": ("gaussian_cross_spd", {"c": np.array([-1.0, 0.5, 1.5])}),
}


@pytest.mark.parametrize("stack", [False, True], ids=["point", "stack"])
@pytest.mark.parametrize("jet_mode", JETS)
@pytest.mark.parametrize("case", sorted(MEMBER_STACKS))
def test_member_stacked_builtins(case, jet_mode, stack):
    name, params = MEMBER_STACKS[case]
    _assert_one_formula(builtin_field(name, params, jet_mode=jet_mode), stack)


@pytest.mark.parametrize("stack", [False, True], ids=["point", "stack"])
@pytest.mark.parametrize("jet_mode", JETS)
@pytest.mark.parametrize("case", sorted(JSON_FIELDS))
def test_json_fields_with_repeated_monomials(case, jet_mode, stack):
    _assert_one_formula(JSON_FIELDS[case].with_jet_mode(jet_mode), stack, box=1.0)


def test_the_two_formula_example_at_gh16():
    """The field whose `bl` and `ipp` read g by two formulas, on the GH 16^2 nodes."""
    field = polynomial_field_from_json(REPEATED_Q)
    nodes = build_rule("gauss_hermite", order=16, m=2, scale=0.5).nodes
    assert _bits(field.value(nodes)) == _bits(field.jet(nodes).value.entries)


# -- a repeated field computes what its twin computes ---------------------------


@pytest.mark.parametrize("case", sorted(REPEATED))
def test_the_field_holds_its_twins_terms(case):
    field, twin = polynomial_field_from_json(REPEATED[case]), polynomial_field_from_json(
        _twin(REPEATED[case]))
    for got, want in ((field._q, twin._q), (field._p, twin._p)):
        assert [degs for _, degs in got] == [degs for _, degs in want]
        assert [_bits(c) for c, _ in got] == [_bits(c) for c, _ in want]


@pytest.mark.filterwarnings("ignore:outermost quadrature node")
@pytest.mark.parametrize("case", sorted(REPEATED))
def test_checks_equal_the_twins(case):
    field, twin = (polynomial_field_from_json(obj) for obj in (REPEATED[case],
                                                               _twin(REPEATED[case])))
    rule = build_rule("gauss_hermite", order=16, m=2, scale=0.5)
    f = VectorFieldFn.polynomial(2, [[(1.0, (2, 0)), (0.5, (0, 1))], [(1.0, (1, 1))]])
    assert _bits(integrate_field(field, rule)) == _bits(integrate_field(twin, rule))
    assert _bits(variance_functional(field, f, rule)) == _bits(variance_functional(twin, f, rule))
    got, want = bl_gap(field, f, rule), bl_gap(twin, f, rule)
    assert got.status == want.status
    assert {k: _bits(v) for k, v in got.metrics.items()} == {
        k: _bits(v) for k, v in want.metrics.items()}


def test_json_entries_are_one_term_per_monomial():
    terms = _entry_terms(2, {"1,1": [[1.0, [0]], [2.0, [0]]], "1,2": [[3.0, [0]], [-4.0, [1]]]})
    assert [degs for degs, _ in terms] == [(0,), (0,), (0,), (1,)]
    np.testing.assert_array_equal(terms[1][1], [[2.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(terms[3][1], [[0.0, -4.0], [-4.0, 0.0]])
    field = polynomial_field(1, 2, {"1,1": [[1.0, [0]], [2.0, [0]]], "1,2": [[3.0, [0]]]})
    assert [degs for _, degs in field._p] == [(0,)]
    np.testing.assert_array_equal(field._p[0][0], [[3.0, 3.0], [3.0, 0.0]])
    assert not field._p[0][0].flags.writeable


# -- the collector ----------------------------------------------------------------


class TestPolyCollect:
    def test_first_occurrence_order_and_left_to_right_sums(self):
        a, b, c = 0.1, 0.2, 0.3
        got = poly_collect([(a, (1, 0)), (1.0, (0, 1)), (b, (1, 0)), (c, (1, 0))])
        assert got == [((a + b) + c, (1, 0)), (1.0, (0, 1))]

    def test_no_zero_start(self):
        # a zero start would turn -0.0 into 0.0
        assert _bits(poly_collect([(-0.0, (2,))])[0][0]) == _bits(-0.0)
        assert _bits(poly_collect([(-0.0, (2,)), (-0.0, (2,))])[0][0]) == _bits(-0.0)

    def test_a_lone_coefficient_is_the_same_object(self):
        m = np.eye(2)
        terms = [(m, (0, 1)), (2.0 * m, (1, 0))]
        got = poly_collect(terms)
        assert [c is t for (c, _), (t, _) in zip(got, terms)] == [True, True]

    def test_sums_are_new_read_only_arrays(self):
        m, k = np.eye(2), np.ones((2, 2))
        ((c, degs),) = poly_collect([(m, (1,)), (k, (1,))])
        assert degs == (1,) and not c.flags.writeable
        np.testing.assert_array_equal(c, [[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_array_equal(m, np.eye(2))
        assert m.flags.writeable and k.flags.writeable

    def test_substitution_collects_by_it(self):
        terms = [(0.3, (1, 2)), (0.7, (0, 2)), (-0.1, (2, 2)), (1.0, (0, 0))]
        t = np.array([0.4])
        frozen = [(c * t[0] ** degs[0] if degs[0] else c, degs[1:]) for c, degs in terms]
        assert poly_substitute_prefix(terms, t) == poly_collect(frozen)
