"""Each quadrature check reads the weight from one node pass and gates it one way.

``ipp_residual`` and ``bochner_residual`` make one jet of the field over the
rule's nodes and take g as its value; F's (Psi's) gradient and Hessian are
evaluated once each.  Every integral Z = sum_i w_i g(y_i) goes through
``quadrature._integral``, which checks it positive definite and runs the tail
check, so a weight that underflows at every node is a config error on ``bl``,
``ipp`` and ``bochner`` alike.  A finite-difference jet's value is the centres'
nodes of its validated stencil.  The references are the replaced formulas:
the field evaluated by ``field.value`` and ``weighted_laplacian``, Z as an
unchecked ``pairwise_sum`` and the fd centre validated again.
"""

import json
from collections import Counter

import numpy as np
import pytest

import mlcc.inequalities
from mlcc import (
    DirichletEvaluator,
    MatrixField,
    QuadratureError,
    SpdMatrix,
    VectorFieldFn,
    bl_gap,
    bochner_residual,
    build_rule,
    builtin_field,
    curvature_matrix,
    integrate_field,
    ipp_residual,
    pairwise_sum,
    prekopa_check,
    theta_alpha_decomposed,
    variance_functional,
    weighted_laplacian,
)
from mlcc.cli import run
from mlcc.fields import polynomial_field_from_json
from mlcc.inequalities import _node_form

pytestmark = pytest.mark.filterwarnings("ignore:outermost quadrature node")

#: e^{-744 - y^2/2} is subnormal at every node, so Z underflows to 0 on this rule.
UNDERFLOWING = {"n": 1, "d": 1, "q": [[744.0, [0]], [0.5, [2]]],
                "entries": {"1,1": [[1.0, [0]]]}}
UNDERFLOWING_RULE = {"order": 2, "m": 1, "scale": 0.01}

#: (field name, params, F, G) with test functions of the field's d components.
CASES = {
    "gaussian_scalar": ({"n": 1}, [[(1.0, (2,))]], [[(1.0, (3,)), (-1.0, (1,))]]),
    "perturbed_gaussian_spd": ({}, [[(1.0, (1, 0)), (1.0, (0, 2))], [(1.0, (1, 1))]],
                               [[(1.0, (0, 1))], [(1.0, (2, 0)), (-1.0, (0, 1))]]),
    "gaussian_cross_spd": ({"c": 0.5, "d": 2}, [[(1.0, (1, 0))], [(0.5, (0, 2))]],
                           [[(1.0, (1, 1))], [(1.0, (0, 1))]]),
}
JET_MODES = ["exact", "finite_difference"]


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _case(name, jet_mode):
    params, f, g = CASES[name]
    field = builtin_field(name, params).with_jet_mode(jet_mode)
    rule = build_rule("gauss_hermite", order=12, m=field.n)
    return field, rule, VectorFieldFn.polynomial(field.n, f), VectorFieldFn.polynomial(field.n, g)


@pytest.fixture
def calls(monkeypatch):
    """Calls of MatrixField.jet/value, of each test function's value/grad/hess (keyed
    by the instance) and of the gate on the weight (keyed by the shape of g)."""
    seen = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            seen[name if owner is MatrixField else (id(self), name)] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("jet", "value"):
        counted(MatrixField, name)
    for name in ("value", "grad", "hess"):
        counted(VectorFieldFn, name)
    integral = mlcc.inequalities._integral

    def gate(rule, values):
        seen["gate", values.shape] += 1
        return integral(rule, values)

    monkeypatch.setattr(mlcc.inequalities, "_integral", gate)
    return seen


class TestOneNodePass:
    @pytest.mark.parametrize("jet_mode", JET_MODES)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_ipp(self, calls, name, jet_mode):
        field, rule, f, g = _case(name, jet_mode)
        calls.clear()
        ipp_residual(field, f, g, rule)
        assert calls["jet"] == 1 and calls["value"] == 0
        assert calls[id(f), "grad"] == calls[id(f), "hess"] == 1
        assert calls[id(f), "value"] == 0
        assert calls[id(g), "value"] == calls[id(g), "grad"] == 1
        assert calls["gate", (rule.count, field.d, field.d)] == 1

    @pytest.mark.parametrize("jet_mode", JET_MODES)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bochner(self, calls, name, jet_mode):
        field, rule, psi, _ = _case(name, jet_mode)
        calls.clear()
        bochner_residual(field, psi, rule)
        assert calls["jet"] == 1 and calls["value"] == 0
        assert calls[id(psi), "grad"] == calls[id(psi), "hess"] == 1
        assert calls[id(psi), "value"] == 0
        assert calls["gate", (rule.count, field.d, field.d)] == 1


def _ipp_as_before(field, f, g_fn, rule):
    """ipp_residual's lhs and rhs as they were: g by field.value, L F by
    weighted_laplacian."""
    x, w = rule.nodes, rule.weights
    gv = field.value(x)
    lhs = float(pairwise_sum(w * _node_form(weighted_laplacian(field, f, x), gv, g_fn.value(x))))
    rhs = float(pairwise_sum(-w * np.einsum("nlk,nlm,nmk->n", f.grad(x), gv, g_fn.grad(x))))
    return lhs, rhs


def _bochner_as_before(field, psi, rule):
    """bochner_residual's three terms as they were: two jets, two gradients and Hessians."""
    x, w = rule.nodes, rule.weights
    cm = curvature_matrix(field, x)
    gv = cm.g.entries
    lf = weighted_laplacian(field, psi, x)
    v = psi.grad(x).swapaxes(-1, -2).reshape(rule.count, -1)
    h = psi.hess(x)
    return (float(pairwise_sum(w * _node_form(lf, gv, lf))),
            float(pairwise_sum(-w * _node_form(v, cm.theta_tilde, v))),
            float(pairwise_sum(w * np.einsum("nljk,nlm,nmjk->n", h, gv, h))))


@pytest.mark.parametrize("jet_mode", JET_MODES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_the_residuals_equal_the_two_pass_formulas(name, jet_mode):
    field, rule, f, g = _case(name, jet_mode)
    ipp = ipp_residual(field, f, g, rule)
    ipp_sides = [ipp.metrics["lhs"], ipp.metrics["rhs"]]
    assert _bits(ipp_sides) == _bits(_ipp_as_before(field, f, g, rule))
    bochner = bochner_residual(field, f, rule)
    terms = [bochner.metrics[k] for k in ("lhs", "term_curv", "term_hess")]
    assert _bits(terms) == _bits(_bochner_as_before(field, f, rule))


class TestOneIntegralPath:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_the_evaluators_z_has_the_unchecked_sums_bits(self, name):
        field, rule, _, _ = _case(name, "exact")
        ev = DirichletEvaluator(field, rule)
        ref = pairwise_sum(rule.weights[:, None, None] * field.value(rule.nodes))
        assert _bits(ev.z) == _bits(ref)
        assert not ev.z.flags.writeable and not ev.g.flags.writeable

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_the_one_shot_variance_equals_the_evaluators(self, name):
        field, rule, f, _ = _case(name, "exact")
        ev = DirichletEvaluator(field, rule)
        assert _bits(variance_functional(field, f, rule)) == \
            _bits(variance_functional(field, f, rule, ev))

    def test_every_check_warns_on_the_tail(self):
        field = builtin_field("gaussian_scalar", {"n": 1})
        rule = build_rule("gauss_hermite", order=8, m=1, scale=0.3)
        f = VectorFieldFn.polynomial(1, [[(1.0, (2,))]])
        for check in (lambda: bl_gap(field, f, rule), lambda: ipp_residual(field, f, f, rule),
                      lambda: bochner_residual(field, f, rule),
                      lambda: variance_functional(field, f, rule)):
            with pytest.warns(UserWarning, match=r"relative weight 1\.23e-01"):
                check()


def _tail_calls():
    """Each path to the tail check, on item 1's under-resolved Gaussian (the
    Prekopa check on its n = 2 version, whose route A integrates over y)."""
    field = builtin_field("gaussian_scalar", {"n": 1})
    rule = build_rule("gauss_hermite", order=8, m=1, scale=0.3)
    f = VectorFieldFn.polynomial(1, [[(1.0, (2,))]])
    plane = builtin_field("gaussian_scalar", {"n": 2})
    return {
        "evaluator": lambda: DirichletEvaluator(field, rule),
        "bl_gap": lambda: bl_gap(field, f, rule),
        "integrate_field": lambda: integrate_field(field, rule),
        "ipp_residual": lambda: ipp_residual(field, f, f, rule),
        "prekopa_route_a": lambda: prekopa_check(plane, [0.1], 1, rule),
    }


@pytest.mark.parametrize("path", sorted(_tail_calls()))
def test_the_tail_warning_names_its_caller(path):
    """The warning points at the first frame outside mlcc, however deep the
    library path to the tail check is."""
    with pytest.warns(UserWarning, match="outermost quadrature node") as caught:
        _tail_calls()[path]()
    assert {w.filename for w in caught} == {__file__}


def test_route_b_validates_its_integral():
    """Route B sums Z with its other integrals; Z underflowing to 0 is the same
    QuadratureError as on every other path, not a raw LinAlgError."""
    field = MatrixField(2, 1, [(744.0, (0, 0)), (0.5, (2, 0)), (0.5, (0, 2))],
                        [((0, 0), np.eye(1))])
    with pytest.raises(QuadratureError, match="integrated field is not positive definite; "
                       "the rule is too coarse or the field is not integrable"):
        theta_alpha_decomposed(field, [0.0], build_rule("gauss_hermite", **UNDERFLOWING_RULE))


class TestUnderflowingWeight:
    """Z underflows to 0 although every node value is positive (subnormal)."""

    @pytest.fixture
    def field_and_rule(self):
        return (polynomial_field_from_json(UNDERFLOWING),
                build_rule("gauss_hermite", **UNDERFLOWING_RULE))

    def test_the_node_values_are_positive(self, field_and_rule):
        field, rule = field_and_rule
        assert (field.value(rule.nodes) > 0).all()

    @pytest.mark.parametrize("check", ["bl_gap", "ipp_residual", "bochner_residual",
                                       "DirichletEvaluator", "variance_functional"])
    def test_every_check_raises_a_quadrature_error(self, field_and_rule, check):
        field, rule = field_and_rule
        f = VectorFieldFn.polynomial(1, [[(1.0, (1,))]])
        args = {"bl_gap": (field, f, rule), "ipp_residual": (field, f, f, rule),
                "bochner_residual": (field, f, rule), "DirichletEvaluator": (field, rule),
                "variance_functional": (field, f, rule)}[check]
        with pytest.raises(QuadratureError, match="integrated field is not positive definite"):
            getattr(mlcc, check)(*args)

    @pytest.mark.parametrize("command", ["bl", "ipp", "bochner"])
    def test_the_cli_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "field.json"
        path.write_text(json.dumps(UNDERFLOWING))
        code = run([command, "--field-json", str(path), "--order", "2", "--scale", "0.01",
                    "--test-fn", "poly:y", "--no-timestamp"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: integrated field is not positive definite")


def test_the_under_resolved_gaussian_moment_warns(capsys):
    """The under-resolved example of ROADMAP item 1 still passes (status is that
    item's to decide), but no longer silently."""
    code = run(["bl", "--field", "gaussian_scalar", "--test-fn", "poly:y^2", "--order", "8",
                "--scale", "0.3", "--no-timestamp"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["checks"][0]["status"] == "pass"
    assert report["diagnostics"] == [
        "outermost quadrature node still carries relative weight 1.23e-01; "
        "the rule may not cover the integrand's support"]


class TestFiniteDifferenceCentre:
    @pytest.mark.parametrize("x", [np.array([0.1, -0.2]),
                                   np.random.default_rng(5).uniform(-0.5, 0.5, (7, 2))])
    @pytest.mark.parametrize("members", [False, True])
    def test_the_value_is_a_node_of_the_validated_stencil(self, monkeypatch, x, members):
        params = {"s": np.array([0.25, 0.5, 0.75])} if members else {"s": 0.5}
        field = builtin_field("raufi_corrected", params, jet_mode="finite_difference")
        validations = []
        init = SpdMatrix.__init__
        monkeypatch.setattr(SpdMatrix, "__init__",
                            lambda self, a: validations.append(1) or init(self, a))
        jet = field.jet(x)
        assert len(validations) == 1  # the stencil, not again its centres
        fresh = field.value(x)
        assert jet.value.entries.shape == fresh.shape
        assert _bits(jet.value.entries) == _bits(fresh)
