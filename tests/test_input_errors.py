"""Input errors that no other test reaches: each raises its type with its message.

On the CLI a malformed input is a config error: exit 2, nothing on stdout and
one ``error:`` line on stderr.  In the library it is the exception named here.
"""

import json
import re

import numpy as np
import pytest

from mlcc import (
    BudgetError,
    ColumnBlockMatrix,
    DirichletEvaluator,
    InputError,
    MatrixField,
    QuadraticFormSpec,
    QuadratureError,
    QuadratureRule,
    SpdMatrix,
    VectorFieldFn,
    bl_gap,
    bochner_residual,
    build_rule,
    builtin_field,
    conjugate_field,
    dirichlet_energy,
    g_adjoint,
    integrate_field,
    ipp_residual,
    pairwise_sum,
    polynomial_field_from_json,
    theta_alpha_decomposed,
    variance_functional,
    weighted_mean,
)
from mlcc.cli import run

RAUFI = ["--field", "raufi_corrected", "--param", "s=0.75", "--point", "0,0"]
GAUSS1 = ["--field", "gaussian_scalar", "--order", "4"]
GAUSS2 = ["--field", "gaussian_scalar", "--param", "n=2", "--order", "4"]

CLI_ERRORS = {
    "param_without_equals": (["nakano", "--field", "raufi_corrected", "--param", "s",
                              "--point", "0,0"],
                             "parameter 's' is not of the form name=value"),
    "param_not_a_number": (["nakano", "--field", "raufi_corrected", "--param", "s=abc",
                            "--point", "0,0"], "parameter value 'abc' is not a number"),
    "empty_component": (["bl", *GAUSS2, "--test-fn", "poly:x1;"], "empty polynomial component"),
    "unknown_variable": (["bl", *GAUSS1, "--test-fn", "poly:z"], "unknown variable 'z'"),
    "variable_out_of_range": (["bl", *GAUSS2, "--test-fn", "poly:x3"],
                              "variable 'x3' out of range for n=2"),
    "test_fn_without_poly": (["bl", *GAUSS1, "--test-fn", "y^2"],
                             "unsupported test function 'y^2' (use poly:<expr>)"),
    "no_field": (["nakano", "--point", "0,0"], "no field given (use --field or --field-json)"),
    "grid_without_box": (["bl", *GAUSS1, "--test-fn", "poly:y", "--rule", "uniform_grid"],
                         "uniform_grid needs --box lo,hi"),
    "scan_without_field": (["scan", "--point", "0,0", "--param-range", "s=0:1:0.5"],
                           "no field given (use --field)"),
    "v0_of_the_wrong_length": (["schur", *RAUFI, "--n0", "1", "--v0", "1,2,3"],
                               "flat vector length is not a multiple of d"),
    "zero_scale": (["bl", *GAUSS1, "--test-fn", "poly:y", "--scale", "0"],
                   "scale must be positive"),
    "one_point_grid": (["bl", *GAUSS1, "--test-fn", "poly:y", "--rule", "uniform_grid",
                        "--box=-1,1", "--resolution", "1"], "resolution must be >= 2"),
    "grid_over_the_budget": (["bl", *GAUSS2, "--test-fn", "poly:x1", "--rule", "uniform_grid",
                              "--box=-1,1", "--resolution", "4000"],
                             "grid exceeds the node budget"),
    "t_longer_than_n0": (["prekopa", "--field", "gaussian_cross_spd", "--t", "0.1,0.2",
                          "--n0", "1", "--order", "4"],
                         "t must have length n0 with 1 <= n0 < n"),
    "matrix_entry_out_of_range": (["nakano", "--field", "gaussian_times_spd", "--param",
                                   "a31=0.5", "--point", "0"],
                                  "matrix entry 'a31' out of range for d=2"),
}


def _assert_config_error(capsys, code, message):
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("case", sorted(CLI_ERRORS))
def test_cli_config_error(capsys, case):
    argv, message = CLI_ERRORS[case]
    _assert_config_error(capsys, run(argv + ["--no-timestamp"]), message)


def test_a_seed_from_the_environment_that_is_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("MLCC_SEED", "abc")
    code = run(["griffiths", *RAUFI, "--no-timestamp"])
    _assert_config_error(capsys, code, "MLCC_SEED='abc' is not an integer")


FIELD_JSON_ERRORS = {
    "malformed_entry_key": ({"n": 1, "d": 1, "entries": {"1;1": [[1.0, [0]]]}},
                            "malformed entry key '1;1'"),
    "missing_entries": ({"n": 1, "d": 1}, "field JSON is missing key 'entries'"),
    # the field checks every degree tuple, from JSON or not, once
    "q_degrees_of_the_wrong_length": ({"n": 1, "d": 1, "q": [[0.5, [2, 0]]],
                                       "entries": {"1,1": [[1.0, [0]]]}},
                                      "polynomial degree tuples must have length n"),
    "entry_degrees_of_the_wrong_length": ({"n": 1, "d": 1, "entries": {"1,1": [[1.0, []]]}},
                                          "polynomial degree tuples must have length n"),
}


@pytest.mark.parametrize("case", sorted(FIELD_JSON_ERRORS))
def test_field_json_config_error(tmp_path, capsys, case):
    spec, message = FIELD_JSON_ERRORS[case]
    path = tmp_path / "field.json"
    path.write_text(json.dumps(spec))
    code = run(["nakano", "--field-json", str(path), "--point", "0", "--no-timestamp"])
    _assert_config_error(capsys, code, message)
    with pytest.raises(InputError, match=re.escape(message)):
        polynomial_field_from_json(spec)


def _gauss2():
    return builtin_field("gaussian_scalar", {"n": 2})


def _gh(m):
    return build_rule("gauss_hermite", order=4, m=m)


#: name -> (call, exception type, message)
LIBRARY_ERRORS = {
    "nan_scalar_coefficient": (lambda: MatrixField(1, 1, [(np.nan, (0,))], []),
                               InputError, "field coefficients must be finite"),
    "inf_matrix_coefficient": (lambda: MatrixField(1, 2, [], [((0,), np.full((2, 2), np.inf))]),
                               InputError, "field coefficients must be finite"),
    "coefficient_of_the_wrong_shape": (lambda: MatrixField(1, 2, [], [((0,), np.eye(3))]),
                                       InputError,
                                       "field coefficient has shape (3, 3), expected (2, 2)"),
    "asymmetric_coefficient": (lambda: MatrixField(1, 2, [], [((0,), [[1.0, 0.5], [0.0, 1.0]])]),
                               InputError, "matrix coefficients must be symmetric"),
    "no_variables": (lambda: MatrixField(0, 1, [], []), InputError,
                     "field dimensions must be positive"),
    "unknown_jet_mode": (lambda: MatrixField(1, 1, [], [], jet_mode="spectral"), InputError,
                         "unknown jet mode 'spectral'"),
    "degree_tuple_of_the_wrong_length": (lambda: MatrixField(2, 1, [(1.0, (2,))], []),
                                         InputError,
                                         "polynomial degree tuples must have length n"),
    "rule_shapes": (lambda: QuadratureRule(1, np.zeros((3, 2)), np.ones(3), "custom"),
                    InputError, "node/weight shapes inconsistent"),
    "rule_weights": (lambda: QuadratureRule(1, np.zeros((3, 1)), np.array([1.0, 0.0, 1.0]),
                                            "custom"),
                     InputError, "weights must be positive"),
    "grid_over_the_budget": (lambda: build_rule("uniform_grid", box=[(-1.0, 1.0)] * 2,
                                                resolution=4000),
                             BudgetError, "grid exceeds the node budget"),
    "empty_sum": (lambda: pairwise_sum([]), InputError, "nothing to sum"),
    "integral_dimension": (lambda: integrate_field(_gauss2(), _gh(1)), InputError,
                           "field and rule dimensions differ"),
    "energy_dimension": (lambda: dirichlet_energy(
                             _gauss2(), VectorFieldFn.polynomial(2, [[(1.0, (1, 0))]]), _gh(1)),
                         InputError, "field and rule dimensions differ"),
    "route_b_dimension": (lambda: theta_alpha_decomposed(_gauss2(), [0.1], _gh(2)), InputError,
                          "rule dimension must equal the number of integrated variables"),
    "vector_field_value_shape": (lambda: VectorFieldFn(1, 2, lambda x: [x[0]]).value(
                                     np.zeros((3, 1))),
                                 InputError, "vector field value has shape (3, 1), want (3, 2)"),
    "integral_off_the_cone": (lambda: integrate_field(
                                  MatrixField(1, 1, [(744.0, (0,)), (0.5, (2,))],
                                              [((0,), np.eye(1))]),
                                  build_rule("gauss_hermite", order=2, m=1, scale=0.01)),
                              QuadratureError,
                              "integrated field is not positive definite; the rule is too "
                              "coarse or the field is not integrable"),
    "non_finite_matrix": (lambda: SpdMatrix([[np.nan]]), InputError,
                          "matrix entries must be finite"),
    "no_columns": (lambda: ColumnBlockMatrix([]), InputError, "need at least one column"),
    "ragged_columns": (lambda: ColumnBlockMatrix([[1.0, 2.0], [1.0]]), InputError,
                       "all columns must be vectors of the same dimension"),
    "form_dimension": (lambda: QuadraticFormSpec(SpdMatrix(np.eye(2)), np.eye(3)), InputError,
                       "form dimension is not a multiple of the metric's"),
    "adjoint_shape": (lambda: g_adjoint(SpdMatrix(np.eye(2)), np.eye(3)), InputError,
                      "operator shape does not match the metric"),
    "conjugating_shape": (lambda: conjugate_field(builtin_field("perturbed_gaussian_spd"),
                                                  np.eye(3)),
                          InputError, "conjugating matrix has wrong shape"),
    # an empty stack of points failed inside SpdMatrix with NumPy's bare ValueError
    "empty_stack_value": (lambda: builtin_field("perturbed_gaussian_spd").value(np.empty((0, 2))),
                          InputError, "expected at least one point in R^2, got an empty stack"),
    "empty_stack_exact_jet": (lambda: builtin_field("perturbed_gaussian_spd").jet(
                                  np.empty((0, 2))),
                              InputError, "expected at least one point in R^2, got an empty stack"),
    "empty_stack_fd_jet": (lambda: builtin_field("gaussian_scalar", jet_mode="finite_difference")
                           .jet(np.empty((0, 1))),
                           InputError, "expected at least one point in R^1, got an empty stack"),
    "empty_stack_member_value": (lambda: builtin_field("raufi_corrected", {"s": [0.5, 0.75]})
                                 .value(np.empty((0, 2))),
                                 InputError, "expected at least one point in R^2, got an empty "
                                 "stack"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_ERRORS))
def test_library_error(case):
    call, error, message = LIBRARY_ERRORS[case]
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.filterwarnings("ignore:outermost quadrature node")
class TestTestFunctionShape:
    """A test function must take the field's n coordinates and have its d
    components; on ``perturbed_gaussian_spd`` (n = d = 2) at GH 8^2 a wrong one
    gave a silent variance, a passing ipp check or a raw NumPy ValueError.
    Each check rejects it before any node work."""

    FIELD = builtin_field("perturbed_gaussian_spd")
    RULE = build_rule("gauss_hermite", order=8, m=2)
    GOOD = VectorFieldFn.polynomial(2, [[(1.0, (1, 0))], [(1.0, (0, 1))]])
    ONE_VARIABLE = VectorFieldFn.polynomial(1, [[(1.0, (1,))], [(1.0, (2,))]])
    THREE_COMPONENTS = VectorFieldFn.polynomial(2, [[(1.0, (1, 0))], [(1.0, (0, 1))],
                                                    [(1.0, (1, 1))]])
    WRONG_D = "test function has 3 components but the field needs 2"
    WRONG_N = "test function takes 1 variables but the field has 2"

    @pytest.fixture(scope="class")
    def ev(self):
        return DirichletEvaluator(self.FIELD, self.RULE)

    def _entry_points(self, ev, f):
        field, rule, good = self.FIELD, self.RULE, self.GOOD
        return {
            "bl_gap": lambda: bl_gap(field, f, rule),
            "bl_gap_with_evaluator": lambda: bl_gap(field, f, rule, evaluator=ev),
            "variance_functional": lambda: variance_functional(field, f, rule),
            "variance_functional_with_evaluator": lambda: variance_functional(field, f, rule, ev),
            "energy": lambda: ev.energy(f),
            "dirichlet_energy": lambda: dirichlet_energy(field, f, rule),
            "weighted_mean": lambda: weighted_mean(field, f, rule),
            "ipp_residual_f": lambda: ipp_residual(field, f, good, rule),
            "ipp_residual_g": lambda: ipp_residual(field, good, f, rule),
            "bochner_residual": lambda: bochner_residual(field, f, rule),
        }

    ENTRY_POINTS = ["bl_gap", "bl_gap_with_evaluator", "variance_functional",
                    "variance_functional_with_evaluator", "energy", "dirichlet_energy",
                    "weighted_mean", "ipp_residual_f", "ipp_residual_g", "bochner_residual"]

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_a_wrong_component_count_is_an_input_error(self, ev, entry):
        with pytest.raises(InputError, match=re.escape(self.WRONG_D)):
            self._entry_points(ev, self.THREE_COMPONENTS)[entry]()

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_a_wrong_variable_count_is_an_input_error(self, ev, entry, monkeypatch):
        monkeypatch.setattr(MatrixField, "jet", None)  # no node work before the error
        monkeypatch.setattr(MatrixField, "value", None)
        with pytest.raises(InputError, match=re.escape(self.WRONG_N)):
            self._entry_points(ev, self.ONE_VARIABLE)[entry]()

    @pytest.mark.parametrize("method", ["value", "grad", "hess"])
    @pytest.mark.parametrize("kind", ["polynomial", "callable"])
    def test_points_with_the_wrong_last_axis(self, method, kind):
        f = (VectorFieldFn.polynomial(2, [[(1.0, (1, 1))]]) if kind == "polynomial"
             else VectorFieldFn(2, 1, lambda x: [x[0] * x[1]]))
        for x, shape in ((np.zeros((5, 3)), "(5, 3)"), (np.zeros(1), "(1,)"),
                         (np.float64(0.5), "()")):
            with pytest.raises(InputError, match=re.escape(
                    f"points of shape {shape} do not have the test function's n = 2 coordinates")):
                getattr(f, method)(x)
