"""Input errors that no other test reaches: each raises its type with its message.

On the CLI a malformed input is a config error: exit 2, nothing on stdout and
one ``error:`` line on stderr.  In the library it is the exception named here.
"""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    curvature_matrix,
    dirichlet_energy,
    g_adjoint,
    griffiths_check,
    griffiths_min_gap,
    integrate_field,
    ipp_residual,
    nakano_check,
    pairwise_sum,
    polar_value,
    polynomial_field,
    polynomial_field_from_json,
    prekopa_check,
    restrict_field,
    schur_check,
    theta_alpha_decomposed,
    variance_functional,
    weighted_mean,
)
from mlcc.cli import run
from mlcc.errors import NODE_BUDGET

RAUFI = ["--field", "raufi_corrected", "--param", "s=0.75", "--point", "0,0"]
GAUSS1 = ["--field", "gaussian_scalar", "--order", "4"]
GAUSS2 = ["--field", "gaussian_scalar", "--param", "n=2", "--order", "4"]

#: A field JSON whose value overflows near 0: e^{1 - x^2 / 2} 1e308.  In an argv of
#: ``CLI_ERRORS`` it stands for a file holding it.
OVERFLOWING_FIELD = {"n": 1, "d": 1, "q": [[-1.0, [0]], [0.5, [2]]],
                     "entries": {"1,1": [[1e308, [0]]]}}

FD_1E300 = ("the finite-difference step h (--h) = 1e-300 gives derivatives that are not "
            "finite; central differences need a larger step")

N0_OF_RAUFI = "n0 must satisfy 1 <= n0 < 2, got {}"


def budget_message(n, d):
    return (f"a field with n = {n} and d = {d} has a curvature matrix of (n d)^2 = "
            f"{(n * d) ** 2} entries at each point, beyond the budget of {NODE_BUDGET}")


ZERO_V0 = ("V0 (--v0) is zero; the Schur inequality holds at V0 = 0 for every field, so it "
           "tests nothing")

CLI_ERRORS = {
    "param_without_equals": (["nakano", "--field", "raufi_corrected", "--param", "s",
                              "--point", "0,0"],
                             "parameter 's' is not of the form name=value"),
    "param_not_a_number": (["nakano", "--field", "raufi_corrected", "--param", "s=abc",
                            "--point", "0,0"], "parameter value 'abc' is not a number"),
    # a value that overflows or is nan named only the field's coefficients
    "param_overflows": (["nakano", "--field", "raufi_corrected", "--param", "s=1e999",
                         "--point", "0,0"],
                        "--param s: the value must be a finite number, got '1e999'"),
    "param_nan": (["schur", "--field", "raufi_corrected", "--param", "s=nan", "--point", "0,0",
                   "--n0", "1"], "--param s: the value must be a finite number, got 'nan'"),
    "param_infinite_entry": (["nakano", "--field", "gaussian_times_spd", "--param", "a12=-inf",
                              "--point", "0"],
                             "--param a12: the value must be a finite number, got '-inf'"),
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
    # an n0 below 1 was read as V0's column count: "need at least one column"
    **{f"schur_n0_{name}": (["schur", *RAUFI, "--n0", n0], N0_OF_RAUFI.format(n0))
       for name, n0 in (("zero", "0"), ("negative", "-1"))},
    # the field was built, with n tuples of n degrees or a d x d identity, before n or d
    # was bounded
    "builtin_n_over_the_budget": (["nakano", "--field", "gaussian_scalar", "--param",
                                   "n=1000000", "--point", "0"], budget_message(10**6, 1)),
    "builtin_d_over_the_budget": (["nakano", "--field", "gaussian_times_spd", "--param",
                                   "d=100000", "--point", "0"], budget_message(1, 10**5)),
    # a zero V0 passed with a gap of -0.0
    "zero_v0": (["schur", *RAUFI, "--n0", "1", "--v0", "0,-0"], ZERO_V0),
    "zero_scale": (["bl", *GAUSS1, "--test-fn", "poly:y", "--scale", "0"],
                   "scale must be finite and > 0, got 0.0"),
    # a non-finite centre or scale was blamed on the field's points, a bad box on the weights
    "nan_center": (["bl", *GAUSS1, "--test-fn", "poly:y", "--center", "nan"],
                   "center must be a finite number, got nan"),
    "infinite_scale": (["bl", *GAUSS1, "--test-fn", "poly:y", "--scale", "inf"],
                       "scale must be finite and > 0, got inf"),
    "nan_box": (["bl", *GAUSS1, "--test-fn", "poly:y", "--rule", "uniform_grid", "--box=0,nan",
                 "--resolution", "5"],
                "box must be a finite number, got nan"),
    "reversed_box": (["bl", *GAUSS1, "--test-fn", "poly:y", "--rule", "uniform_grid",
                      "--box=1,0", "--resolution", "5"],
                     "box must be finite with lo < hi on every axis, got (1.0, 0.0)"),
    "one_point_grid": (["bl", *GAUSS1, "--test-fn", "poly:y", "--rule", "uniform_grid",
                        "--box=-1,1", "--resolution", "1"],
                       "resolution must be a whole number >= 2, got 1"),
    "grid_over_the_budget": (["bl", *GAUSS2, "--test-fn", "poly:x1", "--rule", "uniform_grid",
                              "--box=-1,1", "--resolution", "4000"],
                             "grid exceeds the node budget"),
    "t_longer_than_n0": (["prekopa", "--field", "gaussian_cross_spd", "--t", "0.1,0.2",
                          "--n0", "1", "--order", "4"],
                         "t must have length n0 with 1 <= n0 < n"),
    "matrix_entry_out_of_range": (["nakano", "--field", "gaussian_times_spd", "--param",
                                   "a31=0.5", "--point", "0"],
                                  "matrix entry 'a31' out of range for d=2"),
    # h^2 underflowing to 0 made the second differences 0/0: griffiths passed on -inf,
    # schur and bochner failed on nan, nakano, scan and prekopa crashed in LAPACK
    **{f"fd_step_too_small_{argv[0]}": (argv + ["--jet", "fd", "--h", "1e-300"], FD_1E300)
       for argv in (["griffiths", *RAUFI], ["nakano", *RAUFI], ["schur", *RAUFI, "--n0", "1"],
                    ["bochner", "--field", "gaussian_scalar", "--param", "n=1",
                     "--test-fn", "poly:y^2", "--order", "8"],
                    ["scan", "--field", "raufi_corrected", "--point", "0,0",
                     "--param-range", "s=0:1:0.5"])},
    "marginal_step_too_small": (["prekopa", *GAUSS2[:4], "--t", "0", "--n0", "1",
                                 "--marginal-h", "1e-300"],
                                "the marginal step h (--marginal-h) = 1e-300 gives derivatives "
                                "that are not finite; central differences need a larger step"),
    # g = -1e308 Id - ..., symmetrized as 0.5 (g + g^T), overflowed to -inf: its NaN
    # eigenvalues passed the SPD check and LAPACK crashed on the curvature
    "negative_definite_at_1e308": (["nakano", "--field", "raufi_corrected", "--param",
                                    "s=1e308", "--point", "1,1"],
                                   "field raufi_corrected at x = [1. 1.]: matrix is not "
                                   "positive definite (min eigenvalue -1.000e+308)"),
    # an exact jet whose second derivative overflows: nakano failed on a NaN lambda_max,
    # prekopa crashed in LAPACK
    "exact_jet_overflow_nakano": (["nakano", "--field", "gaussian_times_spd", "--param",
                                   "a11=1e308", "--param", "a22=1e308", "--point", "0"],
                                  "field gaussian_times_spd at x = [0.]: the jet has "
                                  "derivatives that are not finite"),
    "exact_jet_overflow_prekopa": (["prekopa", "--field", "gaussian_cross_spd", "--param",
                                    "a11=1e308", "--param", "a22=1e308", "--t", "0", "--n0",
                                    "1", "--order", "8"],
                                   "field gaussian_cross_spd at x = [ 0.       -2.930637]: "
                                   "the jet has derivatives that are not finite"),
    # a value that overflows named neither the field nor the point
    **{f"overflowing_value_{name}": (argv, f"field polynomial at x = {x}: matrix entries "
                                           "must be finite")
       for name, argv, x in (
           ("nakano", ["nakano", "--field-json", OVERFLOWING_FIELD, "--point", "0"], "[0.]"),
           ("nakano_fd", ["nakano", "--field-json", OVERFLOWING_FIELD, "--point", "0",
                          "--jet", "fd"], "[0.]"),
           ("bl", ["bl", "--field-json", OVERFLOWING_FIELD, "--test-fn", "poly:y", "--order",
                   "8"], "[-0.381187]"))},
    # a non-finite t or point was "expected a finite point in R^n" of the whole field
    "nan_t": (["prekopa", "--field", "gaussian_cross_spd", "--t", "nan", "--n0", "1"],
              "--t must be finite, got 'nan'"),
    "nan_point": (["nakano", *RAUFI[:4], "--point", "nan,0"], "--point must be finite, got 'nan,0'"),
    # "malformed point 'a'" named no flag
    "t_that_is_not_a_number": (["prekopa", "--field", "gaussian_cross_spd", "--t", "a", "--n0",
                                "1"], "--t must be comma-separated numbers, got 'a'"),
    # an overflowing coefficient made ipp and bl report fail on inf or nan sums
    "infinite_test_function_coefficient": (["bl", *GAUSS1, "--test-fn", "poly:1e999*y"],
                                           "test function component 0: the coefficient must be "
                                           "a finite number, got inf"),
}


def _assert_config_error(capsys, code, message):
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("case", sorted(CLI_ERRORS))
def test_cli_config_error(tmp_path, capsys, case):
    argv, message = CLI_ERRORS[case]
    path = tmp_path / "field.json"
    path.write_text(json.dumps(OVERFLOWING_FIELD))
    argv = [str(path) if arg is OVERFLOWING_FIELD else arg for arg in argv]
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
    # a negative degree never finished evaluating; 2.7 was truncated to 2
    "negative_q_degree": ({"n": 1, "d": 1, "q": [[0.5, [-2]]], "entries": {"1,1": [[1.0, [0]]]}},
                          "monomial of degrees (-2,): each degree must be a whole number >= 0, "
                          "got -2"),
    "fractional_q_degree": ({"n": 1, "d": 1, "q": [[0.5, [2.7]]],
                             "entries": {"1,1": [[1.0, [0]]]}},
                            "monomial of degrees (2.7,): each degree must be a whole number >= 0, "
                            "got 2.7"),
    # JSON's true was read as n = 1 and as the degree 1
    "boolean_n": ({"n": True, "d": 1, "entries": {"1,1": [[1.0, [0]]]}},
                  "n must be a whole number >= 1, got True"),
    "boolean_degree": ({"n": 1, "d": 1, "entries": {"1,1": [[1.0, [0]], [0.5, [True]]]}},
                       "monomial of degrees (True,): each degree must be a whole number >= 0, "
                       "got True"),
    "fractional_entry_degree": ({"n": 2, "d": 1, "entries": {"1,1": [[1.0, [0, 0]],
                                                                   [0.1, [1, 0.5]]]}},
                                "monomial of degrees (1, 0.5): each degree must be a whole "
                                "number >= 0, got 0.5"),
    "degree_that_is_not_a_number": ({"n": 1, "d": 1, "entries": {"1,1": [[1.0, ["2"]]]}},
                                    "monomial of degrees ('2',): each degree must be a whole "
                                    "number >= 0, got '2'"),
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


def test_a_field_json_degree_error_in_a_report_entry(tmp_path, capsys):
    field = tmp_path / "field.json"
    field.write_text(json.dumps(FIELD_JSON_ERRORS["negative_q_degree"][0]))
    cfg = tmp_path / "checks.json"
    cfg.write_text(json.dumps({"checks": [{"name": "nakano", "args": [
        "--field-json", str(field), "--point", "0.5"]}]}))
    code = run(["report", "--config", str(cfg), "--no-timestamp"])
    _assert_config_error(capsys, code, FIELD_JSON_ERRORS["negative_q_degree"][1])


def test_a_param_that_is_not_finite_in_a_report_entry(tmp_path, capsys):
    cfg = tmp_path / "checks.json"
    cfg.write_text(json.dumps({"checks": [{"name": "nakano", "args": [
        "--field", "raufi_corrected", "--param", "s=1e999", "--point", "0,0"]}]}))
    code = run(["report", "--config", str(cfg), "--no-timestamp"])
    _assert_config_error(capsys, code, "--param s: the value must be a finite number, got '1e999'")


def test_integral_float_degrees_are_whole_numbers(tmp_path, capsys):
    """2.0 in a JSON field or a term list is the degree 2, as before."""
    reports = []
    for degree in (2, 2.0):
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"n": 1, "d": 1, "q": [[0.5, [degree]]],
                                    "entries": {"1,1": [[1.0, [0]], [0.25, [degree]]]}}))
        code = run(["nakano", "--field-json", str(path), "--point", "0.5", "--no-timestamp"])
        reports.append((code, capsys.readouterr()))
    assert reports[0] == reports[1] and reports[0][0] == 0
    x = np.linspace(-1.0, 1.0, 5)[:, None]
    whole = VectorFieldFn.polynomial(1, [[(1.0, (2,))]])
    assert VectorFieldFn.polynomial(1, [[(1.0, (2.0,))]]).grad(x).tobytes() == \
        whole.grad(x).tobytes()
    p_terms = [((0,), np.eye(1)), ((2,), np.eye(1))]
    assert MatrixField(1, 1, [(1.0, (np.int64(2),))], p_terms[:1] + [((2.0,), np.eye(1))]) \
        .value(x).tobytes() == MatrixField(1, 1, [(1.0, (2,))], p_terms).value(x).tobytes()


def _gauss2():
    return builtin_field("gaussian_scalar", {"n": 2})


def _gh(m):
    return build_rule("gauss_hermite", order=4, m=m)


def _curvature(name, params, n):
    return curvature_matrix(builtin_field(name, params), np.zeros(n))


#: (field, parameters, n) of a shape on the circle (n = d = 2) and of one off it
#: the closed form on the circle, Nakano's lambda_max (min(n, d) = 1) and the search
GRIFFITHS_SHAPES = {"circle": ("raufi_corrected", {"s": 0.75}, 2),
                    "stack": ("gaussian_scalar", {"n": 3}, 3),
                    "search": ("gaussian_times_spd", {"n": 3, "d": 2}, 3)}


#: One 2-dim form and a stack of three, for the polar value's vector shapes.
ONE_FORM = QuadraticFormSpec(SpdMatrix(np.eye(2)), np.diag([1.0, 4.0]))
THREE_FORMS = QuadraticFormSpec(SpdMatrix(np.stack([np.eye(2)] * 3)),
                                np.stack([np.diag([1.0, 4.0])] * 3))

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
    # behind a member axis, and the first failing term's message when several fail
    "asymmetric_member_coefficient": (lambda: MatrixField(
                                          1, 2, [], [((0,), np.eye(2)),
                                                     ((1,), [np.eye(2), [[1.0, 0.5], [0.0, 1.0]]])],
                                          members=("s", np.array([0.1, 0.2]))),
                                      InputError, "matrix coefficients must be symmetric"),
    "member_coefficient_of_the_wrong_shape": (lambda: MatrixField(
                                                  1, 2, [], [((0,), np.ones((3, 2, 2)))],
                                                  members=("s", np.array([0.1, 0.2]))),
                                              InputError, "field coefficient has shape "
                                              "(3, 2, 2), expected (2, 2)"),
    "nan_member_scalar_coefficient": (lambda: MatrixField(
                                          1, 1, [(1.0, (0,)), ([0.5, np.nan], (2,))],
                                          [((0,), np.eye(1))], members=("s", np.array([0.1, 0.2]))),
                                      InputError, "field coefficients must be finite"),
    "asymmetric_before_a_wrong_shape": (lambda: MatrixField(
                                            1, 2, [], [((0,), [[1.0, 0.5], [0.0, 1.0]]),
                                                       ((1,), np.eye(3))]),
                                        InputError, "matrix coefficients must be symmetric"),
    "wrong_shape_before_a_nan": (lambda: MatrixField(1, 2, [], [((0,), np.eye(3)),
                                                                ((1,), np.full((2, 2), np.nan))]),
                                 InputError, "field coefficient has shape (3, 3), expected (2, 2)"),
    "asymmetric_coefficient_of_a_bad_degree": (lambda: MatrixField(
                                                   1, 2, [], [((-1,), [[1.0, 0.5], [0.0, 1.0]])]),
                                               InputError, "matrix coefficients must be symmetric"),
    "bad_degree_before_a_nan": (lambda: MatrixField(1, 2, [], [((-1,), np.eye(2)),
                                                               ((0,), np.full((2, 2), np.nan))]),
                                InputError, "monomial of degrees (-1,): each degree must be a "
                                "whole number >= 0"),
    "no_variables": (lambda: MatrixField(0, 1, [], []), InputError,
                     "n must be a whole number >= 1, got 0"),
    "unknown_jet_mode": (lambda: MatrixField(1, 1, [], [], jet_mode="spectral"), InputError,
                         "unknown jet mode 'spectral'"),
    "degree_tuple_of_the_wrong_length": (lambda: MatrixField(2, 1, [(1.0, (2,))], []),
                                         InputError,
                                         "polynomial degree tuples must have length n"),
    # a negative degree never finished evaluating, a fractional one raised a TypeError
    "negative_field_degree": (lambda: MatrixField(1, 1, [(1.0, (-1,))], [((0,), np.eye(1))]),
                              InputError,
                              "monomial of degrees (-1,): each degree must be a whole number >= 0"),
    "fractional_field_degree": (lambda: MatrixField(2, 1, [], [((1.5, 0), np.eye(1))]),
                                InputError, "monomial of degrees (1.5, 0): each degree must be "
                                "a whole number >= 0"),
    "negative_test_function_degree": (lambda: VectorFieldFn.polynomial(1, [[(1.0, (-1,))]]),
                                      InputError, "monomial of degrees (-1,): each degree must "
                                      "be a whole number >= 0"),
    "fractional_test_function_degree": (lambda: VectorFieldFn.polynomial(
                                            2, [[(1.0, (0, 1))], [(1.0, (1.5, 0))]]),
                                        InputError, "monomial of degrees (1.5, 0): each degree "
                                        "must be a whole number >= 0"),
    # too short or too long, a degree tuple raised an IndexError or was taken silently
    "short_test_function_degrees": (lambda: VectorFieldFn.polynomial(2, [[(1.0, (1,))]]),
                                    InputError, "polynomial degree tuples must have length n"),
    "long_test_function_degrees": (lambda: VectorFieldFn.polynomial(2, [[(1.0, (0, 0, 1))]]),
                                   InputError, "polynomial degree tuples must have length n"),
    "long_test_function_degrees_of_zero": (lambda: VectorFieldFn.polynomial(
                                               2, [[(1.0, (1, 0, 0))]]),
                                           InputError,
                                           "polynomial degree tuples must have length n"),
    # bl_gap reported fail with nan lhs, rhs and gap; ipp_residual failed on inf
    "nan_test_function_coefficient": (lambda: VectorFieldFn.polynomial(1, [[(np.nan, (1,))]]),
                                      InputError, "test function component 0: the coefficient "
                                      "must be a finite number, got nan"),
    "infinite_test_function_coefficient": (lambda: VectorFieldFn.polynomial(
                                               1, [[(1.0, (1,))], [(-np.inf, (0,))]]),
                                           InputError, "test function component 1: the "
                                           "coefficient must be a finite number, got -inf"),
    "rule_shapes": (lambda: QuadratureRule(1, np.zeros((3, 2)), np.ones(3), "custom"),
                    InputError, "node/weight shapes inconsistent"),
    "rule_weights": (lambda: QuadratureRule(1, np.zeros((3, 1)), np.array([1.0, 0.0, 1.0]),
                                            "custom"),
                     InputError, "weights must be positive"),
    # an infinite weight was blamed on the field ("not positive definite"), a NaN node on x
    **{f"rule_{what}": (lambda nodes=nodes, weights=weights: QuadratureRule(
                            1, np.array(nodes), np.array(weights), "custom"),
                        InputError, "rule nodes and weights must be finite")
       for what, nodes, weights in (("infinite_weight", [[0.0], [1.0]], [1.0, np.inf]),
                                    ("nan_node", [[0.0], [np.nan]], [1.0, 1.0]))},
    "grid_over_the_budget": (lambda: build_rule("uniform_grid", box=[(-1.0, 1.0)] * 2,
                                                resolution=4000),
                             BudgetError, "grid exceeds the node budget"),
    # 8.9 and 1.5 were truncated to a 1-D rule of order 8, 3.7 to 3 points, and "12" read as 12
    **{f"{what}_{key}": (lambda kind=kind, kw=kw: build_rule(kind, **kw), InputError,
                         f"{key} must be a whole number{bound}, got {kw[key]!r}")
       for kind, what, key, bound, kw in (
           ("gauss_hermite", "fractional", "order", "", {"order": 8.9, "m": 1.5}),
           ("gauss_hermite", "fractional", "m", " >= 1", {"order": 8, "m": 1.5}),
           ("gauss_hermite", "string", "order", "", {"order": "12"}),
           ("gauss_hermite", "boolean", "m", " >= 1", {"order": 4, "m": True}),
           ("uniform_grid", "fractional", "resolution", " >= 2",
            {"box": [(0, 1)], "resolution": 3.7}))},
    "nan_center": (lambda: build_rule("gauss_hermite", order=4, m=2, center=[0.0, np.nan]),
                   InputError, "center must be a finite number, got nan"),
    "infinite_scale": (lambda: build_rule("gauss_hermite", order=4, m=1, scale=-np.inf),
                       InputError, "scale must be finite and > 0, got -inf"),
    "nan_box": (lambda: build_rule("uniform_grid", box=[(-1.0, 1.0), (np.nan, 1.0)],
                                   resolution=5),
                InputError, "box must be a finite number, got nan"),
    "empty_box": (lambda: build_rule("uniform_grid", box=[(0.5, 0.5)], resolution=5),
                  InputError, "box must be finite with lo < hi on every axis, got (0.5, 0.5)"),
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
                          InputError, "x must be a point in R^2 or a nonempty stack of them, "
                          "got shape (0, 2)"),
    "empty_stack_exact_jet": (lambda: builtin_field("perturbed_gaussian_spd").jet(
                                  np.empty((0, 2))),
                              InputError, "x must be a point in R^2 or a nonempty stack of them, "
                              "got shape (0, 2)"),
    "empty_stack_fd_jet": (lambda: builtin_field("gaussian_scalar", jet_mode="finite_difference")
                           .jet(np.empty((0, 1))),
                           InputError, "x must be a point in R^1 or a nonempty stack of them, "
                           "got shape (0, 1)"),
    "empty_stack_member_value": (lambda: builtin_field("raufi_corrected", {"s": [0.5, 0.75]})
                                 .value(np.empty((0, 2))),
                                 InputError, "x must be a point in R^2 or a nonempty stack of "
                                 "them, got shape (0, 2)"),
    # both raised an IndexError once
    "test_function_without_components": (lambda: VectorFieldFn.polynomial(2, []), InputError,
                                         "a polynomial test function needs at least one "
                                         "component"),
    "test_function_in_no_variables": (lambda: VectorFieldFn.polynomial(0, [[(1.0, ())]]),
                                      InputError, "n must be a whole number >= 1, got 0"),
    # a TypeError; and a RuntimeWarning from the frozen powers before the finiteness error
    "restriction_to_a_matrix_of_t": (lambda: restrict_field(
                                         builtin_field("perturbed_gaussian_spd"), [[0.1]]),
                                     InputError, "perturbed_gaussian_spd: t must be a finite 1-D "
                                     "vector, got [[0.1]]"),
    "restriction_to_a_nan_t": (lambda: restrict_field(
                                   builtin_field("perturbed_gaussian_spd"), [np.nan]),
                               InputError, "perturbed_gaussian_spd: t must be a finite 1-D "
                               "vector, got [nan]"),
    # 8.5, 2.5 and 1.5 raised a TypeError, and max_iter = 0 gave -inf; on the circle, where
    # they are not read, they would pass unread, and so would a bool
    **{f"{what}_{shape}": (lambda shape=shape, kw=kw: griffiths_min_gap(
                               _curvature(*GRIFFITHS_SHAPES[shape]), **kw), InputError, message)
       for shape in GRIFFITHS_SHAPES
       for what, kw, message in (
           ("fractional_starts", {"n_starts": 8.5}, "n_starts must be a whole number >= 8, got 8.5"),
           ("boolean_starts", {"n_starts": True}, "n_starts must be a whole number >= 8, got True"),
           ("no_steps", {"max_iter": 0}, "max_iter must be a whole number >= 1, got 0"),
           ("fractional_steps", {"max_iter": 2.5}, "max_iter must be a whole number >= 1, got 2.5"),
           ("boolean_steps", {"max_iter": True}, "max_iter must be a whole number >= 1, got True"),
           ("fractional_seed", {"seed": 1.5}, "seed must be a whole number >= 0, got 1.5"),
           ("boolean_seed", {"seed": False}, "seed must be a whole number >= 0, got False"))},
    "zero_v0": (lambda: schur_check(_curvature("raufi_corrected", {"s": 0.75}, 2), 1,
                                    ColumnBlockMatrix([[0.0, 0.0]])), InputError, ZERO_V0),
    # an n0 below 1 was read as V0's column count
    **{f"schur_n0_{n0}": (lambda n0=n0: schur_check(_curvature("raufi_corrected", {"s": 0.75}, 2),
                                                    n0), InputError, N0_OF_RAUFI.format(n0))
       for n0 in (0, -1)},
    # a vector of the wrong length was broadcast: [1.0] and 1.0 read as (1, 1), 1.25; a
    # length-3 vector and a stack's wrong node count raised NumPy's ValueError
    **{f"polar_of_{name}": (lambda spec=spec, v=v: polar_value(spec, v), InputError, message)
       for name, spec, v, message in (
           ("one_entry", ONE_FORM, [1.0], "v has shape (1,); the form takes shape (2,)"),
           ("a_number", ONE_FORM, 1.0, "v has shape (); the form takes shape (2,)"),
           ("three_entries", ONE_FORM, [1.0, 2.0, 3.0],
            "v has shape (3,); the form takes shape (2,)"),
           ("the_wrong_node_count", THREE_FORMS, np.ones((2, 2)),
            "v has shape (2, 2); the stack takes shape (3, 2)"))},
    # the terms or the identity of a field were built before n or d was bounded
    "builtin_n_over_the_budget": (lambda: builtin_field("gaussian_scalar", {"n": 10**6}),
                                  BudgetError, budget_message(10**6, 1)),
    "builtin_d_over_the_budget": (lambda: builtin_field("gaussian_times_spd", {"d": 10**5}),
                                  BudgetError, budget_message(1, 10**5)),
    "polynomial_field_over_the_budget": (lambda: polynomial_field(10**4, 1, {}), BudgetError,
                                         budget_message(10**4, 1)),
    "field_json_over_the_budget": (lambda: polynomial_field_from_json(
                                       {"n": 1, "d": 10**5, "entries": {}}),
                                   BudgetError, budget_message(1, 10**5)),
    "matrix_field_over_the_budget": (lambda: MatrixField(3163, 1, [], []), BudgetError,
                                     budget_message(3163, 1)),
    # a KeyError, or NumPy's or Python's ValueError
    "grid_without_box": (lambda: build_rule("uniform_grid", resolution=3), InputError,
                         "uniform_grid needs 'box'"),
    "grid_without_resolution": (lambda: build_rule("uniform_grid", box=[(0, 1)]), InputError,
                                "uniform_grid needs 'resolution'"),
    "malformed_box_pair": (lambda: build_rule("uniform_grid", box=[(0, 1, 2)], resolution=3),
                           InputError, "box must be a list of (lo, hi) pairs, one per axis, "
                           "got [(0, 1, 2)]"),
    "center_that_is_not_a_number": (lambda: build_rule("gauss_hermite", order=4, center="a"),
                                    InputError, "center must be real, got 'a'"),
    "center_of_the_wrong_length": (lambda: build_rule("gauss_hermite", order=4, m=2,
                                                      center=[0.0, 1.0, 2.0]),
                                   InputError, "center must be a number or 2 of them, one per "
                                   "axis, got [0.0, 1.0, 2.0]"),
    "scale_of_the_wrong_length": (lambda: build_rule("gauss_hermite", order=4, m=2,
                                                     scale=[1.0, 2.0, 3.0]),
                                  InputError, "scale must be a number or 2 of them, one per "
                                  "axis, got [1.0, 2.0, 3.0]"),
    # an IndexError and NumPy's ValueError
    "empty_matrix": (lambda: SpdMatrix(np.zeros((0, 0))), InputError,
                     "expected a nonempty square matrix or a stack of them, got shape (0, 0)"),
    "empty_stack": (lambda: SpdMatrix(np.zeros((0, 2, 2))), InputError,
                    "expected a nonempty square matrix or a stack of them, got shape (0, 2, 2)"),
    # a ZeroDivisionError
    "flat_vector_of_zero_d": (lambda: ColumnBlockMatrix.from_flat([1.0, 2.0], 0), InputError,
                              "d must be a whole number >= 1, got 0"),
    # each was a raw TypeError (or, for h = 'a' and s = 'a', a ValueError); 2.5 was
    # truncated to 2 and 1.9 to 1; True was read as 1
    **{f"matrix_field_{what}": (lambda value=value: MatrixField(value, 1, [], []), InputError,
                                f"n must be a whole number >= 1, got {value!r}")
       for what, value in (("fractional_n", 2.5), ("boolean_n", True), ("string_n", "2"))},
    "schur_fractional_n0": (lambda: schur_check(_curvature("raufi_corrected", {"s": 0.75}, 2),
                                                1.5),
                            InputError, "n0 must be a whole number, got 1.5"),
    "schur_boolean_n0": (lambda: schur_check(_curvature("raufi_corrected", {"s": 0.75}, 2), True),
                         InputError, "n0 must be a whole number, got True"),
    "prekopa_fractional_n0": (lambda: prekopa_check(builtin_field("gaussian_cross_spd"), [0.1],
                                                    1.5, _gh(1)),
                              InputError, "n0 must be a whole number, got 1.5"),
    "flat_vector_of_fractional_d": (lambda: ColumnBlockMatrix.from_flat([1.0, 2.0], 2.5),
                                    InputError, "d must be a whole number >= 1, got 2.5"),
    **{f"tol_psd_{what}": (lambda value=value: nakano_check(
                               _curvature("raufi_corrected", {"s": 0.75}, 2), tol_psd=value),
                           InputError, f"tol_psd must be a finite number, got {value!r}")
       for what, value in (("string", "a"), ("complex", 1j))},
    **{f"fd_step_{what}": (lambda value=value: MatrixField(1, 1, [], [], h=value), InputError,
                           f"the finite-difference step h (--h) must be finite and > 0, got "
                           f"{value!r}")
       for what, value in (("string", "a"), ("complex", 1j))},
    **{f"builtin_s_{what}": (lambda value=value: builtin_field("raufi_corrected", {"s": value}),
                             InputError, f"s must be a finite number, got {value!r}")
       for what, value in (("string", "a"), ("complex", 1j), ("boolean", True))},
    "vector_field_fractional_shape": (lambda: VectorFieldFn(2.5, 1.9, lambda x: x), InputError,
                                      "n must be a whole number >= 1, got 2.5"),
    # cut to the real part with only a ComplexWarning
    "numpy_complex_q_coefficient": (lambda: MatrixField(1, 1, [(np.complex128(2 + 1j), (1,))],
                                                        [((0,), np.eye(1))]),
                                    InputError, "field q term (np.complex128(2+1j), (1,)) is not "
                                    "a (coeff, degs) pair with a real coefficient"),
    "complex_p_coefficient": (lambda: MatrixField(1, 2, [], [((0,), np.eye(2) * (1 + 1j))]),
                              InputError, "field P term ((0,), array([[1.+1.j, 0.+0.j],"),
    "numpy_complex_test_function_coefficient": (lambda: VectorFieldFn.polynomial(
                                                    1, [[(np.complex128(2 + 1j), (1,))]]),
                                                InputError, "test function component 0: the "
                                                "coefficient must be a finite number, got "
                                                "np.complex128(2+1j)"),
    "complex_point": (lambda: builtin_field("raufi_corrected").value([1j, 0.0]), InputError,
                      "x must be real, got [1j, 0.0]"),
    # the fiber pass named R^2, the field's n, although t has one coordinate
    "prekopa_nan_t": (lambda: prekopa_check(builtin_field("gaussian_cross_spd"), [np.nan], 1,
                                            _gh(1)),
                      InputError, "t must be finite, got array([nan])"),
    "restriction_that_overflows": (lambda: restrict_field(
                                       builtin_field("perturbed_gaussian_spd"), [1e200]),
                                   InputError, "perturbed_gaussian_spd at t = [1e+200]: field "
                                   "coefficients must be finite"),
}


#: name -> (call, message): a term that is not a pair with a real coefficient, named
#: with its component (or q or P); before, each raised a raw ValueError or TypeError
MALFORMED_TERMS = {
    "string_test_function_coefficient": (lambda: VectorFieldFn.polynomial(1, [[("x", (1,))]]),
                                         "test function component 0: the coefficient must be a "
                                         "finite number, got 'x'"),
    "complex_test_function_coefficient": (lambda: VectorFieldFn.polynomial(
                                              1, [[(1.0, (0,))], [(1j, (1,))]]),
                                          "test function component 1: the coefficient must be a "
                                          "finite number, got 1j"),
    "none_test_function_coefficient": (lambda: VectorFieldFn.polynomial(1, [[(None, (1,))]]),
                                       "test function component 0: the coefficient must be a "
                                       "finite number, got None"),
    "array_test_function_coefficient": (lambda: VectorFieldFn.polynomial(
                                            1, [[(np.array([2.0]), (1,))]]),
                                        "test function component 0: the coefficient must be a "
                                        "finite number, got array([2.])"),
    "test_function_term_not_a_pair": (lambda: VectorFieldFn.polynomial(1, [[(1.0,)]]),
                                      "test function component 0: term (1.0,) is not a "
                                      "(coeff, degs) pair with a real coefficient"),
    "string_q_coefficient": (lambda: MatrixField(1, 2, [("x", (2,))], [((0,), np.eye(2))]),
                             "field q term ('x', (2,)) is not a (coeff, degs) pair"),
    "string_p_coefficient": (lambda: MatrixField(1, 2, [], [((0,), "eye")]),
                             "field P term ((0,), 'eye') is not a (degs, matrix) pair"),
    "q_term_not_a_pair": (lambda: MatrixField(1, 2, [(1.0,)], [((0,), np.eye(2))]),
                          "field q term (1.0,) is not a (coeff, degs) pair"),
    "p_term_not_a_pair": (lambda: MatrixField(1, 2, [], [((0,),)]),
                          "field P term ((0,),) is not a (degs, matrix) pair"),
    "complex_q_coefficient": (lambda: MatrixField(1, 2, [(1j, (2,))], [((0,), np.eye(2))]),
                              "field q term (1j, (2,)) is not a (coeff, degs) pair with a "
                              "real coefficient"),
    # the first bad term is the error, as for the other checks of a term
    "nan_before_a_malformed_term": (lambda: MatrixField(1, 1, [(np.nan, (0,)), ("x", (1,))],
                                                        []),
                                    "field coefficients must be finite"),
    "malformed_term_before_a_nan": (lambda: MatrixField(1, 1, [], [((0,),), ((1,), [[np.nan]])]),
                                    "field P term ((0,),) is not a (degs, matrix) pair"),
    "malformed_term_before_a_bad_degree": (lambda: VectorFieldFn.polynomial(
                                               1, [[(1.0, (-1,))], [(1.0,)]]),
                                           "monomial of degrees (-1,)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TERMS))
def test_a_malformed_term_is_an_input_error(case):
    call, message = MALFORMED_TERMS[case]
    with pytest.raises(InputError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("case", sorted(LIBRARY_ERRORS))
def test_library_error(case):
    call, error, message = LIBRARY_ERRORS[case]
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_integral_float_rule_sizes_are_whole_numbers():
    for kind, whole, integral in (("gauss_hermite", {"order": 64, "m": 2}, {"order": 64.0,
                                                                            "m": np.float64(2)}),
                                  ("uniform_grid", {"box": [(0, 1)], "resolution": 3},
                                   {"box": [(0, 1)], "resolution": 3.0})):
        a, b = build_rule(kind, **whole), build_rule(kind, **integral)
        assert a.nodes.tobytes() == b.nodes.tobytes() and a.weights.tobytes() == b.weights.tobytes()


GH64 = build_rule("gauss_hermite", order=64, m=1)

#: check -> (call at a tolerance, the tolerance's name)
TOLERANCE_CHECKS = {
    "nakano_check": (lambda tol: nakano_check(_curvature("raufi_corrected", {"s": 0.75}, 2),
                                              tol_psd=tol), "tol_psd"),
    "griffiths_check": (lambda tol: griffiths_check(_curvature("raufi_corrected", {"s": 0.75}, 2),
                                                    tol_psd=tol), "tol_psd"),
    "schur_check": (lambda tol: schur_check(_curvature("raufi_corrected", {"s": 0.75}, 2), 1,
                                            tol_gap=tol), "tol_gap"),
    "prekopa_check": (lambda tol: prekopa_check(builtin_field("double_well_scalar"), [0.0], 1,
                                                _gh(1), tol_psd=tol), "tol_psd"),
    "ipp_residual": (lambda tol: ipp_residual(builtin_field("gaussian_scalar"),
                                              VectorFieldFn.polynomial(1, [[(1.0, (2,))]]),
                                              VectorFieldFn.polynomial(1, [[(1.0, (1,))]]),
                                              GH64, tol_res=tol), "tol_res"),
    "bochner_residual": (lambda tol: bochner_residual(builtin_field("gaussian_scalar"),
                                                      VectorFieldFn.polynomial(1, [[(1.0, (2,))]]),
                                                      GH64, tol_res=tol), "tol_res"),
}


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("check", sorted(TOLERANCE_CHECKS))
def test_a_tolerance_that_is_not_finite(check, tol):
    # the CLI names the flag; in the library an infinite tol_psd passed prekopa_check,
    # where the default gives degenerate, and a NaN one made the pointwise checks fail
    call, key = TOLERANCE_CHECKS[check]
    call(1e-6)
    with pytest.raises(InputError, match=re.escape(f"{key} must be a finite number, got {tol!r}")):
        call(tol)


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
                    f"x must be a point in R^2 or a nonempty stack of them, got shape {shape}")):
                getattr(f, method)(x)


@pytest.mark.filterwarnings("ignore:outermost quadrature node")
class TestIntegralFloatsAreWholeNumbers:
    """The one whole-number rule: 2.0 is 2 wherever a whole number is read, with the report
    of the int; these were a TypeError or an InputError before."""

    CM = _curvature("gaussian_times_spd", {"n": 3, "d": 2}, 3)

    def test_the_rank_one_search(self):
        assert griffiths_min_gap(self.CM, n_starts=32.0, max_iter=200.0, seed=np.float64(3)) \
            == griffiths_min_gap(self.CM, n_starts=32, max_iter=200, seed=3)

    def test_a_polynomial_test_function(self):
        x = np.linspace(-1.0, 1.0, 6).reshape(3, 2)
        whole, integral = (VectorFieldFn.polynomial(n, [[(1.0, (2, 1))]]) for n in (2, 2.0))
        assert integral.n == 2 and integral.grad(x).tobytes() == whole.grad(x).tobytes()

    def test_a_matrix_field(self):
        terms = ([(0.5, (2, 0)), (0.5, (0, 2))], [((0, 0), np.eye(2))])
        x = np.array([0.3, -0.2])
        whole, integral = MatrixField(2, 2, *terms), MatrixField(2.0, np.float64(2), *terms)
        assert (integral.n, integral.d) == (2, 2) and type(integral.n) is int
        assert integral.jet(x).d2.tobytes() == whole.jet(x).d2.tobytes()

    def test_n0(self):
        cm = _curvature("raufi_corrected", {"s": 0.75}, 2)
        assert schur_check(cm, 1.0) == schur_check(cm, 1)
        field, rule = builtin_field("gaussian_cross_spd"), _gh(1)
        assert prekopa_check(field, [0.1], 1.0, rule) == prekopa_check(field, [0.1], 1, rule)

    def test_a_flat_vector(self):
        v = [1.0, 2.0, 3.0, 4.0]
        integral, whole = (ColumnBlockMatrix.from_flat(v, d) for d in (2.0, 2))
        assert integral.n == 2 and integral.flatten().tobytes() == whole.flatten().tobytes()


#: Values that no whole number, real or point is: a bool, a string, bytes, None, complex
#: numbers, values that are not finite, a fraction, a negative number and nested lists.
MALFORMED = [True, np.bool_(False), "2", b"2", None, 1j, np.complex128(1 + 1j), np.nan,
             np.inf, -np.inf, 2.5, -1, [[1.0, 2.0]], [[True]], [1j, 0.0], [[1.0], [2.0, 3.0]]]


def _malformed_calls():
    """name -> a call that puts one value where a public entry point reads one input."""
    cm = _curvature("raufi_corrected", {"s": 0.75}, 2)
    cm3 = _curvature("gaussian_times_spd", {"n": 3, "d": 2}, 3)
    g1, gh = builtin_field("gaussian_scalar"), build_rule("gauss_hermite", order=64, m=1)
    cross, gh48 = builtin_field("gaussian_cross_spd"), build_rule("gauss_hermite", order=48, m=1)
    y, y2 = (VectorFieldFn.polynomial(1, [[(1.0, (k,))]]) for k in (1, 2))
    json = {"n": 1, "d": 1, "q": [[0.5, [2]]], "entries": {"1,1": [[1.0, [0]]]}}
    return {
        "MatrixField n": lambda v: MatrixField(v, 1, [], []),
        "MatrixField d": lambda v: MatrixField(1, v, [], []),
        "MatrixField q coefficient": lambda v: MatrixField(1, 1, [(v, (2,))], []),
        "MatrixField P coefficient": lambda v: MatrixField(1, 1, [], [((0,), v)]),
        "MatrixField degree": lambda v: MatrixField(1, 1, [(1.0, (v,))], []),
        "MatrixField h": lambda v: MatrixField(1, 1, [], [], jet_mode="finite_difference", h=v),
        "field value": lambda v: g1.value(v),
        "field jet": lambda v: g1.jet(v),
        "builtin s": lambda v: builtin_field("raufi_corrected", {"s": v}),
        "builtin n": lambda v: builtin_field("gaussian_scalar", {"n": v}),
        "builtin d": lambda v: builtin_field("gaussian_times_spd", {"d": v}),
        "builtin A": lambda v: builtin_field("gaussian_times_spd", {"A": v}),
        "builtin a12": lambda v: builtin_field("gaussian_cross_spd", {"a12": v}),
        "field JSON n": lambda v: polynomial_field_from_json({**json, "n": v}),
        "field JSON d": lambda v: polynomial_field_from_json({**json, "d": v}),
        "field JSON q coefficient": lambda v: polynomial_field_from_json({**json, "q": [[v, [2]]]}),
        "field JSON entry coefficient": lambda v: polynomial_field_from_json(
            {**json, "entries": {"1,1": [[v, [0]]]}}),
        "field JSON degree": lambda v: polynomial_field_from_json({**json, "q": [[0.5, [v]]]}),
        "VectorFieldFn n": lambda v: VectorFieldFn(v, 1, lambda x: x),
        "VectorFieldFn d": lambda v: VectorFieldFn(1, v, lambda x: x),
        "VectorFieldFn point": lambda v: y.value(v),
        "polynomial n": lambda v: VectorFieldFn.polynomial(v, [[(1.0, (1,))]]),
        "polynomial coefficient": lambda v: VectorFieldFn.polynomial(1, [[(v, (1,))]]),
        "polynomial degree": lambda v: VectorFieldFn.polynomial(1, [[(1.0, (v,))]]),
        "rule order": lambda v: build_rule("gauss_hermite", order=v),
        "rule m": lambda v: build_rule("gauss_hermite", order=4, m=v),
        "rule center": lambda v: build_rule("gauss_hermite", order=4, center=v),
        "rule scale": lambda v: build_rule("gauss_hermite", order=4, scale=v),
        "grid box": lambda v: build_rule("uniform_grid", box=v, resolution=3),
        "grid box end": lambda v: build_rule("uniform_grid", box=[(0.0, v)], resolution=3),
        "grid resolution": lambda v: build_rule("uniform_grid", box=[(0.0, 1.0)], resolution=v),
        "from_flat v": lambda v: ColumnBlockMatrix.from_flat(v, 1),
        "from_flat d": lambda v: ColumnBlockMatrix.from_flat([1.0, 2.0], v),
        "rank-one n_starts": lambda v: griffiths_min_gap(cm3, n_starts=v),
        "rank-one max_iter": lambda v: griffiths_min_gap(cm3, max_iter=v),
        "rank-one seed": lambda v: griffiths_min_gap(cm3, seed=v),
        "nakano_check tol_psd": lambda v: nakano_check(cm, tol_psd=v),
        "griffiths_check n_starts": lambda v: griffiths_check(cm, n_starts=v),
        "griffiths_check seed": lambda v: griffiths_check(cm, seed=v),
        "griffiths_check tol_psd": lambda v: griffiths_check(cm, tol_psd=v),
        "schur_check n0": lambda v: schur_check(cm, v),
        "schur_check tol_gap": lambda v: schur_check(cm, 1, tol_gap=v),
        "bl_gap rel_null_tol": lambda v: bl_gap(g1, y, gh, rel_null_tol=v),
        "ipp_residual tol_res": lambda v: ipp_residual(g1, y2, y, gh, tol_res=v),
        "bochner_residual tol_res": lambda v: bochner_residual(g1, y2, gh, tol_res=v),
        "prekopa_check t": lambda v: prekopa_check(cross, v, 1, gh48),
        "prekopa_check n0": lambda v: prekopa_check(cross, [0.1], v, gh48),
        "prekopa_check h": lambda v: prekopa_check(cross, [0.1], 1, gh48, h=v),
        "prekopa_check tol_psd": lambda v: prekopa_check(cross, [0.1], 1, gh48, tol_psd=v),
    }


MALFORMED_CALLS = _malformed_calls()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(entry=st.sampled_from(sorted(MALFORMED_CALLS)),
       value=st.recursive(st.sampled_from(MALFORMED), lambda inner: st.lists(inner, min_size=1,
                                                                             max_size=2),
                          max_leaves=3))
def test_a_malformed_input_is_an_input_error(entry, value):
    """Where a value is not what the input takes, only an InputError or a BudgetError
    comes out, with no warning; where it is (-1 as a tolerance, say), the call returns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            MALFORMED_CALLS[entry](value)
        except (InputError, BudgetError):
            pass
