"""Regression tests: tolerances applied as passed, field-JSON envelopes, removed flags,
the Prekopa Schur margin over all fibers, warnings and settings in the report, the
node named by an SPD failure, the node order of tensor rules, rules with no
variables, the scan's jet settings, underflowing envelopes, the shared CLI parser, the
budgets and seeds of the rank-one search and the scan, the shape of a report config,
finite-difference steps, unknown builtin parameters and the scan's error messages, the
library settings no caller set, malformed matrices and field JSON, an unwritable --out,
the highest Gauss-Hermite order, the last value of a scan, non-finite tolerances and
V0, the scan's one spectrum, and no status from a NaN."""

import json
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest

import mlcc.cli
import mlcc.inequalities
from mlcc import (
    BudgetError,
    CurvatureMatrix,
    DirichletEvaluator,
    ExtendedReal,
    InputError,
    Jet2,
    SpdMatrix,
    VectorFieldFn,
    bl_gap,
    build_rule,
    builtin_field,
    curvature_matrix,
    dirichlet_energy,
    griffiths_min_gap,
    marginal_theta_fd,
    nakano_verdict,
    prekopa_check,
    schur_gap,
)
from mlcc.cli import _make_parser, run
from mlcc.curvature import NakanoVerdict
from mlcc.fields import BUILTIN_PARAMS, MatrixField, polynomial_field_from_json
from mlcc.quadrature import GH_MAX_ORDER, NODE_BUDGET, _gauss_hermite_axis, _hermgauss

from test_references import schur_margin_of


class TestPrekopaTolPsd:
    def test_fiber_gate_uses_the_passed_tolerance(self):
        # the double well's fibers have curvature up to 4 at t = 0; a gate of 10 admits them
        rule = build_rule("gauss_hermite", order=32, m=1)
        report = prekopa_check(builtin_field("double_well_scalar"), [0.0], 1, rule, tol_psd=10.0)
        assert report.status != "degenerate"
        assert report.tolerances["tol_psd"] == 10.0

    def test_cli_reports_the_tol_psd_flag(self, capsys):
        code = run(["prekopa", "--field", "gaussian_cross_spd", "--t", "0.1", "--n0", "1",
                    "--order", "32", "--tol-psd", "2.5e-7", "--no-timestamp"])
        assert code == 0
        check = json.loads(capsys.readouterr().out)["checks"][0]
        assert check["tolerances"]["tol_psd"] == 2.5e-7


def _write(tmp_path, spec):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestFieldJsonEnvelope:
    def test_q_matches_the_builtin_gaussian(self, tmp_path, capsys):
        path = _write(tmp_path, {"n": 1, "d": 1, "q": [[0.5, [2]]],
                                 "entries": {"1,1": [[1.0, [0]]]}})
        assert run(["nakano", "--field-json", path, "--point", "0", "--no-timestamp"]) == 0
        metrics = json.loads(capsys.readouterr().out)["checks"][0]["metrics"]
        assert metrics["lambda_max"] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("q", [[[0.5, [2, 0]]], [[0.5]], [["half", [2]]], 3])
    def test_malformed_q_is_a_config_error(self, tmp_path, capsys, q):
        path = _write(tmp_path, {"n": 1, "d": 1, "q": q, "entries": {"1,1": [[1.0, [0]]]}})
        assert run(["nakano", "--field-json", path, "--point", "0"]) == 2
        assert "error:" in capsys.readouterr().err


def test_bl_dim_flag_is_gone(capsys):
    code = run(["bl", "--field", "gaussian_scalar", "--test-fn", "poly:y", "--dim", "1"])
    assert code == 2


class TestPrekopaSchurMargin:
    # the margin is normalized by id_n0 (x) g, so fibers far in the tail count
    # like the bulk; the closed forms hold at every fiber node
    @pytest.mark.parametrize("c", [0.5, 0.6])
    def test_cross_gaussian(self, c):
        field = builtin_field("gaussian_cross_spd", {"c": c, "d": 2})
        report = prekopa_check(field, [0.2], 1, build_rule("gauss_hermite", order=48, m=1))
        assert report.passed
        assert report.metrics["schur_margin"] == pytest.approx(2.0 - c * c / 2.0, abs=1e-10)
        assert report.metrics["schur_route_diff"] <= 1e-12

    @pytest.mark.parametrize("name,params,margin", [
        ("gaussian_scalar", {"n": 2}, 1.0),
        ("gaussian_times_spd", {"n": 2, "A": np.diag([1.0, 2.0])}, 2.0),
    ])
    def test_separable_gaussians(self, name, params, margin):
        report = prekopa_check(builtin_field(name, params), [0.1], 1,
                               build_rule("gauss_hermite", order=48, m=1))
        assert report.passed
        assert report.metrics["schur_margin"] == pytest.approx(margin, abs=1e-10)
        assert report.metrics["schur_route_diff"] <= 1e-12


    def test_null_direction_of_theta11_is_minus_inf(self):
        # Theta_01 V0 has a component along the null direction of Theta_11
        theta = np.array([[-1.0, 0.1], [0.1, 0.0]])
        cm = CurvatureMatrix(d=1, n=2, theta_tilde=theta, g=SpdMatrix(np.eye(1)), asymmetry=0.0)
        assert schur_margin_of(cm, 1)[0] == -np.inf


def test_prekopa_n_v0_flag_is_gone(capsys):
    code = run(["prekopa", "--field", "gaussian_cross_spd", "--t", "0.1", "--n0", "1",
                "--order", "16", "--n-v0", "5"])
    assert code == 2


class TestReportObservability:
    def test_quadrature_tail_warning_goes_to_diagnostics(self, capsys):
        code = run(["prekopa", "--field", "gaussian_cross_spd", "--t", "0.1", "--n0", "1",
                    "--order", "16", "--no-timestamp"])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        diagnostics = json.loads(out)["diagnostics"]
        assert any("outermost quadrature node" in msg for msg in diagnostics)
        assert len(diagnostics) == len(set(diagnostics))

    def test_prekopa_settings_are_emitted(self, capsys):
        code = run(["prekopa", "--field", "gaussian_cross_spd", "--t", "0.1", "--n0", "1",
                    "--order", "32", "--no-timestamp"])
        assert code == 0
        settings = json.loads(capsys.readouterr().out)["checks"][0]["settings"]
        assert set(settings) == {"rule", "nodes", "h"}
        assert settings == {"rule": "gauss_hermite", "nodes": 32, "h": 1e-3}

    def test_every_check_carries_settings(self, capsys):
        assert run(["nakano", "--field", "raufi_corrected", "--param", "s=0.75",
                    "--point", "0,0", "--no-timestamp"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"][0]["settings"] == {}


class TestBlNullTolerance:
    # -Theta = diag(2, 2e-6): x2 is a null direction at rel_null_tol 1e-4, not at 1e-10
    FIELD = MatrixField(2, 1, [(1.0, (2, 0)), (1e-6, (0, 2))], [((0, 0), np.eye(1))])
    F = VectorFieldFn.polynomial(2, [[(1.0, (0, 1))]])

    def test_energy_takes_the_tolerance_per_call(self):
        ev = DirichletEvaluator(self.FIELD, build_rule("gauss_hermite", order=8, m=2))
        assert not ev.energy(self.F, 1e-10).is_infinite
        assert ev.energy(self.F, 1e-4).is_infinite

    @pytest.mark.parametrize("tol,status", [(1e-10, "pass"), (1e-4, "degenerate")])
    def test_bl_gap_applies_its_tolerance_with_an_evaluator(self, tol, status):
        rule = build_rule("gauss_hermite", order=8, m=2)
        ev = DirichletEvaluator(self.FIELD, rule)
        with_ev = bl_gap(self.FIELD, self.F, rule, rel_null_tol=tol, evaluator=ev)
        without = bl_gap(self.FIELD, self.F, rule, rel_null_tol=tol)
        assert with_ev.status == without.status == status
        assert with_ev.tolerances["rel_null_tol"] == without.tolerances["rel_null_tol"] == tol


def test_cli_names_the_node_off_the_spd_cone(capsys):
    code = run(["bl", "--field", "raufi_corrected", "--param", "s=0.75",
                "--test-fn", "poly:x1;x2", "--order", "8", "--no-timestamp"])
    err = capsys.readouterr().err
    assert code == 2
    # GH 8^2 starts at the corner (-2.93, -2.93), where g has eigenvalue 1 - 2.75 * 8.59
    assert "field raufi_corrected at x = [-2.930637 -2.930637]" in err
    assert "matrix 0 of 64 is not positive definite (min eigenvalue -2.262e+01)" in err


def _product_rule(axes):
    """Nodes and weights of the tensor rule as itertools.product lists them."""
    nodes = np.array(list(product(*[a[0] for a in axes])))
    weights = np.array([np.prod(ws) for ws in product(*[a[1] for a in axes])])
    return nodes, weights


class TestBuildRuleOrder:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_gauss_hermite_matches_the_product_formula(self, m):
        rule = build_rule("gauss_hermite", order=7, m=m, center=[0.1, -0.2, 0.3][:m],
                          scale=[1.0, 0.7, 1.3][:m])
        axes = [_gauss_hermite_axis(7, c, s) for c, s in zip([0.1, -0.2, 0.3], [1.0, 0.7, 1.3])]
        nodes, weights = _product_rule(axes[:m])
        np.testing.assert_array_equal(rule.nodes, nodes)
        np.testing.assert_array_equal(rule.weights, weights)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_uniform_grid_matches_the_product_formula(self, m):
        box = [(-1.0, 2.0), (-0.5, 0.5), (0.0, 3.0)][:m]
        rule = build_rule("uniform_grid", box=box, resolution=5)
        axes = []
        for lo, hi in box:
            w = np.full(5, (hi - lo) / 4)
            w[0] *= 0.5
            w[-1] *= 0.5
            axes.append((np.linspace(lo, hi, 5), w))
        nodes, weights = _product_rule(axes)
        np.testing.assert_array_equal(rule.nodes, nodes)
        np.testing.assert_array_equal(rule.weights, weights)


class TestRuleWithoutVariables:
    @pytest.mark.parametrize("argv,n", [
        (["--field", "gaussian_times_spd", "--t", "0.1", "--n0", "1", "--order", "32"], 1),
        (["--field", "gaussian_scalar", "--param", "n=2", "--t", "0.1", "--n0", "2",
          "--order", "8"], 2),
    ])
    def test_prekopa_with_n0_at_least_n_is_a_config_error(self, capsys, argv, n):
        assert run(["prekopa", *argv]) == 2
        err = capsys.readouterr().err
        assert err == f"error: n0 must satisfy 1 <= n0 < {n}, got {n}\n"

    @pytest.mark.parametrize("params,message", [
        ({"kind": "gauss_hermite", "order": 8, "m": 0}, "m must be a whole number >= 1, got 0"),
        ({"kind": "gauss_hermite", "order": 8, "m": -1}, "m must be a whole number >= 1, got -1"),
        ({"kind": "uniform_grid", "box": [], "resolution": 8},
         "box must be a list of (lo, hi) pairs, one per axis, got []"),
    ])
    def test_build_rule_rejects_m_below_one(self, params, message):
        with pytest.raises(InputError, match=re.escape(message)):
            build_rule(**params)


class TestScanSettings:
    ARGV = ["scan", "--field", "raufi_corrected", "--point", "0,0", "--param-range",
            "s=0:1:0.05", "--no-timestamp"]

    def _rows(self, tmp_path, *extra):
        path = tmp_path / "scan.csv"
        assert run([*self.ARGV, "--csv", str(path), *extra]) == 0
        return [line.split(",") for line in path.read_text().splitlines()[1:]]

    def test_fd_scan_flips_at_one_half(self, tmp_path):
        exact = self._rows(tmp_path)
        fd = self._rows(tmp_path, "--jet", "fd")
        assert [r[0] for r in fd] == [r[0] for r in exact]
        # fd lambda_max at s = 1/2 reads about -5e-8, inside tol_psd; at 0.45 it is 0.1
        assert [r[2] for r in fd] == ["false"] * 10 + ["true"] * 11
        assert float(fd[10][1]) != float(exact[10][1])  # the fd jet is in use
        assert abs(float(fd[9][1]) - 0.1) < 1e-6

    def test_jet_step_reaches_the_scan(self, tmp_path):
        fine = self._rows(tmp_path, "--jet", "fd")
        coarse = self._rows(tmp_path, "--jet", "fd", "--h", "1e-2", "--no-richardson")
        assert fine[3][1] != coarse[3][1]

    def test_field_json_is_a_config_error(self, tmp_path, capsys):
        path = _write(tmp_path, {"n": 2, "d": 1, "entries": {"1,1": [[1.0, [0, 0]]]}})
        assert run(["scan", "--field-json", path, "--point", "0,0",
                    "--param-range", "s=0:1:0.5"]) == 2
        err = capsys.readouterr().err
        assert "--field-json field has no named parameters (use --field)" in err
        assert "None" not in err


def test_underflowing_envelope_is_named(capsys):
    # e^{-q} is exactly 0 at the outer GH 20^2 nodes of the double well
    code = run(["bl", "--field", "double_well_scalar", "--test-fn", "poly:x1", "--order", "20"])
    err = capsys.readouterr().err
    assert code == 2
    assert "field double_well_scalar at x = [-5.387481 -5.387481]: the weight underflows" in err
    assert "lower --order or --scale" in err
    assert "not positive definite" not in err


@pytest.mark.parametrize("argv", [
    ["ipp", "--test-fn", "poly:x1", "--test-fn-g", "poly:x2", "--order", "20"],
    ["bochner", "--test-fn", "poly:x1", "--order", "20"],
    ["prekopa", "--n0", "1", "--t", "6", "--order", "5"],
])
def test_every_quadrature_underflow_names_the_rule_flags(capsys, argv):
    # the rule's nodes (for prekopa the fiber nodes (t, y_i)) reach where e^{-q} is 0
    code = run([argv[0], "--field", "double_well_scalar", *argv[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert "the weight underflows to 0" in err and "lower --order or --scale" in err
    assert ("--t" in err) == (argv[0] == "prekopa")


@pytest.mark.parametrize("argv,hint", [
    # the fiber pass: e^{-q} is 0 at every node (40, y_i), whatever the rule
    (["--field", "gaussian_cross_spd", "--t", "40"],
     "or another --t (every rule puts its fiber nodes (t, y_i) at this t)"),
    # route A: the fiber nodes at t = 1.5 pass the gate, the restriction at t + h underflows
    (["--field", "double_well_scalar", "--t", "1.5", "--marginal-h", "4"],
     "or another --t or a smaller --marginal-h (every rule puts route A's nodes (s, y_i) "
     "at s = t, t +- h/2 and t +- h)"),
])
def test_a_prekopa_underflow_names_t(capsys, argv, hint):
    code = run(["prekopa", "--n0", "1", "--order", "5", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "the weight underflows to 0" in err
    assert f"lower --order or --scale, {hint}" in err


@pytest.mark.parametrize("command", [["nakano"], ["griffiths"], ["schur", "--n0", "1"]])
def test_a_pointwise_underflow_names_no_rule_flag(capsys, command):
    # the pointwise commands take neither --order nor --scale, so the message stops at
    # the underflow; the quadrature commands add the rule hint (above)
    code = run([*command, "--field", "double_well_scalar", "--point", "6,5"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("error: field double_well_scalar at x = [6. 5.]: the weight underflows "
                   "to 0 (e^-q with q = 1250)\n")


def test_fiber_node_off_the_cone_is_a_config_error_after_a_gate_failure(tmp_path, capsys):
    # q = t^2 - y^4 fails the gate at the first GH 5 fiber node; P = y^2 - 0.01 leaves the
    # SPD cone at the middle one, y = 0, which the whole fiber stack now reaches
    path = _write(tmp_path, {"n": 2, "d": 1, "q": [[1.0, [2, 0]], [-1.0, [0, 4]]],
                             "entries": {"1,1": [[1.0, [0, 2]], [-0.01, [0, 0]]]}})
    code = run(["prekopa", "--field-json", path, "--t", "0.1", "--n0", "1", "--order", "5"])
    assert code == 2
    assert "matrix 2 of 5 is not positive definite" in capsys.readouterr().err


class TestSharedParser:
    CALLS = [
        ["griffiths", "--field", "raufi_corrected", "--param", "s=0.5", "--param", "a12=0.1",
         "--point", "0.01,0.02", "--seed", "5", "--n-starts", "8", "--no-timestamp"],
        ["nakano", "--field", "raufi_corrected", "--param", "s=0.75", "--point", "0,0",
         "--no-timestamp"],
        ["prekopa", "--field", "gaussian_cross_spd", "--param", "c=0.6", "--param", "d=2",
         "--t", "0.1", "--n0", "1", "--order", "16", "--no-timestamp"],
        ["nakano", "--field", "gaussian_scalar", "--point", "0.3", "--jet", "fd",
         "--no-timestamp"],
    ]

    def test_consecutive_runs_equal_fresh_parsers(self, capsys):
        fresh = []
        for argv in self.CALLS:
            _make_parser.cache_clear()
            fresh.append((run(argv), capsys.readouterr()))
        _make_parser.cache_clear()
        shared = [(run(argv), capsys.readouterr()) for argv in self.CALLS]
        assert _make_parser.cache_info().misses == 1
        assert shared == fresh
        config = json.loads(shared[1][1].out)["config"]
        assert config["param"] == ["s=0.75"] and "seed" not in config
        assert "n_starts" not in config
        assert "param" not in json.loads(shared[3][1].out)["config"]

    def test_report_shares_the_parser(self, tmp_path, capsys):
        cfg = tmp_path / "checks.json"
        cfg.write_text(json.dumps({"checks": [
            {"name": "nakano", "args": ["--field", "raufi_corrected", "--param", "s=0.75",
                                        "--point", "0,0"]},
            {"name": "nakano", "args": ["--field", "gaussian_scalar", "--point", "0.1"]},
        ]}))
        _make_parser.cache_clear()
        assert run(["report", "--config", str(cfg), "--no-timestamp"]) == 0
        assert _make_parser.cache_info().misses == 1
        assert len(json.loads(capsys.readouterr().out)["checks"]) == 2


def test_gauss_hermite_nodes_are_computed_once_and_read_only():
    x, w = _hermgauss(7)
    assert _hermgauss(7)[0] is x
    for a in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


class TestMalformedRanges:
    @pytest.mark.parametrize("box", ["1", "a,b", "0,1,2"])
    def test_malformed_box_is_a_config_error(self, capsys, box):
        code = run(["bl", "--field", "gaussian_scalar", "--test-fn", "poly:y",
                    "--rule", "uniform_grid", "--box", box])
        assert code == 2
        assert f"--box must be lo,hi, got {box!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("span", ["1:0:0.1", "0:1:0", "0:inf:0.1", "nan:1:0.1", "0:a:0.1",
                                      "0:1"])
    def test_malformed_scan_range_is_a_config_error(self, capsys, span):
        code = run(["scan", "--field", "raufi_corrected", "--point", "0,0",
                    "--param-range", f"s={span}"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ")


class TestReportEntries:
    @pytest.mark.parametrize("entry,index", [
        ({"name": "nakano", "args": ["--field", "raufi_corrected", "--bogus"]}, 1),
        ({"name": "nakano", "args": ["--field", "raufi_corrected"]}, 1),
        ({"name": "no_such_check", "args": []}, 1),
    ])
    def test_unparsable_entry_is_a_config_error(self, tmp_path, capsys, entry, index):
        cfg = tmp_path / "checks.json"
        good = {"name": "nakano", "args": ["--field", "gaussian_scalar", "--point", "0.1"]}
        cfg.write_text(json.dumps({"checks": [good, entry]}))
        assert run(["report", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: report entry {index} ({entry['name']!r}): its args do not parse" in err

    @pytest.mark.parametrize("args,reason", [
        (["--field", "raufi_corrected", "--bogus"], "the following arguments are required: --point"),
        (["--field", "raufi_corrected", "--point", "0,0", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["--field", "raufi_corrected", "--point", "0,0", "--tol-psd", "x"],
         "argument --tol-psd: invalid float value: 'x'"),
        (["--help"], "they ask for --help"),
    ])
    def test_an_unparsable_entry_prints_one_error_line(self, tmp_path, capsys, args, reason):
        """argparse's usage block is held back; its reason ends the one line."""
        cfg = tmp_path / "checks.json"
        cfg.write_text(json.dumps({"checks": [{"name": "nakano", "args": args}]}))
        assert run(["report", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: report entry 0 ('nakano'): its args do not parse: {reason}\n"

    def test_a_top_level_parse_error_keeps_the_usage(self, capsys):
        assert run(["nakano", "--field", "raufi_corrected", "--bogus"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: mlcc nakano")
        assert err.endswith("mlcc nakano: error: the following arguments are required: --point\n")

    @pytest.mark.parametrize("flag,extra", [
        ("--out", ["--out", "entry.json"]),
        ("--out", ["--ou", "entry.json"]),  # argparse's prefix match of --out
        ("--no-timestamp", ["--no-timestamp"]),
    ])
    def test_report_output_flags_in_an_entry_are_a_config_error(self, tmp_path, capsys,
                                                               monkeypatch, flag, extra):
        """--out and --no-timestamp belong to the report; an entry's parsed and was dropped."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "checks.json"
        good = {"name": "nakano", "args": ["--field", "gaussian_scalar", "--point", "0"]}
        entry = {"name": "nakano", "args": good["args"] + extra}
        cfg.write_text(json.dumps({"checks": [good, entry]}))
        assert run(["report", "--config", str(cfg), "--no-timestamp"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1 and len(err.splitlines()) == 1
        assert f"error: report entry 1 ('nakano'): {flag} is the report's own flag" in err
        assert not (tmp_path / "entry.json").exists()

    def test_report_inside_a_report_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "checks.json"
        cfg.write_text(json.dumps({"checks": [{"name": "report",
                                               "args": ["--config", str(cfg)]}]}))
        assert run(["report", "--config", str(cfg)]) == 2
        assert "error: report entry 0 is itself a report" in capsys.readouterr().err


GRIFFITHS_ARGV = ["griffiths", "--field", "raufi_corrected", "--param", "s=0.75",
                  "--point", "0,0"]


class TestGriffithsStartsAndSeed:
    @pytest.fixture
    def cm(self):
        return curvature_matrix(builtin_field("raufi_corrected", {"s": 0.75}), np.zeros(2))

    def test_starts_beyond_the_budget_allocate_nothing(self, cm):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=f"exceed the budget of {NODE_BUDGET}"):
                griffiths_min_gap(cm, n_starts=10**15)
            with pytest.raises(BudgetError):
                griffiths_min_gap(cm, n_starts=NODE_BUDGET + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5

    def test_negative_seed_is_an_input_error(self, cm):
        with pytest.raises(InputError, match="seed must be a whole number >= 0, got -1"):
            griffiths_min_gap(cm, seed=-1)

    @pytest.mark.parametrize("extra,code,message", [
        (["--n-starts", str(10**15)], 2, f"exceed the budget of {NODE_BUDGET}"),
        (["--n-starts", "4"], 2, "n_starts must be a whole number >= 8, got 4"),
        (["--seed", "-1"], 2, "got -1"),
    ])
    def test_cli_rejects_the_starts_and_seed(self, capsys, extra, code, message):
        assert run(GRIFFITHS_ARGV + extra) == code
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_negative_seed_from_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("MLCC_SEED", "-3")
        assert run(GRIFFITHS_ARGV) == 2
        out, err = capsys.readouterr()
        assert out == "" and "seed must be a whole number >= 0, got -3" in err


class TestScanBudget:
    @pytest.mark.parametrize("span,error", [
        ("0:1:1e-8", f"beyond the budget of {NODE_BUDGET}"),
        ("0:1:1e-320", "too many points to count"),
    ])
    def test_too_many_points_evaluate_none(self, capsys, monkeypatch, span, error):
        def no_field(*args, **kwargs):
            raise AssertionError("the scan evaluated a point")

        monkeypatch.setattr(mlcc.cli, "builtin_field", no_field)
        code = run(["scan", "--field", "raufi_corrected", "--point", "0,0",
                    "--param-range", f"s={span}"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert error in err


class TestReportConfigShape:
    @pytest.mark.parametrize("cfg,message", [
        ({"checks": ["nakano"]}, 'report entry 0 must be an object with a string "name"'),
        ({"checks": {"name": "nakano"}}, 'report config must be a JSON object whose "checks"'),
        ([1], 'report config must be a JSON object whose "checks" is a list'),
        ({"checks": [{"args": ["--point", "0"]}]},
         'report entry 0 must be an object with a string "name"'),
        ({"checks": [{"name": "nakano", "args": "--point 0"}]},
         'report entry 0 (\'nakano\'): "args" must be a list of strings'),
        ({"checks": [{"name": "nakano", "args": ["--point", 0]}]},
         'report entry 0 (\'nakano\'): "args" must be a list of strings'),
    ])
    def test_malformed_config_is_a_config_error(self, tmp_path, capsys, cfg, message):
        path = tmp_path / "checks.json"
        path.write_text(json.dumps(cfg))
        assert run(["report", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err


class TestFiniteDifferenceSteps:
    @pytest.mark.parametrize("h", ["0", "nan", "inf", "-1e-4"])
    def test_bad_jet_step_is_a_config_error(self, capsys, h):
        code = run(["nakano", "--field", "raufi_corrected", "--point", "0,0", "--jet", "fd",
                    f"--h={h}"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: the finite-difference step h (--h) must be finite and > 0")

    @pytest.mark.parametrize("h", ["0", "nan", "-1e-3"])
    def test_bad_marginal_step_is_a_config_error(self, capsys, monkeypatch, h):
        def no_curvature(*args, **kwargs):
            raise AssertionError("the check evaluated the field")

        monkeypatch.setattr(mlcc.inequalities, "curvature_matrix", no_curvature)
        code = run(["prekopa", "--field", "gaussian_cross_spd", "--t", "0.1", "--n0", "1",
                    "--order", "16", f"--marginal-h={h}"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: the marginal step h (--marginal-h) must be finite and > 0")

    def test_library_entry_points_check_the_step(self):
        with pytest.raises(InputError, match=r"step h \(--h\)"):
            builtin_field("raufi_corrected", jet_mode="finite_difference", h=0.0)
        field = builtin_field("gaussian_cross_spd")
        rule = build_rule("gauss_hermite", order=8, m=1)
        with pytest.raises(InputError, match=r"step h \(--marginal-h\)"):
            marginal_theta_fd(field, [0.1], rule, h=float("nan"))


class TestUnknownBuiltinParameters:
    def test_param_is_a_config_error(self, capsys):
        code = run(["nakano", "--field", "raufi_corrected", "--param", "foo=1", "--point", "0,0"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "builtin field raufi_corrected has no parameter 'foo' (it takes s)" in err

    def test_param_range_is_a_config_error(self, capsys):
        code = run(["scan", "--field", "raufi_corrected", "--point", "0,0",
                    "--param-range", "foo=0:1:0.5"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "has no parameter 'foo' (it takes s)" in err

    @pytest.mark.parametrize("name,params,takes", [
        ("gaussian_scalar", {"s": 1.0}, "n"),
        ("gaussian_times_spd", {"c": 1.0}, "n, d, A, a11, a12, ..."),
        ("perturbed_gaussian_spd", {"a12": 0.1}, "eps"),
        ("double_well_scalar", {"n": 2}, "none"),
    ])
    def test_each_builtin_names_what_it_takes(self, name, params, takes):
        with pytest.raises(InputError, match=re.escape(f"(it takes {takes})")):
            builtin_field(name, params)

    def test_matrix_entries_stay_valid_for_the_spd_envelopes(self):
        for name in ("gaussian_times_spd", "gaussian_cross_spd"):
            field = builtin_field(name, {"d": 2, "a12": 0.5})
            assert field.value(np.zeros(field.n))[0, 1] > 0.0

    @pytest.mark.parametrize("argv,message", [
        (["scan", "--field", "gaussian_times_spd", "--point", "0.1",
          "--param-range", "d=2:4:0.5"], "d must be a whole number >= 1, got 2.5"),
        (["nakano", "--field", "gaussian_scalar", "--param", "n=1.5", "--point", "0"],
         "n must be a whole number >= 1, got 1.5"),
        (["nakano", "--field", "gaussian_cross_spd", "--param", "d=-1", "--point", "0,0"],
         "d must be a whole number >= 1, got -1.0"),
    ])
    def test_a_bad_dimension_is_a_config_error(self, capsys, argv, message):
        code = run(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("n,d,key,value", [(1.5, 1, "n", "1.5"), (1, 2.5, "d", "2.5"),
                                               (1, "two", "d", "'two'"), (0, 1, "n", "0")])
    def test_field_json_dimensions_are_whole_numbers(self, n, d, key, value):
        spec = {"n": n, "d": d, "entries": {"1,1": [[1.0, [0]]]}}
        with pytest.raises(InputError, match=f"^{key} must be a whole number >= 1, got {value}$"):
            polynomial_field_from_json(spec)

    def test_the_polynomial_builtin_is_gone(self, capsys):
        assert "polynomial" not in BUILTIN_PARAMS
        with pytest.raises(InputError, match="unknown builtin field 'polynomial'"):
            builtin_field("polynomial", {"n": 1, "d": 1})
        assert run(["nakano", "--field", "polynomial", "--point", "0"]) == 2
        assert "invalid choice: 'polynomial'" in capsys.readouterr().err


class TestScanErrorsNameTheValue:
    @pytest.mark.parametrize("jet", ["exact", "fd"])
    def test_off_cone_member(self, capsys, jet):
        code = run(["scan", "--field", "raufi_corrected", "--point", "0.9,0.9",
                    "--param-range", "s=0:1:0.05", "--jet", jet])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("error: field raufi_corrected at s = 0, x = [0.9 0.9]: matrix is not "
                       "positive definite (min eigenvalue -6.200e-01)\n")

    @pytest.mark.parametrize("block", [1024, 4])
    def test_off_cone_member_inside_a_block(self, capsys, monkeypatch, block):
        # g = Id - (x1^2 + x2^2 ...) leaves the cone at (0.66, 0.66) once s > 0.2957
        monkeypatch.setattr(mlcc.cli, "SCAN_BLOCK", block)
        code = run(["scan", "--field", "raufi_corrected", "--point", "0.66,0.66",
                    "--param-range", "s=0:1:0.05"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: field raufi_corrected at s = 0.3, x = [0.66 0.66]: "
                              "matrix is not positive definite")

    @pytest.mark.parametrize("jet", ["exact", "fd"])
    def test_off_cone_matrix_entry_member(self, capsys, jet):
        # A = [[1, a12], [a12, 1]] is singular at a12 = 1
        code = run(["scan", "--field", "gaussian_times_spd", "--point", "0.1",
                    "--param-range", "a12=0:2:0.5", "--jet", jet])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: field gaussian_times_spd at a12 = 1, x = [0.1]: "
                              "matrix is not positive definite")

    def test_underflowing_member(self, capsys):
        code = run(["scan", "--field", "gaussian_cross_spd", "--point", "20,20",
                    "--param-range", "c=0:1:0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: field gaussian_cross_spd at c = 0, x = [20. 20.]: "
                              "the weight underflows to 0")

    def test_asymmetric_member(self, capsys, monkeypatch):
        jet = MatrixField.jet

        def skewed(self, x):
            # a d2 that is not symmetric in (j, k) at the member s = 0.1 only
            out = jet(self, x)
            d2 = np.array(out.d2)
            d2[2, 0, 1] += [[0.0, 1.0], [0.0, 0.0]]
            return Jet2(out.value, out.d1, d2)

        monkeypatch.setattr(MatrixField, "jet", skewed)
        code = run(["scan", "--field", "raufi_corrected", "--point", "0,0",
                    "--param-range", "s=0:1:0.05"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: field raufi_corrected at s = 0.1, x = [0. 0.]: curvature "
                              "matrix asymmetry")


class TestRemovedSettings:
    """The library settings no caller set are gone; their defaults are the values applied."""

    @pytest.mark.parametrize("fn,args,keyword", [
        (bl_gap, 3, "tol_gap"),
        (prekopa_check, 4, "tol_route"),
        (griffiths_min_gap, 1, "tol"),
        (schur_gap, 2, "rel_null_tol"),
        (dirichlet_energy, 3, "rel_null_tol"),
        (marginal_theta_fd, 3, "richardson"),
        (VectorFieldFn, 3, "grad"),
        (VectorFieldFn, 3, "hess"),
        (VectorFieldFn, 3, "fd_step"),
    ])
    def test_a_removed_keyword_is_a_type_error(self, fn, args, keyword):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            fn(*[None] * args, **{keyword: None})


class TestMalformedMatrixInput:
    @pytest.mark.parametrize("argv", [
        ["nakano", "--field", "gaussian_times_spd", "--param", "A=2", "--point", "0"],
        ["nakano", "--field", "gaussian_cross_spd", "--param", "A=2", "--point", "0,0"],
        ["scan", "--field", "gaussian_times_spd", "--point", "0", "--param-range", "A=0:1:0.5"],
    ])
    def test_a_scalar_A_is_a_config_error_naming_the_entries(self, capsys, argv):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: parameter 'A' must be a square matrix, got ")
        assert "a11, a12, ..." in err

    @pytest.mark.parametrize("spec,message", [
        ([1], "field JSON must be an object with keys n, d and entries, got list"),
        ({"n": 1, "d": 1, "entries": [1]}, "field key 'entries' must be an object keyed "
                                           '"i,j", got list'),
    ])
    def test_field_json_of_the_wrong_type_is_a_config_error(self, tmp_path, capsys, spec,
                                                            message):
        code = run(["nakano", "--field-json", _write(tmp_path, spec), "--point", "0"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err == f"error: {message}\n"


def test_an_unwritable_out_path_is_a_config_error(tmp_path, capsys):
    out_path = tmp_path / "missing" / "report.json"
    for flag in ("--out", "--csv"):
        argv = ["scan", "--field", "raufi_corrected", "--point", "0,0", "--param-range",
                "s=0:1:0.5", flag, str(out_path)]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: [Errno 2] No such file or directory")
        assert err.count("\n") == 1


class TestGaussHermiteOrderLimit:
    def test_the_highest_order_builds_with_finite_positive_weights(self):
        rule = build_rule("gauss_hermite", order=GH_MAX_ORDER, m=1)
        assert rule.count == GH_MAX_ORDER
        assert np.isfinite(rule.weights).all() and (rule.weights > 0).all()

    @pytest.mark.parametrize("order", [GH_MAX_ORDER + 1, 100000])
    def test_a_higher_order_is_rejected_before_any_node_is_computed(self, monkeypatch, capsys,
                                                                   order):
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss",
                            lambda n: pytest.fail(f"hermgauss({n}) was called"))
        with pytest.raises(InputError, match=rf"must lie in \[2, 370\], got {order}"):
            build_rule("gauss_hermite", order=order, m=1)
        assert run(["bl", "--field", "gaussian_scalar", "--test-fn", "poly:y",
                    "--order", str(order)]) == 2
        assert capsys.readouterr().err == ("error: gauss_hermite order must lie in "
                                           f"[2, 370], got {order}\n")


class TestScanEndpoint:
    """A scan counts whole steps: no value lies beyond stop by more than rounding."""

    @pytest.mark.parametrize("span,values", [
        ("0:1:0.6", [0.0, 0.6]),
        ("0:1:0.55", [0.0, 0.55]),
        ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.30000000000000004]),  # 2.9999999999999996 steps
        ("0.25:0.25:1", [0.25]),
        ("0:1:0.05", [0.05 * i for i in range(21)]),
    ])
    def test_values_stop_at_stop(self, tmp_path, span, values):
        path = tmp_path / "scan.csv"
        assert run(["scan", "--field", "raufi_corrected", "--point", "0,0", "--param-range",
                    f"s={span}", "--csv", str(path), "--no-timestamp"]) == 0
        got = [float(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
        assert got == values


class TestNonFiniteTolerances:
    """A tolerance flag that is not a finite number is a config error naming the flag:
    it was accepted, and --tol-psd=inf passed every Nakano verdict."""

    POINT = ["--field", "raufi_corrected", "--param", "s=0.2", "--point", "0,0"]
    RULE = ["--field", "gaussian_scalar", "--order", "8", "--test-fn", "poly:y"]
    CASES = [
        (["nakano", *POINT], "--tol-psd"),
        (["griffiths", *POINT, "--n-starts", "8"], "--tol-psd"),
        (["scan", "--field", "raufi_corrected", "--point", "0,0", "--param-range", "s=0:1:0.5"],
         "--tol-psd"),
        (["prekopa", "--field", "gaussian_cross_spd", "--t", "0.1", "--n0", "1", "--order", "8"],
         "--tol-psd"),
        (["schur", *POINT, "--n0", "1"], "--tol-gap"),
        (["bochner", *RULE], "--tol-res"),
        (["ipp", *RULE], "--tol-res"),
    ]

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("argv,flag", CASES, ids=[c[0][0] for c in CASES])
    def test_is_a_config_error_naming_the_flag(self, capsys, argv, flag, value):
        assert run(argv + [f"{flag}={value}", "--no-timestamp"]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == f"error: {flag} must be a finite number, got {float(value)!r}\n"

    @pytest.mark.parametrize("tol,code", [("0.7", 0), ("1e-9", 1)])
    def test_a_finite_tolerance_still_decides(self, capsys, tol, code):
        # lambda_max = 1 - 2s = 0.6 at the origin
        assert run(["nakano", *self.POINT, f"--tol-psd={tol}", "--no-timestamp"]) == code
        assert json.loads(capsys.readouterr().out)["checks"][0]["tolerances"] == {
            "tol_psd": float(tol)}

    def test_in_a_report_entry(self, tmp_path, capsys):
        cfg = tmp_path / "checks.json"
        cfg.write_text(json.dumps({"checks": [
            {"name": "nakano", "args": self.POINT},
            {"name": "bochner", "args": self.RULE + ["--tol-res=nan"]},
        ]}))
        assert run(["report", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert not out and err == "error: --tol-res must be a finite number, got nan\n"


class TestSchurV0:
    POINT = ["schur", "--field", "raufi_corrected", "--param", "s=0.75", "--point", "0,0",
             "--n0", "1", "--no-timestamp"]

    @pytest.mark.parametrize("v0", ["inf,0", "nan,0", "1,-inf"])
    def test_a_non_finite_v0_is_a_config_error(self, capsys, v0):
        assert run(self.POINT + ["--v0", v0]) == 2
        out, err = capsys.readouterr()
        assert not out and err == f"error: --v0 must be finite, got {v0!r}\n"

    def test_a_finite_v0_gives_the_worked_gap(self, capsys):
        assert run(self.POINT + ["--v0", "1,0"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"][0]["metrics"]["gap"] == \
            pytest.approx(5.0 / 6.0, abs=1e-12)


class TestScanReadsOneSpectrum:
    """The scan takes lambda_max and the verdict from the generalized spectrum alone,
    with the rows nakano_verdict gives."""

    @pytest.mark.parametrize("jet", ["exact", "fd"])
    def test_rows_equal_the_nakano_verdict(self, tmp_path, monkeypatch, capsys, jet):
        monkeypatch.setattr(mlcc.inequalities, "nakano_verdict",
                            lambda *a, **k: pytest.fail("the scan called nakano_verdict"))
        solves = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a.shape) or eigvalsh(a))
        path = tmp_path / "scan.csv"
        assert run(["scan", "--field", "raufi_corrected", "--point", "0.1,0.2", "--jet", jet,
                    "--param-range", "s=0:1:0.05", "--csv", str(path), "--no-timestamp"]) == 0
        # one block: the SPD check of g (of every stencil point with fd jets, the
        # centres among them) and the generalized spectrum, no standard spectrum
        assert len(solves) == 2
        values = 0.05 * np.arange(21)
        field = builtin_field("raufi_corrected", {"s": values},
                              **({"jet_mode": "finite_difference"} if jet == "fd" else {}))
        verdict = nakano_verdict(curvature_matrix(field, np.array([0.1, 0.2])), tol_psd=1e-9)
        rows = ["param,lambda_max,verdict"] + [
            f"{v!r},{lam!r},{str(ok).lower()}"
            for v, lam, ok in zip(values.tolist(), verdict.lambda_max, verdict.is_nlogconcave)]
        assert path.read_bytes().decode() == "\r\n".join(rows) + "\r\n"


class TestNoStatusFromNan:
    """A metric that is not a finite number gives no verdict: a rank-one maximum, a
    Nakano lambda_max, a Schur gap and a residual are degenerate, exit 3, not pass or
    fail."""

    @pytest.mark.parametrize("value", [-np.inf, np.inf, np.nan])
    def test_griffiths(self, capsys, monkeypatch, value):
        # -inf is what griffiths_min_gap returns when every start was NaN
        monkeypatch.setattr(mlcc.inequalities, "griffiths_min_gap", lambda *a, **k: value)
        assert run(GRIFFITHS_ARGV + ["--no-timestamp"]) == 3
        check = json.loads(capsys.readouterr().out)["checks"][0]
        assert check["status"] == "degenerate"
        assert check["metrics"]["rank_one_max"] == str(value)

    @pytest.mark.parametrize("value", [-np.inf, np.inf, np.nan])
    def test_nakano(self, capsys, monkeypatch, value):
        # lambda_max <= tol_psd alone would call -inf a pass and NaN and inf a fail
        monkeypatch.setattr(mlcc.inequalities, "nakano_verdict",
                            lambda *a, **k: NakanoVerdict(value, value <= 1e-9, value))
        assert run(["nakano", *GRIFFITHS_ARGV[1:], "--no-timestamp"]) == 3
        check = json.loads(capsys.readouterr().out)["checks"][0]
        assert check["status"] == "degenerate"
        assert check["metrics"]["lambda_max"] == str(value)

    def test_schur(self, capsys, monkeypatch):
        monkeypatch.setattr(mlcc.inequalities, "schur_gap",
                            lambda *a, **k: ExtendedReal(np.nan))
        assert run(["schur", *GRIFFITHS_ARGV[1:], "--n0", "1", "--no-timestamp"]) == 3
        check = json.loads(capsys.readouterr().out)["checks"][0]
        assert check["status"] == "degenerate" and check["metrics"]["gap"] == "nan"

    @pytest.mark.parametrize("command", ["ipp", "bochner"])
    def test_an_overflowing_test_function(self, capsys, command):
        # y^400 and its derivatives overflow at the outer GH 64 nodes: the sums are NaN
        assert run([command, "--field", "gaussian_scalar", "--test-fn", "poly:y^400",
                    "--order", "64", "--no-timestamp"]) == 3
        check = json.loads(capsys.readouterr().out)["checks"][0]
        assert check["status"] == "degenerate" and check["metrics"]["residual"] == "nan"

    def test_an_overflowing_exact_jet_names_its_point(self):
        field = builtin_field("gaussian_cross_spd", {"a11": 1e308, "a22": 1e308})
        x = np.array([[0.0, 0.0], [0.5, -0.25]])
        with pytest.raises(InputError, match=re.escape(
                "field gaussian_cross_spd at x = [0. 0.]: the jet has derivatives that are "
                "not finite")):
            field.jet(x)
