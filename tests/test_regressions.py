"""Regression tests: tolerances applied as passed, field-JSON envelopes, removed flags,
the Prekopa Schur margin over all fibers, warnings and settings in the report, the
node named by an SPD failure, the node order of tensor rules, rules with no
variables, the scan's jet settings, underflowing envelopes and the shared CLI parser."""

import json
from itertools import product

import numpy as np
import pytest

from mlcc import (
    CurvatureMatrix,
    DirichletEvaluator,
    InputError,
    SpdMatrix,
    VectorFieldFn,
    bl_gap,
    build_rule,
    builtin_field,
    prekopa_check,
)
from mlcc.cli import _make_parser, run
from mlcc.fields import MatrixField
from mlcc.inequalities import _schur_margin
from mlcc.quadrature import _gauss_hermite_axis


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

    @pytest.mark.parametrize("name,params,margin", [
        ("gaussian_scalar", {"n": 2}, 1.0),
        ("gaussian_times_spd", {"n": 2, "A": np.diag([1.0, 2.0])}, 2.0),
    ])
    def test_separable_gaussians(self, name, params, margin):
        report = prekopa_check(builtin_field(name, params), [0.1], 1,
                               build_rule("gauss_hermite", order=48, m=1))
        assert report.passed
        assert report.metrics["schur_margin"] == pytest.approx(margin, abs=1e-10)


    def test_null_direction_of_theta11_is_minus_inf(self):
        # Theta_01 V0 has a component along the null direction of Theta_11
        theta = np.array([[-1.0, 0.1], [0.1, 0.0]])
        cm = CurvatureMatrix(d=1, n=2, theta_tilde=theta, g=SpdMatrix(np.eye(1)), asymmetry=0.0)
        assert _schur_margin(cm, 1) == -np.inf


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
    @pytest.mark.parametrize("argv", [
        ["--field", "gaussian_times_spd", "--t", "0.1", "--n0", "1", "--order", "32"],
        ["--field", "gaussian_scalar", "--param", "n=2", "--t", "0.1", "--n0", "2",
         "--order", "8"],
    ])
    def test_prekopa_with_n0_at_least_n_is_a_config_error(self, capsys, argv):
        assert run(["prekopa", *argv]) == 2
        err = capsys.readouterr().err
        assert err == "error: a rule integrates over m >= 1 variables, got m = 0\n"

    @pytest.mark.parametrize("params", [
        {"kind": "gauss_hermite", "order": 8, "m": 0},
        {"kind": "gauss_hermite", "order": 8, "m": -1},
        {"kind": "uniform_grid", "box": [], "resolution": 8},
    ])
    def test_build_rule_rejects_m_below_one(self, params):
        with pytest.raises(InputError, match="m >= 1"):
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
        assert config["param"] == ["s=0.75"] and config["seed"] == 0
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
