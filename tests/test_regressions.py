"""Regression tests: tolerances applied as passed, field-JSON envelopes, removed flags,
the Prekopa Schur margin over all fibers, and warnings and settings in the report."""

import json

import numpy as np
import pytest

from mlcc import CurvatureMatrix, SpdMatrix, build_rule, builtin_field, prekopa_check
from mlcc.cli import run
from mlcc.inequalities import _schur_margin


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
