"""Regression tests: tolerances applied as passed, field-JSON envelopes, removed flags."""

import json

import pytest

from mlcc import build_rule, builtin_field, prekopa_check
from mlcc.cli import run


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
