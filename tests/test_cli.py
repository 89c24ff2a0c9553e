import csv
import json

import pytest

from mlcc.cli import run


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path, capsys):
        code = run(
            [
                "nakano",
                "--field",
                "raufi_corrected",
                "--param",
                "s=0.75",
                "--point",
                "0,0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"][0]["status"] == "pass"
        assert payload["checks"][0]["metrics"]["lambda_max"] == pytest.approx(-0.5)

    def test_fail_is_one(self, capsys):
        code = run(
            [
                "nakano",
                "--field",
                "raufi_corrected",
                "--param",
                "s=0.4",
                "--point",
                "0,0",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"][0]["status"] == "fail"

    def test_config_error_is_two(self, capsys):
        code = run(["nakano", "--field", "no_such_field", "--point", "0,0"])
        assert code == 2

    def test_malformed_point_is_two(self, capsys):
        code = run(
            ["nakano", "--field", "gaussian_scalar", "--point", "zero,zero"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_degenerate_is_three(self, capsys):
        code = run(
            [
                "prekopa",
                "--field",
                "double_well_scalar",
                "--t",
                "0",
                "--n0",
                "1",
                "--order",
                "32",
            ]
        )
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"][0]["status"] == "degenerate"

    def test_stderr_diagnostic_is_single_line(self, capsys):
        run(["nakano", "--field", "gaussian_scalar", "--point", "bad point"])
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err


class TestOutputFormat:
    def test_byte_determinism(self, tmp_path, capsys):
        argv = [
            "bl",
            "--field",
            "gaussian_scalar",
            "--test-fn",
            "poly:y^2",
            "--order",
            "48",
            "--no-timestamp",
        ]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_infinity_serialized_as_string(self, tmp_path):
        out = tmp_path / "bl.json"
        code = run(
            [
                "bl",
                "--field-json",
                str(_write_degenerate_field(tmp_path)),
                "--test-fn",
                "poly:x2",
                "--rule",
                "uniform_grid",
                "--box=-4,4",
                "--resolution",
                "33",
                "--no-timestamp",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        payload = read_json(out)
        assert payload["checks"][0]["metrics"]["gap"] == "inf"

    def test_floats_print_in_shortest_round_trip_form(self, capsys):
        run(["nakano", "--field", "raufi_corrected", "--param", "s=0.75", "--point", "0,0",
             "--no-timestamp"])
        out = capsys.readouterr().out
        assert '"tol_psd": 1e-09\n' in out and '"asymmetry": 0.0\n' in out
        assert json.loads(out)["checks"][0]["tolerances"]["tol_psd"] == 1e-9

    def test_config_echo_reflects_seed_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MLCC_SEED", "99")
        code = run(
            [
                "griffiths",
                "--field",
                "gaussian_scalar",
                "--param",
                "n=2",
                "--point",
                "0,0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["seed"] == 99

    def test_printed_variant_emits_diagnostic(self, capsys):
        run(["nakano", "--field", "raufi_printed", "--param", "s=0.75",
             "--point", "0,0"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"]


class TestScan:
    def test_csv_schema_and_flip(self, tmp_path, capsys):
        csv_path = tmp_path / "scan.csv"
        code = run(
            [
                "scan",
                "--field",
                "raufi_corrected",
                "--point",
                "0,0",
                "--param-range",
                "s=0:1:0.05",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["param", "lambda_max", "verdict"]
        assert len(rows) == 22
        verdicts = [r[2] for r in rows[1:]]
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
        assert flips == 1
        by_param = {float(r[0]): r for r in rows[1:]}
        assert by_param[0.5][2] == "true"
        assert abs(float(by_param[0.5][1])) <= 1e-9
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"][0]["metrics"]["verdict_flips"] == 1


class TestFieldJson:
    def test_polynomial_field_from_file(self, tmp_path, capsys):
        spec = {
            "n": 1,
            "d": 2,
            "entries": {
                "1,1": [[2.0, [0]], [1.0, [2]]],
                "1,2": [[0.2, [1]]],
                "2,2": [[1.0, [0]]],
            },
        }
        path = tmp_path / "field.json"
        path.write_text(json.dumps(spec))
        code = run(
            ["nakano", "--field-json", str(path), "--point", "0.1"]
        )
        assert code in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        assert "lambda_max" in payload["checks"][0]["metrics"]

    def test_missing_file_is_config_error(self, capsys):
        code = run(["nakano", "--field-json", "/nonexistent.json", "--point", "0"])
        assert code == 2


class TestReportBatch:
    def test_batch_config(self, tmp_path, capsys):
        config = {
            "checks": [
                {
                    "name": "nakano",
                    "args": [
                        "--field", "raufi_corrected", "--param", "s=0.75",
                        "--point", "0,0",
                    ],
                },
                {
                    "name": "bl",
                    "args": [
                        "--field", "gaussian_scalar", "--test-fn", "poly:y",
                        "--order", "48",
                    ],
                },
            ]
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(config))
        code = run(["report", "--config", str(path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["checks"]) == 2
        assert all(c["status"] == "pass" for c in payload["checks"])


class TestFlagSurface:
    """Each subcommand takes the flags it reads: rule flags only where a rule is built,
    --tol-psd only where a PSD gate runs, and report no field at all."""

    POINT = ["--field", "raufi_corrected", "--param", "s=0.75", "--point", "0,0"]
    RULE_FN = ["--field", "gaussian_scalar", "--test-fn", "poly:y", "--order", "8"]

    @pytest.mark.parametrize("argv", [
        ["nakano", *POINT, "--order", "8"],
        ["griffiths", *POINT, "--rule", "uniform_grid"],
        ["scan", *POINT, "--param-range", "s=0:1:0.5", "--box=-1,1"],
        ["schur", *POINT, "--n0", "1", "--scale", "2"],
        ["schur", *POINT, "--n0", "1", "--tol-psd", "1e-6"],
        ["bl", *RULE_FN, "--tol-psd", "1e-6"],
        ["bochner", *RULE_FN, "--tol-psd", "1e-6"],
        ["ipp", *RULE_FN, "--tol-psd", "1e-6"],
        ["report", "--config", "checks.json", "--field", "gaussian_scalar"],
    ])
    def test_a_flag_the_subcommand_does_not_read_is_rejected(self, capsys, argv):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments" in err

    def test_config_lists_only_the_flags_read(self, capsys):
        assert run(["nakano", *self.POINT, "--no-timestamp"]) == 0
        nakano = json.loads(capsys.readouterr().out)["config"]
        assert run(["bl", *self.RULE_FN, "--no-timestamp"]) == 0
        bl = json.loads(capsys.readouterr().out)["config"]
        assert not {"order", "rule"} & set(nakano) and {"order", "rule"} <= set(bl)


class TestTestFunctionComponents:
    @pytest.mark.parametrize("argv", [
        ["bl", "--test-fn", "poly:y"],
        ["bochner", "--test-fn", "poly:y"],
        ["ipp", "--test-fn", "poly:y"],
        ["ipp", "--test-fn", "poly:y;y^2", "--test-fn-g", "poly:y"],
    ])
    def test_a_wrong_component_count_is_a_config_error(self, capsys, argv):
        code = run([*argv, "--field", "gaussian_times_spd", "--param", "d=2", "--order", "8"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "test function has 1 components but the field needs 2" in err


def _write_degenerate_field(tmp_path):
    # scalar weight exp(-x1^2), constant along x2: not integrable in x2 as a
    # weight for the variance inequality, so the Dirichlet side degenerates
    spec = {
        "n": 2,
        "d": 1,
        "q": [[1.0, [2, 0]]],
        "entries": {"1,1": [[1.0, [0, 0]]]},
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(spec))
    return path
