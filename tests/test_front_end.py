"""The CLI's front end: one argparse pass per argv and one walk per report.

``run`` parses a subcommand's words with that subcommand's parser alone, and any
other argv with the top-level parser; the namespace, the exit code and what is
printed are those of ``_make_parser().parse_args``.  Reports are written by
``cli._json``, whose text is that of the reference below: the NumPy scalars,
tuples and non-finite floats made plain, then ``json.dumps(indent=2)``.
"""

import argparse
import contextlib
import io
import json
import math

import numpy as np
import pytest

from mlcc.cli import _json, _make_parser, _parse, run

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402


def _plain(obj):
    """The reference's first walk: NumPy scalars as Python ones, tuples as lists and
    non-finite floats as the strings "inf", "-inf" and "nan"."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


def reference(obj) -> str:
    return json.dumps(_plain(obj), indent=2)


# -- parse once ----------------------------------------------------------------

_AT = ["--field", "raufi_corrected", "--point", "0,0"]
_RULE = ["--rule", "uniform_grid", "--box=-1,1", "--resolution", "8"]

#: Argvs that parse, over every subcommand: --x=v forms, abbreviations, a repeated
#: --param, "--" as a value and negative values after "=".
PARSED = [
    ["nakano", *_AT],
    ["nakano", "--field=raufi_corrected", "--param=s=-0.5", "--point=-0.1,0.2",
     "--tol-psd=-1e-9", "--out", "o.json", "--no-timestamp"],
    ["nakano", "--field", "raufi_corrected", "--para", "s=0.5", "--poi", "0,0",
     "--tol", "1e-6", "--no-t", "--field-j", "f.json"],
    ["nakano", "--field-json=--", "--point", "0,0", "--jet", "fd", "--h=-1e-3",
     "--no-richardson"],
    ["griffiths", *_AT, "--param", "s=0.3", "--param", "a12=0.1", "--param", "s=0.4",
     "--n-st", "8", "--seed=3"],
    ["scan", *_AT, "--param-range=s=-1:1:0.5", "--csv", "rows.csv", "--tol-p", "0"],
    ["schur", *_AT, "--n0", "1", "--v0=-1,0", "--tol-gap=-0.5"],
    ["bl", "--field", "gaussian_scalar", "--test-fn", "poly:y", *_RULE],
    ["bl", "--field", "gaussian_scalar", "--test-fn=poly:-y^2", "--ord", "8",
     "--center=-0.5", "--scale", "2"],
    ["prekopa", "--field", "gaussian_cross_spd", "--t=-0.3", "--n0", "1",
     "--marginal-h=1e-4", "--order", "16"],
    ["bochner", "--field", "gaussian_scalar", "--test-fn", "poly:y", "--tol-res=1e-5"],
    ["ipp", "--field", "gaussian_scalar", "--test-fn", "poly:y", "--test-fn-g", "poly:y^2",
     *_RULE],
    ["report", "--config", "checks.json", "--out=-", "--no-timestamp"],
]

#: Argvs that end in help or a usage error.
UNPARSED = [
    [], ["--help"], ["-h", "nakano"], ["nakano", "-h"], ["report", "--help"],
    ["frob", *_AT], ["--no-timestamp"],
    ["nakano", "--field", "raufi_corrected"], ["schur", *_AT],
    ["nakano", *_AT, "--bogus"], ["nakano", *_AT, "stray"],
    ["nakano", *_AT, "--bogus", "x", "stray"],
    ["nakano", "--field", "no_such_field", "--point", "0,0"],
    ["nakano", "--fie", "raufi_corrected", "--point", "0,0"],
    ["nakano", *_AT, "--tol-psd", "x"], ["griffiths", *_AT, "--seed", "1.5"],
    ["nakano", *_AT, "--"], ["nakano", "--", *_AT], ["nakano", *_AT, "--", "x"],
    ["nakano", "--field", "raufi_corrected", "--point", "--tol-psd", "1e-9"],
]

#: (argv with a negative value as the next word, the same argv with "flag=value"): the
#: coordinates of --point, --v0, --t and --box, a list with an exponent, a tolerance.
NEGATIVE_VALUES = [
    (["nakano", "--field", "raufi_corrected", "--point", "-0.1,0"],
     ["nakano", "--field", "raufi_corrected", "--point=-0.1,0"]),
    (["schur", *_AT, "--n0", "1", "--v0", "-1,0"], ["schur", *_AT, "--n0", "1", "--v0=-1,0"]),
    (["prekopa", "--field", "perturbed_gaussian_spd", "--n0", "1", "--order", "8",
      "--t", "-0.2"],
     ["prekopa", "--field", "perturbed_gaussian_spd", "--n0", "1", "--order", "8",
      "--t=-0.2"]),
    (["bl", "--field", "gaussian_scalar", "--test-fn", "poly:y", "--rule", "uniform_grid",
      "--box", "-6,6", "--resolution", "64"],
     ["bl", "--field", "gaussian_scalar", "--test-fn", "poly:y", "--rule", "uniform_grid",
      "--box=-6,6", "--resolution", "64"]),
    (["griffiths", "--field", "raufi_corrected", "--poi", "-1e-2,2.5E-2", "--n-starts", "8"],
     ["griffiths", "--field", "raufi_corrected", "--poi=-1e-2,2.5E-2", "--n-starts", "8"]),
    (["nakano", *_AT, "--tol-psd", "-1e-9"], ["nakano", *_AT, "--tol-psd=-1e-9"]),
]


def _parsed_by(parse, argv):
    """What ``parse(argv)`` returns or exits with, and what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSED, ids=" ".join)
def test_one_pass_parses_as_the_top_level_parser(argv):
    args = _parse(argv)
    assert vars(args) == vars(_make_parser().parse_args(argv))
    assert args.command == argv[0]


@pytest.mark.parametrize("argv", UNPARSED, ids=" ".join)
def test_usage_errors_print_what_the_top_level_parser_prints(argv):
    code, out, err = _parsed_by(_make_parser().parse_args, argv)
    assert isinstance(code, int)
    assert _parsed_by(_parse, argv) == (code, out, err)
    printed_out, printed_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(printed_out), contextlib.redirect_stderr(printed_err):
        assert run(argv) == code
    assert (printed_out.getvalue(), printed_err.getvalue()) == (out, err)


def _report(argv):
    """The exit code, stdout and stderr of ``run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([*argv, "--no-timestamp"])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, joined", NEGATIVE_VALUES, ids=lambda a: " ".join(a))
def test_a_negative_value_as_the_next_word_is_the_value(argv, joined):
    """``--point -0.1,0`` parses, and reports, as ``--point=-0.1,0`` does."""
    assert vars(_parse(argv)) == vars(_parse(joined)) == vars(_make_parser().parse_args(argv))
    report = _report(argv)
    assert report == _report(joined) and report[0] in (0, 1, 3) and report[2] == ""


@pytest.fixture
def parse_calls(monkeypatch):
    """The ``ArgumentParser.parse_known_args`` calls made from now on."""
    calls = []
    known = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return known(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    return calls


def test_a_subcommand_argv_is_parsed_once(parse_calls, capsys):
    assert run(["nakano", *_AT, "--param", "s=0.75", "--no-timestamp"]) == 0
    assert parse_calls == ["mlcc nakano"]
    assert run(["nakano", *_AT, "--bogus"]) == 2
    assert parse_calls == ["mlcc nakano"] * 2
    assert "mlcc: error: unrecognized arguments: --bogus" in capsys.readouterr().err


def test_each_report_entry_is_parsed_once(tmp_path, parse_calls, capsys):
    cfg = tmp_path / "checks.json"
    cfg.write_text(json.dumps({"checks": [
        {"name": "nakano", "args": [*_AT, "--param", "s=0.75"]},
        {"name": "schur", "args": [*_AT, "--param", "s=0.75", "--n0", "1"]},
    ]}))
    assert run(["report", "--config", str(cfg), "--no-timestamp"]) == 0
    assert parse_calls == ["mlcc report", "mlcc nakano", "mlcc schur"]
    assert len(json.loads(capsys.readouterr().out)["checks"]) == 2


# -- write once ----------------------------------------------------------------

_FLOATS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf,
                                  math.nan, 0.1, 1e16, 1e-7]))
_TEXT = st.one_of(st.text(), st.text(alphabet='"\\\x00\x01\x1f\x7f\n\t/ é€😀 '))
_LEAVES = st.one_of(
    _TEXT, st.integers(), st.integers(-2**200, 2**200), st.booleans(), st.none(), _FLOATS,
    _FLOATS.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_DOCS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(doc=_DOCS)
def test_the_writer_writes_what_json_dumps_writes(doc):
    assert _json(doc) == reference(doc)


@pytest.mark.parametrize("doc", [{}, [], (), {"a": {}}, {"a": [[], {}]}, [(), [{}]]],
                         ids=repr)
def test_empty_containers(doc):
    assert _json(doc) == reference(doc)


@pytest.mark.parametrize("bad", [np.zeros(2), {1, 2}, 1j, b"x", object()],
                         ids=lambda b: type(b).__name__)
def test_what_json_cannot_write_is_a_type_error(bad):
    for doc in (bad, {"metrics": {"x": bad}}, [1.0, (bad,)]):
        with pytest.raises(TypeError):
            reference(doc)
        with pytest.raises(TypeError):
            _json(doc)


def test_a_timestamped_report_parses_and_ends_with_its_timestamp(capsys):
    assert run(["nakano", *_AT, "--param", "s=0.75"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["config", "checks", "diagnostics", "timestamp"]
    assert doc["checks"][0]["metrics"]["lambda_max"] == pytest.approx(-0.5)
