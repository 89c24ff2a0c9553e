"""Same-answers runner: one SHA-256 line per fixed ``mlcc`` command line.

    PYTHONPATH=src python3 tests/same_answers.py > answers.txt

Each command runs in process through ``cli.run``, in a fresh temporary
directory that holds the ``checks.json`` the README's ``report`` command reads,
the ``field.json`` of ``FIELD_JSON`` and the ``field2.json`` of ``FIELD_JSON_2``.
Its line hashes the exit code, stdout, stderr and every file the command wrote
there (the scan CSVs).  Every command gets ``--no-timestamp``, so the output is
the same from run to run.  Run it with ``PYTHONPATH`` on two checkouts and diff
the outputs: a change that keeps every answer prints the same lines.  The
commands cover the README's CLI block; ``nakano``, ``griffiths``, ``schur`` and
``scan`` on ``raufi_corrected`` with exact, fd and fd ``--no-richardson`` jets;
``griffiths`` near s = 0 on ``raufi_corrected``, on an n = 2, d = 3 field, on
``perturbed_gaussian_spd`` off the origin and on the isotropic n = d = 2 pencil of
``gaussian_times_spd``, where the circle's polynomial vanishes;
``prekopa`` at GH 16 and 48; ``nakano``, ``griffiths``, ``schur`` and ``prekopa`` with one
and two frozen coordinates on an n = 3, d = 2 ``--field-json`` field (``FIELD_JSON``) whose
q writes a monomial twice and whose P has mixed cubic terms; ``bl``, ``ipp`` and
``bochner`` at GH 8 and 16;
one monomial structure twice in a row with other coefficients (``WARM``: two ``bl`` cubics,
``nakano`` on ``FIELD_JSON`` and on ``FIELD_JSON_2``, ``prekopa`` at two t);
``bl``, ``ipp`` and ``bochner`` at GH 8 and 16 with test functions that repeat a cubic
monomial within a component and share monomials across components (``REPEATED``), and
``prekopa`` with one and two frozen coordinates on ``FIELD_JSON_2``, whose P has mixed
cubic terms;
what the front end prints for argvs that do not parse or that a check rejects
(``FRONT_END``); a ``schur`` report with a "-inf" gap and empty settings (exit 3);
a ``bl`` report with diagnostics; ``prekopa`` on ``double_well_scalar`` at t = 0, where
the hypothesis gate fails (exit 3), and at t = 1.5, where it passes; ``schur`` with
``--n0`` 0 and -1, which ``block_split`` rejects (exit 2); and ``bl``, ``ipp`` and
``bochner`` at GH 16 with test functions whose components each write one monomial twice,
share every monomial in different orders and start a monomial with a -0 coefficient
(``SIGNED_ZERO``); and the config errors of malformed inputs (``MALFORMED``): a ``--t``,
``--v0`` or ``--point`` that is not finite, too few ``--n-starts``, a fractional ``n`` and
a ``--param`` that is not finite; and ``nakano``, ``schur`` and ``griffiths`` with a
condition exactly on its bound and one ulp beyond it (``BOUNDARY``), which pins the side
of each comparison at equality.  Pytest does not collect this file.
"""

from __future__ import annotations

import os

os.environ.pop("MLCC_SEED", None)  # it would override every --seed
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shlex  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from mlcc.cli import run  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_readme import CHECKS, readme_commands  # noqa: E402

JETS = (["--jet", "exact"], ["--jet", "fd"], ["--jet", "fd", "--no-richardson"])

#: (s, point) pairs of the pointwise commands on raufi_corrected.
POINTWISE = (("0.75", "0,0"), ("0.3", "0.03,-0.02"), ("0.9", "0.01,0.04"))

#: s of raufi_corrected at the griffiths point (0.01, -0.02): the plain alternating steps
#: take 132 steps at s = 0.05 and stop at 200 below s = 0.03.
RANK_ONE_S = ("0.05", "0.005", "-3e-9")

#: (field arguments, test function, second test function) of the quadrature checks.
QUADRATURE = (
    (["--field", "gaussian_scalar", "--param", "n=2"], "poly:x1^2+x1*x2", "poly:x2^3"),
    (["--field", "perturbed_gaussian_spd"], "poly:x1*x2^2;x1-x2", "poly:x1;x2^2"),
    (["--field", "gaussian_times_spd", "--param", "a12=0.3"], "poly:y^3;y", "poly:y;y^2"),
)

#: An n = 3, d = 2 polynomial field: q is a coupled positive-definite quadratic that writes
#: x1 x2 twice, P has the mixed cubic terms x1^2 x3, x1 x2 x3 and x2^2 x3.
FIELD_JSON = {
    "n": 3, "d": 2,
    "q": [[0.5, [2, 0, 0]], [0.6, [0, 2, 0]], [0.7, [0, 0, 2]], [0.2, [1, 1, 0]],
          [0.1, [0, 1, 1]], [0.15, [1, 1, 0]]],
    "entries": {"1,1": [[1.0, [0, 0, 0]], [0.02, [2, 0, 1]], [0.015, [1, 1, 1]]],
                "1,2": [[0.03, [1, 0, 0]], [0.01, [1, 1, 1]]],
                "2,2": [[1.0, [0, 0, 0]], [0.012, [0, 2, 1]], [-0.01, [2, 0, 1]]]},
}

#: ``FIELD_JSON``'s monomials, x1 x2 written twice in q too, with other coefficients.
FIELD_JSON_2 = {
    "n": 3, "d": 2,
    "q": [[0.45, [2, 0, 0]], [0.65, [0, 2, 0]], [0.55, [0, 0, 2]], [-0.1, [1, 1, 0]],
          [0.12, [0, 1, 1]], [0.05, [1, 1, 0]]],
    "entries": {"1,1": [[1.0, [0, 0, 0]], [0.03, [2, 0, 1]], [-0.01, [1, 1, 1]]],
                "1,2": [[-0.02, [1, 0, 0]], [0.015, [1, 1, 1]]],
                "2,2": [[1.0, [0, 0, 0]], [0.01, [0, 2, 1]], [0.02, [2, 0, 1]]]},
}

#: Pairs of argvs that run one monomial structure with two sets of coefficients.
WARM = (
    ["bl", "--field", "perturbed_gaussian_spd", "--order", "8", "--test-fn",
     "poly:x1^3-0.5*x1*x2^2+x2;x2^3+x1^2"],
    ["bl", "--field", "perturbed_gaussian_spd", "--order", "8", "--test-fn",
     "poly:0.3*x1^3+2*x1*x2^2-x2;-x2^3+0.7*x1^2"],
    ["nakano", "--field-json", "field.json", "--point=0.2,0.1,-0.3"],
    ["nakano", "--field-json", "field2.json", "--point=0.2,0.1,-0.3"],
    ["prekopa", "--field", "perturbed_gaussian_spd", "--t", "0.25", "--n0", "1", "--order", "16"],
    ["prekopa", "--field", "perturbed_gaussian_spd", "--t=-0.35", "--n0", "1", "--order", "16"],
)

#: (field arguments, test function, second test function): a component writes a cubic
#: monomial twice, and the components share monomials.
REPEATED = (
    (["--field", "perturbed_gaussian_spd"], "poly:0.1*x1^3+x1*x2^2+0.7*x1^3;x1^3-0.3*x1*x2^2+x2",
     "poly:x1^2*x2+0.2*x1^2*x2;x1^3+x2"),
    (["--field", "gaussian_times_spd", "--param", "a12=0.3"], "poly:0.1*y^3+y+0.7*y^3;y^3-0.4*y",
     "poly:y^3;y^2+0.3*y^3+0.6*y^3"),
)

#: (field arguments, test function, second test function): each component writes one
#: monomial twice, the components share every monomial in different orders, and a -0
#: coefficient comes first for its monomial, so that row adds -0.0 + 0.0.
SIGNED_ZERO = (
    (["--field", "gaussian_times_spd"], "poly:-0*y+0.5*y^3+y^2+0.25*y^3;0.3*y^2-0.2*y^3+y+0.1*y^3",
     "poly:y^2-0*y+0.4*y;0.6*y+y^2+0.3*y^2"),
    (["--field", "perturbed_gaussian_spd"],
     "poly:-0*x2+x1^3+0.5*x1*x2^2+0.2*x1^3;x1*x2^2+x2-0.3*x1^3+0.6*x1*x2^2",
     "poly:x1^2*x2+x1-0*x1;x1+0.2*x1^2*x2+x1^2*x2"),
)

_AT = ["--field", "raufi_corrected", "--point", "0,0"]

#: Argvs of the front end: no command, help, an unknown subcommand, a missing
#: required flag, an unknown flag, a stray word, a bad choice, an ambiguous
#: abbreviation, a bad number and "--" (usage errors); a negative point as the next
#: word (a value, as after "="); a parameter that overflows (an input error).
FRONT_END = (
    [], ["--help"], ["-h", "nakano"], ["nakano", "-h"], ["frob", *_AT],
    ["nakano", "--field", "raufi_corrected"], ["schur", *_AT], ["nakano", *_AT, "--bogus"],
    ["nakano", *_AT, "stray"], ["nakano", "--field", "no_such_field", "--point", "0,0"],
    ["nakano", "--fie", "raufi_corrected", "--point", "0,0"],
    ["nakano", *_AT, "--tol-psd", "x"], ["nakano", *_AT, "--"],
    ["nakano", "--field", "raufi_corrected", "--point", "-0.1,0"],
    ["nakano", *_AT, "--param", "s=1e999"],
)


#: Config errors of malformed inputs, each message read from the one input rule.
MALFORMED = [
    ["prekopa", "--field", "gaussian_cross_spd", "--t", "nan", "--n0", "1"],
    ["schur", *_AT, "--n0", "1", "--v0", "nan,0"],
    ["nakano", "--field", "raufi_corrected", "--point", "nan,0"],
    ["griffiths", *_AT, "--n-starts", "7"],
    ["nakano", "--field", "gaussian_scalar", "--param", "n=2.5", "--point", "0,0"],
    ["nakano", "--field", "raufi_corrected", "--param", "s=nan", "--point", "0,0"],
]

_RAUFI_AT = ["--field", "raufi_corrected", "--param", "s=0.75", "--point", "0,0"]

#: Argvs that put a condition exactly on its bound (pass) and one ulp beyond it (fail):
#: nakano's lambda_max -1.0 against --tol-psd, schur's gap 0.8333333333333334 against
#: -(--tol-gap) and griffiths' rank_one_max -0.75 against --tol-psd.
BOUNDARY = [
    *(["nakano", "--field", "gaussian_scalar", "--param", "n=2", "--point", "0.3,-0.2",
       "--tol-psd", tol] for tol in ("-1", "-1.0000000000000002")),
    *(["schur", *_RAUFI_AT, "--n0", "1", "--tol-gap", tol]
      for tol in ("-0.8333333333333334", "-0.8333333333333335")),
    *(["griffiths", *_RAUFI_AT, "--tol-psd", tol] for tol in ("-0.75", "-0.7500000000000001")),
]


def argvs() -> list[list[str]]:
    """The fixed command lines, without ``--no-timestamp``."""
    out = [shlex.split(cmd)[1:] for cmd in readme_commands()]
    for jet in JETS:
        for s, point in POINTWISE:
            at = ["--field", "raufi_corrected", "--param", f"s={s}", f"--point={point}", *jet]
            out += [["nakano", *at], ["griffiths", *at], ["schur", *at, "--n0", "1"]]
        out.append(["scan", "--field", "raufi_corrected", "--point", "0.02,0.01",
                    "--param-range", "s=0:1:0.05", "--csv", "scan.csv", *jet])
        out.append(["nakano", "--field", "gaussian_scalar", "--param", "n=3",
                    "--point=0.1,-0.2,0.3", *jet])
        for s in RANK_ONE_S:
            out.append(["griffiths", "--field", "raufi_corrected", "--param", f"s={s}",
                        "--point=0.01,-0.02", *jet])
        out.append(["griffiths", "--field", "gaussian_times_spd", "--param", "n=2", "--param",
                    "d=3", "--point=0.1,-0.2", *jet])
        out.append(["griffiths", "--field", "perturbed_gaussian_spd", "--point=0.3,-0.2", *jet])
        out.append(["griffiths", "--field", "gaussian_times_spd", "--param", "n=2",
                    "--point=0.1,-0.2", *jet])
        for order in ("16", "48"):
            out.append(["prekopa", "--field", "gaussian_cross_spd", "--t", "0.1", "--n0", "1",
                        "--order", order, *jet])
            out.append(["prekopa", "--field", "perturbed_gaussian_spd", "--t", "-0.2", "--n0",
                        "1", "--order", order, *jet])
        at = ["--field-json", "field.json", "--point=0.1,-0.2,0.15", *jet]
        out += [["nakano", *at], ["griffiths", *at], ["schur", *at, "--n0", "1"]]
        for n0, t in (("1", "--t=0.1"), ("2", "--t=0.1,-0.05")):
            out.append(["prekopa", "--field-json", "field.json", "--n0", n0, t, "--order", "16",
                        "--scale", "0.5", *jet])
        for order in ("8", "16"):
            for field, f, g in QUADRATURE:
                rule = [*field, "--order", order, *jet]
                out += [["bl", *rule, "--test-fn", f], ["ipp", *rule, "--test-fn", f,
                        "--test-fn-g", g], ["bochner", *rule, "--test-fn", f]]
    out += FRONT_END
    out.append(["schur", "--field", "raufi_corrected", "--param", "s=0", "--point", "0,0",
                "--n0", "1"])
    out.append(["bl", "--field", "gaussian_scalar", "--test-fn", "poly:y^2", "--order", "8",
                "--scale", "0.3"])
    out += [["prekopa", "--field", "double_well_scalar", "--n0", "1", "--t", t]
            for t in ("0", "1.5")]
    out += list(WARM)
    for order in ("8", "16"):
        for field, f, g in REPEATED:
            rule = [*field, "--order", order]
            out += [["bl", *rule, "--test-fn", f], ["ipp", *rule, "--test-fn", f,
                    "--test-fn-g", g], ["bochner", *rule, "--test-fn", f]]
    for jet in JETS[:2]:
        for n0, t in (("1", "--t=0.1"), ("2", "--t=0.1,-0.05")):
            out.append(["prekopa", "--field-json", "field2.json", "--n0", n0, t, "--order", "16",
                        "--scale", "0.5", *jet])
    out += [["schur", *_AT, "--n0", n0] for n0 in ("0", "-1")]
    for field, f, g in SIGNED_ZERO:
        rule = [*field, "--order", "16"]
        out += [["bl", *rule, "--test-fn", f], ["ipp", *rule, "--test-fn", f, "--test-fn-g", g],
                ["bochner", *rule, "--test-fn", f]]
    return out + MALFORMED + BOUNDARY


def answer(argv: list[str]) -> str:
    """SHA-256 over the exit code, stdout, stderr and written files of one command."""
    with tempfile.TemporaryDirectory() as tmp:
        config, field, field_2 = (Path(tmp, name) for name in
                                  ("checks.json", "field.json", "field2.json"))
        config.write_text(json.dumps(CHECKS))
        field.write_text(json.dumps(FIELD_JSON))
        field_2.write_text(json.dumps(FIELD_JSON_2))
        stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run([*argv, "--no-timestamp"])
        finally:
            os.chdir(cwd)
        digest = hashlib.sha256(f"{code}\0{stdout.getvalue()}\0{stderr.getvalue()}".encode())
        for path in sorted(Path(tmp).iterdir()):
            if path not in (config, field, field_2):
                digest.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> None:
    for argv in argvs():
        print(answer(argv), shlex.join(argv))


if __name__ == "__main__":
    main()
