"""Command-line front end: run certifications and parameter scans.

Exit codes: 0 all checks pass, 1 any check fails, 2 input/config error,
3 degenerate-only outcomes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import re
import sys
import time
import warnings
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .curvature import curvature_matrix, generalized_spectrum
from .errors import (
    NODE_BUDGET,
    BudgetError,
    InputError,
    NotPositiveError,
    NotPsdError,
    QuadratureError,
    SymmetryError,
    _real,
)
from .fields import BUILTIN_PARAMS, SHAPE_PARAMS, builtin_field, polynomial_field_from_json
from .inequalities import (
    CheckReport,
    bl_gap,
    bochner_residual,
    griffiths_check,
    ipp_residual,
    nakano_check,
    prekopa_check,
    schur_check,
)
from .metric import ColumnBlockMatrix
from .quadrature import VectorFieldFn, build_rule

#: Most parameter values of a scan in one member stack, to bound its intermediates.
SCAN_BLOCK = 1024

#: Relative rounding forgiven when a scan counts its whole steps from start to stop.
SCAN_STEP_TOL = 1e-9

#: The tolerance flags' destinations; each must be a finite number.
TOLERANCES = ("tol_psd", "tol_gap", "tol_res")


# -- parsing helpers -----------------------------------------------------------


def _parse_point(text: str, flag: str) -> np.ndarray:
    """The comma-separated numbers of ``flag`` (--point, --t or --v0); an entry that is
    not a finite number is an InputError naming the flag."""
    try:
        point = np.array([float(p) for p in text.split(",")])
    except ValueError as exc:
        raise InputError(f"{flag} must be comma-separated numbers, got {text!r}") from exc
    if not np.isfinite(point).all():
        raise InputError(f"{flag} must be finite, got {text!r}")
    return point


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise InputError(f"parameter {pair!r} is not of the form name=value")
        key, val = pair.split("=", 1)
        try:
            num = float(val)
        except ValueError as exc:
            raise InputError(f"parameter value {val!r} is not a number") from exc
        if not math.isfinite(num):
            raise InputError(f"--param {key}: the value must be a finite number, got {val!r}")
        params[key] = num
    return params


def _parse_poly_component(expr: str, n: int):
    """Parse one polynomial component like ``2*x1*x2^2 - y + 1``."""
    expr = expr.replace(" ", "")
    if not expr:
        raise InputError("empty polynomial component")
    # a sign right after ^ or * stays in its term: x1*-2 is -2*x1, x1^-1 a bad exponent;
    # so does the sign of an exponent after a digit or a point: 1e-3*x1 is 0.001*x1
    chunks = re.findall(r"[+-]?(?:[*^][+-]?|(?<=[0-9.])[eE][+-]?|[^+-])+", expr)
    terms = []
    for chunk in chunks:
        sign = 1.0
        body = chunk
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        factors = body.split("*") if body else []
        coeff = sign
        degs = [0] * n
        for factor in factors:
            if not factor:
                raise InputError(f"term {chunk!r} has an empty factor (powers are written x1^2)")
            if factor[0].isalpha():
                var, caret, power = factor.partition("^")
                if caret and not re.fullmatch(r"[0-9]+", power):
                    raise InputError(f"factor {factor!r}: the exponent must be a whole "
                                     "number >= 0")
                exponent = int(power) if caret else 1
                if var == "y" and n == 1:
                    idx = 0
                elif var.startswith("x") and var[1:].isdigit():
                    idx = int(var[1:]) - 1
                else:
                    raise InputError(f"unknown variable {var!r}")
                if not 0 <= idx < n:
                    raise InputError(f"variable {var!r} out of range for n={n}")
                degs[idx] += exponent
            else:
                try:
                    coeff *= float(factor)
                except ValueError as exc:
                    raise InputError(f"malformed factor {factor!r}") from exc
        terms.append((coeff, tuple(degs)))
    return terms


def _parse_test_fn(spec: str, n: int) -> VectorFieldFn:
    """Parse ``poly:<comp>[;<comp>...]`` into a polynomial vector field."""
    if not spec.startswith("poly:"):
        raise InputError(f"unsupported test function {spec!r} (use poly:<expr>)")
    comps = [_parse_poly_component(c, n) for c in spec[len("poly:") :].split(";")]
    return VectorFieldFn.polynomial(n, comps)


def _jet_kwargs(args) -> dict:
    """The field's jet settings from --jet, --h and --no-richardson."""
    if args.jet != "fd":
        return {}
    return {"jet_mode": "finite_difference", "h": args.h, "richardson": not args.no_richardson}


def _build_field(args):
    if args.field_json:
        return polynomial_field_from_json(args.field_json, **_jet_kwargs(args))
    if not args.field:
        raise InputError("no field given (use --field or --field-json)")
    return builtin_field(args.field, _parse_params(args.param), **_jet_kwargs(args))


def _build_rule(args, m: int):
    if args.rule == "gauss_hermite":
        return build_rule(
            "gauss_hermite", order=args.order, m=m, center=args.center, scale=args.scale
        )
    if args.box is None:
        raise InputError("uniform_grid needs --box lo,hi")
    try:
        lo, hi = (float(v) for v in args.box.split(","))
    except ValueError as exc:
        raise InputError(f"--box must be lo,hi, got {args.box!r}") from exc
    return build_rule(
        "uniform_grid", box=[(lo, hi)] * m, resolution=args.resolution
    )


# -- report serialization -----------------------------------------------------


def _json(obj, pad: str = "\n") -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` writes it, in one walk, with NumPy
    scalars as Python ones, tuples as lists and non-finite floats as the strings
    "inf", "-inf" and "nan"; ``pad`` is the newline and indent of ``obj``'s level."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, float):  # np.float64 too; inf, -inf and nan go in quotes
        return float.__repr__(obj) if math.isfinite(obj) else f'"{float.__repr__(obj)}"'
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [f"{_quote(k)}: {_json(v, inner)}" for k, v in obj.items()]
        return "{" + inner + f",{inner}".join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_json(v, inner) for v in obj]
        return "[" + inner + f",{inner}".join(items) + pad + "]" if items else "[]"
    if isinstance(obj, np.generic):
        return _json(obj.item(), pad)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(config: dict, checks: list, diagnostics: list, args) -> None:
    # a report's fields, in order (asdict would deep-copy them first)
    doc = {"config": config, "checks": [vars(c) for c in checks],
           "diagnostics": diagnostics}
    if not args.no_timestamp:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    text = _json(doc) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _exit_code(checks: list) -> int:
    statuses = [c.status for c in checks]
    if any(s == "fail" for s in statuses):
        return 1
    if statuses and any(s == "degenerate" for s in statuses):
        return 3
    return 0


# -- subcommands ---------------------------------------------------------------


def _curvature(args):
    """The field's curvature matrix at --point (nakano, griffiths, schur)."""
    return curvature_matrix(_build_field(args), _parse_point(args.point, "--point"))


def _field_rule_and_test_fns(args, *specs):
    """The field, the rule over its n variables and one test function per spec
    (bl, bochner, ipp); the checks reject one without the field's d components."""
    field = _build_field(args)
    rule = _build_rule(args, field.n)
    return field, rule, [_parse_test_fn(spec, field.n) for spec in specs]


def _cmd_nakano(args, diagnostics):
    report = nakano_check(_curvature(args), tol_psd=args.tol_psd)
    if args.field == "raufi_printed":
        diagnostics.append(
            "raufi_printed: the displayed example matrix corresponds to the "
            "corrected field (raufi_corrected); the printed entries give a "
            "different spectrum"
        )
    return [report]


def _cmd_griffiths(args, diagnostics):
    return [griffiths_check(_curvature(args), n_starts=args.n_starts, seed=args.seed,
                            tol_psd=args.tol_psd)]


def _cmd_scan(args, diagnostics):
    if args.field_json:
        raise InputError("scan varies a parameter of a builtin field; "
                         "a --field-json field has no named parameters (use --field)")
    if not args.field:
        raise InputError("no field given (use --field)")
    name, _, span = args.param_range.partition("=")
    try:
        start, stop, step = (float(v) for v in span.split(":"))
    except ValueError as exc:
        raise InputError("--param-range must be name=start:stop:step") from exc
    if not (np.isfinite([start, stop, step]).all() and step > 0 and stop >= start):
        raise InputError(f"--param-range needs finite start <= stop and step > 0, got {span!r}")
    steps = (stop - start) / step
    if not math.isfinite(steps):
        raise InputError(f"--param-range {span!r} has too many points to count")
    if steps + 1 > NODE_BUDGET:
        raise BudgetError(f"--param-range {span!r} has {steps + 1:.3g} points, "
                          f"beyond the budget of {NODE_BUDGET}")
    base = _parse_params(args.param)
    point = _parse_point(args.point, "--point")
    # whole steps, forgiving rounding: 0:0.3:0.1 is 2.9999999999999996 steps, 0:1:0.6 one
    count = math.floor(steps + SCAN_STEP_TOL * (1.0 + steps)) + 1
    # one field, jet, curvature assembly and generalized spectrum per block; a value
    # of n or d sets the shape, so it is a block of its own
    block = 1 if name in SHAPE_PARAMS else SCAN_BLOCK
    rows = []
    for lo in range(0, count, block):
        values = start + np.arange(lo, min(lo + block, count)) * step
        field = builtin_field(args.field, {**base, name: values}, **_jet_kwargs(args))
        lam_max = generalized_spectrum(curvature_matrix(field, point))[..., -1]
        rows += zip(values.tolist(), lam_max.tolist(), (lam_max <= args.tol_psd).tolist())
    if args.csv:
        lines = ["param,lambda_max,verdict"]
        lines += [f"{value!r},{lam!r},{str(ok).lower()}" for value, lam, ok in rows]
        with open(args.csv, "w", newline="") as fh:
            fh.write("\r\n".join(lines) + "\r\n")
    flips = sum(1 for a, b in zip(rows, rows[1:]) if a[2] != b[2])
    return [
        CheckReport(
            name="scan",
            status="pass",
            metrics={"points": len(rows), "verdict_flips": flips},
            tolerances={"tol_psd": args.tol_psd},
            settings={"param": name},
        )
    ]


def _cmd_schur(args, diagnostics):
    cm = _curvature(args)
    v0 = None
    if args.v0:
        v0 = ColumnBlockMatrix.from_flat(_parse_point(args.v0, "--v0"), cm.d)
    return [schur_check(cm, args.n0, v0, tol_gap=args.tol_gap)]


def _cmd_bl(args, diagnostics):
    field, rule, (f,) = _field_rule_and_test_fns(args, args.test_fn)
    return [bl_gap(field, f, rule)]


def _cmd_prekopa(args, diagnostics):
    field = _build_field(args)
    t = _parse_point(args.t, "--t")
    # an n0 out of range is prekopa_check's error, named so, not an empty rule's
    rule = _build_rule(args, max(field.n - args.n0, 1))
    return [
        prekopa_check(
            field, t, args.n0, rule, h=args.marginal_h, tol_psd=args.tol_psd
        )
    ]


def _cmd_bochner(args, diagnostics):
    field, rule, (psi,) = _field_rule_and_test_fns(args, args.test_fn)
    return [bochner_residual(field, psi, rule, tol_res=args.tol_res)]


def _cmd_ipp(args, diagnostics):
    field, rule, (f, g_fn) = _field_rule_and_test_fns(args, args.test_fn,
                                                       args.test_fn_g or args.test_fn)
    return [ipp_residual(field, f, g_fn, rule, tol_res=args.tol_res)]


def _parse_entry(argv: list, i: int):
    """Report entry ``i``'s argv through the shared parser.  What argparse prints
    (usage, help) is held back: an entry that does not parse is one InputError
    that ends with argparse's own reason."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            return _parse(argv)
    except SystemExit as exc:
        last = printed.getvalue().rstrip().rpartition("\n")[2]
        reason = last.partition(": error: ")[2] if exc.code else "they ask for --help"
        raise InputError(f"report entry {i} ({argv[0]!r}): its args do not parse: "
                         f"{reason}") from None


def _cmd_report(args, diagnostics):
    with open(args.config) as fh:
        cfg = json.load(fh)
    entries = cfg.get("checks", []) if isinstance(cfg, dict) else None
    if not isinstance(entries, list):
        raise InputError('report config must be a JSON object whose "checks" is a list')
    # the report's config echoes each entry's parsed args, in order
    checks, args.entries = [], []
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)):
            raise InputError(f'report entry {i} must be an object with a string "name"')
        extra = entry.get("args", [])
        if not (isinstance(extra, list) and all(isinstance(a, str) for a in extra)):
            raise InputError(f'report entry {i} ({entry["name"]!r}): "args" must be a list '
                             "of strings")
        argv = [entry["name"]] + extra
        if argv[0] == "report":
            raise InputError(f"report entry {i} is itself a report")
        sub_args = _parse_entry(argv, i)
        if sub_args.out is not None or sub_args.no_timestamp:
            flag = "--out" if sub_args.out is not None else "--no-timestamp"
            raise InputError(f"report entry {i} ({argv[0]!r}): {flag} is the report's own flag")
        _settle(sub_args)
        args.entries.append({"name": argv[0], **_config_echo(sub_args)})
        checks.extend(_DISPATCH[entry["name"]](sub_args, diagnostics))
    return checks


_DISPATCH = {
    "nakano": _cmd_nakano,
    "griffiths": _cmd_griffiths,
    "scan": _cmd_scan,
    "schur": _cmd_schur,
    "bl": _cmd_bl,
    "prekopa": _cmd_prekopa,
    "bochner": _cmd_bochner,
    "ipp": _cmd_ipp,
    "report": _cmd_report,
}


def _field_flags(sub):
    """The field and its jet: every subcommand but report."""
    sub.add_argument("--field", choices=BUILTIN_PARAMS)
    sub.add_argument("--field-json", help="path to a polynomial field JSON file")
    sub.add_argument("--param", action="append", metavar="NAME=VALUE")
    sub.add_argument("--jet", choices=["exact", "fd"], default="exact")
    sub.add_argument("--h", type=float, default=1e-4)
    sub.add_argument("--no-richardson", action="store_true")


def _rule_flags(sub):
    """The quadrature rule: the subcommands that integrate (bl, prekopa, bochner, ipp)."""
    sub.add_argument("--rule", choices=["gauss_hermite", "uniform_grid"],
                     default="gauss_hermite")
    sub.add_argument("--order", type=int, default=64)
    sub.add_argument("--center", type=float, default=0.0)
    sub.add_argument("--scale", type=float, default=1.0)
    sub.add_argument("--box", help="lo,hi for uniform_grid rules")
    sub.add_argument("--resolution", type=int, default=256)


#: A word that argparse reads as a value although it starts with "-": its negative numbers
#: (-1, -0.5) widened to comma-separated lists of numbers with exponents, so that
#: ``--point -0.1,0`` parses as ``--point=-0.1,0`` does.
_NEGATIVE_VALUE = re.compile(r"^-(?:\d*\.)?\d+(?:[eE][-+]?\d+)?"
                             r"(?:,-?(?:\d*\.)?\d+(?:[eE][-+]?\d+)?)*$")


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and shared by the
    process (``run`` and ``report``); parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mlcc",
        description="certification checks for matrix-valued log-concave weights",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = {}  # each subcommand's own parser, by name, for _parse

    def add(name, summary, *groups):
        p = parser.subcommands[name] = subs.add_parser(name, help=summary)
        p._negative_number_matcher = _NEGATIVE_VALUE
        for group in groups:
            group(p)
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--no-timestamp", action="store_true")
        return p

    p = add("nakano", "pointwise N-log-concavity verdict", _field_flags)
    p.add_argument("--point", required=True)
    p.add_argument("--tol-psd", type=float, default=1e-9)

    p = add("griffiths", "rank-one curvature maximization", _field_flags)
    p.add_argument("--point", required=True)
    p.add_argument("--n-starts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol-psd", type=float, default=1e-9)

    p = add("scan", "parameter scan of the Nakano verdict", _field_flags)
    p.add_argument("--point", required=True)
    p.add_argument("--param-range", required=True, metavar="NAME=START:STOP:STEP")
    p.add_argument("--csv", help="write scan rows to this CSV file")
    p.add_argument("--tol-psd", type=float, default=1e-9)

    p = add("schur", "block Schur inequality at a point", _field_flags)
    p.add_argument("--point", required=True)
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--v0", help="flattened V0, comma separated")
    p.add_argument("--tol-gap", type=float, default=1e-8)

    p = add("bl", "Brascamp-Lieb variance inequality check", _field_flags, _rule_flags)
    p.add_argument("--test-fn", required=True, metavar="poly:EXPR[;EXPR...]")

    p = add("prekopa", "marginal N-log-concavity, two routes", _field_flags, _rule_flags)
    p.add_argument("--t", required=True, help="frozen coordinates, comma separated")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--marginal-h", type=float, default=1e-3)
    p.add_argument("--tol-psd", type=float, default=1e-9)

    p = add("bochner", "Bochner integration-by-parts identity", _field_flags, _rule_flags)
    p.add_argument("--test-fn", required=True)
    p.add_argument("--tol-res", type=float, default=1e-6)

    p = add("ipp", "first-order integration by parts identity", _field_flags, _rule_flags)
    p.add_argument("--test-fn", required=True)
    p.add_argument("--test-fn-g")
    p.add_argument("--tol-res", type=float, default=1e-6)

    p = add("report", "run a batch of checks from a config file")
    p.add_argument("--config", required=True)

    return parser


def _parse(argv) -> argparse.Namespace:
    """``_make_parser().parse_args(argv)`` in one argparse pass: the words after a
    subcommand go to its own parser alone, any other argv to the top-level one."""
    parser = _make_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _settle(args) -> None:
    """Check the tolerances and apply MLCC_SEED: a tolerance flag that is not a
    finite number is an InputError naming the flag; MLCC_SEED sets --seed
    where the subcommand has one."""
    for key in TOLERANCES:
        _real(f"--{key.replace('_', '-')}", getattr(args, key, 0.0))
    env = os.environ.get("MLCC_SEED")
    if env is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env)
        except ValueError as exc:
            raise InputError(f"MLCC_SEED={env!r} is not an integer") from exc


def _config_echo(args) -> dict:
    skip = {"out", "no_timestamp", "command"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    diagnostics: list[str] = []
    try:
        _settle(args)
        # warnings raised anywhere in the command (quadrature tails, say) are
        # reported in the JSON diagnostics, once per distinct message
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            checks = _DISPATCH[args.command](args, diagnostics)
        diagnostics.extend(dict.fromkeys(str(w.message) for w in caught))
        _emit(_config_echo(args), checks, diagnostics, args)
    except (InputError, NotPositiveError, NotPsdError, QuadratureError, BudgetError,
            SymmetryError, FileNotFoundError, json.JSONDecodeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _exit_code(checks)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
