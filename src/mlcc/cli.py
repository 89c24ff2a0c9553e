"""Command-line front end: run certifications and parameter scans.

Exit codes: 0 all checks pass, 1 any check fails, 2 input/config error,
3 degenerate-only outcomes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
import time
import warnings

import numpy as np

from .curvature import (
    block_split,
    curvature_matrix,
    griffiths_min_gap,
    nakano_verdict,
    schur_gap,
)
from .errors import BudgetError, InputError, NotPositiveError, NotPsdError, QuadratureError
from .fields import BUILTIN_NAMES, builtin_field, polynomial_field_from_json
from .inequalities import (
    CheckReport,
    bl_gap,
    bochner_residual,
    ipp_residual,
    prekopa_check,
)
from .metric import ColumnBlockMatrix
from .quadrature import VectorFieldFn, build_rule


# -- parsing helpers -----------------------------------------------------------


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")])
    except ValueError as exc:
        raise InputError(f"malformed point {text!r}") from exc


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
        params[key] = int(num) if key in ("n", "d") else num
    return params


_TERM_RE = re.compile(r"^(?P<coeff>[0-9.eE+-]+)?(?P<rest>(\*?[a-z][0-9]*(\^[0-9]+)?)*)$")


def _parse_poly_component(expr: str, n: int):
    """Parse one polynomial component like ``2*x1*x2^2 - y + 1``."""
    expr = expr.replace(" ", "")
    if not expr:
        raise InputError("empty polynomial component")
    chunks = re.findall(r"[+-]?[^+-]+", expr)
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
                continue
            if factor[0].isalpha():
                var, _, power = factor.partition("^")
                exponent = int(power) if power else 1
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
    if getattr(args, "jet", "exact") != "fd":
        return {}
    return {"jet_mode": "finite_difference", "h": args.h, "richardson": not args.no_richardson}


def _build_field(args):
    if getattr(args, "field_json", None):
        return polynomial_field_from_json(args.field_json, **_jet_kwargs(args))
    if not getattr(args, "field", None):
        raise InputError("no field given (use --field or --field-json)")
    return builtin_field(args.field, _parse_params(args.param), **_jet_kwargs(args))


def _build_rule(args, m: int):
    if args.rule == "gauss_hermite":
        return build_rule(
            "gauss_hermite", order=args.order, m=m, center=args.center, scale=args.scale
        )
    if args.rule == "uniform_grid":
        if args.box is None:
            raise InputError("uniform_grid needs --box lo,hi")
        lo, hi = (float(v) for v in args.box.split(","))
        return build_rule(
            "uniform_grid", box=[(lo, hi)] * m, resolution=args.resolution
        )
    raise InputError(f"unknown rule {args.rule!r}")


# -- report serialization -----------------------------------------------------


def _json_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    x = float(v)
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    return format(x, ".17g")


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {_to_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _json_scalar(obj)


def _report_dict(report: CheckReport) -> dict:
    return {
        "name": report.name,
        "status": report.status,
        "metrics": report.metrics,
        "tolerances": report.tolerances,
        "settings": report.settings,
    }


def _emit(config: dict, checks: list, diagnostics: list, args) -> None:
    doc = {"config": config, "checks": [_report_dict(c) for c in checks],
           "diagnostics": diagnostics}
    if not args.no_timestamp:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    text = _to_json(doc) + "\n"
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


def _cmd_nakano(args, diagnostics):
    field = _build_field(args)
    point = _parse_point(args.point)
    cm = curvature_matrix(field, point)
    verdict = nakano_verdict(cm, tol_psd=args.tol_psd)
    if getattr(args, "field", None) == "raufi_printed":
        diagnostics.append(
            "raufi_printed: the displayed example matrix corresponds to the "
            "corrected field (raufi_corrected); the printed entries give a "
            "different spectrum"
        )
    return [
        CheckReport(
            name="nakano",
            status="pass" if verdict.is_nlogconcave else "fail",
            metrics={
                "lambda_max": verdict.lambda_max,
                "lambda_max_std": verdict.lambda_max_std,
                "asymmetry": cm.asymmetry,
            },
            tolerances={"tol_psd": args.tol_psd},
        )
    ]


def _cmd_griffiths(args, diagnostics):
    field = _build_field(args)
    point = _parse_point(args.point)
    cm = curvature_matrix(field, point)
    value = griffiths_min_gap(cm, n_starts=args.n_starts, seed=args.seed)
    return [
        CheckReport(
            name="griffiths",
            status="pass" if value <= args.tol_psd else "fail",
            metrics={"rank_one_max": value},
            tolerances={"tol_psd": args.tol_psd},
        )
    ]


def _cmd_scan(args, diagnostics):
    if args.field_json:
        raise InputError("scan varies a parameter of a builtin field; "
                         "a --field-json field has no named parameters (use --field)")
    if not args.field:
        raise InputError("no field given (use --field)")
    if "=" not in args.param_range or args.param_range.count(":") != 2:
        raise InputError("--param-range must be name=start:stop:step")
    name, span = args.param_range.split("=", 1)
    start, stop, step = (float(v) for v in span.split(":"))
    if step <= 0:
        raise InputError("scan step must be positive")
    base = _parse_params(args.param)
    point = _parse_point(args.point)
    count = int(round((stop - start) / step)) + 1
    rows = []
    for i in range(count):
        value = start + i * step
        params = dict(base)
        params[name] = value
        field = builtin_field(args.field, params, **_jet_kwargs(args))
        verdict = nakano_verdict(curvature_matrix(field, point), tol_psd=args.tol_psd)
        rows.append((value, verdict.lambda_max, verdict.is_nlogconcave))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["param", "lambda_max", "verdict"])
            for value, lam, ok in rows:
                writer.writerow(
                    [format(value, ".17g"), format(lam, ".17g"), str(ok).lower()]
                )
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
    field = _build_field(args)
    point = _parse_point(args.point)
    cm = curvature_matrix(field, point)
    split = block_split(cm, args.n0)
    if args.v0:
        flat = _parse_point(args.v0)
        v0 = ColumnBlockMatrix.from_flat(flat, field.d)
    else:
        cols = [np.zeros(field.d) for _ in range(args.n0)]
        for c in cols:
            c[0] = 1.0
        v0 = ColumnBlockMatrix(cols)
    gap = schur_gap(split, v0)
    if gap.is_infinite:
        return [
            CheckReport(
                name="schur",
                status="degenerate",
                metrics={"gap": gap.value},
                tolerances={"tol_gap": args.tol_gap},
            )
        ]
    return [
        CheckReport(
            name="schur",
            status="pass" if gap.value >= -args.tol_gap else "fail",
            metrics={"gap": gap.value},
            tolerances={"tol_gap": args.tol_gap},
        )
    ]


def _cmd_bl(args, diagnostics):
    field = _build_field(args)
    rule = _build_rule(args, field.n)
    f = _parse_test_fn(args.test_fn, field.n)
    if f.d != field.d:
        raise InputError(
            f"test function has {f.d} components but the field needs {field.d}"
        )
    return [bl_gap(field, f, rule)]


def _cmd_prekopa(args, diagnostics):
    field = _build_field(args)
    t = _parse_point(args.t)
    rule = _build_rule(args, field.n - args.n0)
    return [
        prekopa_check(
            field, t, args.n0, rule, h=args.marginal_h, tol_psd=args.tol_psd
        )
    ]


def _cmd_bochner(args, diagnostics):
    field = _build_field(args)
    rule = _build_rule(args, field.n)
    psi = _parse_test_fn(args.test_fn, field.n)
    return [bochner_residual(field, psi, rule, tol_res=args.tol_res)]


def _cmd_ipp(args, diagnostics):
    field = _build_field(args)
    rule = _build_rule(args, field.n)
    f = _parse_test_fn(args.test_fn, field.n)
    g_fn = _parse_test_fn(args.test_fn_g or args.test_fn, field.n)
    return [ipp_residual(field, f, g_fn, rule, tol_res=args.tol_res)]


def _cmd_report(args, diagnostics):
    with open(args.config) as fh:
        cfg = json.load(fh)
    checks = []
    for entry in cfg.get("checks", []):
        argv = [entry["name"]] + list(entry.get("args", []))
        sub_args = _make_parser().parse_args(argv)
        _apply_seed_env(sub_args)
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


def _add_common(sub):
    sub.add_argument("--field", choices=BUILTIN_NAMES)
    sub.add_argument("--field-json", help="path to a polynomial field JSON file")
    sub.add_argument("--param", action="append", metavar="NAME=VALUE")
    sub.add_argument("--jet", choices=["exact", "fd"], default="exact")
    sub.add_argument("--h", type=float, default=1e-4)
    sub.add_argument("--no-richardson", action="store_true")
    sub.add_argument("--rule", choices=["gauss_hermite", "uniform_grid"],
                     default="gauss_hermite")
    sub.add_argument("--order", type=int, default=64)
    sub.add_argument("--center", type=float, default=0.0)
    sub.add_argument("--scale", type=float, default=1.0)
    sub.add_argument("--box", help="lo,hi for uniform_grid rules")
    sub.add_argument("--resolution", type=int, default=256)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tol-psd", type=float, default=1e-9)
    sub.add_argument("--out", help="write the JSON report here instead of stdout")
    sub.add_argument("--no-timestamp", action="store_true")


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and shared by the
    process (``run`` and ``report``); parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mlcc",
        description="certification checks for matrix-valued log-concave weights",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("nakano", help="pointwise N-log-concavity verdict")
    _add_common(p)
    p.add_argument("--point", required=True)

    p = subs.add_parser("griffiths", help="rank-one curvature maximization")
    _add_common(p)
    p.add_argument("--point", required=True)
    p.add_argument("--n-starts", type=int, default=32)

    p = subs.add_parser("scan", help="parameter scan of the Nakano verdict")
    _add_common(p)
    p.add_argument("--point", required=True)
    p.add_argument("--param-range", required=True, metavar="NAME=START:STOP:STEP")
    p.add_argument("--csv", help="write scan rows to this CSV file")

    p = subs.add_parser("schur", help="block Schur inequality at a point")
    _add_common(p)
    p.add_argument("--point", required=True)
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--v0", help="flattened V0, comma separated")
    p.add_argument("--tol-gap", type=float, default=1e-8)

    p = subs.add_parser("bl", help="Brascamp-Lieb variance inequality check")
    _add_common(p)
    p.add_argument("--test-fn", required=True, metavar="poly:EXPR[;EXPR...]")

    p = subs.add_parser("prekopa", help="marginal N-log-concavity, two routes")
    _add_common(p)
    p.add_argument("--t", required=True, help="frozen coordinates, comma separated")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--marginal-h", type=float, default=1e-3)

    p = subs.add_parser("bochner", help="Bochner integration-by-parts identity")
    _add_common(p)
    p.add_argument("--test-fn", required=True)
    p.add_argument("--tol-res", type=float, default=1e-6)

    p = subs.add_parser("ipp", help="first-order integration by parts identity")
    _add_common(p)
    p.add_argument("--test-fn", required=True)
    p.add_argument("--test-fn-g")
    p.add_argument("--tol-res", type=float, default=1e-6)

    p = subs.add_parser("report", help="run a batch of checks from a config file")
    _add_common(p)
    p.add_argument("--config", required=True)

    return parser


def _apply_seed_env(args) -> None:
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
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    diagnostics: list[str] = []
    try:
        _apply_seed_env(args)
        # warnings raised anywhere in the command (quadrature tails, say) are
        # reported in the JSON diagnostics, once per distinct message
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            checks = _DISPATCH[args.command](args, diagnostics)
    except (InputError, NotPositiveError, NotPsdError, QuadratureError, BudgetError,
            FileNotFoundError, json.JSONDecodeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diagnostics.extend(dict.fromkeys(str(w.message) for w in caught))
    _emit(_config_echo(args), checks, diagnostics, args)
    return _exit_code(checks)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
