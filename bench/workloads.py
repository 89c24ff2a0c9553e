"""Seeded workloads of the mlcc benchmark and the oracle each check is held to.

A workload owns its inputs, generated from the benchmark seed alone; ``mlcc``
only ever sees those inputs (fields, test functions, points, s and t
values), never the seed.  The timed phase runs :meth:`prologue` once and
then whole cycles of checks; a cycle has a fixed mix of check kinds, so the
latency distribution and the rate do not depend on where a run stops.

Every check returns a result whose ``text`` is the report as the program
emitted it (CLI stdout, or the full-precision JSON of a ``CheckReport``);
the traced run compares these texts byte for byte with the untraced run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import mlcc.cli
import mlcc.fields
import mlcc.inequalities
import mlcc.quadrature

#: Input sizes.  "full" is the benchmark; "smoke" only proves that every
#: metric is emitted, on inputs small enough for a unit test.
SIZES = {
    "full": {"bl_big_order": 48, "bl_small_order": 64, "prekopa_order": 48,
             "trace_cycles": {"bl_batch": 2, "prekopa_sweep": 2, "pointwise_cli": 10}},
    "smoke": {"bl_big_order": 8, "bl_small_order": 32, "prekopa_order": 12,
              "trace_cycles": {"bl_batch": 1, "prekopa_sweep": 1, "pointwise_cli": 1}},
}

#: Cycles of pre-generated inputs; a longer run reuses them in order.
POOL = 512


class OracleError(AssertionError):
    """A check's output disagrees with its oracle."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise OracleError(msg)


@dataclass
class Check:
    """One timed operation: ``run`` calls mlcc, ``verify`` holds it to its oracle.

    ``verify(result, seen)`` may read the results of earlier checks of the
    same cycle from ``seen`` (keyed by ``key``).  ``nodes`` is the number of
    points at which the check's outer loop evaluates the field.
    """

    key: str
    run: Callable[[], object]
    verify: Callable[[object, dict], None]
    nodes: int


# -- result wrappers ------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    text: str
    stderr: str

    @property
    def doc(self) -> dict:
        return json.loads(self.text)

    @property
    def check(self) -> dict:
        return self.doc["checks"][0]


def run_cli(argv) -> CliResult:
    """Run one in-process ``mlcc`` invocation and capture what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mlcc.cli.run(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


@dataclass
class ReportResult:
    report: object

    @property
    def text(self) -> str:
        r = self.report
        return json.dumps([r.name, r.status, r.metrics, r.tolerances, r.settings])


def expect_cli(res: CliResult, code: int, status: str) -> dict:
    expect(res.code == code, f"exit code {res.code}, expected {code}: {res.stderr.strip()}")
    check = res.check
    expect(check["status"] == status, f"status {check['status']}, expected {status}")
    return check["metrics"]


def close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


# -- bl_batch ----------------------------------------------------------------------

_CUBIC_2D = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
_CUBIC_1D = [(i,) for i in range(4)]
#: Variance of F = y^2 under e^{-y^2/2}: 2 sqrt(2 pi).
SCALAR_Y2_GAP = 2.0 * math.sqrt(2.0 * math.pi)


def _components(coeffs, monomials):
    return [[(float(c), degs) for c, degs in zip(row, monomials)] for row in coeffs]


class BlBatch:
    """Criterion 04's library pattern: one DirichletEvaluator per fixture,
    then many seeded cubic test functions through ``bl_gap(..., evaluator=ev)``.

    The per-node loops of the variance and energy passes dominate; jets and
    curvature run only inside the evaluator builds of :meth:`prologue`.
    A cycle is 2 checks at GH 48^2, 5 on the 1-D d=2 fixture and 3 on the
    scalar Gaussian, so the median falls inside the 1-D cluster and p90
    inside the 2-D one.
    """

    name = "bl_batch"

    def __init__(self, size: dict, seed: int, out_dir):
        f, q = mlcc.fields, mlcc.quadrature
        big = q.build_rule("gauss_hermite", order=size["bl_big_order"], m=2)
        small = q.build_rule("gauss_hermite", order=size["bl_small_order"], m=1)
        self.fixtures = {
            "perturbed": (f.builtin_field("perturbed_gaussian_spd"), big),
            "times_spd": (f.builtin_field("gaussian_times_spd",
                                          {"n": 1, "A": np.diag([1.0, 2.0])}), small),
            "scalar": (f.builtin_field("gaussian_scalar", {"n": 1}), small),
        }
        rng = np.random.default_rng(seed)
        self.inputs = [
            {
                "perturbed": rng.uniform(-1.0, 1.0, (2, 2, len(_CUBIC_2D))),
                "times_spd": rng.uniform(-1.0, 1.0, (5, 2, len(_CUBIC_1D))),
                "scalar": rng.uniform(-1.0, 1.0, (2, 1, len(_CUBIC_1D))),
            }
            for _ in range(POOL)
        ]
        self.evaluators = {}
        self.prologue_nodes = sum(rule.count for _, rule in self.fixtures.values())

    def prologue(self) -> None:
        q = mlcc.quadrature
        self.evaluators = {
            key: q.DirichletEvaluator(field, rule) for key, (field, rule) in self.fixtures.items()
        }

    def warmup(self) -> None:
        field, rule = self.fixtures["scalar"]
        ev = mlcc.quadrature.DirichletEvaluator(field, rule)
        check = self._check("warmup", "scalar", [[(1.0, (1,))]], _verify_y, ev)
        check.verify(check.run(), {})

    def _check(self, key, fixture, comps, verify, evaluator=None) -> Check:
        field, rule = self.fixtures[fixture]

        def run():
            ev = evaluator or self.evaluators[fixture]
            fn = mlcc.quadrature.VectorFieldFn.polynomial(field.n, comps)
            return ReportResult(mlcc.inequalities.bl_gap(field, fn, rule, evaluator=ev))

        return Check(key, run, verify, rule.count)

    def cycle(self, i: int) -> list[Check]:
        inp = self.inputs[i % POOL]
        big = [_components(c, _CUBIC_2D) for c in inp["perturbed"]]
        mid = [_components(c, _CUBIC_1D) for c in inp["times_spd"]]
        low = [_components(c, _CUBIC_1D) for c in inp["scalar"]]
        # F = y and F = y^2 alternate; both have closed-form gaps
        special = ([[(1.0, (1,))]], _verify_y) if i % 2 == 0 else ([[(1.0, (2,))]], _verify_y2)
        return [
            self._check("perturbed.0", "perturbed", big[0], _verify_gap),
            self._check("times_spd.0", "times_spd", mid[0], _verify_gap),
            self._check("times_spd.1", "times_spd", mid[1], _verify_gap),
            self._check("times_spd.2", "times_spd", mid[2], _verify_gap),
            self._check("perturbed.1", "perturbed", big[1], _verify_gap),
            self._check("times_spd.3", "times_spd", mid[3], _verify_gap),
            self._check("times_spd.4", "times_spd", mid[4], _verify_gap),
            self._check("scalar.special", "scalar", *special),
            self._check("scalar.0", "scalar", low[0], _verify_gap),
            self._check("scalar.1", "scalar", low[1], _verify_gap),
        ]


def _verify_gap(res: ReportResult, seen) -> float:
    m = res.report.metrics
    gap, rhs = m["gap"], m["rhs"]
    expect(res.report.status == "pass", f"bl_gap status {res.report.status}")
    expect(math.isfinite(gap) and gap >= -1e-6 * max(1.0, rhs), f"bl_gap gap {gap!r} < 0")
    return gap


def _verify_y(res: ReportResult, seen) -> None:
    gap = _verify_gap(res, seen)
    expect(abs(gap) <= 1e-8, f"F=y gap {gap!r}, expected 0")


def _verify_y2(res: ReportResult, seen) -> None:
    gap = _verify_gap(res, seen)
    expect(close(gap, SCALAR_Y2_GAP, 1e-6), f"F=y^2 gap {gap!r}, expected {SCALAR_Y2_GAP!r}")


# -- prekopa_sweep -----------------------------------------------------------------

#: For gaussian_cross_spd, alpha(t) ~ exp(-t^2 (1 - c^2/4)) A, so the
#: marginal's largest curvature eigenvalue is -(2 - c^2/2) for every t.
CROSS_C = 0.5
CROSS_LAMBDA = -(2.0 - CROSS_C**2 / 2.0)


class PrekopaSweep:
    """``mlcc prekopa --n0 1`` through in-process ``cli.run`` at GH 48, m = 1.

    Each check assembles curvature at every fiber node about 41 times and
    runs about 10 restricted quadratures for route A, so the chain
    jet -> curvature -> eigencheck dominates.  A cycle is one check per
    fixture, at seeded t in [-0.5, 0.5].
    """

    name = "prekopa_sweep"
    prologue_nodes = 0
    FIXTURES = (
        ("gaussian_cross_spd", ["--param", f"c={CROSS_C}", "--param", "d=2"], CROSS_LAMBDA),
        ("perturbed_gaussian_spd", [], None),
    )

    def __init__(self, size: dict, seed: int, out_dir):
        self.order = size["prekopa_order"]
        rng = np.random.default_rng(seed)
        self.inputs = rng.uniform(-0.5, 0.5, (POOL, len(self.FIXTURES)))

    def prologue(self) -> None:
        pass

    def _check(self, fixture, t) -> Check:
        name, params, closed_form = fixture
        argv = ["prekopa", "--field", name, *params, f"--t={t!r}", "--n0", "1",
                "--order", str(self.order), "--no-timestamp"]

        def verify(res, seen):
            m = expect_cli(res, 0, "pass")
            expect(m["route_diff"] <= 1e-4, f"{name} route_diff {m['route_diff']!r}")
            lam = m["lambda_max_alpha"]
            expect(lam <= 1e-8, f"{name} lambda_max_alpha {lam!r} > 1e-8")
            if closed_form is not None:
                expect(close(lam, closed_form, 1e-6),
                       f"{name} lambda_max_alpha {lam!r}, expected {closed_form!r}")

        return Check(name, lambda: run_cli(argv), verify, self.order)

    def warmup(self) -> None:
        # GH 8: the same code path as a check at a seventh of its cost
        res = run_cli(["prekopa", "--field", "gaussian_cross_spd", "--t", "0", "--n0", "1",
                       "--order", "8", "--no-timestamp"])
        expect(res.code == 0, f"warm-up prekopa exit code {res.code}")

    def cycle(self, i: int) -> list[Check]:
        ts = self.inputs[i % POOL]
        return [self._check(fx, float(t)) for fx, t in zip(self.FIXTURES, ts)]


# -- pointwise_cli -----------------------------------------------------------------

TOL_PSD = 1e-9  # the CLI's default --tol-psd
TOL_GAP = 1e-8  # the CLI's default --tol-gap
ROUTE_AGREE = 1e-5
#: Worked value of the Schur gap of raufi_corrected at s = 3/4, x = 0, V0 = e1.
SCHUR_WORKED = 5.0 / 6.0


#: s is drawn from [S_LOW, 1] minus a gap of S_GAP on each side of 1/2.  The
#: two jet routes' exit codes are compared, so s stays off the verdict ties:
#: lambda_max crosses 0 at s = 1/2 and the Schur block degenerates at s = 0.
S_LOW = 0.05
S_GAP = 0.02
#: griffiths costs about 1/s, so s is stratified: every block of S_STRATA
#: cycles takes one s from each stratum, in seeded order, and the cost mix
#: is the same in every run.
S_STRATA = 16


def _draw_inputs(rng, count: int) -> list:
    out = []
    while len(out) < count:
        for k in rng.permutation(S_STRATA):
            s = S_LOW + (k + rng.uniform()) / S_STRATA * (1.0 - S_LOW - 2.0 * S_GAP)
            if s >= 0.5 - S_GAP:
                s += 2.0 * S_GAP
            out.append((float(s), _draw_point(rng)))
    return out[:count]


def _draw_point(rng, radius=0.05) -> tuple[float, float]:
    r = radius * math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return float(r * math.cos(phi)), float(r * math.sin(phi))


def _metric(res: CliResult, key: str) -> float:
    return float(res.check["metrics"][key])


def _agree(exact_key: str, metric: str):
    """Oracle of an ``--jet fd`` check: same exit code as the exact check, and
    the metric within ROUTE_AGREE (relative above 1)."""

    def verify(res: CliResult, seen):
        ref = seen.get(exact_key)
        expect(isinstance(ref, CliResult), f"no exact result to compare {exact_key} with")
        expect(res.code == ref.code, f"fd exit code {res.code} != exact {ref.code}")
        a, b = _metric(res, metric), _metric(ref, metric)
        expect(close(a, b, ROUTE_AGREE * max(1.0, abs(b))),
               f"{exact_key}: fd {metric} {a!r} vs exact {b!r}")

    return verify


def _verdict(metric: str, passes: Callable[[float], bool], closed_form=None):
    """Oracle of an exact check: the exit code follows the metric's verdict,
    and the metric matches ``closed_form`` to 1e-9 where one is given."""

    def verify(res: CliResult, seen):
        value = _metric(res, metric)
        ok = passes(value)
        expect_cli(res, 0 if ok else 1, "pass" if ok else "fail")
        if closed_form is not None:
            expect(close(value, closed_form, 1e-9), f"{metric} {value!r}, expected {closed_form!r}")

    return verify


class PointwiseCli:
    """``nakano``, ``schur``, ``griffiths`` and ``scan`` on raufi_corrected
    through in-process ``cli.run``: one jet per op and no quadrature, so the
    per-call cost (argparse, JSON emission, eigensolves) dominates.

    A cycle is 5 exact/fd pairs plus one scan whose jet mode alternates by
    cycle, so half of all ops use ``--jet fd``.  Seeded s in [0, 1] and
    points in a ball of radius 0.05.
    """

    name = "pointwise_cli"
    prologue_nodes = 0

    def __init__(self, size: dict, seed: int, out_dir):
        rng = np.random.default_rng(seed)
        self.inputs = _draw_inputs(rng, POOL)
        self.csv_path = str(out_dir / f"scan_{seed}.csv")

    def prologue(self) -> None:
        pass

    def warmup(self) -> None:
        check = self._op("warmup", "nakano", 0.75, (0.0, 0.0), "exact",
                         _verdict("lambda_max", lambda v: v <= TOL_PSD, -0.5))
        check.verify(check.run(), {})

    @staticmethod
    def _op(key, cmd, s, point, jet, verify, extra=(), nodes=1) -> Check:
        argv = [cmd, "--field", "raufi_corrected", "--param", f"s={s!r}",
                f"--point={point[0]!r},{point[1]!r}", "--jet", jet, "--no-timestamp", *extra]
        return Check(key, lambda: run_cli(argv), verify, nodes)

    def cycle(self, i: int) -> list[Check]:
        s, p = self.inputs[i % POOL]
        o = (0.0, 0.0)
        neg = lambda v: v <= TOL_PSD  # noqa: E731
        schur_ok = lambda v: v >= -TOL_GAP  # noqa: E731
        n0 = ("--n0", "1")
        ops = [
            self._op("nakano.origin", "nakano", s, o, "exact",
                     _verdict("lambda_max", neg, max(-1.0, 1.0 - 2.0 * s))),
            self._op("nakano.origin.fd", "nakano", s, o, "fd",
                     _agree("nakano.origin", "lambda_max")),
            self._op("nakano.p", "nakano", s, p, "exact", _verdict("lambda_max", neg)),
            self._op("nakano.p.fd", "nakano", s, p, "fd", _agree("nakano.p", "lambda_max")),
            self._op("schur.worked", "schur", 0.75, o, "exact",
                     _verdict("gap", schur_ok, SCHUR_WORKED), n0),
            self._op("schur.worked.fd", "schur", 0.75, o, "fd", _agree("schur.worked", "gap"), n0),
            self._op("schur.p", "schur", s, p, "exact", _verdict("gap", schur_ok), n0),
            self._op("schur.p.fd", "schur", s, p, "fd", _agree("schur.p", "gap"), n0),
            self._op("griffiths.p", "griffiths", s, p, "exact", _verdict("rank_one_max", neg)),
            self._op("griffiths.p.fd", "griffiths", s, p, "fd",
                     _agree("griffiths.p", "rank_one_max")),
        ]
        scan = self._op("scan", "scan", 0.0, o, "exact" if i % 2 == 0 else "fd", self._verify_scan,
                        ("--param-range", "s=0:1:0.05", "--csv", self.csv_path), nodes=21)
        return ops + [scan]

    def _verify_scan(self, res: CliResult, seen) -> None:
        m = expect_cli(res, 0, "pass")
        expect(m["points"] == 21 and m["verdict_flips"] == 1, f"scan metrics {m}")
        with open(self.csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        verdicts = [(float(r["param"]), r["verdict"] == "true") for r in rows]
        flip = next((s for s, ok in verdicts if ok), None)
        expect(flip is not None and abs(flip - 0.5) < 1e-12, f"scan flips at {flip}, expected 0.5")


WORKLOADS = {w.name: w for w in (BlBatch, PrekopaSweep, PointwiseCli)}
