"""The one verdict rule of ``mlcc.inequalities``: every check states its conditions as
(name, value, bound, side) and ``_verdict`` derives the status from them.

A table over the seven checks puts each condition exactly at its bound, one ulp inside
it and one ulp outside it, by a chosen tolerance or a patched metric binding, and reads
the statuses the checks gave before the rule: pass, pass and fail.  Hypothesis compares
the rule on one condition with ``_status``, the rule it replaced, kept here verbatim.
"""

import math
import types

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import mlcc.inequalities  # noqa: E402
from mlcc import (  # noqa: E402
    bl_gap,
    bochner_residual,
    build_rule,
    builtin_field,
    curvature_matrix,
    griffiths_check,
    ipp_residual,
    nakano_check,
    prekopa_check,
    schur_check,
)
from mlcc.inequalities import _verdict  # noqa: E402
from mlcc.metric import ExtendedReal  # noqa: E402
from mlcc.quadrature import VectorFieldFn  # noqa: E402


def _status(value: float, ok: bool) -> str:
    """The status of every check from its metric ``value``: degenerate when the value
    is not a finite number (an overflowed integral, an infinite polar, a NaN
    eigenvalue), else pass when ``ok`` and fail when not.  A Prekopa check whose
    hypothesis gate fails is the one report that is degenerate without it."""
    return "degenerate" if not math.isfinite(value) else "pass" if ok else "fail"


FLOATS = st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0])
SIDES = st.sampled_from(["<=", ">="])


@settings(max_examples=500, derandomize=True, deadline=None)
@given(value=FLOATS, bound=FLOATS, side=SIDES, at_bound=st.booleans())
def test_one_condition_is_the_old_rule(value, bound, side, at_bound):
    bound = value if at_bound else bound
    ok = value <= bound if side == "<=" else value >= bound
    assert _verdict([("metric", value, bound, side)]) == _status(value, ok)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.tuples(FLOATS, FLOATS, SIDES), min_size=1, max_size=4))
def test_many_conditions_take_the_worst_status(conditions):
    # degenerate before fail before pass, whatever the order of the conditions
    alone = [_verdict([("metric", *c)]) for c in conditions]
    worst = min(alone, key=["degenerate", "fail", "pass"].index)
    assert _verdict([("metric", *c) for c in conditions]) == worst


def _ulp(x: float, where: str, up: bool) -> float:
    """``x`` itself ("at"), else its neighbour above when ``up`` and below when not
    ("inside"), or the other way round ("outside")."""
    if where == "at":
        return x
    return math.nextafter(x, math.inf if up == (where == "inside") else -math.inf)


RAUFI = builtin_field("raufi_corrected", {"s": 0.3})
CM = curvature_matrix(RAUFI, np.array([0.03, -0.02]))
GAUSS = builtin_field("gaussian_scalar", {"n": 1})
GH32 = build_rule("gauss_hermite", order=32, m=1)
GH64 = build_rule("gauss_hermite", order=64, m=1)
F = VectorFieldFn.polynomial(1, [[(0.1, (2,)), (0.05, (1,))]])
G = VectorFieldFn.polynomial(1, [[(0.2, (1,))]])
CROSS = builtin_field("gaussian_cross_spd", {})


def _nakano(monkeypatch, where):
    lam = nakano_check(CM).metrics["lambda_max"]
    return nakano_check(CM, tol_psd=_ulp(lam, where, up=True))


def _griffiths(monkeypatch, where):
    value = griffiths_check(CM).metrics["rank_one_max"]
    return griffiths_check(CM, tol_psd=_ulp(value, where, up=True))


def _schur(monkeypatch, where):
    gap = schur_check(CM, 1).metrics["gap"]
    return schur_check(CM, 1, tol_gap=-_ulp(gap, where, up=False))


def _bl(monkeypatch, where):
    # an energy of 0 makes the tolerance the relative one itself and the gap -lhs, exactly
    evaluator = types.SimpleNamespace(energy=lambda f, rel_null_tol: ExtendedReal(0.0))
    lhs = [0.0]
    monkeypatch.setattr(mlcc.inequalities, "variance_functional", lambda *a: lhs[0])
    bound = -bl_gap(GAUSS, F, GH64, evaluator=evaluator).tolerances["tol_gap"]
    lhs[0] = -_ulp(bound, where, up=True)
    return bl_gap(GAUSS, F, GH64, evaluator=evaluator)


def _ipp(monkeypatch, where):
    # |lhs| and |rhs| are below 1, so the scaled tolerance is tol_res itself
    residual = ipp_residual(GAUSS, F, G, GH64).metrics["residual"]
    return ipp_residual(GAUSS, F, G, GH64, tol_res=_ulp(residual, where, up=True))


def _bochner(monkeypatch, where):
    residual = bochner_residual(GAUSS, F, GH64).metrics["residual"]
    return bochner_residual(GAUSS, F, GH64, tol_res=_ulp(residual, where, up=True))


def _lambda_max_alpha(monkeypatch, where):
    # route A's spectrum tops out at the placed value; the fiber nodes' stack is read as is
    top = _ulp(1e-8, where, up=False)
    spectrum = mlcc.inequalities.generalized_spectrum
    monkeypatch.setattr(mlcc.inequalities, "generalized_spectrum", lambda cm: spectrum(cm)
                        if cm.theta_tilde.ndim == 3 else np.array([-1.0, top]))
    return prekopa_check(CROSS, [0.1], 1, GH32, tol_psd=1e-8)


def _route_diff(monkeypatch, where):
    diff = prekopa_check(CROSS, [0.1], 1, GH32).metrics["route_diff"]
    monkeypatch.setattr(mlcc.inequalities, "ROUTE_TOL", _ulp(diff, where, up=True))
    return prekopa_check(CROSS, [0.1], 1, GH32)


def _schur_route_diff(monkeypatch, where):
    # the second route's gap is moved off the margin, so this diff is far above route_diff
    gap = mlcc.inequalities.schur_gap
    monkeypatch.setattr(mlcc.inequalities, "schur_gap",
                        lambda split, v0: ExtendedReal(gap(split, v0).value + 0.25))
    diff = prekopa_check(CROSS, [0.1], 1, GH32).metrics["schur_route_diff"]
    monkeypatch.setattr(mlcc.inequalities, "ROUTE_TOL", _ulp(diff, where, up=True))
    return prekopa_check(CROSS, [0.1], 1, GH32)


#: (check, condition's metric, its bound from the report's tolerances, side)
CONDITIONS = [
    (_nakano, "lambda_max", lambda tol: tol["tol_psd"], "<="),
    (_griffiths, "rank_one_max", lambda tol: tol["tol_psd"], "<="),
    (_schur, "gap", lambda tol: -tol["tol_gap"], ">="),
    (_bl, "gap", lambda tol: -tol["tol_gap"], ">="),
    (_ipp, "residual", lambda tol: tol["tol_res"], "<="),
    (_bochner, "residual", lambda tol: tol["tol_res"], "<="),
    (_lambda_max_alpha, "lambda_max_alpha", lambda tol: tol["tol_psd"], "<="),
    (_route_diff, "route_diff", lambda tol: tol["tol_route"], "<="),
    (_schur_route_diff, "schur_route_diff", lambda tol: tol["tol_route"], "<="),
]


@pytest.mark.parametrize("where, status", [("at", "pass"), ("inside", "pass"),
                                           ("outside", "fail")])
@pytest.mark.parametrize("case, metric, bound_of, side", CONDITIONS,
                         ids=[c[0].__name__.strip("_") for c in CONDITIONS])
def test_a_condition_at_its_bound(monkeypatch, case, metric, bound_of, side, where, status):
    report = case(monkeypatch, where)
    value, bound = report.metrics[metric], bound_of(report.tolerances)
    # the report itself shows the value placed where the case meant it to be
    assert bound == _ulp(value, where, up=side == "<=")
    assert report.status == status
