"""End-to-end acceptance checks, one test per headline criterion.

Each test prints a single ``criterion NN ... PASS/FAIL`` line before
asserting, so the suite output doubles as a certification report.
"""

import json
import math

import numpy as np
import pytest

from mlcc import (
    ColumnBlockMatrix,
    DirichletEvaluator,
    QuadraticFormSpec,
    SpdMatrix,
    VectorFieldFn,
    bl_gap,
    block_split,
    bochner_residual,
    build_rule,
    builtin_field,
    conjugate_field,
    curvature_matrix,
    ipp_residual,
    nakano_verdict,
    polar_value,
    prekopa_check,
    schur_gap,
)
from mlcc.cli import run
from mlcc.quadrature import variance_functional

from conftest import random_orthogonal

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _report(num, label, ok):
    print(f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} ({label}) failed"


def _corrected_spectrum(s):
    return sorted([-3.0, -1.0, -1.0 - 2.0 * s, 1.0 - 2.0 * s])


def _printed_spectrum(s):
    root = math.sqrt((s - 1.0) ** 2 + 1.0)
    return sorted([-(s + 1.0) - root, -(s + 1.0) - root,
                   -(s + 1.0) + root, -(s + 1.0) + root])


def _random_poly_fn(rng, n, d):
    exps = [
        e
        for e in np.ndindex(*(4,) * n)
        if sum(e) <= 3
    ]
    comps = []
    for _ in range(d):
        comps.append([(float(rng.uniform(-1, 1)), tuple(e)) for e in exps])
    return VectorFieldFn.polynomial(n, comps)


class TestAcceptance:
    def test_criterion_01_example_spectra(self, capsys):
        ok = True
        with capsys.disabled():
            for s in (0.0, 0.5, 0.75, 1.0):
                target = _corrected_spectrum(s)
                exact = builtin_field("raufi_corrected", {"s": s})
                spec = np.linalg.eigvalsh(
                    curvature_matrix(exact, np.zeros(2)).theta_tilde
                )
                ok &= np.allclose(sorted(spec), target, atol=1e-9)
                fd = builtin_field(
                    "raufi_corrected", {"s": s},
                    jet_mode="finite_difference", h=1e-4, richardson=True,
                )
                spec_fd = np.linalg.eigvalsh(
                    curvature_matrix(fd, np.zeros(2)).theta_tilde
                )
                ok &= np.allclose(sorted(spec_fd), target, atol=1e-5)
                printed = builtin_field("raufi_printed", {"s": s})
                spec_p = np.linalg.eigvalsh(
                    curvature_matrix(printed, np.zeros(2)).theta_tilde
                )
                ok &= np.allclose(sorted(spec_p), _printed_spectrum(s), atol=1e-9)
        # the printed/corrected discrepancy must surface in CLI reports
        code = run(["nakano", "--field", "raufi_printed", "--param", "s=0.75",
                    "--point", "0,0"])
        payload = json.loads(capsys.readouterr().out)
        ok &= bool(payload["diagnostics"]) and code in (0, 1)
        with capsys.disabled():
            _report(1, "displayed example spectra, exact and FD jets", ok)

    def test_criterion_02_threshold_scan(self, capsys):
        rows = []
        for i in range(21):
            s = i * 0.05
            field = builtin_field("raufi_corrected", {"s": s})
            v = nakano_verdict(curvature_matrix(field, np.zeros(2)))
            rows.append((s, v.lambda_max, v.is_nlogconcave))
        flips = [
            (a[0], b[0]) for a, b in zip(rows, rows[1:]) if a[2] != b[2]
        ]
        at_half = next(r for r in rows if abs(r[0] - 0.5) < 1e-12)
        ok = (
            len(flips) == 1
            and flips[0][1] == pytest.approx(0.5)
            and abs(at_half[1]) <= 1e-9
            and at_half[2]
        )
        with capsys.disabled():
            _report(2, "verdict flips once, exactly at the threshold", ok)

    def test_criterion_03_bl_closed_forms(self, gauss1, gh64, capsys):
        rep_lin = bl_gap(gauss1, VectorFieldFn.polynomial(1, [[(1.0, (1,))]]), gh64)
        rep_quad = bl_gap(gauss1, VectorFieldFn.polynomial(1, [[(1.0, (2,))]]), gh64)
        ok = (
            rep_lin.passed
            and abs(rep_lin.metrics["gap"]) <= 1e-8
            and rep_quad.passed
            and abs(rep_quad.metrics["gap"] - 2.0 * SQRT_2PI) <= 1e-6
        )
        with capsys.disabled():
            _report(3, "variance inequality Gaussian equality and gap", ok)

    def test_criterion_04_bl_nonnegativity_random(self, capsys):
        rng = np.random.default_rng(2024)
        fixtures = [
            (builtin_field("gaussian_scalar", {"n": 1}),
             build_rule("gauss_hermite", m=1, order=48)),
            (builtin_field("gaussian_times_spd", {"n": 1, "A": np.diag([1.0, 2.0])}),
             build_rule("gauss_hermite", m=1, order=48)),
            (builtin_field("gaussian_cross_spd", {"c": 0.5, "d": 2}),
             build_rule("gauss_hermite", m=2, order=20, scale=1.0)),
            (builtin_field("perturbed_gaussian_spd", {}),
             build_rule("gauss_hermite", m=2, order=20, scale=1.0)),
        ]
        ok = True
        for field, rule in fixtures:
            evaluator = DirichletEvaluator(field, rule)
            for _ in range(50):
                fn = _random_poly_fn(rng, field.n, field.d)
                rep = bl_gap(field, fn, rule, evaluator=evaluator)
                rhs = rep.metrics["rhs"]
                ok &= rep.metrics["gap"] >= -1e-6 * max(1.0, rhs)
        with capsys.disabled():
            _report(4, "variance inequality holds on 50 random test functions "
                       "per fixture", ok)

    def test_criterion_05_prekopa_two_routes(self, gh64, capsys):
        cases = [
            (builtin_field("gaussian_scalar", {"n": 2}), [0.0]),
            (builtin_field("gaussian_times_spd",
                           {"n": 2, "A": np.diag([1.0, 2.0])}), [0.1]),
            (builtin_field("gaussian_cross_spd", {"c": 0.5, "d": 2}), [0.1]),
        ]
        ok = True
        for field, t in cases:
            rep = prekopa_check(field, t, 1, gh64)
            ok &= rep.passed
            ok &= rep.metrics["route_diff"] <= 1e-4
            ok &= rep.metrics["lambda_max_alpha"] <= 1e-8
        with capsys.disabled():
            _report(5, "marginal curvature agrees across both routes", ok)

    def test_criterion_06_schur_inequality(self, capsys):
        field = builtin_field("raufi_corrected", {"s": 0.75})
        rng = np.random.default_rng(6)
        ok = True
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, 2)
            x *= rng.uniform(0.0, 0.05) / max(np.linalg.norm(x), 1e-12)
            split = block_split(curvature_matrix(field, x), 1)
            for _ in range(100):
                v0 = ColumnBlockMatrix([rng.uniform(-1.0, 1.0, 2)])
                gap = schur_gap(split, v0)
                ok &= (not gap.is_infinite) and gap.value >= -1e-8
        split0 = block_split(curvature_matrix(field, np.zeros(2)), 1)
        worked = schur_gap(split0, ColumnBlockMatrix([np.array([1.0, 0.0])]))
        ok &= abs(worked.value - (1.5 - 2.0 / 3.0)) <= 1e-9
        with capsys.disabled():
            _report(6, "block Schur inequality and its worked value", ok)

    def test_criterion_07_bochner_ipp(self, gauss1, gh64, capsys):
        lin = VectorFieldFn.polynomial(1, [[(1.0, (1,))]])
        quad = VectorFieldFn.polynomial(1, [[(1.0, (2,))]])
        b_lin = bochner_residual(gauss1, lin, gh64)
        b_quad = bochner_residual(gauss1, quad, gh64)
        i_lin = ipp_residual(gauss1, lin, lin, gh64)
        ok = (
            abs(b_lin.metrics["lhs"] - SQRT_2PI) <= 1e-6
            and abs(b_lin.metrics["term_curv"] - SQRT_2PI) <= 1e-6
            and abs(b_quad.metrics["lhs"] - 8.0 * SQRT_2PI) <= 1e-6
            and abs(b_quad.metrics["term_curv"] - 4.0 * SQRT_2PI) <= 1e-6
            and abs(b_quad.metrics["term_hess"] - 4.0 * SQRT_2PI) <= 1e-6
            and abs(i_lin.metrics["lhs"] + SQRT_2PI) <= 1e-6
            and i_lin.metrics["residual"] <= 1e-6
        )
        rule = build_rule("gauss_hermite", m=1, order=48)
        cubic = VectorFieldFn.polynomial(1, [[(1.0, (3,))]])
        residuals = []
        for h in (1e-2, 5e-3, 2.5e-3):
            fd = builtin_field(
                "gaussian_scalar", {"n": 1},
                jet_mode="finite_difference", h=h, richardson=False,
            )
            residuals.append(
                bochner_residual(fd, cubic, rule, tol_res=1.0).metrics["residual"]
            )
        for coarse, fine in zip(residuals, residuals[1:]):
            ok &= 3.5 <= coarse / fine <= 4.5
        with capsys.disabled():
            _report(7, "Bochner/IPP closed forms and FD convergence order", ok)

    def test_criterion_08_conjugation_invariance(self, capsys):
        rng = np.random.default_rng(8)
        ok = True
        for s in (0.4, 0.75):
            field = builtin_field("raufi_corrected", {"s": s})
            x = np.array([0.02, -0.01])
            base = nakano_verdict(curvature_matrix(field, x))
            for _ in range(10):
                p = random_orthogonal(rng, 2)
                v = nakano_verdict(curvature_matrix(conjugate_field(field, p), x))
                ok &= v.is_nlogconcave == base.is_nlogconcave
                ok &= abs(v.lambda_max - base.lambda_max) <= 1e-9
        with capsys.disabled():
            _report(8, "verdict invariant under constant orthogonal conjugation", ok)

    def test_criterion_09_polar_legendre(self, capsys):
        rng = np.random.default_rng(9)
        ok = True
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            b = rng.standard_normal((dim, dim))
            metric = SpdMatrix(b @ b.T + dim * np.eye(dim))
            rank = int(rng.integers(1, dim + 1))
            c = rng.standard_normal((dim, rank))
            spec = QuadraticFormSpec(metric, c @ c.T)
            w = rng.standard_normal(dim)
            v = np.linalg.solve(metric.entries, spec.form @ w)
            u_star, *_ = np.linalg.lstsq(spec.form, metric.entries @ v, rcond=None)
            oracle = float(u_star @ metric.entries @ v)
            got = polar_value(spec, v)
            ok &= not got.is_infinite
            if oracle > 1e-12:
                ok &= abs(got.value - oracle) <= 0.01 * abs(oracle)
        with capsys.disabled():
            _report(9, "polar values match the stationarity oracle", ok)

    def test_criterion_10_cli_contract(self, tmp_path, capsys):
        ok = True
        ok &= run(["nakano", "--field", "raufi_corrected", "--param", "s=0.75",
                   "--point", "0,0"]) == 0
        ok &= run(["nakano", "--field", "raufi_corrected", "--param", "s=0.4",
                   "--point", "0,0"]) == 1
        ok &= run(["nakano", "--field", "gaussian_scalar",
                   "--point", "not,a,number"]) == 2
        ok &= run(["prekopa", "--field", "double_well_scalar", "--t", "0",
                   "--n0", "1", "--order", "32"]) == 3
        capsys.readouterr()
        argv = ["bl", "--field", "gaussian_scalar", "--test-fn", "poly:y^2",
                "--order", "48", "--no-timestamp"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        ok &= run(argv + ["--out", str(out1)]) == 0
        ok &= run(argv + ["--out", str(out2)]) == 0
        ok &= out1.read_bytes() == out2.read_bytes()
        with capsys.disabled():
            _report(10, "CLI exit codes and byte-deterministic reports", ok)
