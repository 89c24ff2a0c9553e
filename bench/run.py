"""Layered benchmark of mlcc.

    python3 bench/run.py --workload bl_batch --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one process each

With ``--trace 0`` the run sets up (import, fields, rules, inputs, one
warm-up op; the set-up is repeated and its median reported), then runs
whole cycles of checks for ``--seconds`` in a closed loop (one caller, the
next check when the previous one returns) and reports the end-to-end
metrics.  With ``--trace 1`` it runs a fixed list of checks three times:
untraced, with every public function of the package wrapped (see
``tracer.py``), and untraced again; it reports per-layer call counts,
self-time shares, the tracing overhead and the self-checks.  Every check is held to its oracle;
any failure makes the run exit 1.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pinned before NumPy is imported: tiny matrices gain nothing from BLAS threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# cli._apply_seed_env would override the --seed of every mlcc invocation.
os.environ.pop("MLCC_SEED", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("bl_batch", "prekopa_sweep", "pointwise_cli")
SETUP_REPEATS = 5
#: Not used while the benchmark or a change is tuned; kept for confirming claims.
HELD_OUT_SEED = 20261017

#: Calls the per-layer table expects on each workload; a zero there fails the traced run.
EXPECTED_CALLS = {
    "bl_batch": (
        "fields.value", "metric.SpdMatrix.init", "quadrature.variance_functional",
        "quadrature.DirichletEvaluator.energy", "quadrature.VectorFieldFn.value",
        "quadrature.VectorFieldFn.grad", "quadrature.pairwise_sum",
        "metric.PolarOperator.value", "quadrature.DirichletEvaluator.init",
        "metric.PolarOperator.init", "linalg.eigh", "linalg.eigvalsh", "linalg.solve",
    ),
    "prekopa_sweep": (
        "fields.jet", "poly.poly_diff", "poly.poly_eval", "curvature.curvature_from_jet",
        "curvature.block_split", "curvature.schur_gap", "inequalities.theta_alpha_decomposed",
        "inequalities.marginal_theta_fd", "quadrature.integrate_field", "fields.value",
        "metric.SpdMatrix.init", "cli.run", "linalg.eigh", "linalg.eigvalsh", "linalg.solve",
    ),
    "pointwise_cli": (
        "cli.run", "curvature.griffiths_min_gap", "curvature.nakano_verdict",
        "metric.SpdMatrix.sqrt_and_invsqrt", "linalg.eigh", "linalg.eigvalsh", "linalg.solve",
    ),
}


class HarnessError(RuntimeError):
    """The benchmark cannot run here (no mlcc source, bad arguments)."""


def import_mlcc() -> float:
    """Import mlcc (and NumPy with it) from this checkout's ``src``; returns the time in s."""
    src = ROOT / "src"
    if not (src / "mlcc" / "__init__.py").is_file():
        raise HarnessError(f"no mlcc package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import mlcc  # noqa: F401
    import mlcc.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    if Path(mlcc.__file__).resolve().parent != (src / "mlcc").resolve():
        raise HarnessError(f"imported mlcc from {mlcc.__file__}, not from {src}")
    return elapsed


def reimport_mlcc() -> None:
    """Drop every mlcc module and import the package again (NumPy stays loaded)."""
    for name in [m for m in sys.modules if m == "mlcc" or m.startswith("mlcc.")]:
        del sys.modules[name]
    importlib.import_module("mlcc.cli")


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs between NumPy versions
        blas = "unknown"
    return {
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# -- running checks ----------------------------------------------------------------


class Ledger:
    """Counts checks and failures; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def run(self, check, seen):
        """Run one check; returns (latency s, result or None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = check.run()
        except Exception:  # a raising check is a failed check, not a harness crash
            latency = time.perf_counter() - t0
            self._fail(check.key, traceback.format_exc(limit=3))
            return latency, None
        latency = time.perf_counter() - t0
        seen[check.key] = result
        try:
            check.verify(result, seen)
        except Exception as exc:  # oracle mismatch, or output it cannot parse
            self._fail(check.key, f"{type(exc).__name__}: {exc}")
        return latency, result

    def _fail(self, key, msg):
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(f"{key}: {msg}")


#: Speed probe: a fixed mix of interpreter work and tiny LAPACK calls, like
#: mlcc's own, that touches no mlcc code.  PROBE_REFERENCE_S is its median
#: time on the 2-core VM (Intel Xeon) the baseline was taken on.
PROBE_ROUNDS = 60
PROBE_REFERENCE_S = 1.1e-3
PROBE_EVERY_S = 0.1
#: Probes averaged for one segment's slowdown, centred on it.
SMOOTH = 4
_PROBE_TERMS = [(0.5, (i % 3, i % 2)) for i in range(10)]


def probe() -> float:
    """Median time of three runs of the speed probe, in s."""
    import numpy as np

    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(PROBE_ROUNDS):
            for c, degs in _PROBE_TERMS:
                m = c
                for xi, di in zip((0.3, -0.2), degs):
                    if di:
                        m *= xi**di
                acc += m
            acc += float(np.linalg.eigvalsh(a)[0]) + float((a @ a).sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Segments:
    """Splits a timed phase into segments separated by speed probes.

    The machine's speed drifts by tens of percent within minutes (other
    tenants share the host), so a segment's times are also reported divided
    by its slowdown: the mean of the SMOOTH probes nearest to it over
    PROBE_REFERENCE_S.  Probe time is in no segment.
    """

    def __init__(self):
        self.probes = [probe()]
        self.walls, self.latencies = [], []
        self._pending = []
        self._start = time.perf_counter()

    def add(self, latency: float) -> None:
        self._pending.append(latency)
        if time.perf_counter() - self._start >= PROBE_EVERY_S:
            self.close()

    def close(self) -> None:
        self.walls.append(time.perf_counter() - self._start)
        self.latencies.append(self._pending)
        self.probes.append(probe())
        self._pending = []
        self._start = time.perf_counter()

    def slowdowns(self) -> list[float]:
        """Per segment: mean of the probes around it, over PROBE_REFERENCE_S."""
        half = SMOOTH // 2
        return [
            statistics.fmean(self.probes[max(0, k + 1 - half): k + 1 + half]) / PROBE_REFERENCE_S
            for k in range(len(self.walls))
        ]


def timed_run(wl, seconds: float, ledger: Ledger) -> dict:
    """Prologue, then whole cycles until ``seconds`` have passed."""
    seg = Segments()
    t0 = time.perf_counter()
    wl.prologue()
    seg.close()
    i = 0
    while True:
        seen = {}
        for check in wl.cycle(i):
            seg.add(ledger.run(check, seen)[0])
        i += 1
        if time.perf_counter() - t0 >= seconds:
            break
    seg.close()
    slow = seg.slowdowns()
    pairs = [(x, x / f) for lat, f in zip(seg.latencies, slow) for x in lat]
    return {"latencies": [n for _, n in pairs], "raw_latencies": [x for x, _ in pairs],
            "elapsed": sum(w / f for w, f in zip(seg.walls, slow)), "raw_elapsed": sum(seg.walls),
            "cycles": i, "prologue_s": seg.walls[0], "slowdown": statistics.median(slow)}


def traced_run(wl, cycles: int, ledger: Ledger, tracer_mod, dump_path) -> dict:
    """Run the same fixed check list untraced, then traced; compare the reports."""

    def one_pass(tracer=None):
        texts, nodes, checks = [], 0, 0
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.op_id = 0
        wl.prologue()
        for i in range(cycles):
            seen = {}
            for check in wl.cycle(i):
                checks += 1
                if tracer is not None:
                    tracer.op_id = checks
                _, result = ledger.run(check, seen)
                texts.append(None if result is None else result.text)
                nodes += check.nodes
        return texts, time.perf_counter() - t0, nodes, checks

    # untraced passes on both sides of the traced one, so that drift in the
    # machine's speed does not read as tracing overhead
    texts0, before_s, nodes, checks = one_pass()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        texts1, traced_s, _, _ = one_pass(tracer)
    finally:
        tracer.uninstall()
    texts2, after_s, _, _ = one_pass()
    tracer.dump(dump_path)
    return {"tracer": tracer, "identical": texts0 == texts1 == texts2,
            "untraced_s": min(before_s, after_s), "traced_s": traced_s,
            "nodes": nodes, "checks": checks}


# -- metrics ----------------------------------------------------------------------


def end_to_end(setup_s: float, run: dict) -> dict:
    lat_ms = [x * 1e3 for x in run["latencies"]]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    return {
        "setup_s": (setup_s, "s"),
        "checks_per_s": (len(lat_ms) / run["elapsed"], "1/s"),
        "check_ms_p50": (deciles[4], "ms"),
        "check_ms_p90": (deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tr: dict, tracer_mod) -> dict:
    tracer = tr["tracer"]
    totals = tracer.totals()
    traced_s = tr["traced_s"]
    out = {}
    for name, (calls, self_s) in totals.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_share"] = (self_s / traced_s, "ratio")
    for layer in tracer_mod.LAYERS:
        share = sum(s for n, (_, s) in totals.items() if n.split(".")[0] == layer) / traced_s
        out[f"{layer}.self_share"] = (share, "ratio")
    linalg_calls = sum(totals[f"linalg.{k}"][0] for k in ("eigh", "eigvalsh", "solve"))
    out["fields.jet.per_node"] = (totals["fields.jet"][0] / tr["nodes"], "ratio")
    out["metric.SpdMatrix.per_node"] = (totals["metric.SpdMatrix.init"][0] / tr["nodes"], "ratio")
    out["linalg.calls.per_check"] = (linalg_calls / tr["checks"], "ratio")
    out["trace.overhead_frac"] = (traced_s / tr["untraced_s"] - 1.0, "ratio")
    out["trace.untraced_s"] = (tr["untraced_s"], "s")
    out["trace.traced_s"] = (traced_s, "s")
    out["trace.spans"] = (len(tracer.span_name), "count")
    out["trace.checks"] = (tr["checks"], "count")
    return out


def trace_self_checks(workload: str, tr: dict) -> list[str]:
    problems = []
    if not tr["identical"]:
        problems.append("traced reports differ from the untraced reports")
    totals = tr["tracer"].totals()
    for name in EXPECTED_CALLS[workload]:
        if totals[name][0] == 0:
            problems.append(f"{name} reads zero calls on {workload}")
    return problems


def emit(metrics: dict, ledger: Ledger, correct: bool) -> None:
    doc = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc), flush=True)


# -- entry points -----------------------------------------------------------------


def run_workload(args) -> int:
    cold_import_s = import_mlcc()
    print("# env " + json.dumps(environment(args.seed)))
    # A process imports NumPy once, so set-up repeats the import of mlcc
    # alone, then the build and warm-up; each repetition is a segment
    # divided by its slowdown, as in the timed phase.
    seg = Segments()
    for _ in range(SETUP_REPEATS):
        reimport_mlcc()
        seg.close()
    import tracer as tracer_mod
    import workloads

    size = workloads.SIZES["smoke" if args.smoke else "full"]
    OUT_DIR.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    seg.close()  # the benchmark's own imports: in no repetition
    for _ in range(SETUP_REPEATS):
        wl = cls(size, args.seed, OUT_DIR)
        try:
            wl.warmup()
        except workloads.OracleError as exc:
            print(f"FAILED warm-up: {exc}", file=sys.stderr)
            return 1
        seg.close()
    setup = [w / f for w, f in zip(seg.walls, seg.slowdowns())]
    imports, builds = setup[:SETUP_REPEATS], setup[SETUP_REPEATS + 1:]
    setup_s = statistics.median(imports) + statistics.median(builds)

    ledger = Ledger()
    problems = []
    if args.trace:
        dump = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.npz"
        tr = traced_run(wl, size["trace_cycles"][args.workload], ledger, tracer_mod, dump)
        metrics = per_layer(tr, tracer_mod)
        problems = trace_self_checks(args.workload, tr)
        if tr["tracer"].missing:
            print("# targets not defined by the package: " + ", ".join(tr["tracer"].missing))
        print(f"# {args.workload}: {tr['checks']} checks per pass, spans written to {dump}")
        print(f"# {'function':44s} {'calls':>10s} {'self_s':>10s} {'share':>7s}")
        for name, (calls, self_s) in tr["tracer"].totals().items():
            print(f"# {name:44s} {calls:10d} {self_s:10.4f} {self_s / tr['traced_s']:7.3f}")
    else:
        run = timed_run(wl, args.seconds, ledger)
        metrics = end_to_end(setup_s, run)
        n = len(run["latencies"])
        raw_ms = statistics.quantiles([x * 1e3 for x in run["raw_latencies"]], n=10,
                                      method="inclusive")
        print(f"# {args.workload}: {n} checks in {run['cycles']} cycles, "
              f"{run['raw_elapsed']:.2f} s timed; first import with NumPy {cold_import_s:.3f} s; "
              "set-up, divided by slowdown: imports " + ", ".join(f"{s:.4f}" for s in imports)
              + "; builds " + ", ".join(f"{s:.4f}" for s in builds))
        print(f"# check_ms_p50 and check_ms_p90 over {n} checks; "
              f"{n - 1 - int(0.9 * (n - 1))} lie beyond p90")
        print(f"# median slowdown {run['slowdown']:.4f}; wall clock before dividing by it: "
              f"checks_per_s {n / run['raw_elapsed']:.6g}, check_ms_p50 {raw_ms[4]:.6g}, "
              f"check_ms_p90 {raw_ms[8]:.6g}")
        if wl.prologue_nodes:
            # ROADMAP baseline on a 2-core VM: 0.47 ms per node; a factor of
            # several away points at the harness rather than the program
            print(f"# DirichletEvaluator builds: {run['prologue_s'] * 1e3 / wl.prologue_nodes:.3f} "
                  f"ms per node over {wl.prologue_nodes} nodes")
        for k, (v, u) in metrics.items():
            print(f"# {k:16s} {v:14.6g} {u}")
    print(f"# failed_frac {ledger.failed / max(ledger.attempted, 1):.6g} "
          f"({ledger.failed} of {ledger.attempted} checks)")
    for msg in ledger.messages + problems:
        print(f"FAILED {msg}", file=sys.stderr)
    correct = ledger.failed == 0 and not problems
    emit(metrics, ledger, correct)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so set-up time and peak RSS are its own."""
    status, correct, combined, ledger = 0, True, {}, Ledger()
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
        try:
            doc = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAILED {name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        correct = correct and doc["correct"]
        ledger.attempted += doc["attempted"]
        ledger.failed += doc["failed"]
        combined.update({f"{name}.{k}": (v["value"], v["unit"]) for k, v in doc["metrics"].items()})
    emit(combined, ledger, correct)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; only proves that every metric is emitted")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
