"""Smoke tests of the benchmark itself, on tiny inputs.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root: Path, workload: str, trace: int, seed: int = 1):
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=root, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


@pytest.fixture(scope="module")
def results():
    return {(w, t): run_bench(ROOT, w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(results, workload, trace, section):
    proc, doc = results[(workload, trace)]
    assert proc.returncode == 0, proc.stderr
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_call_counts_repeat_exactly(results, workload):
    _, first = results[(workload, 1)]
    _, again = run_bench(ROOT, workload, 1)
    counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert counts == {k: again["metrics"][k]["value"] for k in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, doc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0 and doc is None


def test_wrong_program_fails_the_run(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    curvature = tmp_path / "src" / "mlcc" / "curvature.py"
    text = curvature.read_text()
    right = "return ExtendedReal(lead - polar.value)"
    assert right in text
    # off by 1e-6: within every route tolerance, but not the worked value 5/6 to 1e-9
    curvature.write_text(text.replace(right, "return ExtendedReal(lead - polar.value + 1e-6)"))
    proc, doc = run_bench(tmp_path, "pointwise_cli", 0)
    assert proc.returncode == 1
    assert doc["correct"] is False and doc["failed"] > 0
