"""The benchmark's own tests: every workload at a tiny size, the metric
names and units, the output gate and the tracer.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "seed 3" in proc.stdout and "fail_frac" in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    header, columns = tracer.read_spans(
        BENCH / "results" / f"spans-{workload}-seed1.bin")
    assert header["count"] == len(columns[0]) > 0
    per_name = Counter(header["names"][i] for i in columns[0])
    for name, count in per_name.items():
        if f"{name}.calls" in units:
            assert result["metrics"][f"{name}.calls"]["value"] == count
    assert (BENCH / "results" / f"layers-{workload}-seed1.txt").exists()


def test_per_layer_spec_matches_tracer():
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert spec == tracer.per_layer_units()


def test_gate_fires_on_tampered_digest():
    good = workloads.load_expected()["resolution"]["tiny"]
    result = workloads.execute("resolution", 0, "tiny", expected=good)
    assert result["failed"] == 0
    tampered = dict(good, sha256="0" * 64)
    result = workloads.execute("resolution", 0, "tiny", expected=tampered)
    assert result["failed"] == 1
    assert "digest" in result["failures"][0]


def test_gate_fires_on_wrong_count():
    expected = dict(workloads.load_expected()["contract"]["tiny"])
    expected["items"] += 1
    result = workloads.execute("contract", 0, "tiny", expected=expected)
    assert result["failed"] == 1


def test_gate_fires_on_injected_nonzero_residual(monkeypatch):
    from operad_forge import linf

    original = linf.jacobi_residual
    calls = []

    def residual_once(space, lam, args):
        calls.append(1)
        if len(calls) == 1:
            return args[0]      # a nonzero element in place of zero
        return original(space, lam, args)

    monkeypatch.setattr(linf, "jacobi_residual", residual_once)
    result = workloads.execute("deformation", 0, "tiny")
    assert result["failed"] == 1
    assert "Jacobi residual" in result["failures"][0]


def test_exception_counts_every_check_as_failed(monkeypatch):
    from operad_forge import compare

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(compare, "da_twist_mismatches", broken)
    result = workloads.execute("cochain", 0, "tiny")
    assert result["failed"] == result["attempted"] > 0
    assert "injected" in result["failures"][0]


def test_failed_run_is_not_timed():
    units = {"verdict_s": "s"}
    line = run.result_line({"failed": 1, "attempted": 9,
                            "metrics": {"verdict_s": 1.0}}, units)
    assert line == {"correct": False, "attempted": 9, "failed": 1,
                    "metrics": {}}


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", "contract", "--seed", "0", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode not in (0, 1)
    assert '"correct"' not in proc.stdout


def test_tracer_rebinds_imported_copies_and_restores():
    from operad_forge import contraction, dif_operads, free_operad
    from operad_forge.coeffs import Coefficient

    original = free_operad.replace_region
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = free_operad.replace_region
        assert wrapped is not original
        assert contraction.replace_region is wrapped
        assert dif_operads.replace_region is wrapped
        assert Coefficient.__rmul__ is Coefficient.__mul__
        Coefficient.one() * Coefficient.one()
        2 * Coefficient.one()
        assert t.layer_metrics(1.0)["coeffs.Coefficient.mul.calls"] == 2
    finally:
        t.uninstall()
    assert free_operad.replace_region is original
    assert contraction.replace_region is original


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    inner = t._wrap("inner", lambda: time.sleep(0.02))
    outer = t._wrap("outer", lambda: inner())
    outer()
    metrics = t.layer_metrics(0.04)
    assert metrics["inner.self_s"] >= 0.02
    assert metrics["outer.self_s"] < 0.01
    assert metrics["inner.self_share"] == metrics["inner.self_s"] / 0.04
    assert list(t.parents) == [-1, 0]


def test_tracer_skips_functions_the_program_no_longer_has(monkeypatch):
    monkeypatch.setattr(tracer, "LAYER_FUNCTIONS", tracer.LAYER_FUNCTIONS + [
        ("trees.gone", "trees", "no_such_function", True),
        ("gone.Cls.method", "no_such_module", "Cls.method", True),
    ])
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert "trees.gone" not in t.names and "gone.Cls.method" not in t.names
