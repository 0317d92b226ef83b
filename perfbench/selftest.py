"""Tests of the benchmark itself (tiny sizes; about half a minute).

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import respalloc  # noqa: E402
import harness  # noqa: E402
from tracing import Tracer, layer_targets  # noqa: E402

TINY = {
    "line2-const": {"n": 48, "epochs": 2, "res": 3},
    "planar6-sym": {"n": 8, "epochs": 2, "res": 3},
    "weave-rel": {"count": 2, "steps": 12, "epochs": 2, "res": 3},
}


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    result, details = harness.run(workload, 3, 0.0, trace, sizes=TINY[workload])
    want = declared_metrics("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert result["correct"], details["failures"]
    assert result["attempted"] > 0 and result["failed"] == 0
    assert details["machine"]["seed"] == 3 and details["machine"]["nproc"] >= 1


def test_workloads_match_the_declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)


def test_property_counts_repeat_for_a_fixed_seed():
    runs = [harness.run("line2-const", 5, 0.0, False, sizes=TINY["line2-const"])[1]
            for _ in range(2)]
    assert runs[0]["properties"] == runs[1]["properties"]
    assert runs[0]["gamma_err"] == runs[1]["gamma_err"]


def test_corrupted_filter_output_raises_fail_share(monkeypatch):
    clean, _ = harness.run("line2-const", 4, 0.0, True, sizes=TINY["line2-const"])
    assert clean["metrics"]["fail_share"]["value"] == 0.0

    original = harness.solve_filter

    def corrupted(problem, *args, **kwargs):
        sol = original(problem, *args, **kwargs)
        return dataclasses.replace(sol, u=sol.u + 1e-4)

    # Only the benchmark's own reference to the solver is replaced, so the
    # certificate sees a wrong optimum while the package runs unchanged.
    monkeypatch.setattr(harness, "solve_filter", corrupted)
    bad, details = harness.run("line2-const", 4, 0.0, True, sizes=TINY["line2-const"])
    assert bad["metrics"]["fail_share"]["value"] > 0.0
    assert not bad["correct"]
    assert any("KKT certificate" in note for note in details["failures"])


def test_tracer_restores_every_entry_point():
    before = [owner.__dict__[attr] for owner, attr, _, _ in layer_targets(respalloc)]
    tracer = Tracer()
    with tracer.patched(respalloc):
        assert all(owner.__dict__[attr] is not fn for (owner, attr, _, _), fn
                   in zip(layer_targets(respalloc), before))
    after = [owner.__dict__[attr] for owner, attr, _, _ in layer_targets(respalloc)]
    assert after == before


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    rows = tracer.summary()
    outer, inner = rows["outer"], rows["inner"]
    assert outer["self_s"] + inner["incl_s"] == pytest.approx(outer["incl_s"])


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "line2-const",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
