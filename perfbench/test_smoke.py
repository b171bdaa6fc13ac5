"""Smoke test of the benchmark at tiny sizes; not part of the Tier-1 suite.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced at smoke-test sizes and
checks that every metric named in BENCHMARK.json is emitted with its unit,
that no job fails on the current code, and that each workload bypasses the
layer the other one measures: ``metric-grid`` never integrates and
``ges-sweep`` never computes an eigenvalue.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = _run(ROOT, workload, trace)
            assert done.returncode == 0, done.stderr
            *_, record, result = done.stdout.strip().splitlines()
            out[workload, trace] = json.loads(record), json.loads(result)
    return out


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(runs, trace, key):
    expected = {m["name"]: m["unit"] for m in CONTRACT[key]}
    for workload in WORKLOADS:
        metrics = runs[workload, trace][1]["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == expected, workload


def test_no_job_fails_on_the_current_code(runs):
    for (workload, trace), (record, result) in runs.items():
        assert result["correct"] and result["failed"] == 0, (workload, trace, record["failures"])
        assert record["fail_frac"] == 0.0
        assert result["attempted"] >= 1


def test_each_workload_bypasses_the_other_layer(runs):
    grid = runs["metric-grid", 1][1]["metrics"]
    ges = runs["ges-sweep", 1][1]["metrics"]
    assert grid["dynamics.integrate.calls"]["value"] == 0
    assert ges["linalg.eig_1x1.calls"]["value"] == 0 and ges["linalg.eig_nxn.calls"]["value"] == 0
    assert ges["dynamics.integrate.calls"]["value"] > 0
    assert grid["linalg.eig_1x1.calls"]["value"] > 0 and grid["linalg.eig_nxn.calls"]["value"] > 0


def test_tracer_restores_every_binding():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads  # noqa: F401  (imports every traced module)
    from tracer import Tracer

    def snapshot():
        mods = [m for k, m in sys.modules.items() if k.startswith("contraction_lab")]
        classes = [v for m in mods for v in vars(m).values() if isinstance(v, type)]
        return [(id(o), dict(vars(o))) for o in mods + classes]

    before = snapshot()
    with Tracer().installed():
        assert snapshot() != before
    assert snapshot() == before


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "ges-sweep", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_speed_probe_samples_during_a_job_and_excludes_its_passes():
    sys.path[:0] = [str(BENCH)]
    import time

    from speed import SAMPLE_PERIOD_S, SpeedProbe

    probe = SpeedProbe()
    with probe.during():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 10 * SAMPLE_PERIOD_S:
            sum(range(1000))
        t1 = time.perf_counter()
    spent, _ = probe.spent_within(t0, t1)
    assert len(probe.samples) >= 3
    assert 0.0 < spent < t1 - t0
    with probe.during():
        pass
    assert probe.samples == [] and probe.spent == []
