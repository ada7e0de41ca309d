"""Tests of the benchmark itself, on its smoke mode (one short job per
workload).  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Target, Tracer, installed  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_trace_reports_every_layer(workload):
    done = _bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1", "--smoke")
    result = _result(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    metrics = result["metrics"]
    assert list(metrics) == list(run.declared_units("per_layer"))
    assert metrics["trace.missing_spans"]["value"] == 0
    assert metrics["trace.coverage_frac"]["value"] >= 0.9
    assert metrics["dynamics.evolve_s"]["value"] > 0
    assert metrics["dynamics.ion_rotations"]["value"] > 0
    assert metrics["planner.hash_calls"]["value"] >= 2
    assert metrics["zernike.error_map_bytes"]["value"] > 0
    if workload != "parallel-verify":
        assert metrics["specfun.inverse_j1_calls"]["value"] > 0
        assert metrics["specfun.bessel_j_points"]["value"] > 0
    if workload == "cli-roundtrip":
        for name in ("cli.decompose_s", "cli.plan_s", "cli.simulate_s", "config.load_s", "planner.load_s"):
            assert metrics[name]["value"] > 0, name
    context = json.loads(done.stdout.splitlines()[-2].removeprefix("context: "))
    assert context["seed"] == 0 and context["passes"][0]["orientation"] == 0.0
    for job in context["passes"][0]["jobs"]:
        assert job["oracle_gap_rad"] <= workloads.ORACLE_TOL_RAD


def test_smoke_end_to_end_metrics():
    done = _bench("--workload", "cli-roundtrip", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    result = _result(done)
    assert result["correct"]
    assert list(result["metrics"]) == list(run.declared_units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "cli-roundtrip: failed_frac = 0 (0 of 1 jobs)" in done.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "serial-compile", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_orientation_is_seeded_and_seed_zero_is_the_reference():
    assert run.orientation(0, 0) == 0.0
    assert run.orientation(7, 3) == run.orientation(7, 3)
    assert run.orientation(7, 0) != run.orientation(8, 0)
    assert all(0.0 <= run.orientation(s, i) < 1.0472 for s in range(5) for i in range(5))


def test_missing_attribute_is_reported_and_the_rest_still_traced():
    def leaf(x):
        return x + 1

    def outer(x):
        return module.leaf(x) * 2

    module = types.SimpleNamespace(leaf=leaf, outer=outer)
    tracer = Tracer()
    targets = [Target("m", "outer", "outer"), Target("m", "leaf", "leaf"), Target("m", "gone", "gone")]
    with installed(tracer, {"m": module}, targets):
        assert module.outer(1) == 4
    assert module.leaf is leaf and module.outer is outer
    assert tracer.missing == ["m.gone"]
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("leaf", 0)]
    self_s = tracer.self_times()
    outer_span, leaf_span = tracer.spans
    assert self_s["outer"] == pytest.approx(
        (outer_span.end - outer_span.start) - (leaf_span.end - leaf_span.start)
    )


def test_oracle_failure_counts_the_job_as_failed(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    sk = run.Package()
    job = workloads.ScenarioJob("annulus", "serial", 1e-2)
    crystal = sk.crystal.generate_hex_crystal(5, 0.2, 0.0)
    report = job.run(sk, crystal, 0.0, tmp_path / "job")
    report.result.theta[0] += 1e-6
    failures, counts = run.check_pass(sk, crystal, 0.0, [(job, tmp_path / "job", report, None)])
    assert failures == 1 and "oracle" in counts[0]["error"]
