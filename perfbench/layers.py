"""Where the benchmark's spans sit, and the per-layer metrics made from
them.

Each target names the attribute a caller looks up: `run_scenario` finds
`decompose`, `plan_serial`, ... in `analysis`'s namespace, the CLI finds
its own imports in `cli`'s, the compiled radial profiles find
`inverse_j1` in `planner`'s, and `inverse_j1` finds `bessel_j` in
`specfun`'s.  One span name can sit at several attributes.

Layer `_s` metrics are self times per pass, except the entry points
(`cli.*_s`) and `analysis.write_artifacts_s`, which are inclusive: they
are meant to show work moving between stages.  `analysis.write_artifacts_s`
is the time inside any artifact writer, a writer called by another counted
once.  `trace.coverage_frac` is the share of the pass inside root spans
(`analysis.run_scenario` or a CLI command), `trace.overhead_frac` the traced
pass over its untraced twin, minus 1.  A layer a workload never reaches
reads 0 (the CLI layers on the `run_scenario` workloads, `specfun` on
parallel-verify).  The run reports the median over its traced passes.
"""

from __future__ import annotations

import math
import os

import numpy as np

from tracing import Target


def _ion_rotations(tracer, a, _result) -> None:
    schedule = a["schedule"]
    seconds = sum(s.duration_s for s in schedule.segments)
    tracer.add("ion_rotations", len(a["crystal"]) * seconds * schedule.omega_rad_s / (2.0 * math.pi))


def _points(counter: str, arg: str):
    def count(tracer, a, _result) -> None:
        tracer.add(counter, np.size(a[arg]))

    return count


def _segments(tracer, _a, result) -> None:
    tracer.add("segments", len(result.segments))


def _bytes_of(counter: str):
    def count(tracer, a, _result) -> None:
        tracer.add(counter, os.path.getsize(a["path"]))

    return count


def _sites(span: str, modules: tuple[str, ...], attr: str, count=None) -> list[Target]:
    return [Target(m, attr, span, count) for m in modules]


ARTIFACT_WRITERS = {
    "analysis.write_artifacts", "planner.save", "zernike.error_map_write",
    "zernike.save_expansion", "dynamics.write_evolution_csv", "analysis.write_histogram",
}

TARGETS: list[Target] = [
    Target("analysis", "run_scenario", "analysis.run_scenario"),
    Target("analysis", "write_scenario_artifacts", "analysis.write_artifacts"),
    Target("analysis", "write_histogram_csv", "analysis.write_histogram"),
    *[Target("cli", f"main.commands.{c}.callback", f"cli.{c}") for c in ("decompose", "plan", "simulate")],
    Target("cli", "load_config", "config.load"),
    Target("cli", "load_schedule", "planner.load"),
    *_sites("zernike.decompose", ("analysis", "cli"), "decompose"),
    *_sites("zernike.error_map", ("analysis", "cli"), "truncation_error_map"),
    Target("zernike", "ErrorMap.write_csv", "zernike.error_map_write", _bytes_of("error_map_bytes")),
    *_sites("zernike.save_expansion", ("analysis", "cli"), "save_expansion"),
    *_sites("planner.plan", ("analysis", "cli"), "plan_serial", _segments),
    *_sites("planner.plan", ("analysis", "cli"), "plan_parallel", _segments),
    *_sites("planner.validate", ("analysis", "cli", "planner"), "validate_schedule"),
    *_sites("planner.hash", ("analysis", "cli", "dynamics"), "schedule_hash"),
    *_sites("planner.save", ("analysis", "cli"), "save_schedule", _bytes_of("schedule_bytes")),
    *_sites("dynamics.evolve", ("analysis", "cli"), "evolve_exact", _ion_rotations),
    *_sites("dynamics.write_evolution_csv", ("analysis", "cli"), "write_evolution_csv"),
    Target("planner", "inverse_j1", "specfun.inverse_j1", _points("inverse_j1_points", "y")),
    Target("specfun", "bessel_j", "specfun.bessel_j", _points("bessel_j_points", "x")),
]


def pass_layer_values(tracer, pass_s: float, artifact_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced pass, all but trace.overhead_frac,
    which needs the pass's untraced twin."""
    self_s = tracer.self_times()
    calls: dict[str, int] = {}
    for s in tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    evolve_s = self_s.get("dynamics.evolve", 0.0)
    c = tracer.counts
    return {
        "dynamics.evolve_s": evolve_s,
        "dynamics.ion_rotations": round(c["ion_rotations"]),
        "dynamics.ion_rotations_per_s": c["ion_rotations"] / evolve_s if evolve_s > 0 else 0.0,
        "specfun.inverse_j1_calls": calls.get("specfun.inverse_j1", 0),
        "specfun.inverse_j1_points": c["inverse_j1_points"],
        "specfun.inverse_j1_s": self_s.get("specfun.inverse_j1", 0.0),
        "specfun.bessel_j_calls": calls.get("specfun.bessel_j", 0),
        "specfun.bessel_j_points": c["bessel_j_points"],
        "specfun.bessel_j_s": self_s.get("specfun.bessel_j", 0.0),
        "planner.plan_s": self_s.get("planner.plan", 0.0),
        "planner.validate_s": self_s.get("planner.validate", 0.0),
        "planner.hash_s": self_s.get("planner.hash", 0.0),
        "planner.hash_calls": calls.get("planner.hash", 0),
        "planner.save_s": self_s.get("planner.save", 0.0),
        "planner.segments": c["segments"],
        "planner.schedule_bytes": c["schedule_bytes"],
        "planner.load_s": self_s.get("planner.load", 0.0),
        "cli.decompose_s": tracer.total_times({"cli.decompose"}),
        "cli.plan_s": tracer.total_times({"cli.plan"}),
        "cli.simulate_s": tracer.total_times({"cli.simulate"}),
        "config.load_s": self_s.get("config.load", 0.0),
        "zernike.decompose_s": self_s.get("zernike.decompose", 0.0),
        "zernike.error_map_s": self_s.get("zernike.error_map", 0.0),
        "zernike.error_map_write_s": self_s.get("zernike.error_map_write", 0.0),
        "zernike.error_map_bytes": c["error_map_bytes"],
        "analysis.write_artifacts_s": tracer.total_times(ARTIFACT_WRITERS),
        "analysis.artifact_bytes": artifact_bytes,
        "trace.coverage_frac": tracer.root_time() / pass_s,
        "trace.missing_spans": len(tracer.missing),
    }
