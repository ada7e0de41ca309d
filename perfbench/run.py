"""Benchmark of the starkshaper pipeline, run from the root of a checkout:

    python3 perfbench/run.py --workload parallel-verify --seed 0 --seconds 30 --trace 0

One process, closed loop, one job at a time: passes over the workload's
job list (see workloads.py) repeat until `--seconds` of pass time has
been measured.  Correctness checks run between passes, outside the timed
region, and every artifact goes to a temporary directory inside the
checkout that is removed at exit.

Inputs come from `--seed`.  It picks the crystal orientation of the first
pass uniformly in [0, pi/3), and each later pass steps it by the golden
ratio of that interval.  Seed 0 starts at orientation 0, the reference
registry.  Evolve cost depends on orientation, because one node count
serves all ions and the slowest-converging ion sets it: about 7% of
orientations need twice the Gauss-Legendre nodes for
elliptical/parallel/1e-3, which makes that job 2.6x slower.  A run therefore
samples several orientations and reports medians, and results should be
compared at equal seeds.  The context line records each pass's
orientation, wall and CPU seconds and per-job work counts.

`--trace 0` prints the end-to-end metrics (pass_s, setup_s, peak_rss_mb).
`--trace 1` runs each pass twice at the same orientation, untraced and
then traced, and prints the per-layer metrics of layers.py plus the
tracing overhead.  `--smoke` runs one short job per workload once, with
every check and span; the benchmark's tests use it.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it name
every metric with its unit, the failed-job fraction and the run context.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import layers
import workloads
from tracing import Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them under
    `kind` ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}

# Time to import the package (the J1 peak is located at import) and build
# the crystal, in a fresh interpreter as every CLI invocation pays it.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import starkshaper.analysis, starkshaper.cli
from starkshaper.crystal import generate_hex_crystal
generate_hex_crystal({shells}, {spacing}, {orientation!r})
print(time.perf_counter() - t0)
"""


class Package:
    """The starkshaper modules the benchmark calls or wraps."""

    REQUIRED = ("analysis", "cli", "planner", "dynamics", "crystal")
    TRACED_ONLY = ("specfun", "zernike", "config")

    def __init__(self) -> None:
        self.modules: dict[str, object] = {}
        for name in self.REQUIRED + self.TRACED_ONLY:
            try:
                self.modules[name] = importlib.import_module(f"starkshaper.{name}")
            except ImportError:
                if name in self.REQUIRED:
                    raise
        for name, module in self.modules.items():
            setattr(self, name, module)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def orientation(seed: int, index: int) -> float:
    start = 0.0 if seed == 0 else random.Random(seed).random()
    return ((start + index * GOLDEN) % 1.0) * math.pi / 3.0


def measure_setup(orient: float) -> float:
    code = SETUP_PROBE.format(
        src=str(SRC), shells=workloads.CRYSTAL_SHELLS,
        spacing=workloads.CRYSTAL_SPACING, orientation=orient,
    )
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def run_pass(sk, jobs, crystal, orient: float, pass_dir: Path):
    """Run the job list once; returns (wall seconds, CPU seconds of this
    process, [(job, dir, result, error)])."""
    outcomes = []
    t0, c0 = time.perf_counter(), cpu_seconds()
    for k, job in enumerate(jobs):
        out = pass_dir / f"job{k}"
        try:
            outcomes.append((job, out, job.run(sk, crystal, orient, out), None))
        except Exception as exc:  # a failing job is counted, the run goes on
            outcomes.append((job, out, None, exc))
    return time.perf_counter() - t0, cpu_seconds() - c0, outcomes


def check_pass(sk, crystal, orient: float, outcomes) -> tuple[int, list[dict]]:
    """Check every job of a pass; returns (failures, per-job work counts)."""
    failures, counts = 0, []
    for job, out, result, error in outcomes:
        if error is None:
            try:
                counts.append({"job": job.label} | job.check(sk, crystal, orient, out, result))
                continue
            except Exception as exc:  # any check error marks the job failed
                error = exc
        failures += 1
        counts.append({"job": job.label, "error": repr(error)})
        log(f"job {job.label} at orientation {orient!r} failed:")
        log("".join(traceback.format_exception(error)).rstrip())
    return failures, counts


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def context(seed: int) -> dict:
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


@dataclass
class Measured:
    pass_s: list[float] = field(default_factory=list)  # untraced passes
    layer_rows: list[dict] = field(default_factory=list)  # traced passes
    passes: list[dict] = field(default_factory=list)  # orientation, seconds, work
    missing: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def measure(sk, jobs, args, tmp: Path) -> Measured:
    """Run passes until --seconds of pass time is measured (one pass in
    smoke mode); with tracing, each pass has a traced twin."""
    out, tracer = Measured(), Tracer()
    rounds: list[float] = []
    # Start another pass only while it is expected to end nearer to
    # --seconds than stopping now would.
    while not rounds or (
        not args.smoke and sum(rounds) + 0.5 * statistics.median(rounds) < args.seconds
    ):
        index = len(rounds)
        orient = orientation(args.seed, index)
        crystal = sk.crystal.generate_hex_crystal(
            workloads.CRYSTAL_SHELLS, workloads.CRYSTAL_SPACING, orient
        )
        round_s = 0.0
        for is_traced in ((False, True) if args.trace else (False,)):
            pass_dir = tmp / f"pass{index}{'t' if is_traced else ''}"
            tracer.reset()
            if is_traced:
                with installed(tracer, sk.modules, layers.TARGETS):
                    seconds, cpu_s, outcomes = run_pass(sk, jobs, crystal, orient, pass_dir)
            else:
                seconds, cpu_s, outcomes = run_pass(sk, jobs, crystal, orient, pass_dir)
            round_s += seconds
            n_failed, counts = check_pass(sk, crystal, orient, outcomes)
            out.attempted += len(outcomes)
            out.failed += n_failed
            if is_traced:
                row = layers.pass_layer_values(tracer, seconds, dir_bytes(pass_dir))
                row["trace.overhead_frac"] = seconds / out.pass_s[-1] - 1.0
                out.layer_rows.append(row)
                out.missing = tracer.missing
            else:
                out.pass_s.append(seconds)
                out.passes.append(
                    {"orientation": orient, "pass_s": seconds, "cpu_s": cpu_s, "jobs": counts}
                )
            shutil.rmtree(pass_dir, ignore_errors=True)
        rounds.append(round_s)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "starkshaper" / "__init__.py").is_file():
        log(f"error: no package source at {SRC / 'starkshaper'}; run from a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    sk = Package()
    if Path(sk.analysis.__file__).resolve().parent != (SRC / "starkshaper").resolve():
        log(f"error: imported starkshaper from {sk.analysis.__file__}, not from {SRC}")
        return 2

    jobs = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]
    setup_s = None if args.trace else measure_setup(orientation(args.seed, 0))
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        measured = measure(sk, jobs, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    w = args.workload
    if args.trace:
        units = declared_units("per_layer")
        metrics = {
            name: statistics.median(row[name] for row in measured.layer_rows)
            for name in measured.layer_rows[0]
        }
    else:
        units = declared_units("end_to_end")
        metrics = {
            "pass_s": statistics.median(measured.pass_s),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if set(metrics) != set(units):
        log(f"error: measured metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
        return 2
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{w}: {name} = {value:.6g} {units[name]}")
    tail = tail_percentile(measured.pass_s)
    print(f"{w}: pass_s over {len(measured.pass_s)} untraced passes: median "
          f"{statistics.median(measured.pass_s):.6g} s, " + (
              f"p{tail['percentile']:.4g} {tail['value']:.6g} s" if tail
              else "too few passes for a percentile with ten beyond it"))
    print(f"{w}: failed_frac = {measured.failed / measured.attempted:.6g} "
          f"({measured.failed} of {measured.attempted} jobs)")
    info = context(args.seed) | {
        "workload": w, "smoke": args.smoke, "trace": args.trace,
        "pass_s_tail": tail, "missing_spans": measured.missing, "passes": measured.passes,
    }
    print("context: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
