"""Workloads and correctness oracles of the starkshaper benchmark.

Each workload is a fixed list of jobs; one pass runs the list once, closed
loop, one job at a time.  A job calls only stable entry points with their
default knobs: `analysis.run_scenario(name, mode, tier, crystal=...,
out_dir=...)`, or the `decompose` -> `plan` -> `simulate` click commands.

Why these workloads:

  parallel-verify  Two parallel scenarios (90 and 60 rotations x 91 ions)
                   spending about three quarters of a pass in the
                   Gauss-Legendre panel sweep of `dynamics.evolve_exact`.
                   The planner is under 1% of a pass and `inverse_j1` is
                   never called, so this is the bypass for planner and
                   special-function changes.
  serial-compile   Two serial scenarios (35 and 7 segments).  About 45% of a
                   pass is `specfun.bessel_j`, reached through 200
                   `inverse_j1` calls on 147,000 points that validation,
                   hashing, export and the evolve tables each recompute.
  cli-roundtrip    decompose -> plan -> simulate through the click group
                   for two configs, writing and reading expansion.json and
                   schedule.json and simulating the imported schedule.  The
                   annulus config is mostly error-map work; evolve is a few
                   percent, so this bypasses quadrature changes and guards
                   against work moving from `plan` into `simulate` or
                   `load_schedule`.

The oracles are independent of the quadrature under test: serial
schedules are commensurate, so the rotating-wave phase (`evolve_rwa`) is
exact; parallel schedules are checked against a uniform trapezoid rule of
`instantaneous_coefficient` over one rotation period, which is exact to
rounding for a periodic band-limited drive.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ORACLE_TOL_RAD = 1e-9
MAX_OVER_BOUND = 2.0
TRAPEZOID_NODES = 1024
CRYSTAL_SHELLS = 5
CRYSTAL_SPACING = 0.2


class CheckFailed(Exception):
    """A job's output disagrees with its oracle or bound."""


@dataclass(frozen=True)
class ScenarioJob:
    name: str
    mode: str
    tier: float

    @property
    def label(self) -> str:
        return f"{self.name}/{self.mode}/{self.tier:g}"

    def run(self, sk, crystal, orientation: float, out_dir: Path):
        return sk.analysis.run_scenario(
            self.name, self.mode, self.tier, crystal=crystal, out_dir=out_dir
        )

    def check(self, sk, crystal, orientation: float, out_dir: Path, report) -> dict:
        if not report.measured_over_bound <= MAX_OVER_BOUND:
            raise CheckFailed(
                f"{self.label}: measured/bound = {report.measured_over_bound:.4g} "
                f"> {MAX_OVER_BOUND:g}"
            )
        # The registry thresholds hold at the reference orientation only.
        if orientation == 0.0 and not report.passed:
            raise CheckFailed(
                f"{self.label}: max infidelity {report.max_infidelity:.4e} misses "
                f"the registry threshold {report.threshold:g} at orientation 0"
            )
        gap = _oracle_gap(sk, crystal, report.schedule, report.result.theta)
        return work_counts(report.schedule, crystal) | {"oracle_gap_rad": gap}


@dataclass(frozen=True)
class CliJob:
    label: str
    config: str  # YAML body without the crystal section

    def config_text(self, orientation: float) -> str:
        return self.config + (
            f"crystal: {{shells: {CRYSTAL_SHELLS}, spacing: {CRYSTAL_SPACING}, "
            f"orientation: {orientation!r}}}\n"
        )

    def run(self, sk, crystal, orientation: float, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        config = out_dir / "config.yaml"
        config.write_text(self.config_text(orientation))
        c, o = str(config), str(out_dir)
        for args in (
            ["decompose", "--config", c, "--out", o],
            ["plan", "--config", c, "--expansion", str(out_dir / "expansion.json"), "--out", o],
            ["simulate", "--config", c, "--schedule", str(out_dir / "schedule.json"), "--out", o],
        ):
            _invoke(sk.cli, args)

    def check(self, sk, crystal, orientation: float, out_dir: Path, _result) -> dict:
        schedule = sk.planner.load_schedule(out_dir / "schedule.json")
        theta = _read_theta(out_dir / "evolution.csv")
        if theta.shape != (len(crystal),):
            raise CheckFailed(f"{self.label}: evolution.csv has {theta.size} ions")
        gap = _oracle_gap(sk, crystal, schedule, theta)
        return work_counts(schedule, crystal) | {"oracle_gap_rad": gap}


def _invoke(cli, args: list[str]) -> None:
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cli.main.main(args=args, prog_name="starkshaper", standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise CheckFailed(
                f"starkshaper {args[0]} exited {exc.code}: {sink.getvalue().strip()}"
            ) from None


def _read_theta(path: Path) -> np.ndarray:
    with path.open(newline="") as fh:
        return np.array([float(row["theta"]) for row in csv.DictReader(fh)])


def _oracle_gap(sk, crystal, schedule, theta) -> float:
    if schedule.mode == "serial":
        reference = sk.dynamics.evolve_rwa(crystal, schedule).theta
    else:
        reference = trapezoid_theta(sk.dynamics, crystal, schedule)
    gap = float(np.max(np.abs(np.asarray(theta) - reference)))
    if not gap <= ORACLE_TOL_RAD:
        raise CheckFailed(
            f"{schedule.mode} schedule: |theta - oracle| = {gap:.3e} rad "
            f"> {ORACLE_TOL_RAD:g}"
        )
    return gap


def trapezoid_theta(dynamics, crystal, schedule) -> np.ndarray:
    """Spin phase by the uniform trapezoid rule over one rotation period,
    times the whole number of periods in each segment."""
    period = 2.0 * math.pi / schedule.omega_rad_s
    t = period * np.arange(TRAPEZOID_NODES) / TRAPEZOID_NODES
    theta = np.zeros(len(crystal))
    for seg in schedule.segments:
        rotations = seg.duration_s / period
        whole = round(rotations)
        if abs(rotations - whole) > 1e-9:
            raise CheckFailed(f"segment of {rotations:.9f} rotations is not commensurate")
        for j, (rho, phi) in enumerate(zip(crystal.rho, crystal.phi)):
            f = dynamics.instantaneous_coefficient(seg, rho, phi, schedule.omega_rad_s, t)
            theta[j] += 2.0 * whole * period * float(np.mean(f))
    return theta


def work_counts(schedule, crystal) -> dict:
    rotations = sum(s.duration_s for s in schedule.segments) * schedule.omega_rad_s / (2.0 * math.pi)
    return {
        "segments": len(schedule.segments),
        "ion_rotations": round(len(crystal) * rotations),
    }


_DRIVE = "drive: {u_hz: 1.0e4, omega_hz: 1.8e5}\n"

WORKLOADS: dict[str, tuple] = {
    "parallel-verify": (
        ScenarioJob("elliptical", "parallel", 1e-3),
        ScenarioJob("displaced", "parallel", 1e-2),
    ),
    "serial-compile": (
        ScenarioJob("displaced", "serial", 1e-3),
        ScenarioJob("elliptical", "serial", 1e-3),
    ),
    "cli-roundtrip": (
        CliJob(
            "cli/annulus",
            "pattern: {kind: annulus, amplitude: 1.0}\n"
            "decomposition: {n_max: 24, m_max: 0}\n" + _DRIVE + "mode: serial\n",
        ),
        CliJob(
            "cli/displaced",
            "pattern: {kind: displaced_gaussian, amplitude: 3.0}\n"
            "decomposition: {n_max: 40, m_max: 9}\n" + _DRIVE + "mode: serial\n",
        ),
    ),
}

# One short job per workload that still reaches every check and span the
# workload's full list reaches.
SMOKE: dict[str, tuple] = {
    "parallel-verify": (ScenarioJob("displaced", "parallel", 1e-2),),
    "serial-compile": (ScenarioJob("elliptical", "serial", 1e-2),),
    "cli-roundtrip": (
        CliJob(
            "cli/displaced-small",
            "pattern: {kind: displaced_gaussian, amplitude: 3.0}\n"
            "decomposition: {n_max: 12, m_max: 3}\n" + _DRIVE + "mode: serial\n",
        ),
    ),
}
