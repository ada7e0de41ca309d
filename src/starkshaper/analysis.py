"""Reference studies and end-to-end scenario runs.

Three layers on top of the compiler/simulator stack:

  * closed-form budget helpers (`truncation_bound`, `linear_bound`,
    `required_truncation_error`) relating truncation error and drive
    nonlinearity to worst-ion infidelity at the calibrated gate time;
  * two focused numerical studies: `rwa_study` (exact vs rotating-wave
    spin phase for a single rim ion swept over rotation frequencies) and
    `worst_case_parallel_pair` (the most pessimistic two-order beatnote
    comb, exact vs first-order target), both integrated by the dynamics
    module's spectral trapezoid rule, so the package has one time-domain
    integrator;
  * `run_scenario`, the full pipeline pattern -> decompose -> plan ->
    evolve -> compare against the ideal target, for the named reference
    scenarios, with deterministic CSV/JSON artifact emission.

All artifact writers are timestamp-free so reruns are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .crystal import IonCrystal, generate_hex_crystal, save_crystal_csv
from .dynamics import (
    EvolutionResult,
    _phases,
    _segment_tables,
    evolve_exact,
    evolve_rwa,
    infidelity,
    target_phases,
    write_evolution_csv,
)
from .errors import ConfigError
from .patterns import TargetPattern, make_pattern
from .planner import (
    DEFAULT_PSI,
    DeformationComponent,
    MirrorDeformation,
    PulseSchedule,
    PulseSegment,
    RadialProfile,
    plan_parallel,
    plan_serial,
    save_schedule,
    schedule_hash,
    validate_schedule,
)
from .specfun import bessel_j
from .zernike import ErrorMap, decompose, save_expansion, truncation_error_map

TWO_PI = 2.0 * np.pi

# Reference drive parameters shared by every scenario run.
DEFAULT_U_RAD_S = TWO_PI * 1.0e4
DEFAULT_OMEGA_RAD_S = TWO_PI * 1.8e5
DEFAULT_CRYSTAL_SHELLS = 5
DEFAULT_CRYSTAL_SPACING = 0.2

HISTOGRAM_LOG10_MIN = -18.0
HISTOGRAM_BIN_WIDTH = 0.5

# ---------------------------------------------------------------------------
# infidelity budgets


def required_truncation_error(target_infidelity: float) -> float:
    """Largest relative truncation error compatible with a worst-ion
    infidelity budget when the peak ion is calibrated to a pi rotation.

    Inverts I = sin^2(pi e / 2) <= (pi e / 2)^2, giving e = (2/pi) sqrt(I).
    """
    if target_infidelity < 0:
        raise ValueError(f"infidelity budget must be >= 0, got {target_infidelity}")
    return (2.0 / np.pi) * np.sqrt(target_infidelity)


def truncation_bound(error: float, u_rad_s: float, amplitude: float, t_gate_s: float) -> float:
    """First-order infidelity bound (e * U * A * T)^2.

    `error` is the truncation error relative to the pattern peak and
    `amplitude` the peak itself, so at calibration (U A T = pi/2) the
    bound reduces to (pi e / 2)^2 regardless of the pattern family.
    """
    if error < 0:
        raise ValueError(f"relative error must be >= 0, got {error}")
    return (error * u_rad_s * amplitude * t_gate_s) ** 2


def linear_bound(amplitude: float) -> float:
    """Parallel-mode linearization bound (pi A / 2)^2 at the calibrated
    gate time; `amplitude` is the deformation stroke of a single order."""
    return (np.pi * amplitude / 2.0) ** 2


def infidelity_histogram(values, log10_min: float = HISTOGRAM_LOG10_MIN,
                         bin_width: float = HISTOGRAM_BIN_WIDTH):
    """log10-binned counts; every input lands in a bin (clipped below at
    10**log10_min and above at 1), so counts sum to len(values)."""
    vals = np.clip(np.asarray(values, dtype=float), 10.0 ** log10_min, 1.0)
    edges = np.arange(log10_min, 0.0 + bin_width / 2.0, bin_width)
    counts, _ = np.histogram(np.log10(vals), bins=edges)
    return edges, counts


def write_histogram_csv(edges: np.ndarray, counts: np.ndarray, path: str | Path) -> None:
    path = Path(path)
    with path.open("w") as fh:
        fh.write("bin_left_log10,count\n")
        for left, c in zip(edges[:-1], counts):
            fh.write(f"{left:.17g},{int(c)}\n")


# ---------------------------------------------------------------------------
# exact-vs-RWA single-ion study


@dataclass(frozen=True)
class RwaSeries:
    """Exact vs rotating-wave spin phase at one rotation frequency."""

    omega_rad_s: float
    times_s: np.ndarray
    theta_exact: np.ndarray
    theta_rwa: np.ndarray
    infidelity: np.ndarray
    commensurate_times_s: np.ndarray
    commensurate_infidelity: np.ndarray
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray

    @property
    def max_infidelity(self) -> float:
        return float(np.max(self.infidelity))

    @property
    def max_commensurate_infidelity(self) -> float:
        if self.commensurate_infidelity.size == 0:
            return 0.0
        return float(np.max(self.commensurate_infidelity))


@dataclass(frozen=True)
class RwaStudy:
    u_rad_s: float
    amplitude: float
    order: int
    psi: float
    t_max_s: float
    series: tuple[RwaSeries, ...]


def rwa_study(
    omega_list,
    u_rad_s: float,
    amplitude: float = 0.25,
    m: int = 1,
    sample_count: int = 1000,
    t_max_s: float | None = None,
    psi: float = DEFAULT_PSI,
) -> RwaStudy:
    """Exact vs rotating-wave evolution for a rim ion at (rho, phi) = (1, 0)
    under a single order-m deformation of stroke `amplitude`, for each
    rotation frequency in `omega_list`.

    The RWA reference is theta_rwa(t) = 2 U J1(A) sin(m phi - psi) t.  The
    window defaults to 2.5x the RWA pi-time, sampled uniformly.  The exact
    phase goes through evolve_exact's integrator, one call per rotation
    frequency for the sample times and the commensurate checkpoints, the
    whole rotation periods inside the window.
    """
    omegas = [float(w) for w in np.atleast_1d(np.asarray(omega_list, dtype=float))]
    if not omegas or any(w <= 0 for w in omegas):
        raise ConfigError(f"rotation frequencies must be positive, got {omegas}")
    if u_rad_s <= 0 or amplitude <= 0:
        raise ConfigError("drive strength and deformation amplitude must be positive")
    if m < 1:
        raise ConfigError(f"azimuthal order must be >= 1, got m={m}")
    if sample_count < 2:
        raise ConfigError(f"need at least 2 time samples, got {sample_count}")

    rwa_rate = 2.0 * u_rad_s * bessel_j(1, amplitude) * np.sin(-psi)
    if t_max_s is None:
        if rwa_rate <= 0:
            raise ConfigError(
                "default window needs a positive RWA rate; pass t_max_s explicitly"
            )
        t_max_s = 2.5 * np.pi / rwa_rate
    if t_max_s <= 0:
        raise ConfigError(f"study window must be positive, got {t_max_s}")

    times = np.linspace(0.0, t_max_s, sample_count)
    segment = PulseSegment(
        deformation=MirrorDeformation((DeformationComponent(m, even=RadialProfile(0, (amplitude,))),)),
        beatnotes=(m,), duration_s=t_max_s, u_rad_s=u_rad_s, psi=psi,
    )

    # the rim probe ion at (rho, phi) = (1, 0); the sample times and the
    # commensurate checkpoints, the whole rotation periods inside the
    # window, are certified to 1e-12
    rim_tables = _segment_tables([segment], np.ones(1))[0]
    out = []
    for omega in omegas:
        period = TWO_PI / omega
        t_comm = period * np.arange(1, int(np.floor(t_max_s / period + 1e-9)) + 1)
        theta = _phases(segment, rim_tables, np.zeros(1), omega, np.concatenate([times, t_comm]), 1e-12)[0]
        theta, theta_comm = theta[:sample_count], theta[sample_count:]
        theta_rwa = rwa_rate * times
        infid = infidelity(theta, theta_rwa)
        infid_comm = infidelity(theta_comm, rwa_rate * t_comm)
        edges, counts = infidelity_histogram(infid)
        out.append(RwaSeries(
            omega_rad_s=omega, times_s=times, theta_exact=theta,
            theta_rwa=theta_rwa, infidelity=infid,
            commensurate_times_s=t_comm, commensurate_infidelity=infid_comm,
            histogram_edges=edges, histogram_counts=counts,
        ))
    return RwaStudy(
        u_rad_s=u_rad_s, amplitude=amplitude, order=m, psi=psi,
        t_max_s=t_max_s, series=tuple(out),
    )


def write_rwa_series_csv(series: RwaSeries, path: str | Path) -> None:
    """Time-series CSV with the commensurate checkpoints interleaved and
    flagged in the is_commensurate column."""
    rows = []
    for t, te, tr, i in zip(series.times_s, series.theta_exact,
                            series.theta_rwa, series.infidelity):
        rows.append((t, te, tr, i, 0))
    rate = (series.theta_rwa[-1] / series.times_s[-1]) if series.times_s[-1] else 0.0
    for t, i in zip(series.commensurate_times_s, series.commensurate_infidelity):
        rows.append((t, np.nan, rate * t, i, 1))
    rows.sort(key=lambda r: (r[0], r[4]))
    path = Path(path)
    with path.open("w") as fh:
        fh.write("time_s,theta_exact,theta_rwa,sigma_x_exact,sigma_x_rwa,"
                 "infidelity,is_commensurate\n")
        for t, te, tr, i, flag in rows:
            sx_e = np.cos(te) if np.isfinite(te) else np.nan
            fh.write(
                f"{t:.17g},{te:.17g},{tr:.17g},{sx_e:.17g},{np.cos(tr):.17g},"
                f"{i:.17g},{flag}\n"
            )


# ---------------------------------------------------------------------------
# worst-case two-order parallel comb


@dataclass(frozen=True)
class ParallelPairStudy:
    m1: int
    amplitude: float
    second_amplitude: float
    u_rad_s: float
    omega_rad_s: float
    t_total_s: float
    rotations: int
    infidelity: np.ndarray
    max_infidelity: float
    bound: float


def worst_case_parallel_pair(
    m1: int,
    amplitude: float,
    u_rad_s: float,
    omega_rad_s: float,
    crystal: IonCrystal,
    t_total_s: float | None = None,
    second_amplitude: float | None = None,
    psi: float = DEFAULT_PSI,
    tol: float = 1e-12,
) -> ParallelPairStudy:
    """Exact vs first-order evolution for the most pessimistic parallel
    comb: orders m1 and 2*m1 driven together, where the product sideband
    of the lower order lands exactly on the upper beatnote.

    Radial profiles are the bounded-by-1 monomials rho^m1 and rho^(2 m1).
    `second_amplitude` defaults to `amplitude`; set it to 0.0 to recover
    the single-order case.  The gate time defaults to the calibrated
    U*A*T = pi/2, rounded to whole rotation periods.
    """
    if m1 < 1:
        raise ConfigError(f"base order must be >= 1, got m1={m1}")
    if amplitude <= 0:
        raise ConfigError(f"deformation amplitude must be positive, got {amplitude}")
    amp2 = amplitude if second_amplitude is None else float(second_amplitude)
    if amp2 < 0:
        raise ConfigError(f"second amplitude must be >= 0, got {amp2}")

    # rho^p is the Zernike radial polynomial R_p^p
    components = [DeformationComponent(m1, even=RadialProfile(m1, (amplitude,)))]
    beatnotes = (m1,)
    if amp2 > 0:
        components.append(DeformationComponent(2 * m1, even=RadialProfile(2 * m1, (amp2,))))
        beatnotes = (m1, 2 * m1)
    deformation = MirrorDeformation(tuple(components))

    if t_total_s is None:
        t_base = np.pi / (2.0 * u_rad_s * amplitude)
        rotations = max(1, round(t_base * omega_rad_s / TWO_PI))
    else:
        rotations = max(1, round(t_total_s * omega_rad_s / TWO_PI))
    t_total = rotations * TWO_PI / omega_rad_s

    segment = PulseSegment(
        deformation=deformation, beatnotes=beatnotes, duration_s=t_total,
        u_rad_s=u_rad_s, psi=psi,
    )
    schedule = PulseSchedule(
        mode="parallel", omega_rad_s=omega_rad_s, segments=(segment,),
        target_u_rad_s=u_rad_s / 2.0, gate_time_s=t_total,
        amplitude=amplitude + amp2,
    )
    exact = evolve_exact(crystal, schedule, tol=tol)
    first_order = evolve_rwa(crystal, schedule)
    infid = infidelity(exact.theta, first_order.theta)
    return ParallelPairStudy(
        m1=m1, amplitude=amplitude, second_amplitude=amp2, u_rad_s=u_rad_s,
        omega_rad_s=omega_rad_s, t_total_s=t_total, rotations=rotations,
        infidelity=infid, max_infidelity=float(np.max(infid)),
        bound=linear_bound(amplitude),
    )


# ---------------------------------------------------------------------------
# named reference scenarios


@dataclass(frozen=True)
class ScenarioSpec:
    pattern_kind: str
    amplitude: float
    n_max: int
    m_max: int
    threshold: float


# (name, mode, tier) -> parameter set.  Tier labels the infidelity target
# family; the elliptical parallel tier-2 threshold is 3e-3 because the
# shallower 0.2 stroke trades residual nonlinearity against truncation.
SCENARIOS: dict[tuple[str, str, float], ScenarioSpec] = {
    ("annulus", "serial", 1e-2): ScenarioSpec("annulus", 1.0, 24, 0, 1e-2),
    ("annulus", "serial", 1e-3): ScenarioSpec("annulus", 1.0, 54, 0, 1e-3),
    ("elliptical", "serial", 1e-2): ScenarioSpec("elliptical_gaussian", 0.5, 26, 10, 1e-2),
    ("elliptical", "serial", 1e-3): ScenarioSpec("elliptical_gaussian", 0.5, 32, 12, 1e-3),
    ("elliptical", "parallel", 1e-2): ScenarioSpec("elliptical_gaussian", 0.4, 26, 10, 1e-2),
    ("elliptical", "parallel", 1e-3): ScenarioSpec("elliptical_gaussian", 0.2, 32, 12, 3e-3),
    ("displaced", "serial", 1e-2): ScenarioSpec("displaced_gaussian", 3.0, 40, 9, 1e-2),
    ("displaced", "serial", 1e-3): ScenarioSpec("displaced_gaussian", 3.0, 40, 20, 1e-3),
    ("displaced", "parallel", 1e-2): ScenarioSpec("displaced_gaussian", 0.3, 40, 9, 1e-2),
    ("displaced", "parallel", 1e-3): ScenarioSpec("displaced_gaussian", 0.3, 40, 20, 1e-3),
}

# Figure ids -> scenario runs whose artifacts contain the plotted data.
FIGURES: dict[str, tuple[tuple[str, str, float], ...]] = {
    "fig3": (("annulus", "serial", 1e-2),),
    "fig4": (("annulus", "serial", 1e-2),),
    "fig5": (("annulus", "serial", 1e-2), ("annulus", "serial", 1e-3)),
    "fig6": (("elliptical", "serial", 1e-2), ("elliptical", "serial", 1e-3)),
    "fig7": (("elliptical", "serial", 1e-2), ("elliptical", "serial", 1e-3)),
    "fig8": (("elliptical", "parallel", 1e-2),),
    "fig9": (("elliptical", "parallel", 1e-3),),
    "fig10": (("displaced", "serial", 1e-2), ("displaced", "serial", 1e-3)),
    "fig11": (("displaced", "serial", 1e-2), ("displaced", "serial", 1e-3)),
    "fig12": (("displaced", "parallel", 1e-2), ("displaced", "parallel", 1e-3)),
}


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    mode: str
    tier: float
    parameters: dict
    threshold: float
    max_infidelity: float
    passed: bool
    gate_time_s: float
    total_duration_s: float
    wall_time_s: float
    segment_count: int
    error_disk_max: float
    error_ion_max: float
    bound: float
    measured_over_bound: float
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    schedule_sha256: str
    warnings: tuple[str, ...]
    pattern: TargetPattern
    expansion: object
    schedule: PulseSchedule
    result: EvolutionResult
    error_map: ErrorMap
    crystal: IonCrystal

    def to_json_dict(self) -> dict:
        return {
            "scenario": {"name": self.name, "mode": self.mode, "tier": self.tier},
            "parameters": self.parameters,
            "threshold": self.threshold,
            "maxima": {
                "max_infidelity": self.max_infidelity,
                "error_disk_max": self.error_disk_max,
                "error_ion_max": self.error_ion_max,
                "truncation_bound": self.bound,
                "measured_over_bound": self.measured_over_bound,
            },
            "passed": bool(self.passed),
            "timing": {
                "gate_time_s": self.gate_time_s,
                "total_duration_s": self.total_duration_s,
                "wall_time_s": self.wall_time_s,
                "segment_count": self.segment_count,
            },
            "schedule_sha256": self.schedule_sha256,
            "warnings": list(self.warnings),
        }


def scenario_key(name: str, mode: str, tier: float) -> tuple[str, str, float]:
    key = (str(name), str(mode), float(tier))
    if key not in SCENARIOS:
        known = sorted({k[0] for k in SCENARIOS})
        raise ConfigError(
            f"no reference parameter set for scenario={name!r} mode={mode!r} "
            f"tier={tier!r}; known scenarios: {known}, modes: serial/parallel, "
            f"tiers: 1e-2/1e-3"
        )
    return key


def run_scenario(
    name: str,
    mode: str,
    tier: float,
    crystal: IonCrystal | None = None,
    tol: float = 1e-12,
    out_dir: str | Path | None = None,
) -> ScenarioReport:
    """Full pipeline for one named scenario: build the pattern, decompose,
    plan, evolve exactly, and score against the ideal target phases.

    With `out_dir` set, writes report.json, evolution.csv (+ metadata
    sidecar), error_map.csv, histogram.csv, schedule.json, expansion.json
    and crystal.csv into that directory.
    """
    key = scenario_key(name, mode, tier)
    spec = SCENARIOS[key]
    if crystal is None:
        crystal = generate_hex_crystal(DEFAULT_CRYSTAL_SHELLS, DEFAULT_CRYSTAL_SPACING)

    pattern = make_pattern(spec.pattern_kind, spec.amplitude)
    expansion = decompose(pattern, spec.n_max, spec.m_max)
    error_map = truncation_error_map(pattern, expansion, crystal=crystal)

    planner = plan_serial if mode == "serial" else plan_parallel
    schedule = planner(
        expansion, DEFAULT_U_RAD_S, DEFAULT_OMEGA_RAD_S, pattern_peak=pattern.peak_value()
    )
    report = validate_schedule(schedule)

    result = evolve_exact(crystal, schedule, tol=tol)
    theta_target = target_phases(
        crystal, pattern, schedule.target_u_rad_s, schedule.gate_time_s
    )
    result = result.with_targets(theta_target)
    max_infid = result.max_infidelity

    bound = truncation_bound(
        error_map.ion_max, schedule.target_u_rad_s, pattern.peak_value(),
        schedule.gate_time_s,
    )
    if mode == "parallel":
        bound = bound + linear_bound(spec.amplitude)
    edges, counts = infidelity_histogram(result.infidelity)

    scenario = ScenarioReport(
        name=key[0], mode=key[1], tier=key[2],
        parameters={
            "pattern_kind": spec.pattern_kind,
            "amplitude": spec.amplitude,
            "n_max": spec.n_max,
            "m_max": spec.m_max,
            "u_rad_s": DEFAULT_U_RAD_S,
            "omega_rad_s": DEFAULT_OMEGA_RAD_S,
            "psi": DEFAULT_PSI,
            "ion_count": len(crystal),
            "tolerance": tol,
        },
        threshold=spec.threshold,
        max_infidelity=max_infid,
        passed=bool(max_infid < spec.threshold),
        gate_time_s=schedule.gate_time_s,
        total_duration_s=schedule.total_duration_s,
        wall_time_s=schedule.wall_time_s,
        segment_count=len(schedule.segments),
        error_disk_max=error_map.disk_max,
        error_ion_max=error_map.ion_max,
        bound=bound,
        measured_over_bound=max_infid / bound if bound > 0 else np.inf,
        histogram_edges=edges, histogram_counts=counts,
        schedule_sha256=schedule_hash(schedule),
        warnings=tuple(report.warnings),
        pattern=pattern, expansion=expansion, schedule=schedule,
        result=result, error_map=error_map, crystal=crystal,
    )
    if out_dir is not None:
        write_scenario_artifacts(scenario, out_dir)
    return scenario


def write_scenario_artifacts(report: ScenarioReport, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "report.json").open("w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_evolution_csv(report.result, report.crystal, out / "evolution.csv")
    report.error_map.write_csv(out / "error_map.csv")
    write_histogram_csv(report.histogram_edges, report.histogram_counts,
                        out / "histogram.csv")
    save_schedule(report.schedule, out / "schedule.json")
    save_expansion(report.expansion, out / "expansion.json")
    save_crystal_csv(report.crystal, out / "crystal.csv")


def reproduce_figure(
    figure_id: str,
    out_dir: str | Path,
    tol: float = 1e-12,
) -> list[ScenarioReport]:
    """Run every scenario backing one figure id (fig3..fig12), or each
    registry scenario once for "all"; artifacts land in
    out_dir/<name>_<mode>_<tier>/."""
    if figure_id == "all":
        runs = tuple(SCENARIOS)
    elif figure_id in FIGURES:
        runs = FIGURES[figure_id]
    else:
        raise ConfigError(
            f"unknown figure id {figure_id!r}; expected 'all' or one of {sorted(FIGURES)}"
        )
    reports = []
    for name, mode, tier in runs:
        sub = Path(out_dir) / f"{name}_{mode}_{tier:g}"
        reports.append(run_scenario(name, mode, tier, tol=tol, out_dir=sub))
    return reports
