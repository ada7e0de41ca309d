"""The compiler: turn a Zernike expansion into an executable pulse schedule.

Serial protocol: one segment per nonzero azimuthal component.  The mirror
deformation for order m is precompensated through the Bessel transfer so
that, under the rotating-wave approximation, each segment contributes its
component of the target pattern at full strength:

    m = 0:        delta(rho)          = arccos(A P0(rho)) - psi
    m > 0, even:  delta(rho) cos(m phi_lab), delta = J1^-1(A Pm(rho))
    m > 0, odd:   delta(rho) sin(m phi_lab), delta = J1^-1(A Qm(rho))

with the beatnote at m * omega and every segment sharing one duration.

Parallel protocol: a single segment whose deformation superposes all
components at once (no precompensation; the m = 0 part is halved because
the static transfer passes it at twice the gain of the rotating orders)
and drives the whole beatnote comb simultaneously.  Accurate to first
order in the pattern amplitude.

Durations are calibrated so the peak-pattern ion rotates by exactly pi:
T_base = pi / (2 U_eff peak), with U_eff = U (serial) or U/2 (parallel).
Schedules with rotating content round T up to an integer number of crystal
rotation periods (so the non-static terms integrate to zero exactly) and
scale the segment strength down to keep the pi calibration; purely static
(m = 0 only) schedules take T_base as is.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, PrecompensationRangeError
from .specfun import J1_PEAK_VALUE, J1_PEAK_X, inverse_j1
from .zernike import ZernikeExpansion

DEFAULT_PSI = -np.pi / 2.0
EXPORT_RHO_POINTS = 512
_RANGE_CHECK_RHO = 4096
_ARCCOS_CLIP_TOLERANCE = 0.05
_COMPONENT_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class DeformationComponent:
    """One azimuthal order of a mirror surface: even(rho) * cos(m phi_lab)
    + odd(rho) * sin(m phi_lab).  Either part may be None."""

    m: int
    even: object | None = None  # callable rho -> radians
    odd: object | None = None

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ConfigError(f"deformation order must be >= 0, got m={self.m}")
        if self.even is None and self.odd is None:
            raise ConfigError(f"component m={self.m} has neither even nor odd part")
        if self.m == 0 and self.odd is not None:
            raise ConfigError("m=0 has no sin partner")

    def evaluate(self, rho, phi_lab) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        phi_lab = np.asarray(phi_lab, dtype=float)
        total = 0.0
        if self.even is not None:
            e = self.even(rho)
            total = total + (e * np.cos(self.m * phi_lab) if self.m else e * np.ones_like(phi_lab))
        if self.odd is not None:
            total = total + self.odd(rho) * np.sin(self.m * phi_lab)
        return total


@dataclass(frozen=True, eq=False)
class MirrorDeformation:
    components: tuple[DeformationComponent, ...]

    def __post_init__(self) -> None:
        ms = [c.m for c in self.components]
        if len(set(ms)) != len(ms):
            raise ConfigError(f"duplicate azimuthal orders in deformation: {sorted(ms)}")

    def evaluate(self, rho, phi_lab) -> np.ndarray:
        rho_b, phi_b = np.broadcast_arrays(np.asarray(rho, float), np.asarray(phi_lab, float))
        total = np.zeros(rho_b.shape)
        for comp in self.components:
            total = total + comp.evaluate(rho_b, phi_b)
        return total

    def orders(self) -> tuple[int, ...]:
        return tuple(sorted(c.m for c in self.components))


@dataclass(frozen=True, eq=False)
class PulseSegment:
    deformation: MirrorDeformation
    beatnotes: tuple[int, ...]  # integer multiples of the rotation frequency
    duration_s: float
    u_rad_s: float
    psi: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigError(f"segment duration must be positive, got {self.duration_s}")
        if self.u_rad_s <= 0:
            raise ConfigError(f"segment strength must be positive, got {self.u_rad_s}")
        if any(b < 0 or b != int(b) for b in self.beatnotes):
            raise ConfigError(f"beatnote multipliers must be non-negative integers: {self.beatnotes}")

    def mu_values(self, omega_rad_s: float) -> tuple[float, ...]:
        """Beatnote angular frequencies in rad/s."""
        return tuple(b * omega_rad_s for b in self.beatnotes)


@dataclass(frozen=True, eq=False)
class PulseSchedule:
    mode: str  # "serial" | "parallel"
    omega_rad_s: float
    segments: tuple[PulseSegment, ...]
    target_u_rad_s: float  # strength entering the target phases
    gate_time_s: float  # duration entering the target phases
    amplitude: float  # pattern amplitude A (report bookkeeping)
    dm_reset_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("serial", "parallel"):
            raise ConfigError(f"unknown schedule mode {self.mode!r}")
        if self.omega_rad_s <= 0:
            raise ConfigError("rotation frequency must be positive")
        if not self.segments:
            raise ConfigError("schedule has no segments")
        if self.mode == "parallel" and len(self.segments) != 1:
            raise ConfigError("parallel schedules have exactly one segment")

    @property
    def total_duration_s(self) -> float:
        return float(sum(s.duration_s for s in self.segments))

    @property
    def wall_time_s(self) -> float:
        """Beam-on time plus mirror reset overhead between segments."""
        return self.total_duration_s + self.dm_reset_time_s * max(0, len(self.segments) - 1)


def _check_j1_range(values: np.ndarray, m: int, rho: np.ndarray, part: str) -> None:
    worst = int(np.argmax(np.abs(values)))
    if abs(values[worst]) > J1_PEAK_VALUE:
        raise PrecompensationRangeError(
            f"precompensation out of range for {part} m={m}: |A*profile| = "
            f"{abs(values[worst]):.6f} > max J1 = {J1_PEAK_VALUE:.6f} at rho = {rho[worst]:.4f}; "
            "reduce the pattern amplitude"
        )


def plan_serial(
    exp: ZernikeExpansion,
    u_rad_s: float,
    omega_rad_s: float,
    psi: float = DEFAULT_PSI,
    segment_rotations: int | None = None,
    pattern_peak: float | None = None,
    dm_reset_time_s: float = 0.0,
) -> PulseSchedule:
    """Compile a serial schedule: one precompensated segment per component.

    `segment_rotations` overrides the automatic choice of the smallest
    commensurate duration; `pattern_peak` supplies the exact pattern
    maximum for the pi calibration (defaults to the reconstruction's max
    on a dense grid).
    """
    if u_rad_s <= 0 or omega_rad_s <= 0:
        raise ConfigError("U and omega must be positive")
    profiles = exp.radial_profiles()
    amp = exp.amplitude
    peak = _resolve_peak(profiles, pattern_peak)

    rho_check = np.linspace(0.0, 1.0, _RANGE_CHECK_RHO)
    segments_spec: list[tuple[int, str]] = []
    for m in profiles.active_orders(floor=_COMPONENT_FLOOR):
        even_vals = amp * profiles.even(m, rho_check)
        odd_vals = amp * profiles.odd(m, rho_check)
        if np.max(np.abs(even_vals)) > _COMPONENT_FLOOR:
            segments_spec.append((m, "even"))
        if m > 0 and np.max(np.abs(odd_vals)) > _COMPONENT_FLOOR:
            segments_spec.append((m, "odd"))
    if not segments_spec:
        raise ConfigError("expansion has no components above threshold; nothing to plan")

    rotating = any(m > 0 for m, _ in segments_spec)
    t_base = np.pi / (2.0 * u_rad_s * peak)
    t_seg, u_seg, rotations = _commensurate(
        t_base, u_rad_s, omega_rad_s, segment_rotations, force=rotating
    )

    segments = []
    for m, part in segments_spec:
        if m == 0:
            arg = amp * profiles.even(0, rho_check)
            overshoot = np.max(np.abs(arg)) - 1.0
            if overshoot > _ARCCOS_CLIP_TOLERANCE:
                raise PrecompensationRangeError(
                    f"arccos domain violated for m=0: |A*P0| reaches {np.max(np.abs(arg)):.4f} "
                    f"(> 1 + {_ARCCOS_CLIP_TOLERANCE}); reduce the pattern amplitude"
                )

            def arccos_fn(rho, _p=profiles, _a=amp, _psi=psi):
                return np.arccos(np.clip(_a * _p.even(0, rho), -1.0, 1.0)) - _psi

            comp = DeformationComponent(0, even=arccos_fn)
        elif part == "even":
            vals = amp * profiles.even(m, rho_check)
            _check_j1_range(vals, m, rho_check, "even component")

            def even_fn(rho, _p=profiles, _a=amp, _m=m):
                return inverse_j1(_a * _p.even(_m, rho))

            comp = DeformationComponent(m, even=even_fn)
        else:
            vals = amp * profiles.odd(m, rho_check)
            _check_j1_range(vals, m, rho_check, "odd component")

            def odd_fn(rho, _p=profiles, _a=amp, _m=m):
                return inverse_j1(_a * _p.odd(_m, rho))

            comp = DeformationComponent(m, odd=odd_fn)
        segments.append(
            PulseSegment(
                deformation=MirrorDeformation((comp,)),
                beatnotes=(m,),
                duration_s=t_seg,
                u_rad_s=u_seg,
                psi=psi,
            )
        )

    return PulseSchedule(
        mode="serial",
        omega_rad_s=omega_rad_s,
        segments=tuple(segments),
        target_u_rad_s=u_seg,
        gate_time_s=t_seg,
        amplitude=amp,
        dm_reset_time_s=dm_reset_time_s,
    )


def plan_parallel(
    exp: ZernikeExpansion,
    u_rad_s: float,
    omega_rad_s: float,
    psi: float = DEFAULT_PSI,
    total_rotations: int | None = None,
    pattern_peak: float | None = None,
) -> PulseSchedule:
    """Compile a parallel schedule: one mirror setting, all beatnotes at once.

    No Bessel precompensation; the realized pattern is (U/2) * F-tilde to
    first order in the amplitude, so the pi calibration uses U_eff = U/2.
    The m = 0 deformation component is halved relative to the rotating
    orders because the static transfer has twice their gain.
    """
    if u_rad_s <= 0 or omega_rad_s <= 0:
        raise ConfigError("U and omega must be positive")
    profiles = exp.radial_profiles()
    amp = exp.amplitude
    peak = _resolve_peak(profiles, pattern_peak)

    rho_check = np.linspace(0.0, 1.0, _RANGE_CHECK_RHO)
    comps = []
    comb = []
    for m in profiles.active_orders(floor=_COMPONENT_FLOOR):
        has_even = np.max(np.abs(profiles.even(m, rho_check))) > _COMPONENT_FLOOR
        has_odd = m > 0 and np.max(np.abs(profiles.odd(m, rho_check))) > _COMPONENT_FLOOR
        even_fn = odd_fn = None
        if m == 0:

            def even_fn(rho, _p=profiles, _a=amp):
                return 0.5 * _a * _p.even(0, rho)

        else:
            if has_even:

                def even_fn(rho, _p=profiles, _a=amp, _m=m):
                    return _a * _p.even(_m, rho)

            if has_odd:

                def odd_fn(rho, _p=profiles, _a=amp, _m=m):
                    return _a * _p.odd(_m, rho)

        comps.append(DeformationComponent(m, even=even_fn, odd=odd_fn))
        comb.append(m)
    if not comps:
        raise ConfigError("expansion has no components above threshold; nothing to plan")

    t_base = np.pi / (u_rad_s * peak)  # U_eff = U/2
    t_run, u_run, rotations = _commensurate(
        t_base, u_rad_s, omega_rad_s, total_rotations, force=any(m > 0 for m in comb)
    )

    segment = PulseSegment(
        deformation=MirrorDeformation(tuple(comps)),
        beatnotes=tuple(comb),
        duration_s=t_run,
        u_rad_s=u_run,
        psi=psi,
    )
    return PulseSchedule(
        mode="parallel",
        omega_rad_s=omega_rad_s,
        segments=(segment,),
        target_u_rad_s=0.5 * u_run,
        gate_time_s=t_run,
        amplitude=amp,
        dm_reset_time_s=0.0,
    )


def _resolve_peak(profiles, pattern_peak: float | None) -> float:
    if pattern_peak is not None:
        if pattern_peak <= 0:
            raise ConfigError("pattern peak must be positive")
        return float(pattern_peak)
    rho = np.linspace(0.0, 1.0, 1024)
    phi = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    return float(np.max(np.abs(profiles.reconstruct(rho[:, None], phi[None, :]))))


def _commensurate(t_base, u, omega, rotations_override, force):
    """Pick (T, U, r): duration, scaled strength, rotation count."""
    period = 2.0 * np.pi / omega
    if rotations_override is None and not force:
        return t_base, u, t_base / period
    if rotations_override is not None:
        r = int(rotations_override)
        if r < 1:
            raise ConfigError(f"rotation count must be >= 1, got {rotations_override}")
    else:
        # smallest integer r with r*period >= t_base (tiny slack so an
        # exactly integer t_base is not bumped up by rounding noise)
        r = max(1, int(np.ceil(t_base / period - 1e-9)))
    t = r * period
    return t, u * (t_base / t), r


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    warnings: tuple[str, ...]
    metrics: dict


def validate_schedule(schedule: PulseSchedule, omega_rad_s: float | None = None) -> ValidationReport:
    """Diagnostics: commensurability, precompensation margins, linear-regime
    margin, wall time.  Never raises; structural problems come back as
    warnings with ok=False."""
    omega = schedule.omega_rad_s if omega_rad_s is None else omega_rad_s
    warnings: list[str] = []
    period = 2.0 * np.pi / omega
    rho = np.linspace(0.0, 1.0, 2048)

    seg_metrics = []
    for i, seg in enumerate(schedule.segments):
        rot = seg.duration_s / period
        commensurate = abs(rot - round(rot)) < 1e-9
        orders = seg.deformation.orders()
        max_stroke = 0.0
        j1_margin = None
        for comp in seg.deformation.components:
            for part_name, part in (("even", comp.even), ("odd", comp.odd)):
                if part is None:
                    continue
                vals = np.abs(part(rho))
                max_stroke = max(max_stroke, float(np.max(vals)))
                if schedule.mode == "serial" and comp.m > 0:
                    margin = J1_PEAK_X - float(np.max(vals))
                    j1_margin = margin if j1_margin is None else min(j1_margin, margin)
                    if margin < -1e-9:
                        warnings.append(
                            f"segment {i}: {part_name} m={comp.m} stroke exceeds the "
                            f"invertible range by {-margin:.3e} rad"
                        )
        if schedule.mode == "serial":
            if len(seg.beatnotes) != 1:
                warnings.append(f"segment {i}: serial segments need exactly one beatnote")
            if len(seg.deformation.components) != 1:
                warnings.append(f"segment {i}: serial segments need exactly one component")
            elif seg.beatnotes and seg.beatnotes[0] != orders[0]:
                warnings.append(
                    f"segment {i}: beatnote multiplier {seg.beatnotes[0]} does not match "
                    f"deformation order {orders[0]}"
                )
        else:
            if tuple(sorted(seg.beatnotes)) != orders:
                warnings.append(
                    f"segment {i}: parallel comb {seg.beatnotes} does not cover the "
                    f"deformation orders {orders}"
                )
        if not commensurate and any(m > 0 for m in orders):
            warnings.append(
                f"segment {i}: rotating content with non-commensurate duration "
                f"({rot:.6f} rotation periods)"
            )
        seg_metrics.append(
            {
                "rotations": rot,
                "commensurate": commensurate,
                "max_stroke_rad": max_stroke,
                "j1_margin_rad": j1_margin,
                "beatnotes": list(seg.beatnotes),
            }
        )

    amp = abs(schedule.amplitude)
    linear_margin = None
    if schedule.mode == "parallel":
        linear_margin = 0.06 - amp
        if amp > 0.06:
            warnings.append(
                f"parallel amplitude A={amp:.3f} is beyond the comfortable linear regime "
                f"(A <= 0.06); expect linearization infidelity near (pi*A/2)^2 in the worst case"
            )

    metrics = {
        "mode": schedule.mode,
        "segments": seg_metrics,
        "total_duration_s": schedule.total_duration_s,
        "wall_time_s": schedule.wall_time_s,
        "reset_overhead_s": schedule.wall_time_s - schedule.total_duration_s,
        "linear_margin": linear_margin,
    }
    structural = [w for w in warnings if "linear regime" not in w]
    return ValidationReport(ok=not structural, warnings=tuple(warnings), metrics=metrics)


# ---------------------------------------------------------------------------
# JSON interchange: the "compiled program".  Radial functions travel as
# samples on a fixed rho grid; import rebuilds them by linear interpolation
# (exact at the nodes, which is what the round-trip property checks).


def _sample(fn, rho_grid: np.ndarray) -> list[float]:
    return [float(v) for v in np.asarray(fn(rho_grid), dtype=float)]


def schedule_to_json_dict(schedule: PulseSchedule) -> dict:
    rho_grid = np.linspace(0.0, 1.0, EXPORT_RHO_POINTS)
    return {
        "mode": schedule.mode,
        "omega_rad_s": schedule.omega_rad_s,
        "target_u_rad_s": schedule.target_u_rad_s,
        "gate_time_s": schedule.gate_time_s,
        "amplitude": schedule.amplitude,
        "dm_reset_time_s": schedule.dm_reset_time_s,
        "rho_grid": [float(r) for r in rho_grid],
        "segments": [
            {
                "duration_s": seg.duration_s,
                "u_rad_s": seg.u_rad_s,
                "psi": seg.psi,
                "beatnotes": list(seg.beatnotes),
                "components": [
                    {
                        "m": comp.m,
                        "even": None if comp.even is None else _sample(comp.even, rho_grid),
                        "odd": None if comp.odd is None else _sample(comp.odd, rho_grid),
                    }
                    for comp in seg.deformation.components
                ],
            }
            for seg in schedule.segments
        ],
    }


class _InterpolatedRadial:
    """Radial function rebuilt from exported samples."""

    def __init__(self, rho_grid: np.ndarray, samples: np.ndarray):
        self.rho_grid = rho_grid
        self.samples = samples

    def __call__(self, rho):
        return np.interp(np.asarray(rho, dtype=float), self.rho_grid, self.samples)


def schedule_from_json_dict(payload: dict) -> PulseSchedule:
    try:
        rho_grid = np.asarray(payload["rho_grid"], dtype=float)
        segments = []
        for seg in payload["segments"]:
            comps = []
            for c in seg["components"]:
                even = odd = None
                if c.get("even") is not None:
                    even = _InterpolatedRadial(rho_grid, np.asarray(c["even"], dtype=float))
                if c.get("odd") is not None:
                    odd = _InterpolatedRadial(rho_grid, np.asarray(c["odd"], dtype=float))
                comps.append(DeformationComponent(int(c["m"]), even=even, odd=odd))
            segments.append(
                PulseSegment(
                    deformation=MirrorDeformation(tuple(comps)),
                    beatnotes=tuple(int(b) for b in seg["beatnotes"]),
                    duration_s=float(seg["duration_s"]),
                    u_rad_s=float(seg["u_rad_s"]),
                    psi=float(seg["psi"]),
                )
            )
        schedule = PulseSchedule(
            mode=str(payload["mode"]),
            omega_rad_s=float(payload["omega_rad_s"]),
            segments=tuple(segments),
            target_u_rad_s=float(payload["target_u_rad_s"]),
            gate_time_s=float(payload["gate_time_s"]),
            amplitude=float(payload["amplitude"]),
            dm_reset_time_s=float(payload.get("dm_reset_time_s", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed schedule JSON: {exc}") from exc
    report = validate_schedule(schedule)
    if not report.ok:
        raise ConfigError("imported schedule fails validation: " + "; ".join(report.warnings))
    return schedule


def save_schedule(schedule: PulseSchedule, path: str | Path) -> None:
    Path(path).write_text(json.dumps(schedule_to_json_dict(schedule), indent=2) + "\n")


def load_schedule(path: str | Path) -> PulseSchedule:
    return schedule_from_json_dict(json.loads(Path(path).read_text()))


def schedule_hash(schedule: PulseSchedule) -> str:
    """Stable content hash of the exported form (provenance for results)."""
    canonical = json.dumps(schedule_to_json_dict(schedule), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
