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

Every radial part delta(rho) is a RadialProfile record,
transfer(scale * sum_k c_k R^m_{m+2k}(rho)) + offset, built straight from
the expansion's coefficient arrays: arccos with offset -psi for serial
m = 0, J1^-1 for serial m > 0, linear in parallel mode.  The record is the
program: it is what the simulator evaluates, what schedule.json stores and
what schedule_hash names.  Range checks evaluate only the transfer
argument on a fixed grid; since every transfer is monotone, the stroke
extremes are the transfer of the argument's extremes.

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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, PrecompensationRangeError
from .specfun import (
    J1_PEAK_VALUE, J1_PEAK_X, inverse_j1, is_count, is_real, zernike_radial_dot, zernike_radial_stack,
)
from .zernike import ZernikeExpansion

DEFAULT_PSI = -np.pi / 2.0
_CHECK_RHO = np.linspace(0.0, 1.0, 2048)
_ARCCOS_CLIP_TOLERANCE = 0.05
_COMPONENT_FLOOR = 1e-12


# Largest |transfer argument| each transfer accepts.
_TRANSFER_BOUND = {"linear": np.inf, "j1inv": J1_PEAK_VALUE, "arccos": 1.0 + _ARCCOS_CLIP_TOLERANCE}


@dataclass(frozen=True)
class RadialProfile:
    """One radial part of a mirror surface:

        transfer(scale * sum_k coeffs[k] R^order_{order+2k}(rho)) + offset

    with transfer `linear` (identity), `j1inv` (inverse_j1) or `arccos`
    (arccos of the argument clipped to [-1, 1]).  All three are monotone."""

    order: int
    coeffs: tuple[float, ...]
    transfer: str = "linear"
    scale: float = 1.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        if not is_count(self.order):
            raise ConfigError(f"radial order must be a non-negative integer, got {self.order!r}")
        if isinstance(self.coeffs, str):
            raise ConfigError(f"radial profile coeffs must be a list of numbers, got {self.coeffs!r}")
        coeffs = tuple(self.coeffs)
        named = [*((f"coeffs[{k}]", c) for k, c in enumerate(coeffs)),
                 ("scale", self.scale), ("offset", self.offset)]
        for name, value in named:
            if not is_real(value):
                raise ConfigError(f"radial profile {name} must be a finite number, got {value!r}")
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "coeffs", tuple(float(c) for c in coeffs))
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "offset", float(self.offset))
        if not self.coeffs:
            raise ConfigError("radial profile has no coefficients")
        if self.transfer not in _TRANSFER_BOUND:
            raise ConfigError(
                f"unknown transfer {self.transfer!r}; expected one of {sorted(_TRANSFER_BOUND)}"
            )

    def __call__(self, rho) -> np.ndarray:
        return evaluate_parts([self], rho)[0]

    @property
    def extremes(self) -> tuple[tuple[float, float], str | None]:
        """The extremes of the transfer argument on the check grid, clipped
        into the transfer's domain, and a message carrying the measured
        value and the bound when the argument leaves that domain.  Because
        the transfer is monotone, applying it to the extremes gives the
        part's.  Found once per record by `_find_extremes`, which planning
        and validation call on all their parts at once."""
        if "_extremes" not in vars(self):
            _find_extremes([self])
        return self._extremes


def evaluate_parts(parts, rho) -> list[np.ndarray]:
    """Each radial part at the radii rho, shaped like rho.

    One radial sweep covers every order the parts use, each part
    contracting its own slice with `zernike_radial_dot`, and every j1inv
    part goes through a single `inverse_j1` call; each value has the bits
    of the part evaluated alone.  The sweep holds all orders at once, which
    suits the ions and other small radius sets; the 2048-point check grid
    is swept one order at a time instead (`_find_extremes`)."""
    rho = np.asarray(rho, dtype=float)
    if not parts:
        return []
    orders = sorted({p.order for p in parts})
    stack = zernike_radial_stack(orders, max(len(p.coeffs) for p in parts) - 1, rho)
    row = {m: i for i, m in enumerate(orders)}
    return _transfer(parts, [p.scale * zernike_radial_dot(p.coeffs, stack[row[p.order]]) for p in parts])


def _transfer(parts, args) -> list[np.ndarray]:
    """transfer(arg) + offset for each part and its argument array, the
    arguments of all j1inv parts inverted by one `inverse_j1` call."""
    out = [np.asarray(a, dtype=float) for a in args]
    j1 = [i for i, p in enumerate(parts) if p.transfer == "j1inv"]
    if j1:
        inverted = inverse_j1(np.concatenate([out[i].ravel() for i in j1]))
        pieces = np.split(inverted, np.cumsum([out[i].size for i in j1])[:-1])
        for i, piece in zip(j1, pieces):
            out[i] = piece.reshape(out[i].shape)
    for i, p in enumerate(parts):
        if p.transfer == "arccos":
            out[i] = np.arccos(np.clip(out[i], -1.0, 1.0))
    return [o + p.offset for o, p in zip(out, parts)]


def _find_extremes(parts) -> None:
    """Store on each part still without them its check-grid extremes (see
    RadialProfile.extremes).  The grid is swept once per order, every part
    of that order (both parities, all segments) contracting the same stack,
    and each stack is dropped before the next order's: one stack of all
    orders on the 2048-point grid would hold about 7 MB at once."""
    by_order: dict[int, list[RadialProfile]] = {}
    for part in parts:
        if "_extremes" not in vars(part):
            by_order.setdefault(part.order, []).append(part)
    for order, group in by_order.items():
        stack = zernike_radial_stack(order, max(len(p.coeffs) for p in group) - 1, _CHECK_RHO)
        for part in group:
            arg = part.scale * zernike_radial_dot(part.coeffs, stack)
            lo, hi = float(np.min(arg)), float(np.max(arg))
            bound = _TRANSFER_BOUND[part.transfer]
            problem = None
            if max(-lo, hi) > bound:
                problem = (
                    f"|{part.transfer} argument| reaches {max(-lo, hi):.6f} > {bound:.6f} "
                    f"at rho = {_CHECK_RHO[int(np.argmax(np.abs(arg)))]:.4f}"
                )
            object.__setattr__(part, "_extremes", (tuple(np.clip([lo, hi], -bound, bound)), problem))
        del stack


@dataclass(frozen=True, eq=False)
class DeformationComponent:
    """One azimuthal order of a mirror surface: even(rho) * cos(m phi_lab)
    + odd(rho) * sin(m phi_lab).  Either part may be None."""

    m: int
    even: RadialProfile | None = None
    odd: RadialProfile | None = None

    def __post_init__(self) -> None:
        if not is_count(self.m):
            raise ConfigError(f"deformation order must be a non-negative integer, got m={self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        if self.even is None and self.odd is None:
            raise ConfigError(f"component m={self.m} has neither even nor odd part")
        if self.m == 0 and self.odd is not None:
            raise ConfigError("m=0 has no sin partner")
        for part in (self.even, self.odd):
            if part is not None and not isinstance(part, RadialProfile):
                raise ConfigError(
                    f"component m={self.m}: radial parts must be RadialProfile records, "
                    f"got {type(part).__name__}"
                )


@dataclass(frozen=True, eq=False)
class MirrorDeformation:
    components: tuple[DeformationComponent, ...]

    def __post_init__(self) -> None:
        ms = [c.m for c in self.components]
        if len(set(ms)) != len(ms):
            raise ConfigError(f"duplicate azimuthal orders in deformation: {sorted(ms)}")

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
        for field in ("duration_s", "u_rad_s"):
            value = getattr(self, field)
            if not (is_real(value) and value > 0):  # also refuses NaN, bools and strings
                raise ConfigError(f"segment {field} must be positive and finite, got {value!r}")
            object.__setattr__(self, field, float(value))
        if not is_real(self.psi):
            raise ConfigError(f"segment psi must be finite, got {self.psi!r}")
        object.__setattr__(self, "psi", float(self.psi))
        if not all(map(is_count, self.beatnotes)):
            raise ConfigError(
                f"segment beatnotes must be finite non-negative integers, got {self.beatnotes}"
            )
        object.__setattr__(self, "beatnotes", tuple(int(b) for b in self.beatnotes))


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
        if not (is_real(self.omega_rad_s) and self.omega_rad_s > 0):  # also refuses NaN, bools and strings
            raise ConfigError(f"omega_rad_s must be positive and finite, got {self.omega_rad_s!r}")
        for field in ("target_u_rad_s", "gate_time_s", "amplitude", "dm_reset_time_s"):
            if not is_real(getattr(self, field)):
                raise ConfigError(f"schedule {field} must be a finite number, got {getattr(self, field)!r}")
        for field in ("omega_rad_s", "target_u_rad_s", "gate_time_s", "amplitude", "dm_reset_time_s"):
            object.__setattr__(self, field, float(getattr(self, field)))
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


def plan_serial(
    exp: ZernikeExpansion,
    u_rad_s: float,
    omega_rad_s: float,
    psi: float = DEFAULT_PSI,
    *,
    pattern_peak: float,
) -> PulseSchedule:
    """Compile a serial schedule: one precompensated segment per component,
    each lasting the smallest commensurate duration.  `pattern_peak` is the
    exact pattern maximum that the pi calibration uses."""
    if u_rad_s <= 0 or omega_rad_s <= 0 or pattern_peak <= 0:
        raise ConfigError(
            f"U, omega and the pattern peak must be positive, got {u_rad_s}, {omega_rad_s}, {pattern_peak}"
        )

    def precompensated(m: int, coeffs: np.ndarray) -> RadialProfile:
        if m == 0:  # cos(delta + psi) = A P0
            return RadialProfile(0, coeffs, "arccos", exp.amplitude, -psi)
        return RadialProfile(m, coeffs, "j1inv", exp.amplitude)  # J1(delta) = A Pm (or A Qm)

    parts = _planned_parts(exp, precompensated)
    for m, parity, part in parts:
        if part.extremes[1]:
            raise PrecompensationRangeError(
                f"precompensation out of range for {parity} component m={m}: "
                f"{part.extremes[1]}; reduce the pattern amplitude"
            )

    rotating = any(m > 0 for m, _, _ in parts)
    t_base = np.pi / (2.0 * u_rad_s * pattern_peak)
    t_seg, u_seg = _commensurate(t_base, u_rad_s, omega_rad_s, force=rotating)
    segments = tuple(
        PulseSegment(
            deformation=MirrorDeformation((DeformationComponent(m, **{parity: part}),)),
            beatnotes=(m,),
            duration_s=t_seg,
            u_rad_s=u_seg,
            psi=psi,
        )
        for m, parity, part in parts
    )

    return PulseSchedule(
        mode="serial",
        omega_rad_s=omega_rad_s,
        segments=segments,
        target_u_rad_s=u_seg,
        gate_time_s=t_seg,
        amplitude=exp.amplitude,
    )


def plan_parallel(
    exp: ZernikeExpansion,
    u_rad_s: float,
    omega_rad_s: float,
    psi: float = DEFAULT_PSI,
    *,
    pattern_peak: float,
) -> PulseSchedule:
    """Compile a parallel schedule: one mirror setting, all beatnotes at once.

    No Bessel precompensation; the realized pattern is (U/2) * F-tilde to
    first order in the amplitude, so the pi calibration uses U_eff = U/2.
    The m = 0 deformation component is halved relative to the rotating
    orders because the static transfer has twice their gain.
    """
    if u_rad_s <= 0 or omega_rad_s <= 0 or pattern_peak <= 0:
        raise ConfigError(
            f"U, omega and the pattern peak must be positive, got {u_rad_s}, {omega_rad_s}, {pattern_peak}"
        )

    def linear(m: int, coeffs: np.ndarray) -> RadialProfile:
        scale = 0.5 * exp.amplitude if m == 0 else exp.amplitude
        return RadialProfile(m, coeffs, "linear", scale)

    by_order: dict[int, dict[str, RadialProfile]] = {}
    for m, parity, part in _planned_parts(exp, linear):
        by_order.setdefault(m, {})[parity] = part
    comb = tuple(by_order)

    t_base = np.pi / (u_rad_s * pattern_peak)  # U_eff = U/2
    t_run, u_run = _commensurate(t_base, u_rad_s, omega_rad_s, force=any(m > 0 for m in comb))

    segment = PulseSegment(
        deformation=MirrorDeformation(
            tuple(DeformationComponent(m, **parts) for m, parts in by_order.items())
        ),
        beatnotes=comb,
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
        amplitude=exp.amplitude,
    )


def _planned_parts(exp: ZernikeExpansion, part_for) -> list[tuple[int, str, RadialProfile]]:
    """(m, parity, part_for(m, coefficients)) of every radial part whose
    transfer argument exceeds the component floor on the check grid; m
    ascending, even before odd.  The test reads the records' extremes,
    found with one check-grid sweep per order, which the range checks and
    validate_schedule then reuse."""
    candidates = [
        (m, parity, part_for(m, coeffs))
        for m in exp.active_orders(floor=_COMPONENT_FLOOR)
        for parity, coeffs in (("even", exp.cos[m]), ("odd", exp.sin[m]))
        if coeffs.size  # sin[0] is empty
    ]
    _find_extremes([part for _, _, part in candidates])
    parts = [c for c in candidates if np.max(np.abs(c[2].extremes[0])) > _COMPONENT_FLOOR]
    if not parts:
        raise ConfigError("expansion has no components above threshold; nothing to plan")
    return parts


def _commensurate(t_base, u, omega, force):
    """Pick (T, U): with `force`, the smallest whole number of rotation
    periods r with r*period >= t_base (tiny slack so an exactly integer
    t_base is not bumped up by rounding noise) and U scaled to keep the
    pulse area; otherwise t_base and U as they are."""
    if not force:
        return t_base, u
    period = 2.0 * np.pi / omega
    t = max(1, int(np.ceil(t_base / period - 1e-9))) * period
    return t, u * (t_base / t)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    warnings: tuple[str, ...]
    metrics: dict


def validate_schedule(schedule: PulseSchedule) -> ValidationReport:
    """Diagnostics: commensurability, precompensation margins, linear-regime
    margin, wall time.  Never raises; structural problems come back as
    warnings with ok=False."""
    warnings: list[str] = []
    period = 2.0 * np.pi / schedule.omega_rad_s
    parts = [
        part for seg in schedule.segments for comp in seg.deformation.components
        for part in (comp.even, comp.odd) if part is not None
    ]
    _find_extremes(parts)
    # the strokes at the argument extremes, all j1inv ends in one inversion
    strokes = iter(_transfer(parts, [np.array(part.extremes[0]) for part in parts]))

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
                ends, problem = part.extremes
                if problem:
                    warnings.append(f"segment {i}: {part_name} m={comp.m}: {problem}")
                stroke = float(np.max(np.abs(next(strokes))))
                max_stroke = max(max_stroke, stroke)
                if schedule.mode == "serial" and comp.m > 0:
                    margin = J1_PEAK_X - stroke
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
# JSON interchange: the compiled program itself.  Format 2 stores each
# radial part as its RadialProfile fields (order, Zernike radial
# coefficients, transfer, scale, offset); json writes floats in their
# shortest round-trip form, so import rebuilds the very records that were
# exported, and schedule_hash hashes the same dict.  Export, hash and
# simulation therefore see one program.  Files without "format": 2 (the
# earlier sampled form) are refused.

SCHEDULE_FORMAT = 2


def _part_to_json(part: RadialProfile | None) -> dict | None:
    return None if part is None else asdict(part)


def _part_from_json(record: dict | None) -> RadialProfile | None:
    return None if record is None else RadialProfile(**record)


def schedule_to_json_dict(schedule: PulseSchedule) -> dict:
    return {
        "format": SCHEDULE_FORMAT,
        "mode": schedule.mode,
        "omega_rad_s": schedule.omega_rad_s,
        "target_u_rad_s": schedule.target_u_rad_s,
        "gate_time_s": schedule.gate_time_s,
        "amplitude": schedule.amplitude,
        "dm_reset_time_s": schedule.dm_reset_time_s,
        "segments": [
            {
                "duration_s": seg.duration_s,
                "u_rad_s": seg.u_rad_s,
                "psi": seg.psi,
                "beatnotes": list(seg.beatnotes),
                "components": [
                    {"m": comp.m, "even": _part_to_json(comp.even), "odd": _part_to_json(comp.odd)}
                    for comp in seg.deformation.components
                ],
            }
            for seg in schedule.segments
        ],
    }


def schedule_from_json_dict(payload: dict) -> PulseSchedule:
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != SCHEDULE_FORMAT:
        raise ConfigError(
            f"schedule JSON has format {found!r}, expected {SCHEDULE_FORMAT} "
            "(Zernike radial records); re-run `starkshaper plan` to regenerate it"
        )
    try:
        segments = []
        for index, seg in enumerate(payload["segments"]):
            try:  # the records refuse what they cannot hold exactly
                comps = tuple(
                    DeformationComponent(
                        c["m"], even=_part_from_json(c.get("even")), odd=_part_from_json(c.get("odd"))
                    )
                    for c in seg["components"]
                )
                segments.append(
                    PulseSegment(
                        deformation=MirrorDeformation(comps),
                        beatnotes=tuple(seg["beatnotes"]),
                        duration_s=seg["duration_s"],
                        u_rad_s=seg["u_rad_s"],
                        psi=seg["psi"],
                    )
                )
            except ConfigError as exc:
                raise ConfigError(f"schedule segment {index}: {exc}") from None
        schedule = PulseSchedule(
            mode=str(payload["mode"]),
            omega_rad_s=payload["omega_rad_s"],
            segments=tuple(segments),
            target_u_rad_s=payload["target_u_rad_s"],
            gate_time_s=payload["gate_time_s"],
            amplitude=payload["amplitude"],
            dm_reset_time_s=payload.get("dm_reset_time_s", 0.0),
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
    path = Path(path)
    try:
        return schedule_from_json_dict(json.loads(path.read_text()))
    except (OSError, ValueError, ConfigError) as exc:
        raise ConfigError(f"cannot load schedule {path}: {exc}") from None


def schedule_hash(schedule: PulseSchedule) -> str:
    """SHA-256 of the exported dict, i.e. of the exact program (provenance
    for results)."""
    canonical = json.dumps(schedule_to_json_dict(schedule), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
