"""Spin-phase evolution of the rotating crystal under a pulse schedule.

Every ion sees a scalar drive f_j(t) (a Z-rotation rate): per segment,

    f_j(t) = U * sum_{mu in comb} cos(delta(rho_j, phi_j - omega t) - mu t + psi)

and accumulates theta_j = 2 * integral of f_j over the schedule.  Because the
Hamiltonian is diagonal in Z, everything reduces to per-ion phase integrals;
<sigma_X> = cos theta, <sigma_Y> = sin theta (theta > 0 turns +X toward +Y),
and the infidelity against a target Z-rotation theta* is sin^2((theta-theta*)/2).

Three independent evaluation routes, kept deliberately separate so they can
cross-check each other:

  evolve_exact         trapezoid samples of the separable drive over one
                       base period P/g, whose Fourier coefficients give the
                       phase at any time in closed form; the sample count
                       doubles until the phase converges
  evolve_exact_bessel  closed-form term-by-term time integrals of the
                       Jacobi-Anger expansion (single even-component
                       segments only) -- the analytic oracle
  evolve_rwa           static (secular) terms only: the full Bessel-product
                       sum for serial schedules, the first-order-in-amplitude
                       form for parallel ones

_phases is the package's one time-domain integrator: evolve_exact asks it
for each segment's phase at the segment's end, and analysis.rwa_study for
the phase at every sample time and every whole rotation period.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .crystal import IonCrystal
from .errors import QuadratureError
from .patterns import TargetPattern
from .planner import PulseSchedule, PulseSegment, evaluate_parts, schedule_hash
from .specfun import bessel_j

_BASE_SAMPLES = 16  # first trapezoid sum, per fastest/g harmonic
_MAX_SAMPLES = 4096  # last doubling before the integral is declared unconverged
_WEIGHT_BLOCK = 32768  # samples x times per trapezoid-weight array; bounds study memory
_ROUNDOFF_MASS_FACTOR = 128  # eps multiples per radian of integrand L1 mass
_PRODUCT_TAIL = 1e-18
_MAX_PRODUCT_ORDERS = 3


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    theta: np.ndarray
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    metadata: dict
    theta_target: np.ndarray | None = None
    infidelity: np.ndarray | None = None

    def __post_init__(self) -> None:
        norm = self.sigma_x**2 + self.sigma_y**2
        if not np.all(np.abs(norm - 1.0) <= 1e-12):  # NaN fails too
            raise ValueError("Bloch vector left the equator: sigma_x^2 + sigma_y^2 != 1")

    def with_targets(self, theta_target: np.ndarray) -> "EvolutionResult":
        theta_target = np.asarray(theta_target, dtype=float)
        if theta_target.shape != self.theta.shape:
            raise ValueError("target phase array shape mismatch")
        return replace(
            self,
            theta_target=theta_target,
            infidelity=infidelity(self.theta, theta_target),
        )

    @property
    def max_infidelity(self) -> float:
        if self.infidelity is None:
            raise ValueError("no targets attached; call with_targets first")
        return float(np.max(self.infidelity))


def _result(theta: np.ndarray, metadata: dict) -> EvolutionResult:
    return EvolutionResult(
        theta=theta, sigma_x=np.cos(theta), sigma_y=np.sin(theta), metadata=metadata
    )


def infidelity(theta, theta_target):
    """1 - |<target|state>|^2 for two Z-rotations of |+>."""
    return np.sin(0.5 * (np.asarray(theta) - np.asarray(theta_target))) ** 2


def target_phases(
    crystal: IonCrystal, pattern: TargetPattern, u_rad_s: float, t_total_s: float
) -> np.ndarray:
    """Ideal rotation angles theta*_j = 2 U F(rho_j, phi_j) T."""
    return 2.0 * u_rad_s * pattern.evaluate(crystal.rho, crystal.phi) * t_total_s


# ---------------------------------------------------------------------------
# segment bookkeeping


def _segment_tables(segments, rho: np.ndarray) -> list[tuple]:
    """Evaluate the radial parts of every segment at the ion radii (J,)
    at once: `evaluate_parts` sweeps the radial stack once for all of them
    and inverts every j1inv part in one call, and each value keeps the bits
    it has when its segment is evaluated alone.

    Returns per segment (delta0, orders, even, odd): the static m=0 offset
    (J,), the rotating orders, and per-order (J,) arrays (zeros where a
    parity is absent).
    """
    n = rho.size
    values = iter(evaluate_parts(
        [p for seg in segments for c in seg.deformation.components for p in (c.even, c.odd) if p is not None],
        rho,
    ))
    tables = []
    for segment in segments:
        delta0 = np.zeros(n)
        orders: list[int] = []
        even: list[np.ndarray] = []
        odd: list[np.ndarray] = []
        for comp in segment.deformation.components:
            e, o = (np.zeros(n) if p is None else next(values) for p in (comp.even, comp.odd))
            if comp.m == 0:
                delta0 = delta0 + e
            else:
                orders.append(comp.m)
                even.append(e)
                odd.append(o)
        tables.append((delta0, orders, even, odd))
    return tables


def instantaneous_coefficient(
    segment: PulseSegment, rho: float, phi: float, omega_rad_s: float, t
) -> np.ndarray | float:
    """Drive rate f_j(t) in rad/s for one ion at rotating-frame (rho, phi)."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < -1e-18) or np.any(t_arr > segment.duration_s * (1 + 1e-12)):
        raise ValueError("time outside the segment's duration")
    rho_arr = np.asarray([float(rho)])
    delta0, orders, even, odd = _segment_tables([segment], rho_arr)[0]
    beta = float(phi) - omega_rad_s * t_arr
    delta = np.full(t_arr.shape, delta0[0])
    for m, e, o in zip(orders, even, odd):
        delta = delta + e[0] * np.cos(m * beta) + o[0] * np.sin(m * beta)
    f = np.zeros(t_arr.shape)
    for mult in segment.beatnotes:
        f = f + np.cos(delta - mult * omega_rad_s * t_arr + segment.psi)
    f = segment.u_rad_s * f
    return float(f) if np.ndim(t) == 0 else f


# ---------------------------------------------------------------------------
# exact route 1: spectral quadrature over one base period


def _phases(
    segment: PulseSegment, tables: tuple, phi: np.ndarray, omega: float,
    times: np.ndarray | tuple[float, ...], tol: float,
) -> np.ndarray:
    """2 * integral_0^t f dt at each probe point and each time t: the
    package's one time-domain integrator, returning (points, times).
    `tables` are the segment's radial parts at the points' radii, from
    `_segment_tables`; `phi` holds the points' angles.

    Every beatnote and deformation order is an integer multiple of omega;
    with g their gcd, f repeats every base period P/g, P = 2 pi / omega,
    and is analytic, so trapezoid sums over one base period converge
    geometrically.  N equispaced samples give f's Fourier coefficients c_k
    (rfft / N, the Nyquist term counted once), and with w = g omega and
    t = r P/g + tau, tau in [-P/(2g), P/(2g)],

        integral_0^t f = c_0 t + sum_k c_k (exp(i k w tau) - 1) / (i k w),

    summed as one trapezoid weight per (sample, time).

    By angle addition delta(t) = delta0 + A . H(t), with A (J, 2M) per
    segment and H = [cos m omega t; sin m omega t] per sample, and the comb
    folds into f = U [cos(delta + psi) C(t) + sin(delta + psi) S(t)], C and
    S its summed cos and sin (mu omega t): two transcendental calls per
    (point, sample).

    N starts at _BASE_SAMPLES per fastest/g harmonic and doubles, each
    doubling evaluating only the new odd samples, until at every point and
    time |fine - coarse| < tol/2 + 128 eps mass(t), mass(t) being the
    integral of |f| up to t -- long windows carry hundreds of radians of L1
    mass whose float64 summation noise no refinement removes."""
    times = np.asarray(times, dtype=float)
    delta0, orders, even, odd = tables
    fastest = int(max([*segment.beatnotes, *orders], default=0))
    if fastest == 0:
        # drive is strictly time-independent: f * t, no quadrature needed
        f0 = segment.u_rad_s * len(segment.beatnotes) * np.cos(delta0 + segment.psi)
        return (2.0 * f0)[:, None] * times

    ms = np.array(orders, dtype=float)
    e, o = np.array(even).reshape(-1, phi.size).T, np.array(odd).reshape(-1, phi.size).T
    c, s = np.cos(np.outer(phi, ms)), np.sin(np.outer(phi, ms))  # (J, M)
    amps = np.hstack([e * c + o * s, e * s - o * c])  # (J, 2M)
    comb = np.array(segment.beatnotes, dtype=float)
    scale = 2.0 * segment.u_rad_s

    g = math.gcd(*(int(k) for k in (*segment.beatnotes, *orders)))
    base = 2.0 * np.pi / omega / g
    r = np.rint(times / base)
    tau = times - r * base
    swept = np.abs(r) * base + np.abs(tau)  # |f| accumulates over r periods and |tau|

    def drive(fraction: np.ndarray) -> np.ndarray:
        """f / U at these fractions of the base period, (points, samples)."""
        omega_t = (2.0 * np.pi / g) * fraction
        arg = np.outer(ms, omega_t)
        delta = (delta0 + segment.psi)[:, None] + amps @ np.vstack([np.cos(arg), np.sin(arg)])
        arg = np.outer(comb, omega_t)
        return np.cos(delta) * np.cos(arg).sum(axis=0) + np.sin(delta) * np.sin(arg).sum(axis=0)

    def integrate(samples: np.ndarray) -> np.ndarray:
        """Phases at every time from n samples of one base period."""
        n = samples.shape[1]
        kw = np.arange(1, n // 2 + 1) * (g * omega)
        phase = np.empty((phi.size, times.size))
        step = max(1, _WEIGHT_BLOCK // n)  # whole times per block
        for begin in range(0, times.size, step):
            block = slice(begin, begin + step)
            # integral_0^t exp(-i k w t') dt' per harmonic and time; its irfft
            # holds each sample's trapezoid weight, so samples @ weights sums
            # c_k = rfft(samples)[k] / n against them, the Nyquist term once
            ramps = np.vstack([
                times[None, block], np.expm1(-1j * np.outer(kw, tau[block])) / (-1j * kw[:, None])
            ])
            phase[:, block] = samples @ np.fft.irfft(ramps, n, axis=0)
        return scale * phase

    harmonics = fastest // g  # periods of the fastest term per base period
    n = _BASE_SAMPLES * harmonics
    samples = drive(np.arange(n) / n)
    coarse = integrate(samples)
    while True:
        n *= 2
        refined = np.empty((phi.size, n))
        refined[:, ::2], refined[:, 1::2] = samples, drive(np.arange(1, n, 2) / n)
        samples = refined
        fine = integrate(samples)
        mass = scale * np.abs(samples).mean(axis=1)[:, None] * swept
        allowance = 0.5 * tol + _ROUNDOFF_MASS_FACTOR * np.finfo(float).eps * mass
        error = np.abs(fine - coarse)
        if np.all(error < allowance):
            return fine
        if n >= _MAX_SAMPLES * harmonics:
            worst, at = np.unravel_index(np.argmax(error / allowance), error.shape)
            raise QuadratureError(
                f"phase integral did not converge to {tol:g} with {n} samples per "
                f"base period (t = {times[at]:.6g} s: g = {g}, r = {int(r[at])} base "
                f"periods P/{g}, tau/(P/{g}) = {tau[at] / base:+.6f}): ion {worst} has "
                f"|fine - coarse| = {error[worst, at]:.3e} against an allowance of "
                f"{allowance[worst, at]:.3e}"
            )
        coarse = fine


def evolve_exact(
    crystal: IonCrystal, schedule: PulseSchedule, tol: float = 1e-12
) -> EvolutionResult:
    """Direct time integration of the drive for every ion.

    `tol` is the absolute tolerance on each segment's phase contribution
    (theta units).
    """
    if tol < 1e-13:
        raise ValueError("tolerance below 1e-13 is not resolvable in float64")
    omega = schedule.omega_rad_s
    theta = np.zeros(len(crystal))
    tables = _segment_tables(schedule.segments, crystal.rho)
    for seg, table in zip(schedule.segments, tables):  # fixed order: deterministic accumulation
        theta = theta + _phases(seg, table, crystal.phi, omega, (seg.duration_s,), tol)[:, 0]
    meta = {
        "method": "exact-quadrature",
        "tolerance": tol,
        "schedule_hash": schedule_hash(schedule),
    }
    return _result(theta, meta)


# ---------------------------------------------------------------------------
# exact route 2: term-by-term integrals of the Jacobi-Anger expansion


def _bessel_series_phase(
    segment: PulseSegment, crystal: IonCrystal, omega: float, n_terms: int
) -> np.ndarray:
    """Closed-form phase for one single-even-component segment.

    Expanding cos(delta cos(m beta) - m omega t + psi) in harmonics gives
    f = U sum_n J_n(delta) cos(n m phi + psi + n pi/2 - (n+1) m omega t);
    the n = -1 term is static and every other term integrates to
    2 sin(x)/((n+1) m omega) * cos(...) with x = (n+1) m omega T / 2.
    """
    delta0, orders, even, odd = _segment_tables([segment], crystal.rho)[0]
    if len(orders) + (1 if np.any(delta0) else 0) != 1 or any(np.any(o) for o in odd):
        raise ValueError(
            "oracle inapplicable: needs exactly one even azimuthal component per segment"
        )
    if len(segment.beatnotes) != 1:
        raise ValueError("oracle inapplicable: needs exactly one beatnote per segment")
    mult = segment.beatnotes[0]
    u, psi, T = segment.u_rad_s, segment.psi, segment.duration_s

    if not orders:
        if mult != 0:
            raise ValueError("oracle inapplicable: static deformation needs beatnote 0")
        return 2.0 * u * np.cos(delta0 + psi) * T

    m = orders[0]
    if mult != m:
        raise ValueError(f"oracle inapplicable: beatnote {mult} != deformation order {m}")
    delta = even[0]
    phi = crystal.phi

    phase = u * bessel_j(1, delta) * np.sin(m * phi - psi) * T  # n = -1
    for n in range(-n_terms, n_terms + 1):
        if n == -1:
            continue
        a = (n + 1) * m * omega
        x = 0.5 * a * T
        phase = phase + (
            2.0 * u * bessel_j(n, delta) * np.sin(x) / a
        ) * np.cos(n * m * phi + psi + n * np.pi / 2.0 - x)
    return 2.0 * phase


def evolve_exact_bessel(
    crystal: IonCrystal, schedule: PulseSchedule, n_terms: int = 24
) -> EvolutionResult:
    """Analytic phase series; the independent oracle for evolve_exact.

    Only applicable when every segment carries a single even component
    driven at its own order (or a static m=0 segment); raises ValueError
    ("oracle inapplicable") otherwise.  With arguments |delta| <= 3 the
    neglected tail |J_n| <= (delta/2)^n / n! is below 1e-16 long before
    the default 24 terms.
    """
    if n_terms < 8:
        raise ValueError("n_terms >= 8 required for a meaningful tail")
    omega = schedule.omega_rad_s
    theta = np.zeros(len(crystal))
    for seg in schedule.segments:
        theta = theta + _bessel_series_phase(seg, crystal, omega, n_terms)
    meta = {
        "method": "exact-bessel",
        "n_terms": n_terms,
        "schedule_hash": schedule_hash(schedule),
    }
    return _result(theta, meta)


# ---------------------------------------------------------------------------
# RWA route: static terms only


def _tail_order(r_max: float, floor: float = _PRODUCT_TAIL) -> int:
    """Smallest K with (r/2)^K / K! below floor (Bessel tail bound)."""
    k, term = 0, 1.0
    half = 0.5 * max(r_max, 1e-30)
    while term > floor and k < 80:
        k += 1
        term *= half / k
    return max(k, 2)


def _static_coefficient_serial(segment: PulseSegment, tables: tuple, crystal: IonCrystal) -> np.ndarray:
    """Exact secular drive rate for an arbitrary (<= 3 rotating orders)
    deformation: the multi-order Bessel-product sum.

    Combining each order's parities into R cos(m beta - chi) and expanding,
    a term is static exactly when sum_i k_i m_i = -mu/omega; its weight is
    prod_i J_{k_i}(R_i) with phase psi + delta0 - mult phi - sum k_i chi_i
    + (sum k_i) pi/2.
    """
    delta0, orders, even, odd = tables
    phi = crystal.phi
    u, psi = segment.u_rad_s, segment.psi

    if not orders:
        coeff = np.zeros(len(crystal))
        for mult in segment.beatnotes:
            if mult == 0:
                coeff = coeff + u * np.cos(delta0 + psi)
        return coeff

    if len(orders) > _MAX_PRODUCT_ORDERS:
        raise ValueError(
            f"static product sum supports at most {_MAX_PRODUCT_ORDERS} rotating orders, "
            f"got {len(orders)}"
        )

    R = [np.hypot(e, o) for e, o in zip(even, odd)]
    chi = [np.arctan2(o, e) for e, o in zip(even, odd)]
    k_caps = [_tail_order(float(np.max(r))) for r in R]

    # J_k(R_i), evaluated for the orders k that some static term uses
    jcache: list[dict] = [{} for _ in R]
    coeff = np.zeros(len(crystal))
    for mult in segment.beatnotes:
        for ks in _constrained_indices(orders, k_caps, -mult):
            weight = np.ones(len(crystal))
            phase = psi + delta0 - mult * phi + (sum(ks) * np.pi / 2.0)
            for i, k in enumerate(ks):
                if k not in jcache[i]:
                    jcache[i][k] = bessel_j(k, R[i])
                weight = weight * jcache[i][k]
                phase = phase - k * chi[i]
            coeff = coeff + u * weight * np.cos(phase)
    return coeff


def _constrained_indices(orders, caps, total):
    """All (k_1..k_p) with |k_i| <= caps[i] and sum k_i * orders[i] == total."""
    if len(orders) == 1:
        m = orders[0]
        if total % m == 0 and abs(total // m) <= caps[0]:
            yield (total // m,)
        return
    m0, cap0 = orders[0], caps[0]
    for k0 in range(-cap0, cap0 + 1):
        for rest in _constrained_indices(orders[1:], caps[1:], total - k0 * m0):
            yield (k0, *rest)


def _static_coefficient_parallel(segment: PulseSegment, tables: tuple, crystal: IonCrystal) -> np.ndarray:
    """First-order-in-amplitude secular rate for a parallel segment: the
    beatnote at m omega picks out the order-m deformation component."""
    delta0, orders, even, odd = tables
    phi = crystal.phi
    u, psi = segment.u_rad_s, segment.psi
    coeff = np.zeros(len(crystal))
    by_order = {m: (e, o) for m, e, o in zip(orders, even, odd)}
    for mult in segment.beatnotes:
        if mult == 0:
            coeff = coeff + u * np.cos(delta0 + psi)
        elif mult in by_order:
            e, o = by_order[mult]
            coeff = coeff + 0.5 * u * (
                e * np.sin(mult * phi - psi) - o * np.cos(mult * phi - psi)
            )
    return coeff


def evolve_rwa(crystal: IonCrystal, schedule: PulseSchedule) -> EvolutionResult:
    """Keep only the static terms of every segment's drive.

    Serial schedules get the exact secular term (all Bessel-product
    combinations); parallel schedules get the first-order form that the
    protocol is designed around.
    """
    theta = np.zeros(len(crystal))
    static = (
        _static_coefficient_parallel
        if schedule.mode == "parallel"
        else _static_coefficient_serial
    )
    tables = _segment_tables(schedule.segments, crystal.rho)
    for seg, table in zip(schedule.segments, tables):
        theta = theta + 2.0 * static(seg, table, crystal) * seg.duration_s
    meta = {"method": "rwa", "schedule_hash": schedule_hash(schedule)}
    return _result(theta, meta)


# ---------------------------------------------------------------------------
# export


def write_evolution_csv(
    result: EvolutionResult, crystal: IonCrystal, path: str | Path
) -> None:
    """CSV (ion_index, rho, phi, theta, sigma_x, sigma_y, theta_target,
    infidelity) plus a .json sidecar with the run metadata."""
    path = Path(path)
    tt = result.theta_target
    inf = result.infidelity
    with path.open("w") as fh:
        fh.write("ion_index,rho,phi,theta,sigma_x,sigma_y,theta_target,infidelity\n")
        for j in range(len(crystal)):
            tt_s = "" if tt is None else f"{tt[j]:.17g}"
            inf_s = "" if inf is None else f"{inf[j]:.17g}"
            fh.write(
                f"{j},{float(crystal.rho[j]):.17g},{float(crystal.phi[j]):.17g},"
                f"{result.theta[j]:.17g},{result.sigma_x[j]:.17g},"
                f"{result.sigma_y[j]:.17g},{tt_s},{inf_s}\n"
            )
    sidecar = path.with_suffix(path.suffix + ".json")
    sidecar.write_text(json.dumps(result.metadata, indent=2, sort_keys=True) + "\n")
