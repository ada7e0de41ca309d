"""Spin-phase integration: quadrature vs analytic series, RWA limits,
Bloch-vector conventions, and artifact export."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from starkshaper import dynamics
from starkshaper.crystal import generate_hex_crystal
from starkshaper.dynamics import (
    EvolutionResult,
    evolve_exact,
    evolve_exact_bessel,
    evolve_rwa,
    infidelity,
    instantaneous_coefficient,
    target_phases,
    write_evolution_csv,
)
from starkshaper.errors import QuadratureError
from starkshaper.patterns import annulus, make_pattern
from starkshaper.planner import (
    DeformationComponent,
    MirrorDeformation,
    PulseSchedule,
    PulseSegment,
    RadialProfile,
    plan_serial,
)
from starkshaper.specfun import bessel_j
from starkshaper.zernike import decompose

U0 = 2 * np.pi * 1.0e4
OMEGA = 2 * np.pi * 1.8e5
PERIOD = 2 * np.pi / OMEGA
PSI = -np.pi / 2

CRYSTAL = generate_hex_crystal(3, 0.3)  # 37 ions, rim at rho = 0.9


def monomial(scale, power):
    return RadialProfile(power, (scale,))


def single_order_schedule(m, amplitude, duration, u=U0, psi=PSI, mode="serial"):
    """One even component of order m driven at its own beatnote."""
    parts = {"even": monomial(amplitude, max(m, 1))} if m else {}
    if m == 0:
        comp = DeformationComponent(0, even=RadialProfile(0, (amplitude,)))
    else:
        comp = DeformationComponent(m, **parts)
    seg = PulseSegment(
        deformation=MirrorDeformation((comp,)), beatnotes=(m,), duration_s=duration,
        u_rad_s=u, psi=psi,
    )
    return PulseSchedule(
        mode=mode, omega_rad_s=OMEGA, segments=(seg,), target_u_rad_s=u,
        gate_time_s=duration, amplitude=amplitude,
    )


class TestBlochConventions:
    """Pin theta against an explicit 2x2 matrix-exponential oracle."""

    SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)

    @pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, np.pi, 2.1, -1.7])
    def test_sigma_expectations_match_expm(self, theta):
        psi = expm(-0.5j * theta * self.SZ) @ self.PLUS
        sx = np.real(np.conj(psi) @ self.SX @ psi)
        sy = np.real(np.conj(psi) @ self.SY @ psi)
        res = EvolutionResult(
            theta=np.array([theta]), sigma_x=np.array([np.cos(theta)]),
            sigma_y=np.array([np.sin(theta)]), metadata={},
        )
        assert abs(res.sigma_x[0] - sx) < 1e-12
        assert abs(res.sigma_y[0] - sy) < 1e-12

    @pytest.mark.parametrize("pair", [(0.0, 0.0), (0.4, 0.1), (3.0, -2.0), (np.pi, 0.0)])
    def test_infidelity_is_state_overlap_defect(self, pair):
        theta, target = pair
        psi = expm(-0.5j * theta * self.SZ) @ self.PLUS
        ref = expm(-0.5j * target * self.SZ) @ self.PLUS
        overlap = abs(np.conj(ref) @ psi) ** 2
        assert abs(infidelity(theta, target) - (1.0 - overlap)) < 1e-12

    def test_positive_drive_rotates_x_toward_y(self):
        # static m=0 drive with delta0 = 0, psi = 0: f = +U, theta = 2 U T > 0
        sched = single_order_schedule(0, 1e-9, 1.0e-6, psi=0.0)
        res = evolve_exact(CRYSTAL, sched)
        assert np.all(res.theta > 0)
        assert np.all(res.sigma_y > 0)

    def test_bloch_norm_guard(self):
        with pytest.raises(ValueError, match="equator"):
            EvolutionResult(
                theta=np.array([0.1]), sigma_x=np.array([1.0]),
                sigma_y=np.array([0.5]), metadata={},
            )
        with pytest.raises(ValueError, match="equator"):  # NaN fails the guard too
            EvolutionResult(
                theta=np.array([np.nan]), sigma_x=np.array([np.nan]),
                sigma_y=np.array([np.nan]), metadata={},
            )


class TestTargets:
    def test_target_phase_calibration(self):
        pat = annulus(1.0)
        t = target_phases(CRYSTAL, pat, U0, 25e-6)
        direct = 2.0 * U0 * pat(CRYSTAL.rho, CRYSTAL.phi) * 25e-6
        assert np.allclose(t, direct, rtol=0, atol=1e-15)

    def test_expansion_targets_use_reconstruction(self):
        pat = annulus(1.0)
        exp = decompose(pat, 18, 0)
        t_exp = 2.0 * U0 * exp.reconstruct(CRYSTAL.rho, CRYSTAL.phi) * 25e-6
        t_pat = target_phases(CRYSTAL, pat, U0, 25e-6)
        # band-limited target differs from the true one by the truncation error
        assert 0 < np.max(np.abs(t_exp - t_pat)) < 2.0 * U0 * 25e-6 * 0.1

    def test_with_targets_shape_guard(self):
        sched = single_order_schedule(2, 0.2, 40e-6)
        res = evolve_exact(CRYSTAL, sched)
        with pytest.raises(ValueError, match="shape"):
            res.with_targets(np.zeros(3))
        with pytest.raises(ValueError, match="targets"):
            _ = res.max_infidelity


class TestInstantaneousCoefficient:
    def test_zero_deformation_leaves_bare_beatnote(self):
        comp = DeformationComponent(3, even=monomial(0.0, 3))
        seg = PulseSegment(
            deformation=MirrorDeformation((comp,)), beatnotes=(3,),
            duration_s=50e-6, u_rad_s=U0, psi=0.3,
        )
        t = np.linspace(0, 50e-6, 7)
        f = instantaneous_coefficient(seg, 0.7, 1.1, OMEGA, t)
        assert np.allclose(f, U0 * np.cos(0.3 - 3 * OMEGA * t), atol=1e-9)

    def test_static_segment_value(self):
        comp = DeformationComponent(0, even=RadialProfile(0, (0.4,)))
        seg = PulseSegment(
            deformation=MirrorDeformation((comp,)), beatnotes=(0,),
            duration_s=10e-6, u_rad_s=U0, psi=PSI,
        )
        f = instantaneous_coefficient(seg, 0.5, 0.0, OMEGA, 3e-6)
        assert abs(f - U0 * np.cos(0.4 + PSI)) < 1e-9

    def test_time_bounds_enforced(self):
        sched = single_order_schedule(1, 0.1, 20e-6)
        with pytest.raises(ValueError, match="duration"):
            instantaneous_coefficient(sched.segments[0], 0.5, 0.0, OMEGA, 21e-6)


class TestQuadratureVsSeries:
    """The two exact routes are independent; they must agree blind."""

    @settings(max_examples=12, deadline=None)
    @given(
        m=st.integers(min_value=0, max_value=5),
        amplitude=st.floats(min_value=0.05, max_value=0.5),
        duration_us=st.floats(min_value=10.0, max_value=500.0),
    )
    # whole-rotation remainder cases: no whole rotation (r = 0), and
    # remainders of +0.3 and -0.3 periods after 18 and 19 rotations
    @example(m=2, amplitude=0.3, duration_us=0.4 * PERIOD * 1e6)
    @example(m=3, amplitude=0.4, duration_us=18.3 * PERIOD * 1e6)
    @example(m=5, amplitude=0.25, duration_us=18.7 * PERIOD * 1e6)
    def test_agreement_on_random_single_order_segments(self, m, amplitude, duration_us):
        sched = single_order_schedule(m, amplitude, duration_us * 1e-6)
        quad = evolve_exact(CRYSTAL, sched, tol=1e-12)
        series = evolve_exact_bessel(CRYSTAL, sched, n_terms=30)
        assert np.max(np.abs(quad.theta - series.theta)) < 1e-9

    def test_agreement_on_commensurate_segment(self):
        sched = single_order_schedule(4, 0.3, 18 * PERIOD)
        quad = evolve_exact(CRYSTAL, sched, tol=1e-12)
        series = evolve_exact_bessel(CRYSTAL, sched, n_terms=30)
        assert np.max(np.abs(quad.theta - series.theta)) < 1e-10

    @pytest.mark.parametrize("orders, beatnotes", [
        ((2, 4), (0, 2, 4)),  # g = 2: the drive repeats every half period
        ((2, 3), (0, 2)),  # g = 1, set by the orders
        ((2, 4), (0, 3)),  # g = 1, set by the comb
    ], ids=["g2", "g1-orders", "g1-comb"])
    def test_comb_segment_matches_dense_direct_quadrature(self, orders, beatnotes):
        # mixed parity, several orders, a static m = 0 part and a comb with
        # a beatnote at 0, over a duration that is no whole number of base
        # periods; the reference integrates instantaneous_coefficient ion
        # by ion with panels that ignore the period structure
        comps = [DeformationComponent(0, even=RadialProfile(0, (0.2, 0.05)))]
        comps += [
            DeformationComponent(m, even=monomial(0.3 / m, m), odd=monomial(0.1, m))
            for m in orders
        ]
        duration = 7.3 * PERIOD
        seg = PulseSegment(
            deformation=MirrorDeformation(tuple(comps)), beatnotes=beatnotes,
            duration_s=duration, u_rad_s=U0, psi=0.4,
        )
        sched = PulseSchedule(
            mode="parallel", omega_rad_s=OMEGA, segments=(seg,),
            target_u_rad_s=U0 / 2, gate_time_s=duration, amplitude=0.3,
        )
        quad = evolve_exact(CRYSTAL, sched, tol=1e-12)

        x, w = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(0.0, duration, 301)
        half = 0.5 * np.diff(edges)[:, None]
        t = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
        wt = (half * w).ravel()
        reference = np.array([
            2.0 * instantaneous_coefficient(seg, rho, phi, OMEGA, t) @ wt
            for rho, phi in zip(CRYSTAL.rho, CRYSTAL.phi)
        ])
        assert np.max(np.abs(quad.theta - reference)) < 1e-9

    def test_series_rejects_unsupported_schedules(self):
        comp_odd = DeformationComponent(2, odd=monomial(0.2, 2))
        seg = PulseSegment(
            deformation=MirrorDeformation((comp_odd,)), beatnotes=(2,),
            duration_s=30e-6, u_rad_s=U0, psi=PSI,
        )
        sched = PulseSchedule(
            mode="serial", omega_rad_s=OMEGA, segments=(seg,),
            target_u_rad_s=U0, gate_time_s=30e-6, amplitude=0.2,
        )
        with pytest.raises(ValueError, match="inapplicable"):
            evolve_exact_bessel(CRYSTAL, sched)

        comb = PulseSegment(
            deformation=MirrorDeformation((
                DeformationComponent(1, even=monomial(0.1, 1)),
                DeformationComponent(2, even=monomial(0.1, 2)),
            )),
            beatnotes=(1, 2), duration_s=30e-6, u_rad_s=U0, psi=PSI,
        )
        sched2 = PulseSchedule(
            mode="parallel", omega_rad_s=OMEGA, segments=(comb,),
            target_u_rad_s=U0 / 2, gate_time_s=30e-6, amplitude=0.2,
        )
        with pytest.raises(ValueError, match="inapplicable"):
            evolve_exact_bessel(CRYSTAL, sched2)

    def test_term_count_floor(self):
        sched = single_order_schedule(1, 0.1, 20e-6)
        with pytest.raises(ValueError):
            evolve_exact_bessel(CRYSTAL, sched, n_terms=4)

    def test_tolerance_floor(self):
        sched = single_order_schedule(1, 0.1, 20e-6)
        with pytest.raises(ValueError):
            evolve_exact(CRYSTAL, sched, tol=1e-14)

    def test_unconverged_quadrature_reports_its_numbers(self, monkeypatch):
        # 2 vs 4 samples per base period cannot certify 1e-12, so the error fires
        monkeypatch.setattr(dynamics, "_BASE_SAMPLES", 2)
        monkeypatch.setattr(dynamics, "_MAX_SAMPLES", 4)
        sched = single_order_schedule(3, 0.4, 18.3 * PERIOD)
        with pytest.raises(QuadratureError) as info:
            evolve_exact(CRYSTAL, sched, tol=1e-12)
        message = str(info.value)
        # g = 3: 18.3 P is 55 base periods P/3 minus 0.1 of one, and one
        # fastest harmonic per base period, so 2 samples doubled to 4
        assert "with 4 samples per base period" in message
        assert "g = 3, r = 55 base periods P/3" in message
        assert "tau/(P/3) = -0.100000" in message
        match = re.search(
            r"ion (\d+) has \|fine - coarse\| = (\S+) against an allowance of (\S+)$",
            message,
        )
        assert match, message
        assert 0 <= int(match[1]) < len(CRYSTAL)
        assert float(match[2]) > float(match[3]) > 0


class TestRwaLimits:
    def test_serial_rwa_exact_at_commensurate_times(self):
        # mixed parity, two orders in one segment, whole rotation periods:
        # every rotating term integrates to zero, so the Bessel-product
        # secular rate reproduces the exact phase to quadrature accuracy.
        deform = MirrorDeformation((
            DeformationComponent(2, even=monomial(0.25, 2), odd=monomial(0.1, 2)),
            DeformationComponent(5, even=monomial(0.15, 5)),
        ))
        seg = PulseSegment(
            deformation=deform, beatnotes=(2,), duration_s=12 * PERIOD,
            u_rad_s=U0, psi=PSI,
        )
        sched = PulseSchedule(
            mode="serial", omega_rad_s=OMEGA, segments=(seg,),
            target_u_rad_s=U0, gate_time_s=12 * PERIOD, amplitude=0.25,
        )
        exact = evolve_exact(CRYSTAL, sched, tol=1e-12)
        rwa = evolve_rwa(CRYSTAL, sched)
        assert np.max(np.abs(exact.theta - rwa.theta)) < 1e-11

    def test_parallel_rwa_within_linear_bound(self):
        amplitude = 0.05
        deform = MirrorDeformation((
            DeformationComponent(1, even=monomial(amplitude, 1)),
            DeformationComponent(2, even=monomial(amplitude, 2)),
        ))
        duration = 45 * PERIOD
        seg = PulseSegment(
            deformation=deform, beatnotes=(1, 2), duration_s=duration,
            u_rad_s=U0, psi=PSI,
        )
        sched = PulseSchedule(
            mode="parallel", omega_rad_s=OMEGA, segments=(seg,),
            target_u_rad_s=U0 / 2, gate_time_s=duration, amplitude=amplitude,
        )
        exact = evolve_exact(CRYSTAL, sched, tol=1e-12)
        rwa = evolve_rwa(CRYSTAL, sched)
        worst = float(np.max(infidelity(exact.theta, rwa.theta)))
        assert worst < (np.pi * amplitude / 2.0) ** 2

    def test_rwa_deviation_scales_inversely_with_rotation_rate(self):
        # the neglected terms oscillate at multiples of omega, so their
        # envelope shrinks like 1/omega; sample several stopping times
        # spanning one beatnote period to read off the envelope rather
        # than a single (phase-dependent) residue
        def envelope(omega):
            worst = 0.0
            for k in range(8):
                duration = 37.3e-6 + k * (2 * np.pi / omega) / 8.0
                sched = single_order_schedule(1, 0.25, duration)
                sched = PulseSchedule(
                    mode="serial", omega_rad_s=omega, segments=sched.segments,
                    target_u_rad_s=U0, gate_time_s=duration, amplitude=0.25,
                )
                exact = evolve_exact(CRYSTAL, sched, tol=1e-12)
                rwa = evolve_rwa(CRYSTAL, sched)
                worst = max(worst, float(np.max(np.abs(exact.theta - rwa.theta))))
            return worst

        ratio = envelope(OMEGA) / envelope(2 * OMEGA)
        assert 1.5 < ratio < 2.5


class TestComposition:
    def test_phase_additivity_across_segments(self):
        segs = []
        for m, amp, dur in [(0, 0.3, 20e-6), (3, 0.2, 35e-6)]:
            segs.append(single_order_schedule(m, amp, dur).segments[0])
        combined = PulseSchedule(
            mode="serial", omega_rad_s=OMEGA, segments=tuple(segs),
            target_u_rad_s=U0, gate_time_s=20e-6, amplitude=0.3,
        )
        total = evolve_exact(CRYSTAL, combined, tol=1e-12)
        parts = [
            evolve_exact(CRYSTAL, single_order_schedule(0, 0.3, 20e-6), tol=1e-12),
            evolve_exact(CRYSTAL, single_order_schedule(3, 0.2, 35e-6), tol=1e-12),
        ]
        assert np.max(np.abs(total.theta - parts[0].theta - parts[1].theta)) < 1e-11

    @pytest.mark.parametrize("orientation", [0.0, 0.3])
    def test_schedule_phase_is_the_in_order_sum_of_its_segments_bit_for_bit(self, orientation):
        # the ion tables of every segment come from one evaluation per
        # schedule; each segment's phase must keep the bits it has alone
        crystal = generate_hex_crystal(5, 0.2, orientation)
        pattern = make_pattern("displaced_gaussian", 3.0)
        schedule = plan_serial(
            decompose(pattern, 40, 20), U0, OMEGA, pattern_peak=pattern.peak_value()
        )
        theta = np.zeros(len(crystal))
        for seg in schedule.segments:
            theta = theta + evolve_exact(crystal, dataclasses.replace(schedule, segments=(seg,))).theta
        np.testing.assert_array_equal(evolve_exact(crystal, schedule).theta, theta)

    def test_metadata_records_method_and_hash(self):
        sched = single_order_schedule(2, 0.2, 30e-6)
        res = evolve_exact(CRYSTAL, sched)
        assert res.metadata["method"] == "exact-quadrature"
        assert len(res.metadata["schedule_hash"]) == 64


class TestExport:
    def test_evolution_csv_round_trip(self, tmp_path):
        sched = single_order_schedule(2, 0.2, 30e-6)
        res = evolve_exact(CRYSTAL, sched)
        res = res.with_targets(target_phases(CRYSTAL, annulus(1.0), U0, 30e-6))
        path = tmp_path / "evolution.csv"
        write_evolution_csv(res, CRYSTAL, path)

        rows = np.genfromtxt(path, delimiter=",", names=True)
        assert rows.shape[0] == len(CRYSTAL)
        assert np.allclose(rows["theta"], res.theta, rtol=0, atol=1e-15)
        assert np.allclose(rows["infidelity"], res.infidelity, rtol=0, atol=1e-15)
        assert np.allclose(rows["rho"], CRYSTAL.rho, rtol=0, atol=1e-15)

        sidecar = json.loads((tmp_path / "evolution.csv.json").read_text())
        assert sidecar["method"] == "exact-quadrature"
