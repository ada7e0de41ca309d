"""Pulse-schedule compilation: precompensation, calibration, interchange."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from starkshaper import planner
from starkshaper.crystal import generate_hex_crystal
from starkshaper.dynamics import evolve_exact
from starkshaper.errors import ConfigError, PrecompensationRangeError
from starkshaper.patterns import (
    AnnulusPattern,
    DisplacedGaussianPattern,
    EllipticalGaussianPattern,
    TabulatedPattern,
    make_pattern,
)
from starkshaper.planner import (
    DeformationComponent,
    MirrorDeformation,
    PulseSchedule,
    PulseSegment,
    RadialProfile,
    plan_parallel,
    plan_serial,
    load_schedule,
    save_schedule,
    schedule_from_json_dict,
    schedule_hash,
    schedule_to_json_dict,
    validate_schedule,
)
from starkshaper.specfun import J1_PEAK_VALUE, bessel_j
from starkshaper.zernike import decompose, expansion_from_json_dict, truncation_error_map

U0 = 2 * np.pi * 1.0e4
OMEGA = 2 * np.pi * 1.8e5
PERIOD = 2 * np.pi / OMEGA


def _parts(schedule):
    return [p for seg in schedule.segments for c in seg.deformation.components
            for p in (c.even, c.odd) if p is not None]


def _expansion(pattern, n_max, m_max):
    return decompose(pattern, n_max=n_max, m_max=m_max)


class TestSerialStructure:
    def test_annulus_single_static_segment(self):
        pat = AnnulusPattern(amplitude=1.0)
        s = plan_serial(_expansion(pat, 24, 0), U0, OMEGA, pattern_peak=pat.peak_value())
        assert s.mode == "serial"
        assert len(s.segments) == 1
        assert s.segments[0].beatnotes == (0,)
        # static segment keeps the uncommensurated calibrated duration
        assert s.segments[0].duration_s == pytest.approx(25e-6, rel=1e-12)
        assert s.gate_time_s == pytest.approx(25e-6, rel=1e-12)
        assert s.segments[0].u_rad_s == pytest.approx(U0)

    def test_elliptical_six_even_segments(self):
        pat = EllipticalGaussianPattern(amplitude=0.5)
        s = plan_serial(_expansion(pat, 26, 10), U0, OMEGA, pattern_peak=pat.peak_value())
        assert len(s.segments) == 6
        assert [seg.beatnotes[0] for seg in s.segments] == [0, 2, 4, 6, 8, 10]
        for seg in s.segments:
            assert seg.duration_s == pytest.approx(18 * PERIOD, rel=1e-12)
        assert s.total_duration_s == pytest.approx(600e-6, rel=1e-9)

    def test_displaced_segment_count_reflects_exact_symmetry(self):
        # center angle is exactly pi/6: even m=3,9 and odd m=6 vanish,
        # leaving 16 of the generic 19 components for |m| <= 9
        pat = DisplacedGaussianPattern(amplitude=3.0)
        s = plan_serial(_expansion(pat, 40, 9), U0, OMEGA, pattern_peak=pat.peak_value())
        assert len(s.segments) == 16
        for seg in s.segments:
            assert seg.duration_s == pytest.approx(3 * PERIOD, rel=1e-12)
            assert seg.duration_s == pytest.approx(16.6667e-6, rel=1e-4)

    def test_segments_ordered_by_m_even_before_odd(self):
        pat = DisplacedGaussianPattern(amplitude=0.5)
        s = plan_serial(_expansion(pat, 20, 4), U0, OMEGA, pattern_peak=pat.peak_value())
        keys = []
        for seg in s.segments:
            comp = seg.deformation.components[0]
            keys.append((comp.m, 0 if comp.even is not None else 1))
        assert keys == sorted(keys)

    def test_dm_reset_accounted_in_wall_time(self):
        pat = EllipticalGaussianPattern(amplitude=0.5)
        s = plan_serial(_expansion(pat, 26, 10), U0, OMEGA, pattern_peak=pat.peak_value())
        s = dataclasses.replace(s, dm_reset_time_s=50e-6)
        assert s.wall_time_s == pytest.approx(600e-6 + 5 * 50e-6, rel=1e-12)


class TestCalibrationIdentity:
    def test_tabulated_peak_ion_rotates_by_pi(self):
        # F = rho on a two-node radial table peaks at the six corner ions
        # (rho = 1, a table node); calibrated to the exact table peak, they
        # rotate by pi up to the truncation error the expansion leaves there
        pat = TabulatedPattern(1.0, np.array([0.0, 1.0]), np.array([0.0]), np.array([[0.0], [1.0]]))
        crystal = generate_hex_crystal(5, 0.2)
        exp = decompose(pat, 40, 0)
        s = plan_serial(exp, U0, OMEGA, pattern_peak=pat.peak_value())
        theta = evolve_exact(crystal, s).theta
        peak = np.flatnonzero(np.isclose(crystal.rho, 1.0))
        residual = truncation_error_map(pat, exp, crystal).ion_error[peak]
        assert peak.size == 6
        assert np.all(np.abs(theta[peak] - np.pi) <= np.pi * residual + 1e-9), (theta[peak] - np.pi, residual)
        assert np.all(residual < 1e-3)

    """The factor-of-2 anchor: a pure single-order pattern, serially
    compiled, must put the peak ion through exactly a pi rotation."""

    def test_static_arccos_identity(self):
        pat = AnnulusPattern(amplitude=1.0)
        exp = _expansion(pat, 24, 0)
        s = plan_serial(exp, U0, OMEGA, pattern_peak=pat.peak_value())
        seg = s.segments[0]
        comp = seg.deformation.components[0]
        rho = np.linspace(0, 1, 500)
        # cos(delta + psi) recovers A*P0 wherever the clip did not engage
        target = np.clip(exp.amplitude * exp.even(0, rho), -1.0, 1.0)
        realized = np.cos(comp.even(rho) + seg.psi)
        np.testing.assert_allclose(realized, target, atol=1e-12)
        # peak ion phase: 2 * U * F * T = pi
        assert 2 * seg.u_rad_s * 1.0 * seg.duration_s == pytest.approx(np.pi, rel=1e-12)

    def test_rotating_precompensation_round_trip(self):
        pat = EllipticalGaussianPattern(amplitude=0.5)
        exp = _expansion(pat, 26, 10)
        s = plan_serial(exp, U0, OMEGA, pattern_peak=pat.peak_value())
        rho = np.linspace(0, 1, 400)
        for seg in s.segments:
            comp = seg.deformation.components[0]
            if comp.m == 0:
                continue
            achieved = bessel_j(1, comp.even(rho))
            wanted = exp.amplitude * exp.even(comp.m, rho)
            np.testing.assert_allclose(achieved, wanted, atol=1e-10)

    def test_odd_component_round_trip(self):
        pat = DisplacedGaussianPattern(amplitude=3.0)
        exp = _expansion(pat, 30, 5)
        s = plan_serial(exp, U0, OMEGA, pattern_peak=pat.peak_value())
        rho = np.linspace(0, 1, 400)
        odd_segments = [
            seg for seg in s.segments
            if seg.deformation.components[0].odd is not None
        ]
        assert odd_segments
        for seg in odd_segments:
            comp = seg.deformation.components[0]
            achieved = bessel_j(1, comp.odd(rho))
            wanted = exp.amplitude * exp.odd(comp.m, rho)
            np.testing.assert_allclose(achieved, wanted, atol=1e-10)


class TestCommensuration:
    def test_rotating_durations_are_integer_periods(self):
        pat = DisplacedGaussianPattern(amplitude=3.0)
        s = plan_serial(_expansion(pat, 40, 9), U0, OMEGA, pattern_peak=pat.peak_value())
        for seg in s.segments:
            rot = seg.duration_s / PERIOD
            assert abs(rot - round(rot)) < 1e-9

    def test_strength_rescaled_to_preserve_area(self):
        # awkward peak: T_base not an integer period count, so U shrinks
        pat = EllipticalGaussianPattern(amplitude=0.37)
        peak = pat.peak_value()
        s = plan_serial(_expansion(pat, 20, 8), U0, OMEGA, pattern_peak=peak)
        t_base = np.pi / (2 * U0 * peak)
        for seg in s.segments:
            assert seg.duration_s >= t_base - 1e-15
            assert seg.u_rad_s <= U0 * (1 + 1e-12)
            assert seg.u_rad_s * seg.duration_s == pytest.approx(U0 * t_base, rel=1e-12)


class TestParallel:
    def test_single_segment_full_comb(self):
        pat = EllipticalGaussianPattern(amplitude=0.4)
        s = plan_parallel(_expansion(pat, 26, 10), U0, OMEGA, pattern_peak=pat.peak_value())
        assert s.mode == "parallel"
        assert len(s.segments) == 1
        assert s.segments[0].beatnotes == (0, 2, 4, 6, 8, 10)
        assert s.segments[0].duration_s == pytest.approx(45 * PERIOD, rel=1e-12)
        assert s.target_u_rad_s == pytest.approx(0.5 * s.segments[0].u_rad_s, rel=1e-15)

    def test_gate_times_for_reference_amplitudes(self):
        for amp, rots in [(0.4, 45), (0.2, 90)]:
            pat = EllipticalGaussianPattern(amplitude=amp)
            s = plan_parallel(_expansion(pat, 26, 10), U0, OMEGA, pattern_peak=pat.peak_value())
            assert s.gate_time_s == pytest.approx(rots * PERIOD, rel=1e-12)
        pat = DisplacedGaussianPattern(amplitude=0.3)
        s = plan_parallel(_expansion(pat, 40, 9), U0, OMEGA, pattern_peak=pat.peak_value())
        assert s.gate_time_s == pytest.approx(60 * PERIOD, rel=1e-12)

    def test_m0_component_halved_others_unscaled(self):
        pat = DisplacedGaussianPattern(amplitude=0.3)
        exp = _expansion(pat, 20, 6)
        s = plan_parallel(exp, U0, OMEGA, pattern_peak=pat.peak_value())
        rho = np.linspace(0, 1, 300)
        for comp in s.segments[0].deformation.components:
            if comp.m == 0:
                np.testing.assert_allclose(
                    comp.even(rho), 0.5 * exp.amplitude * exp.even(0, rho), atol=1e-14
                )
            else:
                if comp.even is not None:
                    np.testing.assert_allclose(
                        comp.even(rho), exp.amplitude * exp.even(comp.m, rho), atol=1e-14
                    )
                if comp.odd is not None:
                    np.testing.assert_allclose(
                        comp.odd(rho), exp.amplitude * exp.odd(comp.m, rho), atol=1e-14
                    )

    def test_amplitude_warning_above_linear_regime(self):
        pat = EllipticalGaussianPattern(amplitude=0.4)
        s = plan_parallel(_expansion(pat, 20, 8), U0, OMEGA, pattern_peak=pat.peak_value())
        rep = validate_schedule(s)
        assert rep.ok  # warning, not a structural failure
        assert any("linear regime" in w for w in rep.warnings)


class TestRangeErrors:
    def test_arccos_domain_violation(self):
        # amplitude 1.2 pushes |A*P0| well past 1
        pat = AnnulusPattern(amplitude=1.2)
        with pytest.raises(PrecompensationRangeError, match="arccos"):
            plan_serial(_expansion(pat, 24, 0), U0, OMEGA, pattern_peak=pat.peak_value())

    def test_j1_range_violation_names_order(self):
        # huge amplitude drives A*P^m beyond the J1 peak
        pat = EllipticalGaussianPattern(amplitude=3.0)
        with pytest.raises(PrecompensationRangeError, match="m="):
            plan_serial(_expansion(pat, 26, 10), U0, OMEGA, pattern_peak=pat.peak_value())

    def test_slight_arccos_overshoot_is_clipped(self):
        # truncation ripple pushes |A*P0| a hair over 1 for A=1; the planner
        # must clip, not fail
        pat = AnnulusPattern(amplitude=1.0)
        s = plan_serial(_expansion(pat, 54, 0), U0, OMEGA, pattern_peak=pat.peak_value())
        comp = s.segments[0].deformation.components[0]
        vals = comp.even(np.linspace(0, 1, 1000))
        assert np.all(np.isfinite(vals))


class TestScheduleInterchange:
    def test_json_round_trip_preserves_segments(self, tmp_path):
        # the file holds the exact program: the reloaded schedule simulates
        # to the same bits and hashes to the same digest
        crystal = generate_hex_crystal(3, 0.3)
        serial_pat = DisplacedGaussianPattern(amplitude=3.0)
        parallel_pat = DisplacedGaussianPattern(amplitude=0.3)
        schedules = [
            plan_serial(_expansion(serial_pat, 30, 5), U0, OMEGA,
                        pattern_peak=serial_pat.peak_value()),
            plan_parallel(_expansion(parallel_pat, 30, 5), U0, OMEGA,
                          pattern_peak=parallel_pat.peak_value()),
        ]
        for s in schedules:
            save_schedule(s, tmp_path / "schedule.json")
            clone = load_schedule(tmp_path / "schedule.json")
            assert clone.mode == s.mode
            assert len(clone.segments) == len(s.segments)
            assert clone.gate_time_s == s.gate_time_s
            for a, b in zip(s.segments, clone.segments):
                assert a.beatnotes == b.beatnotes
                assert a.duration_s == b.duration_s
            theta = evolve_exact(crystal, s).theta
            assert np.array_equal(evolve_exact(crystal, clone).theta, theta)
            assert schedule_hash(clone) == schedule_hash(s)

    def test_hash_is_deterministic_and_content_sensitive(self):
        pat = EllipticalGaussianPattern(amplitude=0.5)
        exp = _expansion(pat, 20, 8)
        s1 = plan_serial(exp, U0, OMEGA, pattern_peak=pat.peak_value())
        s2 = plan_serial(exp, U0, OMEGA, pattern_peak=pat.peak_value())
        assert schedule_hash(s1) == schedule_hash(s2)
        s3 = plan_serial(exp, U0, OMEGA, psi=-1.2, pattern_peak=pat.peak_value())
        assert schedule_hash(s3) != schedule_hash(s1)

    def test_calibration_invariant_under_strength_rescale(self):
        # u_seg * T_seg is pinned by the pi calibration and T is quantized
        # to rotation periods, so a small U change yields the same program
        pat = EllipticalGaussianPattern(amplitude=0.5)
        exp = _expansion(pat, 20, 8)
        s1 = plan_serial(exp, U0, OMEGA, pattern_peak=pat.peak_value())
        s3 = plan_serial(exp, U0 * 1.01, OMEGA, pattern_peak=pat.peak_value())
        assert schedule_hash(s3) == schedule_hash(s1)

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigError):
            schedule_from_json_dict({"mode": "serial", "segments": []})

    @pytest.mark.parametrize("path, value, field", [
        (("beatnotes", 0), True, "beatnotes"),
        (("beatnotes", 0), 1.5, "beatnotes"),
        (("beatnotes", 0), "2", "beatnotes"),
        (("beatnotes", 0), float("nan"), "beatnotes"),
        (("components", 0, "m"), 1.5, "deformation order"),
        (("components", 0, "m"), True, "deformation order"),
        (("components", 0, "m"), float("inf"), "deformation order"),
        (("components", 0, "even", "order"), 2.5, "radial order"),
        (("components", 0, "even", "order"), "2", "radial order"),
        (("components", 0, "even", "order"), float("nan"), "radial order"),
    ], ids=[
        "beatnote-bool", "beatnote-fraction", "beatnote-string", "beatnote-nan",
        "m-fraction", "m-bool", "m-inf", "order-fraction", "order-string", "order-nan",
    ])
    def test_loader_refuses_inexact_integers(self, path, value, field):
        # a beatnote, order m or radial order that is not a whole number
        # must not load as a different program than the file states
        seg = PulseSegment(
            deformation=MirrorDeformation((DeformationComponent(2, even=RadialProfile(2, (0.1,))),)),
            beatnotes=(2,), duration_s=3 * PERIOD, u_rad_s=1e4, psi=-np.pi / 2,
        )
        sched = PulseSchedule(
            mode="serial", omega_rad_s=OMEGA, segments=(seg, seg),
            target_u_rad_s=1e4, gate_time_s=6 * PERIOD, amplitude=0.1,
        )
        payload = schedule_to_json_dict(sched)
        record = payload["segments"][1]
        for key in path[:-1]:
            record = record[key]
        record[path[-1]] = value
        with pytest.raises(ConfigError, match=f"schedule segment 1: .*{field}") as info:
            schedule_from_json_dict(payload)
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("path, value", [
        (("segments", 1, "duration_s"), "1e-5"),
        (("segments", 1, "u_rad_s"), True),
        (("segments", 1, "psi"), True),
        (("segments", 1, "psi"), "-1.5"),
        (("segments", 1, "components", 0, "even", "coeffs", 0), True),
        (("segments", 1, "components", 0, "even", "coeffs", 0), "0.1"),
        (("segments", 1, "components", 0, "even", "scale"), True),
        (("segments", 1, "components", 0, "even", "offset"), "0"),
        (("omega_rad_s",), "1.1e6"),
        (("target_u_rad_s",), True),
        (("gate_time_s",), "1e-5"),
        (("amplitude",), False),
        (("dm_reset_time_s",), "0"),
    ], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else repr(v))
    def test_loader_refuses_non_real_fields(self, path, value):
        # a real-valued field that is not a number must not load as the
        # number float() makes of it
        seg = PulseSegment(
            deformation=MirrorDeformation((DeformationComponent(2, even=RadialProfile(2, (0.1,))),)),
            beatnotes=(2,), duration_s=3 * PERIOD, u_rad_s=1e4, psi=-np.pi / 2,
        )
        sched = PulseSchedule(
            mode="serial", omega_rad_s=OMEGA, segments=(seg, seg),
            target_u_rad_s=1e4, gate_time_s=6 * PERIOD, amplitude=0.1,
        )
        payload = json.loads(json.dumps(schedule_to_json_dict(sched)))
        record = payload
        for key in path[:-1]:
            record = record[key]
        record[path[-1]] = value
        named = [k for k in path if isinstance(k, str)][-1]
        where = "schedule segment 1: .*" if path[0] == "segments" else ""
        with pytest.raises(ConfigError, match=f"{where}{re.escape(named)}.* must be .*got {re.escape(repr(value))}") as info:
            schedule_from_json_dict(payload)
        assert info.value.exit_code == 2


class TestStructuralValidation:
    def test_component_requires_a_part(self):
        with pytest.raises(ConfigError):
            DeformationComponent(2)

    def test_parts_must_be_records(self):
        with pytest.raises(ConfigError, match="RadialProfile"):
            DeformationComponent(2, even=lambda r: 0.1 * r)
        with pytest.raises(ConfigError, match="transfer"):
            RadialProfile(2, (0.1,), "tabulated")
        with pytest.raises(ConfigError, match="finite"):
            RadialProfile(2, (float("nan"),))

    @pytest.mark.parametrize("field, value", [
        ("psi", float("nan")), ("psi", float("inf")),
        ("beatnotes", (float("nan"),)), ("beatnotes", (2, float("inf"))),
    ])
    def test_segment_refuses_non_finite_psi_and_beatnotes(self, field, value):
        kwargs = dict(
            deformation=MirrorDeformation((DeformationComponent(2, even=RadialProfile(2, (0.1,))),)),
            beatnotes=(2,), duration_s=1e-5, u_rad_s=1e4, psi=-np.pi / 2,
        )
        with pytest.raises(ConfigError, match=f"segment {field} must be finite"):
            PulseSegment(**{**kwargs, field: value})

    def test_m0_cannot_carry_sin(self):
        with pytest.raises(ConfigError):
            DeformationComponent(0, even=RadialProfile(1, (1.0,)), odd=RadialProfile(1, (1.0,)))

    def test_duplicate_orders_rejected(self):
        with pytest.raises(ConfigError):
            MirrorDeformation(
                (DeformationComponent(1, even=RadialProfile(1, (1.0,))),
                 DeformationComponent(1, odd=RadialProfile(1, (1.0,))))
            )

    def test_parallel_multi_segment_rejected(self):
        seg = PulseSegment(
            deformation=MirrorDeformation((DeformationComponent(0, even=RadialProfile(1, (1.0,))),)),
            beatnotes=(0,), duration_s=1e-5, u_rad_s=1e4, psi=-np.pi / 2,
        )
        with pytest.raises(ConfigError):
            PulseSchedule(
                mode="parallel", omega_rad_s=OMEGA, segments=(seg, seg),
                target_u_rad_s=1e4, gate_time_s=2e-5, amplitude=0.1,
            )

    def test_validation_flags_noncommensurate_rotating_segment(self):
        seg = PulseSegment(
            deformation=MirrorDeformation((DeformationComponent(2, even=RadialProfile(1, (0.1,))),)),
            beatnotes=(2,), duration_s=1.37 * PERIOD, u_rad_s=1e4, psi=-np.pi / 2,
        )
        s = PulseSchedule(
            mode="serial", omega_rad_s=OMEGA, segments=(seg,),
            target_u_rad_s=1e4, gate_time_s=seg.duration_s, amplitude=0.1,
        )
        rep = validate_schedule(s)
        assert not rep.ok
        assert any("commensurate" in w for w in rep.warnings)

    def test_empty_expansion_refused(self):
        exp = expansion_from_json_dict(
            {"amplitude": 1.0, "n_max": 4, "m_max": 2, "coefficients": [{"n": 2, "m": 0, "alpha": 0.0}]}
        )
        with pytest.raises(ConfigError):
            plan_serial(exp, U0, OMEGA, pattern_peak=1.0)

    @pytest.mark.parametrize("plan", [plan_serial, plan_parallel])
    def test_plan_and_validate_evaluate_each_part_once_on_the_check_grid(self, plan, monkeypatch):
        # planning sweeps the check grid once per order, both parities
        # contracting the same sweep; validating the planned schedule reuses
        # the records' ranges, and a loaded copy sweeps once per order again
        pat = DisplacedGaussianPattern(amplitude=0.3)
        exp = _expansion(pat, 16, 5)
        sweeps = []
        real_stack = planner.zernike_radial_stack

        def counting_stack(m, k_max, rho):
            if np.size(rho) == planner._CHECK_RHO.size:
                sweeps.append(m)
            return real_stack(m, k_max, rho)

        monkeypatch.setattr(planner, "zernike_radial_stack", counting_stack)
        s = plan(exp, U0, OMEGA, pattern_peak=pat.peak_value())
        assert sweeps == exp.active_orders(1e-12)
        assert validate_schedule(s).ok
        assert sweeps == exp.active_orders(1e-12)
        sweeps.clear()
        schedule_from_json_dict(schedule_to_json_dict(s))
        assert sweeps == sorted({p.order for p in _parts(s)})

    @pytest.mark.parametrize("plan, calls", [(plan_serial, 1), (plan_parallel, 0)])
    def test_validate_and_evolve_invert_j1_once_per_schedule(self, plan, calls, monkeypatch):
        pat = DisplacedGaussianPattern(amplitude=0.3)
        exp = _expansion(pat, 16, 5)
        inversions = []
        real_inverse = planner.inverse_j1

        def counting_inverse(y):
            inversions.append(np.size(y))
            return real_inverse(y)

        monkeypatch.setattr(planner, "inverse_j1", counting_inverse)
        s = plan(exp, U0, OMEGA, pattern_peak=pat.peak_value())
        assert inversions == []
        j1inv = sum(p.transfer == "j1inv" for p in _parts(s))
        validate_schedule(s)
        assert inversions == [2 * j1inv] * calls  # both range ends of every j1inv part
        inversions.clear()
        crystal = generate_hex_crystal(3, 0.3)
        evolve_exact(crystal, s)
        assert inversions == [len(crystal) * j1inv] * calls

    def test_stages_allocate_little(self, tmp_path):
        # the check grid is swept one order at a time, and the joint sweeps
        # of the error map and the ion tables stay below decompose's peak
        pattern = make_pattern("displaced_gaussian", 3.0)
        crystal = generate_hex_crystal(5, 0.2)

        def peak(fn, *args, **kwargs):
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        exp, decompose_peak = peak(decompose, pattern, 40, 20)
        schedule, plan_peak = peak(plan_serial, exp, U0, OMEGA, pattern_peak=pattern.peak_value())
        save_schedule(schedule, tmp_path / "schedule.json")
        _, load_peak = peak(load_schedule, tmp_path / "schedule.json")
        _, map_peak = peak(truncation_error_map, pattern, exp, crystal)
        _, evolve_peak = peak(evolve_exact, crystal, schedule)
        assert plan_peak < 2**20 and load_peak < 2**20, (plan_peak, load_peak)
        assert map_peak < decompose_peak and evolve_peak < decompose_peak, (
            map_peak, evolve_peak, decompose_peak)
