"""End-to-end acceptance runs at the reference parameters.

One test (or test pair) per numbered criterion; every sub-check lands on
the scoreboard that conftest prints as a per-criterion summary after the
run.  Thresholds here are the contract -- they are asserted at their
stated tolerances, never loosened to match this implementation.
"""


import numpy as np
import pytest
from scipy.linalg import expm

from conftest import record_acceptance
from radial_sums import even
from starkshaper import analysis as an
from starkshaper.crystal import generate_hex_crystal
from starkshaper.dynamics import (
    evolve_exact,
    evolve_exact_bessel,
    evolve_rwa,
    infidelity,
    target_phases,
)
from starkshaper.patterns import DisplacedGaussianPattern, EllipticalGaussianPattern
from starkshaper.planner import (
    DeformationComponent,
    MirrorDeformation,
    PulseSchedule,
    PulseSegment,
    RadialProfile,
    plan_serial,
)
from starkshaper.specfun import ZernikeIndex, bessel_j, zernike_eval
from starkshaper.zernike import decompose, disk_inner_product

U0 = 2 * np.pi * 1.0e4
OMEGA = 2 * np.pi * 1.8e5
PERIOD = 2 * np.pi / OMEGA


def check(criterion, label, passed, detail=""):
    record_acceptance(criterion, label, "pass" if passed else "fail", detail)
    return bool(passed)


@pytest.fixture(scope="session")
def crystal91():
    return generate_hex_crystal(5, 0.2)


@pytest.fixture(scope="session")
def reports(crystal91):
    """All ten reference scenario runs, keyed like the registry."""
    return {
        key: an.run_scenario(*key, crystal=crystal91)
        for key in an.SCENARIOS
    }


@pytest.fixture(scope="session")
def rwa_reference():
    return an.rwa_study([2 * np.pi * 43.8e3, OMEGA], u_rad_s=U0, sample_count=1000)


class TestCriterion1AnnulusSerial:
    def test_tiers_and_gate_time(self, reports):
        r24 = reports[("annulus", "serial", 1e-2)]
        r54 = reports[("annulus", "serial", 1e-3)]
        results = [
            check(1, "annulus serial n_max=24: max infidelity < 1e-2",
                  r24.max_infidelity < 1e-2, f"measured {r24.max_infidelity:.3e}"),
            check(1, "annulus serial n_max=54: max infidelity < 1e-3",
                  r54.max_infidelity < 1e-3, f"measured {r54.max_infidelity:.3e}"),
            check(1, "gate time 25 us within 5%",
                  abs(r24.gate_time_s - 25e-6) <= 0.05 * 25e-6,
                  f"measured {r24.gate_time_s * 1e6:.4g} us"),
        ]
        assert all(results)


class TestCriterion2AnnulusReconstruction:
    def test_at_ion_truncation_error(self, reports):
        r24 = reports[("annulus", "serial", 1e-2)]
        limit = 0.05 * 1.2  # stated bound plus the 20% layout allowance
        assert check(2, "annulus n_max=24 at-ion truncation error <= 0.05 (+20%)",
                     r24.error_ion_max <= limit,
                     f"measured {r24.error_ion_max:.3e}")


class TestCriterion3EllipticalSerial:
    def test_tiers_and_totals(self, reports):
        r1 = reports[("elliptical", "serial", 1e-2)]
        r2 = reports[("elliptical", "serial", 1e-3)]
        results = [
            check(3, "elliptical serial (26,10): max infidelity < 1e-2",
                  r1.max_infidelity < 1e-2, f"measured {r1.max_infidelity:.3e}"),
            check(3, "elliptical serial (32,12): max infidelity < 1e-3",
                  r2.max_infidelity < 1e-3, f"measured {r2.max_infidelity:.3e}"),
            check(3, "per-segment time is 18 rotation periods",
                  abs(r1.gate_time_s - 18 * PERIOD) < 1e-15,
                  f"{r1.gate_time_s * 1e6:.4g} us"),
            check(3, "total gate times 600/700 us",
                  abs(r1.total_duration_s - 600e-6) < 1e-12
                  and abs(r2.total_duration_s - 700e-6) < 1e-12,
                  f"{r1.total_duration_s * 1e6:.4g}/{r2.total_duration_s * 1e6:.4g} us"),
        ]
        assert all(results)


class TestCriterion4EllipticalParallel:
    def test_tiers(self, reports):
        r1 = reports[("elliptical", "parallel", 1e-2)]
        r2 = reports[("elliptical", "parallel", 1e-3)]
        results = [
            check(4, "elliptical parallel A=0.4, T=45 rotations: max < 1e-2",
                  r1.max_infidelity < 1e-2 and abs(r1.gate_time_s - 45 * PERIOD) < 1e-15,
                  f"measured {r1.max_infidelity:.3e}"),
            check(4, "elliptical parallel A=0.2, T=90 rotations: max < 3e-3",
                  r2.max_infidelity < 3e-3 and abs(r2.gate_time_s - 90 * PERIOD) < 1e-15,
                  f"measured {r2.max_infidelity:.3e}"),
        ]
        assert all(results)


class TestCriterion5DisplacedSerial:
    def test_tiers(self, reports):
        r1 = reports[("displaced", "serial", 1e-2)]
        r2 = reports[("displaced", "serial", 1e-3)]
        results = [
            check(5, "displaced serial |m|<=9: max infidelity < 1e-2",
                  r1.max_infidelity < 1e-2, f"measured {r1.max_infidelity:.3e}"),
            check(5, "displaced serial |m|<=20: max infidelity < 1e-3",
                  r2.max_infidelity < 1e-3, f"measured {r2.max_infidelity:.3e}"),
        ]
        assert all(results)

    def test_addressed_ion_contrast(self, reports, crystal91):
        # The -0.99 contrast figure is only self-consistent with the
        # |m| <= 20 tier: the coarser tier's own threshold tolerates up
        # to 1e-2 infidelity at the addressed ion, i.e. sigma_x as high
        # as -0.98.  The spectator clause holds at both tiers.
        x, y = crystal91.cartesian()
        dist = np.hypot(x - 0.3, y - 0.1 * np.sqrt(3))
        addressed = int(np.argmin(dist))
        assert dist[addressed] < 1e-12  # the spot center is a lattice site
        spectators = dist > 2 * 0.2 + 1e-12
        sx_coarse = reports[("displaced", "serial", 1e-2)].result.sigma_x
        sx_fine = reports[("displaced", "serial", 1e-3)].result.sigma_x
        results = [check(
            5, "addressed ion sigma_x < -0.99 (|m| <= 20 tier)",
            sx_fine[addressed] < -0.99,
            f"measured {sx_fine[addressed]:+.5f} "
            f"(coarse |m| <= 9 tier reaches {sx_coarse[addressed]:+.5f})",
        )]
        for tier, sx in (("|m| <= 9", sx_coarse), ("|m| <= 20", sx_fine)):
            worst = float(np.min(sx[spectators]))
            results.append(check(
                5, f"{tier}: ions beyond 2 lattice spacings keep sigma_x > 0.98",
                worst > 0.98, f"worst {worst:+.5f}",
            ))
        assert all(results)


class TestHundredsOfIons:
    @pytest.mark.parametrize("shells, ions, n_max, m_max, target_sigma_x", [
        (12, 469, 96, 40, -0.999),
        (20, 1261, 160, 64, -0.998),
    ], ids=["469-ions", "1261-ions"])
    def test_single_ion_addressing(self, shells, ions, n_max, m_max, target_sigma_x):
        # The abstract's claim at the registry's spot, scaled to the
        # crystal: the spot width shrinks with the spacing a and sits on
        # lattice site (i, j) = (4, 2).  The 1261-ion spot needs the
        # 192x1024 decomposition rule.
        a = 1.0 / shells
        crystal = generate_hex_crystal(shells, a)
        cx, cy = 5 * a, np.sqrt(3) * a
        pattern = DisplacedGaussianPattern(3.0, eta=0.0707 * a / 0.2, delta_x=cx, delta_y=cy)
        schedule = plan_serial(decompose(pattern, n_max, m_max), U0, OMEGA,
                               pattern_peak=pattern.peak_value())
        result = evolve_exact(crystal, schedule, tol=1e-12)
        result = result.with_targets(target_phases(
            crystal, pattern, schedule.target_u_rad_s, schedule.gate_time_s))
        x, y = crystal.cartesian()
        dist = np.hypot(x - cx, y - cy)
        addressed = int(np.argmin(dist))
        assert len(crystal) == ions and dist[addressed] < 1e-12
        assert result.max_infidelity < 1e-3
        assert result.sigma_x[addressed] < target_sigma_x
        assert np.min(result.sigma_x[dist > 2 * a - 1e-12]) > 0.9999


class TestCriterion6DisplacedParallel:
    def test_tiers(self, reports):
        r1 = reports[("displaced", "parallel", 1e-2)]
        r2 = reports[("displaced", "parallel", 1e-3)]
        results = [
            check(6, "displaced parallel |m|<=9: max infidelity < 1e-2",
                  r1.max_infidelity < 1e-2, f"measured {r1.max_infidelity:.3e}"),
            check(6, "displaced parallel |m|<=20: max infidelity < 1e-3",
                  r2.max_infidelity < 1e-3, f"measured {r2.max_infidelity:.3e}"),
            check(6, "gate time 60 rotations (~333.33 us)",
                  abs(r1.gate_time_s - 60 * PERIOD) < 1e-15,
                  f"{r1.gate_time_s * 1e6:.5g} us"),
        ]
        assert all(results)


class TestCriterion7RwaStudy:
    def test_commensurate_samples_are_exact(self, rwa_reference):
        worst = max(s.max_commensurate_infidelity for s in rwa_reference.series)
        assert check(7, "commensurate-time infidelity < 1e-9 at both rates",
                     worst < 1e-9, f"worst {worst:.3e}")

    @pytest.mark.xfail(
        strict=True,
        reason="the quoted deviation maxima are not attained at U = 2pi x 10 kHz: "
               "they correspond to half this drive's phase deviation "
               "(measured 1.92e-1 vs ~5e-2 within x2, and 1.21e-2 vs < 3e-3); "
               "running the same study at U = 2pi x 5 kHz reproduces the first "
               "value to 1% and misses the second by 1.4%",
    )
    def test_reference_deviation_values(self, rwa_reference):
        slow, fast = rwa_reference.series
        record_acceptance(
            7, "max infidelity ~5e-2 at 43.8 kHz (within factor 2)", "xfail",
            f"measured {slow.max_infidelity:.4e}",
        )
        record_acceptance(
            7, "max infidelity < 3e-3 at 180 kHz", "xfail",
            f"measured {fast.max_infidelity:.4e}",
        )
        assert 2.5e-2 <= slow.max_infidelity <= 1.0e-1
        assert fast.max_infidelity < 3e-3


class TestCriterion8TruncationMaps:
    def test_reference_map_values(self, reports):
        ell = reports[("elliptical", "serial", 1e-2)]
        disp = reports[("displaced", "serial", 1e-2)]

        def within(value, reference):
            return abs(value - reference) <= 0.2 * reference

        results = [
            check(8, "elliptical (26,10) disk-max error 0.09 within 20%",
                  within(ell.error_disk_max, 0.09),
                  f"measured {ell.error_disk_max:.4f}"),
            check(8, "elliptical (26,10) at-ion error 0.035 within 20%",
                  within(ell.error_ion_max, 0.035),
                  f"measured {ell.error_ion_max:.4f}"),
            check(8, "displaced (40,9) disk-max error 0.06 within 20%",
                  within(disp.error_disk_max, 0.06),
                  f"measured {disp.error_disk_max:.4f}"),
        ]
        assert all(results)


class TestCriterion9Properties:
    """Compact re-run of each property family so the scoreboard carries an
    explicit verdict; the full suites live in the per-module test files."""

    def test_orthogonality_and_round_trip(self):
        z22 = lambda rho, phi: zernike_eval(ZernikeIndex(2, 2), rho, phi)
        z42 = lambda rho, phi: zernike_eval(ZernikeIndex(4, 2), rho, phi)
        z31 = lambda rho, phi: zernike_eval(ZernikeIndex(3, -1), rho, phi)
        cross = max(abs(disk_inner_product(z22, z42)),
                    abs(disk_inner_product(z22, z31)))
        ortho = check(9, "basis orthogonality to 1e-9", cross < 1e-9,
                      f"worst cross term {cross:.2e}")

        class Synth:
            amplitude = 1.0

            def __call__(self, rho, phi):
                return (0.4 * zernike_eval(ZernikeIndex(6, 2), rho, phi)
                        - 0.7 * zernike_eval(ZernikeIndex(5, -3), rho, phi))

        exp = decompose(Synth(), 8, 4)
        err = max(abs(exp.coefficient(6, 2) - 0.4),
                  abs(exp.coefficient(5, -3) + 0.7))
        rt = check(9, "decompose/reconstruct round trip to 1e-9", err < 1e-9,
                   f"coefficient error {err:.2e}")
        assert ortho and rt

    def test_phase_oracle_agreement(self, crystal91):
        comp = DeformationComponent(3, even=RadialProfile(3, (0.3,)))
        seg = PulseSegment(deformation=MirrorDeformation((comp,)), beatnotes=(3,),
                           duration_s=47.7e-6, u_rad_s=U0, psi=-np.pi / 2)
        sched = PulseSchedule(mode="serial", omega_rad_s=OMEGA, segments=(seg,),
                              target_u_rad_s=U0, gate_time_s=47.7e-6, amplitude=0.3)
        quad = evolve_exact(crystal91, sched, tol=1e-12)
        series = evolve_exact_bessel(crystal91, sched, n_terms=30)
        gap = float(np.max(np.abs(quad.theta - series.theta)))
        assert check(9, "quadrature vs analytic-series phase to 1e-9",
                     gap < 1e-9, f"max gap {gap:.2e}")

    def test_randomized_commensurate_exactness(self):
        crystal = generate_hex_crystal(3, 0.3)
        rng = np.random.default_rng(20260815)
        worst = 0.0
        for _ in range(4):
            orders = rng.choice(np.arange(1, 7), size=2, replace=False)
            comps = []
            for m in sorted(int(v) for v in orders):
                amp_e = float(rng.uniform(0.05, 0.3))
                amp_o = float(rng.uniform(0.05, 0.3))
                comps.append(DeformationComponent(
                    m,
                    even=RadialProfile(m, (amp_e,)),
                    odd=RadialProfile(m, (amp_o,)),
                ))
            duration = int(rng.integers(5, 20)) * PERIOD
            seg = PulseSegment(deformation=MirrorDeformation(tuple(comps)),
                               beatnotes=(comps[0].m,), duration_s=duration,
                               u_rad_s=U0, psi=-np.pi / 2)
            sched = PulseSchedule(mode="serial", omega_rad_s=OMEGA, segments=(seg,),
                                  target_u_rad_s=U0, gate_time_s=duration,
                                  amplitude=0.3)
            exact = evolve_exact(crystal, sched, tol=1e-12)
            secular = evolve_rwa(crystal, sched)
            worst = max(worst, float(np.max(np.abs(exact.theta - secular.theta))))
        assert check(9, "commensurate-time exactness (randomized) to 10x tolerance",
                     worst < 1e-11, f"worst phase gap {worst:.2e}")

    def test_precompensation_round_trip(self):
        pat = EllipticalGaussianPattern(amplitude=0.5)
        exp = decompose(pat, 26, 10)
        sched = plan_serial(exp, U0, OMEGA, pattern_peak=pat.peak_value())
        rho = np.linspace(0.0, 1.0, 400)
        worst = 0.0
        for seg in sched.segments:
            comp = seg.deformation.components[0]
            if comp.m == 0:
                continue
            achieved = bessel_j(1, comp.even(rho))
            wanted = exp.amplitude * even(exp, comp.m, rho)
            worst = max(worst, float(np.max(np.abs(achieved - wanted))))
        assert check(9, "precompensation round-trip identity to 1e-10",
                     worst < 1e-10, f"worst residual {worst:.2e}")

    def test_infidelity_against_matrix_exponential(self):
        sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        worst = 0.0
        for theta, target in ((0.7, 0.2), (3.1, -1.4), (0.0, 0.0), (np.pi, 0.0)):
            psi = expm(-0.5j * theta * sz) @ plus
            ref = expm(-0.5j * target * sz) @ plus
            direct = 1.0 - abs(np.conj(ref) @ psi) ** 2
            worst = max(worst, abs(infidelity(theta, target) - direct))
        assert check(9, "infidelity closed form vs 2x2 matrix exponential to 1e-12",
                     worst < 1e-12, f"worst gap {worst:.2e}")

    def test_rerun_determinism(self, tmp_path):
        a = an.run_scenario("annulus", "serial", 1e-2, out_dir=tmp_path / "a")
        b = an.run_scenario("annulus", "serial", 1e-2, out_dir=tmp_path / "b")
        same = all(
            (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            for name in ("report.json", "evolution.csv", "error_map.csv",
                         "histogram.csv", "schedule.json", "expansion.json")
        )
        assert check(9, "byte-identical rerun artifacts", same,
                     f"schedule {a.schedule_sha256[:12]}")


class TestCriterion10Bounds:
    def test_measured_never_exceeds_twice_the_bound(self, reports):
        worst_key, worst_ratio = None, 0.0
        for key, rep in reports.items():
            if rep.measured_over_bound > worst_ratio:
                worst_key, worst_ratio = key, rep.measured_over_bound
        assert check(
            10, "max infidelity <= 2x (truncation_bound + linear_bound) in all scenarios",
            worst_ratio <= 2.0,
            f"worst ratio {worst_ratio:.3f} at {'/'.join(str(k) for k in worst_key)}",
        )

    def test_required_error_helper_reference_values(self):
        e2 = an.required_truncation_error(1e-2)
        e3 = an.required_truncation_error(1e-3)
        results = [
            check(10, "error budget for 1e-2 rounds to 0.064",
                  round(e2, 3) == 0.064, f"{e2:.6f}"),
            check(10, "error budget for 1e-3 rounds to 0.02",
                  round(e3, 2) == 0.02, f"{e3:.6f}"),
        ]
        assert all(results)

    def test_worst_case_pair_stays_within_budget(self, crystal91):
        study = an.worst_case_parallel_pair(1, 0.02, U0, OMEGA, crystal91)
        assert check(
            10, "worst-case two-order comb at A=0.02 stays below 1e-3",
            study.max_infidelity < 1e-3 and study.max_infidelity < study.bound,
            f"measured {study.max_infidelity:.3e}, bound {study.bound:.3e}",
        )
