"""Budget helpers, the exact-vs-RWA study, the worst-case parallel comb,
and the named scenario pipeline."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from starkshaper import analysis as an
from starkshaper.crystal import IonCrystal, generate_hex_crystal
from starkshaper.dynamics import evolve_exact, evolve_exact_bessel
from starkshaper.errors import ConfigError
from starkshaper.planner import (
    DeformationComponent,
    MirrorDeformation,
    PulseSchedule,
    PulseSegment,
    RadialProfile,
)
from starkshaper.specfun import bessel_j

U0 = 2 * np.pi * 1.0e4
OMEGA = 2 * np.pi * 1.8e5

SMALL_CRYSTAL = generate_hex_crystal(3, 0.3)


class TestBudgetHelpers:
    def test_required_error_reference_values(self):
        # the two budgets quoted for the tier targets, to their printed
        # precision and to full precision against the closed form
        assert round(an.required_truncation_error(1e-2), 3) == 0.064
        assert round(an.required_truncation_error(1e-3), 2) == 0.02
        for eps in (1e-2, 1e-3, 2.5e-4):
            e = an.required_truncation_error(eps)
            assert abs(e - (2.0 / np.pi) * np.sqrt(eps)) < 1e-15

    def test_truncation_bound_reduces_at_calibration(self):
        # U A T = pi/2  ->  bound = (pi e / 2)^2
        u, amp = U0, 0.37
        t = np.pi / (2.0 * u * amp)
        for e in (0.01, 0.064, 0.2):
            assert abs(an.truncation_bound(e, u, amp, t) - (np.pi * e / 2) ** 2) < 1e-15

    def test_round_trip_with_required_error(self):
        # feeding the required error back into the bound returns the budget
        u, amp = U0, 1.0
        t = np.pi / (2.0 * u * amp)
        for eps in (1e-2, 1e-3):
            e = an.required_truncation_error(eps)
            assert abs(an.truncation_bound(e, u, amp, t) - eps) < 1e-15

    def test_linear_bound_values(self):
        assert abs(an.linear_bound(0.02) - (np.pi * 0.02 / 2) ** 2) < 1e-18
        assert an.linear_bound(0.0) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            an.required_truncation_error(-1e-3)
        with pytest.raises(ValueError):
            an.truncation_bound(-0.1, U0, 1.0, 1e-5)


class TestHistogram:
    def test_counts_sum_to_input_size(self):
        values = np.array([0.0, 1e-30, 1e-9, 3e-4, 0.5, 1.0])
        edges, counts = an.infidelity_histogram(values)
        assert counts.sum() == values.size
        assert edges[0] == -18.0 and edges[-1] == 0.0
        assert np.allclose(np.diff(edges), 0.5)

    def test_bin_placement(self):
        edges, counts = an.infidelity_histogram([10 ** -3.75])
        left = edges[:-1][counts.astype(bool)]
        assert left[0] == -4.0

    def test_csv_writer(self, tmp_path):
        edges, counts = an.infidelity_histogram([1e-4, 2e-4, 5e-2])
        path = tmp_path / "hist.csv"
        an.write_histogram_csv(edges, counts, path)
        rows = np.genfromtxt(path, delimiter=",", names=True)
        assert rows["count"].sum() == 3
        assert rows.shape[0] == edges.size - 1


class TestRwaStudy:
    def test_reference_frequencies_ordering(self):
        study = an.rwa_study([2 * np.pi * 43.8e3, OMEGA], u_rad_s=U0, sample_count=400)
        s_slow, s_fast = study.series
        # faster rotation averages better: an order of magnitude here
        assert s_fast.max_infidelity < s_slow.max_infidelity / 5.0
        # the deviation is bounded well away from zero at the slow point
        assert s_slow.max_infidelity > 1e-3

    def test_commensurate_checkpoints_are_clean(self):
        study = an.rwa_study([OMEGA], u_rad_s=U0, sample_count=300)
        s = study.series[0]
        assert s.commensurate_times_s.size == int(np.floor(study.t_max_s * OMEGA / (2 * np.pi)))
        assert s.max_commensurate_infidelity < 1e-9

    def test_window_and_zero_start(self):
        study = an.rwa_study([OMEGA], u_rad_s=U0, sample_count=50)
        expected = 2.5 * np.pi / (2.0 * U0 * bessel_j(1, 0.25))
        assert abs(study.t_max_s - expected) < 1e-15
        s = study.series[0]
        assert s.times_s[0] == 0.0 and s.theta_exact[0] == 0.0
        assert s.infidelity[0] == 0.0
        assert s.histogram_counts.sum() == 50

    def test_theta_rwa_slope(self):
        study = an.rwa_study([OMEGA], u_rad_s=U0, sample_count=50)
        s = study.series[0]
        slope = s.theta_rwa[-1] / s.times_s[-1]
        assert abs(slope - 2.0 * U0 * bessel_j(1, 0.25)) < 1e-9

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            an.rwa_study([], u_rad_s=U0)
        with pytest.raises(ConfigError):
            an.rwa_study([-OMEGA], u_rad_s=U0)
        with pytest.raises(ConfigError):
            an.rwa_study([OMEGA], u_rad_s=U0, m=0)
        with pytest.raises(ConfigError):
            an.rwa_study([OMEGA], u_rad_s=U0, sample_count=1)
        with pytest.raises(ConfigError):
            an.rwa_study([OMEGA], u_rad_s=U0, t_max_s=-1.0)

    @pytest.mark.parametrize("m, freq_hz", [(1, 43.8e3), (1, 180e3), (3, 43.8e3)])
    def test_sample_phases_match_the_bessel_oracle(self, m, freq_hz):
        # every non-zero sample time, most of them no whole number of base
        # periods, against the Jacobi-Anger series for one segment of that
        # duration on the study's rim ion (|J_11(0.25)| < 1e-17, so ten
        # series terms suffice)
        omega = 2 * np.pi * freq_hz
        s = an.rwa_study([omega], u_rad_s=U0, m=m, sample_count=97).series[0]
        rim = IonCrystal([1.0], [0.0])
        deformation = MirrorDeformation(
            (DeformationComponent(m, even=RadialProfile(0, (0.25,))),)
        )
        for t, theta in zip(s.times_s[1:], s.theta_exact[1:]):
            seg = PulseSegment(
                deformation=deformation, beatnotes=(m,), duration_s=t,
                u_rad_s=U0, psi=an.DEFAULT_PSI,
            )
            sched = PulseSchedule(
                mode="serial", omega_rad_s=omega, segments=(seg,),
                target_u_rad_s=U0, gate_time_s=t, amplitude=0.25,
            )
            oracle = evolve_exact_bessel(rim, sched, n_terms=10).theta[0]
            assert abs(theta - oracle) < 1e-9, (t, theta, oracle)

    def test_long_sample_grid_memory_stays_bounded(self):
        # sample_count is user input: the study's work arrays must not
        # grow as (harmonics x sample times)
        tracemalloc.start()
        try:
            an.rwa_study([2 * np.pi * 43.8e3], u_rad_s=U0, sample_count=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_series_csv(self, tmp_path):
        study = an.rwa_study([OMEGA], u_rad_s=U0, sample_count=40)
        path = tmp_path / "series.csv"
        an.write_rwa_series_csv(study.series[0], path)
        rows = np.genfromtxt(path, delimiter=",", names=True)
        flags = rows["is_commensurate"].astype(int)
        assert (flags == 0).sum() == 40
        assert (flags == 1).sum() == study.series[0].commensurate_times_s.size
        times = rows["time_s"]
        assert np.all(np.diff(times) >= 0)


class TestWorstCasePair:
    def test_quadratic_amplitude_scaling(self):
        lo = an.worst_case_parallel_pair(1, 0.05, U0, OMEGA, SMALL_CRYSTAL)
        hi = an.worst_case_parallel_pair(1, 0.10, U0, OMEGA, SMALL_CRYSTAL)
        ratio = hi.max_infidelity / lo.max_infidelity
        assert 3.2 < ratio < 4.8

    def test_within_linear_bound(self):
        for amp in (0.02, 0.1, 0.3):
            study = an.worst_case_parallel_pair(1, amp, U0, OMEGA, SMALL_CRYSTAL)
            assert study.max_infidelity < study.bound
            assert study.bound == an.linear_bound(amp)

    def test_gate_time_is_commensurate_and_calibrated(self):
        study = an.worst_case_parallel_pair(1, 0.02, U0, OMEGA, SMALL_CRYSTAL)
        rot = study.t_total_s * OMEGA / (2 * np.pi)
        assert abs(rot - round(rot)) < 1e-9
        assert abs(study.t_total_s - np.pi / (2 * U0 * 0.02)) < study.t_total_s / study.rotations

    def test_single_order_reduction(self):
        study = an.worst_case_parallel_pair(3, 0.1, U0, OMEGA, SMALL_CRYSTAL,
                                            second_amplitude=0.0)
        comp = DeformationComponent(3, even=RadialProfile(3, (0.1,)))
        seg = PulseSegment(
            deformation=MirrorDeformation((comp,)), beatnotes=(3,),
            duration_s=study.t_total_s, u_rad_s=U0, psi=-np.pi / 2,
        )
        sched = PulseSchedule(
            mode="parallel", omega_rad_s=OMEGA, segments=(seg,),
            target_u_rad_s=U0 / 2, gate_time_s=study.t_total_s, amplitude=0.1,
        )
        ref = evolve_exact(SMALL_CRYSTAL, sched, tol=1e-12)
        # the pair study with a vanishing second order IS this schedule
        assert study.infidelity.shape == ref.theta.shape
        assert study.max_infidelity < an.linear_bound(0.1) / 10.0

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            an.worst_case_parallel_pair(0, 0.1, U0, OMEGA, SMALL_CRYSTAL)
        with pytest.raises(ConfigError):
            an.worst_case_parallel_pair(1, -0.1, U0, OMEGA, SMALL_CRYSTAL)
        with pytest.raises(ConfigError):
            an.worst_case_parallel_pair(1, 0.1, U0, OMEGA, SMALL_CRYSTAL,
                                        second_amplitude=-0.2)


class TestScenarios:
    def test_registry_covers_the_reference_grid(self):
        names = {k[0] for k in an.SCENARIOS}
        assert names == {"annulus", "elliptical", "displaced"}
        assert len(an.SCENARIOS) == 10  # annulus has no parallel entries
        # the relaxed parallel tier-2 threshold is the only 3e-3
        thresholds = {spec.threshold for spec in an.SCENARIOS.values()}
        assert thresholds == {1e-2, 1e-3, 3e-3}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="no reference parameter"):
            an.run_scenario("annulus", "parallel", 1e-2)
        with pytest.raises(ConfigError, match="no reference parameter"):
            an.run_scenario("square", "serial", 1e-2)

    def test_annulus_report_fields(self, tmp_path):
        rep = an.run_scenario("annulus", "serial", 1e-2, out_dir=tmp_path / "run")
        assert rep.passed and rep.max_infidelity < 1e-2
        assert abs(rep.gate_time_s - 25e-6) < 25e-6 * 0.05
        assert rep.segment_count == 1
        assert rep.histogram_counts.sum() == len(rep.crystal)
        assert rep.measured_over_bound <= 2.0
        payload = json.loads((tmp_path / "run" / "report.json").read_text())
        assert payload["passed"] is True
        assert payload["maxima"]["max_infidelity"] == rep.max_infidelity
        for name in ("evolution.csv", "error_map.csv", "histogram.csv",
                     "schedule.json", "expansion.json", "crystal.csv"):
            assert (tmp_path / "run" / name).exists()

    def test_artifacts_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        an.run_scenario("annulus", "serial", 1e-2, out_dir=a)
        an.run_scenario("annulus", "serial", 1e-2, out_dir=b)
        for name in ("report.json", "evolution.csv", "error_map.csv",
                     "histogram.csv", "schedule.json", "expansion.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_parallel_scenario_bound_includes_linear_term(self):
        rep = an.run_scenario("elliptical", "parallel", 1e-2,
                              crystal=SMALL_CRYSTAL)
        trunc = an.truncation_bound(
            rep.error_ion_max, rep.schedule.target_u_rad_s,
            rep.pattern.peak_value(), rep.gate_time_s,
        )
        assert abs(rep.bound - trunc - an.linear_bound(0.4)) < 1e-15

    def test_figure_registry(self):
        assert set(an.FIGURES) == {f"fig{i}" for i in range(3, 13)}
        for runs in an.FIGURES.values():
            for key in runs:
                assert key in an.SCENARIOS
        with pytest.raises(ConfigError, match="figure"):
            an.reproduce_figure("fig2", "/tmp/never")

    def test_reproduce_figure_writes_run_directories(self, tmp_path):
        reports = an.reproduce_figure("fig4", tmp_path)
        assert len(reports) == 1
        sub = tmp_path / "annulus_serial_0.01"
        assert (sub / "report.json").exists()
