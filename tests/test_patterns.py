import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starkshaper.errors import ConfigError
from starkshaper.patterns import (
    AnnulusPattern,
    DisplacedGaussianPattern,
    EllipticalGaussianPattern,
    TabulatedPattern,
    annulus,
    displaced_gaussian,
    elliptical_gaussian,
    make_pattern,
    tabulated_from_csv,
)

disk_points = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * np.pi))


class TestAnnulus:
    def setup_method(self):
        self.pat = annulus(1.0, 0.45, 0.55, 10.0)

    def test_midline_normalization_exact(self):
        assert self.pat(0.5, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert self.pat.peak_value() == 1.0

    def test_center_value(self):
        # g(0)/g(0.5) with two sigmoids of steepness 10:
        # (1/(1+e^4.5) - 1/(1+e^5.5)) / (1/(1+e^-0.5) - 1/(1+e^0.5))
        g0 = 1 / (1 + np.exp(4.5)) - 1 / (1 + np.exp(5.5))
        g_mid = 1 / (1 + np.exp(-0.5)) - 1 / (1 + np.exp(0.5))
        assert g0 / g_mid == pytest.approx(0.0282419, abs=1e-6)
        assert self.pat(0.0, 0.0) == pytest.approx(g0 / g_mid, abs=1e-15)

    def test_azimuthal_symmetry(self):
        rho = np.linspace(0, 1, 41)
        phi_a, phi_b = 0.0, 2.9
        np.testing.assert_array_equal(self.pat(rho, phi_a), self.pat(rho, phi_b))

    def test_broadcasting(self):
        out = self.pat(np.linspace(0, 1, 7)[:, None], np.linspace(0, 2 * np.pi, 5)[None, :])
        assert out.shape == (7, 5)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            annulus(1.0, 0.55, 0.45)
        with pytest.raises(ConfigError):
            annulus(1.0, 0.45, 0.55, kappa=-1.0)

    @given(disk_points)
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_amplitude(self, point):
        rho, phi = point
        assert abs(self.pat(rho, phi)) <= 1.0 + 1e-12


class TestEllipticalGaussian:
    def setup_method(self):
        self.pat = elliptical_gaussian(0.5, np.sqrt(2) / 10, np.sqrt(2))

    def test_peak_at_origin(self):
        assert self.pat(0.0, 0.0) == pytest.approx(0.25)
        assert self.pat.peak_value() == pytest.approx(0.25)

    def test_one_over_e_along_x(self):
        # eta_x^2 = 0.02, so rho = 0.2 along phi = 0 decays by exactly e^-1
        assert self.pat(0.2, 0.0) / self.pat(0.0, 0.0) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_reflection_symmetries(self):
        rho = 0.63
        for phi in np.linspace(0.1, np.pi, 9):
            assert self.pat(rho, phi) == pytest.approx(self.pat(rho, -phi), rel=1e-14)
            assert self.pat(rho, phi) == pytest.approx(self.pat(rho, np.pi - phi), rel=1e-14)

    def test_log_is_quadratic_form(self):
        rng = np.random.default_rng(7)
        rho = rng.uniform(0, 1, 300)
        phi = rng.uniform(0, 2 * np.pi, 300)
        x, y = rho * np.cos(phi), rho * np.sin(phi)
        logf = np.log(self.pat(rho, phi))
        design = np.stack([np.ones_like(x), x * x, y * y], axis=1)
        coef, *_ = np.linalg.lstsq(design, logf, rcond=None)
        residual = np.max(np.abs(design @ coef - logf))
        assert residual < 1e-10
        assert coef[1] == pytest.approx(-1 / (2 * 0.02), rel=1e-9)

    def test_rejects_bad_widths(self):
        with pytest.raises(ConfigError):
            elliptical_gaussian(0.5, 0.0, 1.0)


class TestDisplacedGaussian:
    def setup_method(self):
        self.pat = displaced_gaussian(3.0, 0.1 / np.sqrt(2), 0.3, 0.1 * np.sqrt(3))

    def test_peak_location_and_value(self):
        r_pk = np.hypot(0.3, 0.1 * np.sqrt(3))
        phi_pk = np.arctan2(0.1 * np.sqrt(3), 0.3)
        assert self.pat(r_pk, phi_pk) == pytest.approx(1.5, rel=1e-14)
        assert self.pat.peak_value() == 1.5

    def test_one_over_e_at_spacing_distance(self):
        # std 0.1/sqrt(2): 1/e decay at Cartesian distance 0.1 from the peak
        x0, y0 = 0.3, 0.1 * np.sqrt(3)
        x, y = x0 + 0.1, y0
        val = self.pat(np.hypot(x, y), np.arctan2(y, x))
        assert val / 1.5 == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_zero_displacement_matches_elliptical(self):
        a = displaced_gaussian(0.8, 0.4, 0.0, 0.0)
        b = elliptical_gaussian(0.8, 0.4, 0.4)
        rng = np.random.default_rng(3)
        rho = rng.uniform(0, 1, 64)
        phi = rng.uniform(0, 2 * np.pi, 64)
        np.testing.assert_allclose(a(rho, phi), b(rho, phi), rtol=1e-14)

    def test_displacement_outside_disk_rejected(self):
        with pytest.raises(ConfigError):
            displaced_gaussian(1.0, 0.1, 0.8, 0.7)

    @given(disk_points)
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_amplitude(self, point):
        rho, phi = point
        assert abs(self.pat(rho, phi)) <= 3.0


class TestTabulated:
    def _write_grid_csv(self, tmp_path, fn, n_rho=41, n_phi=64):
        rows = ["rho,phi,value"]
        rho = np.linspace(0, 1, n_rho)
        phi = np.linspace(0, 2 * np.pi, n_phi, endpoint=False)
        for r in rho:
            for p in phi:
                rows.append(f"{float(r)!r},{float(p)!r},{float(fn(r, p))!r}")
        path = tmp_path / "pattern.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_roundtrip_of_smooth_pattern(self, tmp_path):
        src = elliptical_gaussian(0.5, 0.5, 1.0)
        path = self._write_grid_csv(tmp_path, lambda r, p: float(src(r, p)), 81, 128)
        pat = tabulated_from_csv(path, amplitude=0.5)
        rng = np.random.default_rng(11)
        rho = rng.uniform(0, 1, 200)
        phi = rng.uniform(-np.pi, 3 * np.pi, 200)  # exercises the periodic wrap
        err = np.max(np.abs(pat(rho, phi) - src(rho, phi)))
        assert err < 2e-4  # bilinear on an 81x128 grid

    def test_interpolation_exact_at_nodes(self, tmp_path):
        path = self._write_grid_csv(tmp_path, lambda r, p: np.cos(p) * r)
        pat = tabulated_from_csv(path)
        assert pat(0.5, 0.0) == pytest.approx(0.5, abs=1e-12)
        assert pat.amplitude == pytest.approx(1.0, abs=1e-9)

    def test_peak_is_the_largest_node_value(self):
        # the only 1.0 sits on a node that a fixed scan grid misses
        rho = np.linspace(0.0, 1.0, 11)
        phi = 2 * np.pi * np.arange(7) / 7
        values = np.full((11, 7), 0.25)
        values[6, 1] = 1.0
        assert TabulatedPattern(1.0, rho, phi, values).peak_value() == 1.0

    def test_incomplete_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("rho,phi,value\n0.0,0.0,1.0\n1.0,0.0,1.0\n1.0,1.0,1.0\n")
        with pytest.raises(ConfigError):
            tabulated_from_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("rho,phi,value\n0.0,0.0,oops\n")
        with pytest.raises(ConfigError):
            tabulated_from_csv(path)


class TestFactory:
    def test_builtin_kinds(self):
        p = make_pattern("annulus", 1.0, {"r1": 0.4, "r2": 0.6, "kappa": 8.0})
        assert isinstance(p, AnnulusPattern)
        p = make_pattern("elliptical_gaussian", 0.5, {"eta_x": 0.2, "eta_y": 1.0})
        assert isinstance(p, EllipticalGaussianPattern)
        p = make_pattern("displaced_gaussian", 1.0, {"eta": 0.1, "delta_x": 0.2, "delta_y": 0.0})
        assert isinstance(p, DisplacedGaussianPattern)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_pattern("vortex", 1.0, {})

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            make_pattern("annulus", 1.0, {"biggness": 2})
