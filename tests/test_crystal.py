"""Hexagonal crystal generation, frames, and the CSV export."""

import numpy as np
import pytest

from starkshaper.crystal import IonCrystal, generate_hex_crystal, save_crystal_csv


class TestHexGeneration:
    def test_ion_count_is_hex_number(self):
        # 1 + 3 s (s + 1) ions for s shells
        for shells, count in [(1, 7), (2, 19), (3, 37), (5, 91)]:
            assert len(generate_hex_crystal(shells, 0.2)) == count

    def test_standard_crystal_geometry(self):
        c = generate_hex_crystal(5, 0.2)
        assert len(c) == 91
        # center ion at the origin
        assert np.min(c.rho) == 0.0
        # corner ions land on the unit-disk rim (5 shells * 0.2 spacing)
        assert np.max(c.rho) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(np.abs(c.rho - 1.0) < 1e-9) == 6

    def test_sixfold_symmetry(self):
        c = generate_hex_crystal(3, 0.2)
        x, y = c.cartesian()
        ang = np.pi / 3
        xr = x * np.cos(ang) - y * np.sin(ang)
        yr = x * np.sin(ang) + y * np.cos(ang)
        # every rotated ion lands on an original ion
        d2 = (xr[:, None] - x[None, :]) ** 2 + (yr[:, None] - y[None, :]) ** 2
        assert np.max(d2.min(axis=1)) < 1e-18

    def test_nearest_neighbor_distance_equals_spacing(self):
        c = generate_hex_crystal(4, 0.15)
        x, y = c.cartesian()
        d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
        d2[np.diag_indices_from(d2)] = np.inf
        assert np.sqrt(d2.min()) == pytest.approx(0.15, rel=1e-12)

    def test_orientation_rotates_crystal(self):
        base = generate_hex_crystal(2, 0.2)
        spun = generate_hex_crystal(2, 0.2, orientation=0.7)
        np.testing.assert_allclose(spun.rho, base.rho, atol=1e-14)
        mask = base.rho > 0
        dphi = (spun.phi[mask] - base.phi[mask]) % (2 * np.pi)
        np.testing.assert_allclose(dphi, 0.7, atol=1e-12)


class TestFrames:
    def test_lab_position_preserves_radius(self):
        c = generate_hex_crystal(3, 0.2)
        omega = 2 * np.pi * 1.8e5
        x, y = c.lab_position(t=1.234e-5, omega=omega)
        np.testing.assert_allclose(np.hypot(x, y), c.rho, atol=1e-14)

    def test_lab_position_at_t0_is_rest_frame(self):
        c = generate_hex_crystal(2, 0.2)
        x0, y0 = c.cartesian()
        x, y = c.lab_position(t=0.0, omega=1.0)
        np.testing.assert_allclose(x, x0, atol=0)
        np.testing.assert_allclose(y, y0, atol=0)

    def test_rotation_direction_and_rate(self):
        # rotating frame lags the lab frame: phi_lab = phi - omega t
        c = IonCrystal(rho=np.array([0.5]), phi=np.array([1.0]))
        x, y = c.lab_position(t=0.25, omega=3.0)
        assert np.arctan2(y, x)[0] == pytest.approx(1.0 - 0.75)
        assert np.hypot(x, y)[0] == pytest.approx(0.5)


class TestValidationAndCsv:
    def test_coincident_ions_rejected(self):
        with pytest.raises(Exception):
            IonCrystal(rho=np.array([0.3, 0.3]), phi=np.array([1.0, 1.0]))

    def test_rho_outside_disk_rejected(self):
        with pytest.raises(Exception):
            IonCrystal(rho=np.array([1.2]), phi=np.array([0.0]))

    def test_csv_round_trip(self, tmp_path):
        c = generate_hex_crystal(3, 0.2)
        path = tmp_path / "crystal.csv"
        save_crystal_csv(c, path)
        index, rho, phi = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        assert path.read_text().startswith("index,rho,phi\n")
        np.testing.assert_array_equal(index, np.arange(len(c)))
        # 17 significant digits round-trip float64 exactly
        np.testing.assert_array_equal(rho, c.rho)
        np.testing.assert_array_equal(phi, c.phi)
