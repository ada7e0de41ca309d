"""Disk quadrature, Zernike projection, reconstruction, and error maps."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkshaper.crystal import generate_hex_crystal
from starkshaper.errors import ConfigError, QuadratureError
from starkshaper.patterns import (
    AnnulusPattern,
    DisplacedGaussianPattern,
    EllipticalGaussianPattern,
    make_pattern,
)
from starkshaper.specfun import ZernikeIndex, zernike_eval
from starkshaper.zernike import (
    DiskQuadrature,
    ErrorMap,
    ZernikeExpansion,
    decompose,
    disk_inner_product,
    expansion_from_json_dict,
    expansion_to_json_dict,
    save_expansion,
    truncation_error_map,
)


def const_one(rho, phi):
    return np.ones(np.broadcast(rho, phi).shape)


class TestDiskQuadrature:
    def test_area_of_disk(self):
        assert disk_inner_product(const_one, const_one) == pytest.approx(np.pi, rel=1e-13)

    def test_defocus_self_inner_product(self):
        # <Z_2^0, Z_2^0> = pi/3 in the unnormalized convention
        z20 = lambda rho, phi: zernike_eval(ZernikeIndex(2, 0), rho, phi)
        assert disk_inner_product(z20, z20) == pytest.approx(np.pi / 3.0, rel=1e-12)

    def test_cross_order_orthogonality(self):
        z22 = lambda rho, phi: zernike_eval(ZernikeIndex(2, 2), rho, phi)
        z40 = lambda rho, phi: zernike_eval(ZernikeIndex(4, 0), rho, phi)
        z2m2 = lambda rho, phi: zernike_eval(ZernikeIndex(2, -2), rho, phi)
        assert abs(disk_inner_product(z22, z40)) < 1e-13
        assert abs(disk_inner_product(z22, z2m2)) < 1e-13

    def test_norm_matches_closed_form(self):
        for n, m in [(0, 0), (1, 1), (3, -1), (6, 4), (9, -9)]:
            idx = ZernikeIndex(n, m)
            f = lambda rho, phi: zernike_eval(idx, rho, phi)
            assert disk_inner_product(f, f) == pytest.approx(idx.norm(), rel=1e-11)

    def test_doubling_returns_finer_rule(self):
        q = DiskQuadrature(radial=96, azimuthal=512)
        q2 = q.doubled()
        assert (q2.radial, q2.azimuthal) == (192, 1024)


class TestDecompose:
    def test_single_term_pattern_recovers_delta_coefficients(self):
        # F/A = 0.3*Z_4^2 + 0.2*Z_3^-3: projection must return exactly those
        class SyntheticPattern:
            amplitude = 2.0

            def __call__(self, rho, phi):
                return 2.0 * (
                    0.3 * zernike_eval(ZernikeIndex(4, 2), rho, phi)
                    + 0.2 * zernike_eval(ZernikeIndex(3, -3), rho, phi)
                )

        exp = decompose(SyntheticPattern(), n_max=8, m_max=6)
        assert exp.coefficient(4, 2) == pytest.approx(0.3, abs=1e-12)
        assert exp.coefficient(3, -3) == pytest.approx(0.2, abs=1e-12)
        others = [
            abs(a)
            for idx, a in exp.items()
            if (idx.n, idx.m) not in ((4, 2), (3, -3))
        ]
        assert max(others) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_projection_round_trips_random_band_limited_fields(self, data):
        n_terms = data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        terms = {}
        for _ in range(n_terms):
            n = int(rng.integers(0, 13))
            m_choices = [m for m in range(-n, n + 1) if (n - abs(m)) % 2 == 0 and abs(m) <= 8]
            m = int(rng.choice(m_choices))
            terms[(n, m)] = float(rng.uniform(-1, 1))

        class Synth:
            amplitude = 1.0

            def __call__(self, rho, phi):
                out = np.zeros(np.broadcast(rho, phi).shape)
                for (n, m), c in terms.items():
                    out = out + c * zernike_eval(ZernikeIndex(n, m), rho, phi)
                return out

        exp = decompose(Synth(), n_max=14, m_max=8)
        for (n, m), c in terms.items():
            assert exp.coefficient(n, m) == pytest.approx(c, abs=1e-9)

    def test_reconstruction_matches_pattern_within_band(self):
        pat = EllipticalGaussianPattern(amplitude=0.5)
        exp = decompose(pat, n_max=26, m_max=10)
        rho = np.linspace(0, 1, 41)[:, None]
        phi = np.linspace(0, 2 * np.pi, 37, endpoint=False)[None, :]
        resid = np.abs(exp.reconstruct(rho, phi) - pat.evaluate(rho, phi))
        # band-limited residual: bounded by the measured truncation level
        assert np.max(resid) < 0.1 * pat.peak_value()

    def test_annulus_keeps_only_m0(self):
        exp = decompose(AnnulusPattern(amplitude=1.0), n_max=16, m_max=6)
        off_axis = [abs(a) for idx, a in exp.items() if idx.m != 0]
        assert max(off_axis) < 1e-12

    def test_elliptical_gaussian_parity(self):
        # symmetric under x -> -x and y -> -y: only even m, no sin terms
        exp = decompose(EllipticalGaussianPattern(amplitude=0.5), n_max=12, m_max=6)
        bad = [abs(a) for idx, a in exp.items() if idx.m < 0 or idx.m % 2 == 1]
        assert max(bad) < 1e-12

    def test_parseval_energy_accounting(self):
        pat = DisplacedGaussianPattern(amplitude=1.0)
        exp = decompose(pat, n_max=30, m_max=14)
        f = lambda rho, phi: pat.evaluate(rho, phi) / pat.amplitude
        total = disk_inner_product(f, f)
        # captured energy never exceeds the true energy and the (30, 14)
        # band leaves only the narrow-Gaussian tail behind (~0.5%)
        captured = sum(a * a * idx.norm() for idx, a in exp.items())
        assert captured < total + 1e-12
        assert captured == pytest.approx(total, rel=2e-2)

    def test_certification_failure_raises(self):
        # a coarse rule cannot certify the sharp annulus to 1e-9
        pat = AnnulusPattern(amplitude=1.0, kappa=40.0)
        with pytest.raises(QuadratureError):
            decompose(pat, n_max=12, m_max=0, quad=DiskQuadrature(radial=12, azimuthal=128))


class TestRadialProfiles:
    def test_grid_reconstruction_matches_pointwise(self):
        # the radial sums run on rho's own (n, 1) shape and broadcast only
        # in the angular products; the BLAS sum may round a vector's tail
        # differently, so allow a few ulps
        exp = decompose(DisplacedGaussianPattern(amplitude=0.3), n_max=20, m_max=8)
        rho = np.linspace(0, 1, 33)[:, None]
        phi = np.linspace(0, 2 * np.pi, 17, endpoint=False)[None, :]
        pointwise = exp.reconstruct(*np.broadcast_arrays(rho, phi))
        np.testing.assert_allclose(
            exp.reconstruct(rho, phi), pointwise, rtol=0, atol=16 * np.finfo(float).eps
        )

    def test_reconstruct_is_the_order_by_order_sum_bit_for_bit(self):
        # A * sum_m (P^m cos m phi + Q^m sin m phi), accumulated in the same
        # order, on the error map's grid and at the crystal's ions
        exp = decompose(make_pattern("displaced_gaussian", 3.0), n_max=40, m_max=20)
        crystal = generate_hex_crystal(5, 0.2)
        grid = (np.linspace(0.0, 1.0, 256)[:, None],
                np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)[None, :])
        for rho, phi in (grid, (crystal.rho, crystal.phi)):
            total = np.zeros(np.broadcast_shapes(rho.shape, phi.shape))
            for m in range(exp.m_max + 1):
                if m == 0:
                    total += exp.even(0, rho)
                else:
                    total += exp.even(m, rho) * np.cos(m * phi) + exp.odd(m, rho) * np.sin(m * phi)
            total *= exp.amplitude
            np.testing.assert_array_equal(exp.reconstruct(rho, phi), total)

    def test_active_orders_for_elliptical(self):
        exp = decompose(EllipticalGaussianPattern(amplitude=0.5), n_max=26, m_max=10)
        assert exp.active_orders(floor=1e-12) == [0, 2, 4, 6, 8, 10]


class TestErrorMap:
    def test_truncation_error_decreases_with_band(self):
        pat = EllipticalGaussianPattern(amplitude=0.5)
        coarse = truncation_error_map(pat, decompose(pat, n_max=14, m_max=6))
        fine = truncation_error_map(pat, decompose(pat, n_max=26, m_max=10))
        assert fine.disk_max < coarse.disk_max

    def test_error_normalized_by_pattern_peak(self):
        # doubling A rescales pattern and reconstruction alike: E unchanged
        e1 = truncation_error_map(
            EllipticalGaussianPattern(amplitude=0.25),
            decompose(EllipticalGaussianPattern(amplitude=0.25), n_max=20, m_max=8),
        )
        e2 = truncation_error_map(
            EllipticalGaussianPattern(amplitude=0.5),
            decompose(EllipticalGaussianPattern(amplitude=0.5), n_max=20, m_max=8),
        )
        assert e1.disk_max == pytest.approx(e2.disk_max, rel=1e-9)

    def test_map_csv_round_trip(self, tmp_path):
        pat = AnnulusPattern(amplitude=1.0)
        em = truncation_error_map(pat, decompose(pat, n_max=24, m_max=0))
        path = tmp_path / "map.csv"
        em.write_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape[1] == 3
        assert np.max(rows[:, 2]) == pytest.approx(em.disk_max, rel=1e-12)

    def test_map_csv_bytes_match_per_cell_format(self, tmp_path):
        # Exponent forms, signed zero, the smallest subnormal and a
        # 17-digit value.
        values = [0.0, -0.0, 5e-324, 1e-17, 1.0, 0.1 + 0.2]
        rho = np.array([0.0, 1e-17, 0.1 + 0.2, 1.0])
        phi = np.array([0.0, -0.0, 5e-324, 1.0, 0.1 + 0.2])
        error = np.array([[values[(i + j) % 6] * (-1) ** j for j in range(5)] for i in range(4)])
        em = ErrorMap(rho=rho, phi=phi, error=error, disk_max=1.0)
        path = tmp_path / "map.csv"
        em.write_csv(path)
        assert path.read_bytes() == reference_csv(em)

    @pytest.mark.parametrize("kind, amplitude, n_max, m_max", [
        ("displaced_gaussian", 3.0, 40, 20),
        ("elliptical_gaussian", 0.5, 32, 12),
    ])
    def test_registry_map_bytes_match_reference(self, tmp_path, kind, amplitude, n_max, m_max):
        pat = make_pattern(kind, amplitude)
        em = truncation_error_map(pat, decompose(pat, n_max=n_max, m_max=m_max))
        path = tmp_path / "map.csv"
        em.write_csv(path)
        assert path.read_bytes() == reference_csv(em)

    def test_hard_doubles_bytes_match_reference(self, tmp_path):
        values = hard_doubles(64 + 512 + 64 * 512)
        em = ErrorMap(rho=values[:64], phi=values[64:576], error=values[576:].reshape(64, 512),
                      disk_max=1.0)
        path = tmp_path / "map.csv"
        em.write_csv(path)
        assert path.read_bytes() == reference_csv(em)

    @pytest.mark.parametrize("n_rho, n_phi", [(2, 0), (0, 3), (0, 0)])
    def test_empty_grid_writes_the_header(self, tmp_path, n_rho, n_phi):
        em = ErrorMap(rho=np.linspace(0, 1, n_rho), phi=np.linspace(0, 1, n_phi),
                      error=np.zeros((n_rho, n_phi)), disk_max=0.0)
        em.write_csv(tmp_path / "map.csv")
        assert (tmp_path / "map.csv").read_bytes() == reference_csv(em) == b"rho,phi,error\n"

    def test_write_allocates_little(self, tmp_path):
        # The writer works through the map in blocks, its scratch in an
        # anonymous map outside the traced heap: one call may not hold the
        # 8 MB file, or a Python object per cell, at once.
        pat = make_pattern("displaced_gaussian", 3.0)
        em = truncation_error_map(pat, decompose(pat, n_max=40, m_max=20))
        tracemalloc.start()
        try:
            em.write_csv(tmp_path / "map.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def reference_csv(em: ErrorMap) -> bytes:
    """error_map.csv as one f-string per cell."""
    return ("rho,phi,error\n" + "".join(
        f"{r:.17g},{p:.17g},{v:.17g}\n"
        for r, row in zip(em.rho.tolist(), em.error.tolist())
        for p, v in zip(em.phi.tolist(), row)
    )).encode()


def hard_doubles(size: int, seed: int = 20) -> np.ndarray:
    """`size` shuffled doubles: one of each binade (subnormals included)
    with a random mantissa and sign, signed zeros, infinities, NaN, the
    extreme subnormals, each double nearest 10**k with its two neighbours,
    17-digit decimals that end in 5 at the 18th digit (ties to a 17-digit
    rounding, up to the binary error), and random values from 1e-45 to 1e45."""
    rng = np.random.default_rng(seed)
    binades = (np.arange(2047, dtype=np.uint64) << np.uint64(52)) | rng.integers(
        0, 2**52, 2047, dtype=np.uint64)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ties = np.array([float(f"{d}5e{e}") for d, e in zip(
        rng.integers(10**16, 10**17, 2000).tolist(), rng.integers(-60, 40, 2000).tolist())])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072009e-308,
                        2.2250738585072014e-308, 1.7976931348623157e308, 9.9999999999999999e-5,
                        0.5, 1.0, 0.1, 1e16, 1e17, 123456789012345680.0])
    fixed = np.concatenate([
        binades.view(float), special, powers, np.nextafter(powers, 0.0),
        np.nextafter(powers, np.inf), ties,
    ])
    fixed = fixed * np.where(rng.random(fixed.size) < 0.5, -1.0, 1.0)
    rest = rng.random(size - fixed.size) * 10.0 ** rng.uniform(-45, 45, size - fixed.size)
    values = np.concatenate([fixed, rest])
    rng.shuffle(values)
    return values


class TestJsonRoundTrip:
    def test_expansion_survives_json(self):
        exp = decompose(DisplacedGaussianPattern(amplitude=3.0), n_max=18, m_max=7)
        clone = expansion_from_json_dict(json.loads(json.dumps(expansion_to_json_dict(exp))))
        assert clone.amplitude == exp.amplitude
        assert (clone.n_max, clone.m_max) == (exp.n_max, exp.m_max)
        for idx, a in exp.items():
            assert clone.coefficient(idx.n, idx.m) == (a if abs(a) >= 1e-12 else 0.0)

    def test_malformed_payload_rejected(self):
        with pytest.raises(Exception):
            expansion_from_json_dict({"amplitude": 1.0, "coefficients": "nope"})


    def test_expansion_json_bytes(self, tmp_path):
        # keys in record order, coefficients in (|m|, m < 0, n) order, the
        # below-floor entry dropped, floats in shortest round-trip form
        exp = expansion_from_json_dict({"amplitude": 0.5, "n_max": 3, "m_max": 1, "coefficients": [
            {"n": 3, "m": -1, "alpha": -0.25}, {"n": 1, "m": 1, "alpha": 0.1 + 0.2},
            {"n": 2, "m": 0, "alpha": 5e-13}, {"n": 0, "m": 0, "alpha": 1.0},
            {"n": 1, "m": -1, "alpha": 1e-12},
        ]})
        save_expansion(exp, tmp_path / "expansion.json")
        assert (tmp_path / "expansion.json").read_text() == """{
  "amplitude": 0.5,
  "n_max": 3,
  "m_max": 1,
  "coefficients": [
    {
      "n": 0,
      "m": 0,
      "alpha": 1.0
    },
    {
      "n": 1,
      "m": 1,
      "alpha": 0.30000000000000004
    },
    {
      "n": 1,
      "m": -1,
      "alpha": 1e-12
    },
    {
      "n": 3,
      "m": -1,
      "alpha": -0.25
    }
  ]
}
"""


@pytest.mark.parametrize("coefficient, key, value", [
    (None, "n_max", "4"), (None, "n_max", 4.5), (None, "m_max", True), (None, "n_max", float("inf")),
    (None, "m_max", -1), (1, "n", 2.7), (1, "n", True), (1, "m", True), (1, "m", -0.5), (1, "m", "2"),
    (1, "n", float("nan")), (1, "m", float("-inf")), (1, "n", None),
])
def test_expansion_indices_must_be_whole_numbers(coefficient, key, value):
    payload = {"amplitude": 1.0, "n_max": 4, "m_max": 2, "coefficients": [
        {"n": 0, "m": 0, "alpha": 0.5}, {"n": 2, "m": -2, "alpha": 0.25}]}
    (payload if coefficient is None else payload["coefficients"][coefficient])[key] = value
    where = "" if coefficient is None else f"coefficient {coefficient}: "
    with pytest.raises(ConfigError, match=re.escape(f"expansion {where}{key} must be a whole number")):
        expansion_from_json_dict(payload)


@pytest.mark.parametrize("coefficient, key, value", [
    (None, "amplitude", "0.5"), (None, "amplitude", True), (None, "amplitude", float("nan")),
    (None, "amplitude", None), (0, "alpha", True), (0, "alpha", "0.5"),
    (1, "alpha", float("inf")), (1, "alpha", 10**400),
])
def test_expansion_reals_must_be_finite_numbers(coefficient, key, value):
    payload = {"amplitude": 1.0, "n_max": 4, "m_max": 2, "coefficients": [
        {"n": 0, "m": 0, "alpha": 0.5}, {"n": 2, "m": -2, "alpha": 0.25}]}
    (payload if coefficient is None else payload["coefficients"][coefficient])[key] = value
    where = "" if coefficient is None else f"coefficient {coefficient}: "
    with pytest.raises(ConfigError, match=re.escape(f"expansion {where}{key} must be a finite number")):
        expansion_from_json_dict(payload)


def test_expansion_box_validation():
    payload = {"amplitude": 1.0, "n_max": 4, "m_max": 2, "coefficients": [{"n": 6, "m": 2, "alpha": 1.0}]}
    with pytest.raises(ConfigError, match="outside"):
        expansion_from_json_dict(payload)


def test_record_arrays_must_fit_the_box():
    cos = (np.zeros(3), np.zeros(2), np.zeros(2))
    sin = (np.zeros(0), np.zeros(2), np.zeros(2))
    assert ZernikeExpansion(1.0, 4, 2, cos, sin).coefficient(4, 2) == 0.0
    with pytest.raises(ValueError, match="box"):
        ZernikeExpansion(1.0, 4, 2, cos, (np.zeros(1),) + sin[1:])
    with pytest.raises(ValueError, match="box"):
        ZernikeExpansion(1.0, 4, 2, cos[:2], sin[:2])
