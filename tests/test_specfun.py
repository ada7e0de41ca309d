import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from starkshaper import specfun
from starkshaper.specfun import (
    J1_PEAK_VALUE,
    J1_PEAK_X,
    ZernikeIndex,
    bessel_j,
    inverse_j1,
    zernike_eval,
    zernike_radial,
    zernike_radial_stack,
)


class TestBesselJ:
    def test_against_scipy_dense_grid(self):
        x = np.linspace(-10.0, 10.0, 2001)
        for n in [0, 1, 2, 3, 7, 15, 24, 40, 64]:
            assert np.max(np.abs(bessel_j(n, x) - special.jv(n, x))) < 1e-13

    def test_negative_order_reflection(self):
        x = np.linspace(-11.0, 11.0, 501)
        for n in [1, 2, 5, 8]:
            np.testing.assert_allclose(
                bessel_j(-n, x), (-1.0) ** n * bessel_j(n, x), rtol=0, atol=1e-15
            )

    def test_scalar_input_returns_float(self):
        out = bessel_j(1, 0.7)
        assert isinstance(out, float)
        assert out == pytest.approx(special.jv(1, 0.7), abs=1e-14)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            bessel_j(0, 12.5)
        with pytest.raises(ValueError):
            bessel_j(65, 1.0)

    def test_three_term_recurrence(self):
        # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x)
        x = np.linspace(0.1, 9.0, 300)
        for n in [1, 2, 6, 12]:
            lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
            rhs = 2.0 * n / x * bessel_j(n, x)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("z", [0.25, 1.0, 1.8])
    @pytest.mark.parametrize("theta", [0.0, np.pi / 3, 1.7])
    def test_jacobi_anger_partial_sum(self, z, theta):
        total = 0.0 + 0.0j
        for n in range(-40, 41):
            total += (1j) ** n * bessel_j(n, z) * np.exp(1j * n * theta)
        assert abs(total - np.exp(1j * z * np.cos(theta))) < 1e-12

    @given(st.floats(-12.0, 12.0), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_everywhere(self, x, n):
        assert bessel_j(n, x) == pytest.approx(special.jv(n, x), abs=5e-13)


class TestJ1Peak:
    def test_peak_location_and_value(self):
        xp, vp = J1_PEAK_X, J1_PEAK_VALUE
        # independent: scipy evaluated at the located abscissa, plus the
        # derivative root condition J0 = J2
        assert special.jv(1, xp) == pytest.approx(vp, abs=1e-15)
        assert special.jv(0, xp) == pytest.approx(special.jv(2, xp), abs=1e-13)
        assert 0.58 < vp < 0.582
        assert 1.84 < xp < 1.842

    def test_module_constants_are_the_peak(self):
        assert bessel_j(1, J1_PEAK_X) == J1_PEAK_VALUE
        assert J1_PEAK_VALUE >= np.max(bessel_j(1, J1_PEAK_X + np.linspace(-1e-3, 1e-3, 21)))


class TestInverseJ1:
    def test_residual_on_full_range(self):
        y = np.linspace(-J1_PEAK_VALUE, J1_PEAK_VALUE, 1501)
        x = inverse_j1(y)
        assert np.max(np.abs(x)) <= J1_PEAK_X + 1e-12
        assert np.max(np.abs(bessel_j(1, x) - y)) < 1e-12

    def test_identity_on_principal_branch(self):
        # avoid the last ~1e-5 before the peak, where recovering the
        # abscissa from the (flat) value is conditioning-limited
        x = np.linspace(0.0, J1_PEAK_X - 1e-5, 1201)
        assert np.max(np.abs(inverse_j1(bessel_j(1, x)) - x)) < 1e-10

    def test_odd_symmetry(self):
        y = np.linspace(0.0, 0.58, 97)
        np.testing.assert_array_equal(inverse_j1(-y), -inverse_j1(y))

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            inverse_j1(0.59)

    def test_known_points(self):
        assert inverse_j1(0.0) == 0.0
        # J1(1) = 0.4400505857449335 (scipy), so inverse of that is 1
        assert inverse_j1(special.jv(1, 1.0)) == pytest.approx(1.0, abs=1e-11)
        assert inverse_j1(J1_PEAK_VALUE) == pytest.approx(J1_PEAK_X, abs=1e-6)

    @given(st.floats(-0.5818, 0.5818))
    @settings(max_examples=80, deadline=None)
    def test_residual_property(self, y):
        assert bessel_j(1, inverse_j1(y)) == pytest.approx(y, abs=1e-12)

    def test_few_bessel_evaluations(self, monkeypatch):
        calls = []

        def counting(n, x):
            calls.append(n)
            return bessel_j(n, x)

        monkeypatch.setattr(specfun, "bessel_j", counting)
        inverse_j1(np.linspace(-J1_PEAK_VALUE, J1_PEAK_VALUE, 91))
        assert len(calls) <= 7

    def test_machine_precision_on_dense_grid(self):
        y = np.linspace(-J1_PEAK_VALUE, J1_PEAK_VALUE, 20001)
        x = inverse_j1(y)
        assert np.max(np.abs(bessel_j(1, x) - y)) <= 2.3e-16
        np.testing.assert_array_equal(inverse_j1(-y), -x)
        assert inverse_j1(J1_PEAK_VALUE) == pytest.approx(J1_PEAK_X, abs=1e-6)
        assert inverse_j1(-J1_PEAK_VALUE) == pytest.approx(-J1_PEAK_X, abs=1e-6)


class TestZernikeIndex:
    @pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (1, -1), (4, 2), (5, -3), (54, 0), (40, -20)])
    def test_valid(self, n, m):
        idx = ZernikeIndex(n, m)
        assert idx.k == (n - abs(m)) // 2

    @pytest.mark.parametrize("n,m", [(-1, 0), (2, 3), (3, 2), (2, -1), (1, 0)])
    def test_invalid(self, n, m):
        with pytest.raises(ValueError):
            ZernikeIndex(n, m)

    def test_norm(self):
        assert ZernikeIndex(0, 0).norm() == pytest.approx(np.pi)
        assert ZernikeIndex(1, 1).norm() == pytest.approx(np.pi / 4)
        assert ZernikeIndex(2, 0).norm() == pytest.approx(2 * np.pi / 6)


# closed forms for the low-order radial polynomials
RADIAL_CASES = [
    (0, 0, lambda r: np.ones_like(r)),
    (1, 1, lambda r: r),
    (2, 0, lambda r: 2 * r**2 - 1),
    (2, 2, lambda r: r**2),
    (3, 1, lambda r: 3 * r**3 - 2 * r),
    (4, 0, lambda r: 6 * r**4 - 6 * r**2 + 1),
    (4, 2, lambda r: 4 * r**4 - 3 * r**2),
    (5, 3, lambda r: 5 * r**5 - 4 * r**3),
    (6, 0, lambda r: 20 * r**6 - 30 * r**4 + 12 * r**2 - 1),
]


class TestZernikeRadial:
    @pytest.mark.parametrize("n,m,closed", RADIAL_CASES)
    def test_low_order_closed_forms(self, n, m, closed):
        r = np.linspace(0.0, 1.0, 401)
        np.testing.assert_allclose(zernike_radial(n, m, r), closed(r), rtol=0, atol=5e-14)

    def test_edge_value(self):
        # R_n^m(1) = 1 for every valid pair
        for n in range(0, 55):
            for m in range(n % 2, n + 1, 2):
                assert zernike_radial(n, m, 1.0) == pytest.approx(1.0, abs=1e-11)

    def test_factorial_sum_cross_check(self):
        # brute-force sum R_n^m = sum_s (-1)^s (n-s)! / (s! ((n+m)/2-s)! ((n-m)/2-s)!) rho^(n-2s)
        from math import factorial

        r = np.linspace(0.0, 1.0, 101)
        for n, m in [(8, 0), (9, 3), (12, 6), (15, 1), (20, 10)]:
            ref = np.zeros_like(r)
            for s in range((n - m) // 2 + 1):
                c = (-1) ** s * factorial(n - s) / (
                    factorial(s) * factorial((n + m) // 2 - s) * factorial((n - m) // 2 - s)
                )
                ref += c * r ** (n - 2 * s)
            np.testing.assert_allclose(zernike_radial(n, m, r), ref, rtol=0, atol=1e-10)

    def test_stack_matches_single_evaluations(self):
        r = np.linspace(0.0, 1.0, 57)
        stack = zernike_radial_stack(3, 6, r)
        for k in range(7):
            np.testing.assert_array_equal(stack[k], zernike_radial(3 + 2 * k, 3, r))

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            zernike_radial_stack(-1, 2, np.array([0.5]))


class TestZernikeEval:
    def test_sign_convention(self):
        # m >= 0 pairs with cos, m < 0 with sin(|m| phi)
        rho, phi = 0.6, 0.9
        assert zernike_eval(ZernikeIndex(1, 1), rho, phi) == pytest.approx(rho * np.cos(phi))
        assert zernike_eval(ZernikeIndex(1, -1), rho, phi) == pytest.approx(rho * np.sin(phi))
        assert zernike_eval(ZernikeIndex(3, -3), rho, phi) == pytest.approx(
            rho**3 * np.sin(3 * phi)
        )

    @given(
        st.integers(0, 16),
        st.floats(0.0, 1.0),
        st.floats(0.0, 2 * np.pi),
    )
    @settings(max_examples=50, deadline=None)
    def test_rotation_covariance(self, n, rho, phi):
        # Z_n^n(rho, phi) = rho^n cos(n phi)
        val = zernike_eval(ZernikeIndex(n, n), rho, phi)
        assert val == pytest.approx(rho**n * np.cos(n * phi), abs=1e-12)
