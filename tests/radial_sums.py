"""Reference radial sums for the tests: an expansion's radial profiles
evaluated one order and one parity at a time, each from its own sweep."""

import numpy as np

from starkshaper.specfun import zernike_radial_dot, zernike_radial_stack


def zernike_radial_sum(m: int, coeffs, rho) -> np.ndarray:
    """sum_k coeffs[k] R_{m+2k}^m(rho), shaped like rho."""
    coeffs = np.asarray(coeffs, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if not np.any(coeffs):
        return np.zeros_like(rho)
    return zernike_radial_dot(coeffs, zernike_radial_stack(m, coeffs.size - 1, rho))


def even(exp, m: int, rho) -> np.ndarray:
    """P^m at rho, the coefficient of cos(m phi) in F-tilde / A."""
    return zernike_radial_sum(m, exp.cos[m], rho)


def odd(exp, m: int, rho) -> np.ndarray:
    """Q^m at rho, the coefficient of sin(m phi); identically 0 for m = 0."""
    return zernike_radial_sum(m, exp.sin[m], rho)
