"""Special functions used by the compiler: integer-order Bessel J, the
inverse of J1 on its principal branch, and unnormalized Zernike polynomials.

These are authored here (rather than imported) because the planner's
correctness hinges on their exact conventions: the Zernike basis is the
unnormalized one (Z_1^1 = rho*cos(phi), R_n^m(1) = 1), and the J1 inversion
must stay on [0, x_peak] where J1 is monotone.  scipy equivalents are used
only in the test suite as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Chebyshev

MAX_BESSEL_ORDER = 64
BESSEL_DOMAIN = 12.0

_FLOAT_MAX = float(np.finfo(float).max)
_SERIES_MAX_TERMS = 90
_SERIES_TAIL = 1e-17


def bessel_j(n: int, x) -> np.ndarray | float:
    """Bessel function of the first kind J_n(x), integer order.

    Ascending power series with term recurrence
    t_{k+1} = -t_k * (x/2)^2 / ((k+1)(k+n+1)), summed until the running
    term drops below 1e-17 of the partial sum.  Accurate to ~1e-13
    absolute for |x| <= 12, which is the supported domain; larger
    arguments raise ValueError rather than silently losing digits to
    cancellation.
    """
    n = int(n)
    if abs(n) > MAX_BESSEL_ORDER:
        raise ValueError(f"order {n} outside supported range |n| <= {MAX_BESSEL_ORDER}")
    x_arr = np.asarray(x, dtype=float)
    if x_arr.size and np.max(np.abs(x_arr)) > BESSEL_DOMAIN:
        raise ValueError(
            f"argument magnitude {np.max(np.abs(x_arr)):.3f} exceeds series domain "
            f"|x| <= {BESSEL_DOMAIN}"
        )
    sign = 1.0
    if n < 0:
        # J_{-n} = (-1)^n J_n
        n = -n
        sign = -1.0 if n % 2 else 1.0

    # The alternating terms reach ~7e2 near x = 12 while the sum stays O(1),
    # so float64 term generation alone would cost ~2e-13.  Running the series
    # in extended precision keeps the absolute error near 1e-15.  (On
    # platforms where longdouble is only float64 the error degrades to
    # ~2e-13 at the domain edge, still far below every tolerance downstream,
    # where arguments never exceed ~3.)
    half = np.asarray(0.5 * x_arr, dtype=np.longdouble)
    quarter_sq = half * half
    # leading term (x/2)^n / n!
    term = np.ones_like(half)
    for i in range(1, n + 1):
        term = term * half / i
    total = term.copy()
    for k in range(_SERIES_MAX_TERMS):
        term = term * (-quarter_sq) / ((k + 1.0) * (k + n + 1.0))
        total += term
        if np.all(np.abs(term) <= _SERIES_TAIL * (np.abs(total) + 1e-300)):
            break
    result = sign * np.asarray(total, dtype=float)
    if np.ndim(x) == 0:
        return float(result)
    return result


def _golden_max(f, lo: float, hi: float, xtol: float = 1e-12) -> float:
    """Golden-section maximizer for a unimodal scalar function."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _locate_j1_peak() -> tuple[float, float]:
    """Argmax of J1, by golden section plus a Newton polish on J1' = 0.

    Golden section alone stalls ~1e-8 from the true abscissa (comparing
    nearly equal function values at a flat maximum); the derivative root
    J0(x) = J2(x) is simple and well conditioned, so two Newton steps on
    it recover the abscissa to ~1e-15.
    """
    x_star = _golden_max(lambda t: bessel_j(1, t), 1.0, 2.5, xtol=1e-6)
    for _ in range(4):
        g = bessel_j(0, x_star) - bessel_j(2, x_star)
        g_prime = -2.0 * bessel_j(1, x_star) + 2.0 * bessel_j(2, x_star) / x_star
        x_star -= g / g_prime
    return x_star, bessel_j(1, x_star)


# Located numerically at import so the constant is never hand-typed.
J1_PEAK_X, J1_PEAK_VALUE = _locate_j1_peak()


def _fit_inverse_j1_guess() -> Chebyshev:
    """x as a degree-20 polynomial in s = sqrt(1 - J1(x)/J1_PEAK_VALUE), where
    the inverse stays analytic at the branch end, fitted to J1 at 65 Chebyshev
    points of [0, J1_PEAK_X]; it is within ~1e-11 of those samples."""
    x = 0.5 * J1_PEAK_X * (1.0 - np.cos(np.linspace(0.0, np.pi, 65)))
    s = np.sqrt(1.0 - bessel_j(1, x) / J1_PEAK_VALUE)
    return Chebyshev.fit(s, x, 20, domain=[0.0, 1.0])


_J1_INVERSE_GUESS = _fit_inverse_j1_guess()


def inverse_j1(y) -> np.ndarray | float:
    """Invert J1 on its principal monotone branch [0, J1_PEAK_X].

    Odd in y: inverse_j1(-y) = -inverse_j1(y).  Starts from the import-time
    fit in s = sqrt(1 - |y|/J1_PEAK_VALUE), then takes two Newton steps
    (J1' = (J0 - J2)/2) clipped to the branch; where |J1'| < 1e-3, near the
    peak, the start is already at machine precision in the residual.
    """
    y_arr = np.asarray(y, dtype=float)
    if y_arr.size and np.max(np.abs(y_arr)) > J1_PEAK_VALUE * (1.0 + 1e-12):
        raise ValueError(
            f"|y| = {np.max(np.abs(y_arr)):.6f} exceeds max J1 = {J1_PEAK_VALUE:.6f}; "
            "no solution on the principal branch"
        )
    target = np.minimum(np.abs(y_arr), J1_PEAK_VALUE)
    x = _J1_INVERSE_GUESS(np.sqrt(1.0 - target / J1_PEAK_VALUE))
    for _ in range(2):
        deriv = 0.5 * (bessel_j(0, x) - bessel_j(2, x))
        step = np.where(np.abs(deriv) > 1e-3, (bessel_j(1, x) - target) / np.where(deriv == 0, 1.0, deriv), 0.0)
        x = np.clip(x - step, 0.0, J1_PEAK_X)
    x = x * np.sign(y_arr)
    if np.ndim(y) == 0:
        return float(x)
    return x


def is_real(value) -> bool:
    """An int or float (numpy's scalars too), not a bool, with |value| <=
    the largest float: strings, NaN, inf and integers too large for a
    float are refused, not coerced."""
    return (isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
            and abs(value) <= _FLOAT_MAX)


def is_whole(value) -> bool:
    """An integer, or a float with an integral value: booleans, strings,
    NaN, inf and fractions are refused, not coerced."""
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_count(value) -> bool:
    """A non-negative whole number."""
    return is_whole(value) and value >= 0


@dataclass(frozen=True)
class ZernikeIndex:
    """Radial/azimuthal index pair (n, m) of a disk polynomial.

    Valid when n >= 0, |m| <= n and n - |m| is even.  Negative m selects
    the sin(|m| phi) partner of the cos(m phi) polynomial.
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"radial degree n={self.n} must be >= 0")
        if abs(self.m) > self.n:
            raise ValueError(f"|m|={abs(self.m)} exceeds n={self.n}")
        if (self.n - abs(self.m)) % 2:
            raise ValueError(f"n - |m| must be even, got (n={self.n}, m={self.m})")

    @property
    def k(self) -> int:
        """Number of radial sign changes, (n - |m|) / 2."""
        return (self.n - abs(self.m)) // 2

    def norm(self) -> float:
        """Squared disk norm of the polynomial: eps_m * pi / (2n + 2)."""
        eps = 2.0 if self.m == 0 else 1.0
        return eps * np.pi / (2.0 * self.n + 2.0)


def zernike_radial_stack(m, k_max: int, rho) -> np.ndarray:
    """All radial polynomials R_{m+2k}^m(rho), k = 0..k_max, one sweep.

    Uses R_n^m(rho) = (-1)^k rho^m P_k^{(m,0)}(1 - 2 rho^2) with the
    three-term Jacobi recurrence, which is numerically stable upward (the
    explicit factorial sum loses digits past n ~ 20).  Returns an array of
    shape (k_max + 1,) + rho.shape.  `m` may also be a sequence of orders:
    the recurrence then runs for all of them in the same k loop and the
    result has shape (len(m), k_max + 1) + rho.shape, each order's slice
    equal bit for bit to its own sweep.
    """
    orders = np.asarray(m, dtype=int)
    if np.any(orders < 0):
        raise ValueError("radial polynomials take m >= 0")
    rho_arr = np.asarray(rho, dtype=float)
    x = 1.0 - 2.0 * rho_arr * rho_arr
    rho_m = np.array([rho_arr**k if k else np.ones_like(rho_arr) for k in orders.ravel().tolist()])
    rho_m = rho_m.reshape(orders.shape + rho_arr.shape)
    m = orders.reshape(orders.shape + (1,) * rho_arr.ndim)
    stack = np.empty(orders.shape + (k_max + 1,) + rho_arr.shape, dtype=float)
    out = np.moveaxis(stack, orders.ndim, 0)  # a view, indexed by k
    p_prev = np.ones_like(rho_m)  # P_0
    out[0] = rho_m
    if k_max >= 1:
        p_cur = 0.5 * ((m + 2.0) * x + m)  # P_1^{(m,0)}
        out[1] = -rho_m * p_cur
    # the factors that do not depend on x, for every k at once (a leading
    # k axis over m's shape), each formed by the same operations as a
    # per-k evaluation would
    k = np.arange(2, k_max + 1).reshape((-1,) + (1,) * m.ndim)
    c = 2.0 * k + m
    a1 = 2.0 * k * (k + m) * (c - 2.0)
    a3 = 2.0 * (k + m - 1.0) * (k - 1.0) * c
    c_c2, c_1, m_m = c * (c - 2.0), c - 1.0, m * m
    for i in range(k_max - 1):
        a2 = c_1[i] * (c_c2[i] * x + m_m)
        p_next = (a2 * p_cur - a3[i] * p_prev) / a1[i]
        p_prev, p_cur = p_cur, p_next
        out[i + 2] = rho_m * p_cur if i % 2 == 0 else -rho_m * p_cur
    return stack


def zernike_radial_dot(coeffs, stack) -> np.ndarray:
    """sum_k coeffs[k] stack[k] for a radial stack of one order with at
    least len(coeffs) rows (a slice of a joint sweep will do): zeros when
    every coefficient is 0, else one matrix product, so a sum keeps its
    bits whichever sweep its rows came from."""
    coeffs = np.asarray(coeffs, dtype=float)
    if not np.any(coeffs):
        return np.zeros(stack.shape[1:])
    # the (1, K) x (K, N) product np.tensordot(coeffs, rows, axes=(0, 0)) forms
    rows = stack[:coeffs.size]
    return np.dot(coeffs.reshape(1, -1), rows.reshape(coeffs.size, -1)).reshape(rows.shape[1:])


def zernike_radial(n: int, m: int, rho) -> np.ndarray | float:
    """Radial polynomial R_n^m(rho) for a valid (n, m) pair."""
    m_abs = abs(m)
    idx = ZernikeIndex(n, m)  # validates
    stack = zernike_radial_stack(m_abs, idx.k, np.asarray(rho, dtype=float))
    result = stack[idx.k]
    if np.ndim(rho) == 0:
        return float(result)
    return result


def zernike_eval(index: ZernikeIndex, rho, phi) -> np.ndarray | float:
    """Z_n^m(rho, phi), unnormalized: R_n^|m| * cos(m phi) for m >= 0,
    R_n^|m| * sin(|m| phi) for m < 0."""
    radial = zernike_radial(index.n, abs(index.m), rho)
    phi_arr = np.asarray(phi, dtype=float)
    if index.m >= 0:
        ang = np.cos(index.m * phi_arr)
    else:
        ang = np.sin(-index.m * phi_arr)
    result = radial * ang
    if np.ndim(rho) == 0 and np.ndim(phi) == 0:
        return float(result)
    return result
