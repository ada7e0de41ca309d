"""Projection of disk patterns onto the Zernike basis, radial-profile
aggregation by azimuthal order, reconstruction, and truncation-error maps.

Quadrature design: Gauss-Legendre in rho on [0, 1] with the rho measure
folded into the weights (exact for polynomial radial content up to degree
2*nodes - 2, i.e. far past the basis used here, and spectrally convergent
for the analytic patterns), times a uniform trapezoid rule in phi
(spectrally accurate for periodic integrands, exact for trig content far
below the aliasing order).  Convergence is certified by doubling both node
counts.  A u = rho^2 substitution was tried first and rejected: integrands
with odd radial Taylor content acquire a sqrt(u) endpoint singularity that
stalls convergence near 1e-6.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import QuadratureError
from .patterns import TargetPattern
from .specfun import ZernikeIndex, zernike_radial_stack, zernike_radial_sum

COEFFICIENT_EXPORT_FLOOR = 1e-12


@dataclass(frozen=True)
class DiskQuadrature:
    """Tensor-product quadrature on the unit disk (see module docstring)."""

    radial: int = 96
    azimuthal: int = 512

    def __post_init__(self) -> None:
        if self.radial < 4 or self.azimuthal < 8:
            raise ValueError(f"quadrature too coarse: {self.radial}x{self.azimuthal}")

    @property
    def nodes(self):
        return _disk_nodes(self.radial, self.azimuthal)

    def doubled(self) -> "DiskQuadrature":
        return DiskQuadrature(2 * self.radial, 2 * self.azimuthal)


@lru_cache(maxsize=16)
def _disk_nodes(radial: int, azimuthal: int):
    """(rho, w_rho, phi, w_phi): sum_i w_rho[i] = 1/2, w_phi = 2 pi / n."""
    x, w = np.polynomial.legendre.leggauss(radial)
    rho = 0.5 * (x + 1.0)
    w_rho = 0.5 * w * rho  # the rho from the disk measure rho drho
    phi = 2.0 * np.pi * np.arange(azimuthal) / azimuthal
    w_phi = 2.0 * np.pi / azimuthal
    return rho, w_rho, phi, w_phi


def disk_inner_product(f, g, quad: DiskQuadrature = DiskQuadrature()) -> float:
    """<f, g> = integral over the unit disk of f*g with measure rho drho dphi."""
    rho, w_rho, phi, w_phi = quad.nodes
    fg = np.asarray(f(rho[:, None], phi[None, :])) * np.asarray(g(rho[:, None], phi[None, :]))
    return float(w_phi * (w_rho @ fg.sum(axis=1)))


@dataclass(frozen=True, eq=False)
class ZernikeExpansion:
    """Finite Zernike sum F-tilde = A * sum alpha_n^m Z_n^m."""

    amplitude: float
    n_max: int
    m_max: int
    coefficients: dict  # ZernikeIndex -> float

    def __post_init__(self) -> None:
        for idx in self.coefficients:
            if idx.n > self.n_max or abs(idx.m) > self.m_max:
                raise ValueError(f"coefficient index {idx} outside (n_max, m_max) box")

    def coefficient(self, n: int, m: int) -> float:
        return self.coefficients.get(ZernikeIndex(n, m), 0.0)

    def radial_profiles(self) -> "RadialProfileSet":
        return RadialProfileSet.from_expansion(self)

    def reconstruct(self, rho, phi) -> np.ndarray | float:
        """Evaluate A * sum alpha_n^m Z_n^m at (rho, phi), broadcasting."""
        return self.radial_profiles().reconstruct(rho, phi)

    def sorted_items(self):
        return sorted(self.coefficients.items(), key=lambda kv: (abs(kv[0].m), kv[0].m < 0, kv[0].n))


class RadialProfileSet:
    """Azimuthal aggregation of an expansion: for each m >= 0,
    P^m(rho) = sum_n alpha_n^m R_n^m (cos partner) and
    Q^m(rho) = sum_n alpha_n^(-m) R_n^m (sin partner, Q^0 = 0)."""

    def __init__(self, amplitude: float, n_max: int, m_max: int, cos_coeffs, sin_coeffs):
        self.amplitude = amplitude
        self.n_max = n_max
        self.m_max = m_max
        self.cos = cos_coeffs  # m -> array over k of alpha_{m+2k, m}
        self.sin = sin_coeffs  # m -> array over k of alpha_{m+2k, -m}

    @classmethod
    def from_expansion(cls, exp: ZernikeExpansion) -> "RadialProfileSet":
        cos_c, sin_c = {}, {}
        for m in range(exp.m_max + 1):
            k_max = (exp.n_max - m) // 2
            if k_max < 0:
                continue
            cos_c[m] = np.array([exp.coefficient(m + 2 * k, m) for k in range(k_max + 1)])
            if m > 0:
                sin_c[m] = np.array([exp.coefficient(m + 2 * k, -m) for k in range(k_max + 1)])
        return cls(exp.amplitude, exp.n_max, exp.m_max, cos_c, sin_c)

    def even(self, m: int, rho) -> np.ndarray:
        """P^m at rho (coefficient of cos(m phi) in F-tilde / A)."""
        return zernike_radial_sum(m, self.cos.get(m, ()), rho)

    def odd(self, m: int, rho) -> np.ndarray:
        """Q^m at rho (coefficient of sin(m phi)); identically 0 for m = 0."""
        return zernike_radial_sum(m, self.sin.get(m, ()), rho)

    def active_orders(self, floor: float = 0.0) -> list[int]:
        """Azimuthal orders with any coefficient above `floor`."""
        out = []
        for m in range(self.m_max + 1):
            c = self.cos.get(m)
            s = self.sin.get(m)
            big_c = c is not None and c.size and np.max(np.abs(c)) > floor
            big_s = s is not None and s.size and np.max(np.abs(s)) > floor
            if big_c or big_s:
                out.append(m)
        return out

    def reconstruct(self, rho, phi) -> np.ndarray | float:
        """A * sum over m of P^m cos(m phi) + Q^m sin(m phi); the radial sums
        are evaluated on rho's own shape and broadcast against phi only in
        the products."""
        rho = np.asarray(rho, float)
        phi = np.asarray(phi, float)
        total = np.zeros(np.broadcast_shapes(rho.shape, phi.shape))
        for m in range(self.m_max + 1):
            if m == 0:
                total += self.even(0, rho)
            else:
                total += self.even(m, rho) * np.cos(m * phi) + self.odd(m, rho) * np.sin(m * phi)
        total *= self.amplitude
        if total.ndim == 0:
            return float(total)
        return total


def decompose(
    pattern: TargetPattern,
    n_max: int,
    m_max: int,
    quad: DiskQuadrature = DiskQuadrature(),
    certify: bool = True,
) -> ZernikeExpansion:
    """Project pattern / amplitude onto all valid Z_n^m with n <= n_max,
    |m| <= m_max:  alpha_n^m = (2n + 2) / (eps_m pi) * <F/A, Z_n^m>.

    With certify=True the projection is repeated on a doubled rule and a
    QuadratureError is raised if any coefficient moves by more than 1e-9
    relative to the largest one.
    """
    if not 0 <= m_max <= n_max:
        raise ValueError(f"need 0 <= m_max <= n_max, got n_max={n_max}, m_max={m_max}")
    if pattern.amplitude == 0:
        raise ValueError("pattern amplitude must be nonzero to decompose")

    coeffs = _project(pattern, n_max, m_max, quad)
    if certify:
        refined = _project(pattern, n_max, m_max, quad.doubled())
        base = np.array(list(coeffs.values()))
        fine = np.array([refined[k] for k in coeffs])
        scale = max(float(np.max(np.abs(base))), 1e-30)
        drift = float(np.max(np.abs(fine - base))) / scale
        if drift >= 1e-9:
            raise QuadratureError(
                f"decomposition not converged on {quad.radial}x{quad.azimuthal} rule: "
                f"doubling moves coefficients by {drift:.2e} (relative)"
            )
    return ZernikeExpansion(pattern.amplitude, n_max, m_max, coeffs)


def _project(pattern: TargetPattern, n_max: int, m_max: int, quad: DiskQuadrature) -> dict:
    rho, w_rho, phi, w_phi = quad.nodes
    values = np.asarray(pattern(rho[:, None], phi[None, :]), dtype=float) / pattern.amplitude

    orders = np.arange(m_max + 1)
    cos_moments = (values @ np.cos(np.outer(phi, orders))) * w_phi  # (nr, m_max+1)
    sin_moments = (values @ np.sin(np.outer(phi, orders))) * w_phi

    coeffs: dict[ZernikeIndex, float] = {}
    for m in range(m_max + 1):
        k_max = (n_max - m) // 2
        if k_max < 0:
            continue
        stack = zernike_radial_stack(m, k_max, rho)  # (k_max+1, nr)
        eps = 2.0 if m == 0 else 1.0
        n_vals = m + 2 * np.arange(k_max + 1)
        norm = (2.0 * n_vals + 2.0) / (eps * np.pi)
        coeffs_cos = norm * (stack @ (w_rho * cos_moments[:, m]))
        for k, n in enumerate(n_vals):
            coeffs[ZernikeIndex(int(n), m)] = float(coeffs_cos[k])
        if m > 0:
            norm_sin = (2.0 * n_vals + 2.0) / np.pi
            coeffs_sin = norm_sin * (stack @ (w_rho * sin_moments[:, m]))
            for k, n in enumerate(n_vals):
                coeffs[ZernikeIndex(int(n), -m)] = float(coeffs_sin[k])
    return coeffs


@dataclass(frozen=True, eq=False)
class ErrorMap:
    """Truncation error |F - F_tilde| normalized by the pattern peak, on a
    polar grid, plus the same quantity at ion positions when a crystal was
    supplied.

    Peak normalization (max |F| over the disk, not the nominal amplitude)
    is what makes the serial infidelity law uniform across pattern
    families: the planner calibrates the peak ion to a pi rotation, so
    I = sin^2(pi * e / 2) holds with e measured in units of the peak.
    """

    rho: np.ndarray
    phi: np.ndarray
    error: np.ndarray  # (len(rho), len(phi))
    disk_max: float
    ion_error: np.ndarray | None = None
    ion_max: float | None = None

    def write_csv(self, path: str | Path) -> None:
        # `%` and `format` share the .17g conversion, so the bytes equal a
        # per-cell f-string; one row at a time keeps the grid's floats small.
        line = "".join(f"%s,{p:.17g},%.17g\n" for p in self.phi.tolist())
        with Path(path).open("w") as fh:
            fh.write("rho,phi,error\n")
            for r, row in zip(self.rho.tolist(), self.error):
                fh.write(line.replace("%s", f"{r:.17g}") % tuple(row.tolist()))


def truncation_error_map(
    pattern: TargetPattern,
    exp: ZernikeExpansion,
    radial_points: int = 256,
    azimuthal_points: int = 512,
    crystal=None,
) -> ErrorMap:
    if radial_points < 64 or azimuthal_points < 128:
        raise ValueError("error-map grid must be at least 64 x 128")
    rho = np.linspace(0.0, 1.0, radial_points)
    phi = np.linspace(0.0, 2.0 * np.pi, azimuthal_points, endpoint=False)
    scale = pattern.peak_value()
    target = np.asarray(pattern(rho[:, None], phi[None, :]), dtype=float)
    approx = exp.radial_profiles().reconstruct(rho[:, None], phi[None, :])
    err = np.abs(target - approx) / scale
    ion_error = ion_max = None
    if crystal is not None:
        at_ions = np.abs(
            np.asarray(pattern(crystal.rho, crystal.phi), dtype=float)
            - exp.reconstruct(crystal.rho, crystal.phi)
        ) / scale
        ion_error = at_ions
        ion_max = float(np.max(at_ions))
    return ErrorMap(rho, phi, err, float(np.max(err)), ion_error, ion_max)


def expansion_to_json_dict(exp: ZernikeExpansion, floor: float = COEFFICIENT_EXPORT_FLOOR) -> dict:
    return {
        "amplitude": exp.amplitude,
        "n_max": exp.n_max,
        "m_max": exp.m_max,
        "coefficients": [
            {"n": idx.n, "m": idx.m, "alpha": alpha}
            for idx, alpha in exp.sorted_items()
            if abs(alpha) >= floor
        ],
    }


def expansion_from_json_dict(payload: dict) -> ZernikeExpansion:
    coeffs = {
        ZernikeIndex(int(c["n"]), int(c["m"])): float(c["alpha"])
        for c in payload["coefficients"]
    }
    return ZernikeExpansion(
        float(payload["amplitude"]), int(payload["n_max"]), int(payload["m_max"]), coeffs
    )


def save_expansion(exp: ZernikeExpansion, path: str | Path) -> None:
    Path(path).write_text(json.dumps(expansion_to_json_dict(exp), indent=2) + "\n")


def load_expansion(path: str | Path) -> ZernikeExpansion:
    return expansion_from_json_dict(json.loads(Path(path).read_text()))
