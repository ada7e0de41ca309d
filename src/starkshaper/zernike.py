"""Projection of disk patterns onto the Zernike basis, reconstruction,
truncation-error maps and expansion.json.  A ZernikeExpansion keeps its
coefficients as one cos and one sin array per azimuthal order m, the form
its radial profiles, its reconstruction and the planner (one mirror
surface per order) all read; the projection fills those arrays directly.

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

from .errors import ConfigError, QuadratureError
from .patterns import TargetPattern
from .specfun import ZernikeIndex, is_count, is_whole, zernike_radial_stack, zernike_radial_sum

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
    """Finite Zernike sum F-tilde = A * sum alpha_n^m Z_n^m, held by
    azimuthal order: cos[m][k] = alpha_{m+2k}^m and sin[m][k] =
    alpha_{m+2k}^{-m} for 0 <= m <= m_max and k = 0..(n_max - m) // 2;
    sin[0] is empty."""

    amplitude: float
    n_max: int
    m_max: int
    cos: tuple[np.ndarray, ...]
    sin: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        cos = tuple(np.asarray(c, dtype=float) for c in self.cos)
        sin = tuple(np.asarray(s, dtype=float) for s in self.sin)
        box = [((self.n_max - m) // 2 + 1,) for m in range(self.m_max + 1)]
        shapes = ([c.shape for c in cos], [s.shape for s in sin])
        if not 0 <= self.m_max <= self.n_max or shapes != (box, [(0,), *box[1:]]):
            raise ValueError(f"coefficient arrays do not fit the (n_max={self.n_max}, m_max={self.m_max}) box")
        if not np.isfinite(self.amplitude) or not all(np.isfinite(c).all() for c in cos + sin):
            raise ValueError("expansion amplitude and coefficients must be finite")
        object.__setattr__(self, "cos", cos)
        object.__setattr__(self, "sin", sin)

    def coefficient(self, n: int, m: int) -> float:
        idx = ZernikeIndex(n, m)  # validates
        if n > self.n_max or abs(m) > self.m_max:
            return 0.0
        return float((self.cos if m >= 0 else self.sin)[abs(m)][idx.k])

    def items(self):
        """(ZernikeIndex, alpha) pairs in (|m|, m < 0, n) order."""
        for m in range(self.m_max + 1):
            for sign, table in ((1, self.cos), (-1, self.sin)):
                for k, alpha in enumerate(table[m].tolist()):
                    yield ZernikeIndex(m + 2 * k, sign * m), alpha

    def even(self, m: int, rho) -> np.ndarray:
        """P^m at rho (coefficient of cos(m phi) in F-tilde / A)."""
        return zernike_radial_sum(m, self.cos[m], rho)

    def odd(self, m: int, rho) -> np.ndarray:
        """Q^m at rho (coefficient of sin(m phi)); identically 0 for m = 0."""
        return zernike_radial_sum(m, self.sin[m], rho)

    def active_orders(self, floor: float = 0.0) -> list[int]:
        """Azimuthal orders with any coefficient above `floor`."""
        return [
            m for m in range(self.m_max + 1)
            if any(t[m].size and np.max(np.abs(t[m])) > floor for t in (self.cos, self.sin))
        ]

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
) -> ZernikeExpansion:
    """Project pattern / amplitude onto all valid Z_n^m with n <= n_max,
    |m| <= m_max:  alpha_n^m = (2n + 2) / (eps_m pi) * <F/A, Z_n^m>.

    The projection is repeated on a doubled rule and a QuadratureError is
    raised if any coefficient moves by more than 1e-9 relative to the
    largest one.
    """
    if not 0 <= m_max <= n_max:
        raise ValueError(f"need 0 <= m_max <= n_max, got n_max={n_max}, m_max={m_max}")
    if pattern.amplitude == 0:
        raise ValueError("pattern amplitude must be nonzero to decompose")

    cos, sin = _project(pattern, n_max, m_max, quad)
    fine_cos, fine_sin = _project(pattern, n_max, m_max, quad.doubled())
    base = np.concatenate(cos + sin)
    fine = np.concatenate(fine_cos + fine_sin)
    scale = max(float(np.max(np.abs(base))), 1e-30)
    drift = float(np.max(np.abs(fine - base))) / scale
    if drift >= 1e-9:
        raise QuadratureError(
            f"decomposition not converged on {quad.radial}x{quad.azimuthal} rule: "
            f"doubling moves coefficients by {drift:.2e} (relative)"
        )
    return ZernikeExpansion(pattern.amplitude, n_max, m_max, cos, sin)


def _project(pattern: TargetPattern, n_max: int, m_max: int, quad: DiskQuadrature):
    """The (cos, sin) coefficient arrays of ZernikeExpansion on one rule."""
    rho, w_rho, phi, w_phi = quad.nodes
    values = np.asarray(pattern(rho[:, None], phi[None, :]), dtype=float) / pattern.amplitude

    orders = np.arange(m_max + 1)
    cos_moments = (values @ np.cos(np.outer(phi, orders))) * w_phi  # (nr, m_max+1)
    sin_moments = (values @ np.sin(np.outer(phi, orders))) * w_phi

    cos, sin = [], [np.zeros(0)]
    for m in range(m_max + 1):
        k_max = (n_max - m) // 2
        stack = zernike_radial_stack(m, k_max, rho)  # (k_max+1, nr)
        eps = 2.0 if m == 0 else 1.0
        n_vals = m + 2 * np.arange(k_max + 1)
        cos.append((2.0 * n_vals + 2.0) / (eps * np.pi) * (stack @ (w_rho * cos_moments[:, m])))
        if m > 0:
            sin.append((2.0 * n_vals + 2.0) / np.pi * (stack @ (w_rho * sin_moments[:, m])))
    return tuple(cos), tuple(sin)


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


def truncation_error_map(pattern: TargetPattern, exp: ZernikeExpansion, crystal=None) -> ErrorMap:
    """|F - F_tilde| / peak on a 256 x 512 polar grid, and at the ions of
    `crystal` when one is given."""
    rho = np.linspace(0.0, 1.0, 256)
    phi = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    scale = pattern.peak_value()
    target = np.asarray(pattern(rho[:, None], phi[None, :]), dtype=float)
    err = np.abs(target - exp.reconstruct(rho[:, None], phi[None, :])) / scale
    ion_error = ion_max = None
    if crystal is not None:
        ion_error = np.abs(
            np.asarray(pattern(crystal.rho, crystal.phi), dtype=float)
            - exp.reconstruct(crystal.rho, crystal.phi)
        ) / scale
        ion_max = float(np.max(ion_error))
    return ErrorMap(rho, phi, err, float(np.max(err)), ion_error, ion_max)


def expansion_to_json_dict(exp: ZernikeExpansion) -> dict:
    """The expansion with every |alpha| below COEFFICIENT_EXPORT_FLOOR dropped,
    coefficients in (|m|, m < 0, n) order."""
    return {
        "amplitude": exp.amplitude,
        "n_max": exp.n_max,
        "m_max": exp.m_max,
        "coefficients": [
            {"n": idx.n, "m": idx.m, "alpha": alpha}
            for idx, alpha in exp.items()
            if abs(alpha) >= COEFFICIENT_EXPORT_FLOOR
        ],
    }


def _index(record: dict, key: str, where: str = "") -> int:
    """record[key] as an int: booleans, strings, NaN, inf and fractions are
    refused, and so is a negative value unless the key is m."""
    value = record[key]
    if not (is_whole if key == "m" else is_count)(value):
        bound = "" if key == "m" else " >= 0"
        raise ConfigError(f"expansion {where}{key} must be a whole number{bound}, got {value!r}")
    return int(value)


def expansion_from_json_dict(payload: dict) -> ZernikeExpansion:
    """Rebuild an expansion; coefficients the payload omits are 0.  Every
    index must be a valid (n, m) inside the (n_max, m_max) box."""
    try:
        n_max, m_max = _index(payload, "n_max"), _index(payload, "m_max")
        cos = [np.zeros(max(0, (n_max - m) // 2 + 1)) for m in range(m_max + 1)]
        sin = [np.zeros(0)] + [np.zeros_like(c) for c in cos[1:]]
        for i, c in enumerate(payload["coefficients"]):
            where = f"coefficient {i}: "
            idx = ZernikeIndex(_index(c, "n", where), _index(c, "m", where))
            if idx.n > n_max or abs(idx.m) > m_max:
                raise ValueError(f"coefficient index {idx} outside (n_max, m_max) box")
            (cos if idx.m >= 0 else sin)[abs(idx.m)][idx.k] = float(c["alpha"])
        return ZernikeExpansion(float(payload["amplitude"]), n_max, m_max, tuple(cos), tuple(sin))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed expansion JSON: {exc!r}") from None


def save_expansion(exp: ZernikeExpansion, path: str | Path) -> None:
    Path(path).write_text(json.dumps(expansion_to_json_dict(exp), indent=2) + "\n")


def load_expansion(path: str | Path) -> ZernikeExpansion:
    path = Path(path)
    try:
        return expansion_from_json_dict(json.loads(path.read_text()))
    except (OSError, ValueError, ConfigError) as exc:
        raise ConfigError(f"cannot load expansion {path}: {exc}") from None
