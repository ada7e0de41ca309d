"""Target AC Stark-shift patterns F(rho, phi) on the unit disk.

The three closed-form families cover the case studies (a flat-top annulus,
an anisotropic Gaussian stripe, an off-center Gaussian spot); tabulated
patterns let users supply anything else as a polar-grid CSV.  All patterns
are immutable and evaluation is pure.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .specfun import is_real


class TargetPattern:
    """Base class: a dimensionless weight map F on the unit disk.

    Subclasses set `kind` and implement `evaluate`, `params` and
    `peak_value`, the exact maximum of |F| over the disk (the planner
    calibrates pulse durations against it, so an exact value keeps gate
    times exact).
    """

    kind: str
    amplitude: float

    def evaluate(self, rho, phi) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, rho, phi) -> np.ndarray:
        return self.evaluate(rho, phi)

    def peak_value(self) -> float:
        """Max of |F| over the disk."""
        raise NotImplementedError

    def params(self) -> dict:
        """Shape parameters, for config echo and report provenance."""
        raise NotImplementedError

    def _check_numbers(self) -> None:
        """Refuse an amplitude or shape parameter that is not a finite
        number (a bool, a string, NaN or inf), naming it."""
        for name, value in {"amplitude": self.amplitude, **self.params()}.items():
            if not is_real(value):
                raise ConfigError(f"{self.kind} parameter {name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class AnnulusPattern(TargetPattern):
    """Azimuthally symmetric flat-top ring built from two sigmoids.

    g(rho) = sigma(kappa (rho - r1)) - sigma(kappa (rho - r2)), normalized
    so F equals `amplitude` exactly at the ring midline.
    """

    amplitude: float
    r1: float = 0.45
    r2: float = 0.55
    kappa: float = 10.0
    kind: str = field(default="annulus", init=False)

    def __post_init__(self) -> None:
        self._check_numbers()
        if not (0.0 < self.r1 < self.r2 <= 1.0):
            raise ConfigError(f"annulus radii must satisfy 0 < r1 < r2 <= 1, got ({self.r1}, {self.r2})")
        if self.kappa <= 0:
            raise ConfigError(f"annulus steepness must be positive, got {self.kappa}")

    def _g(self, rho):
        k = self.kappa
        return 1.0 / (1.0 + np.exp(-k * (rho - self.r1))) - 1.0 / (
            1.0 + np.exp(-k * (rho - self.r2))
        )

    def evaluate(self, rho, phi) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        mid = self.r1 + 0.5 * (self.r2 - self.r1)
        out = self.amplitude * self._g(rho) / self._g(mid)
        return np.broadcast_arrays(out, np.asarray(phi, dtype=float))[0]

    def peak_value(self) -> float:
        # the two sigmoids share kappa, so g is symmetric about the midline
        # and the midline is the exact maximum: peak == amplitude
        return abs(self.amplitude)

    def params(self) -> dict:
        return {"r1": self.r1, "r2": self.r2, "kappa": self.kappa}


@dataclass(frozen=True)
class EllipticalGaussianPattern(TargetPattern):
    """Centered anisotropic Gaussian, peak amplitude/2 at the origin."""

    amplitude: float
    eta_x: float = np.sqrt(2.0) / 10.0
    eta_y: float = np.sqrt(2.0)
    kind: str = field(default="elliptical_gaussian", init=False)

    def __post_init__(self) -> None:
        self._check_numbers()
        if self.eta_x <= 0 or self.eta_y <= 0:
            raise ConfigError(f"gaussian widths must be positive, got ({self.eta_x}, {self.eta_y})")

    def evaluate(self, rho, phi) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        phi = np.asarray(phi, dtype=float)
        x = rho * np.cos(phi)
        y = rho * np.sin(phi)
        return (
            0.5
            * self.amplitude
            * np.exp(-(x * x) / (2.0 * self.eta_x**2) - (y * y) / (2.0 * self.eta_y**2))
        )

    def peak_value(self) -> float:
        return 0.5 * abs(self.amplitude)

    def params(self) -> dict:
        return {"eta_x": self.eta_x, "eta_y": self.eta_y}


@dataclass(frozen=True)
class DisplacedGaussianPattern(TargetPattern):
    """Isotropic Gaussian spot centered at Cartesian (delta_x, delta_y)."""

    amplitude: float
    eta: float = 0.1 / np.sqrt(2.0)
    delta_x: float = 0.3
    delta_y: float = 0.1 * np.sqrt(3.0)
    kind: str = field(default="displaced_gaussian", init=False)

    def __post_init__(self) -> None:
        self._check_numbers()
        if self.eta <= 0:
            raise ConfigError(f"gaussian width must be positive, got {self.eta}")
        if np.hypot(self.delta_x, self.delta_y) >= 1.0:
            raise ConfigError(
                f"displacement ({self.delta_x}, {self.delta_y}) lies outside the unit disk"
            )

    def evaluate(self, rho, phi) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        phi = np.asarray(phi, dtype=float)
        dx = rho * np.cos(phi) - self.delta_x
        dy = rho * np.sin(phi) - self.delta_y
        return 0.5 * self.amplitude * np.exp(-(dx * dx + dy * dy) / (2.0 * self.eta**2))

    def peak_value(self) -> float:
        return 0.5 * abs(self.amplitude)

    def params(self) -> dict:
        return {"eta": self.eta, "delta_x": self.delta_x, "delta_y": self.delta_y}


@dataclass(frozen=True, eq=False)
class TabulatedPattern(TargetPattern):
    """Pattern sampled on a regular (rho, phi) grid, bilinear interpolation
    with periodic wrap-around in phi."""

    amplitude: float
    rho_grid: np.ndarray
    phi_grid: np.ndarray
    values: np.ndarray  # shape (len(rho_grid), len(phi_grid))
    kind: str = field(default="tabulated", init=False)

    def __post_init__(self) -> None:
        r = np.asarray(self.rho_grid, dtype=float)
        p = np.asarray(self.phi_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "rho_grid", r)
        object.__setattr__(self, "phi_grid", p)
        object.__setattr__(self, "values", v)
        if v.shape != (r.size, p.size):
            raise ConfigError(f"value grid shape {v.shape} does not match ({r.size}, {p.size})")
        if r[0] > 1e-12 or r[-1] < 1.0 - 1e-12:
            raise ConfigError("tabulated rho grid must span [0, 1]")
        if np.any(np.diff(r) <= 0) or np.any(np.diff(p) <= 0):
            raise ConfigError("tabulated grids must be strictly increasing")
        if np.max(np.abs(v)) > abs(self.amplitude) * (1.0 + 1e-9):
            raise ConfigError("tabulated values exceed the stated amplitude")

    def evaluate(self, rho, phi) -> np.ndarray:
        rho_b, phi_b = np.broadcast_arrays(np.asarray(rho, float), np.asarray(phi, float))
        r = np.clip(rho_b, self.rho_grid[0], self.rho_grid[-1])
        p = np.mod(phi_b - self.phi_grid[0], 2.0 * np.pi) + self.phi_grid[0]

        ir = np.clip(np.searchsorted(self.rho_grid, r) - 1, 0, self.rho_grid.size - 2)
        tr = (r - self.rho_grid[ir]) / (self.rho_grid[ir + 1] - self.rho_grid[ir])

        # last phi cell wraps around to phi_grid[0] + 2*pi
        phi_ext = np.append(self.phi_grid, self.phi_grid[0] + 2.0 * np.pi)
        ip = np.clip(np.searchsorted(phi_ext, p) - 1, 0, self.phi_grid.size - 1)
        tp = (p - phi_ext[ip]) / (phi_ext[ip + 1] - phi_ext[ip])
        ip_next = (ip + 1) % self.phi_grid.size

        v00 = self.values[ir, ip]
        v01 = self.values[ir, ip_next]
        v10 = self.values[ir + 1, ip]
        v11 = self.values[ir + 1, ip_next]
        return (1 - tr) * ((1 - tp) * v00 + tp * v01) + tr * ((1 - tp) * v10 + tp * v11)

    def peak_value(self) -> float:
        # bilinear interpolation with rho clipped to the grid and phi
        # wrapped attains its extremes at the nodes
        return float(np.max(np.abs(self.values)))

    def params(self) -> dict:
        return {"rho_points": int(self.rho_grid.size), "phi_points": int(self.phi_grid.size)}


def annulus(amplitude: float, r1: float = 0.45, r2: float = 0.55, kappa: float = 10.0) -> AnnulusPattern:
    return AnnulusPattern(amplitude, r1, r2, kappa)


def elliptical_gaussian(amplitude: float, eta_x: float, eta_y: float) -> EllipticalGaussianPattern:
    return EllipticalGaussianPattern(amplitude, eta_x, eta_y)


def displaced_gaussian(
    amplitude: float, eta: float, delta_x: float, delta_y: float
) -> DisplacedGaussianPattern:
    return DisplacedGaussianPattern(amplitude, eta, delta_x, delta_y)


def tabulated_from_csv(path: str | Path, amplitude: float | None = None) -> TabulatedPattern:
    """Load a pattern from CSV rows (rho, phi, value) with a header line.

    The rows must form a complete regular polar grid.  When `amplitude`
    is omitted it is taken as max |value|.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read pattern table {path}: {exc}") from None
    rows = []
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None or len(header) < 3:
        raise ConfigError(f"{path}: expected header row 'rho,phi,value'")
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            rows.append((float(row[0]), float(row[1]), float(row[2])))
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{path}:{line_no}: malformed row {row!r}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    data = np.array(rows)
    rho_grid = np.unique(data[:, 0])
    phi_grid = np.unique(data[:, 1])
    if rho_grid.size * phi_grid.size != data.shape[0]:
        raise ConfigError(f"{path}: rows do not form a complete (rho, phi) grid")
    values = np.full((rho_grid.size, phi_grid.size), np.nan)
    ir = np.searchsorted(rho_grid, data[:, 0])
    ip = np.searchsorted(phi_grid, data[:, 1])
    values[ir, ip] = data[:, 2]
    if np.any(np.isnan(values)):
        raise ConfigError(f"{path}: duplicate or missing grid points")
    amp = float(np.max(np.abs(values))) if amplitude is None else float(amplitude)
    return TabulatedPattern(amp, rho_grid, phi_grid, values)


_BUILTIN_KINDS = {
    "annulus": AnnulusPattern,
    "elliptical_gaussian": EllipticalGaussianPattern,
    "displaced_gaussian": DisplacedGaussianPattern,
}


def make_pattern(kind: str, amplitude: float, params: dict | None = None) -> TargetPattern:
    """Factory used by the config layer."""
    params = dict(params or {})
    if kind == "tabulated":
        try:
            path = params.pop("path")
        except KeyError:
            raise ConfigError("tabulated pattern requires a 'path' parameter") from None
        if params:
            raise ConfigError(f"unknown tabulated parameters: {sorted(params)}")
        return tabulated_from_csv(path, amplitude)
    try:
        cls = _BUILTIN_KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown pattern kind {kind!r}; expected one of "
            f"{sorted(_BUILTIN_KINDS) + ['tabulated']}"
        ) from None
    try:
        return cls(amplitude, **params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {kind}: {exc}") from None
