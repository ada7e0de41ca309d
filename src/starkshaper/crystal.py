"""Ion-crystal geometry: hexagonal lattice generation, rotating-frame to
lab-frame transforms, and the crystal CSV export.

An IonCrystal stores rotating-frame polar positions (rho_i, phi_i) with the
disk radius normalized to 1.  The crystal rotates rigidly, so the lab-frame
azimuth is phi_i - omega * t; omega itself travels with the schedule/config,
not the crystal (the CSV has no field for it).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True, eq=False)
class IonCrystal:
    rho: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "phi", phi)
        if rho.shape != phi.shape or rho.ndim != 1:
            raise ConfigError("crystal rho/phi must be 1-D arrays of equal length")
        if rho.size == 0:
            raise ConfigError("crystal must contain at least one ion")
        if np.any(rho < 0) or np.any(rho > 1.0 + 1e-12):
            raise ConfigError("ion radii must lie in [0, 1]")
        x, y = self.cartesian()
        if rho.size > 1:
            d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
            np.fill_diagonal(d2, np.inf)
            if np.min(d2) <= 0.0:
                raise ConfigError("coincident ions in crystal")

    def __len__(self) -> int:
        return self.rho.size

    def cartesian(self) -> tuple[np.ndarray, np.ndarray]:
        """Rotating-frame Cartesian coordinates."""
        return self.rho * np.cos(self.phi), self.rho * np.sin(self.phi)

    def lab_position(self, t: float, omega: float) -> tuple[np.ndarray, np.ndarray]:
        """Lab-frame positions at time t for rotation rate omega (rad/s)."""
        phi_lab = self.phi - omega * t
        return self.rho * np.cos(phi_lab), self.rho * np.sin(phi_lab)


def generate_hex_crystal(shells: int, spacing: float, orientation: float = 0.0) -> IonCrystal:
    """Centered hexagonal (triangular-lattice) crystal.

    `shells` rings around a center ion with nearest-neighbor distance
    `spacing`; ion count is 1 + 3*shells*(shells+1) and the six outermost
    corner ions sit at rho = shells * spacing.  One lattice axis points
    along phi = orientation.
    """
    if shells < 0:
        raise ConfigError(f"shells must be >= 0, got {shells}")
    if spacing <= 0:
        raise ConfigError(f"spacing must be positive, got {spacing}")
    if shells * spacing > 1.0 + 1e-12:
        raise ConfigError(
            f"lattice radius {shells * spacing} exceeds the unit disk; "
            "reduce shells or spacing"
        )
    # axial lattice coordinates (i, j) with basis a1 = (1, 0), a2 = (1/2, sqrt(3)/2)
    pts = []
    for i in range(-shells, shells + 1):
        for j in range(-shells, shells + 1):
            if max(abs(i), abs(j), abs(i + j)) > shells:
                continue
            x = spacing * (i + 0.5 * j)
            y = spacing * (np.sqrt(3.0) / 2.0) * j
            pts.append((x, y))
    xy = np.array(pts)
    rho = np.hypot(xy[:, 0], xy[:, 1])
    phi = np.mod(np.arctan2(xy[:, 1], xy[:, 0]) + orientation, 2.0 * np.pi)
    # clip the corner ions' 1.0+2e-16 rounding so the disk invariant holds
    rho = np.minimum(rho, 1.0) if shells * spacing >= 1.0 - 1e-12 else rho
    return IonCrystal(rho, phi)


def save_crystal_csv(crystal: IonCrystal, path: str | Path) -> None:
    with Path(path).open("w") as fh:
        fh.write("index,rho,phi\n")
        for i, (r, p) in enumerate(zip(crystal.rho, crystal.phi)):
            fh.write(f"{i},{r:.17g},{p:.17g}\n")
