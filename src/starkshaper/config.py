"""Run-configuration ingestion: one YAML file -> a validated RunConfig.

`_CONFIG_TABLE` lists every key a config may hold and the kind of value
each takes; `_check` walks it and refuses the first key or value that does
not fit, naming its path.  Numbers must be finite, and booleans and
strings are never read as numbers.  RunConfig then checks the rules that
span fields.

Frequencies are accepted either in Hz (`u_hz`, `omega_hz`) or directly in
rad/s (`u_rad_s`, `omega_rad_s`); exactly one spelling per quantity must
be present, so a config can never be silently off by 2*pi.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .crystal import IonCrystal, generate_hex_crystal
from .errors import ConfigError
from .patterns import TargetPattern, make_pattern
from .planner import DEFAULT_PSI
from .specfun import is_count, is_real

TWO_PI = 2.0 * np.pi


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader plus the YAML 1.2 float grammar, so scientific notation
    like `1.0e4` (no signed exponent) parses as a number, not a string."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(
        r"""^(?:[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+]?[0-9]+)?
            |[-+]?(?:[0-9][0-9_]*)(?:[eE][-+]?[0-9]+)
            |[-+]?\.[0-9][0-9_]*(?:[eE][-+]?[0-9]+)?
            |[-+]?\.(?:inf|Inf|INF)
            |\.(?:nan|NaN|NAN))$""",
        re.X,
    ),
    list("-+0123456789."),
)

# What a config may hold.  A (required keys, {key: kind}) pair is a mapping
# of exactly those keys; "real" is a finite number, "positive" one in
# (0, inf); an int n is a whole number >= n; a frozenset lists the allowed
# strings; [kind] is a non-empty list of kind; "mapping" is any mapping.
_CONFIG_TABLE = (("pattern", "decomposition", "drive", "mode"), {
    "pattern": (("kind", "amplitude"), {
        "kind": frozenset({"annulus", "elliptical_gaussian", "displaced_gaussian", "tabulated"}),
        "amplitude": "real",
        "params": "mapping",
    }),
    "decomposition": (("n_max", "m_max"), {"n_max": 0, "m_max": 0}),
    "drive": ((), {"u_hz": "positive", "u_rad_s": "positive", "omega_hz": "positive",
                   "omega_rad_s": "positive", "psi": "real"}),
    "mode": frozenset({"serial", "parallel"}),
    "crystal": ((), {"shells": 1, "spacing": "positive", "orientation": "real"}),
    "simulation": ((), {"tolerance": "positive"}),
    "rwa_study": ((), {"omega_hz": ["positive"], "omega_rad_s": ["positive"],
                       "amplitude": "positive", "order": 1, "sample_count": 2,
                       "t_max_s": "positive"}),
})


def _check(value, kind, path: str = "") -> None:
    """Refuse `value` unless it is of `kind` (see _CONFIG_TABLE), naming
    the path of the first offending value."""
    where = path or "<root>"
    if isinstance(kind, tuple):
        required, fields = kind
        if not isinstance(value, dict):
            raise ConfigError(f"config invalid at {where}: {value!r} is not a mapping")
        for key in value:
            if key not in fields:
                raise ConfigError(f"config invalid at {where}: unknown key {key!r}")
        for key in required:
            if key not in value:
                raise ConfigError(f"config invalid at {where}: missing key {key!r}")
        for key, item in value.items():
            _check(item, fields[key], f"{path}/{key}" if path else key)
        return
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"config invalid at {where}: {value!r} is not a non-empty list")
        for i, item in enumerate(value):
            _check(item, kind[0], f"{path}/{i}")
        return
    if isinstance(kind, frozenset):
        ok, must = isinstance(value, str) and value in kind, f"one of {sorted(kind)}"
    elif isinstance(kind, int):
        ok, must = is_count(value) and value >= kind, f"a whole number >= {kind}"
    elif kind == "mapping":
        ok, must = isinstance(value, dict), "a mapping"
    else:
        ok = is_real(value) and (kind == "real" or value > 0)
        must = "a finite number" if kind == "real" else "a finite number > 0"
    if not ok:
        raise ConfigError(f"config invalid at {where}: {value!r} is not {must}")


def _rate(section: dict, name: str, where: str) -> float:
    """Resolve `<name>_hz` XOR `<name>_rad_s` into rad/s."""
    hz_key, rad_key = f"{name}_hz", f"{name}_rad_s"
    has_hz, has_rad = hz_key in section, rad_key in section
    if has_hz == has_rad:
        raise ConfigError(
            f"{where}: give exactly one of {hz_key!r} or {rad_key!r} "
            f"(got {'both' if has_hz else 'neither'})"
        )
    return TWO_PI * float(section[hz_key]) if has_hz else float(section[rad_key])


@dataclass(frozen=True)
class RunConfig:
    pattern_kind: str
    pattern_amplitude: float
    pattern_params: dict
    n_max: int
    m_max: int
    mode: str
    u_rad_s: float
    omega_rad_s: float
    psi: float = DEFAULT_PSI
    crystal_shells: int = 5
    crystal_spacing: float = 0.2
    crystal_orientation: float = 0.0
    tolerance: float = 1e-12
    rwa: dict | None = None

    def __post_init__(self) -> None:
        if self.m_max > self.n_max:
            raise ConfigError(
                f"decomposition needs n_max >= m_max, got n_max={self.n_max}, "
                f"m_max={self.m_max}"
            )
        rates = [self.u_rad_s, self.omega_rad_s, *(self.rwa or {}).get("omega_list", ())]
        if not all(0 < rate < np.inf for rate in rates):
            # a finite rate in Hz can still overflow when multiplied by 2 pi
            raise ConfigError(f"rates must be finite in rad/s, got {rates}")
        if not 1e-13 <= self.tolerance < np.inf:  # NaN fails too
            raise ConfigError(
                f"tolerance {self.tolerance:g} is not finite and >= the certifiable 1e-13 floor"
            )

    def build_pattern(self) -> TargetPattern:
        return make_pattern(self.pattern_kind, self.pattern_amplitude,
                            self.pattern_params)

    def build_crystal(self) -> IonCrystal:
        return generate_hex_crystal(self.crystal_shells, self.crystal_spacing,
                                    self.crystal_orientation)


def config_from_dict(payload: dict) -> RunConfig:
    _check(payload, _CONFIG_TABLE)

    drive = payload["drive"]
    u = _rate(drive, "u", "drive")
    omega = _rate(drive, "omega", "drive")
    crystal = payload.get("crystal", {})
    sim = payload.get("simulation", {})

    rwa = None
    if "rwa_study" in payload:
        section = dict(payload["rwa_study"])
        has_hz, has_rad = "omega_hz" in section, "omega_rad_s" in section
        if has_hz == has_rad:
            raise ConfigError(
                "rwa_study: give exactly one of 'omega_hz' or 'omega_rad_s'"
            )
        omegas = ([TWO_PI * float(v) for v in section.pop("omega_hz")]
                  if has_hz else [float(v) for v in section.pop("omega_rad_s")])
        rwa = {
            "omega_list": omegas,
            "amplitude": float(section.get("amplitude", 0.25)),
            "m": int(section.get("order", 1)),
            "sample_count": int(section.get("sample_count", 1000)),
            "t_max_s": section.get("t_max_s"),
        }

    return RunConfig(
        pattern_kind=payload["pattern"]["kind"],
        pattern_amplitude=float(payload["pattern"]["amplitude"]),
        pattern_params=dict(payload["pattern"].get("params", {})),
        n_max=int(payload["decomposition"]["n_max"]),
        m_max=int(payload["decomposition"]["m_max"]),
        mode=payload["mode"],
        u_rad_s=u,
        omega_rad_s=omega,
        psi=float(drive.get("psi", DEFAULT_PSI)),
        crystal_shells=int(crystal.get("shells", 5)),
        crystal_spacing=float(crystal.get("spacing", 0.2)),
        crystal_orientation=float(crystal.get("orientation", 0.0)),
        tolerance=float(sim.get("tolerance", 1e-12)),
        rwa=rwa,
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        payload = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path} is not valid YAML: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return config_from_dict(payload)
