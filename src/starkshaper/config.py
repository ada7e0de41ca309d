"""Run-configuration ingestion: one YAML file -> a validated RunConfig.

Frequencies are accepted either in Hz (`u_hz`, `omega_hz`) or directly in
rad/s (`u_rad_s`, `omega_rad_s`); exactly one spelling per quantity must
be present, so a config can never be silently off by 2*pi.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np
import yaml

from .errors import ConfigError
from .patterns import TargetPattern, make_pattern
from .planner import DEFAULT_PSI

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

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["pattern", "decomposition", "drive", "mode"],
    "properties": {
        "pattern": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "amplitude"],
            "properties": {
                "kind": {
                    "enum": ["annulus", "elliptical_gaussian",
                             "displaced_gaussian", "tabulated"],
                },
                "amplitude": {"type": "number"},
                "params": {"type": "object"},
            },
        },
        "decomposition": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n_max", "m_max"],
            "properties": {
                "n_max": {"type": "integer", "minimum": 0},
                "m_max": {"type": "integer", "minimum": 0},
            },
        },
        "drive": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "u_hz": {"type": "number", "exclusiveMinimum": 0},
                "u_rad_s": {"type": "number", "exclusiveMinimum": 0},
                "omega_hz": {"type": "number", "exclusiveMinimum": 0},
                "omega_rad_s": {"type": "number", "exclusiveMinimum": 0},
                "psi": {"type": "number"},
            },
        },
        "mode": {"enum": ["serial", "parallel"]},
        "crystal": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "shells": {"type": "integer", "minimum": 1},
                "spacing": {"type": "number", "exclusiveMinimum": 0},
                "orientation": {"type": "number"},
            },
        },
        "simulation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tolerance": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "rwa_study": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "omega_hz": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 1},
                "omega_rad_s": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 1},
                "amplitude": {"type": "number", "exclusiveMinimum": 0},
                "order": {"type": "integer", "minimum": 1},
                "sample_count": {"type": "integer", "minimum": 2},
                "t_max_s": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}


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
        # jsonschema's exclusiveMinimum lets NaN through, so check here
        for key in ("pattern_amplitude", "psi", "u_rad_s", "omega_rad_s", "tolerance"):
            value = getattr(self, key)
            if not np.isfinite(value):
                raise ConfigError(f"config {key} must be finite, got {value}")
        if self.m_max > self.n_max:
            raise ConfigError(
                f"decomposition needs n_max >= m_max, got n_max={self.n_max}, "
                f"m_max={self.m_max}"
            )
        if self.u_rad_s <= 0 or self.omega_rad_s <= 0:
            raise ConfigError("drive rates must be positive")
        if self.tolerance < 1e-13:
            raise ConfigError(
                f"tolerance {self.tolerance:g} is below the certifiable 1e-13 floor"
            )

    def build_pattern(self) -> TargetPattern:
        return make_pattern(self.pattern_kind, self.pattern_amplitude,
                            self.pattern_params)


# Built once: jsonschema.validate re-checks the schema on every call.
_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def config_from_dict(payload: dict) -> RunConfig:
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(payload))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {error.message}")

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
