"""Config file parsing, presets, and canonical emission.

Grammar: line-oriented ``key = value`` entries under ``[section]`` headers
(hash comments allowed). Sections and keys are fixed; unknown ones are
errors. A ``preset`` key in [simulation] loads one of the canonical test
problems, after which any key can be overridden:

    [simulation]
    preset = bkw2d
    cells_per_dim = 80

Presets: bkw2d, bkw3d, maxwellian2d, bimaxwellian, rosenbluth.
"""

import configparser
import io
import math
from dataclasses import MISSING, fields, replace

from .simulate import SimulationConfig


class ConfigError(ValueError):
    """Malformed or inconsistent configuration text."""


PRESETS = {
    # 2D self-similar solution, Maxwell molecules
    "bkw2d": SimulationConfig(
        dim=2, half_width=4.0, cells_per_dim=60, dt=0.01, t_start=0.0, t_end=5.0,
        gamma=0.0, prefactor=1.0 / 16.0, initial_condition="bkw",
    ),
    # 3D self-similar solution, Maxwell molecules
    "bkw3d": SimulationConfig(
        dim=3, half_width=4.0, cells_per_dim=20, dt=0.01, t_start=5.5, t_end=6.0,
        gamma=0.0, prefactor=1.0 / 24.0, initial_condition="bkw",
    ),
    # stationary reference problem
    "maxwellian2d": SimulationConfig(
        dim=2, half_width=4.0, cells_per_dim=40, dt=0.01, t_start=0.0, t_end=5.0,
        gamma=0.0, prefactor=1.0 / 16.0, initial_condition="maxwellian",
    ),
    # anisotropic two-bump problem with the Coulomb exponent in 2D
    "bimaxwellian": SimulationConfig(
        dim=2, half_width=10.0, cells_per_dim=60, dt=0.1, t_start=0.0, t_end=20.0,
        gamma=-3.0, prefactor=1.0 / 16.0, initial_condition="bimaxwellian",
        relative_entropy_reference="moments",
    ),
    # 3D radial-shell relaxation with the Coulomb kernel
    "rosenbluth": SimulationConfig(
        dim=3, half_width=1.0, cells_per_dim=20, dt=0.2, t_start=0.0, t_end=20.0,
        gamma=-3.0, prefactor=1.0 / (4.0 * math.pi), initial_condition="rosenbluth",
        relative_entropy_reference="moments",
    ),
}

_SECTION_KEYS = {
    "simulation": (
        "preset", "dim", "half_width", "cells_per_dim", "dt", "t_start", "t_end",
        "eps_coeff", "eps_power", "snapshot_stride", "deterministic",
    ),
    "kernel": ("gamma", "prefactor"),
    "initial": (
        "initial_condition", "relative_entropy_reference", "bkw_integration_const",
        "rosenbluth_sigma", "rosenbluth_sharpness",
    ),
    "engine": ("engine", "theta", "order", "leaf_capacity"),
}

# Value type of every key: the SimulationConfig field annotation.
_KEY_TYPES = {f.name: f.type for f in fields(SimulationConfig)} | {"preset": str}


def _coerce(key, raw):
    raw = raw.strip()
    try:
        if _KEY_TYPES[key] is bool:
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        return _KEY_TYPES[key](raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r}") from exc


def preset(name):
    """A validated copy of the named preset configuration."""
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return replace(PRESETS[name]).validate()


def parse_config(text):
    """Parse config text into a validated SimulationConfig.

    Unknown sections or keys are reported by name; when no preset is given,
    every required field must be present explicitly.
    """
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), interpolation=None
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    unknown = []
    entries = {}
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            unknown.append(f"[{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in _SECTION_KEYS[section]:
                unknown.append(f"{section}.{key}")
            else:
                entries[key] = _coerce(key, raw)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))

    preset_name = entries.pop("preset", None)
    if preset_name is not None:
        cfg = preset(preset_name)
        cfg = replace(cfg, **entries)
    else:
        required = {f.name for f in fields(SimulationConfig) if f.default is MISSING}
        missing = required - set(entries)
        if missing:
            raise ConfigError(
                "no preset given and required keys missing: "
                + ", ".join(sorted(missing))
            )
        cfg = SimulationConfig(**entries)
    return cfg.validate()


def emit_config(cfg):
    """Canonical config text; parse_config(emit_config(cfg)) == cfg."""
    out = io.StringIO()
    values = {f.name: getattr(cfg, f.name) for f in fields(SimulationConfig)}
    for section, keys in _SECTION_KEYS.items():
        out.write(f"[{section}]\n")
        for key in keys:
            if key == "preset":
                continue
            val = values[key]
            if val is None:
                continue
            if isinstance(val, bool):
                val = "true" if val else "false"
            elif isinstance(val, float):
                val = repr(val)
            out.write(f"{key} = {val}\n")
        out.write("\n")
    return out.getvalue()


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
