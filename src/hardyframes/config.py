"""Experiment configuration: the symbol, the seed, and the resolutions.

A config pins everything a run depends on - truncation order N, orbit
length K, boundary grid M (anti-aliasing requires M > 4N), and the
tolerances - so that identical configs produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .diagnostics import RANK_REL_TOL
from .jsonio import complex_to_json, json_int, json_number, json_to_complex
from .symbols import INNER_TOL_EXACT, SymbolSpec, spec_from_json, spec_to_json


# Most entries, orbit coefficients or grid points, one array built from a
# config may hold: 2^24, 256 MiB as complex128, or 4096 x 4096 of (N+1)(K+1).
MAX_ORBIT_ENTRIES = 2**24


class ConfigError(ValueError):
    """Invalid experiment configuration or malformed config file."""


@dataclass(frozen=True)
class ToleranceSettings:
    inner_tol: float = INNER_TOL_EXACT
    rank_tol: float = RANK_REL_TOL

    def __post_init__(self):
        for name in ("inner_tol", "rank_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class OutputSettings:
    format: str = "json"
    path: str | None = None

    def __post_init__(self):
        if self.format not in ("json", "csv"):
            raise ConfigError(f"unknown output format {self.format!r}")
        if self.path is not None and not isinstance(self.path, str):
            raise ConfigError(f"path must be a JSON string or null, not {self.path!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    symbol: SymbolSpec
    seed_coeffs: tuple = (1.0 + 0j,)
    truncation_order: int = 64
    orbit_length: int = 64
    boundary_grid: int = 512
    tolerances: ToleranceSettings = field(default_factory=ToleranceSettings)
    output: OutputSettings = field(default_factory=OutputSettings)

    def __post_init__(self):
        if self.truncation_order < 1:
            raise ConfigError("truncation_order must be >= 1")
        if self.orbit_length < 1:
            raise ConfigError("orbit_length must be >= 1")
        # every command builds the (K+1) x (N+1) orbit: reject it before
        # anything is allocated
        self.check_size(self.orbit_length + 1, self.truncation_order + 1)
        if self.boundary_grid <= 4 * self.truncation_order:
            raise ConfigError(
                f"boundary_grid {self.boundary_grid} too small: "
                f"need M > 4N = {4 * self.truncation_order}"
            )
        if self.boundary_grid > MAX_ORBIT_ENTRIES:
            raise ConfigError(
                f"boundary_grid {self.boundary_grid} too large: "
                f"exceeds the limit of {MAX_ORBIT_ENTRIES} points"
            )
        coeffs = tuple(complex(c) for c in self.seed_coeffs)
        if not coeffs:
            raise ConfigError("seed_coeffs must be nonempty")
        if not all(np.isfinite(c.real) and np.isfinite(c.imag) for c in coeffs):
            raise ConfigError("seed_coeffs must be finite")
        object.__setattr__(self, "seed_coeffs", coeffs)

    def check_size(self, rows: int, cols: int, what: str = "an orbit") -> None:
        """Raise ConfigError when a rows x cols array that a command builds
        from this config would hold more than MAX_ORBIT_ENTRIES coefficients."""
        if rows * cols > MAX_ORBIT_ENTRIES:
            raise ConfigError(
                f"N = {self.truncation_order}, K = {self.orbit_length} too large: "
                f"{what} of {rows} x {cols} coefficients exceeds the limit of "
                f"{MAX_ORBIT_ENTRIES}"
            )


def _decoded(decode, *args):
    """decode(*args), with a ValueError, whose message names the fault,
    raised as a ConfigError with the same message."""
    try:
        return decode(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- experiment config <-> JSON ---------------------------------------------


def config_to_json(cfg: ExperimentConfig) -> dict:
    return {
        "symbol": spec_to_json(cfg.symbol),
        "seed_coeffs": [complex_to_json(c) for c in cfg.seed_coeffs],
        "truncation_order": cfg.truncation_order,
        "orbit_length": cfg.orbit_length,
        "boundary_grid": cfg.boundary_grid,
        "tolerances": asdict(cfg.tolerances),
        "output": asdict(cfg.output),
    }


def config_from_json(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    tol = obj.get("tolerances", {})
    out = obj.get("output", {})
    for name, section in (("tolerances", tol), ("output", out)):
        if not isinstance(section, dict):
            raise ConfigError(f"{name} must be a JSON object")
    try:
        return ExperimentConfig(
            symbol=_decoded(spec_from_json, obj["symbol"]),
            seed_coeffs=tuple(json_to_complex(c) for c in obj["seed_coeffs"]),
            truncation_order=_decoded(json_int, obj["truncation_order"], "truncation_order"),
            orbit_length=_decoded(json_int, obj["orbit_length"], "orbit_length"),
            boundary_grid=_decoded(json_int, obj["boundary_grid"], "boundary_grid"),
            # a key the config leaves out takes the library default
            tolerances=ToleranceSettings(**{
                name: json_number(tol[name], name)
                for name in ("inner_tol", "rank_tol")
                if name in tol
            }),
            output=OutputSettings(
                format=out.get("format", "json"), path=out.get("path")
            ),
        )
    except ConfigError:
        raise
    # float() of an integer beyond the double range raises OverflowError
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_json(obj)
