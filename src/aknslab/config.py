"""Experiment configuration: one JSON-serializable tree per run.

Configs round-trip bit-identically through to_json/from_json, and every run
writes the resolved config beside its outputs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .diagnostics import DEFAULT_H_COUNT_INTEGRATED, DEFAULT_H_COUNT_SUP
from .profiles import (
    constant,
    gaussian,
    mean_zero_even,
    mean_zero_odd,
    plane_wave,
    random_schwartz,
)
from .spectral import Field, Grid

PROFILES = ("gaussian", "mode", "constant", "appendix_even", "appendix_odd",
            "random", "file")


class ConfigError(ValueError):
    pass


@dataclass
class GridConfig:
    length: float = 64.0      # box length, spatial units
    points: int = 256         # grid points, power of two


@dataclass
class DataConfig:
    profile: str = "gaussian"   # one of PROFILES
    amplitude: float = 0.1
    width: float = 1.0          # gaussian width, spatial units
    xi0: float = 0.0            # mode frequency, must sit on the lattice
    sign: int = 1               # +1 defocusing, -1 focusing
    norm: float = 0.1           # target H^(-1/4) size of the random profile
    path: str = ""              # snapshot base path for profile == "file"


@dataclass
class FlowConfig:
    kind: str = "nls"
    dt: float = 1e-3
    t_final: float = 1.0
    snapshot_stride: int = 10
    kappa: float = 0.0          # generating/regularized/difference parameter
    fp_tol: float = 1e-12


@dataclass
class DiagnosticsConfig:
    sigma: float = -0.5          # supercritical norm index (inflation, smoothing)
    s: float = -0.25             # working regularity for sweeps
    kappas: list = dc_field(default_factory=lambda: [1.0, 2.0, 4.0])
    varkappa: float = 4.0        # density/current parameter
    sweep_kappas: list = dc_field(default_factory=lambda: [8.0, 16.0, 32.0])
    lambdas: list = dc_field(default_factory=lambda: [8.0, 64.0, 512.0])
    h_count: int = DEFAULT_H_COUNT_INTEGRATED  # cutoff centres for integrated identities
    h_count_sup: int = DEFAULT_H_COUNT_SUP     # cutoff centres for sup_h norms
    flavor: str = "nls"          # current flavor for the micro subcommand
    bumps: int = 1
    separation: float = 48.0
    threshold_factor: float = 1e-3


@dataclass
class ExperimentConfig:
    grid: GridConfig = dc_field(default_factory=GridConfig)
    data: DataConfig = dc_field(default_factory=DataConfig)
    flow: FlowConfig = dc_field(default_factory=FlowConfig)
    diagnostics: DiagnosticsConfig = dc_field(default_factory=DiagnosticsConfig)
    out: str = "out"
    seed: int = 0

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, tree: dict) -> "ExperimentConfig":
        cfg = cls()
        if not isinstance(tree, dict):
            raise ConfigError(f"a config must be an object, got {type(tree).__name__}")
        sections = {f.name for f in dataclasses.fields(cfg)}
        for section, payload in tree.items():
            if section not in sections:
                raise ConfigError(f"unknown config section {section!r}")
            current = getattr(cfg, section)
            if not dataclasses.is_dataclass(current):
                setattr(cfg, section, _checked(section, payload, current))
                continue
            if not isinstance(payload, dict):
                raise ConfigError(f"config section {section} must be an object, "
                                  f"got {type(payload).__name__}")
            names = {f.name for f in dataclasses.fields(current)}
            for key, value in payload.items():
                if key not in names:
                    raise ConfigError(f"unknown config field {section}.{key}")
                setattr(current, key,
                        _checked(f"{section}.{key}", value, getattr(current, key)))
        if cfg.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())

    # -- builders ------------------------------------------------------------

    def make_grid(self) -> Grid:
        return Grid(float(self.grid.length), int(self.grid.points))

    def make_field(self) -> Field:
        d = self.data
        grid = self.make_grid()
        sign = int(d.sign)
        if d.profile == "gaussian":
            return gaussian(grid, d.amplitude, d.width, sign)
        if d.profile == "mode":
            return plane_wave(grid, d.amplitude, d.xi0, sign)
        if d.profile == "constant":
            return constant(grid, d.amplitude, sign)
        if d.profile == "appendix_even":
            return mean_zero_even(grid, d.amplitude, sign)
        if d.profile == "appendix_odd":
            return mean_zero_odd(grid, d.amplitude, sign)
        if d.profile == "random":
            return random_schwartz(grid, np.random.default_rng(self.seed),
                                   norm=d.norm, sign=sign)
        if d.profile == "file":
            from .storage import read_snapshot

            if not d.path:
                raise ConfigError("data.profile == 'file' requires data.path")
            try:
                f, _ = read_snapshot(d.path)
            except OSError as exc:
                raise ConfigError(f"cannot read data.path snapshot: {exc}") from exc
            return f
        raise ConfigError(f"unknown data profile {d.profile!r}; "
                          f"choose from {PROFILES}")


def _checked(name: str, value, default):
    """``value`` if it has the type of ``default``, else ConfigError.

    An int stands for a float but a bool for no number; list entries must be
    numbers; floats must be finite.
    """
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"config field {name} must be a list, "
                              f"got {type(value).__name__}")
        for entry in value:
            _checked(f"{name} entry", entry, 0.0)
        return value
    wanted = (int, float) if isinstance(default, float) else type(default)
    if isinstance(value, bool) or not isinstance(value, wanted):
        raise ConfigError(f"config field {name} must be {type(default).__name__}, "
                          f"got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config field {name} must be finite, got {value!r}")
    return value


def config_reference() -> str:
    """Human-readable listing of every field and its default."""
    lines = ["aknslab configuration reference (JSON sections and defaults)", ""]
    cfg = ExperimentConfig()
    for section_field in dataclasses.fields(cfg):
        value = getattr(cfg, section_field.name)
        if dataclasses.is_dataclass(value):
            lines.append(f"[{section_field.name}]")
            for f in dataclasses.fields(value):
                lines.append(f"  {f.name} = {getattr(value, f.name)!r}")
        else:
            lines.append(f"{section_field.name} = {value!r}")
        lines.append("")
    lines.append("data profiles: " + ", ".join(PROFILES))
    return "\n".join(lines) + "\n"
