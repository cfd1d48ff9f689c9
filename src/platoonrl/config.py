"""Run configuration: one YAML file aggregating every tunable group.

Top-level keys: scenario, train, reward, vehicle, ovm, output_dir, seeds.
Every key is optional and falls back to the documented defaults; unknown
keys are rejected with a field-path message.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .consensus import ConsensusConfig
from .env import Perturbation, RewardWeights, ScenarioConfig
from .errors import ConfigError
from .ovm import OvmParams
from .train import TrainConfig
from .vehicle import VehicleParams


@dataclass
class RunConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    reward: RewardWeights = field(default_factory=RewardWeights)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    ovm: OvmParams = field(default_factory=OvmParams)
    output_dir: str | None = None
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigError("seeds must contain at least one integer")
        for s in self.seeds:
            if isinstance(s, bool) or not isinstance(s, int) or s < 0:
                raise ConfigError("seeds must be non-negative integers")
        # Each seed writes its own train log and checkpoints.
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must not repeat, got {self.seeds}")


def _build(cls: type, mapping: dict[str, Any], path: str) -> Any:
    """Construct a config dataclass from a mapping, rejecting unknown keys
    and prefixing validation errors with their field path."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected a mapping")
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs: dict[str, Any] = {}
    for key, value in mapping.items():
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key")
        kwargs[key] = _convert(known[key], value, f"{path}.{key}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


# What a field of each scalar type takes. A bool is not a number here.
_EXPECTED = {"bool": "true or false", "int": "an integer", "float": "a finite number"}


def _fits(type_name: str, value: Any) -> bool:
    """Whether value suits a field declared type_name: bool fields take
    bools, int fields ints, float fields finite ints or floats."""
    if type_name not in _EXPECTED:
        return True
    if type_name == "bool" or isinstance(value, bool):
        return type_name == "bool" and isinstance(value, bool)
    if type_name == "int":
        return isinstance(value, int)
    return isinstance(value, (int, float)) and math.isfinite(value)


def _convert(f: dataclasses.Field, value: Any, path: str) -> Any:
    if f.name == "perturbation":
        if value is None:
            return None
        return _build(Perturbation, value, path)
    if f.name == "consensus":
        return _build(ConsensusConfig, value, path)
    if not _fits(f.type, value):
        raise ConfigError(f"{path}: expected {_EXPECTED[f.type]}, got {value!r}")
    return value


_SECTIONS = {
    "scenario": ScenarioConfig,
    "train": TrainConfig,
    "reward": RewardWeights,
    "vehicle": VehicleParams,
    "ovm": OvmParams,
}


def config_from_dict(raw: dict[str, Any]) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    kwargs: dict[str, Any] = {}
    for key, value in raw.items():
        if key in _SECTIONS:
            kwargs[key] = _build(_SECTIONS[key], value, key)
        elif key == "output_dir":
            if value is not None and not isinstance(value, str):
                raise ConfigError("output_dir: expected a string path")
            kwargs[key] = value
        elif key == "seeds":
            if not isinstance(value, list):
                raise ConfigError("seeds: expected a list of integers")
            kwargs[key] = value
        else:
            raise ConfigError(f"{key}: unknown key")
    try:
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def config_to_dict(cfg: RunConfig) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for name in _SECTIONS:
        out[name] = dataclasses.asdict(getattr(cfg, name))
    out["output_dir"] = cfg.output_dir
    out["seeds"] = list(cfg.seeds)
    return out


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a YAML run config."""
    # Imported here, its only use: it costs every import of the package
    # 14-20 ms, and no workload but a run from a config file needs it.
    import yaml

    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    return config_from_dict(raw)


def resolve_output_dir(cfg: RunConfig, flag_value: str | None = None) -> Path:
    """Output directory precedence: --output-dir flag, config output_dir,
    CACC_OUTPUT_DIR environment variable, ./runs."""
    for candidate in (flag_value, cfg.output_dir, os.environ.get("CACC_OUTPUT_DIR")):
        if candidate:
            return Path(candidate)
    return Path("runs")
