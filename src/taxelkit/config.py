"""Run configuration: a JSON document with fixed sections and strict keys.

The geometry, dipole and stiffness sections are the magnetics parameter
dataclasses themselves, keyed by their field names (units in their
docstrings). Unknown keys are rejected so typos fail loudly, and every
section checks its values on construction, so a bad value is a ConfigError
at load time. Every field has a default. Commands echo the effective config
beside their outputs.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .gestures import protocol_size
from .magnetics import DipoleParams, StiffnessModel, TaxelGeometry


class ConfigError(ValueError):
    pass


def _build(cls, data: dict, section: str):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown keys in '{section}': {sorted(unknown)} "
                          f"(known: {sorted(known)})")
    try:
        return cls(**data)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad value in '{section}': {e}")


def _require_int(value, name: str, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class SynthSection:
    n_users: int = 4
    n_blocks: int = 3
    reps_per_block: int = 3

    def __post_init__(self):
        for f in fields(self):
            _require_int(getattr(self, f.name), f.name, 1)
        try:
            protocol_size(self.n_users, self.n_blocks, self.reps_per_block)
        except ValueError as e:
            raise ConfigError(str(e)) from None


@dataclass(frozen=True)
class TrainSection:
    epochs: int = 60
    batch_size: int = 32

    def __post_init__(self):
        _require_int(self.epochs, "epochs", 0)
        _require_int(self.batch_size, "batch_size", 1)


@dataclass(frozen=True)
class PathsSection:
    out_dir: str = "out"
    dataset: str = "dataset.tgk"
    checkpoint: str = "model.tgkm"

    def __post_init__(self):
        for f in fields(self):
            if not isinstance(getattr(self, f.name), str) or not getattr(self, f.name):
                raise ValueError(f"{f.name} must be a non-empty string")


# full-scale study protocol: 11 users x 9 blocks x 3 reps
FULL_SCALE_SYNTH = SynthSection(n_users=11, n_blocks=9, reps_per_block=3)


@dataclass(frozen=True)
class RunConfig:
    geometry: TaxelGeometry = field(default_factory=TaxelGeometry)
    dipole: DipoleParams = field(default_factory=DipoleParams)
    stiffness: StiffnessModel = field(default_factory=StiffnessModel)
    synth: SynthSection = field(default_factory=SynthSection)
    train: TrainSection = field(default_factory=TrainSection)
    paths: PathsSection = field(default_factory=PathsSection)
    seed: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        sections = {f.name: f.default_factory for f in fields(cls) if f.name != "seed"}
        unknown = set(data) - set(sections) - {"seed"}
        if unknown:
            raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
        kwargs = {}
        for name, section_cls in sections.items():
            raw = data.get(name, {})
            if not isinstance(raw, dict):
                raise ConfigError(f"section '{name}' must be an object")
            if name == "dipole" and isinstance(raw.get("direction"), list):
                raw = dict(raw, direction=tuple(raw["direction"]))
            kwargs[name] = _build(section_cls, raw, name)
        seed = data.get("seed", 0)
        _require_int(seed, "seed", 0)
        return cls(seed=seed, **kwargs)

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            data = json.loads(Path(path).read_text())
        except OSError as e:  # missing, a directory, unreadable, ...
            raise ConfigError(f"cannot read config file {path}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON in {path}: {e}")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["dipole"]["direction"] = list(d["dipole"]["direction"])
        return d
