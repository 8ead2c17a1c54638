"""Run configuration: a JSON document with fixed sections and strict keys.

Each section but ``paths`` is the dataclass its module computes with, keyed
by its field names: geometry, dipole and stiffness are the magnetics
parameters (units in their docstrings), synth is ``gestures.SynthSection``
and train is ``pipeline.TrainConfig``. Unknown keys are rejected so typos
fail loudly, and every section checks its values on construction, so a bad
value is a ConfigError at load time. Every field has a default. Commands
echo the effective config beside their outputs.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .gestures import SynthSection, require_int
from .magnetics import DipoleParams, StiffnessModel, TaxelGeometry
from .pipeline import TrainConfig


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


@dataclass(frozen=True)
class PathsSection:
    out_dir: str = "out"
    dataset: str = "dataset.tgk"
    checkpoint: str = "model.tgkm"

    def __post_init__(self):
        for f in fields(self):
            if not isinstance(getattr(self, f.name), str) or not getattr(self, f.name):
                raise ValueError(f"{f.name} must be a non-empty string")


@dataclass(frozen=True)
class RunConfig:
    geometry: TaxelGeometry = field(default_factory=TaxelGeometry)
    dipole: DipoleParams = field(default_factory=DipoleParams)
    stiffness: StiffnessModel = field(default_factory=StiffnessModel)
    synth: SynthSection = field(default_factory=SynthSection)
    train: TrainConfig = field(default_factory=TrainConfig)
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
        try:
            require_int(seed, "seed", 0)
        except ValueError as e:
            raise ConfigError(str(e)) from None
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
