"""Pipeline configuration: an INI-style file with [paths], [thresholds],
[modes] and [hyperparameters] sections. CLI flags override file values;
unknown keys are rejected so typos fail loudly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError

_SECTIONS = {
    "paths": {"log", "kg", "context", "labels", "alias", "model", "out"},
    "thresholds": {"dependency_threshold", "frequency_threshold",
                   "min_support", "min_pca_conf", "theta_aug"},
    "modes": {"filter_mode", "use_embedding", "all_tasks_connected"},
    "hyperparameters": {"dim", "epochs", "margin", "learning_rate", "seed",
                        "negatives", "time_buckets"},
}


@dataclass
class PipelineConfig:
    # paths
    log: str | None = None
    kg: str | None = None
    context: str | None = None
    labels: str | None = None
    alias: str | None = None
    model: str | None = None
    out: str | None = None
    # thresholds
    dependency_threshold: float = 0.5
    frequency_threshold: int = 1
    min_support: int = 1
    min_pca_conf: float = 0.8
    theta_aug: float = 0.5
    # modes
    filter_mode: str = "permissive"
    use_embedding: bool = True
    all_tasks_connected: bool = False
    # hyperparameters
    dim: int = 16
    epochs: int = 80
    margin: float = 1.0
    learning_rate: float = 0.5
    seed: int = 0
    negatives: int = 4
    time_buckets: int = 24

    def validate(self) -> None:
        if not 0.0 <= self.dependency_threshold < 1.0:
            raise ConfigError("dependency_threshold must be in [0, 1)")
        if self.frequency_threshold < 0:
            raise ConfigError("frequency_threshold must be nonnegative")
        if self.min_support < 1:
            raise ConfigError("min_support must be >= 1")
        if not 0.0 <= self.min_pca_conf <= 1.0:
            raise ConfigError("min_pca_conf must be in [0, 1]")
        if not 0.0 <= self.theta_aug < math.inf:
            raise ConfigError("theta_aug must be finite and >= 0")
        if self.filter_mode not in ("strict", "permissive"):
            raise ConfigError("filter_mode must be 'strict' or 'permissive'")
        if self.dim < 2 or self.epochs < 1:
            raise ConfigError("dim must be >= 2 and epochs >= 1")
        if self.negatives < 1:
            raise ConfigError("negatives must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and > 0")
        if not math.isfinite(self.margin):
            raise ConfigError("margin must be finite")
        if not 1 <= self.time_buckets <= 1440:
            raise ConfigError("time_buckets must be in 1..1440")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def load_config(path: str) -> PipelineConfig:
    import configparser

    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    cfg = PipelineConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            current = getattr(cfg, key)
            try:
                setattr(cfg, key, _coerce(raw, current))
            except ValueError:
                raise ConfigError(
                    f"bad value {raw!r} for {key!r} in [{section}]") from None
    cfg.validate()
    return cfg


def _coerce(raw: str, current):
    if isinstance(current, bool):
        if raw.lower() in ("true", "yes", "1", "on"):
            return True
        if raw.lower() in ("false", "no", "0", "off"):
            return False
        raise ValueError(raw)
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return raw
