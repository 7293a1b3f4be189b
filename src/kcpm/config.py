"""Pipeline configuration: an INI-style file with [paths], [thresholds],
[modes] and [hyperparameters] sections. CLI flags override file values;
unknown keys are rejected so typos fail loudly.
"""
from __future__ import annotations

import math

from .errors import ConfigError

# section -> field -> default; a file may set a field only in its section
_SECTIONS = {
    "paths": dict.fromkeys(("log", "kg", "context", "labels", "alias",
                            "model", "out")),
    "thresholds": {"dependency_threshold": 0.5, "frequency_threshold": 1,
                   "min_support": 1, "min_pca_conf": 0.8, "theta_aug": 0.5},
    "modes": {"use_embedding": True, "all_tasks_connected": False},
    "hyperparameters": {"seed": 0},
}
_DEFAULTS = {name: default for fields in _SECTIONS.values()
             for name, default in fields.items()}


class PipelineConfig:
    """Every setting of a run, set by keyword; a field not given takes its
    default. Mutable: load_config and the command line set the fields
    one at a time. FIELDS names them in order."""

    FIELDS = tuple(_DEFAULTS)
    __slots__ = FIELDS

    def __init__(self, **values):
        unknown = values.keys() - _DEFAULTS.keys()
        if unknown:
            raise TypeError(f"unknown config field(s): {sorted(unknown)}")
        for name, default in _DEFAULTS.items():
            setattr(self, name, values.get(name, default))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict()

    __hash__ = None  # mutable

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"PipelineConfig({fields})"

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

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


def load_config(path: str) -> PipelineConfig:
    """The config a file sets. A file that cannot be read or parsed, an
    unknown section or key, or a bad value is a one-line ConfigError; a
    % in a value is read as it is written."""
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # the first line names the fault; the rest quotes the file
        message = str(exc).splitlines()[0]
        raise ConfigError(f"{path}: {message}") from None
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
