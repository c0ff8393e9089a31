"""The experiment config's schema: one JSON object describing a whole run.

This module is schema only. The config is a tree of frozen section
dataclasses: `parse_config` decodes JSON into it by walking their fields
(JSON types checked, unknown keys rejected, each section range-checked as it
is built), and `config_to_dict` walks it back to the JSON that
config_echo.json holds. The victim, committee, SSL and adversarial sections
are the run-time recipes that the modules doing the work define
(VictimRecipe, EnsembleRecipe, SslConfig, PgdConfig), plus only the keys
those recipes do not hold; each setting and default is declared once,
there. Parsing builds no network client and imports no server code.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Optional, Union, get_args, get_origin, get_type_hints

from . import adversarial as adv
from .datapool import GaussianMixture, SyntheticSource, TinyDigits, read_text, split_budget
from .ensemble import EnsembleRecipe
from .errors import InvalidConfigError
from .selection import SelectionStrategy
from .semisup import SslConfig
from .victim import VictimRecipe

# Each section is a frozen dataclass whose fields are its JSON keys: a field
# without a default is required, and __post_init__ range-checks the section,
# so a bad value is rejected before any stage runs. _decode and _encode walk
# these classes, inherited fields included.

_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def _typed(value, kind: type, path: str):
    """value if it has the field's JSON type, else InvalidConfigError naming
    path. Int fields reject bools and floats; float fields take finite ints
    (as floats) and floats, not bools, NaN or Infinity (which json.loads
    reads); bool fields take only true/false."""
    ok = isinstance(value, bool) == (kind is bool) and isinstance(value, (int, float) if kind is float else kind)
    # NaN fails every comparison, and int-float comparisons are exact
    if not ok or kind is float and not -sys.float_info.max <= value <= sys.float_info.max:
        raise InvalidConfigError(f"{path} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


# victim.data names its source class by this tag; gen-data's flags are their fields
SOURCES = {"gaussian_mixture": GaussianMixture, "tiny_digits": TinyDigits}
_SOURCE_TAGS = {cls: tag for tag, cls in SOURCES.items()}


@dataclass(frozen=True, kw_only=True)
class VictimSection(VictimRecipe):
    """The victim's recipe plus where its data comes from, or the checkpoint
    to load in place of training."""

    data: SyntheticSource
    train_n: int = 4000
    test_n: int = 2000
    checkpoint: Optional[str] = None

    def __post_init__(self):
        if self.train_n < 1 or self.test_n < 1:
            raise InvalidConfigError("train_n and test_n must be positive")
        super().__post_init__()


@dataclass(frozen=True)
class RemoteSection:
    """A victim service's address and the client's retry policy. These are
    the one copy of the endpoint rules: netvictim's client takes a section,
    so its settings are checked where it is built."""

    host: str
    port: int
    timeout: float = 10.0
    retries: int = 3

    def __post_init__(self):
        if not self.timeout > 0:
            raise InvalidConfigError(f"timeout must be positive, got {self.timeout:g}")
        if self.retries < 1:
            raise InvalidConfigError(f"retries must be at least 1, got {self.retries!r}")
        if not 1 <= self.port <= 65535:  # the OS would wrap 70000 to 4464, another server
            raise InvalidConfigError(f"port must lie in [1, 65535], got {self.port!r}")


@dataclass(frozen=True)
class AttackSection:
    pool_n: int
    budget: int
    cycles: int
    strategy: SelectionStrategy
    validation_fraction: float = 0.1
    ensemble: EnsembleRecipe = EnsembleRecipe()
    remote: Optional[RemoteSection] = None

    def __post_init__(self):
        if self.pool_n < 1:
            raise InvalidConfigError("pool_n must be positive")
        if self.split()[0] < 1:
            raise InvalidConfigError(f"validation_fraction {self.validation_fraction} gives no validation rows")
        if self.pool_n < self.budget:
            raise InvalidConfigError(f"pool_n {self.pool_n} is smaller than the budget {self.budget}")

    def split(self) -> tuple[int, list[int]]:
        """(validation queries, per-cycle batch sizes); see split_budget."""
        return split_budget(self.budget, self.cycles, self.validation_fraction)


@dataclass(frozen=True)
class OutputSection:
    scores_csv: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    victim: VictimSection
    attack: AttackSection
    ssl: Optional[SslConfig] = None
    adversarial: Optional[adv.PgdConfig] = None
    outputs: OutputSection = OutputSection()


def _decode(kind, value, path: str):
    """The JSON value at path, checked against kind and converted to it:
    a section dataclass, a tagged data source, Optional[X], tuple[X, ...],
    None, or a scalar type."""
    if kind is type(None):
        if value is not None:
            raise InvalidConfigError(f"{path} must be null, got {value!r}")
        return None
    if kind == SyntheticSource:
        tag = value.get("source") if isinstance(value, dict) else None
        if not isinstance(tag, str) or tag not in SOURCES:
            raise InvalidConfigError(f"{path}.source must be {' or '.join(SOURCES)}")
        return _decode(SOURCES[tag], {k: v for k, v in value.items() if k != "source"}, path)
    if get_origin(kind) is Union:  # Optional[X]
        return None if value is None else _decode(get_args(kind)[0], value, path)
    if get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise InvalidConfigError(f"{path} must be a list, got {value!r}")
        return tuple(_decode(get_args(kind)[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if not is_dataclass(kind):
        return _typed(value, kind, path)
    where = path or "config"
    if not isinstance(value, dict):
        raise InvalidConfigError(f"{where} must be an object")
    unknown = sorted(set(value) - {f.name for f in fields(kind)})
    if unknown:
        raise InvalidConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    hints = get_type_hints(kind)
    kwargs = {}
    for f in fields(kind):
        key = f"{path}.{f.name}" if path else f.name
        if f.name in value:
            kwargs[f.name] = _decode(hints[f.name], value[f.name], key)
        elif f.default is MISSING:
            raise InvalidConfigError(f"{key} is required")
    try:
        return kind(**kwargs)
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"{where}: {exc}") from exc


def _encode(value):
    if is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in fields(value))
        out = {name: _encode(v) for name, v in items}
        tag = _SOURCE_TAGS.get(type(value))
        return out if tag is None else {"source": tag, **out}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def parse_config(obj: dict) -> ExperimentConfig:
    return _decode(ExperimentConfig, obj, "")


def load_config(path) -> tuple[ExperimentConfig, str]:
    """Parse a config file; also returns the raw text for the echo file."""
    try:
        text = read_text(path)
        obj = json.loads(text)
    except ValueError as exc:  # a UnicodeDecodeError too: JSON text is UTF-8
        raise InvalidConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(obj), text


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return _encode(cfg)

