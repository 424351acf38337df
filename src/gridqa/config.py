"""Generation configuration.

Config files are flat key-value text: one `key = value` pair per line.
A `#` at the start of a line or after whitespace starts a comment, so
a value such as `a#b.txt` stays whole. Keys mirror the GenConfig field
names. Unknown keys are rejected so typos surface early.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path


class ConfigError(ValueError):
    """Invalid configuration value or file."""


@dataclass(frozen=True)
class GenConfig:
    """All difficulty and distribution knobs for dataset generation.

    The defaults reproduce the standard experimental setup: a 15x15x15
    world with 4 NPCs plus a player, 50 world steps observed at two
    snapshots.
    """

    world_size: int = 15
    n_npcs: int = 4
    n_blocks_min: int = 1
    n_blocks_max: int = 3
    world_steps: int = 50
    n_snapshots: int = 2
    weight_property: float = 1.0
    weight_temporal: float = 1.0
    weight_geometric: float = 1.0
    two_clause_prob: float = 0.3
    negation_prob: float = 0.2
    command_prob: float = 0.5
    n_samples: int = 1000
    seed: int = 0
    split_train: float = 0.8
    split_valid: float = 0.1
    split_test: float = 0.1
    out_dir: str = "dataset"
    names_file: str | None = None
    npc_types_file: str | None = None
    colors_file: str | None = None
    query_attempts: int = 200
    scene_retries: int = 50

    @classmethod
    def properties_mode(cls) -> "GenConfig":
        """Single-snapshot, zero-step setup for property-only queries."""
        return cls(
            world_steps=0,
            n_snapshots=1,
            weight_property=1.0,
            weight_temporal=0.0,
            weight_geometric=0.0,
            command_prob=0.0,
        )

    @property
    def class_weights(self) -> dict[str, float]:
        return {
            "property": self.weight_property,
            "temporal": self.weight_temporal,
            "geometric": self.weight_geometric,
        }

    def validate(self) -> None:
        """Raise ConfigError naming the offending field."""
        for name, ftype in _FIELD_TYPES.items():
            if ftype == "float" and not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name}: must be a finite number")
        if not -(2**63) <= self.seed < 2**63:
            raise ConfigError("seed: must fit in a signed 64-bit integer")
        if self.world_size < 4:
            raise ConfigError("world_size: must be >= 4")
        if self.n_npcs < 0:
            raise ConfigError("n_npcs: must be >= 0")
        if not 0 <= self.n_blocks_min <= self.n_blocks_max:
            raise ConfigError("n_blocks_min/n_blocks_max: need 0 <= min <= max")
        if self.world_steps < 0:
            raise ConfigError("world_steps: must be >= 0")
        if self.n_snapshots < 1:
            raise ConfigError("n_snapshots: must be >= 1")
        if self.n_snapshots > self.world_steps + 1:
            raise ConfigError("n_snapshots: cannot exceed world_steps + 1")
        weights = self.class_weights
        if any(w < 0 for w in weights.values()):
            raise ConfigError("query class weights must be >= 0")
        if all(w == 0 for w in weights.values()):
            raise ConfigError("query class weights must not all be zero")
        if self.weight_temporal > 0 and self.n_snapshots < 2:
            raise ConfigError("weight_temporal: temporal queries need n_snapshots >= 2")
        if self.world_steps > 0 and self.n_snapshots < 2:
            # one snapshot is taken before any step, so no step would run
            raise ConfigError("world_steps: must be 0 with a single snapshot")
        for name in ("two_clause_prob", "negation_prob", "command_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name}: must be in [0, 1]")
        if self.n_samples < 0:
            raise ConfigError("n_samples: must be >= 0")
        splits = (self.split_train, self.split_valid, self.split_test)
        if any(s < 0 for s in splits):
            raise ConfigError("split fractions must be >= 0")
        if abs(sum(splits) - 1.0) > 1e-9:
            raise ConfigError("split_train + split_valid + split_test must sum to 1")
        if self.query_attempts < 1:
            raise ConfigError("query_attempts: must be >= 1")
        if self.scene_retries < 1:
            raise ConfigError("scene_retries: must be >= 1")
        # config.cfg must load back to this config, or it would regenerate something else;
        # checked last, so a value refused above (nan != nan, for one) keeps its message
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                same = getattr(parse_config_text(f"{f.name} = {_render(value)}"), f.name) == value
            except ConfigError:
                same = False
            if not same:
                raise ConfigError(f"{f.name}: {value!r} does not read back from a config file")

    def digest(self) -> str:
        """Stable hash of the fields that decide a record's content.

        Where the run writes, how many samples it makes and how it splits
        them leave each record unchanged, so they stay out. Pool files
        enter by content, not by path, and a number as config.cfg reads it
        back, so 0 and 0.0 digest alike.
        """
        lines = []
        for f in fields(self):
            if f.name in _RECORD_INDEPENDENT:
                continue
            value = getattr(self, f.name)
            if f.name in _POOL_FILES and value is not None:
                value = hashlib.sha256(Path(value).read_bytes()).hexdigest()
            elif f.type == "float":
                value = float(value)
            lines.append(f"{f.name}={value!r}")
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]

    def canonical_text(self) -> str:
        return "\n".join(f"{f.name} = {_render(getattr(self, f.name))}" for f in fields(self))


_RECORD_INDEPENDENT = frozenset(
    {"n_samples", "out_dir", "split_train", "split_valid", "split_test"}
)
_POOL_FILES = ("names_file", "npc_types_file", "colors_file")


def _render(value) -> str:
    if value is None:
        return ""
    return str(value)


_FIELD_TYPES = {f.name: f.type for f in fields(GenConfig)}


def _parse_value(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    if ftype == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if ftype == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if ftype == "str | None":
        return str(Path(raw)) if raw else None
    return raw


def _read_pair(pair: str, where: str) -> tuple[str, object]:
    """The key and parsed value of a `key = value` string, split on the first
    `=`; a ConfigError message starts with where."""
    if "=" not in pair:
        raise ConfigError(f"{where}: expected 'key = value', got {pair!r}")
    key, raw = (part.strip() for part in pair.split("=", 1))
    if key not in _FIELD_TYPES:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, _parse_value(key, raw)


_COMMENT_RE = re.compile(r"(?:^|\s)#")


def parse_config_text(text: str) -> GenConfig:
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT_RE.split(line, 1)[0].strip()
        if stripped:
            key, value = _read_pair(stripped, f"line {lineno}")
            updates[key] = value
    return GenConfig(**updates)


def load_config(path: str | Path) -> GenConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def apply_overrides(config: GenConfig, pairs: list[str]) -> GenConfig:
    """Apply `key=value` strings (CLI flags) on top of a config."""
    return replace(config, **dict(_read_pair(pair, "override") for pair in pairs))
