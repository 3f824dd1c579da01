"""Declarative experiment configuration: YAML files, defaults, strict checks.

A config file holds an optional ``preset`` name plus four optional blocks
(``model``, ``drive``, ``readouts``, ``tasks``) that refine the preset (or
the library defaults when no preset is given).  Unknown keys are fatal so a
typo can never silently change the physics.

``SCHEMA`` is the one description of the ``model``, ``drive`` and ``tasks``
blocks: per block the dataclass it builds and an ordered table of fields.
Parsing, key checks, defaults (the dataclass defaults) and the manifest's
``config`` blocks all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Any, Callable

import yaml

from .diagnostics import OtocSpec, TmiSpec
from .driver import DriveConfig
from .hamiltonian import IsingParams
from .pauli import OperatorLabelError, parse_operator_label


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


def _require_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _check_keys(block: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in {where!r} (allowed: {', '.join(allowed)})"
            )


def _unique(items: tuple, where: str, key: Callable = lambda x: x) -> tuple:
    seen = set()
    for item in items:
        if key(item) in seen:
            raise ConfigError(f"duplicate entry {key(item)!r} in {where}")
        seen.add(key(item))
    return items


def _as_int(value: Any, where: str, low: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{where} must be >= {low}, got {value}")
    return value


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true/false, got {value!r}")
    return value


def _as_int_list(value: Any, where: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list of integers, got {value!r}")
    return tuple(_as_int(x, where) for x in value)


def _as_int_set(value: Any, where: str) -> tuple[int, ...]:
    return _unique(_as_int_list(value, where), where)


def _as_entries(value: Any, where: str, keys: tuple[str, ...]) -> list[dict]:
    """A list of mappings, each with exactly ``keys``."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    for item in value:
        _check_keys(_require_mapping(item, f"{where} entry"), keys, f"{where} entry")
        if set(item) != set(keys):
            raise ConfigError(f"{where} entries need keys {', '.join(keys)}")
    return list(value)


def _as_otoc(value: Any, where: str) -> tuple[OtocSpec, ...]:
    entries = _as_entries(value, where, ("w", "v"))
    try:
        specs = tuple(OtocSpec.of(item["w"], item["v"]) for item in entries)
    except OperatorLabelError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return _unique(specs, where, OtocSpec.name)


def _as_tmi(value: Any, where: str) -> tuple[TmiSpec, ...]:
    entries = _as_entries(value, where, ("a", "b", "c"))
    subsets = [
        {k: _as_int_list(item[k], f"{where}.{k}") for k in "abc"} for item in entries
    ]
    try:
        specs = tuple(TmiSpec(**item) for item in subsets)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return _unique(specs, where, TmiSpec.name)


@dataclass(frozen=True)
class TaskSpec:
    """Post-processing requested for one run."""

    stm_delays: tuple[int, ...] = (0,)
    deviation: bool = False
    deviation_windows: int = 4000
    correlations: tuple[int, ...] = ()
    otoc: tuple[OtocSpec, ...] = ()
    tmi: tuple[TmiSpec, ...] = ()
    record: bool = False


# block -> (dataclass, fields); a field is (file key, dataclass attribute,
# coercion of the file value), in file and manifest order.
SCHEMA: dict[str, tuple[type, tuple]] = {
    "model": (IsingParams, (
        ("n", "n", _as_int),
        ("j", "j", _as_float),
        ("h_x", "h_x", _as_float),
        ("h_z", "h_z", _as_float),
    )),
    "drive": (DriveConfig, (
        ("t_in", "t_in", _as_float),
        ("n_grid", "n_grid", _as_int),
        ("washout", "n_washout", _as_int),
        ("train", "n_train", _as_int),
        ("test", "n_test", _as_int),
        ("seed", "seed", partial(_as_int, low=0)),
        ("tmi_cap", "tmi_cap", _as_int),
    )),
    "tasks": (TaskSpec, (
        ("stm_delays", "stm_delays", _as_int_set),
        ("deviation", "deviation", _as_bool),
        ("deviation_windows", "deviation_windows", partial(_as_int, low=1)),
        ("correlations", "correlations", _as_int_set),
        ("otoc", "otoc", _as_otoc),
        ("tmi", "tmi", _as_tmi),
        ("record", "record", _as_bool),
    )),
}


def _values(name: str, block: Any) -> dict:
    """A file block -> its coerced dataclass attributes, each key checked."""
    block = _require_mapping(block, name)
    table = SCHEMA[name][1]
    _check_keys(block, tuple(key for key, _, _ in table), name)
    return {
        attr: coerce(block[key], f"{name}.{key}")
        for key, attr, coerce in table
        if key in block
    }


def _build(name: str, block: Any):
    """A file block -> its dataclass, defaults filling the absent keys."""
    values = _values(name, block)
    try:
        return SCHEMA[name][0](**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _dump(name: str, value: Any) -> dict:
    """A block's dataclass -> its file block, every key set."""
    return {key: _plain(getattr(value, attr)) for key, attr, _ in SCHEMA[name][1]}


def _plain(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_plain(x) for x in value]
    if isinstance(value, OtocSpec):
        return {"w": value.w.label(), "v": value.v.label()}
    if isinstance(value, TmiSpec):
        return {k: list(getattr(value, k)) for k in "abc"}
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of a single drive plus its tasks."""

    model: IsingParams
    drive: DriveConfig
    readouts: tuple[str, ...]
    tasks: TaskSpec

    def blocks(self) -> dict:
        """The config as file blocks with every key set, as the manifest
        stores it; ``build_config`` of these blocks gives the config back."""
        return {
            name: _dump(name, value) if name in SCHEMA else _plain(value)
            for name, value in vars(self).items()
        }


@dataclass
class ConfigFile:
    """Validated but unresolved content of a config file."""

    preset: str | None = None
    out: str | None = None
    model: dict = field(default_factory=dict)
    drive: dict = field(default_factory=dict)
    readouts: list[str] | None = None
    tasks: dict = field(default_factory=dict)


def parse_config(path: str | Path) -> ConfigFile:
    """Load and strictly validate a config file (keys and value types)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"syntax error in {path}: {exc}") from exc
    raw = _require_mapping({} if raw is None else raw, str(path))
    _check_keys(raw, tuple(f.name for f in fields(ConfigFile)), str(path))

    for key in ("preset", "out"):
        if key in raw and not isinstance(raw[key], str):
            raise ConfigError(f"{key} must be a string")
    if "readouts" in raw and not (
        isinstance(raw["readouts"], list)
        and all(isinstance(x, str) for x in raw["readouts"])
    ):
        raise ConfigError("readouts must be a list of operator labels")
    for name in SCHEMA:
        _values(name, raw.get(name, {}))
    return ConfigFile(**raw)


def default_readouts(n: int) -> list[str]:
    return [f"z{i}" for i in range(1, n + 1)]


def build_config(
    model_block: dict,
    drive_block: dict,
    readouts: list[str] | None,
    tasks_block: dict,
) -> ExperimentConfig:
    """Construct and cross-validate a full single-run configuration."""
    model = _build("model", model_block)
    drive = _build("drive", drive_block)
    tasks = _build("tasks", tasks_block)
    if readouts is None:
        readouts = default_readouts(model.n)

    readouts = _unique(tuple(readouts), "readouts")
    try:
        operators = [parse_operator_label(label) for label in readouts]
    except OperatorLabelError as exc:
        raise ConfigError(f"readouts: {exc}") from exc
    for p in operators + [p for spec in tasks.otoc for p in (spec.w, spec.v)]:
        if p.terms and max(p.sites) > model.n:
            raise ConfigError(f"operator {p.label()!r} outside register 0..{model.n}")
    for d in tasks.stm_delays:
        if d < 0 or d > drive.n_washout:
            raise ConfigError(
                f"stm delay {d} outside [0, washout={drive.n_washout}]"
            )
    for q in tasks.correlations:
        if not 1 <= q <= model.n:
            raise ConfigError(f"correlation qubit {q} outside chain 1..{model.n}")
    for spec in tasks.tmi:
        top = max(spec.a + spec.b + spec.c)
        if top > model.n:
            raise ConfigError(f"tmi subset qubit {top} outside register 0..{model.n}")
    if tasks.deviation:
        missing = [lab for lab in default_readouts(model.n) if lab not in readouts]
        if missing:
            raise ConfigError(
                f"deviation needs single-site z readouts on every chain qubit; "
                f"missing {missing}"
            )
        if 0 not in tasks.stm_delays:
            raise ConfigError("deviation needs delay 0 in tasks.stm_delays")
        want = tuple(range(1, model.n + 1))
        if tuple(sorted(tasks.correlations)) != want:
            raise ConfigError(
                f"deviation needs tasks.correlations = {list(want)}"
            )
    return ExperimentConfig(model=model, drive=drive, readouts=readouts, tasks=tasks)
