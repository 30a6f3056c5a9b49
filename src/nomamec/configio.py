"""JSON scenario configs: schema mirroring ScenarioConfig in snake_case.

All dB-milliwatt quantities carry a ``_dbm`` suffix; everything else is
SI with the unit in the field name. Validation errors name the full
field path so a bad file is diagnosable from the message alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass
from typing import Any, Optional

from .model import ScenarioConfig, ServerSpec, UsageError, UserSpec

__all__ = ["ConfigError", "LoadedScenario", "load_config", "config_to_dict"]

# JSON key -> (dataclass field, exclusive minimum) for the numbers of each
# JSON object. A key whose field has a dataclass default may be left out
# and then takes that default; any key not listed is an error.
_SCENARIO_FIELDS = {
    "bandwidth_hz": ("bandwidth", 0.0),
    "noise_density_dbm": ("noise_density_dbm", None),
    "p_max_w": ("p_max", 0.0),
    "e_max_j": ("e_max", 0.0),
    "path_loss_exp": ("path_loss_exp", 0.0),
    "cell_radius_m": ("cell_radius", 0.0),
}
_USER_FIELDS = {
    "task_bits": ("task_bits", 0.0),
    "cycles_per_bit": ("cycles_per_bit", 0.0),
    "cpu_freq_hz": ("cpu_freq", 0.0),
    "kappa": ("kappa", 0.0),
    "distance_m": ("distance", None),
}
_SERVER_FIELDS = {
    "cycles_per_bit": ("cycles_per_bit", 0.0),
    "cpu_freq_hz": ("cpu_freq", 0.0),
    "kappa": ("kappa", 0.0),
}
_TOP_LEVEL_KEYS = {*_SCENARIO_FIELDS, "master_seed", "users", "server"}


class ConfigError(ValueError):
    """Bad scenario file; message carries the offending field path."""


@dataclass(frozen=True)
class LoadedScenario:
    config: ScenarioConfig
    master_seed: int = 0


def _number(val: Any, name: str, minimum: Optional[float]) -> float:
    """val as a finite float above minimum (when given); name is its field path."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"{name}: expected a number, got {type(val).__name__}")
    try:
        out = float(val)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{name}: must be finite, got {val}")
    if minimum is not None and out <= minimum:
        raise ConfigError(f"{name}: must be > {minimum}")
    return out


def _check_keys(obj: dict, known, path: str) -> None:
    for key in obj:
        if key not in known:
            raise ConfigError(f"{path}{key}: unknown field")


def _numbers(obj: dict, cls: type, table: dict, path: str) -> dict:
    """cls's keyword arguments for the table's keys present in obj."""
    out = {}
    for key, (name, minimum) in table.items():
        if key in obj:
            out[name] = _number(obj[key], path + key, minimum)
        elif cls.__dataclass_fields__[name].default is MISSING:
            raise ConfigError(f"{path}{key}: missing required field")
    return out


def _build(obj: Any, cls: type, table: dict, path: str):
    """cls from the JSON object at path, which holds only the table's keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    _check_keys(obj, table, path + ".")
    return cls(**_numbers(obj, cls, table, path + "."))


def _seed(val: Any) -> int:
    if isinstance(val, float) and val.is_integer():
        val = int(val)
    if not isinstance(val, int) or isinstance(val, bool) or val < 0:
        raise ConfigError(f"master_seed: expected an integer >= 0, got {val!r}")
    return val


def load_config(path: str) -> LoadedScenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    _check_keys(raw, _TOP_LEVEL_KEYS, "")

    if "users" not in raw:
        raise ConfigError("users: missing required field")
    users_raw = raw["users"]
    if not isinstance(users_raw, list) or not users_raw:
        raise ConfigError("users: expected a nonempty list")
    users = []
    for i, u in enumerate(users_raw):
        try:
            users.append(_build(u, UserSpec, _USER_FIELDS, f"users[{i}]"))
        except UsageError as exc:
            raise ConfigError(f"users[{i}]: {exc}") from exc

    server = None
    if raw.get("server") is not None:
        server = _build(raw["server"], ServerSpec, _SERVER_FIELDS, "server")

    config = ScenarioConfig(
        users=tuple(users), server=server, **_numbers(raw, ScenarioConfig, _SCENARIO_FIELDS, "")
    )
    if "master_seed" not in raw:
        return LoadedScenario(config)
    return LoadedScenario(config, _seed(raw["master_seed"]))


def _dump(obj: Any, table: dict) -> dict:
    return {key: getattr(obj, name) for key, (name, _) in table.items()}


def config_to_dict(config: ScenarioConfig, master_seed: int) -> dict:
    """Snapshot for run manifests; loading it back reproduces the scenario."""
    out = _dump(config, _SCENARIO_FIELDS)
    out["master_seed"] = master_seed
    out["users"] = [_dump(u, _USER_FIELDS) for u in config.users]
    if config.server is not None:
        out["server"] = _dump(config.server, _SERVER_FIELDS)
    return out
