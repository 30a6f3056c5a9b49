"""JSON scenario configs: schema mirroring ScenarioConfig in snake_case.

All dB-milliwatt quantities carry a ``_dbm`` suffix; everything else is
SI with the unit in the field name. Validation errors name the full
field path so a bad file is diagnosable from the message alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Optional

from .model import ScenarioConfig, ServerSpec, UsageError, UserSpec

__all__ = ["ConfigError", "LoadedScenario", "load_config", "config_to_dict"]


class ConfigError(ValueError):
    """Bad scenario file; message carries the offending field path."""


@dataclass(frozen=True)
class LoadedScenario:
    config: ScenarioConfig
    master_seed: int


def _need(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ConfigError(f"{path}{key}: missing required field")
    return obj[key]


def _number(
    obj: dict,
    key: str,
    path: str,
    minimum: Optional[float] = None,
    default: Optional[float] = None,
) -> float:
    """Finite float at obj[key]; a missing key takes default when one is given."""
    val = obj.get(key, default) if default is not None else _need(obj, key, path)
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"{path}{key}: expected a number, got {type(val).__name__}")
    try:
        out = float(val)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{path}{key}: must be finite, got {val}")
    if minimum is not None and out <= minimum:
        raise ConfigError(f"{path}{key}: must be > {minimum}")
    return out


def _seed(obj: dict) -> int:
    val = obj.get("master_seed", 0)
    if isinstance(val, float) and val.is_integer():
        val = int(val)
    if not isinstance(val, int) or isinstance(val, bool) or val < 0:
        raise ConfigError(f"master_seed: expected an integer >= 0, got {val!r}")
    return val


def _user_from(obj: Any, path: str) -> UserSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    return UserSpec(
        task_bits=_number(obj, "task_bits", path + ".", minimum=0.0),
        cycles_per_bit=_number(obj, "cycles_per_bit", path + ".", minimum=0.0),
        cpu_freq=_number(obj, "cpu_freq_hz", path + ".", minimum=0.0),
        kappa=_number(obj, "kappa", path + ".", minimum=0.0),
        distance=_number(obj, "distance_m", path + ".", default=0.0),
    )


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

    users_raw = _need(raw, "users", "")
    if not isinstance(users_raw, list) or not users_raw:
        raise ConfigError("users: expected a nonempty list")
    users = []
    for i, u in enumerate(users_raw):
        try:
            users.append(_user_from(u, f"users[{i}]"))
        except UsageError as exc:
            raise ConfigError(f"users[{i}]: {exc}") from exc

    server = None
    if raw.get("server") is not None:
        srv = raw["server"]
        if not isinstance(srv, dict):
            raise ConfigError("server: expected an object")
        server = ServerSpec(
            cycles_per_bit=_number(srv, "cycles_per_bit", "server.", minimum=0.0),
            cpu_freq=_number(srv, "cpu_freq_hz", "server.", minimum=0.0),
            kappa=_number(srv, "kappa", "server.", minimum=0.0),
        )

    config = ScenarioConfig(
        bandwidth=_number(raw, "bandwidth_hz", "", minimum=0.0),
        noise_density_dbm=_number(raw, "noise_density_dbm", ""),
        users=tuple(users),
        p_max=_number(raw, "p_max_w", "", minimum=0.0),
        e_max=_number(raw, "e_max_j", "", minimum=0.0),
        path_loss_exp=_number(raw, "path_loss_exp", "", minimum=0.0, default=3.76),
        cell_radius=_number(raw, "cell_radius_m", "", minimum=0.0, default=500.0),
        server=server,
    )
    return LoadedScenario(config=config, master_seed=_seed(raw))


def config_to_dict(config: ScenarioConfig, master_seed: int) -> dict:
    """Snapshot for run manifests; loading it back reproduces the scenario."""
    out = {
        "bandwidth_hz": config.bandwidth,
        "noise_density_dbm": config.noise_density_dbm,
        "p_max_w": config.p_max,
        "e_max_j": config.e_max,
        "path_loss_exp": config.path_loss_exp,
        "cell_radius_m": config.cell_radius,
        "master_seed": master_seed,
        "users": [
            {
                "task_bits": u.task_bits,
                "cycles_per_bit": u.cycles_per_bit,
                "cpu_freq_hz": u.cpu_freq,
                "kappa": u.kappa,
                "distance_m": u.distance,
            }
            for u in config.users
        ],
    }
    if config.server is not None:
        out["server"] = {
            "cycles_per_bit": config.server.cycles_per_bit,
            "cpu_freq_hz": config.server.cpu_freq,
            "kappa": config.server.kappa,
        }
    return out
