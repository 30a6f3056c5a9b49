"""Reproducible random scenarios: placement, Rayleigh fading, path loss.

Randomness comes from numpy's counter-based Philox generator keyed by a
SeedSequence over (master seed, trial index[, point index]), so every
realization is a pure function of those integers and independent trials
can be generated in parallel in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import ChannelRealization, ScenarioConfig, UsageError, dbm_per_hz_to_watts

__all__ = [
    "Seed",
    "RNG_SCHEME",
    "rng_for",
    "dbm_per_hz_to_watts",
    "gains_from_draws",
    "generate_channels",
    "reorder_users",
]

# recorded in run manifests so outputs are reproducible across machines
RNG_SCHEME = "philox4x64 / seedseq(master_seed, trial[, point][, user])"


@dataclass(frozen=True)
class Seed:
    """Addresses one Monte-Carlo draw."""

    master: int
    trial: int = 0


def rng_for(seed: Seed, point: Optional[int] = None, user: Optional[int] = None) -> np.random.Generator:
    key: tuple[int, ...] = (seed.trial,)
    if point is not None:
        key = key + (point,)
    if user is not None:
        key = key + (user,)
    ss = np.random.SeedSequence(entropy=seed.master, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def gains_from_draws(
    distances: np.ndarray, fading_power: np.ndarray, config: ScenarioConfig
) -> np.ndarray:
    """Noise-normalized gains |g|^2 (1 + d^alpha)^-1 / sigma^2, unsorted.

    A noise power so small that a gain overflows is a UsageError naming
    noise_density_dbm; whether one does depends on the draw.
    """
    sigma2 = dbm_per_hz_to_watts(config.noise_density_dbm, config.bandwidth)
    path = 1.0 + np.asarray(distances, dtype=float) ** config.path_loss_exp
    with np.errstate(over="ignore"):
        gains = np.asarray(fading_power, dtype=float) / (path * sigma2)
    if not np.isfinite(gains).all():
        raise UsageError(
            f"noise_density_dbm: the noise power N0 B = {sigma2!r} W is so small that a "
            f"channel gain overflows ({config.noise_density_dbm!r} dBm/Hz)"
        )
    return gains


def generate_channels(
    seed: Seed,
    config: ScenarioConfig,
    point: Optional[int] = None,
    *,
    streams: Optional[dict] = None,
) -> ChannelRealization:
    """One fading draw for every user, sorted into decode order.

    Users with a positive configured distance keep it; the rest are
    placed uniformly in (0, cell_radius]. Fading is unit-mean Rayleigh
    power: |g|^2 with g circularly-symmetric complex normal. Each user
    draws from its own seed substream, so the first k users of an
    (k+1)-user scenario see exactly the channels of the k-user one;
    user-count sweeps are therefore coupled across counts.

    ``streams`` is a dict the caller keeps across calls: each user's draw
    is stored there under (seed, point, user) and read back instead of
    drawn again, so a user-count sweep draws each stream once.
    """
    n = config.num_users
    draws = {} if streams is None else streams
    u = np.empty(n)
    re = np.empty(n)
    im = np.empty(n)
    for i in range(n):
        key = (seed, point, i)
        if key not in draws:
            rng = rng_for(seed, point, user=i)
            draws[key] = (rng.random(), rng.standard_normal(), rng.standard_normal())
        u[i], re[i], im[i] = draws[key]
    drawn = config.cell_radius * (1.0 - u)  # uniform in (0, R]
    fixed = np.array([usr.distance for usr in config.users])
    distances = np.where(fixed > 0.0, fixed, drawn)
    fading_power = 0.5 * (re**2 + im**2)
    gains = gains_from_draws(distances, fading_power, config)
    order = np.argsort(gains, kind="stable")
    return ChannelRealization(
        gains=tuple(gains[order]), sic_order=tuple(int(i) for i in order)
    )


def reorder_users(config: ScenarioConfig, realization: ChannelRealization) -> ScenarioConfig:
    """Config whose user list is aligned with the sorted gains.

    Each user keeps its own task parameters; only the decode position
    changes.
    """
    users = tuple(config.users[i] for i in realization.sic_order)
    return replace(config, users=users)
