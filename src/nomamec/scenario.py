"""Reproducible random scenarios: placement, Rayleigh fading, path loss.

Randomness is numpy's counter-based Philox stream keyed by a
SeedSequence over (master seed, trial index[, point index], user index),
computed in pure Python by nomamec._philox with the same bits numpy
gives. Every realization is a pure function of those integers, and
independent trials can be generated in parallel in any order. The
draws, the path loss math.pow(d, alpha) and the float arithmetic after
them depend on Python and the platform's libm alone, not on numpy or
the host's SIMD code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ._philox import Stream
from .model import (
    ChannelRealization,
    ScenarioConfig,
    UsageError,
    _path_loss_fields,
    _with_users,
    dbm_per_hz_to_watts,
)

__all__ = [
    "Seed",
    "RNG_SCHEME",
    "dbm_per_hz_to_watts",
    "gains_from_draws",
    "generate_channels",
    "reorder_users",
]

# recorded in run manifests; it names numpy's stream, which _philox computes.
# The draws and the gains depend on Python and the platform's libm alone
RNG_SCHEME = "philox4x64 / seedseq(master_seed, trial[, point][, user])"


@dataclass(frozen=True)
class Seed:
    """Addresses one Monte-Carlo draw."""

    master: int
    trial: int = 0


def gains_from_draws(distances, fading_power, config: ScenarioConfig) -> list[float]:
    """Noise-normalized gains |g|^2 (1 + d^alpha)^-1 / sigma^2, unsorted.

    distances and fading_power are equal-length sequences of floats.
    d^alpha is math.pow, and everything else is float arithmetic. The
    power cannot overflow: a distance is a configured one or at most
    cell_radius, and ScenarioConfig rejects either power past the float
    range, computed with math.pow. A noise power so small that a gain
    overflows is a UsageError naming noise_density_dbm and bandwidth, and
    a gain that comes out 0 one naming the user's distance_m (or
    cell_radius_m) and path_loss_exp; whether either happens depends on
    the draw.
    """
    sigma2 = dbm_per_hz_to_watts(config.noise_density_dbm, config.bandwidth)
    alpha = config.path_loss_exp
    path = [math.pow(d, alpha) for d in distances]
    # sigma2 > 0, so an overflowing quotient is inf, never an exception
    gains = [f / ((1.0 + d) * sigma2) for d, f in zip(path, fading_power)]
    if not all(0.0 < g < math.inf for g in gains):
        for i, g in enumerate(gains):
            if g == 0.0:
                raise UsageError(
                    f"{_path_loss_fields(config, i)}: the channel gain of user {i} is 0 "
                    f"(path loss d^alpha = {path[i]!r} at d = {distances[i]!r} m)"
                )
        raise UsageError(
            f"noise_density_dbm and bandwidth: the noise power N0 B = {sigma2!r} W "
            f"({config.noise_density_dbm!r} dBm/Hz over {config.bandwidth!r} Hz) is so "
            f"small that a channel gain overflows"
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

    Distances, fading and the stable sort are float operations, each the
    IEEE operation an array expression would perform per element, so the
    gains equal the array formula (math.pow for d^alpha) bit for bit.
    """
    draws = {} if streams is None else streams
    radius = config.cell_radius
    distances = []
    fading_power = []
    for i, usr in enumerate(config.users):
        key = (seed, point, i)
        draw = draws.get(key)
        if draw is None:
            stream = Stream(seed.master, (seed.trial, i) if point is None
                            else (seed.trial, point, i))
            draw = draws[key] = (stream.random(), stream.standard_normal(),
                                 stream.standard_normal())
        u, re, im = draw
        # a drawn distance is uniform in (0, R]
        distances.append(usr.distance if usr.distance > 0.0 else radius * (1.0 - u))
        fading_power.append(0.5 * (re * re + im * im))
    gains = gains_from_draws(distances, fading_power, config)
    order = sorted(range(len(gains)), key=gains.__getitem__)
    return ChannelRealization(gains=tuple(gains[i] for i in order), sic_order=tuple(order))


def reorder_users(config: ScenarioConfig, realization: ChannelRealization) -> ScenarioConfig:
    """Config whose user list is aligned with the sorted gains.

    Each user keeps its own task parameters; only the decode position
    changes. An identity order returns config itself; any other a copy
    holding the same, already checked users (model._with_users).
    """
    order = realization.sic_order
    if order == tuple(range(len(config.users))):
        return config
    return _with_users(config, tuple(config.users[i] for i in order))
