"""Comparison schemes: OFDMA partial offloading, full offload, full local.

The OFDMA model divides the band into M resource blocks of width B/M.
A scheme may use rb_count of them; its users spread equally over the
used blocks and split each block evenly, so every user transmits in a
clean slice of width rb_count * B / M^2 with noise scaled to the slice.
Without an edge server, per-user subproblems are then independent
single-user instances of the partial-offloading solver; a shared server
would couple them, so the OFDMA baselines reject a config with one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import (
    Allocation,
    ChannelRealization,
    ScenarioConfig,
    UsageError,
    _with_users,
    sum_rate,
)
from .solver import InfeasibleScenarioError, _gain_tuple, bss_solve
# unused here since bss_solve decides each full-offload bracket top; kept
# because bench/tracing.py patches nomamec.baselines.check_feasibility
from .solver import check_feasibility  # noqa: F401

__all__ = [
    "SchemeResult",
    "solve_noma_partial",
    "solve_noma_full_offload",
    "solve_ofdma_partial",
    "full_local_delay",
]


@dataclass(frozen=True)
class SchemeResult:
    """What a scheme solved: its delay, the sum rate of its allocation and the bisection steps.

    The sweep derives radiated power and efficiencies from these (cli.run_sweep).
    """

    delay: float
    sum_rate: float  # bits/s
    allocation: Allocation
    iterations: int = 0


def solve_noma_partial(gains, config: ScenarioConfig, eps: float = 1e-4) -> SchemeResult:
    """Joint partition and power optimization over the shared band."""
    res = bss_solve(gains, config, eps=eps)
    rate = sum_rate(gains, res.allocation.powers, config.bandwidth, config.num_users)
    return SchemeResult(res.optimal_delay, rate, res.allocation, res.iterations)


def solve_noma_full_offload(gains, config: ScenarioConfig, eps: float = 1e-4) -> SchemeResult:
    """Every task fully offloaded; only powers are optimized.

    bss_solve with every ratio pinned to 1, which doubles its bracket top
    from the fully-local time until the top is feasible and raises
    InfeasibleScenarioError when 60 tops are not.
    """
    ones = (1.0,) * config.num_users
    res = bss_solve(gains, config, eps=eps, fixed_betas=ones)
    rate = sum_rate(gains, res.allocation.powers, config.bandwidth, config.num_users)
    return SchemeResult(res.optimal_delay, rate, res.allocation, res.iterations)


def solve_ofdma_partial(
    gains, config: ScenarioConfig, rb_count: int, eps: float = 1e-4
) -> SchemeResult:
    """Orthogonal baseline: each user solved alone on its band share.

    rb_count must be 1 (all users squeezed into one block) or M (one
    block each). The sum rate adds the orthogonal-band rate of each
    user's slice rather than the shared-band formula. Each user's ratio
    and power are the exact oracle's minimum-energy allocation at its
    reported delay plus eps, so the rate describes that point. gains
    must be M finite, positive values, else UsageError. A server would
    couple the users, so a config with one raises UsageError.
    """
    if config.server is not None:
        raise UsageError("the OFDMA baseline has no server model; use a config without one")
    m = config.num_users
    g = _gain_tuple(gains, m)
    if rb_count not in (1, m):
        raise UsageError(f"rb_count must be 1 or the user count {m}")
    share = rb_count * config.bandwidth / (m * m)
    scale = config.bandwidth / share  # noise shrinks with the slice

    betas = []
    powers = []
    delay = 0.0
    iters = 0
    rate_total = 0.0
    band = replace(config, bandwidth=share)  # checks the slice's noise power once
    for i in range(m):
        sub = _with_users(band, (config.users[i],))
        sub_gain = ChannelRealization(gains=(g[i] * scale,))
        res = bss_solve(sub_gain, sub, eps=eps)
        betas.append(res.allocation.betas[0])
        powers.append(res.allocation.powers[0])
        delay = max(delay, res.optimal_delay)
        iters = max(iters, res.iterations)
        rate_total += share * math.log2(1.0 + g[i] * scale * powers[-1])

    alloc = Allocation(betas=tuple(betas), powers=tuple(powers))
    return SchemeResult(delay, rate_total, alloc, iters)


def full_local_delay(config: ScenarioConfig) -> SchemeResult:
    """Everything computed on the devices; nothing transmitted."""
    for i, u in enumerate(config.users):
        if u.local_full_energy > config.e_max:
            raise InfeasibleScenarioError(
                f"user {i + 1} cannot compute its task locally within the "
                f"energy budget ({u.local_full_energy:.4g} J > {config.e_max:.4g} J)"
            )
    zeros = (0.0,) * config.num_users
    delay = max(u.local_full_time for u in config.users)
    return SchemeResult(delay, 0.0, Allocation(betas=zeros, powers=zeros))
