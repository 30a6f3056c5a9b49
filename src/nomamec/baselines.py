"""Comparison schemes: OFDMA partial offloading, full offload, full local.

The OFDMA model divides the band into M resource blocks of width B/M.
A scheme may use rb_count of them; its users spread equally over the
used blocks and split each block evenly, so every user transmits in a
clean slice of width rb_count * B / M^2 with noise scaled to the slice.
Per-user subproblems are then independent single-user instances of the
partial-offloading solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import (
    Allocation,
    ChannelRealization,
    ScenarioConfig,
    UsageError,
    sum_rate,
)
from .solver import InfeasibleScenarioError, bss_solve, init_bounds
# unused here since bss_solve decides each full-offload bracket top; kept
# because bench/tracing.py patches nomamec.baselines.check_feasibility
from .solver import check_feasibility  # noqa: F401

__all__ = [
    "SchemeResult",
    "check_circuit_power",
    "metrics",
    "solve_noma_partial",
    "solve_noma_full_offload",
    "solve_ofdma_partial",
    "full_local_delay",
]

DEFAULT_CIRCUIT_POWER = 0.1  # W, constant circuit draw used by energy efficiency


@dataclass(frozen=True)
class SchemeResult:
    scheme: str
    delay: float
    sum_rate: float  # bits/s
    total_power: float  # W radiated
    energy_efficiency: float  # bits/J, includes circuit power
    power_efficiency: float  # bits/J over radiated power only; nan at zero power
    allocation: Allocation
    iterations: int = 0
    case_label: str = ""


def check_circuit_power(p_circuit: float) -> None:
    """Reject a circuit power that is negative or not finite."""
    if not (math.isfinite(p_circuit) and p_circuit >= 0):
        raise UsageError(f"p_circuit must be finite and >= 0, got {p_circuit!r}")


def _efficiencies(rate: float, total_p: float, p_circuit: float) -> tuple[float, float]:
    """(energy efficiency, power efficiency) of a sum rate at a radiated power."""
    check_circuit_power(p_circuit)
    ee = rate / (total_p + p_circuit) if total_p + p_circuit > 0 else 0.0
    pe = rate / total_p if total_p > 0 else math.nan
    return ee, pe


def metrics(
    alloc: Allocation,
    gains,
    config: ScenarioConfig,
    p_circuit: float = DEFAULT_CIRCUIT_POWER,
) -> tuple[float, float, float]:
    """(sum rate, energy efficiency, power efficiency) of an allocation.

    Power efficiency is rate per radiated watt and is nan when nothing
    is transmitted.
    """
    rate = sum_rate(gains, alloc.powers, config.bandwidth, config.num_users)
    return (rate, *_efficiencies(rate, float(sum(alloc.powers)), p_circuit))


def _as_result(
    scheme: str,
    delay: float,
    alloc: Allocation,
    gains,
    config: ScenarioConfig,
    p_circuit: float,
    iterations: int,
    case_label: str = "",
) -> SchemeResult:
    rate, ee, pe = metrics(alloc, gains, config, p_circuit)
    return SchemeResult(
        scheme=scheme,
        delay=delay,
        sum_rate=rate,
        total_power=float(sum(alloc.powers)),
        energy_efficiency=ee,
        power_efficiency=pe,
        allocation=alloc,
        iterations=iterations,
        case_label=case_label,
    )


def solve_noma_partial(
    gains,
    config: ScenarioConfig,
    eps: float = 1e-4,
    eps_feas: float = 1e-8,
    p_circuit: float = DEFAULT_CIRCUIT_POWER,
) -> SchemeResult:
    """Joint partition and power optimization over the shared band."""
    res = bss_solve(gains, config, eps=eps, eps_feas=eps_feas)
    return _as_result(
        "noma-partial", res.optimal_delay, res.allocation, gains, config, p_circuit,
        res.iterations,
    )


def solve_noma_full_offload(
    gains,
    config: ScenarioConfig,
    eps: float = 1e-4,
    eps_feas: float = 1e-8,
    p_circuit: float = DEFAULT_CIRCUIT_POWER,
) -> SchemeResult:
    """Every task fully offloaded; only powers are optimized.

    The local-compute delay bound is meaningless here, so the bracket
    top doubles until bss_solve finds the pinned-ratio problem feasible
    there.
    """
    ones = (1.0,) * config.num_users
    _, hi = init_bounds(config)
    for _ in range(60):
        try:
            res = bss_solve(
                gains, config, eps=eps, eps_feas=eps_feas, fixed_betas=ones, alpha_max=hi
            )
            break
        except InfeasibleScenarioError:
            hi *= 2.0  # bss_solve found its bracket top infeasible
    else:
        raise InfeasibleScenarioError(
            "full offloading infeasible at any delay: the energy budget cannot "
            "carry the whole task through the channel"
        )
    return _as_result(
        "noma-full", res.optimal_delay, res.allocation, gains, config, p_circuit,
        res.iterations,
    )


def solve_ofdma_partial(
    gains,
    config: ScenarioConfig,
    rb_count: int,
    eps: float = 1e-4,
    eps_feas: float = 1e-8,
    p_circuit: float = DEFAULT_CIRCUIT_POWER,
) -> SchemeResult:
    """Orthogonal baseline: each user solved alone on its band share.

    rb_count must be 1 (all users squeezed into one block) or M (one
    block each). Metrics use the orthogonal-band rate of each user's
    slice rather than the shared-band formula. Each user's ratio and
    power are the exact oracle's minimum-energy allocation at its
    reported delay plus eps, so the rate, power and efficiency figures
    describe that point.
    """
    check_circuit_power(p_circuit)
    g = gains.gains if isinstance(gains, ChannelRealization) else tuple(gains)
    m = config.num_users
    if rb_count not in (1, m):
        raise UsageError(f"rb_count must be 1 or the user count {m}")
    share = rb_count * config.bandwidth / (m * m)
    scale = config.bandwidth / share  # noise shrinks with the slice

    betas = []
    powers = []
    delay = 0.0
    iters = 0
    rate_total = 0.0
    for i in range(m):
        sub = replace(config, bandwidth=share, users=(config.users[i],), server=None)
        sub_gain = ChannelRealization(gains=(g[i] * scale,))
        res = bss_solve(sub_gain, sub, eps=eps, eps_feas=eps_feas)
        betas.append(res.allocation.betas[0])
        powers.append(res.allocation.powers[0])
        delay = max(delay, res.optimal_delay)
        iters = max(iters, res.iterations)
        rate_total += share * math.log2(1.0 + g[i] * scale * powers[-1])

    alloc = Allocation(betas=tuple(betas), powers=tuple(powers))
    total_p = float(sum(powers))
    label = "ofdma-partial-1rb" if rb_count == 1 else "ofdma-partial-mrb"
    ee, pe = _efficiencies(rate_total, total_p, p_circuit)
    return SchemeResult(
        scheme=label,
        delay=delay,
        sum_rate=rate_total,
        total_power=total_p,
        energy_efficiency=ee,
        power_efficiency=pe,
        allocation=alloc,
        iterations=iters,
    )


def full_local_delay(config: ScenarioConfig, gains=None, p_circuit: float = DEFAULT_CIRCUIT_POWER) -> SchemeResult:
    """Everything computed on the devices; nothing transmitted."""
    check_circuit_power(p_circuit)
    for i, u in enumerate(config.users):
        if u.local_full_energy > config.e_max:
            raise InfeasibleScenarioError(
                f"user {i + 1} cannot compute its task locally within the "
                f"energy budget ({u.local_full_energy:.4g} J > {config.e_max:.4g} J)"
            )
    zeros = (0.0,) * config.num_users
    alloc = Allocation(betas=zeros, powers=zeros)
    delay = max(u.local_full_time for u in config.users)
    return SchemeResult(
        scheme="local",
        delay=delay,
        sum_rate=0.0,
        total_power=0.0,
        energy_efficiency=0.0,
        power_efficiency=math.nan,
        allocation=alloc,
    )
