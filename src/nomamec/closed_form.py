"""Analytic two-user solution: water-level powers, KKT cases, ratio recovery.

With two users sharing the band, the common-delay problem reduces to two
power variables: the delay is a1 / (b1 + R(p1, p2)) with a1 the total
bits, b1 the combined local throughput and R the aggregate uplink rate.
Each user's energy budget caps its power through a transcendental "water
level" solved by the Lambert W function. The optimizer enumerates the
four candidate solutions (both powers at the cap, one energy budget
tight, the other tight, both tight), filters them by primal feasibility,
and keeps the smallest delay.

A returned solution always realizes its reported delay: every user's
local share finishes exactly at the common window and the offloaded bits
fit the successive-decoding rate region over that window. When no
candidate is primal feasible the equal-time structure is unattainable
and EqualTimeInfeasible tells the caller to fall back to the bisection
solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .lambertw import lambert_wm1
from .model import (
    ChannelRealization,
    ScenarioConfig,
    UsageError,
)

__all__ = [
    "TwoUserParams",
    "TwoUserSolution",
    "EqualTimeInfeasible",
    "p1_water",
    "p2_water",
    "solve_two_user",
]

_LN2 = math.log(2.0)
_EXP_UNDERFLOW = -700.0  # exp() underflows to 0 below this


class EqualTimeInfeasible(RuntimeError):
    """No KKT candidate is primal feasible; use the bisection solver."""


@dataclass(frozen=True)
class TwoUserParams:
    """Scenario constants for the two-user reduction.

    a1 is the total task size in bits, b1 the summed local throughput
    f/C in bits per second. gamma1 <= gamma2 (decode order).
    """

    a1: float
    b1: float
    gamma1: float
    gamma2: float
    kappa1: float
    kappa2: float
    f1: float
    f2: float
    bandwidth: float
    p_max: float
    e_max: float
    task_bits1: float
    task_bits2: float
    cycles1: float
    cycles2: float

    def __post_init__(self):
        if self.gamma1 > self.gamma2:
            raise UsageError("gamma1 must not exceed gamma2 (ascending SIC order)")
        for name in ("a1", "b1", "gamma1", "bandwidth", "p_max", "e_max"):
            if getattr(self, name) <= 0:
                raise UsageError(f"{name} must be strictly positive")

    @classmethod
    def from_scenario(cls, gains, config: ScenarioConfig) -> "TwoUserParams":
        g = gains.gains if isinstance(gains, ChannelRealization) else tuple(gains)
        if len(g) != 2 or len(config.users) != 2:
            raise UsageError("the closed form needs exactly two users")
        u1, u2 = config.users
        return cls(
            a1=u1.task_bits + u2.task_bits,
            b1=u1.cpu_freq / u1.cycles_per_bit + u2.cpu_freq / u2.cycles_per_bit,
            gamma1=g[0],
            gamma2=g[1],
            kappa1=u1.kappa,
            kappa2=u2.kappa,
            f1=u1.cpu_freq,
            f2=u2.cpu_freq,
            bandwidth=config.bandwidth,
            p_max=config.p_max,
            e_max=config.e_max,
            task_bits1=u1.task_bits,
            task_bits2=u2.task_bits,
            cycles1=u1.cycles_per_bit,
            cycles2=u2.cycles_per_bit,
        )

    def rate(self, p1: float, p2: float) -> float:
        return self.bandwidth * math.log2(1.0 + self.gamma1 * p1 + self.gamma2 * p2)


@dataclass(frozen=True)
class TwoUserSolution:
    p1: float
    p2: float
    beta1: float
    beta2: float
    delay: float
    case_label: str


def _water_level(
    kappa_f3: float, gain_eff: float, interference: float, params: TwoUserParams
) -> Optional[float]:
    """Largest effective power keeping one energy budget within limit.

    Solves kappa*a1*f^3 + a1*p = e_max*(b1 + B*log2(1 + gain_eff*p +
    interference)) for the upper root, the one past which the budget is
    exceeded. Returns +inf when the budget can never go tight at any
    attainable power (huge e_max) and None when it is violated for every
    power level.
    """
    big_a = kappa_f3 * params.a1 / (params.e_max * params.bandwidth) - params.b1 / params.bandwidth
    big_b = params.a1 / (params.e_max * params.bandwidth)
    c = big_b * _LN2 / gain_eff
    k = big_a * _LN2 - c * (1.0 + interference)
    log_arg = math.log(c) + k
    if log_arg > -1.0:
        return None  # line sits above the log curve everywhere: always violated
    if log_arg < _EXP_UNDERFLOW:
        return math.inf
    w = lambert_wm1(-math.exp(log_arg))
    u = -w / c
    level = (u - 1.0 - interference) / gain_eff
    if level > 1e12 * params.p_max:
        return math.inf  # beyond any attainable power: effectively never tight
    return level


def p1_water(p2: float, params: TwoUserParams) -> Optional[float]:
    """Power making user 1's energy budget tight given user 2's power.

    None signals that no tight solution exists (the budget is violated
    at every p1); +inf that the budget never binds.
    """
    kf3 = params.kappa1 * params.f1**3
    return _water_level(kf3, params.gamma1, params.gamma2 * p2, params)


def p2_water(p1: float, params: TwoUserParams) -> Optional[float]:
    """Power making user 2's energy budget tight given user 1's power."""
    kf3 = params.kappa2 * params.f2**3
    return _water_level(kf3, params.gamma2, params.gamma1 * p1, params)


def _case4_powers(params: TwoUserParams) -> Optional[tuple[float, float]]:
    """Both budgets tight: p1 - p2 equals the local-energy-rate gap."""
    delta = params.kappa2 * params.f2**3 - params.kappa1 * params.f1**3
    kf3 = params.kappa2 * params.f2**3
    gain = params.gamma1 + params.gamma2
    p2c = _water_level(kf3, gain, params.gamma1 * delta, params)
    if p2c is None or not math.isfinite(p2c):
        return None
    return p2c + delta, p2c


def _recover_betas(tau: float, params: TwoUserParams, tol: float = 1e-9):
    """Offload shares putting both users' local work exactly at the window.

    Returns None when the window exceeds a user's fully-local time (the
    equal-time structure cannot hold there).
    """
    b1 = 1.0 - tau * params.f1 / (params.task_bits1 * params.cycles1)
    b2 = 1.0 - tau * params.f2 / (params.task_bits2 * params.cycles2)
    if b1 < -tol or b2 < -tol or b1 > 1.0 + tol or b2 > 1.0 + tol:
        return None
    return min(max(b1, 0.0), 1.0), min(max(b2, 0.0), 1.0)


def _evaluate_candidate(
    label: str, p1: float, p2: float, params: TwoUserParams, tol: float = 1e-8
):
    """Primal feasibility filter; returns (delay, solution) or None."""
    if p1 is None or p2 is None:
        return None
    if not (math.isfinite(p1) and math.isfinite(p2)):
        return None
    box = tol * params.p_max
    if p1 < -box or p2 < -box or p1 > params.p_max + box or p2 > params.p_max + box:
        return None
    p1 = min(max(p1, 0.0), params.p_max)
    p2 = min(max(p2, 0.0), params.p_max)
    rate = params.rate(p1, p2)
    if rate <= 0.0:
        return None
    tau = params.a1 / (params.b1 + rate)
    denom = params.b1 + rate
    # energy budgets in the reduced form, normalized by e_max
    for kf3, p in (
        (params.kappa1 * params.f1**3, p1),
        (params.kappa2 * params.f2**3, p2),
    ):
        if params.a1 * (kf3 + p) / denom / params.e_max - 1.0 > tol:
            return None
    betas = _recover_betas(tau, params)
    if betas is None:
        return None
    beta1, beta2 = betas
    # user 1's own bits must clear its interference-free decode rate
    rate1 = params.bandwidth * math.log2(1.0 + params.gamma1 * p1)
    if beta1 * params.task_bits1 - tau * rate1 > tol * params.a1:
        return None
    return tau, TwoUserSolution(
        p1=p1, p2=p2, beta1=beta1, beta2=beta2, delay=tau, case_label=label
    )


def solve_two_user(params: TwoUserParams) -> TwoUserSolution:
    """Best primal-feasible KKT candidate for the two-user problem.

    Candidates, in the order they are labelled: both powers at the cap;
    user 2's budget tight at p1 = p_max; user 1's budget tight at
    p2 = p_max; both budgets tight. Raises EqualTimeInfeasible when
    none survives the feasibility filter.
    """
    pm = params.p_max
    candidates = [
        ("Case1", pm, pm),
        ("Case2", pm, p2_water(pm, params)),
        ("Case3", p1_water(pm, params), pm),
    ]
    c4 = _case4_powers(params)
    if c4 is not None:
        candidates.append(("Case4", c4[0], c4[1]))

    best = None
    for label, p1, p2 in candidates:
        scored = _evaluate_candidate(label, p1, p2, params)
        if scored is None:
            continue
        if best is None or scored[0] < best[0]:
            best = scored
    if best is None:
        raise EqualTimeInfeasible(
            "no KKT candidate is primal feasible (energy budget too tight or "
            "the equal-time structure is unattainable); use bss_solve"
        )
    return best[1]

