"""Analytic two-user solution: water-level powers, KKT cases, ratio recovery.

With two users sharing the band, the common-delay problem reduces to two
power variables: the delay is a1 / (b1 + R(p1, p2)) with a1 = L1 + L2 the
total bits, b1 = f1/C1 + f2/C2 the combined local throughput and R the
aggregate uplink rate. Each user's energy budget caps its power through a
transcendental "water level" solved by the Lambert W function. The
optimizer enumerates the four candidate solutions (both powers at the
cap, one energy budget tight, the other tight, both tight), recovers the
ratios that end both users' local work at the window, keeps the
candidates whose max_violation is within solver.EPS_FEAS (1e-8), the
bisection oracle's verdict threshold, and returns the smallest delay.

A returned solution always realizes its reported delay: every user's
local share finishes at the common window and the offloaded bits fit the
successive-decoding rate region over that window. When no candidate
survives the equal-time structure is unattainable and EqualTimeInfeasible
tells the caller to fall back to the bisection solver. The closed form
has no server term: a config with a server raises UsageError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import solver
from .lambertw import lambert_wm1
from .model import ScenarioConfig, UsageError, UserSpec
from .solver import _gain_tuple, _max_residual, _specs

__all__ = [
    "TwoUserSolution",
    "EqualTimeInfeasible",
    "solve_two_user",
]

_LN2 = math.log(2.0)
_EXP_UNDERFLOW = -700.0  # exp() underflows to 0 below this
_BOX_TOL = 1e-8  # power box pre-check, relative to p_max
_FLAT_RATE = 2.0**53  # line slope over the rate's: the rate is flat in floats past it


class EqualTimeInfeasible(RuntimeError):
    """No KKT candidate is primal feasible; use the bisection solver."""


@dataclass(frozen=True)
class TwoUserSolution:
    p1: float
    p2: float
    beta1: float
    beta2: float
    delay: float
    case_label: str


def _reduce(gains, config: ScenarioConfig) -> tuple:
    """(gains, a1, b1, (kappa_1 f_1^3, kappa_2 f_2^3)) of a two-user config.

    kappa_j f_j^3 = E_j / T_j is user j's local energy rate, inf when the
    cube leaves the float range (no water level then exists, so the
    candidates that need one drop out). UsageError unless there are two
    users, no server and two ascending, finite, positive gains.
    """
    if len(config.users) != 2:
        raise UsageError("the closed form needs exactly two users")
    if config.server is not None:
        raise UsageError("the closed form has no server term; use bss_solve")
    g = _gain_tuple(gains, 2)
    if g[0] > g[1]:
        raise UsageError("gains must be sorted ascending (SIC decode order)")
    u1, u2 = config.users
    a1 = u1.task_bits + u2.task_bits
    b1 = u1.cpu_freq / u1.cycles_per_bit + u2.cpu_freq / u2.cycles_per_bit
    return g, a1, b1, (_energy_rate(u1), _energy_rate(u2))


def _energy_rate(user: UserSpec) -> float:
    """kappa f^3, +inf once f^3 leaves the float range."""
    try:
        return user.kappa * user.cpu_freq**3
    except OverflowError:
        return math.inf


def _water_level(
    kappa_f3: float, gain_eff: float, interference: float, a1: float, b1: float,
    config: ScenarioConfig,
) -> Optional[float]:
    """Largest effective power keeping one energy budget within limit.

    Solves kappa*a1*f^3 + a1*p = e_max*(b1 + B*log2(1 + gain_eff*p +
    interference)) for the upper root, the one past which the budget is
    exceeded. Returns +inf when the budget can never go tight at any
    attainable power (huge e_max) and None when it is violated for every
    power level, which includes an infinite local energy rate.

    Divided by e_max B the budget reads big_a + big_b p <= log2(1 +
    gain_eff p + interference), big_b = a1 / (e_max B), big_a = big_b
    kappa f^3 - b1 / B, whose right side is below 1025 at any float power.
    big_b past the float range (as at e_max 1e-310 J) puts the left side
    above 1.8e308 kappa f^3 - b1 / B > 1025 at every power, for any
    kappa f^3 above (b1 / B + 1025) / 1.8e308: None. big_b == 0 (e_max B
    past the float range) is a slope below 5e-324, so only powers past
    1 / (big_b ln 2) - (1 + interference) / gain_eff, beyond every float,
    could break the budget: +inf. solve_two_user drops both alike.

    With c = big_b ln 2 / gain_eff, the rate's slope is at most
    gain_eff / ((1 + interference) ln 2) = big_b / (c (1 + interference))
    at every p >= 0. Once c (1 + interference) passes 2^53 (c overflows
    at a subnormal gain_eff), the line is steeper than the rate
    everywhere, and the rate rises by less than 2^-53 of the line's rise
    over any range: it is flat below float precision. The level is then
    the root r0 = (log2(1 + interference) - big_a) / big_b of the line
    against the rate at p = 0: the true root r meets r0 <= r <= r0 /
    (1 - 2^-53) by concavity. A negative r0 breaks the budget at p = 0
    and so at every power: None.
    """
    if kappa_f3 == math.inf:
        return None
    scale = config.e_max * config.bandwidth
    big_b = a1 / scale if scale else math.inf  # e_max B may round to 0
    if big_b == math.inf:
        return None
    if big_b == 0.0:
        return math.inf
    big_a = kappa_f3 * a1 / scale - b1 / config.bandwidth
    c = big_b * _LN2 / gain_eff
    if c * (1.0 + interference) > _FLAT_RATE:
        level = (math.log2(1.0 + interference) - big_a) / big_b
        if level < 0.0:
            return None
    else:
        k = big_a * _LN2 - c * (1.0 + interference)
        log_arg = math.log(c) + k
        if log_arg > -1.0:
            return None  # line sits above the log curve everywhere: always violated
        if log_arg < _EXP_UNDERFLOW:
            return math.inf
        w = lambert_wm1(-math.exp(log_arg))
        u = -w / c
        level = (u - 1.0 - interference) / gain_eff
    if level > 1e12 * config.p_max:
        return math.inf  # beyond any attainable power: effectively never tight
    return level


def p1_water(p2: float, gains, config: ScenarioConfig) -> Optional[float]:
    """Power making user 1's energy budget tight given user 2's power.

    None signals that no tight solution exists (the budget is violated
    at every p1); +inf that the budget never binds.
    """
    g, a1, b1, kf3 = _reduce(gains, config)
    return _water_level(kf3[0], g[0], g[1] * p2, a1, b1, config)


def p2_water(p1: float, gains, config: ScenarioConfig) -> Optional[float]:
    """Power making user 2's energy budget tight given user 1's power."""
    g, a1, b1, kf3 = _reduce(gains, config)
    return _water_level(kf3[1], g[1], g[0] * p1, a1, b1, config)


def solve_two_user(gains, config: ScenarioConfig) -> TwoUserSolution:
    """Best primal-feasible KKT candidate for the two-user problem.

    Candidates, in the order they are labelled: both powers at the cap;
    user 2's budget tight at p1 = p_max; user 1's budget tight at
    p2 = p_max; both budgets tight (p1 - p2 equals the gap between the
    local energy rates). A candidate is kept when its powers lie within
    1e-8 p_max of the box and, clipped to it, the allocation with
    beta_j = clip(1 - tau / T_j, 0, 1) at tau = a1 / (b1 + R) has
    max_violation <= solver.EPS_FEAS. Raises EqualTimeInfeasible when
    none is kept, and UsageError unless config has two users and no
    server and gains are two ascending, finite, positive values.
    """
    g, a1, b1, kf3 = _reduce(gains, config)
    specs = _specs(config)
    pm = config.p_max
    candidates = [
        ("Case1", pm, pm),
        ("Case2", pm, _water_level(kf3[1], g[1], g[0] * pm, a1, b1, config)),
        ("Case3", _water_level(kf3[0], g[0], g[1] * pm, a1, b1, config), pm),
    ]
    delta = kf3[1] - kf3[0]
    p2c = _water_level(kf3[1], g[0] + g[1], g[0] * delta, a1, b1, config)
    if p2c is not None and math.isfinite(p2c):
        candidates.append(("Case4", p2c + delta, p2c))

    best = None
    box = _BOX_TOL * pm
    for label, p1, p2 in candidates:
        if p1 is None or p2 is None or not (math.isfinite(p1) and math.isfinite(p2)):
            continue
        # a water level above p_max is not clipped into Case1's powers
        if not (-box <= p1 <= pm + box and -box <= p2 <= pm + box):
            continue
        p1, p2 = min(max(p1, 0.0), pm), min(max(p2, 0.0), pm)
        tau = a1 / (b1 + config.bandwidth * math.log2(1.0 + g[0] * p1 + g[1] * p2))
        if best is not None and tau >= best.delay:
            continue  # only a strictly faster candidate replaces best
        # 1 - tau / T_j, written as 1 - tau f / (L C) so every ratio keeps the
        # last digit that TestPinnedAnswers in tests/test_closed_form.py records
        betas = tuple(
            min(max(1.0 - tau * u.cpu_freq / (u.task_bits * u.cycles_per_bit), 0.0), 1.0)
            for u in config.users
        )
        # betas and powers lie in their box, so the box rows of max_violation
        # are <= 0 and its verdict is that of the (rate, local, energy) rows
        if _max_residual(tau, tau, g, specs, config, betas, (p1, p2)) > solver.EPS_FEAS:
            continue
        best = TwoUserSolution(
            p1=p1, p2=p2, beta1=betas[0], beta2=betas[1], delay=tau, case_label=label
        )
    if best is None:
        raise EqualTimeInfeasible(
            "no KKT candidate is primal feasible (energy budget too tight or "
            "the equal-time structure is unattainable); use bss_solve"
        )
    return best
