"""Bisection search over the auxiliary delay with a feasibility oracle.

The outer loop halves a bracket on the common delay until it is narrower
than ``eps`` (or no float lies between its ends); each step asks whether
any (beta, p) satisfies the rate, local-time, box and energy constraints
at the trial delay. Feasibility is monotone in the delay (a witness at
some delay scales down its powers to witness any larger delay), so the
bracket always contains the optimum and convergence is geometric. A
halving needs only the yes/no verdict and builds no allocation;
check_feasibility builds the witness at the bracket top and at the
certification delay.

Every oracle call is decided without an iterative optimizer, with or
without an edge server, by the one verdict rule at the end of this
docstring, so the reported delay is globally optimal within eps, up to
that rule's eps_feas band. Without a server the
feasibility problem at a fixed trial delay is convex (the maximum
normalized constraint violation is a convex function of (beta, p)). With
a finite-capacity server the rate residual (alpha - c_s sum_j beta_j L_j)
R_m(p) is bilinear in (beta, p), so the problem is not convex; a
reduction to a monotone fixed point in the total offloaded bits (below)
still decides it exactly.

Free ratios, two or more users, no server: one frontier pass. With L_j
the task bits, T_j and E_j the fully-local time and energy, g_j the gain
and B the band, more power only helps the rate constraints, so at delay
alpha each power sits at its energy cap. User j's SNR g_j p_j is then a
concave piecewise-linear function of its offloaded bits u_j = beta_j L_j
with at most two pieces (slope g_j E_j / (alpha L_j) until the power
reaches p_max, then flat) on [lo_j L_j, L_j], where lo_j is the least
share the local-time bound and a nonnegative power allow. Prefix m needs
K_m = (alpha B / ln 2) ln(1 + S_m) - U_m >= 0 for its SNR S_m and bits U_m.
Later prefixes prefer more SNR and fewer bits, so the pass keeps the
frontier "most prefix SNR for given prefix bits" as slope-sorted
(slope, owner, length) segments. For each user it merges the user's
pieces in (ties go to the earlier owner) and finds the peak of K_m,
which is concave along the frontier; a negative peak means infeasible.
Otherwise it cuts the frontier's left end to the root of K_m before the
peak, found by Newton from the infeasible side, which converges
monotonically. The right end needs no cut: past the peak of K_m the
slopes are too small for any later K to rise, so no later peak or
left end lies there. The segments cut away, by owner, give each user's
bits at the least-bits end of the last frontier: the witness. The pass
takes O(M^2) scalar steps and no iterative search beyond the roots.

One user with free ratios and no server (every OFDMA subproblem) is
decided exactly in O(1). At delay alpha the largest share the rate
allows is beta(p) = min(1, alpha B log2(1 + g p) / L). The local-time
constraint needs p >= p_lo = (2^((L/B)(1/alpha - 1/T)) - 1) / g, and the
energy E (1 - beta(p)) + alpha p is convex in p with its minimum at
clip(p_s, 0, p_full), where p_s = E B / (L ln 2) - 1/g is the stationary
point and p_full = (2^(L/(alpha B)) - 1) / g the power at which beta(p)
reaches 1. Clipping that point to [p_lo, p_max] gives the minimum-energy
admissible allocation.

Pinned ratios (``fixed_betas``, as in full offloading), with or without a
server, are decided in O(M) scalar steps. Each power sits at its energy
cap clip((e_max - E_j (1 - beta_j)) / alpha, 0, p_max), and with the
ratios fixed the server time c sum_j beta_j L_j is a constant, so every
rate constraint sees the window alpha - c sum_j beta_j L_j.

Free ratios with a server, any number of users: a fixed point of
frontier passes. Write W for the total offloaded bits sum_j beta_j L_j
and c_s for the server's cycles per bit over its CPU frequency. For a
fixed W every rate constraint sees the window alpha - c_s W, while the
local-time and energy constraints still see alpha, so the frontier pass
with c built from that window gives U_min(W), the least total bits that
meet every constraint at that window. A wider window admits more
allocations, so g(W) = U_min(alpha - c_s W) is nondecreasing in W, and
alpha is feasible if and only if g(W) <= W for some W: an allocation
with total W has g(W) <= W, and conversely the least-bits witness at
such a W offloads at most W bits, so its own window is at least as wide
as the one it was found at. Iterating W <- g(W) from W = 0 therefore
rises through lower bounds of the least fixed point: by induction
W_k <= W* for any W* with g(W*) <= W*, since g(W_k) <= g(W*) <= W*. The
oracle stops feasible once the witness's max residual at its own window
alpha - c_s sum_j beta_j L_j is <= eps_feas, and infeasible when the
next window is not positive, a pass fails, or W stops rising. Every pass
that continues the loop raises W strictly while keeping it below
alpha / c_s, so the loop ends after finitely many passes, though near
the optimum it may take a thousand or more of them (each O(M^2) scalar
steps). With no server c_s = 0 and the loop is the single pass above.

One verdict rule decides every call. Each branch builds its witness on
the exact bounds, and the delay is feasible when that witness's max
normalized residual is <= eps_feas. If the exact problem is feasible,
the witness meets every constraint to rounding, so the verdict is
feasible; a feasible verdict's witness violates no constraint by more
than eps_feas. Inside the (0, eps_feas] band the verdict may go either
way: it is not the minimax verdict (is the least max residual
<= eps_feas?), which no branch computes. A bisection halving gets the
same verdict as check_feasibility, without building the witness's
Allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    Allocation,
    ChannelRealization,
    ScenarioConfig,
    UsageError,
)

__all__ = [
    "FeasibilityReport",
    "SolveResult",
    "InfeasibleScenarioError",
    "init_bounds",
    "constraint_violations",
    "max_violation",
    "check_feasibility",
    "bss_solve",
]

_LN2 = math.log(2.0)
_NEWTON_MAX = 60


def __getattr__(name: str):
    # no solver path calls SLSQP; bench/tracing.py and the tests' SLSQP
    # guards patch solver.minimize, so it resolves on first access and
    # importing the package does not load scipy.optimize (ROADMAP item 2
    # retires the hook)
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class InfeasibleScenarioError(RuntimeError):
    """The scenario admits no allocation even at the upper delay bound."""


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict of one oracle call.

    residual is the max normalized violation at the witness, and the call
    is feasible when it is <= eps_feas, the one rule of every branch. For
    the single-user branch the witness is the minimum-energy point, and
    for pinned ratios the point with every power at its energy cap. For
    the frontier pass a feasible witness is the least-bits end of the last
    frontier; an infeasible one is the point that comes closest to meeting
    the first prefix rate constraint the pass cannot meet (earlier users on
    the frontier, later users at their least share, powers at the energy
    cap), and its residual, > eps_feas, bounds the minimax value from
    above. With a server the residual is taken at the witness's own rate
    window, alpha less the server time of its offloaded bits; an
    infeasible witness is the last pass of the fixed-point loop.
    """

    feasible: bool
    witness: Optional[Allocation]
    residual: float
    # always 0, and uncertain always False: every verdict is exact; both
    # stay for bench/tracing.py (ROADMAP item 2 retires them)
    inner_iterations: int
    uncertain: bool = False


@dataclass(frozen=True)
class SolveResult:
    """Bisection outcome."""

    optimal_delay: float
    allocation: Allocation
    iterations: int
    trace: tuple
    converged: bool
    feasibility_residual: float


def init_bounds(config: ScenarioConfig) -> tuple[float, float]:
    """Bisection bracket: zero to the worst fully-local compute time."""
    return 0.0, max(u.local_full_time for u in config.users)


class _Problem:
    """Scenario arrays for constraint_violations, the numpy reference the tests use."""

    def __init__(self, gains, config: ScenarioConfig):
        g = gains.gains if isinstance(gains, ChannelRealization) else gains
        self.g = np.asarray(g, dtype=float)
        self.n = len(self.g)
        if len(config.users) != self.n:
            raise UsageError("gains and users must have matching length")
        self.bandwidth = config.bandwidth
        self.p_max = config.p_max
        self.e_max = config.e_max
        self.task_bits = np.array([u.task_bits for u in config.users])
        self.local_coef = np.array([u.local_full_time for u in config.users])
        self.energy_coef = np.array([u.local_full_energy for u in config.users])
        self.prefix_bits_scale = np.cumsum(self.task_bits)
        self.alpha_scale = float(self.local_coef.max())
        self.server_coef = _server_coef(config)

    def residuals(self, alpha: float, beta: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Normalized (rate, local, energy) residuals; <= 0 means satisfied."""
        bits = np.cumsum(beta * self.task_bits)
        snr = np.cumsum(self.g * p)
        rate = self.bandwidth * np.log2(1.0 + snr)
        t_srv = self.server_coef * float(np.dot(beta, self.task_bits))
        rate_res = (bits - (alpha - t_srv) * rate) / self.prefix_bits_scale
        local_res = (self.local_coef * (1.0 - beta) - alpha) / self.alpha_scale
        energy_res = (self.energy_coef * (1.0 - beta) + alpha * p - self.e_max) / self.e_max
        return np.concatenate([rate_res, local_res, energy_res])

    def power_cap(self, alpha: float, beta: np.ndarray) -> np.ndarray:
        """Max per-user power the energy budget allows at this delay."""
        head = (self.e_max - self.energy_coef * (1.0 - beta)) / alpha
        return np.clip(head, 0.0, self.p_max)


def constraint_violations(
    alpha: float,
    alloc: Allocation,
    gains,
    config: ScenarioConfig,
) -> np.ndarray:
    """Signed normalized residuals of every constraint instance at alpha.

    Order: rate prefixes (M), local times (M), energy budgets (M), then
    box bounds beta >= 0, beta <= 1, p >= 0, p <= p_max (M each).
    A residual <= 0 means the constraint holds. alpha must be finite
    and > 0, else UsageError.
    """
    _check_delay(alpha)
    prob = _Problem(gains, config)
    beta = np.asarray(alloc.betas, dtype=float)
    p = np.asarray(alloc.powers, dtype=float)
    core = prob.residuals(alpha, beta, p)
    box = np.concatenate([-beta, beta - 1.0, -p / prob.p_max, p / prob.p_max - 1.0])
    return np.concatenate([core, box])


def max_violation(alpha: float, alloc: Allocation, gains, config: ScenarioConfig) -> float:
    """Max normalized violation of every constraint, box bounds included.

    The max of constraint_violations, to rounding, in scalar arithmetic.
    alpha must be finite and > 0, else UsageError.
    """
    _check_delay(alpha)
    g = _gain_tuple(gains, len(config.users))
    betas, powers = alloc.betas, alloc.powers
    if len(betas) != len(g):
        raise UsageError("allocation and users must have matching length")
    specs = _specs(config)
    window = _rate_window(alpha, config, specs, betas)
    p_max = config.p_max
    box = max(max(-b, b - 1.0, -p / p_max, p / p_max - 1.0) for b, p in zip(betas, powers))
    return max(_max_residual(alpha, window, g, specs, config, betas, powers), box)


def _check_delay(alpha: float) -> None:
    if not 0.0 < alpha < math.inf:
        raise UsageError(f"alpha must be finite and > 0, got {alpha!r}")


def _pow2m1(x: float) -> float:
    """2**x - 1, +inf once it leaves the float range."""
    try:
        return math.expm1(x * _LN2)
    except OverflowError:
        return math.inf


def _specs(config: ScenarioConfig) -> list:
    """Each user's (task bits, local time, local energy)."""
    return [(u.task_bits, u.local_full_time, u.local_full_energy) for u in config.users]


def _gain_tuple(gains, n: int) -> tuple:
    """gains as n finite positive floats; UsageError otherwise."""
    g = gains.gains if isinstance(gains, ChannelRealization) else tuple(map(float, gains))
    if len(g) != n:
        raise UsageError("gains and users must have matching length")
    for x in g:
        if not 0.0 < x < math.inf:
            raise UsageError("gains must be finite and strictly positive")
    return g


def _server_coef(config: ScenarioConfig) -> float:
    """Server compute seconds per offloaded bit, 0 without a server."""
    if config.server is None:
        return 0.0
    return config.server.cycles_per_bit / config.server.cpu_freq


def _offloaded_bits(specs, betas) -> float:
    """Total offloaded bits sum_j beta_j L_j."""
    return sum(beta * size for (size, _, _), beta in zip(specs, betas))


def _rate_window(alpha: float, config: ScenarioConfig, specs, betas) -> float:
    """The time the rate constraints get: alpha less the server's compute time."""
    if config.server is None:
        return alpha
    return alpha - _server_coef(config) * _offloaded_bits(specs, betas)


def _max_residual(
    alpha: float, window: float, g, specs, config: ScenarioConfig, betas, powers
) -> float:
    """Max normalized (rate, local, energy) residual, in scalar arithmetic.

    window is the time the rate constraints get: alpha less the server's
    compute time, or alpha itself without a server.
    """
    t_max = max(t_loc for _, t_loc, _ in specs)
    bits = snr = prefix = 0.0
    worst = -math.inf
    for (size, t_loc, e_loc), gain, beta, p in zip(specs, g, betas, powers):
        bits += beta * size
        snr += gain * p
        prefix += size
        rate = config.bandwidth * math.log1p(snr) / _LN2
        worst = max(
            worst,
            (bits - window * rate) / prefix,
            (t_loc * (1.0 - beta) - alpha) / t_max,
            (e_loc * (1.0 - beta) + alpha * p - config.e_max) / config.e_max,
        )
    return worst


def _exact_single_user(alpha: float, g: float, config: ScenarioConfig) -> tuple:
    """(betas, powers, residual) for one user with a free ratio and no server.

    Evaluates the minimum-energy admissible allocation derived in the
    module docstring, in plain float arithmetic.
    """
    user = config.users[0]
    bits, t_loc, e_loc = user.task_bits, user.local_full_time, user.local_full_energy
    band = config.bandwidth
    p_lo = max(0.0, _pow2m1(bits / band * (1.0 / alpha - 1.0 / t_loc)) / g)
    p_full = _pow2m1(bits / (alpha * band)) / g
    p_s = e_loc * band / (bits * _LN2) - 1.0 / g
    p = min(max(min(max(p_s, 0.0), p_full), p_lo), config.p_max)
    rate = band * math.log1p(g * p) / _LN2
    beta = min(1.0, alpha * rate / bits)
    residual = max(
        (beta * bits - alpha * rate) / bits,
        (t_loc * (1.0 - beta) - alpha) / t_loc,
        (e_loc * (1.0 - beta) + alpha * p - config.e_max) / config.e_max,
    )
    return (beta,), (p,), residual


def _root(c: float, u: float, s: float, slope: float, bound: float) -> float:
    """Newton along one frontier segment for the zero of K, from its start, where K < 0.

    The segment starts at prefix bits u and SNR s and gains slope SNR per
    bit; K(t) = c ln(1 + s + slope t) - (u + t) is concave, so every
    step stays short of the root and t rises monotonically toward
    ``bound``, where K >= 0.
    """
    t = 0.0
    for _ in range(_NEWTON_MAX):
        k = c * math.log1p(s + slope * t) - (u + t)
        rise = c * slope / (1.0 + s + slope * t) - 1.0
        if k >= 0.0 or rise <= 0.0:
            break
        t_next = min(t - k / rise, bound)
        if t_next <= t:
            break
        t = t_next
    return t


def _frontier_pass(alpha: float, window: float, g, specs, config: ScenarioConfig):
    """One pass over the users.

    specs holds each user's (task bits, local time, local energy). The
    rate constraints get ``window`` (alpha less the server time, or alpha
    itself), the local-time and energy bounds alpha.
    Returns (feasible, betas, powers). A feasible pass gives the
    least-bits point of the last frontier. An infeasible pass gives the
    point that comes closest to meeting the first prefix it cannot meet,
    with the later users at their least offload.
    """
    c = window * config.bandwidth / _LN2  # prefix m needs c ln(1 + S) >= U
    e_max, p_max = config.e_max, config.p_max
    # least share (the local-time bound, and a budget that leaves p >= 0)
    # and the power at the energy cap there
    floors = [
        max(0.0, 1.0 - alpha / t_loc, 1.0 - e_max / e_loc) for _, t_loc, e_loc in specs
    ]
    p_floor = [
        min(p_max, max(0.0, (e_max - e_loc * (1.0 - lo)) / alpha))
        for lo, (_, _, e_loc) in zip(floors, specs)
    ]
    extra = [0.0] * len(specs)  # bits offloaded beyond the floor, by owner
    segs: list[list] = []  # [slope, owner, length], slope descending, ties by owner
    u0 = s0 = 0.0
    for m, ((size, _, energy), gain, lo) in enumerate(zip(specs, g, floors)):
        knee = min(1.0, max(lo, 1.0 - (e_max - alpha * p_max) / energy))
        u0 += lo * size
        s0 += gain * p_floor[m]
        # user m's SNR at its energy cap: rising until the power reaches
        # p_max at the knee, then flat
        for piece in ((gain * energy / (alpha * size), m, (knee - lo) * size),
                      (0.0, m, (1.0 - knee) * size)):
            if piece[2] > 0.0:
                at = 0
                while at < len(segs) and segs[at][0] >= piece[0]:
                    at += 1
                segs.insert(at, list(piece))

        us, ss = [u0], [s0]
        for slope, _, length in segs:
            us.append(us[-1] + length)
            ss.append(ss[-1] + slope * length)
        n = len(segs)

        def k_at(i: int, t: float) -> float:
            slope = segs[i][0] if i < n else 0.0
            return c * math.log1p(ss[i] + slope * t) - (us[i] + t)

        # K is concave along the frontier: find its peak (segment, offset)
        top, t_top = n, 0.0
        for i, (slope, _, length) in enumerate(segs):
            if c * slope / (1.0 + ss[i + 1]) >= 1.0:
                continue
            top = i
            if slope > 0.0:
                t_top = min(max((c * slope - 1.0 - ss[i]) / slope, 0.0), length)
            break
        feasible = k_at(top, t_top) >= 0.0
        left, t_left = top, t_top
        if feasible:
            # cut the frontier's left end to the root of K before the peak
            left, t_left = 0, 0.0
            if k_at(0, 0.0) < 0.0:
                while left < top and k_at(left, segs[left][2]) < 0.0:
                    left += 1
                if left < n:
                    bound = t_top if left == top else segs[left][2]
                    t_left = _root(c, us[left], ss[left], segs[left][0], bound)
        for slope, owner, length in segs[:left]:
            extra[owner] += length
        u0, s0 = us[left], ss[left]
        if left < n:
            extra[segs[left][1]] += t_left
            segs[left][2] -= t_left
            u0, s0 = u0 + t_left, s0 + segs[left][0] * t_left
        if not feasible:
            break
        segs = [seg for seg in segs[left:] if seg[2] > 0.0]

    betas, powers = [], []
    for (size, _, energy), lo, p_lo, more in zip(specs, floors, p_floor, extra):
        betas.append(min(1.0, lo + more / size))
        powers.append(min(p_max, p_lo + energy * more / (alpha * size)))
    return feasible, betas, powers


def _exact_pinned(alpha: float, g, specs, config: ScenarioConfig, betas: tuple) -> tuple:
    """(betas, powers, residual) for pinned ratios, with or without a server.

    Every power sits at its energy cap (see the module docstring); with
    the ratios fixed the server time, and so the rate window, is a
    constant.
    """
    e_max, p_max = config.e_max, config.p_max
    powers = [
        min(max((e_max - e_loc * (1.0 - beta)) / alpha, 0.0), p_max)
        for (_, _, e_loc), beta in zip(specs, betas)
    ]
    window = _rate_window(alpha, config, specs, betas)
    return betas, powers, _max_residual(alpha, window, g, specs, config, betas, powers)


def _pinned_ratios(fixed_betas, n: int) -> tuple:
    """fixed_betas as a tuple of n floats in [0, 1]; UsageError otherwise."""
    try:
        betas = tuple(map(float, fixed_betas))
    except (TypeError, ValueError):
        raise UsageError(f"fixed_betas must be numbers, got {fixed_betas!r}") from None
    if len(betas) != n:
        raise UsageError(f"fixed_betas must hold one ratio per user ({n}), got {len(betas)}")
    if not all(0.0 <= b <= 1.0 for b in betas):
        raise UsageError(f"fixed_betas must lie in [0, 1], got {betas!r}")
    return betas


def _check_eps_feas(eps_feas: float) -> None:
    if not (math.isfinite(eps_feas) and eps_feas > 0):
        raise UsageError("eps_feas must be finite and > 0")


class _Oracle:
    """One scenario's oracle inputs, checked and precomputed once.

    The gains (one finite positive value per user) and the pinned ratios
    (one in [0, 1] per user) are checked here, else UsageError. Both
    report() and holds() run the same branch once and apply the one
    verdict rule of the module docstring; report() also builds the
    witness, while holds() returns only the verdict, which is all a
    bisection halving needs, so bss_solve builds one _Oracle per solve
    and no allocation per halving.
    """

    def __init__(self, gains, config: ScenarioConfig, fixed_betas=None):
        n = len(config.users)
        self.g = _gain_tuple(gains, n)
        self.pinned = None if fixed_betas is None else _pinned_ratios(fixed_betas, n)
        self.config = config
        self.specs = _specs(config)
        self.coef = _server_coef(config)

    def report(self, alpha: float, eps_feas: float) -> FeasibilityReport:
        """Verdict and witness at delay alpha."""
        if alpha <= 0.0:
            n = len(self.g)
            betas = (0.0,) * n if self.pinned is None else self.pinned
            return FeasibilityReport(False, Allocation(betas, (0.0,) * n), math.inf, 0)
        betas, powers, residual = self._decide(alpha, eps_feas)
        witness = Allocation(betas=tuple(betas), powers=tuple(powers))
        return FeasibilityReport(residual <= eps_feas, witness, residual, 0)

    def holds(self, alpha: float, eps_feas: float) -> bool:
        """report(alpha, eps_feas).feasible for alpha > 0, without building the report."""
        return self._decide(alpha, eps_feas)[2] <= eps_feas

    def _decide(self, alpha: float, eps_feas: float) -> tuple:
        """(betas, powers, residual) of the branch's witness at delay alpha > 0."""
        g, config = self.g, self.config
        if self.pinned is not None:
            return _exact_pinned(alpha, g, self.specs, config, self.pinned)
        if len(g) == 1 and config.server is None:
            return _exact_single_user(alpha, g[0], config)
        return self._free_run(alpha, eps_feas)

    def _free_run(self, alpha: float, eps_feas: float) -> tuple:
        """Free ratios: frontier passes at the windows alpha - c_s W.

        W <- U_min from W = 0 (one pass without a server) until the
        witness's residual at its own window is <= eps_feas, a pass fails,
        W stops rising or the next window is not positive. Returns
        (betas, powers, residual).
        """
        g, specs, config, coef = self.g, self.specs, self.config, self.coef
        total, window = 0.0, alpha
        while True:
            feasible, betas, powers = _frontier_pass(alpha, window, g, specs, config)
            bits = coef and _offloaded_bits(specs, betas)  # 0, one pass, without a server
            own = alpha - coef * bits
            residual = _max_residual(alpha, own, g, specs, config, betas, powers)
            if residual <= eps_feas or not feasible or bits <= total or own <= 0.0:
                return betas, powers, residual
            total, window = bits, own


def check_feasibility(
    alpha: float,
    gains,
    config: ScenarioConfig,
    eps_feas: float = 1e-8,
    fixed_betas: Optional[Sequence[float]] = None,
) -> FeasibilityReport:
    """Decide whether any allocation meets every constraint at delay alpha.

    Returns a report whose witness attains the reported max violation;
    the call is feasible when that violation is <= eps_feas. Every
    witness is built on the exact bounds in scalar arithmetic. With
    ``fixed_betas`` (one ratio in [0, 1] per user, else UsageError) the
    powers at their energy caps decide it. Free ratios are decided in
    closed form for one user without a server, and otherwise by the
    frontier pass, iterated to a fixed point in the total offloaded bits
    when a server is configured. Gains must be one finite positive value
    per user and alpha must be finite, else UsageError; alpha <= 0 is
    infeasible.
    """
    if not math.isfinite(alpha):
        raise UsageError(f"alpha must be finite, got {alpha!r}")
    _check_eps_feas(eps_feas)
    return _Oracle(gains, config, fixed_betas).report(alpha, eps_feas)


def bss_solve(
    gains,
    config: ScenarioConfig,
    eps: float = 1e-4,
    eps_feas: float = 1e-8,
    fixed_betas: Optional[Sequence[float]] = None,
    alpha_max: Optional[float] = None,
) -> SolveResult:
    """Least common delay by bisection on the feasibility oracle.

    Every oracle call, with or without a server, is decided by the one
    verdict rule of the module docstring, so the delay is globally
    optimal within eps, up to the (0, eps_feas] band of that rule.

    Performs ceil(log2(bracket / eps)) halvings, fewer only when no float
    lies strictly between the bracket's ends. The halvings are
    verdict-only: no allocation is built. check_feasibility decides the
    bracket top and certifies the returned allocation with one extra call
    at the reported delay plus eps (or at the bracket's feasible end, if
    that is later, as when eps is below the float spacing), so the stored
    residual is meaningful at that level; should that call fail, the
    witness is rebuilt at the bracket's feasible end.

    Raises InfeasibleScenarioError when even the upper bound (every task
    computed locally, or the caller-supplied bracket top) is infeasible,
    and UsageError when alpha_max is given and is not finite and > 0.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise UsageError("eps must be finite and > 0")
    _check_eps_feas(eps_feas)
    oracle = _Oracle(gains, config, fixed_betas)
    lo, hi = init_bounds(config)
    if alpha_max is not None:
        if not 0.0 < alpha_max < math.inf:
            raise UsageError(f"alpha_max must be finite and > 0, got {alpha_max}")
        hi = alpha_max
    top = check_feasibility(hi, gains, config, eps_feas, fixed_betas=fixed_betas)
    if not top.feasible:
        raise InfeasibleScenarioError(
            f"no feasible allocation at the delay upper bound {hi:.6g} s "
            f"(max violation {top.residual:.3g}); energy budget too small"
        )
    trace = []
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # eps is below the float spacing of the bracket
        feasible = oracle.holds(mid, eps_feas)
        trace.append((mid, feasible))
        if feasible:
            hi = mid
        else:
            lo = mid
    alpha_star = 0.5 * (lo + hi)

    # alpha* + eps rounds to alpha* when eps is below the bracket's float
    # spacing, and alpha* may be its infeasible end; hi is always feasible
    at = max(alpha_star + eps, hi)
    cert = check_feasibility(at, gains, config, eps_feas, fixed_betas=fixed_betas)
    if cert.feasible:
        witness = cert.witness
        residual = cert.residual
        converged = True
    else:
        witness = check_feasibility(hi, gains, config, eps_feas, fixed_betas=fixed_betas).witness
        residual = max_violation(at, witness, gains, config)
        converged = residual <= eps_feas
    return SolveResult(
        optimal_delay=alpha_star,
        allocation=witness,
        iterations=len(trace),
        trace=tuple(trace),
        converged=converged,
        feasibility_residual=residual,
    )
