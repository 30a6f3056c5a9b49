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

Every oracle call is decided exactly, with or without an edge server, so
the reported delay is globally optimal within eps. Without a server the
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

Both exact verdicts compare the witness's max normalized residual with
eps_feas. check_feasibility runs the frontier pass unrelaxed first and
takes the witness from that pass when it succeeds. Otherwise it relaxes
every bound the way the normalized residuals do (share >= 1 - (alpha +
eps T_max) / T_j, budget e_max (1 + eps), rate offset eps P_m with P_m
the prefix task bits) by eps = eps_feas less a 1e-4 share, which keeps
rounding in the witness's residuals from pushing it past eps_feas. Its
verdict is thus the minimax one (is the least max residual <= eps_feas?)
except in that thin top slice of the band. A bisection halving without a
server takes the relaxed pass alone: the relaxed bounds contain the
unrelaxed ones, so an unrelaxed success implies a relaxed one, and the
verdict is the same from one pass instead of up to two. The single-user
witness is the minimum-energy point, not the minimax one, so inside the
whole (0, eps_feas] band that verdict is stricter: it may say infeasible
where a point violating every constraint by less than eps_feas exists.

Pinned ratios (``fixed_betas``, as in full offloading), with or without a
server, are decided in O(M) scalar steps. Each power sits at its energy
cap clip((e_max - E_j (1 - beta_j)) / alpha, 0, p_max), and with the
ratios fixed the server time c sum_j beta_j L_j is a constant, so every
rate constraint sees the window alpha - c sum_j beta_j L_j. The verdict
is the max normalized residual at those powers against eps_feas; like the
single-user one it is stricter than the minimax verdict inside the
(0, eps_feas] band, where a budget relaxed by the band would allow more
power.

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
steps). As without a server, the loop runs unrelaxed and then, unless
that ends on a feasible witness, relaxed; bisection halvings keep that
order here, since a relaxed loop has to end about 1e4 times closer to
the fixed point before its witness's residual clears eps_feas. With no
server c_s = 0 and the loop is the single pass above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
# no solver path calls SLSQP; bench/tracing.py and the tests' SLSQP guards
# patch this name (ROADMAP item 2 retires the hook)
from scipy.optimize import minimize

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
_RELAX_MARGIN = 1e-4


class InfeasibleScenarioError(RuntimeError):
    """The scenario admits no allocation even at the upper delay bound."""


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict of one oracle call.

    residual is the max normalized violation at the witness, and the call
    is feasible when it is <= eps_feas. For the single-user branch it is
    the violation at the minimum-energy point, and for pinned ratios the
    violation with every power at its energy cap. For the frontier pass a
    feasible witness is the least-bits end of the last frontier; an
    infeasible one is the point that comes closest to meeting the first
    prefix rate constraint the relaxed pass cannot meet (earlier users on
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
    A residual <= 0 means the constraint holds.
    """
    if alpha <= 0:
        raise UsageError("alpha must be > 0")
    prob = _Problem(gains, config)
    beta = np.asarray(alloc.betas, dtype=float)
    p = np.asarray(alloc.powers, dtype=float)
    core = prob.residuals(alpha, beta, p)
    box = np.concatenate([-beta, beta - 1.0, -p / prob.p_max, p / prob.p_max - 1.0])
    return np.concatenate([core, box])


def max_violation(alpha: float, alloc: Allocation, gains, config: ScenarioConfig) -> float:
    """Max normalized violation of every constraint, box bounds included.

    The max of constraint_violations, to rounding, in scalar arithmetic.
    """
    if alpha <= 0:
        raise UsageError("alpha must be > 0")
    g = _gain_tuple(gains, len(config.users))
    betas, powers = alloc.betas, alloc.powers
    if len(betas) != len(g):
        raise UsageError("allocation and users must have matching length")
    specs = _specs(config)
    window = _rate_window(alpha, config, specs, betas)
    p_max = config.p_max
    box = max(max(-b, b - 1.0, -p / p_max, p / p_max - 1.0) for b, p in zip(betas, powers))
    return max(_max_residual(alpha, window, g, specs, config, betas, powers), box)


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


def _root(c: float, r: float, u: float, s: float, slope: float, bound: float) -> float:
    """Newton along one frontier segment for the zero of K, from its start, where K < 0.

    The segment starts at prefix bits u and SNR s and gains slope SNR per
    bit; K(t) = c ln(1 + s + slope t) - (u + t) + r is concave, so every
    step stays short of the root and t rises monotonically toward
    ``bound``, where K >= 0.
    """
    t = 0.0
    for _ in range(_NEWTON_MAX):
        k = c * math.log1p(s + slope * t) - (u + t) + r
        rise = c * slope / (1.0 + s + slope * t) - 1.0
        if k >= 0.0 or rise <= 0.0:
            break
        t_next = min(t - k / rise, bound)
        if t_next <= t:
            break
        t = t_next
    return t


def _frontier_pass(alpha: float, window: float, g, specs, config: ScenarioConfig, eps: float):
    """One pass over the users with every bound relaxed by eps.

    specs holds each user's (task bits, local time, local energy). The
    rate constraints get ``window`` (alpha less the server time, or alpha
    itself), the local-time and energy bounds alpha.
    Returns (feasible, betas, powers). A feasible pass gives the
    least-bits point of the last frontier. An infeasible pass gives the
    point that comes closest to meeting the first prefix it cannot meet,
    with the later users at their least offload.
    """
    c = window * config.bandwidth / _LN2  # prefix m needs c ln(1 + S) >= U - eps P_m
    t_max = max(t_loc for _, t_loc, _ in specs)
    budget = config.e_max * (1.0 + eps)
    # least share (the local-time bound, and a budget that leaves p >= 0)
    # and the power at the energy cap there
    floors = [
        max(0.0, 1.0 - (alpha + eps * t_max) / t_loc, 1.0 - budget / e_loc)
        for _, t_loc, e_loc in specs
    ]
    p_floor = [
        min(config.p_max, max(0.0, (budget - e_loc * (1.0 - lo)) / alpha))
        for lo, (_, _, e_loc) in zip(floors, specs)
    ]
    extra = [0.0] * len(specs)  # bits offloaded beyond the floor, by owner
    segs: list[list] = []  # [slope, owner, length], slope descending, ties by owner
    u0 = s0 = prefix = 0.0
    for m, ((size, _, energy), gain, lo) in enumerate(zip(specs, g, floors)):
        knee = min(1.0, max(lo, 1.0 - (budget - alpha * config.p_max) / energy))
        u0 += lo * size
        s0 += gain * p_floor[m]
        prefix += size
        r = eps * prefix
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
            return c * math.log1p(ss[i] + slope * t) - (us[i] + t) + r

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
                    t_left = _root(c, r, us[left], ss[left], segs[left][0], bound)
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
        powers.append(min(config.p_max, p_lo + energy * more / (alpha * size)))
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
    (one in [0, 1] per user) are checked here, else UsageError. report()
    decides a delay and builds its witness; holds() returns only the
    verdict, which is all a bisection halving needs, so bss_solve builds
    one _Oracle per solve and no allocation per halving.
    """

    def __init__(self, gains, config: ScenarioConfig, fixed_betas=None):
        n = len(config.users)
        self.g = _gain_tuple(gains, n)
        self.pinned = None if fixed_betas is None else _pinned_ratios(fixed_betas, n)
        self.config = config
        self.specs = _specs(config)
        self.coef = _server_coef(config)

    def report(self, alpha: float, eps_feas: float) -> FeasibilityReport:
        """Verdict and witness at delay alpha; free ratios prefer the unrelaxed witness."""
        if alpha <= 0.0:
            n = len(self.g)
            betas = (0.0,) * n if self.pinned is None else self.pinned
            return FeasibilityReport(False, Allocation(betas, (0.0,) * n), math.inf, 0)
        betas, powers, residual = self._decide(alpha, eps_feas, unrelaxed_first=True)
        witness = Allocation(betas=tuple(betas), powers=tuple(powers))
        return FeasibilityReport(residual <= eps_feas, witness, residual, 0)

    def holds(self, alpha: float, eps_feas: float) -> bool:
        """report(alpha, eps_feas).feasible for alpha > 0, without building the report.

        Without a server, free ratios take the relaxed pass alone. Its
        bounds contain the unrelaxed ones, so an unrelaxed success implies
        a relaxed one, and report() falls back to the relaxed pass whenever
        the unrelaxed one fails: the verdict is the same, from one pass
        instead of up to two. With a server the unrelaxed run still goes
        first: a relaxed witness has to come about 1e4 times closer to the
        fixed point before its residual at its own window clears
        eps_feas, so on feasible delays the relaxed loop takes about twice
        the passes, more than skipping the unrelaxed loop saves on
        infeasible ones.
        """
        return self._decide(alpha, eps_feas, self.coef > 0.0)[2] <= eps_feas

    def _decide(self, alpha: float, eps_feas: float, unrelaxed_first: bool) -> tuple:
        """(betas, powers, residual) at delay alpha > 0.

        With ``unrelaxed_first`` free ratios run unrelaxed first and keep
        that witness when it is feasible; otherwise they run relaxed only.
        """
        g, config = self.g, self.config
        if self.pinned is not None:
            return _exact_pinned(alpha, g, self.specs, config, self.pinned)
        if len(g) == 1 and config.server is None:
            return _exact_single_user(alpha, g[0], config)
        if unrelaxed_first:
            found = self._free_run(alpha, 0.0, eps_feas)
            if found[2] <= eps_feas:
                return found
        # the relaxed witness sits on relaxed bounds; the margin keeps the few
        # ulp its residuals round by from pushing it past eps_feas
        return self._free_run(alpha, eps_feas * (1.0 - _RELAX_MARGIN), eps_feas)

    def _free_run(self, alpha: float, eps: float, eps_feas: float) -> tuple:
        """Free ratios: frontier passes at the windows alpha - c_s W, bounds relaxed by eps.

        W <- U_min from W = 0 (one pass without a server) until the
        witness's residual at its own window is <= eps_feas, a pass fails,
        W stops rising or the next window is not positive. Returns
        (betas, powers, residual); an unrelaxed pass that fails returns at
        once with residual inf.
        """
        g, specs, config, coef = self.g, self.specs, self.config, self.coef
        total, window = 0.0, alpha
        while True:
            feasible, betas, powers = _frontier_pass(alpha, window, g, specs, config, eps)
            if not (feasible or eps):
                return betas, powers, math.inf
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

    Returns a report whose witness attains the reported max violation.
    Every verdict is exact and computed in scalar arithmetic. With
    ``fixed_betas`` (one ratio in [0, 1] per user, else UsageError) the
    powers at their energy caps decide it. Free ratios are decided in
    closed form for one user without a server, and otherwise by the
    frontier pass, iterated to a fixed point in the total offloaded bits
    when a server is configured; the unrelaxed run goes first, so a
    feasible call returns the unrelaxed witness when there is one. Gains
    must be one finite positive value per user, else UsageError.
    """
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

    Every oracle verdict is exact, with or without a server, so the
    delay is globally optimal within eps (see the module docstring).

    Performs ceil(log2(bracket / eps)) halvings, fewer only when no float
    lies strictly between the bracket's ends. The halvings are
    verdict-only: no allocation is built, and without a server free
    ratios are decided by the relaxed pass alone. check_feasibility
    decides the bracket top and certifies the returned allocation with
    one extra call at the reported delay plus eps, so the stored residual
    is meaningful at that level; should that call fail, the witness is
    rebuilt at the bracket's feasible end.

    Raises InfeasibleScenarioError when even the upper bound (every task
    computed locally, or the caller-supplied bracket top) is infeasible.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise UsageError("eps must be finite and > 0")
    _check_eps_feas(eps_feas)
    oracle = _Oracle(gains, config, fixed_betas)
    lo, hi = init_bounds(config)
    if alpha_max is not None:
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

    cert = check_feasibility(alpha_star + eps, gains, config, eps_feas, fixed_betas=fixed_betas)
    if cert.feasible:
        witness = cert.witness
        residual = cert.residual
        converged = True
    else:
        witness = check_feasibility(hi, gains, config, eps_feas, fixed_betas=fixed_betas).witness
        residual = max_violation(alpha_star + eps, witness, gains, config)
        converged = residual <= eps_feas
    return SolveResult(
        optimal_delay=alpha_star,
        allocation=witness,
        iterations=len(trace),
        trace=tuple(trace),
        converged=converged,
        feasibility_residual=residual,
    )
