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
that rule's EPS_FEAS band. Without a server the
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
on [lo_j L_j, L_j], where lo_j is the least share the local-time bound
and a nonnegative power allow: it rises with slope g_j E_j / (alpha L_j)
until the power reaches p_max at the knee, then stays flat. Prefix m
needs K_m = (alpha B / ln 2) ln(1 + S_m) - U_m >= 0 for its SNR S_m and
bits U_m. Later prefixes prefer more SNR and fewer bits, so the pass
keeps the frontier "most prefix SNR for given prefix bits" past the
prefix's floors as slope-sorted (slope, owner, length) segments, one
per rising piece. For each user it merges the user's rising piece in
(ties go to the earlier owner) and finds the peak of K_m, which is
concave along the frontier; a negative peak means infeasible.
Otherwise it cuts the frontier's left end to the root of K_m before the
peak, found by Newton from the infeasible side, which converges
monotonically. The right end needs no cut: past the peak of K_m the
slopes are too small for any later K to rise, so no later peak or
left end lies there. The segments cut away, by owner, give each user's
bits at the least-bits end of the last frontier: the witness.

The flat pieces stay off the frontier, and that changes no bit of any
verdict or witness. A flat piece has slope 0, so it would sort after
every rising segment, and along it S stays put while U grows: K only
falls there. The peak therefore lies at or before the start of the
first flat piece, the left end's root lies before the peak, and neither
the feasible witness (the least-bits end) nor the infeasible one (the
peak) takes any of a flat piece's bits. K at the end of the rising
segments is the value the first flat piece would start with, so every
verdict is the same. A user's step costs O(1) plus O(r) for the r
rising segments on the frontier, so the pass takes O(M^2) scalar steps
at most. When no piece rises it takes O(M): if every power sits at
p_max at its floor (E_j (1 - lo_j) + alpha p_max <= e_max for every j,
as when every budget is slack), the frontier stays empty and each
user's step is the one check K_m >= 0 at the floors. Its witness is
then every ratio at its floor lo_j and every power at its energy cap
there, whether or not some K_m fails, and its verdict is that witness's
residual (the rule below), so no K_m needs checking. The oracle checks
the floors for a rising piece first; with none, it builds the witness
and evaluates its rows in the capped-power loop that pinned ratios use
(below), in the pass's and the residual's expression order, and
otherwise it hands over to the full pass and a separate residual.
There is no iterative search beyond the roots.

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
rate constraint sees the window alpha - c sum_j beta_j L_j. Given that
window, the capped-power loop sets each power and evaluates its rows.
The fully local time T_max bounds nothing here, so bss_solve
doubles its bracket top from T_max until the oracle finds it feasible.

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
alpha - c_s sum_j beta_j L_j is <= EPS_FEAS, and infeasible when the
next window is not positive, a pass fails, or W stops rising. Every pass
that continues the loop raises W strictly while keeping it below
alpha / c_s, so the loop ends after finitely many passes, though near
the optimum it may take a thousand or more of them (each at most O(M^2)
scalar steps, O(M) when no piece rises). With no server c_s = 0 and the
loop is the single pass above.

The bisection is seeded by the energy-relaxed delay alpha_r. Drop the
energy budgets and the server: more power and less offloading then only
help, so every power sits at p_max and every free ratio at its
local-time floor (1 - alpha/T_j)^+. Prefix m needs h_m(alpha) =
alpha R_m - sum_{j<=m} L_j (1 - alpha/T_j)^+ >= 0, with R_m = B log2(1 +
p_max sum_{j<=m} g_j). h_m is increasing and piecewise linear with
breaks at the T_j, and its root is alpha_m = sum_A L_j / (R_m + sum_A L_j/T_j),
A being the users j <= m with T_j > alpha_m. Every set's line lies on or
above h_m, so starting from all users and dropping those with T_j at or
below the current root raises the root to alpha_m. Running sums of L_j
and L_j/T_j over the prefix give the all-users root in O(1), so a prefix
is summed afresh only once a user is dropped. With pinned ratios
the relaxed delay is the larger of max_j T_j (1 - beta_j) and max_m
sum_{j<=m} beta_j L_j / R_m. The relaxed problem admits every
allocation the true one does, with or without a server (a server only
narrows the rate window), so alpha_r = max_m alpha_m bounds the optimum
from below. Without a server it is the optimum when its allocation meets
every budget at alpha_r: E_j min(1, alpha_r/T_j) + alpha_r p_max <=
e_max, or E_j (1 - beta_j) + alpha_r p_max <= e_max for pinned ratios;
alpha_r is then called exact. For two users and free ratios that is the
closed form's Case1.

Three certificates turn alpha_r into verdicts that cost no oracle call.
Each certified verdict is the oracle's own, so the trace, the delay and
the allocation are those of plain bisection; with slack budgets a solve
asks the oracle once, for its certification, and where a budget binds
(free ratios, no server) it asks twice, for one probe and the
certification.

Upper certificate. When alpha_r is exact and there is no server, every
delay alpha >= alpha_r (1 + 1e-6) is feasible: keep alpha_r's ratios and
scale its powers by s = alpha_r / alpha <= 1. The energies stay the
same, no local time rises, and since R is concave with R(0) = 0 each rate
term becomes alpha R(s p) >= alpha s R(p) = alpha_r R(p). The exact
problem is feasible there, so the verdict is feasible (the rule below);
the 1e-6 margin covers rounding in alpha_r. bss_solve takes that delay as
its feasible end and asks no oracle for a bracket top or halving at or
above it, free or pinned.

Lower certificate. _relaxed_residual(alpha) is the max rate row of the
relaxed allocation: every power at p_max, the rate window alpha, free
ratios at the frontier pass's floors max(0, 1 - alpha/T_j, 1 -
e_max/E_j), pinned ratios at their value with their local rows too. No
witness any branch builds at alpha has a smaller residual, in floats:
its rate rows come from _p_max_rows, the one loop that evaluates rows at
p_max, in _max_residual's expression order, and rounding is monotone, so
a row cannot fall when its prefix bits do not fall and its window times
rate does not rise. Per branch:
- frontier pass (two or more users, no server): each ratio is its floor
  plus offloaded bits, capped at 1, each power is capped at p_max, and
  the window is alpha, so every rate row is at least the bound's;
- fixed point (a server): the last pass's witness, with the same floors
  and caps, at its own window alpha - c_s W <= alpha;
- pinned ratios: the same ratios, so the local rows are equal, powers at
  their energy caps, at most p_max, and the window alpha less a
  nonnegative server time;
- one user, free ratio, no server: the witness's share is beta(p) =
  min(1, alpha R(p) / L) at some p <= p_max, so it is at most beta(p_max)
  and its local row is at least the local row at beta(p_max), which is
  the bound here. The rate row at the floors would equal it in exact
  arithmetic, but it is not ordered against the witness's local row in
  floats, and this witness does not floor its share by the energy
  budget.
The bound does not rise with alpha (the floors and the local rows fall,
alpha R rises; in floats too, as rounding is monotone), so once it
exceeds EPS_FEAS every smaller delay is infeasible too, and once it is
<= EPS_FEAS so is it at every larger delay. bss_solve evaluates it at
alpha_r (1 - 1e-6), with or without a server and whether or not alpha_r
is exact, and at each halving that nothing else decides, before it asks
the oracle, until it first reads <= EPS_FEAS; halvings at or above that
delay skip it. A pinned top T_max 2^k at or below alpha_r (1 - 1e-6) is
infeasible without a call, but the last top is always asked, so its
residual names a failure.

Certificate from a feasible delay alpha_u: free ratios, one user or
more, no server, alpha_r not exact. The allocation A(alpha) puts every
power at p_max and each ratio at min(1, max(0, 1 - alpha/T_j, 1 - (e_max
- alpha p_max)/E_j)): its local-time floor or the least share whose
local energy leaves room for alpha p_max. While alpha p_max <= e_max it
meets every local-time, energy and box row by construction. Each ratio
is then a max of lines in alpha, so each prefix rate row sum_{j<=m} L_j
beta_j(alpha) - alpha R_m is convex and piecewise linear, with breaks at
T_j, (e_max - E_j)/p_max and e_max/(E_j/T_j + p_max). The delays at
which A meets every row form an interval, not a ray, as the energy
floors rise with alpha. Its left end in [alpha_r, e_max/p_max], alpha_u,
comes from the sorted breaks: between two of them every row is a line,
the rows that fall through zero bound the delay from below and those
that rise through it from above. That takes O(M^2) steps and no
iterative search. bss_solve evaluates A's rate rows at alpha_c = alpha_u
(1 + 1e-6) with _p_max_rows, in _max_residual's expression order. When
every row is <= 0 and alpha_c p_max <= e_max, the exact problem is
feasible at alpha_c, and at every larger delay by the power scaling of
the upper certificate, so alpha_c is the feasible end: no bracket top or
halving at or above it asks the oracle.

The probe. alpha_u bounds the optimum only from above, so bss_solve asks
the oracle once at alpha_u (1 - 1e-6), when that delay lies inside the
bracket and above the lower certificate's reach. An infeasible verdict
means the exact problem is infeasible there (the rule below), and so at
every smaller delay: the least max residual r*(alpha) does not rise with
alpha, by the same power scaling. Every halving at or below the probe
is then taken as infeasible. Plain bisection would read one of them
feasible only if its witness's residual fell in the (0, EPS_FEAS] band
below the optimum, where the verdict may go either way anyway, so the
reported delay stays optimal within eps up to that band. The 1e-6 gap
keeps the probe below the band, which makes the certified verdicts
equal plain bisection's. On binding draws alpha_u lies close to the
optimum (within 1.2e-8 relative on 469 binding s1 draws), and the
witness's residual rises about as fast as the relative distance below
the optimum (9.7e-8 or more at 1e-7 below it on the same draws), so at
1e-6 below alpha_u it is near 1e-6, about a hundred times EPS_FEAS. A probe
that reads feasible decides nothing; where alpha_u sits far above the
optimum (envelope draws with large p_max) it costs one wasted call.

One verdict rule decides every call. Each branch builds its witness on
the exact bounds, and the delay is feasible when that witness's max
normalized residual is <= EPS_FEAS, one fixed threshold of 1e-8 that no
caller sets. If the exact problem is feasible, the witness meets every
constraint to rounding, so the verdict is feasible; a feasible verdict's
witness violates no constraint by more than EPS_FEAS. Inside the
(0, EPS_FEAS] band the verdict may go either way: it is not the minimax
verdict (is the least max residual <= EPS_FEAS?), which no branch
computes. A bisection halving gets the same verdict as
check_feasibility, without building the witness's Allocation. The
closed form's candidate filter and the command line's check on a closed
form read the same threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import (
    Allocation,
    ChannelRealization,
    ScenarioConfig,
    UsageError,
)

__all__ = [
    "EPS_FEAS",
    "FeasibilityReport",
    "SolveResult",
    "InfeasibleScenarioError",
    "max_violation",
    "check_feasibility",
    "bss_solve",
]

_LN2 = math.log(2.0)
_NEWTON_MAX = 60
# the certificates start at alpha_r (1 +- this) and alpha_u (1 + this), and
# the probe sits at alpha_u (1 - this)
_SEED_SPREAD = 1e-6
EPS_FEAS = 1e-8  # the one verdict threshold: feasible iff the witness's residual <= this


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
    is feasible when it is <= EPS_FEAS, the one rule of every branch. The
    witness is always built: at alpha <= 0 it is every free ratio at 0
    (pinned ones at their value) with zero power, residual inf. For
    the single-user branch the witness is the minimum-energy point, and
    for pinned ratios the point with every power at its energy cap. For
    the frontier pass a feasible witness is the least-bits end of the last
    frontier; an infeasible one is the point that comes closest to meeting
    the first prefix rate constraint the pass cannot meet (earlier users on
    the frontier, later users at their least share, powers at the energy
    cap), and its residual, > EPS_FEAS, bounds the minimax value from
    above. With a server the residual is taken at the witness's own rate
    window, alpha less the server time of its offloaded bits; an
    infeasible witness is the last pass of the fixed-point loop.
    """

    feasible: bool
    witness: Allocation
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


def max_violation(alpha: float, alloc: Allocation, gains, config: ScenarioConfig) -> float:
    """Max normalized violation of every constraint at alpha; <= 0 means all hold.

    The rows, each signed so that <= 0 means satisfied: per rate prefix m,
    (sum_{j<=m} beta_j L_j - w R_m(p)) / sum_{j<=m} L_j, where R_m is the
    prefix's uplink rate and w the rate window (alpha less the server time
    of the offloaded bits, alpha without a server); per user, the local
    time (T_j (1 - beta_j) - alpha) / max_k T_k and the energy budget
    (E_j (1 - beta_j) + alpha p_j - e_max) / e_max; and the box bounds
    -beta_j, beta_j - 1, -p_j / p_max and p_j / p_max - 1. Computed in
    scalar arithmetic. alpha must be finite and > 0, else UsageError.
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
    """Total offloaded bits sum_j beta_j L_j, added left to right from 0.0."""
    bits = 0.0
    for (size, _, _), beta in zip(specs, betas):
        bits += beta * size
    return bits


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


def _exact_single_user(alpha: float, g: float, specs, config: ScenarioConfig) -> tuple:
    """(betas, powers, residual) for one user with a free ratio and no server.

    Evaluates the minimum-energy admissible allocation derived in the
    module docstring, in plain float arithmetic.
    """
    ((bits, t_loc, e_loc),) = specs
    band = config.bandwidth
    p_lo = max(0.0, _pow2m1(bits / band * (1.0 / alpha - 1.0 / t_loc)) / g)
    p_full = _pow2m1(bits / (alpha * band)) / g
    p_s = e_loc * band / (bits * _LN2) - 1.0 / g
    p = min(max(min(max(p_s, 0.0), p_full), p_lo), config.p_max)
    rate = band * math.log1p(g * p) / _LN2
    beta = min(1.0, alpha * rate / bits)
    return (beta,), (p,), _max_residual(alpha, alpha, (g,), specs, config, (beta,), (p,))


def _floors(alpha: float, specs, e_max: float) -> list:
    """Each free ratio's least share at delay alpha: the local-time bound and
    a budget that leaves p >= 0."""
    return [max(0.0, 1.0 - alpha / t_loc, 1.0 - e_max / e_loc) for _, t_loc, e_loc in specs]


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
    itself), the local-time and energy bounds alpha. The frontier holds
    only the rising piece of each user's SNR, from its floor to the knee
    where the power reaches p_max: the flat rest carries no witness bit
    (module docstring), so a pass with no rising piece takes O(M) steps.
    Returns (feasible, betas, powers). A feasible pass gives the
    least-bits point of the last frontier. An infeasible pass gives the
    point that comes closest to meeting the first prefix it cannot meet,
    with the later users at their least offload.
    """
    c = window * config.bandwidth / _LN2  # prefix m needs c ln(1 + S) >= U
    e_max, p_max = config.e_max, config.p_max
    # least share and the power at the energy cap there
    floors = _floors(alpha, specs, e_max)
    p_floor = [
        min(p_max, max(0.0, (e_max - e_loc * (1.0 - lo)) / alpha))
        for lo, (_, _, e_loc) in zip(floors, specs)
    ]
    extra = [0.0] * len(specs)  # bits offloaded beyond the floor, by owner
    segs: list[list] = []  # [slope, owner, length], slope descending, ties by owner
    u0 = s0 = 0.0
    feasible = True
    for m, ((size, _, energy), gain, lo) in enumerate(zip(specs, g, floors)):
        knee = min(1.0, max(lo, 1.0 - (e_max - alpha * p_max) / energy))
        u0 += lo * size
        s0 += gain * p_floor[m]
        # user m's SNR at its energy cap rises until the power reaches p_max
        # at the knee; the flat rest carries no witness bit (module docstring)
        length = (knee - lo) * size
        if length > 0.0:
            slope = gain * energy / (alpha * size)
            at = 0
            while at < len(segs) and segs[at][0] >= slope:
                at += 1
            segs.insert(at, [slope, m, length])
        if not segs:  # K at the frontier's only point
            feasible = c * math.log1p(s0) - u0 >= 0.0
            if feasible:
                continue
            break

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


def _relaxed_delay(g, specs, config: ScenarioConfig, pinned=None) -> tuple:
    """(alpha_r, exact): the least delay with every energy budget dropped, no server.

    Every power sits at p_max and every free ratio at its local-time
    floor; pinned ratios stay pinned. alpha_r bounds the optimum from
    below, and exact says that allocation at alpha_r meets every budget,
    so alpha_r is the optimum (see the module docstring).
    """
    band, p_max = config.bandwidth, config.p_max
    snr = bits = alpha_r = 0.0
    if pinned is not None:
        for (size, t_loc, _), gain, beta in zip(specs, g, pinned):
            snr += gain * p_max
            bits += beta * size
            rate = band * math.log1p(snr) / _LN2
            if bits > 0.0:  # a rate that underflows to 0 carries no bits in any time
                alpha_r = max(alpha_r, bits / rate if rate > 0.0 else math.inf)
            alpha_r = max(alpha_r, t_loc * (1.0 - beta))
        local = [1.0 - beta for beta in pinned]
    else:
        prefix = []
        per_time, t_min = 0.0, math.inf  # sum of L_j / T_j and least T_j over the prefix
        for (size, t_loc, _), gain in zip(specs, g):
            snr += gain * p_max
            rate = band * math.log1p(snr) / _LN2
            prefix.append((size, t_loc))
            bits += size
            per_time += size / t_loc
            t_min = min(t_min, t_loc)
            root = bits / (rate + per_time)
            if not t_min > root:  # some floor is 0 at the root, or the root is nan
                # drop the users whose floor is 0 at the root until none is
                # left to drop
                active = prefix
                while True:
                    # left to right: builtin sum is compensated from Python 3.12
                    kept_bits = kept_per_time = 0.0
                    for s, t in active:
                        kept_bits += s
                        kept_per_time += s / t
                    root = kept_bits / (rate + kept_per_time)
                    kept = [(s, t) for s, t in active if t > root]
                    if len(kept) in (0, len(active)):  # none left only when the rate is 0
                        break
                    active = kept
            alpha_r = max(alpha_r, root)
        local = [min(1.0, alpha_r / t_loc) for _, t_loc, _ in specs]
    exact = all(
        e_loc * share + alpha_r * p_max <= config.e_max
        for (_, _, e_loc), share in zip(specs, local)
    )
    return alpha_r, exact


def _relaxed_residual(alpha: float, g, specs, config: ScenarioConfig, pinned=None) -> float:
    """A lower bound on the residual of every oracle witness at delay alpha > 0.

    The max rate row of the relaxed allocation: every power at p_max, the
    rate window alpha, the free ratios at the frontier pass's floors and
    pinned ratios at their value, which also get their local rows. One user
    with a free ratio and no server takes the local row at the largest
    share p_max allows instead. The rate rows come from _p_max_rows and the
    local rows keep _max_residual's expression order too, so the bound holds in
    floats, and it does not rise with alpha (see the module docstring).
    """
    band, p_max = config.bandwidth, config.p_max
    if pinned is None and len(g) == 1 and config.server is None:
        ((size, t_loc, _),) = specs
        rate = band * math.log1p(g[0] * p_max) / _LN2
        beta = min(1.0, alpha * rate / size)
        return (t_loc * (1.0 - beta) - alpha) / t_loc
    if pinned is None:
        return max(_p_max_rows(alpha, g, specs, config, _floors(alpha, specs, config.e_max)))
    t_max = max(t_loc for _, t_loc, _ in specs)
    local = [(t_loc * (1.0 - beta) - alpha) / t_max for (_, t_loc, _), beta in zip(specs, pinned)]
    return max(*local, *_p_max_rows(alpha, g, specs, config, pinned))


def _p_max_rows(alpha: float, g, specs, config: ScenarioConfig, betas) -> list:
    """The prefix rate rows at the given ratios, every power at p_max and the
    window alpha, in _max_residual's expression order."""
    band, p_max = config.bandwidth, config.p_max
    bits = snr = prefix = 0.0
    rows = []
    for (size, _, _), gain, beta in zip(specs, g, betas):
        bits += beta * size
        snr += gain * p_max
        prefix += size
        rate = band * math.log1p(snr) / _LN2
        rows.append((bits - alpha * rate) / prefix)
    return rows


def _floor_betas(alpha: float, specs, config: ScenarioConfig) -> list:
    """The ratios of A(alpha): each at its local-time or energy floor at p_max, in [0, 1]."""
    e_max, p_max = config.e_max, config.p_max
    return [
        min(1.0, max(0.0, 1.0 - alpha / t_loc, 1.0 - (e_max - alpha * p_max) / e_loc))
        for _, t_loc, e_loc in specs
    ]


def _floor_rows(alpha: float, g, specs, config: ScenarioConfig) -> list:
    """The prefix rate rows of A(alpha)."""
    return _p_max_rows(alpha, g, specs, config, _floor_betas(alpha, specs, config))


def _floor_delay(alpha_r: float, g, specs, config: ScenarioConfig) -> float:
    """alpha_u: the least delay in [alpha_r, e_max / p_max] at which A(alpha)
    meets every prefix rate row, inf if there is none.

    Each row is convex and piecewise linear in alpha, with breaks where a
    ratio's floor changes: at T_j, (e_max - E_j) / p_max and e_max / (E_j /
    T_j + p_max). Between sorted breaks every row is a line, so the rows
    that fall through zero bound the delay from below and those that rise
    through it from above.
    """
    e_max, p_max = config.e_max, config.p_max
    top = e_max / p_max
    if not alpha_r <= top:
        return math.inf
    breaks = (
        x
        for _, t_loc, e_loc in specs
        for x in (t_loc, (e_max - e_loc) / p_max, e_max / (e_loc / t_loc + p_max))
    )
    xs = sorted({alpha_r, top, *(x for x in breaks if alpha_r < x < top)})
    prev = _floor_rows(xs[0], g, specs, config)
    if max(prev) <= 0.0:
        return xs[0]
    for a, b in zip(xs, xs[1:]):
        rows = _floor_rows(b, g, specs, config)
        left, right = a, b
        for at_a, at_b in zip(prev, rows):
            if at_a > 0.0 and at_b > 0.0:
                left = math.inf
            elif at_a > 0.0:
                left = max(left, min(b, a + (b - a) * at_a / (at_a - at_b)))
            elif at_b > 0.0:
                right = min(right, a + (b - a) * at_a / (at_a - at_b))
        if left <= right:
            return left
        prev = rows
    return math.inf


def _floor_certificate(alpha_r: float, g, specs, config: ScenarioConfig) -> tuple:
    """(alpha_u, yes_from) for free ratios without a server.

    yes_from is alpha_u (1 + 1e-6) when A meets every rate row there in
    floats and its energy rows can hold (alpha p_max <= e_max), else inf:
    every delay from yes_from up is feasible (module docstring).
    """
    alpha_u = _floor_delay(alpha_r, g, specs, config)
    at = alpha_u * (1.0 + _SEED_SPREAD)
    if at * config.p_max <= config.e_max and max(_floor_rows(at, g, specs, config)) <= 0.0:
        return alpha_u, at
    return alpha_u, math.inf


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


class _Oracle:
    """One scenario's oracle inputs, checked and precomputed once.

    The gains (one finite positive value per user) and the pinned ratios
    (one in [0, 1] per user) are checked here, else UsageError. Both
    report() and holds() run the same branch once and apply the one
    verdict rule of the module docstring; report() also builds the
    witness, while holds() returns only the verdict, which is all a
    bisection halving needs, so bss_solve builds one _Oracle per solve
    and no allocation per halving. Every witness with each power at its
    energy cap (pinned ratios, and the floors of a pass with no rising
    piece) comes from the one loop _capped_run.
    """

    def __init__(self, gains, config: ScenarioConfig, fixed_betas=None):
        n = len(config.users)
        self.g = _gain_tuple(gains, n)
        self.pinned = None if fixed_betas is None else _pinned_ratios(fixed_betas, n)
        self.config = config
        self.specs = _specs(config)
        self.coef = _server_coef(config)
        # the server time of the pinned bits: every pinned window is alpha less it
        self.server_time = 0.0
        if self.pinned is not None and self.coef:
            self.server_time = self.coef * _offloaded_bits(self.specs, self.pinned)
        self.t_max = max(t_loc for _, t_loc, _ in self.specs)

    def report(self, alpha: float) -> FeasibilityReport:
        """Verdict and witness at delay alpha."""
        if alpha <= 0.0:
            n = len(self.g)
            betas = (0.0,) * n if self.pinned is None else self.pinned
            return FeasibilityReport(False, Allocation(betas, (0.0,) * n), math.inf, 0)
        betas, powers, residual = self._decide(alpha)
        witness = Allocation(betas=tuple(betas), powers=tuple(powers))
        return FeasibilityReport(residual <= EPS_FEAS, witness, residual, 0)

    def holds(self, alpha: float) -> bool:
        """report(alpha).feasible for alpha > 0, without building the report."""
        return self._decide(alpha)[2] <= EPS_FEAS

    def _decide(self, alpha: float) -> tuple:
        """(betas, powers, residual) of the branch's witness at delay alpha > 0."""
        g, config = self.g, self.config
        if self.pinned is not None:
            return self._capped_run(alpha, alpha - self.server_time, self.pinned)
        if len(g) == 1 and config.server is None:
            return _exact_single_user(alpha, g[0], self.specs, config)
        return self._free_run(alpha)

    def _free_run(self, alpha: float) -> tuple:
        """Free ratios: frontier passes at the windows alpha - c_s W.

        Without a server the one pass's witness, when _flat_floors finds no
        rising SNR piece, is the floors with capped powers, which
        _capped_run builds and scores; otherwise it comes from
        _frontier_pass and _max_residual. With a server W <- U_min from
        W = 0 until the witness's residual at its own window is
        <= EPS_FEAS, a pass fails, W stops rising or the next window is
        not positive. Returns (betas, powers, residual).
        """
        g, specs, config, coef = self.g, self.specs, self.config, self.coef
        if not coef:
            floors = self._flat_floors(alpha)
            if floors is not None:
                return self._capped_run(alpha, alpha, floors)
        total, window = 0.0, alpha
        while True:
            feasible, betas, powers = _frontier_pass(alpha, window, g, specs, config)
            bits = coef and _offloaded_bits(specs, betas)  # 0, one pass, without a server
            own = alpha - coef * bits
            residual = _max_residual(alpha, own, g, specs, config, betas, powers)
            if residual <= EPS_FEAS or not feasible or bits <= total or own <= 0.0:
                return betas, powers, residual
            total, window = bits, own

    def _flat_floors(self, alpha: float) -> Optional[list]:
        """The frontier floors at delay alpha, None if some user's SNR piece rises.

        With no rising piece the one frontier pass at window alpha keeps an
        empty frontier, so its witness has every ratio at its floor and every
        power at its energy cap there, whether or not some K_m < 0 ends it.
        """
        e_max = self.config.e_max
        # the most local energy that leaves room for p_max
        room = e_max - alpha * self.config.p_max
        floors = []
        for size, t_loc, e_loc in self.specs:
            lo = max(0.0, 1.0 - alpha / t_loc, 1.0 - e_max / e_loc)  # _floors' expression
            if (min(1.0, max(lo, 1.0 - room / e_loc)) - lo) * size > 0.0:  # knee above lo
                return None
            floors.append(lo)
        return floors

    def _capped_run(self, alpha: float, window: float, betas) -> tuple:
        """(betas, powers, residual) with every power at its energy cap.

        Each power is min(max((e_max - E_j (1 - beta_j)) / alpha, 0), p_max)
        and the rate rows see ``window``. Each capped power and its rows come
        from one loop, in the frontier pass's and _max_residual's expression
        order, so the result is theirs to the bit.
        """
        config, t_max = self.config, self.t_max
        e_max, p_max, band = config.e_max, config.p_max, config.bandwidth
        powers = []
        bits = snr = prefix = 0.0
        worst = -math.inf
        for (size, t_loc, e_loc), gain, beta in zip(self.specs, self.g, betas):
            local = e_loc * (1.0 - beta)
            p = min(p_max, max(0.0, (e_max - local) / alpha))
            powers.append(p)
            bits += beta * size
            snr += gain * p
            prefix += size
            rate = band * math.log1p(snr) / _LN2
            worst = max(
                worst,
                (bits - window * rate) / prefix,
                (t_loc * (1.0 - beta) - alpha) / t_max,
                (local + alpha * p - e_max) / e_max,
            )
        return betas, powers, worst


def check_feasibility(
    alpha: float,
    gains,
    config: ScenarioConfig,
    fixed_betas: Optional[Sequence[float]] = None,
) -> FeasibilityReport:
    """Decide whether any allocation meets every constraint at delay alpha.

    Returns a report whose witness attains the reported max violation;
    the call is feasible when that violation is <= EPS_FEAS (1e-8). Every
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
    return _Oracle(gains, config, fixed_betas).report(alpha)


def bss_solve(
    gains,
    config: ScenarioConfig,
    eps: float = 1e-4,
    fixed_betas: Optional[Sequence[float]] = None,
) -> SolveResult:
    """Least common delay by bisection on the feasibility oracle.

    Every oracle call, with or without a server, is decided by the one
    verdict rule of the module docstring, so the delay is globally
    optimal within eps, up to the (0, EPS_FEAS] band of that rule.

    The bracket runs from 0 to the fully-local time T_max; with pinned
    ratios the top doubles while infeasible, trying T_max 2^k, k < 60.

    Performs ceil(log2(bracket / eps)) halvings, fewer only when no float
    lies strictly between the bracket's ends. The halvings are
    verdict-only: no allocation is built. The three certificates of the
    module docstring decide a halving or a bracket top without an oracle
    call: feasible at or above alpha_r (1 + 1e-6) when the energy-relaxed
    delay alpha_r is exact and there is no server; infeasible where the
    relaxed residual exceeds EPS_FEAS; and, for free ratios without a
    server when alpha_r is not exact, feasible at or above alpha_u (1 +
    1e-6) when the allocation A(alpha_u (1 + 1e-6)) meets every rate row.
    In that last case one oracle probe at alpha_u (1 - 1e-6) that reads
    infeasible decides every halving at or below it. The trace, the
    delay and the allocation are those of plain bisection.
    check_feasibility decides each bracket top no certificate decides
    and certifies the returned allocation with one call at the reported
    delay plus eps (or at the bracket's feasible end, if that is later,
    as when eps is below the float spacing), so the stored residual is
    meaningful at that level; should that call fail, the witness is
    rebuilt at the bracket's feasible end.

    Raises InfeasibleScenarioError, naming the last top tried, when no
    top is feasible, or naming the last finite top when doubling T_max
    leaves the float range. T_max bounds a free-ratio optimum when every
    user's fully-local energy is within e_max; when one is not, a
    feasible delay above T_max may exist, yet free ratios still try
    T_max alone.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise UsageError("eps must be finite and > 0")
    oracle = _Oracle(gains, config, fixed_betas)
    g, specs, pinned, t_max = oracle.g, oracle.specs, oracle.pinned, oracle.t_max
    lo = 0.0
    # the certificates of the module docstring: every delay from yes_from
    # up is feasible, every delay up to no_to infeasible, with no oracle call
    yes_from, no_to, probe = math.inf, lo, math.inf
    alpha_r, exact = _relaxed_delay(g, specs, config, pinned)
    if 0.0 < alpha_r < math.inf:  # else a rate over- or underflowed: certify nothing
        if exact and config.server is None:
            yes_from = alpha_r * (1.0 + _SEED_SPREAD)
        elif pinned is None and config.server is None:
            alpha_u, yes_from = _floor_certificate(alpha_r, g, specs, config)
            probe = alpha_u * (1.0 - _SEED_SPREAD)
        below = alpha_r * (1.0 - _SEED_SPREAD)
        if _relaxed_residual(below, g, specs, config, pinned) > EPS_FEAS:
            no_to = below
    # pinned ratios: T_max bounds nothing, so try the tops T_max 2^k; the
    # last top is always asked, so its residual names the failure
    tops = 1 if pinned is None else 60
    for k in range(tops):
        hi = t_max * 2.0**k
        if hi == math.inf:
            raise InfeasibleScenarioError(
                f"no feasible allocation at the bracket top {t_max * 2.0 ** (k - 1):.6g} s "
                "(the next top is not finite)"
            )
        if hi >= yes_from:
            break
        if hi <= no_to and k < tops - 1:
            continue
        top = check_feasibility(hi, gains, config, fixed_betas)
        if top.feasible:
            break
    else:
        raise InfeasibleScenarioError(
            f"no feasible allocation at the bracket top {hi:.6g} s "
            f"(max violation {top.residual:.3g})"
        )
    # an infeasible verdict just below alpha_u settles every halving below it
    if no_to < probe < hi and not oracle.holds(probe):
        no_to = probe
    relaxed_ok = math.inf  # _relaxed_residual <= EPS_FEAS here, so at every larger delay
    trace = []
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # eps is below the float spacing of the bracket
        if mid >= yes_from:
            feasible = True
        elif mid <= no_to:
            feasible = False
        elif mid < relaxed_ok and _relaxed_residual(mid, g, specs, config, pinned) > EPS_FEAS:
            feasible = False
        else:
            relaxed_ok = min(relaxed_ok, mid)
            feasible = oracle.holds(mid)
        trace.append((mid, feasible))
        if feasible:
            hi = mid
        else:
            lo = mid
    alpha_star = 0.5 * (lo + hi)

    # alpha* + eps rounds to alpha* when eps is below the bracket's float
    # spacing, and alpha* may be its infeasible end; hi is always feasible
    at = max(alpha_star + eps, hi)
    cert = check_feasibility(at, gains, config, fixed_betas)
    if cert.feasible:
        witness = cert.witness
        residual = cert.residual
        converged = True
    else:
        witness = check_feasibility(hi, gains, config, fixed_betas).witness
        residual = max_violation(at, witness, gains, config)
        converged = residual <= EPS_FEAS
    return SolveResult(
        optimal_delay=alpha_star,
        allocation=witness,
        iterations=len(trace),
        trace=tuple(trace),
        converged=converged,
        feasibility_residual=residual,
    )
