import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from nomamec import (
    ChannelRealization,
    EqualTimeInfeasible,
    ScenarioConfig,
    Seed,
    UserSpec,
    generate_channels,
    reorder_users,
    solve_two_user,
)

# Reference scenario: two users, 1 MHz band, 1.6 Mb tasks, 1 GHz local CPUs,
# kappa (1e-27, 1e-28), P_max 10 mW, E_max 0.2 J. Master seed 0 draws a
# channel pair that admits the analytic equal-time solution.
S1_MASTER_SEED = 0


def s1_config() -> ScenarioConfig:
    return ScenarioConfig(
        bandwidth=1e6,
        noise_density_dbm=-174.0,
        users=(
            UserSpec(task_bits=1.6e6, cycles_per_bit=1e3, cpu_freq=1e9, kappa=1e-27),
            UserSpec(task_bits=1.6e6, cycles_per_bit=1e3, cpu_freq=1e9, kappa=1e-28),
        ),
        p_max=0.01,
        e_max=0.2,
    )


@pytest.fixture()
def no_slsqp(monkeypatch):
    """Make any SLSQP call inside the library fail the test."""

    def forbidden(*args, **kwargs):
        raise AssertionError("SLSQP called inside the library")

    monkeypatch.setattr("nomamec.solver.minimize", forbidden)


@pytest.fixture()
def oracle_reports(monkeypatch):
    """Every report the module-level check_feasibility returns, in call order.

    bss_solve makes its witness calls (bracket top, certification) there;
    its halvings are verdict-only and do not show.
    """
    from nomamec import solver

    reports = []
    oracle = solver.check_feasibility

    def recording(*args, **kwargs):
        reports.append(oracle(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(solver, "check_feasibility", recording)
    return reports


@pytest.fixture()
def s1():
    """(realization, SIC-ordered config) for the reference scenario."""
    cfg = s1_config()
    realization = generate_channels(Seed(master=S1_MASTER_SEED), cfg)
    return realization, reorder_users(cfg, realization)


def draw_envelope_scenario(
    rng: np.random.Generator, p_max_high: float = 0.05, n_users: int = 2
):
    """One random scenario from the reference parameter envelope, unfiltered."""
    p_max = float(10 ** rng.uniform(np.log10(0.005), np.log10(p_max_high)))
    e_max = float(rng.uniform(0.1, 0.4))
    users = tuple(
        UserSpec(
            task_bits=float(rng.uniform(0.5e6, 3e6)),
            cycles_per_bit=1e3,
            cpu_freq=1e9,
            kappa=float(10 ** rng.uniform(-28.0, -26.7)),
        )
        for _ in range(n_users)
    )
    cfg = ScenarioConfig(
        bandwidth=1e6, noise_density_dbm=-174.0, users=users, p_max=p_max, e_max=e_max
    )
    master = int(rng.integers(0, 2**32))
    realization = generate_channels(Seed(master=master), cfg)
    return realization, reorder_users(cfg, realization)


def feasible_two_user_scenarios(
    count: int,
    seed: int = 2024,
    p_max_high: float = 0.05,
    energy_slack_only: bool = False,
):
    """(realization, cfg, sol) triples on which the analytic structure is attainable.

    Rejection-sampled from the envelope; "feasible" means solve_two_user
    returns a solution instead of raising EqualTimeInfeasible, so sol
    meets every constraint at its delay (max_violation <= 1e-8). With
    energy_slack_only the draw must also be Case1 with both energy
    budgets strictly slack at full power: tau (E_j/T_j + p_max) <= 0.999
    e_max at the Case1 delay tau. There both local-time constraints bind
    at the optimum and the closed form is the true optimum; elsewhere a
    tight budget can let the bisection solver trade extra offloading for
    transmit power and win (ROADMAP item 6 lists the active sets the
    closed form does not cover yet).
    """
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 80 * count:
            raise RuntimeError("envelope rejection sampling is stuck")
        realization, cfg = draw_envelope_scenario(rng, p_max_high)
        try:
            sol = solve_two_user(realization, cfg)
        except EqualTimeInfeasible:
            continue
        if energy_slack_only:
            if sol.case_label != "Case1":
                continue
            slack_ok = all(
                sol.delay * (u.kappa * u.cpu_freq**3 + cfg.p_max) <= 0.999 * cfg.e_max
                for u in cfg.users
            )
            if not slack_ok:
                continue
        out.append((realization, cfg, sol))
    return out


def random_gain_power_instance(rng: np.random.Generator, max_users: int = 8):
    """Random positive (gains, powers) pair for rate-identity checks."""
    m = int(rng.integers(1, max_users + 1))
    gains = np.sort(10 ** rng.uniform(2, 7, m))
    powers = rng.uniform(0.0, 1.0, m)
    return ChannelRealization(gains=tuple(gains)), powers


def residuals(alpha, gains, cfg, beta, p):
    """Normalized residuals of every constraint; <= 0 means the constraint holds.

    Rows: rate prefixes (M), local times (M), energy budgets (M), then the
    box bounds beta >= 0, beta <= 1, p >= 0, p <= p_max (M each). With a
    server every rate constraint sees the window alpha less the server
    time of all offloaded bits.
    """
    g = gains.gains if isinstance(gains, ChannelRealization) else gains
    beta, p = np.asarray(beta, dtype=float), np.asarray(p, dtype=float)
    bits = np.array([u.task_bits for u in cfg.users])
    t_loc = np.array([u.local_full_time for u in cfg.users])
    e_loc = np.array([u.local_full_energy for u in cfg.users])
    window = alpha
    if cfg.server is not None:
        window = alpha - cfg.server.cycles_per_bit / cfg.server.cpu_freq * float(beta @ bits)
    rate = cfg.bandwidth * np.log2(1.0 + np.cumsum(np.asarray(g) * p))
    return np.concatenate([
        (np.cumsum(beta * bits) - window * rate) / np.cumsum(bits),
        (t_loc * (1.0 - beta) - alpha) / t_loc.max(),
        (e_loc * (1.0 - beta) + alpha * p - cfg.e_max) / cfg.e_max,
        -beta, beta - 1.0, -p / cfg.p_max, p / cfg.p_max - 1.0,
    ])


def minimax(alpha, gains, cfg, shares=(0.0, 1.0, 0.5)):
    """Least max residual SLSQP finds over (beta, p / p_max) in the unit box.

    One SLSQP run per start; each start puts every share at the given
    fraction of the way from its local-time floor to 1, powers at the
    energy cap.
    """
    n = cfg.num_users
    t_loc = np.array([u.local_full_time for u in cfg.users])
    e_loc = np.array([u.local_full_energy for u in cfg.users])

    def split(z):
        return z[:n], z[n:2 * n] * cfg.p_max

    def core(beta, p):
        # the bounds hold the box rows
        return residuals(alpha, gains, cfg, beta, p)[:3 * n]

    floor = np.clip(1.0 - alpha / t_loc, 0.0, 1.0)
    best = math.inf
    for share in shares:
        beta0 = floor + share * (1.0 - floor)
        p0 = np.clip((cfg.e_max - e_loc * (1.0 - beta0)) / alpha, 0.0, cfg.p_max)
        x0 = np.concatenate([beta0, p0 / cfg.p_max])
        z0 = np.append(x0, core(beta0, p0).max())
        res = minimize(
            lambda z: z[-1], z0, method="SLSQP",
            bounds=[(0.0, 1.0)] * (2 * n) + [(None, None)],
            constraints=[{"type": "ineq",
                          "fun": lambda z: z[-1] - core(*split(z))}],
            options={"maxiter": 500, "ftol": 1e-15},
        )
        best = min(best, core(*split(np.clip(res.x, 0.0, 1.0))).max())
        if best <= 0.0:
            break
    return best


def least_shares(alpha, powers, cfg):
    """Each user's least offload share at delay alpha and the given powers.

    max(0, 1 - alpha/T_j, 1 - (e_max - alpha p_j)/E_j): the smallest share
    that meets user j's local time and energy budget. powers may be a
    sequence of arrays; the shares broadcast with them.
    """
    return [
        np.maximum.reduce([
            np.zeros_like(p),
            1.0 - alpha / u.local_full_time,
            1.0 - (cfg.e_max - alpha * p) / u.local_full_energy,
        ])
        for u, p in zip(cfg.users, np.asarray(powers, dtype=float))
    ]


def reference_two_user(gains, cfg, n=64, zooms=6):
    """(delay, shares, powers) of the full two-user problem, no server.

    At fixed powers each least share is a maximum of three affine
    functions of alpha (least_shares), so each prefix rate row
    sum_{j<=m} L_j share_j <= alpha R_m(p) expands into 3^m affine rows
    a + b alpha <= 0. With alpha p_j <= e_max these bound alpha by
    half-lines: the feasible delays form an interval whose left end is
    exact. (Bisecting alpha per grid point would be wrong: transmit energy
    alpha p_j grows with alpha.) The left end is minimized over an n-by-n
    power grid on [0, p_max]^2, then `zooms` times over the +-2 cells
    around the best point. Every grid point's left end is feasible, so the
    delay is never below the true optimum. It uses numpy and the UserSpec
    properties only, no solver code. RuntimeError when no grid point is
    feasible at any delay.
    """
    if cfg.num_users != 2 or cfg.server is not None:
        raise ValueError("the reference covers two users without a server")
    g = gains.gains if isinstance(gains, ChannelRealization) else gains

    def left_end(p1, p2):
        powers = (p1, p2)
        # user j's share floors, each share_j >= a + b alpha as (a, b)
        floors = [
            [(0.0, 0.0), (1.0, -1.0 / u.local_full_time),
             (1.0 - cfg.e_max / u.local_full_energy, p / u.local_full_energy)]
            for u, p in zip(cfg.users, powers)
        ]
        rates = cfg.bandwidth * np.log2(1.0 + np.cumsum([g[0] * p1, g[1] * p2], axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            left = np.zeros_like(p1)
            right = np.minimum(cfg.e_max / p1, cfg.e_max / p2)  # alpha p_j <= e_max
            ok = np.ones_like(p1, dtype=bool)
            for m, rate in enumerate(rates, start=1):
                for choice in itertools.product(*floors[:m]):
                    a = sum(u.task_bits * fa for u, (fa, _) in zip(cfg.users, choice))
                    b = sum(u.task_bits * fb for u, (_, fb) in zip(cfg.users, choice)) - rate
                    cut = -a / b
                    left = np.where(b < 0.0, np.maximum(left, cut), left)
                    right = np.where(b > 0.0, np.minimum(right, cut), right)
                    ok &= (b != 0.0) | (a <= 0.0)
        return np.where(ok & (left <= right), left, np.inf)

    lo, hi = np.zeros(2), np.full(2, cfg.p_max)
    delay, powers = math.inf, None
    for _ in range(zooms + 1):
        p1, p2 = np.meshgrid(np.linspace(lo[0], hi[0], n), np.linspace(lo[1], hi[1], n),
                             indexing="ij")
        left = left_end(p1, p2)
        i = np.unravel_index(int(np.argmin(left)), left.shape)
        if left[i] < delay:
            delay, powers = float(left[i]), np.array([p1[i], p2[i]])
        if powers is None:
            raise RuntimeError("no grid point is feasible")
        step = (hi - lo) / (n - 1)
        lo, hi = np.maximum(powers - 2 * step, 0.0), np.minimum(powers + 2 * step, cfg.p_max)
    shares = tuple(float(s) for s in least_shares(delay, powers, cfg))
    return delay, shares, tuple(float(p) for p in powers)


def grid_feasible_two_user(alpha, gains, cfg, n=201):
    """Does any (beta1, beta2) grid point, powers at the energy cap, meet every constraint?

    With a server both rate constraints see the window alpha less the
    server time of the point's offloaded bits.
    """
    u1, u2 = cfg.users
    b1 = np.linspace(0.0, 1.0, n)[:, None]
    b2 = np.linspace(0.0, 1.0, n)[None, :]
    cap1 = (cfg.e_max - u1.local_full_energy * (1.0 - b1)) / alpha
    cap2 = (cfg.e_max - u2.local_full_energy * (1.0 - b2)) / alpha
    p1, p2 = np.clip(cap1, 0.0, cfg.p_max), np.clip(cap2, 0.0, cfg.p_max)
    g1, g2 = gains
    bits1, bits = b1 * u1.task_bits, b1 * u1.task_bits + b2 * u2.task_bits
    window = alpha
    if cfg.server is not None:
        window = alpha - cfg.server.cycles_per_bit / cfg.server.cpu_freq * bits
    ok = (
        (cap1 >= 0.0) & (cap2 >= 0.0)
        & (u1.local_full_time * (1.0 - b1) <= alpha)
        & (u2.local_full_time * (1.0 - b2) <= alpha)
        & (bits1 <= window * cfg.bandwidth * np.log2(1.0 + g1 * p1))
        & (bits <= window * cfg.bandwidth * np.log2(1.0 + g1 * p1 + g2 * p2))
    )
    return bool(ok.any())


def reference_frontier_pass(alpha, window, g, specs, config):
    """The frontier pass with both pieces of every user's SNR on the frontier.

    The solver's pass inserts only each user's rising piece; this one also
    inserts the flat piece past the knee, where the power has reached
    p_max, as a zero-slope segment, and so takes O(M^2) steps even when no
    piece rises. Dropping the flat pieces changes no bit of the result
    (see the solver module docstring), which tests/test_exact_noma.py
    checks against this copy.
    """
    from nomamec.solver import _LN2, _root

    c = window * config.bandwidth / _LN2
    e_max, p_max = config.e_max, config.p_max
    floors = [
        max(0.0, 1.0 - alpha / t_loc, 1.0 - e_max / e_loc) for _, t_loc, e_loc in specs
    ]
    p_floor = [
        min(p_max, max(0.0, (e_max - e_loc * (1.0 - lo)) / alpha))
        for lo, (_, _, e_loc) in zip(floors, specs)
    ]
    extra = [0.0] * len(specs)
    segs = []
    u0 = s0 = 0.0
    for m, ((size, _, energy), gain, lo) in enumerate(zip(specs, g, floors)):
        knee = min(1.0, max(lo, 1.0 - (e_max - alpha * p_max) / energy))
        u0 += lo * size
        s0 += gain * p_floor[m]
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

        def k_at(i, t):
            slope = segs[i][0] if i < n else 0.0
            return c * math.log1p(ss[i] + slope * t) - (us[i] + t)

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


def reference_decide(oracle, alpha):
    """The oracle's (betas, powers, residual) at delay alpha, composed of parts.

    Pinned ratios build the capped-power list and then score it with
    _max_residual; free ratios run _frontier_pass and then _max_residual
    per fixed-point pass (one pass without a server). The solver fuses
    both into one loop per user where it can, which
    tests/test_exact_noma.py checks against this copy bit for bit.
    """
    from nomamec.solver import (
        EPS_FEAS,
        _exact_single_user,
        _frontier_pass,
        _max_residual,
        _offloaded_bits,
        _rate_window,
    )

    g, specs, config, coef = oracle.g, oracle.specs, oracle.config, oracle.coef
    if oracle.pinned is not None:
        betas = oracle.pinned
        powers = [
            min(max((config.e_max - e_loc * (1.0 - beta)) / alpha, 0.0), config.p_max)
            for (_, _, e_loc), beta in zip(specs, betas)
        ]
        window = _rate_window(alpha, config, specs, betas)
        return betas, powers, _max_residual(alpha, window, g, specs, config, betas, powers)
    if len(g) == 1 and config.server is None:
        return _exact_single_user(alpha, g[0], specs, config)
    total, window = 0.0, alpha
    while True:
        feasible, betas, powers = _frontier_pass(alpha, window, g, specs, config)
        bits = coef and _offloaded_bits(specs, betas)
        own = alpha - coef * bits
        residual = _max_residual(alpha, own, g, specs, config, betas, powers)
        if residual <= EPS_FEAS or not feasible or bits <= total or own <= 0.0:
            return betas, powers, residual
        total, window = bits, own


def reference_relaxed_delay(g, specs, config):
    """The solver's _relaxed_delay for free ratios, every prefix root summed afresh by sum()."""
    from nomamec.solver import _LN2

    band, p_max = config.bandwidth, config.p_max
    snr = alpha_r = 0.0
    prefix = []
    for (size, t_loc, _), gain in zip(specs, g):
        snr += gain * p_max
        rate = band * math.log1p(snr) / _LN2
        prefix.append((size, t_loc))
        active = prefix
        while True:
            root = sum(s for s, _ in active) / (rate + sum(s / t for s, t in active))
            kept = [(s, t) for s, t in active if t > root]
            if len(kept) in (0, len(active)):
                break
            active = kept
        alpha_r = max(alpha_r, root)
    exact = all(
        e_loc * min(1.0, alpha_r / t_loc) + alpha_r * p_max <= config.e_max
        for _, t_loc, e_loc in specs
    )
    return alpha_r, exact
