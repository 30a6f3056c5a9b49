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
