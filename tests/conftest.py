import math

import numpy as np
import pytest
from scipy.optimize import minimize

from nomamec import (
    ChannelRealization,
    EqualTimeInfeasible,
    ScenarioConfig,
    Seed,
    TwoUserParams,
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
    """Every report check_feasibility returns to bss_solve, in call order."""
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
    """Scenarios on which the analytic structure is attainable.

    Rejection-sampled from the envelope; "feasible" means solve_two_user
    returns a valid solution instead of signalling the BSS fallback.
    With energy_slack_only the draw must also leave both energy budgets
    strictly slack at full power, the premise under which the analytic
    structure is the true optimum (a tight budget lets the bisection
    solver trade extra offloading for transmit power and win slightly).
    """
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 80 * count:
            raise RuntimeError("envelope rejection sampling is stuck")
        realization, cfg = draw_envelope_scenario(rng, p_max_high)
        params = TwoUserParams.from_scenario(realization, cfg)
        try:
            sol = solve_two_user(params)
        except EqualTimeInfeasible:
            continue
        if energy_slack_only:
            if sol.case_label != "Case1":
                continue
            denom = params.b1 + params.rate(params.p_max, params.p_max)
            slack_ok = all(
                params.a1 * (kf3 + params.p_max) / denom <= 0.999 * params.e_max
                for kf3 in (
                    params.kappa1 * params.f1**3,
                    params.kappa2 * params.f2**3,
                )
            )
            if not slack_ok:
                continue
        out.append((realization, cfg, params, sol))
    return out


def random_gain_power_instance(rng: np.random.Generator, max_users: int = 8):
    """Random positive (gains, powers) pair for rate-identity checks."""
    m = int(rng.integers(1, max_users + 1))
    gains = np.sort(10 ** rng.uniform(2, 7, m))
    powers = rng.uniform(0.0, 1.0, m)
    return ChannelRealization(gains=tuple(gains)), powers


def residuals(alpha, gains, cfg, beta, p):
    """Normalized (rate, local, energy) residuals; <= 0 means the constraint holds.

    With a server every rate constraint sees the window alpha less the
    server time of all offloaded bits.
    """
    bits = np.array([u.task_bits for u in cfg.users])
    t_loc = np.array([u.local_full_time for u in cfg.users])
    e_loc = np.array([u.local_full_energy for u in cfg.users])
    window = alpha
    if cfg.server is not None:
        window = alpha - cfg.server.cycles_per_bit / cfg.server.cpu_freq * float(beta @ bits)
    rate = cfg.bandwidth * np.log2(1.0 + np.cumsum(np.asarray(gains) * p))
    return np.concatenate([
        (np.cumsum(beta * bits) - window * rate) / np.cumsum(bits),
        (t_loc * (1.0 - beta) - alpha) / t_loc.max(),
        (e_loc * (1.0 - beta) + alpha * p - cfg.e_max) / cfg.e_max,
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

    floor = np.clip(1.0 - alpha / t_loc, 0.0, 1.0)
    best = math.inf
    for share in shares:
        beta0 = floor + share * (1.0 - floor)
        p0 = np.clip((cfg.e_max - e_loc * (1.0 - beta0)) / alpha, 0.0, cfg.p_max)
        x0 = np.concatenate([beta0, p0 / cfg.p_max])
        z0 = np.append(x0, residuals(alpha, gains, cfg, beta0, p0).max())
        res = minimize(
            lambda z: z[-1], z0, method="SLSQP",
            bounds=[(0.0, 1.0)] * (2 * n) + [(None, None)],
            constraints=[{"type": "ineq",
                          "fun": lambda z: z[-1] - residuals(alpha, gains, cfg, *split(z))}],
            options={"maxiter": 500, "ftol": 1e-15},
        )
        best = min(best, residuals(alpha, gains, cfg, *split(np.clip(res.x, 0.0, 1.0))).max())
        if best <= 0.0:
            break
    return best


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
