"""The exact multi-user feasibility branch of check_feasibility.

Two or more users with free offload ratios and no edge server are
decided by one frontier pass over the users, with no screening and no
SLSQP. These tests hold its verdict against a brute-force grid (M = 2)
and against an SLSQP minimax reference built here (M = 3..8).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from nomamec import (
    ChannelRealization,
    InfeasibleScenarioError,
    ScenarioConfig,
    UserSpec,
    bss_solve,
    check_feasibility,
    constraint_violations,
)
from nomamec.cli import run_sweep
from nomamec.configio import LoadedScenario
from conftest import draw_envelope_scenario, s1_config


def noma_draws(count, seed, users=(2, 8)):
    """Envelope draws with a random user count and an energy budget of 0.05 to 3 J."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(users[0], users[1] + 1))
        realization, cfg = draw_envelope_scenario(rng, n_users=n)
        yield realization, replace(cfg, e_max=float(10 ** rng.uniform(-1.3, 0.48)))


def solved_draws(count, seed, users=(2, 8)):
    """(realization, config, optimal delay) for the draws that admit an allocation."""
    for realization, cfg in noma_draws(count, seed, users):
        try:
            yield realization, cfg, bss_solve(realization, cfg, eps=1e-7).optimal_delay
        except InfeasibleScenarioError:
            continue


def residuals(alpha, gains, cfg, beta, p):
    """Normalized (rate, local, energy) residuals; <= 0 means the constraint holds."""
    bits = np.array([u.task_bits for u in cfg.users])
    t_loc = np.array([u.local_full_time for u in cfg.users])
    e_loc = np.array([u.local_full_energy for u in cfg.users])
    rate = cfg.bandwidth * np.log2(1.0 + np.cumsum(np.asarray(gains) * p))
    return np.concatenate([
        (np.cumsum(beta * bits) - alpha * rate) / np.cumsum(bits),
        (t_loc * (1.0 - beta) - alpha) / t_loc.max(),
        (e_loc * (1.0 - beta) + alpha * p - cfg.e_max) / cfg.e_max,
    ])


def minimax(alpha, gains, cfg):
    """Least max residual SLSQP finds over (beta, p / p_max) in the unit box."""
    n = cfg.num_users
    t_loc = np.array([u.local_full_time for u in cfg.users])
    e_loc = np.array([u.local_full_energy for u in cfg.users])

    def split(z):
        return z[:n], z[n:2 * n] * cfg.p_max

    floor = np.clip(1.0 - alpha / t_loc, 0.0, 1.0)
    best = math.inf
    for beta0 in (floor, np.ones(n), 0.5 * (floor + 1.0)):
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


def grid_feasible(alpha, gains, cfg, n=201):
    """Does any (beta1, beta2) grid point, powers at the energy cap, meet every constraint?"""
    u1, u2 = cfg.users
    b1 = np.linspace(0.0, 1.0, n)[:, None]
    b2 = np.linspace(0.0, 1.0, n)[None, :]
    cap1 = (cfg.e_max - u1.local_full_energy * (1.0 - b1)) / alpha
    cap2 = (cfg.e_max - u2.local_full_energy * (1.0 - b2)) / alpha
    p1, p2 = np.clip(cap1, 0.0, cfg.p_max), np.clip(cap2, 0.0, cfg.p_max)
    g1, g2 = gains
    ok = (
        (cap1 >= 0.0) & (cap2 >= 0.0)
        & (u1.local_full_time * (1.0 - b1) <= alpha)
        & (u2.local_full_time * (1.0 - b2) <= alpha)
        & (b1 * u1.task_bits <= alpha * cfg.bandwidth * np.log2(1.0 + g1 * p1))
        & (b1 * u1.task_bits + b2 * u2.task_bits
           <= alpha * cfg.bandwidth * np.log2(1.0 + g1 * p1 + g2 * p2))
    )
    return bool(ok.any())


@pytest.fixture
def no_slsqp(monkeypatch):
    """Make any SLSQP call inside the library fail the test."""

    def forbidden(*args, **kwargs):
        raise AssertionError("SLSQP called on a problem without a server")

    monkeypatch.setattr("nomamec.solver.minimize", forbidden)


def test_two_user_verdict_agrees_with_grid(no_slsqp):
    rng = np.random.default_rng(11)
    verdicts = []
    for realization, cfg, opt in solved_draws(60, 101, users=(2, 2)):
        for alpha in opt * 10 ** rng.uniform(-0.3, 0.3, 3):
            grid = [grid_feasible(alpha * f, realization.gains, cfg) for f in (0.95, 1.0, 1.05)]
            if len(set(grid)) > 1:
                continue  # within 5% of the grid's boundary
            rep = check_feasibility(float(alpha), realization, cfg)
            assert rep.feasible == grid[1], (alpha, opt, realization, cfg)
            assert not rep.uncertain
            verdicts.append(rep.feasible)
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


@pytest.mark.parametrize("n", range(3, 9))
def test_verdict_agrees_with_slsqp_minimax(no_slsqp, n):
    checked = 0
    for realization, cfg, opt in solved_draws(2, 200 + n, users=(n, n)):
        for f in (0.98, 0.998, 1.002, 1.02):
            alpha = opt * f
            rep = check_feasibility(alpha, realization, cfg)
            assert rep.feasible == (minimax(alpha, realization.gains, cfg) <= 1e-8), (f, cfg)
            assert rep.feasible == (f > 1.0)
            checked += 1
    assert checked >= 8


def test_witness_attains_the_reported_residual(no_slsqp):
    rng = np.random.default_rng(12)
    feasible = 0
    for realization, cfg in noma_draws(80, 303):
        t_top = max(u.local_full_time for u in cfg.users)
        n = cfg.num_users
        for alpha in t_top * 10 ** rng.uniform(-1.5, 0.1, 4):
            rep = check_feasibility(float(alpha), realization, cfg, eps_feas=1e-8)
            viol = constraint_violations(float(alpha), rep.witness, realization, cfg)
            assert rep.residual == pytest.approx(viol[:3 * n].max(), abs=1e-12)
            if rep.feasible:
                feasible += 1
                assert viol.max() <= 1e-8
    assert feasible >= 100


def test_relaxed_verdict_agrees_with_slsqp_minimax(no_slsqp):
    # a wide eps_feas band moves the boundary by about a percent; each
    # relaxed bound (local share, energy budget, rate offset) must follow
    # the normalized residuals exactly for the verdict to match
    checked = 0
    for realization, cfg in noma_draws(8, 505, users=(2, 5)):
        try:
            opt = bss_solve(realization, cfg, eps=1e-7, eps_feas=1e-2).optimal_delay
        except InfeasibleScenarioError:
            continue
        for f in (0.997, 1.003):
            rep = check_feasibility(opt * f, realization, cfg, eps_feas=1e-2)
            assert rep.feasible == (f > 1.0)
            assert rep.feasible == (minimax(opt * f, realization.gains, cfg) <= 1e-2), (f, cfg)
            checked += 1
    assert checked >= 8


def test_no_uncertain_verdicts_without_a_server():
    for realization, cfg in noma_draws(24, 404, users=(1, 8)):
        try:
            res = bss_solve(realization, cfg, eps=1e-5)
        except InfeasibleScenarioError:
            continue
        assert res.uncertain_verdicts == 0 and res.converged


def test_no_slsqp_without_a_server(no_slsqp, tmp_path):
    user = UserSpec(2.0e6, 1e3, 1e9, 3e-28)
    cfg = ScenarioConfig(bandwidth=1e6, noise_density_dbm=-174.0, users=(user,) * 6,
                         p_max=0.02, e_max=0.3)
    res = bss_solve(ChannelRealization(gains=(2e4, 5e4, 1e5, 4e5, 1e6, 3e6)), cfg, eps=1e-4)
    assert res.converged and res.uncertain_verdicts == 0

    # the paper's user-count figure: noma-partial and noma-full, M = 2..8
    loaded = LoadedScenario(config=replace(s1_config(), e_max=2.0), master_seed=1)
    csv_path, _, _ = run_sweep(
        loaded, axis="user_count", values=[2, 3, 4, 5, 6, 7, 8],
        schemes=["noma-partial", "noma-full"], n_seeds=1, eps=1e-3, out_dir=str(tmp_path),
    )
    rows = open(csv_path).read().splitlines()[1:]
    assert len(rows) == 14
    assert all(math.isfinite(float(r.split(",")[4])) for r in rows)
