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

from nomamec import (
    ChannelRealization,
    InfeasibleScenarioError,
    ScenarioConfig,
    UserSpec,
    bss_solve,
    check_feasibility,
    constraint_violations,
    max_violation,
)
from nomamec.cli import run_sweep
from nomamec.configio import LoadedScenario
from conftest import draw_envelope_scenario, grid_feasible_two_user, minimax, s1_config


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


def test_two_user_verdict_agrees_with_grid(no_slsqp):
    rng = np.random.default_rng(11)
    verdicts = []
    for realization, cfg, opt in solved_draws(60, 101, users=(2, 2)):
        for alpha in opt * 10 ** rng.uniform(-0.3, 0.3, 3):
            grid = [grid_feasible_two_user(alpha * f, realization.gains, cfg)
                    for f in (0.95, 1.0, 1.05)]
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


def test_verdict_rule_at_a_wide_band(no_slsqp):
    # at eps_feas 1e-2 the band moves the boundary by about a percent.
    # The verdict (is the unrelaxed witness's max residual <= eps_feas?)
    # may part from the minimax one only inside the band: a feasible
    # witness stays within it, an exactly feasible delay stays feasible,
    # and a delay whose minimax value is past the band stays infeasible
    checked = beyond = 0
    for realization, cfg, opt in solved_draws(8, 505, users=(2, 5)):
        for f in (0.9, 0.95, 0.98, 0.99, 0.997, 1.003):
            alpha = opt * f
            rep = check_feasibility(alpha, realization, cfg, eps_feas=1e-2)
            if rep.feasible:
                assert max_violation(alpha, rep.witness, realization, cfg) <= 1e-2, (f, cfg)
            if f > 1.0:
                assert rep.feasible, cfg
            if minimax(alpha, realization.gains, cfg) > 1e-2:
                assert not rep.feasible, (f, cfg)
                beyond += 1
            checked += 1
    assert checked >= 40 and beyond >= 16


def test_no_uncertain_verdicts_without_a_server(oracle_reports):
    for realization, cfg in noma_draws(24, 404, users=(1, 8)):
        try:
            res = bss_solve(realization, cfg, eps=1e-5)
        except InfeasibleScenarioError:
            continue
        assert res.converged
    assert oracle_reports and not any(rep.uncertain for rep in oracle_reports)


def test_no_slsqp_without_a_server(no_slsqp, tmp_path):
    user = UserSpec(2.0e6, 1e3, 1e9, 3e-28)
    cfg = ScenarioConfig(bandwidth=1e6, noise_density_dbm=-174.0, users=(user,) * 6,
                         p_max=0.02, e_max=0.3)
    res = bss_solve(ChannelRealization(gains=(2e4, 5e4, 1e5, 4e5, 1e6, 3e6)), cfg, eps=1e-4)
    assert res.converged

    # the paper's user-count figure: noma-partial and noma-full, M = 2..8
    loaded = LoadedScenario(config=replace(s1_config(), e_max=2.0), master_seed=1)
    csv_path, _, _ = run_sweep(
        loaded, axis="user_count", values=[2, 3, 4, 5, 6, 7, 8],
        schemes=["noma-partial", "noma-full"], n_seeds=1, eps=1e-3, out_dir=str(tmp_path),
    )
    rows = open(csv_path).read().splitlines()[1:]
    assert len(rows) == 14
    assert all(math.isfinite(float(r.split(",")[4])) for r in rows)
