"""The exact single-user feasibility branch of check_feasibility.

One user with a free offload ratio and no edge server (every OFDMA
subproblem) is decided in closed form, with no screening and no SLSQP.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from nomamec import (
    ChannelRealization,
    InfeasibleScenarioError,
    bss_solve,
    check_feasibility,
    constraint_violations,
)
from nomamec.cli import run_sweep
from nomamec.configio import LoadedScenario
from conftest import draw_envelope_scenario, s1_config

# bss_solve(eps=1e-4) delays on single_user_draws(50, 2026), recorded with
# the SLSQP oracle before the exact branch existed; inf marks an
# InfeasibleScenarioError
SLSQP_DELAYS = (
    0.3510398300235673, 0.8618479834570769, 0.43734088538145527, 0.3312281378532107,
    0.18905309741173015, 0.3867038540895202, 2.7105304778329318, 0.16946313953461412,
    0.5251285599346862, 0.16006398570156016, 0.9121385009990233, 0.51760529044352,
    0.1617164682580359, 0.41135124628152236, 0.46660036719431464, 0.7129977428011052,
    0.8531918804345535, 0.34806111317249455, 1.8406810387055923, 0.07793472148801894,
    0.1211570406141517, 0.9338075944583697, 0.3985272985339955, 0.1879483684746155,
    0.05202095016942549, math.inf, 0.17343046520360794, 1.2980182153018232,
    0.2921562230239019, 2.334218987774358, 0.23271755849476444, 0.2094659039391779,
    math.inf, 0.3025987253364707, 0.38360377568851683, 0.04945520363504038,
    0.279996588437453, 0.3655211438874518, 0.29776681899105506, 0.337691473090627,
    0.17298516792763668, 0.3701384530128784, 0.5575400514373978, 0.6113397313673422,
    0.9708833176483245, 0.5294296023780966, 0.7629632888080444, 1.5788967085427896,
    0.8570286928785427, 0.19241760258666016,
)


def single_user_draws(count, seed):
    """OFDMA-like subproblems: one envelope user, a band share, a random budget."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        realization, cfg = draw_envelope_scenario(rng, n_users=1)
        share = float(rng.choice([1.0, 0.25, 1 / 16]))
        e_max = float(10 ** rng.uniform(-1.3, 0.5))
        sub = replace(cfg, bandwidth=share * cfg.bandwidth, e_max=e_max)
        yield ChannelRealization(gains=(realization.gains[0] / share,)), sub


def grid_feasible(alpha, gains, cfg, n=401):
    """Does any point of an n x n (beta, p) grid meet every constraint at alpha?"""
    user = cfg.users[0]
    beta = np.linspace(0.0, 1.0, n)[:, None]
    p = np.linspace(0.0, cfg.p_max, n)[None, :]
    rate = cfg.bandwidth * np.log2(1.0 + gains.gains[0] * p)
    ok = (
        (beta * user.task_bits <= alpha * rate)
        & (user.local_full_time * (1.0 - beta) <= alpha)
        & (user.local_full_energy * (1.0 - beta) + alpha * p <= cfg.e_max)
    )
    return bool(ok.any())


def test_verdict_agrees_with_grid_away_from_boundary(no_slsqp):
    rng = np.random.default_rng(5)
    verdicts = []
    for gains, cfg in single_user_draws(150, 77):
        t_loc = cfg.users[0].local_full_time
        alpha = t_loc * float(10 ** rng.uniform(-1.5, 0.2))
        grid = [grid_feasible(alpha * f, gains, cfg) for f in (0.9, 1.0, 1.1)]
        if len(set(grid)) > 1:
            continue  # within 10% of the grid's boundary
        rep = check_feasibility(alpha, gains, cfg)
        assert rep.feasible == grid[1], (alpha, gains, cfg)
        assert not rep.uncertain
        verdicts.append(rep.feasible)
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


def test_witness_meets_every_constraint(no_slsqp):
    rng = np.random.default_rng(6)
    feasible = 0
    for gains, cfg in single_user_draws(150, 78):
        t_loc = cfg.users[0].local_full_time
        for alpha in t_loc * 10 ** rng.uniform(-1.5, 0.2, 4):
            rep = check_feasibility(float(alpha), gains, cfg, eps_feas=1e-8)
            viol = constraint_violations(float(alpha), rep.witness, gains, cfg)
            assert rep.residual == pytest.approx(viol[:3].max(), abs=1e-12)
            if rep.feasible:
                feasible += 1
                assert viol.max() <= 1e-8
    assert feasible >= 100


def test_delays_match_the_slsqp_oracle():
    delays = []
    for gains, cfg in single_user_draws(len(SLSQP_DELAYS), 2026):
        try:
            delays.append(bss_solve(gains, cfg, eps=1e-4).optimal_delay)
        except InfeasibleScenarioError:
            delays.append(math.inf)
    for new, old in zip(delays, SLSQP_DELAYS):
        assert new == old or abs(new - old) <= 1e-4
    assert sum(new != old for new, old in zip(delays, SLSQP_DELAYS)) <= 1


def test_no_slsqp_for_one_user_or_the_ofdma_baselines(no_slsqp, tmp_path):
    cfg = replace(s1_config(), users=s1_config().users[:1])
    res = bss_solve(ChannelRealization(gains=(3e5,)), cfg, eps=1e-4)
    assert res.converged

    loaded = LoadedScenario(config=replace(s1_config(), e_max=2.0), master_seed=1)
    csv_path, _, _ = run_sweep(
        loaded, axis="user_count", values=[4],
        schemes=["ofdma-partial-1rb", "ofdma-partial-mrb"], n_seeds=2,
        out_dir=str(tmp_path),
    )
    rows = open(csv_path).read().splitlines()[1:]
    assert len(rows) == 4
    assert all(math.isfinite(float(r.split(",")[4])) for r in rows)
