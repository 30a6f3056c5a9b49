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
    ServerSpec,
    UserSpec,
    bss_solve,
    check_feasibility,
    max_violation,
)
from nomamec import solver
from nomamec.cli import run_sweep
from nomamec.configio import LoadedScenario
from conftest import (
    draw_envelope_scenario,
    grid_feasible_two_user,
    minimax,
    reference_decide,
    reference_frontier_pass,
    residuals,
    s1_config,
)


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


def test_rising_frontier_equals_the_two_piece_pass():
    # the pass keeps only rising segments; the reference also keeps the
    # flat piece past each knee. Envelope draws, M 1-8, p_max up to 0.05
    # and 1 W, e_max 10^U(-2, 1.3) J, delays on both sides of the optimum,
    # windows alpha and alpha - c_s W: the same verdict and witness, bit
    # for bit
    rng = np.random.default_rng(23)
    kinds = {"feasible": 0, "infeasible": 0, "knee inside": 0, "no rising piece": 0}
    triples = 0
    while triples < 2000:
        n = int(rng.integers(1, 9))
        realization, cfg = draw_envelope_scenario(
            rng, p_max_high=1.0 if triples % 2 else 0.05, n_users=n)
        cfg = replace(cfg, e_max=float(10 ** rng.uniform(-2.0, 1.3)))
        g, specs = realization.gains, solver._specs(cfg)
        try:
            centre = bss_solve(realization, cfg, eps=1e-6).optimal_delay
        except InfeasibleScenarioError:
            centre = max(t_loc for _, t_loc, _ in specs)
        coef = 1e3 / 10 ** rng.uniform(9.5, 10.5)  # a server's seconds per bit
        for alpha in centre * 10 ** rng.uniform(-0.3, 0.3, 4):
            alpha = float(alpha)
            got = solver._frontier_pass(alpha, alpha, g, specs, cfg)
            window = alpha - coef * solver._offloaded_bits(specs, got[1])
            windows = [alpha] + ([window] if window > 0.0 else [])
            for w in windows:
                got = solver._frontier_pass(alpha, w, g, specs, cfg)
                assert repr(got) == repr(reference_frontier_pass(alpha, w, g, specs, cfg)), (
                    alpha, w, g, cfg)
                triples += 1
                kinds["feasible" if got[0] else "infeasible"] += 1
                knees = [1.0 - (cfg.e_max - alpha * cfg.p_max) / e_loc for _, _, e_loc in specs]
                if any(0.0 < knee < 1.0 for knee in knees):
                    kinds["knee inside"] += 1
                if all(knee <= 0.0 for knee in knees):
                    kinds["no rising piece"] += 1
    assert min(kinds.values()) >= 200, kinds


def test_fused_decide_equals_the_composed_oracle():
    # _Oracle._decide builds the floor witness (free ratios, no server)
    # and the pinned witness in one capped-power loop with their rows; the
    # reference composes the pass or the capped-power list with
    # _max_residual.
    # Envelope draws, M 1-8, p_max up to 0.05 and 1 W, e_max 2 J (every
    # budget slack, as in fig-users) or 10^U(-1.3, 0.5) J (binding draws,
    # where the loop hands over to the pass), delays on both sides of the
    # optimum, pinned ratios U(0, 1) with and without a server: the same
    # (betas, powers, residual), bit for bit
    rng = np.random.default_rng(29)
    server = ServerSpec(cycles_per_bit=1e3, cpu_freq=1e10, kappa=1e-28)
    kinds = dict.fromkeys(
        ("flat floors", "hand over", "feasible", "infeasible", "pinned", "pinned server"), 0)
    pairs = 0
    while pairs < 2000:
        n = int(rng.integers(1, 9))
        realization, cfg = draw_envelope_scenario(
            rng, p_max_high=1.0 if pairs % 2 else 0.05, n_users=n)
        slack = rng.uniform() < 0.5
        cfg = replace(cfg, e_max=2.0 if slack else float(10 ** rng.uniform(-1.3, 0.5)))
        try:
            centre = bss_solve(realization, cfg, eps=1e-6).optimal_delay
        except InfeasibleScenarioError:
            centre = max(u.local_full_time for u in cfg.users)
        betas = tuple(map(float, rng.uniform(0.0, 1.0, n)))
        oracles = {
            "free": solver._Oracle(realization, cfg),
            "pinned": solver._Oracle(realization, cfg, betas),
            "pinned server": solver._Oracle(realization, replace(cfg, server=server), betas),
        }
        for alpha in centre * 10 ** rng.uniform(-0.3, 0.3, 3):
            alpha = float(alpha)
            for kind, oracle in oracles.items():
                got = oracle._decide(alpha)
                want = reference_decide(oracle, alpha)
                assert repr(got) == repr(want), (kind, alpha, realization, cfg)
                pairs += 1
                kinds["feasible" if got[2] <= solver.EPS_FEAS else "infeasible"] += 1
                if kind != "free":
                    kinds[kind] += 1
                elif n > 1:
                    kinds["hand over" if oracle._flat_floors(alpha) is None else "flat floors"] += 1
    assert min(kinds.values()) >= 150, kinds


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
            rep = check_feasibility(float(alpha), realization, cfg)
            viol = residuals(float(alpha), realization, cfg, rep.witness.betas, rep.witness.powers)
            assert rep.residual == pytest.approx(viol[:3 * n].max(), abs=1e-12)
            if rep.feasible:
                feasible += 1
                assert viol.max() <= 1e-8
    assert feasible >= 100


def test_verdict_rule_at_a_wide_band(no_slsqp, monkeypatch):
    # at EPS_FEAS 1e-2 the band moves the boundary by about a percent.
    # The verdict (is the unrelaxed witness's max residual <= EPS_FEAS?)
    # may part from the minimax one only inside the band: a feasible
    # witness stays within it, an exactly feasible delay stays feasible,
    # and a delay whose minimax value is past the band stays infeasible
    checked = beyond = 0
    draws = list(solved_draws(8, 505, users=(2, 5)))  # optima at the default threshold
    monkeypatch.setattr(solver, "EPS_FEAS", 1e-2)
    for realization, cfg, opt in draws:
        for f in (0.9, 0.95, 0.98, 0.99, 0.997, 1.003):
            alpha = opt * f
            rep = check_feasibility(alpha, realization, cfg)
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
