"""The free-ratio oracle with a finite-capacity edge server.

With a server the rate constraints see the window alpha less the server
time of every offloaded bit, which makes the feasibility problem
nonconvex. check_feasibility decides it exactly by iterating frontier
passes to the least fixed point in the total offloaded bits. These tests
hold its verdict against a brute-force grid (M = 2) and against a
multi-start SLSQP minimax reference built here (M = 3..8), check that
the witnesses meet the model's own delay, and that no SLSQP runs.
"""

from dataclasses import replace

import numpy as np
import pytest

from nomamec import (
    InfeasibleScenarioError,
    ServerSpec,
    bss_solve,
    check_feasibility,
    max_violation,
    total_delay,
)
from conftest import draw_envelope_scenario, grid_feasible_two_user, minimax

# starts of the SLSQP reference: the nonconvex server case needs more
# than the convex one
SHARES = (0.0, 1.0, 0.5, 0.25, 0.75)


def server_draws(count, seed, users=(1, 8)):
    """Envelope draws with a server of 1e3 cycles/bit at 10^U(9.5, 10.5) Hz."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(users[0], users[1] + 1))
        realization, cfg = draw_envelope_scenario(rng, n_users=n)
        freq = float(10 ** rng.uniform(9.5, 10.5))
        yield realization, replace(cfg, server=ServerSpec(1e3, freq, 1e-28))


def solved_draws(count, seed, users=(1, 8), eps=1e-7):
    """(realization, config, optimal delay) for the draws that admit an allocation."""
    for realization, cfg in server_draws(count, seed, users):
        try:
            yield realization, cfg, bss_solve(realization, cfg, eps=eps).optimal_delay
        except InfeasibleScenarioError:
            continue


def test_two_user_verdict_agrees_with_grid(no_slsqp):
    rng = np.random.default_rng(21)
    verdicts = []
    for realization, cfg, opt in solved_draws(40, 111, users=(2, 2)):
        for alpha in opt * 10 ** rng.uniform(-0.3, 0.3, 3):
            grid = [grid_feasible_two_user(alpha * f, realization.gains, cfg)
                    for f in (0.95, 1.0, 1.05)]
            if len(set(grid)) > 1:
                continue  # within 5% of the grid's boundary
            rep = check_feasibility(float(alpha), realization, cfg)
            assert rep.feasible == grid[1], (alpha, opt, realization, cfg)
            assert not rep.uncertain
            verdicts.append(rep.feasible)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


@pytest.mark.parametrize("n", range(3, 9))
def test_verdict_agrees_with_slsqp_minimax(no_slsqp, n):
    checked = 0
    for realization, cfg, opt in solved_draws(2, 700 + n, users=(n, n)):
        for f in (0.98, 0.99, 1.01, 1.02):
            rep = check_feasibility(opt * f, realization, cfg)
            assert not rep.uncertain
            assert rep.feasible == (f > 1.0)
            assert rep.feasible == (minimax(opt * f, realization.gains, cfg, SHARES) <= 1e-8), (f, cfg)
            checked += 1
    assert checked >= 8


def test_witness_meets_the_model_delay(no_slsqp):
    # the oracle adds the server time to every prefix's window, the model
    # only to prefixes that carry bits; a prefix without bits is implied
    # by the next one that has them, so the stricter oracle loses nothing
    eps, eps_feas = 1e-5, 1e-8
    solved = 0
    for realization, cfg in server_draws(40, 808):
        try:
            res = bss_solve(realization, cfg, eps=eps, eps_feas=eps_feas)
        except InfeasibleScenarioError:
            continue
        solved += 1
        assert res.converged
        assert max_violation(res.optimal_delay + eps, res.allocation, realization, cfg) <= eps_feas
        overall = total_delay(res.allocation, realization, cfg).overall
        assert overall <= (res.optimal_delay + eps) * (1.0 + eps_feas), (overall, res)
    assert solved >= 30


def test_no_slsqp_with_a_server(no_slsqp):
    # one server draw per user count, M = 1..8
    for n in range(1, 9):
        realization, cfg = next(server_draws(1, 900 + n, users=(n, n)))
        res = bss_solve(realization, cfg, eps=1e-4)
        assert res.converged and cfg.num_users == n
