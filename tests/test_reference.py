"""The full-problem two-user reference in conftest, checked on its own terms.

reference_two_user shares no code with the solvers, so these tests check
it against the constraint rows of conftest.residuals and against
bss_solve, and show that it flags a closed-form answer above the optimum.
"""

from pathlib import Path

import numpy as np

from nomamec import (
    EqualTimeInfeasible,
    Seed,
    bss_solve,
    generate_channels,
    load_config,
    reorder_users,
    solve_two_user,
)
from conftest import draw_envelope_scenario, least_shares, reference_two_user, residuals

S1_JSON = Path(__file__).resolve().parent.parent / "configs" / "s1.json"


def s1_draw(master, trial):
    cfg = load_config(str(S1_JSON)).config
    realization = generate_channels(Seed(master=master, trial=trial), cfg)
    return realization, reorder_users(cfg, realization)


def test_left_end_is_feasible_and_exact():
    rng = np.random.default_rng(7)
    envelope = [draw_envelope_scenario(rng, p_max_high=1.0) for _ in range(133)]
    # without the transmit-energy rows alpha p_j <= e_max, draw 132's least
    # shares would exceed 1
    draws = [s1_draw(0, 0)] + envelope[:10] + [envelope[132]]
    for realization, cfg in draws:
        delay, shares, powers = reference_two_user(realization, cfg)
        assert residuals(delay, realization, cfg, shares, powers).max() <= 1e-9
        # just below the left end the least shares, the best shares at these
        # powers, break some row
        below = delay * (1 - 1e-6)
        short = least_shares(below, powers, cfg)
        assert residuals(below, realization, cfg, short, powers).max() > 0.0


def test_matches_bss_on_s1_and_flags_trial_258():
    eps = 1e-6
    draws = [(m, t) for m in (1, 2) for t in range(0, 400, 8)] + [(1, 258)]
    flagged = set()
    for master, trial in draws:
        realization, cfg = s1_draw(master, trial)
        delay, _, _ = reference_two_user(realization, cfg)
        bss = bss_solve(realization, cfg, eps=eps).optimal_delay
        # the reference is never below the optimum, bss at most eps above it
        assert delay >= bss - eps, (master, trial)
        assert abs(delay - bss) <= 1e-5 * bss, (master, trial)
        try:
            sol = solve_two_user(realization, cfg)
        except EqualTimeInfeasible:
            continue
        if sol.delay > delay * (1 + 1e-6):
            flagged.add((master, trial))
    # master 1, trial 258: the closed form's Case3 answer is 0.34% high
    assert flagged == {(1, 258)}
