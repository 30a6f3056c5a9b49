"""Bisection halvings build no witness.

Their verdicts must equal check_feasibility's, most of all near the
optimum: both run the branch once on the exact bounds and apply the one
verdict rule (is the witness's max residual <= EPS_FEAS?). A halving the
seed probes decide takes its verdict from a probe by monotonicity, so the
draws include slack budgets, where the relaxed delay is exact and seeds
the bisection, and pinned ratios.
"""

from dataclasses import replace

import numpy as np

from nomamec import InfeasibleScenarioError, ServerSpec, bss_solve, check_feasibility
from nomamec import solver
from conftest import draw_envelope_scenario


def test_halving_verdicts_equal_check_feasibility(monkeypatch):
    rng = np.random.default_rng(31)
    near = servers = seeded = swallowed = 0
    for _ in range(80):
        m = int(rng.integers(1, 9))
        realization, cfg = draw_envelope_scenario(rng, n_users=m)
        if rng.random() < 0.5:
            cfg = replace(cfg, e_max=float(rng.uniform(0.4, 3.0)))
        if rng.random() < 0.25:
            cpu = float(10 ** rng.uniform(9.5, 10.5))
            cfg = replace(cfg, server=ServerSpec(cycles_per_bit=1e3, cpu_freq=cpu, kappa=1e-28))
        pinned = tuple(rng.uniform(0.0, 1.0, m)) if rng.random() < 0.25 else None
        eps_feas = float(10 ** rng.uniform(-8, -2))
        monkeypatch.setattr(solver, "EPS_FEAS", eps_feas)
        t_max = max(u.local_full_time for u in cfg.users)
        try:
            res = bss_solve(realization, cfg, eps=1e-9 * t_max, fixed_betas=pinned)
        except InfeasibleScenarioError:
            continue
        servers += cfg.server is not None
        for alpha, verdict in res.trace:
            expected = check_feasibility(alpha, realization, cfg, pinned).feasible
            assert verdict == expected, (m, cfg.server, pinned, alpha, eps_feas)
            near += abs(alpha / res.optimal_delay - 1.0) <= 1e-2
        if cfg.server is None:
            oracle = solver._Oracle(realization, cfg, pinned)
            alpha_r, exact = solver._relaxed_delay(oracle.g, oracle.specs, cfg, pinned)
            if exact and alpha_r < t_max:
                seeded += 1
                below = alpha_r * (1.0 - solver._SEED_SPREAD)
                # within the EPS_FEAS band the lower probe reads feasible
                swallowed += check_feasibility(below, realization, cfg, pinned).feasible
    # the later halvings sit within 1e-2 down to 1e-9 of the optimum
    assert near >= 1200 and servers >= 15
    # both probe outcomes below alpha_r occur among the seeded solves
    assert seeded >= 20 and 5 <= swallowed < seeded, (seeded, swallowed)
