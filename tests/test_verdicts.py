"""Bisection halvings build no witness and, without a server, decide on
the relaxed pass alone.

Their verdicts must equal check_feasibility's, which runs unrelaxed
first, most of all near the optimum, where the two runs could part.
"""

from dataclasses import replace

import numpy as np

from nomamec import InfeasibleScenarioError, ServerSpec, bss_solve, check_feasibility
from conftest import draw_envelope_scenario


def test_halving_verdicts_equal_check_feasibility():
    rng = np.random.default_rng(31)
    near = servers = 0
    for _ in range(16):
        m = int(rng.integers(1, 9))
        realization, cfg = draw_envelope_scenario(rng, n_users=m)
        if rng.random() < 0.4:
            cpu = float(10 ** rng.uniform(9.5, 10.5))
            cfg = replace(cfg, server=ServerSpec(cycles_per_bit=1e3, cpu_freq=cpu, kappa=1e-28))
        eps_feas = float(10 ** rng.uniform(-8, -2))
        t_max = max(u.local_full_time for u in cfg.users)
        try:
            res = bss_solve(realization, cfg, eps=1e-9 * t_max, eps_feas=eps_feas)
        except InfeasibleScenarioError:
            continue
        servers += cfg.server is not None
        for alpha, verdict in res.trace:
            expected = check_feasibility(alpha, realization, cfg, eps_feas).feasible
            assert verdict == expected, (m, cfg.server, alpha, eps_feas)
            near += abs(alpha / res.optimal_delay - 1.0) <= 1e-2
    # the later halvings sit within 1e-2 down to 1e-9 of the optimum
    assert near >= 300 and servers >= 4
