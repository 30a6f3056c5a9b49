"""Bisection halvings build no witness.

Their verdicts must equal check_feasibility's, most of all near the
optimum: both run the branch once on the exact bounds and apply the one
verdict rule (is the witness's max residual <= EPS_FEAS?). Three
certificates decide a halving without asking the oracle at all: the
upper one when the energy-relaxed delay alpha_r is exact and the halving
lies at or above alpha_r (1 + 1e-6), the lower one when the relaxed
residual at the halving exceeds EPS_FEAS, and, for free ratios without a
server when alpha_r is not exact, the one from the feasible delay
alpha_u at or above alpha_u (1 + 1e-6). One probe at alpha_u (1 - 1e-6)
that reads infeasible settles every halving at or below it. So the draws
include slack budgets, where alpha_r is exact, binding budgets, pinned
ratios and servers, at thresholds patched across 1e-8..1e-2 and at the
default, and every solve must ask the oracle for the probe, when it lies
inside the bracket above the lower certificate's reach, and for exactly
the halvings nothing else decides.
"""

from collections import Counter
from dataclasses import replace

import numpy as np

from nomamec import InfeasibleScenarioError, ServerSpec, bss_solve, check_feasibility
from nomamec import solver
from conftest import draw_envelope_scenario


def compare_halvings(rng, draws, monkeypatch, patch_threshold):
    """Solve envelope draws; check every halving's verdict and oracle call.

    Returns counts: halvings near the optimum, server solves, and solves
    with a halving decided by the upper, the lower, the alpha_u
    certificate ("floor") and the probe.
    """
    calls = []
    holds = solver._Oracle.holds

    def counting(self, alpha):
        calls.append(alpha)
        return holds(self, alpha)

    monkeypatch.setattr(solver._Oracle, "holds", counting)
    seen = Counter()
    for _ in range(draws):
        m = int(rng.integers(1, 9))
        realization, cfg = draw_envelope_scenario(rng, n_users=m)
        if rng.random() < 0.5:
            cfg = replace(cfg, e_max=float(rng.uniform(0.4, 3.0)))
        if rng.random() < 0.25:
            cpu = float(10 ** rng.uniform(9.5, 10.5))
            cfg = replace(cfg, server=ServerSpec(cycles_per_bit=1e3, cpu_freq=cpu, kappa=1e-28))
        pinned = tuple(rng.uniform(0.0, 1.0, m)) if rng.random() < 0.25 else None
        if patch_threshold:
            monkeypatch.setattr(solver, "EPS_FEAS", float(10 ** rng.uniform(-8, -2)))
        t_max = max(u.local_full_time for u in cfg.users)
        calls.clear()
        try:
            res = bss_solve(realization, cfg, eps=1e-9 * t_max, fixed_betas=pinned)
        except InfeasibleScenarioError:
            continue
        seen["servers"] += cfg.server is not None
        oracle = solver._Oracle(realization, cfg, pinned)
        g, specs = oracle.g, oracle.specs

        def relaxed(alpha):
            return solver._relaxed_residual(alpha, g, specs, cfg, oracle.pinned)

        alpha_r, exact = solver._relaxed_delay(g, specs, cfg, oracle.pinned)
        yes_from = floor_from = probe = np.inf
        if exact and not cfg.server:
            yes_from = alpha_r * (1.0 + solver._SEED_SPREAD)
        elif pinned is None and not cfg.server:
            alpha_u, floor_from = solver._floor_certificate(alpha_r, g, specs, cfg)
            probe = alpha_u * (1.0 - solver._SEED_SPREAD)
        below = alpha_r * (1.0 - solver._SEED_SPREAD)
        no_to = below if relaxed(below) > solver.EPS_FEAS else 0.0
        # free ratios keep the bracket top T_max; the probe is asked inside it
        probed = no_to < probe < t_max
        settles = probed and not check_feasibility(probe, realization, cfg).feasible
        upper = lower = floor = settled = 0
        asked = [probe] if probed else []
        for alpha, verdict in res.trace:
            expected = check_feasibility(alpha, realization, cfg, pinned).feasible
            assert verdict == expected, (m, cfg.server, pinned, alpha, solver.EPS_FEAS)
            seen["near"] += abs(alpha / res.optimal_delay - 1.0) <= 1e-2
            if alpha >= yes_from:
                upper += 1
            elif alpha >= floor_from:
                floor += 1
            elif relaxed(alpha) > solver.EPS_FEAS:
                lower += 1
            elif settles and alpha <= probe:
                settled += 1
            else:
                asked.append(alpha)
        # the certified halvings ask no oracle; the probe and every other one ask once
        assert calls == asked, (m, cfg.server, pinned)
        seen["upper"] += upper > 0
        seen["lower"] += lower > 0
        seen["floor"] += floor > 0
        seen["probe"] += settled > 0
    return seen


def test_halving_verdicts_equal_check_feasibility(monkeypatch):
    seen = compare_halvings(np.random.default_rng(31), 80, monkeypatch, patch_threshold=True)
    # the later halvings sit within 1e-2 down to 1e-9 of the optimum
    assert seen["near"] >= 1200 and seen["servers"] >= 15, seen
    assert seen["upper"] >= 15 and seen["lower"] >= 30, seen
    assert seen["floor"] >= 10 and seen["probe"] >= 4, seen


def test_certificates_decide_halvings_at_the_default_threshold(monkeypatch):
    seen = compare_halvings(np.random.default_rng(37), 80, monkeypatch, patch_threshold=False)
    assert seen["near"] >= 1200 and seen["servers"] >= 10, seen
    assert seen["upper"] >= 30 and seen["lower"] >= 40, seen
    assert seen["floor"] >= 10 and seen["probe"] >= 4, seen
