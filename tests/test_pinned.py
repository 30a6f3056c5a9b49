"""The pinned-ratio branch of check_feasibility.

With ``fixed_betas`` every power sits at its energy cap and the verdict
is the max normalized residual there, computed in scalar arithmetic with
or without a server; ``max_violation`` shares that residual loop. These
tests hold both against the tests' numpy reference (``conftest.residuals``,
powers clipped to the energy cap in numpy) and run a full-offloading sweep
end to end, with and without a server.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from nomamec import (
    Allocation,
    InfeasibleScenarioError,
    ServerSpec,
    UsageError,
    bss_solve,
    check_feasibility,
    max_violation,
    solve_noma_full_offload,
)
from nomamec.cli import run_sweep
from nomamec.configio import LoadedScenario
from conftest import draw_envelope_scenario, residuals, s1_config


def pinned_draws(count, seed):
    """Envelope draws with M = 1..8, a third with a server, and pinned ratios."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 9))
        realization, cfg = draw_envelope_scenario(rng, n_users=n)
        cfg = replace(cfg, e_max=float(10 ** rng.uniform(-1.3, 0.48)))
        if k % 3 == 0:
            server = ServerSpec(cycles_per_bit=1e3, cpu_freq=float(10 ** rng.uniform(9.5, 10.5)),
                                kappa=1e-28)
            cfg = replace(cfg, server=server)
        if k % 2 == 0:
            betas = (1.0,) * n
        else:
            betas = tuple(float(b) for b in rng.choice([0.0, 1.0, rng.uniform()], n))
        yield realization, cfg, betas


def reference(alpha, realization, cfg, betas):
    """(powers at the numpy energy cap, their max core residual)."""
    e_loc = np.array([u.local_full_energy for u in cfg.users])
    caps = np.clip((cfg.e_max - e_loc * (1.0 - np.asarray(betas))) / alpha, 0.0, cfg.p_max)
    core = residuals(alpha, realization, cfg, betas, caps)[:3 * len(betas)]
    return tuple(caps), core.max()


def threshold(realization, cfg, betas, eps_feas=1e-8):
    """Least feasible delay of the reference, by bisection; None if there is none."""
    hi = max(u.local_full_time for u in cfg.users)
    for _ in range(60):
        if reference(hi, realization, cfg, betas)[1] <= eps_feas:
            break
        hi *= 2.0
    else:
        return None
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if reference(mid, realization, cfg, betas)[1] <= eps_feas:
            hi = mid
        else:
            lo = mid
    return hi


def test_scalar_branch_matches_the_numpy_reference():
    rng = np.random.default_rng(17)
    verdicts = {True: 0, False: 0}
    servers = 0
    for realization, cfg, betas in pinned_draws(120, 606):
        top = threshold(realization, cfg, betas)
        if top is None:
            factors = 10 ** rng.uniform(-2.0, 1.0, 3)
            top = max(u.local_full_time for u in cfg.users)
        else:
            # not at the threshold itself: there the two residuals, a few
            # ulp apart (log1p against log2), may fall either side of eps_feas
            factors = (0.5, 1.0 - 1e-6, 1.0 + 1e-6, 2.0)
        for alpha in (top * f for f in factors):
            rep = check_feasibility(float(alpha), realization, cfg, fixed_betas=betas)
            powers, residual = reference(float(alpha), realization, cfg, betas)
            assert rep.feasible == (residual <= 1e-8), (alpha, cfg, betas)
            assert rep.witness.betas == betas
            assert rep.witness.powers == powers
            assert rep.residual == pytest.approx(residual, rel=0, abs=1e-12)
            assert not rep.uncertain
            verdicts[rep.feasible] += 1
            servers += cfg.server is not None
    assert verdicts[True] >= 120 and verdicts[False] >= 120
    assert servers >= 80


def test_scalar_max_violation_matches_the_numpy_reference():
    rng = np.random.default_rng(23)
    for realization, cfg, _ in pinned_draws(150, 707):
        n = cfg.num_users
        t_top = max(u.local_full_time for u in cfg.users)
        # powers up to twice p_max, so the box rows take part too
        alloc = Allocation(betas=tuple(rng.uniform(0.0, 1.0, n)),
                           powers=tuple(rng.uniform(0.0, 2.0 * cfg.p_max, n)))
        alpha = float(t_top * 10 ** rng.uniform(-2.0, 0.5))
        reference = residuals(alpha, realization, cfg, alloc.betas, alloc.powers).max()
        assert max_violation(alpha, alloc, realization, cfg) == pytest.approx(
            reference, rel=0, abs=1e-12)


def test_max_violation_rejects_mismatched_lengths(s1):
    realization, cfg = s1
    with pytest.raises(UsageError):
        max_violation(0.5, Allocation(betas=(1.0,), powers=(0.01,)), realization, cfg)
    with pytest.raises(UsageError):
        max_violation(0.5, Allocation(betas=(1.0, 1.0), powers=(0.01, 0.01)), (1e5,), cfg)


@pytest.mark.parametrize(
    "betas",
    [(1.0,), (1.0, 1.0, 1.0), (math.nan, 1.0), (1.0, math.inf), (-0.1, 1.0), (1.0, 1.5),
     ("a", 1.0), None],
    ids=["short", "long", "nan", "inf", "negative", "above-one", "string", "not-a-sequence"],
)
def test_bad_pinned_ratios_raise_usage_error(s1, betas):
    realization, cfg = s1
    fixed = 3 if betas is None else betas
    with pytest.raises(UsageError):
        check_feasibility(0.5, realization, cfg, fixed_betas=fixed)
    with pytest.raises(UsageError):
        bss_solve(realization, cfg, fixed_betas=fixed)


def test_pinned_branch_at_zero_delay(s1):
    realization, cfg = s1
    rep = check_feasibility(0.0, realization, cfg, fixed_betas=(1.0, 0.5))
    assert not rep.feasible and rep.residual == math.inf
    assert rep.witness.betas == (1.0, 0.5)


# solver.py imports no numpy, so no oracle call can build a numpy problem;
# these two run the pinned path end to end, the figure sweep and a server
def test_figure_sweep_builds_no_numpy_problem(tmp_path):
    # the paper's user-count figure: noma-partial and noma-full, M = 2..8
    loaded = LoadedScenario(config=replace(s1_config(), e_max=2.0), master_seed=2)
    csv_path, _, _ = run_sweep(
        loaded, axis="user_count", values=[2, 3, 4, 5, 6, 7, 8],
        schemes=["noma-partial", "noma-full"], n_seeds=2, eps=1e-3, out_dir=str(tmp_path),
    )
    rows = open(csv_path).read().splitlines()[1:]
    assert len(rows) == 28
    assert all(math.isfinite(float(r.split(",")[4])) for r in rows)


def test_full_offload_with_a_server_builds_no_numpy_problem(s1):
    realization, cfg = s1
    server = ServerSpec(cycles_per_bit=1e3, cpu_freq=1e10, kappa=1e-28)
    res = solve_noma_full_offload(realization, replace(cfg, server=server), eps=1e-4)
    plain = solve_noma_full_offload(realization, cfg, eps=1e-4)
    # the server adds c sum_j L_j = 0.32 s of compute to the shared window
    assert res.delay > plain.delay + 0.3
    with pytest.raises(InfeasibleScenarioError):
        solve_noma_full_offload(realization, replace(cfg, e_max=1e-9))
