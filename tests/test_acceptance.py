"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report. "Random feasible" two-user scenarios are rejection-sampled from
the reference parameter envelope (1 MHz band, 5-50 mW power budgets,
0.1-0.4 J energy budgets, 0.5-3 Mb tasks); feasible means the analytic
equal-time structure is attainable. The solver-agreement criteria (1, 2)
additionally require the energy budgets to be slack at full power, the
premise under which that structure is the true optimum. Tight-budget
cases are checked against the full-problem reference in
tests/test_closed_form.py, where the closed form is still off the optimum
on some of them (ROADMAP item 6).
"""

import math
import time
from dataclasses import replace

import numpy as np

from nomamec import (
    Allocation,
    ScenarioConfig,
    Seed,
    ServerSpec,
    UserSpec,
    bss_solve,
    check_feasibility,
    full_local_delay,
    generate_channels,
    lambert_wm1,
    max_violation,
    reorder_users,
    solve_noma_full_offload,
    solve_two_user,
    sum_rate,
)
from nomamec.cli import run_sweep
from nomamec.configio import LoadedScenario
from nomamec.lambertw import BRANCH_POINT
from nomamec.model import aggregated_offload_time, local_time, user_rate
from nomamec.solver import InfeasibleScenarioError
from conftest import (
    S1_MASTER_SEED,
    draw_envelope_scenario,
    feasible_two_user_scenarios,
    random_gain_power_instance,
    reference_two_user,
    s1_config,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def s1_scenario():
    cfg = s1_config()
    realization = generate_channels(Seed(master=S1_MASTER_SEED), cfg)
    return realization, reorder_users(cfg, realization)


def test_c1_full_problem_reference_equivalence():
    start = time.perf_counter()
    scenarios = [s1_scenario()] + [
        (r, c)
        for r, c, _ in feasible_two_user_scenarios(25, seed=101, energy_slack_only=True)
    ]
    eps = 1e-4
    worst = 0.0
    for realization, cfg in scenarios:
        delay, _, _ = reference_two_user(realization, cfg)
        # the reference is within 1e-5 of the optimum, bss_solve within eps above it
        tol = eps + 1e-5 * delay
        sol = solve_two_user(realization, cfg)
        res = bss_solve(realization, cfg, eps=eps)
        gap = max(abs(sol.delay - delay), abs(res.optimal_delay - delay))
        worst = max(worst, gap / tol)
        assert gap <= tol, (gap, tol)
    elapsed = time.perf_counter() - start
    report(
        1,
        "full-problem reference equivalence",
        worst <= 1.0 and elapsed < 60.0,
        f"26 scenarios, worst gap {worst:.2f}x tolerance, {elapsed:.1f}s < 60s",
    )


def test_c2_bss_closed_form_agreement():
    worst = 0.0
    for realization, cfg, sol in feasible_two_user_scenarios(
        100, seed=202, energy_slack_only=True
    ):
        # eps is an absolute bracket width; envelope delays go down to
        # ~50 ms, so bisect finer than the 1e-3 relative agreement target
        res = bss_solve(realization, cfg, eps=1e-5)
        worst = max(worst, abs(sol.delay - res.optimal_delay) / sol.delay)
    report(
        2,
        "bss vs closed form on 100 random feasible scenarios",
        worst <= 1e-3,
        f"max relative delay gap {worst:.2e} <= 1e-3",
    )


def test_c3_iteration_count():
    realization, cfg = s1_scenario()
    lo, hi = 0.0, max(u.local_full_time for u in cfg.users)
    res = bss_solve(realization, cfg, eps=1e-4)
    ok = (lo, hi) == (0.0, 1.6) and res.iterations == 14
    width = hi - lo
    halving = True
    blo, bhi = lo, hi
    for mid, feasible in res.trace:
        if feasible:
            bhi = mid
        else:
            blo = mid
        halving &= abs((bhi - blo) - 0.5 * width) <= 1e-12 * width
        width = bhi - blo
    report(
        3,
        "iteration count",
        ok and halving and width <= 1e-4,
        f"bracket [0, 1.6], eps 1e-4: {res.iterations} iterations, exact halving",
    )


def test_c4_equal_time_invariants():
    scenarios = [s1_scenario()]
    picked = feasible_two_user_scenarios(30, seed=303)
    worst_prop3 = 0.0
    worst_fill = 0.0
    region_ok = True
    cases = []
    for realization, cfg, sol in [(r, c, None) for r, c in scenarios] + picked:
        if sol is None:
            sol = solve_two_user(realization, cfg)
        cases.append(sol.case_label)
        betas = (sol.beta1, sol.beta2)
        powers = (sol.p1, sol.p2)
        # the common transmit window, recomputed through the model formula
        window = aggregated_offload_time(2, betas, realization, powers, cfg.users, cfg.bandwidth)
        for m in (1, 2):
            t_loc = local_time(betas[m - 1], cfg.users[m - 1])
            worst_prop3 = max(worst_prop3, abs(window - t_loc) / t_loc)
        # all users finish together: realized rate split sits in the
        # successive-decoding rate region at the reported delay
        bits1 = sol.beta1 * cfg.users[0].task_bits
        bits2 = sol.beta2 * cfg.users[1].task_bits
        r1_cap = user_rate(1, realization, powers, cfg.bandwidth)
        rsum_cap = sum_rate(realization, powers, cfg.bandwidth, 2)
        region_ok &= bits1 <= sol.delay * r1_cap * (1 + 1e-3) + 1e-6
        region_ok &= bits1 + bits2 <= sol.delay * rsum_cap * (1 + 1e-3) + 1e-6
        worst_fill = max(worst_fill, abs((bits1 + bits2) - sol.delay * rsum_cap) / (bits1 + bits2))
    report(
        4,
        "equal-time invariants",
        worst_prop3 <= 1e-6 and worst_fill <= 1e-3 and region_ok,
        f"31 valid solutions ({len(set(cases))} case labels): "
        f"max |offload-local|/local {worst_prop3:.2e} <= 1e-6, "
        f"window fill error {worst_fill:.2e} <= 1e-3, rate region ok",
    )


def test_c5_telescoping_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        realization, powers = random_gain_power_instance(rng, max_users=8)
        m = len(realization.gains)
        total = sum_rate(realization, powers, 1e6, m)
        split = sum(user_rate(i, realization, powers, 1e6) for i in range(1, m + 1))
        if total > 0:
            worst = max(worst, abs(total - split) / total)
    report(
        5,
        "rate telescoping identity",
        worst <= 1e-9,
        f"1000 instances (M<=8), max relative error {worst:.2e} <= 1e-9",
    )


def test_c6_monotone_feasibility_and_dominance():
    rng = np.random.default_rng(505)
    violations = 0
    pairs = 0
    while pairs < 200:
        n = int(rng.integers(2, 5))
        realization, cfg = draw_envelope_scenario(rng, n_users=n)
        hi = max(u.local_full_time for u in cfg.users)
        a_lo, a_hi = np.sort(rng.uniform(0.05 * hi, 1.2 * hi, 2))
        if a_hi - a_lo < 1e-6:
            continue
        pairs += 1
        r_lo = check_feasibility(a_lo, realization, cfg)
        if not r_lo.feasible:
            continue
        r_hi = check_feasibility(a_hi, realization, cfg)
        if not r_hi.feasible:
            scaled = Allocation(
                betas=r_lo.witness.betas,
                powers=tuple(p * a_lo / a_hi for p in r_lo.witness.powers),
            )
            if max_violation(a_hi, scaled, realization, cfg) > 1e-8:
                violations += 1

    dominance_ok = True
    checked = 0
    rng2 = np.random.default_rng(506)
    while checked < 40:
        realization, cfg = draw_envelope_scenario(rng2)
        try:
            partial = bss_solve(realization, cfg, eps=1e-4)
        except InfeasibleScenarioError:
            continue
        checked += 1
        full = solve_noma_full_offload(realization, cfg, eps=1e-4)
        dominance_ok &= partial.optimal_delay <= full.delay + 2e-4
        if all(u.local_full_energy <= cfg.e_max for u in cfg.users):
            local = full_local_delay(cfg)
            dominance_ok &= partial.optimal_delay <= local.delay + 2e-4
    report(
        6,
        "monotone feasibility and scheme dominance",
        violations == 0 and dominance_ok,
        f"200 alpha pairs, {violations} monotonicity violations; "
        f"partial <= min(full, local) on {checked} feasible draws",
    )


def test_c7_lambert_identity():
    # the closed form's branch, W-1, over its whole domain: log-spaced
    # from the branch point, then down to -1e-300; the residual is scaled
    # by |x|, since max(1, |x|) would hide a wrong answer for tiny |x|
    near = BRANCH_POINT + np.logspace(-12, math.log10(-BRANCH_POINT) - 1e-9, 10000)
    points = np.concatenate([near[near < 0], -np.logspace(-300, -1, 2000)])
    worst = 0.0
    for x in map(float, points):
        w = lambert_wm1(x)
        worst = max(worst, abs(w * math.exp(w) - x) / abs(x))
    report(
        7,
        "lambert w defining identity",
        worst <= 1e-12,
        f"{len(points)} points in [-1/e+1e-12, -1e-300], max residual {worst:.2e}",
    )


def test_c8_figure_shapes():
    # e_max is set high enough that fully-local computing stays energy
    # feasible: with the reference 0.2 J budget a deep-fade draw can make
    # the whole scenario infeasible (energy forces offloading through a
    # dead channel), which poisons the seed means with infinities
    base = ScenarioConfig(
        bandwidth=1e6,
        noise_density_dbm=-174.0,
        users=(UserSpec(1.6e6, 1e3, 1e9, 1e-27), UserSpec(1.6e6, 1e3, 1e9, 1e-28)),
        p_max=0.01,
        e_max=2.0,
    )
    shape_ok = True
    detail = []
    for p_max in (0.01, 0.02):
        loaded = LoadedScenario(
            config=ScenarioConfig(
                bandwidth=base.bandwidth,
                noise_density_dbm=base.noise_density_dbm,
                users=base.users,
                p_max=p_max,
                e_max=base.e_max,
            ),
            master_seed=S1_MASTER_SEED,
        )
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            _, mean_path, _ = run_sweep(
                loaded,
                axis="user_count",
                values=[float(m) for m in range(2, 9)],
                schemes=["noma-partial", "noma-full"],
                n_seeds=50,
                eps=1e-3,
                out_dir=tmp,
            )
            rows = [l.split(",") for l in open(mean_path).read().splitlines()[1:]]
        mean = {(float(r[1]), r[2]): float(r[4]) for r in rows}
        partial = [mean[(float(m), "noma-partial")] for m in range(2, 9)]
        full = [mean[(float(m), "noma-full")] for m in range(2, 9)]
        nondecreasing = all(b >= a - 1e-9 for a, b in zip(partial, partial[1:]))
        nondecreasing &= all(b >= a - 1e-9 for a, b in zip(full, full[1:]))
        rowwise = all(p <= f + 2e-3 for p, f in zip(partial, full))
        shape_ok &= nondecreasing and rowwise
        detail.append(
            f"p_max={p_max}: partial {partial[0]:.3f}->{partial[-1]:.3f}s, "
            f"full {full[0]:.3f}->{full[-1]:.3f}s"
        )

    # a 1e17 Hz server adds no time: bss_solve gives the no-server delay
    fast = ServerSpec(cycles_per_bit=1e3, cpu_freq=1e17, kappa=1e-28)
    gap = 0.0
    for trial in range(50):
        realization = generate_channels(Seed(master=S1_MASTER_SEED, trial=trial), s1_config())
        cfg = reorder_users(s1_config(), realization)
        plain = bss_solve(realization, cfg, eps=1e-6).optimal_delay
        served = bss_solve(realization, replace(cfg, server=fast), eps=1e-6).optimal_delay
        gap = max(gap, abs(served - plain) / plain)
    report(
        8,
        "figure shapes and fast-server consistency",
        shape_ok and gap == 0.0,
        "; ".join(detail) + f"; fast-server gap {gap:.2e} over 50 draws",
    )


def test_c9_determinism():
    import tempfile

    loaded = LoadedScenario(config=s1_config(), master_seed=S1_MASTER_SEED)
    kwargs = dict(
        axis="p_max",
        values=[0.01, 0.02],
        schemes=["noma-partial", "noma-full"],
        n_seeds=2,
        eps=1e-3,
    )
    with tempfile.TemporaryDirectory() as ta, tempfile.TemporaryDirectory() as tb:
        a_csv, a_mean, a_man = run_sweep(loaded, out_dir=ta, **kwargs)
        b_csv, b_mean, b_man = run_sweep(loaded, out_dir=tb, **kwargs)
        same = (
            open(a_csv, "rb").read() == open(b_csv, "rb").read()
            and open(a_mean, "rb").read() == open(b_mean, "rb").read()
            and open(a_man, "rb").read() == open(b_man, "rb").read()
        )
    report(9, "byte-identical reruns", same, "sweep csv, mean csv and manifest match")
