"""Full-problem reference against bss_solve and the closed form, at scale.

Run from the repository root:

    PYTHONPATH=src python tests/reference_agreement.py

Draw sets: configs/s1.json masters 1-2, trials 0-399 (bss eps 1e-6), and
300 draw_envelope_scenario draws each at p_max_high 0.05 and 1.0, each
set from a fresh numpy rng seeded 7 (bss eps 1e-7). For every set it
prints the worst relative gap between the reference and bss_solve, how
far the reference ever falls below bss_solve's delay less eps (0 means
never), and every draw where the closed form is more than 1e-6 relative
off the reference. tests/test_reference.py runs a subset in the suite.
"""

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from nomamec import (  # noqa: E402
    EqualTimeInfeasible,
    InfeasibleScenarioError,
    Seed,
    bss_solve,
    generate_channels,
    load_config,
    reorder_users,
    solve_two_user,
)
from conftest import draw_envelope_scenario, reference_two_user, residuals  # noqa: E402


def run(label, draws, eps):
    worst_rel, worst_below, n_eq, n_ok, ref_s, off = 0.0, 0.0, 0, 0, 0.0, []
    for key, realization, cfg in draws:
        start = time.perf_counter()
        try:
            delay, shares, powers = reference_two_user(realization, cfg)
        except RuntimeError:
            # no feasible grid point at any delay: bss_solve must fail too
            try:
                bss_solve(realization, cfg, eps=eps)
            except InfeasibleScenarioError:
                print(f"  {key}: infeasible for the reference and bss_solve")
                continue
            raise
        ref_s += time.perf_counter() - start
        n_ok += 1
        assert residuals(delay, realization, cfg, shares, powers).max() <= 1e-9, key
        bss = bss_solve(realization, cfg, eps=eps).optimal_delay
        worst_rel = max(worst_rel, abs(delay - bss) / bss)
        worst_below = max(worst_below, (bss - eps) - delay)
        try:
            sol = solve_two_user(realization, cfg)
        except EqualTimeInfeasible:
            n_eq += 1
            continue
        if abs(sol.delay - delay) > 1e-6 * delay:
            off.append((key, sol.case_label, sol.delay, delay))
    print(f"{label}: {len(draws)} draws, {n_eq} EqualTimeInfeasible, "
          f"worst |ref - bss| / bss {worst_rel:.2e}, worst (bss - eps) - ref "
          f"{worst_below:.2e}, reference {1e3 * ref_s / n_ok:.1f} ms per draw")
    for key, case, closed, delay in off:
        print(f"  {key}: closed form {case} {closed:.6g} s, reference {delay:.6g} s "
              f"({100 * (closed / delay - 1):+.2f}%)")


def main():
    cfg = load_config(str(ROOT / "configs" / "s1.json")).config
    s1 = []
    for master in (1, 2):
        for trial in range(400):
            realization = generate_channels(Seed(master=master, trial=trial), cfg)
            s1.append(((master, trial), realization, reorder_users(cfg, realization)))
    run("s1 masters 1-2", s1, 1e-6)
    for high in (0.05, 1.0):
        rng = np.random.default_rng(7)
        envelope = [((high, i),) + draw_envelope_scenario(rng, p_max_high=high)
                    for i in range(300)]
        run(f"envelope p_max_high={high}", envelope, 1e-7)


if __name__ == "__main__":
    main()
