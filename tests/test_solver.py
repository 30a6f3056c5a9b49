import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from nomamec import (
    Allocation,
    ChannelRealization,
    InfeasibleScenarioError,
    ScenarioConfig,
    ServerSpec,
    UsageError,
    UserSpec,
    bss_solve,
    check_feasibility,
    constraint_violations,
    grid_oracle_two_user,
    init_bounds,
    max_violation,
)
from conftest import draw_envelope_scenario, s1_config


def light_users_config(**overrides):
    """Two users whose fully-local energy fits the budget (kappa=1e-28)."""
    defaults = dict(
        bandwidth=1e6,
        noise_density_dbm=-174.0,
        users=(
            UserSpec(1.6e6, 1e3, 1e9, 1e-28),
            UserSpec(1.6e6, 1e3, 1e9, 1e-28),
        ),
        p_max=0.01,
        e_max=0.2,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestInitBounds:
    def test_s1_parameters(self):
        assert init_bounds(s1_config()) == (0.0, pytest.approx(1.6))

    def test_max_over_users(self):
        cfg = light_users_config(
            users=(
                UserSpec(0.5e6, 1e3, 1e9, 1e-28),
                UserSpec(2.0e6, 1e3, 1e9, 1e-28),
                UserSpec(1.0e6, 1e3, 1e9, 1e-28),
            )
        )
        assert init_bounds(cfg)[1] == pytest.approx(2.0)

    def test_zero_task_forbidden(self):
        with pytest.raises(UsageError):
            UserSpec(0.0, 1e3, 1e9, 1e-28)


class TestConstraintViolations:
    def test_pure_local_at_upper_bound(self):
        cfg = light_users_config()
        alloc = Allocation(betas=(0.0, 0.0), powers=(cfg.p_max, cfg.p_max))
        viol = constraint_violations(1.6, alloc, (1e4, 1e5), cfg)
        assert viol.max() <= 1e-12

    def test_tiny_alpha_breaks_local(self):
        cfg = light_users_config()
        alloc = Allocation(betas=(0.5, 0.5), powers=(0.0, 0.0))
        viol = constraint_violations(1e-9, alloc, (1e4, 1e5), cfg)
        n = cfg.num_users
        assert viol[n : 2 * n].max() > 0  # local-time residuals

    def test_alpha_must_be_positive(self):
        cfg = light_users_config()
        alloc = Allocation(betas=(0.0, 0.0), powers=(0.0, 0.0))
        with pytest.raises(UsageError):
            constraint_violations(0.0, alloc, (1e4, 1e5), cfg)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_alpha_must_be_finite(self, alpha):
        # max_violation used to return 0.0 at a NaN delay
        cfg = light_users_config()
        alloc = Allocation(betas=(0.0, 0.0), powers=(0.0, 0.0))
        with pytest.raises(UsageError, match="alpha"):
            constraint_violations(alpha, alloc, (1e4, 1e5), cfg)
        with pytest.raises(UsageError, match="alpha"):
            max_violation(alpha, alloc, (1e4, 1e5), cfg)

    def test_below_optimum_every_allocation_violated(self, s1):
        realization, cfg = s1
        oracle = grid_oracle_two_user(realization, cfg)
        alpha = oracle.delay - 0.01
        grid = np.linspace(0.0, 1.0, 12)
        pgrid = np.linspace(0.0, cfg.p_max, 8)
        for b1 in grid:
            for b2 in grid:
                for p1 in pgrid:
                    for p2 in pgrid:
                        alloc = Allocation(betas=(b1, b2), powers=(p1, p2))
                        assert max_violation(alpha, alloc, realization, cfg) > 0


class TestCheckFeasibility:
    @pytest.mark.parametrize("server", [None, ServerSpec(1e3, 1e10, 1e-28)])
    @pytest.mark.parametrize(
        "gains", [(0.0, 1e5), (-1.0, 1e5), (math.nan, 1e5), (1e4, math.inf), (1e4,)]
    )
    def test_bad_gains_rejected_with_free_ratios(self, gains, server):
        # a zero gain used to fall through to SLSQP and come back infeasible
        cfg = light_users_config(server=server)
        with pytest.raises(UsageError):
            check_feasibility(0.5, gains, cfg)
        with pytest.raises(UsageError):
            bss_solve(gains, cfg)

    def test_upper_bound_is_feasible_with_zero_offload(self):
        cfg = light_users_config()
        gains = ChannelRealization(gains=(1e4, 1e5))
        rep = check_feasibility(1.6, gains, cfg)
        assert rep.feasible and rep.residual <= 1e-8
        zero = Allocation(betas=(0.0, 0.0), powers=(0.0, 0.0))
        assert max_violation(1.6, zero, gains, cfg) <= 0.0

    @pytest.mark.parametrize("server", [None, ServerSpec(1e3, 1e10, 1e-28)])
    @pytest.mark.parametrize("fixed_betas", [None, (1.0, 1.0)])
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, s1, alpha, fixed_betas, server):
        # NaN and inf used to come back feasible with residual -inf
        realization, cfg = s1
        cfg = replace(cfg, server=server)
        with pytest.raises(UsageError, match="alpha"):
            check_feasibility(alpha, realization, cfg, fixed_betas=fixed_betas)
        with pytest.raises(UsageError, match="alpha"):
            bss_solve(realization, cfg, fixed_betas=fixed_betas, alpha_max=alpha)

    @pytest.mark.parametrize("alpha_max", [0.0, -1.0])
    def test_non_positive_alpha_max_rejected(self, s1, alpha_max):
        # a bracket top <= 0 is a bad argument, not a too-small energy budget
        realization, cfg = s1
        with pytest.raises(UsageError, match="alpha_max"):
            bss_solve(realization, cfg, alpha_max=alpha_max)

    def test_zero_alpha_infeasible(self):
        cfg = light_users_config()
        rep = check_feasibility(0.0, ChannelRealization(gains=(1e4, 1e5)), cfg)
        assert not rep.feasible

    def test_oracle_bracket(self, s1):
        realization, cfg = s1
        oracle = grid_oracle_two_user(realization, cfg)
        assert check_feasibility(oracle.delay + 0.01, realization, cfg).feasible
        assert not check_feasibility(oracle.delay - 0.01, realization, cfg).feasible

    def test_report_invariant(self, s1):
        realization, cfg = s1
        rep = check_feasibility(1.0, realization, cfg)
        assert rep.feasible
        assert rep.witness is not None
        assert rep.residual <= 1e-8


class TestBisection:
    def test_iteration_count_and_halving(self, s1):
        realization, cfg = s1
        res = bss_solve(realization, cfg, eps=1e-4)
        assert res.iterations == 14 == len(res.trace)
        lo, hi = init_bounds(cfg)
        width = hi - lo
        for mid, feasible in res.trace:
            assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-14)
            if feasible:
                hi = mid
            else:
                lo = mid
            new_width = hi - lo
            assert new_width == pytest.approx(0.5 * width, rel=1e-12)
            width = new_width
        assert width <= 1e-4

    def test_iteration_formula_other_eps(self, s1):
        realization, cfg = s1
        res = bss_solve(realization, cfg, eps=1e-3)
        assert res.iterations == math.ceil(math.log2(1.6 / 1e-3))

    def test_witness_certified_at_alpha_plus_eps(self, s1):
        realization, cfg = s1
        res = bss_solve(realization, cfg, eps=1e-4)
        assert res.converged
        assert res.feasibility_residual <= 1e-8
        viol = constraint_violations(res.optimal_delay + 1e-4, res.allocation, realization, cfg)
        assert viol.max() <= 1e-8

    def test_eps_below_float_spacing_ends(self, s1):
        # no float lies between the bracket's ends long before they are
        # 1e-300 apart; the halving stops there. A child process runs it so
        # a loop that never ends fails on the timeout instead of hanging
        code = (
            "from nomamec import Seed, bss_solve, generate_channels, reorder_users\n"
            "from conftest import s1_config\n"
            "real = generate_channels(Seed(master=0), s1_config())\n"
            "for eps in (1e-300, 1e-20):\n"
            "    res = bss_solve(real, reorder_users(s1_config(), real), eps=eps)\n"
            "    print(res.iterations, repr(res.optimal_delay), res.converged)\n"
        )
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(here), "src")
        path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=60)
        assert proc.returncode == 0, proc.stderr
        realization, cfg = s1
        reference = bss_solve(realization, cfg, eps=1e-12).optimal_delay
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        for line in lines:
            steps, delay, converged = line.split()
            assert int(steps) < 1100
            assert float(delay) == pytest.approx(reference, abs=1e-12)
            # certified at the bracket's feasible end: alpha* + eps rounds
            # to alpha*, which may be the infeasible end
            assert converged == "True"

    def test_degenerate_small_bandwidth_stays_local(self):
        # 1 Hz of bandwidth: offloading is useless, the optimum hugs the
        # fully-local time and the shares collapse toward zero
        cfg = light_users_config(
            bandwidth=1.0,
            users=(
                UserSpec(1.6e4, 1e3, 1e9, 1e-28),
                UserSpec(1.6e4, 1e3, 1e9, 1e-28),
            ),
        )
        gains_raw = np.array([1e13, 2e13])  # normalized by the tiny noise power
        res = bss_solve(ChannelRealization(gains=tuple(gains_raw)), cfg, eps=1e-7)
        alpha_max = init_bounds(cfg)[1]
        assert res.optimal_delay >= 0.9 * alpha_max
        assert max(res.allocation.betas) <= 1e-2

    def test_infeasible_scenario_raises(self):
        cfg = light_users_config(
            bandwidth=1e3,
            users=(
                UserSpec(1.6e6, 1e3, 1e9, 1e-27),
                UserSpec(1.6e6, 1e3, 1e9, 1e-27),
            ),
            e_max=0.01,
        )
        with pytest.raises(InfeasibleScenarioError):
            bss_solve(ChannelRealization(gains=(1e4, 2e4)), cfg)

    @pytest.mark.parametrize(
        "tolerances",
        [dict(eps=0.0), dict(eps=math.nan), dict(eps=math.inf), dict(eps_feas=math.nan),
         dict(eps_feas=math.inf)],
    )
    def test_bad_tolerances_rejected(self, s1, tolerances):
        realization, cfg = s1
        with pytest.raises(UsageError):
            bss_solve(realization, cfg, **tolerances)

    def test_no_uncertain_verdicts_on_reference_draw(self, s1, oracle_reports):
        # with and without the finite server, no oracle call is left uncertain
        realization, cfg = s1
        server = ServerSpec(cycles_per_bit=1e3, cpu_freq=1e10, kappa=1e-28)
        for run in (cfg, replace(cfg, server=server)):
            res = bss_solve(realization, run)
            assert res.converged
            # the halvings are verdict-only; the reports are the bracket
            # top and the certification
            assert res.iterations == 14
        assert len(oracle_reports) == 2 * 2
        assert not any(rep.uncertain for rep in oracle_reports)

    def test_deterministic_repeat(self, s1):
        realization, cfg = s1
        a = bss_solve(realization, cfg)
        b = bss_solve(realization, cfg)
        assert a.optimal_delay == b.optimal_delay
        assert a.allocation == b.allocation
        assert a.trace == b.trace


class TestOptimumStructure:
    def test_equal_completion_times_when_energy_slack(self):
        # at the optimum of an energy-slack scenario the shared window is
        # the delay itself: the total-bits rate constraint binds, every
        # prefix fits the decode region, and some local share ends there
        from nomamec import aggregated_offload_time, local_time
        from conftest import feasible_two_user_scenarios

        for realization, cfg, params, sol in feasible_two_user_scenarios(
            10, seed=88, energy_slack_only=True
        ):
            res = bss_solve(realization, cfg, eps=1e-5)
            alloc = res.allocation
            n = cfg.num_users
            window = aggregated_offload_time(
                n, alloc.betas, realization, alloc.powers, cfg.users, cfg.bandwidth
            )
            assert abs(window - res.optimal_delay) <= 1e-3 * res.optimal_delay
            for m in range(1, n + 1):
                t_m = aggregated_offload_time(
                    m, alloc.betas, realization, alloc.powers, cfg.users, cfg.bandwidth
                )
                assert t_m <= window * (1 + 1e-3)
            locals_ = [local_time(alloc.betas[i], cfg.users[i]) for i in range(n)]
            assert max(locals_) <= res.optimal_delay * (1 + 1e-3)
            assert max(locals_) >= res.optimal_delay * (1 - 1e-3)

    def test_multi_user_bounds_and_nested_monotonicity(self):
        # no exhaustive oracle exists past two users; triangulate with the
        # rate-relaxation lower bound, the fully-local upper bound, and
        # pointwise monotonicity over nested user-count draws
        from nomamec import Seed, generate_channels, reorder_users, sum_rate
        from nomamec.solver import InfeasibleScenarioError

        base = (UserSpec(1.6e6, 1e3, 1e9, 1e-27), UserSpec(1.6e6, 1e3, 1e9, 1e-28))
        solved = 0
        for trial in range(6):
            prev = 0.0
            for m in range(2, 9):
                users = tuple(base[i % 2] for i in range(m))
                cfg = ScenarioConfig(
                    bandwidth=1e6, noise_density_dbm=-174.0, users=users,
                    p_max=0.01, e_max=2.0,
                )
                realization = generate_channels(Seed(master=11, trial=trial), cfg)
                run = reorder_users(cfg, realization)
                try:
                    res = bss_solve(realization, run, eps=1e-4)
                except InfeasibleScenarioError:
                    continue
                solved += 1
                a_tot = sum(u.task_bits for u in users)
                b_tot = sum(u.cpu_freq / u.cycles_per_bit for u in users)
                r_max = sum_rate(realization, [cfg.p_max] * m, cfg.bandwidth, m)
                assert res.optimal_delay >= a_tot / (b_tot + r_max) - 2e-4
                assert res.optimal_delay <= init_bounds(run)[1] + 1e-9
                assert res.optimal_delay >= prev - 2e-4
                prev = res.optimal_delay
        assert solved >= 40

    def test_limited_server_agrees_with_closed_form(self):
        from nomamec import ServerSpec, TwoUserParams, solve_two_user_limited

        server = ServerSpec(cycles_per_bit=1e3, cpu_freq=1e9, kappa=1e-28)
        cfg = light_users_config(server=server)
        gains = ChannelRealization(gains=(2e5, 8e5))
        params = TwoUserParams.from_scenario(gains, cfg)
        ltd = solve_two_user_limited(params, server)
        res = bss_solve(gains, cfg, eps=1e-5)
        assert res.optimal_delay == pytest.approx(ltd.delay, rel=2e-3)
        # the bisection solver may only improve on the structured answer
        assert res.optimal_delay <= ltd.delay * (1 + 1e-3)


class TestConvexityAndMonotonicity:
    def test_max_violation_midpoint_convex(self):
        rng = np.random.default_rng(42)
        cfg = light_users_config()
        gains = ChannelRealization(gains=(5e4, 5e5))
        alpha = 0.4
        for _ in range(200):
            x = Allocation(betas=tuple(rng.uniform(0, 1, 2)), powers=tuple(rng.uniform(0, cfg.p_max, 2)))
            y = Allocation(betas=tuple(rng.uniform(0, 1, 2)), powers=tuple(rng.uniform(0, cfg.p_max, 2)))
            mid = Allocation(
                betas=tuple(0.5 * (np.array(x.betas) + np.array(y.betas))),
                powers=tuple(0.5 * (np.array(x.powers) + np.array(y.powers))),
            )
            fx = max_violation(alpha, x, gains, cfg)
            fy = max_violation(alpha, y, gains, cfg)
            fm = max_violation(alpha, mid, gains, cfg)
            assert fm <= 0.5 * (fx + fy) + 1e-9

    def test_feasibility_monotone_in_alpha(self):
        rng = np.random.default_rng(9)
        flips = 0
        for i in range(40):
            realization, cfg = draw_envelope_scenario(rng)
            lo, hi = init_bounds(cfg)
            a1, a2 = sorted(rng.uniform(0.05 * hi, 1.2 * hi, 2))
            r1 = check_feasibility(a1, realization, cfg)
            if not r1.feasible:
                continue
            r2 = check_feasibility(a2, realization, cfg)
            if not r2.feasible:
                # a scaled copy of the lower witness must do the job
                scaled = Allocation(
                    betas=r1.witness.betas,
                    powers=tuple(p * a1 / a2 for p in r1.witness.powers),
                )
                if max_violation(a2, scaled, realization, cfg) > 1e-8:
                    flips += 1
        assert flips == 0
