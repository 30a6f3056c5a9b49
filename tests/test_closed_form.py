import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from nomamec import (
    ChannelRealization,
    EqualTimeInfeasible,
    ScenarioConfig,
    ServerSpec,
    TwoUserParams,
    UserSpec,
    bss_solve,
    grid_oracle_two_user,
    p1_water,
    p2_water,
    solve_two_user,
)
from conftest import draw_envelope_scenario, feasible_two_user_scenarios

LN2 = math.log(2.0)


def s1_params(s1):
    realization, cfg = s1
    return TwoUserParams.from_scenario(realization, cfg), realization, cfg


def tight_energy_residual(params, kf3, p_self, interference, gain_self):
    """Normalized residual of one user's energy budget in the reduced form."""
    rate = params.bandwidth * math.log2(1.0 + gain_self * p_self + interference)
    lhs = kf3 * params.a1 + params.a1 * p_self
    rhs = params.e_max * (params.b1 + rate)
    return (lhs - rhs) / rhs


class TestWaterLevels:
    def test_defining_identity_user1(self, s1):
        params, _, _ = s1_params(s1)
        p2 = params.p_max
        p1w = p1_water(p2, params)
        assert p1w is not None and math.isfinite(p1w)
        res = tight_energy_residual(
            params, params.kappa1 * params.f1**3, p1w, params.gamma2 * p2, params.gamma1
        )
        assert abs(res) <= 1e-9

    def test_defining_identity_user2(self, s1):
        params, _, _ = s1_params(s1)
        p2w = p2_water(params.p_max, params)
        assert p2w is not None and math.isfinite(p2w)
        res = tight_energy_residual(
            params,
            params.kappa2 * params.f2**3,
            p2w,
            params.gamma1 * params.p_max,
            params.gamma2,
        )
        assert abs(res) <= 1e-9

    def test_against_root_finding_oracle(self, s1):
        params, _, _ = s1_params(s1)
        p2 = params.p_max
        kf3 = params.kappa1 * params.f1**3
        interference = params.gamma2 * p2

        def h(p1):
            rate = params.bandwidth * math.log2(1.0 + params.gamma1 * p1 + interference)
            return kf3 * params.a1 + params.a1 * p1 - params.e_max * (params.b1 + rate)

        # bracket the upper root: start past the stationary point of h
        p_stat = (
            params.e_max * params.bandwidth * params.gamma1 / (params.a1 * LN2)
            - 1.0
            - interference
        ) / params.gamma1
        lo = max(p_stat, 0.0)
        hi = max(lo * 2.0, 1.0)
        while h(hi) < 0:
            hi *= 2.0
        root = brentq(h, lo, hi, xtol=1e-15, rtol=1e-14)
        assert p1_water(p2, params) == pytest.approx(root, rel=1e-9)

    def test_enormous_energy_budget_never_tight(self, s1):
        params, _, _ = s1_params(s1)
        loose = replace(params, e_max=1e12)
        assert p1_water(params.p_max, loose) == math.inf
        assert p2_water(params.p_max, loose) == math.inf

    def test_always_violated_budget_signals_none(self, s1):
        params, _, _ = s1_params(s1)
        # a watt-scale local CPU against a millijoule budget: no power level
        # can satisfy user 1's energy constraint
        tight = replace(params, e_max=1e-3, kappa1=1e-27)
        assert p1_water(params.p_max, tight) is None


class TestSolveTwoUser:
    def test_s1_matches_grid_oracle(self, s1):
        params, realization, cfg = s1_params(s1)
        sol = solve_two_user(params)
        oracle = grid_oracle_two_user(realization, cfg)
        assert abs(sol.delay - oracle.delay) <= 2 * (oracle.grid_effect + 1e-4)

    def test_energy_slack_selects_full_power(self, s1):
        params, _, _ = s1_params(s1)
        loose = replace(params, e_max=1e12)
        sol = solve_two_user(loose)
        assert sol.case_label == "Case1"
        assert sol.p1 == loose.p_max and sol.p2 == loose.p_max

    def test_symmetric_users_symmetric_solution(self):
        cfg = ScenarioConfig(
            bandwidth=1e6,
            noise_density_dbm=-174.0,
            users=(UserSpec(1.6e6, 1e3, 1e9, 1e-28), UserSpec(1.6e6, 1e3, 1e9, 1e-28)),
            p_max=0.01,
            e_max=1e9,
        )
        gains = ChannelRealization(gains=(2e5, 2e5))
        sol = solve_two_user(TwoUserParams.from_scenario(gains, cfg))
        assert sol.p1 == sol.p2
        assert sol.beta1 == pytest.approx(sol.beta2, rel=1e-12)

    def test_structure_infeasible_raises(self, s1):
        params, _, _ = s1_params(s1)
        squeezed = replace(params, e_max=0.05)
        with pytest.raises(EqualTimeInfeasible):
            solve_two_user(squeezed)

    def test_valid_solution_realizes_its_delay(self):
        for realization, cfg, params, sol in feasible_two_user_scenarios(20, seed=61):
            u1, u2 = cfg.users
            # every user's local share ends exactly at the window
            assert (1 - sol.beta1) * u1.local_full_time == pytest.approx(sol.delay, rel=1e-9)
            assert (1 - sol.beta2) * u2.local_full_time == pytest.approx(sol.delay, rel=1e-9)
            # the offloaded bits exactly fill the window at the aggregate rate
            bits = sol.beta1 * u1.task_bits + sol.beta2 * u2.task_bits
            assert bits == pytest.approx(sol.delay * params.rate(sol.p1, sol.p2), rel=1e-9)
            # and the split is decodable: user 1's share fits its own clean rate
            rate1 = cfg.bandwidth * math.log2(1.0 + params.gamma1 * sol.p1)
            assert sol.beta1 * u1.task_bits <= sol.delay * rate1 * (1 + 1e-9) + 1e-6

    def test_energy_capped_cases_match_oracle(self):
        # higher power budgets make the energy caps bite (cases 2-4)
        rng = np.random.default_rng(77)
        seen = set()
        checked = 0
        while checked < 40:
            realization, cfg = draw_envelope_scenario(rng, p_max_high=1.0)
            params = TwoUserParams.from_scenario(realization, cfg)
            try:
                sol = solve_two_user(params)
            except EqualTimeInfeasible:
                continue
            checked += 1
            seen.add(sol.case_label)
            oracle = grid_oracle_two_user(realization, cfg)
            tol = 2 * (oracle.grid_effect + 1e-4)
            assert abs(sol.delay - oracle.delay) <= tol
            # the bisection solver may only ever do better than the
            # equal-time structure, never worse
            res = bss_solve(realization, cfg)
            assert res.optimal_delay <= sol.delay + 2e-4
        assert "Case1" in seen and len(seen) >= 2

    def test_case4_both_budgets_tight(self):
        rng = np.random.default_rng(123)
        found = 0
        while found < 3:
            realization, cfg = draw_envelope_scenario(rng, p_max_high=1.0)
            params = TwoUserParams.from_scenario(realization, cfg)
            try:
                sol = solve_two_user(params)
            except EqualTimeInfeasible:
                continue
            if sol.case_label != "Case4":
                continue
            found += 1
            r1 = tight_energy_residual(
                params, params.kappa1 * params.f1**3, sol.p1,
                params.gamma2 * sol.p2, params.gamma1,
            )
            r2 = tight_energy_residual(
                params, params.kappa2 * params.f2**3, sol.p2,
                params.gamma1 * sol.p1, params.gamma2,
            )
            assert abs(r1) <= 1e-8 and abs(r2) <= 1e-8

    def test_reduced_objective_midpoint_convexity(self, s1):
        params, _, _ = s1_params(s1)
        rng = np.random.default_rng(5)

        def neg_rate(p):
            return -math.log2(1.0 + params.gamma1 * p[0] + params.gamma2 * p[1])

        def energy_fn(p, kf3, own):
            rate = params.bandwidth * math.log2(1.0 + params.gamma1 * p[0] + params.gamma2 * p[1])
            return params.a1 * (kf3 + p[own]) - params.e_max * (params.b1 + rate)

        for _ in range(200):
            x = rng.uniform(0, params.p_max, 2)
            y = rng.uniform(0, params.p_max, 2)
            mid = 0.5 * (x + y)
            assert neg_rate(mid) <= 0.5 * (neg_rate(x) + neg_rate(y)) + 1e-9
            for own, kf3 in ((0, params.kappa1 * params.f1**3), (1, params.kappa2 * params.f2**3)):
                fm = energy_fn(mid, kf3, own)
                assert fm <= 0.5 * (energy_fn(x, kf3, own) + energy_fn(y, kf3, own)) + 1e-6


class TestLimitedServer:
    """A finite server's delay comes from bss_solve, the one server route."""

    def test_fast_server_recovers_unlimited(self, s1):
        realization, cfg = s1
        fast = replace(cfg, server=ServerSpec(cycles_per_bit=1e3, cpu_freq=1e17, kappa=1e-28))
        plain = bss_solve(realization, cfg, eps=1e-6)
        res = bss_solve(realization, fast, eps=1e-6)
        assert res.optimal_delay == plain.optimal_delay

    def test_huge_rate_limit_is_server_bound(self):
        server = ServerSpec(cycles_per_bit=1e3, cpu_freq=1e6, kappa=1e-28)
        cfg = ScenarioConfig(
            bandwidth=1e6,
            noise_density_dbm=-174.0,
            users=(UserSpec(1.6e6, 1e3, 1e9, 1e-28), UserSpec(1.6e6, 1e3, 1e9, 1e-28)),
            p_max=0.01,
            e_max=0.2,
            server=server,
        )
        gains = ChannelRealization(gains=(1e12, 2e12))
        params = TwoUserParams.from_scenario(gains, cfg)
        res = bss_solve(gains, cfg, eps=1e-9)
        # the uplink is near-free, so the server's throughput binds
        bound = params.a1 / (params.b1 + server.cpu_freq / server.cycles_per_bit)
        assert res.optimal_delay == pytest.approx(bound, rel=1e-6)
