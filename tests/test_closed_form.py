import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from nomamec import (
    Allocation,
    ChannelRealization,
    EqualTimeInfeasible,
    ScenarioConfig,
    Seed,
    ServerSpec,
    UsageError,
    UserSpec,
    bss_solve,
    generate_channels,
    load_config,
    max_violation,
    p1_water,
    p2_water,
    reorder_users,
    solve_two_user,
    sum_rate,
)
from nomamec.solver import EPS_FEAS
from conftest import draw_envelope_scenario, feasible_two_user_scenarios, reference_two_user

LN2 = math.log(2.0)
S1_JSON = Path(__file__).resolve().parent.parent / "configs" / "s1.json"


def reduced(cfg):
    """(a1, b1, (kappa_1 f_1^3, kappa_2 f_2^3)): total bits, local throughput, energy rates."""
    u1, u2 = cfg.users
    a1 = u1.task_bits + u2.task_bits
    b1 = u1.cpu_freq / u1.cycles_per_bit + u2.cpu_freq / u2.cycles_per_bit
    return a1, b1, (u1.kappa * u1.cpu_freq**3, u2.kappa * u2.cpu_freq**3)


def tight_energy_residual(cfg, kf3, p_self, interference, gain_self):
    """Normalized residual of one user's energy budget in the reduced form."""
    a1, b1, _ = reduced(cfg)
    rate = cfg.bandwidth * math.log2(1.0 + gain_self * p_self + interference)
    lhs = kf3 * a1 + a1 * p_self
    rhs = cfg.e_max * (b1 + rate)
    return (lhs - rhs) / rhs


class TestWaterLevels:
    def test_defining_identity_user1(self, s1):
        realization, cfg = s1
        g1, g2 = realization.gains
        p2 = cfg.p_max
        p1w = p1_water(p2, realization, cfg)
        assert p1w is not None and math.isfinite(p1w)
        res = tight_energy_residual(cfg, reduced(cfg)[2][0], p1w, g2 * p2, g1)
        assert abs(res) <= 1e-9

    def test_defining_identity_user2(self, s1):
        realization, cfg = s1
        g1, g2 = realization.gains
        p2w = p2_water(cfg.p_max, realization, cfg)
        assert p2w is not None and math.isfinite(p2w)
        res = tight_energy_residual(cfg, reduced(cfg)[2][1], p2w, g1 * cfg.p_max, g2)
        assert abs(res) <= 1e-9

    def test_against_root_finding_oracle(self, s1):
        realization, cfg = s1
        g1, g2 = realization.gains
        a1, b1, (kf3, _) = reduced(cfg)
        p2 = cfg.p_max
        interference = g2 * p2

        def h(p1):
            rate = cfg.bandwidth * math.log2(1.0 + g1 * p1 + interference)
            return kf3 * a1 + a1 * p1 - cfg.e_max * (b1 + rate)

        # bracket the upper root: start past the stationary point of h
        p_stat = (cfg.e_max * cfg.bandwidth * g1 / (a1 * LN2) - 1.0 - interference) / g1
        lo = max(p_stat, 0.0)
        hi = max(lo * 2.0, 1.0)
        while h(hi) < 0:
            hi *= 2.0
        root = brentq(h, lo, hi, xtol=1e-15, rtol=1e-14)
        assert p1_water(p2, realization, cfg) == pytest.approx(root, rel=1e-9)

    def test_enormous_energy_budget_never_tight(self, s1):
        realization, cfg = s1
        loose = replace(cfg, e_max=1e12)
        assert p1_water(cfg.p_max, realization, loose) == math.inf
        assert p2_water(cfg.p_max, realization, loose) == math.inf

    def test_always_violated_budget_signals_none(self, s1):
        realization, cfg = s1
        # a watt-scale local CPU against a millijoule budget: no power level
        # can satisfy user 1's energy constraint
        u1, u2 = cfg.users
        tight = replace(cfg, e_max=1e-3, users=(replace(u1, kappa=1e-27), u2))
        assert p1_water(cfg.p_max, realization, tight) is None

    def test_limits_past_the_float_range(self, s1):
        # a1 / (e_max B) overflows: the budget fails at every power
        realization, cfg = s1
        starved = replace(cfg, e_max=1e-310)
        assert p1_water(cfg.p_max, realization, starved) is None
        assert p2_water(cfg.p_max, realization, starved) is None
        # e_max B overflows: the budget never binds
        vast = replace(cfg, bandwidth=9.74e53, e_max=9.63e301)
        assert p1_water(cfg.p_max, realization, vast) == math.inf
        assert p2_water(cfg.p_max, realization, vast) == math.inf

    @pytest.mark.parametrize("g1", [1e-320, 1e-300, 1e-200, 1e-30])
    def test_flat_rate_level_matches_bisection(self, s1, g1):
        # c = big_b ln 2 / g1 overflows or passes 2^53 / (1 + interference):
        # the level is the root of the line against the rate at p1 = 0
        _, cfg = s1
        g2 = 1e5
        for e_max in (0.2, 2.0, 20.0):
            budget = replace(cfg, e_max=e_max)
            a1, b1, (kf3, _) = reduced(budget)

            def h(p1):
                rate = budget.bandwidth * math.log2(1.0 + g1 * p1 + g2 * budget.p_max)
                return kf3 * a1 + a1 * p1 - budget.e_max * (b1 + rate)

            level = p1_water(budget.p_max, (g1, g2), budget)
            if h(0.0) > 0.0:  # at 0.2 J user 1's local energy alone breaks the budget
                assert e_max == 0.2 and level is None
                continue
            lo, hi = 0.0, 1.0
            while h(hi) <= 0.0:
                hi *= 2.0
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                lo, hi = (mid, hi) if h(mid) <= 0.0 else (lo, mid)
            assert level == pytest.approx(lo, rel=1e-14)


@pytest.fixture(scope="module")
def energy_capped_draws():
    """(realization, cfg, closed form, reference delay) on 40 accepted draws.

    Power budgets up to 1 W make the energy caps bite (cases 2-4); draws
    where solve_two_user raises EqualTimeInfeasible are skipped.
    """
    rng = np.random.default_rng(77)
    draws = []
    while len(draws) < 40:
        realization, cfg = draw_envelope_scenario(rng, p_max_high=1.0)
        try:
            sol = solve_two_user(realization, cfg)
        except EqualTimeInfeasible:
            continue
        draws.append((realization, cfg, sol, reference_two_user(realization, cfg)[0]))
    return draws


class TestSolveTwoUser:
    def test_s1_matches_reference(self, s1):
        realization, cfg = s1
        sol = solve_two_user(realization, cfg)
        delay, _, _ = reference_two_user(realization, cfg)
        assert sol.delay == pytest.approx(delay, rel=1e-6)

    def test_energy_slack_selects_full_power(self, s1):
        realization, cfg = s1
        loose = replace(cfg, e_max=1e12)
        sol = solve_two_user(realization, loose)
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
        sol = solve_two_user(gains, cfg)
        assert sol.p1 == sol.p2
        assert sol.beta1 == pytest.approx(sol.beta2, rel=1e-12)

    def test_structure_infeasible_raises(self, s1):
        realization, cfg = s1
        squeezed = replace(cfg, e_max=0.05)
        with pytest.raises(EqualTimeInfeasible):
            solve_two_user(realization, squeezed)

    def test_valid_solution_realizes_its_delay(self):
        for realization, cfg, sol in feasible_two_user_scenarios(20, seed=61):
            u1, u2 = cfg.users
            powers = (sol.p1, sol.p2)
            # every user's local share ends exactly at the window
            assert (1 - sol.beta1) * u1.local_full_time == pytest.approx(sol.delay, rel=1e-9)
            assert (1 - sol.beta2) * u2.local_full_time == pytest.approx(sol.delay, rel=1e-9)
            # the offloaded bits exactly fill the window at the aggregate rate
            bits = sol.beta1 * u1.task_bits + sol.beta2 * u2.task_bits
            rate = sum_rate(realization, powers, cfg.bandwidth, 2)
            assert bits == pytest.approx(sol.delay * rate, rel=1e-9)
            # and the split is decodable: user 1's share fits its own clean rate
            rate1 = sum_rate(realization, powers, cfg.bandwidth, 1)
            assert sol.beta1 * u1.task_bits <= sol.delay * rate1 * (1 + 1e-9) + 1e-6

    def test_bss_matches_reference_on_energy_capped_draws(self, energy_capped_draws):
        eps = 1e-7
        for realization, cfg, _, delay in energy_capped_draws:
            bss = bss_solve(realization, cfg, eps=eps).optimal_delay
            # the reference is never below the optimum, bss at most eps above it
            assert delay >= bss - eps
            assert abs(delay - bss) <= 1e-5 * bss

    def test_energy_capped_cases_never_beat_reference(self, energy_capped_draws):
        # every kept candidate is primal feasible, so none is below the optimum
        seen = set()
        for _, _, sol, delay in energy_capped_draws:
            seen.add(sol.case_label)
            assert sol.delay >= delay * (1 - 1e-6)
        assert "Case1" in seen and len(seen) >= 2

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 6: the closed form searches only the equal-time structure; "
        "on draw 18 it returns Case4 at 0.38716 s against the optimum 0.34055 s"))
    def test_energy_capped_cases_match_reference(self, energy_capped_draws):
        for _, _, sol, delay in energy_capped_draws:
            assert sol.delay == pytest.approx(delay, rel=1e-5)

    def test_case4_both_budgets_tight(self):
        rng = np.random.default_rng(123)
        found = 0
        while found < 3:
            realization, cfg = draw_envelope_scenario(rng, p_max_high=1.0)
            try:
                sol = solve_two_user(realization, cfg)
            except EqualTimeInfeasible:
                continue
            if sol.case_label != "Case4":
                continue
            found += 1
            g1, g2 = realization.gains
            kf3 = reduced(cfg)[2]
            r1 = tight_energy_residual(cfg, kf3[0], sol.p1, g2 * sol.p2, g1)
            r2 = tight_energy_residual(cfg, kf3[1], sol.p2, g1 * sol.p1, g2)
            assert abs(r1) <= 1e-8 and abs(r2) <= 1e-8

    def test_reduced_objective_midpoint_convexity(self, s1):
        realization, cfg = s1
        g1, g2 = realization.gains
        a1, b1, kf3s = reduced(cfg)
        rng = np.random.default_rng(5)

        def neg_rate(p):
            return -math.log2(1.0 + g1 * p[0] + g2 * p[1])

        def energy_fn(p, kf3, own):
            rate = cfg.bandwidth * math.log2(1.0 + g1 * p[0] + g2 * p[1])
            return a1 * (kf3 + p[own]) - cfg.e_max * (b1 + rate)

        for _ in range(200):
            x = rng.uniform(0, cfg.p_max, 2)
            y = rng.uniform(0, cfg.p_max, 2)
            mid = 0.5 * (x + y)
            assert neg_rate(mid) <= 0.5 * (neg_rate(x) + neg_rate(y)) + 1e-9
            for own, kf3 in enumerate(kf3s):
                fm = energy_fn(mid, kf3, own)
                assert fm <= 0.5 * (energy_fn(x, kf3, own) + energy_fn(y, kf3, own)) + 1e-6


# sha256 over one line per draw, repr((case_label, delay, p1, p2, beta1,
# beta2)) or "EqualTimeInfeasible", recorded from the reduced-form
# feasibility filter that max_violation replaced; re-recorded once for
# the math-only W-1, which moved only the powers of draws 517 and 580,
# by at most 4.4e-16 relative, and once for the gains' math.pow and
# scalar rate sums, which moved the gains of 61 draws and one answer:
# p2 of draw 517, 0.1706001951414242 -> 0.17060019514142422 (1.6e-16)
PINNED_ANSWERS = "ef561fd99ccf9b90cbf9cc87e4b624451a4b409a161fd42f1ae1b98460d47f32"


class TestPinnedAnswers:
    def test_answers_match_recorded_digest(self):
        # configs/s1.json masters 0-3 x trials 0-99 (Case1 and Case3), then
        # 300 envelope draws with p_max up to 1 W (Case1 162, Case2 3,
        # Case3 2, Case4 6, EqualTimeInfeasible 127); every answer meets
        # every constraint at its delay, so `solve --method auto` keeps it
        # without a check of its own
        base = load_config(str(S1_JSON)).config
        draws = []
        for master in range(4):
            for trial in range(100):
                realization = generate_channels(Seed(master=master, trial=trial), base)
                draws.append((realization, reorder_users(base, realization)))
        rng = np.random.default_rng(13)
        draws += [draw_envelope_scenario(rng, p_max_high=1.0) for _ in range(300)]

        digest = hashlib.sha256()
        labels = {}
        for realization, cfg in draws:
            try:
                sol = solve_two_user(realization, cfg)
                text = repr((sol.case_label, sol.delay, sol.p1, sol.p2, sol.beta1, sol.beta2))
                alloc = Allocation((sol.beta1, sol.beta2), (sol.p1, sol.p2))
                assert max_violation(sol.delay, alloc, realization, cfg) <= EPS_FEAS, text
                labels[sol.case_label] = labels.get(sol.case_label, 0) + 1
            except EqualTimeInfeasible:
                text = "EqualTimeInfeasible"
            digest.update(text.encode() + b"\n")
        assert labels == {"Case1": 269, "Case2": 3, "Case3": 3, "Case4": 6}
        assert digest.hexdigest() == PINNED_ANSWERS


class TestBadInput:
    def test_server_rejected(self, s1):
        # the closed form has no server term; it used to answer 57-67%
        # below the server optimum on some draws
        realization, cfg = s1
        served = replace(cfg, server=ServerSpec(cycles_per_bit=1e3, cpu_freq=1e10, kappa=1e-28))
        with pytest.raises(UsageError, match="server"):
            solve_two_user(realization, served)
        with pytest.raises(UsageError, match="server"):
            p1_water(cfg.p_max, realization, served)
        with pytest.raises(UsageError, match="server"):
            p2_water(cfg.p_max, realization, served)

    def test_three_users_rejected(self, s1):
        realization, cfg = s1
        three = replace(cfg, users=cfg.users + cfg.users[:1])
        with pytest.raises(UsageError, match="two users"):
            solve_two_user(realization.gains + (1e9,), three)

    @pytest.mark.parametrize("gains", [
        (1e5,), (1e5, 2e5, 3e5), (0.0, 1e5), (-1e5, 1e5), (math.nan, 1e5), (1e5, math.inf),
        (2e5, 1e5),
    ])
    def test_bad_gains_rejected(self, s1, gains):
        _, cfg = s1
        with pytest.raises(UsageError):
            solve_two_user(gains, cfg)
        with pytest.raises(UsageError):
            p1_water(cfg.p_max, gains, cfg)


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
        a1, b1, _ = reduced(cfg)
        res = bss_solve(gains, cfg, eps=1e-9)
        # the uplink is near-free, so the server's throughput binds
        bound = a1 / (b1 + server.cpu_freq / server.cycles_per_bit)
        assert res.optimal_delay == pytest.approx(bound, rel=1e-6)
