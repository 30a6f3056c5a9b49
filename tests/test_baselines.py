import math

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
    full_local_delay,
    metrics,
    solve_noma_full_offload,
    solve_noma_partial,
    solve_ofdma_partial,
)
from conftest import draw_envelope_scenario


def light_config(**overrides):
    defaults = dict(
        bandwidth=1e6,
        noise_density_dbm=-174.0,
        users=(UserSpec(1.6e6, 1e3, 1e9, 1e-28), UserSpec(1.6e6, 1e3, 1e9, 1e-28)),
        p_max=0.01,
        e_max=0.2,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestMetrics:
    def test_zero_power(self):
        cfg = light_config()
        alloc = Allocation(betas=(0.0, 0.0), powers=(0.0, 0.0))
        rate, ee, pe = metrics(alloc, (1e4, 1e5), cfg)
        assert rate == 0.0 and ee == 0.0 and math.isnan(pe)

    def test_unit_snr_arithmetic(self):
        cfg = light_config()
        alloc = Allocation(betas=(1.0, 1.0), powers=(0.005, 0.005))
        rate, ee, pe = metrics(alloc, (100.0, 100.0), cfg, p_circuit=0.1)
        assert rate == pytest.approx(1e6)  # log2(1 + 1) over 1 MHz
        assert ee == pytest.approx(1e6 / 0.11)
        assert pe == pytest.approx(1e6 / 0.01)

    def test_negative_circuit_power_rejected(self):
        cfg = light_config()
        alloc = Allocation(betas=(0.0, 0.0), powers=(0.0, 0.0))
        with pytest.raises(UsageError):
            metrics(alloc, (1e4, 1e5), cfg, p_circuit=-0.1)

    @pytest.mark.parametrize("p_circuit", [-0.1, math.nan, math.inf])
    def test_every_scheme_rejects_bad_circuit_power(self, p_circuit):
        cfg = light_config(e_max=2.0)
        gains = (1e4, 1e5)
        alloc = Allocation(betas=(0.0, 0.0), powers=(0.0, 0.0))
        with pytest.raises(UsageError):
            metrics(alloc, gains, cfg, p_circuit=p_circuit)
        with pytest.raises(UsageError):
            solve_ofdma_partial(gains, cfg, 1, eps=1e-2, p_circuit=p_circuit)
        with pytest.raises(UsageError):
            full_local_delay(cfg, p_circuit=p_circuit)


    def test_ofdma_checks_circuit_power_before_solving(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("bss_solve ran before p_circuit was checked")

        monkeypatch.setattr("nomamec.baselines.bss_solve", no_solve)
        with pytest.raises(UsageError):
            solve_ofdma_partial((1e4, 1e5), light_config(e_max=2.0), 1, p_circuit=-0.1)


class TestFullLocal:
    def test_s1_like_parameters(self):
        res = full_local_delay(light_config())
        assert res.delay == pytest.approx(1.6)
        assert res.sum_rate == 0.0 and res.total_power == 0.0
        assert math.isnan(res.power_efficiency)

    def test_asymmetric_tasks(self):
        cfg = light_config(
            users=(UserSpec(0.5e6, 1e3, 1e9, 1e-28), UserSpec(2.0e6, 1e3, 1e9, 1e-28))
        )
        assert full_local_delay(cfg).delay == pytest.approx(2.0)

    def test_energy_infeasible(self):
        cfg = light_config(users=(UserSpec(1.6e6, 1e3, 1e9, 1e-27),) * 2)
        with pytest.raises(InfeasibleScenarioError):
            full_local_delay(cfg)  # 1.6 J of local compute against 0.2 J

    def test_never_beats_partial(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 10:
            realization, cfg = draw_envelope_scenario(rng)
            if any(u.local_full_energy > cfg.e_max for u in cfg.users):
                continue
            count += 1
            partial = solve_noma_partial(realization, cfg, eps=1e-4)
            local = full_local_delay(cfg)
            assert partial.delay <= local.delay + 2e-4


class TestFullOffload:
    def test_partial_dominates_full(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            realization, cfg = draw_envelope_scenario(rng)
            try:
                partial = solve_noma_partial(realization, cfg, eps=1e-4)
            except InfeasibleScenarioError:
                continue
            full = solve_noma_full_offload(realization, cfg, eps=1e-4)
            assert partial.delay <= full.delay + 2e-4

    def test_useless_local_cpu_closes_the_gap(self):
        cfg = light_config(
            users=(UserSpec(1.6e6, 1e3, 1e6, 1e-28), UserSpec(1.6e6, 1e3, 1e6, 1e-28))
        )
        gains = ChannelRealization(gains=(2e5, 8e5))
        partial = solve_noma_partial(gains, cfg, eps=1e-4)
        full = solve_noma_full_offload(gains, cfg, eps=1e-4)
        assert full.delay == pytest.approx(partial.delay, rel=1e-3)
        assert min(partial.allocation.betas) > 0.999

    def test_energy_starved_full_offload_raises(self):
        cfg = light_config(e_max=1e-6)
        gains = ChannelRealization(gains=(1e3, 1e3))
        with pytest.raises(InfeasibleScenarioError):
            solve_noma_full_offload(gains, cfg)

    def test_matches_pinned_ratio_power_grid(self, s1):
        realization, cfg = s1
        g1, g2 = realization.gains
        u1, u2 = cfg.users
        p = np.linspace(1e-6, cfg.p_max, 400)
        p1, p2 = np.meshgrid(p, p, indexing="ij")
        t1 = u1.task_bits / (cfg.bandwidth * np.log2(1.0 + g1 * p1))
        t2 = (u1.task_bits + u2.task_bits) / (
            cfg.bandwidth * np.log2(1.0 + g1 * p1 + g2 * p2)
        )
        tau = np.maximum(t1, t2)
        ok = (tau * p1 <= cfg.e_max) & (tau * p2 <= cfg.e_max)
        best = float(np.where(ok, tau, np.inf).min())
        res = solve_noma_full_offload(realization, cfg, eps=1e-4)
        grid_step = cfg.p_max / 399
        assert abs(res.delay - best) <= 2 * (grid_step / cfg.p_max * best + 1e-4)


class TestOfdma:
    def test_single_user_one_rb_equals_noma(self):
        cfg = light_config(users=(UserSpec(1.6e6, 1e3, 1e9, 1e-28),))
        gains = ChannelRealization(gains=(3e5,))
        ofdma = solve_ofdma_partial(gains, cfg, rb_count=1, eps=1e-4)
        noma = bss_solve(gains, cfg, eps=1e-4)
        assert ofdma.delay == noma.optimal_delay
        assert ofdma.allocation == noma.allocation

    def test_two_rb_uses_half_band_each(self):
        cfg = light_config()
        gains = ChannelRealization(gains=(2e5, 9e5))
        two = solve_ofdma_partial(gains, cfg, rb_count=2, eps=1e-4)
        one = solve_ofdma_partial(gains, cfg, rb_count=1, eps=1e-4)
        assert two.delay < one.delay  # quarter band each under one RB
        assert two.delay > 0 and math.isfinite(two.sum_rate)

    def test_invalid_rb_count(self):
        cfg = light_config()
        with pytest.raises(UsageError):
            solve_ofdma_partial(ChannelRealization(gains=(1e4, 1e5)), cfg, rb_count=3)

    @pytest.mark.parametrize("gains", [(1e4,), (1e4, 1e5, 1e6), (0.0, 1e5), (1e4, math.nan)])
    def test_bad_gains_rejected(self, gains):
        # a third gain was ignored and a single one ended in an IndexError
        cfg = light_config()
        for rb_count in (1, 2):
            with pytest.raises(UsageError, match="gains"):
                solve_ofdma_partial(gains, cfg, rb_count=rb_count, eps=1e-2)

    @pytest.mark.parametrize("rb_count", [1, 2])
    def test_server_rejected(self, rb_count):
        # the users share the server, so the per-user subproblems are not
        # independent; the server used to be dropped without a word
        cfg = light_config(server=ServerSpec(1e3, 1e9, 1e-28))
        with pytest.raises(UsageError, match="server"):
            solve_ofdma_partial(ChannelRealization(gains=(1e4, 1e5)), cfg, rb_count=rb_count)

    def test_delay_nonincreasing_in_power_and_energy_budgets(self):
        from dataclasses import replace

        from nomamec import bss_solve

        rng = np.random.default_rng(41)
        checked = 0
        while checked < 8:
            realization, cfg = draw_envelope_scenario(rng)
            try:
                base = bss_solve(realization, cfg, eps=1e-4)
            except InfeasibleScenarioError:
                continue
            checked += 1
            more_power = bss_solve(realization, replace(cfg, p_max=2 * cfg.p_max), eps=1e-4)
            more_energy = bss_solve(realization, replace(cfg, e_max=2 * cfg.e_max), eps=1e-4)
            assert more_power.optimal_delay <= base.optimal_delay + 2e-4
            assert more_energy.optimal_delay <= base.optimal_delay + 2e-4

    def test_noma_beats_single_rb_ofdma_statistically(self):
        rng = np.random.default_rng(31)
        wins = 0
        total = 0
        while total < 50:
            realization, cfg = draw_envelope_scenario(rng)
            try:
                noma = solve_noma_partial(realization, cfg, eps=1e-4)
                ofdma = solve_ofdma_partial(realization, cfg, rb_count=1, eps=1e-4)
            except InfeasibleScenarioError:
                continue
            total += 1
            if noma.delay <= ofdma.delay + 2e-4:
                wins += 1
        assert wins / total >= 0.95
