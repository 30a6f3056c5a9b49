import math
from pathlib import Path

import numpy as np
import pytest

from nomamec import cli
from nomamec import (
    Allocation,
    ChannelRealization,
    InfeasibleScenarioError,
    ScenarioConfig,
    SchemeResult,
    ServerSpec,
    SolveResult,
    UsageError,
    UserSpec,
    bss_solve,
    full_local_delay,
    load_config,
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


S1 = str(Path(__file__).resolve().parent.parent / "configs" / "s1.json")


def sweep_row(tmp_path, monkeypatch, powers, rate, pc):
    """The sweep.csv cells of one noma-partial row whose scheme returned powers and rate."""
    def stub(gains, config, eps):
        alloc = Allocation(betas=(1.0,) * len(powers), powers=powers)
        return SchemeResult(1.5, rate, alloc, 7)

    monkeypatch.setattr(cli, "solve_noma_partial", stub)
    out = tmp_path / f"pc{pc}"
    assert cli.main(["sweep", S1, "--axis", "user_count", "--values", str(len(powers)),
                     "--schemes", "noma-partial", "--pc", pc, "--out", str(out)]) == 0
    header, row = (out / "sweep.csv").read_text().splitlines()
    return dict(zip(header.split(","), row.split(",")))


class TestMetrics:
    """Power and efficiency columns, which run_sweep derives from each scheme's result."""

    def test_zero_power(self, tmp_path, monkeypatch):
        for pc in ("0.1", "0"):
            row = sweep_row(tmp_path, monkeypatch, (0.0, 0.0), 0.0, pc)
            assert row["total_power_w"] == "0.0000000000000000e+00"
            assert row["ee_bpj"] == "0.0000000000000000e+00" and row["pe"] == "nan"

    def test_unit_snr_arithmetic(self, tmp_path, monkeypatch):
        # each scheme reports the shared-band sum rate of its allocation
        alloc = Allocation(betas=(1.0, 1.0), powers=(0.005, 0.005))
        solved = SolveResult(1.0, alloc, 3, (), True, 0.0)
        monkeypatch.setattr("nomamec.baselines.bss_solve", lambda *args, **kwargs: solved)
        res = solve_noma_partial((100.0, 100.0), light_config())
        assert res.sum_rate == pytest.approx(1e6)  # log2(1 + 1) over 1 MHz
        assert (res.delay, res.allocation, res.iterations) == (1.0, alloc, 3)
        row = sweep_row(tmp_path, monkeypatch, alloc.powers, 1e6, "0.1")
        assert float(row["ee_bpj"]) == pytest.approx(1e6 / 0.11)
        assert float(row["pe"]) == pytest.approx(1e6 / 0.01)

    def test_total_power_adds_left_to_right(self, tmp_path, monkeypatch):
        # 0.1 + 0.2 + 0.3 from 0.0 is 0.6000000000000001; math.fsum (and
        # builtin sum from Python 3.12) gives 0.6
        power = 0.0
        for p in (0.1, 0.2, 0.3):
            power += p
        for pc, ee in (("0", 2e6 / power), ("0.1", 2e6 / (power + 0.1))):
            row = sweep_row(tmp_path, monkeypatch, (0.1, 0.2, 0.3), 2e6, pc)
            assert row["total_power_w"] == "6.0000000000000009e-01"
            assert row["sum_rate_bps"] == f"{2e6:.16e}"
            assert row["ee_bpj"] == f"{ee:.16e}" and row["pe"] == f"{2e6 / power:.16e}"
            assert (row["delay_s"], row["iterations"], row["case_label"]) == (
                f"{1.5:.16e}", "7", "-")

    def test_negative_circuit_power_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="p_circuit"):
            cli.run_sweep(load_config(S1), "e_max", [2.0], ["local"], 1, p_circuit=-0.1,
                          out_dir=str(tmp_path))

    @pytest.mark.parametrize("p_circuit", [-0.1, math.nan, math.inf])
    def test_every_scheme_rejects_bad_circuit_power(self, tmp_path, capsys, monkeypatch,
                                                    p_circuit):
        # exit 2 before any scheme runs and before any output is written
        def forbidden(*args, **kwargs):
            raise AssertionError("a scheme ran before p_circuit was checked")

        for name in ("solve_noma_partial", "solve_noma_full_offload", "solve_ofdma_partial",
                     "full_local_delay"):
            monkeypatch.setattr(cli, name, forbidden)
        out = tmp_path / "out"
        rc = cli.main(["sweep", S1, "--axis", "e_max", "--values", "2",
                       "--schemes", ",".join(cli.SCHEMES), "--pc", str(p_circuit),
                       "--out", str(out)])
        assert rc == 2
        assert "p_circuit" in capsys.readouterr().err
        assert not out.exists()

    def test_ofdma_checks_circuit_power_before_solving(self, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("bss_solve ran before p_circuit was checked")

        monkeypatch.setattr("nomamec.baselines.bss_solve", no_solve)
        with pytest.raises(UsageError, match="p_circuit"):
            cli.run_sweep(load_config(S1), "e_max", [2.0],
                          ["ofdma-partial-1rb", "ofdma-partial-mrb"], 1, p_circuit=-0.1,
                          out_dir=str(tmp_path))


class TestFullLocal:
    def test_s1_like_parameters(self):
        res = full_local_delay(light_config())
        assert res.delay == pytest.approx(1.6)
        assert res.sum_rate == 0.0 and res.allocation.powers == (0.0, 0.0)

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
