import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nomamec import (
    Allocation,
    ChannelRealization,
    InfeasibleScenarioError,
    ScenarioConfig,
    Seed,
    ServerSpec,
    UsageError,
    UserSpec,
    bss_solve,
    check_feasibility,
    generate_channels,
    max_violation,
    reorder_users,
    solve_noma_full_offload,
    solver,
)
from conftest import (
    draw_envelope_scenario,
    feasible_two_user_scenarios,
    reference_relaxed_delay,
    reference_two_user,
    residuals,
    s1_config,
)
from test_golden import _solver_draw

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "s1.json"


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


def t_max(cfg) -> float:
    """The bisection's bracket top: the worst fully-local compute time."""
    return max(u.local_full_time for u in cfg.users)


class TestInitBounds:
    # bss_solve brackets the delay by [0, T_max]: its first halving is T_max / 2
    def test_s1_parameters(self):
        cfg = s1_config()
        assert t_max(cfg) == pytest.approx(1.6)
        res = bss_solve(ChannelRealization(gains=(1e5, 1e6)), cfg, eps=1e-4)
        assert res.trace[0][0] == 0.5 * t_max(cfg)

    def test_max_over_users(self):
        cfg = light_users_config(
            users=(
                UserSpec(0.5e6, 1e3, 1e9, 1e-28),
                UserSpec(2.0e6, 1e3, 1e9, 1e-28),
                UserSpec(1.0e6, 1e3, 1e9, 1e-28),
            )
        )
        assert t_max(cfg) == pytest.approx(2.0)
        res = bss_solve(ChannelRealization(gains=(1e5, 1e6, 1e7)), cfg, eps=1e-4)
        assert res.trace[0][0] == 0.5 * t_max(cfg)

    def test_zero_task_forbidden(self):
        with pytest.raises(UsageError):
            UserSpec(0.0, 1e3, 1e9, 1e-28)


class TestConstraintViolations:
    def test_pure_local_at_upper_bound(self):
        cfg = light_users_config()
        alloc = Allocation(betas=(0.0, 0.0), powers=(cfg.p_max, cfg.p_max))
        assert max_violation(1.6, alloc, (1e4, 1e5), cfg) <= 1e-12

    def test_tiny_alpha_breaks_local(self):
        cfg = light_users_config()
        alloc = Allocation(betas=(0.5, 0.5), powers=(0.0, 0.0))
        viol = residuals(1e-9, (1e4, 1e5), cfg, alloc.betas, alloc.powers)
        n = cfg.num_users
        assert viol[n : 2 * n].max() > 0  # local-time residuals
        assert max_violation(1e-9, alloc, (1e4, 1e5), cfg) == pytest.approx(viol.max(), abs=1e-12)

    def test_alpha_must_be_positive(self):
        cfg = light_users_config()
        alloc = Allocation(betas=(0.0, 0.0), powers=(0.0, 0.0))
        with pytest.raises(UsageError):
            max_violation(0.0, alloc, (1e4, 1e5), cfg)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_alpha_must_be_finite(self, alpha):
        # max_violation used to return 0.0 at a NaN delay
        cfg = light_users_config()
        alloc = Allocation(betas=(0.0, 0.0), powers=(0.0, 0.0))
        with pytest.raises(UsageError, match="alpha"):
            max_violation(alpha, alloc, (1e4, 1e5), cfg)

    def test_below_optimum_every_allocation_violated(self, s1):
        realization, cfg = s1
        delay, _, _ = reference_two_user(realization, cfg)
        alpha = delay - 0.01
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

    def test_zero_alpha_infeasible(self):
        cfg = light_users_config()
        rep = check_feasibility(0.0, ChannelRealization(gains=(1e4, 1e5)), cfg)
        assert not rep.feasible

    def test_oracle_bracket(self, s1):
        realization, cfg = s1
        delay, _, _ = reference_two_user(realization, cfg)
        assert check_feasibility(delay + 0.01, realization, cfg).feasible
        assert not check_feasibility(delay - 0.01, realization, cfg).feasible

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
        lo, hi = 0.0, t_max(cfg)
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
        alloc = res.allocation
        viol = residuals(res.optimal_delay + 1e-4, realization, cfg, alloc.betas, alloc.powers)
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
        alpha_max = t_max(cfg)
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

    @pytest.mark.parametrize("fixed_betas", [None, (1.0, 1.0)])
    def test_rate_that_underflows_to_zero(self, fixed_betas):
        # g p_max rounds to 0, so the relaxed delay has no rate to divide
        # by; it must certify nothing rather than raise ZeroDivisionError
        gains = (5e-324, 5e-324)
        with pytest.raises(InfeasibleScenarioError):
            bss_solve(gains, s1_config(), eps=1e-3, fixed_betas=fixed_betas)
        # all local within the budgets: the answer is the fully-local time
        res = bss_solve(gains, light_users_config(), eps=1e-3, fixed_betas=(0.0, 0.0))
        assert res.converged and res.optimal_delay == pytest.approx(1.6, abs=1e-3)

    def test_pinned_ratios_double_an_infeasible_bracket_top(self):
        # master 1024's weak user (gain 14.4) cannot offload its whole task
        # by the fully-local time 1.6 s; the top doubles three times
        cfg = replace(s1_config(), e_max=2.0)
        realization = generate_channels(Seed(master=1024), cfg)
        cfg = reorder_users(cfg, realization)
        assert not check_feasibility(1.6, realization, cfg, fixed_betas=(1.0, 1.0)).feasible
        res = bss_solve(realization, cfg, eps=1e-3, fixed_betas=(1.0, 1.0))
        full = solve_noma_full_offload(realization, cfg, eps=1e-3)
        assert res.optimal_delay == full.delay == 8.219921875
        assert res.iterations == full.iterations == 14
        assert res.allocation == full.allocation
        assert res.converged

    def test_pinned_top_that_overflows(self):
        # T_max 2^k overflows before k = 59; the doubling must stop at the
        # last finite top instead of bisecting an infinite bracket
        base = s1_config()
        cfg = replace(base, users=tuple(replace(u, task_bits=1e300) for u in base.users))
        with pytest.raises(InfeasibleScenarioError, match="next top is not finite"):
            bss_solve((1e4, 2e4), cfg, fixed_betas=(1.0, 1.0))

    @pytest.mark.parametrize(
        "tolerances",
        [dict(eps=0.0), dict(eps=math.nan), dict(eps=math.inf)],
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
            # the halvings are verdict-only; the reports are the
            # certifications and the server run's bracket top (without a
            # server the relaxed delay certifies the top feasible)
            assert res.iterations == 14
        assert len(oracle_reports) == 3
        assert not any(rep.uncertain for rep in oracle_reports)

    def test_deterministic_repeat(self, s1):
        realization, cfg = s1
        a = bss_solve(realization, cfg)
        b = bss_solve(realization, cfg)
        assert a.optimal_delay == b.optimal_delay
        assert a.allocation == b.allocation
        assert a.trace == b.trace


def relaxed_delay(realization, cfg, pinned=None):
    """(alpha_r, exact) of the energy-relaxed problem that seeds bss_solve."""
    oracle = solver._Oracle(realization, cfg, pinned)
    return solver._relaxed_delay(oracle.g, oracle.specs, cfg, oracle.pinned)


class TestRelaxedDelay:
    def test_lower_bound_and_exact_when_flagged(self):
        rng = np.random.default_rng(41)
        exact = {"free": 0, "pinned": 0}
        for _ in range(160):
            m = int(rng.integers(1, 9))
            realization, cfg = draw_envelope_scenario(rng, n_users=m)
            if rng.random() < 0.5:
                cfg = replace(cfg, e_max=float(rng.uniform(0.4, 3.0)))
            pinned = tuple(rng.uniform(0.0, 1.0, m)) if rng.random() < 0.4 else None
            eps = 1e-6 * max(u.local_full_time for u in cfg.users)
            try:
                res = bss_solve(realization, cfg, eps=eps, fixed_betas=pinned)
            except InfeasibleScenarioError:
                continue
            alpha_r, is_exact = relaxed_delay(realization, cfg, pinned)
            assert alpha_r <= res.optimal_delay + eps, (m, pinned)
            if is_exact:
                assert abs(alpha_r - res.optimal_delay) <= eps, (m, pinned)
                exact["free" if pinned is None else "pinned"] += 1
        assert min(exact.values()) >= 10, exact

    def test_running_sums_equal_sum(self):
        # _relaxed_delay takes each free-ratio prefix's root from running
        # sums and sums afresh only after dropping a user; the reference
        # sums every root with sum(): equal bit for bit
        rng = np.random.default_rng(43)
        dropped = 0
        for k in range(600):
            m = int(rng.integers(1, 9))
            realization, cfg = draw_envelope_scenario(
                rng, p_max_high=1.0 if k % 2 else 0.05, n_users=m)
            # local CPUs 0.5 to 20 GHz, so some users' floors reach 0
            users = tuple(replace(u, cpu_freq=float(10 ** rng.uniform(8.7, 10.3)))
                          for u in cfg.users)
            cfg = replace(cfg, users=users, e_max=float(10 ** rng.uniform(-2.0, 1.3)))
            g, specs = realization.gains, solver._specs(cfg)
            got = solver._relaxed_delay(g, specs, cfg)
            assert repr(got) == repr(reference_relaxed_delay(g, specs, cfg))
            if got[0] >= min(t for _, t, _ in specs):
                dropped += 1
        assert dropped >= 100, dropped

    def test_two_user_case1(self):
        # with both budgets slack the closed form's Case1 is the optimum:
        # the total-bits rate constraint and both local times bind
        for realization, cfg, sol in feasible_two_user_scenarios(
            40, seed=5, energy_slack_only=True
        ):
            alpha_r, exact = relaxed_delay(realization, cfg)
            assert exact
            assert alpha_r == pytest.approx(sol.delay, rel=1e-12, abs=0.0)

    def test_relaxed_residual_bounds_every_witness(self):
        # the lower certificate: below the optimum no oracle witness has a
        # residual under _relaxed_residual, compared exactly in floats;
        # where the witness is the relaxed allocation itself (slack budgets,
        # below the relaxed delay) the two are equal, so a weaker bound fails
        rng = np.random.default_rng(43)
        tight, certified, budgets = Counter(), Counter(), Counter()
        for draw in range(120):
            m = 1 if draw % 4 == 0 else int(rng.integers(2, 9))
            realization, cfg = draw_envelope_scenario(rng, n_users=m)
            pinned = None
            if rng.random() < 0.25:
                cpu = float(10 ** rng.uniform(9.5, 10.5))
                cfg = replace(cfg, server=ServerSpec(cycles_per_bit=1e3, cpu_freq=cpu, kappa=1e-28))
                kind = "server"
            elif rng.random() < 0.4:
                pinned = tuple(rng.uniform(0.0, 1.0, m))
                kind = "pinned"
            else:
                kind = "one" if m == 1 else "free"
            # a budget that leaves the relaxed allocation's transmit energy
            # short (it binds) or not (every budget is slack)
            alpha_r = relaxed_delay(realization, cfg, pinned)[0]
            local = [1.0 - b for b in pinned] if pinned else [
                min(1.0, alpha_r / u.local_full_time) for u in cfg.users]
            spent = max(u.local_full_energy * share for u, share in zip(cfg.users, local))
            scale = rng.uniform(0.2, 0.9) if rng.random() < 0.5 else rng.uniform(1.0, 3.0)
            cfg = replace(cfg, e_max=float(spent + scale * alpha_r * cfg.p_max))
            try:
                opt = bss_solve(realization, cfg, eps=1e-7 * t_max(cfg),
                                fixed_betas=pinned).optimal_delay
            except InfeasibleScenarioError:
                continue
            oracle = solver._Oracle(realization, cfg, pinned)
            budgets[kind, relaxed_delay(realization, cfg, pinned)[1]] += 1
            for share in (0.2, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-6):
                alpha = share * opt
                residual = check_feasibility(alpha, realization, cfg, pinned).residual
                bound = solver._relaxed_residual(alpha, oracle.g, oracle.specs, cfg, oracle.pinned)
                assert residual >= bound, (kind, m, share, residual, bound)
                tight[kind] += residual == bound
                certified[kind] += bound > solver.EPS_FEAS
        # every kind of draw, with slack (exact relaxed delay) and binding budgets
        assert min(budgets[k, e] for k in ("one", "free", "pinned", "server")
                   for e in (True, False)) >= 2, budgets
        assert min(tight[k] for k in ("one", "free", "pinned")) >= 10, tight
        assert min(certified.values()) >= 20 and len(certified) == 4, certified

    def test_slack_budgets_take_one_oracle_call(self, tmp_path, monkeypatch, capsys):
        # the fig-users shape: every budget is slack, so the relaxed delay
        # certifies every bracket top and halving and a solve asks the
        # oracle only for the certification
        from nomamec import cli

        calls = []
        decide = solver._Oracle._decide

        def counting(self, *args):
            calls.append(args[0])
            return decide(self, *args)

        monkeypatch.setattr(solver._Oracle, "_decide", counting)
        per_solve = []
        for name in ("solve_noma_partial", "solve_noma_full_offload"):
            def counted(*args, _scheme=getattr(cli, name)):
                start = len(calls)
                res = _scheme(*args)
                per_solve.append(len(calls) - start)
                return res

            monkeypatch.setattr(cli, name, counted)
        cfg = json.loads(CONFIG.read_text())
        cfg.update(e_max_j=2.0, master_seed=1000)
        path = tmp_path / "in.json"
        path.write_text(json.dumps(cfg))
        argv = ["sweep", str(path), "--axis", "user_count", "--values", "2,3,4,5,6,7,8",
                "--schemes", "noma-partial,noma-full", "--seeds", "1", "--eps", "1e-3",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert per_solve == [1] * 14


class TestFloorCertificate:
    """alpha_u: the least delay at which A(alpha), every power at p_max and
    every ratio at its local-time or energy floor, meets every rate row."""

    def test_floor_allocation_certifies_a_feasible_delay(self):
        # slack, binding and full-offload budgets; the last spends the whole
        # budget on full offloading at p_max, so alpha_u sits at e_max / p_max
        # and only the alpha p_max <= e_max guard keeps it uncertified
        rng = np.random.default_rng(47)
        certified, guarded = Counter(), 0
        for draw in range(150):
            m = int(rng.integers(1, 9))
            realization, cfg = draw_envelope_scenario(
                rng, p_max_high=0.05 if draw % 2 else 1.0, n_users=m)
            kind = ("slack", "binding", "full")[draw % 3]
            if kind == "slack":
                cfg = replace(cfg, e_max=float(rng.uniform(0.4, 3.0)))
            elif kind == "full":
                rates = [cfg.bandwidth * math.log2(1.0 + cfg.p_max * sum(realization.gains[:j]))
                         for j in range(1, m + 1)]
                bits = np.cumsum([u.task_bits for u in cfg.users])
                cfg = replace(cfg, e_max=float(max(bits / rates) * cfg.p_max))
            eps = 1e-9 * max(u.local_full_time for u in cfg.users)
            try:
                opt = bss_solve(realization, cfg, eps=eps).optimal_delay
            except InfeasibleScenarioError:
                continue
            oracle = solver._Oracle(realization, cfg)
            alpha_r = solver._relaxed_delay(oracle.g, oracle.specs, cfg)[0]
            alpha_u, at = solver._floor_certificate(alpha_r, oracle.g, oracle.specs, cfg)
            assert alpha_u >= opt - eps, (kind, m, alpha_u, opt)
            if at == math.inf:
                guarded += alpha_u * (1.0 + solver._SEED_SPREAD) * cfg.p_max > cfg.e_max
                continue
            alloc = Allocation(solver._floor_betas(at, oracle.specs, cfg), (cfg.p_max,) * m)
            # the local and energy rows sit at their floors, up to rounding
            assert max_violation(at, alloc, realization, cfg) <= 1e-12, (kind, m)
            assert check_feasibility(at, realization, cfg).feasible, (kind, m)
            certified[kind] += 1
        assert min(certified[k] for k in ("slack", "binding")) >= 40, certified
        assert guarded >= 20, guarded

    def test_binding_budgets_take_two_oracle_calls(self, monkeypatch):
        # s1 draws whose relaxed delay is not exact: the probe just below
        # alpha_u and the certification are the only oracle calls
        calls = []
        decide = solver._Oracle._decide

        def counting(self, alpha):
            calls.append(alpha)
            return decide(self, alpha)

        monkeypatch.setattr(solver._Oracle, "_decide", counting)
        base, counts = s1_config(), Counter()
        for trial in range(200):
            realization = generate_channels(Seed(master=0, trial=trial), base)
            cfg = reorder_users(base, realization)
            calls.clear()
            bss_solve(realization, cfg)
            alpha_r, exact = relaxed_delay(realization, cfg)
            if exact:
                continue
            oracle = solver._Oracle(realization, cfg)
            alpha_u, at = solver._floor_certificate(alpha_r, oracle.g, oracle.specs, cfg)
            if alpha_u > alpha_r:
                # the probe first, the certification last, and between them
                # only a halving that falls within 1e-6 of alpha_u
                probe = alpha_u * (1.0 - solver._SEED_SPREAD)
                assert calls[0] == probe and at < math.inf, (trial, calls)
                assert all(probe < a < at for a in calls[1:-1]), (trial, calls)
                counts[len(calls)] += 1
            else:
                # A(alpha_r) meets every rate row, so alpha_r is the optimum and
                # the lower certificate already reaches the probe
                assert len(calls) == 1, (trial, calls)
        assert counts[2] >= 100 and counts[2] >= 20 * (counts.total() - counts[2]), counts


def _certificate_digest(count: int = 120, seed: int = 23) -> str:
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for k in range(count):
        gains, config, pinned = _solver_draw(rng, k)
        specs = solver._specs(config)
        alpha_r = solver._relaxed_delay(gains, specs, config, pinned)[0]
        alpha_u = solver._floor_delay(alpha_r, gains, specs, config)
        delays = [alpha_r * f for f in (0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0)]
        if alpha_u < math.inf:
            delays.append(alpha_u * (1.0 + 1e-6))
        rows = [(alpha, solver._relaxed_residual(alpha, gains, specs, config, pinned),
                 solver._floor_rows(alpha, gains, specs, config)) for alpha in delays]
        h.update(repr((k, alpha_r, alpha_u, rows)).encode() + b"\n")
    return h.hexdigest()


CERTIFICATE_DIGEST = "a9fa7b8d8482dc44d0e3397b682458b6f5eb830f24524e628ce8fdda99515ed4"


def test_certificate_floats_unchanged():
    # the certificates' own floats on test_golden.py's solver-digest draws
    # (M 1-8, slack and binding budgets, a server on every third draw,
    # pinned ratios on every tenth): the relaxed residual, A(alpha)'s rate
    # rows and alpha_u, at delays around alpha_r and just above alpha_u
    assert _certificate_digest() == CERTIFICATE_DIGEST


class TestOptimumStructure:
    def test_equal_completion_times_when_energy_slack(self):
        # at the optimum of an energy-slack scenario the shared window is
        # the delay itself: the total-bits rate constraint binds, every
        # prefix fits the decode region, and some local share ends there
        from nomamec.model import aggregated_offload_time, local_time
        from conftest import feasible_two_user_scenarios

        for realization, cfg, _ in feasible_two_user_scenarios(
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
                assert res.optimal_delay <= t_max(run) + 1e-9
                assert res.optimal_delay >= prev - 2e-4
                prev = res.optimal_delay
        assert solved >= 40


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
            lo, hi = 0.0, t_max(cfg)
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
