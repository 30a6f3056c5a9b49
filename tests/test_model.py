import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomamec import (
    Allocation,
    ChannelRealization,
    ScenarioConfig,
    UsageError,
    UserSpec,
    aggregated_offload_time,
    local_energy,
    local_time,
    offload_energy,
    server_time,
    ServerSpec,
    sinr,
    sum_rate,
    total_delay,
    user_rate,
)
from conftest import random_gain_power_instance, reference_two_user


def make_user(L=1.6e6, C=1e3, f=1e9, kappa=1e-27):
    return UserSpec(task_bits=L, cycles_per_bit=C, cpu_freq=f, kappa=kappa)


class TestSinr:
    def test_single_user_no_interference(self):
        assert sinr(1, [2.0], [0.5]) == pytest.approx(1.0)

    def test_second_user_sees_first(self):
        assert sinr(2, [1.0, 3.0], [1.0, 1.0]) == pytest.approx(1.5)

    def test_zero_power(self):
        assert sinr(1, [5.0, 9.0], [0.0, 1.0]) == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(UsageError):
            sinr(3, [1.0, 2.0], [0.1, 0.1])
        with pytest.raises(UsageError):
            sinr(0, [1.0], [0.1])


class TestRates:
    def test_unit_snr(self):
        assert user_rate(1, [1.0], [1.0], 1e6) == pytest.approx(1e6)

    def test_interference_limited(self):
        assert user_rate(2, [1.0, 1.0], [1.0, 2.0], 1.0) == pytest.approx(1.0)

    def test_zero_power_zero_rate(self):
        assert user_rate(1, [1.0], [0.0], 1e6) == 0.0

    def test_sum_rate_simple(self):
        assert sum_rate([0.5, 0.5], [1.0, 1.0], 1e6, 2) == pytest.approx(1e6)

    def test_sum_rate_all_zero(self):
        assert sum_rate([0.5, 0.5], [0.0, 0.0], 1e6, 2) == 0.0

    def test_telescoping_four_users(self):
        rng = np.random.default_rng(11)
        gains = np.sort(10 ** rng.uniform(3, 6, 4))
        p = rng.uniform(0.0, 0.5, 4)
        total = sum_rate(gains, p, 1e6, 4)
        split = sum(user_rate(i, gains, p, 1e6) for i in range(1, 5))
        assert abs(total - split) <= 1e-9 * total

    def test_telescoping_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            real, p = random_gain_power_instance(rng)
            m = len(real.gains)
            total = sum_rate(real, p, 1e6, m)
            split = sum(user_rate(i, real, p, 1e6) for i in range(1, m + 1))
            assert abs(total - split) <= 1e-9 * max(total, 1.0)

    def test_sums_add_left_to_right(self):
        # the order of additions reaches output bytes: each sum adds
        # g_i p_i for i = 1, 2, ... in turn, from 0.0
        rng = np.random.default_rng(29)
        for _ in range(300):
            real, p = random_gain_power_instance(rng)
            p = p.tolist()
            g = real.gains
            acc = 0.0
            for m in range(1, len(g) + 1):
                assert sinr(m, real, p) == g[m - 1] * p[m - 1] / (acc + 1.0)
                acc += g[m - 1] * p[m - 1]
                assert sum_rate(real, p, 1e6, m) == 1e6 * math.log2(1.0 + acc)

    @given(
        st.lists(st.floats(1e2, 1e7), min_size=2, max_size=8),
        st.floats(1e-4, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_sum_rate_monotone_in_power(self, raw_gains, bump):
        gains = tuple(sorted(raw_gains))
        m = len(gains)
        p = [0.01] * m
        base = sum_rate(gains, p, 1e6, m)
        for i in range(m):
            higher = list(p)
            higher[i] += bump
            assert sum_rate(gains, higher, 1e6, m) > base


class TestTimes:
    def test_aggregated_unit(self):
        user = make_user(L=1e6)
        t = aggregated_offload_time(1, [1.0], [1.0], [1.0], [user], 1e6)
        assert t == pytest.approx(1.0)

    def test_zero_bits(self):
        users = [make_user(), make_user()]
        assert aggregated_offload_time(2, [0.0, 0.0], [1.0, 2.0], [0.1, 0.1], users, 1e6) == 0.0

    def test_zero_rate_is_infinite(self):
        user = make_user(L=1e6)
        t = aggregated_offload_time(1, [1.0], [1.0], [0.0], [user], 1e6)
        assert math.isinf(t)

    def test_monotone_in_beta(self):
        users = [make_user(), make_user()]
        gains, p = [1e3, 1e4], [0.01, 0.01]
        lo = aggregated_offload_time(2, [0.2, 0.2], gains, p, users, 1e6)
        hi = aggregated_offload_time(2, [0.2, 0.4], gains, p, users, 1e6)
        assert hi > lo

    def test_local_time_s1_parameters(self):
        assert local_time(0.0, make_user()) == pytest.approx(1.6)
        assert local_time(1.0, make_user()) == 0.0
        assert local_time(0.5, make_user()) == pytest.approx(0.8)


class TestEnergies:
    def test_local_energy_values(self):
        assert local_energy(0.0, make_user(kappa=1e-27)) == pytest.approx(1.6)
        assert local_energy(1.0, make_user(kappa=1e-27)) == 0.0
        assert local_energy(0.0, make_user(kappa=1e-28)) == pytest.approx(0.16)

    def test_offload_energy_zero_power(self):
        users = [make_user()]
        alloc = Allocation(betas=(1.0,), powers=(0.0,))
        assert offload_energy(1, alloc, [1.0], users, 1e6) == 0.0

    def test_offload_energy_one_second(self):
        user = make_user(L=1e6)
        alloc = Allocation(betas=(1.0,), powers=(0.01,))
        # gain*power = 1 at B=1e6 gives a 1 s transfer of 1e6 bits
        e = offload_energy(1, alloc, [100.0], users=[user], bandwidth=1e6)
        assert e == pytest.approx(0.01)

    def test_energy_accounting_extremes(self):
        user = make_user(kappa=1e-27)
        assert local_energy(1.0, user) == 0.0
        assert local_energy(0.0, user) + 0.0 == pytest.approx(user.local_full_energy)



class TestFullyLocalConstants:
    """local_full_time and local_full_energy are computed once, at construction."""

    def test_equal_the_formulas(self):
        for user in (make_user(), make_user(L=3.3e5, C=737.0, f=1.3e9, kappa=3e-28)):
            assert user.local_full_time == user.task_bits * user.cycles_per_bit / user.cpu_freq
            assert user.local_full_energy == (
                user.kappa * user.task_bits * user.cycles_per_bit * user.cpu_freq**2
            )

    def test_replace_recomputes_them(self):
        user = make_user()
        for changes in ({"task_bits": 4e5}, {"cycles_per_bit": 20.0}, {"cpu_freq": 3e8},
                        {"kappa": 7e-29}):
            new = replace(user, **changes)
            fresh = UserSpec(task_bits=new.task_bits, cycles_per_bit=new.cycles_per_bit,
                             cpu_freq=new.cpu_freq, kappa=new.kappa)
            assert new.local_full_time == fresh.local_full_time
            assert new.local_full_energy == fresh.local_full_energy
            assert new.task_bits * new.cycles_per_bit / new.cpu_freq == new.local_full_time
        assert replace(user, distance=7.0).local_full_energy == user.local_full_energy

    def test_not_constructor_fields(self):
        user = make_user()
        assert user == make_user() and hash(user) == hash(make_user())
        assert "local_full" not in repr(user)
        with pytest.raises(ValueError, match="init=False"):
            replace(user, local_full_time=1.0)

class TestServer:
    def test_zero_betas(self):
        srv = ServerSpec(cycles_per_bit=1e3, cpu_freq=1e10, kappa=1e-28)
        assert server_time([0.0, 0.0], [make_user(), make_user()], srv) == 0.0

    def test_known_value(self):
        srv = ServerSpec(cycles_per_bit=1e3, cpu_freq=1e10, kappa=1e-28)
        users = [make_user(L=1e6)]
        assert server_time([1.0], users, srv) == pytest.approx(0.1)

    def test_two_full_tasks(self):
        srv = ServerSpec(cycles_per_bit=1e3, cpu_freq=1e9, kappa=1e-28)
        users = [make_user(), make_user()]
        assert server_time([1.0, 1.0], users, srv) == pytest.approx(3.2)

    def test_missing_server(self):
        with pytest.raises(UsageError):
            server_time([0.0], [make_user()], None)


class TestTotalDelay:
    def cfg(self, server=None):
        return ScenarioConfig(
            bandwidth=1e6,
            noise_density_dbm=-174.0,
            users=(make_user(), make_user(kappa=1e-28)),
            p_max=0.01,
            e_max=0.2,
            server=server,
        )

    def test_all_local(self):
        cfg = self.cfg()
        alloc = Allocation(betas=(0.0, 0.0), powers=(0.01, 0.01))
        bd = total_delay(alloc, [1e5, 1e6], cfg)
        assert bd.overall == pytest.approx(1.6)
        assert bd.offload == (0.0, 0.0)

    def test_full_offload_symmetric(self):
        cfg = self.cfg()
        alloc = Allocation(betas=(1.0, 1.0), powers=(0.01, 0.01))
        bd = total_delay(alloc, [1e5, 1e5], cfg)
        assert bd.overall == pytest.approx(bd.offload[1])
        assert bd.local == (0.0, 0.0)

    def test_server_term_added(self):
        srv = ServerSpec(cycles_per_bit=1e3, cpu_freq=1e9, kappa=1e-28)
        cfg = self.cfg(server=srv)
        alloc = Allocation(betas=(1.0, 1.0), powers=(0.01, 0.01))
        bd = total_delay(alloc, [1e5, 1e5], cfg)
        assert bd.server == pytest.approx(3.2)
        assert bd.overall == pytest.approx(bd.offload[1])
        no_srv = total_delay(alloc, [1e5, 1e5], self.cfg())
        assert bd.offload[1] == pytest.approx(no_srv.offload[1] + 3.2)

    def test_nonnegative_and_finite_when_rates_positive(self):
        rng = np.random.default_rng(3)
        cfg = self.cfg()
        for _ in range(50):
            alloc = Allocation(
                betas=tuple(rng.uniform(0, 1, 2)), powers=tuple(rng.uniform(1e-4, 0.01, 2))
            )
            bd = total_delay(alloc, sorted(10 ** rng.uniform(3, 6, 2)), cfg)
            assert bd.overall >= 0.0 and math.isfinite(bd.overall)


class TestOracleConsistency:
    """Model formulas evaluated at the full-problem reference optimum.

    On the reference draw both powers sit at p_max and the shares end both
    users' local work at the window, so every user transmits all window long.
    """

    def test_total_delay_matches_oracle(self, s1):
        realization, cfg = s1
        delay, shares, powers = reference_two_user(realization, cfg)
        bd = total_delay(Allocation(betas=shares, powers=powers), realization, cfg)
        assert bd.overall == pytest.approx(delay, rel=1e-9)

    def test_offload_energy_matches_oracle(self, s1):
        realization, cfg = s1
        delay, shares, powers = reference_two_user(realization, cfg)
        alloc = Allocation(betas=shares, powers=powers)
        # both users transmit for the whole window, so radiated energy is
        # window * power; user 2's prefix covers all offloaded bits
        e2 = offload_energy(2, alloc, realization, cfg.users, cfg.bandwidth)
        assert e2 == pytest.approx(delay * powers[1], rel=1e-9)
        e1 = offload_energy(1, alloc, realization, cfg.users, cfg.bandwidth)
        assert 0.0 < e1 <= delay * powers[0] * (1 + 1e-9)


class TestValidation:
    def test_user_invariants(self):
        with pytest.raises(UsageError):
            make_user(L=0.0)
        with pytest.raises(UsageError):
            make_user(C=-1.0)

    @pytest.mark.parametrize("fields", [
        dict(task_bits=1e-300),  # the local energy underflows to 0
        dict(cpu_freq=1e160),  # cpu_freq**2 overflows
        dict(task_bits=1e300, cycles_per_bit=1e300),  # the local time overflows
    ])
    def test_local_time_and_energy_must_be_finite_and_positive(self, fields):
        kwargs = dict(task_bits=1.6e6, cycles_per_bit=1e3, cpu_freq=1e9, kappa=1e-27)
        with pytest.raises(UsageError, match="fully-local"):
            UserSpec(**dict(kwargs, **fields))

    def test_gains_sorted(self):
        with pytest.raises(UsageError):
            ChannelRealization(gains=(2.0, 1.0))
        with pytest.raises(UsageError):
            ChannelRealization(gains=(0.0, 1.0))

    def test_allocation_rejects_nan_and_inf(self):
        # NaN fails every comparison, so a one-sided bound test lets it through
        with pytest.raises(UsageError):
            Allocation(betas=(math.nan,), powers=(math.inf,))
        with pytest.raises(UsageError):
            Allocation(betas=(1.0,), powers=(math.nan,))
        alloc = Allocation(betas=(0.0, 1.0 + 1e-13), powers=(-1e-13, 1e300))
        assert alloc.powers == (-1e-13, 1e300)

    def test_allocation_box(self):
        with pytest.raises(UsageError):
            Allocation(betas=(1.5,), powers=(0.0,))
        with pytest.raises(UsageError):
            Allocation(betas=(0.5, 0.5), powers=(0.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, bad):
        base = dict(
            bandwidth=1e6, noise_density_dbm=-174.0, users=(make_user(),), p_max=0.01, e_max=0.2
        )
        for field_name in ("bandwidth", "noise_density_dbm", "p_max", "e_max",
                           "path_loss_exp", "cell_radius"):
            with pytest.raises(UsageError):
                ScenarioConfig(**dict(base, **{field_name: bad}))
        for field_name in ("task_bits", "cycles_per_bit", "cpu_freq", "kappa", "distance"):
            kwargs = dict(task_bits=1.6e6, cycles_per_bit=1e3, cpu_freq=1e9, kappa=1e-27)
            with pytest.raises(UsageError):
                UserSpec(**dict(kwargs, **{field_name: bad}))
        for field_name in ("cycles_per_bit", "cpu_freq", "kappa"):
            kwargs = dict(cycles_per_bit=1e3, cpu_freq=1e10, kappa=1e-28)
            with pytest.raises(UsageError):
                ServerSpec(**dict(kwargs, **{field_name: bad}))
        with pytest.raises(UsageError):
            ChannelRealization(gains=(1.0, bad))
        with pytest.raises(UsageError):
            Allocation(betas=(0.5, bad), powers=(0.01, 0.01))
        with pytest.raises(UsageError):
            Allocation(betas=(0.5, 0.5), powers=(0.01, bad))
