import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from nomamec import (
    ChannelRealization,
    ScenarioConfig,
    Seed,
    UserSpec,
    dbm_per_hz_to_watts,
    generate_channels,
    reorder_users,
)
from nomamec.model import _with_users
from nomamec.scenario import gains_from_draws
from conftest import s1_config


def numpy_stream(seed, point=None, user=None):
    """numpy's own generator for the stream generate_channels draws from."""
    key = (seed.trial, *(k for k in (point, user) if k is not None))
    ss = np.random.SeedSequence(entropy=seed.master, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def many_user_config(n, distance=0.0):
    users = tuple(
        UserSpec(1.6e6, 1e3, 1e9, 1e-28, distance=distance) for _ in range(n)
    )
    return ScenarioConfig(
        bandwidth=1e6, noise_density_dbm=-174.0, users=users, p_max=0.01, e_max=0.2
    )


class TestDbmConversion:
    def test_thermal_noise_floor(self):
        # -174 dBm/Hz is 10^-20.4 W/Hz, the room-temperature thermal floor
        assert dbm_per_hz_to_watts(-174.0, 1e6) == pytest.approx(10 ** (-20.4) * 1e6)

    def test_minus_thirty(self):
        assert dbm_per_hz_to_watts(-30.0, 1.0) == pytest.approx(1e-6)

    def test_zero_dbm(self):
        assert dbm_per_hz_to_watts(0.0, 1.0) == pytest.approx(1e-3)


class TestDeterminism:
    def test_same_seed_same_realization(self):
        cfg = many_user_config(4)
        a = generate_channels(Seed(master=7, trial=2), cfg)
        b = generate_channels(Seed(master=7, trial=2), cfg)
        assert a == b

    def test_trial_and_point_vary(self):
        cfg = many_user_config(4)
        base = generate_channels(Seed(master=7, trial=0), cfg)
        assert generate_channels(Seed(master=7, trial=1), cfg) != base
        assert generate_channels(Seed(master=7, trial=0), cfg, point=1) != base

    def test_pure_function_of_master_and_trial(self):
        cfg = many_user_config(3)
        gains = [generate_channels(Seed(master=5, trial=t), cfg).gains for t in (0, 1, 0)]
        assert gains[0] == gains[2] and gains[0] != gains[1]

    def test_shared_streams_equal_independent_draws(self):
        # user streams nest across counts, so one store serves a whole
        # user-count sweep: each (trial, user) stream is drawn once
        streams = {}
        for trial in range(3):
            seed = Seed(master=77, trial=trial)
            for n in (3, 8, 1, 5, 2, 7, 4, 6):
                shared = generate_channels(seed, many_user_config(n), streams=streams)
                assert shared == generate_channels(seed, many_user_config(n))
        assert len(streams) == 3 * 8


class TestGainFormula:
    def test_zero_distance_unit_fading(self):
        cfg = many_user_config(2)
        sigma2 = dbm_per_hz_to_watts(cfg.noise_density_dbm, cfg.bandwidth)
        g = gains_from_draws([0.0, 0.0], [1.0, 1.0], cfg)
        assert g == pytest.approx([1.0 / sigma2, 1.0 / sigma2])

    def test_path_loss_applied(self):
        cfg = many_user_config(1)
        sigma2 = dbm_per_hz_to_watts(cfg.noise_density_dbm, cfg.bandwidth)
        d = 100.0
        g = gains_from_draws([d], [1.0], cfg)
        assert g[0] == pytest.approx(1.0 / ((1.0 + d**3.76) * sigma2))

    def test_fixed_distance_honored(self):
        cfg = many_user_config(2, distance=50.0)
        sigma2 = dbm_per_hz_to_watts(cfg.noise_density_dbm, cfg.bandwidth)
        real = generate_channels(Seed(master=1), cfg)
        path = 1.0 + 50.0**3.76
        implied_fading = np.array(real.gains) * path * sigma2
        # with both users pinned to 50 m the gain spread is fading alone
        assert np.all(implied_fading > 0)
        assert max(real.gains) / min(real.gains) == pytest.approx(
            implied_fading.max() / implied_fading.min()
        )


class TestSortingAndPairing:
    def test_output_sorted_ascending(self):
        cfg = many_user_config(8)
        for trial in range(20):
            real = generate_channels(Seed(master=11, trial=trial), cfg)
            assert list(real.gains) == sorted(real.gains)

    def test_permutation_round_trip(self):
        users = (
            UserSpec(1.0e6, 1e3, 1e9, 1e-28),
            UserSpec(2.0e6, 1e3, 1e9, 1e-27),
            UserSpec(3.0e6, 1e3, 1e9, 5e-28),
        )
        cfg = ScenarioConfig(
            bandwidth=1e6, noise_density_dbm=-174.0, users=users, p_max=0.01, e_max=0.2
        )
        real = generate_channels(Seed(master=13), cfg)
        ordered = reorder_users(cfg, real)
        assert sorted(u.task_bits for u in ordered.users) == [1.0e6, 2.0e6, 3.0e6]
        for slot, original in enumerate(real.sic_order):
            assert ordered.users[slot] == cfg.users[original]

    def test_identity_order_returns_the_config_itself(self):
        users = tuple(UserSpec(bits, 1e3, 1e9, 1e-28) for bits in (1.0e6, 2.0e6, 3.0e6))
        cfg = ScenarioConfig(
            bandwidth=1e6, noise_density_dbm=-174.0, users=users, p_max=0.01, e_max=0.2
        )
        gains = (1.0, 2.0, 3.0)
        assert reorder_users(cfg, ChannelRealization(gains, (0, 1, 2))) is cfg
        permuted = reorder_users(cfg, ChannelRealization(gains, (2, 0, 1)))
        assert permuted is not cfg
        assert permuted.users == tuple(cfg.users[i] for i in (2, 0, 1))


class TestConfigWithUsers:
    """model._with_users skips the checks, not the result: it equals replace."""

    @pytest.mark.parametrize("order", [(1, 0), (0, 1), (1, 1, 0), (0, 1, 0, 1, 0), (1,)])
    def test_equals_replace(self, order):
        cfg = s1_config()
        users = tuple(cfg.users[i] for i in order)
        copied, rebuilt = _with_users(cfg, users), replace(cfg, users=users)
        assert copied == rebuilt and hash(copied) == hash(rebuilt)
        assert copied.users == users and copied.num_users == len(order)
        for a, b in zip(copied.users, rebuilt.users):
            assert (a.local_full_time, a.local_full_energy) == (
                b.local_full_time, b.local_full_energy)
        assert cfg.users == s1_config().users  # the source is untouched


class TestStatistics:
    def test_unit_mean_fading_power(self):
        cfg = many_user_config(1000, distance=1.0)
        sigma2 = dbm_per_hz_to_watts(cfg.noise_density_dbm, cfg.bandwidth)
        path = 2.0  # 1 + 1^alpha
        samples = []
        for trial in range(100):
            real = generate_channels(Seed(master=99, trial=trial), cfg)
            samples.append(np.array(real.gains) * path * sigma2)
        power = np.concatenate(samples)
        assert abs(power.mean() - 1.0) < 0.01

    def test_rayleigh_envelope_ks(self):
        cfg = many_user_config(1000, distance=1.0)
        sigma2 = dbm_per_hz_to_watts(cfg.noise_density_dbm, cfg.bandwidth)
        samples = []
        for trial in range(100):
            real = generate_channels(Seed(master=123, trial=trial), cfg)
            samples.append(np.sqrt(np.array(real.gains) * 2.0 * sigma2))
        envelope = np.concatenate(samples)
        stat = kstest(envelope, "rayleigh", args=(0.0, 1.0 / np.sqrt(2.0))).statistic
        assert stat < 0.01

    def test_distances_fill_the_cell(self):
        cfg = many_user_config(2000)
        rng = numpy_stream(Seed(master=77))
        u = rng.random(2000)
        drawn = cfg.cell_radius * (1.0 - u)
        assert 0.0 < drawn.min() and drawn.max() <= cfg.cell_radius
        assert abs(drawn.mean() - 250.0) < 15.0


def _array_reference(seed, config, point=None):
    """generate_channels as numpy array arithmetic on numpy's draws: (gains, sic_order).

    The path loss is math.pow per distance, as in gains_from_draws.
    """
    n = config.num_users
    u, re, im = np.empty(n), np.empty(n), np.empty(n)
    for i in range(n):
        rng = numpy_stream(seed, point, user=i)
        u[i], re[i], im[i] = rng.random(), rng.standard_normal(), rng.standard_normal()
    drawn = config.cell_radius * (1.0 - u)
    fixed = np.array([usr.distance for usr in config.users])
    distances = np.where(fixed > 0.0, fixed, drawn)
    fading_power = 0.5 * (re**2 + im**2)
    sigma2 = dbm_per_hz_to_watts(config.noise_density_dbm, config.bandwidth)
    path = np.array([math.pow(d, config.path_loss_exp) for d in distances.tolist()])
    gains = fading_power / ((1.0 + path) * sigma2)
    order = np.argsort(gains, kind="stable")
    return tuple(gains[order].tolist()), tuple(order.tolist())


class TestArrayReference:
    """The float loop gives the array formula's gains and order bit for bit."""

    @pytest.mark.parametrize("n", range(1, 18))
    def test_matches_array_formula(self, n):
        for alpha in (2.0, 3.76, 4.5):
            for distance in (0.0, 40.0):
                base = many_user_config(n, distance=distance)
                # every third user drawn, the rest fixed, when distances are fixed
                users = tuple(replace(usr, distance=distance * (i % 3)) for i, usr in
                              enumerate(base.users))
                cfg = replace(base, users=users, path_loss_exp=alpha)
                streams = {}
                for trial in range(3):
                    seed = Seed(master=31, trial=trial)
                    for point in (None, 2):
                        want = _array_reference(seed, cfg, point)
                        # the second streams call reads the stored draws back
                        for kwargs in ({}, {"streams": streams}, {"streams": streams}):
                            real = generate_channels(seed, cfg, point, **kwargs)
                            assert (real.gains, real.sic_order) == want

    def test_equal_gains_keep_user_order(self):
        # fixed distances with equal draws: a stable sort keeps index order
        cfg = many_user_config(4, distance=50.0)
        seed = Seed(master=3)
        streams = {(seed, None, i): (0.5, 0.3, -0.4) for i in range(4)}
        real = generate_channels(seed, cfg, streams=streams)
        assert real.sic_order == (0, 1, 2, 3) and len(set(real.gains)) == 1
