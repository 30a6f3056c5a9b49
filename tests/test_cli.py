import json
import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nomamec.cli import SWEEP_COLUMNS, _seed_mean, main, run_sweep
from nomamec.configio import ConfigError, LoadedScenario, config_to_dict, load_config
from nomamec.model import ScenarioConfig, ServerSpec, UserSpec
from conftest import S1_MASTER_SEED

S1 = str(Path(__file__).resolve().parent.parent / "configs" / "s1.json")


def write_config(tmp_path, name="s1.json", users=None, **overrides):
    users = users or [
        {"task_bits": 1.6e6, "cycles_per_bit": 1e3, "cpu_freq_hz": 1e9, "kappa": 1e-27},
        {"task_bits": 1.6e6, "cycles_per_bit": 1e3, "cpu_freq_hz": 1e9, "kappa": 1e-28},
    ]
    cfg = {
        "bandwidth_hz": 1e6,
        "noise_density_dbm": -174,
        "p_max_w": 0.01,
        "e_max_j": 0.2,
        "path_loss_exp": 3.76,
        "cell_radius_m": 500,
        "master_seed": S1_MASTER_SEED,
        "users": users,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path)
        loaded = load_config(path)
        assert loaded.config.num_users == 2
        assert loaded.master_seed == S1_MASTER_SEED

    def test_missing_field_names_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bandwidth_hz": 1e6}))
        with pytest.raises(Exception) as err:
            load_config(str(path))
        assert "users" in str(err.value)

    def test_bad_user_field_names_path(self, tmp_path):
        path = write_config(
            tmp_path,
            users=[{"task_bits": -1, "cycles_per_bit": 1e3, "cpu_freq_hz": 1e9, "kappa": 1e-27}],
        )
        with pytest.raises(Exception) as err:
            load_config(path)
        assert "users[0].task_bits" in str(err.value)

    def test_cli_reports_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where,key,message",
        [
            ((), "seed", "seed: unknown field"),
            ((), "path_loss", "path_loss: unknown field"),
            (("users", 0), "distance", "users[0].distance: unknown field"),
            (("server",), "cpu_freq", "server.cpu_freq: unknown field"),
        ],
    )
    def test_unknown_key_names_its_path(self, tmp_path, capsys, where, key, message):
        # a misspelled key must not fall back to the default: "seed" would
        # load master seed 0, "distance" a user placed at random
        path = write_config(tmp_path, server=dict(SERVER))
        raw = json.loads(open(path).read())
        obj = raw
        for step in where:
            obj = obj[step]
        obj[key] = 7
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == message
        assert main(["solve", path]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_optional_keys_take_the_dataclass_defaults(self, tmp_path):
        users = [{"task_bits": 1.6e6, "cycles_per_bit": 1e3, "cpu_freq_hz": 1e9, "kappa": 1e-27}]
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps({"bandwidth_hz": 1e6, "noise_density_dbm": -174,
                                    "p_max_w": 0.01, "e_max_j": 0.2, "users": users}))
        loaded = load_config(str(path))
        user = UserSpec(1.6e6, 1e3, 1e9, 1e-27)
        assert loaded == LoadedScenario(ScenarioConfig(1e6, -174.0, (user,), 0.01, 0.2))
        assert load_config(write_config(tmp_path, server=None)).config.server is None

    @pytest.mark.parametrize("variant", ["s1", "server", "distance"])
    def test_config_to_dict_loads_back(self, tmp_path, variant):
        loaded = load_config(S1)
        config = loaded.config
        if variant == "server":
            config = replace(config, server=ServerSpec(1e3, 1e10, 1e-28))
        elif variant == "distance":
            users = tuple(replace(u, distance=d) for u, d in zip(config.users, (120.5, 37.25)))
            config = replace(config, users=users)
        for seed in (loaded.master_seed, 12345):
            path = tmp_path / f"{variant}-{seed}.json"
            path.write_text(json.dumps(config_to_dict(config, seed)))
            again = load_config(str(path))
            assert again.config == config
            assert again.master_seed == seed


SERVER = {"cycles_per_bit": 1e3, "cpu_freq_hz": 1e10, "kappa": 1e-28}
TOP_NUMBERS = ("bandwidth_hz", "noise_density_dbm", "p_max_w", "e_max_j",
               "path_loss_exp", "cell_radius_m", "master_seed")
USER_NUMBERS = ("task_bits", "cycles_per_bit", "cpu_freq_hz", "kappa", "distance_m")
NUMERIC_FIELDS = (
    [(key,) for key in TOP_NUMBERS]
    + [("users", 1, key) for key in USER_NUMBERS]
    + [("server", key) for key in SERVER]
)


class TestBadNumbers:
    """Non-finite or non-numeric values end in ConfigError and exit code 2."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        field_path=st.sampled_from(NUMERIC_FIELDS),
        bad=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.text(max_size=6)),
    )
    # inputs that got past validation: a NaN bandwidth ended in a traceback,
    # a string exponent in a bare ValueError, an infinite budget was solved
    @example(field_path=("bandwidth_hz",), bad=math.nan)
    @example(field_path=("path_loss_exp",), bad="x")
    @example(field_path=("p_max_w",), bad=math.inf)
    def test_every_numeric_field(self, tmp_path, capsys, field_path, bad):
        with open(write_config(tmp_path), encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["server"] = dict(SERVER)
        target = cfg
        for key in field_path[:-1]:
            target = target[key]
        target[field_path[-1]] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))  # NaN and Infinity are JSON extensions
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert field_path[-1] in str(err.value)
        assert main(["solve", str(path), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--eps"])
    def test_non_finite_tolerance_exit_2(self, tmp_path, capsys, flag):
        path = write_config(tmp_path)
        assert main(["solve", path, "--method", "bss", flag, "nan", "--out", str(tmp_path)]) == 2
        sweep = ["sweep", path, "--axis", "p_max", "--values", "0.01", "--schemes", "noma-full",
                 flag, "inf", "--out", str(tmp_path)]
        assert main(sweep) == 2
        assert "eps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ("solve", "--method", "auto"),
        ("solve", "--method", "closed-form"),
        ("sweep", "--axis", "p_max", "--values", "0.01", "--schemes", "local"),
    ])
    @pytest.mark.parametrize("flag", ["--eps"])
    def test_unused_non_finite_tolerance_exit_2(self, tmp_path, capsys, flag, command):
        # the closed form and the local scheme do not use eps:
        # --eps inf used to exit 0 and write eps: inf to the manifest
        path = write_config(tmp_path)
        out = tmp_path / "out"
        argv = [command[0], path, *command[1:], flag, "inf", "--out", str(out)]
        assert main(argv) == 2
        assert "eps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("solve", "--method", "bss"),
        ("sweep", "--axis", "p_max", "--values", "0.01", "--schemes", "noma-full"),
    ])
    def test_eps_feas_is_fixed(self, tmp_path, capsys, command):
        # the verdict threshold is no option; manifests still record it
        path = write_config(tmp_path)
        out = tmp_path / "out"
        argv = [command[0], path, *command[1:], "--eps", "1e-3", "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / f"{command[0]}_manifest.json").read_text())
        assert manifest["tolerances"] == {"eps": 1e-3, "eps_feas": 1e-8}
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--eps-feas", "1e-16"])
        assert exc.value.code == 2
        assert "--eps-feas" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", [3200, -1e308, -3200])
    @pytest.mark.parametrize("command", [
        ("solve",), ("sweep", "--axis", "p_max", "--values", "0.01"), ("verify",),
    ])
    def test_noise_power_out_of_range_exit_2(self, tmp_path, capsys, monkeypatch, command,
                                             noise):
        # 3200 dBm/Hz overflowed in the dBm conversion (an OverflowError
        # traceback); at -1e308 the noise power was 0 and the gains divided
        # by it with a RuntimeWarning; at -3200 it is subnormal, and the
        # gains overflowed with a RuntimeWarning and an error naming no field
        monkeypatch.setenv("NOMAMEC_OUT", str(tmp_path))
        path = write_config(tmp_path, noise_density_dbm=noise)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command[0], path, *command[1:]]) == 2
        assert not caught, [str(w.message) for w in caught]
        assert "noise_density_dbm" in capsys.readouterr().err

    @pytest.mark.parametrize("where, overrides, user", [
        ("cell_radius_m", {"cell_radius_m": 1e300}, {}),
        ("cell_radius_m", {"path_loss_exp": 200}, {}),
        ("users[1].distance_m", {}, {"distance_m": 1e300}),
        # d^alpha = 1e300 is finite, but (1 + d^alpha) N0 B is not: the gain is 0
        ("users[1].distance_m", {"noise_density_dbm": 100}, {"distance_m": 1e150}),
    ])
    @pytest.mark.parametrize("command", [
        ("solve",), ("sweep", "--axis", "p_max", "--values", "0.01"), ("verify",),
    ])
    def test_path_loss_out_of_range_exit_2(self, tmp_path, capsys, monkeypatch, command,
                                           where, overrides, user):
        # a path loss d^alpha past the float range, or a gain that comes
        # out 0, exits 2 naming the fields that set it, with no warning
        monkeypatch.setenv("NOMAMEC_OUT", str(tmp_path))
        spec = {"task_bits": 1.6e6, "cycles_per_bit": 1e3, "cpu_freq_hz": 1e9, "kappa": 1e-27}
        path = write_config(tmp_path, users=[spec, dict(spec, **user)], **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command[0], path, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert f"{where} and path_loss_exp" in err, err

    @pytest.mark.parametrize("user, argv", [
        # cpu_freq**2 raised OverflowError
        ({"cpu_freq_hz": 1e160}, ["solve"]),
        ({"cpu_freq_hz": 1e160}, ["sweep", "--axis", "p_max", "--values", "0.01"]),
        ({"cpu_freq_hz": 1e160}, ["verify"]),
        # the local energy underflows to 0, and the relaxed residual divided by it
        ({"task_bits": 1e-300}, ["solve"]),
        ({"task_bits": 1e-300}, ["sweep", "--axis", "p_max", "--values", "0.01"]),
        ({"task_bits": 1e-300}, ["verify"]),
        ({}, ["sweep", "--axis", "task_bits", "--values", "1e-300"]),
    ])
    def test_local_time_or_energy_out_of_range_exit_2(self, tmp_path, capsys, monkeypatch,
                                                       user, argv):
        monkeypatch.setenv("NOMAMEC_OUT", str(tmp_path))
        spec = {"task_bits": 1.6e6, "cycles_per_bit": 1e3, "cpu_freq_hz": 1e9, "kappa": 1e-27}
        path = write_config(tmp_path, users=[dict(spec, **user), spec])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([argv[0], path, *argv[1:]]) == 2
        assert not caught, [str(w.message) for w in caught]
        assert "fully-local energy" in capsys.readouterr().err

    def test_negative_distance_is_config_error(self, tmp_path):
        users = [{"task_bits": 1.6e6, "cycles_per_bit": 1e3, "cpu_freq_hz": 1e9,
                  "kappa": 1e-27, "distance_m": -5.0}]
        with pytest.raises(ConfigError, match=r"users\[0\]"):
            load_config(write_config(tmp_path, users=users))


class TestSolveCommand:
    def test_auto_uses_closed_form_with_case(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = main(["solve", path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "closed-form" in out and "case=Case" in out
        assert (tmp_path / "solve.csv").exists()
        assert (tmp_path / "solve_manifest.json").exists()

    def test_auto_falls_back_when_closed_form_is_beaten(self, tmp_path, capsys):
        # master 1, trial 258 of configs/s1.json: the energy budget binds, so
        # the Case3 closed form (0.19965 s) is slower than bisection (0.19897 s)
        path = write_config(tmp_path, master_seed=1)
        runs = {}
        for method in ("auto", "closed-form"):
            out_dir = tmp_path / method
            assert main(["solve", path, "--method", method, "--trial", "258",
                         "--out", str(out_dir)]) == 0
            row = (out_dir / "solve.csv").read_text().splitlines()[1].split(",")
            runs[method] = (row[0], float(row[1]), row[3])
        capsys.readouterr()
        assert runs["closed-form"][0] == "closed-form" and runs["closed-form"][2] == "Case3"
        assert runs["closed-form"][1] == pytest.approx(0.19965224641556106, rel=1e-12)
        assert runs["auto"][0] == "bss (closed-form fallback)" and runs["auto"][2] == "-"
        assert runs["auto"][1] == pytest.approx(0.19897, abs=1e-4)

    def test_server_sends_auto_to_bisection(self, tmp_path, capsys):
        # configs/s1.json plus a server, trial 0: the closed form has no
        # server term and would report 0.18499 s with an allocation that
        # breaks its own constraints there; bisection gives 0.42632 s
        server = {"cycles_per_bit": 1e3, "cpu_freq_hz": 1e10, "kappa": 1e-28}
        path = write_config(tmp_path, server=server)
        runs = {}
        for method in ("auto", "bss"):
            out_dir = tmp_path / method
            assert main(["solve", path, "--method", method, "--trial", "0",
                         "--out", str(out_dir)]) == 0
            runs[method] = (out_dir / "solve.csv").read_text()
        capsys.readouterr()
        assert runs["auto"] == runs["bss"]
        row = runs["auto"].splitlines()[1].split(",")
        assert row[0] == "bss"
        assert float(row[1]) == pytest.approx(0.42632, abs=1e-4)

        rc = main(["solve", path, "--method", "closed-form", "--out", str(tmp_path / "cf")])
        assert rc == 2
        assert "server" in capsys.readouterr().err
        assert not (tmp_path / "cf").exists()

    def test_closed_form_requires_two_users(self, tmp_path, capsys):
        users = [
            {"task_bits": 1.6e6, "cycles_per_bit": 1e3, "cpu_freq_hz": 1e9, "kappa": 1e-28}
        ] * 4
        path = write_config(tmp_path, name="m4.json", users=users)
        rc = main(["solve", path, "--method", "closed-form", "--out", str(tmp_path)])
        assert rc == 2
        assert "2 users" in capsys.readouterr().err

    def test_bss_iteration_count(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = main(["solve", path, "--method", "bss", "--eps", "1e-4", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "iterations: 14" in out

    def test_env_var_selects_output_directory(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path)
        out_dir = tmp_path / "from_env"
        monkeypatch.setenv("NOMAMEC_OUT", str(out_dir))
        assert main(["solve", path]) == 0
        capsys.readouterr()
        assert (out_dir / "solve.csv").exists()

    def test_infeasible_scenario_exit_code(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            name="starved.json",
            bandwidth_hz=1e3,
            e_max_j=0.01,
            users=[
                {"task_bits": 1.6e6, "cycles_per_bit": 1e3, "cpu_freq_hz": 1e9, "kappa": 1e-27},
                {"task_bits": 1.6e6, "cycles_per_bit": 1e3, "cpu_freq_hz": 1e9, "kappa": 1e-27},
            ],
        )
        rc = main(["solve", path, "--method", "bss", "--out", str(tmp_path)])
        assert rc == 3
        assert "infeasible" in capsys.readouterr().err


    def test_negative_trial_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out_dir = tmp_path / "out"
        rc = main(["solve", path, "--trial", "-1", "--out", str(out_dir)])
        assert rc == 2
        assert "--trial" in capsys.readouterr().err
        assert not out_dir.exists()


    def test_local_energy_rate_past_the_float_range_falls_back(self, tmp_path, capsys):
        # cpu_freq**3 overflowed in the closed form (an OverflowError
        # traceback from solve and verify) although E = kappa L C f^2 is finite
        spec = {"task_bits": 1.6e6, "cycles_per_bit": 1e3, "cpu_freq_hz": 1e9, "kappa": 1e-28}
        path = write_config(tmp_path, users=[dict(spec, kappa=1e-27, cpu_freq_hz=1e110), spec])
        delays = {}
        for method in ("auto", "bss"):
            assert main(["solve", path, "--method", method,
                         "--out", str(tmp_path / method)]) == 0
            out = capsys.readouterr().out
            delays[method] = next(l for l in out.splitlines() if l.startswith("optimal delay"))
            assert "bss" in out
        assert delays["auto"] == delays["bss"]
        assert float(delays["bss"].split()[2]) == pytest.approx(0.19634, rel=1e-4)
        assert main(["verify", path]) == 0
        assert "structure infeasible" in capsys.readouterr().out


    @pytest.mark.parametrize("overrides", [
        {"e_max_j": 1e-310},  # a1 / (e_max B) overflows in the water level
        {"bandwidth_hz": 9.74e53, "e_max_j": 9.63e301},  # e_max B overflows
    ])
    @pytest.mark.parametrize("method", ["auto", "closed-form", "bss"])
    def test_water_level_limits_end_without_a_traceback(self, tmp_path, overrides, method):
        # auto and closed-form ended in a ValueError traceback from the closed form
        path = write_config(tmp_path, **overrides)
        rc = main(["solve", path, "--method", method, "--out", str(tmp_path / "out")])
        assert rc in (0, 2, 3)


class TestSweepCommand:
    def test_single_point_single_seed(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out_dir = tmp_path / "out"
        rc = main(
            [
                "sweep", path, "--axis", "p_max", "--values", "0.01",
                "--schemes", "noma-partial", "--seeds", "1", "--out", str(out_dir),
            ]
        )
        assert rc == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == SWEEP_COLUMNS
        assert len(lines) == 2
        manifest = json.loads((out_dir / "sweep_manifest.json").read_text())
        assert manifest["axis"] == "p_max" and manifest["seeds"] == [0]

    def test_bracket_top_past_the_float_range_is_an_infeasible_row(self, tmp_path, capsys):
        # full offloading of 1e300 bits: doubling the bracket top overflows
        # before its 60th try, which bisected an infinite bracket
        path = write_config(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["sweep", path, "--axis", "task_bits", "--values", "1e300",
                     "--schemes", "noma-full", "--seeds", "1", "--out", str(out_dir)]) == 0
        row = (out_dir / "sweep.csv").read_text().splitlines()[1].split(",")
        assert row[4] == "inf" and row[-1] == "infeasible"

    def test_unknown_axis_or_scheme(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = main(
            ["sweep", path, "--axis", "p_max", "--values", "0.01",
             "--schemes", "warp-drive", "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "scheme" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        loaded = load_config(write_config(tmp_path))
        kwargs = dict(
            axis="p_max", values=[0.01, 0.02], schemes=["noma-partial", "noma-full"],
            n_seeds=2, eps=1e-3,
        )
        a_csv, a_mean, a_man = run_sweep(loaded, out_dir=str(tmp_path / "a"), **kwargs)
        b_csv, b_mean, b_man = run_sweep(loaded, out_dir=str(tmp_path / "b"), **kwargs)
        assert open(a_csv, "rb").read() == open(b_csv, "rb").read()
        assert open(a_mean, "rb").read() == open(b_mean, "rb").read()
        assert open(a_man, "rb").read() == open(b_man, "rb").read()

    def test_mean_delay_nonincreasing_in_energy_budget(self, tmp_path):
        loaded = load_config(write_config(tmp_path))
        _, mean_path, _ = run_sweep(
            loaded, axis="e_max", values=[0.15, 0.3], schemes=["noma-partial"],
            n_seeds=50, eps=1e-3, out_dir=str(tmp_path / "emax"), fixed_channels=True,
        )
        lines = [l.split(",") for l in open(mean_path).read().splitlines()[1:]]
        delays = {float(row[1]): float(row[4]) for row in lines}
        assert delays[0.3] <= delays[0.15] + 1e-3

    def test_rows_sorted_and_parseable(self, tmp_path):
        loaded = load_config(write_config(tmp_path))
        csv_path, _, _ = run_sweep(
            loaded, axis="p_max", values=[0.02, 0.01], schemes=["noma-full", "noma-partial"],
            n_seeds=2, eps=1e-3, out_dir=str(tmp_path / "sorted"),
        )
        rows = [l.split(",") for l in open(csv_path).read().splitlines()[1:]]
        keys = [(float(r[1]), r[2], int(r[3])) for r in rows]
        assert keys == sorted(keys)
        np.array([float(r[4]) for r in rows])  # delays parse as floats


    @pytest.mark.parametrize("n_seeds", [3, 9, 17])
    def test_seed_means_equal_np_mean_of_each_column(self, tmp_path, n_seeds):
        # at e_max 0.2 J user 1 cannot compute locally: the local group is
        # all inf delays and nan metrics
        loaded = load_config(write_config(tmp_path))
        csv_path, mean_path, _ = run_sweep(
            loaded, axis="e_max", values=[2.0, 0.2], schemes=["noma-partial", "local"],
            n_seeds=n_seeds, eps=1e-3, out_dir=str(tmp_path / "means"),
        )
        rows = [l.split(",") for l in open(csv_path).read().splitlines()[1:]]
        groups = {}
        for r in rows:
            groups.setdefault((r[0], r[1], r[2]), []).append([float(x) for x in r[4:9]])
        want = [
            ",".join([*key, str(len(group)),
                      *(f"{float(np.mean(col)):.16e}" for col in np.array(group).T)])
            for key, group in sorted(groups.items(), key=lambda kv: (float(kv[0][1]), kv[0][2]))
        ]
        assert open(mean_path).read().splitlines()[1:] == want
        assert "inf" in want[0] and "nan" in want[0]

    def test_seed_mean_equals_np_mean(self):
        # plain loop below 8 values, eight running sums up to 128, halves
        # above; inf and nan cells, and columns of negative zeros
        rnd = random.Random(11)
        for n in [*range(1, 21), *range(120, 301)]:
            for k in range(4):
                col = [rnd.uniform(0.0, 2.0) * 10.0 ** rnd.randint(-3, 9) for _ in range(n)]
                if k == 1:
                    col[rnd.randrange(n)] = math.inf
                    col[rnd.randrange(n)] = math.nan
                elif k == 2:
                    col[rnd.randrange(n)] = -math.inf
                    col[rnd.randrange(n)] = math.inf
                elif k == 3:
                    col = [-0.0] * n  # np.mean gives 0.0, not -0.0
                with np.errstate(invalid="ignore"):  # inf - inf
                    want = float(np.mean(col))
                assert repr(_seed_mean(col)) == repr(want), (n, k)


class TestSweepBadInput:
    """Bad sweep values and circuit powers exit 2 before anything is solved."""

    @pytest.mark.parametrize("values", ["nan", "inf", "2.5", "0", "-3", "2,x"])
    def test_user_count_values_exit_2(self, tmp_path, capsys, values):
        path = write_config(tmp_path)
        out_dir = tmp_path / "out"
        rc = main(["sweep", path, "--axis", "user_count", "--values", values,
                   "--schemes", "local", "--out", str(out_dir)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (out_dir / "sweep.csv").exists()

    @pytest.mark.parametrize("scheme", ["noma-partial", "ofdma-partial-1rb", "local"])
    @pytest.mark.parametrize("pc", ["-1", "nan", "inf"])
    def test_circuit_power_exit_2(self, tmp_path, capsys, scheme, pc):
        path = write_config(tmp_path, e_max_j=2.0)
        out_dir = tmp_path / "out"
        rc = main(["sweep", path, "--axis", "e_max", "--values", "2", "--schemes", scheme,
                   "--pc", pc, "--out", str(out_dir)])
        assert rc == 2
        assert "p_circuit" in capsys.readouterr().err
        assert not (out_dir / "sweep.csv").exists()


    @pytest.mark.parametrize("scheme", ["ofdma-partial-1rb", "ofdma-partial-mrb"])
    def test_ofdma_with_a_server_exit_2(self, tmp_path, capsys, no_solving, scheme):
        # the OFDMA baselines have no server model and used to drop it
        server = {"cycles_per_bit": 1e3, "cpu_freq_hz": 1e9, "kappa": 1e-28}
        path = write_config(tmp_path, server=server)
        out_dir = tmp_path / "out"
        rc = main(["sweep", path, "--axis", "e_max", "--values", "0.2",
                   "--schemes", f"noma-partial,{scheme}", "--out", str(out_dir)])
        assert rc == 2
        assert "server" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "axis,values", [("user_count", "2,2"), ("user_count", "2,3,2.0"), ("p_max", "0.01,0.01")]
    )
    def test_duplicate_values_exit_2(self, tmp_path, capsys, axis, values):
        # a repeated value wrote a second identical row and a mean over "2 seeds" of one
        path = write_config(tmp_path, e_max_j=2.0)
        out_dir = tmp_path / "out"
        rc = main(["sweep", path, "--axis", axis, "--values", values, "--schemes", "local",
                   "--out", str(out_dir)])
        assert rc == 2
        assert "distinct" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--values", ","],
            ["--values", "0.01", "--schemes", ","],
            ["--values", "0.01", "--seeds", "0"],
            ["--values", "0.01", "--seeds", "-2"],
        ],
    )
    def test_empty_sweep_exit_2(self, tmp_path, capsys, flags):
        path = write_config(tmp_path)
        out_dir = tmp_path / "out"
        rc = main(["sweep", path, "--axis", "p_max", *flags, "--out", str(out_dir)])
        assert rc == 2
        assert "at least one" in capsys.readouterr().err
        assert not out_dir.exists()


    def test_duplicate_schemes_exit_2(self, tmp_path, capsys):
        # a repeated scheme wrote every row twice and a mean over twice the seeds
        path = write_config(tmp_path, e_max_j=2.0)
        out_dir = tmp_path / "out"
        rc = main(["sweep", path, "--axis", "p_max", "--values", "0.01",
                   "--schemes", "local,noma-full,local", "--out", str(out_dir)])
        assert rc == 2
        assert "distinct" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_gain_overflow_names_noise_density_and_bandwidth(self, tmp_path, capsys):
        # the noise power N0 B is tiny because the bandwidth is
        path = write_config(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["sweep", path, "--axis", "bandwidth", "--values", "1e-300",
                       "--schemes", "noma-partial", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert "noise_density_dbm" in err and "bandwidth" in err and "N0 B" in err


class TestAxisApplication:
    def test_all_axes_modify_the_right_field(self, tmp_path):
        from nomamec.cli import _apply_axis
        from nomamec.model import UsageError

        cfg = load_config(write_config(tmp_path)).config
        assert _apply_axis(cfg, "p_max", 0.5).p_max == 0.5
        assert _apply_axis(cfg, "e_max", 0.7).e_max == 0.7
        assert _apply_axis(cfg, "bandwidth", 2e6).bandwidth == 2e6
        scaled = _apply_axis(cfg, "task_bits", 3.2e6)
        assert all(u.task_bits == 3.2e6 for u in scaled.users)
        grown = _apply_axis(cfg, "user_count", 5)
        assert grown.num_users == 5
        assert grown.users[4].kappa == cfg.users[0].kappa  # template cycles
        for bad in (0, 2.5, math.nan):  # checked before the users are copied
            with pytest.raises(UsageError, match="user_count"):
                _apply_axis(cfg, "user_count", bad)


class TestRowFormats:
    """Each table's row format prints what _fmt printed cell by cell."""

    FLOATS = (0.0, -0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan)
    INTS = (0, 10**20)
    TEXTS = ("", "noma-partial")

    @pytest.mark.parametrize("name", ["SWEEP_ROW", "MEAN_ROW", "SOLVE_ROW"])
    def test_matches_fmt_on_edge_values(self, name):
        from nomamec import cli

        kinds = getattr(cli, name).split(",")
        pools = {"%s": self.TEXTS, "%d": self.INTS, "%.16e": self.FLOATS}
        for k in range(len(self.FLOATS)):
            row = tuple(pools[kind][(k + i) % len(pools[kind])] for i, kind in enumerate(kinds))
            assert getattr(cli, name) % row == ",".join(cli._fmt(v) for v in row)


class TestVerifyCommand:
    def test_pass_on_reference_scenario(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = main(["verify", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out and "[verify]" in out

    def test_unsorted_gain_injection_fails(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = main(["verify", path, "--gains", "2e5,1e5"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "sorted-gain invariant: FAIL" in out

    @pytest.mark.parametrize(
        "gains", ["abc", "1e5,abc", "", "nan,1e5", "0,1e5", "inf,1e5", "1e5"]
    )
    def test_unparsable_gains_exit_2(self, tmp_path, capsys, gains):
        # float() used to end the first three in a ValueError traceback, and
        # the rest read as a failed sorted-gain invariant with exit 1
        path = write_config(tmp_path)
        rc = main(["verify", path, "--gains", gains])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error: --gains" in captured.err
        assert "[verify]" not in captured.out

    def test_pass_on_symmetric_trivial_scenario(self, tmp_path, capsys):
        users = [
            {"task_bits": 1.6e6, "cycles_per_bit": 1e3, "cpu_freq_hz": 1e9, "kappa": 1e-28},
            {"task_bits": 1.6e6, "cycles_per_bit": 1e3, "cpu_freq_hz": 1e9, "kappa": 1e-28},
        ]
        path = write_config(tmp_path, name="sym.json", users=users, master_seed=5)
        assert main(["verify", path]) == 0

    def test_catches_a_closed_form_above_the_optimum(self, tmp_path, capsys):
        # master 1, trial 258 of the s1 config, already in decode order: the
        # closed form's Case3 answer is 0.34% above the optimum
        path = write_config(tmp_path)
        rc = main(["verify", path, "--gains", "84910.03906516009,1655467.2674352496"])
        out = capsys.readouterr().out
        assert rc == 1
        assert ("two-user closed form agrees with bss: FAIL (closed 0.199652 bss 0.198975)"
                in out)

    def test_server_skips_the_two_user_closed_form_checks(self, tmp_path, capsys):
        # the closed form has no server term, so the two-user checks cannot
        # speak for a server scenario
        path = write_config(tmp_path, server=SERVER)
        rc = main(["verify", path])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "FAIL" not in out
        assert out.count("skipped: closed form has no server term") == 1
        assert "feasibility monotone around optimum: ok" in out


@pytest.fixture()
def no_solving(monkeypatch):
    """Make any solve the CLI starts fail the test."""
    from nomamec import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("solved before the output paths were checked")

    for name in ("solve_two_user", "bss_solve", "solve_noma_partial",
                 "solve_noma_full_offload"):
        monkeypatch.setattr(cli, name, forbidden)


class TestOutputDirectory:
    @pytest.mark.parametrize("command", [
        ("solve", "--method", "auto"),
        ("solve", "--method", "bss"),
        ("sweep", "--axis", "p_max", "--values", "0.01"),
    ])
    def test_out_naming_a_file_exit_2_before_solving(self, tmp_path, capsys, no_solving,
                                                     command):
        # os.makedirs used to end both commands in a FileExistsError
        # traceback, solve only after solving
        path = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        rc = main([command[0], path, *command[1:], "--out", str(taken)])
        assert rc == 2
        assert "taken" in capsys.readouterr().err
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize("command", [
        ("solve", "--method", "auto"),
        ("sweep", "--axis", "p_max", "--values", "0.01"),
    ])
    def test_csv_naming_a_directory_exit_2_before_solving(self, tmp_path, capsys, no_solving,
                                                          command):
        # both used to solve, then end in an IsADirectoryError traceback
        path = write_config(tmp_path)
        (tmp_path / "d" / f"{command[0]}.csv").mkdir(parents=True)
        assert main([command[0], path, *command[1:], "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert f"{command[0]}.csv" in err and "is a directory" in err

    def test_basename_in_a_missing_folder_exit_2_before_solving(self, tmp_path, capsys,
                                                                no_solving):
        # the sweep used to solve every row, then end in a FileNotFoundError
        path = write_config(tmp_path)
        out_dir = tmp_path / "d3"
        assert main(["sweep", path, "--axis", "p_max", "--values", "0.01",
                     "--basename", "nope/x", "--out", str(out_dir)]) == 2
        assert "no such directory" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []


def test_repeated_main_calls_in_one_process(tmp_path, capsys):
    # main builds its parser once per process; no call may leak into the next
    from nomamec import cli

    path = write_config(tmp_path)

    def solve() -> bytes:
        assert main(["solve", path, "--out", str(tmp_path)]) == 0
        return (tmp_path / "solve.csv").read_bytes()

    first = solve()
    with pytest.raises(SystemExit) as err:
        main(["solve", path, "--method", "nope", "--out", str(tmp_path)])
    assert err.value.code == 2
    assert solve() == first
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
    capsys.readouterr()
    assert cli._parser.cache_info().currsize == 1


def _src_env() -> dict:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_cli_does_not_import_scipy(tmp_path):
    # W-1 is math-only, and only bench/tracing.py and the tests resolve
    # solver.minimize; the call counter (bound where bench/tracing.py
    # patches lambert_wm1) shows the solve went through W-1
    path = write_config(tmp_path)
    code = (
        "import sys, nomamec.cli, nomamec.closed_form as cf\n"
        "calls = []\n"
        "wm1 = cf.lambert_wm1\n"
        "cf.lambert_wm1 = lambda x: calls.append(x) or wm1(x)\n"
        f"argv = ['solve', {path!r}, '--method', 'auto', '--out', {str(tmp_path)!r}]\n"
        "assert nomamec.cli.main(argv) == 0\n"
        "assert calls, 'the draw never reached lambert_wm1'\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_does_not_import_numpy(tmp_path):
    # the draws, the rates and the seed means are plain Python; nine seeds
    # take the seed mean's eight-sum path
    path = write_config(tmp_path)
    code = (
        "import sys, nomamec.cli\n"
        f"for argv in (['solve', {path!r}, '--method', 'bss'],\n"
        f"             ['sweep', {path!r}, '--axis', 'user_count', '--values', '1,3',\n"
        "              '--schemes', 'noma-partial,noma-full,ofdma-partial-mrb,local',\n"
        "              '--seeds', '9'],\n"
        f"             ['verify', {path!r}]):\n"
        "    assert nomamec.cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    env = dict(_src_env(), NOMAMEC_OUT=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_python_dash_m_runs_the_cli():
    # a checkout without the console script runs the same parser
    proc = subprocess.run([sys.executable, "-m", "nomamec", "--help"],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: nomamec") and "solve" in proc.stdout


CFG = "configs/s1.json"
TOP_USAGE = "usage: nomamec [-h] [--version] {solve,sweep,verify} ...\n"
SOLVE_USAGE = (
    "usage: nomamec solve [-h] [--method {auto,bss,closed-form}] [--eps EPS]\n"
    "                     [--trial TRIAL] [--out OUT]\n"
    "                     config\n"
)
# (argv, exit code, stdout, stderr), as the top-level parser with its
# subcommands gives them at 80 columns
PARSE_CASES = [
    ([], 2, "", TOP_USAGE + "nomamec: error: the following arguments are required: command\n"),
    (["--version"], 0, "0.1.0\n", ""),
    (["frob"], 2, "",
     TOP_USAGE + "nomamec: error: argument command: invalid choice: 'frob' "
     "(choose from 'solve', 'sweep', 'verify')\n"),
    (["solve"], 2, "",
     SOLVE_USAGE + "nomamec solve: error: the following arguments are required: config\n"),
    (["solve", "-h"], 0,
     SOLVE_USAGE + "\npositional arguments:\n  config\n\noptions:\n"
     "  -h, --help            show this help message and exit\n"
     "  --method {auto,bss,closed-form}\n  --eps EPS\n  --trial TRIAL\n  --out OUT\n",
     ""),
    (["solve", CFG, "--bogus", "1"], 2, "",
     TOP_USAGE + "nomamec: error: unrecognized arguments: --bogus 1\n"),
    (["sweep", CFG, "--axis", "nope", "--values", "1"], 2, "",
     "usage: nomamec sweep [-h] --axis {task_bits,p_max,e_max,user_count,bandwidth}\n"
     "                     --values VALUES [--schemes SCHEMES] [--seeds SEEDS]\n"
     "                     [--eps EPS] [--pc PC] [--fixed-channels] [--out OUT]\n"
     "                     [--basename BASENAME]\n"
     "                     config\n"
     "nomamec sweep: error: argument --axis: invalid choice: 'nope' (choose from "
     "'task_bits', 'p_max', 'e_max', 'user_count', 'bandwidth')\n"),
    (["sweep", CFG, "--axis", "p_max", "--values", "1", "--eps-feas", "1e-8"], 2, "",
     TOP_USAGE + "nomamec: error: unrecognized arguments: --eps-feas 1e-8\n"),
    (["solve", CFG, "--meth", "bss"], 0,
     "scenario: configs/s1.json (users=2, seed=(0,0))\n"
     "method: bss\n"
     "optimal delay: 1.8500976562500004e-01 s    iterations: 14\n"
     "user  gain_per_w              beta                    power_w\n"
     "1     2.9171921229898563e+05  8.8430639648437492e-01  1.0000000000000000e-02\n"
     "2     3.7382910707656108e+06  8.8430639648437492e-01  1.0000000000000000e-02\n",
     ""),
]


@pytest.mark.parametrize("argv, code, out, err", PARSE_CASES, ids=lambda x: repr(x)[:40])
def test_one_pass_parse_prints_what_the_top_level_parser_did(
        argv, code, out, err, tmp_path, capsys, monkeypatch):
    # main hands argv[0]'s subcommand the rest directly; messages, usage
    # lines and exit codes stay those of the top-level parse
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NOMAMEC_OUT", str(tmp_path))
    try:
        got = main(list(argv))
    except SystemExit as exc:
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)


@pytest.mark.parametrize("argv", [
    ["solve", CFG],
    ["solve", CFG, "--meth", "bss", "--eps=1e-3", "--trial", "2", "--out", "d"],
    ["solve", "--", CFG],
    ["sweep", CFG, "--axis", "p_max", "--values", "1,2", "--fixed", "--pc", "0.2"],
    ["verify", CFG, "--gains", "1e5,2e5"],
])
def test_one_pass_parse_gives_the_top_level_namespace(argv):
    from nomamec import cli

    assert cli._parse(argv) == cli._parser()[0].parse_args(argv)
