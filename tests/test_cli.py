import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nomamec.cli import SWEEP_COLUMNS, main, run_sweep
from nomamec.configio import ConfigError, load_config
from conftest import S1_MASTER_SEED


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

    @pytest.mark.parametrize("flag", ["--eps", "--eps-feas"])
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
    @pytest.mark.parametrize("flag", ["--eps", "--eps-feas"])
    def test_unused_non_finite_tolerance_exit_2(self, tmp_path, capsys, flag, command):
        # the closed form and the local scheme use neither tolerance:
        # --eps inf used to exit 0 and write eps: inf to the manifest
        path = write_config(tmp_path)
        out = tmp_path / "out"
        argv = [command[0], path, *command[1:], flag, "inf", "--out", str(out)]
        assert main(argv) == 2
        assert "eps" in capsys.readouterr().err
        assert not out.exists()

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

    def test_auto_rejects_a_closed_form_that_breaks_its_constraints(
        self, tmp_path, capsys, monkeypatch
    ):
        # a closed form 10% below its true delay: no delay below it is
        # feasible, so only the allocation check can catch it
        from dataclasses import replace
        from nomamec import cli

        def too_fast(params):
            sol = real(params)
            return replace(sol, delay=0.9 * sol.delay)

        real = cli.solve_two_user
        monkeypatch.setattr(cli, "solve_two_user", too_fast)
        path = write_config(tmp_path)
        assert main(["solve", path, "--out", str(tmp_path)]) == 0
        assert "method: bss (closed-form fallback)" in capsys.readouterr().out

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


class TestAxisApplication:
    def test_all_axes_modify_the_right_field(self, tmp_path):
        from nomamec.cli import _apply_axis

        cfg = load_config(write_config(tmp_path)).config
        assert _apply_axis(cfg, "p_max", 0.5).p_max == 0.5
        assert _apply_axis(cfg, "e_max", 0.7).e_max == 0.7
        assert _apply_axis(cfg, "bandwidth", 2e6).bandwidth == 2e6
        scaled = _apply_axis(cfg, "task_bits", 3.2e6)
        assert all(u.task_bits == 3.2e6 for u in scaled.users)
        grown = _apply_axis(cfg, "user_count", 5)
        assert grown.num_users == 5
        assert grown.users[4].kappa == cfg.users[0].kappa  # template cycles


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

    def test_pass_on_symmetric_trivial_scenario(self, tmp_path, capsys):
        users = [
            {"task_bits": 1.6e6, "cycles_per_bit": 1e3, "cpu_freq_hz": 1e9, "kappa": 1e-28},
            {"task_bits": 1.6e6, "cycles_per_bit": 1e3, "cpu_freq_hz": 1e9, "kappa": 1e-28},
        ]
        path = write_config(tmp_path, name="sym.json", users=users, master_seed=5)
        assert main(["verify", path]) == 0

    def test_server_skips_the_two_user_closed_form_checks(self, tmp_path, capsys):
        # neither the closed form nor the grid oracle has a server term, so
        # the two-user checks cannot speak for a server scenario
        path = write_config(tmp_path, server=SERVER)
        rc = main(["verify", path])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "FAIL" not in out
        assert out.count("skipped: closed form has no server term") == 3
        assert "feasibility monotone around optimum: ok" in out


class TestOutputDirectory:
    @pytest.mark.parametrize("command", [
        ("solve", "--method", "auto"),
        ("solve", "--method", "bss"),
        ("sweep", "--axis", "p_max", "--values", "0.01"),
    ])
    def test_out_naming_a_file_exit_2_before_solving(self, tmp_path, capsys, monkeypatch,
                                                     command):
        # os.makedirs used to end both commands in a FileExistsError
        # traceback, solve only after solving
        from nomamec import cli

        def forbidden(*args, **kwargs):
            raise AssertionError("solved before the output directory was checked")

        for name in ("solve_two_user", "bss_solve", "solve_noma_partial",
                     "solve_noma_full_offload"):
            monkeypatch.setattr(cli, name, forbidden)
        path = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        rc = main([command[0], path, *command[1:], "--out", str(taken)])
        assert rc == 2
        assert "taken" in capsys.readouterr().err
        assert taken.read_text() == "keep"


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


def test_cli_does_not_import_scipy_optimize(tmp_path):
    # only bench/tracing.py and the tests resolve solver.minimize
    path = write_config(tmp_path)
    code = (
        "import sys, nomamec, nomamec.cli\n"
        f"assert nomamec.cli.main(['solve', {path!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "heavy = ('scipy.optimize', 'scipy.linalg')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_python_dash_m_runs_the_cli():
    # a checkout without the console script runs the same parser
    proc = subprocess.run([sys.executable, "-m", "nomamec", "--help"],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: nomamec") and "solve" in proc.stdout
