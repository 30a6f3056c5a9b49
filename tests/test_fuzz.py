"""Any finite number in any numeric config field ends in an exit code,
never in a traceback or a warning.

Each example sets one or two numeric fields of configs/s1.json, with or
without a server, to +-10^U(-320, 308), from subnormals to the float
maximum, and runs solve with all three methods, verify and a sweep
in-process with warnings raised as errors. solve and sweep return 0, 2
(ConfigError or UsageError) or 3 (infeasible). verify returns 0 or 2,
or 1 when it prints a failed check: a budget no allocation meets fails
its monotonicity check.

On moderate inputs (one or two of s1's fields scaled by 10^U(-4, 4)),
solve --method auto exits as --method bss does and never reports a delay
more than eps above it.
"""

import json
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nomamec.cli import main

S1 = json.loads((Path(__file__).resolve().parent.parent / "configs" / "s1.json").read_text())
SERVER = {"cycles_per_bit": 1e3, "cpu_freq_hz": 1e10, "kappa": 1e-28}
FIELDS = (
    [(key,) for key in S1 if key != "users"]
    + [("users", 1, key) for key in (*S1["users"][1], "distance_m")]
    + [("server", key) for key in SERVER]
)
SCHEMES = "noma-partial,noma-full,ofdma-partial-1rb,ofdma-partial-mrb,local"
SERVER_SCHEMES = "noma-partial,noma-full,local"  # the OFDMA baselines have no server model


def run(argv, capsys) -> None:
    """Run one command; a raised exception, a warning or another exit code fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out = capsys.readouterr().out
    if argv[0] == "verify":
        assert code in (0, 1, 2), (argv, code)
        assert code != 1 or ": FAIL" in out, out
    else:
        assert code in (0, 2, 3), (argv, code)


def write(tmp_path, changes, server) -> str:
    cfg = json.loads(json.dumps(S1))
    if server:
        cfg["server"] = dict(SERVER)
    for field, value in changes:
        target = cfg
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg))
    return str(path)


magnitude = st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                      st.sampled_from((1.0, -1.0)), st.floats(-320.0, 308.0))


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(changes=st.lists(st.tuples(st.sampled_from(FIELDS), magnitude), min_size=1, max_size=2),
       server=st.booleans())
# a1 / (e_max B) overflowed in the closed form's water level, and e_max B
# overflowed: solve --method auto and closed-form raised
@example(changes=[(("e_max_j",), 1e-310)], server=False)
@example(changes=[(("bandwidth_hz",), 9.74e53), (("e_max_j",), 9.63e301)], server=False)
def test_every_numeric_field_over_the_whole_range(tmp_path, capsys, changes, server):
    server = server or any(field[0] == "server" for field, _ in changes)
    path = write(tmp_path, changes, server)
    out = str(tmp_path / "out")
    for method in ("auto", "bss", "closed-form"):
        run(["solve", path, "--method", method, "--out", out], capsys)
    run(["verify", path], capsys)
    run(["sweep", path, "--axis", "user_count", "--values", "1,2", "--seeds", "2",
         "--schemes", SERVER_SCHEMES if server else SCHEMES, "--out", out], capsys)


def test_verify_with_a_subnormal_gain(tmp_path, capsys):
    # c = big_b ln 2 / gain_eff overflowed in the closed form's water level
    # and lambert_wm1 got nan
    path = write(tmp_path, [(("e_max_j",), 2.0)], server=False)
    run(["verify", path, "--gains", "1e-320,1e5"], capsys)


def solve_delay(argv, capsys):
    """Exit code and, on exit 0, the delay solve.csv reports."""
    code = main(argv)
    capsys.readouterr()
    if code != 0:
        return code, None
    out = Path(argv[argv.index("--out") + 1])
    return code, float((out / "solve.csv").read_text().splitlines()[1].split(",")[1])


# the fields s1 sets but its seed, which each example draws
MODERATE_FIELDS = [f for f in FIELDS
                   if f[0] != "server" and f != ("master_seed",) and f[-1] != "distance_m"]


def scaled(field, x):
    """s1's field times 10^x; noise moves by 15x dB, the path-loss exponent to 3.5 + 0.375x."""
    target = S1
    for key in field:
        target = target[key]
    if field == ("noise_density_dbm",):
        return target + 15.0 * x
    if field == ("path_loss_exp",):
        return 3.5 + 0.375 * x
    return target * 10.0 ** x


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(changes=st.lists(st.tuples(st.sampled_from(MODERATE_FIELDS), st.floats(-4.0, 4.0)),
                        min_size=1, max_size=2),
       master=st.integers(0, 3), trial=st.integers(0, 399))
# unscaled s1 draws whose Case3 candidate is feasible but 0.34% and 0.17%
# above the optimum: only auto's check eps below the closed form drops it
@example(changes=[(("e_max_j",), 0.0)], master=1, trial=258)
@example(changes=[(("e_max_j",), 0.0)], master=3, trial=57)
def test_auto_is_never_worse_than_bss(tmp_path, capsys, changes, master, trial):
    # one to two fields of configs/s1.json scaled by 10^U(-4, 4): auto keeps
    # the closed form only when no delay eps below it is feasible, so it
    # ends no more than eps above bss_solve, and both agree on feasibility
    changes = [(field, scaled(field, x)) for field, x in changes]
    path = write(tmp_path, [*changes, (("master_seed",), master)], server=False)
    eps = 1e-4
    codes, delays = zip(*(
        solve_delay(["solve", path, "--method", method, "--trial", str(trial),
                     "--eps", str(eps), "--out", str(tmp_path / method)], capsys)
        for method in ("auto", "bss")
    ))
    assert codes[0] == codes[1]
    assert codes[0] in (0, 2, 3)
    if codes[0] == 0:
        assert delays[0] <= delays[1] + eps
