"""Any finite number in any numeric config field ends in an exit code,
never in a traceback or a warning.

Each example sets one or two numeric fields of configs/s1.json, with or
without a server, to +-10^U(-320, 308), from subnormals to the float
maximum, and runs solve with all three methods, verify and a sweep
in-process with warnings raised as errors. solve and sweep return 0, 2
(ConfigError or UsageError) or 3 (infeasible). verify returns 0 or 2,
or 1 when it prints a failed check: a budget no allocation meets fails
its monotonicity check.
"""

import json
import warnings
from pathlib import Path

import pytest
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


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "CHANGES.md FOUND: closed_form._water_level with a subnormal gain; "
    "c = big_b ln 2 / gain_eff overflows and lambert_wm1 gets nan"))
def test_verify_with_a_subnormal_gain(tmp_path, capsys):
    path = write(tmp_path, [(("e_max_j",), 2.0)], server=False)
    run(["verify", path, "--gains", "1e-320,1e5"], capsys)
