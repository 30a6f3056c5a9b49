"""Output bytes pinned by sha256: a solver change that claims identical
output must leave these digests as they are.

The sweeps are shaped like the benchmark's ``fig-users`` (user counts
2..8, noma-partial and noma-full, eps 1e-3) and ``ofdma-m4`` (M = 4,
both OFDMA baselines and local) workloads on ``configs/s1.json`` with
e_max 2 J, where every energy budget is slack, and the ``fig-users``
shape also at e_max 0.5 J, where some budgets bind. Master 1024 is the
one ``fig-users`` draw among masters 1000-1039 whose noma-full solves
start from an infeasible bracket top (the fully-local time) and double
it three times before bisecting. The solves are trials 0-9 of
``configs/s1.json`` itself, and with ``--method bss`` also of it plus a
finite-capacity server, which runs the fixed-point oracle.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from nomamec import InfeasibleScenarioError, ScenarioConfig, ServerSpec, UserSpec, bss_solve
from nomamec.cli import main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "s1.json"

FIG_USERS = ("--axis", "user_count", "--values", "2,3,4,5,6,7,8",
             "--schemes", "noma-partial,noma-full", "--seeds", "1", "--eps", "1e-3")
OFDMA_M4 = ("--axis", "user_count", "--values", "4",
            "--schemes", "ofdma-partial-1rb,ofdma-partial-mrb,local", "--seeds", "1",
            "--eps", "1e-4")
SWEEP_FILES = ("sweep.csv", "sweep_mean.csv")
SERVER = {"cycles_per_bit": 1e3, "cpu_freq_hz": 1e10, "kappa": 1e-28}

GOLDEN = {
    "fig-users 1000": "7db949f2b7058e32f878015f7e31afdc2b7c4b1d2a57b5e5a7cf1a2892c9e361",
    "fig-users 1001": "f42cc5466abe7620e159a812812a4791e7347cb2f151726f8472a73fe3f38e2e",
    # master 1024: every noma-full solve doubles the bracket top 3 times
    "fig-users 1024": "f652075c2361a1a27387efdccdedefff49ec9cb6c09957b0fbbb1a5bc9bc9b87",
    # master 1000 at e_max 0.5 J: 4 of the 7 noma-partial solves have a
    # binding budget
    "fig-users 1000 e_max 0.5": "88f27489a557f50ad59c2c33c25610a760632fdb92becb516a7edd85f1659cad",
    "ofdma-m4 1000": "395f1dfab4b196dc2ed759488e860ec730d015f62261c8064a4b7dd1e030f3b8",
    "solve auto 0-9": "8f89f8b08f5c52c528992155b23913775885f78aa7e2f27987c50214cf98fed9",
    "solve bss 0-9": "1710717694d48b0bbf5e619d6592f718afe2b469c0ec5d6c5f857b874d109b62",
    "solve bss server 0-9": "10c2fdb66cb6cf379758452ec31c0652aba4a0647a74219099aeca5e5296bf51",
}


def _digest(out_dirs, names) -> str:
    h = hashlib.sha256()
    for out in out_dirs:
        for name in names:
            h.update(name.encode() + b"\0" + (out / name).read_bytes())
    return h.hexdigest()


def _sweep(tmp_path, kind: str, master: int, e_max: float = 2.0) -> str:
    cfg = json.loads(CONFIG.read_text())
    cfg.update(e_max_j=e_max, master_seed=master)
    path = tmp_path / f"in{master}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"{kind}{master}"
    flags = FIG_USERS if kind == "fig-users" else OFDMA_M4
    assert main(["sweep", str(path), *flags, "--out", str(out)]) == 0
    return _digest([out], SWEEP_FILES)


def _solves(tmp_path, method: str, server: bool) -> str:
    path = CONFIG
    if server:
        cfg = json.loads(CONFIG.read_text())
        cfg["server"] = SERVER
        path = tmp_path / "server.json"
        path.write_text(json.dumps(cfg))
    outs = []
    for trial in range(10):
        out = tmp_path / f"{method}{trial}"
        argv = ["solve", str(path), "--method", method, "--trial", str(trial)]
        assert main([*argv, "--out", str(out)]) == 0
        outs.append(out)
    return _digest(outs, ("solve.csv",))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_unchanged(tmp_path, capsys, name):
    kind, what = name.split(" ", 1)
    if kind == "solve":
        words = what.split()
        got = _solves(tmp_path, words[0], "server" in words)
    else:
        master, *budget = what.split(" e_max ")
        got = _sweep(tmp_path, kind, int(master), *map(float, budget))
    capsys.readouterr()
    assert got == GOLDEN[name]


# cells the entries above never print, recorded before the CSV tables
# took one row format each: infeasible rows (inf and nan; e_max 0.2 J is
# below user 1's fully-local energy, 1.6 J), the local scheme's zero
# cells, seed means over three draws, and the closed form's solve.csv.
# Each entry is (e_max, argv after the config path, digest).
EDGES = {
    "sweep infeasible e_max 0.2": (
        0.2,
        ("sweep", "--axis", "user_count", "--values", "2,3", "--schemes",
         "local,noma-partial", "--seeds", "2", "--eps", "1e-3"),
        "de4bf721709ea170af4743481017e2d9677688c48b403ddf6697aaff8cf6914a",
    ),
    "sweep 3 seeds": (
        2.0,
        ("sweep", "--axis", "p_max", "--values", "0.005,0.01", "--schemes",
         "local,noma-full,ofdma-partial-mrb", "--seeds", "3", "--eps", "1e-3"),
        # re-recorded for the gains' math.pow and the scalar rate sums: the
        # sum rate, ee and pe of p_max 0.005, noma-full, seed 1 moved by at
        # most 1.9e-16 relative
        "85e986c6cbd8d28ffc578ff9983bae0c6566c9e132f70a7f231a5ef5dc51ebf5",
    ),
    # trials 1, 5 and 6 exit 3 (equal-time structure infeasible)
    "solve closed-form 0-9": (2.0, ("solve", "--method", "closed-form"),
                              "dff946153bbd696e0541c60be3fa6bf8bea3b6dac5cf9f6585a2dfd65e9d4738"),
}


@pytest.mark.parametrize("name", sorted(EDGES))
def test_edge_output_bytes_unchanged(tmp_path, capsys, name):
    e_max, argv, want = EDGES[name]
    cfg = json.loads(CONFIG.read_text())
    cfg["e_max_j"] = e_max
    path = tmp_path / "in.json"
    path.write_text(json.dumps(cfg))
    h = hashlib.sha256()
    trials = range(10) if argv[0] == "solve" else [None]
    for trial in trials:
        out = tmp_path / f"out{trial}"
        extra = () if trial is None else ("--trial", str(trial))
        rc = main([argv[0], str(path), *argv[1:], *extra, "--out", str(out)])
        h.update(f"{trial} exit {rc}\n".encode())
        if rc == 0:
            names = ("solve.csv",) if argv[0] == "solve" else SWEEP_FILES
            h.update(_digest([out], names).encode())
    capsys.readouterr()
    assert h.hexdigest() == want


def _solver_draw(rng: np.random.Generator, k: int):
    """(gains, config, fixed_betas) of solver-digest draw k.

    Every number is a Python float from the generator's scalar draws and
    Python arithmetic: the gains are sorted 10**uniform values, not
    d^alpha, so no change to the path loss can move them.
    """
    m = int(rng.integers(1, 9))
    users = tuple(
        UserSpec(
            task_bits=rng.uniform(0.5e6, 3e6),
            cycles_per_bit=1e3,
            cpu_freq=1e9,
            kappa=10.0 ** rng.uniform(-28.0, -26.7),
        )
        for _ in range(m)
    )
    gains = sorted(10.0 ** rng.uniform(3.0, 8.0) for _ in range(m))
    p_max_high = 0.05 if k % 2 else 1.0
    server = None
    if k % 3 == 0:
        server = ServerSpec(cycles_per_bit=1e3, cpu_freq=10.0 ** rng.uniform(9.5, 10.5),
                            kappa=1e-28)
    config = ScenarioConfig(
        bandwidth=1e6,
        noise_density_dbm=-174.0,
        users=users,
        p_max=10.0 ** rng.uniform(math.log10(0.005), math.log10(p_max_high)),
        e_max=10.0 ** rng.uniform(-2.0, 1.3),
        server=server,
    )
    pinned = None
    if k % 10 == 5:
        pinned = tuple(rng.uniform(0.0, 1.0) for _ in range(m))
    return gains, config, pinned


def _solver_digest(count: int = 120, seed: int = 23) -> str:
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for k in range(count):
        gains, config, pinned = _solver_draw(rng, k)
        try:
            res = bss_solve(gains, config, eps=1e-4, fixed_betas=pinned)
        except InfeasibleScenarioError as exc:
            h.update(f"{k} infeasible {exc}\n".encode())
            continue
        alloc = res.allocation
        h.update(repr((k, res.optimal_delay, res.trace, alloc.betas, alloc.powers,
                       res.feasibility_residual, res.converged)).encode() + b"\n")
    return h.hexdigest()


SOLVER_DIGEST = "db302dd4007aa0f39899dac006fb337a5b2070bb0257d139cc04f119cfce2fd6"


def test_solver_results_unchanged():
    # bss_solve on 120 draws, M 1-8: slack and binding budgets, a server
    # on every third draw, pinned ratios on every tenth; delay, trace,
    # allocation, residual and converged, or the error text
    assert _solver_digest() == SOLVER_DIGEST
