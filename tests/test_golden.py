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
from pathlib import Path

import pytest

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
