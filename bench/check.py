"""Independent checks of the files a nomamec command writes.

A ``solve.csv`` is certified by regenerating the channel draw and
evaluating the reported allocation with the formulas of
``nomamec.model`` alone; no solver code takes part. A ``sweep.csv`` is
checked for completeness, infeasibility labels, and the dominance
relations between schemes that hold for every channel draw.

Every function returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import math

from nomamec.model import (
    Allocation,
    ScenarioConfig,
    UserSpec,
    local_energy,
    offload_energy,
    total_delay,
)
from nomamec.scenario import Seed, generate_channels, reorder_users

# the solver certifies its witness with normalized residuals <= eps_feas
# (1e-8 by default); these leave room for that and for float rounding
ENERGY_RTOL = 1e-6
DELAY_RTOL = 1e-9
BOX_ATOL = 1e-12

SOLVE_COLUMNS = {"method", "delay_s", "user", "beta", "power_w"}
SWEEP_COLUMNS = {"axis", "value", "scheme", "seed", "delay_s", "case_label"}


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """The benchmark's own reading of a config file it wrote (no server)."""
    users = tuple(
        UserSpec(
            task_bits=u["task_bits"],
            cycles_per_bit=u["cycles_per_bit"],
            cpu_freq=u["cpu_freq_hz"],
            kappa=u["kappa"],
            distance=u.get("distance_m", 0.0),
        )
        for u in raw["users"]
    )
    return ScenarioConfig(
        bandwidth=raw["bandwidth_hz"],
        noise_density_dbm=raw["noise_density_dbm"],
        users=users,
        p_max=raw["p_max_w"],
        e_max=raw["e_max_j"],
        path_loss_exp=raw["path_loss_exp"],
        cell_radius=raw["cell_radius_m"],
    )


def local_time_bound(users) -> float:
    """Delay of computing every task on its device: the bisection bracket top."""
    return max(u.local_full_time for u in users)


def read_rows(text: str, needed: set[str]) -> list[dict]:
    """CSV rows as dicts by column name; empty if a needed column is missing."""
    lines = text.splitlines()
    if not lines or not needed <= set(lines[0].split(",")):
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_infeasible(raw: dict) -> list[str]:
    """An "infeasible" answer is right only if fully-local computing breaks the budget."""
    config = scenario_from_dict(raw)
    if any(u.local_full_energy > config.e_max for u in config.users):
        return []
    return ["reported infeasible, but fully-local computing meets every energy budget"]


def check_solve(text: str, raw: dict, trial: int, eps: float) -> tuple[list[str], list[float]]:
    """Certify one solve.csv; returns (problems, [reported delay])."""
    rows = read_rows(text, SOLVE_COLUMNS)
    config = scenario_from_dict(raw)
    realization = generate_channels(Seed(master=raw["master_seed"], trial=trial), config)
    cfg_run = reorder_users(config, realization)
    if [r["user"] for r in rows] != [str(m) for m in range(1, cfg_run.num_users + 1)]:
        return ["solve.csv: one row per user in decode order expected"], []
    if len({(r["method"], r["delay_s"]) for r in rows}) != 1:
        return ["solve.csv: method or delay differs between user rows"], []
    delay = float(rows[0]["delay_s"])
    betas = [float(r["beta"]) for r in rows]
    powers = [float(r["power_w"]) for r in rows]

    problems = []
    if not math.isfinite(delay) or delay <= 0.0:
        return [f"solve.csv: delay {delay!r} is not a positive finite number"], []
    if any(b < -BOX_ATOL or b > 1.0 + BOX_ATOL for b in betas):
        problems.append(f"beta outside [0, 1]: {betas}")
    if any(p < -BOX_ATOL or p > cfg_run.p_max * (1.0 + BOX_ATOL) for p in powers):
        problems.append(f"power outside [0, p_max]: {powers}")
    if problems:
        return problems, [delay]
    alloc = Allocation(
        betas=tuple(min(max(b, 0.0), 1.0) for b in betas),
        powers=tuple(max(p, 0.0) for p in powers),
    )

    completion = total_delay(alloc, realization, cfg_run).overall
    if completion > delay + eps + DELAY_RTOL * delay:
        problems.append(f"completion time {completion!r} exceeds delay {delay!r} + eps {eps}")
    for m, user in enumerate(cfg_run.users, start=1):
        energy = local_energy(alloc.betas[m - 1], user) + offload_energy(
            m, alloc, realization, cfg_run.users, cfg_run.bandwidth
        )
        if energy > cfg_run.e_max * (1.0 + ENERGY_RTOL):
            problems.append(f"user {m} energy {energy!r} J exceeds budget {cfg_run.e_max!r} J")
    if delay > local_time_bound(cfg_run.users) + eps:
        problems.append(f"delay {delay!r} exceeds the fully-local time")
    return problems, [delay]


def check_sweep(
    text: str, raw: dict, values: list[float], schemes: list[str], eps: float
) -> tuple[list[str], list[float]]:
    """Check one user_count sweep.csv; returns (problems, finite delays)."""
    delays: dict[tuple[float, str], float] = {}
    problems = []
    for r in read_rows(text, SWEEP_COLUMNS):
        key = (float(r["value"]), r["scheme"])
        if r["axis"] != "user_count" or r["seed"] != "0" or key in delays:
            problems.append(f"sweep.csv: unexpected row {r!r}")
            continue
        delay = float(r["delay_s"])
        if math.isinf(delay) != (r["case_label"] == "infeasible"):
            problems.append(f"sweep.csv: infeasible label does not match delay in {r!r}")
        delays[key] = delay
    expected = {(v, s) for v in values for s in schemes}
    if set(delays) != expected:
        problems.append(f"sweep.csv: rows {sorted(set(delays) ^ expected)} missing or extra")
        return problems, []

    base = scenario_from_dict(raw)
    for v in values:
        users = [base.users[i % len(base.users)] for i in range(int(v))]
        local = local_time_bound(users)
        if any(u.local_full_energy > base.e_max for u in users):
            local = math.inf
        d = {s: delays[(v, s)] for s in schemes}
        pairs = [("noma-partial", "noma-full"), ("ofdma-partial-mrb", "ofdma-partial-1rb")]
        for better, worse in pairs:
            if better in d and worse in d and d[better] > d[worse] + eps:
                problems.append(f"M={v:g}: {better} {d[better]!r} > {worse} {d[worse]!r} + eps")
        for s, delay in d.items():
            if s != "noma-full" and delay > local + eps:
                problems.append(f"M={v:g}: {s} {delay!r} exceeds the fully-local time {local!r}")
        if "local" in d and d["local"] != local:
            problems.append(f"M={v:g}: local row {d['local']!r} != fully-local time {local!r}")
    return problems, [x for x in delays.values() if math.isfinite(x)]
