"""Batch front end: solve one scenario, sweep an axis, or verify invariants.

Outputs are CSV tables plus a JSON manifest describing exactly how to
reproduce them; given the same manifest the bytes are identical run to
run. Floats are printed with 17 significant digits and LF line endings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .baselines import (
    check_circuit_power,
    full_local_delay,
    solve_noma_full_offload,
    solve_noma_partial,
    solve_ofdma_partial,
)
from .closed_form import EqualTimeInfeasible, TwoUserParams, solve_two_user
from .configio import ConfigError, LoadedScenario, config_to_dict, load_config
from .lambertw import BRANCH_POINT, lambert_w0, lambert_wm1
from .model import Allocation, ChannelRealization, ScenarioConfig, UsageError, user_rate, sum_rate
from .oracle import grid_oracle_two_user
from .scenario import RNG_SCHEME, Seed, generate_channels, reorder_users, rng_for
# check_feasibility is looked up on the module at call time, where
# bench/tracing.py patches it to count oracle calls
from . import solver
from .solver import InfeasibleScenarioError, bss_solve, max_violation

SWEEP_COLUMNS = (
    "axis,value,scheme,seed,delay_s,sum_rate_bps,total_power_w,ee_bpj,pe,"
    "iterations,case_label"
)
MEAN_COLUMNS = "axis,value,scheme,n_seeds,delay_s,sum_rate_bps,total_power_w,ee_bpj,pe"
AXES = ("task_bits", "p_max", "e_max", "user_count", "bandwidth")
SCHEMES = ("noma-partial", "noma-full", "ofdma-partial-1rb", "ofdma-partial-mrb", "local")

_OUT_ENV = "NOMAMEC_OUT"


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.16e}"
    return str(x)


def _write_csv(path: str, header: str, rows: list[tuple]) -> None:
    lines = [header, *(",".join(_fmt(v) for v in row) for row in rows)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _make_out_dir(out_dir: str) -> None:
    """Create the output directory before any solve; a path that cannot be one is a UsageError."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use {out_dir!r} as the output directory: {exc}") from None


def _apply_axis(config: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    if axis == "task_bits":
        users = tuple(replace(u, task_bits=value) for u in config.users)
        return replace(config, users=users)
    if axis == "p_max":
        return replace(config, p_max=value)
    if axis == "e_max":
        return replace(config, e_max=value)
    if axis == "bandwidth":
        return replace(config, bandwidth=value)
    if axis == "user_count":
        if not float(value).is_integer() or value < 1:
            raise UsageError(f"user_count values must be whole numbers >= 1, got {value!r}")
        base = config.users
        users = tuple(base[i % len(base)] for i in range(int(value)))
        return replace(config, users=users)
    raise UsageError(f"unknown axis {axis!r}; choose from {AXES}")


def _run_scheme(scheme: str, gains, config: ScenarioConfig, eps, eps_feas, p_circuit):
    if scheme == "noma-partial":
        return solve_noma_partial(gains, config, eps, eps_feas, p_circuit)
    if scheme == "noma-full":
        return solve_noma_full_offload(gains, config, eps, eps_feas, p_circuit)
    if scheme == "ofdma-partial-1rb":
        return solve_ofdma_partial(gains, config, 1, eps, eps_feas, p_circuit)
    if scheme == "ofdma-partial-mrb":
        return solve_ofdma_partial(gains, config, config.num_users, eps, eps_feas, p_circuit)
    if scheme == "local":
        return full_local_delay(config, gains, p_circuit)
    raise UsageError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")


def _check_tolerances(eps: float, eps_feas: float) -> None:
    """Reject a tolerance that is not finite and > 0 before any solve.

    The closed form and the local scheme use neither, so the solver's own
    checks would not see it.
    """
    for name, value in (("eps", eps), ("eps_feas", eps_feas)):
        if not 0.0 < value < math.inf:
            raise UsageError(f"{name} must be finite and > 0, got {value}")


def run_sweep(
    loaded: LoadedScenario,
    axis: str,
    values: Sequence[float],
    schemes: Sequence[str],
    n_seeds: int,
    eps: float = 1e-4,
    eps_feas: float = 1e-8,
    p_circuit: float = 0.1,
    fixed_channels: bool = False,
    out_dir: str = ".",
    basename: str = "sweep",
) -> tuple[str, str, str]:
    """One CSV row per (axis value, scheme, seed), plus a seed-mean table.

    Returns the paths (rows csv, mean csv, manifest json).
    """
    if axis not in AXES:
        raise UsageError(f"unknown axis {axis!r}; choose from {AXES}")
    if not values:
        raise UsageError("a sweep needs at least one axis value")
    if len(set(values)) != len(values):
        raise UsageError(f"sweep axis values must be distinct, got {list(values)}")
    if not schemes:
        raise UsageError("a sweep needs at least one scheme")
    if n_seeds < 1:
        raise UsageError(f"a sweep needs at least one seed, got {n_seeds}")
    for s in schemes:
        if s not in SCHEMES:
            raise UsageError(f"unknown scheme {s!r}; choose from {SCHEMES}")
    check_circuit_power(p_circuit)
    _check_tolerances(eps, eps_feas)
    points = [_apply_axis(loaded.config, axis, value) for value in values]
    _make_out_dir(out_dir)

    rows = []
    streams: dict = {}  # each (trial, point, user) draw, made once per sweep
    for vi, (value, cfg_point) in enumerate(zip(values, points)):
        for trial in range(n_seeds):
            seed = Seed(master=loaded.master_seed, trial=trial)
            # user_count sweeps keep one stream per (trial, user) so the
            # draws nest across counts and delay curves are coupled
            point = None if fixed_channels or axis == "user_count" else vi
            realization = generate_channels(seed, cfg_point, point=point, streams=streams)
            cfg_run = reorder_users(cfg_point, realization)
            for scheme in schemes:
                try:
                    res = _run_scheme(scheme, realization, cfg_run, eps, eps_feas, p_circuit)
                    rows.append(
                        (
                            axis, float(value), scheme, trial, res.delay, res.sum_rate,
                            res.total_power, res.energy_efficiency, res.power_efficiency,
                            res.iterations, res.case_label or "-",
                        )
                    )
                except InfeasibleScenarioError:
                    rows.append(
                        (
                            axis, float(value), scheme, trial, math.inf, math.nan,
                            math.nan, math.nan, math.nan, 0, "infeasible",
                        )
                    )
    rows.sort(key=lambda r: (r[1], r[2], r[3]))

    means = []
    for value in sorted({r[1] for r in rows}):
        for scheme in sorted({r[2] for r in rows}):
            group = [r for r in rows if r[1] == value and r[2] == scheme]
            if not group:
                continue
            cols = list(zip(*group))
            means.append(
                (
                    axis, value, scheme, len(group),
                    float(np.mean(cols[4])), float(np.mean(cols[5])),
                    float(np.mean(cols[6])), float(np.mean(cols[7])),
                    float(np.mean(cols[8])),
                )
            )

    csv_path = os.path.join(out_dir, f"{basename}.csv")
    mean_path = os.path.join(out_dir, f"{basename}_mean.csv")
    manifest_path = os.path.join(out_dir, f"{basename}_manifest.json")
    _write_csv(csv_path, SWEEP_COLUMNS, rows)
    _write_csv(mean_path, MEAN_COLUMNS, means)
    _write_manifest(
        manifest_path,
        {
            "command": "sweep",
            "version": __version__,
            "rng": RNG_SCHEME,
            "config": config_to_dict(loaded.config, loaded.master_seed),
            "axis": axis,
            "values": [float(v) for v in values],
            "schemes": list(schemes),
            "seeds": list(range(n_seeds)),
            "fixed_channels": fixed_channels,
            "tolerances": {"eps": eps, "eps_feas": eps_feas},
            "p_circuit_w": p_circuit,
            "outputs": [os.path.basename(csv_path), os.path.basename(mean_path)],
        },
    )
    return csv_path, mean_path, manifest_path


def _cmd_solve(args) -> int:
    if args.trial < 0:
        raise UsageError(f"--trial must be >= 0, got {args.trial}")
    _check_tolerances(args.eps, args.eps_feas)
    loaded = load_config(args.config)
    config = loaded.config
    seed = Seed(master=loaded.master_seed, trial=args.trial)
    realization = generate_channels(seed, config)
    cfg_run = reorder_users(config, realization)
    m = cfg_run.num_users

    if args.method == "closed-form" and m != 2:
        print(f"error: closed-form method needs exactly 2 users, got {m}", file=sys.stderr)
        return 2
    if args.method == "closed-form" and cfg_run.server is not None:
        print("error: the closed form has no server term; rerun with --method bss",
              file=sys.stderr)
        return 2
    # the closed form covers two users without a server; auto sends
    # everything else straight to bisection
    closed = m == 2 and cfg_run.server is None
    out_dir = args.out or os.environ.get(_OUT_ENV, ".")
    _make_out_dir(out_dir)

    case_label = "-"
    try:
        sol = None
        if args.method in ("auto", "closed-form") and closed:
            try:
                sol = solve_two_user(TwoUserParams.from_scenario(realization, cfg_run))
            except EqualTimeInfeasible:
                if args.method == "closed-form":
                    print("error: equal-time structure infeasible; rerun with --method bss",
                          file=sys.stderr)
                    return 3
        if sol is not None:
            alloc = Allocation(betas=(sol.beta1, sol.beta2), powers=(sol.p1, sol.p2))
            # auto keeps a closed form only if its allocation meets every
            # constraint at its delay, and no delay eps below is feasible
            # (with a binding energy budget the equal-time structure is
            # not optimal)
            if args.method == "auto" and (
                max_violation(sol.delay, alloc, realization, cfg_run) > args.eps_feas
                or solver.check_feasibility(
                    sol.delay - args.eps, realization, cfg_run, args.eps_feas
                ).feasible
            ):
                sol = None
        if sol is not None:
            delay, iterations, case_label = sol.delay, 0, sol.case_label
            method = "closed-form"
        else:
            res = bss_solve(realization, cfg_run, eps=args.eps, eps_feas=args.eps_feas)
            alloc, delay, iterations = res.allocation, res.optimal_delay, res.iterations
            method = "bss (closed-form fallback)" if args.method == "auto" and closed else "bss"
    except InfeasibleScenarioError as exc:
        print(f"error: infeasible scenario: {exc}", file=sys.stderr)
        return 3

    print(f"scenario: {args.config} (users={m}, seed=({loaded.master_seed},{args.trial}))")
    print(f"method: {method}" + (f"  case={case_label}" if case_label != "-" else ""))
    print(f"optimal delay: {_fmt(delay)} s    iterations: {iterations}")
    print("user  gain_per_w              beta                    power_w")
    for i in range(m):
        print(
            f"{i + 1:<5d} {_fmt(realization.gains[i]):<23s} "
            f"{_fmt(alloc.betas[i]):<23s} {_fmt(alloc.powers[i])}"
        )

    csv_path = os.path.join(out_dir, "solve.csv")
    rows = [
        (method, delay, iterations, case_label, i + 1, alloc.betas[i], alloc.powers[i])
        for i in range(m)
    ]
    _write_csv(csv_path, "method,delay_s,iterations,case_label,user,beta,power_w", rows)
    _write_manifest(
        os.path.join(out_dir, "solve_manifest.json"),
        {
            "command": "solve",
            "version": __version__,
            "rng": RNG_SCHEME,
            "config": config_to_dict(config, loaded.master_seed),
            "trial": args.trial,
            "method": args.method,
            "tolerances": {"eps": args.eps, "eps_feas": args.eps_feas},
            "outputs": ["solve.csv"],
        },
    )
    return 0


def _cmd_sweep(args) -> int:
    loaded = load_config(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v]
    except ValueError as exc:
        raise UsageError(f"--values: {exc}") from None
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    out_dir = args.out or os.environ.get(_OUT_ENV, ".")
    csv_path, mean_path, manifest_path = run_sweep(
        loaded,
        axis=args.axis,
        values=values,
        schemes=schemes,
        n_seeds=args.seeds,
        eps=args.eps,
        eps_feas=args.eps_feas,
        p_circuit=args.pc,
        fixed_channels=args.fixed_channels,
        out_dir=out_dir,
        basename=args.basename,
    )
    print(f"wrote {csv_path}")
    print(f"wrote {mean_path}")
    print(f"wrote {manifest_path}")
    return 0


def _verify_scenario(loaded: LoadedScenario, gains_override: Optional[str]) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    config = loaded.config

    if gains_override is not None:
        try:
            realization = ChannelRealization(
                gains=tuple(float(x) for x in gains_override.split(","))
            )
            if len(realization.gains) != config.num_users:
                raise UsageError("gain count does not match user count")
            checks.append(("sorted-gain invariant", True, ""))
        except UsageError as exc:
            checks.append(("sorted-gain invariant", False, str(exc)))
            return checks
    else:
        realization = generate_channels(Seed(master=loaded.master_seed), config)
        checks.append(("sorted-gain invariant", True, ""))
    cfg_run = reorder_users(config, realization) if gains_override is None else config

    rng = rng_for(Seed(master=loaded.master_seed, trial=1))
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 9))
        g = np.sort(rng.uniform(1e2, 1e7, m))
        p = rng.uniform(0.0, 1.0, m)
        total = sum_rate(g, p, config.bandwidth, m)
        split = sum(user_rate(i, g, p, config.bandwidth) for i in range(1, m + 1))
        if total > 0:
            worst = max(worst, abs(total - split) / total)
    checks.append(("rate telescoping <= 1e-9", worst <= 1e-9, f"worst {worst:.2e}"))

    # W0 residuals are scaled by max(1, |x|); W-1 residuals by |x|, since
    # its domain reaches down to -1e-300
    near_branch = BRANCH_POINT + np.logspace(-12, math.log10(0.3), 100)
    lambert_grids = (
        ("lambert w identity <= 1e-12", lambert_w0, BRANCH_POINT + np.logspace(-12, 6, 200), 1.0),
        ("lambert w-1 identity <= 1e-12", lambert_wm1,
         np.concatenate([near_branch, -np.logspace(-300, -1, 100)]), 0.0),
    )
    for name, branch, xs, floor in lambert_grids:
        worst_w = 0.0
        for x in map(float, xs):
            w = branch(x)
            worst_w = max(worst_w, abs(w * math.exp(w) - x) / max(floor, abs(x)))
        checks.append((name, worst_w <= 1e-12, f"worst {worst_w:.2e}"))

    try:
        res = bss_solve(realization, cfg_run)
        below = solver.check_feasibility(0.5 * res.optimal_delay, realization, cfg_run)
        above = solver.check_feasibility(1.05 * res.optimal_delay + 1e-4, realization, cfg_run)
        ok = above.feasible and (not below.feasible or res.optimal_delay < 1e-9)
        checks.append(("feasibility monotone around optimum", ok,
                       f"delay {res.optimal_delay:.6g}"))
    except InfeasibleScenarioError as exc:
        checks.append(("feasibility monotone around optimum", False, str(exc)))
        return checks

    if cfg_run.num_users == 2 and cfg_run.server is not None:
        for name in ("two-user oracle agreement", "equal-time structure (local = window)",
                     "offloaded bits fill the shared window"):
            checks.append((name, True, "skipped: closed form has no server term"))
    elif cfg_run.num_users == 2:
        try:
            params = TwoUserParams.from_scenario(realization, cfg_run)
            sol = solve_two_user(params)
            oracle = grid_oracle_two_user(realization, cfg_run)
            tol = 2.0 * (oracle.grid_effect + 1e-4)
            ok = abs(sol.delay - oracle.delay) <= tol and abs(res.optimal_delay - oracle.delay) <= tol
            checks.append(("two-user oracle agreement", ok,
                           f"closed {sol.delay:.6g} bss {res.optimal_delay:.6g} "
                           f"oracle {oracle.delay:.6g}"))
            u1, u2 = cfg_run.users
            tl1 = (1 - sol.beta1) * u1.local_full_time
            tl2 = (1 - sol.beta2) * u2.local_full_time
            prop3 = abs(tl1 - sol.delay) <= 1e-6 * sol.delay and abs(tl2 - sol.delay) <= 1e-6 * sol.delay
            checks.append(("equal-time structure (local = window)", prop3,
                           f"{tl1:.6g} {tl2:.6g} vs {sol.delay:.6g}"))
            bits = sol.beta1 * u1.task_bits + sol.beta2 * u2.task_bits
            window_rate = params.rate(sol.p1, sol.p2)
            prop1 = abs(bits - sol.delay * window_rate) <= 1e-6 * params.a1
            checks.append(("offloaded bits fill the shared window", prop1, ""))
        except EqualTimeInfeasible:
            checks.append(("two-user oracle agreement", True, "skipped: structure infeasible"))
    return checks


def _cmd_verify(args) -> int:
    loaded = load_config(args.config)
    checks = _verify_scenario(loaded, args.gains)
    failed = 0
    for name, ok, detail in checks:
        status = "ok" if ok else "FAIL"
        extra = f" ({detail})" if detail else ""
        print(f"[verify] {name}: {status}{extra}")
        if not ok:
            failed += 1
    print(f"[verify] {len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main call and kept for the process.

    The subcommands bind the _cmd_* functions, which look up the library
    functions they call on this module at call time.
    """
    parser = argparse.ArgumentParser(
        prog="nomamec",
        description="Delay-optimal NOMA-MEC task partitioning and power control",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one scenario")
    p_solve.add_argument("config")
    p_solve.add_argument("--method", choices=("auto", "bss", "closed-form"), default="auto")
    p_solve.add_argument("--eps", type=float, default=1e-4)
    p_solve.add_argument("--eps-feas", type=float, default=1e-8)
    p_solve.add_argument("--trial", type=int, default=0)
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="sweep an axis over schemes and seeds")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--schemes", default="noma-partial,noma-full")
    p_sweep.add_argument("--seeds", type=int, default=1)
    p_sweep.add_argument("--eps", type=float, default=1e-4)
    p_sweep.add_argument("--eps-feas", type=float, default=1e-8)
    p_sweep.add_argument("--pc", type=float, default=0.1, help="circuit power in W")
    p_sweep.add_argument("--fixed-channels", action="store_true",
                         help="reuse each trial's channel draw across axis values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--basename", default="sweep")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the invariant suite on a scenario")
    p_verify.add_argument("config")
    p_verify.add_argument("--gains", default=None,
                          help="comma-separated gain override (testing hook)")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
