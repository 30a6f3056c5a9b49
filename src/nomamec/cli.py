"""Batch front end: solve one scenario, sweep an axis, or verify invariants.

Outputs are CSV tables plus a JSON manifest describing exactly how to
reproduce them; given the same manifest the bytes are identical run to
run. Each table's row format (SWEEP_ROW, MEAN_ROW, SOLVE_ROW) prints
floats with 17 significant digits (%.16e), ints in %d, and LF line endings.
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

from . import __version__
from .baselines import (
    full_local_delay,
    solve_noma_full_offload,
    solve_noma_partial,
    solve_ofdma_partial,
)
from .closed_form import EqualTimeInfeasible, solve_two_user
from .configio import ConfigError, LoadedScenario, config_to_dict, load_config
from .model import Allocation, ChannelRealization, ScenarioConfig, UsageError, _with_users, sum_rate
from .scenario import RNG_SCHEME, Seed, generate_channels, reorder_users
# check_feasibility is looked up on the module at call time, where
# bench/tracing.py patches it to count oracle calls
from . import solver
from .solver import InfeasibleScenarioError, bss_solve

SWEEP_COLUMNS = (
    "axis,value,scheme,seed,delay_s,sum_rate_bps,total_power_w,ee_bpj,pe,"
    "iterations,case_label"
)
SWEEP_ROW = "%s,%.16e,%s,%d,%.16e,%.16e,%.16e,%.16e,%.16e,%d,%s"
MEAN_COLUMNS = "axis,value,scheme,n_seeds,delay_s,sum_rate_bps,total_power_w,ee_bpj,pe"
MEAN_ROW = "%s,%.16e,%s,%d,%.16e,%.16e,%.16e,%.16e,%.16e"
SOLVE_COLUMNS = "method,delay_s,iterations,case_label,user,beta,power_w"
SOLVE_ROW = "%s,%.16e,%d,%s,%d,%.16e,%.16e"
AXES = ("task_bits", "p_max", "e_max", "user_count", "bandwidth")
SCHEMES = ("noma-partial", "noma-full", "ofdma-partial-1rb", "ofdma-partial-mrb", "local")

_OUT_ENV = "NOMAMEC_OUT"


def _fmt(x) -> str:
    # Python prints nan, inf and -inf in this format too
    return f"{x:.16e}" if isinstance(x, float) else str(x)


def _write_csv(path: str, header: str, row_format: str, rows: list[tuple]) -> None:
    """header, then row_format % row per row: a float in each %.16e cell, an int in each %d."""
    lines = [header, *(row_format % row for row in rows)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _make_out_dir(out_dir: str, names: Sequence[str]) -> list[str]:
    """Create the output directory before any solve and return the paths of names in it.

    A path that cannot be a directory, or a name whose path is a directory
    or lies in a folder that does not exist, is a UsageError.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use {out_dir!r} as the output directory: {exc}") from None
    paths = [os.path.join(out_dir, name) for name in names]
    for path in paths:
        if os.path.isdir(path):
            raise UsageError(f"cannot write {path!r}: it is a directory")
        if not os.path.isdir(os.path.dirname(path)):
            raise UsageError(f"cannot write {path!r}: no such directory")
    return paths


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
        return _with_users(config, tuple(base[i % len(base)] for i in range(int(value))))
    raise UsageError(f"unknown axis {axis!r}; choose from {AXES}")


def _run_scheme(scheme: str, gains, config: ScenarioConfig, eps):
    if scheme == "noma-partial":
        return solve_noma_partial(gains, config, eps)
    if scheme == "noma-full":
        return solve_noma_full_offload(gains, config, eps)
    if scheme == "ofdma-partial-1rb":
        return solve_ofdma_partial(gains, config, 1, eps)
    if scheme == "ofdma-partial-mrb":
        return solve_ofdma_partial(gains, config, config.num_users, eps)
    if scheme == "local":
        return full_local_delay(config)
    raise UsageError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")


def _check_tolerances(eps: float) -> None:
    """Reject an eps that is not finite and > 0 before any solve.

    The closed form and the local scheme do not use it, so the solver's
    own check would not see it.
    """
    if not 0.0 < eps < math.inf:
        raise UsageError(f"eps must be finite and > 0, got {eps}")


def _pairwise_sum(a: list[float]) -> float:
    """Sum of a in numpy's pairwise order of additions.

    Below 8 values a plain loop from 0.0; up to 128, eight running sums
    over strides of 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the remainder one by one; above 128, two halves split at a
    multiple of 8.
    """
    n = len(a)
    if n < 8:
        total = 0.0
        for x in a:
            total += x
        return total
    if n <= 128:
        r = a[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            for j in range(8):
                r[j] += a[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[end:]:
            total += x
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])


def _seed_mean(column: list[float]) -> float:
    """np.mean of the column bit for bit: its pairwise sum added to 0.0, over n."""
    return (0.0 + _pairwise_sum(column)) / len(column)


def run_sweep(
    loaded: LoadedScenario,
    axis: str,
    values: Sequence[float],
    schemes: Sequence[str],
    n_seeds: int,
    eps: float = 1e-4,
    p_circuit: float = 0.1,
    fixed_channels: bool = False,
    out_dir: str = ".",
    basename: str = "sweep",
) -> tuple[str, str, str]:
    """One CSV row per (axis value, scheme, seed), plus a seed-mean table.

    Each row reports the scheme's delay, sum rate and bisection steps, and
    derives from its allocation the radiated power P (the powers added left
    to right from 0.0), the energy efficiency rate / (P + p_circuit) (0.0
    when that is 0) and the power efficiency rate / P (nan at P = 0).
    p_circuit must be finite and >= 0. Returns the paths (rows csv, mean
    csv, manifest json).
    """
    if axis not in AXES:
        raise UsageError(f"unknown axis {axis!r}; choose from {AXES}")
    if not values:
        raise UsageError("a sweep needs at least one axis value")
    if len(set(values)) != len(values):
        raise UsageError(f"sweep axis values must be distinct, got {list(values)}")
    if not schemes:
        raise UsageError("a sweep needs at least one scheme")
    if len(set(schemes)) != len(schemes):
        raise UsageError(f"sweep schemes must be distinct, got {list(schemes)}")
    if n_seeds < 1:
        raise UsageError(f"a sweep needs at least one seed, got {n_seeds}")
    for s in schemes:
        if s not in SCHEMES:
            raise UsageError(f"unknown scheme {s!r}; choose from {SCHEMES}")
        if s.startswith("ofdma") and loaded.config.server is not None:
            raise UsageError(f"scheme {s} has no server model; use a config without one")
    if not 0.0 <= p_circuit < math.inf:
        raise UsageError(f"p_circuit must be finite and >= 0, got {p_circuit!r}")
    _check_tolerances(eps)
    points = [_apply_axis(loaded.config, axis, value) for value in values]
    csv_path, mean_path, manifest_path = _make_out_dir(
        out_dir, [f"{basename}.csv", f"{basename}_mean.csv", f"{basename}_manifest.json"]
    )

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
                    res = _run_scheme(scheme, realization, cfg_run, eps)
                except InfeasibleScenarioError:
                    rows.append(
                        (
                            axis, float(value), scheme, trial, math.inf, math.nan,
                            math.nan, math.nan, math.nan, 0, "infeasible",
                        )
                    )
                    continue
                rate = res.sum_rate
                power = 0.0
                for p in res.allocation.powers:
                    power += p
                ee = rate / (power + p_circuit) if power + p_circuit > 0 else 0.0
                pe = rate / power if power > 0 else math.nan
                rows.append(
                    (axis, float(value), scheme, trial, res.delay, rate, power, ee, pe,
                     res.iterations, "-")
                )
    rows.sort(key=lambda r: (r[1], r[2], r[3]))

    # after the sort each (value, scheme) group is n_seeds adjacent rows
    means = []
    for k in range(0, len(rows), n_seeds):
        group = rows[k:k + n_seeds]
        means.append((axis, group[0][1], group[0][2], n_seeds,
                      *(_seed_mean([r[c] for r in group]) for c in range(4, 9))))

    _write_csv(csv_path, SWEEP_COLUMNS, SWEEP_ROW, rows)
    _write_csv(mean_path, MEAN_COLUMNS, MEAN_ROW, means)
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
            "tolerances": {"eps": eps, "eps_feas": solver.EPS_FEAS},
            "p_circuit_w": p_circuit,
            "outputs": [os.path.basename(csv_path), os.path.basename(mean_path)],
        },
    )
    return csv_path, mean_path, manifest_path


def _cmd_solve(args) -> int:
    if args.trial < 0:
        raise UsageError(f"--trial must be >= 0, got {args.trial}")
    _check_tolerances(args.eps)
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
    csv_path, manifest_path = _make_out_dir(out_dir, ["solve.csv", "solve_manifest.json"])

    case_label = "-"
    try:
        sol = None
        if args.method in ("auto", "closed-form") and closed:
            try:
                sol = solve_two_user(realization, cfg_run)
            except EqualTimeInfeasible:
                if args.method == "closed-form":
                    print("error: equal-time structure infeasible; rerun with --method bss",
                          file=sys.stderr)
                    return 3
        # solve_two_user keeps only candidates that meet every constraint at
        # their delay; auto also needs no delay eps below to be feasible
        # (with a binding energy budget the equal-time structure is not
        # optimal)
        if sol is not None and args.method == "auto" and solver.check_feasibility(
            sol.delay - args.eps, realization, cfg_run
        ).feasible:
            sol = None
        if sol is not None:
            alloc = Allocation(betas=(sol.beta1, sol.beta2), powers=(sol.p1, sol.p2))
            delay, iterations, case_label = sol.delay, 0, sol.case_label
            method = "closed-form"
        else:
            res = bss_solve(realization, cfg_run, eps=args.eps)
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

    rows = [
        (method, delay, iterations, case_label, i + 1, alloc.betas[i], alloc.powers[i])
        for i in range(m)
    ]
    _write_csv(csv_path, SOLVE_COLUMNS, SOLVE_ROW, rows)
    _write_manifest(
        manifest_path,
        {
            "command": "solve",
            "version": __version__,
            "rng": RNG_SCHEME,
            "config": config_to_dict(config, loaded.master_seed),
            "trial": args.trial,
            "method": args.method,
            "tolerances": {"eps": args.eps, "eps_feas": solver.EPS_FEAS},
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
            override = tuple(float(x) for x in gains_override.split(","))
        except ValueError as exc:
            raise UsageError(f"--gains: {exc}") from None
        if len(override) != config.num_users:
            raise UsageError(f"--gains: {len(override)} gains for {config.num_users} users")
        if not all(0.0 < g < math.inf for g in override):
            raise UsageError(f"--gains: gains must be finite and > 0, got {gains_override}")
        # bad values are usage errors; only the decode order is the invariant
        try:
            realization = ChannelRealization(gains=override)
            checks.append(("sorted-gain invariant", True, ""))
        except UsageError as exc:
            checks.append(("sorted-gain invariant", False, str(exc)))
            return checks
    else:
        realization = generate_channels(Seed(master=loaded.master_seed), config)
        checks.append(("sorted-gain invariant", True, ""))
    cfg_run = reorder_users(config, realization) if gains_override is None else config

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
        for name in ("two-user closed form agrees with bss",
                     "equal-time structure (local = window)",
                     "offloaded bits fill the shared window"):
            checks.append((name, True, "skipped: closed form has no server term"))
    elif cfg_run.num_users == 2:
        try:
            sol = solve_two_user(realization, cfg_run)
            # bss_solve's delay lies within its eps (1e-4) above the optimum
            ok = abs(sol.delay - res.optimal_delay) <= 2e-4
            checks.append(("two-user closed form agrees with bss", ok,
                           f"closed {sol.delay:.6g} bss {res.optimal_delay:.6g}"))
            u1, u2 = cfg_run.users
            tl1 = (1 - sol.beta1) * u1.local_full_time
            tl2 = (1 - sol.beta2) * u2.local_full_time
            prop3 = abs(tl1 - sol.delay) <= 1e-6 * sol.delay and abs(tl2 - sol.delay) <= 1e-6 * sol.delay
            checks.append(("equal-time structure (local = window)", prop3,
                           f"{tl1:.6g} {tl2:.6g} vs {sol.delay:.6g}"))
            bits = sol.beta1 * u1.task_bits + sol.beta2 * u2.task_bits
            window_rate = sum_rate(realization, (sol.p1, sol.p2), cfg_run.bandwidth, 2)
            prop1 = abs(bits - sol.delay * window_rate) <= 1e-6 * (u1.task_bits + u2.task_bits)
            checks.append(("offloaded bits fill the shared window", prop1, ""))
        except EqualTimeInfeasible:
            checks.append(("two-user closed form agrees with bss", True,
                           "skipped: structure infeasible"))
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
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and each subcommand's parser by name, built on
    the first main call and kept for the process.

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
    return parser, sub.choices


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The namespace the top-level parser gives argv, parsed once.

    When argv[0] names a subcommand, that subcommand's parser reads the
    rest directly; the top-level parser would classify every argument and
    then hand the same ones over. Arguments the subcommand does not know
    are still reported by the top-level parser, under its usage line.
    """
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no arguments, a top-level option or an unknown command
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line (sys.argv[1:] by default); returns the exit code.

    When argv[0] is solve, sweep or verify, that subcommand's parser reads
    the rest; any other argv (none, -h, --version, an unknown command)
    goes to the top-level parser. Both give the namespace, messages and
    exit codes of one top-level parse (see _parse). A usage error prints
    the usage line of the parser that found it and raises SystemExit(2);
    an argument the subcommand does not know is the top-level parser's
    error, "nomamec: error: unrecognized arguments: ...". -h and --version
    raise SystemExit(0). A ConfigError or UsageError raised by the command
    prints "error: ..." to stderr and returns 2.
    """
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
