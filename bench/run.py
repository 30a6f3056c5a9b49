"""Closed-loop benchmark of the nomamec command line.

One client in one thread calls ``nomamec.cli.main(argv)`` in-process;
each command starts when the previous one returns. Inputs (config files
and argv) are generated from ``--seed``. Every file a command writes is
checked (see check.py) and digested; a failed check, a nonzero exit
(other than a confirmed exit 3), an exception or a digest that differs
between repeats of one input counts as a failed command.

Command times are scaled to a reference speed: a short fixed probe runs
between commands, and each command's wall time is multiplied by
PROBE_REF_MS over the mean of the probes on either side. Set-up times are
scaled the same way, by probes run right after set-up. The wall-clock
figures stay in the record.

    python3 bench/run.py --workload fig-users --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced pass over the workload's first inputs. Each run also writes
a full record to bench/results/. See bench/README.md.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy is imported (here or in children)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASE_CONFIG = ROOT / "configs" / "s1.json"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

SETUP_PROBES = 7
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
PROBE_STEPS = 1000
PROBE_REF_MS = 3.0  # probe time on a 2-core Xeon VM at 2.1 GHz with its cores not shared


@dataclass(frozen=True)
class Workload:
    """A command template, the base-config overrides and the input counts.

    ``inputs`` distinct inputs are generated per seed and issued
    round-robin. Every timed run completes the first ``cycle`` of them, so
    delay_mean_s covers a fixed set of draws; the traced pass runs them.
    Where ``inputs`` equals ``cycle``, a timed run repeats inputs (for the
    determinism guard); s1-auto has more inputs than a run issues, so the
    ten slowest commands behind cmd_ms_tail are ten distinct draws.
    """

    name: str
    args: tuple[str, ...]
    overrides: tuple[tuple[str, float], ...]
    cycle: int
    inputs: int

    @property
    def kind(self) -> str:
        return self.args[0]


WORKLOADS = {
    w.name: w
    for w in (
        # paper's user-count figure: slack budgets, M up to 8, all time in
        # check_feasibility's subgradient stage; closed_form never runs
        Workload(
            "fig-users",
            ("sweep", "--axis", "user_count", "--values", "2,3,4,5,6,7,8",
             "--schemes", "noma-partial,noma-full", "--seeds", "1", "--eps", "1e-3"),
            (("e_max_j", 2.0),),
            40,
            40,
        ),
        # interactive user on the reference scenario: closed form, Lambert W,
        # bss fallback with binding energy (SLSQP-heavy), per-command I/O
        Workload("s1-auto", ("solve", "--method", "auto"), (), 200, 800),
        # orthogonal baselines: single-user bss_solve calls via solve_ofdma_partial
        Workload(
            "ofdma-m4",
            ("sweep", "--axis", "user_count", "--values", "4",
             "--schemes", "ofdma-partial-1rb,ofdma-partial-mrb,local", "--seeds", "1",
             "--eps", "1e-4"),
            (("e_max_j", 2.0),),
            24,
            24,
        ),
    )
}


@dataclass(frozen=True)
class Command:
    index: int
    argv: tuple[str, ...]
    config: dict
    trial: int
    out_dir: Path

    def option(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]

    @property
    def outputs(self) -> tuple[str, ...]:
        if self.argv[0] == "solve":
            return ("solve.csv", "solve_manifest.json")
        return ("sweep.csv", "sweep_mean.csv", "sweep_manifest.json")

    @property
    def solves(self) -> int:
        """Output rows: one scheme on one channel draw."""
        if self.argv[0] == "solve":
            return 1
        return len(self.option("--values").split(",")) * len(self.option("--schemes").split(","))


def setup(workload: Workload, seed: int, dest: Path) -> list[Command]:
    """Import the program, load the base config and write the workload's inputs."""
    from nomamec import cli  # noqa: F401  (pulls in numpy and scipy)
    from nomamec.configio import load_config

    load_config(str(BASE_CONFIG))
    with open(BASE_CONFIG, encoding="utf-8") as fh:
        base = json.load(fh)
    base.update(dict(workload.overrides))
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    commands = []
    for i in range(workload.inputs):
        if workload.kind == "solve":
            # one scenario file per seed; the draw is picked by --trial
            config = dict(base, master_seed=seed)
            cfg_path, trial, extra = dest / "s1.json", i, ("--trial", str(i))
        else:
            # one master seed per command: each command is one figure column
            config = dict(base, master_seed=seed * 1000 + i)
            cfg_path, trial, extra = dest / f"in{i}.json", 0, ()
        if not cfg_path.exists():
            cfg_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
        out_dir = dest / f"out{i}"
        argv = (workload.args[0], str(cfg_path), *workload.args[1:], *extra, "--out", str(out_dir))
        commands.append(Command(i, argv, config, trial, out_dir))
    return commands


def probe_ms() -> float:
    """Milliseconds for a fixed mix of small numpy operations and Python arithmetic.

    A shared host runs this probe up to twice as slow in some seconds as
    in others, with CPU time equal to wall time, and the program's
    commands slow down with it. The probe is what timings are scaled by.
    """
    import numpy as np

    a = np.arange(50.0)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(PROBE_STEPS):
        acc += float(np.sum(a * 1.0001)) + i * 0.5
    return 1e3 * (time.perf_counter() - t0)


class Speed:
    """Probes between timed intervals; scales each interval to the reference speed."""

    def __init__(self):
        probe_ms()  # warm-up
        self.probes = [probe_ms()]

    def scale(self, elapsed: float) -> float:
        """Call right after an interval: elapsed times PROBE_REF_MS over the last two probes' mean."""
        self.probes.append(probe_ms())
        return elapsed * PROBE_REF_MS / statistics.fmean(self.probes[-2:])


def measure_setup(workload: Workload, seed: int) -> tuple[list[float], list[float]]:
    """Set-up seconds in fresh interpreters, so every sample pays the imports.

    Each interpreter scales its set-up time by speed probes run right after
    it, in the same process (a probe before it would import numpy ahead of
    the timer). Returns the scaled samples and the wall times.
    """
    samples, wall = [], []
    for k in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", str(k),
             "--workload", workload.name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        wall_s, scaled_s = map(float, proc.stdout.split()[-2:])
        wall.append(wall_s)
        samples.append(scaled_s)
    return samples, wall


@dataclass
class Outcome:
    ms: float  # wall time
    ok: bool
    solves: int
    delays: list
    digest: str
    bytes_written: int
    problems: list
    ref_ms: float = 0.0  # wall time scaled to the reference speed


def execute(cmd: Command, main, tracer=None) -> Outcome:
    """Run one command, then check and digest what it wrote."""
    from check import check_infeasible, check_solve, check_sweep

    for name in cmd.outputs:
        with contextlib.suppress(FileNotFoundError):
            (cmd.out_dir / name).unlink()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = tracer.call("cli.main", main, list(cmd.argv)) if tracer else main(list(cmd.argv))
        except Exception as exc:  # a raising command is a failed command, not a crash
            rc = f"raised {type(exc).__name__}: {exc}"
        ms = 1e3 * (time.perf_counter() - t0)

    eps = float(cmd.option("--eps")) if "--eps" in cmd.argv else 1e-4
    if rc == 3 and cmd.argv[0] == "solve":
        problems = check_infeasible(cmd.config)
        return Outcome(ms, not problems, cmd.solves, [], "exit3", 0, problems)
    if rc != 0:
        return Outcome(ms, False, 0, [], f"rc={rc}", 0, [f"exit {rc}: {sink.getvalue()[-300:]}"])

    digest = hashlib.sha256()
    written = 0
    texts = {}
    for name in cmd.outputs:
        data = (cmd.out_dir / name).read_bytes()
        written += len(data)
        if name.endswith(".csv"):
            digest.update(name.encode() + b"\0" + data)
            texts[name] = data.decode("utf-8")
    if cmd.argv[0] == "solve":
        problems, delays = check_solve(texts["solve.csv"], cmd.config, cmd.trial, eps)
    else:
        values = [float(v) for v in cmd.option("--values").split(",")]
        problems, delays = check_sweep(
            texts["sweep.csv"], cmd.config, values, cmd.option("--schemes").split(","), eps
        )
    return Outcome(ms, not problems, cmd.solves, delays, digest.hexdigest(), written, problems)


class Digests:
    """First digest seen per input; a different digest on a repeat is a failure."""

    def __init__(self):
        self.first: dict[int, str] = {}
        self.mismatches = 0

    def record(self, index: int, outcome: Outcome) -> None:
        known = self.first.setdefault(index, outcome.digest)
        if known != outcome.digest:
            self.mismatches += 1
            outcome.ok = False
            outcome.problems.append(f"input {index}: output digest differs from an earlier run")


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with TAIL_BEYOND samples above."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def machine() -> dict:
    import numpy
    import scipy

    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_timed(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_samples, setup_wall = measure_setup(workload, seed)
    commands = setup(workload, seed, WORK / workload.name)
    from nomamec.cli import main

    digests = Digests()
    digests.record(0, execute(commands[0], main))  # warm-up, not timed
    outcomes: list[Outcome] = []
    speed = Speed()
    start = time.perf_counter()
    i = 0
    # at least one full cycle, so delay_mean_s covers the same draws every run
    while i < workload.cycle or time.perf_counter() - start < seconds:
        cmd = commands[i % workload.inputs]
        outcome = execute(cmd, main)
        outcome.ref_ms = speed.scale(outcome.ms)
        digests.record(cmd.index, outcome)
        outcomes.append(outcome)
        i += 1

    def latency(ms: list[float]) -> tuple[float, float, float, float]:
        solves = sum(o.solves for o in outcomes if o.ok)
        return (solves / (sum(ms) / 1e3), statistics.median(ms), *tail(ms))

    solves_per_s, p50, tail_pct, tail_ms = latency([o.ref_ms for o in outcomes])
    wall_solves_per_s, wall_p50, _, wall_tail_ms = latency([o.ms for o in outcomes])
    failed = sum(not o.ok for o in outcomes)
    cycle_delays = [d for o in outcomes[: workload.cycle] for d in o.delays]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "solves_per_s": (solves_per_s, "1/s"),
        "cmd_ms_p50": (p50, "ms"),
        "cmd_ms_tail": (tail_ms, "ms"),
        "delay_mean_s": (statistics.geometric_mean(cycle_delays) if cycle_delays else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "attempted": len(outcomes),
        "failed": failed,
        "failed_frac": failed / len(outcomes),
        "digest_mismatches": digests.mismatches,
        "tail_percentile": tail_pct,
        "latency_samples": len(outcomes),
        "setup_samples_s": setup_samples,
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "solves_per_s": wall_solves_per_s,
            "cmd_ms_p50": wall_p50,
            "cmd_ms_tail": wall_tail_ms,
        },
        "probe_ms": {
            "reference": PROBE_REF_MS,
            "median": statistics.median(speed.probes),
            "min": min(speed.probes),
            "max": max(speed.probes),
        },
        "delay_rows": len(cycle_delays),
        "delay_arith_mean_s": statistics.fmean(cycle_delays) if cycle_delays else 0.0,
        "digests": digests.first,
        "problems": [p for o in outcomes for p in o.problems][:50],
    }
    return metrics, detail


def run_traced(workload: Workload, seed: int) -> tuple[dict, dict]:
    """A traced pass over the first ``cycle`` inputs; spans go to bench/results/.

    Each command of the first quarter of the cycle also runs untraced just
    before its traced run. The pairs give the tracing overhead, with the
    machine's drift in speed mostly cancelled, and a determinism check
    between traced and untraced runs.
    """
    from tracing import Tracer, layer_metrics

    commands = setup(workload, seed, WORK / workload.name)
    from nomamec.cli import main

    digests = Digests()
    digests.record(0, execute(commands[0], main))  # warm-up, not timed
    head = max(1, workload.cycle // 4)
    tracer = Tracer()
    plain, traced = [], []
    for cmd in commands[: workload.cycle]:
        if cmd.index < head:
            outcome = execute(cmd, main)
            digests.record(cmd.index, outcome)
            plain.append(outcome)
        tracer.cmd = cmd.index
        tracer.install()
        try:
            outcome = execute(cmd, main, tracer)
        finally:
            tracer.uninstall()
        digests.record(cmd.index, outcome)
        traced.append(outcome)
    RESULTS.mkdir(parents=True, exist_ok=True)
    spans_path = RESULTS / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(str(spans_path))

    metrics = layer_metrics(tracer.spans, sum(o.bytes_written for o in traced))
    plain_ms = sum(o.ms for o in plain)
    traced_ms = sum(o.ms for o in traced[:head])
    outcomes = plain + traced
    failed = sum(not o.ok for o in outcomes)
    detail = {
        "attempted": len(outcomes),
        "failed": failed,
        "failed_frac": failed / len(outcomes),
        "digest_mismatches": digests.mismatches,
        "traced_pass_ms": sum(o.ms for o in traced),
        "overhead_commands": head,
        "untraced_wall_ms": plain_ms,
        "traced_wall_ms": traced_ms,
        "trace_overhead_ms": traced_ms - plain_ms,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "digests": digests.first,
        "problems": [p for o in outcomes for p in o.problems][:50],
    }
    return metrics, detail


def report(workload: Workload, seed: int, trace: int, metrics: dict, detail: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name}: {value:.6g} {unit}")
    print(f"{workload.name} failed_frac: {detail['failed_frac']:.6g} "
          f"({detail['failed']} of {detail['attempted']} commands)")
    if trace:
        print(f"{workload.name} trace overhead: {detail['trace_overhead_ms']:.1f} ms "
              f"({detail['traced_wall_ms']:.1f} traced vs {detail['untraced_wall_ms']:.1f} "
              f"untraced over the first {detail['overhead_commands']} commands)")
        print(f"{workload.name} traced pass: {detail['traced_pass_ms']:.1f} ms "
              f"over {workload.cycle} commands")
    else:
        print(f"{workload.name} cmd_ms_tail is p{detail['tail_percentile']:.1f} "
              f"of {detail['latency_samples']} commands")
        wall = ", ".join(f"{k} {v:.6g}" for k, v in detail["wall"].items())
        probe = detail["probe_ms"]
        print(f"{workload.name} wall clock: {wall}; probe median {probe['median']:.3f} ms "
              f"(min {probe['min']:.3f}, reference {probe['reference']:.3f})")
    for problem in detail["problems"][:5]:
        print(f"{workload.name} problem: {problem}", file=sys.stderr)
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "machine": machine(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{workload.name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": record["metrics"],
    }))


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        summary[name] = json.loads(lines[-1])
    path = RESULTS / f"all-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "nomamec" / "__init__.py").is_file() or not BASE_CONFIG.is_file():
        print(f"error: {SRC / 'nomamec'} or {BASE_CONFIG} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]

    if args.setup_probe is not None:
        t0 = time.perf_counter()
        setup(workload, args.seed, WORK / f"probe-{workload.name}-{args.setup_probe}")
        wall_s = time.perf_counter() - t0
        print(wall_s, Speed().scale(wall_s))
        return 0

    if args.trace:
        metrics, detail = run_traced(workload, args.seed)
    else:
        metrics, detail = run_timed(workload, args.seed, args.seconds)
    report(workload, args.seed, args.trace, metrics, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
