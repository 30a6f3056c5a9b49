"""In-memory timing spans around the public functions of each nomamec module.

The tracer replaces a function at the module attribute where its caller
looks it up (``nomamec.cli.bss_solve``, ``nomamec.solver.minimize``, ...)
with a wrapper that records one span per call: name, start, end, parent
span and command id, plus the few result fields the per-layer counters
need. Nothing inside the library is edited; ``uninstall`` restores every
original attribute.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable

# (module, attribute the caller binds, span name)
PATCH_POINTS = (
    ("nomamec.cli", "load_config", "configio.load_config"),
    ("nomamec.cli", "generate_channels", "scenario.generate_channels"),
    ("nomamec.cli", "solve_two_user", "closed_form.solve_two_user"),
    ("nomamec.closed_form", "lambert_wm1", "lambertw.lambert_wm1"),
    ("nomamec.cli", "solve_noma_partial", "baselines.solve_noma_partial"),
    ("nomamec.cli", "solve_noma_full_offload", "baselines.solve_noma_full_offload"),
    ("nomamec.cli", "solve_ofdma_partial", "baselines.solve_ofdma_partial"),
    ("nomamec.cli", "full_local_delay", "baselines.full_local_delay"),
    ("nomamec.cli", "bss_solve", "solver.bss_solve"),
    ("nomamec.baselines", "bss_solve", "solver.bss_solve"),
    ("nomamec.solver", "check_feasibility", "solver.check_feasibility"),
    ("nomamec.baselines", "check_feasibility", "solver.check_feasibility"),
    ("nomamec.solver", "minimize", "solver.slsqp"),
)


def _feasibility_attrs(rep) -> dict:
    return {"inner": rep.inner_iterations, "feasible": rep.feasible, "uncertain": rep.uncertain}


def _bss_attrs(res) -> dict:
    return {"steps": res.iterations, "converged": res.converged}


def _slsqp_attrs(res) -> dict:
    return {"success": bool(res.success)}


# result fields kept per span, by span name
ATTRS: dict[str, Callable] = {
    "solver.check_feasibility": _feasibility_attrs,
    "solver.bss_solve": _bss_attrs,
    "solver.slsqp": _slsqp_attrs,
}


class Tracer:
    """Records spans as [name, start, end, parent, cmd, attrs] in a list."""

    def __init__(self):
        self.spans: list[list] = []
        self.cmd = -1
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = [name, 0.0, 0.0, parent, self.cmd, None]
        self.spans.append(span)
        self._open.append(idx)
        span[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            span[2] = time.perf_counter()
            span[5] = {"raised": type(exc).__name__}
            raise
        finally:
            self._open.pop()
        span[2] = time.perf_counter()
        attrs = ATTRS.get(name)
        if attrs is not None:
            span[5] = attrs(out)
        return out

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        for module_name, attr, name in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        """One JSON object per span; times are perf_counter seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, cmd, attrs in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "cmd": cmd}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


def _by_name(spans, name: str) -> list[int]:
    return [i for i, s in enumerate(spans) if s[0] == name]


def layer_metrics(spans: list[list], bytes_written: int) -> dict[str, tuple[float, str]]:
    """Per-layer counters and times from a finished trace: name -> (value, unit)."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            children.setdefault(s[3], []).append(i)

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def self_time(i: int) -> float:
        return dur(i) - sum(dur(c) for c in children.get(i, ()))

    def has_child(i: int, name: str) -> bool:
        return any(spans[c][0] == name for c in children.get(i, ()))

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}

    def basic(name: str, with_self: bool = False) -> list[int]:
        ids = _by_name(spans, name)
        out[f"{name}.calls"] = (len(ids), "count")
        out[f"{name}.ms"] = (1e3 * sum(dur(i) for i in ids), "ms")
        if with_self:
            out[f"{name}.self_ms"] = (1e3 * sum(self_time(i) for i in ids), "ms")
        return ids

    ids = basic("solver.check_feasibility", with_self=True)
    attrs = [spans[i][5] for i in ids]
    stepped = [i for i in ids if spans[i][5]["inner"] > 0]
    out["solver.check_feasibility.inner_iterations"] = (sum(a["inner"] for a in attrs), "count")
    out["solver.check_feasibility.screening_decided"] = (
        sum(1 for i in ids if spans[i][5]["inner"] == 0 and not has_child(i, "solver.slsqp")),
        "count",
    )
    out["solver.check_feasibility.uncertain"] = (sum(a["uncertain"] for a in attrs), "count")
    out["solver.check_feasibility.feasible"] = (sum(a["feasible"] for a in attrs), "count")
    out["solver.check_feasibility.subgradient_wasted_ratio"] = (
        ratio(sum(has_child(i, "solver.slsqp") for i in stepped), len(stepped)),
        "ratio",
    )

    ids = basic("solver.slsqp")
    out["solver.slsqp.failed"] = (sum(not spans[i][5]["success"] for i in ids), "count")

    ids = basic("solver.bss_solve", with_self=True)
    # a draw whose budgets no allocation meets raises InfeasibleScenarioError
    returned = [spans[i][5] for i in ids if "steps" in spans[i][5]]
    out["solver.bss_solve.bisection_steps"] = (sum(a["steps"] for a in returned), "count")
    out["solver.bss_solve.not_converged"] = (
        sum(not a["converged"] for a in returned), "count"
    )

    for fn in ("solve_noma_partial", "solve_noma_full_offload", "solve_ofdma_partial",
               "full_local_delay"):
        basic(f"baselines.{fn}")

    ids = basic("closed_form.solve_two_user")
    fallbacks = sum(1 for i in ids if (spans[i][5] or {}).get("raised") == "EqualTimeInfeasible")
    out["closed_form.solve_two_user.fallbacks"] = (fallbacks, "count")
    out["closed_form.solve_two_user.accept_ratio"] = (
        ratio(len(ids) - fallbacks, len(ids)), "ratio"
    )

    basic("lambertw.lambert_wm1")
    basic("scenario.generate_channels")
    basic("configio.load_config")

    ids = _by_name(spans, "cli.main")
    out["cli.main.calls"] = (len(ids), "count")
    out["cli.main.self_ms"] = (1e3 * sum(self_time(i) for i in ids), "ms")
    out["cli.main.bytes_written"] = (bytes_written, "B")
    return out

