"""The benchmark tracer's hooks into the library still resolve.

bench/tracing.py patches functions at the module attributes where their
callers look them up and reads a few result fields. A rename in the
library breaks the traced benchmark run without failing any other test,
so this loads the tracer by path and exercises its hooks.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest
from scipy.optimize import minimize

from nomamec import ScenarioConfig, UserSpec, bss_solve, check_feasibility
from nomamec.cli import main

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patch_points_resolve_to_callables(tracing):
    for module_name, attr, _ in tracing.PATCH_POINTS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


def test_result_fields_read_by_the_tracer(tracing):
    user = UserSpec(1.6e6, 1e3, 1e9, 1e-28)
    cfg = ScenarioConfig(bandwidth=1e6, noise_density_dbm=-174.0, users=(user, user),
                         p_max=0.01, e_max=0.2)
    gains = (1e4, 1e5)
    res = bss_solve(gains, cfg, eps=1e-2)
    rep = check_feasibility(res.optimal_delay + 1e-2, gains, cfg)
    opt = minimize(lambda x: (x[0] - 1.0) ** 2, [0.0], method="SLSQP")
    # each reader raises AttributeError when a field it reads is gone
    for read, result in ((tracing._bss_attrs, res), (tracing._feasibility_attrs, rep),
                         (tracing._slsqp_attrs, opt)):
        assert isinstance(read(result), dict)


def test_traced_solve_records_spans(tracing, tmp_path, capsys):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        config = Path(__file__).resolve().parent.parent / "configs" / "s1.json"
        assert main(["solve", str(config), "--method", "auto", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    layers = tracing.layer_metrics(tracer.spans, 0)
    assert layers["closed_form.solve_two_user.calls"][0] == 1
    assert layers["lambertw.lambert_wm1.calls"][0] > 0
    assert layers["configio.load_config.calls"][0] == 1
    # uninstall restored the originals
    for module_name, attr, _ in tracing.PATCH_POINTS:
        target = getattr(importlib.import_module(module_name), attr)
        assert getattr(target, "__name__", "") != "traced"


def test_traced_server_solve_runs_no_slsqp(tracing, tmp_path, capsys):
    # configs/s1.json plus a finite server: the free-ratio server oracle is
    # exact, so the tracer's SLSQP and uncertain counters read 0
    root = Path(__file__).resolve().parent.parent
    cfg = json.loads((root / "configs" / "s1.json").read_text())
    cfg["server"] = {"cycles_per_bit": 1e3, "cpu_freq_hz": 1e10, "kappa": 1e-28}
    config = tmp_path / "s1_server.json"
    config.write_text(json.dumps(cfg))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["solve", str(config), "--method", "bss", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    layers = tracing.layer_metrics(tracer.spans, 0)
    assert layers["solver.check_feasibility.calls"][0] > 0
    assert layers["solver.slsqp.calls"][0] == 0
    assert layers["solver.check_feasibility.uncertain"][0] == 0
