"""The benchmark tracer names pluriflow functions by string; keep them resolvable."""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from conftest import count_calls
from pluriflow import bismut_ricci, catalog, cli, connections, flows
from pluriflow.hermitian_forms import HermitianMetric

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_callable():
    layers = _load_tracing().LAYERS
    missing = []
    for mod_name, fn_names in layers.items():
        mod = importlib.import_module(f"pluriflow.{mod_name}")
        missing += [f"{mod_name}.{fn}" for fn in fn_names if not callable(getattr(mod, fn, None))]
    assert layers and not missing, f"LAYERS names no callable: {missing}"


def test_traced_layers_see_a_bracket_run(monkeypatch, tmp_path):
    # the tracer wraps each layer under its module bindings, so a refactor that
    # stops calling a layer through them leaves that layer reading zero
    layers = _load_tracing().LAYERS
    assert "rho11_matrix" in layers["bismut_ricci"] and "write_trajectory" in layers["cli"]
    assert "step" in layers["flows"]
    rho11 = count_calls(monkeypatch, "rho11_matrix", flows)
    writes = count_calls(monkeypatch, "write_trajectory", cli)
    steps = count_calls(monkeypatch, "step", flows)
    # the tracer counts right-hand-side calls through the field handed to step
    counted_step, step_fields = flows.step, []

    def step_with_counted_field(f, y, h, *args):
        return counted_step(lambda v: (step_fields.append(1), f(v))[1], y, h, *args)

    monkeypatch.setattr(flows, "step", step_with_counted_field)
    cfg = {"algebra": {"catalog": "random_2step_skt", "params": {"n": 2, "seed": 3}},
           "flow": "bracket", "seed": "default",
           "integrator": {"dt": 1e-2, "t_end": 0.2, "sample_every": 5},
           "output": {"directory": str(tmp_path), "prefix": "b"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    telemetry = json.loads((tmp_path / "b_summary.json").read_text())["telemetry"]
    rhs_calls = telemetry["rhs_calls"]
    assert len(rho11) == rhs_calls > 0
    assert len(writes) == 1
    assert len(steps) == telemetry["accepted_steps"] + telemetry["rejected_steps"] > 0
    assert len(step_fields) == rhs_calls - 1


def test_traced_layers_see_a_curvature_run(monkeypatch):
    # ricci_forms is composed from the public connection functions, and rho_B
    # from the eta kernel, so the static_ricci layers read what it runs
    layers = _load_tracing().LAYERS
    assert {"levi_civita", "bismut", "curvature"} <= set(layers["connections"])
    assert {"eta_components", "rho_B"} <= set(layers["bismut_ricci"])
    calls = {name: count_calls(monkeypatch, name, connections)
             for name in ("levi_civita", "bismut", "curvature")}
    etas = count_calls(monkeypatch, "eta_components", bismut_ricci)
    mu, g = catalog.random_2step_skt(3, 1).bracket, HermitianMetric(np.eye(3))
    connections.ricci_forms(mu, g)
    bismut_ricci.rho_B(mu, g)
    assert {name: len(c) for name, c in calls.items()} == {
        "levi_civita": 2, "bismut": 1, "curvature": 2}
    assert len(etas) >= 1
