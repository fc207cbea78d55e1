"""The benchmark tracer names pluriflow functions by string; keep them resolvable."""

import importlib
import importlib.util
import json
from pathlib import Path

from conftest import count_calls
from pluriflow import cli, flows

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
    rho11 = count_calls(monkeypatch, "rho11_matrix", flows)
    writes = count_calls(monkeypatch, "write_trajectory", cli)
    cfg = {"algebra": {"catalog": "random_2step_skt", "params": {"n": 2, "seed": 3}},
           "flow": "bracket", "seed": "default",
           "integrator": {"dt": 1e-2, "t_end": 0.2, "sample_every": 5},
           "output": {"directory": str(tmp_path), "prefix": "b"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    rhs_calls = json.loads((tmp_path / "b_summary.json").read_text())["telemetry"]["rhs_calls"]
    assert len(rho11) == rhs_calls > 0
    assert len(writes) == 1
