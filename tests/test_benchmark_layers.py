"""The benchmark tracer names pluriflow functions by string; keep them resolvable."""

import importlib
import importlib.util
from pathlib import Path

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
