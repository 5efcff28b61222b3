"""The benchmark's tracer binds library functions by name; every name must
still resolve, or a traced run (`perfbench/run.py --trace 1`) breaks."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    """The LAYERS tuple of the tracer, read from its source without running it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_every_traced_layer_resolves_to_a_function():
    layers = _layers()
    assert layers
    for label, module, attr in layers:
        assert module.startswith("flexctl."), label
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), label
