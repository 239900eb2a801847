"""The benchmark tracer patches koszul callables by name; the names must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_exist():
    tracer = _load_tracer()
    for layer, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"koszul.{layer}")
        for name in names:
            assert hasattr(module, name), f"koszul.{layer}.{name}"
    for (layer, cls_name), names in tracer.METHODS.items():
        cls = getattr(importlib.import_module(f"koszul.{layer}"), cls_name)
        for name in names:
            assert name in cls.__dict__, f"koszul.{layer}.{cls_name}.{name}"
