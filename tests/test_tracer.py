"""The benchmark tracer patches koszul callables by name; the names must exist."""

import importlib
import importlib.util
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from koszul import cli

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


FRACTIONAL = {"field": "QQ", "variables": ["x", "y", "z"],
              "relations": ["x^2 - 1/2*y*z", "y^2 + 2/3*x*z"]}


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)  # looked up on the module, so a patched main runs
    return code, out.getvalue()


def test_traced_answers_equal_untraced(tmp_path):
    """Every hook runs on the return value of the method it wraps; a hooked
    method whose result changed shape breaks the traced run here."""
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(FRACTIONAL))
    commands = [["homology", str(path), "--max-int", "5"],
                ["family", "--family", "path", "-n", "4"]]
    untraced = [_run(argv) for argv in commands]
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        traced = [_run(argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert traced == untraced and all(code == 0 for code, _ in untraced)
    counts = tracer.exact_counts()
    assert counts["sparse.cols"] and counts["sparse.rank_sum"] and counts["homology.slices"]
    assert _run(commands[0]) == untraced[0]  # uninstalled
