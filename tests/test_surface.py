"""The names the traced benchmark patches, and the package's public names,
must resolve. A deleted one would otherwise show up only as an
AttributeError in a traced run (``perfbench/run.py --trace 1``)."""

import importlib
import importlib.util
from pathlib import Path

import plsp

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_and_is_callable():
    spans = _load_spans()
    modules = {name: importlib.import_module(f"plsp.{name}") for name in spans.LAYERS}
    broken = [f"{span}: {owner}.{attr}"
              for span, targets in spans.SPANS.items()
              for owner, attr in targets
              if not callable(getattr(spans._resolve(modules, owner), attr, None))]
    assert not broken


def test_every_public_name_resolves():
    assert [name for name in plsp.__all__ if not hasattr(plsp, name)] == []
