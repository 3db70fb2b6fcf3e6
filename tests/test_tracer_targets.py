"""The benchmark's tracer (`perfbench/spans.py`) wraps rankmetrics
functions by module and attribute name, so a traced run fails when one of
those names is gone; this checks every name it wraps still resolves."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_patch_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    monkeypatch.delitem(sys.modules, "spans")
    table = spans._patch_table()
    assert table
    for module, attribute, _, _ in table:
        assert module.__name__.startswith("rankmetrics.")
        assert callable(getattr(module, attribute, None)), f"{module.__name__}.{attribute}"
