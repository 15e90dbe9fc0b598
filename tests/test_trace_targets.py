"""The benchmark's trace targets name functions that exist in bracelab."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def test_trace_targets_resolve():
    tree = ast.parse(TRACE_CHILD.read_text(encoding="utf-8"))
    (node,) = [
        n for n in tree.body if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in n.targets)
    ]
    targets = ast.literal_eval(node.value)
    assert targets
    for module, function, _span in targets:
        assert callable(getattr(importlib.import_module(f"bracelab.{module}"), function, None)), (module, function)
