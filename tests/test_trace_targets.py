"""The benchmark's trace targets name functions that exist in bracelab."""

from __future__ import annotations

import ast
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_CHILD = ROOT / "perfbench" / "trace_child.py"


def test_trace_targets_resolve():
    tree = ast.parse(TRACE_CHILD.read_text(encoding="utf-8"))
    (node,) = [
        n for n in tree.body if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in n.targets)
    ]
    targets = ast.literal_eval(node.value)
    assert targets
    for module, function, _span in targets:
        assert callable(getattr(importlib.import_module(f"bracelab.{module}"), function, None)), (module, function)


def test_report_records_a_span_per_model_build(tmp_path):
    # the circle group of diagonal-m1 at p = 3 has exponent 9, so
    # classification builds the seven tags whose largest bound is 9, each once
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(ROOT / "perfbench" / "inputs" / "report" / "builtin" / "06-diagonal-m1_p=3.json", corpus)
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(TRACE_CHILD), str(spans), "report", "--corpus", str(corpus), "--out", str(tmp_path / "out.json")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = [name for name, *_ in json.loads(spans.read_text(encoding="utf-8"))["spans"]]
    assert names.count("pgroups.build_model") == 7
