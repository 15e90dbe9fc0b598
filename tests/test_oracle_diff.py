"""bracelab against the independent NumPy oracle of ``perfbench/oracle.py``.

The oracle imports nothing from bracelab and computes each answer from its
definition over full tables.  It is loaded by path and only read.  NumPy is
not a dependency of bracelab, so this module skips without it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from bracelab.fileformat import doc_to_brace
from bracelab.nilpotency import right_annihilated, series, socle_series_length

pytest.importorskip("numpy")

ROOT = Path(__file__).resolve().parents[1]
REPORT_INPUTS = sorted((ROOT / "perfbench" / "inputs" / "report").rglob("*.json"))


def _load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ROOT / "perfbench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


def _disagreements(brace, tables) -> list[str]:
    """The answers on which bracelab and the oracle's tables differ."""
    out = [f"oracle axiom failure: {failure}" for failure in tables.axiom_failures()]
    for kind in ("left", "right", "strong"):
        if series(brace, kind).nilpotency_class != tables.series_class(kind):
            out.append(f"{kind} class")
    # a central c with A * c = 0 is exactly one with c * A = A * c = 0
    if brace.circle.center & right_annihilated(brace) - {0} != set(tables.certificate_candidates().tolist()):
        out.append("certificate candidates")
    if socle_series_length(brace) != tables.multipermutation_level():
        out.append("multipermutation level")
    return out


def test_the_report_inputs_agree_with_the_oracle():
    assert len(REPORT_INPUTS) == 197
    bad = {}
    for path in REPORT_INPUTS:
        doc = json.loads(path.read_text(encoding="utf-8"))
        tables = oracle.BraceTables(doc["moduli"], doc["lambda_table"])
        found = _disagreements(doc_to_brace(doc), tables)
        if found:
            bad[path.relative_to(ROOT).as_posix()] = found
    assert not bad


def test_the_enumerated_braces_agree_with_the_oracle(enumerated_braces):
    bad = {}
    for b in enumerated_braces:
        found = _disagreements(b, oracle.BraceTables(b.moduli, b.lambda_columns()))
        if found:
            bad[b.name] = found
    assert not bad
