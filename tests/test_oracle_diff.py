"""bracelab against the independent NumPy oracle of ``perfbench/oracle.py``.

The oracle imports nothing from bracelab and computes each answer from its
definition over full tables.  It is loaded by path and only read.  NumPy is
not a dependency of bracelab, so this module skips without it.
"""

from __future__ import annotations

import importlib.util
import json
import random
from collections import Counter
from math import prod
from pathlib import Path

import pytest

from bracelab.abelian import AbelianGroup, prime_power
from bracelab.brace import brace_report
from bracelab.constructions import diagonal_brace_m1, diagonal_brace_m2
from bracelab.fileformat import doc_to_brace
from bracelab.nilpotency import (
    discover_theorem_context,
    find_g4_pair,
    p4_shape,
    right_annihilated,
    series,
    socle_series_length,
    theorem1_check,
)
from bracelab.pgroups import classify_multiplicative_group, fingerprint

pytest.importorskip("numpy")

ROOT = Path(__file__).resolve().parents[1]
REPORT_INPUTS = sorted((ROOT / "perfbench" / "inputs" / "report").rglob("*.json"))


def _load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ROOT / "perfbench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


def _small_report_docs() -> list[dict]:
    """The report inputs the oracle checks with its full n^3 laws."""
    docs = [json.loads(path.read_text(encoding="utf-8")) for path in REPORT_INPUTS]
    return [doc for doc in docs if prod(doc["moduli"]) <= oracle.CUBE_LIMIT]


def _disagreements(brace, tables, compared: Counter) -> list[str]:
    """The answers on which bracelab and the oracle's tables differ; the
    comparisons that only some braces reach are tallied in ``compared``."""
    out = [f"oracle axiom failure: {failure}" for failure in tables.axiom_failures()]
    for kind in ("left", "right", "strong"):
        if series(brace, kind).nilpotency_class != tables.series_class(kind):
            out.append(f"{kind} class")
    # a central c with A * c = 0 is exactly one with c * A = A * c = 0
    if brace.circle.center & right_annihilated(brace) - {0} != set(tables.certificate_candidates().tolist()):
        out.append("certificate candidates")
    if socle_series_length(brace) != tables.multipermutation_level():
        out.append("multipermutation level")
    fp = fingerprint(brace.circle)
    if (fp.exponent, fp.abelian) != (tables.circ_exponent(), tables.circ_abelian()):
        out.append("circle exponent or abelian-ness")
    pk = prime_power(brace.order)
    if pk is not None and pk[1] == 4:
        classification = classify_multiplicative_group(brace)
        if classification.kind == "abelian":
            compared["abelian type"] += 1
            if classification.abelian_type != tables.circ_abelian_type():
                out.append("circle abelian type")
    # find_g4_pair looks only on C_p x C_p^3; the oracle looks on every brace of order p^4
    shape = p4_shape(brace)
    if shape is not None and shape[1] == 2:
        pair = find_g4_pair(brace)
        compared["C_p x C_p^3"] += 1
        compared["G4 pair"] += pair is not None
        if (pair is None) != (tables.g4_pair() is None):
            out.append("G4 pair")
    return out


def test_the_report_inputs_agree_with_the_oracle():
    assert len(REPORT_INPUTS) == 197
    bad = {}
    compared = Counter()
    for path in REPORT_INPUTS:
        doc = json.loads(path.read_text(encoding="utf-8"))
        tables = oracle.BraceTables(doc["moduli"], doc["lambda_table"])
        found = _disagreements(doc_to_brace(doc), tables, compared)
        if found:
            bad[path.relative_to(ROOT).as_posix()] = found
    assert not bad
    assert compared == {"abelian type": 42, "C_p x C_p^3": 71, "G4 pair": 9}


def test_the_enumerated_braces_agree_with_the_oracle(enumerated_braces):
    bad = {}
    for b in enumerated_braces:
        found = _disagreements(b, oracle.BraceTables(b.moduli, b.lambda_columns()), Counter())
        if found:
            bad[b.name] = found
    assert not bad


def test_tampered_tables_are_rejected_exactly_when_the_oracle_rejects_them():
    # one coordinate of one lambda column set to a value in 0..d-1; a draw
    # that keeps the old value keeps a brace, so both outcomes occur
    docs = _small_report_docs()
    rng = random.Random(300)
    outcomes = set()
    for _ in range(300):
        doc = rng.choice(docs)
        moduli = tuple(doc["moduli"])
        table = [[list(col) for col in entry] for entry in doc["lambda_table"]]
        k = len(moduli)
        a, j, t = rng.randrange(len(table)), rng.randrange(k), rng.randrange(k)
        table[a][j][t] = rng.randrange(moduli[t])
        passed = brace_report(AbelianGroup(moduli), table).passed
        assert passed == (not oracle.BraceTables(moduli, table).axiom_failures()), (doc.get("metadata"), a, j, t)
        outcomes.add(passed)
    assert outcomes == {True, False}


def test_theorem1_agrees_with_the_oracle():
    # the generators of scripts/run_pipeline_demo.py, then every context
    # discover_theorem_context finds on the report inputs the oracle cubes
    cases = []
    for p in (2, 3):
        cases.append((diagonal_brace_m2(p), (0, 1), [(1, 0)], 2))
        cases.append((diagonal_brace_m1(p), (1, 0), [(0, 1)], 1))
    for doc in _small_report_docs():
        brace = doc_to_brace(doc)
        ctx = discover_theorem_context(brace)
        if ctx is not None:
            cases.append((brace, ctx.P, list(ctx.Qs), ctx.m))
    bad = []
    for brace, P, Qs, m in cases:
        report = theorem1_check(brace, P, Qs, m)
        tables = oracle.BraceTables(brace.moduli, brace.lambda_columns())
        hyps, conclusion, ord_p = tables.theorem1(brace.rank(P), [brace.rank(q) for q in Qs], m)
        got = ([h.passed for h in report.hypotheses], report.conclusion_passed, report.conclusion_window)
        if got != (hyps, conclusion, (-ord_p, ord_p)):
            bad.append((brace.name, P, Qs, m))
    assert not bad
    assert len(cases) == 117
