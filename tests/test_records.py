"""Result records: immutable ``typing.NamedTuple`` classes, and what
importing the CLI costs.

Every command starts a fresh interpreter, so a module that the CLI imports
is paid for on every run.  Call sites build records positionally and
messages quote their ``repr``, so the field order and the repr are pinned.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bracelab import brace, enumeration, nilpotency, pgroups, ybe

ROOT = Path(__file__).resolve().parents[1]

RECORDS = [
    (brace.BraceReport, ("order", "violations", "checks")),
    (
        enumeration.EnumerationResult,
        ("moduli", "representatives", "total_tables", "isomorphism_classes", "class_sizes", "nodes_explored"),
    ),
    (enumeration.OracleResult, ("moduli", "regular_subgroups", "aut_conjugacy_classes", "holomorph_order")),
    (nilpotency.SeriesResult, ("kind", "chain", "nilpotency_class")),
    (nilpotency.Certificate, ("element", "ideal_ranks", "quotient_order")),
    (nilpotency.CertifyStep, ("order", "certificate", "ideal_order")),
    (nilpotency.CertifyResult, ("right_nilpotent", "transcript")),
    (nilpotency.StageResult, ("name", "status", "checks", "reason", "witness")),
    (nilpotency.SuiteReport, ("stages",)),
    (nilpotency.TheoremContext, ("p", "m", "P", "Qs")),
    (nilpotency.HypothesisResult, ("index", "description", "passed", "detail")),
    (
        nilpotency.Theorem1Report,
        (
            "p",
            "m",
            "P",
            "Qs",
            "hypotheses",
            "conclusion_passed",
            "conclusion_window",
            "conclusion_witness",
            "stages",
            "coverage_by_ordering",
        ),
    ),
    (nilpotency.SuiteScope, ("stages",)),
    (
        nilpotency.PABoundReport,
        ("p", "pa_order", "a_star_pa_order", "bound_holds", "second_layer_zero", "pa_central"),
    ),
    (
        pgroups.GroupFingerprint,
        ("order", "abelian", "exponent", "order_histogram", "center_order", "derived_order"),
    ),
    (pgroups.Presented, ("relations", "gen_names", "bounds", "action")),
    (
        pgroups.RelationReport,
        ("tag", "p", "defining", "derived", "associativity_checked", "associativity_ok"),
    ),
    (pgroups.Classification, ("kind", "tag", "abelian_type", "fingerprint", "witness", "matched_tags")),
    (
        ybe.SolutionReport,
        ("size", "involutive", "nondegenerate", "braid", "triples_checked", "exhaustive", "seed", "witness"),
    ),
]

# arguments that pass a record's own construction check
VALID_ARGS = {enumeration.EnumerationResult: ((2,), (), 0, 0, (), 0)}


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_fields_immutability_and_repr(cls, fields):
    assert cls._fields == fields
    record = cls(*VALID_ARGS.get(cls, range(len(fields))))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.not_a_field = None
    assert repr(record).startswith(f"{cls.__name__}({fields[0]}=")
    assert hash(record) == hash(cls(*record))


def test_importing_the_cli_loads_no_dataclasses_machinery():
    # a fresh interpreter: this one has these modules loaded already; -S keeps
    # the host's site-level imports out of the answer
    probe = "import sys, bracelab.cli; print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
