"""Tests for the brace JSON file format."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracelab.brace import trivial_brace
from bracelab.constructions import diagonal_brace_m1, diagonal_brace_m2
from bracelab.fileformat import (
    FORMAT,
    VERSION,
    BraceFileError,
    brace_to_doc,
    doc_to_brace,
    load_brace,
    save_brace,
)


def test_roundtrip(tmp_path):
    for brace in (trivial_brace([2, 8]), diagonal_brace_m1(2), diagonal_brace_m2(3)):
        path = tmp_path / "b.json"
        save_brace(brace, path)
        loaded = load_brace(path)
        assert loaded == brace
        assert loaded.name == brace.name


def test_mul_table_variant():
    brace = diagonal_brace_m1(2)
    n = brace.order
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "moduli": list(brace.moduli),
        "mul_table": [[brace.circ_r(a, b) for b in range(n)] for a in range(n)],
    }
    loaded = doc_to_brace(doc)
    assert loaded == brace


def test_rejects_wrong_format_fields():
    brace = trivial_brace([4])
    doc = brace_to_doc(brace)
    bad = dict(doc)
    bad["format"] = "something-else"
    with pytest.raises(BraceFileError):
        doc_to_brace(bad)
    bad2 = dict(doc)
    bad2["version"] = 99
    with pytest.raises(BraceFileError):
        doc_to_brace(bad2)
    bad3 = dict(doc)
    del bad3["lambda_table"]
    with pytest.raises(BraceFileError):
        doc_to_brace(bad3)
    bad4 = dict(doc)
    bad4["mul_table"] = [[0]]
    with pytest.raises(BraceFileError):
        doc_to_brace(bad4)
    # values that compare equal to 1, and metadata of the wrong JSON type
    for version in (True, 1.0, "1"):
        with pytest.raises(BraceFileError, match="unsupported version"):
            doc_to_brace(dict(doc, version=version))
    for meta in (["x", 1], "x", None):
        with pytest.raises(BraceFileError, match="metadata must be an object"):
            doc_to_brace(dict(doc, metadata=meta))
    for name in (["x", 1], 7, None, {"x": 1}):
        with pytest.raises(BraceFileError, match="metadata name must be a string"):
            doc_to_brace(dict(doc, metadata={"name": name}))
    assert doc_to_brace(dict(doc, metadata={})).name == ""
    assert doc_to_brace(dict(doc, metadata={"construction": "x"})).name == ""


def test_rejects_corrupted_lambda_row(tmp_path):
    brace = diagonal_brace_m1(2)
    doc = brace_to_doc(brace)
    doc["lambda_table"][brace.rank((0, 2))] = [[0, 1], [1, 0]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(BraceFileError) as exc:
        load_brace(path)
    assert "CocycleViolation" in str(exc.value)


def test_rejects_non_additive_mul_table():
    brace = diagonal_brace_m1(2)
    n = brace.order
    table = [[brace.circ_r(a, b) for b in range(n)] for a in range(n)]
    table[3][5], table[3][6] = table[3][6], table[3][5]
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "moduli": list(brace.moduli),
        "mul_table": table,
    }
    with pytest.raises(BraceFileError):
        doc_to_brace(doc)


def test_rejects_unreadable_file(tmp_path):
    path = tmp_path / "nope.json"
    with pytest.raises(BraceFileError):
        load_brace(path)
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(BraceFileError):
        load_brace(path)


def test_metadata_round_trip(tmp_path):
    brace = trivial_brace([2, 2], name="my-brace")
    path = tmp_path / "meta.json"
    save_brace(brace, path, construction="trivial")
    doc = json.loads(path.read_text())
    assert doc["metadata"]["construction"] == "trivial"
    assert load_brace(path).name == "my-brace"


# -- any JSON document: a brace that round-trips, or BraceFileError -----------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 17) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
SEED_BRACES = [trivial_brace([2]), trivial_brace([2, 2]), diagonal_brace_m1(2), trivial_brace([])]


@st.composite
def brace_documents(draw):
    """Documents near the schema: a stored brace, its circle table, or a random header,
    with random JSON values written over some fields and table entries."""
    brace = draw(st.sampled_from(SEED_BRACES))
    doc = brace_to_doc(brace)
    name = draw(st.sampled_from([None, "b"]))
    if name:
        doc["metadata"] = {"name": name}
    if draw(st.booleans()):
        n = brace.order
        del doc["lambda_table"]
        doc["mul_table"] = [[brace.circ_r(a, b) for b in range(n)] for a in range(n)]
    for key in draw(st.lists(st.sampled_from(["format", "version", "moduli", "lambda_table", "mul_table", "metadata"]))):
        if draw(st.booleans()):
            doc[key] = draw(JSON)
        else:
            doc.pop(key, None)
    for key in ("lambda_table", "mul_table"):
        table = doc.get(key)
        while isinstance(table, list) and table and draw(st.booleans()):
            entry = draw(st.integers(0, len(table) - 1))
            if isinstance(table[entry], list) and table[entry] and draw(st.booleans()):
                table = table[entry]  # write one level further down
                continue
            table[entry] = draw(JSON | st.integers(-20, 20))
            break
    return doc


@settings(max_examples=300, deadline=None)
@given(st.one_of(JSON, brace_documents()))
def test_loader_accepts_a_round_tripping_brace_or_raises_brace_file_error(doc):
    try:
        brace = doc_to_brace(doc)
    except BraceFileError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        save_brace(brace, first)
        save_brace(load_brace(first), second)
        assert first.read_bytes() == second.read_bytes()
