"""Versioned JSON serialization for braces.

A brace file carries the moduli plus exactly one of:

  * ``lambda_table``: one entry per element rank (little-endian mixed-radix
    order), each entry a list of k rows, row j = coordinates of the image of
    the j-th standard generator under lambda of that element;
  * ``mul_table``: the n x n circle table over ranks.

Deserialization always re-validates; a file is only "accepted" when the
resulting table passes the full brace axioms.  The schema is strict: every
number is a JSON integer (not a boolean or a float), ``version`` is 1,
``metadata`` (optional) is an object whose ``name`` (optional) is a string,
each lambda entry has exactly k columns of k coordinates, coordinate i in
0..d_i-1, and each mul_table row has n ranks in 0..n-1; anything else is a
``BraceFileError``.
"""

from __future__ import annotations

import json
from math import prod
from pathlib import Path
from typing import Any

from .abelian import AbelianGroup, checked_moduli
from .brace import Brace, BraceError, brace_from_circ_table, validate_brace

FORMAT = "bracelab/brace"
VERSION = 1


class BraceFileError(BraceError):
    """Malformed or rejected brace file."""


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(value: Any, length: int) -> bool:
    """A JSON list of exactly ``length`` integers."""
    return isinstance(value, list) and len(value) == length and all(_is_int(x) for x in value)


def brace_to_doc(brace: Brace, construction: str | None = None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format": FORMAT,
        "version": VERSION,
        "moduli": list(brace.moduli),
        "lambda_table": [
            [list(col) for col in cols] for cols in brace.lambda_columns()
        ],
    }
    meta: dict[str, Any] = {}
    if brace.name:
        meta["name"] = brace.name
    if construction:
        meta["construction"] = construction
    if meta:
        doc["metadata"] = meta
    return doc


def doc_to_brace(doc: dict[str, Any]) -> Brace:
    if not isinstance(doc, dict):
        raise BraceFileError("document is not a JSON object")
    if doc.get("format") != FORMAT:
        raise BraceFileError(f"format must be {FORMAT!r}, got {doc.get('format')!r}")
    version = doc.get("version")
    if not (_is_int(version) and version == VERSION):
        raise BraceFileError(f"unsupported version {version!r}")
    moduli = doc.get("moduli")
    if not isinstance(moduli, list) or not all(_is_int(d) for d in moduli):
        raise BraceFileError("moduli must be a list of integers")
    has_lambda = "lambda_table" in doc
    has_mul = "mul_table" in doc
    if has_lambda == has_mul:
        raise BraceFileError("exactly one of lambda_table / mul_table is required")
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise BraceFileError("metadata must be an object")
    name = meta.get("name", "")
    if not isinstance(name, str):
        raise BraceFileError("metadata name must be a string")
    # sizes are checked against prod(moduli) before the group is built
    try:
        moduli = checked_moduli(moduli)
    except ValueError as exc:
        raise BraceFileError(str(exc)) from exc
    n, k = prod(moduli), len(moduli)
    if has_lambda:
        table = doc["lambda_table"]
        if not isinstance(table, list) or len(table) != n:
            raise BraceFileError(f"lambda_table must have {n} entries")
        for i, entry in enumerate(table):
            if not (isinstance(entry, list) and len(entry) == k and all(_int_list(col, k) for col in entry)):
                raise BraceFileError(f"lambda_table entry {i} must be {k} columns of {k} integers")
            if not all(0 <= x < d for col in entry for x, d in zip(col, moduli)):
                raise BraceFileError(f"lambda_table entry {i} has a coordinate outside 0..d-1 of moduli {list(moduli)}")
    else:
        mul = doc["mul_table"]
        if not isinstance(mul, list) or len(mul) != n:
            raise BraceFileError(f"mul_table must have {n} rows")
        for i, row in enumerate(mul):
            if not (_int_list(row, n) and all(0 <= r < n for r in row)):
                raise BraceFileError(f"mul_table row {i} must be {n} ranks in 0..{n - 1}")
    group = AbelianGroup(moduli)
    try:
        if has_lambda:
            return validate_brace(group, [[tuple(col) for col in entry] for entry in table], name=name)
        return brace_from_circ_table(group, mul, name=name)
    except BraceError as exc:
        raise BraceFileError(f"{type(exc).__name__}: {exc}") from exc


def save_brace(brace: Brace, path: str | Path, construction: str | None = None) -> None:
    doc = brace_to_doc(brace, construction=construction)
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")


def load_brace(path: str | Path) -> Brace:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise BraceFileError(f"cannot read {path}: {exc}") from exc
    return doc_to_brace(doc)
