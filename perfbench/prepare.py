#!/usr/bin/env python3
"""Set-up step of one benchmark run: lay out a workload's inputs and its plan.

    PYTHONPATH=src python3 perfbench/prepare.py WORKLOAD SEED DEST

It starts as a user's command does (a fresh interpreter importing bracelab),
reads the stored inputs under perfbench/inputs/, writes each operation's
input files under DEST and writes DEST/plan.json: the operations of one
round, in an order drawn from SEED.  The benchmark times this whole process
as its set-up.
"""

from __future__ import annotations

import json
import random
import sys
from math import prod
from pathlib import Path

import bracelab.cli  # noqa: F401  (import cost is part of set-up, as for every command)

INPUTS = Path(__file__).resolve().parent / "inputs"

# (moduli, extra arguments).  Every group of order 8 is checked against the
# published total of 27 classes and, where the oracle runs, against it.
ENUMERATE = (
    ("8", ["--oracle"]),
    ("2,4", ["--oracle"]),
    ("2,2,2", []),
    ("9", []),
    ("3,3", ["--oracle"]),
    ("16", []),
    ("2,8", []),
    ("27", ["--max-order", "27"]),
    ("3,9", ["--max-order", "27"]),
)

# Report corpus, one operation per group.  C4 x C4 representatives 049-052
# sit apart: their report exits 1 on a false "certificate iff right
# nilpotent" violation, so that operation is the one counted as failed.
KNOWN_BAD_C4C4 = tuple(f"brace-4x4-{i:03d}.json" for i in range(49, 53))


def _report_groups() -> dict[str, list[Path]]:
    builtin = sorted((INPUTS / "report" / "builtin").glob("*.json"))
    order16 = sorted((INPUTS / "report" / "order16").glob("*.json"))
    big = [f for f in builtin if prod(json.loads(f.read_text())["moduli"]) == 625]
    return {
        "builtin-625": big,
        "builtin": [f for f in builtin if f not in big],
        "order8": sorted((INPUTS / "report" / "order8").glob("*.json")),
        "order16-cyclic": [f for f in order16 if not f.name.startswith("brace-4x4-")],
        "order16-c4xc4": [f for f in order16 if f.name.startswith("brace-4x4-") and f.name not in KNOWN_BAD_C4C4],
        "order16-c4xc4-049-052": [f for f in order16 if f.name in KNOWN_BAD_C4C4],
    }


VERIFY = (
    ("diagonal-m2-p3", ["--theorem1", "P=(0,1)", "Q=(1,0)", "m=2"]),
    ("diagonal-m1-p3", []),
    ("exponent-5", []),
)


def _copy(src: Path, dest_dir: Path) -> Path:
    """Write a stored input under DEST after checking it parses as a brace file."""
    text = src.read_text(encoding="utf-8")
    doc = json.loads(text)
    if doc.get("format") != "bracelab/brace":
        raise ValueError(f"{src} is not a brace file")
    out = dest_dir / src.name
    out.write_text(text, encoding="utf-8")
    return out


def plan_ops(workload: str, seed: int, dest: Path) -> list[dict]:
    ops: list[dict] = []
    if workload == "enumerate":
        for moduli, extra in ENUMERATE:
            op_dir = dest / f"enumerate-{moduli.replace(',', 'x')}"
            op_dir.mkdir()
            ops.append({
                "name": op_dir.name,
                "argv": ["enumerate", moduli, *extra, "--out-dir", str(op_dir / "reps")],
                "out": str(op_dir / "out.json"),
                "moduli": [int(x) for x in moduli.split(",")],
                "oracle": "--oracle" in extra,
                "reps": str(op_dir / "reps"),
            })
    elif workload == "report":
        for name, files in _report_groups().items():
            corpus = dest / f"report-{name}"
            corpus.mkdir()
            inputs = [str(_copy(f, corpus)) for f in files]
            ops.append({"name": corpus.name, "argv": ["report", "--corpus", str(corpus)],
                        "out": str(dest / f"{corpus.name}.json"), "inputs": inputs})
    elif workload == "verify":
        for name, extra in VERIFY:
            op_dir = dest / f"verify-{name}"
            op_dir.mkdir()
            path = _copy(INPUTS / "verify" / f"{name}.json", op_dir)
            ops.append({"name": op_dir.name, "argv": ["verify", "--input", str(path), *extra],
                        "out": str(op_dir / "out.json"), "input": str(path), "theorem1": extra[1:]})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for op in ops:
        op["argv"] += ["--seed", str(seed), "--out", op["out"]]
    random.Random(seed).shuffle(ops)
    return ops


def main() -> int:
    workload, seed, dest = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    dest.mkdir(parents=True)
    ops = plan_ops(workload, seed, dest)
    (dest / "plan.json").write_text(json.dumps({"workload": workload, "seed": seed, "ops": ops}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
