"""The scripts under scripts/, run as a user runs them: a fresh interpreter with src on the path."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_pipeline_demo_summarises_the_diagonal_families():
    proc = _run("scripts/run_pipeline_demo.py", "2", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    headers = [line for line in lines if line.startswith("== ")]
    assert headers == [
        "== diagonal-m2 p=2  (order 16, moduli (2, 8))",
        "== diagonal-m1 p=2  (order 16, moduli (4, 4))",
        "== diagonal-m2 p=3  (order 81, moduli (3, 27))",
        "== diagonal-m1 p=3  (order 81, moduli (9, 9))",
    ]
    groups = [line.strip() for line in lines if "multiplicative group:" in line]
    assert groups == [
        "multiplicative group: G4",
        "multiplicative group: unmatched",
        "multiplicative group: G4",
        "multiplicative group: VIII",
    ]
    summaries = [line.strip() for line in lines if line.strip().startswith("right class:")]
    assert summaries == [
        "right class: 3, certificate: (0, 2), mpl: 2",
        "right class: 3, certificate: (2, 0), mpl: 2",
        "right class: 3, certificate: (0, 3), mpl: 2",
        "right class: 3, certificate: (3, 0), mpl: 2",
    ]


def test_build_corpus_writes_and_reports_the_corpus(tmp_path):
    out = tmp_path / "corpus"
    proc = _run("scripts/build_corpus.py", str(out), "--max-order", "81", "--with-enumerations")
    assert proc.returncode == 0, proc.stderr
    assert f"wrote corpus to {out}" in proc.stderr
    files = sorted(p.name for p in out.glob("*.json"))
    report = json.loads(proc.stdout)
    assert (report["command"], report["status"], report["exit_code"]) == ("report", "pass", 0)
    assert sorted(row["file"] for row in report["results"]["rows"]) == files
    assert report["results"]["rejected"] == [] and report["results"]["corpus_invariants"]["violations"] == []
    assert sum(name.startswith("enum-") for name in files) == 27
    assert sum(not name.startswith("enum-") for name in files) == 10


def test_gate_digest_runs_the_eighteen_benchmark_commands(tmp_path):
    proc = _run("scripts/gate_digest.py", str(tmp_path / "gate"))
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert len(rows) == 18 and all(len(row) == 3 and len(row[2]) == 64 for row in rows)
    codes = {name: int(code) for name, code, _ in rows}
    assert len(codes) == 18 and [name.split("-")[0] for name in codes].count("enumerate") == 9
    # the exponent-5 circle group matches no order-p^4 model yet
    assert {name for name, code in codes.items() if code} == {"verify-exponent-5"}
    assert codes["verify-exponent-5"] == 1


def test_tier1_timing_writes_counts_and_durations(tmp_path):
    out = tmp_path / "timing.json"
    # one test deselected, so the counts hold a second category
    proc = _run("scripts/tier1_timing.py", str(out), "tests/test_records.py", "-q", "-k", "not importing")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())
    tests = doc["tests"]
    passed = doc["outcomes"]["passed"]
    assert doc["exit_code"] == 0 and doc["outcomes"] == {"passed": passed, "deselected": 1}
    assert f"{passed} passed, 1 deselected" in proc.stdout
    assert len(tests) == passed > 1 and all(t.startswith("tests/test_records.py::") for t in tests)
    assert all(e["outcome"] == "passed" and e["duration_s"] >= 0 for e in tests.values())
    assert 0 < sum(e["duration_s"] for e in tests.values()) <= doc["wall_s"]
