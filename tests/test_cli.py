"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bracelab import ybe
from bracelab.cli import main
from bracelab.fileformat import load_brace, save_brace


def run_cli(args: list[str]) -> int:
    return main(args)


@pytest.fixture()
def dm2p3_file(tmp_path):
    path = tmp_path / "dm2p3.json"
    assert run_cli(["build", "--family", "diagonal-m2", "--prime", "3", "--output", str(path)]) == 0
    return path


def test_build_and_load(dm2p3_file):
    brace = load_brace(dm2p3_file)
    assert brace.order == 81


def test_verify_full_suite(dm2p3_file, tmp_path):
    out = tmp_path / "verify.json"
    code = run_cli(
        [
            "verify",
            "--input",
            str(dm2p3_file),
            "--theorem1",
            "P=(0,1)",
            "Q=(1,0)",
            "m=2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass"
    res = doc["results"]
    assert res["validate"]["accepted"]
    assert res["series"]["right"]["reaches_zero"]
    assert res["classify"]["label"] == "G4"
    assert res["certify"]["right_nilpotent"]
    assert res["theorem1"]["hypotheses_passed"]
    assert res["theorem1"]["conclusion_passed"]
    assert res["ybe"]["braid"] and res["ybe"]["multipermutation_level"] == 2


def test_verify_suite_subset(dm2p3_file, tmp_path, capsys):
    code = run_cli(["verify", "--input", str(dm2p3_file), "--suite", "series"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert "series" in doc["results"]
    assert "certify" not in doc["results"]


def test_verify_unknown_suite_is_input_error(dm2p3_file):
    assert run_cli(["verify", "--input", str(dm2p3_file), "--suite", "bogus"]) == 2


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_verify_sample_budget_below_one_is_input_error(budget, capsys):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "verify" / "exponent-5.json"
    assert run_cli(["verify", "--input", str(path), "--suite", "ybe", "--sample-budget", budget]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "error"
    assert doc["results"] == {"error": f"--sample-budget must be at least 1, got {budget}"}


def test_verify_ybe_split_report_is_the_in_process_one(monkeypatch, capsys):
    # the console script's run splits the 10^6-triple braid check over two
    # processes where two CPUs are usable; the in-process run never splits
    root = Path(__file__).resolve().parents[1]
    args = ["verify", "--input", str(root / "perfbench" / "inputs" / "verify" / "exponent-5.json"), "--suite", "ybe"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-c", "from bracelab.cli import entry; entry()", *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    monkeypatch.setattr(ybe, "_usable_cpus", lambda: 1)
    code = run_cli(args)
    assert proc.returncode == code == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out
    doc = json.loads(proc.stdout)
    assert doc["results"]["ybe"]["braid"] and doc["results"]["ybe"]["triples_checked"] == 1_000_000


def test_verify_corrupted_file_exit2(tmp_path, dm2p3_file):
    doc = json.loads(dm2p3_file.read_text())
    doc["lambda_table"][4] = doc["lambda_table"][5]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = run_cli(["verify", "--input", str(bad), "--out", str(out)])
    assert code == 2
    rep = json.loads(out.read_text())
    assert rep["results"]["validate"]["accepted"] is False
    assert "CocycleViolation" in rep["results"]["validate"]["error"]


@pytest.mark.parametrize(
    "table_key, table, error",
    [
        ("lambda_table", [[[1]], [[1, 0, 7]]], "lambda_table entry 1"),
        ("lambda_table", [[[1]], [[1.9]]], "lambda_table entry 1"),
        ("lambda_table", [[[1]], [["1"]]], "lambda_table entry 1"),
        ("mul_table", [[0, 1], [1, "0"]], "mul_table row 1"),
        ("mul_table", [[0, 1], [1, -2]], "mul_table row 1"),
    ],
)
def test_verify_rejects_loose_schema_exit2(tmp_path, capsys, table_key, table, error):
    # a column of the wrong length, a float, a string, then a string and a negative rank in mul_table
    path = tmp_path / "loose.json"
    path.write_text(json.dumps({"format": "bracelab/brace", "version": 1, "moduli": [2], table_key: table}))
    assert run_cli(["verify", "--input", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["validate"]["accepted"] is False
    assert error in doc["results"]["validate"]["error"]


@pytest.mark.parametrize(
    "moduli, table", [([2], [[[1]], [[3]]]), ([3], [[[1]], [[1]], [[-2]]]), ([2], [[[1]], [[2]]])]
)
def test_verify_rejects_out_of_range_coordinates_exit2(tmp_path, capsys, moduli, table):
    # [3] on moduli [2] and [-2] on [3] would reduce to [1], and [2] on [2] to [0]; a file is never coerced
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps({"format": "bracelab/brace", "version": 1, "moduli": moduli, "lambda_table": table}))
    assert run_cli(["verify", "--input", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["validate"]["accepted"] is False
    assert f"lambda_table entry {len(table) - 1} has a coordinate outside 0..d-1" in doc["results"]["validate"]["error"]


def test_verify_checks_table_size_before_building_the_group(tmp_path, capsys):
    # a 10^10-element group: the table length is compared with prod(moduli) first
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"format": "bracelab/brace", "version": 1, "moduli": [100000, 100000], "lambda_table": []}))
    started = time.perf_counter()
    assert run_cli(["verify", "--input", str(path)]) == 2
    assert time.perf_counter() - started < 1.0
    doc = json.loads(capsys.readouterr().out)
    assert "lambda_table must have 10000000000 entries" in doc["results"]["validate"]["error"]


def test_verify_bad_theorem1_tokens(dm2p3_file):
    assert run_cli(["verify", "--input", str(dm2p3_file), "--theorem1", "P=(0,1)"]) == 2
    assert run_cli(["verify", "--input", str(dm2p3_file), "--theorem1", "X=(0,1)", "Q=(1,0)", "m=2"]) == 2


def test_enumerate_with_oracle_and_files(tmp_path, capsys):
    out_dir = tmp_path / "braces"
    code = run_cli(["enumerate", "2,2", "--oracle", "--out-dir", str(out_dir)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    res = doc["results"]
    assert res["isomorphism_classes"] == 2
    assert res["oracle"]["agrees"]
    assert len(res["files"]) == 2
    for name in res["files"]:
        assert load_brace(out_dir / name).order == 4


def test_enumerate_guard_exit2(capsys):
    assert run_cli(["enumerate", "2,2,2,2"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert "GuardExceeded" in doc["results"]["error"]


def test_enumerate_checks_order_before_building_the_group(capsys):
    started = time.perf_counter()
    assert run_cli(["enumerate", "100000,100000"]) == 2
    assert time.perf_counter() - started < 1.0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["error"] == "GuardExceeded: order 10000000000 exceeds guard 16; use force"


def test_report_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    run_cli(["build", "--family", "trivial", "--moduli", "4,4", "--output", str(corpus / "t44.json")])
    run_cli(["build", "--family", "diagonal-m1", "--prime", "2", "--output", str(corpus / "dm1.json")])
    run_cli(["build", "--family", "ring", "--preset", "z4-doubling", "--output", str(corpus / "ring.json")])
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert run_cli(["report", "--corpus", str(corpus), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    rows = doc["results"]["rows"]
    assert [r["file"] for r in rows] == sorted(r["file"] for r in rows)
    assert all(r["right_nilpotent"] for r in rows)
    inv = doc["results"]["corpus_invariants"]
    assert inv["mpl_iff_right_nilpotent"] and inv["right_nilpotent_implies_certificate"]


def test_report_certificate_without_right_nilpotency(enumerations, tmp_path):
    # C4 x C4 representative 049 has the one-step certificate (2,0) but its
    # right series stalls; only "right nilpotent implies certificate" holds
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_brace(enumerations[(4, 4)].representatives[49], corpus / "c4c4-049.json")
    out = tmp_path / "report.json"
    assert run_cli(["report", "--corpus", str(corpus), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    (row,) = doc["results"]["rows"]
    assert row["certificate"] == [2, 0] and not row["right_nilpotent"]
    assert doc["results"]["corpus_invariants"]["right_nilpotent_implies_certificate"]


def test_report_no_match_row_fails_with_report(exponent5_brace, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_brace(exponent5_brace, corpus / "exp5.json")
    out = tmp_path / "report.json"
    assert run_cli(["report", "--corpus", str(corpus), "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    (row,) = doc["results"]["rows"]
    assert row["multiplicative"]["kind"] == "no-match"
    assert doc["results"]["corpus_invariants"]["violations"] == ["exp5.json: circle group matches no model"]


def test_report_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    assert run_cli(["report", "--corpus", str(corpus)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["rows"] == []


def test_report_missing_or_file_corpus_is_input_error(tmp_path, capsys):
    not_a_dir = tmp_path / "file.json"
    not_a_dir.write_text("{}")
    for corpus in (tmp_path / "missing", not_a_dir):
        assert run_cli(["report", "--corpus", str(corpus)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "error"
        assert doc["results"] == {"error": f"corpus {corpus} is not a directory"}


def test_report_rejects_corrupted_member(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    run_cli(["build", "--family", "trivial", "--moduli", "2,2", "--output", str(corpus / "ok.json")])
    (corpus / "bad.json").write_text("{}")
    capsys.readouterr()
    assert run_cli(["report", "--corpus", str(corpus)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["rejected"][0]["file"] == "bad.json"


def test_report_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    run_cli(["build", "--family", "diagonal-m2", "--prime", "3", "--output", str(corpus / "dm2.json")])
    run_cli(["build", "--family", "ring", "--preset", "c2c2-square", "--output", str(corpus / "r.json")])
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(["report", "--corpus", str(corpus), "--seed", "7", "--out", str(out1)]) == 0
    assert run_cli(["report", "--corpus", str(corpus), "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_build_input_errors(tmp_path):
    assert run_cli(["build", "--family", "trivial", "--output", str(tmp_path / "x.json")]) == 2
    assert run_cli(["build", "--family", "ring", "--preset", "nope", "--output", str(tmp_path / "x.json")]) == 2
