"""Batch command-line interface.

Commands:

    verify     load a brace file and run the verification suites
    enumerate  exhaustively enumerate braces on an additive group
    report     aggregate a corpus directory into one structured report
    build      write a built-in construction to a brace file

Every command emits a deterministic JSON run report on stdout (or --out);
wall-clock timing goes to stderr so reports stay byte-identical for a fixed
input and seed.  Exit codes: 0 pass, 1 check failure, 2 input/guard error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from .brace import Brace, BraceError
from .constructions import RING_PRESETS, diagonal_brace_m1, diagonal_brace_m2, ring_brace, trivial_brace
from .enumeration import DEFAULT_MAX_ORDER, GuardExceeded, enumerate_braces, holomorph_count_oracle
from .fileformat import BraceFileError, load_brace, save_brace
from .nilpotency import (
    InputShapeMismatch,
    PreconditionMismatch,
    annihilator_certificate,
    certify_right_nilpotent,
    identity_suite,
    pa_bound_check,
    series,
    socle_series_length,
    theorem1_check,
)
from .pgroups import NoMatch, classify_multiplicative_group
from .ybe import check_solution

REPORT_FORMAT = "bracelab/run-report"
REPORT_VERSION = 1

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2

ALL_SUITES = ("series", "identity", "certify", "classify", "pa-bound", "ybe")


def _emit(doc: dict[str, Any], out: str | None) -> None:
    """Write the report to ``out``, or to stdout.  A report that cannot be
    written to ``out`` becomes an input error, with the reason under
    ``results.out_error``, and goes to stdout instead."""
    if out:
        try:
            Path(out).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
            return
        except OSError as exc:
            doc["results"]["out_error"] = f"{type(exc).__name__}: {exc}"
            doc["exit_code"] = EXIT_INPUT_ERROR
            doc["status"] = "error"
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _report_skeleton(command: str, seed: int, inputs: dict[str, Any]) -> dict[str, Any]:
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "command": command,
        "seed": seed,
        "inputs": inputs,
        "results": {},
        "status": "pass",
        "exit_code": EXIT_PASS,
    }


def _finish(doc: dict[str, Any], exit_code: int, out: str | None, started: float) -> int:
    doc["exit_code"] = exit_code
    doc["status"] = {EXIT_PASS: "pass", EXIT_CHECK_FAILURE: "fail"}.get(exit_code, "error")
    _emit(doc, out)
    print(f"elapsed: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return doc["exit_code"]


def _parse_moduli(text: str) -> list[int]:
    parts = [p for p in text.replace("[", "").replace("]", "").split(",") if p.strip()]
    return [int(p) for p in parts]


def _parse_coords(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.replace("(", "").replace(")", "").split(",") if p.strip())


def _parse_theorem1(tokens: list[str]) -> tuple[tuple[int, ...], list[tuple[int, ...]], int]:
    p_val: tuple[int, ...] | None = None
    qs: list[tuple[int, ...]] = []
    m_val: int | None = None
    for tok in tokens:
        key, _, value = tok.partition("=")
        key = key.strip()
        if key == "P":
            p_val = _parse_coords(value)
        elif key == "Q":
            qs.append(_parse_coords(value))
        elif key == "m":
            m_val = int(value)
        else:
            raise ValueError(f"unrecognized --theorem1 token {tok!r}")
    if p_val is None or m_val is None or not qs:
        raise ValueError("--theorem1 requires P=<coords>, at least one Q=<coords>, and m=<1|2>")
    return p_val, qs, m_val


def _series_entry(brace: Brace, kind: str) -> dict[str, Any]:
    res = series(brace, kind)
    return {
        "kind": kind,
        "class": res.nilpotency_class,
        "chain_orders": [t.order for t in res.chain],
        "reaches_zero": res.reaches_zero,
    }


def _stage_entry(stage) -> dict[str, Any]:
    entry: dict[str, Any] = {"name": stage.name, "status": stage.status, "checks": stage.checks}
    if stage.reason:
        entry["reason"] = stage.reason
    if stage.witness is not None:
        entry["witness"] = json.loads(json.dumps(stage.witness, default=list))
    return entry


def _multiplicative_label(brace: Brace) -> dict[str, Any]:
    """Classification entry; kind "no-match" marks a check failure."""
    try:
        cls = classify_multiplicative_group(brace)
    except InputShapeMismatch:
        return {"kind": "out-of-family", "abelian": brace.is_circ_abelian()}
    except NoMatch as exc:
        return {"kind": "no-match", "error": str(exc)}
    entry: dict[str, Any] = {"kind": cls.kind, "label": cls.label()}
    if cls.matched_tags:
        entry["matched_tags"] = list(cls.matched_tags)
    return entry


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    seed = args.seed
    suites = list(ALL_SUITES) if args.suite is None else [s.strip() for s in args.suite.split(",") if s.strip()]
    inputs = {"input": str(args.input), "suites": suites}
    if args.theorem1:
        inputs["theorem1"] = list(args.theorem1)
    doc = _report_skeleton("verify", seed, inputs)
    results = doc["results"]
    unknown = [s for s in suites if s not in ALL_SUITES]
    if unknown:
        results["error"] = f"unknown suites: {unknown}"
        return _finish(doc, EXIT_INPUT_ERROR, args.out, started)
    if args.sample_budget < 1:
        results["error"] = f"--sample-budget must be at least 1, got {args.sample_budget}"
        return _finish(doc, EXIT_INPUT_ERROR, args.out, started)
    try:
        brace = load_brace(args.input)
    except BraceFileError as exc:
        results["validate"] = {"accepted": False, "error": str(exc)}
        return _finish(doc, EXIT_INPUT_ERROR, args.out, started)
    results["validate"] = {"accepted": True, "order": brace.order, "moduli": list(brace.moduli)}

    failed = False
    if "series" in suites:
        results["series"] = {k: _series_entry(brace, k) for k in ("left", "right", "strong")}
    if "identity" in suites:
        suite = identity_suite(brace)
        results["identity"] = [_stage_entry(s) for s in suite.stages]
        failed |= not suite.passed
    if "certify" in suites:
        try:
            cert = certify_right_nilpotent(brace)
            results["certify"] = {
                "right_nilpotent": cert.right_nilpotent,
                "transcript": [
                    {"order": s.order, "certificate": list(s.certificate) if s.certificate else None}
                    for s in cert.transcript
                ],
            }
        except PreconditionMismatch as exc:
            results["certify"] = {"skipped": str(exc)}
    if "classify" in suites:
        results["classify"] = _multiplicative_label(brace)
        failed |= results["classify"]["kind"] == "no-match"
    if "pa-bound" in suites:
        try:
            rep = pa_bound_check(brace)
            results["pa_bound"] = {
                "pa_order": rep.pa_order,
                "a_star_pa_order": rep.a_star_pa_order,
                "bound_holds": rep.bound_holds,
                "second_layer_zero": rep.second_layer_zero,
                "pa_central": rep.pa_central,
            }
            failed |= not rep.passed
        except PreconditionMismatch as exc:
            results["pa_bound"] = {"skipped": str(exc)}
    if "ybe" in suites:
        rep = check_solution(brace, sample_budget=args.sample_budget, seed=seed)
        results["ybe"] = {
            "involutive": rep.involutive,
            "nondegenerate": rep.nondegenerate,
            "braid": rep.braid,
            "triples_checked": rep.triples_checked,
            "exhaustive": rep.exhaustive,
            "multipermutation_level": socle_series_length(brace),
        }
        failed |= not rep.passed
    if args.theorem1:
        try:
            P, Qs, m = _parse_theorem1(args.theorem1)
            rep = theorem1_check(brace, P, Qs, m)
        except (ValueError, InputShapeMismatch) as exc:
            results["theorem1"] = {"error": str(exc)}
            return _finish(doc, EXIT_INPUT_ERROR, args.out, started)
        results["theorem1"] = {
            "p": rep.p,
            "m": rep.m,
            "hypotheses": [
                {"index": h.index, "description": h.description, "passed": h.passed}
                for h in rep.hypotheses
            ],
            "hypotheses_passed": rep.hypotheses_passed,
            "conclusion_passed": rep.conclusion_passed,
            "conclusion_window": list(rep.conclusion_window),
            "stages": [_stage_entry(s) for s in rep.stages],
        }
        failed |= not rep.conclusion_passed or any(s.status == "failed" for s in rep.stages)
    return _finish(doc, EXIT_CHECK_FAILURE if failed else EXIT_PASS, args.out, started)


def cmd_enumerate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    doc = _report_skeleton(
        "enumerate",
        args.seed,
        {"moduli": args.moduli, "oracle": bool(args.oracle), "force": bool(args.force)},
    )
    results = doc["results"]
    try:
        moduli = _parse_moduli(args.moduli)
        res = enumerate_braces(moduli, max_order=args.max_order, force=args.force)
    except (ValueError, GuardExceeded) as exc:
        results["error"] = f"{type(exc).__name__}: {exc}"
        return _finish(doc, EXIT_INPUT_ERROR, args.out, started)
    results["moduli"] = list(res.moduli)
    results["total_tables"] = res.total_tables
    results["isomorphism_classes"] = res.isomorphism_classes
    results["class_sizes"] = list(res.class_sizes)
    written: list[str] = []
    results["files"] = written
    if args.out_dir:
        out_dir = Path(args.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for i, rep in enumerate(res.representatives):
                path = out_dir / f"brace-{'x'.join(map(str, res.moduli))}-{i:03d}.json"
                save_brace(rep, path, construction="enumerate")
                written.append(path.name)
        except OSError as exc:
            results["error"] = f"{type(exc).__name__}: {exc}"
            return _finish(doc, EXIT_INPUT_ERROR, args.out, started)
    exit_code = EXIT_PASS
    if args.oracle:
        try:
            orc = holomorph_count_oracle(moduli)
            agrees = (
                orc.regular_subgroups == res.total_tables
                and orc.aut_conjugacy_classes == res.isomorphism_classes
            )
            results["oracle"] = {
                "regular_subgroups": orc.regular_subgroups,
                "aut_conjugacy_classes": orc.aut_conjugacy_classes,
                "holomorph_order": orc.holomorph_order,
                "agrees": agrees,
            }
            if not agrees:
                exit_code = EXIT_CHECK_FAILURE
        except GuardExceeded as exc:
            results["oracle"] = {"skipped": str(exc)}
    return _finish(doc, exit_code, args.out, started)


def _report_row(corpus_dir: Path, fname: str) -> dict[str, Any]:
    """One report row.  The brace is a local, so it does not outlive the row.
    The multipermutation level comes from the socle series of the brace, so
    no YBE solution (2 n^2 entries) is built."""
    brace = load_brace(corpus_dir / fname)
    right = series(brace, "right")
    left = series(brace, "left")
    strong = series(brace, "strong")
    cert = annihilator_certificate(brace)
    return {
        "file": fname,
        "name": brace.name,
        "moduli": list(brace.moduli),
        "additive_type": sorted(brace.moduli),
        "multiplicative": _multiplicative_label(brace),
        "left_class": left.nilpotency_class,
        "right_class": right.nilpotency_class,
        "strong_class": strong.nilpotency_class,
        "right_nilpotent": right.reaches_zero,
        "certificate": list(cert.element) if cert else None,
        "multipermutation_level": socle_series_length(brace),
    }


def cmd_report(args: argparse.Namespace) -> int:
    started = time.monotonic()
    doc = _report_skeleton("report", args.seed, {"corpus": str(args.corpus)})
    results = doc["results"]
    corpus_dir = Path(args.corpus)
    if not corpus_dir.is_dir():
        results["error"] = f"corpus {args.corpus} is not a directory"
        return _finish(doc, EXIT_INPUT_ERROR, args.out, started)
    files = sorted(p.name for p in corpus_dir.glob("*.json"))
    rejected: list[dict[str, str]] = []
    rows: list[dict[str, Any]] = []
    for fname in files:
        try:
            rows.append(_report_row(corpus_dir, fname))
        except BraceFileError as exc:
            rejected.append({"file": fname, "error": str(exc)})
    results["rows"] = rows
    results["rejected"] = rejected
    if rejected:
        return _finish(doc, EXIT_INPUT_ERROR, args.out, started)

    invariants = ("mpl_iff_right_nilpotent", "right_nilpotent_implies_certificate", "strong_iff_left_and_right")
    broken: set[str] = set()
    violations: list[str] = []

    def violation(invariant: str | None, text: str) -> None:
        if invariant:
            broken.add(invariant)
        violations.append(text)

    for row in rows:
        fname = row["file"]
        if (row["multipermutation_level"] is not None) != row["right_nilpotent"]:
            violation("mpl_iff_right_nilpotent", f"{fname}: finite mpl != right nilpotent")
        # only this direction holds at prime-power order: a one-step
        # certificate can exist without the right series reaching zero
        if row["right_nilpotent"] and row["certificate"] is None:
            violation("right_nilpotent_implies_certificate", f"{fname}: right nilpotent without a certificate")
        strong_finite = row["strong_class"] is not None
        both = row["right_nilpotent"] and row["left_class"] is not None
        if strong_finite != both:
            violation("strong_iff_left_and_right", f"{fname}: strong class finite != (left and right nilpotent)")
        if row["multiplicative"]["kind"] == "no-match":
            violation(None, f"{fname}: circle group matches no model")
    results["corpus_invariants"] = {key: key not in broken for key in invariants}
    results["corpus_invariants"]["violations"] = violations
    return _finish(doc, EXIT_CHECK_FAILURE if violations else EXIT_PASS, args.out, started)


def cmd_build(args: argparse.Namespace) -> int:
    started = time.monotonic()
    doc = _report_skeleton(
        "build",
        args.seed,
        {"family": args.family, "moduli": args.moduli, "prime": args.prime, "preset": args.preset},
    )
    results = doc["results"]
    try:
        if args.family == "trivial":
            if not args.moduli:
                raise ValueError("--moduli required for the trivial family")
            brace = trivial_brace(tuple(_parse_moduli(args.moduli)))
        elif args.family in ("diagonal-m1", "diagonal-m2"):
            if not args.prime:
                raise ValueError("--prime required for diagonal families")
            diagonal = diagonal_brace_m1 if args.family == "diagonal-m1" else diagonal_brace_m2
            brace = diagonal(args.prime)
        elif args.family == "ring":
            if args.preset not in RING_PRESETS:
                raise ValueError(f"--preset must be one of {sorted(RING_PRESETS)}")
            moduli, products = RING_PRESETS[args.preset]
            brace = ring_brace(moduli, products, name=f"ring:{args.preset}")
        else:
            raise ValueError(f"unknown family {args.family!r}")
    except (ValueError, BraceError) as exc:
        results["error"] = f"{type(exc).__name__}: {exc}"
        return _finish(doc, EXIT_INPUT_ERROR, args.out, started)
    try:
        save_brace(brace, args.output, construction=brace.name)
    except OSError as exc:
        results["error"] = f"{type(exc).__name__}: {exc}"
        return _finish(doc, EXIT_INPUT_ERROR, args.out, started)
    results["written"] = str(args.output)
    results["order"] = brace.order
    results["name"] = brace.name
    return _finish(doc, EXIT_PASS, args.out, started)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bracelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites on a brace file")
    p_verify.add_argument("--input", required=True, help="brace JSON file")
    p_verify.add_argument("--suite", default=None, help=f"comma-separated subset of {','.join(ALL_SUITES)}")
    p_verify.add_argument(
        "--theorem1",
        nargs="+",
        default=None,
        metavar="TOKEN",
        help="generator pipeline: P=<coords> Q=<coords> [Q=...] m=<1|2>",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--sample-budget", type=int, default=1_000_000)
    p_verify.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="enumerate braces on an additive group")
    p_enum.add_argument("moduli", help="cyclic moduli, e.g. 2,2 or [4,4]")
    p_enum.add_argument("--out-dir", default=None, help="write canonical representatives here")
    p_enum.add_argument("--oracle", action="store_true", help="cross-check counts in the holomorph")
    p_enum.add_argument("--force", action="store_true", help="override the order/|Aut| guard")
    p_enum.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    p_enum.add_argument("--seed", type=int, default=0)
    p_enum.add_argument("--out", default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    p_report = sub.add_parser("report", help="aggregate a corpus directory")
    p_report.add_argument("--corpus", required=True, help="directory of brace JSON files")
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(func=cmd_report)

    p_build = sub.add_parser("build", help="write a built-in construction to a file")
    p_build.add_argument("--family", required=True, choices=["trivial", "diagonal-m1", "diagonal-m2", "ring"])
    p_build.add_argument("--moduli", default=None)
    p_build.add_argument("--prime", type=int, default=None)
    p_build.add_argument("--preset", default=None, help=f"ring preset: {sorted(RING_PRESETS)}")
    p_build.add_argument("--output", required=True)
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(func=cmd_build)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
