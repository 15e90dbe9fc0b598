#!/usr/bin/env python3
"""Run one bracelab command with spans recorded around its layers.

    python3 perfbench/trace_child.py SPANS.json <bracelab arguments...>

Each function named in TARGETS is replaced, in every bracelab module that
holds a reference to it, by a wrapper that records a span (name, start, end,
parent) and the counters below.  bracelab's own code is not changed.  The
spans and counters are written to SPANS.json when the command ends, and the
command's exit code is passed on.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import bracelab.cli as cli

# (module, function, span name); the modules are those of bracelab.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("abelian", "all_automorphisms", "abelian.automorphisms"),
    ("enumeration", "enumerate_braces", "enumeration.enumerate"),
    ("brace", "is_isomorphic", "enumeration.dedupe"),
    ("enumeration", "holomorph_count_oracle", "enumeration.oracle"),
    ("fileformat", "load_brace", "fileformat.load"),
    ("brace", "validate_brace", "brace.validate"),
    ("brace", "quotient_brace", "brace.quotient"),
    ("nilpotency", "series", "nilpotency.series"),
    ("nilpotency", "annihilator_certificate", "nilpotency.certificate"),
    ("nilpotency", "certify_right_nilpotent", "nilpotency.certify"),
    ("nilpotency", "identity_suite", "nilpotency.identity"),
    ("nilpotency", "_stage_ppn", "nilpotency.identity.ppn"),
    ("nilpotency", "_stage_commuting_powers", "nilpotency.identity.commuting_powers"),
    ("nilpotency", "_stage_rel_suite", "nilpotency.identity.rel_suite"),
    ("nilpotency", "theorem_stage_results", "nilpotency.theorem_stages"),
    ("nilpotency", "discover_theorem_context", "nilpotency.theorem_context"),
    ("nilpotency", "theorem1_check", "nilpotency.theorem1"),
    ("nilpotency", "pa_bound_check", "nilpotency.pa_bound"),
    ("pgroups", "classify_multiplicative_group", "pgroups.classify"),
    ("pgroups", "build_model", "pgroups.build_model"),
    ("pgroups", "fingerprint", "pgroups.fingerprint"),
    ("ybe", "solution_from_brace", "ybe.solution"),
    ("ybe", "check_solution", "ybe.braid"),
    ("ybe", "multipermutation_level", "ybe.mpl"),
)


class Recorder:
    """Spans as [name, start, end, parent index] rows, plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, k: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(row)
            self._stack.append(len(self.spans) - 1)
            row[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                self._stack.pop()
            self._observe(name, out)
            return out

        return traced

    def _observe(self, name: str, out) -> None:
        if name == "enumeration.enumerate":
            self.count("enumeration.dfs_nodes", out.nodes_explored)
        elif name == "enumeration.dedupe":
            self.count("enumeration.dedupe_calls", 1)
            self.count("enumeration.dedupe_hits", out is not None)
        elif name == "nilpotency.identity.commuting_powers":
            self.count("nilpotency.identity.commuting_powers_checks", out.checks)
        elif name == "ybe.braid":
            self.count("ybe.braid_triples", out.triples_checked)


def install(rec: Recorder) -> None:
    modules = [m for key, m in sys.modules.items() if key == "bracelab" or key.startswith("bracelab.")]
    for module_name, fn_name, span in TARGETS:
        original = getattr(sys.modules[f"bracelab.{module_name}"], fn_name)
        wrapper = rec.wrap(original, span)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    install(rec)
    try:
        code = cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "counters": rec.counters}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
