#!/usr/bin/env python3
"""Run the generator-hypothesis pipeline on the diagonal families and print a
compact summary: hypotheses, staged identities, conclusion, classification,
certificates, and multipermutation levels.

Usage: python scripts/run_pipeline_demo.py [primes ...]   (default: 2 3 5)
"""

from __future__ import annotations

import sys

from bracelab.constructions import diagonal_brace_m1, diagonal_brace_m2
from bracelab.nilpotency import annihilator_certificate, series, socle_series_length, theorem1_check
from bracelab.pgroups import classify_multiplicative_group


def summarize(brace, P, Qs, m) -> None:
    print(f"== {brace.name}  (order {brace.order}, moduli {brace.moduli})")
    rep = theorem1_check(brace, P, Qs, m)
    for h in rep.hypotheses:
        print(f"   hypothesis {h.index}: {'ok' if h.passed else 'FAIL'}  ({h.description})")
    print(f"   conclusion P*(p^m P^k) = 0 on k in {rep.conclusion_window}: "
          f"{'ok' if rep.conclusion_passed else 'FAIL'}")
    for s in rep.stages:
        print(f"   stage {s.name}: {s.status} ({s.checks} checks)")
    cls = classify_multiplicative_group(brace)
    print(f"   multiplicative group: {cls.label()}")
    r = series(brace, "right")
    cert = annihilator_certificate(brace)
    lvl = socle_series_length(brace)
    print(f"   right class: {r.nilpotency_class}, certificate: {cert.element if cert else None}, mpl: {lvl}")


def main() -> int:
    primes = [int(a) for a in sys.argv[1:]] or [2, 3, 5]
    for p in primes:
        summarize(diagonal_brace_m2(p), (0, 1), [(1, 0)], m=2)
        summarize(diagonal_brace_m1(p), (1, 0), [(0, 1)], m=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
