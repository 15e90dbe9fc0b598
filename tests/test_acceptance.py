"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

All arithmetic is exact (modular integers), so every check is an equality
with no numerical tolerance.  Stated runtime budgets are asserted where the
criterion gives one.
"""

from __future__ import annotations

import json
import random
import time

from bracelab.brace import brace_report
from bracelab.cli import main as cli_main
from bracelab.constructions import diagonal_brace_m1, diagonal_brace_m2
from bracelab.enumeration import holomorph_count_oracle
from bracelab.nilpotency import (
    SuiteScope,
    annihilator_certificate,
    certify_right_nilpotent,
    identity_suite,
    left_class_at_most,
    pa_bound_check,
    series,
    theorem1_check,
)
from bracelab.pgroups import (
    NONABELIAN_TAGS,
    TableGroup,
    _iso_from_model,
    build_model,
    classify_multiplicative_group,
    fingerprint,
    verify_presentation_relations,
)
from bracelab.ybe import check_solution, multipermutation_level, solution_from_brace


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def corpus_of(builtin_corpus, enumerated_braces, max_order=None):
    braces = list(builtin_corpus) + [b for b in enumerated_braces if b.order <= 16]
    if max_order is not None:
        braces = [b for b in braces if b.order <= max_order]
    return braces


def _star_distributive_exhaustive(b) -> bool:
    n = b.order
    add = b.group.add_rank
    star = b.star_r
    for a in range(n):
        for x in range(n):
            sax = star(a, x)
            for y in range(n):
                if star(a, add(x, y)) != add(sax, star(a, y)):
                    return False
    return True


def _star_distributive_sampled(b, budget: int, seed: int) -> bool:
    n = b.order
    add = b.group.add_rank
    star = b.star_r
    rng = random.Random(seed)
    for _ in range(budget):
        a, x, y = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if star(a, add(x, y)) != add(star(a, x), star(a, y)):
            return False
    return True


def test_acceptance_01_axiom_suite(builtin_corpus, enumerated_braces):
    """Every built-in and every enumerated brace of order <= 16 passes the
    validator, with exhaustive pair checks and triple checks (exhaustive to
    order 81, >= 10^6 sampled triples above).  Budget: < 60 s."""
    started = time.monotonic()
    braces = corpus_of(builtin_corpus, enumerated_braces)
    assert len(braces) >= 13
    for b in braces:
        rep = brace_report(b.group, b.lambda_columns())
        assert rep.passed, (b.name, rep.violations)
        if b.order <= 81:
            assert _star_distributive_exhaustive(b), b.name
        else:
            assert _star_distributive_sampled(b, 1_000_000, seed=0), b.name
    elapsed = time.monotonic() - started
    ok = elapsed < 60
    report_line(1, ok, f"{len(braces)} braces validated in {elapsed:.1f}s")
    assert ok, f"axiom suite took {elapsed:.1f}s (budget 60s)"


def test_acceptance_02_power_star_identity(builtin_corpus, enumerated_braces):
    """The integer-coefficient expansion of P * P^n holds for every P and
    every n in [0, 2 ord(P)] on all corpus braces of order <= 81, after
    verifying the left series reaches zero by term 5.  Budget: < 5 min."""
    started = time.monotonic()
    braces = corpus_of(builtin_corpus, enumerated_braces, max_order=81)
    checked = 0
    for b in braces:
        assert left_class_at_most(b, 5), f"{b.name}: left series not zero by term 5"
        g = b.group
        add = g.add_rank
        for P in range(b.order):
            pp = b.star_r(P, P)
            ppp = b.star_r(P, pp)
            pppp = b.star_r(P, ppp)
            e_pp, e_ppp, e_pppp = g.unrank(pp), g.unrank(ppp), g.unrank(pppp)
            pk = 0
            for n in range(0, 2 * b.circle.element_orders[P] + 1):
                c1 = (n - 2) * (n - 1) * n // 6
                c2 = n * (n - 1) // 2
                rhs = add(
                    add(g.rank(g.scalar_multiple(c1, e_pppp)), g.rank(g.scalar_multiple(c2, e_ppp))),
                    g.rank(g.scalar_multiple(n, e_pp)),
                )
                assert b.star_r(P, pk) == rhs, (b.name, g.unrank(P), n)
                checked += 1
                pk = b.circ_r(pk, P)
    elapsed = time.monotonic() - started
    ok = elapsed < 300
    report_line(2, ok, f"{checked} (P, n) identities on {len(braces)} braces, 0 counterexamples, {elapsed:.1f}s")
    assert ok


def test_acceptance_03_theorem_pipeline():
    """Diagonal m2 at p in {3, 5}: all hypotheses, all staged propositions,
    and the conclusion hold; diagonal m1 at p = 5 fails hypothesis 3 with
    circle order 25 while the conclusion still passes."""
    for p in (3, 5):
        rep = theorem1_check(diagonal_brace_m2(p), (0, 1), [(1, 0)], m=2)
        assert rep.hypotheses_passed, (p, rep.hypotheses)
        assert rep.conclusion_passed
        stages = {s.name: s.status for s in rep.stages}
        for name in ("ppn", "prop1", "cor1", "prop2", "np2pp", "negpow", "final_lemma"):
            assert stages[name] == "passed", (p, name, stages)
    rep5 = theorem1_check(diagonal_brace_m1(5), (1, 0), [(0, 1)], m=1)
    h = {x.index: x for x in rep5.hypotheses}
    assert not h[3].passed and h[3].detail == (25,)
    assert rep5.conclusion_passed
    report_line(3, True, "m2 pipeline passes at p=3,5; m1 p=5 reports ord(Q)=25 with passing conclusion")


def test_acceptance_04_certificate_consistency(builtin_corpus, enumerated_braces):
    """Certificate recursion agrees with the direct right series on every
    corpus brace of order <= 81, and every certificate also kills from the
    left (c * A = 0)."""
    braces = corpus_of(builtin_corpus, enumerated_braces, max_order=81)
    agreements = 0
    with_cert = 0
    for b in braces:
        verdict = certify_right_nilpotent(b)  # raises ConsistencyFailure on mismatch
        direct = series(b, "right").reaches_zero
        assert verdict.right_nilpotent == direct, b.name
        agreements += 1
        cert = annihilator_certificate(b)
        if cert is not None:
            with_cert += 1
            c = b.rank(cert.element)
            assert all(b.star_r(c, a) == 0 for a in range(b.order)), b.name
            assert all(b.star_r(a, c) == 0 for a in range(b.order)), b.name
    report_line(4, True, f"{agreements} braces consistent; {with_cert} certificates all two-sided null")


def test_acceptance_05_pa_bound_over_c4c4(enumerations):
    """Every enumerated brace on [4, 4] has |A * 2A| <= 2, and A * (A * 2A)
    vanishes whenever A * 2A does not."""
    reps = enumerations[(4, 4)].representatives
    nonzero = 0
    for b in reps:
        rep = pa_bound_check(b)
        assert rep.bound_holds, (b.name, rep.a_star_pa_order)
        if rep.a_star_pa_order > 1:
            nonzero += 1
            assert rep.second_layer_zero is True, b.name
    report_line(5, True, f"bound holds on all {len(reps)} braces on [4,4] ({nonzero} with A*2A != 0)")


def test_acceptance_06_group_models():
    """All tags build at p = 3 with exhaustive associativity and all
    defining plus derived relations; classify(build_model(t, 3)) = t for
    every t; diagonal m2 at p = 3 classifies as G4.  Budget: < 2 min.

    Known blocker, asserted anyway because the criterion demands it: the XI
    and XII presentations define isomorphic groups at p = 3 (the bijection
    P -> P, Q -> Q, R -> PR is multiplicative on all 81^2 pairs), so no
    function of the group can return XII for the XII model while also
    returning XI for the XI model."""
    started = time.monotonic()
    failures: list[str] = []
    for tag in NONABELIAN_TAGS:
        model = build_model(tag, 3)
        rep = verify_presentation_relations(model)
        assert rep.associativity_checked == 81 ** 3 and rep.associativity_ok, tag
        assert all(ok for _, ok in rep.defining), (tag, rep.defining)
        assert all(ok for _, ok in rep.derived), (tag, rep.derived)

    ordered = list(NONABELIAN_TAGS)
    for tag in ordered:
        model = build_model(tag, 3)
        target = TableGroup(model.order, model.mul_r)
        fp = fingerprint(target)
        got = next(
            (cand for cand in ordered if fingerprint(build_model(cand, 3)) == fp
             and _iso_from_model(build_model(cand, 3), target) is not None),
            None,
        )
        if got != tag:
            failures.append(f"classify(build_model({tag},3)) = {got}")

    cls = classify_multiplicative_group(diagonal_brace_m2(3))
    assert cls.tag == "G4"
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 120
    report_line(6, ok, f"relations+associativity pass; round-trip failures: {failures or 'none'}; {elapsed:.1f}s")
    assert elapsed < 120
    assert not failures, (
        "round-trip is unattainable at p=3 for the XI/XII pair: the two "
        f"presentations define isomorphic groups there ({failures})"
    )


def test_acceptance_07_enumeration_oracle():
    """Counts for [2], [3], [4], [2, 2] match the holomorph oracle under the
    matched equivalence: tables <-> regular subgroups, classes <-> orbits."""
    from bracelab.enumeration import enumerate_braces

    expected_classes = {(2,): 1, (3,): 1, (4,): 2, (2, 2): 2}
    for moduli, want in expected_classes.items():
        res = enumerate_braces(moduli)
        orc = holomorph_count_oracle(moduli)
        assert res.total_tables == orc.regular_subgroups, moduli
        assert res.isomorphism_classes == orc.aut_conjugacy_classes == want, moduli
    report_line(7, True, "[2]->1, [3]->1, [4]->2, [2,2]->2; oracle agrees on both equivalences")


def test_acceptance_08_ybe(builtin_corpus, enumerated_braces):
    """Every brace-derived solution passes braid, involutivity, and
    non-degeneracy (exhaustive to carrier 81, >= 10^6 sampled triples at
    625); multipermutation level is finite exactly for the right-nilpotent
    braces; diagonal m1 at p = 2 has level 2."""
    braces = corpus_of(builtin_corpus, enumerated_braces)
    finite_mpl_mismatches = []
    for b in braces:
        sol = solution_from_brace(b)
        rep = check_solution(sol, sample_budget=1_000_000, seed=0)
        assert rep.passed, (b.name, rep)
        if b.order <= 81:
            assert rep.exhaustive and rep.triples_checked == b.order ** 3
        else:
            assert rep.triples_checked >= 1_000_000
        mpl = multipermutation_level(sol)
        right_nilpotent = series(b, "right").reaches_zero
        if (mpl is not None) != right_nilpotent:
            finite_mpl_mismatches.append(b.name)
    assert not finite_mpl_mismatches, finite_mpl_mismatches
    assert multipermutation_level(solution_from_brace(diagonal_brace_m1(2))) == 2
    n_not_rn = sum(1 for b in braces if not series(b, "right").reaches_zero)
    report_line(8, True, f"{len(braces)} solutions pass; mpl finite iff right nilpotent ({n_not_rn} negative cases); m1 p=2 level 2")


def test_acceptance_09_rel_suite():
    """The conjugation identity suite holds on the diagonal m2 family,
    exhaustively at p = 3 and p = 5."""
    rep3 = identity_suite(diagonal_brace_m2(3), SuiteScope(stages=("rel_suite",)))
    stage3 = rep3.stage("rel_suite")
    assert stage3.status == "passed" and stage3.checks == 27 * 3 * 2 + 3 * 81
    rep5 = identity_suite(diagonal_brace_m2(5), SuiteScope(stages=("rel_suite",)))
    stage5 = rep5.stage("rel_suite")
    assert stage5.status == "passed" and stage5.checks == 125 * 5 * 2 + 5 * 625
    report_line(9, True, f"p=3 exhaustive ({stage3.checks} checks), p=5 exhaustive ({stage5.checks} checks)")


def test_acceptance_10_report_determinism(tmp_path):
    """Two runs of the report command on the same corpus and seed produce
    byte-identical output."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    builds = [
        ["build", "--family", "trivial", "--moduli", "4,4", "--output", str(corpus / "trivial44.json")],
        ["build", "--family", "diagonal-m1", "--prime", "2", "--output", str(corpus / "dm1p2.json")],
        ["build", "--family", "diagonal-m2", "--prime", "3", "--output", str(corpus / "dm2p3.json")],
        ["build", "--family", "ring", "--preset", "z4-doubling", "--output", str(corpus / "ring.json")],
    ]
    for argv in builds:
        assert cli_main(argv) == 0
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_main(["report", "--corpus", str(corpus), "--seed", "3", "--out", str(out1)]) == 0
    assert cli_main(["report", "--corpus", str(corpus), "--seed", "3", "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    rows = json.loads(out1.read_text())["results"]["rows"]
    report_line(10, identical, f"byte-identical reports over {len(rows)} corpus rows")
    assert identical
