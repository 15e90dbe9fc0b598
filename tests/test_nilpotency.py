"""Tests for series, certificates, the theorem pipeline, and identity stages."""

from __future__ import annotations

import pytest

from bracelab.brace import trivial_brace
from bracelab.constructions import diagonal_brace_m1, diagonal_brace_m2
from bracelab.nilpotency import (
    InputShapeMismatch,
    PreconditionMismatch,
    annihilator_certificate,
    center_star,
    certify_right_nilpotent,
    discover_theorem_context,
    find_g4_pair,
    identity_suite,
    left_class_at_most,
    pa_bound_check,
    right_annihilated,
    series,
    socle,
    theorem1_check,
)


def test_series_trivial():
    T = trivial_brace([4, 4])
    for kind in ("left", "right", "strong"):
        res = series(T, kind)
        assert res.nilpotency_class == 2
        assert [t.order for t in res.chain] == [16, 1]


def test_series_diagonal_chains():
    A = diagonal_brace_m1(2)
    right = series(A, "right")
    assert right.nilpotency_class == 3
    assert set(right.chain[1].elements(A.group)) == {(0, 0), (2, 0)}
    left = series(A, "left")
    assert left.nilpotency_class == 3
    assert set(left.chain[1].elements(A.group)) == {(0, 0), (2, 0)}
    strong = series(A, "strong")
    assert strong.nilpotency_class is not None


def test_series_chain_descends_and_strong_dominates():
    for brace in (diagonal_brace_m1(3), diagonal_brace_m2(3)):
        left = series(brace, "left")
        right = series(brace, "right")
        strong = series(brace, "strong")
        for res in (left, right, strong):
            for prev, nxt in zip(res.chain, res.chain[1:]):
                assert nxt.members() <= prev.members()
        depth = max(len(left.chain), len(right.chain), len(strong.chain))
        for i in range(1, depth + 1):
            assert left.term(i).members() <= strong.term(i).members()
            assert right.term(i).members() <= strong.term(i).members()


def test_center_star_examples():
    T = trivial_brace([2, 8])
    assert center_star(T) == frozenset(range(16))
    A = diagonal_brace_m1(2)
    assert {A.element(c) for c in center_star(A)} == {(0, 0), (2, 0), (0, 2), (2, 2)}
    B = diagonal_brace_m2(3)
    assert B.rank((0, 9)) in center_star(B)


def test_socle(enumerated_braces):
    A = diagonal_brace_m1(2)
    soc = socle(A)
    assert A.rank((1, 0)) in soc  # lambda is trivial on b = 0
    assert A.rank((0, 1)) not in soc
    for b in enumerated_braces:
        n = b.order
        assert socle(b) == frozenset(a for a in range(n) if all(b.star_r(a, x) == 0 for x in range(n))), b.name


def test_annihilator_certificate_examples():
    T = trivial_brace([4, 4])
    cert = annihilator_certificate(T)
    assert cert.element == (1, 0)  # smallest nonzero rank
    A = diagonal_brace_m1(2)
    certa = annihilator_certificate(A)
    assert certa.element == (2, 0)
    assert A.rank(certa.element) in socle(A)
    assert set(certa.ideal_ranks) <= socle(A) & right_annihilated(A)
    B = diagonal_brace_m2(3)
    certb = annihilator_certificate(B)
    # smallest-rank candidate; (0, 9) is also in the candidate set
    assert certb.element == (0, 3)
    assert B.rank((0, 9)) in (center_star(B) & frozenset(range(B.order)))


def test_certify_right_nilpotent():
    T = trivial_brace([4, 4])
    res = certify_right_nilpotent(T)
    assert res.right_nilpotent
    assert res.transcript[0].certificate == (1, 0)
    A = diagonal_brace_m1(2)
    resa = certify_right_nilpotent(A)
    assert resa.right_nilpotent
    assert resa.transcript[0].certificate == (2, 0)
    B = diagonal_brace_m2(3)
    assert certify_right_nilpotent(B).right_nilpotent


def test_certify_requires_prime_power():
    with pytest.raises(PreconditionMismatch):
        certify_right_nilpotent(trivial_brace([2, 3]))


def test_theorem1_diagonal_m2():
    B = diagonal_brace_m2(3)
    rep = theorem1_check(B, (0, 1), [(1, 0)], m=2)
    assert rep.hypotheses_passed
    assert rep.conclusion_passed
    assert rep.conclusion_window == (-27, 27)
    stages = {s.name: s.status for s in rep.stages}
    assert stages == {
        "ppn": "passed",
        "prop1": "passed",
        "cor1": "passed",
        "prop2": "passed",
        "np2pp": "passed",
        "negpow": "passed",
        "final_lemma": "passed",
    }
    assert all(ok for _, ok in rep.coverage_by_ordering)


def test_theorem1_hypothesis3_failure_m1_p5():
    C = diagonal_brace_m1(5)
    rep = theorem1_check(C, (1, 0), [(0, 1)], m=1)
    by_index = {h.index: h for h in rep.hypotheses}
    assert by_index[1].passed and by_index[2].passed and by_index[4].passed
    assert not by_index[3].passed
    assert by_index[3].detail == (25,)
    assert rep.conclusion_passed
    assert rep.stages == ()  # staged identities only run when all hypotheses hold


def test_theorem1_hypothesis2_failure_trivial():
    T = trivial_brace([3, 27])
    rep = theorem1_check(T, (0, 1), [(1, 0)], m=2)
    by_index = {h.index: h for h in rep.hypotheses}
    assert not by_index[2].passed
    assert rep.conclusion_passed


def test_theorem1_shape_errors():
    with pytest.raises(InputShapeMismatch):
        theorem1_check(trivial_brace([2, 2]), (0, 1), [(1, 0)], m=1)
    with pytest.raises(InputShapeMismatch):
        theorem1_check(diagonal_brace_m2(3), (0, 1), [(1, 0)], m=1)  # wrong m for the shape


def test_ppn_small_coefficients_match_closed_form():
    """n = 2: P*P^2 = P*(P*P) + 2(P*P); n = 3 adds the fourth-power term."""
    B = diagonal_brace_m1(2)
    g = B.group
    for P in range(B.order):
        pp = B.star_r(P, P)
        ppp = B.star_r(P, pp)
        pppp = B.star_r(P, ppp)
        p2 = B.circ_r(P, P)
        lhs2 = B.star_r(P, p2)
        rhs2 = g.add_rank(ppp, g.rank(g.scalar_multiple(2, g.unrank(pp))))
        assert lhs2 == rhs2
        p3 = B.circ_r(p2, P)
        lhs3 = B.star_r(P, p3)
        rhs3 = g.add_rank(
            g.add_rank(pppp, g.rank(g.scalar_multiple(3, g.unrank(ppp)))),
            g.rank(g.scalar_multiple(3, g.unrank(pp))),
        )
        assert lhs3 == rhs3


def test_identity_suite_trivial_and_diagonal():
    T = trivial_brace([3, 27])
    rep = identity_suite(T)
    assert rep.passed
    assert rep.stage("theorem_stages").status == "skipped"
    assert rep.stage("rel_suite").status == "skipped"
    B = diagonal_brace_m2(3)
    repb = identity_suite(B)
    assert repb.passed
    assert repb.stage("rel_suite").status == "passed"
    assert repb.stage("ppn").status == "passed"


def test_discover_theorem_context():
    B = diagonal_brace_m2(3)
    ctx = discover_theorem_context(B)
    assert ctx is not None
    rep = theorem1_check(B, ctx.P, list(ctx.Qs), ctx.m)
    assert rep.hypotheses_passed
    A = diagonal_brace_m1(2)
    assert discover_theorem_context(A) is None  # no order <= p^m generator set covers


def test_find_g4_pair_matches_conjugation_convention():
    B = diagonal_brace_m2(3)
    pair = find_g4_pair(B)
    assert pair is not None
    P, Q = pair
    conj = B.circ_r(B.circ_r(B.circle.inv[Q], P), Q)
    assert conj == B.circle.pow_r(P, 1 + 9)
    assert find_g4_pair(diagonal_brace_m1(3)) is None


def test_pa_bound_examples():
    T = trivial_brace([4, 4])
    rep = pa_bound_check(T)
    assert rep.passed and rep.a_star_pa_order == 1
    A = diagonal_brace_m1(2)
    repa = pa_bound_check(A)
    assert repa.passed and repa.a_star_pa_order == 1 and repa.pa_central
    with pytest.raises(PreconditionMismatch):
        pa_bound_check(diagonal_brace_m2(3))


def test_left_class_bound_helper():
    assert left_class_at_most(trivial_brace([4, 4]), 2)
    assert left_class_at_most(diagonal_brace_m1(3), 5)
    assert not left_class_at_most(diagonal_brace_m1(3), 2)


def test_strong_finite_iff_left_and_right_finite(enumerated_braces):
    """Empirical cross-check of the known equivalence, over the whole
    enumerated corpus (which contains non-right-nilpotent braces)."""
    negatives = 0
    for b in enumerated_braces:
        left = series(b, "left").reaches_zero
        right = series(b, "right").reaches_zero
        strong = series(b, "strong").reaches_zero
        assert strong == (left and right), b.name
        if not strong:
            negatives += 1
    assert negatives >= 6  # the corpus genuinely exercises the negative side
