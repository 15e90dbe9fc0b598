"""Tests for series, certificates, the theorem pipeline, and identity stages."""

from __future__ import annotations

import itertools
import random
from math import comb, prod

import pytest

from bracelab.abelian import abelian_basis, multiples_subgroup
from bracelab import nilpotency
from bracelab.brace import trivial_brace
from bracelab.constructions import diagonal_brace_m1, diagonal_brace_m2
from bracelab.enumeration import enumerate_braces
from bracelab.nilpotency import (
    InputShapeMismatch,
    PreconditionMismatch,
    SuiteScope,
    _coverage,
    annihilator_certificate,
    certify_right_nilpotent,
    discover_theorem_context,
    find_g4_pair,
    identity_suite,
    left_class_at_most,
    p4_shape,
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
        assert [len(t) for t in res.chain] == [16, 1]


def test_series_diagonal_chains():
    A = diagonal_brace_m1(2)
    right = series(A, "right")
    assert right.nilpotency_class == 3
    assert {A.element(r) for r in right.chain[1]} == {(0, 0), (2, 0)}
    left = series(A, "left")
    assert left.nilpotency_class == 3
    assert {A.element(r) for r in left.chain[1]} == {(0, 0), (2, 0)}
    strong = series(A, "strong")
    assert strong.nilpotency_class is not None


def test_series_chain_descends_and_strong_dominates():
    for brace in (diagonal_brace_m1(3), diagonal_brace_m2(3)):
        left = series(brace, "left")
        right = series(brace, "right")
        strong = series(brace, "strong")
        for res in (left, right, strong):
            for prev, nxt in zip(res.chain, res.chain[1:]):
                assert nxt <= prev
        depth = max(len(left.chain), len(right.chain), len(strong.chain))
        for i in range(1, depth + 1):
            assert left.term(i) <= strong.term(i)
            assert right.term(i) <= strong.term(i)


def test_center_star_examples():
    T = trivial_brace([2, 8])
    assert T.circle.center == frozenset(range(16))
    A = diagonal_brace_m1(2)
    assert {A.element(c) for c in A.circle.center} == {(0, 0), (2, 0), (0, 2), (2, 2)}
    B = diagonal_brace_m2(3)
    assert B.rank((0, 9)) in B.circle.center


def test_every_set_of_ranks_is_a_frozenset():
    A = diagonal_brace_m1(2)
    full = range(A.order)
    chains = [t for kind in ("left", "right", "strong") for t in series(A, kind).chain]
    sets = [
        A.subset_star(full, [1, 2]),
        A.ideal_generated((2, 0)),
        *chains,
        socle(A),
        right_annihilated(A),
        multiples_subgroup(A.group, 2),
        A.circle.center,
        A.circle.derived,
        annihilator_certificate(A).ideal_ranks,
    ]
    assert [type(s) for s in sets] == [frozenset] * len(sets)


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
    assert certa.ideal_ranks <= socle(A) & right_annihilated(A)
    B = diagonal_brace_m2(3)
    certb = annihilator_certificate(B)
    # smallest-rank candidate; (0, 9) is also in the candidate set
    assert certb.element == (0, 3)
    assert B.rank((0, 9)) in B.circle.center


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


def test_each_identity_stage_is_named_once():
    # the all-P ppn stage covers the context's P, whose ppn is a theorem1 stage only
    B = diagonal_brace_m2(3)
    names = [s.name for s in identity_suite(B).stages]
    assert len(names) == len(set(names)) and "ppn" in names
    ctx = discover_theorem_context(B)
    stages = theorem1_check(B, ctx.P, list(ctx.Qs), ctx.m).stages
    assert [s.name for s in stages] == ["ppn", "prop1", "cor1", "prop2", "np2pp", "negpow", "final_lemma"]


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


def _circle_powers(brace, x):
    """[x^0, x^1, ...] up to the circle order of x, by repeated right products."""
    powers = [0]
    for _ in range(brace.circle.element_orders[x] - 1):
        powers.append(brace.circ_r(powers[-1], x))
    return powers


def _coverage_by_hand(brace, P, q_ranks):
    """Reference for _coverage: grow {q_perm0^c0 o q_perm1^c1 ...} factor by
    factor as a set, then put the powers of P in front."""
    n = brace.order
    per_ordering = {}
    union = set()
    for perm in itertools.permutations(range(len(q_ranks))):
        words = {0}
        for idx in perm:
            q = q_ranks[idx]
            new = set()
            for w in words:
                acc = w
                for _ in range(brace.circle.element_orders[q]):
                    new.add(acc)
                    acc = brace.circ_r(acc, q)
            words = new
        reached = {brace.circ_r(pk, w) for pk in _circle_powers(brace, P) for w in words}
        per_ordering[",".join(str(i) for i in perm)] = len(reached) == n
        union |= reached
    return len(union) == n, per_ordering


def _assert_coverage_matches(brace, pair_samples):
    p, m = p4_shape(brace)
    small = [q for q in range(1, brace.order) if brace.circle.element_orders[q] <= p ** m]
    calls = [(P, [q]) for P in range(brace.order) for q in small]
    rng = random.Random(brace.order * 31 + m)
    pairs = list(itertools.combinations(small, 2))
    calls += [(rng.randrange(brace.order), list(qs)) for qs in rng.sample(pairs, min(pair_samples, len(pairs)))]
    covered = 0
    for P, qs in calls:
        got = _coverage(brace, P, qs)
        want = _coverage_by_hand(brace, P, qs)
        assert got[0] == want[0] and list(got[1].items()) == list(want[1].items()), (brace.name, P, qs)
        covered += got[0]
    return covered


@pytest.mark.parametrize("make", [diagonal_brace_m1, diagonal_brace_m2])
@pytest.mark.parametrize("p", [2, 3])
def test_coverage_matches_the_hand_built_word_sets(make, p):
    covered = _assert_coverage_matches(make(p), pair_samples=200)
    assert (covered > 0) == (make is diagonal_brace_m2)  # no small Q-set covers on m = 1


def test_coverage_matches_the_hand_built_word_sets_on_c4xc4(enumerated_braces):
    c4c4 = [b for b in enumerated_braces if b.moduli == (4, 4)]
    assert len(c4c4) == 83 and all(p4_shape(b) == (2, 1) for b in c4c4)
    assert sum(_assert_coverage_matches(b, pair_samples=10) for b in c4c4) > 0


def _g4_pair_by_hand(brace):
    """Reference for find_g4_pair: the same search, with {Q^c o P^k} built by
    hand from the powers of Q and P."""
    p = p4_shape(brace)[0]
    circle = brace.circle
    orders = circle.element_orders
    for P in (r for r in range(1, brace.order) if orders[r] == p ** 3):
        for Q in (r for r in range(1, brace.order) if orders[r] == p):
            if brace.circ_r(brace.circ_r(circle.inv[Q], P), Q) != circle.pow_r(P, 1 + p * p):
                continue
            words = {brace.circ_r(qc, pk) for qc in _circle_powers(brace, Q) for pk in _circle_powers(brace, P)}
            if len(words) == brace.order:
                return P, Q
    return None


def test_find_g4_pair_fills_the_group(builtin_corpus, enumerated_braces):
    found = 0
    c2xc8 = enumerate_braces((2, 8)).representatives
    assert len(c2xc8) == 66
    for brace in [*builtin_corpus, *enumerated_braces, *c2xc8]:
        shape = p4_shape(brace)
        pair = find_g4_pair(brace)
        if shape is not None and shape[1] == 2 and brace.order <= 81:
            assert pair == _g4_pair_by_hand(brace), brace.name
        if pair is None:
            continue
        p, (P, Q) = shape[0], pair
        spow = brace.circle.pow_r
        words = {brace.circ_r(spow(Q, c), spow(P, k)) for c in range(p) for k in range(p ** 3)}
        assert words == set(range(brace.order)), brace.name
        found += 1
    assert found == 9  # diagonal-m2 at p = 2, 3 and 5, and 6 classes on C2 x C8


def test_quotient_bases_span_each_quotient(builtin_corpus, enumerated_braces, monkeypatch):
    """Every abelian_basis that certify_right_nilpotent's quotients ask for has
    elements of the stated orders whose sums reach each coset exactly once."""
    seen = []

    def recording_basis(group):
        basis = abelian_basis(group)
        seen.append((group, basis))
        return basis

    monkeypatch.setattr("bracelab.brace.abelian_basis", recording_basis)
    for brace in [*builtin_corpus, *enumerated_braces]:
        certify_right_nilpotent(brace)
    assert len(seen) > len(builtin_corpus)
    for group, basis in seen:
        assert prod(d for _, d in basis) == group.order
        assert all(group.element_orders[g] == d for g, d in basis)
        span = set()
        for coeffs in itertools.product(*(range(d) for _, d in basis)):
            acc = 0
            for (g, _), c in zip(basis, coeffs):
                for _ in range(c):
                    acc = group.mul_r(acc, g)
            span.add(acc)
        assert span == set(range(group.order))


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


# -- failure paths -------------------------------------------------------------------


def _theorem_setup(b):
    """(P, p^m, P^{p^m}, P*P, P*(P*P)) of the discovered context, as ranks."""
    ctx = discover_theorem_context(b)
    P, pm = b.rank(ctx.P), ctx.p ** ctx.m
    pp = b.star_r(P, P)
    return P, pm, b.circle.pow_r(P, pm), pp, b.star_r(P, pp)


def _window(b, P):
    order = b.circle.element_orders[P]
    return range(-order, order + 1)


def _ppn_holds(b):
    g, star, circle = b.group, b.star_r, b.circle
    for P in range(b.order):
        pp = star(P, P)
        ppp = star(P, pp)
        pppp = star(P, ppp)
        for nn in range(2 * circle.element_orders[P] + 1):
            terms = (g.scalar_rank(comb(nn, 3), pppp), g.scalar_rank(comb(nn, 2), ppp), g.scalar_rank(nn, pp))
            yield star(P, circle.pow_r(P, nn)) == g.add_rank(g.add_rank(terms[0], terms[1]), terms[2])


def _prop1_holds(b):
    g, star = b.group, b.star_r
    P, pm, p_pm, pp, ppp = _theorem_setup(b)
    yield g.scalar_rank(pm, pp) in series(b, "left").term(3)
    yield star(P, p_pm) == g.add_rank(g.scalar_rank(comb(pm, 2), ppp), g.scalar_rank(pm, pp))


def _cor1_holds(b):
    P, pm, p_pm, _, ppp = _theorem_setup(b)
    yield b.group.scalar_rank(pm, ppp) == b.star_r(P, b.star_r(P, p_pm))


def _prop2_holds(b):
    g, star = b.group, b.star_r
    P, pm, p_pm, _, ppp = _theorem_setup(b)
    assert p_pm == g.scalar_rank(pm, P)  # the window is scanned
    for nn in _window(b, P):
        t1 = g.scalar_rank(pm, star(P, star(P, b.circle.pow_r(P, nn))))
        yield t1 == g.scalar_rank(nn * pm, ppp) and t1 == 0


def _np2pp_holds(b):
    g = b.group
    P, pm, _, pp, _ = _theorem_setup(b)
    for nn in _window(b, P):
        yield g.scalar_rank(pm, b.star_r(P, b.circle.pow_r(P, nn))) == g.scalar_rank(nn * pm, pp)


def _negpow_holds(b):
    g = b.group
    P, pm, _, _, _ = _theorem_setup(b)
    yield g.scalar_rank(pm, b.circle.inv[P]) == g.neg_rank[g.scalar_rank(pm, P)]


def _final_lemma_holds(b):
    P, pm, _, _, _ = _theorem_setup(b)
    for a in range(b.order):
        yield b.star_r(P, b.group.scalar_rank(pm, a)) == 0


def _commuting_powers_holds(b):
    star, orders = b.star_r, b.circle.element_orders
    done = set()
    for c in range(b.order):
        if c in done:
            continue
        powers = [b.circle.pow_r(c, k) for k in range(orders[c])]
        done.update(x for x in powers if orders[x] == orders[c])
        for x in powers:
            for y in powers:
                if x < y:
                    for a in b.group.unit_ranks:
                        yield star(x, star(y, a)) == star(y, star(x, a))


def _rel_suite_holds(b):
    g, star, pw = b.group, b.star_r, b.circle.pow_r
    (P, Q), p, n = find_g4_pair(b), p4_shape(b)[0], b.order
    for nn in range(p**3):
        pn = pw(P, nn)
        for cc in range(p):
            qc = pw(Q, cc)
            pk = pw(P, (1 + cc * p * p) * nn)
            yield star(pn, qc) == g.add_rank(g.add_rank(star(qc, pk), pk), g.neg_rank[pn])
            pk = pw(P, nn * (1 - cc * p * p))
            yield star(qc, pn) == g.add_rank(g.add_rank(star(pk, qc), g.neg_rank[pn]), pk)
    for cc in range(p):
        qc = pw(Q, cc)
        for d in range(n):
            yield star(pw(P, p), star(qc, d)) == star(qc, star(pw(P, p), d))


def _wrong_pair(b, stage):
    """The pair at which star_r is made wrong to fail the stage."""
    P, pm, p_pm, _, _ = _theorem_setup(b)
    if stage == "ppn":
        return P, b.circle.pow_r(P, 3)
    if stage in ("prop1", "cor1"):
        return P, p_pm if stage == "prop1" else b.star_r(P, p_pm)
    if stage == "prop2":
        return P, b.star_r(P, b.circle.pow_r(P, 5))
    if stage == "np2pp":
        return P, b.circle.pow_r(P, -4)
    if stage == "final_lemma":
        return P, b.group.scalar_rank(pm, b.group.unit_ranks[-1])
    if stage == "commuting_powers":
        x, y = sorted(b.circle.pow_r(P, k) for k in (1, 2))
        return x, b.star_r(y, b.group.unit_ranks[-1])
    assert stage == "rel_suite"
    P4, Q4 = find_g4_pair(b)
    return b.circle.pow_r(P4, 2), Q4


FAILURE_STAGES = {
    "ppn": _ppn_holds,
    "prop1": _prop1_holds,
    "cor1": _cor1_holds,
    "prop2": _prop2_holds,
    "np2pp": _np2pp_holds,
    "negpow": _negpow_holds,
    "final_lemma": _final_lemma_holds,
    "commuting_powers": _commuting_powers_holds,
    "rel_suite": _rel_suite_holds,
}


@pytest.mark.parametrize("stage", list(FAILURE_STAGES))
def test_a_failed_stage_counts_its_failing_check_and_has_a_witness(stage, monkeypatch):
    """star_r is made wrong at one pair (negpow: the circle inverse at P), and
    each stage fails at the first check a plain loop finds false: ``checks``
    is that check's 1-based position, and the stage carries a witness."""
    b = diagonal_brace_m2(3)
    series(b, "left"), discover_theorem_context(b)  # cached before star_r goes wrong
    g = b.group
    e = g.unit_ranks[-1]  # of order p^3, so p^m e != 0
    if stage == "negpow":
        P = b.rank(discover_theorem_context(b).P)
        inv = list(b.circle.inv)
        inv[P] = g.add_rank(inv[P], e)
        monkeypatch.setattr(b.circle, "inv", inv)
    else:
        pair = _wrong_pair(b, stage)
        right = b.star_r

        def star_r(x, y):
            out = right(x, y)
            return g.add_rank(out, e) if (x, y) == pair else out

        monkeypatch.setattr(b, "star_r", star_r)

    position = 0
    for holds in FAILURE_STAGES[stage](b):
        position += 1
        if not holds:
            break
    else:
        pytest.fail(f"no check of {stage} fails")
    result = identity_suite(b).stage(stage)
    assert (result.status, result.checks) == ("failed", position)
    assert result.witness is not None
    if stage in ("cor1", "negpow", "prop1"):  # the two sides, as elements (prop1: of its check 2)
        lhs, rhs = result.witness
        assert lhs in g.elements and rhs in g.elements and lhs != rhs


def test_an_unknown_stage_is_refused_before_any_stage_runs(monkeypatch):
    def ran(brace):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(nilpotency, "_stage_ppn", ran)
    with pytest.raises(ValueError, match="unknown stage 'bogus'"):
        identity_suite(diagonal_brace_m2(3), SuiteScope(stages=("ppn", "bogus")))
