"""Tests for the brace core: validation, operations, ideals, isomorphism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracelab.abelian import AbelianGroup, NotBijective, group_closure, perm_inverse, validate_automorphism
from bracelab.brace import (
    BadLambdaZero,
    CocycleViolation,
    NotAnIdeal,
    NotAutomorphism,
    brace_report,
    is_isomorphic,
    quotient_brace,
    trivial_brace,
    validate_brace,
)
from bracelab.constructions import diagonal_brace_m1, diagonal_brace_m2
from bracelab.fileformat import save_brace
from bracelab.nilpotency import series


def diag44_columns():
    g = AbelianGroup([4, 4])
    return g, [[(pow(3, b, 4), 0), (0, 1)] for (a, b) in g.elements]


def test_validate_trivial_table():
    g = AbelianGroup([4, 4])
    table = [[(1, 0), (0, 1)] for _ in range(16)]
    brace = validate_brace(g, table)
    assert brace.star((1, 2), (3, 1)) == (0, 0)


def test_validate_diagonal_family():
    g, table = diag44_columns()
    brace = validate_brace(g, table)
    assert brace.order == 16


def test_validate_rejects_bad_lambda_zero():
    g = AbelianGroup([4, 4])
    table = [[(1, 0), (0, 1)] for _ in range(16)]
    table[0] = [(3, 0), (0, 3)]
    with pytest.raises(BadLambdaZero):
        validate_brace(g, table)


def test_validate_rejects_broken_cocycle_with_witness():
    g, table = diag44_columns()
    table[g.rank((0, 2))] = [(0, 1), (1, 0)]  # swap map: valid automorphism, wrong cocycle
    with pytest.raises(CocycleViolation) as exc:
        validate_brace(g, table)
    a, b = exc.value.witness
    assert a in g.elements and b in g.elements


def test_validate_raises_first_violation_with_cause():
    g = AbelianGroup([4, 4])
    table = [[(1, 0), (0, 1)] for _ in range(16)]
    table[0] = [(3, 0), (0, 3)]  # valid automorphism, but lambda_0 != id
    table[5] = [(1, 0), (1, 0)]  # not a bijection
    with pytest.raises(NotAutomorphism) as exc:
        validate_brace(g, table)
    assert exc.value.rank == 5
    assert isinstance(exc.value.__cause__, NotBijective)
    report = brace_report(g, table)
    assert [kind for kind, _ in report.violations] == ["NotAutomorphism", "BadLambdaZero"]
    assert report.violations[0][1] == (5, str(exc.value.__cause__))
    assert report.checks == 16  # no cocycle scan


def test_brace_report_collects_violations():
    g, table = diag44_columns()
    table[g.rank((0, 2))] = [(0, 1), (1, 0)]
    report = brace_report(g, table)
    assert not report.passed
    assert report.violations[0][0] == "CocycleViolation"
    assert report.checks == 16 + 16 * 16
    good = brace_report(*diag44_columns())
    assert good.passed and not good.violations
    assert good.checks == 16 + 16 * 16


def test_star_circ_examples():
    A = diagonal_brace_m1(2)
    assert A.star((0, 1), (1, 0)) == (2, 0)
    assert A.circ((0, 1), (1, 0)) == (3, 1)
    assert A.circ_inverse((0, 1)) == (0, 3)
    T = trivial_brace([4, 4])
    assert T.star((1, 2), (3, 3)) == (0, 0)
    B = diagonal_brace_m2(3)
    assert B.star((1, 0), (0, 1)) == (0, 9)
    assert B.circ_power((0, 1), 9) == (0, 9)


def test_star_circ_consistency():
    B = diagonal_brace_m2(2)
    g = B.group
    for a in g.elements:
        for b in g.elements:
            assert B.circ(a, b) == g.add(g.add(B.star(a, b), a), b)


def test_circle_product_is_not_bound_to_the_brace():
    # a bound method would make brace -> circle -> brace a reference cycle
    B = diagonal_brace_m1(3)
    assert not hasattr(B.circle.mul_r, "__self__")
    assert B.circ_r is B.circle.mul_r


def test_a_saved_brace_builds_no_addition_table(tmp_path):
    # the n^2 addition table is bound on the first product, not on construction
    B = trivial_brace([25, 25])
    save_brace(B, tmp_path / "trivial.json")
    assert "add_flat" not in vars(B.group)
    assert B.star_r(7, 9) == 0 and B.circ_r(7, 9) == B.group.add_rank(7, 9)
    assert "add_flat" in vars(B.group)


def test_circ_inverse_and_powers():
    B = diagonal_brace_m2(3)
    for r in range(0, B.order, 7):
        a = B.element(r)
        assert B.circ(a, B.circ_inverse(a)) == B.group.zero
        o = B.circ_order(a)
        assert B.circ_power(a, o) == B.group.zero
        assert B.circ_power(a, -3) == B.circ_inverse(B.circ_power(a, 3))


def test_commutator_examples():
    T = trivial_brace([4, 4])
    assert T.commutator((1, 2), (3, 1)) == (0, 0)
    B = diagonal_brace_m2(3)
    assert B.commutator((0, 1), (0, 1)) == (0, 0)
    c = B.commutator((0, 1), (1, 0))
    assert c == (0, 18)
    assert B.rank(c) in series(B, "left").term(2)


def test_commutators_land_in_star_span():
    for brace in (diagonal_brace_m1(2), diagonal_brace_m2(2)):
        span = series(brace, "left").term(2)
        for a in range(brace.order):
            for b in range(brace.order):
                ea, eb = brace.element(a), brace.element(b)
                assert brace.rank(brace.commutator(ea, eb)) in span


def test_star_right_distributive_exhaustive():
    B = diagonal_brace_m2(2)
    g = B.group
    add = g.add_rank
    for a in range(B.order):
        for b in range(B.order):
            for c in range(B.order):
                assert B.star_r(a, add(b, c)) == add(B.star_r(a, b), B.star_r(a, c))


def test_star_scalar_and_circ_expansion():
    B = diagonal_brace_m1(3)
    g = B.group
    for a in range(0, B.order, 5):
        for b in range(0, B.order, 7):
            for n in (-2, 0, 3, 10):
                lhs = B.star_r(a, g.rank(g.scalar_multiple(n, g.unrank(b))))
                rhs = g.rank(g.scalar_multiple(n, g.unrank(B.star_r(a, b))))
                assert lhs == rhs
            for c in range(0, B.order, 11):
                lhs = B.star_r(a, B.circ_r(b, c))
                rhs_parts = (B.star_r(a, B.star_r(b, c)), B.star_r(a, b), B.star_r(a, c))
                rhs = g.add_rank(g.add_rank(rhs_parts[0], rhs_parts[1]), rhs_parts[2])
                assert lhs == rhs


def test_lambda_multiplicativity():
    B = diagonal_brace_m2(3)
    for a in range(0, B.order, 4):
        for b in range(0, B.order, 4):
            first, second = B.perms[B.lambda_ids[a]], B.perms[B.lambda_ids[b]]
            assert B.perms[B.lambda_ids[B.circ_r(a, b)]] == tuple(first[x] for x in second)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_star_distributivity_property(data):
    brace = data.draw(st.sampled_from([diagonal_brace_m1(2), diagonal_brace_m2(3), trivial_brace([2, 8])]))
    n = brace.order
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    add = brace.group.add_rank
    assert brace.star_r(a, add(b, c)) == add(brace.star_r(a, b), brace.star_r(a, c))


def test_subset_star_examples():
    A = diagonal_brace_m1(2)
    g = A.group
    assert A.subset_star([0], range(16)) == {0}
    assert {g.unrank(r) for r in A.subset_star(range(16), range(16))} == {(0, 0), (2, 0)}
    B = diagonal_brace_m2(3)
    assert {B.element(r) for r in series(B, "left").term(2)} == {(0, 0), (0, 9), (0, 18)}


def test_ideal_generated_examples():
    A = diagonal_brace_m1(2)
    assert {A.element(r) for r in A.ideal_generated((2, 0))} == {(0, 0), (2, 0)}
    assert A.ideal_generated((0, 0)) == {0}
    T = trivial_brace([4, 4])
    assert {T.element(r) for r in T.ideal_generated((1, 0))} == {(0, 0), (1, 0), (2, 0), (3, 0)}


def test_quotient_examples():
    A = diagonal_brace_m1(2)
    q0, _ = quotient_brace(A, A.ideal_generated((0, 0)))
    assert q0.order == 16
    assert is_isomorphic(A, q0) is not None
    q_full, _ = quotient_brace(A, frozenset(range(16)))
    assert q_full.order == 1
    mid, _ = quotient_brace(A, A.ideal_generated((2, 0)))
    assert mid.order == 8


def test_quotient_rejects_non_ideal():
    A = diagonal_brace_m1(2)
    # additively closed and lambda-invariant, but (0,1)*(1,0) = (2,0) escapes
    bad = group_closure(A.group.add_rank, [A.rank((0, 1))])
    assert not A.is_ideal(bad)
    with pytest.raises(NotAnIdeal):
        quotient_brace(A, bad)


def test_is_isomorphic_identity_and_negative():
    A = diagonal_brace_m1(2)
    T = trivial_brace([4, 4])
    assert is_isomorphic(A, A) is not None
    assert is_isomorphic(T, A) is None
    assert is_isomorphic(T, trivial_brace([2, 8])) is None


def test_is_isomorphic_recovers_relabeling():
    A = diagonal_brace_m1(2)
    g = A.group
    phi = validate_automorphism(g, [(1, 2), (0, 3)])
    inv = perm_inverse(phi)
    # conjugate lambda table: lambda'_a = phi . lambda_{phi^-1(a)} . phi^-1
    table = []
    for r in range(16):
        cols = []
        for gen in [(1, 0), (0, 1)]:
            x = g.unrank(phi[A.lam_r(inv[r], inv[g.rank(gen)])])
            cols.append(x)
        table.append(cols)
    relabeled = validate_brace(g, table)
    mapping = is_isomorphic(A, relabeled)
    assert mapping is not None
    for a in g.elements:
        for b in g.elements:
            assert mapping[A.circ(a, b)] == relabeled.circ(mapping[a], mapping[b])
            assert mapping[g.add(a, b)] == g.add(mapping[a], mapping[b])


def test_brace_equality_and_roundtrip_of_columns():
    A = diagonal_brace_m1(2)
    g, table = diag44_columns()
    again = validate_brace(g, table)
    assert A == again
