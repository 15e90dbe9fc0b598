"""Tests for the abelian arithmetic layer."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracelab.abelian import (
    AbelianGroup,
    NotBijective,
    NotHomomorphism,
    TableGroup,
    abelian_basis,
    all_automorphisms,
    aut_order,
    group_closure,
    multiples_subgroup,
    primary_invariants,
    validate_automorphism,
)
from bracelab.brace import NotAutomorphism, validate_brace


@pytest.mark.parametrize(
    "moduli,coords,rank",
    [
        ([4, 4], (0, 0), 0),
        ([4, 4], (2, 1), 6),
        ([3, 27], (1, 2), 7),
        ([2, 3, 4], (1, 2, 3), 1 + 2 * 2 + 3 * 6),
    ],
)
def test_rank_examples(moduli, coords, rank):
    g = AbelianGroup(moduli)
    assert g.rank(coords) == rank
    assert g.unrank(rank) == coords


@pytest.mark.parametrize("moduli", [[4, 4], [3, 27], [2, 3, 4], [16], [2, 2, 2], [10, 1000]])
def test_rank_unrank_roundtrip_exhaustive(moduli):
    g = AbelianGroup(moduli)
    assert g.order <= 10_000
    for i in range(g.order):
        assert g.rank(g.unrank(i)) == i


def test_rank_errors():
    g = AbelianGroup([4, 4])
    with pytest.raises(IndexError):
        g.unrank(16)
    with pytest.raises(ValueError):
        g.rank((4, 0))


def test_scalar_multiple_examples():
    g = AbelianGroup([4, 4])
    assert g.scalar_multiple(2, (1, 3)) == (2, 2)
    assert g.scalar_multiple(0, (3, 3)) == (0, 0)
    assert g.scalar_multiple(-1, (1, 0)) == (3, 0)


@given(st.lists(st.integers(2, 9), min_size=1, max_size=4), st.data())
@settings(max_examples=60, deadline=None)
def test_rank_roundtrip_property(moduli, data):
    g = AbelianGroup(moduli)
    coords = tuple(data.draw(st.integers(0, d - 1)) for d in moduli)
    assert g.unrank(g.rank(coords)) == coords


@given(st.integers(-20, 20), st.data())
@settings(max_examples=60, deadline=None)
def test_scalar_componentwise_property(n, data):
    g = AbelianGroup([4, 6])
    a = tuple(data.draw(st.integers(0, d - 1)) for d in g.moduli)
    assert g.scalar_multiple(n, a) == tuple((n * x) % d for x, d in zip(a, g.moduli))


def _apply(g: AbelianGroup, perm: tuple[int, ...], e: tuple[int, ...]) -> tuple[int, ...]:
    """A rank permutation applied to a coordinate tuple."""
    return g.unrank(perm[g.rank(e)])


def test_validate_automorphism_accepts_identity():
    g = AbelianGroup([4, 4])
    phi = validate_automorphism(g, [(1, 0), (0, 1)])
    assert phi == tuple(range(g.order))


def test_validate_automorphism_diag():
    g = AbelianGroup([4, 4])
    phi = validate_automorphism(g, [(3, 0), (0, 1)])
    assert _apply(g, phi, (1, 0)) == (3, 0)
    assert _apply(g, phi, (1, 1)) == (3, 1)


def test_validate_automorphism_rejects_non_bijection():
    g = AbelianGroup([4, 4])
    with pytest.raises(NotBijective):
        validate_automorphism(g, [(2, 0), (0, 1)])


def test_validate_automorphism_rejects_order_violation():
    g = AbelianGroup([2, 4])
    with pytest.raises(NotHomomorphism):
        validate_automorphism(g, [(0, 1), (0, 1)])


@pytest.mark.parametrize(
    "moduli,columns",
    [([2], [(1, 5)]), ([2], [(1, 7, 7)]), ([2], [()]), ([4, 4], [(1, 0), (0,)]), ([4, 4], [(1, 0, 0), (0, 1)])],
)
def test_validate_automorphism_rejects_a_column_of_the_wrong_length(moduli, columns):
    # a column is not truncated or padded to k coordinates
    with pytest.raises(NotHomomorphism, match="coordinates, expected"):
        validate_automorphism(AbelianGroup(moduli), columns)


def test_validate_brace_rejects_over_long_columns():
    with pytest.raises(NotAutomorphism) as exc:
        validate_brace(AbelianGroup([2]), [[(1, 5)], [(1, 7, 7)]])
    assert exc.value.rank == 0 and isinstance(exc.value.__cause__, NotHomomorphism)


def test_automorphism_additivity_exhaustive():
    g = AbelianGroup([4, 4])
    for cols in ([(3, 0), (0, 1)], [(1, 2), (2, 1)], [(0, 1), (1, 0)]):
        phi = validate_automorphism(g, cols)
        for a in g.elements:
            for b in g.elements:
                assert _apply(g, phi, g.add(a, b)) == g.add(_apply(g, phi, a), _apply(g, phi, b))


def test_automorphism_additivity_sampled_above_81():
    import random

    g = AbelianGroup([25, 25])
    phi = validate_automorphism(g, [(7, 5), (0, 24)])
    rng = random.Random(0)
    for _ in range(100_000):
        a = g.unrank(rng.randrange(g.order))
        b = g.unrank(rng.randrange(g.order))
        assert _apply(g, phi, g.add(a, b)) == g.add(_apply(g, phi, a), _apply(g, phi, b))


def test_automorphism_compose_matches_pointwise():
    # the automorphism whose columns are f(h(e_j)) is f after h at every element
    g = AbelianGroup([2, 8])
    auts = all_automorphisms(g)
    assert len(auts) == 16
    f, h = auts[3], auts[7]
    fh = validate_automorphism(g, [_apply(g, f, _apply(g, h, e)) for e in [(1, 0), (0, 1)]])
    assert fh in auts
    for e in g.elements:
        assert _apply(g, fh, e) == _apply(g, f, _apply(g, h, e))


def _generated(g: AbelianGroup, elements) -> frozenset[int]:
    return group_closure(g.add_rank, [g.rank(e) for e in elements])


def test_subgroup_generated_examples():
    g = AbelianGroup([4, 4])
    assert _generated(g, []) == {0}
    assert {g.unrank(r) for r in _generated(g, [(2, 0)])} == {(0, 0), (2, 0)}
    assert len(_generated(g, [(1, 0), (0, 1)])) == 16


def test_subgroup_closed_under_add_and_neg():
    g = AbelianGroup([2, 8])
    sub = _generated(g, [(1, 2)])
    for x in sub:
        assert g.neg_rank[x] in sub
        for y in sub:
            assert g.add_rank(x, y) in sub


def test_multiples_subgroup_examples():
    g = AbelianGroup([4, 4])
    assert {g.unrank(r) for r in multiples_subgroup(g, 2)} == {(0, 0), (2, 0), (0, 2), (2, 2)}
    g2 = AbelianGroup([3, 27])
    assert {g2.unrank(r) for r in multiples_subgroup(g2, 9)} == {(0, 0), (0, 9), (0, 18)}
    assert len(multiples_subgroup(g, 1)) == 16


@pytest.mark.parametrize("p", [2, 3, 5])
def test_multiples_orders_on_p4_shapes(p):
    square = AbelianGroup([p * p, p * p])
    assert len(multiples_subgroup(square, p)) == p * p
    mixed = AbelianGroup([p, p ** 3])
    assert len(multiples_subgroup(mixed, p)) == p * p


def test_abelian_basis_recovers_invariant_factors():
    for moduli in ((4, 4), (2, 8), (3, 27), (2, 2, 4)):
        g = AbelianGroup(moduli)
        basis = abelian_basis(TableGroup(g.order, g.add_rank))
        assert sorted(d for _, d in basis) == sorted(moduli)


def test_primary_invariants():
    assert primary_invariants([6]) == primary_invariants([2, 3])
    assert primary_invariants([4, 4]) != primary_invariants([2, 8])


def _abelian_groups(n: int) -> list[tuple[int, ...]]:
    """One moduli tuple per abelian group of order n: partitions of each prime's exponent."""

    def partitions(e: int, most: int) -> list[list[int]]:
        if e == 0:
            return [[]]
        return [[k, *rest] for k in range(min(e, most), 0, -1) for rest in partitions(e - k, k)]

    per_prime = []
    m, f = n, 2
    while m > 1:
        e = 0
        while m % f == 0:
            m //= f
            e += 1
        if e:
            per_prime.append([[f ** k for k in part] for part in partitions(e, e)])
        f += 1
    return [tuple(sorted(d for part in combo for d in part)) for combo in itertools.product(*per_prime)]


@pytest.mark.parametrize(
    "moduli",
    [m for n in range(2, 17) for m in _abelian_groups(n)] + [(), (6,), (4, 2), (2, 6), (3, 9), (27,), (3, 3, 3)],
)
def test_aut_order_counts_the_automorphisms(moduli):
    g = AbelianGroup(moduli)
    auts = all_automorphisms(g)
    assert aut_order(moduli) == len(auts)
    # the enumeration's candidate order: strictly increasing in the unit-rank images
    units = g.unit_ranks
    images = [tuple(p[u] for u in units) for p in auts]
    assert all(x < y for x, y in zip(images, images[1:]))
    # each is a bijection with p[a + b] = p[a] + p[b]; b = e_j is enough, as
    # every b is a sum of unit ranks
    ranks = set(range(g.order))
    for p in auts:
        assert set(p) == ranks
        assert all(p[g.add_rank(a, e)] == g.add_rank(p[a], p[e]) for a in range(g.order) for e in units)


def test_trivial_group():
    g = AbelianGroup(())
    assert g.order == 1
    assert g.elements == [()]
    assert all_automorphisms(g) == [(0,)]
    assert validate_automorphism(g, []) == (0,)
