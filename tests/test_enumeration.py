"""Tests for exhaustive enumeration and the holomorph oracle."""

from __future__ import annotations

import pytest

from functools import cache
from math import prod

from bracelab.abelian import (
    AbelianGroup,
    StructuralAnomaly,
    all_automorphisms,
    aut_order,
    perm_inverse,
    perm_order,
    prime_power,
)
from bracelab.brace import Brace, brace_report, is_isomorphic, trivial_brace
from bracelab import enumeration
from bracelab.enumeration import (
    EnumerationResult,
    GuardExceeded,
    enumerate_braces,
    holomorph_count_oracle,
    sylow_subgroup,
)


def _apply(group, cols, e):
    """The additive map with these columns (images of the e_j), applied to a coordinate tuple."""
    img = group.zero
    for coeff, col in zip(e, cols):
        img = group.add(img, group.scalar_multiple(coeff, col))
    return img


def _pairwise_reference(moduli):
    """The same search with a full fixed-point closure at every node and a
    pairwise ``is_isomorphic`` dedupe, as a reference for the orbit marking.

    Automorphisms are composed as columns of coordinate tuples.  Returns the
    representative tables, the class sizes and the node count.
    """
    group = AbelianGroup(moduli)
    perms = all_automorphisms(group)
    n = group.order
    columns = [tuple(group.unrank(p[u]) for u in group.unit_ranks) for p in perms]
    index = {cols: i for i, cols in enumerate(columns)}

    @cache
    def compose(i, j):
        return index[tuple(_apply(group, columns[i], c) for c in columns[j])]

    def close(assign):
        changed = True
        while changed:
            changed = False
            known = [x for x in range(n) if assign[x] >= 0]
            for x in known:
                for y in known:
                    c = group.add_rank(x, perms[assign[x]][y])
                    want = compose(assign[x], assign[y])
                    if assign[c] < 0:
                        assign[c] = want
                        changed = True
                    elif assign[c] != want:
                        return False
        return True

    tables, nodes = [], 0

    def dfs(assign):
        nonlocal nodes
        nodes += 1
        if -1 not in assign:
            tables.append(assign)
            return
        u = assign.index(-1)
        for cand in range(len(perms)):
            trial = list(assign)
            trial[u] = cand
            if close(trial):
                dfs(trial)

    start = [-1] * n
    start[0] = index[tuple(group.unrank(u) for u in group.unit_ranks)]
    if close(start):
        dfs(start)

    reps, sizes = [], []
    for table in tables:
        b = Brace(group, table, perms)
        for i, r in enumerate(reps):
            if is_isomorphic(b, r) is not None:
                sizes[i] += 1
                break
        else:
            reps.append(b)
            sizes.append(1)
    return [r.lambda_ids for r in reps], sizes, nodes


@pytest.mark.parametrize(
    "moduli,tables,classes",
    [((2,), 1, 1), ((3,), 1, 1), ((4,), 2, 2), ((2, 2), 4, 2)],
)
def test_small_counts(enumerations, moduli, tables, classes):
    res = enumerations[moduli]
    assert res.total_tables == tables
    assert res.isomorphism_classes == classes
    assert sum(res.class_sizes) == res.total_tables


@pytest.mark.parametrize("moduli", [(2,), (3,), (4,), (2, 2), (8,), (9,), (2, 4), (3, 3)])
def test_oracle_agreement(enumerations, moduli):
    res = enumerations[moduli]
    orc = holomorph_count_oracle(moduli)
    assert orc.regular_subgroups == res.total_tables
    assert orc.aut_conjugacy_classes == res.isomorphism_classes


SYLOW_NODES = {(2, 8): 205, (2, 2, 2): 55, (2, 4): 41, (3, 3): 7}


@pytest.mark.parametrize("moduli", list(SYLOW_NODES))
def test_orbit_classes_match_pairwise_reference(moduli):
    res = enumerate_braces(moduli)
    reps, sizes, nodes = _pairwise_reference(moduli)
    assert [b.lambda_ids for b in res.representatives] == reps
    assert list(res.class_sizes) == sizes
    # the search branches over a Sylow subgroup of Aut, the reference over all of Aut
    assert res.nodes_explored == SYLOW_NODES[moduli] <= nodes
    assert [b.name for b in res.representatives] == [f"enum{moduli}-{i:03d}" for i in range(len(reps))]


def _full_aut_reference(moduli):
    """The search over all of Aut(A,+) with first-table orbit marking: each
    table not yet in a known orbit, in search order, is the next
    representative.  Returns the representative tables and the class sizes."""
    group = AbelianGroup(moduli)
    perms = all_automorphisms(group)
    n, k = group.order, len(perms)
    index = {q: i for i, q in enumerate(perms)}

    @cache
    def compose(i, j):
        return index[tuple(perms[i][x] for x in perms[j])]

    def close(assign, known, todo):
        while todo:
            x = todo.pop()
            for y in known:
                for s, t in ((x, y), (y, x)):
                    c = group.add_rank(s, perms[assign[s]][t])
                    want = compose(assign[s], assign[t])
                    if assign[c] < 0:
                        assign[c] = want
                        known.append(c)
                        todo.append(c)
                    elif assign[c] != want:
                        return False
        return True

    tables = []

    def dfs(assign, known):
        if -1 not in assign:
            tables.append(tuple(assign))
            return
        u = assign.index(-1)
        for cand in range(k):
            trial, trial_known = list(assign), known + [u]
            trial[u] = cand
            if close(trial, trial_known, [u]):
                dfs(trial, trial_known)

    start = [-1] * n
    start[0] = index[tuple(range(n))]
    if close(start, [0], [0]):
        dfs(start, [0])

    reps, sizes, marked = [], [], set()
    for table in tables:
        if table in marked:
            continue
        orbit = set()
        for alpha in range(k):
            ia = index[perm_inverse(perms[alpha])]
            conj = [0] * n
            for a in range(n):
                conj[perms[alpha][a]] = compose(compose(alpha, table[a]), ia)
            orbit.add(tuple(conj))
        marked |= orbit
        reps.append(list(table))
        sizes.append(len(orbit))
    return reps, sizes


@pytest.mark.parametrize("moduli", [(2, 2, 2), (3, 9), (4, 4), (2, 2, 4), (5, 5), (2, 6)])
def test_sylow_search_matches_full_aut_search(enumerations, moduli):
    res = enumerations[moduli] if moduli in enumerations else enumerate_braces(moduli, max_order=27)
    reps, sizes = _full_aut_reference(moduli)
    assert [b.lambda_ids for b in res.representatives] == reps
    assert [b.name for b in res.representatives] == [f"enum{moduli}-{i:03d}" for i in range(len(reps))]
    assert list(res.class_sizes) == sizes
    assert res.total_tables == sum(sizes)
    pp = prime_power(prod(moduli))
    if pp is None:
        return
    p = pp[0]
    perms = all_automorphisms(AbelianGroup(moduli))
    index = {q: i for i, q in enumerate(perms)}
    sylow = sylow_subgroup(perms, p)
    members = set(sylow)
    assert sylow == sorted(members)
    assert all(index[tuple(perms[i][x] for x in perms[j])] in members for i in sylow for j in sylow)
    assert all(_p_part(perm_order(perms[i]), p) == perm_order(perms[i]) for i in sylow)
    assert len(sylow) == _p_part(len(perms), p)


def _p_part(m, p):
    out = 1
    while m % p == 0:
        m //= p
        out *= p
    return out


def test_order_16_noncyclic_counts(enumerations):
    aut_counts = {(4, 4): 96, (2, 2, 4): 192}
    for moduli, tables, classes in (((4, 4), 880, 83), ((2, 2, 4), 3152, 161)):
        res = enumerations[moduli] if moduli in enumerations else enumerate_braces(moduli)
        assert (res.total_tables, res.isomorphism_classes) == (tables, classes)
        assert sum(res.class_sizes) == tables
        aut = len(all_automorphisms(AbelianGroup(moduli)))
        assert aut == aut_counts[moduli]
        assert all(aut % size == 0 for size in res.class_sizes)


@pytest.mark.slow
def test_order_16_census(enumerations):
    """Every brace on the five additive groups of order 16: 357 classes
    (Guarnieri and Vendramin, Math. Comp. 2017)."""
    expected = {(16,): 8, (2, 8): 66, (4, 4): 83, (2, 2, 4): 161, (2, 2, 2, 2): 39}
    results = {}
    for moduli in expected:
        res = enumerations.get(moduli) or enumerate_braces(moduli, force=True)
        assert all(aut_order(moduli) % size == 0 for size in res.class_sizes)
        results[moduli] = res
    assert {m: r.isomorphism_classes for m, r in results.items()} == expected
    assert sum(expected.values()) == 357
    assert results[(2, 2, 2, 2)].total_tables == 62_896


def test_result_counts_are_checked(enumerations):
    res = enumerations[(4,)]
    with pytest.raises(StructuralAnomaly, match="classes"):
        EnumerationResult(res.moduli, res.representatives, res.total_tables, 3, res.class_sizes, 0)
    with pytest.raises(StructuralAnomaly, match="class sizes sum"):
        EnumerationResult(res.moduli, res.representatives, 5, 2, res.class_sizes, 0)


def test_oracle_c4xc4():
    orc = holomorph_count_oracle((4, 4))
    assert (orc.regular_subgroups, orc.aut_conjugacy_classes) == (880, 83)


def test_oracle_structure():
    orc = holomorph_count_oracle((2, 2))
    assert orc.holomorph_order == 24  # C2^2 x| S3


def test_c4_representatives_are_the_known_pair(enumerations):
    res = enumerations[(4,)]
    ids = [[b.element(b.lam_r(b.rank((x,)), b.rank((1,)))) for x in range(4)] for b in res.representatives]
    # trivial table, then the doubling-ring pattern id, neg, id, neg
    assert ids[0] == [(1,), (1,), (1,), (1,)]
    assert ids[1] == [(1,), (3,), (1,), (3,)]


def test_representatives_pairwise_non_isomorphic(enumerations):
    reps = enumerations[(2, 2)].representatives + enumerations[(4,)].representatives
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            assert is_isomorphic(a, b) is None


def test_every_enumerated_brace_validates(enumerations):
    for res in enumerations.values():
        for b in res.representatives:
            report = brace_report(b.group, b.lambda_columns())
            assert report.passed


def test_trivial_is_always_found(enumerations):
    for moduli, res in enumerations.items():
        assert any(is_isomorphic(b, trivial_brace(moduli)) for b in res.representatives)


def test_determinism(enumerations):
    res1 = enumerations[(2, 4)]
    res2 = enumerate_braces((2, 4))
    assert [b.lambda_columns() for b in res1.representatives] == [
        b.lambda_columns() for b in res2.representatives
    ]
    assert res1.total_tables == res2.total_tables


def test_guard(monkeypatch):
    with pytest.raises(GuardExceeded):
        enumerate_braces((2, 2, 2, 2))
    with pytest.raises(GuardExceeded):
        enumerate_braces((32,))
    with pytest.raises(GuardExceeded):
        holomorph_count_oracle((32,))

    # the oracle's k x k composition table would hold 20160^2 entries for C2^4
    def unexpected(group):
        raise AssertionError(f"automorphisms of {group} listed before the oracle guard")

    monkeypatch.setattr(enumeration, "all_automorphisms", unexpected)
    with pytest.raises(GuardExceeded, match=r"^\|Aut\| = 20160 exceeds oracle guard 1000$"):
        holomorph_count_oracle((2, 2, 2, 2))


def test_aut_guard_refuses_before_listing_automorphisms(monkeypatch):
    def unexpected(group):
        raise AssertionError(f"automorphisms of {group} listed before the guard")

    monkeypatch.setattr(enumeration, "all_automorphisms", unexpected)
    with pytest.raises(GuardExceeded, match=r"^\|Aut\| = 20160 exceeds guard 1000; use force$"):
        enumerate_braces((2, 2, 2, 2))
    with pytest.raises(GuardExceeded, match=r"^\|Aut\| = 11232 exceeds guard 1000; use force$"):
        enumerate_braces((3, 3, 3), max_order=27)


def test_guard_force_override_small():
    res = enumerate_braces((17,), force=True)  # order 17 > 16 but Aut is tiny
    assert res.isomorphism_classes == 1
