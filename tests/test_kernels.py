"""Generator- and row-level kernels against their n^2 definitions.

Each reference below is the direct full scan, kept here so that the kernels
in the package are checked against the definitions they replace: the same
sets, counts, witnesses and error texts.
"""

from __future__ import annotations

import random
from math import gcd

import pytest

from bracelab.abelian import (
    AbelianGroup,
    NotBijective,
    NotHomomorphism,
    Subgroup,
    TableGroup,
    group_closure,
    subgroup_closure,
    validate_automorphism,
)
from bracelab.brace import Brace, BraceError, _check_cocycle, brace_report, validate_brace
from bracelab.constructions import diagonal_brace_m1, diagonal_brace_m2
from bracelab.nilpotency import center_star, right_annihilated, series
from bracelab.pgroups import NONABELIAN_TAGS, GroupModel, build_model, fingerprint, verify_presentation_relations
from bracelab.ybe import solution_from_brace

# -- references --------------------------------------------------------------------


def ref_fingerprint(group: TableGroup) -> tuple:
    n, mul, inv = group.order, group.mul_r, group.inv
    hist: dict[int, int] = {}
    exponent = 1
    for o in group.element_orders:
        hist[o] = hist.get(o, 0) + 1
        exponent = exponent * o // gcd(exponent, o)
    abelian = all(mul(a, b) == mul(b, a) for a in range(n) for b in range(a + 1, n))
    center = sum(1 for c in range(n) if all(mul(c, a) == mul(a, c) for a in range(n)))
    comms = {mul(mul(inv[a], inv[b]), mul(a, b)) for a in range(n) for b in range(n)}
    derived = group_closure(mul, comms)
    return (n, abelian, exponent, tuple(sorted(hist.items())), center, len(derived))


def ref_subset_star(brace: Brace, xs, ys) -> Subgroup:
    return subgroup_closure(brace.group, {brace.star_r(x, y) for x in xs for y in ys})


def ref_right_annihilated(brace: Brace) -> frozenset[int]:
    n = brace.order
    return frozenset(c for c in range(n) if all(brace.star_r(a, c) == 0 for a in range(n)))


def ref_center_star(brace: Brace) -> frozenset[int]:
    n = brace.order
    return frozenset(c for c in range(n) if all(brace.star_r(c, a) == brace.star_r(a, c) for a in range(n)))


def ref_solution(brace: Brace) -> tuple[list[int], list[int]]:
    """u = lambda_x(y), v = u' o x o y."""
    n, circ, inv = brace.order, brace.circ_r, brace.circle.inv
    u = [brace.lam_r(x, y) for x in range(n) for y in range(n)]
    v = [circ(inv[u[x * n + y]], circ(x, y)) for x in range(n) for y in range(n)]
    return u, v


def ref_validation(group: AbelianGroup, table) -> tuple | None:
    """Every lambda in rank order, then lambda_0 = id, then all n^2 pairs in order."""
    lambdas = []
    for i, cols in enumerate(table):
        try:
            lambdas.append(validate_automorphism(group, cols))
        except (NotHomomorphism, NotBijective) as exc:
            return ("NotAutomorphism", f"lambda at rank {i}: {exc}", i, type(exc))
    if not lambdas[0].is_identity():
        return ("BadLambdaZero", "lambda at rank 0 must be the identity")
    n = group.order
    perms = [f.perm(group) for f in lambdas]
    for a in range(n):
        for b in range(n):
            c = group.add_rank(a, perms[a][b])
            if perms[c] != tuple(perms[a][x] for x in perms[b]):
                w = (group.unrank(a), group.unrank(b))
                return ("CocycleViolation", f"cocycle law fails at a={w[0]}, b={w[1]}", w)
    return None


def ref_associativity_checked(model: GroupModel) -> int:
    n, mul = model.order, model.mul_r
    checked = 0
    for a in range(n):
        for b in range(n):
            ab = mul(a, b)
            for c in range(n):
                checked += 1
                if mul(ab, c) != mul(a, mul(b, c)):
                    return checked
    return checked


# -- the braces --------------------------------------------------------------------


@pytest.fixture(scope="module")
def kernel_braces(enumerated_braces, small_corpus):
    return list(enumerated_braces) + [b for b in small_corpus if b.order == 81]


def test_corpus_holds_unused_automorphisms(kernel_braces):
    # right_annihilated must read the lambdas in use, not every listed automorphism
    assert any(len(set(b.lambda_ids)) < len(b.auts) for b in kernel_braces)
    assert sum(b.order == 81 for b in kernel_braces) == 4


def test_fingerprint_matches_full_scan(kernel_braces):
    for b in kernel_braces:
        fp = fingerprint(TableGroup(b.order, b.circ_r))
        got = (fp.order, fp.abelian, fp.exponent, fp.order_histogram, fp.center_order, fp.derived_order)
        assert got == ref_fingerprint(TableGroup(b.order, b.circ_r)), b.name


def _permutation_group(gens: list[tuple[int, ...]], seed: int) -> TableGroup:
    """The permutation group generated by ``gens``, its ranks shuffled (identity at 0)."""
    ident = tuple(range(len(gens[0])))
    elems = {ident}
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(x[i] for i in g)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    rest = sorted(elems - {ident})
    random.Random(seed).shuffle(rest)
    order = [ident, *rest]
    index = {e: i for i, e in enumerate(order)}
    n = len(order)
    table = [index[tuple(x[i] for i in y)] for x in order for y in order]
    return TableGroup(n, lambda i, j: table[i * n + j])


@pytest.mark.parametrize("seed", range(6))
def test_fingerprint_takes_the_normal_closure(seed):
    # A4 and S4: the generators' commutators need not span a normal subgroup
    for gens in ([(1, 2, 0, 3), (0, 2, 3, 1)], [(1, 0, 2, 3), (1, 2, 3, 0)]):
        group = _permutation_group(gens, seed)
        fp = fingerprint(group)
        got = (fp.order, fp.abelian, fp.exponent, fp.order_histogram, fp.center_order, fp.derived_order)
        assert got == ref_fingerprint(group)


@pytest.mark.parametrize("tag", NONABELIAN_TAGS)
def test_model_fingerprint_matches_full_scan(tag):
    model = build_model(tag, 3)
    fp = fingerprint(TableGroup(model.order, model.mul_r))
    got = (fp.order, fp.abelian, fp.exponent, fp.order_histogram, fp.center_order, fp.derived_order)
    assert got == ref_fingerprint(model)


def test_subset_star_matches_full_scan(kernel_braces):
    rng = random.Random(11)
    for b in kernel_braces:
        full = range(b.order)
        terms = {t.ranks for kind in ("left", "right", "strong") for t in series(b, kind).chain}
        for ranks in sorted(terms):
            t = Subgroup(ranks)
            assert b.subset_star(full, t) == ref_subset_star(b, full, ranks), b.name
            assert b.subset_star(t, full) == ref_subset_star(b, ranks, full), b.name
            assert b.subset_star(t, t) == ref_subset_star(b, ranks, ranks), b.name
        # Y need not be a subgroup
        ys = rng.sample(range(b.order), min(3, b.order))
        assert b.subset_star(full, ys) == ref_subset_star(b, full, ys), b.name
        assert b.star_span() == ref_subset_star(b, full, full), b.name


def test_right_annihilated_and_center_match_full_scan(kernel_braces):
    for b in kernel_braces:
        b._cache.pop("right_annihilated", None)
        assert right_annihilated(b) == ref_right_annihilated(b), b.name
        assert center_star(b) == ref_center_star(b), b.name
        assert TableGroup(b.order, b.circ_r).center == ref_center_star(b), b.name


def test_solution_tables_match_circle_formula(kernel_braces):
    for b in kernel_braces:
        sol = solution_from_brace(b)
        assert (sol.u, sol.v) == ref_solution(b), b.name


# -- witnesses ---------------------------------------------------------------------


def _outcome(group: AbelianGroup, table) -> tuple | None:
    try:
        validate_brace(group, table)
    except BraceError as exc:
        kind = type(exc).__name__
        if kind == "NotAutomorphism":
            return (kind, str(exc), exc.rank, type(exc.__cause__))
        if kind == "CocycleViolation":
            return (kind, str(exc), exc.witness)
        return (kind, str(exc))
    return None


@pytest.mark.parametrize("family", [diagonal_brace_m1, diagonal_brace_m2])
@pytest.mark.parametrize("p", [2, 3])
def test_tampered_tables_raise_the_full_scan_witness(family, p):
    brace = family(p)
    group = brace.group
    table = brace.lambda_columns()
    rng = random.Random(brace.order)
    kinds = set()
    for _ in range(25):
        i = rng.choice([0, rng.randrange(group.order)])
        j = rng.randrange(len(group.moduli))
        tampered = [list(cols) for cols in table]
        tampered[i][j] = rng.choice(group.elements)
        want = ref_validation(group, tampered)
        assert _outcome(group, tampered) == want
        kinds.add(None if want is None else want[0])
    assert "CocycleViolation" in kinds


# lambda tables that satisfy the law at (a, g) for the first circle generator g
# and every a, but not at a later generator
LAW_AT_FIRST_GENERATOR_ONLY = [
    ((2, 2), [[(1, 0), (0, 1)], [(1, 0), (1, 1)], [(1, 0), (0, 1)], [(1, 0), (1, 1)]]),
    ((8,), [[(m,)] for m in (1, 7, 1, 7, 3, 1, 7, 5)]),
    ((2, 4), [[(1, 0), c] for c in [(0, 1), (1, 1), (0, 3), (1, 3)] * 2]),
]


@pytest.mark.parametrize("moduli,table", LAW_AT_FIRST_GENERATOR_ONLY)
def test_law_failing_off_the_first_generator_is_caught(moduli, table):
    group = AbelianGroup(moduli)
    lambdas = [validate_automorphism(group, cols) for cols in table]
    brace = Brace(group, list(range(group.order)), lambdas)
    first = brace.circle.generators[0]
    composed = [tuple(brace.lam_r(a, x) for x in brace._perms[first]) for a in range(group.order)]
    assert all(brace._perms[brace.circ_r(a, first)] == composed[a] for a in range(group.order))
    want = ref_validation(group, table)
    assert want[0] == "CocycleViolation"
    assert _outcome(group, table) == want


def test_enumerated_tables_tampered_at_order_16(enumerations):
    rng = random.Random(16)
    for rep in enumerations[(4, 4)].representatives[::8]:
        group, table = rep.group, rep.lambda_columns()
        for _ in range(4):
            i, j = rng.randrange(group.order), rng.randrange(2)
            tampered = [list(cols) for cols in table]
            tampered[i][j] = rng.choice(group.elements)
            assert _outcome(group, tampered) == ref_validation(group, tampered), rep.name


def test_report_lists_a_bad_column_at_every_rank():
    brace = diagonal_brace_m2(2)  # C2 x C8
    group = brace.group
    table = [list(cols) for cols in brace.lambda_columns()]
    bad_ranks = (3, 7, 12)
    for i in bad_ranks:
        table[i] = [(1, 0), (1, 0)]  # not a bijection
    table[9] = [(0, 1), (0, 1)]  # column 0 of order 8 on a Z_2 generator
    report = brace_report(group, table)
    expected = []
    for i in sorted((*bad_ranks, 9)):
        with pytest.raises((NotHomomorphism, NotBijective)) as exc:
            validate_automorphism(group, table[i])
        expected.append(("NotAutomorphism", (i, str(exc.value))))
    assert list(report.violations) == expected
    assert report.checks == group.order


def _tampered_model(tag: str, at: tuple[int, int], to: int) -> GroupModel:
    model = build_model(tag, 3)
    bounds = tuple(max(e[t] for e in model.elements) + 1 for t in range(len(model.elements[0])))

    def mul(x: tuple, y: tuple) -> tuple:
        i, j = model.rank(x), model.rank(y)
        return model.elements[to if (i, j) == at else model.mul_r(i, j)]

    return GroupModel(tag, 3, bounds, mul, alpha=model.alpha)


def test_associativity_count_on_tampered_models():
    rng = random.Random(81)
    for tag in NONABELIAN_TAGS:
        at = (rng.randrange(81), rng.randrange(81))
        model = _tampered_model(tag, at, rng.randrange(81))
        report = verify_presentation_relations(model)
        want = ref_associativity_checked(model)
        assert report.associativity_checked == want, tag
        assert report.associativity_ok == (want == 81 ** 3), tag


# -- cost guards -------------------------------------------------------------------


def _counted(mul):
    calls = [0]

    def f(a: int, b: int) -> int:
        calls[0] += 1
        return mul(a, b)

    return f, calls


@pytest.fixture(scope="module")
def braces_625(exponent5_brace):
    return [diagonal_brace_m1(5), diagonal_brace_m2(5), exponent5_brace]


def test_fingerprint_makes_linearly_many_products(braces_625):
    for b in braces_625:
        mul, calls = _counted(b.circ_r)
        group = TableGroup(b.order, mul)
        group.element_orders, group.inv
        calls[0] = 0
        fingerprint(group)
        assert calls[0] < 20 * b.order, (b.name, calls[0])


def test_cocycle_check_makes_linearly_many_products(braces_625):
    for b in braces_625:
        fresh = Brace(b.group, b.lambda_ids, b.auts)
        fresh.circ_r, calls = _counted(fresh.circ_r)
        fresh.circle = TableGroup(b.order, fresh.circ_r)
        assert _check_cocycle(fresh) is None
        assert calls[0] < 20 * b.order, (b.name, calls[0])
