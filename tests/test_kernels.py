"""Generator- and row-level kernels against their n^2 definitions.

Each reference below is the direct full scan, kept here so that the kernels
in the package are checked against the definitions they replace: the same
sets, counts, witnesses and error texts.
"""

from __future__ import annotations

import itertools
import random
from math import comb, gcd
from types import SimpleNamespace

import pytest

from bracelab import nilpotency, ybe
from bracelab.abelian import (
    AbelianGroup,
    NotBijective,
    NotHomomorphism,
    StructuralAnomaly,
    TableGroup,
    abelian_basis,
    all_automorphisms,
    group_closure,
    validate_automorphism,
)
from bracelab.brace import (
    Brace,
    BraceError,
    NotAnIdeal,
    _check_cocycle,
    _fingerprints,
    brace_report,
    is_isomorphic,
    quotient_brace,
    validate_brace,
)
from bracelab.constructions import diagonal_brace_m1, diagonal_brace_m2
from bracelab.nilpotency import (
    Certificate,
    _ppn_failures,
    _scan,
    _stage_commuting_powers,
    annihilator_certificate,
    identity_suite,
    right_annihilated,
    series,
)
from bracelab.pgroups import (
    NONABELIAN_TAGS,
    GroupModel,
    RelationFailure,
    _check_group,
    build_model,
    fingerprint,
    model_fingerprint,
    verify_presentation_relations,
)
from bracelab.ybe import solution_from_brace

# -- references --------------------------------------------------------------------


def ref_fingerprint(group: TableGroup) -> tuple[tuple, set[int]]:
    """The fingerprint fields by full scans, and the derived subgroup as a set."""
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
    return (n, abelian, exponent, tuple(sorted(hist.items())), center, len(derived)), derived


def ref_subset_star(brace: Brace, xs, ys) -> frozenset[int]:
    return group_closure(brace.group.add_rank, {brace.star_r(x, y) for x in xs for y in ys})


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
    perms = []
    for i, cols in enumerate(table):
        try:
            perms.append(validate_automorphism(group, cols))
        except (NotHomomorphism, NotBijective) as exc:
            return ("NotAutomorphism", f"lambda at rank {i}: {exc}", i, type(exc))
    n = group.order
    if perms[0] != tuple(range(n)):
        return ("BadLambdaZero", "lambda at rank 0 must be the identity")
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


def ref_group_table(model: GroupModel) -> bool:
    """Rank 0 a two-sided identity, every triple associative, and the generators reach every rank."""
    n, t = model.order, model.table
    ranks = list(range(n))
    rows = [t[a * n : (a + 1) * n] for a in range(n)]
    if rows[0] != ranks or [row[0] for row in rows] != ranks:
        return False
    if any(rows[rows[a][b]] != [rows[a][bc] for bc in rows[b]] for a in range(n) for b in range(n)):
        return False
    return len(group_closure(model.mul_r, list(model.gens.values()))) == n


def ref_annihilator_certificate(brace: Brace) -> Certificate | None:
    """The star_r scans: c * a = 0 for every a, then x * a = a * x = 0 over the ideal."""
    candidates = sorted(brace.circle.center & right_annihilated(brace) - {0})
    if not candidates:
        return None
    c, n = candidates[0], brace.order
    if not all(brace.star_r(c, a) == 0 for a in range(n)):
        raise StructuralAnomaly(f"central element {brace.element(c)} has A*c=0 but c*A != 0")
    ideal = brace.ideal_generated(brace.element(c))
    if not all(brace.star_r(x, a) == 0 and brace.star_r(a, x) == 0 for x in ideal for a in range(n)):
        raise StructuralAnomaly("ideal generated by certificate is not two-sided null")
    return Certificate(brace.element(c), ideal, n // len(ideal))


def ref_ppn_check(brace: Brace, P: int) -> tuple[int, int | None]:
    """P*P^n against C(n, 3) P*(P*(P*P)) + C(n, 2) P*(P*P) + n P*P, each term a
    scalar multiple, for n = 0..2|P|: (checks made, first failing n or None)."""
    g, star = brace.group, brace.star_r
    pp = star(P, P)
    ppp = star(P, pp)
    pppp = star(P, ppp)
    last = 2 * brace.circle.element_orders[P]
    for nn in range(last + 1):
        terms = (g.scalar_rank(comb(nn, 3), pppp), g.scalar_rank(comb(nn, 2), ppp), g.scalar_rank(nn, pp))
        if star(P, brace.circle.pow_r(P, nn)) != g.add_rank(g.add_rank(terms[0], terms[1]), terms[2]):
            return nn + 1, nn
    return last + 1, None


def ref_commuting_powers(brace: Brace) -> tuple[bool, int]:
    """Whether x * (y * a) = y * (x * a) for all powers x < y of every c and every a,
    and the number of such pairs over the distinct cyclic circle subgroups."""
    n, star, circle = brace.order, brace.star_r, brace.circle
    ok, pairs, seen = True, 0, set()
    for c in range(n):
        powers = frozenset(circle.pow_r(c, k) for k in range(circle.element_orders[c]))
        if powers in seen:
            continue
        seen.add(powers)
        for x in powers:
            for y in powers:
                if x < y:
                    pairs += 1
                    ok = ok and all(star(x, star(y, a)) == star(y, star(x, a)) for a in range(n))
    return ok, pairs


def ref_perm(columns, group: AbelianGroup) -> tuple[int, ...]:
    """Each element e mapped as a coordinate tuple, sum_j e_j * column j, then
    looked up by rank."""

    def apply(e):
        img = group.zero
        for coeff, col in zip(e, columns):
            img = group.add(img, group.scalar_multiple(coeff, col))
        return img

    return tuple(group.rank(apply(e)) for e in group.elements)


def ref_ideal_generated(brace: Brace, c: int) -> frozenset[int]:
    """Closed under +, every lambda_a and stars with every a on both sides: 3 |I| n calls a pass."""
    n, add = brace.order, brace.group.add_rank
    members = group_closure(add, [c])
    while True:
        new = {
            y
            for x in members
            for a in range(n)
            for y in (brace.lam_r(a, x), brace.star_r(a, x), brace.star_r(x, a))
        }
        if new <= members:
            return members
        members = group_closure(add, members | new)


def ref_is_ideal(brace: Brace, mem: frozenset[int]) -> bool:
    """0, -x and x + y in mem, and lambda_a(x), a * x and x * a in mem for every a."""
    add, neg = brace.group.add_rank, brace.group.neg_rank
    if 0 not in mem or any(neg[x] not in mem or any(add(x, y) not in mem for y in mem) for x in mem):
        return False
    return all(
        brace.lam_r(a, x) in mem and brace.star_r(a, x) in mem and brace.star_r(x, a) in mem
        for a in range(brace.order)
        for x in mem
    )


def ref_quotient(brace: Brace, ideal: frozenset[int]) -> tuple[Brace, dict[int, int]]:
    """Coset coordinates by repeated addition, the induced lambda checked constant
    on each coset, and the projection checked multiplicative on all n^2 pairs."""
    if not ref_is_ideal(brace, ideal):
        raise NotAnIdeal(f"subset of order {len(ideal)} fails ideal closure")
    group, n = brace.group, brace.order
    add = group.add_rank
    coset_id, reps = [-1] * n, []
    for r in range(n):
        if coset_id[r] < 0:
            for i in ideal:
                coset_id[add(r, i)] = len(reps)
            reps.append(r)
    m = len(reps)

    def qadd(x: int, y: int) -> int:
        return coset_id[add(reps[x], reps[y])]

    if m == 1:
        qgroup = AbelianGroup(())
        return Brace(qgroup, [0], [(0,)], name=f"{brace.name}/I"), {r: 0 for r in range(n)}
    basis = sorted(abelian_basis(TableGroup(m, qadd)), key=lambda t: t[1])
    qgroup = AbelianGroup(tuple(d for _, d in basis))
    coset_to_rank = [-1] * m
    for qr, coords in enumerate(qgroup.elements):
        acc = 0
        for coeff, (g, _) in zip(coords, basis):
            for _ in range(coeff):
                acc = qadd(acc, g)
        if coset_to_rank[acc] != -1:
            raise StructuralAnomaly("quotient coordinates are not a bijection")
        coset_to_rank[acc] = qr
    gen_cosets = [g for g, _ in basis]
    for cid, a in enumerate(reps):
        for i in ideal:
            for g in gen_cosets:
                if coset_id[brace.lam_r(add(a, i), reps[g])] != coset_id[brace.lam_r(a, reps[g])]:
                    raise StructuralAnomaly("induced lambda not constant on cosets")
    rank_to_coset = [0] * m
    for cid, qr in enumerate(coset_to_rank):
        rank_to_coset[qr] = cid
    table = [
        [qgroup.unrank(coset_to_rank[coset_id[brace.lam_r(reps[rank_to_coset[qr]], reps[g])]]) for g in gen_cosets]
        for qr in range(m)
    ]
    qbrace = validate_brace(qgroup, table, name=f"{brace.name}/I")
    projection = {r: coset_to_rank[coset_id[r]] for r in range(n)}
    for a in range(n):
        for b in range(n):
            if projection[brace.circ_r(a, b)] != qbrace.circ_r(projection[a], projection[b]):
                raise StructuralAnomaly("quotient projection is not multiplicative")
    return qbrace, projection


def ref_is_isomorphic(a: Brace, b: Brace) -> dict | None:
    """Each candidate extended by tuple arithmetic and checked on all n^2 circle products."""
    if a.order != b.order:
        return None
    fa, fb = _fingerprints(a), _fingerprints(b)
    if sorted(fa) != sorted(fb):
        return None
    ga, gb, n = a.group, b.group, a.order
    cand = []
    for j, g in enumerate(ga.unit_ranks):
        opts = [r for r in range(n) if fb[r] == fa[g] and gb.element_order(gb.unrank(r)) == ga.moduli[j]]
        if not opts:
            return None
        cand.append(opts)
    for combo in itertools.product(*cand):
        cols = [gb.unrank(r) for r in combo]
        image = []
        for coords in ga.elements:
            acc = gb.zero
            for coeff, col in zip(coords, cols):
                acc = gb.add(acc, gb.scalar_multiple(coeff, col))
            image.append(gb.rank(acc))
        if len(set(image)) != n:
            continue
        if all(image[a.circ_r(x, y)] == b.circ_r(image[x], image[y]) for x in range(n) for y in range(n)):
            return {ga.unrank(r): gb.unrank(image[r]) for r in range(n)}
    return None


# -- the braces --------------------------------------------------------------------


@pytest.fixture(scope="module")
def kernel_braces(enumerated_braces, small_corpus):
    return list(enumerated_braces) + [b for b in small_corpus if b.order == 81]


def test_perms_are_the_lambdas_in_use(kernel_braces, builtin_corpus, enumerated_braces, monkeypatch):
    # a brace keeps only the lambdas in use, with ids numbered by first
    # appearance by rank; a validated brace's perms are its distinct lambdas
    quotients = []
    quotient_brace = nilpotency.quotient_brace

    def recording(brace, ideal):
        out = quotient_brace(brace, ideal)
        quotients.append(out[0])
        return out

    monkeypatch.setattr(nilpotency, "quotient_brace", recording)
    for b in kernel_braces:
        nilpotency.certify_right_nilpotent(b)
    assert len(quotients) > len(kernel_braces)
    group = AbelianGroup((3, 3))
    # the identity written with unreduced columns is still one lambda
    unreduced = validate_brace(group, [[(1 + 3 * (x % 2), 0), (0, 1)] for x in range(9)])
    assert unreduced.perms == [tuple(range(9))]
    auts = all_automorphisms(group)
    ids = [5, 5, 0, 17, 0, 5, 40, 17, 3]  # 48 automorphisms, 5 in use
    raw = Brace(group, ids, auts)
    assert raw.perms == [auts[i] for i in (5, 0, 17, 40, 3)]
    assert [raw.perms[i] for i in raw.lambda_ids] == [auts[i] for i in ids]
    assert right_annihilated(raw) == frozenset(c for c in range(9) if all(auts[i][c] == c for i in ids))
    validated = [*builtin_corpus, *enumerated_braces, *quotients, unreduced]
    for b in [*validated, raw]:
        assert list(dict.fromkeys(b.lambda_ids)) == list(range(len(b.perms))), b.name
    for b in validated:
        assert len(set(b.perms)) == len(b.perms), b.name
    assert sum(b.order == 81 for b in kernel_braces) == 4


def test_fingerprint_matches_full_scan(kernel_braces):
    for b in kernel_braces:
        group = TableGroup(b.order, b.circ_r)
        fp = fingerprint(group)
        got = (fp.order, fp.abelian, fp.exponent, fp.order_histogram, fp.center_order, fp.derived_order)
        ref, derived = ref_fingerprint(TableGroup(b.order, b.circ_r))
        assert got == ref, b.name
        assert group.derived == derived, b.name


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
        ref, derived = ref_fingerprint(group)
        assert got == ref
        assert group.derived == derived


@pytest.mark.parametrize("tag", NONABELIAN_TAGS)
def test_model_fingerprint_matches_full_scan(tag):
    model = build_model(tag, 3)
    fp = fingerprint(TableGroup(model.order, model.mul_r))
    got = (fp.order, fp.abelian, fp.exponent, fp.order_histogram, fp.center_order, fp.derived_order)
    assert got == ref_fingerprint(model)[0]
    # the table-free fingerprint that classification reads is the proved table's
    for p in (3, 5):
        n, table = p**4, build_model(tag, p).table
        assert model_fingerprint(tag, p) == fingerprint(TableGroup(n, lambda i, j: table[i * n + j]))


def test_subset_star_matches_full_scan(kernel_braces):
    rng = random.Random(11)
    for b in kernel_braces:
        full = range(b.order)
        terms = {t for kind in ("left", "right", "strong") for t in series(b, kind).chain}
        for t in sorted(terms, key=sorted):
            assert b.subset_star(full, t) == ref_subset_star(b, full, t), b.name
            assert b.subset_star(t, full) == ref_subset_star(b, t, full), b.name
            assert b.subset_star(t, t) == ref_subset_star(b, t, t), b.name
        # Y need not be a subgroup
        ys = rng.sample(range(b.order), min(3, b.order))
        assert b.subset_star(full, ys) == ref_subset_star(b, full, ys), b.name
        assert series(b, "left").term(2) == ref_subset_star(b, full, full), b.name


def test_right_annihilated_and_center_match_full_scan(kernel_braces):
    for b in kernel_braces:
        b.cache.pop("right_annihilated", None)
        assert right_annihilated(b) == ref_right_annihilated(b), b.name
        assert b.circle.center == ref_center_star(b), b.name
        assert TableGroup(b.order, b.circ_r).center == ref_center_star(b), b.name


def test_ppn_check_matches_the_binomial_sums(kernel_braces, exponent5_brace):
    # the ppn stream of each P, scanned: (checks made, first failing n or None)
    for b in [*kernel_braces, exponent5_brace]:
        scans = [_scan("ppn", _ppn_failures(b, P)) for P in range(b.order)]
        got = [(s.checks, None if s.witness is None else s.witness[0]) for s in scans]
        assert got == [ref_ppn_check(b, P) for P in range(b.order)], b.name


def test_commuting_powers_checks_the_additive_generators(kernel_braces, exponent5_brace):
    # every rank at every order: 6240 checks on the exponent-5 brace
    for b in [*kernel_braces, exponent5_brace]:
        ok, pairs = ref_commuting_powers(b)
        result = _stage_commuting_powers(b)
        assert (result.status == "passed") == ok, b.name
        assert result.checks == pairs * len(b.moduli), b.name


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
    composed = [tuple(brace.lam_r(a, x) for x in brace.perms[first]) for a in range(group.order)]
    assert all(brace.perms[brace.circ_r(a, first)] == composed[a] for a in range(group.order))
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


def _tampered_model(tag: str, at: tuple[int, int], to: int, p: int = 3) -> GroupModel:
    model = build_model(tag, p)
    table = list(model.table)
    table[at[0] * model.order + at[1]] = to
    return GroupModel(tag, p, table)


def test_associativity_count_on_tampered_models():
    rng = random.Random(81)
    for tag in NONABELIAN_TAGS:
        at = (rng.randrange(81), rng.randrange(81))
        model = _tampered_model(tag, at, rng.randrange(81))
        report = verify_presentation_relations(model)
        want = ref_associativity_checked(model)
        assert report.associativity_checked == want, tag
        assert report.associativity_ok == (want == 81 ** 3), tag


@pytest.mark.slow
def test_sampled_associativity_on_tampered_p5_models():
    # a tampered entry (a, b) with a outside <b>: the power walks, and with them
    # the element orders that the relation checks read, stay those of the model;
    # above order 81 the count is still exact, up to the first failing triple
    rng = random.Random(625)
    for tag in NONABELIAN_TAGS:
        group = build_model(tag, 5)
        a, b = rng.randrange(625), rng.randrange(625)
        while a in {group.pow_r(b, k) for k in range(group.element_orders[b])}:
            a, b = rng.randrange(625), rng.randrange(625)
        model = _tampered_model(tag, (a, b), rng.randrange(625), p=5)
        report = verify_presentation_relations(model)
        want = ref_associativity_checked(model)
        assert (report.associativity_checked, report.associativity_ok) == (want, False), tag
    report = verify_presentation_relations(build_model("XI", 5))
    assert (report.associativity_checked, report.associativity_ok) == (625**3, True)


def _gate_rejects(model: GroupModel) -> bool:
    try:
        _check_group(model)
    except RelationFailure:
        return True
    return False


def test_group_gate_on_tampered_models():
    # one entry changed anywhere, row 0 and column 0 included; about one in 81
    # draws keeps the old value, so both outcomes occur
    rng = random.Random(1961)
    outcomes = set()
    for tag in NONABELIAN_TAGS:
        for _ in range(150):
            model = _tampered_model(tag, (rng.randrange(81), rng.randrange(81)), rng.randrange(81))
            rejected = _gate_rejects(model)
            assert rejected == (not ref_group_table(model)), (tag, model.table)
            outcomes.add(rejected)
    assert outcomes == {True, False}


def test_group_gate_catches_what_the_associativity_sample_misses():
    model = _tampered_model("VII", (418, 260), 612, p=5)
    report = verify_presentation_relations(model)
    assert not report.associativity_ok and not report.passed
    assert report.associativity_checked == 651_511
    with pytest.raises(RelationFailure, match="VII at p=5: failed associativity"):
        _check_group(model)


def test_group_gate_rejects_a_generator_row_that_is_not_a_permutation():
    model = build_model("VIII", 3)
    P = model.gens["P"]
    twice = model.table[P * 81 + 2]  # P.1 is now P.2 too
    with pytest.raises(RelationFailure, match=f"row of generator rank {P} is not a permutation"):
        _check_group(_tampered_model("VIII", (P, 1), twice))


def test_group_gate_rejects_a_bad_identity_and_a_short_closure():
    with pytest.raises(RelationFailure, match="rank 0 is not the identity"):
        _check_group(_tampered_model("IX", (5, 0), 6))
    model = build_model("G4", 3)
    # P and Q both stand for P: the generators reach only <P>, of order 27
    stuck = GroupModel("G4", 3, model.table)
    stuck.gens["Q"] = stuck.gens["P"]
    with pytest.raises(RelationFailure, match="G4 at p=3: generators do not generate"):
        _check_group(stuck)


def test_build_path_draws_no_samples(monkeypatch, exponent5_brace):
    # only the braid scan samples; every other check is exact at order 625
    def no_samples(*args, **kwargs):
        raise AssertionError("drew sampled ranks")

    monkeypatch.setattr(ybe, "random", SimpleNamespace(Random=no_samples))
    for tag in NONABELIAN_TAGS:
        model = build_model(tag, 5)
        assert model.order == 625
        assert verify_presentation_relations(model).associativity_checked == 625**3
    for brace in (exponent5_brace, diagonal_brace_m2(5)):
        assert brace_report(brace.group, brace.lambda_columns()).checks == 625 + 625**2
        assert identity_suite(brace).passed


def test_element_orders_stop_on_a_table_that_is_not_a_group():
    # draws 4 to 6 of random.Random(625): the power walk of some rank never returns to 0
    model = _tampered_model("VIII", (621, 92), 260, p=5)
    with pytest.raises(StructuralAnomaly, match=r"rank \d+ has no power equal to the identity within 625 products"):
        model.element_orders
    report = verify_presentation_relations(model)
    assert not report.passed
    assert ("Q^-1 P Q = P^{1+p}", False) in report.defining


def test_certificate_matches_the_star_scan(enumerated_braces, builtin_corpus):
    for b in [*enumerated_braces, *builtin_corpus]:
        assert annihilator_certificate(b) == ref_annihilator_certificate(b), b.name


def test_certificate_anomalies_keep_their_texts(monkeypatch):
    brace = diagonal_brace_m2(3)
    cert = annihilator_certificate(brace)
    c = brace.rank(cert.element)
    assert len(cert.ideal_ranks) > 2
    monkeypatch.setattr(nilpotency, "socle", lambda b: frozenset({0}))
    with pytest.raises(StructuralAnomaly, match=r"central element \(0, 3\) has A\*c=0 but c\*A != 0"):
        annihilator_certificate(brace)
    monkeypatch.setattr(nilpotency, "socle", lambda b: frozenset({0, c}))
    with pytest.raises(StructuralAnomaly, match="ideal generated by certificate is not two-sided null"):
        annihilator_certificate(brace)


# -- maps and ideals ----------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_braces(enumerated_braces, small_corpus):
    return [*enumerated_braces, *small_corpus]


@pytest.mark.parametrize("moduli", [(2, 2, 2), (3, 9), (4, 4), (5, 25)])
def test_perm_matches_the_tuple_map_on_every_candidate(moduli):
    group = AbelianGroup(moduli)
    cands = [[e for e in group.elements if group.scalar_multiple(d, e) == group.zero] for d in moduli]
    bijective = []
    for cols in itertools.product(*cands):
        perm = ref_perm(cols, group)
        if len(set(perm)) == group.order:
            assert validate_automorphism(group, cols) == perm, cols
            bijective.append(perm)
        else:
            with pytest.raises(NotBijective):
                validate_automorphism(group, cols)
    assert 0 < len(bijective) < len(list(itertools.product(*cands)))
    assert all_automorphisms(group) == bijective


def test_ideal_generated_matches_the_full_scan(reference_braces):
    for b in reference_braces:
        for c in range(b.order):
            assert b.ideal_generated(b.element(c)) == ref_ideal_generated(b, c), (b.name, c)


def test_is_ideal_matches_the_full_scan(reference_braces):
    rng = random.Random(4)
    outcomes = set()
    for b in reference_braces:
        n = b.order
        subs = [frozenset({0}), frozenset(range(n))]
        for _ in range(4):
            subs.append(group_closure(b.group.add_rank, rng.sample(range(n), rng.randint(1, 2))))
            # rank sets that need not be subgroups, with and without 0
            subs.append(frozenset({0, *rng.sample(range(n), min(n, 2))}))
            subs.append(frozenset(rng.sample(range(1, n), min(n - 1, 2))))
        for sub in subs:
            want = ref_is_ideal(b, sub)
            assert b.is_ideal(sub) == want, (b.name, sorted(sub))
            outcomes.add(want)
    assert outcomes == {True, False}


def test_quotients_match_the_full_scan_along_the_certificate_recursion(reference_braces):
    for b in reference_braces:
        current = b
        while current.order > 1:
            cert = annihilator_certificate(current)
            if cert is None:
                break
            ideal = cert.ideal_ranks
            got, projection = quotient_brace(current, ideal)
            want, want_projection = ref_quotient(current, ideal)
            assert (got.moduli, got.lambda_columns(), got.name) == (want.moduli, want.lambda_columns(), want.name)
            assert projection == want_projection, b.name
            current = got


def _relabeled(b: Brace, alpha: tuple[int, ...]) -> Brace:
    """The brace with lambda'_{alpha(a)} = alpha . lambda_a . alpha^-1."""
    g, n = b.group, b.order
    inv = [0] * n
    for r, s in enumerate(alpha):
        inv[s] = r
    cols = [[g.unrank(alpha[b.lam_r(inv[x], inv[e])]) for e in g.unit_ranks] for x in range(n)]
    return validate_brace(g, cols)


def test_is_isomorphic_matches_the_full_scan(enumerations, small_corpus):
    rng = random.Random(5)
    found = set()
    for moduli, res in enumerations.items():
        reps = res.representatives
        auts = all_automorphisms(reps[0].group)
        for a in reps:
            others = [a, _relabeled(a, rng.choice(auts)), rng.choice(reps)]
            for b in others:
                want = ref_is_isomorphic(a, b)
                assert is_isomorphic(a, b) == want, (a.name, b.name)
                found.add(want is not None)
    for a in small_corpus:
        for b in small_corpus:
            assert is_isomorphic(a, b) == ref_is_isomorphic(a, b), (a.name, b.name)
    assert found == {True, False}


def test_a_subgroup_with_i_star_a_inside_that_lambda_moves_is_not_an_ideal(enumerations):
    b = enumerations[(2, 4)].representatives[4]
    assert b.name == "enum(2, 4)-004"
    sub = frozenset({b.rank((0, 0)), b.rank((1, 0))})
    assert all(b.star_r(x, a) in sub for x in sub for a in range(b.order))
    assert not all(b.lam_r(a, x) in sub for x in sub for a in range(b.order))
    assert not b.is_ideal(sub) and not ref_is_ideal(b, sub)
    with pytest.raises(NotAnIdeal):
        quotient_brace(b, sub)


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
        fresh = Brace(b.group, b.lambda_ids, b.perms)
        fresh.circ_r, calls = _counted(fresh.circ_r)
        fresh.circle = TableGroup(b.order, fresh.circ_r)
        assert _check_cocycle(fresh) is None
        assert calls[0] < 20 * b.order, (b.name, calls[0])
