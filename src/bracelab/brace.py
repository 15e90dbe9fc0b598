"""The brace data structure and its operations.

A left brace is stored as an abelian group plus one additive automorphism
lambda_a per element rank, kept as its rank permutation (see ``abelian``);
columns, the images of the generators e_j, exist only at the file boundary.
The two products are derived views:

    a o b = a + lambda_a(b)          (the multiplicative group)
    a * b = lambda_a(b) - b          (so a o b = a * b + a + b)

Validation reduces to: lambda_0 = id, every lambda_a a valid automorphism,
and the cocycle law lambda_{a + lambda_a(b)} = lambda_a . lambda_b for all
pairs.  The law is checked at (a, g) for every a and each generator g of
(A, o) only: the b at which it holds for every a are closed under o, so that
is enough.  Braces are immutable once validated; all queries are safe to share.

Three memo rules: a view an object computes about itself is a
``functools.cached_property`` of it; an analysis ``nilpotency`` computes
about a brace goes in ``brace.cache``; ``pgroups.model_fingerprint`` is an
``lru_cache``, process-wide per (tag, p).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .abelian import (
    AbelianGroup,
    Element,
    NotBijective,
    NotHomomorphism,
    StructuralAnomaly,
    TableGroup,
    abelian_basis,
    closure_generators,
    group_closure,
    normal_form_images,
    perm_order,
    validate_automorphism,
)


class BraceError(Exception):
    """Base error for brace construction and validation."""


class BadLambdaZero(BraceError):
    """lambda_0 is not the identity map."""


class NotAutomorphism(BraceError):
    """Some lambda_a fails the automorphism conditions."""

    def __init__(self, rank: int, cause: str):
        self.rank = rank
        super().__init__(f"lambda at rank {rank}: {cause}")


class CocycleViolation(BraceError):
    """lambda_{a o b} != lambda_a . lambda_b for some witness pair."""

    def __init__(self, a: Element, b: Element):
        self.witness = (a, b)
        super().__init__(f"cocycle law fails at a={a}, b={b}")


class NotAnIdeal(BraceError):
    """A subset fails the ideal closure conditions."""


class BraceReport(NamedTuple):
    """Validation outcome with witnesses; empty violations means accepted."""

    order: int
    violations: tuple[tuple[str, tuple], ...]
    checks: int

    @property
    def passed(self) -> bool:
        return not self.violations


class Brace:
    """Validated left brace; construct via ``validate_brace`` or the builders.

    lambda_a is the rank permutation ``perms[lambda_ids[a]]``.  Ids are
    renumbered by first appearance by rank and ``perms`` keeps those in use,
    which validation makes distinct.  ``circle`` is the circle group
    (A, o) on ranks; ``circ_r`` and ``star_r`` are the two products, which
    add through ``group.add_rank``, bound on the first product, so a brace
    that is only saved builds no addition.
    ``cache`` holds ``("series", kind)``, ``"right_annihilated"`` and
    ``"theorem_context"`` (see ``nilpotency``).
    """

    def __init__(self, group: AbelianGroup, lambda_ids: list[int], perms: list[tuple[int, ...]], name: str = ""):
        self.group = group
        first: dict[int, int] = {}
        self.lambda_ids = [first.setdefault(i, len(first)) for i in lambda_ids]
        self.perms = [perms[i] for i in first]
        self.cache: dict = {}
        self.name = name

    # -- basics ---------------------------------------------------------------

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def moduli(self) -> tuple[int, ...]:
        return self.group.moduli

    def rank(self, e: Element) -> int:
        return self.group.rank(e)

    def element(self, i: int) -> Element:
        return self.group.unrank(i)

    def lambda_columns(self) -> list[tuple[Element, ...]]:
        """Each lambda_a as its columns, the images of the unit ranks, by rank a."""
        units, unrank = self.group.unit_ranks, self.group.unrank
        cols = [tuple(unrank(p[u]) for u in units) for p in self.perms]
        return [cols[i] for i in self.lambda_ids]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Brace)
            and self.moduli == other.moduli
            and self.lambda_columns() == other.lambda_columns()
        )

    def __hash__(self) -> int:
        return hash((self.moduli, tuple(self.lambda_columns())))

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Brace(moduli={self.moduli}{tag})"

    # -- rank-level operations (hot paths) -------------------------------------

    def lam_r(self, a: int, b: int) -> int:
        return self.perms[self.lambda_ids[a]][b]

    @cached_property
    def circ_r(self) -> Callable[[int, int], int]:
        """a o b = a + lambda_a(b) on ranks: a closure over the tables, not a
        bound method, so the brace and its circle group form no cycle."""
        add, perms, lambda_ids = self.group.add_rank, self.perms, self.lambda_ids

        def circ_r(a: int, b: int) -> int:
            return add(a, perms[lambda_ids[a]][b])

        return circ_r

    @cached_property
    def star_r(self) -> Callable[[int, int], int]:
        """a * b = lambda_a(b) - b on ranks, a closure like ``circ_r``."""
        group, perms, lambda_ids = self.group, self.perms, self.lambda_ids
        add, neg = group.add_rank, group.neg_rank

        def star_r(a: int, b: int) -> int:
            return add(perms[lambda_ids[a]][b], neg[b])

        return star_r

    @cached_property
    def circle(self) -> TableGroup:
        return TableGroup(self.group.order, self.circ_r)

    # -- element-level operations ----------------------------------------------

    def star(self, a: Element, b: Element) -> Element:
        return self.element(self.star_r(self.rank(a), self.rank(b)))

    def circ(self, a: Element, b: Element) -> Element:
        return self.element(self.circ_r(self.rank(a), self.rank(b)))

    def circ_inverse(self, a: Element) -> Element:
        return self.element(self.circle.inv[self.rank(a)])

    def circ_power(self, a: Element, n: int) -> Element:
        return self.element(self.circle.pow_r(self.rank(a), n))

    def circ_order(self, a: Element) -> int:
        return self.circle.element_orders[self.rank(a)]

    def commutator(self, a: Element, b: Element) -> Element:
        i, j = self.rank(a), self.rank(b)
        inv = self.circle.inv
        return self.element(self.circ_r(self.circ_r(inv[i], inv[j]), self.circ_r(i, j)))

    def is_circ_abelian(self) -> bool:
        return len(self.circle.center) == self.order

    # -- subset star and ideals --------------------------------------------------

    def subset_star(self, xs: Iterable[int], ys: Iterable[int]) -> frozenset[int]:
        """Additive subgroup generated by {x * y : x in X, y in Y} (rank sets).

        x * y is additive in y, so Y is replaced by the generators of <Y>
        that ``closure_generators`` keeps, which are elements of Y.
        """
        add = self.group.add_rank
        gens = closure_generators(add, ys)[1]
        return group_closure(add, {self.star_r(x, y) for x in xs for y in gens})

    def _ideal_closure(self, seeds: Iterable[int]) -> frozenset[int]:
        """The smallest ideal holding the seed ranks.

        Until nothing new appears: close under +, apply lambda_g for each
        generator g of (A, o) to the additive generators kept, and add x * e_j
        for every member x and unit rank e_j.  lambda: (A, o) -> Aut(A, +) is
        a homomorphism and every a is a word in the g, so invariance under
        each lambda_g is invariance under every lambda_a.  x * a is additive
        in a, so x * e_j in I puts I * A in I, and a * x = lambda_a(x) - x
        puts A * I in I.  Every element added lies in each ideal holding the
        seeds.
        """
        add, units = self.group.add_rank, self.group.unit_ranks
        circle_gens = self.circle.generators
        members, gens = closure_generators(add, seeds)
        while True:
            new = {self.lam_r(g, x) for g in circle_gens for x in gens}
            new.update(self.star_r(x, e) for x in members for e in units)
            if new <= members:
                return members
            members, gens = closure_generators(add, members | new)

    def ideal_generated(self, c: Element) -> frozenset[int]:
        """Smallest set containing c closed under +, -, every lambda_a, and
        two-sided stars with arbitrary elements (see ``_ideal_closure``)."""
        return self._ideal_closure([self.rank(c)])

    def is_ideal(self, sub: frozenset[int]) -> bool:
        """0 lies in sub and sub is its own ideal closure."""
        return 0 in sub and self._ideal_closure(sub) == sub


def _check_cocycle(brace: Brace) -> tuple[Element, Element] | None:
    """First pair violating lambda_{a o b} = lambda_a . lambda_b, or None.

    Let T be the set of b with lambda_{a o b} = lambda_a . lambda_b for every
    a.  For b, c in T, (a o b) o c = a o (b o c) and b o c lies in T; T holds
    0, and every element is a word in ``brace.circle.generators``, built from
    0 by right multiplication.  So the law holds everywhere iff it holds
    at (a, g) for each generator g, n |gens| pairs.  Only on a failure are all
    n^2 pairs scanned in order, for the first witness.  Both sides are
    additive, so they are compared at the unit ranks e_j; the right side is
    memoised per distinct lambda pair.
    """
    n = brace.order
    ids, perms, circ = brace.lambda_ids, brace.perms, brace.circ_r
    units = brace.group.unit_ranks
    at_units = [tuple(p[u] for u in units) for p in perms]  # lambda(e_j) over j
    comp: dict[tuple[int, int], tuple[int, ...]] = {}

    def holds(a: int, b: int) -> bool:
        key = (ids[a], ids[b])
        images = comp.get(key)
        if images is None:
            first = perms[key[0]]
            images = comp[key] = tuple(first[x] for x in at_units[key[1]])
        return at_units[ids[circ(a, b)]] == images

    if all(holds(a, g) for g in brace.circle.generators for a in range(n)):
        return None
    return next(
        (brace.element(a), brace.element(b)) for a in range(n) for b in range(n) if not holds(a, b)
    )


def _table_violations(
    group: AbelianGroup, lambda_columns: Sequence[Sequence[Sequence[int]]], name: str
) -> tuple[Brace, list[tuple[BraceError, tuple]]]:
    """Check every lambda, lambda_0 = id and, when those hold, the cocycle law.

    Returns the brace (a lambda that fails is replaced by the identity) and
    (error, witness) pairs in the order found; the table size is the
    caller's check.
    """
    found: list[tuple[BraceError, tuple]] = []
    identity = tuple(range(group.order))
    # each distinct column set is validated and its permutation interned once;
    # columns that reduce to the same automorphism share its id
    verdicts: dict[tuple, tuple[int, NotHomomorphism | NotBijective | None]] = {}
    index: dict[tuple[int, ...], int] = {}  # distinct perm -> its lambda id
    ids: list[int] = []
    for i, cols in enumerate(lambda_columns):
        key = tuple(map(tuple, cols))
        if key not in verdicts:
            try:
                perm, exc = validate_automorphism(group, cols), None
            except (NotHomomorphism, NotBijective) as err:
                perm, exc = identity, err
            verdicts[key] = (index.setdefault(perm, len(index)), exc)
        lambda_id, exc = verdicts[key]
        if exc is not None:
            err = NotAutomorphism(i, str(exc))
            err.__cause__ = exc
            found.append((err, (i, str(exc))))
        ids.append(lambda_id)
    perms = list(index)
    if perms[ids[0]] != identity:
        found.append((BadLambdaZero("lambda at rank 0 must be the identity"), (0,)))
    brace = Brace(group, ids, perms, name=name)
    if not found:
        witness = _check_cocycle(brace)
        if witness is not None:
            found.append((CocycleViolation(*witness), witness))
    return brace, found


def validate_brace(
    group: AbelianGroup,
    lambda_columns: Sequence[Sequence[Sequence[int]]],
    name: str = "",
) -> Brace:
    """Validate a full lambda table and return the brace; raise on violation."""
    if len(lambda_columns) != group.order:
        raise BraceError(f"expected {group.order} lambda entries, got {len(lambda_columns)}")
    brace, found = _table_violations(group, lambda_columns, name)
    if found:
        raise found[0][0]
    return brace


def brace_report(group: AbelianGroup, lambda_columns: Sequence[Sequence[Sequence[int]]]) -> BraceReport:
    """Collect all axiom violations (with witnesses) instead of raising.

    checks counts one check per lambda, plus the n^2 cocycle scan when every
    lambda passed.  Distributivity a o (b+c) + a = a o b + a o c says that
    each lambda_a is additive, which holds by construction: each lambda is
    built as the additive extension of its columns.
    """
    n = group.order
    if len(lambda_columns) != n:
        return BraceReport(n, (("TableSize", (len(lambda_columns),)),), 1)
    _, found = _table_violations(group, lambda_columns, "")
    violations = [(type(err).__name__, witness) for err, witness in found]
    checks = n + (n * n if all(isinstance(err, CocycleViolation) for err, _ in found) else 0)
    return BraceReport(n, tuple(violations), checks)


def brace_from_circ_table(group: AbelianGroup, circ: Sequence[Sequence[int]], name: str = "") -> Brace:
    """Recover lambda from a multiplication table (lambda_a(b) = a o b - a).

    Additivity of each lambda_a is enforced by comparing the raw map with the
    linear extension of its generator images, which is exact at any order.
    """
    n = group.order
    if len(circ) != n or any(len(row) != n for row in circ):
        raise BraceError("multiplication table must be n x n")
    gen_ranks, add, neg = group.unit_ranks, group.add_rank, group.neg_rank
    columns = []
    raw_rows = []
    for a in range(n):
        row = circ[a]
        raw = [add(row[b], neg[a]) for b in range(n)]
        raw_rows.append(raw)
        columns.append([group.unrank(raw[g]) for g in gen_ranks])
    brace = validate_brace(group, columns, name=name)
    for a in range(n):
        perm = brace.perms[brace.lambda_ids[a]]
        if list(perm) != raw_rows[a]:
            b = next(b for b in range(n) if perm[b] != raw_rows[a][b])
            raise NotAutomorphism(a, f"table map is not additive at b={group.unrank(b)}")
    return brace


def trivial_brace(moduli: Sequence[int], name: str = "") -> Brace:
    group = AbelianGroup(moduli)
    identity = tuple(range(group.order))
    return Brace(group, [0] * group.order, [identity], name=name or f"trivial{tuple(moduli)}")


# -- quotients ----------------------------------------------------------------


def _is_circle_hom(pi: Sequence[int], src: Brace, dst: Brace) -> bool:
    """Whether the rank map pi has pi(x o b) = pi(x) o pi(b) for all x, b.

    As in ``_check_cocycle``: the b at which the law holds for every x hold 0
    when pi(0) = 0, and are closed under o because both circle products are
    associative (both braces are validated), so checking b at the generators
    of (src, o) is enough, n |gens| products.
    """
    circ, dst_circ = src.circ_r, dst.circ_r
    return pi[0] == 0 and all(
        pi[circ(x, g)] == dst_circ(pi[x], pi[g]) for g in src.circle.generators for x in range(src.order)
    )


def quotient_brace(brace: Brace, ideal: frozenset[int]) -> tuple[Brace, dict[int, int]]:
    """Brace on the cosets of an ideal (a set of ranks), plus the rank
    projection map.

    Raises NotAnIdeal when the closure conditions fail, and StructuralAnomaly
    if the coset coordinates are not a bijection or the projection is not a
    homomorphism of the circle groups (which the ideal conditions rule out).
    The projection is additive, so a homomorphism of the circle groups is a
    brace homomorphism, and the induced lambda is then constant on cosets.
    """
    if not brace.is_ideal(ideal):
        raise NotAnIdeal(f"subset of order {len(ideal)} fails ideal closure")
    group = brace.group
    n = group.order
    add = group.add_rank

    coset_id = [-1] * n
    reps: list[int] = []
    for r in range(n):
        if coset_id[r] >= 0:
            continue
        cid = len(reps)
        reps.append(r)
        for i in ideal:
            coset_id[add(r, i)] = cid
    m = len(reps)

    def qadd(x: int, y: int) -> int:
        return coset_id[add(reps[x], reps[y])]

    basis = abelian_basis(TableGroup(m, qadd))  # coset 0 holds 0, the identity
    basis.sort(key=lambda t: t[1])  # moduli in increasing order
    qgroup = AbelianGroup(tuple(d for _, d in basis))

    # quotient rank -> coset id, via coordinates over the basis
    rank_to_coset = normal_form_images(qadd, qgroup.moduli, [g for g, _ in basis])
    if len(set(rank_to_coset)) != m:
        raise StructuralAnomaly("quotient coordinates are not a bijection")
    coset_to_rank = [0] * m
    for qr, cid in enumerate(rank_to_coset):
        coset_to_rank[cid] = qr

    gen_reps = [reps[g] for g, _ in basis]
    table = [
        [qgroup.unrank(coset_to_rank[coset_id[brace.lam_r(reps[cid], r)]]) for r in gen_reps]
        for cid in rank_to_coset
    ]
    qbrace = validate_brace(qgroup, table, name=f"{brace.name}/I")

    projection = [coset_to_rank[cid] for cid in coset_id]
    if not _is_circle_hom(projection, brace, qbrace):
        raise StructuralAnomaly("quotient projection is not multiplicative")
    return qbrace, dict(enumerate(projection))


# -- isomorphism ---------------------------------------------------------------


def _fingerprints(brace: Brace) -> list[tuple[int, int, int]]:
    g = brace.group
    lambda_orders = [perm_order(p) for p in brace.perms]
    return [
        (
            g.element_order(g.unrank(r)),
            brace.circle.element_orders[r],
            lambda_orders[brace.lambda_ids[r]],
        )
        for r in range(brace.order)
    ]


def is_isomorphic(a: Brace, b: Brace) -> dict[Element, Element] | None:
    """Search for a bijection preserving + and o; None when there is none.

    Tries images of the additive generators of ``a`` in product order,
    pruned by (additive order, circle order, lambda order) fingerprints.
    Each additive extension that is a bijection is tested with
    ``_is_circle_hom`` at the circle generators of ``a``.
    """
    if a.order != b.order:
        return None
    fa, fb = _fingerprints(a), _fingerprints(b)
    if sorted(fa) != sorted(fb):
        return None

    ga, gb = a.group, b.group
    cand: list[list[int]] = []
    for j, g in enumerate(ga.unit_ranks):
        d = ga.moduli[j]
        opts = [
            r
            for r in range(b.order)
            if fb[r] == fa[g] and gb.element_order(gb.unrank(r)) == d
        ]
        if not opts:
            return None
        cand.append(opts)

    n = a.order
    for combo in itertools.product(*cand):
        image = normal_form_images(gb.add_rank, ga.moduli, combo)
        if len(set(image)) == n and _is_circle_hom(image, a, b):
            return {ga.unrank(r): gb.unrank(image[r]) for r in range(n)}
    return None
