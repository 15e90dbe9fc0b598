"""Exhaustive enumeration of braces on small abelian groups, with an
independent holomorph-based count as a cross-check.

A lambda table is a map A -> Aut(A,+) with lambda_0 = id satisfying the
cocycle law lambda_{a + lambda_a(b)} = lambda_a . lambda_b; the search
branches over automorphism choices for the smallest-rank undetermined
element and propagates the law from each new assignment, pruning
contradictions.  Candidates are tried in the order of ``all_automorphisms``
(lexicographic in the images of the unit ranks).

lambda: (A, o) -> Aut(A,+) is a homomorphism, so when |A| = p^k its image
is a p-group and lies in a conjugate of one fixed Sylow p-subgroup S of
Aut(A,+).  Conjugating a table by alpha conjugates its image, so every
isomorphism class has a table with every lambda_a in S (an S-table), and the
search branches over S only.  For any other order S is all of Aut.

Isomorphism classes are marked as whole Aut(A,+)-orbits of tables.  Each
class is represented by its least member, compared as a tuple of perm
indices.  That is the table a search over all of Aut finds first: such a
search emits every table, and in lexicographic order, since it branches on
the smallest unassigned rank with candidates in index order and two tables
below one node agree on every rank before the one it branches on.  So the
representatives, their order and their names do not depend on S.

The oracle counts regular subgroups of Hol(A) = A x| Aut(A): valid lambda
tables correspond exactly to regular subgroups, and brace isomorphism
classes to their orbits under conjugation by Aut(A,+).
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .abelian import (
    AbelianGroup,
    StructuralAnomaly,
    all_automorphisms,
    aut_order,
    checked_moduli,
    perm_inverse,
    perm_order,
    prime_power,
    tabulate,
)
from .brace import Brace, BraceError


class GuardExceeded(BraceError):
    """Requested enumeration is outside the configured guard."""


DEFAULT_MAX_ORDER = 16
MAX_AUT = 1000
ORACLE_MAX_AUT = 1000


class _EnumerationFields(NamedTuple):
    moduli: tuple[int, ...]
    representatives: tuple[Brace, ...]
    total_tables: int
    isomorphism_classes: int
    class_sizes: tuple[int, ...]
    nodes_explored: int


class EnumerationResult(_EnumerationFields):
    """The fields of ``_EnumerationFields``; the class count and the table
    count are checked against the class sizes at construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> EnumerationResult:
        self = super().__new__(cls, *args, **kwargs)
        if not self.isomorphism_classes == len(self.representatives) == len(self.class_sizes):
            raise StructuralAnomaly(
                f"{self.isomorphism_classes} classes but {len(self.representatives)} representatives"
                f" and {len(self.class_sizes)} class sizes"
            )
        if self.total_tables != sum(self.class_sizes):
            raise StructuralAnomaly(f"{self.total_tables} tables but class sizes sum to {sum(self.class_sizes)}")
        return self


def _p_part(m: int, p: int) -> int:
    """The largest power of p dividing m."""
    out = 1
    while m % (out * p) == 0:
        out *= p
    return out


def sylow_subgroup(perms: list[tuple[int, ...]], p: int) -> list[int]:
    """Indices into ``perms``, a whole automorphism group, of one Sylow
    p-subgroup, in increasing order.

    Normaliser ascent: a p-subgroup S that is not Sylow lies properly in a
    Sylow P, and N_P(S) > S, so some p-element x outside S normalises S, and
    S<x> is again a p-group.  The first such x in list order is added until
    |S| is the p-part of |Aut|.
    """
    target = _p_part(len(perms), p)
    index = {q: i for i, q in enumerate(perms)}
    inv = [index[perm_inverse(q)] for q in perms]

    def mul(i: int, j: int) -> int:
        qi = perms[i]
        return index[tuple(qi[x] for x in perms[j])]

    p_elements = [i for i, q in enumerate(perms) if _p_part(perm_order(q), p) == perm_order(q)]
    members = {index[tuple(range(len(perms[0])))]}
    gens: list[int] = []
    while len(members) < target:
        x = next(
            (x for x in p_elements if x not in members and all(mul(mul(x, g), inv[x]) in members for g in gens)),
            None,
        )
        if x is None:
            raise StructuralAnomaly(f"no p-element normalises a subgroup of order {len(members)} < {target}")
        gens.append(x)
        # x normalises S, so S<x> is the union of the cosets S x^i
        grown, power = set(members), x
        while power not in members:
            grown |= {mul(s, power) for s in members}
            power = mul(power, x)
        members = grown
    return sorted(members)


def enumerate_braces(moduli, max_order: int = DEFAULT_MAX_ORDER, force: bool = False) -> EnumerationResult:
    """All braces on the given additive group, deduplicated up to isomorphism.

    Guarded by group order and |Aut(A,+)| (automorphism counts explode long
    before the order does, e.g. |Aut(C_2^4)| = 20160); ``force`` overrides.

    When |A| = p^k the search branches over a Sylow p-subgroup S of Aut(A,+)
    only (see the module docstring); otherwise S is all of Aut.  Isomorphism
    classes are the orbits of the tables under conjugation by Aut(A,+),
    lambda -> alpha . lambda_{alpha^-1(.)} . alpha^-1.  Found tables are
    walked in search order and each one not yet in a known orbit is
    conjugated by every alpha: the class size is the number of distinct
    conjugates, the conjugates that are S-tables are marked, and the
    representative is the least conjugate as a tuple of perm indices.
    Classes are sorted and named by that representative.
    """
    moduli = checked_moduli(moduli)
    order = prod(moduli)
    if not force and order > max_order:
        raise GuardExceeded(f"order {order} exceeds guard {max_order}; use force")
    n_aut = aut_order(moduli)
    if not force and n_aut > MAX_AUT:
        raise GuardExceeded(f"|Aut| = {n_aut} exceeds guard {MAX_AUT}; use force")
    group = AbelianGroup(moduli)
    perms = all_automorphisms(group)

    n = group.order
    k = len(perms)
    perm_index = {p: i for i, p in enumerate(perms)}
    comp: dict[int, int] = {}  # i * k + j -> index of perms[i] . perms[j], filled on demand

    def compose(i: int, j: int) -> int:
        key = i * k + j
        out = comp.get(key)
        if out is None:
            pi, pj = perms[i], perms[j]
            out = comp[key] = perm_index[tuple(pi[x] for x in pj)]
        return out

    pp = prime_power(n)
    cands = sylow_subgroup(perms, pp[0]) if pp else list(range(k))

    add = tabulate(n, group.add_rank)
    identity_id = perm_index[tuple(range(n))]

    tables: list[tuple[int, ...]] = []
    nodes = 0

    def close(assign: list[int], known: list[int], todo: list[int]) -> bool:
        """Propagate the cocycle law from the newly assigned ranks in ``todo``.

        Every pair of the other known ranks already satisfies the law, so
        each new x is checked in both orders against every known y, x itself
        included; ranks assigned on the way join ``known`` and ``todo``.
        """
        while todo:
            x = todo.pop()
            for y in known:
                for s, t in ((x, y), (y, x)):
                    a_s, a_t = assign[s], assign[t]
                    c = add[s * n + perms[a_s][t]]
                    want = comp.get(a_s * k + a_t)
                    if want is None:
                        want = compose(a_s, a_t)
                    have = assign[c]
                    if have < 0:
                        assign[c] = want
                        known.append(c)
                        todo.append(c)
                    elif have != want:
                        return False
        return True

    def dfs(assign: list[int], known: list[int]) -> None:
        nonlocal nodes
        nodes += 1
        u = next((x for x in range(n) if assign[x] < 0), None)
        if u is None:
            tables.append(tuple(assign))
            return
        for cand in cands:
            trial = list(assign)
            trial[u] = cand
            trial_known = known + [u]
            if close(trial, trial_known, [u]):
                dfs(trial, trial_known)

    start = [-1] * n
    start[0] = identity_id
    if close(start, [0], [0]):
        dfs(start, [0])

    pos = {s: i for i, s in enumerate(cands)}
    inv_perms = [perm_inverse(p) for p in perms]
    # conj[alpha][pos[s]] = alpha . s . alpha^-1 for s in S
    conj = [
        [perm_index[tuple(pa[perms[s][y]] for y in ia)] for s in cands]
        for pa, ia in zip(perms, inv_perms)
    ]
    index = {t: i for i, t in enumerate(tables)}
    marked = [False] * len(tables)
    classes: list[tuple[tuple[int, ...], int]] = []
    for i, table in enumerate(tables):
        if marked[i]:
            continue
        at = [pos[t] for t in table]
        # the conjugate by alpha at rank x is alpha . table[alpha^-1(x)] . alpha^-1
        orbit = {tuple([row[at[y]] for y in ia]) for row, ia in zip(conj, inv_perms)}
        for t in orbit:
            j = index.get(t)
            if j is None and not all(c in pos for c in t):
                continue  # not an S-table
            if j is None or marked[j]:
                raise StructuralAnomaly(
                    f"a conjugate of table {i} is an S-table but not an unmarked enumerated table"
                )
            marked[j] = True
        classes.append((min(orbit), len(orbit)))
    classes.sort()
    reps = tuple(
        Brace(group, list(least), perms, name=f"enum{tuple(group.moduli)}-{r:03d}")
        for r, (least, _) in enumerate(classes)
    )
    sizes = tuple(size for _, size in classes)
    return EnumerationResult(group.moduli, reps, sum(sizes), len(reps), sizes, nodes)


# -- holomorph oracle ---------------------------------------------------------------


class OracleResult(NamedTuple):
    moduli: tuple[int, ...]
    regular_subgroups: int
    aut_conjugacy_classes: int
    holomorph_order: int


def holomorph_count_oracle(moduli) -> OracleResult:
    """Count regular subgroups of Hol(A) and their Aut(A,+)-conjugacy classes.

    Independent of the lambda-table search: subgroups of order |A| are found
    by breadth-first generator extension inside the holomorph, keeping only
    subgroups whose first coordinates are distinct, then filtered for
    regularity (first coordinates exactly A).
    """
    moduli = checked_moduli(moduli)
    order = prod(moduli)
    if order > DEFAULT_MAX_ORDER:
        raise GuardExceeded(f"order {order} exceeds oracle guard {DEFAULT_MAX_ORDER}")
    n_aut = aut_order(moduli)
    if n_aut > ORACLE_MAX_AUT:
        raise GuardExceeded(f"|Aut| = {n_aut} exceeds oracle guard {ORACLE_MAX_AUT}")
    group = AbelianGroup(moduli)
    perms = all_automorphisms(group)

    n = group.order
    k = len(perms)
    # an automorphism is determined by its images of the unit ranks
    units = group.unit_ranks
    at_units = [tuple(p[u] for u in units) for p in perms]
    aut_index = {images: i for i, images in enumerate(at_units)}
    comp_table = [[aut_index[tuple(p[x] for x in images)] for images in at_units] for p in perms]
    identity_id = aut_index[tuple(units)]
    inv_aut = [row.index(identity_id) for row in comp_table]

    add = tabulate(n, group.add_rank)

    def hmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        (a, m), (b, mm) = x, y
        return (add[a * n + perms[m][b]], comp_table[m][mm])

    ident = (0, identity_id)
    elements = [(a, m) for a in range(n) for m in range(k)]

    def closure(gens: tuple[tuple[int, int], ...]) -> frozenset | None:
        """Subgroup generated by ``gens``, or None once two of its elements
        share an A-coordinate (no subgroup of a regular subgroup does)."""
        members = {ident}
        covered = {ident[0]}
        frontier = [ident]
        while frontier:
            x = frontier.pop()
            for g in gens:
                z = hmul(x, g)
                if z not in members:
                    if z[0] in covered:
                        return None
                    members.add(z)
                    covered.add(z[0])
                    frontier.append(z)
        return frozenset(members)

    # BFS over subgroups that project injectively onto A (every subgroup of a
    # regular subgroup does), by single-generator extension
    seen: set[frozenset] = set()
    found: set[frozenset] = set()
    base = frozenset([ident])
    queue: list[tuple[frozenset, tuple[tuple[int, int], ...]]] = [(base, ())]
    seen.add(base)
    while queue:
        h, gens = queue.pop()
        if len(h) == n:
            found.add(h)
            continue
        covered = {a for a, _ in h}
        tried: set[tuple[int, int]] = set()
        for g in elements:
            if g[0] in covered or g in tried:
                continue
            tried.update(hmul(x, g) for x in h)  # <h, x g> = <h, g> for x in h
            kq = closure(gens + (g,))
            if kq is None or kq in seen:
                continue
            seen.add(kq)
            queue.append((kq, gens + (g,)))
            if len(kq) == n:
                found.add(kq)

    regular = [h for h in found if len({a for a, _ in h}) == n]

    # orbits under conjugation by (0, alpha)
    orbits = 0
    remaining = set(regular)
    while remaining:
        h = remaining.pop()
        orbit = set()
        for alpha in range(k):
            conj = frozenset(
                (perms[alpha][a], comp_table[alpha][comp_table[m][inv_aut[alpha]]]) for a, m in h
            )
            orbit.add(conj)
        remaining -= orbit
        orbits += 1
    return OracleResult(group.moduli, len(regular), orbits, n * k)
