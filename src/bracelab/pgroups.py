"""Concrete multiplication models for the nonabelian groups of order p^4 used
by the verification suites, and classification of a brace's circle group.

The relations of each tag are written once, as words in ``presentation``,
and ``presented`` parses them: power relations give the generator names and
bounds, conjugation and commuting relations the actions.  Every fact the
models use is read from that parse; the one exception is
``derived_relations``, which writes out per-tag consequences by hand.
``_collect`` builds each model from the parse as iterated split extensions
on ranks, proving each one at the automorphism level (the action is a
bijective automorphism of N whose order divides the bound).  The product of
N x| C_e is written once, in ``_extension_product``; each N's table
tabulates it, and the model multiplies by the last one, so a model is
exactly the product that was proved.  Classification screens a tag by its
largest bound and checks candidate generator images against its relations.

``build_model`` is ``_collect`` plus the defining relations; it caches
nothing and builds no n^2 table until ``GroupModel.table`` is read.
Classification reads ``model_fingerprint``, cached per (tag, p), which
builds each model at most once per process and fingerprints its product.
Light's test (``_check_group``) proves an arbitrary table a group; it is
the reference that ``verify_presentation_relations`` and the tests hold a
table to, and the tests also compare each model with a hand-written
collection formula, rank for rank.

Tag summary (odd p unless noted):

    VII   P^{p^2}=Q^p=R^p=1, PQ=QP, PR=RP, R^-1 Q R = Q P^p
    VIII  P^{p^2}=Q^{p^2}=1, Q^-1 P Q = P^{1+p}
    IX    P^{p^2}=Q^p=R^p=1, PQ=QP, QR=RQ, R^-1 P R = P^{1+p}
    X     P^{p^2}=Q^p=R^p=1, PQ=QP, QR=RQ, R^-1 P R = P Q
    XI    as XII/XIII with alpha = 0
    XII   ... R^-1 Q R = P^{alpha p} Q with alpha = 1
    XIII  ... with alpha the smallest quadratic non-residue mod p
    G4    P^{p^3}=Q^p=1, Q^-1 P Q = P^{1+p^2}   (any prime, incl. p = 2)
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import gcd, prod
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .abelian import (
    StructuralAnomaly,
    TableGroup,
    abelian_basis,
    group_closure,
    normal_form_images,
    perm_inverse,
    prime_power,
    tabulate,
)
from .brace import Brace, BraceError

NONABELIAN_TAGS = ("VII", "VIII", "IX", "X", "XI", "XII", "XIII", "G4")


class GroupModelError(BraceError):
    """Base error for group-model construction."""


class UnsupportedPrime(GroupModelError):
    """The tag's presentation is not available at this prime."""


class RelationFailure(GroupModelError):
    """A defining relation fails in the built model."""


class InputShapeMismatch(BraceError):
    """Theorem or classification input does not match the required order/additive type."""


class NoMatch(GroupModelError):
    """No model matches a nonabelian circle group where coverage is promised."""


def smallest_nonresidue(p: int) -> int:
    squares = {(x * x) % p for x in range(1, p)}
    return next(a for a in range(2, p) if a % p not in squares)


class GroupModel(TableGroup):
    """A tagged group on ranks, with the bounds and generators of the tag's
    ``presented`` parse; ``gens`` maps generator j to its rank prod(bounds[:j]).
    ``_collect`` gives the model its product ``mul``, the last split
    extension that it proved a group (``_extension_product``), and ``table``,
    a cached view, tabulates that product on first read; until then the
    model holds no n^2 object.  Given a flat n*n table instead, the model
    multiplies by it: ``table[i * n + j]`` is the rank of the product of
    ranks i and j.  That is how an arbitrary or tampered table is audited.
    """

    def __init__(
        self,
        tag: str,
        p: int,
        table: list[int] | None = None,
        mul: Callable[[int, int], int] | None = None,
    ):
        self.tag = tag
        self.p = p
        self.presented = presented(tag, p)
        self.bounds = self.presented.bounds
        self.gens = {g: prod(self.bounds[:j]) for j, g in enumerate(self.presented.gen_names)}
        n = prod(self.bounds)
        if table is not None:
            self.table = table
        super().__init__(n, mul if table is None else lambda i, j: table[i * n + j])

    @cached_property
    def table(self) -> list[int]:
        """The flat n*n table; a collected model tabulates its product on first read."""
        return tabulate(self.order, self.mul_r)

    def __repr__(self) -> str:
        return f"GroupModel({self.tag}, p={self.p})"


# -- fingerprints -------------------------------------------------------------------


class GroupFingerprint(NamedTuple):
    order: int
    abelian: bool
    exponent: int
    order_histogram: tuple[tuple[int, int], ...]
    center_order: int
    derived_order: int


def fingerprint(group: TableGroup) -> GroupFingerprint:
    """Exact invariants read from the group's cached element orders, center
    and derived subgroup; the group is abelian iff its center is everything.
    Only the O(n) histogram is computed here, so nothing is cached."""
    n = group.order
    hist: dict[int, int] = {}
    exponent = 1
    for o in group.element_orders:
        hist[o] = hist.get(o, 0) + 1
        exponent = exponent * o // gcd(exponent, o)
    center = len(group.center)
    return GroupFingerprint(n, center == n, exponent, tuple(sorted(hist.items())), center, len(group.derived))


# -- presentations and collection ------------------------------------------------


Word = Sequence[tuple[str, int]]  # (generator, exponent) pairs, read left to right


def presentation(tag: str, p: int) -> list[tuple[str, Word, Word]]:
    """The tag's defining relations at the prime p, as (name, lhs, rhs) words.

    Raises UnsupportedPrime when p is not prime, and at p = 2 for every tag
    but G4.  XI, XII and XIII fix alpha at 0, 1 and the smallest quadratic
    non-residue mod p; every alpha of the same residue class gives an
    isomorphic group.
    """
    if prime_power(p) != (p, 1):
        raise UnsupportedPrime(f"p = {p} is not prime")
    if tag != "G4" and p == 2:
        raise UnsupportedPrime(f"tag {tag} requires an odd prime")
    P, Q, R = ("P", 1), ("Q", 1), ("R", 1)

    def conj(x: str, y: str) -> Word:  # x^-1 y x
        return ((x, -1), (y, 1), (x, 1))

    if tag == "G4":
        return [
            ("P^{p^3} = 1", (("P", p ** 3),), ()),
            ("Q^p = 1", (("Q", p),), ()),
            ("Q^-1 P Q = P^{1+p^2}", conj("Q", "P"), (("P", 1 + p * p),)),
        ]
    rels: list[tuple[str, Word, Word]] = [("P^{p^2} = 1", (("P", p * p),), ())]
    if tag == "VIII":
        return rels + [
            ("Q^{p^2} = 1", (("Q", p * p),), ()),
            ("Q^-1 P Q = P^{1+p}", conj("Q", "P"), (("P", 1 + p),)),
        ]
    rels += [("Q^p = 1", (("Q", p),), ()), ("R^p = 1", (("R", p),), ())]
    if tag == "VII":
        rels += [
            ("PQ = QP", (P, Q), (Q, P)),
            ("PR = RP", (P, R), (R, P)),
            ("R^-1 Q R = Q P^p", conj("R", "Q"), (Q, ("P", p))),
        ]
    elif tag == "IX":
        rels += [
            ("PQ = QP", (P, Q), (Q, P)),
            ("QR = RQ", (Q, R), (R, Q)),
            ("R^-1 P R = P^{1+p}", conj("R", "P"), (("P", 1 + p),)),
        ]
    elif tag == "X":
        rels += [
            ("PQ = QP", (P, Q), (Q, P)),
            ("QR = RQ", (Q, R), (R, Q)),
            ("R^-1 P R = P Q", conj("R", "P"), (P, Q)),
        ]
    elif tag in ("XI", "XII", "XIII"):
        alpha = 0 if tag == "XI" else 1 if tag == "XII" else smallest_nonresidue(p)
        rels += [
            ("Q^-1 P Q = P^{1+p}", conj("Q", "P"), (("P", 1 + p),)),
            ("R^-1 P R = P Q", conj("R", "P"), (P, Q)),
            ("R^-1 Q R = P^{alpha p} Q", conj("R", "Q"), (("P", alpha * p), Q)),
        ]
    else:
        raise GroupModelError(f"unknown tag {tag!r}")
    return rels


def _eval_word(
    mul: Callable[[int, int], int], pow_r: Callable[[int, int], int], word: Word, images: dict[str, int]
) -> int:
    """The product of images[g]^e over the word's (g, e) factors."""
    out = None
    for g, e in word:
        x = images[g] if e == 1 else pow_r(images[g], e)
        out = x if out is None else mul(out, x)
    return 0 if out is None else out


class Presented(NamedTuple):
    """A tag's presentation at p, parsed once; it holds no table.

    ``gen_names`` are the generators that have a power relation, sorted (the
    order ``_collect`` extends by), ``bounds`` their exponents in that
    relation, and ``action[x, y]`` the word for x^-1 y x given by a
    conjugation relation, or y from a commuting relation (x the later name).
    """

    relations: tuple[tuple[str, Word, Word], ...]
    gen_names: tuple[str, ...]
    bounds: tuple[int, ...]
    action: dict[tuple[str, str], Word]


def presented(tag: str, p: int) -> Presented:
    """Parse ``presentation(tag, p)``: every relation must be a power relation
    x^e = 1, a conjugation relation x^-1 y x = w or a commuting relation yx = xy."""
    relations = tuple(presentation(tag, p))
    bounds: dict[str, int] = {}
    action: dict[tuple[str, str], Word] = {}
    for name, lhs, rhs in relations:
        gs = [g for g, _ in lhs]
        if len(lhs) == 1 and not rhs:
            bounds[gs[0]] = lhs[0][1]
        elif len(lhs) == 3 and lhs == ((gs[2], -1), (gs[1], 1), (gs[2], 1)):
            action[gs[2], gs[1]] = rhs
        elif len(lhs) == 2 and rhs == lhs[::-1] and lhs[0][1] == lhs[1][1] == 1:
            action[max(gs), min(gs)] = ((min(gs), 1),)
        else:
            raise GroupModelError(f"{tag}: {name!r} is not a power, commuting or conjugation relation")
    gen_names = tuple(sorted(bounds))
    return Presented(relations, gen_names, tuple(bounds[g] for g in gen_names), action)


def _extension_product(base: list[int], psi_pows: list[list[int]]) -> Callable[[int, int], int]:
    """The product of N x| C_e from N's flat table and the e powers of psi:
    (r1, c1)(r2, c2) = (r1 psi^c1(r2), c1 + c2 mod e) at rank r + |N| c."""
    # with m = |N| and rank i = r + m c: hi[i] = c, row[i] = m r (where r's
    # row of N starts in base), moved[c'][i] = psi^c'(r), and
    # shift[c1 + c2] = m (c1 + c2 mod e); no list here has n^2 entries
    m, e = len(psi_pows[0]), len(psi_pows)
    n = m * e
    hi = [i // m for i in range(n)]
    row = [(i % m) * m for i in range(n)]
    moved = [[psi[i % m] for i in range(n)] for psi in psi_pows]
    shift = [m * (c % e) for c in range(2 * e)]

    def mul(i: int, j: int) -> int:
        c1 = hi[i]
        return base[row[i] + moved[c1][j]] + shift[c1 + hi[j]]

    return mul


def _collect(tag: str, p: int) -> GroupModel:
    """Build the tag's group from its ``presented`` parse as iterated split extensions.

    Every generator x has a power relation x^e = 1, which gives its bound e,
    and acts on the group N of the earlier generators by phi(y) = x^-1 y x,
    read from a conjugation relation or, from a commuting relation yx = xy,
    phi(y) = y.  phi is extended over the normal forms of N and checked to be
    an automorphism of N with phi^e = id; then N x| <x> multiplies
    (r1, c1)(r2, c2) = (r1 psi^c1(r2), c1 + c2 mod e) with psi = phi^-1, at
    rank r + |N| c: collection from a polycyclic presentation (Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, 2005, ch. 8).

    That product is ``_extension_product``, the one place it is written.
    Each N's table tabulates the previous extension's product, and the model
    multiplies by the last one, so the model is exactly what was proved.  By
    induction it is a group: N x| C_e is one whenever psi is an automorphism
    of the group N whose order divides e.
    """
    spec = presented(tag, p)
    mul, n, weights = (lambda i, j: 0), 1, []  # the trivial group; weights[j] = rank of gen_names[j]
    for x, e in zip(spec.gen_names, spec.bounds):
        table = tabulate(n, mul)
        group = TableGroup(n, mul)
        images = dict(zip(spec.gen_names, weights))
        img = []
        for y in images:
            word = spec.action.get((x, y))
            if word is None or any(g not in images for g, _ in word):
                raise GroupModelError(f"{tag}: no relation gives {x}^-1 {y} {x}")
            img.append(_eval_word(mul, group.pow_r, word, images))
        phi = normal_form_images(mul, spec.bounds[: len(weights)], img)
        if len(set(phi)) != n:
            raise RelationFailure(f"{tag}: {x}-action is not a bijection on N")
        rows = [table[a * n : (a + 1) * n] for a in range(n)]
        if any([phi[ab] for ab in rows[a]] != [rows[phi[a]][pb] for pb in phi] for a in range(n)):
            raise RelationFailure(f"{tag}: {x}-action is not an automorphism of N")
        power = identity = list(range(n))
        for _ in range(e):
            power = [phi[r] for r in power]
        if power != identity:
            raise RelationFailure(f"{tag}: {x}-action does not have order dividing {'p' if e == p else e}")
        psi = perm_inverse(phi)
        psi_pows = [identity]
        for _ in range(e - 1):
            psi_pows.append([psi[r] for r in psi_pows[-1]])
        weights.append(n)
        mul = _extension_product(table, psi_pows)
        n *= e
    return GroupModel(tag, p, mul=mul)


def _holds(check: Callable[[], bool]) -> bool:
    """A relation that needs an inverse or an element order the table lacks fails."""
    try:
        return check()
    except StructuralAnomaly:
        return False


def defining_relations(model: GroupModel) -> list[tuple[str, bool]]:
    """Evaluate the tag's defining relations in the model."""
    mul, pow_r, images = model.mul_r, model.pow_r, model.gens
    return [
        (name, _holds(lambda: _eval_word(mul, pow_r, lhs, images) == _eval_word(mul, pow_r, rhs, images)))
        for name, lhs, rhs in model.presented.relations
    ]


def derived_relations(model: GroupModel) -> list[tuple[str, bool]]:
    """Consequences each tag must also satisfy (centrality of P^p etc.)."""
    p = model.p
    tag = model.tag
    P = model.gens["P"]
    mul, pw = model.mul_r, model.pow_r
    n = model.order
    out: list[tuple[str, bool]] = []

    def central(x: int) -> bool:
        return all(mul(x, a) == mul(a, x) for a in range(n))

    if tag == "G4":
        out.append(("P^{p^2} central", central(pw(P, p * p))))
        out.append(("has an element of order p^3", _holds(lambda: p ** 3 in model.element_orders)))
        return out
    pp = pw(P, p)
    if tag == "VII":
        out.append(("P central", central(P)))
        out.append(("P^p central", central(pp)))
    elif tag == "VIII":
        out.append(("P^p central", central(pp)))
        out.append(("Q^p central", central(pw(model.gens["Q"], p))))
    elif tag in ("IX", "X"):
        out.append(("Q central", central(model.gens["Q"])))
        out.append(("P^p central", central(pp)))
        R = model.gens["R"]
        out.append(("R^-1 P^p R = P^p", _holds(lambda: mul(mul(model.inv[R], pp), R) == pp)))
    elif tag in ("XI", "XII", "XIII"):
        R = model.gens["R"]
        out.append(("R^-1 P^p R = P^p", _holds(lambda: mul(mul(model.inv[R], pp), R) == pp)))
        out.append(("P^p central", central(pp)))
    return out


class RelationReport(NamedTuple):
    tag: str
    p: int
    defining: tuple[tuple[str, bool], ...]
    derived: tuple[tuple[str, bool], ...]
    associativity_checked: int
    associativity_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.associativity_ok
            and all(ok for _, ok in self.defining)
            and all(ok for _, ok in self.derived)
        )


def verify_presentation_relations(model: GroupModel) -> RelationReport:
    """Defining relations, derived consequences, and associativity, exact at
    every order.

    When ``_check_group`` proves the table a group, associativity holds on
    all n^3 triples.  Otherwise (ab)c = a(bc) is checked for every c at once,
    row ab against row a read along row b, and associativity_checked counts
    the triples up to the first failing c in (a, b, c) order.
    """
    n, t = model.order, model.table
    checked, ok = n**3, True
    try:
        _check_group(model)
    except RelationFailure:
        checked = 0
        rows = [t[a * n : (a + 1) * n] for a in range(n)]
        for a, b in itertools.product(range(n), repeat=2):
            row_a = rows[a]
            lhs, rhs = rows[row_a[b]], [row_a[bc] for bc in rows[b]]
            if lhs != rhs:
                checked += next(c for c in range(n) if lhs[c] != rhs[c]) + 1
                ok = False
                break
            checked += n
    return RelationReport(
        model.tag,
        model.p,
        tuple(defining_relations(model)),
        tuple(derived_relations(model)),
        checked,
        ok,
    )


def _check_group(model: GroupModel) -> None:
    """Prove the model's table is a group from its generators, or raise RelationFailure.

    This is the reference audit of a table, arbitrary or tampered; a
    collected model needs none, because ``_collect`` proved its product.

    Row 0 and column 0 are the identity, each generator's row is a
    permutation of the ranks, the generators reach every rank, and for each
    generator g and every x, row xg equals row x read along row g, i.e.
    (xg)y = x(gy) for all y.  The a with (xa)y = x(ay) for all x, y are
    closed under the product, so associativity holds on all n^3 triples
    (Light's test; Clifford and Preston, The Algebraic Theory of Semigroups
    I, 1961, section 1.2).  A finite monoid in which each generator acts as
    a left permutation is a group: gx = 1 for some x, L_g L_x = id, so L_x
    is a bijection with inverse L_g and xg = 1.  The cost is |gens| n^2
    gathers, at every order.
    """
    n, t = model.order, model.table
    where = f"{model.tag} at p={model.p}"
    ranks = list(range(n))
    gens = list(model.gens.values())
    if t[:n] != ranks or t[::n] != ranks:
        raise RelationFailure(f"{where}: rank 0 is not the identity")
    for g in gens:
        if sorted(t[g * n : g * n + n]) != ranks:
            raise RelationFailure(f"{where}: the row of generator rank {g} is not a permutation")
    if len(group_closure(model.mul_r, gens)) != n:
        raise RelationFailure(f"{where}: generators do not generate")
    for g in gens:
        along = itemgetter(*t[g * n : g * n + n])
        for x, xg in enumerate(t[g::n]):
            if t[xg * n : xg * n + n] != [*along(t[x * n : x * n + n])]:
                raise RelationFailure(f"{where}: failed associativity")


def build_model(tag: str, p: int) -> GroupModel:
    """Collect the tag's model (``_collect`` proves it a group) and check its
    defining relations; raises on an unsupported prime or a failed relation.
    It builds a model on every call, caches nothing and tabulates nothing."""
    model = _collect(tag, p)
    bad = [name for name, ok in defining_relations(model) if not ok]
    if bad:
        raise RelationFailure(f"{tag} at p={p}: failed {bad}")
    return model


@lru_cache(maxsize=None)
def model_fingerprint(tag: str, p: int) -> GroupFingerprint:
    """The fingerprint of ``build_model(tag, p)``, built once per process and
    garbage when this returns; no n^2 table is built.  Classification
    screens a tag by its largest bound, so that bound must be the model's
    exponent."""
    model = build_model(tag, p)
    fp = fingerprint(model)
    if fp.exponent != max(model.bounds):
        raise StructuralAnomaly(f"{tag} at p={p}: exponent {fp.exponent} is not the largest bound {model.bounds}")
    return fp


# -- classification --------------------------------------------------------------------


class Classification(NamedTuple):
    kind: str  # "abelian" | "tag" | "unmatched"
    tag: str | None  # canonical (first) matching tag
    abelian_type: tuple[int, ...] | None
    fingerprint: GroupFingerprint
    witness: tuple[int, ...] | None  # target ranks of the tag's generators, in gen_names order
    matched_tags: tuple[str, ...] = ()  # every tag whose model is isomorphic

    def label(self) -> str:
        if self.kind == "abelian":
            return "abelian " + "x".join(f"C{d}" for d in self.abelian_type)
        if self.kind == "tag":
            return self.tag
        return "unmatched"


def _iso_from_model(model: Presented | GroupModel, target: TableGroup) -> tuple[int, ...] | None:
    """Generator-image backtracking from a parsed presentation, or a built
    model's, into a table group.

    Images of the generators are tried in ``gen_names`` order, each among
    target elements of its bound's order, in rank order, so a relation in one
    generator holds for every candidate; a relation between generators is
    checked as soon as all of its generators have images.  ``_collect`` makes
    generator j the element (1_N, 1) of N x| C_e, so its order is its bound e
    and no table is read.  The normal-form extension is then checked
    bijective, which makes the map an isomorphism because the presentation
    is faithful.  The witness is the generators' image ranks, in
    ``gen_names`` order; ``normal_form_images`` extends it over the bounds.
    """
    spec = model.presented if isinstance(model, GroupModel) else model
    n = prod(spec.bounds)
    if target.order != n:
        return None
    by_order: dict[int, list[int]] = {}
    for r, o in enumerate(target.element_orders):
        by_order.setdefault(o, []).append(r)

    gen_names = spec.gen_names
    cands = [by_order.get(e, []) for e in spec.bounds]
    # due[i]: the relations between generators whose last generator is gen_names[i]
    due: list[list[tuple[Word, Word]]] = [[] for _ in gen_names]
    for _, lhs, rhs in spec.relations:
        factors = (*lhs, *rhs)
        if len({g for g, _ in factors}) > 1:
            due[max(gen_names.index(g) for g, _ in factors)].append((lhs, rhs))
    mul, pow_r = target.mul_r, lru_cache(maxsize=None)(target.pow_r)  # powers recur across branches
    images: dict[str, int] = {}

    def search(i: int) -> tuple[int, ...] | None:
        if i == len(gen_names):
            gens = tuple(images[g] for g in gen_names)
            return gens if len(set(normal_form_images(mul, spec.bounds, gens))) == n else None
        g = gen_names[i]
        for c in cands[i]:
            images[g] = c
            for lhs, rhs in due[i]:
                if _eval_word(mul, pow_r, lhs, images) != _eval_word(mul, pow_r, rhs, images):
                    break
            else:
                mapping = search(i + 1)
                if mapping is not None:
                    return mapping
        return None

    try:
        return search(0)
    finally:
        # search refers to itself through its closure cell; without this the
        # cycle keeps the target's tables alive until the cyclic collector runs
        del search


def classify_multiplicative_group(brace: Brace) -> Classification:
    """Match the circle group of a p^4 brace against the model family.

    Abelian circle groups are reported with their cyclic decomposition.  A
    tag whose presentation is not available at p is skipped, and only the
    tags whose largest bound is the target's exponent have their model built
    and compared (``model_fingerprint`` checks that bound is the model's
    exponent).  A nonabelian group with no model match raises NoMatch for
    p >= 5; at p in {2, 3} the result is reported unmatched with its
    fingerprint.  The family still lacks the two groups of exponent p in
    Burnside's list, so at p >= 5 a circle group of exponent p raises NoMatch.
    """
    n = brace.order
    pk = prime_power(n)
    if pk is None or pk[1] != 4:
        raise InputShapeMismatch(f"classification expects order p^4, got {n}")
    p = pk[0]
    target = brace.circle
    fp = fingerprint(target)
    if fp.abelian:
        basis = abelian_basis(target)
        shape = tuple(sorted(d for _, d in basis))
        return Classification("abelian", None, shape, fp, None)
    matched: list[str] = []
    first_witness: tuple[int, ...] | None = None
    for tag in NONABELIAN_TAGS:
        try:
            spec = presented(tag, p)
        except UnsupportedPrime:
            continue
        if max(spec.bounds) != fp.exponent or model_fingerprint(tag, p) != fp:
            continue
        witness = _iso_from_model(spec, target)
        if witness is not None:
            matched.append(tag)
            if first_witness is None:
                first_witness = witness
    if matched:
        return Classification("tag", matched[0], None, fp, first_witness, tuple(matched))
    if p >= 5:
        raise NoMatch(f"nonabelian circle group at p={p} matches no model; coverage bug")
    return Classification("unmatched", None, None, fp, None)
