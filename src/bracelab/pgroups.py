"""Concrete multiplication models for the nonabelian groups of order p^4 used
by the verification suites, and classification of a brace's circle group.

Each model stores elements as exponent tuples over its generators and
tabulates their collection product; every built model is then validated
against its defining relations and checked associative (exhaustively up to
order 81, by seeded sampling above).  Collection formulas are easy to get
subtly wrong, so the validator is the actual source of trust.  The relations
are written once, as words in ``presentation``; classification checks
candidate generator images against the same list.

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
import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Callable, Sequence

from .abelian import EXHAUSTIVE_LIMIT, TableGroup, abelian_basis, closure_generators, group_closure, prime_power
from .brace import Brace, BraceError

NONABELIAN_TAGS = ("VII", "VIII", "IX", "X", "XI", "XII", "XIII", "G4")


class GroupModelError(BraceError):
    """Base error for group-model construction."""


class UnsupportedPrime(GroupModelError):
    """The tag's presentation is not available at this prime."""


class BadAlpha(GroupModelError):
    """alpha does not lie in the residue class the tag requires."""


class RelationFailure(GroupModelError):
    """A defining relation fails in the built model."""


class NoMatch(GroupModelError):
    """No model matches a nonabelian circle group where coverage is promised."""


def smallest_nonresidue(p: int) -> int:
    squares = {(x * x) % p for x in range(1, p)}
    return next(a for a in range(2, p) if a % p not in squares)


class GroupModel(TableGroup):
    """A tagged group on exponent tuples, its collection product tabulated once.

    Generators P, Q (, R) are the unit exponent tuples, in that order.  Rank
    order is little-endian over the exponent bounds (first coordinate
    fastest), so the identity tuple has rank 0.
    """

    def __init__(
        self,
        tag: str,
        p: int,
        bounds: tuple[int, ...],
        mul: Callable[[tuple, tuple], tuple],
        alpha: int | None = None,
    ):
        self.tag = tag
        self.p = p
        self.alpha = alpha
        k = len(bounds)
        self.gens = {g: tuple(int(i == j) for i in range(k)) for j, g in enumerate("PQR"[:k])}
        self.elements = [tuple(reversed(e)) for e in itertools.product(*[range(b) for b in reversed(bounds)])]
        self._index = index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        table = [index[mul(a, b)] for a in self.elements for b in self.elements]
        super().__init__(n, lambda i, j: table[i * n + j])

    def rank(self, e: tuple) -> int:
        return self._index[e]

    def gen_rank(self, name: str) -> int:
        return self.rank(self.gens[name])

    def __repr__(self) -> str:
        a = f", alpha={self.alpha}" if self.alpha is not None else ""
        return f"GroupModel({self.tag}, p={self.p}{a})"


# -- fingerprints -------------------------------------------------------------------


@dataclass(frozen=True)
class GroupFingerprint:
    order: int
    abelian: bool
    exponent: int
    order_histogram: tuple[tuple[int, int], ...]
    center_order: int
    derived_order: int


def fingerprint(group: TableGroup) -> GroupFingerprint:
    """Exact invariants from the element orders and the generators, cached on the group.

    The center is what commutes with the generators, the group is abelian iff
    that is everything, and the derived subgroup is the normal closure of the
    generators' commutators: closed under conjugation by the generators.
    """
    if group._fingerprint is not None:
        return group._fingerprint
    n = group.order
    mul, inv = group.mul_r, group.inv
    hist: dict[int, int] = {}
    exponent = 1
    for o in group.element_orders:
        hist[o] = hist.get(o, 0) + 1
        exponent = exponent * o // gcd(exponent, o)
    center = len(group.center)
    gens = group.generators
    seeds = {mul(mul(inv[a], inv[b]), mul(a, b)) for a in gens for b in gens}
    while True:
        derived, dgens = closure_generators(mul, seeds)
        conjugates = {mul(mul(inv[g], h), g) for h in dgens for g in gens}
        if conjugates <= derived:
            break
        seeds = set(dgens) | conjugates
    group._fingerprint = GroupFingerprint(
        n, center == n, exponent, tuple(sorted(hist.items())), center, len(derived)
    )
    return group._fingerprint


# -- model builders ------------------------------------------------------------------


def _build_vii(p: int) -> GroupModel:
    p2 = p * p

    def mul(x: tuple, y: tuple) -> tuple:
        a1, b1, c1 = x
        a2, b2, c2 = y
        return ((a1 + a2 - p * c1 * b2) % p2, (b1 + b2) % p, (c1 + c2) % p)

    return GroupModel("VII", p, (p2, p, p), mul)


def _build_viii(p: int) -> GroupModel:
    p2 = p * p
    shift = pow(1 + p, -1, p2)

    def mul(x: tuple, y: tuple) -> tuple:
        a1, b1 = x
        a2, b2 = y
        return ((a1 + a2 * pow(shift, b1, p2)) % p2, (b1 + b2) % p2)

    return GroupModel("VIII", p, (p2, p2), mul)


def _build_ix(p: int) -> GroupModel:
    p2 = p * p
    shift = pow(1 + p, -1, p2)

    def mul(x: tuple, y: tuple) -> tuple:
        a1, b1, c1 = x
        a2, b2, c2 = y
        return ((a1 + a2 * pow(shift, c1, p2)) % p2, (b1 + b2) % p, (c1 + c2) % p)

    return GroupModel("IX", p, (p2, p, p), mul)


def _build_x(p: int) -> GroupModel:
    p2 = p * p

    def mul(x: tuple, y: tuple) -> tuple:
        a1, b1, c1 = x
        a2, b2, c2 = y
        return ((a1 + a2) % p2, (b1 + b2 - a2 * c1) % p, (c1 + c2) % p)

    return GroupModel("X", p, (p2, p, p), mul)


def _build_xi_family(tag: str, p: int, alpha: int) -> GroupModel:
    """XI/XII/XIII as (modular p^3 group) extended by R acting on it.

    The action phi(x) = R^-1 x R is given on generators (phi(P) = PQ,
    phi(Q) = P^{alpha p} Q), extended multiplicatively over the normal
    subgroup N = <P, Q>, inverted as a permutation, and verified to be an
    automorphism with phi^p = id.
    """
    p2 = p * p
    shift = pow(1 + p, -1, p2)

    def n_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        a1, b1 = x
        a2, b2 = y
        return ((a1 + a2 * pow(shift, b1, p2)) % p2, (b1 + b2) % p)

    def n_pow(x: tuple[int, int], k: int) -> tuple[int, int]:
        acc = (0, 0)
        for _ in range(k):
            acc = n_mul(acc, x)
        return acc

    n_elems = [(a, b) for b in range(p) for a in range(p2)]
    phi_p = (1, 1)            # image of P
    phi_q = ((alpha * p) % p2, 1)  # image of Q
    phi: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b in n_elems:
        phi[(a, b)] = n_mul(n_pow(phi_p, a), n_pow(phi_q, b))
    if len(set(phi.values())) != len(n_elems):
        raise RelationFailure(f"{tag}: R-action is not a bijection on N")
    for x in n_elems:
        for y in n_elems:
            if phi[n_mul(x, y)] != n_mul(phi[x], phi[y]):
                raise RelationFailure(f"{tag}: R-action is not an automorphism of N")
    power = dict(phi)
    for _ in range(p - 1):
        power = {x: phi[power[x]] for x in n_elems}
    if any(power[x] != x for x in n_elems):
        raise RelationFailure(f"{tag}: R-action does not have order dividing p")
    psi = {v: k for k, v in phi.items()}  # psi(x) = R x R^-1
    psi_pows: list[dict] = [{x: x for x in n_elems}]
    for _ in range(p - 1):
        psi_pows.append({x: psi[psi_pows[-1][x]] for x in n_elems})

    def mul(x: tuple, y: tuple) -> tuple:
        a1, b1, c1 = x
        a2, b2, c2 = y
        moved = psi_pows[c1][(a2, b2)]
        a, b = n_mul((a1, b1), moved)
        return (a, b, (c1 + c2) % p)

    return GroupModel(tag, p, (p2, p, p), mul, alpha=alpha)


def _build_g4(p: int) -> GroupModel:
    p3 = p ** 3
    shift = pow(1 + p * p, -1, p3)

    def mul(x: tuple, y: tuple) -> tuple:
        a1, b1 = x
        a2, b2 = y
        return ((a1 + a2 * pow(shift, b1, p3)) % p3, (b1 + b2) % p)

    return GroupModel("G4", p, (p3, p), mul)


Word = Sequence[tuple[str, int]]  # (generator, exponent) pairs, read left to right


def presentation(tag: str, p: int, alpha: int | None = None) -> list[tuple[str, Word, Word]]:
    """The tag's defining relations as (name, lhs, rhs) words in P, Q, R."""
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


def defining_relations(model: GroupModel) -> list[tuple[str, bool]]:
    """Evaluate the tag's defining relations in the model."""
    images = {g: model.gen_rank(g) for g in model.gens}
    mul, pow_r = model.mul_r, model.pow_r
    return [
        (name, _eval_word(mul, pow_r, lhs, images) == _eval_word(mul, pow_r, rhs, images))
        for name, lhs, rhs in presentation(model.tag, model.p, model.alpha)
    ]


def derived_relations(model: GroupModel) -> list[tuple[str, bool]]:
    """Consequences each tag must also satisfy (centrality of P^p etc.)."""
    p = model.p
    tag = model.tag
    P = model.gen_rank("P")
    mul, pw = model.mul_r, model.pow_r
    n = model.order
    out: list[tuple[str, bool]] = []

    def central(x: int) -> bool:
        return all(mul(x, a) == mul(a, x) for a in range(n))

    if tag == "G4":
        out.append(("P^{p^2} central", central(pw(P, p * p))))
        out.append(("has an element of order p^3", (p ** 3) in dict(fingerprint(model).order_histogram)))
        return out
    pp = pw(P, p)
    if tag == "VII":
        out.append(("P central", central(P)))
        out.append(("P^p central", central(pp)))
    elif tag == "VIII":
        out.append(("P^p central", central(pp)))
        out.append(("Q^p central", central(pw(model.gen_rank("Q"), p))))
    elif tag in ("IX", "X"):
        out.append(("Q central", central(model.gen_rank("Q"))))
        out.append(("P^p central", central(pp)))
        R = model.gen_rank("R")
        out.append(("R^-1 P^p R = P^p", mul(mul(model.inv_r(R), pp), R) == pp))
    elif tag in ("XI", "XII", "XIII"):
        R = model.gen_rank("R")
        out.append(("R^-1 P^p R = P^p", mul(mul(model.inv_r(R), pp), R) == pp))
        out.append(("P^p central", central(pp)))
    return out


@dataclass(frozen=True)
class RelationReport:
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


def verify_presentation_relations(model: GroupModel, seed: int = 0, sample: int = 100_000) -> RelationReport:
    """Defining relations, derived consequences, and associativity."""
    n = model.order
    checked = 0
    ok = True
    if n <= EXHAUSTIVE_LIMIT:
        # (ab)c = a(bc) for every c at once: row ab against row a read along row b;
        # checked counts the triples up to the first failing c, in (a, b, c) order
        rows = [[model.mul_r(a, c) for c in range(n)] for a in range(n)]
        for a, b in itertools.product(range(n), repeat=2):
            row_a = rows[a]
            lhs, rhs = rows[row_a[b]], [row_a[bc] for bc in rows[b]]
            if lhs != rhs:
                checked += next(c for c in range(n) if lhs[c] != rhs[c]) + 1
                ok = False
                break
            checked += n
    else:
        rng = random.Random(seed)
        for _ in range(sample):
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            checked += 1
            if model.mul_r(model.mul_r(a, b), c) != model.mul_r(a, model.mul_r(b, c)):
                ok = False
                break
    return RelationReport(
        model.tag,
        model.p,
        tuple(defining_relations(model)),
        tuple(derived_relations(model)),
        checked,
        ok,
    )


@lru_cache(maxsize=None)
def build_model(tag: str, p: int, alpha: int | None = None) -> GroupModel:
    """Build and validate a model; raises on bad prime, bad alpha, or any
    failed relation/associativity check."""
    if prime_power(p) != (p, 1):
        raise UnsupportedPrime(f"p = {p} is not prime")
    if tag != "G4" and p == 2:
        raise UnsupportedPrime(f"tag {tag} requires an odd prime")
    squares = {(x * x) % p for x in range(1, p)}
    if tag == "XI":
        alpha = 0 if alpha is None else alpha
        if alpha % p != 0:
            raise BadAlpha("XI requires alpha = 0 mod p")
    elif tag == "XII":
        alpha = 1 if alpha is None else alpha
        if alpha % p not in squares:
            raise BadAlpha("XII requires alpha a nonzero quadratic residue mod p")
    elif tag == "XIII":
        alpha = smallest_nonresidue(p) if alpha is None else alpha
        if alpha % p in squares or alpha % p == 0:
            raise BadAlpha(f"XIII requires a non-residue mod {p}")
    elif alpha is not None:
        raise BadAlpha(f"tag {tag} takes no alpha")

    if tag == "VII":
        model = _build_vii(p)
    elif tag == "VIII":
        model = _build_viii(p)
    elif tag == "IX":
        model = _build_ix(p)
    elif tag == "X":
        model = _build_x(p)
    elif tag in ("XI", "XII", "XIII"):
        model = _build_xi_family(tag, p, alpha)
    elif tag == "G4":
        model = _build_g4(p)
    else:
        raise GroupModelError(f"unknown tag {tag!r}")

    report = verify_presentation_relations(model)
    if not all(ok for _, ok in report.defining) or not report.associativity_ok:
        bad = [name for name, ok in report.defining if not ok]
        raise RelationFailure(f"{tag} at p={p}: failed {bad or 'associativity'}")
    gen_ranks = {model.gen_rank(g) for g in model.gens}
    if len(group_closure(model.mul_r, gen_ranks)) != model.order:
        raise RelationFailure(f"{tag} at p={p}: generators do not generate")
    return model


# -- classification --------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    kind: str  # "abelian" | "tag" | "unmatched"
    tag: str | None  # canonical (first) matching tag
    abelian_type: tuple[int, ...] | None
    fingerprint: GroupFingerprint
    witness: dict[tuple, int] | None  # model generator tuple -> target rank
    matched_tags: tuple[str, ...] = ()  # every tag whose model is isomorphic

    def label(self) -> str:
        if self.kind == "abelian":
            return "abelian " + "x".join(f"C{d}" for d in self.abelian_type)
        if self.kind == "tag":
            return self.tag
        return "unmatched"


def _iso_from_model(model: GroupModel, target: TableGroup) -> dict[tuple, int] | None:
    """Generator-image backtracking from a validated model into a table group.

    Images of P, Q, R are tried in that order among target elements of the
    generators' orders in the model, so a relation in one generator holds for
    every candidate; a relation between generators is checked as soon as all
    of its generators have images.  The normal-form extension is then checked
    bijective, which makes the map an isomorphism because the presentation is
    faithful.
    """
    n = model.order
    if target.order != n:
        return None
    by_order: dict[int, list[int]] = {}
    for r, o in enumerate(target.element_orders):
        by_order.setdefault(o, []).append(r)

    gen_names = list(model.gens)
    cands = [by_order.get(model.element_orders[model.gen_rank(g)], []) for g in gen_names]
    # due[i]: the relations between generators whose last generator is gen_names[i]
    due: list[list[tuple[Word, Word]]] = [[] for _ in gen_names]
    for _, lhs, rhs in presentation(model.tag, model.p, model.alpha):
        factors = (*lhs, *rhs)
        if len({g for g, _ in factors}) > 1:
            due[max(gen_names.index(g) for g, _ in factors)].append((lhs, rhs))
    mul, pow_r = target.mul_r, lru_cache(maxsize=None)(target.pow_r)  # powers recur across branches
    images: dict[str, int] = {}

    def full_map() -> dict[tuple, int] | None:
        gen_imgs = [images[g] for g in gen_names]
        mapping: dict[tuple, int] = {}
        seen = set()
        for e in model.elements:
            acc = 0
            for coeff, gi in zip(e, gen_imgs):
                if coeff:
                    acc = mul(acc, pow_r(gi, coeff))
            if acc in seen:
                return None
            seen.add(acc)
            mapping[e] = acc
        return mapping

    def search(i: int) -> dict[tuple, int] | None:
        if i == len(gen_names):
            return full_map()
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

    return search(0)


def classify_multiplicative_group(brace: Brace) -> Classification:
    """Match the circle group of a p^4 brace against the model family.

    Abelian circle groups are reported with their cyclic decomposition.  Only
    models of the target's exponent are built and compared: p^3 for G4 and
    p^2 for every other tag (a nonabelian group of order p^4 with an element
    of order p^3 has a cyclic maximal subgroup, so it is G4).  A nonabelian
    group with no model match raises NoMatch for odd p >= 5, where the family
    is known to cover every possibility; at p in {2, 3} the result is
    reported unmatched with its fingerprint.
    """
    from .nilpotency import InputShapeMismatch

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
    first_witness: dict[tuple, int] | None = None
    for tag in NONABELIAN_TAGS if p != 2 else ("G4",):
        if (p ** 3 if tag == "G4" else p * p) != fp.exponent:
            continue
        model = build_model(tag, p)
        if fingerprint(model) != fp:
            continue
        witness = _iso_from_model(model, target)
        if witness is not None:
            matched.append(model.tag)
            if first_witness is None:
                first_witness = witness
    if matched:
        return Classification("tag", matched[0], None, fp, first_witness, tuple(matched))
    if p >= 5:
        raise NoMatch(f"nonabelian circle group at p={p} matches no model; coverage bug")
    return Classification("unmatched", None, None, fp, None)
