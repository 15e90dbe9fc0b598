"""Built-in brace families: trivial, the two diagonal families, ring braces.

The diagonal families realise nonabelian multiplicative groups on the two
additive shapes of order p^4:

    diagonal_brace_m1(p): A = Z_{p^2} x Z_{p^2}, lambda_(a,b) = diag((1+p)^b, 1)
    diagonal_brace_m2(p): A = Z_p x Z_{p^3},     lambda_(a,b)(x,y) = (x, (1+p^2)^a y)

Ring braces come from a nilpotent associative product via a o b = a + b + a.b,
so a * b = a.b exactly.
"""

from __future__ import annotations

from typing import Sequence

from .abelian import AbelianGroup, Element, closure_generators, group_closure
from .brace import Brace, BraceError, trivial_brace, validate_brace

__all__ = [
    "trivial_brace",
    "diagonal_brace_m1",
    "diagonal_brace_m2",
    "ring_brace",
    "RING_PRESETS",
    "NotAssociative",
    "NotNilpotent",
    "NotDistributive",
]


class NotAssociative(BraceError):
    """The structure-constant product is not associative."""


class NotNilpotent(BraceError):
    """The ring product has a non-vanishing power ideal."""


class NotDistributive(BraceError):
    """Structure constants are not well defined over the given moduli."""


def diagonal_brace_m1(p: int) -> Brace:
    """Brace on Z_{p^2} x Z_{p^2} whose circle group is nonabelian."""
    m = p * p
    group = AbelianGroup([m, m])
    table = [[(pow(1 + p, b, m), 0), (0, 1)] for (a, b) in group.elements]
    return validate_brace(group, table, name=f"diagonal-m1 p={p}")


def diagonal_brace_m2(p: int) -> Brace:
    """Brace on Z_p x Z_{p^3} whose circle group has an element of order p^3."""
    m = p ** 3
    group = AbelianGroup([p, m])
    table = [[(1, 0), (0, pow(1 + p * p, a, m))] for (a, b) in group.elements]
    return validate_brace(group, table, name=f"diagonal-m2 p={p}")


def ring_brace(moduli: Sequence[int], products: dict[tuple[int, int], Sequence[int]], name: str = "") -> Brace:
    """Brace from structure constants e_i . e_j = products[(i, j)].

    The product extends bilinearly; it must be well defined over the moduli,
    associative, and nilpotent (some power ideal vanishes), which makes the
    circle operation a group with a * b = a.b exactly.
    """
    group = AbelianGroup(moduli)
    k = len(group.moduli)
    const: list[list[Element]] = [[group.zero] * k for _ in range(k)]
    for (i, j), val in products.items():
        const[i][j] = group.reduce(val)
    for i in range(k):
        for j in range(k):
            c = const[i][j]
            for d in (group.moduli[i], group.moduli[j]):
                if group.scalar_multiple(d, c) != group.zero:
                    raise NotDistributive(
                        f"e_{i}.e_{j} = {c} has order not dividing {d}; bilinear extension ill-defined"
                    )

    def mul(a: Element, b: Element) -> Element:
        acc = group.zero
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    acc = group.add(acc, group.scalar_multiple(x * y, const[i][j]))
        return acc

    gens = [tuple(1 if t == j else 0 for t in range(k)) for j in range(k)]
    for a in gens:
        for b in gens:
            for c in gens:
                if mul(mul(a, b), c) != mul(a, mul(b, c)):
                    raise NotAssociative(f"(e.e).e != e.(e.e) at {a},{b},{c}")

    # power ideal chain: T_{k+1} = span(T_k . A); nilpotent iff it reaches 0.
    # The product is bilinear, so T_{k+1} = span(g . e_j : g generates T_k).
    term = frozenset(range(group.order))
    seen = set()
    while len(term) > 1:
        if term in seen:
            raise NotNilpotent("power ideal chain stabilised above zero")
        seen.add(term)
        prods = {
            group.rank(mul(group.unrank(x), e))
            for x in closure_generators(group.add_rank, term)[1]
            for e in gens
        }
        term = group_closure(group.add_rank, prods)

    table = []
    for a in group.elements:
        table.append([group.add(mul(a, g), g) for g in gens])
    brace = validate_brace(group, table, name=name or f"ring{tuple(group.moduli)}")
    # both sides are additive in b, so b = e_j is enough
    for a in group.elements:
        for b in gens:
            if brace.star(a, b) != mul(a, b):
                raise BraceError("star does not match the ring product")
    return brace


RING_PRESETS: dict[str, tuple[tuple[int, ...], dict[tuple[int, int], tuple[int, ...]]]] = {
    # x.y = 2xy on Z_4: the circle order of 1 drops to 2 while its additive order is 4
    "z4-doubling": ((4,), {(0, 0): (2,)}),
    # e1.e1 = e2 on Z_2 x Z_2: commutative, abelian circle group
    "c2c2-square": ((2, 2), {(0, 0): (0, 1)}),
}
