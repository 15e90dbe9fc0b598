"""Exact arithmetic on finite abelian groups given as products of cyclic groups.

Elements are coordinate tuples, reduced componentwise; ranks follow a
little-endian mixed-radix rule (rank(a) = sum a_i * prod_{j<i} d_j), and every
table or file in the package indexes elements by that rank.  An additive
automorphism is its rank permutation: the tuple of the images of all ranks.
A set of elements (a subgroup, ideal, series term or central set) is the
frozenset of their ranks.
All values are immutable after construction, so concurrent reads are safe;
derived views (tables, inverses, center, ...) are cached properties.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd, isqrt, prod
from typing import Callable, Iterable, Sequence

Element = tuple[int, ...]


class AbelianError(Exception):
    """Base error for the abelian layer."""


class NotHomomorphism(AbelianError):
    """A candidate column violates the order-divisibility condition."""


class NotBijective(AbelianError):
    """A candidate automorphism is not a bijection on the group."""


class StructuralAnomaly(AbelianError):
    """An internal consistency fact that must hold was observed to fail."""


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k for a prime p and k >= 1; None otherwise."""
    if n < 2:
        return None
    p = next((f for f in range(2, isqrt(n) + 1) if n % f == 0), n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def checked_moduli(moduli: Sequence[int]) -> tuple[int, ...]:
    """The moduli as ints, each at least 2; checked before anything is built."""
    moduli = tuple(int(d) for d in moduli)
    if any(d < 2 for d in moduli):
        raise ValueError(f"moduli must all be >= 2, got {moduli}")
    return moduli


class AbelianGroup:
    """Finite abelian group Z_{d_1} x ... x Z_{d_k} with tuple elements.

    The trivial group is permitted as the empty product (used by quotients);
    every listed modulus must be at least 2.
    """

    def __init__(self, moduli: Sequence[int]):
        moduli = checked_moduli(moduli)
        self.moduli: tuple[int, ...] = moduli
        self.order: int = prod(moduli)
        self.elements: list[Element] = [
            tuple(reversed(e)) for e in itertools.product(*[range(d) for d in reversed(moduli)])
        ]
        self._index: dict[Element, int] = {e: i for i, e in enumerate(self.elements)}

    # -- rank / unrank -------------------------------------------------------

    def rank(self, e: Element) -> int:
        r = self._index.get(tuple(e))
        if r is None:
            raise ValueError(f"element {e!r} not in group with moduli {self.moduli}")
        return r

    def unrank(self, i: int) -> Element:
        if not 0 <= i < self.order:
            raise IndexError(f"rank {i} out of range for order {self.order}")
        return self.elements[i]

    # -- arithmetic on coordinate tuples ------------------------------------

    def reduce(self, e: Sequence[int]) -> Element:
        return tuple(int(x) % d for x, d in zip(e, self.moduli))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.moduli))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % d for x, d in zip(a, self.moduli))

    def scalar_multiple(self, n: int, a: Element) -> Element:
        return tuple((n * x) % d for x, d in zip(a, self.moduli))

    def scalar_rank(self, n: int, i: int) -> int:
        """n times the element of rank i, as a rank."""
        return self._index[self.scalar_multiple(n, self.elements[i])]

    @property
    def zero(self) -> Element:
        return (0,) * len(self.moduli)

    def element_order(self, a: Element) -> int:
        out = 1
        for x, d in zip(a, self.moduli):
            out = out * (d // gcd(x, d)) // gcd(out, d // gcd(x, d))
        return out

    # -- rank-level tables (hot paths) ---------------------------------------

    @property
    def unit_ranks(self) -> list[int]:
        """Ranks of the standard generators e_0..e_{k-1}: e_j has rank prod(moduli[:j])."""
        return [prod(self.moduli[:j]) for j in range(len(self.moduli))]

    @cached_property
    def neg_rank(self) -> list[int]:
        return [self.rank(self.neg(e)) for e in self.elements]

    @cached_property
    def add_flat(self) -> list[int]:
        """Flat n*n addition table over ranks; built on first use.

        Row a lists rank(a + b) over b in rank order, built digit by digit in
        the mixed radix; entries are the shared ints of ``range(n)``.
        """
        n = self.order
        ranks = list(range(n))
        weights = [prod(self.moduli[:t]) for t in range(len(self.moduli))]
        # shifted[t][s]: the weighted digit t of b, after adding s to it
        shifted = [
            [[(s + x) % d * w for x in range(d)] for s in range(d)]
            for d, w in zip(self.moduli, weights)
        ]
        flat = [0] * (n * n)
        for i, a in enumerate(self.elements):
            row = [0]
            for t, s in enumerate(a):
                row = [x + r for x in shifted[t][s] for r in row]
            flat[i * n : (i + 1) * n] = [ranks[r] for r in row]
        return flat

    @cached_property
    def add_rank(self) -> Callable[[int, int], int]:
        """(i, j) -> rank(i + j): a closure over ``add_flat``, built on first read."""
        flat, n = self.add_flat, self.order

        def add_rank(i: int, j: int) -> int:
            return flat[i * n + j]

        return add_rank

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbelianGroup) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return f"AbelianGroup{self.moduli}"


def perm_inverse(perm: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a permutation of ranks."""
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


def perm_order(perm: Sequence[int]) -> int:
    """The order of a permutation of ranks: the lcm of its cycle lengths."""
    seen = [False] * len(perm)
    out = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        out = out * length // gcd(out, length)
    return out


def validate_automorphism(group: AbelianGroup, columns: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The automorphism with these columns (images of the generators e_j), as
    its rank permutation; raises unless they induce a well-defined bijection.

    Column j must have k coordinates and additive order dividing d_j
    (well-definedness); the columns are then extended additively over the
    normal forms, and the map is checked bijective.
    """
    k = len(group.moduli)
    if len(columns) != k:
        raise NotHomomorphism(f"expected {k} columns, got {len(columns)}")
    for j, col in enumerate(columns):
        if len(col) != k:
            raise NotHomomorphism(f"column {j} has {len(col)} coordinates, expected {k}")
    cols = tuple(group.reduce(c) for c in columns)
    for j, col in enumerate(cols):
        d = group.moduli[j]
        if group.scalar_multiple(d, col) != group.zero:
            raise NotHomomorphism(f"column {j} has order not dividing {d}: {col}")
    perm = tuple(normal_form_images(group.add_rank, group.moduli, [group.rank(c) for c in cols]))
    if len(set(perm)) != group.order:
        raise NotBijective(f"columns {cols} do not induce a bijection")
    return perm


def all_automorphisms(group: AbelianGroup) -> list[tuple[int, ...]]:
    """Every automorphism as its rank permutation, in increasing order of its
    images of the unit ranks (the product below runs over rank-ordered
    candidates, so no sort is needed)."""
    candidates = [
        [r for r, e in enumerate(group.elements) if group.scalar_multiple(d, e) == group.zero]
        for d in group.moduli
    ]
    out = []
    for combo in itertools.product(*candidates):
        perm = tuple(normal_form_images(group.add_rank, group.moduli, combo))
        if len(set(perm)) == group.order:
            out.append(perm)
    return out


class TableGroup:
    """Group on ranks 0..n-1 given by a product function; identity must be 0.

    Powers, inverses, element orders, generators, the center and the derived
    subgroup are derived from ``mul_r`` alone; all but powers are cached on
    first read.
    """

    def __init__(self, n: int, mul_r: Callable[[int, int], int]):
        self.order = n
        self.mul_r = mul_r

    @cached_property
    def inv(self) -> list[int]:
        """x^-1 = x^(ord(x) - 1)."""
        return [self.pow_r(i, o - 1) for i, o in enumerate(self.element_orders)]

    def pow_r(self, i: int, k: int) -> int:
        if k < 0:
            return self.inv[self.pow_r(i, -k)]
        acc, base = None, i
        while k:
            if k & 1:
                acc = base if acc is None else self.mul_r(acc, base)
            k >>= 1
            if k:
                base = self.mul_r(base, base)
        return 0 if acc is None else acc

    @cached_property
    def element_orders(self) -> list[int]:
        """The least t >= 1 with x^t = 0; a power walk that has not met 0 after
        n products (x^n = 1 in a group of order n) raises StructuralAnomaly."""
        mul, n = self.mul_r, self.order
        out = [0] * n
        for i in range(n):
            y = i
            for t in range(1, n + 1):
                if y == 0:
                    break
                y = mul(y, i)
            else:
                raise StructuralAnomaly(f"rank {i} has no power equal to the identity within {n} products")
            out[i] = t
        return out

    @cached_property
    def generators(self) -> list[int]:
        """Greedy generators: the ranks that ``closure_generators`` keeps from 0..n-1.

        Every element is a word in them, built from 0 by right multiplication.
        """
        return closure_generators(self.mul_r, range(self.order))[1]

    @cached_property
    def center(self) -> frozenset[int]:
        """The elements that commute with every generator."""
        mul, gens = self.mul_r, self.generators
        return frozenset(c for c in range(self.order) if all(mul(c, g) == mul(g, c) for g in gens))

    @cached_property
    def derived(self) -> frozenset[int]:
        """The derived subgroup G': the normal closure of the generators'
        commutators, closed under conjugation by the generators."""
        mul, inv, gens = self.mul_r, self.inv, self.generators
        seeds = {mul(mul(inv[a], inv[b]), mul(a, b)) for a in gens for b in gens}
        while True:
            derived, dgens = closure_generators(mul, seeds)
            conjugates = {mul(mul(inv[g], h), g) for h in dgens for g in gens}
            if conjugates <= derived:
                return derived
            seeds = set(dgens) | conjugates


def closure_generators(mul: Callable[[int, int], int], seeds: Iterable[int]) -> tuple[frozenset[int], list[int]]:
    """Subgroup generated by the seeds, and the seeds kept as its generators.

    Seeds are taken in increasing order and one already reached is skipped,
    so at most log2 |H| of them become generators; each new one re-closes the
    members reached so far under right multiplication by the generators
    (words in them are enough in a finite group).
    """
    members = {0}
    gens: list[int] = []
    for s in sorted(set(seeds)):
        if s in members:
            continue
        gens.append(s)
        frontier = list(members)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = mul(x, g)
                if y not in members:
                    members.add(y)
                    frontier.append(y)
    return frozenset(members), gens


def normal_form_images(mul: Callable[[int, int], int], bounds: Sequence[int], images: Sequence[int]) -> list[int]:
    """Image of x_0^c_0 ... x_{k-1}^c_{k-1} at the little-endian rank of (c_0, ..., c_{k-1}).

    x_j maps to images[j]; rank c w + low, with w = prod(bounds[:j]) and
    low < w, maps to out[low] . img_j^c, the power built from 0 by right
    multiplication.  n products plus one per power.
    """
    out = [0]
    for b, img in zip(bounds, images):
        w, power = len(out), 0
        for _ in range(b - 1):
            power = mul(power, img)
            out += [mul(x, power) for x in out[:w]]
    return out


def group_closure(mul: Callable[[int, int], int], seeds: Iterable[int]) -> frozenset[int]:
    """Subgroup generated by the seeds; on ``AbelianGroup.add_rank``, the
    additive subgroup."""
    return closure_generators(mul, seeds)[0]


def multiples_subgroup(group: AbelianGroup, k: int) -> frozenset[int]:
    """The subgroup {k*a : a in A}, computed by direct image enumeration."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return frozenset(group.scalar_rank(k, i) for i in range(group.order))


def primary_invariants(moduli: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Multiset of prime-power orders in the primary decomposition, sorted."""
    parts: list[tuple[int, int]] = []
    for d in moduli:
        m = d
        f = 2
        while f * f <= m:
            if m % f == 0:
                q = 1
                while m % f == 0:
                    m //= f
                    q *= f
                parts.append((f, q))
            f += 1
        if m > 1:
            parts.append((m, m))
    return tuple(sorted(parts))


def aut_order(moduli: Sequence[int]) -> int:
    """|Aut(A)| from the primary invariants, without listing automorphisms.

    Hillar and Rhea (Amer. Math. Monthly 114, 2007): for the p-part
    Z_{p^e_1} x ... x Z_{p^e_m} with e_1 <= ... <= e_m, d_k = max{l : e_l = e_k}
    and c_k = min{l : e_l = e_k} (1-based),
    |Aut| = prod_k (p^d_k - p^(k-1)) * prod_j p^(e_j (m - d_j)) * prod_i p^((e_i - 1)(m - c_i + 1)),
    and |Aut(A)| is the product over the primes.
    """
    exps: dict[int, list[int]] = {}
    for p, q in primary_invariants(moduli):
        e = 0
        while q > 1:
            q //= p
            e += 1
        exps.setdefault(p, []).append(e)
    out = 1
    for p, es in exps.items():
        m = len(es)  # es is sorted: primary_invariants sorts by (p, p^e)
        for k, e in enumerate(es, start=1):
            c = es.index(e) + 1
            d = c - 1 + es.count(e)
            out *= (p ** d - p ** (k - 1)) * p ** (e * (m - d)) * p ** ((e - 1) * (m - c + 1))
    return out


def abelian_basis(group: TableGroup) -> list[tuple[int, int]]:
    """Cyclic basis (generator, order) pairs for an abelian table group.

    Greedy: repeatedly pick an element whose order in the current quotient is
    maximal and equals its full order; such an element always exists because a
    cyclic subgroup of exponent order is a direct summand.
    """
    n, add, orders = group.order, group.mul_r, group.element_orders
    span = {0}
    gens: list[tuple[int, int]] = []
    while len(span) < n:
        qord: dict[int, int] = {}
        for x in range(n):
            if x in span:
                continue
            t, y = 1, x
            while y not in span:
                y = add(y, x)
                t += 1
            qord[x] = t
        d = max(qord.values())
        best = next((x for x in range(n) if qord.get(x) == d and orders[x] == d), None)
        if best is None:
            raise StructuralAnomaly("no basis element with matching order; group not abelian?")
        gens.append((best, d))
        span = set(normal_form_images(add, [o for _, o in gens], [g for g, _ in gens]))
        if len(span) != prod(o for _, o in gens):
            raise StructuralAnomaly("span did not grow multiplicatively")
    return gens
