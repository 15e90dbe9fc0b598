"""Exact arithmetic on finite abelian groups given as products of cyclic groups.

Elements are coordinate tuples, reduced componentwise; ranks follow a
little-endian mixed-radix rule (rank(a) = sum a_i * prod_{j<i} d_j), and every
table or file in the package indexes elements by that rank.  All values are
immutable after construction, so concurrent reads are safe.
"""

from __future__ import annotations

import itertools
import random
import struct
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, isqrt, prod
from typing import Callable, Iterable, Iterator, Sequence

Element = tuple[int, ...]

# Checks over all triples (or all elements) run exhaustively up to this
# order and on seeded samples above it.
EXHAUSTIVE_LIMIT = 81

# Ranks per block of _rank_blocks: a multiple of 3, so sampled triples never
# straddle two blocks.  Each refill draws this many 32-bit words.
RANK_BLOCK = 3 * 256
_WORDS = struct.Struct(f"<{RANK_BLOCK}I")

# Fewest braid triples that ybe.check_solution splits across two processes
# (512 blocks of sampled triples; exhaustive checks from order 51).  On a
# 2-vCPU machine the split breaks even near 16,384 sampled triples, where the
# fork and the worker's re-draw of the parent's blocks eat the second CPU's
# gain, and saves about a third from here on; smaller checks, like most of
# the tests' calls, stay in one process.
SPLIT_MIN_TRIPLES = 512 * (RANK_BLOCK // 3)


def _rank_blocks(n: int, seed: int, count: int | None = None) -> Iterator[list[int]]:
    """Seeded ranks in 0..n-1, in blocks of RANK_BLOCK (the last one shorter).

    The blocks concatenate to ``[random.Random(seed).randrange(n) for _ in
    range(count)]``, or to the unbounded stream when count is None.  For
    n < 2^32, randrange(n) keeps the top n.bit_length() bits of one 32-bit
    Mersenne Twister word and draws again while the value is >= n, and
    getrandbits(32 m) returns the next m such words, little-endian: one call
    draws a batch of words and the rejection runs over the batch.  Words
    drawn past the last block are never used.
    """
    k = n.bit_length()
    if not 0 < k <= 32:
        raise ValueError(f"rank sampling needs 0 < n < 2^32, got {n}")
    shift, limit = 32 - k, n << (32 - k)
    getrandbits = random.Random(seed).getrandbits
    ranks: list[int] = []
    while count is None or count > 0:
        want = RANK_BLOCK if count is None else min(RANK_BLOCK, count)
        while len(ranks) < want:
            words = _WORDS.unpack(getrandbits(32 * RANK_BLOCK).to_bytes(4 * RANK_BLOCK, "little"))
            ranks += [w >> shift for w in words if w < limit]
        yield ranks[:want]
        del ranks[:want]
        if count is not None:
            count -= want


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

    __slots__ = ("moduli", "order", "elements", "_neg", "_add_flat", "_index")

    def __init__(self, moduli: Sequence[int]):
        moduli = checked_moduli(moduli)
        self.moduli: tuple[int, ...] = moduli
        self.order: int = prod(moduli)
        self.elements: list[Element] = [
            tuple(reversed(e)) for e in itertools.product(*[range(d) for d in reversed(moduli)])
        ]
        self._index: dict[Element, int] = {e: i for i, e in enumerate(self.elements)}
        self._neg: list[int] | None = None
        self._add_flat: list[int] | None = None

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

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % d for x, y, d in zip(a, b, self.moduli))

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

    def exponent(self) -> int:
        out = 1
        for d in self.moduli:
            out = out * d // gcd(out, d)
        return out

    # -- rank-level tables (hot paths) ---------------------------------------

    @property
    def unit_ranks(self) -> list[int]:
        """Ranks of the standard generators e_0..e_{k-1}: e_j has rank prod(moduli[:j])."""
        return [prod(self.moduli[:j]) for j in range(len(self.moduli))]

    @property
    def neg_rank(self) -> list[int]:
        if self._neg is None:
            self._neg = [self.rank(self.neg(e)) for e in self.elements]
        return self._neg

    @property
    def add_flat(self) -> list[int]:
        """Flat n*n addition table over ranks; built on first use.

        Row a lists rank(a + b) over b in rank order, built digit by digit in
        the mixed radix; entries are the shared ints of ``range(n)``.
        """
        if self._add_flat is None:
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
            self._add_flat = flat
        return self._add_flat

    def add_rank(self, i: int, j: int) -> int:
        return self.add_flat[i * self.order + j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbelianGroup) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return f"AbelianGroup{self.moduli}"


class Automorphism:
    """Additive automorphism, stored by its columns (images of generators)."""

    __slots__ = ("moduli", "columns", "_perm", "_inv_perm")

    def __init__(self, moduli: tuple[int, ...], columns: tuple[Element, ...]):
        self.moduli = moduli
        self.columns = columns
        self._perm: tuple[int, ...] | None = None
        self._inv_perm: tuple[int, ...] | None = None

    def apply(self, e: Element) -> Element:
        img = [0] * len(self.moduli)
        for coeff, col in zip(e, self.columns):
            if coeff:
                for t, (x, d) in enumerate(zip(col, self.moduli)):
                    img[t] = (img[t] + coeff * x) % d
        return tuple(img)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other, as an automorphism (columns are mapped columns)."""
        return Automorphism(self.moduli, tuple(self.apply(c) for c in other.columns))

    def perm(self, group: AbelianGroup) -> tuple[int, ...]:
        """The images of all ranks: the columns extended additively over the normal forms."""
        if self._perm is None:
            cols = [group.rank(c) for c in self.columns]
            self._perm = tuple(normal_form_images(group.add_rank, group.moduli, cols))
        return self._perm

    def inv_perm(self, group: AbelianGroup) -> tuple[int, ...]:
        if self._inv_perm is None:
            p = self.perm(group)
            inv = [0] * len(p)
            for i, v in enumerate(p):
                inv[v] = i
            self._inv_perm = tuple(inv)
        return self._inv_perm

    def perm_order(self, group: AbelianGroup) -> int:
        p = self.perm(group)
        seen = [False] * len(p)
        out = 1
        for start in range(len(p)):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = p[i]
                length += 1
            out = out * length // gcd(out, length)
        return out

    def is_identity(self) -> bool:
        k = len(self.moduli)
        return all(col == tuple(1 if t == j else 0 for t in range(k)) for j, col in enumerate(self.columns))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Automorphism)
            and self.moduli == other.moduli
            and self.columns == other.columns
        )

    def __hash__(self) -> int:
        return hash((self.moduli, self.columns))

    def __repr__(self) -> str:
        return f"Automorphism(columns={self.columns})"


def identity_automorphism(group: AbelianGroup) -> Automorphism:
    k = len(group.moduli)
    cols = tuple(tuple(1 if t == j else 0 for t in range(k)) for j in range(k))
    return Automorphism(group.moduli, cols)


def validate_automorphism(group: AbelianGroup, columns: Sequence[Sequence[int]]) -> Automorphism:
    """Accept candidate columns iff they induce a well-defined bijection.

    Column j must have additive order dividing d_j (well-definedness); the
    induced map is then checked bijective by full image enumeration.
    """
    cols = tuple(group.reduce(c) for c in columns)
    if len(cols) != len(group.moduli):
        raise NotHomomorphism(f"expected {len(group.moduli)} columns, got {len(cols)}")
    for j, col in enumerate(cols):
        d = group.moduli[j]
        if group.scalar_multiple(d, col) != group.zero:
            raise NotHomomorphism(f"column {j} has order not dividing {d}: {col}")
    phi = Automorphism(group.moduli, cols)
    if len(set(phi.perm(group))) != group.order:
        raise NotBijective(f"columns {cols} do not induce a bijection")
    return phi


def all_automorphisms(group: AbelianGroup) -> list[Automorphism]:
    """Every automorphism, sorted by the rank tuple of its columns."""
    candidates: list[list[Element]] = []
    for d in group.moduli:
        candidates.append([e for e in group.elements if group.scalar_multiple(d, e) == group.zero])
    out = []
    for combo in itertools.product(*candidates):
        phi = Automorphism(group.moduli, tuple(combo))
        if len(set(phi.perm(group))) == group.order:
            out.append(phi)
    out.sort(key=lambda f: tuple(group.rank(c) for c in f.columns))
    return out


class TableGroup:
    """Group on ranks 0..n-1 given by a product function; identity must be 0.

    Inverses, powers, element orders, generators and the center are derived
    from ``mul_r`` alone and cached; ``pgroups.fingerprint`` caches its
    invariants here too.
    """

    def __init__(self, n: int, mul_r: Callable[[int, int], int]):
        self.order = n
        self.mul_r = mul_r
        self._inv: list[int] | None = None
        self._orders: list[int] | None = None
        self._gens: list[int] | None = None
        self._center: frozenset[int] | None = None
        self._fingerprint = None

    @property
    def inv(self) -> list[int]:
        """x^-1 = x^(ord(x) - 1)."""
        if self._inv is None:
            self._inv = [self.pow_r(i, o - 1) for i, o in enumerate(self.element_orders)]
        return self._inv

    def inv_r(self, i: int) -> int:
        return self.inv[i]

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

    @property
    def element_orders(self) -> list[int]:
        """The least t >= 1 with x^t = 0; a power walk that has not met 0 after
        n products (x^n = 1 in a group of order n) raises StructuralAnomaly."""
        if self._orders is None:
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
            self._orders = out
        return self._orders

    @property
    def generators(self) -> list[int]:
        """Greedy generators: the ranks that ``closure_generators`` keeps from 0..n-1.

        Every element is a word in them, built from 0 by right multiplication.
        """
        if self._gens is None:
            self._gens = closure_generators(self.mul_r, range(self.order))[1]
        return self._gens

    @property
    def center(self) -> frozenset[int]:
        """The elements that commute with every generator."""
        if self._center is None:
            mul, gens = self.mul_r, self.generators
            self._center = frozenset(
                c for c in range(self.order) if all(mul(c, g) == mul(g, c) for g in gens)
            )
        return self._center


def closure_generators(mul: Callable[[int, int], int], seeds: Iterable[int]) -> tuple[set[int], list[int]]:
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
    return members, gens


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


def group_closure(mul: Callable[[int, int], int], seeds: Iterable[int]) -> set[int]:
    """Subgroup generated by the seeds."""
    return closure_generators(mul, seeds)[0]


@dataclass(frozen=True)
class Subgroup:
    """Subgroup stored as the sorted tuple of its member ranks."""

    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks", tuple(sorted(self.ranks)))

    @property
    def order(self) -> int:
        return len(self.ranks)

    def members(self) -> frozenset[int]:
        return frozenset(self.ranks)

    def __contains__(self, rank: int) -> bool:
        i = bisect_left(self.ranks, rank)
        return i < len(self.ranks) and self.ranks[i] == rank

    def __iter__(self) -> Iterator[int]:
        return iter(self.ranks)

    def __len__(self) -> int:
        return len(self.ranks)

    def elements(self, group: AbelianGroup) -> list[Element]:
        return [group.unrank(i) for i in self.ranks]

    def is_trivial(self) -> bool:
        return self.ranks == (0,)


def subgroup_closure(group: AbelianGroup, seed_ranks: Iterable[int]) -> Subgroup:
    """Smallest additively closed subset containing the seeds and 0."""
    return Subgroup(tuple(group_closure(group.add_rank, seed_ranks)))


def subgroup_generated(group: AbelianGroup, gens: Iterable[Element]) -> Subgroup:
    return subgroup_closure(group, [group.rank(e) for e in gens])


def multiples_subgroup(group: AbelianGroup, k: int) -> Subgroup:
    """The subgroup {k*a : a in A}, computed by direct image enumeration."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranks = {group.rank(group.scalar_multiple(k, e)) for e in group.elements}
    return Subgroup(tuple(ranks))


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
        powers = [0]
        y = best
        for _ in range(d - 1):
            powers.append(y)
            y = add(y, best)
        new_span = {add(s, q) for s in span for q in powers}
        if len(new_span) != len(span) * d:
            raise StructuralAnomaly("span did not grow multiplicatively")
        span = new_span
    return gens
