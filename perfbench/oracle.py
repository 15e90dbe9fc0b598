"""Brute-force brace arithmetic, written apart from bracelab to check its answers.

Nothing here imports bracelab.  A brace is read straight from the JSON of a
brace file, every product is tabulated over element ranks with NumPy, and each
quantity is computed from its definition:

    lambda_a(b) = sum_j b_j * column_j(a)      (mod the moduli)
    a o b = a + lambda_a(b),   a * b = lambda_a(b) - b

Ranks are little-endian mixed radix, the convention of the brace file format.
"""

from __future__ import annotations

import itertools
from math import gcd, prod

import numpy as np

# Orders up to this bound get the full n^3 checks; above it, laws that are
# linear in one argument are checked on the additive generators.
CUBE_LIMIT = 81


def smallest_prime_factor(n: int) -> int:
    return next(f for f in range(2, n + 1) if n % f == 0)


class BraceTables:
    """Every table of one brace, plus the derived invariants a check needs."""

    def __init__(self, moduli, lambda_table):
        self.moduli = tuple(int(d) for d in moduli)
        k = len(self.moduli)
        n = prod(self.moduli)
        self.n = n
        self.d = np.array(self.moduli, dtype=np.int64)
        self.weights = np.array([prod(self.moduli[:i]) for i in range(k)], dtype=np.int64)
        rem = np.arange(n, dtype=np.int64)
        coords = np.empty((n, k), dtype=np.int64)
        for i, di in enumerate(self.moduli):
            coords[:, i] = rem % di
            rem //= di
        self.coords = coords
        cols = np.array(lambda_table, dtype=np.int64).reshape(n, k, k)
        self.columns = cols
        self.add = self.rank(coords[:, None, :] + coords[None, :, :])
        self.neg = self.rank(-coords)
        self.lam = self.rank(np.einsum("bj,ajt->abt", coords, cols))
        ids = np.arange(n)
        self.circ = self.add[ids[:, None], self.lam]
        self.star = self.add[self.lam, self.neg[None, :]]
        self.gens = [int(self.rank(np.eye(k, dtype=np.int64)[j])) for j in range(k)]
        self._circ_orders = None

    # -- basics -------------------------------------------------------------

    def rank(self, coords):
        return (np.asarray(coords) % self.d) @ self.weights

    def scalar(self, t: int, ranks):
        """Ranks of t * x for the given ranks x."""
        return self.rank(t * self.coords[ranks])

    def span(self, ranks) -> np.ndarray:
        """Additive subgroup generated by the ranks, as a boolean mask."""
        mask = np.zeros(self.n, dtype=bool)
        mask[0] = True
        mask[np.asarray(ranks, dtype=np.int64).ravel()] = True
        while True:
            members = np.flatnonzero(mask)
            grown = mask.copy()
            grown[self.add[np.ix_(members, members)].ravel()] = True
            if grown.sum() == mask.sum():
                return mask
            mask = grown

    # -- axioms --------------------------------------------------------------

    def axiom_failures(self) -> list[str]:
        """Names of the brace axioms this table breaks (empty for a brace)."""
        n, ids = self.n, np.arange(self.n)
        bad = []
        well_defined = all(
            not ((self.moduli[j] * self.columns[:, j, :]) % self.d).any() for j in range(len(self.moduli))
        )
        if not well_defined:
            bad.append("lambda column order does not divide its modulus")
        if not (np.sort(self.lam, axis=1) == ids).all():
            bad.append("lambda_a not bijective")
        if not (self.lam[0] == ids).all():
            bad.append("lambda_0 is not the identity")
        if n <= CUBE_LIMIT:
            lhs = self.lam[:, self.add]  # lambda_a(b + c)
            rhs = self.add[self.lam[:, :, None], self.lam[:, None, :]]
            if not (lhs == rhs).all():
                bad.append("lambda_a not additive")
            if not (self.lam[self.circ] == self.lam[:, self.lam]).all():
                bad.append("cocycle law fails")
            if not (self.circ[self.circ] == self.circ[ids[:, None, None], self.circ[None, :, :]]).all():
                bad.append("circle product not associative")
        else:
            for g in self.gens:
                if not (self.lam[self.circ, g] == self.lam[ids[:, None], self.lam[:, g][None, :]]).all():
                    bad.append("cocycle law fails on a generator")
                    break
        return bad

    # -- series ----------------------------------------------------------------

    def series_class(self, kind: str) -> int | None:
        """1-based index of the first zero term, or None when the series stalls."""
        full = np.ones(self.n, dtype=bool)
        if kind in ("left", "right"):
            term, index = full, 1
            while term.sum() > 1:
                t = np.flatnonzero(term)
                block = self.star[:, t] if kind == "left" else self.star[t, :]
                nxt = self.span(block)
                if (nxt == term).all():
                    return None
                term, index = nxt, index + 1
            return index
        if kind != "strong":
            raise ValueError(kind)
        # Every strong term contains the left and right terms of that index.
        if self.series_class("left") is None or self.series_class("right") is None:
            return None
        chain = [full]
        while chain[-1].sum() > 1:
            i = len(chain)
            seeds = [
                self.star[np.ix_(np.flatnonzero(chain[j - 1]), np.flatnonzero(chain[i - j]))].ravel()
                for j in range(1, i + 1)
            ]
            chain.append(self.span(np.concatenate(seeds)))
            if len(chain) > self.n + 2:
                raise RuntimeError("strong series does not reach zero")
        return len(chain)

    # -- annihilators and certificates -------------------------------------------

    def certificate_candidates(self) -> np.ndarray:
        """Nonzero c with c * a = a * c = 0 for every a, and A * c = 0."""
        ok = (self.star == 0).all(axis=1) & (self.star == 0).all(axis=0)
        ok[0] = False
        return np.flatnonzero(ok)

    # -- the circle group -----------------------------------------------------------

    @property
    def circ_orders(self) -> np.ndarray:
        if self._circ_orders is None:
            n = self.n
            x = np.arange(n)
            cur = np.zeros(n, dtype=np.int64)
            orders = np.zeros(n, dtype=np.int64)
            for t in range(1, n + 1):
                cur = self.circ[cur, x]
                orders[(cur == 0) & (orders == 0)] = t
                if orders.all():
                    break
            self._circ_orders = orders
        return self._circ_orders

    @property
    def circ_inverse(self) -> np.ndarray:
        return np.argmax(self.circ == 0, axis=1)

    def circ_power(self, x: int, t: int) -> int:
        if t < 0:
            x, t = int(self.circ_inverse[x]), -t
        acc = 0
        for _ in range(t % int(self.circ_orders[x])):
            acc = int(self.circ[acc, x])
        return acc

    def circ_abelian(self) -> bool:
        return bool((self.circ == self.circ.T).all())

    def circ_abelian_type(self) -> tuple[int, ...]:
        """Cyclic factors of an abelian circle p-group, read off its order histogram.

        In C_{p^e1} x ... x C_{p^er} the number of x with x^{p^t} = 1 is
        p^(sum_i min(t, e_i)), so the histogram fixes every e_i.
        """
        p = smallest_prime_factor(self.n)
        orders = self.circ_orders
        top = exact_log(p, self.n)
        logs = [exact_log(p, int((p ** t % orders == 0).sum())) for t in range(top + 1)]
        at_least = [logs[t] - logs[t - 1] for t in range(1, top + 1)] + [0]
        parts = []
        for t in range(1, top + 1):
            parts += [p ** t] * (at_least[t - 1] - at_least[t])
        if prod(parts) != self.n:
            raise RuntimeError("histogram is not that of an abelian group")
        return tuple(sorted(parts))

    def circ_exponent(self) -> int:
        out = 1
        for o in np.unique(self.circ_orders):
            out = out * int(o) // gcd(out, int(o))
        return out

    def g4_pair(self) -> tuple[int, int] | None:
        """P of circle order p^3 and Q of order p with Q^-1 o P o Q = P^(1+p^2)
        whose words P^i o Q^j fill the group; None when there is none."""
        n = self.n
        p = smallest_prime_factor(n)
        if p ** 4 != n:
            return None
        orders = self.circ_orders
        inv = self.circ_inverse
        qs = np.flatnonzero(orders == p)
        for P in np.flatnonzero(orders == p ** 3):
            target = self.circ_power(int(P), 1 + p * p)
            conj = self.circ[self.circ[inv[qs], P], qs]
            for Q in qs[conj == target]:
                p_pows = self.powers(int(P))
                q_pows = self.powers(int(Q))
                words = self.circ[np.ix_(p_pows, q_pows)]
                if np.unique(words).size == n:
                    return int(P), int(Q)
        return None

    def powers(self, x: int) -> np.ndarray:
        out = [0]
        for _ in range(int(self.circ_orders[x]) - 1):
            out.append(int(self.circ[out[-1], x]))
        return np.array(out, dtype=np.int64)

    # -- the Yang-Baxter solution -----------------------------------------------------

    def solution(self) -> tuple[np.ndarray, np.ndarray]:
        """r(x, y) = (u, v) with u = lambda_x(y) and v = u^-1 o x o y."""
        u = self.lam
        v = self.circ[self.circ_inverse[u], self.circ]
        return u, v

    def solution_failures(self, sample: int, seed: int) -> list[str]:
        u, v = self.solution()
        n, ids = self.n, np.arange(self.n)
        bad = []
        if not ((u[u, v] == ids[:, None]) & (v[u, v] == ids[None, :])).all():
            bad.append("not involutive")
        if not ((np.sort(u, axis=1) == ids).all() and (np.sort(v, axis=0) == ids[:, None]).all()):
            bad.append("degenerate")
        if n ** 3 <= sample:
            x, y, z = (a.ravel() for a in np.meshgrid(ids, ids, ids, indexing="ij"))
        else:
            rng = np.random.default_rng(seed)
            x, y, z = rng.integers(0, n, size=(3, sample))
        a, b = u[x, y], v[x, y]
        c, d = u[b, z], v[b, z]
        e, f = u[a, c], v[a, c]
        g, h = u[y, z], v[y, z]
        i, j = u[x, g], v[x, g]
        kk, ll = u[j, h], v[j, h]
        if not ((e == i) & (f == kk) & (d == ll)).all():
            bad.append("braid relation fails")
        return bad

    def multipermutation_level(self) -> int | None:
        """Retraction steps down to one point; None when retraction stalls above one."""
        u = self.lam
        steps = 0
        while u.shape[0] > 1:
            _, first, cls = np.unique(u, axis=0, return_index=True, return_inverse=True)
            cls = cls.ravel()
            if first.size == u.shape[0]:
                return None
            u = cls[u[np.ix_(first, first)]]
            steps += 1
        return steps

    # -- theorem inputs ---------------------------------------------------------------

    def theorem1(self, P: int, qs: list[int], m: int) -> tuple[list[bool], bool, int]:
        """The four hypotheses, the conclusion P * (p^m P^k) = 0 for |k| <= ord P,
        and ord P."""
        p = smallest_prime_factor(self.n)
        pm = p ** m
        c = self.circ_power(P, pm)
        central = bool((self.star[c, :] == self.star[:, c]).all())
        in_a2 = bool(self.span(self.star)[c])
        small = all(int(self.circ_orders[q]) <= pm for q in qs)
        covered = False
        for order in itertools.permutations(qs):
            words = np.zeros(1, dtype=np.int64)
            for q in order:
                words = self.circ[np.ix_(words, self.powers(q))].ravel()
            if np.unique(self.circ[np.ix_(self.powers(P), words)]).size == self.n:
                covered = True
        ord_p = int(self.circ_orders[P])
        ks = [self.circ_power(P, t) for t in range(-ord_p, ord_p + 1)]
        conclusion = not self.star[P, self.scalar(pm, ks)].any()
        return [central, in_a2, small, covered], conclusion, ord_p

    def a_star_pa(self) -> tuple[int, int]:
        """(|pA|, |A * pA|) for p the prime of the order."""
        p = smallest_prime_factor(self.n)
        pa = np.unique(self.scalar(p, np.arange(self.n)))
        return int(pa.size), int(self.span(self.star[:, pa]).sum())


def automorphism_count(moduli) -> int:
    """|Aut(A, +)| by trying every image of the generators."""
    identity = [[[int(i == j) for i in range(len(moduli))] for j in range(len(moduli))]] * prod(moduli)
    group = BraceTables(moduli, identity)
    orders = [additive_order(c, moduli) for c in group.coords]
    choices = [[r for r in range(group.n) if dj % orders[r] == 0] for dj in moduli]
    count = 0
    for images in itertools.product(*choices):
        image = group.rank(group.coords @ group.coords[list(images)])
        if np.unique(image).size == group.n:
            count += 1
    return count


def additive_order(coords, moduli) -> int:
    out = 1
    for x, d in zip(coords, moduli):
        o = d // gcd(int(x), d)
        out = out * o // gcd(out, o)
    return out


def exact_log(p: int, x: int) -> int:
    e = 0
    while p ** e < x:
        e += 1
    if p ** e != x:
        raise RuntimeError(f"{x} is not a power of {p}")
    return e
