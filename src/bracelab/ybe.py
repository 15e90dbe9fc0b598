"""Set-theoretic solutions derived from braces, their defining checks, and
retraction / multipermutation level.

A solution is a table map r(x, y) = (u, v) over element ranks.  For a brace,
u = lambda_x(y) and v = u' o x o y (u' the circle inverse), which is always
involutive and non-degenerate.  Retraction identifies points with equal left
component maps; the multipermutation level is the number of retraction steps
to reach a single point (level 0 for an already-trivial solution, so the
trivial brace on n >= 2 points has level 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .abelian import EXHAUSTIVE_LIMIT
from .brace import Brace, BraceError


class PropertyFailure(BraceError):
    """A brace-derived table failed involutivity or non-degeneracy."""


class NotWellDefined(BraceError):
    """The retraction quotient is inconsistent on equivalence classes."""


@dataclass(frozen=True)
class SolutionReport:
    size: int
    involutive: bool
    nondegenerate: bool
    braid: bool
    triples_checked: int
    exhaustive: bool
    seed: int | None
    witness: tuple | None

    @property
    def passed(self) -> bool:
        return self.involutive and self.nondegenerate and self.braid


class YBESolution:
    """Pair map on ranks 0..n-1, stored as two flat n*n tables (u and v)."""

    __slots__ = ("n", "u", "v")

    def __init__(self, n: int, u: list[int], v: list[int]):
        if len(u) != n * n or len(v) != n * n:
            raise ValueError("component tables must have n*n entries")
        self.n = n
        self.u = u
        self.v = v

    def apply(self, x: int, y: int) -> tuple[int, int]:
        i = x * self.n + y
        return self.u[i], self.v[i]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, YBESolution)
            and self.n == other.n
            and self.u == other.u
            and self.v == other.v
        )

    def sigma_row(self, x: int) -> tuple[int, ...]:
        return tuple(self.u[x * self.n : (x + 1) * self.n])


def twist_solution(n: int) -> YBESolution:
    u = [0] * (n * n)
    v = [0] * (n * n)
    for x in range(n):
        for y in range(n):
            u[x * n + y] = y
            v[x * n + y] = x
    return YBESolution(n, u, v)


def identity_pair_map(n: int) -> YBESolution:
    u = [0] * (n * n)
    v = [0] * (n * n)
    for x in range(n):
        for y in range(n):
            u[x * n + y] = x
            v[x * n + y] = y
    return YBESolution(n, u, v)


def solution_from_brace(brace: Brace) -> YBESolution:
    """u = lambda_x(y), v = u' o x o y; involutivity and non-degeneracy are
    asserted at build time (a failure would mean a brace-validation bug).

    Row x of u is lambda_x.  u o v = x o y = x + u and u o v = u + lambda_u(v),
    so v = lambda_u^-1(x).
    """
    n = brace.order
    group, ids, auts = brace.group, brace.lambda_ids, brace.auts
    inverses = {i: auts[i].inv_perm(group) for i in set(ids)}
    inv_of = [inverses[i] for i in ids]  # lambda_u^-1 by rank u
    u = [0] * (n * n)
    v = [0] * (n * n)
    for x in range(n):
        row = brace._perms[ids[x]]
        at_x = [q[x] for q in inv_of]  # lambda_u^-1(x) by rank u
        u[x * n : (x + 1) * n] = row
        v[x * n : (x + 1) * n] = [at_x[uu] for uu in row]
    sol = YBESolution(n, u, v)
    if not _involutive(sol):
        raise PropertyFailure("brace-derived table is not involutive")
    if not _nondegenerate(sol):
        raise PropertyFailure("brace-derived table is degenerate")
    return sol


def _involutive(sol: YBESolution) -> bool:
    """r(r(x, y)) = (x, y) for every pair, a row x at a time."""
    n, u, v = sol.n, sol.u, sol.v
    ys = list(range(n))
    for x in range(n):
        at = [uu * n + vv for uu, vv in zip(u[x * n : (x + 1) * n], v[x * n : (x + 1) * n])]
        if any(u[i] != x for i in at) or [v[i] for i in at] != ys:
            return False
    return True


def _nondegenerate(sol: YBESolution) -> bool:
    n = sol.n
    for x in range(n):
        if len(set(sol.u[x * n : (x + 1) * n])) != n:
            return False
    for y in range(n):
        if len(set(sol.v[y::n])) != n:
            return False
    return True


def _braid_at(sol: YBESolution, x: int, y: int, z: int) -> bool:
    # r12 r23 r12 = r23 r12 r23 on (x, y, z)
    a, b = sol.apply(x, y)
    c, d = sol.apply(b, z)
    e, f = sol.apply(a, c)
    lhs = (e, f, d)
    g, h = sol.apply(y, z)
    i, j = sol.apply(x, g)
    k, l = sol.apply(j, h)
    rhs = (i, k, l)
    return lhs == rhs


def check_solution(sol: YBESolution, sample_budget: int = 1_000_000, seed: int = 0) -> SolutionReport:
    """Involutivity, non-degeneracy (always exhaustive), and the braid
    relation (exhaustive up to EXHAUSTIVE_LIMIT, seeded sampling above)."""
    n = sol.n
    involutive = _involutive(sol)
    nondeg = _nondegenerate(sol)
    braid = True
    witness = None
    checked = 0
    exhaustive = n <= EXHAUSTIVE_LIMIT
    if exhaustive:
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    checked += 1
                    if not _braid_at(sol, x, y, z):
                        braid = False
                        witness = (x, y, z)
                        break
                if not braid:
                    break
            if not braid:
                break
        used_seed = None
    else:
        rng = random.Random(seed)
        for _ in range(sample_budget):
            x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            checked += 1
            if not _braid_at(sol, x, y, z):
                braid = False
                witness = (x, y, z)
                break
        used_seed = seed
    return SolutionReport(n, involutive, nondeg, braid, checked, exhaustive, used_seed, witness)


def retraction(sol: YBESolution) -> YBESolution:
    """Quotient by x ~ y when the left component maps agree, with the induced
    table checked well defined on classes."""
    n = sol.n
    class_of: dict[tuple[int, ...], int] = {}
    cls = [0] * n
    for x in range(n):
        row = sol.sigma_row(x)
        if row not in class_of:
            class_of[row] = len(class_of)
        cls[x] = class_of[row]
    m = len(class_of)
    rep = [0] * m
    seen = set()
    for x in range(n):
        if cls[x] not in seen:
            seen.add(cls[x])
            rep[cls[x]] = x

    u = [0] * (m * m)
    v = [0] * (m * m)
    for cx in range(m):
        for cy in range(m):
            uu, vv = sol.apply(rep[cx], rep[cy])
            u[cx * m + cy] = cls[uu]
            v[cx * m + cy] = cls[vv]
    for x in range(n):
        for y in range(n):
            uu, vv = sol.apply(x, y)
            i = cls[x] * m + cls[y]
            if u[i] != cls[uu] or v[i] != cls[vv]:
                raise NotWellDefined(f"retraction inconsistent at ({x}, {y})")
    return YBESolution(m, u, v)


def multipermutation_level(sol: YBESolution) -> int | None:
    """Least k with |Ret^k| = 1; None when the size stops shrinking above 1.

    Every step shrinks the solution or returns, so at most n - 1 steps run.
    """
    steps = 0
    current = sol
    while current.n > 1:
        nxt = retraction(current)
        if nxt.n == current.n:
            return None
        current = nxt
        steps += 1
    return steps if current.n == 1 else None
