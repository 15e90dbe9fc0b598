"""Set-theoretic solutions derived from braces, their defining checks, and
retraction / multipermutation level.

A solution is a table map r(x, y) = (u, v) over element ranks.  For a brace,
u = lambda_x(y) and v = u' o x o y (u' the circle inverse), which is always
involutive and non-degenerate.  Retraction identifies points with equal left
component maps; the multipermutation level is the number of retraction steps
to reach a single point (level 0 for an already-trivial solution, so the
trivial brace on n >= 2 points has level 1).

The braid relation of an involutive, non-degenerate map with sigma_x the row
x of u is decided on pairs: it holds on every triple exactly when
sigma_x sigma_{sigma_x^-1(y)} = sigma_y sigma_{sigma_y^-1(x)} for all x, y
(Rump, Adv. Math. 193 (2005), the cycle-set law).  For a brace both sides
are lambda_{x+y}.  Other maps, and maps that fail the law, go through one
scan over one stream of triples, a triple at a time, which stops at the
first failing triple: every triple in (x, y, z) order up to order 81, and
above it triples of three random.Random(seed).randrange(n) draws each.
This scan is the only sampled check in the package, so the sampling lives
here.

``check_solution`` also takes a ``Brace``, whose solution it checks from the
k distinct lambda permutations without building the 2 n^2 table entries:
the rows are the lambdas, and every finite cycle set is non-degenerate
(Rump 2005, Theorem 2), so no column is read (see ``_brace_report``).  A
brace that fails any of these checks, which a validated one never does, is
checked on its table.

``retraction`` and ``multipermutation_level`` work on any solution table.
``multipermutation_level`` also takes a ``Brace``: retraction merges x and y
when lambda_x = lambda_y, so Ret(r_A) has one point per distinct lambda,
k = |A/Soc(A)| points (Rump 2007; Cedo, Jespers and Okninski 2014), and its
k^2 table is read from the lambdas without the 2 n^2 entries of r_A.
"""

from __future__ import annotations

import itertools
import random
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .abelian import perm_inverse
from .brace import Brace, BraceError

# The braid relation is scanned on every triple up to this order and on
# seeded sampled triples above it.
EXHAUSTIVE_LIMIT = 81


class NotWellDefined(BraceError):
    """The retraction quotient is inconsistent on equivalence classes."""


class SolutionReport(NamedTuple):
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


def solution_from_brace(brace: Brace) -> YBESolution:
    """u = lambda_x(y), v = u' o x o y.

    The solution of a brace is involutive and non-degenerate (Rump, J.
    Algebra 307, 2007), so nothing is checked here; ``check_solution``
    checks and reports both.  ``check_solution`` of the brace itself reads
    its lambdas and builds no table, so ``bracelab verify`` does not call
    this.

    Row x of u is lambda_x.  u o v = x o y = x + u and u o v = u + lambda_u(v),
    so v = lambda_u^-1(x).
    """
    n = brace.order
    ids, perms = brace.lambda_ids, brace.perms
    inverses = [perm_inverse(p) for p in perms]
    u = [0] * (n * n)
    v = [0] * (n * n)
    for x in range(n):
        row = perms[ids[x]]
        at_x = [q[x] for q in inverses]  # lambda^-1(x) by lambda id
        u[x * n : (x + 1) * n] = row
        v[x * n : (x + 1) * n] = [at_x[ids[uu]] for uu in row]
    return YBESolution(n, u, v)


def _involutive(sol: YBESolution) -> bool:
    """r(r(x, y)) = (x, y) for every pair, with (a, b) = r(x, y) read from
    row x of u and v."""
    n, u, v = sol.n, sol.u, sol.v
    for x in range(n):
        row = slice(x * n, (x + 1) * n)
        for y, a, b in zip(range(n), u[row], v[row]):
            ab = a * n + b
            if u[ab] != x or v[ab] != y:
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


def _picker(idx: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """seq -> tuple(seq[i] for i in idx); itemgetter gives a bare item for one index.

    Only the cycle-set law gathers: it composes whole permutations and reads
    whole columns, where one itemgetter call is about twice as fast as a
    loop over the entries."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda seq: tuple(seq[i] for i in idx)


def _interned(rows: Iterable[tuple[int, ...]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """The id of each row, numbered in order of first appearance, and the
    distinct rows in that order."""
    row_id: dict[tuple[int, ...], int] = {}
    ids = [row_id.setdefault(row, len(row_id)) for row in rows]
    return ids, list(row_id)


def _cycle_set_law(n: int, ids: Sequence[int], rows: Sequence[tuple[int, ...]]) -> bool | tuple[int, int, int] | None:
    """sigma_x sigma_{sigma_x^-1(y)} = sigma_y sigma_{sigma_y^-1(x)} for all x, y,
    on an involutive, left non-degenerate map, with sigma_x = rows[ids[x]]
    (the distinct rows of u, ``_interned``, or a brace's lambdas; rows repeat
    only in a lambda assignment that is no brace, and share one id).

    The distinct rows and their k^2 compositions are interned to ids, so with
    L(x, y) the id of sigma_x sigma_{sigma_x^-1(y)} the law says that L is
    symmetric; it is checked a row x of L at a time against column x, without
    building L.  True when the law holds; None (undecided, left to the scan)
    once more than n distinct permutations turn up, so that the interned
    permutations stay within about the size of u.

    When it fails, the result is a failing triple: for the first pair (x, w)
    in row order where L(x, w) != L(w, x), and the first z where the two
    compositions differ, (x, sigma_x^-1(w), z).  On an involutive map
    v(x, y) = sigma_{sigma_x(y)}^-1(x), so the first component of
    r12 r23 r12 at (x, y, z) is sigma_w sigma_{sigma_w^-1(x)}(z) with
    w = sigma_x(y), and that of r23 r12 r23 is sigma_x sigma_y(z).
    """
    perm_id = {row: i for i, row in enumerate(dict.fromkeys(rows))}
    inverses = [perm_inverse(row) for row in rows]
    after = [_picker(row) for row in rows]  # after[j](s) = s o rows[j]
    comp = []  # comp[i][j]: the id of rows[i] o rows[j]
    for row in rows:
        comp.append([perm_id.setdefault(along(row), len(perm_id)) for along in after])
        if len(perm_id) > n:
            return None
    by_id = _picker(ids)  # s -> s[ids[.]]
    for x in range(n):
        i = ids[x]
        lhs = _picker(_picker(inverses[i])(ids))(comp[i])
        column = by_id([c[ids[inv[x]]] for c, inv in zip(comp, inverses)])
        if lhs != column:
            w = next(w for w in range(n) if lhs[w] != column[w])
            perms = list(perm_id)
            left, right = perms[lhs[w]], perms[column[w]]
            return x, inverses[i][w], next(z for z in range(n) if left[z] != right[z])
    return True


def _braid_scan(sol: YBESolution, triples: Iterable[tuple[int, int, int]]) -> tuple[int, tuple[int, int, int] | None]:
    """r12 r23 r12 = r23 r12 r23 on each triple (x, y, z), in the order given:
      (a, b) = r(x, y), (c, d) = r(b, z), (e, f) = r(a, c), lhs = (e, f, d);
      (g, h) = r(y, z), (i, j) = r(x, g), (k, l) = r(j, h), rhs = (i, k, l).

    Returns the number of triples checked, up to and including the first
    failing one, and that triple, or None when every triple passes.  No
    triple past the failing one is read."""
    n, u, v = sol.n, sol.u, sol.v
    checked = 0
    for x, y, z in triples:
        checked += 1
        xy = x * n + y
        bz = v[xy] * n + z
        ac = u[xy] * n + u[bz]
        yz = y * n + z
        xg = x * n + u[yz]
        jh = v[xg] * n + v[yz]
        if u[ac] != u[xg] or v[ac] != u[jh] or v[bz] != v[jh]:
            return checked, (x, y, z)
    return checked, None


def _sampled_triples(n: int, seed: int, count: int) -> Iterable[tuple[int, int, int]]:
    """The sampled stream: count triples of three random.Random(seed).randrange(n)
    draws each, drawn as the scan reads them."""
    draw = random.Random(seed).randrange
    return ((draw(n), draw(n), draw(n)) for _ in range(count))


def _check_entries(sol: YBESolution) -> None:
    """ValueError naming the first entry of u, then of v, outside 0..n-1."""
    n = sol.n
    for name, table in (("u", sol.u), ("v", sol.v)):
        if table and (min(table) < 0 or max(table) >= n):
            i = next(i for i, e in enumerate(table) if not 0 <= e < n)
            raise ValueError(f"{name}({i // n}, {i % n}) = {table[i]} is outside 0..{n - 1}")


def _stream_length(n: int, sample_budget: int, seed: int) -> tuple[bool, int, int | None]:
    """(exhaustive, the number of triples in the stream, the seed of its
    sample or None); ValueError when a sample is needed and sample_budget < 1."""
    if n <= EXHAUSTIVE_LIMIT:
        return True, n**3, None
    if sample_budget < 1:
        raise ValueError(f"sample_budget must be at least 1 to sample the braid check, got {sample_budget}")
    return False, sample_budget, seed


def _permutation_rows(n: int, rows: Iterable[Sequence[int]]) -> bool:
    """Every row is a permutation of 0..n-1."""
    points = set(range(n))
    return all(len(row) == n and set(row) == points for row in rows)


def _brace_report(brace: Brace, sample_budget: int, seed: int) -> SolutionReport | None:
    """The report of r(x, y) = (lambda_x(y), lambda_u^-1(x)), u = lambda_x(y),
    read from the k distinct lambdas; None when a check fails.

    When every lambda_x is a permutation of 0..n-1, the entries of u and v
    are in range, row x of u is lambda_x, so r is left non-degenerate, and r
    is involutive: r(u, v) = (lambda_u(lambda_u^-1(x)), lambda_x^-1(u)) =
    (x, lambda_x^-1(lambda_x(y))) = (x, y).  So those three are k n work,
    and the cycle-set law runs on the lambdas as the rows of u.  When it
    holds, x . y = lambda_x^-1(y) makes the points a finite cycle set, and
    every finite cycle set is non-degenerate (Rump, Adv. Math. 193 (2005),
    Theorem 2): r is right non-degenerate too, with no column of v read.
    None (the caller checks the table) when a lambda is not a permutation
    or the law is not True; a validated brace passes both.
    """
    n, ids, rows = brace.order, brace.lambda_ids, brace.perms
    if not _permutation_rows(n, rows):
        return None
    exhaustive, triples, used_seed = _stream_length(n, sample_budget, seed)
    if _cycle_set_law(n, ids, rows) is True:
        return SolutionReport(n, True, True, True, triples, exhaustive, used_seed, None)
    return None


def check_solution(sol: YBESolution | Brace, sample_budget: int = 1_000_000, seed: int = 0) -> SolutionReport:
    """Involutivity, non-degeneracy (always exhaustive), and the braid
    relation on one stream of triples: every triple in (x, y, z) order up
    to EXHAUSTIVE_LIMIT, and above it sample_budget triples of three
    random.Random(seed).randrange(n) draws each.

    On an involutive, non-degenerate map the cycle-set law decides the braid
    relation on pairs (Rump 2005, see the module docstring).  When it holds,
    every triple satisfies the relation, so the report is the one the scan
    would give, without drawing a rank: braid true, no witness, and n^3 or
    sample_budget triples checked.  Otherwise the stream is scanned and the
    scan stops at the first failing triple, which is the witness;
    triples_checked counts the triples up to and including it.  When the law
    fails and the scan finds no failing triple (only a sample can miss one),
    braid is still false, triples_checked is the length of the stream and
    the witness is the law's triple.  Sampling needs sample_budget >= 1; a
    smaller budget raises ValueError, and so does an entry of u or v outside
    0..n-1.

    A ``Brace`` is checked from its lambdas, with no table; right
    non-degeneracy follows from the law (Rump 2005, Theorem 2), and
    ``_brace_report`` gives the proof.  If any of those checks fails, its
    solution table is built by ``solution_from_brace`` and checked as above,
    so the report is always the one ``check_solution(solution_from_brace(brace))``
    gives.
    """
    if isinstance(sol, Brace):
        report = _brace_report(sol, sample_budget, seed)
        if report is not None:
            return report
        sol = solution_from_brace(sol)
    n = sol.n
    _check_entries(sol)
    exhaustive, triples, used_seed = _stream_length(n, sample_budget, seed)
    involutive = _involutive(sol)
    nondeg = _nondegenerate(sol)
    law = _cycle_set_law(n, *_interned(sol.sigma_row(x) for x in range(n))) if involutive and nondeg else None
    if law is True:
        checked, witness = triples, None
    else:
        if exhaustive:
            stream = itertools.product(range(n), repeat=3)
        else:
            stream = _sampled_triples(n, seed, sample_budget)
        checked, witness = _braid_scan(sol, stream)
        if witness is None and law is not None:
            witness = law
    return SolutionReport(n, involutive, nondeg, witness is None, checked, exhaustive, used_seed, witness)


def retraction(sol: YBESolution) -> YBESolution:
    """Quotient by x ~ y when the left component maps agree, with the induced
    table checked well defined on classes.

    Row x of u and of v, read through the classes, must equal row cls[x] of
    the quotient read along the classes of y; a failure names the first
    (x, y) in row-major order.  An entry of u or v outside 0..n-1 raises
    ValueError, as in check_solution.
    """
    _check_entries(sol)
    return _retract(sol)


def _retract(sol: YBESolution) -> YBESolution:
    """``retraction`` of a solution whose entries are in range."""
    n = sol.n
    cls, rows = _interned(sol.sigma_row(x) for x in range(n))
    m = len(rows)
    rep = [cls.index(c) for c in range(m)]

    su, sv = sol.u, sol.v
    u = [cls[su[r * n + s]] for r in rep for s in rep]
    v = [cls[sv[r * n + s]] for r in rep for s in rep]
    for x in range(n):
        # the classes of u and v at (x, y) against row cls[x] of the quotient at cls[y]
        row, c = slice(x * n, (x + 1) * n), cls[x] * m
        qu, qv = u[c : c + m], v[c : c + m]
        for y, cy, a, b in zip(range(n), cls, su[row], sv[row]):
            if cls[a] != qu[cy] or cls[b] != qv[cy]:
                raise NotWellDefined(f"retraction inconsistent at ({x}, {y})")
    return YBESolution(m, u, v)


def _brace_retraction(brace: Brace) -> YBESolution:
    """``retraction(solution_from_brace(brace))``, point i the ranks with lambda id i
    (numbered by first appearance, as ``_retract`` numbers classes): at the
    first ranks x of i and y of j, u is the id of lambda_x(y) and v that of
    lambda_u^-1(x).  It is well defined, as Ret(r_A) = r_{A/Soc(A)}."""
    ids, perms, k = brace.lambda_ids, brace.perms, len(brace.perms)
    first = [ids.index(i) for i in range(k)]
    inverses = [perm_inverse(p) for p in perms]
    u = [ids[perms[i][y]] for i in range(k) for y in first]
    v = [ids[inverses[u[i * k + j]][first[i]]] for i in range(k) for j in range(k)]
    return YBESolution(k, u, v)


def multipermutation_level(sol: YBESolution | Brace) -> int | None:
    """Least k with |Ret^k| = 1; None when the size stops shrinking above 1.

    Every step shrinks the solution or returns, so at most n - 1 steps run.
    The input is range-checked once, as in ``retraction``; each step's output
    holds class indices, in range by construction.  A ``Brace`` takes its first
    step on its lambdas (``_brace_retraction``), and r_A is never built.
    """
    if isinstance(sol, Brace):
        if len(sol.perms) == sol.order:
            return 0 if sol.order == 1 else None
        current, steps = _brace_retraction(sol), 1
    else:
        _check_entries(sol)
        current, steps = sol, 0
    while current.n > 1:
        nxt = _retract(current)
        if nxt.n == current.n:
            return None
        current = nxt
        steps += 1
    return steps if current.n == 1 else None
