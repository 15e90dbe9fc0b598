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

import os
import signal
from dataclasses import dataclass
from functools import partial
from itertools import islice
from operator import itemgetter
from typing import Callable, Sequence

from .abelian import EXHAUSTIVE_LIMIT, RANK_BLOCK, SPLIT_MIN_TRIPLES, _rank_blocks
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


def _picker(idx: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """seq -> tuple(seq[i] for i in idx); itemgetter gives a bare item for one index."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda seq: tuple(seq[i] for i in idx)


def _first_mismatch(lhs: tuple, rhs: tuple) -> int:
    """First position t at which the component sequences of lhs and rhs differ."""
    return next(t for t, (l, r) in enumerate(zip(zip(*lhs), zip(*rhs))) if l != r)


# r12 r23 r12 = r23 r12 r23 on (x, y, z):
#   (a, b) = r(x, y), (c, d) = r(b, z), (e, f) = r(a, c), lhs = (e, f, d);
#   (g, h) = r(y, z), (i, j) = r(x, g), (k, l) = r(j, h), rhs = (i, k, l).
#
# Each kernel checks a contiguous range of the triple stream and returns
# (triples checked from the start of the stream, first failing triple or None).

Braid = tuple[int, tuple[int, int, int] | None]


def _braid_exhaustive(sol: YBESolution, start: int, stop: int) -> Braid:
    """The triples (x, y, z) with start <= x < stop, in (x, y, z) order, all z
    of a pair (x, y) at once.

    With rows U_t, V_t of u and v, at each z: e = U_a[U_b[z]], f = V_a[U_b[z]],
    d = V_b[z], i = U_x[U_y[z]], and k, l = u[j n + h], v[j n + h] with
    j = V_x[U_y[z]] and h = V_y[z].  Only a pair whose rows differ is scanned
    z by z, for the first failing z.
    """
    n, u, v = sol.n, sol.u, sol.v
    for x in range(start, stop):
        ux, vx = u[x * n : (x + 1) * n], v[x * n : (x + 1) * n]
        for y in range(n):
            a, b = ux[y], vx[y]
            along_b = _picker(u[b * n : (b + 1) * n])  # s -> s[U_b[.]]
            along_y = _picker(u[y * n : (y + 1) * n])  # s -> s[U_y[.]]
            lhs = (along_b(u[a * n : (a + 1) * n]), along_b(v[a * n : (a + 1) * n]), tuple(v[b * n : (b + 1) * n]))
            at_jh = _picker([j * n + h for j, h in zip(along_y(vx), v[y * n : (y + 1) * n])])
            rhs = (along_y(ux), at_jh(u), at_jh(v))
            if lhs != rhs:
                z = _first_mismatch(lhs, rhs)
                return (x * n + y) * n + z + 1, (x, y, z)
    return stop * n * n, None


def _braid_sampled(sol: YBESolution, budget: int, seed: int, start: int, stop: int) -> Braid:
    """Blocks start..stop-1 of the triples of random.Random(seed).randrange(n),
    three draws each, RANK_BLOCK // 3 triples a block: the blocks before start
    are drawn and dropped.  The six maps of the relation are gathered from u
    and v through their pair ranks x * n + y for a whole block at once."""
    n, u, v = sol.n, sol.u, sol.v

    def at(xs: Sequence[int], ys: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        pick = _picker([x * n + y for x, y in zip(xs, ys)])
        return pick(u), pick(v)

    checked = start * (RANK_BLOCK // 3)
    for block in islice(_rank_blocks(n, seed, 3 * budget), start, stop):
        xs, ys, zs = block[0::3], block[1::3], block[2::3]
        a, b = at(xs, ys)
        c, d = at(b, zs)
        e, f = at(a, c)
        g, h = at(ys, zs)
        i, j = at(xs, g)
        k, l = at(j, h)
        lhs, rhs = (e, f, d), (i, k, l)
        if lhs != rhs:
            t = _first_mismatch(lhs, rhs)
            return checked + t + 1, (xs[t], ys[t], zs[t])
        checked += len(xs)
    return checked, None


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_two(kernel: Callable[[int, int], Braid], cut: int, stop: int) -> Braid:
    """kernel(0, stop), with [0, cut) checked here and [cut, stop) in one
    forked worker that sends its result back through a pipe.

    The parent's range comes first in the stream, so a witness found here wins
    and the worker is killed unread; otherwise the result is the worker's.  A
    worker that dies or sends nothing has its range checked again here.  The
    worker leaves only through os._exit, so nothing of the caller (finally
    blocks, buffered output) runs twice, and it is killed and reaped before
    this returns or raises.  If fork fails, the whole range runs here.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return kernel(0, stop)
    if pid == 0:
        code = 1
        try:
            checked, witness = kernel(cut, stop)
            os.write(write_fd, " ".join(map(str, (checked, *(witness or ())))).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            checked, witness = kernel(0, cut)
            if witness is not None:
                return checked, witness
            reply = [int(w) for w in pipe.read().split()]
        if not reply:  # the worker died before it wrote
            return kernel(cut, stop)
        return reply[0], tuple(reply[1:]) or None
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _check_entries(sol: YBESolution) -> None:
    """ValueError naming the first entry of u, then of v, outside 0..n-1."""
    n = sol.n
    for name, table in (("u", sol.u), ("v", sol.v)):
        if table and (min(table) < 0 or max(table) >= n):
            i = next(i for i, e in enumerate(table) if not 0 <= e < n)
            raise ValueError(f"{name}({i // n}, {i % n}) = {table[i]} is outside 0..{n - 1}")


def check_solution(sol: YBESolution, sample_budget: int = 1_000_000, seed: int = 0) -> SolutionReport:
    """Involutivity, non-degeneracy (always exhaustive), and the braid
    relation (exhaustive up to EXHAUSTIVE_LIMIT, seeded sampling above).

    The braid check stops at the first failing triple, which is the witness;
    triples_checked counts the triples up to and including it.  Sampling
    needs sample_budget >= 1; a smaller budget raises ValueError, and so does
    an entry of u or v outside 0..n-1.

    From SPLIT_MIN_TRIPLES triples on, with two usable CPUs, the braid check
    runs in two processes (_in_two): the parent checks the first range of the
    triple stream, one forked worker the rest.  The report is the one the
    in-process check gives.
    """
    n = sol.n
    _check_entries(sol)
    exhaustive = n <= EXHAUSTIVE_LIMIT
    if not exhaustive and sample_budget < 1:
        raise ValueError(f"sample_budget must be at least 1 to sample the braid check, got {sample_budget}")
    involutive = _involutive(sol)
    nondeg = _nondegenerate(sol)
    if exhaustive:
        # a range of x values; both halves cost the same
        kernel, triples, used_seed = partial(_braid_exhaustive, sol), n**3, None
        stop, cut = n, (n + 1) // 2
    else:
        # a range of blocks; the worker also draws the parent's blocks, so the parent takes 11/20
        kernel, triples, used_seed = partial(_braid_sampled, sol, sample_budget, seed), sample_budget, seed
        stop = -(-3 * sample_budget // RANK_BLOCK)
        cut = -(-11 * stop // 20)
    if triples >= SPLIT_MIN_TRIPLES and hasattr(os, "fork") and _usable_cpus() >= 2:
        checked, witness = _in_two(kernel, cut, stop)
    else:
        checked, witness = kernel(0, stop)
    return SolutionReport(n, involutive, nondeg, witness is None, checked, exhaustive, used_seed, witness)


def retraction(sol: YBESolution) -> YBESolution:
    """Quotient by x ~ y when the left component maps agree, with the induced
    table checked well defined on classes.

    Row x of u and of v, read through the classes, must equal row cls[x] of
    the quotient read along the classes of y; a failure names the first
    (x, y) in row-major order.
    """
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
    for x in reversed(range(n)):
        rep[cls[x]] = x

    by_rep, by_class = _picker(rep), _picker(cls)  # s -> s[rep[.]], s -> s[cls[.]]
    to_class = cls.__getitem__
    u = [0] * (m * m)
    v = [0] * (m * m)
    for c, r in enumerate(rep):
        u[c * m : (c + 1) * m] = map(to_class, by_rep(sol.u[r * n : (r + 1) * n]))
        v[c * m : (c + 1) * m] = map(to_class, by_rep(sol.v[r * n : (r + 1) * n]))
    for x in range(n):
        row, c = slice(x * n, (x + 1) * n), cls[x]
        got = (tuple(map(to_class, sol.u[row])), tuple(map(to_class, sol.v[row])))
        # row c of the quotient read along cls: the classes of u and v at (x, y) for every y
        want = (by_class(u[c * m : (c + 1) * m]), by_class(v[c * m : (c + 1) * m]))
        if got != want:
            raise NotWellDefined(f"retraction inconsistent at ({x}, {_first_mismatch(got, want)})")
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
