"""Tests for solution tables, their checks, retraction, and level."""

from __future__ import annotations

import errno
import itertools
import os
import random
import time

import pytest

from bracelab import ybe
from bracelab.abelian import RANK_BLOCK, SPLIT_MIN_TRIPLES, AbelianGroup, _rank_blocks
from bracelab.brace import brace_report, trivial_brace
from bracelab.constructions import diagonal_brace_m1, diagonal_brace_m2
from bracelab.nilpotency import _sample_ranks
from bracelab.ybe import (
    NotWellDefined,
    SolutionReport,
    YBESolution,
    check_solution,
    identity_pair_map,
    multipermutation_level,
    retraction,
    solution_from_brace,
    twist_solution,
)


def test_trivial_brace_gives_twist():
    T = trivial_brace([4, 4])
    assert solution_from_brace(T) == twist_solution(16)
    rep = check_solution(twist_solution(7))
    assert rep.passed


def test_identity_pair_map_degenerate():
    rep = check_solution(identity_pair_map(5))
    assert rep.involutive and rep.braid and not rep.nondegenerate
    assert not rep.passed
    # on one point it is fine
    assert check_solution(identity_pair_map(1)).passed


def test_brace_solutions_pass_exhaustively():
    for brace in (diagonal_brace_m1(2), diagonal_brace_m2(2), diagonal_brace_m2(3)):
        sol = solution_from_brace(brace)
        rep = check_solution(sol)
        assert rep.exhaustive and rep.passed
        assert rep.triples_checked == brace.order ** 3


def test_sampled_check_above_limit():
    sol = solution_from_brace(diagonal_brace_m1(5))
    rep = check_solution(sol, sample_budget=50_000, seed=11)
    assert not rep.exhaustive
    assert rep.seed == 11
    assert rep.passed


def test_sample_budget_below_one_is_refused_only_when_sampling():
    for budget in (0, -1):
        with pytest.raises(ValueError, match=f"sample_budget must be at least 1 .*got {budget}"):
            check_solution(twist_solution(82), sample_budget=budget)
        rep = check_solution(twist_solution(81), sample_budget=budget)
        assert rep.exhaustive and rep.passed and rep.triples_checked == 81**3


@pytest.mark.parametrize("which, value", [("v", 4), ("v", -1), ("v", -4), ("u", 4), ("u", -1)])
def test_out_of_range_entries_are_refused(which, value):
    # a v entry of 4, -1 or -4 keeps every column a set of n values, and a u
    # entry of 4 indexes past the table: each is refused, naming the entry
    sol = twist_solution(4)
    getattr(sol, which)[1 * 4 + 2] = value
    with pytest.raises(ValueError, match=rf"^{which}\(1, 2\) = {value} is outside 0\.\.3$"):
        check_solution(sol)


def test_the_first_out_of_range_entry_is_named():
    sol = twist_solution(4)
    sol.u[3 * 4 + 1], sol.u[0 * 4 + 2], sol.v[0] = 9, -1, 5
    with pytest.raises(ValueError, match=r"^u\(0, 2\) = -1 is outside"):
        check_solution(sol)
    sol = twist_solution(4)
    sol.v[2 * 4 + 3], sol.v[3 * 4] = 7, 4
    with pytest.raises(ValueError, match=r"^v\(2, 3\) = 7 is outside"):
        check_solution(sol)


def test_out_of_range_entries_are_refused_before_any_check(monkeypatch):
    def never(*args):
        raise AssertionError("ran before the entries were checked")

    for name in ("_involutive", "_nondegenerate", "_braid_exhaustive", "_braid_sampled"):
        monkeypatch.setattr(ybe, name, never)
    monkeypatch.setattr(os, "fork", never)
    for n in (81, 625):
        sol = twist_solution(n)
        sol.v[-1] = n
        with pytest.raises(ValueError, match=rf"^v\({n - 1}, {n - 1}\) = {n} is outside 0\.\.{n - 1}$"):
            check_solution(sol)


def test_retraction_classes():
    A = diagonal_brace_m1(2)
    sol = solution_from_brace(A)
    ret = retraction(sol)
    assert ret.n == 2
    T = trivial_brace([3, 27])
    assert retraction(solution_from_brace(T)).n == 1


def test_retraction_fixed_point_one_point():
    one = twist_solution(1)
    assert retraction(one).n == 1
    assert multipermutation_level(one) == 0


def test_multipermutation_levels():
    assert multipermutation_level(solution_from_brace(trivial_brace([4, 4]))) == 1
    assert multipermutation_level(solution_from_brace(diagonal_brace_m1(2))) == 2
    assert multipermutation_level(solution_from_brace(diagonal_brace_m2(3))) == 2


def test_infinite_flag_when_size_stagnates():
    # the identity pair map has pairwise-distinct sigma rows, so retraction
    # cannot shrink it; the level is flagged infinite immediately
    assert multipermutation_level(identity_pair_map(3)) is None


def test_retraction_not_well_defined_rejected():
    # two points share sigma rows but their v-values land in different classes
    n = 3
    u = [0, 1, 2, 0, 2, 1, 0, 1, 2]
    v = [0, 0, 0, 1, 1, 1, 1, 2, 0]
    sol = YBESolution(n, u, v)
    with pytest.raises(NotWellDefined):
        retraction(sol)


def test_retraction_shrinks_or_flags_within_size_steps():
    for brace in (diagonal_brace_m1(2), diagonal_brace_m2(2), trivial_brace([2, 8])):
        sol = solution_from_brace(brace)
        level = multipermutation_level(sol)
        assert level is not None and level <= sol.n


# -- the seeded rank sampler and the braid and retraction kernels, against references --


def _randrange_ranks(n: int, seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(n) for _ in range(count)]


@pytest.mark.parametrize("n", [*range(1, 301), 625, 1000, 1024, 4096, 5000])
def test_rank_blocks_draw_the_randrange_sequence(n):
    for seed, count in itertools.product((0, 7, 2021), (0, 1, 2, RANK_BLOCK - 1, RANK_BLOCK + 5)):
        blocks = list(_rank_blocks(n, seed, count))
        assert [r for block in blocks for r in block] == _randrange_ranks(n, seed, count), (seed, count)
        assert all(len(block) == RANK_BLOCK for block in blocks[:-1])
    # unbounded: the same stream, block after block
    stream = itertools.chain.from_iterable(_rank_blocks(n, 3))
    assert list(itertools.islice(stream, 2 * RANK_BLOCK + 7)) == _randrange_ranks(n, 3, 2 * RANK_BLOCK + 7)


def test_rank_blocks_refuse_an_empty_or_too_large_range():
    for n in (0, 2**32, 2**40):
        with pytest.raises(ValueError):
            next(_rank_blocks(n, 0, 1))


def ref_sample_ranks(n: int, budget: int, seed: int) -> list[int]:
    if n <= 81:
        return list(range(n))
    rng = random.Random(seed)
    picks = {0}
    while len(picks) < min(budget, n):
        picks.add(rng.randrange(n))
    return sorted(picks)


def test_sample_ranks_match_the_randrange_draws():
    for n, budget, seed in itertools.product((64, 82, 125, 625, 5000), (0, 1, 20, 700), (0, 7)):
        assert _sample_ranks(n, budget, seed) == ref_sample_ranks(n, budget, seed)


class _RecordingGroup(AbelianGroup):
    """An abelian group that records its add_rank calls."""

    __slots__ = ("calls",)

    def __init__(self, moduli):
        super().__init__(moduli)
        self.calls: list[tuple[int, int]] = []

    def add_rank(self, i: int, j: int) -> int:
        self.calls.append((i, j))
        return super().add_rank(i, j)


def test_brace_report_spot_triples_are_the_seeded_sample():
    # each spot triple (a, b, c) adds b + c, then a + lambda_a(b + c), then four more
    brace = diagonal_brace_m2(2)
    columns = brace.lambda_columns()
    for spots in (0, 1, 200, RANK_BLOCK // 3 + 2):
        group = _RecordingGroup(brace.moduli)
        report = brace_report(group, columns, spot_triples=spots, seed=3)
        assert report.violations == () and report.checks == 16 + 16**2 + spots
        calls = group.calls[len(group.calls) - 6 * spots :]
        triples = [(calls[t + 1][0], *calls[t]) for t in range(0, 6 * spots, 6)]
        ranks = _randrange_ranks(16, 3, 3 * spots)
        assert triples == list(zip(ranks[0::3], ranks[1::3], ranks[2::3]))


def _braid_at(sol: YBESolution, x: int, y: int, z: int) -> bool:
    # r12 r23 r12 = r23 r12 r23 on (x, y, z)
    a, b = sol.apply(x, y)
    c, d = sol.apply(b, z)
    e, f = sol.apply(a, c)
    g, h = sol.apply(y, z)
    i, j = sol.apply(x, g)
    k, l = sol.apply(j, h)
    return (e, f, d) == (i, k, l)


def ref_braid(sol: YBESolution, budget: int, seed: int) -> tuple[bool, int, tuple | None]:
    """(braid, triples_checked, witness), one triple at a time."""
    n = sol.n
    if n <= 81:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = random.Random(seed)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(budget))
    checked = 0
    for t in triples:
        checked += 1
        if not _braid_at(sol, *t):
            return False, checked, t
    return True, checked, None


def _swapped(sol: YBESolution, which: str, seed: int) -> YBESolution:
    """sol with two seeded entries of u (or v) that differ exchanged."""
    rng = random.Random(seed)
    u, v = list(sol.u), list(sol.v)
    t = u if which == "u" else v
    i, j = rng.randrange(sol.n**2), rng.randrange(sol.n**2)
    while t[i] == t[j] and len(set(t)) > 1:
        i, j = rng.randrange(sol.n**2), rng.randrange(sol.n**2)
    t[i], t[j] = t[j], t[i]
    return YBESolution(sol.n, u, v)


def _assert_braid_matches(sol: YBESolution, budget: int = 1_000_000, seed: int = 0) -> SolutionReport:
    report = check_solution(sol, sample_budget=budget, seed=seed)
    assert (report.braid, report.triples_checked, report.witness) == ref_braid(sol, budget, seed)
    return report


@pytest.fixture(scope="module")
def order625_solutions(exponent5_brace):
    return [solution_from_brace(b) for b in (diagonal_brace_m1(5), diagonal_brace_m2(5), exponent5_brace)]


def test_exhaustive_braid_matches_the_triple_loop(enumerated_braces):
    sols = [solution_from_brace(b) for b in enumerated_braces[::7]]
    sols += [twist_solution(1), identity_pair_map(1), identity_pair_map(5), solution_from_brace(diagonal_brace_m2(3))]
    for sol in sols:
        assert _assert_braid_matches(sol).exhaustive
    failed = 0
    for sol, which, seed in itertools.product(sols[:-1] + [solution_from_brace(diagonal_brace_m1(3))], "uv", range(3)):
        failed += not _assert_braid_matches(_swapped(sol, which, seed)).braid
    assert failed > 30


def test_sampled_braid_matches_the_triple_loop(order625_solutions):
    # budgets of one triple, of a block and a bit, and not a multiple of the block;
    # a budget below one would check nothing and is refused
    sols = [solution_from_brace(trivial_brace([5, 25])), twist_solution(100), *order625_solutions]
    for sol in sols:
        with pytest.raises(ValueError, match="sample_budget must be at least 1"):
            check_solution(sol, sample_budget=0)
    for sol, budget, seed in itertools.product(sols, (1, RANK_BLOCK // 3 + 1, 2500), (0, 7)):
        report = _assert_braid_matches(sol, budget, seed)
        assert not report.exhaustive and report.seed == seed and report.passed
    failed = 0
    for sol, which, seed in itertools.product(sols[::2], "uv", range(3)):
        failed += not _assert_braid_matches(_swapped(sol, which, seed), 100_000, 7).braid
    assert failed >= 12


def test_sampled_braid_witnesses_are_pinned(order625_solutions):
    # (witness, triples_checked) of two tampered order-625 solutions, recorded
    # once from the one-triple-at-a-time randrange loop: a change in the sampled
    # sequence or in the block boundaries moves them
    m1, _, exponent5 = order625_solutions
    report = check_solution(_swapped(m1, "u", 1), seed=0)
    assert (report.witness, report.triples_checked) == ((122, 445, 420), 198776)
    report = check_solution(_swapped(exponent5, "v", 3), seed=7)
    assert (report.witness, report.triples_checked) == ((199, 135, 386), 29582)


# -- the braid check split across two processes, against the in-process check --


@pytest.fixture()
def forks(monkeypatch):
    """The pids of the workers forked in this process."""
    real, pids = os.fork, []

    def counting():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


@pytest.fixture()
def kernel_ranges(monkeypatch):
    """The (start, stop) ranges the braid kernels are run on in this process."""
    me, ranges = os.getpid(), []
    for name in ("_braid_exhaustive", "_braid_sampled"):

        def recording(*args, real=getattr(ybe, name)):
            if os.getpid() == me:
                ranges.append(args[-2:])
            return real(*args)

        monkeypatch.setattr(ybe, name, recording)
    return ranges


def _in_process(monkeypatch, sol: YBESolution, budget: int = 1_000_000, seed: int = 0) -> SolutionReport:
    with monkeypatch.context() as patch:
        patch.setattr(ybe, "_usable_cpus", lambda: 1)
        return check_solution(sol, sample_budget=budget, seed=seed)


def _assert_split_matches(monkeypatch, ranges, sol: YBESolution, budget: int = 1_000_000, seed: int = 0) -> str:
    """The split report equals the in-process one and the triple loop; returns
    the side ('parent' or 'worker') whose range holds the first failing triple."""
    split = check_solution(sol, sample_budget=budget, seed=seed)
    serial = _in_process(monkeypatch, sol, budget, seed)
    # the parent ran [0, cut) of the split check, the in-process check [0, stop)
    [(start, cut), (_, stop)] = ranges
    assert start == 0 < cut < stop, ranges
    assert split == serial
    assert (split.braid, split.triples_checked, split.witness) == ref_braid(sol, budget, seed)
    if split.braid:
        return "none"
    if split.exhaustive:
        return "parent" if split.witness[0] < cut else "worker"
    return "parent" if split.triples_checked <= cut * (RANK_BLOCK // 3) else "worker"


# ([brace,] tamper seed of u, side of the first failing triple), picked by the triple loop's index
TAMPERED_625 = [
    ("m1", 0, "parent"), ("m1", 3, "parent"), ("m1", 8, "worker"), ("m1", 25, "worker"), ("m2", 14, "worker")
]
TAMPERED_81 = [(2, "parent"), (0, "parent"), (17, "worker"), (6, "worker")]


@pytest.mark.parametrize("brace, tamper, side", TAMPERED_625)
def test_split_sampled_braid_matches_the_serial_check(
    monkeypatch, kernel_ranges, order625_solutions, brace, tamper, side
):
    sol = _swapped(order625_solutions[("m1", "m2").index(brace)], "u", tamper)
    assert _assert_split_matches(monkeypatch, kernel_ranges, sol, SPLIT_MIN_TRIPLES) == side


def test_split_sampled_braid_at_the_default_budget(monkeypatch, kernel_ranges, order625_solutions):
    sol = _swapped(order625_solutions[0], "u", 1)
    assert _assert_split_matches(monkeypatch, kernel_ranges, sol) == "parent"


@pytest.mark.parametrize("tamper, side", TAMPERED_81)
def test_split_exhaustive_braid_matches_the_serial_check(monkeypatch, kernel_ranges, tamper, side):
    # tampered twists fail at x spread over the whole range; 17 fails in the worker's first row
    sol = _swapped(twist_solution(81), "u", tamper)
    assert _assert_split_matches(monkeypatch, kernel_ranges, sol) == side


@pytest.mark.parametrize("blocks", [-1, 0, 1])
def test_split_starts_at_the_threshold(monkeypatch, forks, order625_solutions, blocks):
    budget = SPLIT_MIN_TRIPLES + blocks * (RANK_BLOCK // 3)
    m1, m2, _ = order625_solutions
    for sol in (m2, _swapped(m1, "u", 8)):
        report = check_solution(sol, sample_budget=budget)
        assert report == _in_process(monkeypatch, sol, budget)
        assert (report.braid, report.triples_checked, report.witness) == ref_braid(sol, budget, 0)
    assert len(forks) == (0 if blocks < 0 else 2)


def test_split_only_with_two_cpus_and_fork(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert ybe._usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, usable in ((None, 1), (1, 1), (2, 2)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert ybe._usable_cpus() == usable
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert check_solution(twist_solution(81)).passed and forks == []
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert check_solution(twist_solution(81)).passed


def test_no_worker_is_left_after_check_solution(forks, order625_solutions):
    # a pass, an early failure in the parent's range, and an order-81 pass
    m1 = order625_solutions[0]
    for sol, budget in ((m1, SPLIT_MIN_TRIPLES), (_swapped(m1, "u", 0), SPLIT_MIN_TRIPLES), (twist_solution(81), 1)):
        check_solution(sol, sample_budget=budget)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 3


def test_an_exception_in_the_parent_range_kills_the_worker(monkeypatch, forks, order625_solutions):
    me = os.getpid()

    def kernel(*args):
        if os.getpid() != me:
            time.sleep(120)  # outlives the check unless killed
        raise RuntimeError("parent range")

    monkeypatch.setattr(ybe, "_braid_sampled", kernel)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="parent range"):
        check_solution(order625_solutions[0])
    assert time.monotonic() - started < 60 and len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("tamper", [None, 0, 8])
def test_a_worker_that_dies_is_checked_again_here(monkeypatch, forks, kernel_ranges, order625_solutions, tamper):
    # a pass, a failure in the parent's range, and one in the worker's range
    m1, me = order625_solutions[0], os.getpid()
    sol = m1 if tamper is None else _swapped(m1, "u", tamper)
    want = _in_process(monkeypatch, sol, SPLIT_MIN_TRIPLES)
    del kernel_ranges[:]
    real = ybe._braid_sampled

    def dying(*args):
        if os.getpid() != me:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(ybe, "_braid_sampled", dying)
    assert check_solution(sol, sample_budget=SPLIT_MIN_TRIPLES) == want
    assert len(forks) == 1 and len(kernel_ranges) == (1 if tamper == 0 else 2)


def test_an_exception_in_the_worker_range_is_the_serial_one(monkeypatch, forks, order625_solutions):
    # the kernel raises on the last block, in whichever process checks it
    real = ybe._braid_sampled
    last = SPLIT_MIN_TRIPLES // (RANK_BLOCK // 3) - 1

    def failing_late(sol, budget, seed, start, stop):
        if start <= last < stop:
            raise RuntimeError(f"block {last}")
        return real(sol, budget, seed, start, stop)

    monkeypatch.setattr(ybe, "_braid_sampled", failing_late)
    for check in (_in_process, lambda _, *args: check_solution(args[0], sample_budget=args[1])):
        with pytest.raises(RuntimeError, match=f"^block {last}$"):
            check(monkeypatch, order625_solutions[0], SPLIT_MIN_TRIPLES)
    assert len(forks) == 1


def test_a_failed_fork_checks_everything_here(monkeypatch, order625_solutions):
    sol = _swapped(order625_solutions[0], "u", 8)
    want = _in_process(monkeypatch, sol, SPLIT_MIN_TRIPLES)

    def no_fork():
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    assert check_solution(sol, sample_budget=SPLIT_MIN_TRIPLES) == want


def test_the_caller_finally_runs_once(tmp_path, forks, order625_solutions):
    # a worker that returned or raised would run this finally block too
    log = tmp_path / "finally.log"
    m1 = order625_solutions[0]
    for sol in (m1, _swapped(m1, "u", 0), _swapped(m1, "u", 8)):
        try:
            check_solution(sol, sample_budget=SPLIT_MIN_TRIPLES)
        finally:
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())] * 3
    assert len(forks) == 3


def ref_retraction(sol: YBESolution) -> YBESolution:
    """The n^2 definition: classes by sigma row, the table on class representatives,
    then every pair (x, y) checked against it in row-major order."""
    n = sol.n
    class_of: dict[tuple[int, ...], int] = {}
    cls = [class_of.setdefault(sol.sigma_row(x), len(class_of)) for x in range(n)]
    m = len(class_of)
    rep = [cls.index(c) for c in range(m)]
    u = [cls[sol.apply(rep[cx], rep[cy])[0]] for cx in range(m) for cy in range(m)]
    v = [cls[sol.apply(rep[cx], rep[cy])[1]] for cx in range(m) for cy in range(m)]
    for x in range(n):
        for y in range(n):
            uu, vv = sol.apply(x, y)
            i = cls[x] * m + cls[y]
            if u[i] != cls[uu] or v[i] != cls[vv]:
                raise NotWellDefined(f"retraction inconsistent at ({x}, {y})")
    return YBESolution(m, u, v)


def _same_retraction(sol: YBESolution) -> bool:
    try:
        want = ref_retraction(sol)
    except NotWellDefined as exc:
        with pytest.raises(NotWellDefined) as got:
            retraction(sol)
        assert str(got.value) == str(exc)
        return False
    assert retraction(sol) == want
    return True


def test_retraction_matches_the_pair_scan(enumerated_braces):
    for brace in enumerated_braces:
        sol = solution_from_brace(brace)
        while sol.n > 1 and _same_retraction(sol):
            nxt = ref_retraction(sol)
            if nxt.n == sol.n:
                break
            sol = nxt
    # tampered tables: v swaps keep the classes but can break the quotient
    sols = [solution_from_brace(b) for b in enumerated_braces if b.order >= 8]
    ill_defined = 0
    for sol, which, seed in itertools.product(sols, "uv", range(2)):
        ill_defined += not _same_retraction(_swapped(sol, which, seed))
    assert ill_defined > 10
