"""Tests for solution tables, their checks, retraction, and level."""

from __future__ import annotations

import errno
import itertools
import json
import os
import random
from pathlib import Path

import pytest

from bracelab import ybe
from bracelab.abelian import AbelianGroup, all_automorphisms, perm_inverse
from bracelab.brace import Brace, trivial_brace
from bracelab.cli import main
from bracelab.constructions import diagonal_brace_m1, diagonal_brace_m2
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
    # entry of 4 indexes past the table: each is refused, naming the entry,
    # by the checks, the retraction and the level (which gave level 1 for v = -1)
    for check in (check_solution, retraction, multipermutation_level):
        sol = twist_solution(4)
        getattr(sol, which)[1 * 4 + 2] = value
        with pytest.raises(ValueError, match=rf"^{which}\(1, 2\) = {value} is outside 0\.\.3$"):
            check(sol)


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

    for name in ("_involutive", "_nondegenerate", "_braid_scan"):
        monkeypatch.setattr(ybe, name, never)
    monkeypatch.setattr(os, "fork", never)
    for n in (81, 625):
        sol = twist_solution(n)
        sol.v[-1] = n
        with pytest.raises(ValueError, match=rf"^v\({n - 1}, {n - 1}\) = {n} is outside 0\.\.{n - 1}$"):
            check_solution(sol)


def test_level_checks_its_input_once(monkeypatch):
    calls = []
    check = ybe._check_entries
    monkeypatch.setattr(ybe, "_check_entries", lambda sol: calls.append(sol.n) or check(sol))
    assert multipermutation_level(solution_from_brace(diagonal_brace_m2(3))) == 2
    assert calls == [81]


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


# -- the sampled triple stream, the braid scan and the retraction kernel, against references --

# 256 triples: the counts and budgets below fall on both sides of it.
BLOCK = 256

def _randrange_ranks(n: int, seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(n) for _ in range(count)]


@pytest.mark.parametrize("n", [*range(1, 301), 625, 1000, 1024, 4096, 5000])
def test_rank_blocks_draw_the_randrange_sequence(n):
    # the stream is drawn as the scan reads it, three ranks per triple
    for seed, count in itertools.product((0, 7, 2021), (0, 1, 2, BLOCK - 1, BLOCK + 5)):
        triples = list(ybe._sampled_triples(n, seed, count))
        assert len(triples) == count and all(len(t) == 3 for t in triples)
        assert [r for t in triples for r in t] == _randrange_ranks(n, seed, 3 * count), (seed, count)


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
    # budgets of one triple, of BLOCK and a bit, and not a multiple of BLOCK;
    # a budget below one would check nothing and is refused
    sols = [solution_from_brace(trivial_brace([5, 25])), twist_solution(100), *order625_solutions]
    for sol in sols:
        with pytest.raises(ValueError, match="sample_budget must be at least 1"):
            check_solution(sol, sample_budget=0)
    for sol, budget, seed in itertools.product(sols, (1, BLOCK + 1, 2500), (0, 7)):
        report = _assert_braid_matches(sol, budget, seed)
        assert not report.exhaustive and report.seed == seed and report.passed
    failed = 0
    for sol, which, seed in itertools.product(sols[::2], "uv", range(3)):
        failed += not _assert_braid_matches(_swapped(sol, which, seed), 100_000, 7).braid
    assert failed >= 12


def test_sampled_braid_witnesses_are_pinned(order625_solutions):
    # (witness, triples_checked) of two tampered order-625 solutions, recorded
    # once from the one-triple-at-a-time randrange loop: a change in the sampled
    # sequence or in the order the scan reads it moves them
    m1, _, exponent5 = order625_solutions
    report = check_solution(_swapped(m1, "u", 1), seed=0)
    assert (report.witness, report.triples_checked) == ((122, 445, 420), 198776)
    report = check_solution(_swapped(exponent5, "v", 3), seed=7)
    assert (report.witness, report.triples_checked) == ((199, 135, 386), 29582)


def _swap_pair_map(n: int, f: tuple[int, ...], g: tuple[int, ...]) -> YBESolution:
    """r(x, y) = (f(y), g(x)): non-degenerate, and braided exactly when f g = g f."""
    return YBESolution(n, [f[y] for x in range(n) for y in range(n)], [g[x] for x in range(n) for y in range(n)])


def test_the_scan_at_the_exhaustive_limit():
    # maps the law does not decide (degenerate, or not involutive) on both
    # sides of the switch: every 81^3 triple at 81, and at 82 a sampled
    # budget of BLOCK + 1
    report = check_solution(identity_pair_map(81))
    assert report.exhaustive and (report.braid, report.triples_checked, report.witness) == (True, 81**3, None)
    ident = tuple(range(82))
    f, g = (1, 0, *ident[2:]), (0, 2, 1, *ident[3:])  # f g and g f differ at 0, 1 and 2
    crossed = _swap_pair_map(82, f, g)
    assert not ybe._involutive(crossed) and ybe._nondegenerate(crossed)
    failed = 0
    for sol, seed in itertools.product((identity_pair_map(82), crossed), (0, 7)):
        report = _assert_braid_matches(sol, BLOCK + 1, seed)
        assert not report.exhaustive and report.seed == seed
        failed += not report.braid
    assert failed == 2


def test_the_scan_reads_no_triple_past_its_witness():
    # a map that fails early in a stream of 20^3 triples
    ident = tuple(range(20))
    sol = _swap_pair_map(20, (1, 0, *ident[2:]), (0, 2, 1, *ident[3:]))
    total = 20**3
    stream = iter(list(itertools.product(range(20), repeat=3)))
    checked, witness = ybe._braid_scan(sol, stream)
    assert witness is not None and checked < BLOCK
    assert (checked, witness) == ref_braid(sol, total, 0)[1:]
    assert sum(1 for _ in stream) == total - checked


# -- the braid relation decided on pairs by the cycle-set law --


def _cycle_set_map(sigmas: list[tuple[int, ...]]) -> YBESolution:
    """r(x, y) = (sigma_x(y), sigma_{sigma_x(y)}^-1(x)): involutive and left
    non-degenerate for any permutations sigma_x."""
    n = len(sigmas)
    inverses = [perm_inverse(s) for s in sigmas]
    u = [s[y] for s in sigmas for y in range(n)]
    v = [inverses[u[x * n + y]][x] for x in range(n) for y in range(n)]
    return YBESolution(n, u, v)


def _random_cycle_set_map(rng: random.Random, n: int, k: int) -> YBESolution:
    """sigma_x drawn from k seeded permutations of 0..n-1, so at most k distinct rows."""
    perms = [tuple(rng.sample(range(n), n)) for _ in range(k)]
    return _cycle_set_map([rng.choice(perms) for _ in range(n)])


def ref_law_witness(sol: YBESolution) -> tuple[int, int, int] | None:
    """The first pair (x, w) in row order with sigma_x sigma_{sigma_x^-1(w)} !=
    sigma_w sigma_{sigma_w^-1(x)}, as (x, sigma_x^-1(w), z) with z the first
    point where the two compositions differ; None when the law holds."""
    n = sol.n
    sigma = [sol.sigma_row(x) for x in range(n)]
    inverse = [perm_inverse(s) for s in sigma]
    for x, w in itertools.product(range(n), repeat=2):
        y, t = inverse[x][w], inverse[w][x]
        lhs = [sigma[x][sigma[y][z]] for z in range(n)]
        rhs = [sigma[w][sigma[t][z]] for z in range(n)]
        if lhs != rhs:
            return x, y, next(z for z in range(n) if lhs[z] != rhs[z])
    return None


def _law(sol: YBESolution) -> bool | tuple[int, int, int] | None:
    """The cycle-set law on the rows of u, as check_solution reads a table."""
    return ybe._cycle_set_law(sol.n, *ybe._interned(sol.sigma_row(x) for x in range(sol.n)))


def _law_breaking_maps() -> list[YBESolution]:
    """Seeded random maps of order 1..8 that are non-degenerate and fail the braid relation."""
    rng = random.Random(2005)
    maps = (_random_cycle_set_map(rng, n, rng.randint(1, n)) for n in (rng.randint(1, 8) for _ in range(500)))
    return [sol for sol in maps if ybe._nondegenerate(sol) and not ref_braid(sol, 0, 0)[0]][:3]


def test_braid_by_the_cycle_set_law_matches_the_triple_loop():
    rng = random.Random(2005)
    outcomes, law = set(), []
    for _ in range(2000):
        n = rng.randint(1, 8)
        sol = _random_cycle_set_map(rng, n, rng.randint(1, n))
        report = _assert_braid_matches(sol)
        outcomes.add(report.braid)
        if report.nondegenerate:
            verdict = _law(sol)
            if isinstance(verdict, tuple):
                assert verdict == ref_law_witness(sol) and not _braid_at(sol, *verdict)
                verdict = False
            law.append(verdict)
    # the law holds, fails, and is left to the scan (more than n compositions)
    assert outcomes == {True, False}
    assert set(law) == {True, False, None}


def test_a_law_breaking_map_above_the_limit_is_sampled():
    # a non-degenerate map of order at most 8 that fails the law, with 90 more
    # points that every sigma fixes: still involutive and non-degenerate, and
    # the sampled scan finds a failing triple
    smalls = _law_breaking_maps()
    assert len(smalls) == 3
    for small in smalls:
        m = small.n
        sigmas = [small.sigma_row(x) + tuple(range(m, m + 90)) for x in range(m)]
        sol = _cycle_set_map(sigmas + [tuple(range(m + 90))] * 90)
        law = _law(sol)
        assert ybe._involutive(sol) and ybe._nondegenerate(sol) and law == ref_law_witness(sol)
        report = _assert_braid_matches(sol, seed=3)
        assert not report.exhaustive and not report.braid
        # budgets whose sample misses every failing triple: the law's verdict
        # stands, with its triple as the witness and the sample as the count
        for budget in (1, 100, 300, 1000):
            assert ref_braid(sol, budget, 0) == (True, budget, None)
            report = check_solution(sol, sample_budget=budget, seed=0)
            assert (report.braid, report.triples_checked, report.witness) == (False, budget, law)
            assert not report.passed and not _braid_at(sol, *law)


def test_solutions_that_keep_the_law_are_not_scanned(monkeypatch, capsys, builtin_corpus, order625_solutions):
    def never(*args):
        raise AssertionError("scanned triples of a solution that keeps the cycle-set law")

    monkeypatch.setattr(ybe, "_braid_scan", never)
    monkeypatch.setattr(os, "fork", never)
    sols = [solution_from_brace(b) for b in builtin_corpus] + order625_solutions
    for sol, budget in itertools.product(sols, (1, 1_000_000)):
        report = check_solution(sol, sample_budget=budget, seed=5)
        assert report.passed and report.witness is None
        assert report.triples_checked == (sol.n**3 if report.exhaustive else budget)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "verify" / "exponent-5.json"
    assert main(["verify", "--input", str(path), "--suite", "ybe"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["ybe"] == {
        "involutive": True,
        "nondegenerate": True,
        "braid": True,
        "triples_checked": 1_000_000,
        "exhaustive": False,
        "multipermutation_level": 2,
    }


def test_verify_checks_the_brace_solution_once(monkeypatch, capsys):
    # verify checks a brace's solution once, from its lambdas, and builds no
    # table; check_solution of a table checks and reports both properties
    calls = []
    permutation_rows = ybe._permutation_rows

    def refuse(*args):
        raise AssertionError("verify built a YBE solution table")

    with monkeypatch.context() as m:
        m.setattr(ybe, "_permutation_rows", lambda n, rows: calls.append(n) or permutation_rows(n, rows))
        m.setattr(ybe, "YBESolution", refuse)
        path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "verify" / "exponent-5.json"
        assert main(["verify", "--input", str(path), "--suite", "ybe", "--sample-budget", "10"]) == 0
    ybe_block = json.loads(capsys.readouterr().out)["results"]["ybe"]
    assert ybe_block["involutive"] and ybe_block["nondegenerate"] and ybe_block["braid"]
    assert calls == [625]
    sol = solution_from_brace(diagonal_brace_m2(3))
    assert calls == [625]
    sol.u[sol.n + 1] = sol.u[sol.n + 2]  # row 1 of u is no longer a permutation
    report = check_solution(sol)
    assert not report.involutive and not report.nondegenerate and not report.passed


def _unvalidated_braces() -> list[Brace]:
    """Lambda assignments that are no brace: random automorphisms of C3 x C3
    (with lambda_0 the identity in half of them), a lambda that is not a
    permutation, and at order 169 the swap of ranks 1 and 2, a permutation
    that is not additive, as lambda_1 alone and as every lambda_x.  The last
    is still a solution, r(x, y) = (s(y), s^-1(x)); the others fail a check
    of the lambdas and are checked on their table."""
    rng = random.Random(29)
    group = AbelianGroup((3, 3))
    auts = all_automorphisms(group)
    out = []
    for i in range(40):
        ids = [rng.randrange(len(auts)) for _ in range(9)]
        if i % 2:
            ids[0] = auts.index(tuple(range(9)))
        out.append(Brace(group, ids, auts))
    out.append(Brace(group, [0, 1] + [0] * 7, [tuple(range(9)), (0, 1, 1, 3, 4, 5, 6, 7, 8)]))
    big = AbelianGroup((13, 13))
    swap = (0, 2, 1, *range(3, 169))
    out.append(Brace(big, [0, 1] + [0] * 167, [tuple(range(169)), swap]))
    out.append(Brace(big, [1] * 169, [tuple(range(169)), swap]))
    return out


def test_a_brace_is_checked_as_its_solution_table(builtin_corpus, enumerated_braces, exponent5_brace):
    # the report from the lambdas is the report of the table, field for field
    braces = [*builtin_corpus, *enumerated_braces, exponent5_brace, diagonal_brace_m1(5), diagonal_brace_m2(5)]
    unvalidated = _unvalidated_braces()
    for brace, seed in itertools.product(braces + unvalidated, (0, 7)):
        assert check_solution(brace, seed=seed) == check_solution(solution_from_brace(brace), seed=seed)
    on_table = [ybe._brace_report(b, 1_000_000, 0) is None for b in unvalidated]
    assert on_table == [True] * (len(unvalidated) - 1) + [False]
    assert [check_solution(b).passed for b in unvalidated] == [not t for t in on_table]
    # a budget below one is refused above order 81 on both paths, and only there
    for brace in (exponent5_brace, unvalidated[-2], unvalidated[-1]):
        for sol in (brace, solution_from_brace(brace)):
            with pytest.raises(ValueError, match="sample_budget must be at least 1 .*got 0"):
                check_solution(sol, sample_budget=0)
    for brace in (diagonal_brace_m1(3), unvalidated[0]):
        for sol in (brace, solution_from_brace(brace)):
            assert check_solution(sol, sample_budget=0).exhaustive


# -- the braid relation is checked in this process --


def test_no_worker_is_left_after_check_solution(monkeypatch, order625_solutions):
    # a pass by the law, a sampled failure, a law-breaking map scanned above the
    # limit, and an order-81 pass: none starts a child process
    real, forks = os.fork, []

    def counting():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    m1 = order625_solutions[0]
    small = _law_breaking_maps()[0]
    m = small.n
    law_breaking = _cycle_set_map(
        [small.sigma_row(x) + tuple(range(m, m + 90)) for x in range(m)] + [tuple(range(m + 90))] * 90
    )
    for sol, budget in ((m1, 100_000), (_swapped(m1, "u", 0), 100_000), (law_breaking, 1000), (twist_solution(81), 1)):
        check_solution(sol, sample_budget=budget)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert forks == []


def test_a_failed_fork_checks_everything_here(monkeypatch, order625_solutions):
    # a tampered order-625 map is sampled here, to its first failing triple,
    # even where no process can be started
    def no_fork():
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    sol = _swapped(order625_solutions[0], "u", 8)
    report = _assert_braid_matches(sol, 100_000)
    assert not report.braid and report.triples_checked == 88016


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


def _ref_involutive(sol: YBESolution) -> bool:
    return all(sol.apply(*sol.apply(x, y)) == (x, y) for x in range(sol.n) for y in range(sol.n))


def test_involutive_matches_the_pairwise_definition(enumerated_braces):
    sols = [solution_from_brace(b) for b in enumerated_braces[::3]]
    sols += [twist_solution(n) for n in (1, 2, 5)] + [identity_pair_map(n) for n in (1, 2, 5)]
    tampered = [_swapped(sol, which, seed) for sol in sols if sol.n > 2 for which in "uv" for seed in range(2)]
    verdicts = [ybe._involutive(sol) for sol in sols + tampered]
    assert verdicts == [_ref_involutive(sol) for sol in sols + tampered]
    assert all(verdicts[: len(sols)]) and not all(verdicts[len(sols) :])
