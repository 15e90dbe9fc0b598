"""Tests for solution tables, their checks, retraction, and level."""

from __future__ import annotations

import pytest

from bracelab.brace import trivial_brace
from bracelab.constructions import diagonal_brace_m1, diagonal_brace_m2
from bracelab.ybe import (
    NotWellDefined,
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
