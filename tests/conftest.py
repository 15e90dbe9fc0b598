"""Shared fixtures: the built-in corpus and cached small enumerations."""

from __future__ import annotations

import pytest

from bracelab import ybe
from bracelab.abelian import AbelianGroup
from bracelab.brace import validate_brace
from bracelab.corpus import builtin_braces
from bracelab.enumeration import enumerate_braces

ENUM_MODULI = [(2,), (3,), (4,), (5,), (2, 2), (8,), (9,), (2, 4), (3, 3), (4, 4)]


@pytest.fixture(scope="session")
def builtin_corpus():
    return builtin_braces()


@pytest.fixture(scope="session")
def small_corpus(builtin_corpus):
    return [b for b in builtin_corpus if b.order <= 81]


@pytest.fixture(scope="session")
def exponent5_brace():
    """The table of ring_brace((5,5,5,5), {(0,1): (0,0,1,0)}), lambda_a(b) = b + a.b,
    written out directly; its circle group has exponent 5 and no model matches it."""
    group = AbelianGroup((5, 5, 5, 5))
    table = [[(1, 0, 0, 0), (0, 1, a[0], 0), (0, 0, 1, 0), (0, 0, 0, 1)] for a in group.elements]
    return validate_brace(group, table, name="exponent-5")


@pytest.fixture(scope="session")
def enumerations():
    return {moduli: enumerate_braces(moduli) for moduli in ENUM_MODULI}


@pytest.fixture(scope="session")
def enumerated_braces(enumerations):
    out = []
    for res in enumerations.values():
        out.extend(res.representatives)
    return out


@pytest.fixture
def refuse_brace_tables():
    """``refuse(monkeypatch, orders)`` makes ``ybe.solution_from_brace``, and
    any ``YBESolution`` on a number of points in ``orders``, raise.  A smaller
    table, such as a brace's retraction, is still built; the list returned
    records its size."""
    table = ybe.YBESolution

    def refuse(monkeypatch, orders):
        built = []

        def small_only(n, u, v):
            if n in orders:
                raise AssertionError(f"built a YBE solution table on {n} points")
            built.append(n)
            return table(n, u, v)

        def no_solution(brace):
            raise AssertionError(f"built the YBE solution of {brace.name}")

        monkeypatch.setattr(ybe, "solution_from_brace", no_solution)
        monkeypatch.setattr(ybe, "YBESolution", small_only)
        return built

    return refuse
