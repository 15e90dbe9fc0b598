"""Tests for the built-in families and ring braces."""

from __future__ import annotations

import pytest

from bracelab.brace import trivial_brace
from bracelab.constructions import (
    NotAssociative,
    NotDistributive,
    NotNilpotent,
    RING_PRESETS,
    diagonal_brace_m1,
    diagonal_brace_m2,
    ring_brace,
)
from bracelab.nilpotency import series


def test_trivial_family():
    T = trivial_brace([4, 4])
    assert series(T, "left").term(2) == {0}
    assert series(trivial_brace([3, 27]), "right").nilpotency_class == 2
    assert T.circle.center == frozenset(range(16))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_diagonal_m1_nonabelian(p):
    A = diagonal_brace_m1(p)
    assert not A.is_circ_abelian()
    # lambda depends on the second coordinate mod p
    lam = A.perms[A.lambda_ids[A.rank((0, p))]]
    assert (lam == tuple(range(A.order))) == (pow(1 + p, p, p * p) == 1)


def test_diagonal_m1_p2_star_value():
    A = diagonal_brace_m1(2)
    assert A.star((0, 1), (1, 0)) == (2, 0)
    assert pow(3, 2, 4) == 1  # period-2 dependence at p = 2


def test_diagonal_m1_p5_star_span():
    A = diagonal_brace_m1(5)
    span = series(A, "left").term(2)
    assert len(span) == 5
    assert {A.element(r) for r in span} == {(5 * k % 25, 0) for k in range(5)}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_diagonal_m2_nonabelian(p):
    B = diagonal_brace_m2(p)
    assert not B.is_circ_abelian()


def test_diagonal_m2_p3_values():
    B = diagonal_brace_m2(3)
    assert B.star((1, 0), (0, 1)) == (0, 9)
    assert B.circ_order((0, 1)) == 27


def test_ring_brace_z4_doubling():
    moduli, products = RING_PRESETS["z4-doubling"]
    R = ring_brace(moduli, products)
    assert R.circ((1,), (1,)) == (0,)
    assert R.circ_order((1,)) == 2
    assert R.group.element_order((1,)) == 4  # additive and circle orders differ at p = 2


def test_ring_brace_c2c2_square():
    moduli, products = RING_PRESETS["c2c2-square"]
    R = ring_brace(moduli, products)
    assert R.is_circ_abelian()
    assert R.star((1, 0), (1, 0)) == (0, 1)


def test_ring_star_is_associative_exactly():
    for preset in RING_PRESETS:
        moduli, products = RING_PRESETS[preset]
        R = ring_brace(moduli, products)
        n = R.order
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert R.star_r(a, R.star_r(b, c)) == R.star_r(R.star_r(a, b), c)


def test_diagonal_m2_p3_star_associativity_has_no_violation():
    """Star associativity is not a brace axiom, but on this family every
    triple product collapses to zero on both sides; record the absence."""
    B = diagonal_brace_m2(3)
    n = B.order
    witness = None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if B.star_r(a, B.star_r(b, c)) != B.star_r(B.star_r(a, b), c):
                    witness = (a, b, c)
                    break
    assert witness is None


def test_zero_product_ring_is_trivial():
    R = ring_brace([4, 4], {})
    assert R == trivial_brace([4, 4])


def test_ring_rejects_non_associative():
    with pytest.raises(NotAssociative):
        ring_brace([2, 2], {(0, 0): (0, 1), (1, 0): (1, 0)})


def test_ring_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        ring_brace([3], {(0, 0): (1,)})


def test_ring_brace_at_order_625_is_the_exponent5_table(exponent5_brace):
    assert ring_brace((5, 5, 5, 5), {(0, 1): (0, 0, 1, 0)}) == exponent5_brace


def test_ring_error_messages():
    with pytest.raises(NotAssociative, match=r"^\(e.e\).e != e.\(e.e\) at "):
        ring_brace([2, 2], {(0, 0): (0, 1), (1, 0): (1, 0)})
    with pytest.raises(NotNilpotent, match="^power ideal chain stabilised above zero$"):
        ring_brace([3], {(0, 0): (1,)})
    with pytest.raises(NotNilpotent, match="^power ideal chain stabilised above zero$"):
        ring_brace([2, 2], {(0, 0): (1, 0)})  # e1 . e1 = e1 spans a constant chain
    with pytest.raises(NotNilpotent, match="^power ideal chain stabilised above zero$"):
        ring_brace([2, 2], {(1, 1): (0, 1)})  # e2 . e2 = e2, seen only through the second generator


def test_ring_rejects_ill_defined_constants():
    with pytest.raises(NotDistributive):
        ring_brace([2, 4], {(0, 0): (0, 1)})
