"""Tests for the order-p^4 group models and circle-group classification."""

from __future__ import annotations

import pytest

from bracelab.brace import trivial_brace
from bracelab.constructions import diagonal_brace_m1, diagonal_brace_m2
from bracelab.pgroups import (
    BadAlpha,
    NONABELIAN_TAGS,
    NoMatch,
    TableGroup,
    UnsupportedPrime,
    _iso_from_model,
    build_model,
    classify_multiplicative_group,
    fingerprint,
    smallest_nonresidue,
    verify_presentation_relations,
)


@pytest.mark.parametrize("tag", NONABELIAN_TAGS)
def test_models_build_and_validate_at_p3(tag):
    model = build_model(tag, 3)
    assert model.order == 81
    report = verify_presentation_relations(model)
    assert report.passed, report
    assert report.associativity_checked == 81 ** 3


def test_g4_conjugation_value_at_p3():
    m = build_model("G4", 3)
    P, Q = m.gen_rank("P"), m.gen_rank("Q")
    assert m.mul_r(m.mul_r(m.inv_r(Q), P), Q) == m.pow_r(P, 10)


def test_viii_conjugation_value_at_p3():
    m = build_model("VIII", 3)
    P, Q = m.gen_rank("P"), m.gen_rank("Q")
    assert m.mul_r(m.mul_r(m.inv_r(Q), P), Q) == m.pow_r(P, 4)


def test_xi_family_derived_identity_at_p3():
    for tag in ("XI", "XII", "XIII"):
        m = build_model(tag, 3)
        P, R = m.gen_rank("P"), m.gen_rank("R")
        pp = m.pow_r(P, 3)
        assert m.mul_r(m.mul_r(m.inv_r(R), pp), R) == pp


def test_alpha_validation():
    m = build_model("XIII", 5, 2)
    assert m.alpha == 2
    assert smallest_nonresidue(5) == 2
    with pytest.raises(BadAlpha):
        build_model("XIII", 5, 4)  # 4 = 2^2 is a residue
    with pytest.raises(BadAlpha):
        build_model("XII", 5, 2)  # 2 is a non-residue
    with pytest.raises(BadAlpha):
        build_model("XI", 5, 1)


def test_unsupported_prime():
    with pytest.raises(UnsupportedPrime):
        build_model("VIII", 2)
    with pytest.raises(UnsupportedPrime):
        build_model("VII", 4)
    # the order-16 modular group is a genuine group; G4 stays available at p = 2
    assert build_model("G4", 2).order == 16


def test_fingerprints():
    v8 = build_model("VIII", 3)
    fp = fingerprint(v8)
    assert fp.center_order == 9
    assert not fp.abelian
    g4 = build_model("G4", 3)
    fpg = fingerprint(g4)
    assert fpg.exponent == 27
    assert dict(fpg.order_histogram)[27] > 0


def test_g4_exponent_is_unique_among_tags():
    # classification builds only the models whose exponent is the target's
    for p in (3, 5):
        exps = {tag: fingerprint(build_model(tag, p)).exponent for tag in NONABELIAN_TAGS}
        assert exps["G4"] == p ** 3
        assert all(v == p * p for t, v in exps.items() if t != "G4")


def test_roundtrip_classification_p3_up_to_the_known_coincidence():
    """Every tag's own model matches itself; XI and XII coincide at p = 3."""
    for tag in NONABELIAN_TAGS:
        model = build_model(tag, 3)
        brace_like = TableGroup(model.order, model.mul_r)
        matches = []
        for cand_tag in NONABELIAN_TAGS:
            cand = build_model(cand_tag, 3)
            if fingerprint(cand) == fingerprint(brace_like) and _iso_from_model(cand, brace_like):
                matches.append(cand_tag)
        assert tag in matches
        if tag in ("XI", "XII"):
            assert matches == ["XI", "XII"]
        else:
            assert matches == [tag]


def assert_isomorphism(src, dst, mapping):
    """The map from generator search is a bijection, multiplicative on all pairs."""
    assert mapping is not None
    img = [0] * src.order
    for e, v in mapping.items():
        img[src.rank(e)] = v
    assert len(set(img)) == src.order
    for a in range(src.order):
        for b in range(src.order):
            assert img[src.mul_r(a, b)] == dst.mul_r(img[a], img[b])


@pytest.mark.parametrize("tag", NONABELIAN_TAGS)
def test_self_isomorphism_is_multiplicative_at_p3(tag):
    """The generic P, Q, R search on every 2- and 3-generator tag."""
    model = build_model(tag, 3)
    assert_isomorphism(model, model, _iso_from_model(model, TableGroup(model.order, model.mul_r)))


def test_xi_xii_coincide_at_p3_brute_force():
    """The two presentations define isomorphic groups at p = 3: the found
    bijection is verified multiplicative on every pair."""
    xi, xii = build_model("XI", 3), build_model("XII", 3)
    assert_isomorphism(xi, xii, _iso_from_model(xi, TableGroup(xii.order, xii.mul_r)))


@pytest.mark.slow
def test_pairwise_distinct_at_p5():
    """At p = 5 all eight tags are pairwise non-isomorphic (XI vs XII vs XIII
    share fingerprints, so the generator search must separate them)."""
    models = {tag: build_model(tag, 5) for tag in NONABELIAN_TAGS}
    tags = list(NONABELIAN_TAGS)
    for i, t1 in enumerate(tags):
        for t2 in tags[i + 1 :]:
            m1, m2 = models[t1], models[t2]
            if fingerprint(m1) != fingerprint(m2):
                continue
            assert _iso_from_model(m1, TableGroup(m2.order, m2.mul_r)) is None, (t1, t2)


@pytest.mark.slow
def test_roundtrip_classification_p5():
    for tag in NONABELIAN_TAGS:
        model = build_model(tag, 5)
        tg = TableGroup(model.order, model.mul_r)
        assert _iso_from_model(model, tg) is not None


@pytest.mark.slow
def test_viii_builds_at_p7_with_sampled_associativity():
    model = build_model("VIII", 7)
    assert model.order == 7 ** 4
    rep = verify_presentation_relations(model, sample=20_000)
    assert rep.passed
    assert rep.associativity_checked == 20_000  # sampled, not exhaustive, above order 81


def test_classify_braces():
    assert classify_multiplicative_group(diagonal_brace_m2(3)).tag == "G4"
    assert classify_multiplicative_group(diagonal_brace_m1(3)).tag == "VIII"
    cls = classify_multiplicative_group(trivial_brace([3, 27]))
    assert cls.kind == "abelian" and cls.abelian_type == (3, 27)


def test_classify_at_p2_reports_unmatched_without_raising():
    cls = classify_multiplicative_group(diagonal_brace_m1(2))
    assert cls.kind == "unmatched"
    assert cls.fingerprint.order == 16
    cls2 = classify_multiplicative_group(diagonal_brace_m2(2))
    assert cls2.kind == "tag" and cls2.tag == "G4"


def test_classify_builds_no_model_of_another_exponent(exponent5_brace):
    build_model.cache_clear()
    with pytest.raises(NoMatch):
        classify_multiplicative_group(exponent5_brace)
    assert build_model.cache_info().currsize == 0
