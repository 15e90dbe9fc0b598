"""Tests for the order-p^4 group models and circle-group classification."""

from __future__ import annotations

import collections
import gc
import itertools
import weakref

import pytest

import bracelab
from bracelab import nilpotency, pgroups
from bracelab.abelian import normal_form_images
from bracelab.brace import trivial_brace
from bracelab.constructions import diagonal_brace_m1, diagonal_brace_m2, ring_brace
from bracelab.pgroups import (
    GroupModel,
    GroupModelError,
    NONABELIAN_TAGS,
    NoMatch,
    RelationFailure,
    TableGroup,
    UnsupportedPrime,
    _iso_from_model,
    build_model,
    classify_multiplicative_group,
    fingerprint,
    model_fingerprint,
    presentation,
    presented,
    verify_presentation_relations,
)


# -- hand-written collection formulas, an independent reference for the tables ------


def reference_model(tag: str, p: int, alpha: int | None):
    """(bounds, mul) of the tag's group on exponent tuples, one formula per tag."""
    p2, p3 = p * p, p ** 3
    shift = pow(1 + p, -1, p2)
    if tag == "VII":
        return (p2, p, p), lambda x, y: (
            (x[0] + y[0] - p * x[2] * y[1]) % p2, (x[1] + y[1]) % p, (x[2] + y[2]) % p
        )
    if tag == "VIII":
        return (p2, p2), lambda x, y: ((x[0] + y[0] * pow(shift, x[1], p2)) % p2, (x[1] + y[1]) % p2)
    if tag == "IX":
        return (p2, p, p), lambda x, y: (
            (x[0] + y[0] * pow(shift, x[2], p2)) % p2, (x[1] + y[1]) % p, (x[2] + y[2]) % p
        )
    if tag == "X":
        return (p2, p, p), lambda x, y: (
            (x[0] + y[0]) % p2, (x[1] + y[1] - y[0] * x[2]) % p, (x[2] + y[2]) % p
        )
    if tag == "G4":
        g4_shift = pow(1 + p2, -1, p3)
        return (p3, p), lambda x, y: ((x[0] + y[0] * pow(g4_shift, x[1], p3)) % p3, (x[1] + y[1]) % p)

    # XI/XII/XIII: the modular group N = <P, Q> extended by R, with
    # R^-1 P R = PQ and R^-1 Q R = P^{alpha p} Q; psi(x) = R x R^-1
    def n_mul(x, y):
        return ((x[0] + y[0] * pow(shift, x[1], p2)) % p2, (x[1] + y[1]) % p)

    def n_pow(x, k):
        acc = (0, 0)
        for _ in range(k):
            acc = n_mul(acc, x)
        return acc

    phi = {
        (a, b): n_mul(n_pow((1, 1), a), n_pow(((alpha * p) % p2, 1), b)) for b in range(p) for a in range(p2)
    }
    psi = {v: k for k, v in phi.items()}
    psi_pows = [{x: x for x in phi}]
    for _ in range(p - 1):
        psi_pows.append({x: psi[psi_pows[-1][x]] for x in phi})

    def mul(x, y):
        return (*n_mul(x[:2], psi_pows[x[2]][y[:2]]), (x[2] + y[2]) % p)

    return (p2, p, p), mul


def reference_table(tag: str, p: int) -> list[int]:
    # XIII: the smallest non-residue, found by Euler's criterion a^((p-1)/2) = -1
    nonresidue = next((a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1), None)
    alpha = {"XI": 0, "XII": 1, "XIII": nonresidue}.get(tag)
    bounds, mul = reference_model(tag, p, alpha)
    elements = [tuple(reversed(e)) for e in itertools.product(*[range(b) for b in reversed(bounds)])]
    index = {e: i for i, e in enumerate(elements)}
    return [index[mul(a, b)] for a in elements for b in elements]


@pytest.mark.parametrize(
    "tag, p",
    [(tag, 3) for tag in NONABELIAN_TAGS]
    + [("G4", 2)]
    + [pytest.param(tag, 5, marks=pytest.mark.slow) for tag in NONABELIAN_TAGS],
)
def test_collected_tables_match_the_reference_formulas(tag, p):
    model = build_model(tag, p)
    assert model.table == reference_table(tag, p)


@pytest.mark.parametrize(
    "tag, p",
    [(tag, 3) for tag in NONABELIAN_TAGS]
    + [("G4", 2)]
    + [pytest.param(tag, 5, marks=pytest.mark.slow) for tag in NONABELIAN_TAGS],
)
def test_the_split_extension_product_is_the_proved_table(tag, p):
    # classification multiplies by the last split extension and builds no
    # table; Light's test vouches for that product through the table here
    model = pgroups._collect(tag, p)
    n = model.order
    product = [model.mul_r(a, b) for a in range(n) for b in range(n)]
    assert "table" not in vars(model)
    proved = build_model(tag, p)
    pgroups._check_group(proved)
    assert product == proved.table == model.table


@pytest.mark.parametrize("tag", NONABELIAN_TAGS)
def test_model_ranks_are_the_normal_forms_of_the_generators(tag):
    # rank r + |N| c is (r, c) = r . x^c, so extending the generators over the
    # normal forms gives every rank back
    model = build_model(tag, 3)
    gens = list(model.gens.values())
    assert normal_form_images(model.mul_r, model.bounds, gens) == list(range(model.order))


def _patched(monkeypatch, tag: str, drop: str, add=()):
    """presentation() of ``tag`` without the relation named ``drop``, plus ``add``."""
    original = pgroups.presentation

    def patched(t, p):
        rels = [r for r in original(t, p) if r[0] != drop]
        return rels + list(add) if t == tag else original(t, p)

    monkeypatch.setattr(pgroups, "presentation", patched)


def test_collection_needs_an_action_for_every_generator_pair(monkeypatch):
    _patched(monkeypatch, "VII", "PR = RP")
    with pytest.raises(GroupModelError, match=r"no relation gives R\^-1 P R"):
        pgroups._collect("VII", 3)


def test_collection_rejects_an_action_that_is_not_an_automorphism(monkeypatch):
    # Q -> QP is a bijection of C9 x C3 but sends Q^3 = 1 to P^3
    conj = (("R", -1), ("Q", 1), ("R", 1))
    _patched(monkeypatch, "VII", "R^-1 Q R = Q P^p", [("R^-1 Q R = Q P", conj, (("Q", 1), ("P", 1)))])
    with pytest.raises(RelationFailure, match="VII: R-action is not an automorphism of N"):
        pgroups._collect("VII", 3)


def test_collection_rejects_an_action_of_the_wrong_order(monkeypatch):
    # P -> P^2 is an automorphism of C27 of order 18, which does not divide 3
    conj = (("Q", -1), ("P", 1), ("Q", 1))
    _patched(monkeypatch, "G4", "Q^-1 P Q = P^{1+p^2}", [("Q^-1 P Q = P^2", conj, (("P", 2),))])
    with pytest.raises(RelationFailure, match="G4: Q-action does not have order dividing p"):
        pgroups._collect("G4", 3)


@pytest.mark.parametrize("tag", NONABELIAN_TAGS)
def test_models_build_and_validate_at_p3(tag):
    model = build_model(tag, 3)
    assert model.order == 81
    report = verify_presentation_relations(model)
    assert report.passed, report
    assert report.associativity_checked == 81 ** 3


def test_g4_conjugation_value_at_p3():
    m = build_model("G4", 3)
    P, Q = m.gens["P"], m.gens["Q"]
    assert m.mul_r(m.mul_r(m.inv[Q], P), Q) == m.pow_r(P, 10)


def test_viii_conjugation_value_at_p3():
    m = build_model("VIII", 3)
    P, Q = m.gens["P"], m.gens["Q"]
    assert m.mul_r(m.mul_r(m.inv[Q], P), Q) == m.pow_r(P, 4)


def test_xi_family_derived_identity_at_p3():
    for tag in ("XI", "XII", "XIII"):
        m = build_model(tag, 3)
        P, R = m.gens["P"], m.gens["R"]
        pp = m.pow_r(P, 3)
        assert m.mul_r(m.mul_r(m.inv[R], pp), R) == pp


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
    # classification builds only the models whose largest bound is the target's
    # exponent, and only the tags whose presentation exists at the prime
    for p in (3, 5):
        exps = {tag: fingerprint(build_model(tag, p)).exponent for tag in NONABELIAN_TAGS}
        assert exps["G4"] == p ** 3
        assert all(v == p * p for t, v in exps.items() if t != "G4")
        assert all(v == max(presented(t, p).bounds) for t, v in exps.items())
    assert fingerprint(build_model("G4", 2)).exponent == max(presented("G4", 2).bounds) == 8
    for tag in NONABELIAN_TAGS:
        if tag != "G4":
            with pytest.raises(UnsupportedPrime):
                presentation(tag, 2)


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


def assert_isomorphism(src, dst, gens):
    """The generator images from the search, extended over the source's
    normal forms, are a bijection, multiplicative on all pairs."""
    assert gens is not None and len(gens) == len(src.gens)
    img = normal_form_images(dst.mul_r, src.bounds, gens)
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
def test_viii_builds_at_p7_with_exact_associativity():
    model = build_model("VIII", 7)
    assert model.order == 7 ** 4
    rep = verify_presentation_relations(model)
    assert rep.passed
    assert rep.associativity_checked == 7 ** 12  # every triple, by the group proof


def test_classify_braces():
    assert classify_multiplicative_group(diagonal_brace_m2(3)).tag == "G4"
    assert classify_multiplicative_group(diagonal_brace_m1(3)).tag == "VIII"
    cls = classify_multiplicative_group(trivial_brace([3, 27]))
    assert cls.kind == "abelian" and cls.abelian_type == (3, 27)


def test_classification_raises_the_theorems_shape_error():
    assert pgroups.InputShapeMismatch is nilpotency.InputShapeMismatch is bracelab.InputShapeMismatch
    with pytest.raises(bracelab.InputShapeMismatch, match=r"^classification expects order p\^4, got 8$"):
        classify_multiplicative_group(trivial_brace([2, 4]))


def test_classify_at_p2_reports_unmatched_without_raising():
    cls = classify_multiplicative_group(diagonal_brace_m1(2))
    assert cls.kind == "unmatched"
    assert cls.fingerprint.order == 16
    cls2 = classify_multiplicative_group(diagonal_brace_m2(2))
    assert cls2.kind == "tag" and cls2.tag == "G4"


def test_classify_builds_no_model_of_another_exponent(exponent5_brace):
    model_fingerprint.cache_clear()
    with pytest.raises(NoMatch):
        classify_multiplicative_group(exponent5_brace)
    assert model_fingerprint.cache_info().currsize == 0


def _patch_h3xc(monkeypatch):
    """Add the tag H3xC to ``presentation`` (not to NONABELIAN_TAGS): P, Q, R
    and S of order p, R^-1 Q R = Q P, and every other pair commuting, which
    is p^{1+2}_+ x C_p, of exponent p."""
    original = pgroups.presentation

    def patched(tag, p):
        if tag != "H3xC":
            return original(tag, p)
        gens = "PQRS"
        return [
            *[(f"{g}^p = 1", ((g, p),), ()) for g in gens],
            *[
                (f"{a}{b} = {b}{a}", ((a, 1), (b, 1)), ((b, 1), (a, 1)))
                for a, b in itertools.combinations(gens, 2)
                if (a, b) != ("Q", "R")
            ],
            ("R^-1 Q R = Q P", (("R", -1), ("Q", 1), ("R", 1)), (("Q", 1), ("P", 1))),
        ]

    monkeypatch.setattr(pgroups, "presentation", patched)


@pytest.mark.parametrize("p", [3, pytest.param(5, marks=pytest.mark.slow)])
def test_four_generator_presentation_matches_the_exponent_p_ring_brace(monkeypatch, p):
    _patch_h3xc(monkeypatch)
    assert presented("H3xC", p).gen_names == ("P", "Q", "R", "S")
    model = build_model("H3xC", p)
    assert model.bounds == (p,) * 4 and sorted(model.gens) == ["P", "Q", "R", "S"]
    circle = ring_brace((p,) * 4, {(0, 1): (0, 0, 1, 0)}).circle
    assert fingerprint(model) == fingerprint(circle)
    assert fingerprint(model).exponent == p
    assert_isomorphism(model, circle, _iso_from_model(presented("H3xC", p), circle))


# -- classification from cached fingerprints, against the model path ------------------


@pytest.mark.parametrize(
    "tag, p",
    [(tag, p) for p in (3, 5) for tag in NONABELIAN_TAGS] + [("G4", 2)],
)
def test_generator_orders_are_the_bounds(tag, p):
    # _iso_from_model reads a generator's order from its bound, not the table
    model = build_model(tag, p)
    assert [model.element_orders[r] for r in model.gens.values()] == list(model.bounds)


def _reference_classification(brace, models: dict) -> tuple:
    """(kind, tag, matched_tags, fingerprint, witness) from built models:
    every tag of the prime, compared by fingerprint and searched with the
    full GroupModel."""
    p = round(brace.order ** 0.25)
    fp = fingerprint(brace.circle)
    if fp.abelian:
        return "abelian", None, (), fp, None
    matched, witness = [], None
    for tag in NONABELIAN_TAGS if p != 2 else ("G4",):
        if (tag, p) not in models:
            models[tag, p] = build_model(tag, p)
        model = models[tag, p]
        if fingerprint(model) != fp:
            continue
        found = _iso_from_model(model, brace.circle)
        if found is not None:
            matched.append(tag)
            witness = witness or found
    return ("tag" if matched else "unmatched"), (matched[0] if matched else None), tuple(matched), fp, witness


def test_profile_classification_matches_the_model_path(builtin_corpus, enumerations):
    braces = [b for b in builtin_corpus if round(b.order ** 0.25) ** 4 == b.order]
    braces += enumerations[(4, 4)].representatives[::4]
    assert sum(b.order == 625 for b in braces) == 3 and sum(b.order == 16 for b in braces) > 20
    models: dict = {}
    kinds = set()
    for brace in braces:
        cls = classify_multiplicative_group(brace)
        got = (cls.kind, cls.tag, cls.matched_tags, cls.fingerprint, cls.witness)
        assert got == _reference_classification(brace, models), brace.name
        kinds.add(cls.kind)
    assert kinds == {"abelian", "tag", "unmatched"}


def test_classification_witness_is_an_isomorphism(builtin_corpus):
    """On every built-in brace whose circle group gets a tag, the witness,
    extended over the tag's bounds, is a bijection onto the circle group that
    sends x . g to img(x) o img(g) for every x and every model generator g."""
    tagged = []
    for brace in builtin_corpus:
        p = round(brace.order ** 0.25)
        if p ** 4 != brace.order:
            continue
        cls = classify_multiplicative_group(brace)
        if cls.kind != "tag":
            continue
        tagged.append(brace.name)
        model, circle = build_model(cls.tag, p), brace.circle
        img = normal_form_images(circle.mul_r, model.bounds, cls.witness)
        assert sorted(img) == list(range(brace.order)), brace.name
        for g in model.gens.values():
            assert all(img[model.mul_r(x, g)] == circle.mul_r(img[x], img[g]) for x in range(model.order)), brace.name
    assert tagged == [f"diagonal-m{m} p={p}" for m, p in ((1, 3), (1, 5), (2, 2), (2, 3), (2, 5))]


def test_classification_keeps_no_model_alive(monkeypatch):
    built = []
    collect = pgroups._collect

    def tracked(*args):
        model = collect(*args)
        built.append(weakref.ref(model))
        return model

    def no_table(*args):
        raise AssertionError("classification built an n^2 model table")

    monkeypatch.setattr(pgroups, "_collect", tracked)
    monkeypatch.setattr(pgroups, "_check_group", no_table)
    monkeypatch.setattr(GroupModel, "table", property(no_table))
    model_fingerprint.cache_clear()
    before = {id(o) for o in gc.get_objects() if isinstance(o, GroupModel)}
    assert classify_multiplicative_group(diagonal_brace_m1(5)).tag == "VIII"
    assert classify_multiplicative_group(diagonal_brace_m2(5)).tag == "G4"
    gc.collect()
    assert len(built) == 8  # the seven exponent-p^2 tags, then G4
    assert all(ref() is None for ref in built)
    assert [o for o in gc.get_objects() if isinstance(o, GroupModel) and id(o) not in before] == []


def test_isomorphism_search_leaves_no_cycle_holding_the_circle_group():
    """With the cyclic collector off, a brace's circle group (and the tables it
    holds) dies with the brace after classification and the G4 pair search."""
    from bracelab.nilpotency import find_g4_pair

    enabled = gc.isenabled()
    gc.disable()
    try:
        for build, search in ((diagonal_brace_m1, classify_multiplicative_group), (diagonal_brace_m2, find_g4_pair)):
            brace = build(3)
            circle = weakref.ref(brace.circle)
            assert search(brace) is not None
            del brace
            assert circle() is None, build.__name__
    finally:
        if enabled:
            gc.enable()


def test_each_model_is_built_once_per_process(monkeypatch, enumerations):
    builds = collections.Counter()
    collect = pgroups._collect

    def counted(tag, p):
        builds[tag, p] += 1
        return collect(tag, p)

    monkeypatch.setattr(pgroups, "_collect", counted)
    model_fingerprint.cache_clear()
    order16 = [diagonal_brace_m1(2), diagonal_brace_m2(2), *enumerations[(4, 4)].representatives[::8]]
    for brace in [*order16, diagonal_brace_m1(3), diagonal_brace_m2(3)] * 2:
        classify_multiplicative_group(brace)
    assert builds[("G4", 2)] == 1
    assert ("VIII", 3) in builds and ("G4", 3) in builds
    assert set(builds.values()) == {1}
