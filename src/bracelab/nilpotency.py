"""Nilpotency series, central annihilators, and the identity/theorem suites.

Series conventions (term(1) = A, 1-based indexing):

    left:   A^{i+1}   = A * A^i
    right:  A^{(i+1)} = A^{(i)} * A
    strong: A^{[i+1]} = sum_{j=1..i} A^{[j]} * A^{[i+1-j]}

The identity suite evaluates the power-star expansion

    P * P^n = C1(n) P*(P*(P*P)) + C2(n) P*(P*P) + n (P*P)

with the binomial coefficients C1(n) = C(n, 3) and C2(n) = C(n, 2) as exact
integers (so no modular inverses are ever needed and the checks run at p = 2
and 3).  Stages with preconditions are skipped with an explicit reason when
those preconditions fail.

Every stage, and the theorem1 conclusion, is a stream of checks read by one
scan (``_scan``): ``checks`` counts the checks made, up to and including the
first failing one, and every failed stage carries that check's witness.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence

from .abelian import (
    Element,
    StructuralAnomaly,
    group_closure,
    multiples_subgroup,
    normal_form_images,
    prime_power,
)
from .brace import Brace, BraceError, quotient_brace
from .pgroups import InputShapeMismatch, _iso_from_model, presented

SeriesKind = Literal["left", "right", "strong"]


class ConsistencyFailure(BraceError):
    """The certificate recursion and the direct series disagree."""


class PreconditionMismatch(BraceError):
    """An operation was invoked outside its stated preconditions."""


# -- series ---------------------------------------------------------------------


class SeriesResult(NamedTuple):
    kind: SeriesKind
    chain: tuple[frozenset[int], ...]
    nilpotency_class: int | None  # smallest i with term(i) = {0}, 1-based

    @property
    def reaches_zero(self) -> bool:
        return self.nilpotency_class is not None

    def term(self, i: int) -> frozenset[int]:
        """term(i) with the convention that the chain is constant past its end."""
        if i < 1:
            raise IndexError("series terms are 1-based")
        return self.chain[min(i, len(self.chain)) - 1]


def series(brace: Brace, kind: SeriesKind) -> SeriesResult:
    """Iterate the defining recursion until the term stabilizes (memoised).

    Left and right recursions are memoryless, so a repeated term is final.
    The strong recursion depends on the whole prefix; a nonzero plateau is
    only accepted as final when the left or right series already fails to
    reach zero (each is dominated by the strong series, so the strong terms
    can never drop below their stable values).  Otherwise iteration continues
    to a hard horizon, and exhausting it raises StructuralAnomaly.
    """
    cached = brace.cache.get(("series", kind))
    if cached is not None:
        return cached
    full = frozenset(range(brace.order))
    chain: list[frozenset[int]] = [full]
    if kind in ("left", "right"):
        while True:
            prev = chain[-1]
            nxt = brace.subset_star(full, prev) if kind == "left" else brace.subset_star(prev, full)
            if nxt == prev:
                break
            chain.append(nxt)
    elif kind == "strong":
        horizon = brace.order + 2
        while len(chain[-1]) > 1:
            i = len(chain)
            seeds: set[int] = set()
            for j in range(1, i + 1):
                seeds.update(brace.subset_star(chain[j - 1], chain[i - j]))
            nxt = group_closure(brace.group.add_rank, seeds)
            if nxt == chain[-1]:
                left_zero = series(brace, "left").reaches_zero
                right_zero = series(brace, "right").reaches_zero
                if not (left_zero and right_zero):
                    break
            chain.append(nxt)
            if len(chain) > horizon:
                raise StructuralAnomaly(
                    "strong series failed to reach zero despite left and right nilpotency"
                )
    else:
        raise ValueError(f"unknown series kind {kind!r}")
    cls = next((i + 1 for i, t in enumerate(chain) if len(t) == 1), None)
    result = SeriesResult(kind, tuple(chain), cls)
    brace.cache[("series", kind)] = result
    return result


def left_class_at_most(brace: Brace, bound: int) -> bool:
    """True when the left series reaches {0} by term(bound)."""
    res = series(brace, "left")
    return res.nilpotency_class is not None and res.nilpotency_class <= bound


# -- central sets ------------------------------------------------------------------


def socle(brace: Brace) -> frozenset[int]:
    """Ranks of elements a with a * b = 0 for every b: a * b = lambda_a(b) - b, so
    lambda_a = id = lambda_0; a brace's lambdas are distinct (``Brace``), so id 0."""
    return frozenset(a for a, i in enumerate(brace.lambda_ids) if i == 0)


def right_annihilated(brace: Brace) -> frozenset[int]:
    """Ranks of c with A * c = 0: a * c = lambda_a(c) - c, so every lambda in use fixes c."""
    cached = brace.cache.get("right_annihilated")
    if cached is None:
        cached = frozenset(c for c in range(brace.order) if all(p[c] == c for p in brace.perms))
        brace.cache["right_annihilated"] = cached
    return cached


# -- certificates -------------------------------------------------------------------


class Certificate(NamedTuple):
    """A nonzero central c with A * c = 0, plus the ideal it generates (the
    frozenset of its ranks).

    c * A = 0 and the ideal being two-sided null are checked; a failure
    raises StructuralAnomaly, so a certificate carries no flags.
    """

    element: Element
    ideal_ranks: frozenset[int]
    quotient_order: int


def annihilator_certificate(brace: Brace) -> Certificate | None:
    """Search Z(A) with A * c = 0 for the smallest-rank nonzero witness;
    Z(A), the c with c * a = a * c for every a, is the center of the circle
    group, since c o a = c * a + c + a.

    When a candidate is found, c * A = 0 must also hold, i.e. c lies in the
    socle; a failure there would contradict the central-annihilator lemma and
    raises StructuralAnomaly instead of being silently accepted.  The ideal
    c generates is two-sided null iff it lies in the socle (x * A = 0) and
    in the right-annihilated set (A * x = 0).
    """
    annihilated = right_annihilated(brace)
    candidates = sorted(brace.circle.center & annihilated - {0})
    if not candidates:
        return None
    c = candidates[0]
    soc = socle(brace)
    if c not in soc:
        raise StructuralAnomaly(
            f"central element {brace.element(c)} has A*c=0 but c*A != 0"
        )
    ideal = brace.ideal_generated(brace.element(c))
    if not ideal <= soc & annihilated:
        raise StructuralAnomaly("ideal generated by certificate is not two-sided null")
    return Certificate(
        element=brace.element(c),
        ideal_ranks=ideal,
        quotient_order=brace.order // len(ideal),
    )


class CertifyStep(NamedTuple):
    order: int
    certificate: Element | None
    ideal_order: int


class CertifyResult(NamedTuple):
    right_nilpotent: bool
    transcript: tuple[CertifyStep, ...]


def certify_right_nilpotent(brace: Brace) -> CertifyResult:
    """Certificate-then-quotient recursion; must agree with the direct series.

    Requires prime-power order.  Disagreement with the right series is a hard
    ConsistencyFailure, never a silent result.
    """
    n = brace.order
    if n > 1 and prime_power(n) is None:
        raise PreconditionMismatch(f"order {n} is not a prime power")

    transcript: list[CertifyStep] = []
    current = brace
    verdict = True
    while current.order > 1:
        cert = annihilator_certificate(current)
        if cert is None:
            verdict = False
            transcript.append(CertifyStep(current.order, None, 0))
            break
        transcript.append(CertifyStep(current.order, cert.element, len(cert.ideal_ranks)))
        current, _ = quotient_brace(current, cert.ideal_ranks)

    direct = series(brace, "right").reaches_zero
    if verdict != direct:
        raise ConsistencyFailure(
            f"certificate path says right_nilpotent={verdict}, right series says {direct}"
        )
    return CertifyResult(verdict, tuple(transcript))


# -- stage machinery -----------------------------------------------------------------


class StageResult(NamedTuple):
    name: str
    status: Literal["passed", "failed", "skipped"]
    checks: int = 0
    reason: str = ""
    witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.status != "failed"


class SuiteReport(NamedTuple):
    stages: tuple[StageResult, ...]

    @property
    def passed(self) -> bool:
        return all(s.ok for s in self.stages)

    def stage(self, name: str) -> StageResult:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)


def _scan(name: str, failures: Iterable[tuple | None]) -> StageResult:
    """The stage over a stream of checks: one entry per check, in order, None
    when it holds and its witness when it fails.  The scan stops at the first
    failure, and ``checks`` counts it."""
    checks = 0
    for witness in failures:
        checks += 1
        if witness is not None:
            return StageResult(name, "failed", checks, witness=witness)
    return StageResult(name, "passed", checks)


_PPN_SKIP = "left series does not reach 0 by term 5"


def _ppn_failures(brace: Brace, P: int) -> Iterator[tuple | None]:
    """P*P^n = c1(n) P*(P*(P*P)) + c2(n) P*(P*P) + n P*P for n = 0..2|P|,
    one check per n with witness (n,).

    The right side is summed by finite differences: from n to n + 1 it grows
    by C(n, 2) P*(P*(P*P)) + n P*(P*P) + P*P, and that step grows by
    n P*(P*(P*P)) + P*(P*P).
    """
    add = brace.group.add_rank
    pp = brace.star_r(P, P)
    ppp = brace.star_r(P, pp)
    pppp = brace.star_r(P, ppp)
    pk, rhs, step, step2 = 0, 0, pp, ppp  # P^n, the right side at n and its two differences
    for nn in range(2 * brace.circle.element_orders[P] + 1):
        yield None if brace.star_r(P, pk) == rhs else (nn,)
        pk = brace.circ_r(pk, P)
        rhs, step, step2 = add(rhs, step), add(step, step2), add(step2, pppp)


def p4_shape(brace: Brace) -> tuple[int, int] | None:
    """(p, m) when |A| = p^4 with additive type C_p x C_p^3 (m=2) or
    C_p^2 x C_p^2 (m=1); None otherwise."""
    pk = prime_power(brace.order)
    if pk is None or pk[1] != 4:
        return None
    p = pk[0]
    inv = tuple(sorted(brace.moduli))
    if inv == (p, p ** 3):
        return p, 2
    if inv == (p * p, p * p):
        return p, 1
    return None


class TheoremContext(NamedTuple):
    """Generators feeding the staged identities: P plus the Q_i list."""

    p: int
    m: int
    P: Element
    Qs: tuple[Element, ...]


def _coverage(brace: Brace, P: int, q_ranks: Sequence[int]) -> tuple[bool, dict[str, bool]]:
    """Hypothesis 4: every element is P^k o (product of Q_j powers).

    Checks each ordering of the Q_j separately; the hypothesis itself is read
    existentially (some ordering reaches the element), and the per-ordering
    outcomes are reported so the universal reading stays visible.
    """
    n = brace.order
    orders = brace.circle.element_orders
    per_ordering: dict[str, bool] = {}
    union: set[int] = set()
    for perm in itertools.permutations(range(len(q_ranks))):
        gens = [P, *(q_ranks[i] for i in perm)]
        reached = set(normal_form_images(brace.circ_r, [orders[x] for x in gens], gens))
        per_ordering[",".join(str(i) for i in perm)] = len(reached) == n
        union |= reached
    return len(union) == n, per_ordering


def theorem_stage_results(brace: Brace, ctx: TheoremContext) -> list[StageResult]:
    """The staged propositions prop1 to final_lemma for a generator context
    (run when hypotheses hold).  ``theorem1_check`` puts the ppn stage for
    the context's P before them; the identity suite's ppn stage covers
    every P.

    The signed stages run over n in [-ord(P), ord(P)].
    """
    g = brace.group
    circle = brace.circle
    P = brace.rank(ctx.P)
    pm = ctx.p ** ctx.m
    ordP = circle.element_orders[P]
    window = range(-ordP, ordP + 1)
    srank = brace.star_r
    scal = g.scalar_rank
    unrank = g.unrank

    def sides(lhs: int, rhs: int) -> tuple | None:
        return None if lhs == rhs else (unrank(lhs), unrank(rhs))

    pp = srank(P, P)  # P*P
    ppp = srank(P, pp)  # P*(P*P)
    p_pm = circle.pow_r(P, pm)

    # prop1: p^m (P*P) in A^3 = A*(A*A), and the reduced expansion
    # P*P^{p^m} = C(p^m, 2) P*(P*P) + p^m P*P
    pm_pp = scal(pm, pp)
    in_a3 = pm_pp in series(brace, "left").term(3)
    reduced = sides(srank(P, p_pm), g.add_rank(scal(comb(pm, 2), ppp), pm_pp))

    def prop2() -> Iterator[tuple | None]:
        # P^{p^m} = p^m P, and p^m P*(P*P^n) = n p^m P*(P*P) = 0 on the window;
        # the window is scanned only when P^{p^m} = p^m P, else that is the one check
        if p_pm != scal(pm, P):
            yield ("P^{p^m} != p^m P",)
            return
        for nn in window:
            t1 = scal(pm, srank(P, srank(P, circle.pow_r(P, nn))))
            t2 = scal(nn * pm, ppp)
            yield None if t1 == t2 == 0 else (nn, unrank(t1), unrank(t2))

    # np2pp: p^m (P*P^n) = n p^m (P*P)
    np2pp = (None if scal(pm, srank(P, circle.pow_r(P, nn))) == scal(nn * pm, pp) else (nn,) for nn in window)
    # final_lemma: P * (p^m a) = 0 for every a
    final_lemma = (None if srank(P, scal(pm, a)) == 0 else (unrank(a),) for a in range(brace.order))
    return [
        _scan("prop1", [None if in_a3 else ("p^m(P*P) in A^3", unrank(pm_pp)), reduced]),
        # cor1: p^m P*(P*P) = P*(P*P^{p^m})
        _scan("cor1", [sides(scal(pm, ppp), srank(P, srank(P, p_pm)))]),
        _scan("prop2", prop2()),
        _scan("np2pp", np2pp),
        # negpow: p^m P^{-1} = -(p^m P)
        _scan("negpow", [sides(scal(pm, circle.inv[P]), g.neg_rank[scal(pm, P)])]),
        _scan("final_lemma", final_lemma),
    ]


# -- theorem pipeline ------------------------------------------------------------------


class HypothesisResult(NamedTuple):
    index: int
    description: str
    passed: bool
    detail: tuple = ()


class Theorem1Report(NamedTuple):
    p: int
    m: int
    P: Element
    Qs: tuple[Element, ...]
    hypotheses: tuple[HypothesisResult, ...]
    conclusion_passed: bool
    conclusion_window: tuple[int, int]
    conclusion_witness: tuple | None
    stages: tuple[StageResult, ...]
    coverage_by_ordering: tuple[tuple[str, bool], ...]

    @property
    def hypotheses_passed(self) -> bool:
        return all(h.passed for h in self.hypotheses)


def theorem1_check(brace: Brace, P: Element, Qs: Sequence[Element], m: int) -> Theorem1Report:
    """Verify the four generator hypotheses, the conclusion P*(p^m P^k) = 0 on
    a signed window of k, and (when all hypotheses hold) the staged identities.

    The conclusion is tested regardless of the hypothesis outcomes.
    """
    shape = p4_shape(brace)
    if shape is None:
        raise InputShapeMismatch(f"order {brace.order} with moduli {brace.moduli} is not a p^4 shape")
    p, m_expected = shape
    if m != m_expected:
        raise InputShapeMismatch(f"additive type {tuple(sorted(brace.moduli))} requires m={m_expected}, got m={m}")

    g = brace.group
    circle = brace.circle
    pr = brace.rank(P)
    q_ranks = [brace.rank(q) for q in Qs]
    pm = p ** m
    c = circle.pow_r(pr, pm)

    hyps: list[HypothesisResult] = []
    hyps.append(HypothesisResult(1, "P^{p^m} is central", c in circle.center))
    a2 = series(brace, "left").term(2)
    hyps.append(HypothesisResult(2, "P^{p^m} in A*A", c in a2, (g.unrank(c),)))
    orders = tuple(circle.element_orders[q] for q in q_ranks)
    hyps.append(
        HypothesisResult(3, "circle order of every Q_i is at most p^m", all(o <= pm for o in orders), orders)
    )
    covered, per_ordering = _coverage(brace, pr, q_ranks)
    hyps.append(HypothesisResult(4, "every element factors as P^k o (Q-word)", covered))

    ordP = circle.element_orders[pr]
    window = range(-ordP, ordP + 1)
    held = (brace.star_r(pr, g.scalar_rank(pm, circle.pow_r(pr, k))) == 0 for k in window)
    conclusion = _scan("conclusion", (None if ok else (k,) for k, ok in zip(window, held)))
    stages: tuple[StageResult, ...] = ()
    if all(h.passed for h in hyps):
        # ppn: P*P^n as the exact integer-coefficient combination
        if left_class_at_most(brace, 5):
            ppn = _scan("ppn", _ppn_failures(brace, pr))
        else:
            ppn = StageResult("ppn", "skipped", reason=_PPN_SKIP)
        stages = (ppn, *theorem_stage_results(brace, TheoremContext(p, m, P, tuple(Qs))))
    return Theorem1Report(
        p=p,
        m=m,
        P=P,
        Qs=tuple(Qs),
        hypotheses=tuple(hyps),
        conclusion_passed=conclusion.witness is None,
        conclusion_window=(-ordP, ordP),
        conclusion_witness=conclusion.witness,
        stages=stages,
        coverage_by_ordering=tuple(sorted(per_ordering.items())),
    )


def discover_theorem_context(brace: Brace) -> TheoremContext | None:
    """Find (P, Q_1..Q_i) satisfying all four hypotheses, if any exist.

    Tries every P, then Q-sets of one or two elements drawn from elements of
    circle order at most p^m, smallest ranks first.  Candidate families whose
    circle closure is a proper subgroup are pruned before the coverage check.
    """
    cached = brace.cache.get("theorem_context", False)
    if cached is not False:
        return cached
    result = None
    shape = p4_shape(brace)
    if shape is not None:
        p, m = shape
        pm = p ** m
        n = brace.order
        a2 = series(brace, "left").term(2)
        circle = brace.circle
        center = circle.center
        small = [q for q in range(1, n) if circle.element_orders[q] <= pm]
        for pr in range(1, n):
            c = circle.pow_r(pr, pm)
            if c not in a2 or c not in center:
                continue
            found = None
            for size in (1, 2):
                for qs in itertools.combinations(small, size):
                    if len(group_closure(circle.mul_r, [pr, *qs])) != n:
                        continue
                    covered, _ = _coverage(brace, pr, list(qs))
                    if covered:
                        found = TheoremContext(p, m, brace.element(pr), tuple(brace.element(q) for q in qs))
                        break
                if found:
                    break
            if found:
                result = found
                break
    brace.cache["theorem_context"] = result
    return result


# -- identity suite ---------------------------------------------------------------------


class SuiteScope(NamedTuple):
    """Stage selection for the identity suite."""

    stages: tuple[str, ...] = (
        "ppn",
        "commuting_powers",
        "theorem_stages",
        "rel_suite",
    )


def _stage_ppn(brace: Brace) -> StageResult:
    if not left_class_at_most(brace, 5):
        return StageResult("ppn", "skipped", reason=_PPN_SKIP)
    stream = ((P, w) for P in range(brace.order) for w in _ppn_failures(brace, P))
    return _scan("ppn", (None if w is None else (brace.element(P), *w) for P, w in stream))


def _stage_commuting_powers(brace: Brace) -> StageResult:
    """c^k * (c^l * a) = c^l * (c^k * a), deduplicated over cyclic circle subgroups.

    Both sides are additive in a (x * a = lambda_x(a) - a), so a runs over the
    additive generators e_j only.
    """
    star, element = brace.star_r, brace.element
    units = brace.group.unit_ranks
    orders = brace.circle.element_orders

    def failures() -> Iterator[tuple | None]:
        done: set[int] = set()  # the generators of the cyclic subgroups already checked
        for c in range(brace.order):
            if c in done:
                continue
            powers = normal_form_images(brace.circ_r, [orders[c]], [c])
            done.update(x for x in powers if orders[x] == orders[c])
            for x in powers:
                for y in powers:
                    if x < y:
                        for a in units:
                            ok = star(x, star(y, a)) == star(y, star(x, a))
                            yield None if ok else (element(c), element(x), element(y), element(a))

    return _scan("commuting_powers", failures())


def find_g4_pair(brace: Brace) -> tuple[int, int] | None:
    """A pair (P, Q) with circle orders p^3 and p, Q^{-1} o P o Q = P^{1+p^2},
    and {P^k o Q^c} covering the brace: the generator images of the first
    isomorphism from the G4 presentation onto the circle group (P by rank,
    then Q by rank).  Only a brace with additive group C_p x C_p^3
    (``p4_shape`` m = 2) is searched: None when the additive group is any
    other (a circle group of another additive type may still have such a
    pair), or when no such pair exists."""
    shape = p4_shape(brace)
    if shape is None or shape[1] != 2:
        return None
    return _iso_from_model(presented("G4", shape[0]), brace.circle)


def _stage_rel_suite(brace: Brace) -> StageResult:
    """Conjugation identities specific to braces whose circle group is the
    order-p^4 group with an element of order p^3."""
    pair = find_g4_pair(brace)
    if pair is None:
        return StageResult(
            "rel_suite", "skipped", reason="no (P, Q) pair with the order-p^3 conjugation structure"
        )
    p = p4_shape(brace)[0]
    P, Q = pair
    add, neg = brace.group.add_rank, brace.group.neg_rank
    star, spow = brace.star_r, brace.circle.pow_r

    def failures() -> Iterator[tuple | None]:
        for nn in range(p ** 3):
            pn = spow(P, nn)
            for cc in range(p):
                qc = spow(Q, cc)
                # rel1: P^n * Q^c = Q^c * P^{(1+c p^2) n} + P^{(1+c p^2) n} - P^n
                pk = spow(P, (1 + cc * p * p) * nn)
                rhs = add(add(star(qc, pk), pk), neg[pn])
                yield None if star(pn, qc) == rhs else ("rel1", nn, cc)
                # qp: Q^c * P^k = P^{k(1-c p^2)} * Q^c - P^k + P^{k(1-c p^2)}
                pk = spow(P, nn * (1 - cc * p * p))
                rhs = add(add(star(pk, qc), neg[pn]), pk)
                yield None if star(qc, pn) == rhs else ("qp", nn, cc)
        pp = spow(P, p)
        for cc in range(p):
            qc = spow(Q, cc)
            for d in range(brace.order):
                # rel2: P^p * (Q^c * D) = Q^c * (P^p * D)
                ok = star(pp, star(qc, d)) == star(qc, star(pp, d))
                yield None if ok else ("rel2", cc, brace.element(d))

    return _scan("rel_suite", failures())


def _theorem_stages(brace: Brace) -> list[StageResult]:
    ctx = discover_theorem_context(brace)
    if ctx is None:
        return [StageResult("theorem_stages", "skipped", reason="no generator family satisfies all four hypotheses")]
    return theorem_stage_results(brace, ctx)


def identity_suite(brace: Brace, scope: SuiteScope | None = None) -> SuiteReport:
    """Run the selected identity stages; preconditioned stages skip with reason.

    Every stage is exact at every order: ppn and commuting_powers run over
    all ranks, rel_suite over every power P^n (n < p^3) and every D.  Every
    stage name is checked before any stage runs.
    """
    scope = scope or SuiteScope()
    # built per call, so each name resolves to the module's current function
    runs = {
        "ppn": lambda: [_stage_ppn(brace)],
        "commuting_powers": lambda: [_stage_commuting_powers(brace)],
        "theorem_stages": lambda: _theorem_stages(brace),
        "rel_suite": lambda: [_stage_rel_suite(brace)],
    }
    unknown = [stage for stage in scope.stages if stage not in runs]
    if unknown:
        raise ValueError(f"unknown stage {unknown[0]!r}")
    return SuiteReport(tuple(result for stage in scope.stages for result in runs[stage]()))


# -- the pA bound -------------------------------------------------------------------


class PABoundReport(NamedTuple):
    p: int
    pa_order: int
    a_star_pa_order: int
    bound_holds: bool
    second_layer_zero: bool | None
    pa_central: bool

    @property
    def passed(self) -> bool:
        return self.bound_holds and (self.second_layer_zero is not False)


def pa_bound_check(brace: Brace) -> PABoundReport:
    """|A * pA| <= p on the square additive shape, with A*(A*pA) = 0 when nonzero.

    Requires (A,+) = C_{p^2} x C_{p^2} and left series reaching 0 by term 5.
    Also records whether pA is contained in Z(A), since one argument for the
    bound goes through that containment.
    """
    shape = p4_shape(brace)
    if shape is None or shape[1] != 1:
        raise PreconditionMismatch("additive group must be C_{p^2} x C_{p^2}")
    if not left_class_at_most(brace, 5):
        raise PreconditionMismatch("left series must reach 0 by term 5")
    p = shape[0]
    pa = multiples_subgroup(brace.group, p)
    full = range(brace.order)
    a_pa = brace.subset_star(full, pa)
    bound = len(a_pa) <= p
    second: bool | None = None
    if len(a_pa) > 1:
        second = len(brace.subset_star(full, a_pa)) == 1
    pa_central = pa <= brace.circle.center
    return PABoundReport(p, len(pa), len(a_pa), bound, second, pa_central)
