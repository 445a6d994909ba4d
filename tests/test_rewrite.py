import hashlib
import heapq
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zhuind import catalog, rewrite
from zhuind.algebra import AlgebraHandle, Presentation, _suffixes_normal
from zhuind.freealg import EPSILON, MonomialOrder, NcPoly, _add_scaled
from zhuind.iolang import parse_poly_text
from zhuind.rewrite import (
    INFINITE,
    TRACE_BUDGET,
    AffixTables,
    Ambiguity,
    CompletionError,
    LhsIndex,
    RewriteRule,
    RewriteSystem,
    _find_redex,
    _rewrite,
    _scale_trace,
    complete,
    confluence_fuzz,
)

GENS = ("e", "f", "h")
HFE = MonomialOrder.from_ranking([2, 1, 0])


def P(text, gens=GENS):
    return parse_poly_text(text, gens)


def w(text):
    return tuple(GENS.index(c) for c in text)


def system_from_rules(pairs, order=HFE):
    rules = [RewriteRule(w(lhs), P(rhs)) for lhs, rhs in pairs]
    return RewriteSystem(order, rules, INFINITE)


def expand_trace(relations, trace):
    """The oracle for traces: evaluate one with free multiplication only (no rewriting)."""
    total = NcPoly.zero()
    for c, left, idx, right in trace:
        _add_scaled(total.terms, c, relations[idx].sandwich(left, right).terms)
    return total


# -- reduce ---------------------------------------------------------------


def test_reduce_square_to_zero(va1):
    assert va1.system.reduce(P("e e")).is_zero()


def test_reduce_identity_is_normal(va1):
    assert va1.system.reduce(NcPoly.one()) == NcPoly.one()


def test_reduce_cubed_cartan(va1):
    assert va1.system.reduce(P("h h h")) == P("h")


def test_reduce_idempotent_and_linear_on_catalog():
    rng = random.Random(3)
    for alg_id in catalog.ALGEBRA_IDS:
        h = catalog.algebra(alg_id)
        n = len(h.gen_names)
        for _ in range(50):
            terms = {tuple(rng.randrange(n) for _ in range(rng.randint(0, 5))): Fraction(rng.randint(-3, 3)) for _ in range(3)}
            p = NcPoly(terms)
            q = NcPoly({tuple(rng.randrange(n) for _ in range(2)): Fraction(2)})
            rp = h.system.reduce(p)
            assert h.system.reduce(rp) == rp
            assert h.system.reduce(p + q) == rp + h.system.reduce(q)
            assert h.system.reduce(p.scale(Fraction(-5, 3))) == rp.scale(Fraction(-5, 3))


def test_reduce_terminates_with_bounded_steps(va2):
    rng = random.Random(11)
    n = len(va2.gen_names)
    for _ in range(40):
        p = NcPoly({tuple(rng.randrange(n) for _ in range(rng.randint(0, 6))): Fraction(1)})
        _, steps = _rewrite(p, va2.system._rule_dict, va2.system.order)
        assert len(steps) < 2000


def test_reduce_soundness_cofactor_trace():
    rng = random.Random(5)
    for alg_id in catalog.ALGEBRA_IDS:
        h = catalog.algebra(alg_id)
        rels = h.system.relations
        n = len(h.gen_names)
        for _ in range(50):
            terms = {tuple(rng.randrange(n) for _ in range(rng.randint(0, 5))): Fraction(rng.randint(-4, 4)) for _ in range(2)}
            p = NcPoly(terms)
            red, trace = h.system.reduce_traced(p)
            assert expand_trace(rels, trace) == p - red


# -- ambiguities -----------------------------------------------------------


def test_find_ambiguities_overlap_witness():
    sys = system_from_rules([("eh", "- e"), ("hh", "h + 2 f e")])
    witnesses = {amb.witness for amb in sys.find_ambiguities()}
    assert w("ehh") in witnesses


def test_find_ambiguities_self_overlap():
    sys = system_from_rules([("ee", "0 e")])
    # rhs "0 e" is the zero polynomial
    assert sys.rules[0].rhs.is_zero()
    witnesses = {amb.witness for amb in sys.find_ambiguities()}
    assert witnesses == {w("eee")}


def test_find_ambiguities_disjoint_is_empty():
    sys = system_from_rules([("ee", "0 e"), ("hh", "0 e")])
    witnesses = {amb.witness for amb in sys.find_ambiguities()}
    assert w("eh") not in witnesses and w("he") not in witnesses
    assert all(len(x) == 3 for x in witnesses)  # only the two self-overlaps


def test_ambiguity_witness_length_bound(va2):
    for amb in va2.system.find_ambiguities():
        li = va2.system.rules[amb.i].lhs
        lj = va2.system.rules[amb.j].lhs
        assert len(amb.witness) <= len(li) + len(lj) - 1


# -- completion -------------------------------------------------------------


def test_complete_five_dimensional(va1):
    assert va1.system.confluent_to_degree == INFINITE
    words = {"".join(va1.gen_names[g] for g in word) for word in va1.basis}
    assert words == {"", "e", "f", "h", "hh"}


def test_complete_empty_relations_free_algebra():
    pres = Presentation("free2", ("a", "b"), MonomialOrder((1, 0)), ())
    h = AlgebraHandle.build(pres)
    assert len(h.system.rules) == 0
    assert h.dim_result.kind == "unbounded"


def test_complete_nineteen_dimensional(va2):
    assert va2.dim() == 19
    assert va2.system.confluent_to_degree == INFINITE


def test_complete_inconsistent_presentation_reports():
    gens = ("a",)
    pres = [P("a", gens), P("a - 1", gens)]
    with pytest.raises(CompletionError) as err:
        complete(pres, MonomialOrder((0,)))
    assert err.value.kind == "inconsistent"


def test_quotient_relations_alone_do_not_present_va1():
    # the five quoted relations without the enveloping-algebra commutators
    rels = [P("e h + e"), P("h h - h - 2 f e"), P("f h - f"), P("e e"), P("f f")]
    h = AlgebraHandle.build(Presentation("va1_relonly", GENS, HFE, tuple(rels)))
    assert h.dim_result.is_finite()
    assert h.dim_result.value > 5  # strictly larger algebra


def test_quotient_relations_alone_do_not_present_va2():
    full = catalog.presentation("a_va2")
    quotient_only = full.relations[28:]
    h = AlgebraHandle.build(
        Presentation("va2_relonly", full.gen_names, full.order, tuple(quotient_only)), max_degree=8
    )
    assert h.dim_result.kind == "unbounded"
    # the first cross product is not a consequence of the quotient relations
    p = parse_poly_text("x_a x_b + x_ab y", full.gen_names)
    assert not h.system.reduce(p).is_zero()


def test_interreduced_rules(va2):
    lhss = [r.lhs for r in va2.system.rules]
    for i, a in enumerate(lhss):
        for j, b in enumerate(lhss):
            if i != j:
                assert not any(a[p : p + len(b)] == b for p in range(len(a) - len(b) + 1))
    for rule in va2.system.rules:
        for word in rule.rhs.terms:
            assert _find_redex(word, va2.system.lhs_index) is None


def test_rule_traces_certify_membership(va1):
    rels = va1.system.relations
    for rule in va1.system.rules:
        assert expand_trace(rels, rule.trace) == rule.relation_poly()


# -- subword closure ---------------------------------------------------------


def test_normal_words_closed_under_subwords():
    from zhuind.algebra import normal_words

    for alg_id in catalog.ALGEBRA_IDS:
        h = catalog.algebra(alg_id)
        normals = set(normal_words(h, 6))
        for word in normals:
            for i in range(len(word)):
                for j in range(i, len(word) + 1):
                    assert word[i:j] in normals


# -- confluence fuzz -----------------------------------------------------------


def test_fuzz_certified_systems_pass():
    for alg_id in catalog.ALGEBRA_IDS:
        h = catalog.algebra(alg_id)
        assert confluence_fuzz(h.system, 100, len(h.gen_names), seed=2) is None


def test_fuzz_detects_missing_completion():
    # {eh -> -e, hh -> h} without the consequences of completion
    sys = system_from_rules([("eh", "- e"), ("hh", "h")])
    seed_poly = P("e h h")
    bad = confluence_fuzz(sys, 50, 3, seed=1, seeds=[seed_poly] * 50)
    assert bad is not None


def test_fuzz_zero_poly_trivially_passes(va1):
    assert confluence_fuzz(va1.system, 5, 3, seed=0, seeds=[NcPoly.zero()] * 5) is None


# -- exact confluence: every ambiguity resolves ------------------------------------


@pytest.mark.parametrize("alg_id", catalog.ALGEBRA_IDS)
def test_catalog_systems_have_no_unresolved_ambiguity(alg_id):
    assert catalog.algebra(alg_id).system.unresolved_ambiguities() == []


@pytest.mark.parametrize(
    "pairs",
    # the last is the completion of the rules of the next test: e = -e there, so e -> 0
    [[("ee", "0 e")], [("ee", "0 e"), ("hh", "0 e")], [("eh", "0 e"), ("h", "0 e")], [("hh", "h"), ("e", "0 e")]],
    ids=["self-overlap", "disjoint", "inclusion", "completed"],
)
def test_confluent_rule_sets_have_no_unresolved_ambiguity(pairs):
    assert system_from_rules(pairs).unresolved_ambiguities() == []


def test_missing_completion_leaves_an_unresolved_ambiguity():
    # e h h -> -e h -> e one way, e h -> -e the other
    (amb,) = system_from_rules([("eh", "- e"), ("hh", "h")]).unresolved_ambiguities()
    assert (amb.kind, amb.witness) == ("overlap", w("ehh"))


def test_unresolved_inclusion_is_found():
    # a rule set that is not interreduced: e h -> -e one way, e h -> e 0 = 0 the other
    (amb,) = system_from_rules([("eh", "- e"), ("h", "0 e")]).unresolved_ambiguities()
    assert (amb.kind, amb.witness, amb.offset) == ("inclusion", w("eh"), 1)


@pytest.mark.parametrize("k", range(48))
def test_every_doubled_right_hand_side_of_va2_leaves_an_ambiguity_unresolved(k, doubled_rhs):
    system = catalog.algebra("a_va2").system
    rules = [r for r in system.rules if not r.rhs.is_zero()]
    assert len(rules) == 48
    mutant = doubled_rhs(system, rules[k])
    assert mutant.unresolved_ambiguities()
    assert [r.lhs for r in mutant.uncertified_rules()] == [rules[k].lhs]


# -- exact membership: every rule trace expands to its rule ---------------------------


def _with_trace(system, rule, trace):
    """``system`` with ``rule``'s trace replaced, every other rule kept."""
    rules = [RewriteRule(r.lhs, r.rhs, trace) if r is rule else r for r in system.rules]
    return RewriteSystem(system.order, rules, system.confluent_to_degree, system.relations)


@pytest.mark.parametrize("alg_id", catalog.ALGEBRA_IDS)
def test_catalog_rule_traces_expand_to_their_rules(alg_id):
    system = catalog.algebra(alg_id).system
    assert system.uncertified_rules() == []
    assert all(system.reduce(rel).is_zero() for rel in system.relations)


@pytest.mark.parametrize("edit", ["dropped", "scaled"])
def test_a_rule_with_a_wrong_trace_atom_is_uncertified(edit):
    system = catalog.algebra("a_va2").system
    rule = next(r for r in system.rules if len(r.trace) > 1)
    (c, left, idx, right), *rest = rule.trace
    trace = tuple(rest) if edit == "dropped" else ((2 * c, left, idx, right), *rest)
    assert _with_trace(system, rule, trace).uncertified_rules() == [RewriteRule(rule.lhs, rule.rhs, trace)]


@pytest.mark.parametrize("bad_idx", [73, -1], ids=["past-the-end", "negative"])
def test_a_trace_atom_outside_the_relations_is_reported_not_raised(bad_idx):
    system = catalog.algebra("a_va2").system
    assert len(system.relations) == 73
    rule = system.rules[0]
    trace = ((Fraction(1), EPSILON, bad_idx, EPSILON), *rule.trace)
    assert _with_trace(system, rule, trace).uncertified_rules() == [RewriteRule(rule.lhs, rule.rhs, trace)]


@st.composite
def _small_presentations(draw):
    n_gens = draw(st.integers(2, 3))
    word = st.lists(st.integers(0, n_gens - 1), min_size=1, max_size=3).map(tuple)
    coeff = st.sampled_from((1, -1, 2, -2)).map(Fraction)
    poly = st.dictionaries(word, coeff, min_size=1, max_size=3).map(NcPoly)
    relations = draw(st.lists(poly, min_size=1, max_size=3))
    order = MonomialOrder(tuple(draw(st.permutations(range(n_gens)))))
    return relations, order, draw(st.sampled_from((4, 6, 8)))


@settings(max_examples=200, deadline=None)
@given(_small_presentations())
def test_completion_certificate_matches_the_ambiguity_check(case):
    relations, order, max_degree = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(rewrite, "RULE_BUDGET", 60)
        try:
            system = complete(relations, order, max_degree)
        except CompletionError:
            assume(False)
    assert system.uncertified_rules() == []
    assert all(system.reduce(rel).is_zero() for rel in relations)
    unresolved = system.unresolved_ambiguities()
    if system.confluent_to_degree == INFINITE:
        assert unresolved == []
    else:
        assert all(len(amb.witness) > max_degree for amb in unresolved)


# -- property: reduce is linear on random polynomials (hypothesis) -------------

_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_word8 = st.lists(st.integers(0, 7), min_size=0, max_size=4).map(tuple)
_poly8 = st.dictionaries(_word8, _coeff, max_size=3).map(NcPoly)


@settings(max_examples=40, deadline=None)
@given(_poly8, _poly8)
def test_reduce_additive_on_va2(p, q):
    system = catalog.algebra("a_va2").system
    assert system.reduce(p + q) == system.reduce(p) + system.reduce(q)


# -- the rewrite loop against the three loops it replaced -----------------------


def _ref_find_redex(word, rules):
    """Leftmost, lowest-id redex by scanning every rule at every position: the reference."""
    n = len(word)
    for pos in range(n):
        for rid in rules:
            lhs = rules[rid].lhs
            m = len(lhs)
            if m and pos + m <= n and word[pos : pos + m] == lhs:
                return pos, rid
    return None


def _shift_trace(trace, left, right):
    return tuple((c, left + l, i, r + right) for (c, l, i, r) in trace)


def _ref_reduce_traced(p, rules, order):
    trace = []
    cur = p
    while True:
        hit = None
        for w in sorted(cur.terms, key=order.key, reverse=True):
            found = _ref_find_redex(w, rules)
            if found:
                hit = (w, found)
                break
        if hit is None:
            return cur, tuple(trace)
        w, (pos, rid) = hit
        rule = rules[rid]
        c = cur.terms[w]
        left, right = w[:pos], w[pos + len(rule.lhs) :]
        replacement = (NcPoly.monomial(left) * rule.rhs * NcPoly.monomial(right)).scale(c)
        cur = cur - NcPoly.monomial(w, c) + replacement
        trace.extend(_shift_trace(_scale_trace(rule.trace, c), left, right))


def _ref_reduce_counting(system, p):
    steps = 0
    cur = p
    while True:
        hit = None
        for w in sorted(cur.terms, key=system.order.key, reverse=True):
            found = _ref_find_redex(w, system._rule_dict)
            if found:
                hit = (w, found)
                break
        if hit is None:
            return cur, steps
        w, (pos, rid) = hit
        rule = system._rule_dict[rid]
        c = cur.terms[w]
        left, right = w[:pos], w[pos + len(rule.lhs) :]
        cur = cur - NcPoly.monomial(w, c) + (NcPoly.monomial(left) * rule.rhs * NcPoly.monomial(right)).scale(c)
        steps += 1


def _ref_random_reduce(system, p, rng):
    cur = p
    while True:
        redexes = []
        for w in cur.terms:
            n = len(w)
            for rid, rule in system._rule_dict.items():
                m = len(rule.lhs)
                for pos in range(n - m + 1):
                    if w[pos : pos + m] == rule.lhs:
                        redexes.append((w, pos, rid))
        if not redexes:
            return cur
        w, pos, rid = redexes[rng.randrange(len(redexes))]
        rule = system._rule_dict[rid]
        c = cur.terms[w]
        left, right = w[:pos], w[pos + len(rule.lhs) :]
        cur = cur - NcPoly.monomial(w, c) + (NcPoly.monomial(left) * rule.rhs * NcPoly.monomial(right)).scale(c)


def _random_poly(rng, n_gens, max_len=6, n_terms=3):
    return NcPoly(
        {
            tuple(rng.randrange(n_gens) for _ in range(rng.randint(0, max_len))): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(n_terms)
        }
    )


def test_canonical_rewrite_matches_reference_loops():
    rng = random.Random(17)
    for alg_id in catalog.ALGEBRA_IDS:
        h = catalog.algebra(alg_id)
        system = h.system
        for _ in range(40):
            p = _random_poly(rng, len(h.gen_names))
            ref_nf, ref_trace = _ref_reduce_traced(p, system._rule_dict, system.order)
            nf, trace = system.reduce_traced(p)
            assert (nf, trace) == (ref_nf, ref_trace)
            assert list(nf.terms.items()) == list(ref_nf.terms.items())
            _, steps = _rewrite(p, system._rule_dict, system.order)
            assert len(steps) == _ref_reduce_counting(system, p)[1]


def test_random_rewrite_matches_reference_on_non_confluent_system():
    # {eh -> -e, hh -> h} is not confluent, so the result depends on the path
    sys = system_from_rules([("eh", "- e"), ("hh", "h")])
    polys = [P("e h h"), P("e h h h - 2 e h"), P("e h e h h + h h h"), P("1/2 h e h h - e h h h h")]
    results = set()
    for seed in range(200):
        p = polys[seed % len(polys)]
        ref_rng, rng = random.Random(seed), random.Random(seed)
        expected = _ref_random_reduce(sys, p, ref_rng)
        got, _ = _rewrite(p, sys._rule_dict, sys.order, rng)
        assert list(got.terms.items()) == list(expected.terms.items())
        assert rng.random() == ref_rng.random()  # same number of draws
        results.add((polys.index(p), got))
    assert len(results) > len(polys)  # some polynomial reached two different results


# -- trace stability: every catalog rule, rhs order, trace and certificate -------------

CATALOG_SYSTEMS_SHA256 = "4051941d644356c0efed165227ab5ae598353f5ac54555520f5322627623dd4a"


def _render_catalog_systems():
    lines = []
    for alg_id in catalog.ALGEBRA_IDS:
        system = catalog.algebra(alg_id).system
        lines.append(f"algebra {alg_id} confluent_to_degree {system.confluent_to_degree}")
        for rule in system.rules:
            rhs = " ".join(f"{c}*{list(w)}" for w, c in rule.rhs.terms.items())
            trace = " ".join(f"{c}*{list(l)}*r{i}*{list(r)}" for c, l, i, r in rule.trace)
            lines.append(f"rule {list(rule.lhs)} -> {rhs} | {trace}")
    return "\n".join(lines) + "\n"


def test_catalog_systems_digest_is_pinned():
    text = _render_catalog_systems()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == CATALOG_SYSTEMS_SHA256, "a catalog rule, rhs term order, trace or certificate changed"


def _ref_memo_reduce(system, p, memo):
    """reduce and reduce_word as they were, one new accumulator per term: the reference."""

    def reduce_word(word):
        if word in memo:
            return memo[word]
        found = _ref_find_redex(word, system._rule_dict)
        if found is None:
            result = NcPoly.monomial(word)
        else:
            pos, rid = found
            rule = system._rule_dict[rid]
            result = NcPoly.zero()
            for t, c in rule.rhs.sandwich(word[:pos], word[pos + len(rule.lhs) :]).terms.items():
                result = result + reduce_word(t).scale(c)
        memo[word] = result
        return result

    out = NcPoly.zero()
    for word, c in p.terms.items():
        out = out + reduce_word(word).scale(c)
    return out


def _ref_add(p, q):
    """``p + q`` as ``NcPoly.__add__`` looped before it called ``_add_scaled``: the reference."""
    terms = dict(p.terms)
    for w, c in q.terms.items():
        s = terms.get(w, Fraction(0)) + c
        if s:
            terms[w] = s
        else:
            terms.pop(w, None)
    out = NcPoly()
    out.terms = terms
    return out


def _ref_sub(p, q):
    """``p - q`` as ``NcPoly.__sub__`` was: the sum with a negated copy."""
    return _ref_add(p, -q)


def _ref_mul(p, q):
    """``p * q`` as ``NcPoly.__mul__`` looped before it called ``_add_scaled``: the reference."""
    terms = {}
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            w = w1 + w2
            s = terms.get(w, Fraction(0)) + c1 * c2
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
    out = NcPoly()
    out.terms = terms
    return out


def test_reduce_keeps_reference_term_order():
    # term order reaches --json reports and the pinned digests, so compare item lists
    rng = random.Random(23)
    for alg_id in catalog.ALGEBRA_IDS:
        h = catalog.algebra(alg_id)
        system = RewriteSystem(h.system.order, list(h.system.rules), h.system.confluent_to_degree)
        memo = {}
        for _ in range(40):
            p = _random_poly(rng, len(h.gen_names), n_terms=rng.randint(1, 6))
            assert list(system.reduce(p).terms.items()) == list(_ref_memo_reduce(system, p, memo).terms.items())
        for word, ref in memo.items():
            assert list(system.reduce_word(word).terms.items()) == list(ref.terms.items())
        n_gens = len(h.gen_names)
        trace = tuple(
            (Fraction(rng.randint(-3, 3), rng.randint(1, 3)), tuple(rng.randrange(n_gens) for _ in range(rng.randint(0, 2))), i, ())
            for i in rng.choices(range(len(h.presentation.relations)), k=5 if h.presentation.relations else 0)
        )
        # the polynomial sum, difference and product against the loops they replaced
        ref = NcPoly.zero()
        for c, left, idx, right in trace:
            term = h.presentation.relations[idx].sandwich(left, right).scale(c)
            for got, want in ((ref + term, _ref_add(ref, term)), (ref - term, _ref_sub(ref, term)), (ref * term, _ref_mul(ref, term))):
                assert list(got.terms.items()) == list(want.terms.items())
            total = _ref_add(ref, term)
            assert list((total - term).terms.items()) == list(_ref_sub(total, term).terms.items())
            ref = total
        assert list(expand_trace(h.presentation.relations, trace).terms.items()) == list(ref.terms.items())


# -- the pair ledger: completion against the full final sweep it replaced -----------


def _ref_s_poly(amb, rules):
    """The S-polynomial with its trace built eagerly, as it was: the reference."""
    ri, rj = rules[amb.i], rules[amb.j]
    if amb.kind == "overlap":
        k = amb.offset
        pre = ri.lhs[: len(ri.lhs) - k]
        suf = rj.lhs[k:]
        s = ri.rhs.sandwich(EPSILON, suf) - rj.rhs.sandwich(pre, EPSILON)
        trace = _shift_trace(rj.trace, pre, EPSILON) + _scale_trace(_shift_trace(ri.trace, EPSILON, suf), Fraction(-1))
    else:
        a = ri.lhs[: amb.offset]
        b = ri.lhs[amb.offset + len(rj.lhs) :]
        s = ri.rhs - rj.rhs.sandwich(a, b)
        trace = _shift_trace(rj.trace, a, b) + _scale_trace(ri.trace, Fraction(-1))
    return s, trace


def _ref_complete(relations, order, max_degree=12):
    """``complete`` with a full final sweep, as it was before the pair ledger: the reference.

    Its one addition is the trace budget of ``complete``, so that an input
    whose traces blow up stops the same way on both sides.
    """
    base = tuple(relations)
    for r in base:
        if r.is_zero():
            raise CompletionError("inconsistent", "zero relation in presentation")

    rules = {}
    next_id = itertools.count()
    pending = [(rel, ((Fraction(1), EPSILON, idx, EPSILON),)) for idx, rel in enumerate(base)]
    heap = []

    def budgeted(lhs, rhs, trace):
        if len(trace) > TRACE_BUDGET:
            raise CompletionError("budget", "trace")
        return RewriteRule(lhs, rhs, trace)

    def push_ambiguities(i):
        li = rules[i].lhs
        for j in list(rules):
            for amb in _ambiguities_of_pair(i, li, j, rules[j].lhs) if j != i else _overlaps(i, li, i, li):
                if len(amb.witness) <= max_degree:
                    heapq.heappush(heap, (len(amb.witness), order.key(amb.witness), amb.i, amb.j, amb.offset, amb.kind))

    def add_rule(poly, trace):
        lw, lc = poly.leading_term(order)
        inv = Fraction(1) / lc
        rule = budgeted(lw, NcPoly.monomial(lw) - poly.scale(inv), _scale_trace(trace, inv))
        for rid in [rid for rid, r in rules.items() if _contains(r.lhs, lw)]:
            old = rules.pop(rid)
            pending.append((old.relation_poly(), old.trace))
        rid = next(next_id)
        rules[rid] = rule
        for other_id, other in list(rules.items()):
            if other_id == rid:
                continue
            new_rhs, delta = _ref_reduce_traced(other.rhs, {rid: rule}, order)
            if delta:
                rules[other_id] = budgeted(other.lhs, new_rhs, other.trace + delta)
        push_ambiguities(rid)
        if len(rules) > rewrite.RULE_BUDGET:
            raise CompletionError("budget", "rules")

    def drain():
        while pending or heap:
            if pending:
                poly, trace = pending.pop()
                poly, delta = _ref_reduce_traced(poly, rules, order)
                trace = trace + _scale_trace(delta, Fraction(-1))
                if poly.is_zero():
                    continue
                if poly.is_scalar():
                    raise CompletionError("inconsistent", "scalar")
                add_rule(poly, trace)
                continue
            _, _, i, j, offset, kind = heapq.heappop(heap)
            if i not in rules or j not in rules:
                continue
            witness = rules[i].lhs + rules[j].lhs[offset:] if kind == "overlap" else rules[i].lhs
            s, trace = _ref_s_poly(Ambiguity(kind, i, j, witness, offset), rules)
            s, delta = _ref_reduce_traced(s, rules, order)
            if not s.is_zero():
                pending.append((s, trace + _scale_trace(delta, Fraction(-1))))

    drain()
    while True:
        final = RewriteSystem(order, list(rules.values()), max_degree, base)
        leftover = False
        dirty = False
        for amb in final.find_ambiguities():
            if len(amb.witness) > max_degree:
                leftover = True
                continue
            s, trace = _ref_s_poly(amb, final._rule_dict)
            s, delta = _ref_reduce_traced(s, final._rule_dict, order)
            if not s.is_zero():
                rules = dict(final._rule_dict)
                pending.append((s, trace + _scale_trace(delta, Fraction(-1))))
                drain()
                dirty = True
                break
        if not dirty:
            return RewriteSystem(order, list(rules.values()), max_degree if leftover else INFINITE, base)


def _completion_outcome(complete_fn, relations, order, max_degree):
    """Rules (lhs, rhs terms in order, trace) and certificate, or the error kind."""
    try:
        system = complete_fn(list(relations), order, max_degree)
    except CompletionError as exc:
        return ("error", exc.kind)
    rules = [(r.lhs, list(r.rhs.terms.items()), r.trace) for r in system.rules]
    return (rules, system.confluent_to_degree)


_small_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


@st.composite
def _presentations(draw):
    n_gens = draw(st.integers(1, 3))
    length = st.sampled_from((0, 1, 2, 2, 3, 3, 4, 4))  # a constant term in one of eight
    word = length.flatmap(lambda n: st.lists(st.integers(0, n_gens - 1), min_size=n, max_size=n)).map(tuple)
    poly = st.dictionaries(word, _small_coeff, min_size=1, max_size=3).map(NcPoly)
    relations = draw(st.lists(poly, min_size=1, max_size=3))
    order = MonomialOrder(tuple(draw(st.permutations(range(n_gens)))))
    return relations, order, draw(st.integers(3, 6))


@settings(max_examples=150, deadline=None)
@given(_presentations())
def test_complete_matches_full_sweep_on_generated_presentations(case):
    relations, order, max_degree = case
    # a small rule bound keeps the few inputs that blow up cheap on both sides
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(rewrite, "RULE_BUDGET", 60)
        assert _completion_outcome(complete, relations, order, max_degree) == _completion_outcome(
            _ref_complete, relations, order, max_degree
        )


def test_complete_matches_full_sweep_on_reordered_catalog():
    rng = random.Random(29)
    vp_stops_at_eight = [("x_b", "x_a", "x_ab", "y", "x", "x_ma"), ("x", "y", "x_b", "x_ma", "x_a", "x_ab")]
    cases = [(alg_id, None) for alg_id in ("vb", "a_va1", "a_va2", "a_vp")] + [("a_vp", r) for r in vp_stops_at_eight]
    degrees = set()
    for alg_id, ranking in cases:
        pres = catalog.presentation(alg_id)
        rels = list(pres.relations)
        rng.shuffle(rels)
        if ranking is None:
            ranking = list(pres.gen_names)
            rng.shuffle(ranking)
        order = MonomialOrder.from_ranking([pres.gen_names.index(g) for g in ranking])
        max_degree = catalog.COMPLETION_DEGREE[alg_id]
        outcome = _completion_outcome(complete, rels, order, max_degree)
        assert outcome == _completion_outcome(_ref_complete, rels, order, max_degree)
        degrees.add(outcome[1])
    assert degrees == {INFINITE, 8}  # both kinds of certificate are covered


def test_complete_retires_rules_in_rule_order():
    # the new rule y x retires four rules at once; the order they are pushed back as pending shows in the traces
    gens = ("x", "y")
    rels = [P("-2/3 x x - y x y + 1/2", gens), P("-2/3 x y + 1/3 y - 2 x x x", gens)]
    order = MonomialOrder((0, 1))
    outcome = _completion_outcome(complete, rels, order, 5)
    assert outcome == _completion_outcome(_ref_complete, rels, order, 5)
    assert outcome[1] == INFINITE and len(outcome[0]) == 4


@pytest.mark.parametrize("alg_id, count, added, retired", [("a_va2", 563, 72, 6), ("a_vp", 185, 33, 0)], ids=["a_va2", "a_vp"])
def test_complete_resolves_each_pair_once_per_rule_version(monkeypatch, alg_id, count, added, retired):
    # a full final sweep resolves every ambiguity again (1,110 for a_va2 and 370 for a_vp),
    # and a sweep after the pair ledger still re-resolves each changed pair (576 and 188)
    resolved = []
    s_poly = rewrite._s_poly

    def counting(amb, rules):
        resolved.append((rules[amb.i], rules[amb.j], amb.offset, amb.kind))
        return s_poly(amb, rules)

    monkeypatch.setattr(rewrite, "_s_poly", counting)
    pres = catalog.presentation(alg_id)
    max_degree = catalog.COMPLETION_DEGREE[alg_id]
    system = complete(list(pres.relations), pres.order, max_degree)
    assert len(resolved) == system.pairs_resolved == count
    assert (system.rules_added, system.rules_retired) == (added, retired)
    # the ledger invariant: every final pair was resolved with its final two rules
    seen = {(id(ri), id(rj), offset, kind) for ri, rj, offset, kind in resolved}
    rules = system._rule_dict
    for amb in system.find_ambiguities():
        if len(amb.witness) <= max_degree:
            assert (id(rules[amb.i]), id(rules[amb.j]), amb.offset, amb.kind) in seen


@pytest.mark.parametrize("alg_id", ["a_va1", "a_va2", "a_vp"])
def test_complete_builds_traces_only_for_kept_polynomials(monkeypatch, alg_id):
    # a resolution or a pending polynomial that reduces to zero costs no trace atom
    s_polys, reductions, traced = [], [], []
    s_poly, rewrite_, trace = rewrite._s_poly, rewrite._rewrite, rewrite._trace

    def recording_s_poly(amb, rules):
        out = s_poly(amb, rules)
        s_polys.append((rules, *out))
        return out

    def recording_rewrite(p, rules, order, rng=None, index=None):
        out = rewrite_(p, rules, order, rng, index)
        reductions.append((p, rules, *out))
        return out

    def recording_trace(steps, sign=1):
        traced.append(steps)
        return trace(steps, sign)

    monkeypatch.setattr(rewrite, "_s_poly", recording_s_poly)
    monkeypatch.setattr(rewrite, "_rewrite", recording_rewrite)
    monkeypatch.setattr(rewrite, "_trace", recording_trace)
    pres = catalog.presentation(alg_id)
    complete(list(pres.relations), pres.order, catalog.COMPLETION_DEGREE[alg_id])
    rules = s_polys[0][0]  # the live rule set; a right-hand side is rebuilt against a one-rule dict
    times_traced = {}
    for steps in traced:
        times_traced[id(steps)] = times_traced.get(id(steps), 0) + 1
    kept = zero = 0
    first_result = {}
    for p, used, result, steps in reductions:
        first_result.setdefault(id(p), result)
        if used is rules:
            assert times_traced.get(id(steps), 0) == (0 if result.is_zero() else 1)
            kept, zero = kept + (not result.is_zero()), zero + result.is_zero()
    for _, s, steps in s_polys:
        assert times_traced.get(id(steps), 0) == (0 if first_result[id(s)].is_zero() else 1)
    assert kept and zero > kept  # both kinds occur, and most reduce to zero


@pytest.mark.parametrize("alg_id", ["a_va1", "a_va2", "a_vp"])
def test_complete_rereduces_only_right_hand_sides_the_new_rule_rewrites(monkeypatch, alg_id):
    # a right-hand side with no word containing the new left-hand side is left alone
    # only the right-hand-side rebuild rewrites without the live index, against a one-rule dict
    deltas = []
    rewrite_ = rewrite._rewrite

    def recording_rewrite(p, rules, order, rng=None, index=None):
        out = rewrite_(p, rules, order, rng, index)
        if index is None:
            deltas.append(out[1])
        return out

    monkeypatch.setattr(rewrite, "_rewrite", recording_rewrite)
    pres = catalog.presentation(alg_id)
    system = complete(list(pres.relations), pres.order, catalog.COMPLETION_DEGREE[alg_id])
    assert system.rules == catalog.algebra(alg_id).system.rules
    if alg_id == "a_va1":
        assert deltas == []  # no rule of a_va1 gets a right-hand side to rebuild
    else:
        assert deltas and all(deltas)  # a_va2 rebuilds 11 right-hand sides and a_vp 2; each call rewrote something


def test_rewrite_and_complete_leave_inputs_and_rules_unchanged(monkeypatch):
    # _rewrite writes into a copy of its input, never into the input or a rule's right-hand side
    rng = random.Random(31)
    for alg_id in ("a_va1", "a_va2", "a_vp"):
        h = catalog.algebra(alg_id)
        system = h.system
        rules, order = system._rule_dict, system.order
        rhs = [list(r.rhs.terms.items()) for r in system.rules]
        for seed in range(30):
            p = _random_poly(rng, len(h.gen_names), n_terms=4)
            before = list(p.terms.items())
            _rewrite(p, rules, order)
            _rewrite(p, rules, order, random.Random(seed))
            system.reduce_traced(p)
            assert list(p.terms.items()) == before
        assert [list(r.rhs.terms.items()) for r in system.rules] == rhs

    rewrite_ = rewrite._rewrite

    def checked_rewrite(p, rules, order, rng=None, index=None):
        before = (list(p.terms.items()), [(r, list(r.rhs.terms.items())) for r in rules.values()])
        out = rewrite_(p, rules, order, rng, index)
        assert (list(p.terms.items()), [(r, list(r.rhs.terms.items())) for r in rules.values()]) == before
        return out

    monkeypatch.setattr(rewrite, "_rewrite", checked_rewrite)
    for alg_id in ("a_va1", "a_vp"):
        pres = catalog.presentation(alg_id)
        relations = [list(r.terms.items()) for r in pres.relations]
        complete(list(pres.relations), pres.order, catalog.COMPLETION_DEGREE[alg_id])
        assert [list(r.terms.items()) for r in pres.relations] == relations


def test_reduce_word_memo_entries_are_read_only():
    # a caller writing into a memo entry's terms would change every later reduction through it
    h = catalog.algebra("a_va2")
    system = RewriteSystem(h.system.order, list(h.system.rules), h.system.confluent_to_degree)
    word = h.system.rules[-1].lhs + h.system.rules[0].lhs
    expected = h.system.reduce(NcPoly.monomial(word))
    assert not expected.is_zero() and expected != NcPoly.monomial(word)
    entry = system.reduce_word(word)
    try:
        entry.terms[EPSILON] = Fraction(7)
    except TypeError:
        pass
    assert system.reduce(NcPoly.monomial(word)) == expected  # without the guard this reads the write
    assert system.reduce_word(word) == expected
    with pytest.raises(TypeError):
        del entry.terms[next(iter(entry.terms))]
    out = system.reduce(NcPoly.monomial(word))  # reduce hands out a fresh polynomial
    out.terms[EPSILON] = Fraction(7)
    assert system.reduce(NcPoly.monomial(word)) == expected


def test_complete_stops_when_a_trace_blows_up():
    gens = ("x", "y", "z")
    rels = [P("z x + 3/2", gens), P("x y x z - y y - 1/3", gens), P("z x y z + 3/2 y y x", gens)]
    start = time.perf_counter()
    with pytest.raises(CompletionError) as err:
        complete(rels, MonomialOrder.from_ranking([0, 1, 2]))
    assert err.value.kind == "budget" and "trace" in err.value.report
    assert time.perf_counter() - start < 5


def test_complete_rejects_negative_degree():
    with pytest.raises(ValueError, match="max_degree must be >= 0, got -3"):
        complete(list(catalog.presentation("a_va1").relations), HFE, -3)
    assert complete([P("e e")], HFE, 0).confluent_to_degree == 0


# -- the left-hand-side index against the scan it replaced ----------------------


def _ref_suffixes_normal(word, system):
    """No rule's left-hand side ends ``word``, by scanning every rule: the reference."""
    for rule in system.rules:
        m = len(rule.lhs)
        if m <= len(word) and word[len(word) - m :] == rule.lhs:
            return False
    return True


_letter = st.integers(0, 2)
_lhs_word = st.lists(_letter, min_size=1, max_size=4).map(tuple)


@st.composite
def _rule_dicts(draw):
    """Rule dicts with ascending ids and mixed lengths: often duplicate or nested left-hand sides, or none."""
    lhss = draw(st.lists(_lhs_word, max_size=6))
    for _ in range(draw(st.integers(0, 3)) if lhss else 0):
        base = draw(st.sampled_from(lhss))
        before = draw(st.lists(_letter, max_size=2).map(tuple))
        after = draw(st.lists(_letter, max_size=2).map(tuple))
        lhss.insert(draw(st.integers(0, len(lhss))), before + base + after)  # equal to base when both are empty
    ids = sorted(draw(st.sets(st.integers(0, 99), min_size=len(lhss), max_size=len(lhss))))
    return {rid: RewriteRule(lhs, NcPoly.zero()) for rid, lhs in zip(ids, lhss)}


_words = st.lists(st.lists(_letter, max_size=10).map(tuple), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(_rule_dicts(), _words)
def test_lhs_index_matches_rule_scan(rules, words):
    index = LhsIndex(rules)
    system = RewriteSystem(HFE, list(rules.values()), INFINITE)
    for word in words:
        assert _find_redex(word, index) == _ref_find_redex(word, rules)
        assert _find_redex(word, system.lhs_index) == _ref_find_redex(word, system._rule_dict)
        assert _suffixes_normal(word, system) == _ref_suffixes_normal(word, system)


def test_lhs_index_picks_lowest_id_among_nested_and_duplicate_rules():
    rules = {0: RewriteRule(w("hef"), P("0 e")), 1: RewriteRule(w("he"), P("0 e")), 2: RewriteRule(w("he"), P("e"))}
    index = LhsIndex(rules)
    assert (index.ids, index.lengths) == ({w("hef"): 0, w("he"): 1}, (2, 3))
    assert _find_redex(w("ehef"), index) == (1, 0)  # the longer lhs has the lower id
    assert _find_redex(w("ehe"), index) == (1, 1)  # the first of two equal lhs
    assert _find_redex(w("fff"), index) is None
    empty = LhsIndex({})
    assert (empty.ids, empty.lengths) == ({}, ())
    assert _find_redex(w("hef"), empty) is None


def _table_items(tables):
    """The three affix tables with each key's rules as a list, so that rule order is compared too."""
    return [{key: list(ids.items()) for key, ids in table.items()} for table in (tables.prefixes, tables.suffixes, tables.factors)]


def _recording_index_checks(monkeypatch):
    """Check complete's index and affix tables against ones rebuilt from its rules; returns the last triple.

    The tables are checked after every addition and retirement, against a
    rebuild from the left-hand sides added and not yet removed; at every
    reduction those must be the live rules.
    """
    seen, made = [], []
    rewrite_ = rewrite._rewrite

    class CheckedTables(AffixTables):
        def __init__(self, rules):
            self.lhs = {}
            made.append(self)
            super().__init__(rules)

        def add(self, rid, lhs):
            super().add(rid, lhs)
            self.lhs[rid] = lhs
            self.check()

        def remove(self, rid, lhs):
            super().remove(rid, lhs)
            del self.lhs[rid]
            self.check()

        def check(self):
            assert _table_items(self) == _table_items(AffixTables({rid: RewriteRule(lhs, NcPoly.zero()) for rid, lhs in self.lhs.items()}))

    def checked_rewrite(p, rules, order, rng=None, index=None):
        if index is not None:
            rebuilt = LhsIndex(rules)
            assert (index.ids, index.lengths) == (rebuilt.ids, rebuilt.lengths)
            tables = made[-1]
            assert list(tables.lhs.items()) == [(rid, rule.lhs) for rid, rule in rules.items()]
            seen[:] = [(rules, index, tables)]
        return rewrite_(p, rules, order, rng, index)

    monkeypatch.setattr(rewrite, "_rewrite", checked_rewrite)
    monkeypatch.setattr(rewrite, "AffixTables", CheckedTables)
    return seen


def _assert_index_of_live_rules(seen):
    rules, index, tables = seen[0]
    rebuilt = LhsIndex(rules)
    assert (index.ids, index.lengths) == (rebuilt.ids, rebuilt.lengths)
    assert len(index.ids) == len(rules)  # the live left-hand sides are distinct
    assert _table_items(tables) == _table_items(AffixTables(rules))


@pytest.mark.parametrize("alg_id", ["vb", "a_va1", "a_va2", "a_vp"])
def test_complete_keeps_lhs_index_of_live_rules_on_catalog(monkeypatch, alg_id):
    seen = _recording_index_checks(monkeypatch)
    pres = catalog.presentation(alg_id)
    system = complete(list(pres.relations), pres.order, catalog.COMPLETION_DEGREE[alg_id])
    _assert_index_of_live_rules(seen)
    assert sorted(seen[0][1].ids) == sorted(r.lhs for r in system.rules)
    assert sorted(seen[0][2].lhs.values()) == sorted(r.lhs for r in system.rules)


@settings(max_examples=60, deadline=None)
@given(_presentations())
def test_complete_keeps_lhs_index_of_live_rules_on_generated_presentations(case):
    relations, order, max_degree = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = _recording_index_checks(monkeypatch)
        monkeypatch.setattr(rewrite, "RULE_BUDGET", 60)
        try:
            complete(list(relations), order, max_degree)
        except CompletionError:
            pass
    if seen:
        _assert_index_of_live_rules(seen)


# -- the affix tables against the pairwise scan they replaced --------------------


def _contains(word, sub):
    n, m = len(word), len(sub)
    return any(word[p : p + m] == sub for p in range(n - m + 1))


def _overlaps(i, li, j, lj):
    out = []
    for k in range(1, min(len(li), len(lj))):
        if li[len(li) - k :] == lj[:k]:
            out.append(Ambiguity("overlap", i, j, li + lj[k:], k))
    return out


def _ambiguities_of_pair(i, li, j, lj):
    """The ambiguities of two rules, found by comparing them: the reference."""
    out = _overlaps(i, li, j, lj)
    if i != j:
        out.extend(_overlaps(j, lj, i, li))
        if len(lj) < len(li):
            for pos in range(len(li) - len(lj) + 1):
                if li[pos : pos + len(lj)] == lj:
                    out.append(Ambiguity("inclusion", i, j, li, pos))
        elif len(li) < len(lj):
            for pos in range(len(lj) - len(li) + 1):
                if lj[pos : pos + len(li)] == li:
                    out.append(Ambiguity("inclusion", j, i, lj, pos))
    return out


def _ref_find_ambiguities(rules, order):
    """``find_ambiguities`` as it was, one ``_ambiguities_of_pair`` call per pair of rules: the reference."""
    out = []
    ids = list(rules)
    for a in range(len(ids)):
        for b in range(a, len(ids)):
            i, j = ids[a], ids[b]
            out.extend(_ambiguities_of_pair(i, rules[i].lhs, j, rules[j].lhs))
    out.sort(key=lambda amb: (len(amb.witness), order.key(amb.witness), amb.i, amb.j, amb.offset))
    return out


def _amb_key(amb):
    return (amb.kind, amb.i, amb.j, amb.witness, amb.offset)


@settings(max_examples=300, deadline=None)
@given(_rule_dicts())
def test_affix_tables_list_the_pairwise_ambiguities(rules):
    system = RewriteSystem(HFE, list(rules.values()), INFINITE)
    assert system.find_ambiguities() == _ref_find_ambiguities(system._rule_dict, HFE)
    assert system.find_ambiguities() is not system.find_ambiguities()  # a caller may keep or edit its list
    # on the rule dict itself, with its gaps in the ids: what complete looks up for one rule
    tables = AffixTables(rules)
    for i, rule in rules.items():
        found = tables.left_overlaps(i, rule.lhs) + tables.right_overlaps(i, rule.lhs)
        pairwise = [amb for j in rules for amb in _ambiguities_of_pair(i, rule.lhs, j, rules[j].lhs) if amb.kind == "overlap"]
        assert sorted(found, key=_amb_key) == sorted(pairwise, key=_amb_key)
    for u in {u for rule in rules.values() for u in rewrite._factors(rule.lhs)}:
        assert list(tables.factors[u]) == [rid for rid, rule in rules.items() if _contains(rule.lhs, u)]


def test_affix_tables_list_an_empty_left_hand_side_inside_every_other():
    rules = {0: RewriteRule(w("eh"), NcPoly.zero()), 3: RewriteRule((), NcPoly.zero()), 5: RewriteRule(w("e"), NcPoly.zero())}
    system = RewriteSystem(HFE, list(rules.values()), INFINITE)
    found = system.find_ambiguities()
    assert found == _ref_find_ambiguities(system._rule_dict, HFE)
    assert [(amb.witness, amb.offset) for amb in found if amb.kind == "inclusion" and not system.rules[amb.j].lhs] == [
        (w("e"), 0), (w("e"), 1), (w("eh"), 0), (w("eh"), 1), (w("eh"), 2)
    ]


# -- the heap of the canonical rewrite loop against the sort it replaced --------


def _ref_sorted_rewrite(p, rules, order, index):
    """The canonical rewrite loop as it was, re-sorting every term at each step: the reference."""
    cur = p
    steps = []
    while True:
        hit = None
        for w in sorted(cur.terms, key=order.key, reverse=True):
            found = _find_redex(w, index)
            if found:
                hit = (w, *found)
                break
        if hit is None:
            return cur, steps
        if cur is p:
            cur = NcPoly()
            cur.terms = dict(p.terms)
        w, pos, rid = hit
        rule = rules[rid]
        c = cur.terms.pop(w)
        left, right = w[:pos], w[pos + len(rule.lhs) :]
        _add_scaled(cur.terms, c, {left + t + right: v for t, v in rule.rhs.terms.items()})
        steps.append((c, left, rule, right))


_short_word = st.lists(_letter, max_size=4).map(tuple)
_small_coeff = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)])


@st.composite
def _terminating_rule_dicts(draw, order=HFE):
    """``_rule_dicts`` with right-hand sides of smaller words, so every rewrite terminates."""
    rules = {}
    for rid, rule in draw(_rule_dicts()).items():
        smaller = [u for u in draw(st.lists(_short_word, max_size=3)) if order.key(u) < order.key(rule.lhs)]
        rules[rid] = RewriteRule(rule.lhs, NcPoly({u: draw(_small_coeff) for u in smaller}))
    return rules


# few short words and coefficients of one size, so terms often cancel and come back
_rewrite_polys = st.dictionaries(_short_word, _small_coeff, max_size=6).map(NcPoly)


@settings(max_examples=300, deadline=None)
@given(_terminating_rule_dicts(), _rewrite_polys)
def test_heap_rewrite_matches_sorted_reference(rules, p):
    index = LhsIndex(rules)
    before = dict(p.terms)
    nf, steps = _rewrite(p, rules, HFE, index=index)
    ref_nf, ref_steps = _ref_sorted_rewrite(p, rules, HFE, index)
    assert steps == ref_steps
    assert list(nf.terms.items()) == list(ref_nf.terms.items())
    assert p.terms == before


def test_heap_rewrite_rewrites_a_word_that_cancels_and_comes_back():
    # hh -> -fe cancels the term fe, and hf -> fe brings it back
    rules = {0: RewriteRule(w("hh"), P("- f e")), 1: RewriteRule(w("hf"), P("f e")), 2: RewriteRule(w("fe"), P("e e")), 3: RewriteRule(w("ee"), P("f"))}
    p = P("h h + h f + f e")
    nf, steps = _rewrite(p, rules, HFE)
    assert [rule.lhs for _, _, rule, _ in steps] == [w("hh"), w("hf"), w("fe"), w("ee")]
    assert nf == P("f")
    assert (nf, steps) == _ref_sorted_rewrite(p, rules, HFE, LhsIndex(rules))
