import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhuind import catalog
from zhuind.algebra import AlgebraHandle, Presentation
from zhuind.freealg import EPSILON, MonomialOrder, NcPoly
from zhuind.iolang import parse_poly_text
from zhuind.rewrite import (
    INFINITE,
    CompletionError,
    RewriteRule,
    RewriteSystem,
    _find_redex,
    _reduce_traced,
    _rewrite,
    _scale_trace,
    _shift_trace,
    complete,
    confluence_fuzz,
    expand_trace,
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
        Presentation("va2_relonly", full.gen_names, full.order, tuple(quotient_only)), max_degree=8, probe_len=4
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
            assert va2.system.is_normal_word(word)


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


def _ref_reduce_traced(p, rules, order):
    trace = []
    cur = p
    while True:
        hit = None
        for w in sorted(cur.terms, key=order.key, reverse=True):
            found = _find_redex(w, rules)
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
            found = _find_redex(w, system._rule_dict)
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
            nf, trace = _reduce_traced(p, system._rule_dict, system.order)
            assert (nf, trace) == (ref_nf, ref_trace)
            assert list(nf.terms.items()) == list(ref_nf.terms.items())
            assert system.reduce_traced(p) == (ref_nf, ref_trace)
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
        found = _find_redex(word, system._rule_dict)
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
        ref = NcPoly.zero()
        for c, left, idx, right in trace:
            ref = ref + h.presentation.relations[idx].sandwich(left, right, c)
        assert list(expand_trace(h.presentation.relations, trace).terms.items()) == list(ref.terms.items())
