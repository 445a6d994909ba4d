import copy
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zhuind import algebra, catalog, rewrite
from zhuind.algebra import (
    AlgebraHandle,
    PROFILE_WINDOW,
    CertificateError,
    DimensionResult,
    Presentation,
    normal_words,
)
from zhuind.freealg import MonomialOrder, NcPoly
from zhuind.morphism import AlgebraMorphism
from zhuind.rewrite import INFINITE, CompletionError


def sp(vec):
    return {i: x for i, x in enumerate(vec) if x}


def units(n):
    return [{i: Fraction(1)} for i in range(n)]


def words_of(handle, max_len):
    return {" ".join(handle.gen_names[g] for g in w) or "1" for w in normal_words(handle, max_len)}


def test_normal_words_va1(va1):
    assert words_of(va1, 4) == {"1", "e", "f", "h", "h h"}


def test_normal_words_free_algebra_counts():
    free2 = AlgebraHandle.build(Presentation("free2", ("a", "b"), MonomialOrder((1, 0)), ()))
    assert len(normal_words(free2, 2)) == 7  # 1 + 2 + 4


def test_normal_words_certificate_guard(va1):
    limited = AlgebraHandle(va1.presentation, _recertified(va1.system, 4))
    assert limited.dim_result == DimensionResult("unknown", 4, ())
    assert limited.basis is None
    with pytest.raises(CertificateError):
        normal_words(limited, 6)


def _recertified(system, degree):
    from zhuind.rewrite import RewriteSystem

    return RewriteSystem(system.order, list(system.rules), degree, system.relations)


def test_dimension_finite_values(va1, va2):
    assert va1.dim_result.kind == "finite" and va1.dim_result.value == 5
    assert va2.dim_result.kind == "finite" and va2.dim_result.value == 19


def test_dimension_vp_profile(vp):
    res = vp.dim_result
    assert res.kind == "unbounded"
    # three Cartan words and two root-times-power words per level, stably
    assert res.profile[3:] == tuple([5] * (len(res.profile) - 3))


def test_dimension_vb_profile(vb):
    res = vb.dim_result
    assert res.kind == "unbounded"
    assert res.profile[:3] == (1, 2, 1) and set(res.profile[3:]) == {1}


def _enumerated_profile(handle, length):
    """Normal-word counts for lengths 0..length by enumeration: every extension of a normal word
    is tested for every left-hand side anywhere in it, not only at its end."""
    lhss = [rule.lhs for rule in handle.system.rules]
    layer, counts = [()], [1]
    for _ in range(length):
        layer = [
            w + (g,)
            for w in layer
            for g in range(len(handle.gen_names))
            if not any((w + (g,))[i : i + len(l)] == l for l in lhss for i in range(len(w) + 2 - len(l)))
        ]
        counts.append(len(layer))
    return counts


def _assert_graph_matches_enumeration(handle, n_states_bound):
    """With at most ``n_states_bound`` suffix states a finite algebra has no normal word that long,
    so enumerating to that length (and over the profile window) settles the kind."""
    res = handle.dim_result
    counts = _enumerated_profile(handle, max(n_states_bound, PROFILE_WINDOW))
    if counts[-1]:
        assert res.kind == "unbounded" and handle.basis is None
        assert res.profile == tuple(counts[: PROFILE_WINDOW + 1])
        return None
    longest = max(n for n, c in enumerate(counts) if c)
    assert res.kind == "finite" and res.value == sum(counts) == len(handle.basis)
    assert res.profile == tuple(counts[: max(PROFILE_WINDOW, longest + 1) + 1])
    assert max(len(w) for w in handle.basis) == longest
    return longest


# per generator count, the longest generated left-hand side: the suffix states stay few
# enough that enumerating every normal word to their number is cheap
_LHS_LEN = {1: 6, 2: 3, 3: 2}


@st.composite
def _monomial_antichains(draw):
    n = draw(st.integers(1, 3))
    word = st.lists(st.integers(0, n - 1), min_size=1, max_size=_LHS_LEN[n]).map(tuple)
    words = draw(st.lists(word, min_size=0, max_size=5, unique=True))
    order = MonomialOrder.from_ranking(draw(st.permutations(range(n))))
    pres = Presentation("antichain", tuple("xyz"[:n]), order, tuple(NcPoly.monomial(w) for w in words))
    return pres, sum(n**i for i in range(_LHS_LEN[n]))


@settings(max_examples=60, deadline=None)
@given(_monomial_antichains())
def test_graph_dimension_matches_enumeration_on_monomial_antichains(case):
    pres, n_states_bound = case
    handle = AlgebraHandle.build(pres)
    assert handle.system.confluent_to_degree == INFINITE
    _assert_graph_matches_enumeration(handle, n_states_bound)


def test_a_long_rule_ends_the_walk_at_a_repeated_state_set():
    # about 3^7 suffix states: walking that many levels instead of stopping at the repeat is ~50x slower
    rel = NcPoly.monomial((0, 1, 2) * 2 + (0, 1))
    handle = AlgebraHandle.build(Presentation("long", ("x", "y", "z"), MonomialOrder((2, 1, 0)), (rel,)), max_degree=16)
    assert handle.system.confluent_to_degree == INFINITE
    assert handle.dim_result == DimensionResult("unbounded", PROFILE_WINDOW, tuple(_enumerated_profile(handle, PROFILE_WINDOW)))


def test_dimension_counts_its_states_without_enumerating_normal_words(monkeypatch):
    # one monomial of length 10 over three letters: 3^9 suffix states, which were once built and sorted only to be counted
    calls = []

    def counting(handle, max_len):
        calls.append(max_len)
        return normal_words(handle, max_len)

    monkeypatch.setattr(algebra, "normal_words", counting)
    rel = NcPoly.monomial((0, 1, 2) * 3 + (0,))
    handle = AlgebraHandle.build(Presentation("l", ("x", "y", "z"), MonomialOrder((2, 1, 0)), (rel,)), max_degree=20)
    assert handle.dim_result == DimensionResult("unbounded", PROFILE_WINDOW, tuple(_enumerated_profile(handle, PROFILE_WINDOW)))
    assert calls == []


def _avoiding_counts(n, monomials, max_len):
    """Per length 0..max_len, the words over n letters with no monomial as a factor anywhere.

    The set is closed under factors, so growing only its own words one letter at a time misses none."""
    layer, counts = [()], [1]
    for _ in range(max_len):
        layer = [
            w
            for u in layer
            for w in (u + (g,) for g in range(n))
            if not any(w[i : i + len(m)] == m for m in monomials for i in range(len(w) - len(m) + 1))
        ]
        counts.append(len(layer))
    return counts


@st.composite
def _monomial_presentations(draw):
    """1-3 letters, 1-3 monomials of length 2-4 (one may contain another), a reordering of them and two precedences."""
    n = draw(st.integers(1, 3))
    words = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=4).map(tuple), min_size=1, max_size=3))
    return n, words, draw(st.permutations(words)), draw(st.permutations(range(n))), draw(st.permutations(range(n)))


@settings(max_examples=60, deadline=None)
@given(_monomial_presentations())
@example((2, [(0, 0), (0, 1), (1, 0), (1, 1)], [(1, 1), (1, 0), (0, 1), (0, 0)], [0, 1], [1, 0]))  # dim 3
@example((2, [(0, 0), (1, 1), (0, 1)], [(0, 1), (0, 0), (1, 1)], [0, 1], [1, 0]))  # 1, x, y, y x: dim 4
@example((1, [(0, 0, 0), (0, 0, 0, 0)], [(0, 0, 0, 0), (0, 0, 0)], [0], [0]))  # dim 3
@example((3, [(0, 1, 2, 0)], [(0, 1, 2, 0)], [0, 1, 2], [2, 0, 1]))  # infinite
def test_profile_matches_brute_force_on_monomial_presentations(case):
    n, words, reordered, ranking, other_ranking = case
    gens = tuple("xyz"[:n])
    results = []
    for rels, rank in ((words, ranking), (reordered, other_ranking)):
        pres = Presentation("monomial", gens, MonomialOrder.from_ranking(rank), tuple(NcPoly.monomial(w) for w in rels))
        results.append(AlgebraHandle.build(pres).dim_result)
    res = results[0]
    assert results[1] == res  # neither the relation order nor the precedence moves it
    counts = _avoiding_counts(n, words, PROFILE_WINDOW)
    assert res.profile[: PROFILE_WINDOW + 1] == tuple(counts)
    if counts[-1] == 0:  # no word of length 8, so none longer: the profile is all of it
        assert res == DimensionResult("finite", sum(counts), tuple(counts))
    else:
        assert res.kind in ("finite", "unbounded")


_unit = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(1), Fraction(2)])


@st.composite
def _inhomogeneous_presentations(draw):
    """1-3 letters, 1-3 relations of words of length 0-3, the first of two or more terms; a reordering and two precedences."""
    n = draw(st.integers(1, 3))
    word = st.lists(st.integers(0, n - 1), max_size=3).map(tuple)
    rels = [draw(st.dictionaries(word, _unit, min_size=2, max_size=3))]
    rels += draw(st.lists(st.dictionaries(word, _unit, min_size=1, max_size=3), max_size=2))
    return n, rels, draw(st.permutations(rels)), draw(st.permutations(range(n))), draw(st.permutations(range(n)))


def _dimension_or_error(gens, ranking, rels):
    pres = Presentation("inhomogeneous", gens, MonomialOrder.from_ranking(ranking), tuple(NcPoly(r) for r in rels))
    try:
        return AlgebraHandle.build(pres, max_degree=8).dim_result
    except CompletionError as exc:
        return exc.kind


@settings(max_examples=80, deadline=None)
@given(_inhomogeneous_presentations())
@example((2, [{(1, 0): 1, (0, 1): -1, (): -1}], [{(1, 0): 1, (0, 1): -1, (): -1}], [0, 1], [1, 0]))  # Weyl: 1, 2, 3, ...
@example((2, [{(0, 0): 1, (0,): -1}, {(1, 1): 1, (1,): -1}, {(0, 1): 1, (1, 0): 1}], [{(0, 1): 1, (1, 0): 1}, {(1, 1): 1, (1,): -1}, {(0, 0): 1, (0,): -1}], [0, 1], [1, 0]))  # anticommuting idempotents: 1, x, y
def test_profile_does_not_depend_on_relation_order_or_precedence(case):
    # once the rules are final, the normal words of length <= n are a basis of the degree-n filtration piece
    # whatever deglex precedence found them, though the two completions queue and add rules in different orders
    n, rels, reordered, ranking, other_ranking = case
    gens = tuple("xyz"[:n])
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(rewrite, "RULE_BUDGET", 60)  # keeps the few presentations that blow up cheap
        results = [_dimension_or_error(gens, ranking, rels), _dimension_or_error(gens, other_ranking, reordered)]
    certified = [isinstance(r, DimensionResult) and r.kind != "unknown" for r in results]
    if all(certified):
        assert results[0] == results[1]
    if "inconsistent" in results:  # the algebra is zero, which no certified profile shows
        assert not any(certified)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 12), st.booleans())
def test_graph_dimension_of_a_power(n, minus_a):
    rel = NcPoly.monomial((0,) * n) - (NcPoly.gen(0) if minus_a and n > 1 else NcPoly())
    handle = AlgebraHandle.build(Presentation("pow", ("a",), MonomialOrder((0,)), (rel,)), max_degree=2 * n)
    assert handle.dim_result.value == n
    assert _assert_graph_matches_enumeration(handle, n) == n - 1


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
def test_graph_dimension_of_a_truncated_quantum_plane(a, b, q):
    x, y = NcPoly.gen(0), NcPoly.gen(1)
    rels = (NcPoly.monomial((0,) * a), NcPoly.monomial((1,) * b), y * x - NcPoly.monomial((0, 1), q))
    handle = AlgebraHandle.build(Presentation("plane", ("x", "y"), MonomialOrder.from_ranking([1, 0]), rels))
    states = len(normal_words(handle, handle.system.max_rule_degree - 1))
    assert handle.dim_result.value == a * b
    assert _assert_graph_matches_enumeration(handle, states) == a + b - 2


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_no_generated_presentation_makes_the_constructor_raise(data):
    n = data.draw(st.integers(1, 2))
    term = st.tuples(st.lists(st.integers(0, n - 1), max_size=3).map(tuple), st.integers(-2, 2).filter(bool))
    rels = [NcPoly(dict(ts)) for ts in data.draw(st.lists(st.lists(term, min_size=1, max_size=3), min_size=1, max_size=3))]
    rels = tuple(r for r in rels if not r.is_zero())
    degree = data.draw(st.integers(0, 6))
    pres = Presentation("generated", tuple("xy"[:n]), MonomialOrder.from_ranking(list(range(n))), rels)
    try:
        handle = AlgebraHandle.build(pres, max_degree=degree)
    except CompletionError:
        return  # inconsistent or over budget: bad input, reported as such
    res, cert = handle.dim_result, handle.system.confluent_to_degree
    if cert == INFINITE:
        assert res.kind in ("finite", "unbounded")
        assert (handle.basis is not None) == (res.kind == "finite")
    else:
        assert res == DimensionResult("unknown", cert, ()) and handle.basis is None


def test_mul_matches_rewriting_on_random_pairs(va1, va2):
    rng = random.Random(9)
    for handle in (va1, va2):
        nb = len(handle.basis)
        for _ in range(200):
            a = [Fraction(rng.randint(-2, 2)) for _ in range(nb)]
            b = [Fraction(rng.randint(-2, 2)) for _ in range(nb)]
            via_struct = handle.mul_coords(sp(a), sp(b))
            pa, pb = handle.from_coords(sp(a)), handle.from_coords(sp(b))
            assert handle.coords(handle.system.reduce(pa.poly * pb.poly)) == via_struct


def test_structure_constants_associative_dim5(va1):
    nb = len(va1.basis)
    unit = units(nb)
    for i in range(nb):
        for j in range(nb):
            ij = va1.mul_coords(unit[i], unit[j])
            for k in range(nb):
                assert va1.mul_coords(ij, unit[k]) == va1.mul_coords(unit[i], va1.mul_coords(unit[j], unit[k]))


def _dense_associativity_failures(handle):
    """The triples failing ``(e_i e_j) e_k = e_i (e_j e_k)`` through ``mul_coords`` on unit vectors."""
    nb = len(handle.basis)
    unit = units(nb)
    failures = []
    for i in range(nb):
        for j in range(nb):
            ij = handle.mul_coords(unit[i], unit[j])
            for k in range(nb):
                if handle.mul_coords(ij, unit[k]) != handle.mul_coords(unit[i], handle.mul_coords(unit[j], unit[k])):
                    failures.append((i, j, k))
    return failures


def test_associativity_failures_empty_on_catalog(va1, va2):
    assert va1.associativity_failures() == []
    assert va2.associativity_failures() == []


def test_associativity_failures_catch_one_corrupted_structure_constant(va2):
    broken = copy.copy(va2)
    broken.structure = copy.deepcopy(va2.structure)
    g = va2.gen_names.index
    i, j = va2.basis_index[(g("x_a"),)], va2.basis_index[(g("x_ma"),)]  # x_a x_ma = 1/2 x x + 1/2 x
    k = next(iter(broken.structure[i][j]))
    broken.structure[i][j][k] *= 2
    failures = broken.associativity_failures()
    assert failures
    assert failures == _dense_associativity_failures(broken)
    # the catalog handle itself is untouched
    assert va2.associativity_failures() == []


def test_associativity_failures_need_a_finite_basis():
    vp = catalog.algebra("a_vp")
    with pytest.raises(ValueError):
        vp.associativity_failures()


def test_product_tables_match_mul_coords():
    # gen_products[g][i] = g * basis[i] and image_products[g][i] = basis[i] * m(g), against the structure constants
    finite = [catalog.algebra(a) for a in catalog.ALGEBRA_IDS if catalog.algebra(a).basis is not None]
    assert [h.name for h in finite] == ["a_va1", "a_va2"]
    for handle in finite:
        unit = units(len(handle.basis))
        for g, row in enumerate(handle.gen_products):
            gen = handle.coords(handle.system.reduce(NcPoly.gen(g)))
            assert row == [handle.mul_coords(gen, u) for u in unit]
            assert all(all(p.values()) for p in row)
    for mor_id in catalog.MORPHISM_IDS:
        m = catalog.morphism(mor_id)
        unit = units(len(m.target.basis))
        table = m.image_products
        assert table == [[m.target.mul_coords(u, m.target.coords(el.poly)) for u in unit] for el in m.images]
        assert all(all(p.values()) for row in table for p in row)


def test_image_products_need_a_finite_target(vir):
    into_vir = AlgebraMorphism(vir, vir, [vir.element(name) for name in vir.gen_names], "vir_identity")
    with pytest.raises(ValueError, match="^vir has no finite basis; image products are undefined$"):
        into_vir.image_products


def test_gen_products_built_on_first_use_only():
    fresh = AlgebraHandle(catalog.presentation("a_va1"), catalog.algebra("a_va1").system)
    assert "gen_products" not in vars(fresh)
    table = fresh.gen_products
    assert vars(fresh)["gen_products"] is table
    with pytest.raises(ValueError):
        catalog.algebra("a_vp").gen_products


def test_structure_built_on_first_use_only():
    fresh = AlgebraHandle(catalog.presentation("a_va2"), catalog.algebra("a_va2").system)
    assert "structure" not in vars(fresh)
    table = fresh.structure
    assert vars(fresh)["structure"] is table and table == catalog.algebra("a_va2").structure
    with pytest.raises(ValueError):
        catalog.algebra("a_vp").structure


def test_mul_examples(va1, va2):
    def mul(handle, a, b):
        return handle.system.reduce(handle.element(a).poly * handle.element(b).poly)

    assert mul(va1, "e", "h") == -va1.element("e").poly
    assert mul(va1, "1", "f h h") == va1.element("f h h").poly
    assert mul(va2, "x_a", "x_ma") == va2.element("1/2 x x + 1/2 x").poly


def test_elements_stored_reduced(va1):
    el = va1.element("h h h + e e")
    assert el.poly == va1.element("h").poly


def test_coordinates_need_a_finite_basis(vp):
    # raised, not asserted, so the check survives python -O
    with pytest.raises(ValueError):
        vp.coords(vp.element("x").poly)
    with pytest.raises(ValueError):
        vp.from_coords({0: Fraction(1)})
    with pytest.raises(ValueError):
        vp.mul_coords({0: Fraction(1)}, {0: Fraction(1)})


def dense_mul_coords(handle, a, b):
    """Product over dense structure-constant rows: the reference for mul_coords."""
    n = len(a)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            c = a[i] * b[j]
            if not c:
                continue
            for w, v in handle.system.reduce_word(handle.basis[i] + handle.basis[j]).terms.items():
                out[handle.basis_index[w]] += c * v
    return out


@pytest.mark.parametrize("alg_id", [a for a in catalog.ALGEBRA_IDS if catalog.algebra(a).basis is not None])
def test_mul_coords_matches_dense_reference(alg_id):
    handle = catalog.algebra(alg_id)
    n = len(handle.basis)
    for i in range(n):
        for j in range(n):
            assert all(handle.structure[i][j].values())
    unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rng = random.Random(alg_id)
    vecs = unit + [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4 else Fraction(0) for _ in range(n)] for _ in range(6)]
    for a in vecs:
        for b in vecs:
            assert handle.mul_coords(sp(a), sp(b)) == sp(dense_mul_coords(handle, a, b))
