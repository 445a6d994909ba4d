import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zhuind.freealg import EPSILON, MonomialOrder, NcPoly, _add_scaled, scalar
from zhuind.iolang import parse_poly_text

GENS = ("e", "f", "h")
# precedence h > f > e, as in the op examples
HFE = MonomialOrder.from_ranking([2, 1, 0])


def P(text):
    return parse_poly_text(text, GENS)


def w(text):
    return tuple(GENS.index(c) for c in text)


# -- the order, compared on MonomialOrder.key ------------------------------

K = HFE.key


def test_cmp_identity():
    assert K(EPSILON) == K(EPSILON)
    assert K(EPSILON) < K(w("e"))


def test_cmp_shorter_smaller():
    assert K(w("e")) < K(w("eh"))


def test_cmp_letterwise_at_equal_length():
    # with h > f > e: "hh" > "fe"
    assert K(w("hh")) > K(w("fe"))


def test_cmp_total_and_multiplicative():
    rng = random.Random(1)
    words = [tuple(rng.randrange(3) for _ in range(rng.randint(0, 4))) for _ in range(60)]
    for a in words:
        for b in words:
            ka, kb = K(a), K(b)
            assert (ka < kb) + (ka == kb) + (ka > kb) == 1
            if ka == kb:
                assert a == b
            if ka < kb:
                left, right = words[0], words[1]
                assert K(left + a + right) < K(left + b + right)
    for a in words:
        for b in words:
            for c in words:
                if K(a) <= K(b) and K(b) <= K(c):
                    assert K(a) <= K(c)


# -- arithmetic ----------------------------------------------------------


def test_add_cancellation():
    assert P("e h + e") + P("- e") == P("e h")


def test_add_identity():
    p = P("h h - 2 f e")
    assert p + NcPoly.zero() == p


def test_add_term_merge():
    assert P("h h - h") + P("h - 2 f e") == P("h h - 2 f e")


def test_mul_concatenates():
    assert P("e") * P("h") == P("e h")


def test_mul_distributes():
    assert P("e + f") * P("h") == P("e h + f h")


def test_mul_noncommutative():
    assert P("h") * P("e") != P("e") * P("h")
    assert P("h") * P("e") == P("h e")


def test_leading_term_deglex():
    word, coeff = P("h h - h - 2 f e").leading_term(HFE)
    assert word == w("hh") and coeff == 1


def test_leading_term_single():
    assert P("e").leading_term(HFE) == (w("e"), Fraction(1))


def test_leading_term_coefficient_arithmetic():
    assert P("3/2 e f - e f").leading_term(HFE) == (w("ef"), Fraction(1, 2))


def test_leading_term_zero_errors():
    with pytest.raises(ValueError):
        NcPoly.zero().leading_term(HFE)


# -- ring axioms (property-based) -----------------------------------------

_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_word = st.lists(st.integers(0, 2), min_size=0, max_size=4).map(tuple)
_poly = st.dictionaries(_word, _coeff, max_size=4).map(NcPoly)


@settings(max_examples=60, deadline=None)
@given(_poly, _poly, _poly)
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p * NcPoly.one() == p
    assert NcPoly.one() * p == p
    assert p + q == q + p


@settings(max_examples=60, deadline=None)
@given(_poly, _word, _word)
def test_sandwich_is_the_triple_product(p, a, b):
    expected = NcPoly.monomial(a) * p * NcPoly.monomial(b)
    got = p.sandwich(a, b)
    assert got == expected
    assert list(got.terms.items()) == list(expected.terms.items())


@settings(max_examples=60, deadline=None)
@given(_poly)
def test_no_zero_terms_stored(p):
    assert all(c != 0 for c in p.terms.values())
    assert (p - p).is_zero()


# -- the sparse accumulate kernel against its reference loop ----------------


def _ref_add_scaled(acc, c, terms):
    """``acc += c * terms`` as ``_add_scaled`` was first written: the reference."""
    for k, x in terms.items():
        y = acc.get(k, 0) + c * x
        if y:
            acc[k] = y
        else:
            acc.pop(k, None)


_nonzero_int = st.integers(-6, 6).filter(bool)
_nonzero_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
# 0, 1 and -1 as int and as Fraction, any int, any Fraction
_scalar = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def _accumulations(draw):
    """``(acc, c, terms)`` with few keys, so keys overlap; some of ``acc`` cancels ``c * terms`` exactly.

    The values are ``int`` (as in the integer rows of ``linalg.RowSpace``) or
    ``Fraction``.
    """
    value = draw(st.sampled_from([_nonzero_int, _nonzero_fraction]))
    keys = st.integers(0, 7)
    acc = draw(st.dictionaries(keys, value, max_size=6))
    c = draw(_scalar)
    terms = draw(st.dictionaries(keys, value, max_size=6))
    if c:
        for k in draw(st.sets(st.sampled_from(sorted(terms)), max_size=len(terms)) if terms else st.just(set())):
            acc[k] = -c * terms[k]
    return acc, c, terms


@settings(max_examples=400, deadline=None)
@given(_accumulations())
@example(({0: 2, 1: 3}, 0, {0: 5, 2: 7}))
@example(({0: 2, 1: 3}, 1, {2: 7, 1: -3, 0: 1}))
@example(({0: Fraction(3), 2: Fraction(7)}, Fraction(-1, 7), {2: Fraction(49), 3: Fraction(14)}))
@example(({0: Fraction(1, 2)}, -1, {1: Fraction(1, 3), 0: Fraction(1, 2)}))
def test_add_scaled_matches_reference_loop(case):
    acc, c, terms = case
    ref = dict(acc)
    _ref_add_scaled(ref, c, terms)
    terms_before = dict(terms)
    _add_scaled(acc, c, terms)
    # item lists, so the key order is compared too
    assert list(acc.items()) == list(ref.items())
    assert all(x != 0 for x in acc.values())
    assert terms == terms_before


def test_rational_arithmetic_exact():
    rng = random.Random(7)
    for _ in range(1000):
        a, b = rng.randint(-99, 99), rng.randint(1, 99)
        c, d = rng.randint(-99, 99), rng.randint(1, 99)
        total = Fraction(a, b) + Fraction(c, d)
        assert total * (b * d) == a * d + c * b


# -- exact scalars: int when integral, Fraction otherwise, never a float ---------------


def test_scalar_normalises_integral_values_to_int():
    assert type(scalar(3)) is int and scalar(3) == 3
    assert type(scalar(Fraction(-4, 2))) is int and scalar(Fraction(-4, 2)) == -2
    assert type(scalar(Fraction(1, 2))) is Fraction
    half = Fraction(1, 2)
    assert scalar(half) is half  # a non-integral Fraction is kept, not rebuilt


def test_constructors_store_integral_coefficients_as_int():
    p = NcPoly({(0,): Fraction(2), (1,): Fraction(1, 3), (): Fraction(0)})
    assert p.terms == {(0,): 2, (1,): Fraction(1, 3)}
    assert type(p.terms[(0,)]) is int and type(p.terms[(1,)]) is Fraction
    for q in (NcPoly.one(), NcPoly.gen(1), NcPoly.monomial((0, 1)), NcPoly.monomial((0,), Fraction(-3)), P("2 e f - 3 h")):
        assert all(type(c) is int for c in q.terms.values()), q
    assert all(type(c) is int for c in P("e f - h").scale(Fraction(-2)).terms.values())


@pytest.mark.parametrize("value", [0.1, 0.5, 1.0, 0.0, -2.0])
def test_binary_floats_are_refused_where_scalars_enter(value):
    p = P("e f - h")
    with pytest.raises(TypeError, match="float"):
        NcPoly({(0,): value})
    with pytest.raises(TypeError, match="float"):
        NcPoly.monomial((0,), value)
    with pytest.raises(TypeError, match="float"):
        p.scale(value)
    with pytest.raises(TypeError, match="float"):
        p * value
    with pytest.raises(TypeError, match="float"):
        value * p
