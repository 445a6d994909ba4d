"""Terms of the free associative algebra over the rationals.

Words are tuples of generator indices (the empty tuple is the identity),
polynomials are finite maps from words to nonzero ``Fraction`` values, and
the only monomial order is degree-lexicographic with a per-presentation
precedence on generators.  Everything here is immutable and pure.
``NcPoly.sandwich`` forms one rewrite step's ``c * left * p * right``
without the general product, and ``_add_scaled`` accumulates a linear
combination of term maps in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Word = tuple[int, ...]
EPSILON: Word = ()

LESS, EQUAL, GREATER = -1, 0, 1


@dataclass(frozen=True)
class MonomialOrder:
    """Degree-lexicographic order given by a precedence vector.

    ``precedence[g]`` is the rank of generator ``g``; larger rank means a
    greater letter.  Shorter words always come first, equal lengths are
    compared letterwise.  This order is total, multiplicative and has no
    infinite descending chains.
    """

    precedence: tuple[int, ...]

    @staticmethod
    def from_ranking(ranked_gens: list[int] | tuple[int, ...]) -> "MonomialOrder":
        """Build an order from generator indices listed greatest first."""
        prec = [0] * len(ranked_gens)
        for rank, g in enumerate(reversed(ranked_gens)):
            prec[g] = rank
        return MonomialOrder(tuple(prec))

    def key(self, w: Word) -> tuple:
        return (len(w), tuple(self.precedence[g] for g in w))


def _add_scaled(acc: dict, c: Fraction, terms: dict) -> None:
    """``acc += c * terms`` in place, for any maps to ``Fraction``.

    A key already in ``acc`` keeps its place, a new key is appended and a
    key that cancels is removed, exactly as ``acc + terms.scale(c)`` orders
    its terms.
    """
    for k, x in terms.items():
        y = acc.get(k, 0) + c * x
        if y:
            acc[k] = y
        else:
            acc.pop(k, None)


def word_cmp(order: MonomialOrder, a: Word, b: Word) -> int:
    """Compare two words under ``order``; returns -1, 0 or 1."""
    ka, kb = order.key(a), order.key(b)
    if ka < kb:
        return LESS
    if ka > kb:
        return GREATER
    return EQUAL


class NcPoly:
    """A noncommutative polynomial with exact rational coefficients.

    Stored as a map from words to nonzero coefficients; two polynomials are
    equal iff the maps are equal.  Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, Fraction] | None = None):
        cleaned: dict[Word, Fraction] = {}
        if terms:
            for w, c in terms.items():
                if c:
                    cleaned[w] = Fraction(c)
        self.terms = cleaned

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "NcPoly":
        return NcPoly()

    @staticmethod
    def one() -> "NcPoly":
        return NcPoly({EPSILON: Fraction(1)})

    @staticmethod
    def monomial(word: Word, coeff: Fraction | int = 1) -> "NcPoly":
        return NcPoly({tuple(word): Fraction(coeff)})

    @staticmethod
    def gen(index: int) -> "NcPoly":
        return NcPoly({(index,): Fraction(1)})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return not self.terms or set(self.terms) == {EPSILON}

    def coeff(self, word: Word) -> Fraction:
        return self.terms.get(tuple(word), Fraction(0))

    def support(self) -> list[Word]:
        return list(self.terms)

    def degree(self) -> int:
        """Length of the longest word, -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def leading_term(self, order: MonomialOrder) -> tuple[Word, Fraction]:
        """The order-maximal word with its coefficient.  Errors on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        w = max(self.terms, key=order.key)
        return w, self.terms[w]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "NcPoly") -> "NcPoly":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w, Fraction(0)) + c
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
        out = NcPoly()
        out.terms = terms
        return out

    def __neg__(self) -> "NcPoly":
        out = NcPoly()
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def scale(self, c: Fraction | int) -> "NcPoly":
        c = Fraction(c)
        out = NcPoly()
        if c:
            out.terms = {w: c * v for w, v in self.terms.items()}
        return out

    def sandwich(self, left: Word, right: Word, c: Fraction | int = 1) -> "NcPoly":
        """``c * left * self * right`` for words ``left`` and ``right``.

        Distinct words stay distinct, so nothing cancels and the terms keep
        the order of the general product.
        """
        out = NcPoly()
        if c:
            out.terms = {left + w + right: c * v for w, v in self.terms.items()}
        return out

    def __mul__(self, other: "NcPoly | Fraction | int") -> "NcPoly":
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        terms: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = terms.get(w, Fraction(0)) + c1 * c2
                if s:
                    terms[w] = s
                else:
                    terms.pop(w, None)
        out = NcPoly()
        out.terms = terms
        return out

    def __rmul__(self, other: "Fraction | int") -> "NcPoly":
        return self.scale(other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NcPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- display ------------------------------------------------------

    def format(self, gen_names: list[str] | tuple[str, ...], order: MonomialOrder | None = None) -> str:
        """Render with named generators, terms in descending order."""
        if not self.terms:
            return "0"
        words = sorted(self.terms, key=order.key if order else None, reverse=order is not None)
        parts: list[str] = []
        for i, w in enumerate(words):
            c = self.terms[w]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = " ".join(gen_names[g] for g in w) if w else "1"
            if w and mag == 1:
                chunk = body
            elif w:
                chunk = f"{mag} {body}"
            else:
                chunk = str(mag)
            if i == 0:
                parts.append(chunk if sign == "+" else f"-{chunk}")
            else:
                parts.append(f"{sign} {chunk}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"NcPoly({self.terms!r})"

