"""Terms of the free associative algebra over the rationals.

Words are tuples of generator indices (the empty tuple is the identity),
polynomials are finite maps from words to nonzero ``Fraction`` values, and
the only monomial order is degree-lexicographic with a per-presentation
precedence on generators.  Everything here is immutable and pure.
``NcPoly.sandwich`` forms one rewrite step's ``left * p * right``
without the general product.  ``_add_scaled`` is the one sparse
accumulate loop: it adds a scaled term map to another in place, and the
polynomial sum, difference and product, the rewriting layer and every
sparse vector sum in ``linalg`` go through it.  Its values may be ``int``
(the integer rows of ``linalg.RowSpace``) or ``Fraction``; ``c == 0``
is a no-op, and a new key may store the caller's own value object,
which is safe because both types are immutable.

The package's records are of two kinds.  Cold value records are
``typing.NamedTuple`` classes, like ``MonomialOrder``.  Records whose
fields are read in hot loops (a NamedTuple field read costs about twice a
slot read), or that validate or leave a field out of equality, derive
from ``FrozenRecord``: fields in ``__slots__``, set once in ``__new__``,
with value equality, hash and repr.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

Word = tuple[int, ...]
EPSILON: Word = ()


class FrozenRecord:
    """Base of the slot records: equality, hash and repr over ``_values()``, no assignment.

    A subclass lists its fields in ``__slots__`` (annotated in the class
    body) and sets them in ``__new__`` with ``object.__setattr__``, so a
    record is complete when it exists, and perfbench's tracer, which wraps
    each class's ``__init__`` in a span, counts building one as its
    caller's time.  ``_values()`` is every field in slot order unless a
    subclass leaves one out of equality.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


class MonomialOrder(NamedTuple):
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


def _add_scaled(acc: dict, c: Fraction | int, terms: dict) -> None:
    """``acc += c * terms`` in place, for maps to nonzero ``int`` or ``Fraction`` values.

    A key already in ``acc`` keeps its place, a new key is appended and a
    key that cancels is removed, exactly as ``acc + terms.scale(c)`` orders
    its terms.  ``c == 0`` (or no terms) leaves ``acc`` as it is, before
    any per-term work.  A new key stores ``x * c``, or, when ``c == 1``,
    the value object ``x`` of ``terms`` itself (``int`` and ``Fraction``
    are immutable), so no value is ever added to 0 and no zero is stored.
    """
    if not terms or not c:
        return
    unit = c == 1
    for k, x in terms.items():
        if not unit:
            x = x * c
        y = acc.get(k)
        if y is None:
            acc[k] = x
        else:
            y = y + x
            if y:
                acc[k] = y
            else:
                del acc[k]


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
                    # Fraction is immutable, so a value that already is one is kept, not rebuilt
                    cleaned[w] = c if type(c) is Fraction else Fraction(c)
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
        out = NcPoly()
        out.terms = dict(self.terms)
        _add_scaled(out.terms, 1, other.terms)
        return out

    def __neg__(self) -> "NcPoly":
        out = NcPoly()
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        out = NcPoly()
        out.terms = dict(self.terms)
        _add_scaled(out.terms, -1, other.terms)
        return out

    def scale(self, c: Fraction | int) -> "NcPoly":
        c = Fraction(c)
        out = NcPoly()
        if c:
            out.terms = {w: c * v for w, v in self.terms.items()}
        return out

    def sandwich(self, left: Word, right: Word) -> "NcPoly":
        """``left * self * right`` for words ``left`` and ``right``.

        Distinct words stay distinct, so nothing cancels and the terms keep
        the order of the general product.
        """
        out = NcPoly()
        out.terms = {left + w + right: v for w, v in self.terms.items()}
        return out

    def __mul__(self, other: "NcPoly | Fraction | int") -> "NcPoly":
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        out = NcPoly()
        for w1, c1 in self.terms.items():
            _add_scaled(out.terms, c1, {w1 + w2: c2 for w2, c2 in other.terms.items()})
        return out

    def __rmul__(self, other: "Fraction | int") -> "NcPoly":
        return self.scale(other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NcPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"NcPoly({self.terms!r})"
