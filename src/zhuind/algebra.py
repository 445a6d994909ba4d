"""Presented algebras as usable objects.

An ``AlgebraHandle`` owns a completed rewriting system.  When the normal
words thin out to nothing at some length the algebra is finite
dimensional; the handle then carries the normal-word basis and the full
structure-constant cube, and elements can be moved between polynomial and
coordinate form at will.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from zhuind import rewrite
from zhuind.freealg import EPSILON, MonomialOrder, NcPoly, Word
from zhuind.linalg import Sparse, Vec
from zhuind.rewrite import INFINITE, RewriteSystem


@dataclass(frozen=True)
class Presentation:
    name: str
    gen_names: tuple[str, ...]
    order: MonomialOrder
    relations: tuple[NcPoly, ...]

    def __post_init__(self):
        if len(set(self.gen_names)) != len(self.gen_names):
            raise ValueError("generator names must be unique")
        for r in self.relations:
            if r.is_zero():
                raise ValueError("relations must be nonzero")

    def gen_index(self, name: str) -> int:
        return self.gen_names.index(name)


class CertificateError(Exception):
    """The confluence certificate does not cover the requested degree."""


@dataclass(frozen=True)
class DimensionResult:
    kind: str  # "finite" | "unbounded"
    value: int  # dimension, or the probe length reached
    profile: tuple[int, ...]  # normal-word counts per length

    def is_finite(self) -> bool:
        return self.kind == "finite"


class AlgebraHandle:
    """A presentation together with its completed rewriting system."""

    def __init__(self, presentation: Presentation, system: RewriteSystem, probe_len: int = 8):
        self.presentation = presentation
        self.system = system
        self.name = presentation.name
        self.gen_names = presentation.gen_names
        self.basis: list[Word] | None = None
        self.basis_index: dict[Word, int] | None = None
        self.structure: list[list[Sparse]] | None = None
        dim = dimension(self, probe_len)
        self.dim_result = dim
        if dim.is_finite():
            self.basis = normal_words(self, _last_nonempty(dim.profile))
            self.basis_index = {w: i for i, w in enumerate(self.basis)}
            self.structure = self._structure_constants()

    @staticmethod
    def build(presentation: Presentation, max_degree: int = 12, probe_len: int = 8) -> "AlgebraHandle":
        system = rewrite.complete(list(presentation.relations), presentation.order, max_degree)
        return AlgebraHandle(presentation, system, probe_len)

    # -- elements -------------------------------------------------------

    def element(self, value: "NcPoly | str") -> "Element":
        if isinstance(value, str):
            from zhuind.iolang import parse_poly_text

            value = parse_poly_text(value, self.gen_names)
        return Element(self, self.system.reduce(value))

    def one(self) -> "Element":
        return Element(self, NcPoly.one())

    def gen(self, name: str) -> "Element":
        return self.element(NcPoly.gen(self.presentation.gen_index(name)))

    def dim(self) -> int | None:
        return len(self.basis) if self.basis is not None else None

    def coords(self, p: NcPoly) -> Vec:
        """Coordinates of a reduced polynomial over the normal-word basis."""
        if self.basis_index is None:
            raise ValueError(f"{self.name} has no finite basis; coordinates are undefined")
        vec = [Fraction(0)] * len(self.basis_index)
        for w, c in p.terms.items():
            vec[self.basis_index[w]] = c
        return vec

    def from_coords(self, vec: Vec) -> "Element":
        if self.basis is None:
            raise ValueError(f"{self.name} has no finite basis; coordinates are undefined")
        return Element(self, NcPoly({w: Fraction(c) for w, c in zip(self.basis, vec) if c}))

    def _structure_constants(self) -> list[list[Sparse]]:
        """``structure[i][j]``: coordinates of basis[i] * basis[j], nonzero entries only."""
        assert self.basis is not None and self.basis_index is not None
        index = self.basis_index
        return [
            [{index[w]: c for w, c in self.system.reduce_word(wi + wj).terms.items()} for wj in self.basis]
            for wi in self.basis
        ]

    def mul_coords(self, a: Vec, b: Vec) -> Vec:
        """Product via structure constants."""
        if self.structure is None:
            raise ValueError(f"{self.name} has no finite basis; structure constants are undefined")
        out = [Fraction(0)] * len(a)
        b_nz = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if not x:
                continue
            row = self.structure[i]
            for j, y in b_nz:
                c = x * y
                for k, v in row[j].items():
                    out[k] += c * v
        return out

    def __repr__(self) -> str:
        d = self.dim()
        return f"<algebra {self.name}: {'dim %d' % d if d is not None else 'infinite-dimensional'}>"


class Element:
    """An algebra element stored in normal form; equality is syntactic."""

    __slots__ = ("algebra", "poly")

    def __init__(self, algebra: AlgebraHandle, poly: NcPoly):
        self.algebra = algebra
        self.poly = poly

    def _check(self, other: "Element") -> None:
        if other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, self.poly + other.poly)

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, self.poly - other.poly)

    def __mul__(self, other: "Element | Fraction | int") -> "Element":
        if isinstance(other, (Fraction, int)):
            return Element(self.algebra, self.poly.scale(other))
        self._check(other)
        return Element(self.algebra, self.algebra.system.reduce(self.poly * other.poly))

    def __rmul__(self, other: "Fraction | int") -> "Element":
        return Element(self.algebra, self.poly.scale(other))

    def __neg__(self) -> "Element":
        return Element(self.algebra, -self.poly)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Element) and other.algebra is self.algebra and other.poly == self.poly

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.poly))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __repr__(self) -> str:
        return self.poly.format(self.algebra.gen_names, self.algebra.system.order)


def _require_certificate(handle: AlgebraHandle, needed: float) -> None:
    cert = handle.system.confluent_to_degree
    if cert != INFINITE and cert < needed:
        raise CertificateError(
            f"{handle.name}: confluence certified to degree {cert}, needed {needed}"
        )


def normal_words(handle: AlgebraHandle, max_len: int) -> list[Word]:
    """All normal words of length at most ``max_len``, in monomial order."""
    _require_certificate(handle, max_len + handle.system.max_rule_degree)
    n_gens = len(handle.gen_names)
    system = handle.system
    out: list[Word] = [EPSILON]
    layer: list[Word] = [EPSILON]
    for _ in range(max_len):
        nxt = []
        for w in layer:
            for g in range(n_gens):
                cand = w + (g,)
                # the proper prefix is normal, so only suffixes need checking
                if _suffixes_normal(cand, system):
                    nxt.append(cand)
        layer = nxt
        out.extend(layer)
    out.sort(key=handle.system.order.key)
    return out


def _suffixes_normal(word: Word, system: RewriteSystem) -> bool:
    for rule in system.rules:
        m = len(rule.lhs)
        if m <= len(word) and word[len(word) - m :] == rule.lhs:
            return False
    return True


def dimension(handle: AlgebraHandle, probe_len: int) -> DimensionResult:
    """Finiteness detection by an empty normal-word length level.

    Subword closure of normal words makes one empty level conclusive:
    any longer normal word would contain a normal subword of that length.
    """
    words = normal_words(handle, probe_len)
    profile = [0] * (probe_len + 1)
    for w in words:
        profile[len(w)] += 1
    for length, count in enumerate(profile):
        if count == 0:
            return DimensionResult("finite", sum(profile[:length]), tuple(profile))
    return DimensionResult("unbounded", probe_len, tuple(profile))


def _last_nonempty(profile: tuple[int, ...]) -> int:
    last = 0
    for length, count in enumerate(profile):
        if count:
            last = length
    return last


def subalgebra_basis(handle: AlgebraHandle, gens: list[Element]) -> list[Element]:
    """Linear basis of the unital subalgebra generated by ``gens``.

    Span closure under right multiplication by the generators, starting
    from the identity; valid only for finite-dimensional handles.
    """
    if handle.basis is None:
        raise ValueError(f"{handle.name} is not finite-dimensional")
    from zhuind.linalg import RowSpace

    span = RowSpace(len(handle.basis))
    picked: list[Element] = []
    queue: list[Element] = [handle.one()]
    for g in gens:
        if g.algebra is not handle:
            raise ValueError("generator from a different algebra")
    index = handle.basis_index
    while queue:
        el = queue.pop(0)
        if not span.add({index[w]: c for w, c in el.poly.terms.items()}):
            continue
        picked.append(el)
        for g in gens:
            queue.append(el * g)
    return picked
