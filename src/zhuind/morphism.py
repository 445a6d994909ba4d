"""Algebra homomorphisms given on generators.

A morphism stores one target element per source generator; extension to
words is forced by multiplicativity.  Well-definedness is checked by
substituting into every source relation.  Kernels are certified rather
than proven for infinite-dimensional sources: candidate generators are
checked degree by degree against the dimension of the image.  The ideal
they span grows one degree at a time as a closure: the rows new at the
previous degree times each generator on each side, plus the candidates
of the current degree.  A product of a row by a generator is summed from
a per-call table of the normal forms of the words times that generator.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from zhuind.algebra import AlgebraHandle, Element, normal_words
from zhuind.freealg import FrozenRecord, NcPoly, Word, _add_scaled
from zhuind.linalg import LazyTable, RowSpace, Sparse, linear_combination


class Violation(NamedTuple):
    relation: NcPoly
    residue: NcPoly


class KernelCertificate(FrozenRecord):
    """What ``certify_kernel`` found; ``products`` is left out of equality and hash."""

    __slots__ = ("status", "degree", "table", "products")
    status: str  # "exact" | "contained"
    degree: int
    # per degree: (source slice dim, ideal slice dim, image rank)
    table: tuple[tuple[int, int, int], ...]
    # ideal rows formed (products and candidates); a work count, not part of the certificate
    products: int

    def __new__(cls, status: str, degree: int, table: tuple[tuple[int, int, int], ...], products: int = 0) -> "KernelCertificate":
        self = object.__new__(cls)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "products", products)
        return self

    def _values(self) -> tuple:
        return (self.status, self.degree, self.table)


class AlgebraMorphism:
    def __init__(self, source: AlgebraHandle, target: AlgebraHandle, images: list[Element], name: str = ""):
        if len(images) != len(source.gen_names):
            raise ValueError("need one image per source generator")
        for el in images:
            if el.algebra is not target:
                raise ValueError("image element lives in the wrong algebra")
        self.source = source
        self.target = target
        self.images = tuple(images)
        self.name = name or f"{source.name}->{target.name}"

    @cached_property
    def image_products(self) -> list[list[Sparse]]:
        """``image_products[g][i]``: target coordinates of ``basis[i] * m(g)``, reduced from the word products.

        Built on first use and kept: it depends only on the images and the
        target's rewriting system, not on any module induced along ``m``.
        """
        target = self.target
        if target.basis is None:
            raise ValueError(f"{target.name} has no finite basis; image products are undefined")
        return [[target.coords(target.system.reduce(el.poly.sandwich(w, ()))) for w in target.basis] for el in self.images]

    def apply_word(self, word: Word) -> NcPoly:
        out = NcPoly.one()
        for g in word:
            out = self.target.system.reduce(out * self.images[g].poly)
        return out

    def apply_poly(self, p: NcPoly) -> NcPoly:
        """The normal form of the image of ``p``: a sum of normal forms, which ``reduce`` would fix term by term."""
        out = NcPoly.zero()
        for w, c in p.terms.items():
            _add_scaled(out.terms, c, self.apply_word(w).terms)
        return out

    def __repr__(self) -> str:
        return f"<morphism {self.name}>"


def compose(first: AlgebraMorphism, second: AlgebraMorphism) -> AlgebraMorphism:
    """second after first; images of ``first`` pushed through ``second``."""
    if first.target is not second.source:
        raise ValueError("morphisms do not compose")
    images = [Element(second.target, second.apply_poly(el.poly)) for el in first.images]
    return AlgebraMorphism(first.source, second.target, images, f"{second.name}o{first.name}")


def check_well_defined(m: AlgebraMorphism) -> list[Violation]:
    """Substitute images into every source relation; empty list means pass."""
    violations = []
    for rel in m.source.presentation.relations:
        residue = m.apply_poly(rel)
        if not residue.is_zero():
            violations.append(Violation(rel, residue))
    return violations


def _image_rows(m: AlgebraMorphism, words: list[Word]) -> tuple[list[Sparse], int]:
    """Sparse coordinates of the images of ``words`` over the target words they touch, and that count.

    The image of ``w + (g,)`` is ``reduce(image(w) * image(g))``, the last
    step of ``apply_word``; every prefix's image is kept, so a set closed
    under prefixes, as normal words are, costs one reduction per word.  A
    word's image is walked forward from its longest known prefix in a loop,
    so a word longer than the interpreter's recursion limit costs no stack.
    """
    reduce_tgt, gen_images = m.target.system.reduce, m.images
    known: dict[Word, NcPoly] = {(): NcPoly.one()}

    def image(w: Word) -> NcPoly:
        k = len(w)
        while w[:k] not in known:
            k -= 1
        img = known[w[:k]]
        for k in range(k, len(w)):
            img = known[w[: k + 1]] = reduce_tgt(img * gen_images[w[k]].poly)
        return img

    images = [image(w) for w in words]
    support: list[Word] = sorted({w for img in images for w in img.terms}, key=m.target.system.order.key)
    index = {w: i for i, w in enumerate(support)}
    return [{index[w]: c for w, c in img.terms.items()} for img in images], len(support)


def kernel_basis_finite(m: AlgebraMorphism) -> list[Element]:
    """Nullspace basis of the induced linear map on a finite source."""
    if m.source.basis is None:
        raise ValueError("kernel_basis_finite needs a finite-dimensional source; use certify_kernel")
    rows, ncols = _image_rows(m, m.source.basis)
    # the kernel is the right kernel of the transposed image matrix
    columns: list[Sparse] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, x in row.items():
            columns[c][i] = x
    space = RowSpace(len(rows))
    for col in columns:
        space.add(col)
    return [m.source.from_coords(v) for v in space.nullspace()]


def certify_kernel(m: AlgebraMorphism, candidates: list[Element], degree: int) -> KernelCertificate:
    """Certify that ``candidates`` generate ker(m) up to ``degree``.

    Every candidate must map to zero.  For each d <= degree the source
    slice (normal words of length <= d) is compared with the ideal slice
    ``I_d``, spanned by the normal forms of ``a·c·b`` for candidates ``c``
    and words with ``|a| + |b| + deg c <= d``, and with the rank of the
    image of the slice.  ``I_d`` lies in the kernel, so ``dim slice -
    dim I_d >= rank`` always, and equality at every d upgrades the status
    from "contained" to "exact".  The image rank grows with one
    ``RowSpace`` that takes the images of the words of length d at degree d.

    ``I_d`` is grown as a closure, not from every sandwich.  Reduction to
    normal form respects products (the diamond lemma, Bergman 1978):
    ``reduce(g·reduce(x)) = reduce(g·x)``.  Peeling one letter off ``a``
    or ``b`` therefore gives, with ``G`` the source generators and ``C_d``
    the candidates of degree d,

        I_d = I_{d-1} + G·I_{d-1} + I_{d-1}·G + C_d,

    and since ``G·I_{d-2}`` and ``I_{d-2}·G`` already lie in ``I_{d-1}``,
    only the rows that grew the ideal at degree d-1 are multiplied by each
    generator on each side.  (``normal_words`` demands confluence past
    ``degree``, where the identity holds.)  Every row added by degree d
    has degree <= d, so the ideal's dimension is the ideal-slice
    dimension; the span at every degree is the one every sandwich gives,
    so the table does not depend on which products are reduced, only on
    the span.  ``products`` counts the ideal rows formed: the products and
    the candidates.  A candidate's coordinates are read from the normal
    form its ``Element`` stores, with no reduction, and a word there that
    is not normal raises ``ValueError``.

    The ideal rows are kept as coordinate vectors over the source words.
    ``reduce`` is linear, so ``g·p`` for a row ``p = sum c_w w`` is
    ``sum c_w reduce_word(g + w)``; the coordinates of ``reduce_word(g +
    w)`` and ``reduce_word(w + g)`` are kept in a table per call, filled
    on first use, and each product is one sparse sum over it, with no
    polynomial built or reduced.
    """
    if degree < 0:
        raise ValueError(f"certificate degree must be >= 0, got {degree}")
    for cand in candidates:
        if cand.algebra is not m.source:
            raise ValueError("kernel candidate from a different algebra")
        if not m.apply_poly(cand.poly).is_zero():
            raise ValueError(f"candidate {cand!r} does not map to zero")

    # columns in descending monomial order, so each echelon row is pivoted
    # at its leading word; ascending columns eliminate about 1.5x slower
    src_words = sorted(normal_words(m.source, degree), key=m.source.system.order.key, reverse=True)
    index = {w: i for i, w in enumerate(src_words)}
    system = m.source.system

    def coords(p: NcPoly) -> Sparse:
        return {index[w]: c for w, c in p.terms.items()}

    def candidate_coords(cand: Element) -> Sparse:
        """The coordinates of the normal form ``cand`` stores: an ``Element`` is reduced, so no ``reduce`` runs."""
        try:
            return coords(cand.poly)
        except KeyError:  # a word that is not normal: the element was built around its invariant
            raise ValueError(f"kernel candidate {cand!r} is not in normal form") from None

    def word_products(left: Word, right: Word) -> LazyTable:
        """Source word index j -> coordinates of ``reduce_word(left + words[j] + right)``, reduced on first use."""
        return LazyTable(lambda j: coords(system.reduce_word(left + src_words[j] + right)))

    # g·w and then w·g of the source words w, for each generator g
    times = [word_products(*sides) for g in range(len(m.source.gen_names)) for sides in (((g,), ()), ((), (g,)))]

    ideal = RowSpace(len(src_words))
    img_rows, support_size = _image_rows(m, src_words)
    image = RowSpace(support_size)
    table: list[tuple[int, int, int]] = []
    grown: list[Sparse] = []  # the rows that grew the ideal at the previous degree
    products = slice_dim = 0

    for d in range(degree + 1):
        # every term has length <= d <= degree, so every word has a column
        prods = [linear_combination(p, products_by) for p in grown for products_by in times]
        prods += [candidate_coords(cand) for cand in candidates if cand.poly.degree() == d]
        products += len(prods)
        grown = [p for p in prods if ideal.add(p)]
        slice_rows = [row for w, row in zip(src_words, img_rows) if len(w) == d]
        slice_dim += len(slice_rows)
        for row in slice_rows:
            image.add(row)
        table.append((slice_dim, ideal.dim, image.dim))

    exact = all(s - i == r for s, i, r in table)
    return KernelCertificate("exact" if exact else "contained", degree, tuple(table), products)
