"""Algebra homomorphisms given on generators.

A morphism stores one target element per source generator; extension to
words is forced by multiplicativity.  Well-definedness is checked by
substituting into every source relation.  Kernels are certified rather
than proven for infinite-dimensional sources: candidate generators are
checked degree by degree against the dimension of the image.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from zhuind.algebra import AlgebraHandle, Element, normal_words
from zhuind.freealg import NcPoly, Word
from zhuind.linalg import RowSpace, Vec


@dataclass(frozen=True)
class Violation:
    relation: NcPoly
    residue: NcPoly


@dataclass(frozen=True)
class KernelCertificate:
    generators: tuple[Element, ...]
    status: str  # "exact" | "contained"
    degree: int
    # per degree: (source slice dim, ideal slice dim, image rank)
    table: tuple[tuple[int, int, int], ...]


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

    def apply_word(self, word: Word) -> NcPoly:
        out = NcPoly.one()
        for g in word:
            out = self.target.system.reduce(out * self.images[g].poly)
        return out

    def apply_poly(self, p: NcPoly) -> NcPoly:
        out = NcPoly.zero()
        for w, c in p.terms.items():
            out = out + self.apply_word(w).scale(c)
        return self.target.system.reduce(out)

    def apply(self, el: Element) -> Element:
        if el.algebra is not self.source:
            raise ValueError("element not in the source algebra")
        return Element(self.target, self.apply_poly(el.poly))

    def __repr__(self) -> str:
        return f"<morphism {self.name}>"


def compose(first: AlgebraMorphism, second: AlgebraMorphism, name: str = "") -> AlgebraMorphism:
    """second after first; images of ``first`` pushed through ``second``."""
    if first.target is not second.source:
        raise ValueError("morphisms do not compose")
    images = [Element(second.target, second.apply_poly(el.poly)) for el in first.images]
    return AlgebraMorphism(first.source, second.target, images, name or f"{second.name}o{first.name}")


def check_well_defined(m: AlgebraMorphism) -> list[Violation]:
    """Substitute images into every source relation; empty list means pass."""
    violations = []
    for rel in m.source.presentation.relations:
        residue = m.apply_poly(rel)
        if not residue.is_zero():
            violations.append(Violation(rel, residue))
    return violations


def image_basis(m: AlgebraMorphism) -> list[Element]:
    from zhuind.algebra import subalgebra_basis

    if m.target.basis is None:
        raise ValueError("image basis needs a finite-dimensional target")
    return subalgebra_basis(m.target, list(m.images))


def _image_matrix(m: AlgebraMorphism, words: list[Word]) -> tuple[list[Vec], list[Word]]:
    """Coordinates of morphism images over the target words they touch."""
    images = [m.apply_word(w) for w in words]
    support: list[Word] = sorted({w for img in images for w in img.terms}, key=m.target.system.order.key)
    index = {w: i for i, w in enumerate(support)}
    rows = []
    for img in images:
        row = [Fraction(0)] * len(support)
        for w, c in img.terms.items():
            row[index[w]] = c
        rows.append(row)
    return rows, support


def kernel_basis_finite(m: AlgebraMorphism) -> list[Element]:
    """Nullspace basis of the induced linear map on a finite source."""
    if m.source.basis is None:
        raise ValueError("kernel_basis_finite needs a finite-dimensional source; use certify_kernel")
    rows, _ = _image_matrix(m, m.source.basis)
    from zhuind.linalg import nullspace, transpose

    kernel_vecs = nullspace(transpose(rows))
    return [m.source.from_coords(v) for v in kernel_vecs]


def certify_kernel(m: AlgebraMorphism, candidates: list[Element], degree: int) -> KernelCertificate:
    """Certify that ``candidates`` generate ker(m) up to ``degree``.

    Every candidate must map to zero.  For each d <= degree the dimension
    of the source slice modulo the two-sided ideal spanned by cofactored
    candidates is compared against the rank of the image of that slice;
    equality everywhere upgrades the status from "contained" to "exact"
    (the spanned ideal slice underestimates the true one, so equality is
    conclusive).  The image rank grows with one ``RowSpace`` that takes
    the images of the words of length d at degree d.
    """
    if degree < 0:
        raise ValueError(f"certificate degree must be >= 0, got {degree}")
    for cand in candidates:
        if cand.algebra is not m.source:
            raise ValueError("kernel candidate from a different algebra")
        if not m.apply_poly(cand.poly).is_zero():
            raise ValueError(f"candidate {cand!r} does not map to zero")

    # coordinates in descending monomial order: echelon rows whose pivot
    # falls in a low-degree word are then supported entirely below that
    # degree, so counting them gives the exact ideal-slice dimension
    src_words = sorted(normal_words(m.source, degree), key=m.source.system.order.key, reverse=True)
    by_len: dict[int, list[Word]] = {}
    for w in src_words:
        by_len.setdefault(len(w), []).append(w)

    table: list[tuple[int, int, int]] = []
    exact = True
    index_all = {w: i for i, w in enumerate(src_words)}
    reduce_src = m.source.system.reduce

    def coords(p: NcPoly) -> Vec | None:
        vec = [Fraction(0)] * len(src_words)
        for w, c in p.terms.items():
            if w not in index_all:
                return None
            vec[index_all[w]] = c
        return vec

    ideal = RowSpace(len(src_words))
    added: set[tuple[int, Word, Word]] = set()
    img_rows, support = _image_matrix(m, src_words)
    image = RowSpace(len(support))
    slice_dim = 0

    for d in range(degree + 1):
        for ci, cand in enumerate(candidates):
            cdeg = cand.poly.degree()
            if cdeg < 0:
                continue
            for la in range(0, max(d - cdeg, -1) + 1):
                for lb in range(0, d - cdeg - la + 1):
                    for a in by_len.get(la, []):
                        for b in by_len.get(lb, []):
                            key = (ci, a, b)
                            if key in added:
                                continue
                            added.add(key)
                            prod = reduce_src(cand.poly.sandwich(a, b))
                            vec = coords(prod)
                            if vec is not None:
                                ideal.add(vec)
        slice_dim += len(by_len.get(d, []))
        cutoff = len(src_words) - slice_dim  # slice words occupy the tail columns
        ideal_slice_dim = sum(1 for p in ideal.pivots if p >= cutoff)
        for w, row in zip(src_words, img_rows):
            if len(w) == d:
                image.add(row)
        img_rank = image.dim
        table.append((slice_dim, ideal_slice_dim, img_rank))
        if slice_dim - ideal_slice_dim != img_rank:
            exact = False

    return KernelCertificate(tuple(candidates), "exact" if exact else "contained", degree, tuple(table))
