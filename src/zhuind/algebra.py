"""Presented algebras as usable objects.

An ``AlgebraHandle`` owns a completed rewriting system.  ``dimension``
decides finiteness exactly from its left-hand sides; a system confluent
only to some degree D gives the kind "unknown" (the CLI prints "unknown
beyond degree D" and exits 1) and the constructor never raises.  A finite
handle carries the normal-word basis, and elements move between
polynomial and sparse coordinate form (``Sparse``: basis index -> nonzero
coefficient).  The structure cube ``structure`` and the generator table
``gen_products`` are built on first use and kept.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from zhuind import rewrite
from zhuind.freealg import EPSILON, FrozenRecord, MonomialOrder, NcPoly, Word
from zhuind.linalg import Sparse, linear_combination
from zhuind.rewrite import INFINITE, RewriteSystem


class Presentation(FrozenRecord):
    """Generators, an order on their words and relations; checked when built."""

    __slots__ = ("name", "gen_names", "order", "relations")
    name: str
    gen_names: tuple[str, ...]
    order: MonomialOrder
    relations: tuple[NcPoly, ...]

    def __new__(cls, name: str, gen_names: tuple[str, ...], order: MonomialOrder, relations: tuple[NcPoly, ...]) -> "Presentation":
        if len(set(gen_names)) != len(gen_names):
            raise ValueError("generator names must be unique")
        for r in relations:
            if r.is_zero():
                raise ValueError("relations must be nonzero")
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "gen_names", gen_names)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "relations", relations)
        return self


class CertificateError(Exception):
    """The confluence certificate does not cover the requested degree."""


PROFILE_WINDOW = 8  # an infinite algebra reports its normal-word counts for lengths 0..8


class DimensionResult(NamedTuple):
    kind: str  # "finite" | "unbounded" | "unknown"
    value: int  # the dimension; PROFILE_WINDOW when unbounded; the certificate degree when unknown
    profile: tuple[int, ...]  # normal-word counts per length; empty when unknown

    def is_finite(self) -> bool:
        return self.kind == "finite"


class AlgebraHandle:
    """A presentation together with its completed rewriting system."""

    def __init__(self, presentation: Presentation, system: RewriteSystem):
        self.presentation = presentation
        self.system = system
        self.name = presentation.name
        self.gen_names = presentation.gen_names
        self.dim_result = dimension(self)
        # a finite profile runs past the longest normal word, so these are all the normal words
        self.basis = normal_words(self, len(self.dim_result.profile) - 1) if self.dim_result.is_finite() else None
        self.basis_index = None if self.basis is None else {w: i for i, w in enumerate(self.basis)}

    @staticmethod
    def build(presentation: Presentation, max_degree: int = 12) -> "AlgebraHandle":
        system = rewrite.complete(list(presentation.relations), presentation.order, max_degree)
        return AlgebraHandle(presentation, system)

    # -- elements -------------------------------------------------------

    def element(self, value: "NcPoly | str") -> "Element":
        if isinstance(value, str):
            from zhuind.iolang import parse_poly_text

            value = parse_poly_text(value, self.gen_names)
        return Element(self, self.system.reduce(value))

    def dim(self) -> int | None:
        return len(self.basis) if self.basis is not None else None

    def coords(self, p: NcPoly) -> Sparse:
        """Coordinates of a reduced polynomial over the normal-word basis."""
        if self.basis_index is None:
            raise ValueError(f"{self.name} has no finite basis; coordinates are undefined")
        index = self.basis_index
        return {index[w]: c for w, c in p.terms.items()}

    def from_coords(self, vec: Sparse) -> "Element":
        if self.basis is None:
            raise ValueError(f"{self.name} has no finite basis; coordinates are undefined")
        return Element(self, NcPoly({self.basis[k]: c for k, c in vec.items()}))

    @cached_property
    def structure(self) -> list[list[Sparse]]:
        """``structure[i][j]``: coordinates of basis[i] * basis[j], nonzero entries only.

        Built on first use and kept, so a completion does not pay for the cube.
        """
        if self.basis is None:
            raise ValueError(f"{self.name} has no finite basis; structure constants are undefined")
        return [[self.coords(self.system.reduce_word(wi + wj)) for wj in self.basis] for wi in self.basis]

    def times_basis(self, p: NcPoly) -> list[Sparse]:
        """For each basis index i, the coordinates of ``p * basis[i]`` (``p`` reduced)."""
        coords = self.coords(p)
        return [linear_combination(coords, column) for column in zip(*self.structure)]

    def basis_times(self, p: NcPoly) -> list[Sparse]:
        """For each basis index i, the coordinates of ``basis[i] * p`` (``p`` reduced)."""
        coords = self.coords(p)
        return [linear_combination(coords, row) for row in self.structure]

    @cached_property
    def gen_products(self) -> list[list[Sparse]]:
        """``gen_products[g][i]``: the coordinates of generator g times basis[i].

        Built on first use and kept; it depends only on the structure
        constants, so every morphism into this algebra shares it.
        """
        return [self.times_basis(self.system.reduce(NcPoly.gen(g))) for g in range(len(self.gen_names))]

    def mul_coords(self, a: Sparse, b: Sparse) -> Sparse:
        """Product via structure constants."""
        table = self.structure
        return linear_combination(a, {i: linear_combination(b, table[i]) for i in a})

    def associativity_failures(self) -> list[tuple[int, int, int]]:
        """Basis triples (i, j, k) with ``(e_i e_j) e_k != e_i (e_j e_k)`` in the structure constants.

        Both sides are sums of scaled sparse structure rows, so a triple
        costs the nonzero entries of ``e_i e_j`` and ``e_j e_k``.
        """
        table = self.structure
        columns = list(zip(*table))
        nb = len(table)
        failures = []
        for i in range(nb):
            for j in range(nb):
                ij = table[i][j]
                for k in range(nb):
                    left = linear_combination(ij, columns[k])
                    right = linear_combination(table[j][k], table[i])
                    if left != right:
                        failures.append((i, j, k))
        return failures

    def __repr__(self) -> str:
        d = self.dim()
        return f"<algebra {self.name}: {'dim %d' % d if d is not None else 'infinite-dimensional'}>"


class Element:
    """An algebra element stored in normal form: the owner and its reduced polynomial.

    Arithmetic happens on ``poly``; a product is ``algebra.system.reduce(a.poly * b.poly)``.
    """

    __slots__ = ("algebra", "poly")

    def __init__(self, algebra: AlgebraHandle, poly: NcPoly):
        self.algebra = algebra
        self.poly = poly

    def __repr__(self) -> str:
        from zhuind.iolang import format_poly

        return format_poly(self.poly, self.algebra.gen_names, self.algebra.system.order)


def normal_words(handle: AlgebraHandle, max_len: int) -> list[Word]:
    """All normal words of length at most ``max_len``, in monomial order."""
    cert, needed = handle.system.confluent_to_degree, max_len + handle.system.max_rule_degree
    if cert < needed:
        raise CertificateError(f"{handle.name}: confluence certified to degree {cert}, needed {needed}")
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
    """No left-hand side ends ``word``: one suffix probe per left-hand-side length."""
    index, n = system.lhs_index, len(word)
    for m in index.lengths:  # ascending
        if m > n:
            return True
        if word[n - m :] in index.ids:
            return False
    return True


def dimension(handle: AlgebraHandle) -> DimensionResult:
    """Finiteness decided on the suffix graph of the left-hand sides (Ufnarovski, 1982).

    A normal word's state is its last k letters, k the longest left-hand
    side minus one; they decide which letters may follow.  Level n counts
    the normal words of length n per state.  A state still reached after
    as many steps as there are states lies on a cycle: the algebra is
    infinite, as when a level's state set repeats (each set determines the
    next), which usually ends the walk far sooner.  Only an ``INFINITE``
    certificate makes the rules final; any other gives ``"unknown"``.
    """
    system = handle.system
    if system.confluent_to_degree != INFINITE:
        return DimensionResult("unknown", int(system.confluent_to_degree), ())
    k = max(system.max_rule_degree - 1, 0)
    n_gens = len(handle.gen_names)
    profile: list[int] = []
    level: dict[Word, int] = {EPSILON: 1}
    seen: set[frozenset[Word]] = set()
    # the states are the normal words of length <= k, one path each in the first k + 1 levels; until
    # those are walked every level is nonempty, so the partial count bounds the walk from above
    while level and len(profile) <= max(sum(profile[: k + 1]), PROFILE_WINDOW):
        profile.append(sum(level.values()))
        states = frozenset(level)
        if len(profile) > PROFILE_WINDOW and states in seen:
            break
        seen.add(states)
        nxt: dict[Word, int] = {}
        for state, count in level.items():
            for g in range(n_gens):
                cand = state + (g,)
                if _suffixes_normal(cand, system):
                    tail = cand[1:] if len(cand) > k else cand  # the last k letters
                    nxt[tail] = nxt.get(tail, 0) + count
        level = nxt
    if level:
        return DimensionResult("unbounded", PROFILE_WINDOW, tuple(profile[: PROFILE_WINDOW + 1]))
    profile += [0] * max(PROFILE_WINDOW + 1 - len(profile), 1)  # lengths 0..max(8, longest + 1)
    return DimensionResult("finite", sum(profile), tuple(profile))
