"""Finite-dimensional left modules as generator action matrices.

A module over a presented algebra is one rational matrix per generator;
``check_module`` substitutes the actions into every relation of the
owner.  Hom spaces are computed exactly as intertwiner nullspaces, and
semisimple decompositions read multiplicities off hom dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from zhuind.algebra import AlgebraHandle
from zhuind.freealg import NcPoly, Word
from zhuind.linalg import Mat, RowSpace, Sparse, identity, mat_mul, zeros


class FinModule:
    """A module given by one action matrix per generator of ``owner``.

    The actions are fixed after construction.  ``action_of_word`` keeps the
    action of every word it has computed, in a prefix tree: a word costs
    one matrix product per letter past its longest known prefix.  The
    matrices it returns are shared between callers and must not be mutated.
    """

    def __init__(self, owner: AlgebraHandle, dim: int, actions: dict[int, Mat], label: str = ""):
        self.owner = owner
        self.dim = dim
        self.actions = {}
        for g in range(len(owner.gen_names)):
            mat = actions.get(g)
            if mat is None:
                mat = zeros(dim, dim)
            if len(mat) != dim or any(len(row) != dim for row in mat):
                raise ValueError(f"action of {owner.gen_names[g]} must be {dim}x{dim}")
            # Fraction is immutable, so an entry that already is one is shared, not rebuilt
            self.actions[g] = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in mat]
        self.label = label or f"{owner.name}-module(dim {dim})"
        # prefix tree of word actions: node = (action of the word, {letter: child node})
        self._word_actions: tuple[Mat, dict] = (identity(dim), {})

    @staticmethod
    def from_named_actions(owner: AlgebraHandle, dim: int, named: dict[str, Mat], label: str = "") -> "FinModule":
        actions = {owner.presentation.gen_index(name): mat for name, mat in named.items()}
        return FinModule(owner, dim, actions, label)

    def action_of_word(self, word: Word) -> Mat:
        """The action of ``word``: shared and read-only (see the class docstring)."""
        node = self._word_actions
        for g in word:
            children = node[1]
            if g not in children:
                children[g] = (mat_mul(node[0], self.actions[g]), {})
            node = children[g]
        return node[0]

    def evaluate(self, p: NcPoly) -> Mat:
        out = zeros(self.dim, self.dim)
        for w, c in p.terms.items():
            if not c:
                continue
            for out_row, row in zip(out, self.action_of_word(w)):
                for k, x in enumerate(row):
                    if x:
                        out_row[k] += c * x
        return out

    def __repr__(self) -> str:
        return f"<module {self.label} over {self.owner.name}, dim {self.dim}>"


@dataclass(frozen=True)
class HomBasis:
    source: FinModule
    target: FinModule
    basis: tuple[Mat, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class DecompositionRecord:
    entries: tuple[tuple[str, int], ...]  # (irreducible label, multiplicity >= 1)
    residual: int

    def as_dict(self) -> dict[str, int]:
        return dict(self.entries)

    def total_dim(self, dims: dict[str, int]) -> int:
        return sum(m * dims[lbl] for lbl, m in self.entries) + self.residual

    def __str__(self) -> str:
        if not self.entries and self.residual == 0:
            return "0"
        body = " + ".join(f"{lbl}:{m}" for lbl, m in self.entries)
        return body + (f" (residual {self.residual})" if self.residual else "")


def check_module(module: FinModule) -> list[NcPoly]:
    """Relations of the owner that fail to act as zero (empty list = pass)."""
    bad = []
    for rel in module.owner.presentation.relations:
        if any(x for row in module.evaluate(rel) for x in row):
            bad.append(rel)
    return bad


def hom_space(source: FinModule, target: FinModule) -> HomBasis:
    """All intertwiners T with T.rho_source(g) = rho_target(g).T."""
    if source.owner is not target.owner:
        raise ValueError("hom spaces need a common owner algebra")
    n, m = target.dim, source.dim
    if n * m == 0:
        return HomBasis(source, target, ())
    # unknowns T[i][j] flattened as i*m + j; one equation per (g, i, j)
    space = RowSpace(n * m)
    for g in source.actions:
        a = target.actions[g]
        b = source.actions[g]
        for i in range(n):
            a_row = [(k, x) for k, x in enumerate(a[i]) if x]
            for j in range(m):
                row = {i * m + k: b[k][j] for k in range(m) if b[k][j]}
                for k, x in a_row:
                    row[k * m + j] = row.get(k * m + j, 0) - x
                space.add(row)
    zero = Fraction(0)
    mats = [[[v.get(i * m + j, zero) for j in range(m)] for i in range(n)] for v in space.nullspace()]
    return HomBasis(source, target, tuple(mats))


def decompose(module: FinModule, irreducibles: list[FinModule]) -> DecompositionRecord:
    """Multiplicity record over pairwise non-isomorphic irreducibles.

    multiplicity(L) = dim Hom(L, module); a nonzero residual flags either
    a non-semisimple owner or an incomplete irreducible list.
    """
    entries = []
    used = 0
    for irr in irreducibles:
        mult = hom_space(irr, module).dim
        if mult:
            entries.append((irr.label, mult))
            used += mult * irr.dim
    return DecompositionRecord(tuple(entries), module.dim - used)


def _act(mat: Mat, v: Sparse) -> Sparse:
    """mat . v for a sparse vector, nonzero entries only."""
    out = {}
    for i, row in enumerate(mat):
        y = sum(row[j] * x for j, x in v.items())
        if y:
            out[i] = y
    return out


def submodule_closure(module: FinModule, seeds: list[Sparse]) -> RowSpace:
    """Smallest action-stable subspace containing the seeds."""
    space = RowSpace(module.dim)
    queue = list(seeds)
    while queue:
        v = queue.pop()
        if not space.add(v):
            continue
        for mat in module.actions.values():
            queue.append(_act(mat, v))
    return space


def quotient_module(module: FinModule, space: RowSpace, label: str = "") -> FinModule:
    """Quotient by an action-stable subspace of the module (left unchanged), in complement coordinates."""
    subs = space.basis()
    for mat in module.actions.values():
        for v in subs:
            if not space.contains(_act(mat, v)):
                raise ValueError("subspace is not action-stable")
    comp = space.complement_columns()
    qdim = len(comp)
    # a reduced vector is zero at every pivot, so its entries sit in complement columns
    pos = {i: row_idx for row_idx, i in enumerate(comp)}
    new_actions: dict[int, Mat] = {}
    for g, mat in module.actions.items():
        q = zeros(qdim, qdim)
        for col_idx, j in enumerate(comp):
            for i, x in space.reduce({i: row[j] for i, row in enumerate(mat)}).items():
                q[pos[i]][col_idx] = x
        new_actions[g] = q
    return FinModule(module.owner, qdim, new_actions, label or f"{module.label}/sub")


def direct_sum(a: FinModule, b: FinModule, label: str = "") -> FinModule:
    if a.owner is not b.owner:
        raise ValueError("direct sum needs a common owner")
    dim = a.dim + b.dim
    actions: dict[int, Mat] = {}
    for g in a.actions:
        mat = zeros(dim, dim)
        for i in range(a.dim):
            for j in range(a.dim):
                mat[i][j] = a.actions[g][i][j]
        for i in range(b.dim):
            for j in range(b.dim):
                mat[a.dim + i][a.dim + j] = b.actions[g][i][j]
        actions[g] = mat
    return FinModule(a.owner, dim, actions, label or f"{a.label}+{b.label}")


def regular_module(handle: AlgebraHandle) -> FinModule:
    """The left regular module of a finite-dimensional algebra, from ``handle.gen_products``."""
    if handle.basis is None:
        raise ValueError("regular module needs a finite-dimensional algebra")
    n = len(handle.basis)
    actions: dict[int, Mat] = {}
    for g, products in enumerate(handle.gen_products):
        mat = zeros(n, n)
        for j, col in enumerate(products):  # column j: g * basis[j]
            for i, x in col.items():
                mat[i][j] = x
        actions[g] = mat
    return FinModule(handle, n, actions, f"{handle.name}-regular")
