"""Finite-dimensional left modules as generator actions.

A module over a presented algebra stores the action of each generator as
a list of sparse columns (column j: the image of basis vector j, nonzero
entries only).  The constructor is the one way in for entries: it stores
each through ``freealg.scalar``, as every layer below stores its scalars.
``from_named_actions`` builds the columns from dense matrices keyed by
generator name, the one dense input of the package.
``check_module`` substitutes the actions into every relation of the
owner.  Hom spaces are computed exactly as intertwiner nullspaces, and
semisimple decompositions read multiplicities off hom dimensions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from zhuind.algebra import AlgebraHandle
from zhuind.freealg import NcPoly, Scalar, Word, _add_scaled, scalar
from zhuind.linalg import RowSpace, Sparse, linear_combination

Columns = list[Sparse]  # one sparse column per basis vector
Mat = list[list[Scalar]]  # a dense matrix: the input of from_named_actions and the view of actions


class FinModule:
    """A module given by the action of each generator of ``owner``.

    ``columns[g]`` is the action of generator g as sparse columns of exact
    scalars, with no stored zeros: the one stored form, each entry taken
    through ``scalar`` and fixed after construction.  ``from_named_actions``
    builds it from dense matrices keyed by generator name.  ``actions`` is
    a dense view of it, built on first use.  ``action_of_word`` keeps the
    action of every word it has computed, in a prefix tree: a word costs
    one sparse product per letter past its longest known prefix.  Columns,
    word actions and the dense view are shared between callers and must
    not be mutated.
    """

    def __init__(self, owner: AlgebraHandle, dim: int, columns: list[Columns], label: str = ""):
        if type(columns) is not list or len(columns) != len(owner.gen_names):
            raise ValueError("columns must be a list with one entry per generator; dense matrices go through from_named_actions")
        self.owner = owner
        self.dim = dim
        # a non-integral Fraction is shared, an integral value stored as an int; a float raises TypeError
        self.columns = [[{i: y for i, x in col.items() if (y := scalar(x))} for col in cols] for cols in columns]
        self.label = label or f"{owner.name}-module(dim {dim})"
        # prefix tree of word actions: node = (action of the word, {letter: child node})
        self._word_actions: tuple[Columns, dict] = ([{j: 1} for j in range(dim)], {})

    @staticmethod
    def from_named_actions(owner: AlgebraHandle, dim: int, named: dict[str, Mat], label: str = "") -> "FinModule":
        """A module from one dense ``dim x dim`` matrix per generator name; a generator not named acts as 0."""
        columns: list[Columns] = [[{} for _ in range(dim)] for _ in owner.gen_names]
        for name, mat in named.items():
            g = owner.gen_names.index(name)
            if len(mat) != dim or any(len(row) != dim for row in mat):
                raise ValueError(f"action of {name} must be {dim}x{dim}")
            columns[g] = [{i: row[j] for i, row in enumerate(mat)} for j in range(dim)]  # the constructor drops zeros
        return FinModule(owner, dim, columns, label)

    @cached_property
    def actions(self) -> dict[int, Mat]:
        """One dense matrix per generator: a read-only view of ``columns``."""
        return {g: [[col.get(i, Fraction(0)) for col in cols] for i in range(self.dim)] for g, cols in enumerate(self.columns)}

    def action_of_word(self, word: Word) -> Columns:
        """The action of ``word`` as sparse columns: shared and read-only (see the class docstring)."""
        node = self._word_actions
        for g in word:
            children = node[1]
            if g not in children:
                children[g] = ([linear_combination(col, node[0]) for col in self.columns[g]], {})
            node = children[g]
        return node[0]

    def evaluate(self, p: NcPoly) -> Columns:
        """The action of ``p`` as new sparse columns."""
        out: Columns = [{} for _ in range(self.dim)]
        for w, c in p.terms.items():
            if c:
                for acc, col in zip(out, self.action_of_word(w)):
                    _add_scaled(acc, c, col)
        return out

    def __repr__(self) -> str:
        return f"<module {self.label} over {self.owner.name}, dim {self.dim}>"


class DecompositionRecord(NamedTuple):
    entries: tuple[tuple[str, int], ...]  # (irreducible label, multiplicity >= 1)
    residual: int

    def as_dict(self) -> dict[str, int]:
        return dict(self.entries)

    def __str__(self) -> str:
        if not self.entries and self.residual == 0:
            return "0"
        body = " + ".join(f"{lbl}:{m}" for lbl, m in self.entries)
        return body + (f" (residual {self.residual})" if self.residual else "")


def check_module(module: FinModule) -> list[NcPoly]:
    """Relations of the owner that fail to act as zero (empty list = pass)."""
    return [rel for rel in module.owner.presentation.relations if any(module.evaluate(rel))]


def add_tensor_equations(space: RowSpace, rows: list[Sparse], columns: Columns) -> bool:
    """Add to ``space`` sum_k P_i[k] e(k, j) - sum_l Q_j[l] e(i, l) for each column Q_j and row P_i.

    ``e(k, l)`` is the unit vector at ``k * len(columns) + l``.  Each
    equation is built without its coordinates at ``space.unit_pivots``,
    which are zero modulo ``space``, and without a term that cancels; an
    equation left empty is not added.  Returns True, adding no more, once
    ``space`` is full.
    """
    width, full, units = len(columns), space.ncols, space.unit_pivots
    for j, q_col in enumerate(columns):
        for i, p_row in enumerate(rows):
            vec = {c: x for k, x in p_row.items() if (c := k * width + j) not in units}
            for l, x in q_col.items():
                c = i * width + l
                if c not in units:
                    y = vec.get(c, 0) - x
                    if y:
                        vec[c] = y
                    else:  # the two terms at e(i, j) cancel
                        del vec[c]
            if vec and space.add(vec) and space.dim == full:
                return True
    return False


def hom_space(source: FinModule, target: FinModule) -> list[Columns]:
    """A basis of the intertwiners T with T.rho_source(g) = rho_target(g).T, each as sparse columns.

    Column j of an intertwiner is the image of source basis vector j.
    """
    if source.owner is not target.owner:
        raise ValueError("hom spaces need a common owner algebra")
    n, m = target.dim, source.dim
    if n * m == 0:
        return []
    # unknowns T[i][j] flattened as i*m + j; one equation per (g, i, j)
    space = RowSpace(n * m)
    for g, b_cols in enumerate(source.columns):
        a_rows: Columns = [{} for _ in range(n)]
        for k, col in enumerate(target.columns[g]):
            for i, x in col.items():
                a_rows[i][k] = x
        if add_tensor_equations(space, a_rows, b_cols):  # only T = 0 is left
            return []
    intertwiners = []
    for v in space.nullspace():
        cols: Columns = [{} for _ in range(m)]
        for flat, x in v.items():
            cols[flat % m][flat // m] = x
        intertwiners.append(cols)
    return intertwiners


def decompose(module: FinModule, irreducibles: list[FinModule]) -> DecompositionRecord:
    """Multiplicity record over pairwise non-isomorphic irreducibles.

    multiplicity(L) = dim Hom(L, module); a nonzero residual flags either
    a non-semisimple owner or an incomplete irreducible list.
    """
    entries = []
    used = 0
    for irr in irreducibles:
        mult = len(hom_space(irr, module))
        if mult:
            entries.append((irr.label, mult))
            used += mult * irr.dim
    return DecompositionRecord(tuple(entries), module.dim - used)


def submodule_closure(module: FinModule, seeds: list[Sparse]) -> RowSpace:
    """Smallest action-stable subspace containing the seeds."""
    space = RowSpace(module.dim)
    queue = list(seeds)
    while queue and space.dim < module.dim:
        v = queue.pop()
        if space.add(v) and space.dim < module.dim:
            queue.extend(linear_combination(v, cols) for cols in module.columns)
    return space


def quotient_module(module: FinModule, space: RowSpace, label: str = "") -> FinModule:
    """Quotient by an action-stable subspace of the module (left unchanged), in complement coordinates."""
    subs = space.basis()
    for cols in module.columns:
        for v in subs:
            if not space.contains(linear_combination(v, cols)):
                raise ValueError("subspace is not action-stable")
    comp = space.complement_columns()
    to_quotient = space.quotient_map()
    columns = [[to_quotient(cols[j]) for j in comp] for cols in module.columns]
    return FinModule(module.owner, len(comp), columns, label or f"{module.label}/sub")


def regular_module(handle: AlgebraHandle) -> FinModule:
    """The left regular module of a finite-dimensional algebra: its columns are ``handle.gen_products``."""
    if handle.basis is None:
        raise ValueError("regular module needs a finite-dimensional algebra")
    return FinModule(handle, len(handle.basis), handle.gen_products, f"{handle.name}-regular")
