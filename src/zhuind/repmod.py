"""Finite-dimensional left modules as generator actions.

A module over a presented algebra stores the action of each generator as
a list of sparse columns (column j: the image of basis vector j, nonzero
entries only).  The constructor is the one way in for entries: it stores
each through ``freealg.scalar``, as every layer below stores its scalars.
``from_named_actions`` builds the columns from dense matrices keyed by
generator name, the one dense input of the package.
``check_module`` substitutes the actions into every relation of the
owner.  Hom spaces are computed exactly as intertwiner nullspaces.
The character of a module (``char_vector``, the trace of each basis word)
lives here, beside ``independence_check``, because decompositions read
it; ``chars`` builds on both.

``decompose`` reads multiplicities in one of two ways.  Over an owner
with a Wedderburn certificate for the irreducible list
(``wedderburn_certificate``: absolutely irreducible and pairwise
non-isomorphic modules, and the sum of their squared dimensions equal to
the owner's), it solves the module's character on a few basis words.
Anywhere else it reads each multiplicity as a Hom dimension.  Neither
reading, nor the certificate, reads the owner's structure cube; only
``product_traces`` does, for ``chars.symmetry_violations``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from zhuind.algebra import AlgebraHandle
from zhuind.freealg import NcPoly, Scalar, Word, _add_scaled, scalar
from zhuind.linalg import RowSpace, Sparse, invert, linear_combination

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
        body = " + ".join(f"{lbl}:{m}" for lbl, m in self.entries) or "0"
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


class CharacterVector(NamedTuple):
    values: tuple[Fraction, ...]  # trace on each basis word, in basis order


def _traces(module: FinModule) -> list[Scalar]:
    """The trace of each basis word of the (finite) owner, an ``int`` where it is integral."""
    if module.owner.basis is None:
        raise ValueError("characters need a finite-dimensional owner")
    return [_trace(module.action_of_word(w)) for w in module.owner.basis]


def _trace(columns: Columns) -> Scalar:
    return sum(col.get(i, 0) for i, col in enumerate(columns))


def char_vector(module: FinModule) -> CharacterVector:
    """The trace of the action of each basis word of the (finite) owner, in basis order."""
    return CharacterVector(tuple(Fraction(t) for t in _traces(module)))


def product_traces(module: FinModule) -> list[list[Scalar]]:
    """``[i][j]``: the character at basis[i] * basis[j], read from the structure row of the product."""
    chi = _traces(module)
    return [[sum(c * chi[k] for k, c in product.items()) for product in row] for row in module.owner.structure]


def independence_check(characters: list[CharacterVector]) -> bool:
    """True when the stacked character vectors have full rank."""
    space = RowSpace(len(characters[0].values) if characters else 0)
    return all(space.add(dict(enumerate(c.values))) for c in characters)


class WedderburnCertificate(NamedTuple):
    """Whether an irreducible list is every simple module of a split semisimple owner.

    ``failure`` is empty when the certificate holds, and otherwise names
    the first part that fails, in one line.  When it holds, the
    irreducible characters restricted to ``words`` form an invertible
    matrix C (C[i][j]: character i at word j) and ``inverse`` is C^-1 as
    sparse rows.
    """

    failure: str
    words: tuple[Word, ...] = ()
    inverse: tuple[Sparse, ...] = ()


def wedderburn_certificate(owner: AlgebraHandle, irreducibles: list[FinModule]) -> WedderburnCertificate:
    """The certificate of ``irreducibles`` over ``owner``, built on first use and kept on the owner per list.

    It holds when all of these do, checked in this order (``decompose`` gives the proof they add up to):
      * the owner is finite, and every listed module is over it and passes ``check_module``;
      * on each listed L the basis words act by dim(L)^2 independent matrices;
      * the characters are independent (``independence_check``);
      * the squared dimensions sum to the dimension of the owner.
    The words of the invertible minor are the first basis words, in basis order, at which the characters
    are independent; the first is 1, where the characters are the dimensions.
    """
    key = tuple(irreducibles)
    cert = owner.certificates.get(key)
    if cert is None:
        cert = owner.certificates[key] = _certify(owner, irreducibles)
    return cert


def _certify(owner: AlgebraHandle, irreducibles: list[FinModule]) -> WedderburnCertificate:
    if owner.basis is None:
        return WedderburnCertificate(f"{owner.name} is not finite-dimensional")
    for irr in irreducibles:
        if irr.owner is not owner:
            return WedderburnCertificate(f"{irr.label} is not a module over {owner.name}")
        if check_module(irr):
            return WedderburnCertificate(f"{irr.label} breaks a relation of {owner.name}")
    for irr in irreducibles:
        d = irr.dim
        span = RowSpace(d * d)
        for w in owner.basis:
            span.add({i * d + j: x for j, col in enumerate(irr.action_of_word(w)) for i, x in col.items()})
        if span.dim < d * d:
            return WedderburnCertificate(f"the basis words act on {irr.label} by {span.dim} < {d * d} independent matrices")
    characters = [char_vector(irr) for irr in irreducibles]
    if not independence_check(characters):
        return WedderburnCertificate("the characters are dependent, so two listed modules are isomorphic")
    squares, n = sum(irr.dim**2 for irr in irreducibles), len(owner.basis)
    if squares != n:
        return WedderburnCertificate(f"the squared dimensions sum to {squares}, not {n}, so the list is incomplete")
    values = [c.values for c in characters]
    columns = RowSpace(len(values))
    words = [j for j in range(n) if columns.add({i: v[j] for i, v in enumerate(values) if v[j]})]
    inverse = invert([{k: v[j] for k, j in enumerate(words) if v[j]} for v in values])
    return WedderburnCertificate("", tuple(owner.basis[j] for j in words), tuple(inverse))


def decompose(module: FinModule, irreducibles: list[FinModule]) -> DecompositionRecord:
    """Multiplicity record of ``module`` over a list of pairwise non-isomorphic irreducibles.

    Owners that differ raise ``ValueError``, and a zero module gives the
    empty record at once.  When ``wedderburn_certificate`` holds for the
    owner A and the list, the list is every simple A-module and A is split
    semisimple:
      * Burnside: A maps onto End(L) = M_d(Q) for each L, so L is absolutely irreducible and the kernel of
        that map is a maximal two-sided ideal;
      * independence: isomorphic modules have equal characters, so the L are pairwise non-isomorphic; as
        M_d(Q) has one simple module, their kernels are distinct maximal ideals, so pairwise comaximal, and
        by the Chinese remainder theorem A maps onto the product of their End(L);
      * sum dim(L)^2 = dim A: so that map is an isomorphism, A is split semisimple and the list holds every
        simple module.
    So module = sum m_L L with m_L = dim Hom(L, module), and chi_module =
    sum m_L chi_L.  The multiplicities are read off characters: m =
    chi_module(words) C^-1 at the certificate's words.  Each must be a
    non-negative integer, or the input is not a module and ``ValueError``
    says so.  The first word is 1, where the characters are the dimensions,
    so sum m_L dim L = dim module holds by construction and the residual is
    0.  Everywhere else multiplicity(L) = dim Hom(L, module), and a nonzero
    residual flags either a non-semisimple owner or an incomplete
    irreducible list.  Over a certified owner the two readings give the
    same record.
    """
    if any(irr.owner is not module.owner for irr in irreducibles):
        raise ValueError("hom spaces need a common owner algebra")
    if module.dim == 0:
        return DecompositionRecord((), 0)
    cert = wedderburn_certificate(module.owner, irreducibles)
    if not cert.failure:
        return _character_reading(module, irreducibles, cert)
    entries = []
    used = 0
    for irr in irreducibles:
        mult = len(hom_space(irr, module))
        if mult:
            entries.append((irr.label, mult))
            used += mult * irr.dim
    return DecompositionRecord(tuple(entries), module.dim - used)


def _character_reading(module: FinModule, irreducibles: list[FinModule], cert: WedderburnCertificate) -> DecompositionRecord:
    traces = {j: t for j, w in enumerate(cert.words) if (t := _trace(module.action_of_word(w)))}
    mults = linear_combination(traces, cert.inverse)
    entries = []
    for i, irr in enumerate(irreducibles):
        mult = mults.get(i, 0)
        if mult < 0 or mult.denominator != 1:
            raise ValueError(f"{module.label} is not a module over {module.owner.name}: its character gives {irr.label} multiplicity {mult}")
        if mult:
            entries.append((irr.label, int(mult)))
    return DecompositionRecord(tuple(entries), 0)


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
    images = space.quotient_images()
    columns = [[linear_combination(cols[j], images) for j in comp] for cols in module.columns]
    return FinModule(module.owner, len(comp), columns, label or f"{module.label}/sub")
