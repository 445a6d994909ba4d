"""Exact linear algebra over the rationals.

``RowSpace`` takes and returns sparse vectors (``Sparse``: column ->
nonzero ``Fraction``) and keeps a reduced row echelon basis as sparse
rows (pivot column -> {column: value}), each with a unit pivot and zero
at every other pivot, so reducing a mostly zero vector touches only its
nonzero entries.  It never modifies a caller's vector.  The matrix
functions (``rref``, ``rank``, ``nullspace``, ``invert``) and
``RowSpace.basis`` and ``RowSpace.nullspace`` use dense lists of
``Fraction``; the matrix functions insert their rows into a ``RowSpace``,
so there is one elimination loop and one kernel routine.  All arithmetic
is exact.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction

from zhuind.freealg import _add_scaled

Vec = list[Fraction]
Mat = list[list[Fraction]]
Sparse = dict[int, Fraction]


def zeros(n: int, m: int) -> Mat:
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n: int) -> Mat:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if not c:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j]:
                    oi[j] += c * bt[j]
    return out


def mat_add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Mat, c: Fraction) -> Mat:
    return [[c * x for x in row] for row in a]


def is_zero_mat(a: Mat) -> bool:
    return all(not x for row in a for x in row)


def rref(rows: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    if not rows:
        return [], []
    space = _space(rows)
    return space.basis(), space.pivots


def rank(rows: Mat) -> int:
    return len(rref(rows)[0])


def nullspace(a: Mat) -> list[Vec]:
    """Basis of the right kernel {x : a x = 0}."""
    return _space(a).nullspace() if a else []


def invert(a: Mat) -> Mat | None:
    n = len(a)
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)) or len(red) != n:
        return None
    return [row[n:] for row in red]


def _space(rows: Mat) -> "RowSpace":
    space = RowSpace(len(rows[0]))
    for r in rows:
        space._insert(dict(enumerate(r)))
    return space


class RowSpace:
    """A subspace of Q^n kept in reduced row echelon form.

    Supports incremental insertion, membership tests and reduction of a
    sparse vector modulo the space.  ``pivots`` is sorted and ``basis()`` lists
    rows by pivot column, so the basis is canonical and equality of
    subspaces is list equality.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, Sparse] = {}
        self.pivots: list[int] = []

    def reduce(self, vec: Sparse) -> Sparse:
        """``vec`` modulo the space, as a new sparse vector."""
        v = {c: x for c, x in vec.items() if x}
        # a row is zero at every other pivot, so the pivots met are fixed upfront
        for p in [p for p in v if p in self.rows]:
            _add_scaled(v, -v[p], self.rows[p])
        return v

    def add(self, vec: Sparse) -> bool:
        """Insert a vector; returns True if the dimension grew."""
        v = self._reduce(vec)
        if not v:
            return False
        p = min(v)
        inv = Fraction(1) / v[p]
        row = {c: x * inv for c, x in v.items()}
        for other in self.rows.values():
            if p in other:
                _add_scaled(other, -other[p], row)
        self.rows[p] = row
        insort(self.pivots, p)
        return True

    def contains(self, vec: Sparse) -> bool:
        return not self._reduce(vec)

    # linalg's own calls use these names, so the per-layer trace of
    # perfbench/tracing.py counts only the calls of other modules
    _reduce = reduce
    _insert = add

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def basis(self) -> Mat:
        out = []
        for p in self.pivots:
            row = [Fraction(0)] * self.ncols
            for c, x in self.rows[p].items():
                row[c] = x
            out.append(row)
        return out

    def nullspace(self) -> list[Vec]:
        """Right kernel: per free column fc, ascending, 1 at fc and -row[fc] at each pivot."""
        out = []
        for fc in self.complement_columns():
            v = [Fraction(0)] * self.ncols
            v[fc] = Fraction(1)
            for p in self.pivots:
                v[p] = -self.rows[p].get(fc, Fraction(0))
            out.append(v)
        return out

    def complement_columns(self) -> list[int]:
        pivot_set = set(self.pivots)
        return [i for i in range(self.ncols) if i not in pivot_set]
