"""Exact linear algebra over the rationals.

Matrices and vectors are dense lists of ``Fraction`` at every public
entry point.  All elimination runs in ``RowSpace``, which keeps a reduced
row echelon basis as sparse rows (pivot column -> {column: value}), each
with a unit pivot and zero at every other pivot, so reducing a mostly
zero vector touches only its nonzero entries.  ``rref`` and the solvers
built on it insert their rows into a ``RowSpace``.  All arithmetic is
exact.  ``RowSpace`` is the workhorse behind span closures, ideal
slices, image ranks and quotient coordinates.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction

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


def transpose(a: Mat) -> Mat:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def rref(rows: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    if not rows:
        return [], []
    space = RowSpace(len(rows[0]))
    for r in rows:
        space._insert(_sparse(r))
    return space.basis(), space.pivots


def rank(rows: Mat) -> int:
    return len(rref(rows)[0])


def nullspace(a: Mat) -> list[Vec]:
    """Basis of the right kernel {x : a x = 0}."""
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis: list[Vec] = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def solve(a: Mat, b: Vec) -> Vec | None:
    """One solution of a x = b, or None if inconsistent."""
    if not a:
        return [] if not any(b) else None
    ncols = len(a[0])
    aug = [row + [bv] for row, bv in zip(a, b)]
    red, pivots = rref(aug)
    x = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        if pc == ncols:
            return None
        x[pc] = row[ncols]
    return x


def invert(a: Mat) -> Mat | None:
    n = len(a)
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)) or len(red) != n:
        return None
    return [row[n:] for row in red]


def _sparse(vec: Vec) -> Sparse:
    return {i: x for i, x in enumerate(vec) if x}


def _subtract(v: Sparse, f: Fraction, row: Sparse) -> None:
    """v -= f * row in place, dropping entries that cancel."""
    for c, x in row.items():
        y = v.get(c, 0) - f * x
        if y:
            v[c] = y
        else:
            del v[c]


class RowSpace:
    """A subspace of Q^n kept in reduced row echelon form.

    Supports incremental insertion, membership tests and reduction of a
    vector modulo the space.  ``pivots`` is sorted and ``basis()`` lists
    rows by pivot column, so the basis is canonical and equality of
    subspaces is list equality.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, Sparse] = {}
        self.pivots: list[int] = []

    def _reduce(self, v: Sparse) -> Sparse:
        # a row is zero at every other pivot, so the pivots met are fixed upfront
        for p in [p for p in v if p in self.rows]:
            _subtract(v, v[p], self.rows[p])
        return v

    def _insert(self, v: Sparse) -> bool:
        v = self._reduce(v)
        if not v:
            return False
        p = min(v)
        inv = Fraction(1) / v[p]
        row = {c: x * inv for c, x in v.items()}
        for other in self.rows.values():
            if p in other:
                _subtract(other, other[p], row)
        self.rows[p] = row
        insort(self.pivots, p)
        return True

    def _dense(self, v: Sparse) -> Vec:
        out = [Fraction(0)] * self.ncols
        for c, x in v.items():
            out[c] = x
        return out

    def reduce(self, vec: Vec) -> Vec:
        return self._dense(self._reduce(_sparse(vec)))

    def add(self, vec: Vec) -> bool:
        """Insert a vector; returns True if the dimension grew."""
        return self._insert(_sparse(vec))

    def contains(self, vec: Vec) -> bool:
        return not self._reduce(_sparse(vec))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def basis(self) -> Mat:
        return [self._dense(self.rows[p]) for p in self.pivots]

    def complement_columns(self) -> list[int]:
        pivot_set = set(self.pivots)
        return [i for i in range(self.ncols) if i not in pivot_set]
