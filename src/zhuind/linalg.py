"""Exact linear algebra over the rationals.

Vectors are sparse (``Sparse``: column -> nonzero ``int`` or ``Fraction``,
the exact scalars of ``freealg``), the one vector type of the package: a
matrix is a list of sparse rows or columns, as a module action, an
intertwiner, a unit map or the matrix ``invert`` takes.
``linear_combination(coeffs, vectors)`` is the one sum of scaled sparse
vectors (a matrix times a vector, a product of algebra elements), and it
and the elimination steps accumulate through ``freealg._add_scaled``, so
a coefficient 0 adds nothing, a coefficient 1 stores the vector's own
values and a result may share the caller's (immutable) values.
``RowSpace`` keeps a reduced row echelon basis as sparse primitive
integer rows (pivot column -> {column: int}), each with a positive pivot
entry and zero at every other pivot, so reducing a mostly zero vector
touches only its nonzero entries.  Elimination inside it is
fraction-free; an integral vector (``int`` or ``Fraction`` values, all
denominators 1) is taken as is, without a rescale, ``Fraction`` values
are built only where results leave it, and a value of any other type
raises ``TypeError``.  It never modifies a caller's vector.
A pivot whose stored row is the unit vector ``{p: 1}`` is a unit pivot
(``RowSpace.unit_pivots``): coordinate p is zero modulo the space, so
elimination drops a vector's entries there before it cancels, as
structured Gaussian elimination removes singleton rows first (LaMacchia
and Odlyzko 1990).  Dropping the entry is exactly the cancellation
against that row, and the reduced row echelon form is unique, so every
result is the one full elimination gives.
A unit row never holds another column, so back-substitution skips the
unit rows.
``RowSpace.basis`` and ``RowSpace.nullspace`` return sparse vectors with
a unit pivot or free entry, in ascending columns.  Coordinates in the
quotient by the space, over its complement columns, are read one way:
from one table per space, ``RowSpace.quotient_images``, the image of
each unit vector, built from its stored row on first use, so a vector's
quotient coordinates are one sparse sum with no elimination.
``repmod.quotient_module`` and ``induct.induce`` sum through it.
``invert`` adds the rows of ``[A | I]`` to a ``RowSpace``, so there is
one elimination loop and one kernel routine.  All arithmetic is exact.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from zhuind.freealg import Scalar, _add_scaled

Sparse = dict[int, Scalar]


def linear_combination(coeffs: Sparse, vectors: Sequence[Sparse] | Mapping[int, Sparse]) -> Sparse:
    """The sum of ``c * vectors[j]`` over the entries ``j: c`` of ``coeffs``, in their order.

    A new sparse vector with nonzero entries only: a matrix with columns
    ``vectors`` times the vector ``coeffs``.
    """
    acc: Sparse = {}
    for j, c in coeffs.items():
        _add_scaled(acc, c, vectors[j])
    return acc


def invert(rows: list[Sparse]) -> list[Sparse] | None:
    """The inverse of the square matrix with sparse ``rows``, as sparse rows of ``Fraction``; None when singular."""
    n = len(rows)
    space = RowSpace(2 * n)
    for i, row in enumerate(rows):
        space.add({**row, n + i: 1})
    # [A | I] has n pivots, all in the columns of A exactly when A is invertible
    if space.pivots != list(range(n)):
        return None
    return [{c - n: x for c, x in row.items() if c >= n} for row in space.basis()]


class RowSpace:
    """A subspace of Q^n kept in reduced row echelon form.

    Each echelon row is stored as a primitive integer row (pivot column ->
    {column: int}): its entries have gcd 1, its pivot entry is positive and
    it is zero at every other pivot, so it is a positive multiple of the
    reduced row with a unit pivot and the stored rows are as canonical as
    that form.  Elimination is fraction-free (Bareiss 1968): a caller's
    vector is scaled once by the lcm of its denominators (an integral one
    is not rescaled), and each step cross-multiplies by the two pivot
    entries divided by their gcd.  Only ``basis``, ``nullspace`` and the
    quotient images build ``Fraction`` values.  Supports incremental
    insertion, membership tests and quotient coordinates.  ``pivots``
    is sorted and ``basis()`` lists rows by pivot column, so the basis is
    canonical and equality of subspaces is list equality.

    ``unit_pivots`` is the set of pivots p whose row is ``{p: 1}``.  A row
    joins it when it is added with a single entry or when back-substitution
    shrinks it to one, and it never leaves: a unit row has no entry at
    another column, so no later row changes it, and ``add`` back-substitutes
    a new pivot only into the other rows.  ``_eliminate`` checks the
    type and denominator of every entry first, so a float at a unit pivot
    still raises ``TypeError``, then drops the entries at unit pivots.  That
    drop is the cancellation against the unit row, so the stored rows, and
    every result, are those of elimination without it.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}
        self.pivots: list[int] = []
        self.unit_pivots: set[int] = set()
        self._wide: dict[int, dict[int, int]] = {}  # the rows that are not unit rows
        self._images: LazyTable | None = None  # quotient_images(), built on first use

    def _eliminate(self, vec: Sparse) -> dict[int, int]:
        """``vec`` reduced modulo the space, times a positive integer that makes every entry an integer."""
        try:
            den = lcm(*[x.denominator for x in vec.values()])
        except AttributeError:  # a float or another inexact value: only int and Fraction have a denominator
            raise TypeError(f"exact scalars only: {vec!r} holds a value that is not an int or a Fraction") from None
        units = self.unit_pivots
        if den == 1:  # an integral vector needs no rescale
            v = {c: n for c, x in vec.items() if (n := x.numerator) and c not in units}
        else:
            v = {c: n * (den // x.denominator) for c, x in vec.items() if (n := x.numerator) and c not in units}
        rows = self.rows
        # a row is zero at every other pivot, so the pivots met are fixed upfront
        for p in [p for p in v if p in rows]:
            _cancel(v, rows[p], p)
        return v

    def quotient_images(self) -> dict[int, Sparse]:
        """The quotient coordinates of each unit vector ``e_c``, over ``complement_columns()``, filled on first use.

        ``e_c`` is ``{pos(c): 1}`` off the pivots, where ``pos`` numbers the
        complement columns, and ``-row_c / row_c[c]`` at a pivot c, read at
        the complement columns: the stored row is zero at every other
        pivot, so ``e_c - row_c / row_c[c]`` is ``e_c`` reduced, and the
        entries are exact.  Every value is a ``Fraction``.  A vector's
        coordinates are the sum of its entries times these images.  The
        table is the space's own, shared by every caller until an ``add``
        grows the space; a table held past that raises ``ValueError`` on
        its next new column.
        """
        if self._images is None:
            pos, dim, rows = {c: i for i, c in enumerate(self.complement_columns())}, self.dim, self.rows

            def image(c: int) -> Sparse:
                if self.dim != dim:
                    raise ValueError("quotient images used after the space grew")
                row = rows.get(c)
                if row is None:
                    return {pos[c]: _ONE}
                r = row[c]
                return {pos[k]: Fraction(-x, r) for k, x in row.items() if k != c}

            self._images = LazyTable(image)
        return self._images

    def add(self, vec: Sparse) -> bool:
        """Insert a vector; returns True if the dimension grew."""
        row = self._eliminate(vec)
        if not row:
            return False
        p = min(row)
        _make_primitive(row, p)
        units, wide = self.unit_pivots, self._wide
        # a unit row {q: 1} never holds p, so only the wider rows are back-substituted
        shrunk = []
        for q, other in wide.items():
            if p in other:
                _cancel(other, row, p)
                _make_primitive(other, q)
                if len(other) == 1:
                    shrunk.append(q)
        for q in shrunk:
            units.add(q)
            del wide[q]
        self.rows[p] = row
        insort(self.pivots, p)
        if len(row) == 1:
            units.add(p)
        else:
            wide[p] = row
        self._images = None
        return True

    def contains(self, vec: Sparse) -> bool:
        return not self._eliminate(vec)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def basis(self) -> list[Sparse]:
        """The echelon rows by pivot column, each with pivot entry 1."""
        out = []
        for p in self.pivots:
            r = self.rows[p]
            out.append({c: Fraction(x, r[p]) for c, x in sorted(r.items())})
        return out

    def nullspace(self) -> list[Sparse]:
        """Right kernel: per free column fc, ascending, 1 at fc and -row[fc] / row[p] at each pivot p."""
        out = []
        for fc in self.complement_columns():
            v = {p: Fraction(-r[fc], r[p]) for p, r in self.rows.items() if fc in r}
            v[fc] = Fraction(1)
            out.append(dict(sorted(v.items())))
        return out

    def complement_columns(self) -> list[int]:
        pivot_set = set(self.pivots)
        return [i for i in range(self.ncols) if i not in pivot_set]


_ONE = Fraction(1)


class LazyTable(dict):
    """A dict that builds a missing entry as ``fill(key)`` on its first lookup and keeps it."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable[[int], Sparse]):
        self.fill = fill

    def __missing__(self, key: int) -> Sparse:
        value = self[key] = self.fill(key)
        return value


def _cancel(v: dict[int, int], row: dict[int, int], p: int) -> None:
    """Clear ``v[p]`` in place with integers only, scaling ``v`` by a positive factor ``m``.

    With ``g = gcd(v[p], row[p])``, ``v`` becomes ``m·v - (v[p]/g)·row``
    for ``m = row[p]/g``, the smallest integer multiple that cancels.
    """
    a, b = v[p], row[p]
    g = gcd(a, b)
    m = b // g
    if m != 1:
        for c, x in v.items():
            v[c] = x * m
    _add_scaled(v, -(a // g), row)


def _make_primitive(row: dict[int, int], pivot: int) -> None:
    """Divide ``row`` in place by its content, signed so that the pivot entry is positive."""
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    if g != 1:
        for c, x in row.items():
            row[c] = x // g
