"""Differential tests for the exact linear algebra core.

Every routine is checked on generated rational matrices, from 5% dense
to full, with zero rows, zero columns and dependent rows, against two
oracles: sympy, and the dense ``Fraction`` row operations that ``linalg``
used before its rows became sparse (copied below as ``DenseRowSpace`` and
``dense_rref``, with the kernel read off it as ``dense_nullspace``).
The reduced row echelon form is unique, so every result must agree
exactly.  ``RowSpace`` takes sparse vectors: the dense test rows are
converted with ``sp`` at each call and its results with ``dense``.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhuind import linalg
from zhuind.linalg import RowSpace, invert, nullspace, rank, rref, solve

# -- the dense reference ----------------------------------------------------


def _bits(c):
    return c.numerator.bit_length() + c.denominator.bit_length()


def dense_rref(rows):
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        best = None
        for i in range(r, len(m)):
            if m[i][c]:
                if best is None or _bits(m[i][c]) < _bits(m[best][c]):
                    best = i
        if best is None:
            continue
        m[r], m[best] = m[best], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def dense_nullspace(a):
    ncols = len(a[0])
    red, pivots = dense_rref(a)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


class DenseRowSpace:
    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        inv = Fraction(1) / v[p]
        v = [x * inv for x in v]
        for i, row in enumerate(self.rows):
            if row[p]:
                f = row[p]
                self.rows[i] = [x - f * y for x, y in zip(row, v)]
        at = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, p)
        return True

    def contains(self, vec):
        return not any(self.reduce(vec))

    @property
    def dim(self):
        return len(self.rows)

    def basis(self):
        return [list(r) for r in self.rows]

    def complement_columns(self):
        pivot_set = set(self.pivots)
        return [i for i in range(self.ncols) if i not in pivot_set]


def sp(vec):
    return {i: x for i, x in enumerate(vec) if x}


def dense(vec, ncols):
    return [vec.get(i, Fraction(0)) for i in range(ncols)]


def with_dense_core(fn, *args):
    """Run a public routine with the dense reference in place of ``rref``."""
    with mock.patch.object(linalg, "rref", dense_rref):
        return fn(*args)


# -- generated input ----------------------------------------------------------


@st.composite
def matrices(draw, rows=st.integers(1, 6), cols=st.integers(1, 7)):
    n, m = draw(rows), draw(cols)
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    zero_cols = draw(st.sets(st.integers(0, m - 1), max_size=m // 2))

    def entry(i, j):
        if i in zero_rows or j in zero_cols or rng.random() >= density:
            return Fraction(0)
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))

    out = [[entry(i, j) for j in range(m)] for i in range(n)]
    # dependent rows, so dense matrices are not all of full rank
    for _ in range(draw(st.integers(0, 2))):
        a, b = rng.randrange(len(out)), rng.randrange(len(out))
        f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        out.insert(rng.randrange(len(out) + 1), [x + f * y for x, y in zip(out[a], out[b])])
    return out


def vectors(ncols, rng):
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.4 else Fraction(0) for _ in range(ncols)]


def _frac(x):
    return Fraction(int(x.p), int(x.q))


def sympy_rref(sympy, rows):
    red, pivots = sympy.Matrix(rows).rref()
    return [[_frac(x) for x in red.row(i)] for i in range(len(pivots))], list(pivots)


SETTINGS = settings(max_examples=100, deadline=None)

# -- rref and the routines built on it -----------------------------------------


@SETTINGS
@given(matrices())
def test_rref_matches_dense_reference(a):
    assert rref(a) == dense_rref(a)
    assert rank(a) == len(dense_rref(a)[0])


@SETTINGS
@given(matrices())
def test_rref_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    assert rref(a) == sympy_rref(sympy, a)
    assert rank(a) == sympy.Matrix(a).rank()


@SETTINGS
@given(matrices())
def test_nullspace_matches_references(a):
    sympy = pytest.importorskip("sympy")
    basis = nullspace(a)
    assert basis == dense_nullspace(a)
    assert basis == [[_frac(x) for x in v] for v in sympy.Matrix(a).nullspace()]
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)


@SETTINGS
@given(matrices(), st.randoms(use_true_random=False), st.booleans())
def test_solve_matches_references(a, rng, consistent):
    sympy = pytest.importorskip("sympy")
    ncols = len(a[0])
    if consistent:
        x0 = vectors(ncols, rng)
        b = [sum(x * y for x, y in zip(row, x0)) for row in a]
    else:
        b = vectors(len(a), rng)
    x = solve(a, b)
    assert x == with_dense_core(solve, a, b)
    solvable = sympy.Matrix(a).rank() == sympy.Matrix([row + [bv] for row, bv in zip(a, b)]).rank()
    assert (x is not None) == solvable
    if x is not None:
        assert [sum(p * q for p, q in zip(row, x)) for row in a] == b


@SETTINGS
@given(matrices(rows=st.just(4), cols=st.just(4)) | matrices(rows=st.just(2), cols=st.just(2)))
def test_invert_matches_references(a):
    sympy = pytest.importorskip("sympy")
    a = a[: len(a[0])]
    while len(a) < len(a[0]):
        a.append([Fraction(0)] * len(a[0]))
    inv = invert(a)
    assert inv == with_dense_core(invert, a)
    ma = sympy.Matrix(a)
    if ma.det() == 0:
        assert inv is None
    else:
        assert inv == [[_frac(x) for x in ma.inv().row(i)] for i in range(len(a))]


# -- RowSpace -------------------------------------------------------------------


@SETTINGS
@given(matrices(), st.randoms(use_true_random=False))
def test_rowspace_matches_dense_reference(a, rng):
    ncols = len(a[0])
    space, ref = RowSpace(ncols), DenseRowSpace(ncols)
    for row in a:
        assert space.add(sp(row)) == ref.add(row)
        assert space.pivots == ref.pivots
        assert space.basis() == ref.basis()
    assert space.dim == ref.dim
    assert space.complement_columns() == ref.complement_columns()
    assert space.nullspace() == dense_nullspace(a)
    for v in [vectors(ncols, rng) for _ in range(4)] + a:
        assert dense(space.reduce(sp(v)), ncols) == ref.reduce(v)
        assert space.contains(sp(v)) == ref.contains(v)


@SETTINGS
@given(matrices(), st.randoms(use_true_random=False))
def test_rowspace_matches_sympy(a, rng):
    sympy = pytest.importorskip("sympy")
    ncols = len(a[0])
    space = RowSpace(ncols)
    for row in a:
        space.add(sp(row))
    red, pivots = sympy_rref(sympy, a)
    assert (space.basis(), space.pivots) == (red, pivots)
    assert space.complement_columns() == [c for c in range(ncols) if c not in pivots]
    r = len(pivots)
    for v in [vectors(ncols, rng) for _ in range(4)]:
        inside = sympy.Matrix(a + [v]).rank() == r
        assert space.contains(sp(v)) == inside
        red_v = dense(space.reduce(sp(v)), ncols)
        assert all(red_v[p] == 0 for p in pivots)
        # v - reduce(v) lies in the space
        assert sympy.Matrix(a + [[x - y for x, y in zip(v, red_v)]]).rank() == r


@SETTINGS
@given(matrices(), st.randoms(use_true_random=False))
def test_rowspace_basis_does_not_depend_on_insertion_order(a, rng):
    shuffled = list(a)
    rng.shuffle(shuffled)
    first, second = RowSpace(len(a[0])), RowSpace(len(a[0]))
    for row in a:
        first.add(sp(row))
    for row in shuffled:
        second.add(sp(row))
    assert first.pivots == second.pivots
    assert first.basis() == second.basis()


@SETTINGS
@given(matrices(), st.randoms(use_true_random=False))
def test_rowspace_leaves_caller_vectors_alone(a, rng):
    ncols = len(a[0])
    space = RowSpace(ncols)
    for v in [sp(row) for row in a] + [sp(vectors(ncols, rng)) for _ in range(4)]:
        before = list(v.items())
        space.contains(v)
        space.reduce(v)
        space.add(v)
        assert list(v.items()) == before


def test_rowspace_drops_explicit_zeros():
    space = RowSpace(3)
    assert space.add({0: Fraction(0), 2: Fraction(3)})
    assert space.pivots == [2]
    assert space.reduce({0: Fraction(0), 1: Fraction(1), 2: Fraction(5)}) == {1: 1}
    assert space.nullspace() == [[1, 0, 0], [0, 1, 0]]


def test_rowspace_integer_input_gives_fraction_rows():
    space = RowSpace(3)
    assert space.add(sp([0, 2, 4]))
    assert not space.add(sp([0, 1, 2]))
    assert space.basis() == [[0, 1, 2]]
    assert all(type(x) is Fraction for x in space.basis()[0])
    assert rref([[2, 4], [1, 3]]) == ([[1, 0], [0, 1]], [0, 1])


def test_empty_inputs():
    assert rref([]) == ([], [])
    assert rank([[Fraction(0)] * 3]) == 0
    assert nullspace([[Fraction(0), Fraction(0)]]) == [[1, 0], [0, 1]]
    assert dense(RowSpace(2).reduce(sp([Fraction(1), Fraction(2)])), 2) == [1, 2]
