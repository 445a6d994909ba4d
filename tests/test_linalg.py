"""Differential tests for the exact linear algebra core.

Every routine is checked on generated rational matrices, from 5% dense
to full, with zero rows, zero columns and dependent rows, against two
oracles: sympy, and the dense ``Fraction`` row operations that ``linalg``
used before its rows became sparse (``DenseRowSpace``, ``dense_rref``,
``dense_nullspace`` and ``dense_invert`` in ``tests/dense.py``).  The reduced row
echelon form is unique, so every result must agree exactly.
``RowSpace`` and ``invert`` take and return sparse vectors: the dense
test rows are converted with ``sp`` at each call and the results with
``dense``.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import DenseRowSpace, dense_invert, dense_nullspace, dense_rref
from zhuind.linalg import RowSpace, invert, linear_combination


def sp(vec):
    return {i: x for i, x in enumerate(vec) if x}


def dense(vec, ncols):
    return [vec.get(i, Fraction(0)) for i in range(ncols)]


def space_of(rows):
    space = RowSpace(len(rows[0]))
    for row in rows:
        space.add(sp(row))
    return space


def quotient(space, vec):
    """The quotient coordinates of ``vec`` modulo ``space``: its sum through ``quotient_images()``."""
    return linear_combination(vec, space.quotient_images())


def dense_basis(space):
    return [dense(v, space.ncols) for v in space.basis()]


def dense_kernel(space):
    return [dense(v, space.ncols) for v in space.nullspace()]


def assert_sparse(vecs, lead):
    """Nonzero entries only, in ascending columns, with 1 at column ``lead[i]`` of vector i."""
    for v, c in zip(vecs, lead, strict=True):
        assert list(v) == sorted(v) and all(v.values())
        assert v[c] == 1


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


# the six largest primes below 10^6, so denominators are large and coprime
BIG_PRIMES = (999983, 999979, 999961, 999959, 999953, 999931)


@st.composite
def wide_matrices(draw, rows=st.integers(1, 6), cols=st.integers(1, 7)):
    """Rows of plain ints and of fractions with numerators and denominators up to 10^6.

    A chain of dependent rows follows: each is a multiple of the row
    before it plus a multiple of some earlier row.
    """
    n, m = draw(rows), draw(cols)
    rng = draw(st.randoms(use_true_random=False))

    def big():
        den = rng.choice(BIG_PRIMES) if rng.random() < 0.5 else rng.randint(1, 10**6)
        return Fraction(rng.randint(-(10**6), 10**6), den)

    def entry():
        r = rng.random()
        if r < 0.3:
            return 0
        return rng.randint(-(10**6), 10**6) if r < 0.55 else big()

    out = [[entry() for _ in range(m)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        f, g = big(), rng.randint(-3, 3)
        out.append([f * x + g * y for x, y in zip(out[-1], rng.choice(out))])
    return out


@st.composite
def unit_rich_matrices(draw, rows=st.integers(1, 9), cols=st.integers(1, 8)):
    """Sparse rows, many of them with a single entry, and rows that elimination shrinks to one entry.

    A single-entry row makes its column zero modulo the space, so later
    rows meet such columns both before and after the row that clears them.
    """
    n, m = draw(rows), draw(cols)
    rng = draw(st.randoms(use_true_random=False))

    def value():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

    out = []
    for _ in range(n):
        row = [Fraction(0)] * m
        kind = rng.random()
        if kind < 0.45 or not out:  # a single entry
            row[rng.randrange(m)] = value()
        elif kind < 0.7:  # an earlier row plus a multiple of one more column: it reduces to that column
            row = list(rng.choice(out))
            row[rng.randrange(m)] += value()
        else:  # a sparse row
            for c in rng.sample(range(m), min(m, rng.randint(0, 3))):
                row[c] = value()
        out.append(row)
    return out


def vectors(ncols, rng):
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.4 else Fraction(0) for _ in range(ncols)]


def _frac(x):
    return Fraction(int(x.p), int(x.q))


def sympy_rref(sympy, rows):
    red, pivots = sympy.Matrix(rows).rref()
    return [[_frac(x) for x in red.row(i)] for i in range(len(pivots))], list(pivots)


SETTINGS = settings(max_examples=100, deadline=None)

# -- the echelon basis, the kernel and the routines built on them ---------------


@SETTINGS
@given(matrices())
def test_rref_matches_dense_reference(a):
    space = space_of(a)
    assert (dense_basis(space), space.pivots) == dense_rref(a)
    assert_sparse(space.basis(), space.pivots)
    assert space.dim == len(dense_rref(a)[0])


@SETTINGS
@given(matrices())
def test_rref_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    space = space_of(a)
    assert (dense_basis(space), space.pivots) == sympy_rref(sympy, a)
    assert space.dim == sympy.Matrix(a).rank()


@SETTINGS
@given(matrices())
def test_nullspace_matches_references(a):
    sympy = pytest.importorskip("sympy")
    space = space_of(a)
    basis = dense_kernel(space)
    assert basis == dense_nullspace(a)
    assert basis == [[_frac(x) for x in v] for v in sympy.Matrix(a).nullspace()]
    assert_sparse(space.nullspace(), space.complement_columns())
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)


@SETTINGS
@given(matrices(rows=st.just(4), cols=st.just(4)) | matrices(rows=st.just(2), cols=st.just(2)))
def test_invert_matches_references(a):
    sympy = pytest.importorskip("sympy")
    a = a[: len(a[0])]
    while len(a) < len(a[0]):
        a.append([Fraction(0)] * len(a[0]))
    inv = invert([sp(row) for row in a])
    ref = dense_invert(a)
    assert inv == (None if ref is None else [sp(row) for row in ref])
    ma = sympy.Matrix(a)
    if ma.det() == 0:
        assert inv is None
    else:
        assert [dense(row, len(a)) for row in inv] == [[_frac(x) for x in ma.inv().row(i)] for i in range(len(a))]
        # no stored zero, ascending columns, Fraction values
        assert all(list(row) == sorted(row) and all(type(x) is Fraction and x for x in row.values()) for row in inv)


@SETTINGS
@given(st.integers(1, 5), st.randoms(use_true_random=False), st.booleans())
def test_sparse_invert_matches_dense_invert(n, rng, singular):
    a = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < 0.6 else Fraction(0) for _ in range(n)] for _ in range(n)]
    if singular:  # a multiple of another row, or a zero row
        i, j, f = rng.randrange(n), rng.randrange(n), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        a[i] = [f * x for x in a[j]] if i != j else [Fraction(0)] * n
    rows = [sp(row) for row in a]
    inv = invert(rows)
    ref = dense_invert(a)
    assert inv == (None if ref is None else [sp(row) for row in ref])
    if singular:
        assert inv is None
    elif inv is not None:
        assert [linear_combination(row, rows) for row in inv] == [{i: 1} for i in range(n)]


# -- RowSpace -------------------------------------------------------------------


@SETTINGS
@given(matrices(), st.randoms(use_true_random=False))
def test_rowspace_matches_dense_reference(a, rng):
    ncols = len(a[0])
    space, ref = RowSpace(ncols), DenseRowSpace(ncols)
    for row in a:
        assert space.add(sp(row)) == ref.add(row)
        assert space.pivots == ref.pivots
        assert dense_basis(space) == ref.basis()
    assert space.dim == ref.dim
    assert space.complement_columns() == ref.complement_columns()
    assert dense_kernel(space) == dense_nullspace(a)
    vecs = [vectors(ncols, rng) for _ in range(4)] + a
    for v in vecs:
        assert space.contains(sp(v)) == ref.contains(v)
    # quotient coordinates: the reduced vector read at the complement columns
    comp = ref.complement_columns()
    assert [dense(quotient(space, sp(v)), len(comp)) for v in vecs] == [[ref.reduce(v)[c] for c in comp] for v in vecs]


@SETTINGS
@given(wide_matrices(), st.randoms(use_true_random=False))
def test_rowspace_matches_dense_reference_on_large_denominators(a, rng):
    ncols = len(a[0])
    space, ref = RowSpace(ncols), DenseRowSpace(ncols)
    for row in a:
        assert space.add(sp(row)) == ref.add(row)
        assert space.pivots == ref.pivots
        assert dense_basis(space) == ref.basis()
    assert dense_kernel(space) == dense_nullspace(a)
    comp = ref.complement_columns()
    for v in a + [vectors(ncols, rng)] + [[f * x for x in row] for row in a for f in (7, Fraction(-5, 999983))]:
        assert dense(quotient(space, sp(v)), len(comp)) == [ref.reduce(v)[c] for c in comp]
        assert space.contains(sp(v)) == ref.contains(v)


def dense_reduce(red, pivots, v):
    """``v`` modulo the span of the reduced rows ``red`` with pivots ``pivots``."""
    v = list(v)
    for row, p in zip(red, pivots):
        if v[p]:
            f = v[p]
            v = [x - f * y for x, y in zip(v, row)]
    return v


@SETTINGS
@given(unit_rich_matrices(), st.randoms(use_true_random=False))
def test_rowspace_matches_dense_rref_on_single_entry_rows(a, rng):
    ncols = len(a[0])
    red, pivots = dense_rref(a)
    comp = [c for c in range(ncols) if c not in pivots]
    # the probes: unit vectors, the rows themselves, and random sparse vectors
    vecs = [[Fraction(int(i == c)) for i in range(ncols)] for c in range(ncols)] + a + [vectors(ncols, rng) for _ in range(4)]
    order = list(a)
    rng.shuffle(order)
    for rows in (a, order):
        space = RowSpace(ncols)
        for row in rows:
            space.add(sp(row))
            assert_rows_primitive(space)
        assert (dense_basis(space), space.pivots) == (red, pivots)
        assert_sparse(space.basis(), space.pivots)
        assert dense_kernel(space) == dense_nullspace(a)
        for v in vecs:
            want = dense_reduce(red, pivots, v)
            assert space.contains(sp(v)) == (not any(want))
            assert dense(quotient(space, sp(v)), len(comp)) == [want[c] for c in comp]


@SETTINGS
@given(unit_rich_matrices(), st.randoms(use_true_random=False))
def test_quotient_map_matches_reduce_and_add_matches_dense_reference(a, rng):
    # the quotient map is a vector's sum through quotient_images(); the reference reduces densely
    ncols = len(a[0])
    space, ref = RowSpace(ncols), DenseRowSpace(ncols)
    for row in a:
        # add back-substitutes into the rows that are not unit rows only
        assert space.add(sp(row)) == ref.add(row)
        assert (dense_basis(space), space.pivots) == (ref.basis(), ref.pivots)
        assert space.unit_pivots == {p for p, r in zip(ref.pivots, ref.rows) if sum(map(bool, r)) == 1}
    comp = space.complement_columns()
    probes = [{c: 1} for c in range(ncols)] + [sp(row) for row in a] + [sp(vectors(ncols, rng)) for _ in range(4)]
    probes += [{c: rng.randint(-5, 5) for c in range(ncols)} for _ in range(2)]  # integer values
    for v in probes:
        got = quotient(space, v)
        assert dense(got, len(comp)) == [ref.reduce(dense(v, ncols))[c] for c in comp]
        assert all(type(x) is Fraction for x in got.values())


def test_quotient_map_refuses_use_after_the_space_grew():
    space = RowSpace(3)
    space.add({0: 1, 1: 2})
    images = space.quotient_images()
    assert linear_combination({0: 1}, images) == {0: Fraction(-2)}  # over the complement columns 1 and 2
    assert not space.add({0: 2, 1: 4})  # the space did not grow, so the table stays valid
    assert space.quotient_images() is images
    assert linear_combination({0: 1, 2: 3}, images) == {0: Fraction(-2), 1: Fraction(3)}
    assert space.add({2: 1})
    with pytest.raises(ValueError, match="grew"):
        images[1]  # a column the stale table has not filled
    assert space.quotient_images() is not images
    assert quotient(space, {0: 1, 2: 3}) == {0: Fraction(-2)}


def assert_rows_primitive(space):
    """Every stored row: nonzero ints with gcd 1, positive at its pivot and zero at every other pivot.

    ``unit_pivots`` holds exactly the pivots whose row is a unit vector.
    """
    assert sorted(space.rows) == space.pivots
    assert space.unit_pivots == {p for p, row in space.rows.items() if row == {p: 1}}
    for p, row in space.rows.items():
        assert all(type(x) is int and x for x in row.values())
        assert min(row) == p and row[p] > 0
        assert gcd(*row.values()) == 1
        assert not any(q in row for q in space.pivots if q != p)


@SETTINGS
@given(matrices() | wide_matrices() | unit_rich_matrices(), st.randoms(use_true_random=False))
def test_rowspace_rows_stay_primitive(a, rng):
    rng.shuffle(a)
    space = RowSpace(len(a[0]))
    for row in a:
        space.add(sp(row))
        assert_rows_primitive(space)
    # each stored row is the reduced row with a unit pivot times its pivot entry
    for (p, row), unit in zip(sorted(space.rows.items()), space.basis()):
        assert unit.keys() == row.keys()
        assert all(x == unit[c] * row[p] for c, x in row.items())


def test_quotient_images_give_fractions_on_integer_input():
    space = RowSpace(3)
    assert all(type(x) is Fraction for x in quotient(space, {0: 4, 2: -6}).values())
    assert space.add({0: 2, 1: 4})
    out = quotient(space, {0: 1, 1: 1, 2: 3})
    assert out == {0: Fraction(-1), 1: Fraction(3)}  # over the complement columns 1 and 2
    assert all(type(x) is Fraction for x in out.values())
    assert space.rows == {0: {0: 1, 1: 2}}


@SETTINGS
@given(matrices(), st.randoms(use_true_random=False))
def test_rowspace_matches_sympy(a, rng):
    sympy = pytest.importorskip("sympy")
    ncols = len(a[0])
    space = RowSpace(ncols)
    for row in a:
        space.add(sp(row))
    red, pivots = sympy_rref(sympy, a)
    assert (dense_basis(space), space.pivots) == (red, pivots)
    assert space.complement_columns() == [c for c in range(ncols) if c not in pivots]
    r = len(pivots)
    for v in [vectors(ncols, rng) for _ in range(4)]:
        inside = sympy.Matrix(a + [v]).rank() == r
        assert space.contains(sp(v)) == inside
        # the quotient coordinates placed at the complement columns: v reduced, so v minus them lies in the space
        red_v = [Fraction(0)] * ncols
        for c, x in zip(space.complement_columns(), dense(quotient(space, sp(v)), ncols - r)):
            red_v[c] = x
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
    # the same vectors, with entries in the same order
    assert [list(v.items()) for v in first.basis()] == [list(v.items()) for v in second.basis()]


@SETTINGS
@given(matrices(), st.randoms(use_true_random=False))
def test_rowspace_leaves_caller_vectors_alone(a, rng):
    ncols = len(a[0])
    space = RowSpace(ncols)
    for v in [sp(row) for row in a] + [sp(vectors(ncols, rng)) for _ in range(4)]:
        before = list(v.items())
        space.contains(v)
        quotient(space, v)
        space.add(v)
        assert list(v.items()) == before


def test_rowspace_drops_explicit_zeros():
    space = RowSpace(3)
    assert space.add({0: Fraction(0), 2: Fraction(3)})
    assert space.pivots == [2]
    assert space.contains({0: Fraction(0), 2: Fraction(5)})
    assert quotient(space, {0: Fraction(0), 1: Fraction(1), 2: Fraction(5)}) == {1: 1}
    assert space.nullspace() == [{0: 1}, {1: 1}]


def test_rowspace_integer_input_gives_fraction_rows():
    space = RowSpace(3)
    assert space.add(sp([0, 2, 4]))
    assert not space.add(sp([0, 1, 2]))
    assert space.basis() == [{1: 1, 2: 2}]
    assert all(type(x) is Fraction for x in space.basis()[0].values())
    space = space_of([[2, 4], [1, 3]])
    assert (space.basis(), space.pivots) == ([{0: 1}, {1: 1}], [0, 1])
    assert all(type(x) is Fraction for v in space.basis() for x in v.values())


@pytest.mark.parametrize("method", ["add", "contains"])
def test_rowspace_refuses_a_binary_float(method):
    space = RowSpace(2)
    space.add({1: 1})
    with pytest.raises(TypeError, match="exact scalars only"):
        getattr(space, method)({0: 0.5})
    assert space.rows == {1: {1: 1}}


@pytest.mark.parametrize("vec", [{1: 0.5}, {0: 1, 1: 2.0}, {1: 0.25, 2: 1}])
@pytest.mark.parametrize("method", ["add", "contains"])
def test_rowspace_refuses_a_binary_float_at_a_single_entry_column(method, vec):
    # column 1 holds the row {1: 1}, so it is zero modulo the space; a float there is still refused
    space = RowSpace(3)
    space.add({1: 3})
    with pytest.raises(TypeError, match="exact scalars only"):
        getattr(space, method)(vec)
    assert space.rows == {1: {1: 1}}


def test_empty_inputs():
    assert invert([]) == [] and invert([{}]) is None
    assert RowSpace(0).basis() == [] and RowSpace(0).nullspace() == []
    assert space_of([[Fraction(0)] * 3]).dim == 0
    assert space_of([[Fraction(0), Fraction(0)]]).nullspace() == [{0: 1}, {1: 1}]
    assert dense(quotient(RowSpace(2), sp([Fraction(1), Fraction(2)])), 2) == [1, 2]
