"""Dense matrix references for the tests: the products, the elimination and the inverse that module actions and
``linalg`` used before they kept only sparse vectors, ``decompose``'s Hom reading over them, and the left regular
module, which only the tests build.

``DenseRowSpace`` eliminates with unit-pivot ``Fraction`` rows over every column, zero or not: no entry is
skipped, so it is the reference for the shortcuts ``linalg.RowSpace`` takes."""

from fractions import Fraction

from zhuind.repmod import DecompositionRecord, FinModule


def zeros(n, m):
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        for t in range(k):
            if a[i][t]:
                for j in range(m):
                    out[i][j] += a[i][t] * b[t][j]
    return out


def dense_module(owner, dim, actions, label=""):
    """A module from dense matrices keyed by generator index; a generator not given acts as 0."""
    return FinModule.from_named_actions(owner, dim, {owner.gen_names[g]: mat for g, mat in actions.items()}, label)


def regular_module(handle):
    """The left regular module of a finite-dimensional algebra: its columns are ``handle.gen_products``."""
    return FinModule(handle, len(handle.basis), handle.gen_products, f"{handle.name}-regular")


def mat_of_columns(columns, nrows):
    """The dense matrix whose columns are the given sparse vectors."""
    return [[col.get(i, Fraction(0)) for col in columns] for i in range(nrows)]


def dense_hom_space(source, target):
    """hom_space with dense n*m-column intertwiner equations and their ``dense_nullspace``: the reference.

    Each intertwiner is a dense ``target.dim x source.dim`` matrix.
    """
    n, m = target.dim, source.dim
    if n * m == 0:
        return []
    rows = []
    for g in source.actions:
        a = target.actions[g]
        b = source.actions[g]
        for i in range(n):
            for j in range(m):
                row = [Fraction(0)] * (n * m)
                for k in range(m):
                    row[i * m + k] += b[k][j]
                for k in range(n):
                    row[k * m + j] -= a[i][k]
                rows.append(row)
    return [[[v[i * m + j] for j in range(m)] for i in range(n)] for v in dense_nullspace(rows)]


def hom_reading(module, irreducibles):
    """decompose's Hom reading, multiplicity(L) = dim Hom(L, module), with ``dense_hom_space``: the reference."""
    entries, used = [], 0
    for irr in irreducibles:
        n = len(dense_hom_space(irr, module))
        if n:
            entries.append((irr.label, n))
            used += n * irr.dim
    return DecompositionRecord(tuple(entries), module.dim - used)


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


def dense_invert(a):
    n = len(a)
    red, pivots = dense_rref([list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)) or len(red) != n:
        return None
    return [row[n:] for row in red]


def dense_nullspace(a):
    """The right kernel of the nonempty matrix ``a``: one vector per free column, ascending, read off ``dense_rref``."""
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
    """A subspace kept as dense reduced rows with unit pivots, sorted by pivot: ``RowSpace`` as it was."""

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
