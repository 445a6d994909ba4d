"""Dense matrix references for the tests: the products, the elimination and the inverse that module actions and
``linalg`` used before they kept only sparse vectors."""

from fractions import Fraction

from zhuind.repmod import FinModule


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


def mat_of_columns(columns, nrows):
    """The dense matrix whose columns are the given sparse vectors."""
    return [[col.get(i, Fraction(0)) for col in columns] for i in range(nrows)]


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
