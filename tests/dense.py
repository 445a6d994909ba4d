"""Dense matrix references for the tests: the products module actions used before they were stored as sparse columns."""

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
