"""Correctness checks computed apart from the program.

Polynomials here are plain ``dict[word, Fraction]`` maps and matrices are
lists of ``Fraction`` rows; nothing below calls ``zhuind``'s arithmetic,
rewriting or linear algebra.  Each checker returns a list of problems,
empty when the output is correct, so a caller can report what went wrong.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Word = tuple[int, ...]
Poly = dict[Word, Fraction]


# -- free algebra ---------------------------------------------------------


def padd(acc: Poly, other: Poly, scale: Fraction = Fraction(1)) -> Poly:
    """acc += scale * other, in place; returns acc."""
    for w, c in other.items():
        s = acc.get(w, 0) + scale * c
        if s:
            acc[w] = s
        else:
            acc.pop(w, None)
    return acc


def psub(a: Poly, b: Poly) -> Poly:
    return padd(dict(a), b, Fraction(-1))


def expand_trace(relations: list[Poly], trace) -> Poly:
    """Sum of c * left * relation[idx] * right with free multiplication."""
    total: Poly = {}
    for c, left, idx, right in trace:
        padd(total, {left + w + right: v for w, v in relations[idx].items()}, c)
    return total


def contains_factor(word: Word, factor: Word) -> bool:
    m = len(factor)
    return any(word[p : p + m] == factor for p in range(len(word) - m + 1))


def check_rule_traces(relations: list[Poly], rules) -> list[str]:
    """Every rule's cofactor trace must expand to lhs - rhs."""
    problems = []
    for rule in rules:
        want = psub({rule.lhs: Fraction(1)}, dict(rule.rhs.terms))
        if expand_trace(relations, rule.trace) != want:
            problems.append(f"trace of rule {rule.lhs} does not expand to lhs - rhs")
    return problems


def check_reduction(p: Poly, reduced: Poly, relations: list[Poly], trace, lhs_words: list[Word]) -> list[str]:
    """A normal form must be irreducible and differ from p by its trace."""
    problems = []
    for w in reduced:
        if any(contains_factor(w, lhs) for lhs in lhs_words):
            problems.append(f"normal form keeps reducible word {w}")
            break
    if expand_trace(relations, trace) != psub(p, reduced):
        problems.append("expanded trace differs from p - reduce(p)")
    return problems


def qplane_normal_form(p: Poly, n: int, m: int, q: Fraction) -> Poly:
    """Closed form in the truncated quantum plane x^n = y^m = 0, y x = q x y.

    Generator 0 is x and 1 is y.  A word with a letters x and b letters y
    is q^(inversions) x^a y^b, where an inversion is a y before an x; it
    is 0 once a >= n or b >= m.
    """
    out: Poly = {}
    for w, c in p.items():
        a = w.count(0)
        b = len(w) - a
        if a >= n or b >= m:
            continue
        inversions, ys = 0, 0
        for g in w:
            if g == 1:
                ys += 1
            else:
                inversions += ys
        padd(out, {(0,) * a + (1,) * b: q**inversions}, c)
    return out


def qplane_profile(n: int, m: int, length: int) -> tuple[int, ...]:
    return tuple(sum(1 for a in range(n) for b in range(m) if a + b == k) for k in range(length + 1))


# -- exact linear algebra -------------------------------------------------


def rank(rows: list[list[Fraction]]) -> int:
    """Rank by fraction-free (Bareiss) elimination on integer rows."""
    mat = []
    for row in rows:
        den = lcm(*(Fraction(x).denominator for x in row)) if row else 1
        ints = [int(Fraction(x) * den) for x in row]
        if any(ints):
            mat.append(ints)
    if not mat:
        return 0
    ncols = len(mat[0])
    r, prev = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pr = mat[r]
        for i in range(r + 1, len(mat)):
            row = mat[i]
            row[:] = [(pr[c] * row[j] - row[c] * pr[j]) // prev for j in range(ncols)]
        prev = pr[c]
        r += 1
        if r == len(mat):
            break
    return r


def matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            c = a[i][t]
            if c:
                bt, oi = b[t], out[i]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def evaluate(poly: Poly, actions: dict[int, list[list[Fraction]]], dim: int) -> list[list[Fraction]]:
    """The matrix of a polynomial acting through generator matrices."""
    total = [[Fraction(0)] * dim for _ in range(dim)]
    for w, c in poly.items():
        mat = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
        for g in w:
            mat = matmul(mat, actions[g])
        for i in range(dim):
            for j in range(dim):
                if mat[i][j]:
                    total[i][j] += c * mat[i][j]
    return total


def check_module(actions: dict[int, list[list[Fraction]]], dim: int, relations: list[Poly]) -> list[str]:
    """Every relation of the owner must act as the zero matrix."""
    problems = []
    for idx, rel in enumerate(relations):
        if any(x for row in evaluate(rel, actions, dim) for x in row):
            problems.append(f"relation {idx} does not act as zero")
    return problems


def hom_dim(src: dict[int, list[list[Fraction]]], n_src: int, tgt: dict[int, list[list[Fraction]]], n_tgt: int) -> int:
    """dim of {T : T src(g) = tgt(g) T for all g}, as unknowns minus rank."""
    if n_src * n_tgt == 0:
        return 0
    rows = []
    for g in src:
        a, b = tgt[g], src[g]
        for i in range(n_tgt):
            for j in range(n_src):
                row = [Fraction(0)] * (n_tgt * n_src)
                for k in range(n_src):
                    row[i * n_src + k] += b[k][j]
                for k in range(n_tgt):
                    row[k * n_src + j] -= a[i][k]
                rows.append(row)
    return n_tgt * n_src - rank(rows)


def check_schur(irreducibles: list[tuple[str, dict, int]]) -> list[str]:
    """Pairwise non-isomorphic irreducibles: dim Hom(L_i, L_j) = delta_ij."""
    problems = []
    for i, (li, ai, di) in enumerate(irreducibles):
        for j, (lj, aj, dj) in enumerate(irreducibles):
            d = hom_dim(ai, di, aj, dj)
            if d != int(i == j):
                problems.append(f"dim Hom({li}, {lj}) = {d}")
    return problems


def check_decomposition(entries, residual: int, induced_dim: int, irr_dims: dict[str, int]) -> list[str]:
    """Multiplicities times dimensions must add up to the induced dimension."""
    problems = []
    if residual:
        problems.append(f"residual {residual}")
    total = sum(m * irr_dims[label] for label, m in entries)
    if total + residual != induced_dim:
        problems.append(f"multiplicities give dim {total}, induced dim is {induced_dim}")
    return problems


def check_certificate_table(table, ranks: list[int], slice_dims: list[int]) -> list[str]:
    """slice - ideal == rank at every degree, with independently computed ranks."""
    problems = []
    if len(table) != len(ranks):
        return [f"table has {len(table)} rows, expected {len(ranks)}"]
    for d, ((slice_dim, ideal_dim, img_rank), want_rank, want_slice) in enumerate(zip(table, ranks, slice_dims)):
        if img_rank != want_rank:
            problems.append(f"degree {d}: image rank {img_rank}, independent rank {want_rank}")
        if slice_dim != want_slice:
            problems.append(f"degree {d}: slice dim {slice_dim}, expected {want_slice}")
        if slice_dim - ideal_dim != img_rank:
            problems.append(f"degree {d}: slice {slice_dim} - ideal {ideal_dim} != rank {img_rank}")
    return problems
