"""Oriented rewriting systems and bounded diamond-lemma completion.

A rule ``lhs -> rhs`` rewrites the word ``lhs`` to the strictly smaller
polynomial ``rhs``; a system is confluent when every overlap or inclusion
ambiguity between rules resolves to zero.  ``complete`` saturates a
relation set by processing ambiguities in increasing witness length up to
a degree bound and reports how far confluence is certified.

Every rule carries a cofactor trace: an exact expression of
``lhs - rhs`` as a two-sided combination of the original relations.  The
trace survives completion, so ``p - reduce(p)`` can always be certified
to lie in the ideal generated by the input presentation.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from zhuind.freealg import EPSILON, MonomialOrder, NcPoly, Word, _add_scaled

INFINITE = float("inf")
STEP_BUDGET = 100_000  # rewrite steps allowed for one polynomial

# one summand  c * (left) * relation[idx] * (right)
TraceAtom = tuple[Fraction, Word, int, Word]
Trace = tuple[TraceAtom, ...]


@dataclass(frozen=True)
class RewriteRule:
    """lhs -> rhs with lhs monic and every rhs word smaller than lhs."""

    lhs: Word
    rhs: NcPoly
    trace: Trace = ()

    def relation_poly(self) -> NcPoly:
        return NcPoly.monomial(self.lhs) - self.rhs


@dataclass(frozen=True)
class Ambiguity:
    """A word containing two rule left-hand sides.

    For an overlap of length ``k`` the witness is ``lhs_i + lhs_j[k:]``;
    for an inclusion, ``lhs_j`` sits inside ``lhs_i`` at ``offset`` and
    the witness is ``lhs_i`` itself.
    """

    kind: str  # "overlap" | "inclusion"
    i: int
    j: int
    witness: Word
    offset: int


class CompletionError(Exception):
    """Raised for inconsistent presentations or blown completion budgets."""

    def __init__(self, kind: str, report: str):
        super().__init__(f"{kind}: {report}")
        self.kind = kind
        self.report = report


def _scale_trace(trace: Trace, c: Fraction) -> Trace:
    return tuple((c * a, l, i, r) for (a, l, i, r) in trace)


def _shift_trace(trace: Trace, left: Word, right: Word) -> Trace:
    return tuple((c, left + l, i, r + right) for (c, l, i, r) in trace)


def expand_trace(relations: list[NcPoly] | tuple[NcPoly, ...], trace: Trace) -> NcPoly:
    """Evaluate a trace with free multiplication only (no rewriting)."""
    total = NcPoly.zero()
    for c, left, idx, right in trace:
        _add_scaled(total.terms, c, relations[idx].sandwich(left, right).terms)
    return total


def _find_redex(word: Word, rules: dict[int, RewriteRule]) -> tuple[int, int] | None:
    """Leftmost, lowest-id redex: returns (position, rule id)."""
    n = len(word)
    for pos in range(n):
        for rid in rules:
            lhs = rules[rid].lhs
            m = len(lhs)
            if m and pos + m <= n and word[pos : pos + m] == lhs:
                return pos, rid
    return None


def _rewrite(
    p: NcPoly, rules: dict[int, RewriteRule], order: MonomialOrder, rng: random.Random | None = None
) -> tuple[NcPoly, list[tuple[Fraction, Word, RewriteRule, Word]]]:
    """The rewrite loop: rewrite ``p`` until no term has a redex.

    A step ``(c, left, rule, right)`` turns ``c left lhs right`` into ``c left rhs right``.
    Canonically it rewrites the greatest reducible word at its leftmost, lowest-id redex;
    with ``rng`` it draws one of all redexes, listed by term, rule id and position.
    """
    cur = p
    steps: list[tuple[Fraction, Word, RewriteRule, Word]] = []
    while True:
        hit = None
        if rng is None:
            for w in sorted(cur.terms, key=order.key, reverse=True):
                found = _find_redex(w, rules)
                if found:
                    hit = (w, *found)
                    break
        else:
            redexes = [
                (w, pos, rid)
                for w in cur.terms
                for rid, rule in rules.items()
                for pos in range(len(w) - len(rule.lhs) + 1)
                if w[pos : pos + len(rule.lhs)] == rule.lhs
            ]
            if redexes:
                hit = redexes[rng.randrange(len(redexes))]
        if hit is None:
            return cur, steps
        w, pos, rid = hit
        rule = rules[rid]
        c = cur.terms[w]
        left, right = w[:pos], w[pos + len(rule.lhs) :]
        cur = cur - NcPoly.monomial(w, c) + rule.rhs.sandwich(left, right, c)
        steps.append((c, left, rule, right))
        if len(steps) > STEP_BUDGET:
            raise RuntimeError("reduction step budget exceeded")


def _reduce_traced(p: NcPoly, rules: dict[int, RewriteRule], order: MonomialOrder) -> tuple[NcPoly, Trace]:
    """Canonical reduction with its trace: p - result = sum(trace)."""
    result, steps = _rewrite(p, rules, order)
    return result, tuple((c * a, left + l, i, r + right) for c, left, rule, right in steps for a, l, i, r in rule.trace)


def _overlaps(i: int, li: Word, j: int, lj: Word) -> list[Ambiguity]:
    out = []
    for k in range(1, min(len(li), len(lj))):
        if li[len(li) - k :] == lj[:k]:
            out.append(Ambiguity("overlap", i, j, li + lj[k:], k))
    return out


def _ambiguities_of_pair(i: int, li: Word, j: int, lj: Word) -> list[Ambiguity]:
    out = _overlaps(i, li, j, lj)
    if i != j:
        out.extend(_overlaps(j, lj, i, li))
        if len(lj) < len(li):
            for pos in range(len(li) - len(lj) + 1):
                if li[pos : pos + len(lj)] == lj:
                    out.append(Ambiguity("inclusion", i, j, li, pos))
        elif len(li) < len(lj):
            for pos in range(len(lj) - len(li) + 1):
                if lj[pos : pos + len(li)] == li:
                    out.append(Ambiguity("inclusion", j, i, lj, pos))
    return out


def _s_poly(amb: Ambiguity, rules: dict[int, RewriteRule]) -> tuple[NcPoly, Trace]:
    """Difference of the two one-step reductions of the witness."""
    ri, rj = rules[amb.i], rules[amb.j]
    if amb.kind == "overlap":
        k = amb.offset
        pre = ri.lhs[: len(ri.lhs) - k]
        suf = rj.lhs[k:]
        s = ri.rhs.sandwich(EPSILON, suf) - rj.rhs.sandwich(pre, EPSILON)
        trace = _shift_trace(rj.trace, pre, EPSILON) + _scale_trace(_shift_trace(ri.trace, EPSILON, suf), Fraction(-1))
    else:
        a = ri.lhs[: amb.offset]
        b = ri.lhs[amb.offset + len(rj.lhs) :]
        s = ri.rhs - rj.rhs.sandwich(a, b)
        trace = _shift_trace(rj.trace, a, b) + _scale_trace(ri.trace, Fraction(-1))
    return s, trace


class RewriteSystem:
    """An interreduced rule set with a confluence certificate.

    ``confluent_to_degree`` is ``INFINITE`` when every ambiguity of the
    final rules was checked, otherwise the degree bound the completion
    ran with.  ``reduce`` is linear, idempotent and terminating.
    """

    def __init__(
        self,
        order: MonomialOrder,
        rules: list[RewriteRule],
        confluent_to_degree: float,
        relations: tuple[NcPoly, ...] = (),
    ):
        self.order = order
        self.rules = tuple(sorted(rules, key=lambda r: order.key(r.lhs)))
        self.confluent_to_degree = confluent_to_degree
        self.relations = relations
        self._memo: dict[Word, NcPoly] = {}
        self._rule_dict = {i: r for i, r in enumerate(self.rules)}
        self.max_rule_degree = max((len(r.lhs) for r in self.rules), default=0)

    # -- normal forms ---------------------------------------------------

    def is_normal_word(self, word: Word) -> bool:
        return _find_redex(word, self._rule_dict) is None

    def reduce_word(self, word: Word) -> NcPoly:
        memo = self._memo
        cached = memo.get(word)
        if cached is not None:
            return cached
        found = _find_redex(word, self._rule_dict)
        if found is None:
            result = NcPoly.monomial(word)
        else:
            pos, rid = found
            rule = self._rule_dict[rid]
            left, right = word[:pos], word[pos + len(rule.lhs) :]
            result = NcPoly.zero()
            for t, c in rule.rhs.terms.items():
                _add_scaled(result.terms, c, self.reduce_word(left + t + right).terms)
        memo[word] = result
        return result

    def reduce(self, p: NcPoly) -> NcPoly:
        out = NcPoly.zero()
        for w, c in p.terms.items():
            _add_scaled(out.terms, c, self.reduce_word(w).terms)
        return out

    def reduce_traced(self, p: NcPoly) -> tuple[NcPoly, Trace]:
        """Reduction plus a cofactor certificate over the input relations."""
        return _reduce_traced(p, self._rule_dict, self.order)

    def find_ambiguities(self) -> list[Ambiguity]:
        out: list[Ambiguity] = []
        ids = list(self._rule_dict)
        for a in range(len(ids)):
            for b in range(a, len(ids)):
                i, j = ids[a], ids[b]
                out.extend(_ambiguities_of_pair(i, self._rule_dict[i].lhs, j, self._rule_dict[j].lhs))
        out.sort(key=lambda amb: (len(amb.witness), self.order.key(amb.witness), amb.i, amb.j, amb.offset))
        return out


def complete(
    relations: list[NcPoly],
    order: MonomialOrder,
    max_degree: int = 12,
    max_rules: int = 4000,
) -> RewriteSystem:
    """Saturate a relation set into an interreduced rewriting system.

    Ambiguities with witness length at most ``max_degree`` are resolved in
    increasing length.  Raises ``CompletionError('inconsistent', ...)``
    when a relation reduces to a nonzero scalar (the algebra is zero) and
    ``CompletionError('budget', ...)`` when the rule count explodes.
    """
    base = tuple(relations)
    for r in base:
        if r.is_zero():
            raise CompletionError("inconsistent", "zero relation in presentation")

    rules: dict[int, RewriteRule] = {}
    next_id = itertools.count()
    pending: list[tuple[NcPoly, Trace]] = [
        (rel, ((Fraction(1), EPSILON, idx, EPSILON),)) for idx, rel in enumerate(base)
    ]
    heap: list[tuple[int, tuple, int, int, int, str]] = []

    def push_ambiguities(i: int) -> None:
        li = rules[i].lhs
        for j in list(rules):
            for amb in _ambiguities_of_pair(i, li, j, rules[j].lhs) if j != i else _overlaps(i, li, i, li):
                if len(amb.witness) <= max_degree:
                    heapq.heappush(
                        heap, (len(amb.witness), order.key(amb.witness), amb.i, amb.j, amb.offset, amb.kind)
                    )

    def add_rule(poly: NcPoly, trace: Trace) -> None:
        lw, lc = poly.leading_term(order)
        inv = Fraction(1) / lc
        rhs = (NcPoly.monomial(lw) - poly.scale(inv))
        rule = RewriteRule(lw, rhs, _scale_trace(trace, inv))
        # retire rules whose lhs contains the new lhs
        for rid in [rid for rid, r in rules.items() if _contains(r.lhs, lw)]:
            old = rules.pop(rid)
            pending.append((old.relation_poly(), old.trace))
        # re-reduce right-hand sides against the enlarged rule set
        rid = next(next_id)
        rules[rid] = rule
        for other_id, other in list(rules.items()):
            if other_id == rid:
                continue
            new_rhs, delta = _reduce_traced(other.rhs, {rid: rule}, order)
            if delta:
                rules[other_id] = RewriteRule(other.lhs, new_rhs, other.trace + delta)
        push_ambiguities(rid)
        if len(rules) > max_rules:
            raise CompletionError("budget", f"more than {max_rules} rules at degree bound {max_degree}")

    def drain() -> None:
        while pending or heap:
            if pending:
                poly, trace = pending.pop()
                poly, delta = _reduce_traced(poly, rules, order)
                # pending traces satisfy poly == sum(trace), so subtract
                trace = trace + _scale_trace(delta, Fraction(-1))
                if poly.is_zero():
                    continue
                if poly.is_scalar():
                    raise CompletionError("inconsistent", "a relation reduces to a nonzero scalar")
                add_rule(poly, trace)
                continue
            _, _, i, j, offset, kind = heapq.heappop(heap)
            if i not in rules or j not in rules:
                continue
            amb = Ambiguity(kind, i, j, _witness(rules, i, j, offset, kind), offset)
            s, trace = _s_poly(amb, rules)
            s, delta = _reduce_traced(s, rules, order)
            if not s.is_zero():
                pending.append((s, trace + _scale_trace(delta, Fraction(-1))))

    def _witness(rdict: dict[int, RewriteRule], i: int, j: int, offset: int, kind: str) -> Word:
        if kind == "overlap":
            return rdict[i].lhs + rdict[j].lhs[offset:]
        return rdict[i].lhs

    drain()

    # verification sweep on the final rule set
    while True:
        final = RewriteSystem(order, list(rules.values()), max_degree, base)
        leftover = False
        dirty = False
        for amb in final.find_ambiguities():
            if len(amb.witness) > max_degree:
                leftover = True
                continue
            s, trace = _s_poly(amb, final._rule_dict)
            s, delta = _reduce_traced(s, final._rule_dict, order)
            if not s.is_zero():
                rules = dict(final._rule_dict)
                pending.append((s, trace + _scale_trace(delta, Fraction(-1))))
                drain()
                dirty = True
                break
        if not dirty:
            return RewriteSystem(order, list(rules.values()), max_degree if leftover else INFINITE, base)


def _contains(word: Word, sub: Word) -> bool:
    n, m = len(word), len(sub)
    return any(word[p : p + m] == sub for p in range(n - m + 1))


def confluence_fuzz(
    system: RewriteSystem,
    trials: int,
    n_gens: int,
    seed: int = 0,
    max_len: int = 5,
    seeds: list[NcPoly] | None = None,
) -> NcPoly | None:
    """Compare random-strategy reduction against the canonical one.

    Returns None on agreement for every trial, otherwise the first
    diverging polynomial.
    """
    rng = random.Random(seed)
    for t in range(trials):
        if seeds is not None and t < len(seeds):
            p = seeds[t]
        else:
            terms: dict[Word, Fraction] = {}
            for _ in range(rng.randint(1, 4)):
                w = tuple(rng.randrange(n_gens) for _ in range(rng.randint(0, max_len)))
                terms[w] = terms.get(w, Fraction(0)) + Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            p = NcPoly(terms)
        if _rewrite(p, system._rule_dict, system.order, rng)[0] != system.reduce(p):
            return p
    return None
