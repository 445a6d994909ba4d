"""Oriented rewriting systems and bounded diamond-lemma completion.

A rule ``lhs -> rhs`` rewrites the word ``lhs`` to the strictly smaller
polynomial ``rhs``; a system is confluent when every overlap or inclusion
ambiguity between rules resolves to zero.  ``complete`` saturates a
relation set in one loop that resolves ambiguities in increasing witness
length up to a degree bound, and reports how far confluence is certified.
A pair ledger records each resolved ambiguity with the two rule objects it
was resolved against; a rule is a ``FrozenRecord`` whose fields no code
can assign to, so while both are unchanged the pair stays resolvable
(Bergman 1978) and is not resolved again.

Canonical rewriting looks left-hand sides up in an ``LhsIndex``: a dict
from each left-hand side to its rule id, and the distinct left-hand-side
lengths.  A word of length n costs at most n times that many slice
lookups, not a comparison with every rule at every position.  The
redex chosen is the scan's: the leftmost position, then the lowest rule
id.  An interreduced set (every set ``complete`` keeps) has at most one
match per position, because two left-hand sides starting at the same
place would have the shorter inside the longer; only a rule set built
directly, with a duplicate or nested left-hand side, needs the id
tie-break.  ``RewriteSystem`` builds the index once and ``complete``
updates it where a rule is added or retired.  The random strategy of
``_rewrite`` still lists every redex by scanning.

Ambiguities are looked up the same way, in ``AffixTables``: the proper
prefixes, proper suffixes and factors of the left-hand sides, each to its
rule ids in rule order.  The overlaps of one rule are the rules found at
its own proper suffixes in the prefix table and at its own proper
prefixes in the suffix table; the rules whose left-hand side contains a
word are the factor table's entry for it.  ``complete`` keeps the tables
beside its ``LhsIndex``, and ``find_ambiguities`` builds them once.

Every rule carries a cofactor trace: an exact expression of ``lhs - rhs``
as a two-sided combination of the original relations, built from rewrite
steps only for a polynomial that is kept.  ``uncertified_rules`` checks
every trace by free products; with ``unresolved_ambiguities`` it certifies
``reduce`` as the normal-form map of the presented algebra.
"""

from __future__ import annotations

import heapq
import itertools
import random
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from zhuind.freealg import EPSILON, FrozenRecord, MonomialOrder, NcPoly, Word, _add_scaled

INFINITE = float("inf")
STEP_BUDGET = 100_000  # rewrite steps allowed for one polynomial
TRACE_BUDGET = 10_000  # cofactor atoms allowed in one rule trace
RULE_BUDGET = 4000  # rules allowed at once during one completion
FUZZ_MAX_LEN = 5  # the longest word in a random polynomial of confluence_fuzz

# one summand  c * (left) * relation[idx] * (right)
TraceAtom = tuple[Fraction, Word, int, Word]
Trace = tuple[TraceAtom, ...]


class RewriteRule(FrozenRecord):
    """lhs -> rhs with lhs monic and every rhs word smaller than lhs."""

    __slots__ = ("lhs", "rhs", "trace")
    lhs: Word
    rhs: NcPoly
    trace: Trace

    def __new__(cls, lhs: Word, rhs: NcPoly, trace: Trace = ()) -> "RewriteRule":
        self = object.__new__(cls)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "trace", trace)
        return self

    def relation_poly(self) -> NcPoly:
        return NcPoly.monomial(self.lhs) - self.rhs


# one rewrite step  c * left * (lhs -> rhs) * right
Step = tuple[Fraction, Word, RewriteRule, Word]


class Ambiguity(FrozenRecord):
    """A word containing two rule left-hand sides.

    For an overlap of length ``k`` the witness is ``lhs_i + lhs_j[k:]``;
    for an inclusion, ``lhs_j`` sits inside ``lhs_i`` at ``offset`` and
    the witness is ``lhs_i`` itself.
    """

    __slots__ = ("kind", "i", "j", "witness", "offset")
    kind: str  # "overlap" | "inclusion"
    i: int
    j: int
    witness: Word
    offset: int

    def __new__(cls, kind: str, i: int, j: int, witness: Word, offset: int) -> "Ambiguity":
        self = object.__new__(cls)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "offset", offset)
        return self


class CompletionError(Exception):
    """Raised for inconsistent presentations or blown completion budgets."""

    def __init__(self, kind: str, report: str):
        super().__init__(f"{kind}: {report}")
        self.kind = kind
        self.report = report


def _scale_trace(trace: Trace, c: Fraction) -> Trace:
    return tuple((c * a, l, i, r) for (a, l, i, r) in trace)


def _trace(steps: list[Step], sign: int = 1) -> Trace:
    """``sign`` times the trace of rewrite steps: ``c * left * rule.trace * right`` per step."""
    if sign != 1:
        steps = [(sign * c, left, rule, right) for c, left, rule, right in steps]
    return tuple((c * a, left + l, i, r + right) for c, left, rule, right in steps for a, l, i, r in rule.trace)


class LhsIndex:
    """The left-hand sides of a rule dict: each to its lowest rule id, and their lengths.

    ``lengths`` holds the distinct left-hand-side lengths in ascending
    order.  Rule ids ascend in the order of every rule dict the package
    builds, so the lowest id is the first in rule order.  An empty
    left-hand side never matches, as in a scan that skips it.
    """

    __slots__ = ("ids", "lengths")

    def __init__(self, rules: dict[int, RewriteRule]):
        self.ids: dict[Word, int] = {}
        for rid, rule in rules.items():
            if rule.lhs:
                self.ids.setdefault(rule.lhs, rid)
        self._relength()

    def add(self, rid: int, lhs: Word) -> None:
        self.ids[lhs] = rid
        self._relength()

    def remove(self, lhs: Word) -> None:
        del self.ids[lhs]
        self._relength()

    def _relength(self) -> None:
        self.lengths = tuple(sorted({len(lhs) for lhs in self.ids}))


def _find_redex(word: Word, index: LhsIndex) -> tuple[int, int] | None:
    """Leftmost, lowest-id redex: returns (position, rule id)."""
    ids, lengths = index.ids, index.lengths
    n = len(word)
    if not ids or n < lengths[0]:
        return None
    get = ids.get
    for pos in range(n - lengths[0] + 1):
        hit = None
        for m in lengths:
            if pos + m > n:
                break
            rid = get(word[pos : pos + m])
            if rid is not None and (hit is None or rid < hit):
                hit = rid
        if hit is not None:
            return pos, hit
    return None


def _rewrite(
    p: NcPoly,
    rules: dict[int, RewriteRule],
    order: MonomialOrder,
    rng: random.Random | None = None,
    index: LhsIndex | None = None,
) -> tuple[NcPoly, list[Step]]:
    """The rewrite loop: rewrite ``p`` until no term has a redex.

    A step ``(c, left, rule, right)`` turns ``c left lhs right`` into ``c left rhs right``.
    Canonically it rewrites the greatest reducible word at its leftmost, lowest-id redex,
    found through ``index`` (built from ``rules`` when not given);
    with ``rng`` it draws one of all redexes, listed by term, rule id and position.
    The first step copies ``p`` and every step rewrites the copy in place; ``p`` is never written.

    The canonical search pops the words not yet found normal from a max-heap.  A step
    adds only words smaller than the one it rewrites, so a word popped as normal never
    returns, and only the words a step newly brings into the polynomial are pushed.
    """
    heap = None
    if rng is None:
        if index is None:
            index = LhsIndex(rules)
        prec = order.precedence
        # order.key negated entrywise, so that the least entry is the greatest word
        heap = [(-len(w), [-prec[g] for g in w], w) for w in p.terms]
        heapq.heapify(heap)
    cur = p
    steps: list[Step] = []
    while True:
        hit = None
        if heap is not None:
            while heap:
                w = heapq.heappop(heap)[2]
                found = _find_redex(w, index) if w in cur.terms else None
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
        if cur is p:
            cur = NcPoly()
            cur.terms = dict(p.terms)
        w, pos, rid = hit
        rule = rules[rid]
        c = cur.terms.pop(w)
        left, right = w[:pos], w[pos + len(rule.lhs) :]
        added = {left + t + right: v for t, v in rule.rhs.terms.items()}
        if heap is not None:
            for u in added:
                if u not in cur.terms:
                    heapq.heappush(heap, (-len(u), [-prec[g] for g in u], u))
        _add_scaled(cur.terms, c, added)
        steps.append((c, left, rule, right))
        if len(steps) > STEP_BUDGET:
            raise RuntimeError("reduction step budget exceeded")


def _factors(word: Word) -> set[Word]:
    """Every factor of ``word``, the empty word and ``word`` itself included."""
    n = len(word)
    return {word[a:b] for a in range(n + 1) for b in range(a, n + 1)}


class AffixTables:
    """Proper prefixes, proper suffixes and factors of left-hand sides, each to its rules.

    Each table maps a word to a dict from rule id to left-hand side, in the
    order the rules were added: rule order, since ids ascend.  Two rules
    overlap by ``k`` exactly when the proper suffix of length ``k`` of the
    first is a proper prefix of the second.  ``factors[u]`` holds the rules
    whose left-hand side contains ``u``, the empty word included.
    """

    __slots__ = ("prefixes", "suffixes", "factors")

    def __init__(self, rules: dict[int, RewriteRule]):
        self.prefixes: dict[Word, dict[int, Word]] = {}
        self.suffixes: dict[Word, dict[int, Word]] = {}
        self.factors: dict[Word, dict[int, Word]] = {}
        for rid, rule in rules.items():
            self.add(rid, rule.lhs)

    def _keys(self, lhs: Word):
        n = len(lhs)
        yield from ((self.prefixes, lhs[:k]) for k in range(1, n))
        yield from ((self.suffixes, lhs[n - k :]) for k in range(1, n))
        yield from ((self.factors, u) for u in _factors(lhs))

    def add(self, rid: int, lhs: Word) -> None:
        for table, key in self._keys(lhs):
            table.setdefault(key, {})[rid] = lhs

    def remove(self, rid: int, lhs: Word) -> None:
        for table, key in self._keys(lhs):
            ids = table[key]
            del ids[rid]
            if not ids:
                del table[key]

    def left_overlaps(self, i: int, li: Word) -> list[Ambiguity]:
        """The overlaps ``(i, j, k)``: a proper suffix of ``li`` is a proper prefix of ``lhs_j``, j = i included."""
        n, prefixes = len(li), self.prefixes
        return [
            Ambiguity("overlap", i, j, li + lj[k:], k)
            for k in range(1, n)
            for j, lj in prefixes.get(li[n - k :], {}).items()
        ]

    def right_overlaps(self, i: int, li: Word) -> list[Ambiguity]:
        """The overlaps ``(j, i, k)`` with j != i: a proper prefix of ``li`` is a proper suffix of ``lhs_j``."""
        suffixes = self.suffixes
        return [
            Ambiguity("overlap", j, i, lj + li[k:], k)
            for k in range(1, len(li))
            for j, lj in suffixes.get(li[:k], {}).items()
            if j != i
        ]

    def inclusions(self, j: int, lj: Word) -> list[Ambiguity]:
        """The inclusions ``(i, j, pos)``: ``lj`` sits at ``pos`` in a strictly longer ``lhs_i``."""
        m = len(lj)
        return [
            Ambiguity("inclusion", i, j, li, pos)
            for i, li in self.factors.get(lj, {}).items()
            if len(li) > m
            for pos in range(len(li) - m + 1)
            if li[pos : pos + m] == lj
        ]


def _s_poly(amb: Ambiguity, rules: dict[int, RewriteRule]) -> tuple[NcPoly, list[Step]]:
    """Difference of the two one-step reductions of the witness, with those two steps.

    The S-polynomial is the sum of ``c * left * (lhs - rhs) * right`` over the
    two steps, so ``_trace(steps)`` is its trace.
    """
    ri, rj = rules[amb.i], rules[amb.j]
    if amb.kind == "overlap":
        k = amb.offset
        left, right, suf = ri.lhs[: len(ri.lhs) - k], EPSILON, rj.lhs[k:]
    else:
        left, right, suf = ri.lhs[: amb.offset], ri.lhs[amb.offset + len(rj.lhs) :], EPSILON
    s = ri.rhs.sandwich(EPSILON, suf) - rj.rhs.sandwich(left, right)
    return s, [(Fraction(1), left, rj, right), (Fraction(-1), EPSILON, ri, suf)]


class RewriteSystem:
    """An interreduced rule set with a confluence certificate.

    ``confluent_to_degree`` is ``INFINITE`` when every ambiguity of the
    final rules was checked, otherwise the degree bound the completion
    ran with.  ``reduce`` is linear, idempotent and terminating, and the
    memo entries ``reduce_word`` hands out have read-only terms.  A system
    from ``complete`` counts the pairs it resolved and rules it added and retired.
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
        self.lhs_index = LhsIndex(self._rule_dict)
        self.max_rule_degree = max((len(r.lhs) for r in self.rules), default=0)
        self.pairs_resolved = self.rules_added = self.rules_retired = 0

    # -- normal forms ---------------------------------------------------

    def reduce_word(self, word: Word) -> NcPoly:
        memo = self._memo
        cached = memo.get(word)
        if cached is not None:
            return cached
        found = _find_redex(word, self.lhs_index)
        if found is None:
            result = NcPoly.monomial(word)
        else:
            pos, rid = found
            rule = self._rule_dict[rid]
            left, right = word[:pos], word[pos + len(rule.lhs) :]
            result = NcPoly.zero()
            for t, c in rule.rhs.terms.items():
                _add_scaled(result.terms, c, self.reduce_word(left + t + right).terms)
        result.terms = MappingProxyType(result.terms)
        memo[word] = result
        return result

    def reduce(self, p: NcPoly) -> NcPoly:
        out = NcPoly.zero()
        for w, c in p.terms.items():
            _add_scaled(out.terms, c, self.reduce_word(w).terms)
        return out

    def reduce_traced(self, p: NcPoly) -> tuple[NcPoly, Trace]:
        """Reduction plus a cofactor certificate over the input relations: p - result = sum(trace)."""
        result, steps = _rewrite(p, self._rule_dict, self.order, index=self.lhs_index)
        return result, _trace(steps)

    def find_ambiguities(self) -> list[Ambiguity]:
        """Every overlap and inclusion ambiguity, by witness length, witness, ``i``, ``j`` and offset.

        No two ambiguities share that key, so the list does not depend on
        the order they are found in.  It is found once per system; each
        call returns a fresh copy.
        """
        return list(self._ambiguities)

    @cached_property
    def _ambiguities(self) -> tuple[Ambiguity, ...]:
        rules = self._rule_dict
        tables = AffixTables(rules)
        out = [amb for i, rule in rules.items() for amb in tables.left_overlaps(i, rule.lhs)]
        out.extend(amb for j, rule in rules.items() for amb in tables.inclusions(j, rule.lhs))
        out.sort(key=lambda amb: (len(amb.witness), self.order.key(amb.witness), amb.i, amb.j, amb.offset))
        return tuple(out)

    def unresolved_ambiguities(self) -> list[Ambiguity]:
        """The ambiguities whose S-polynomial does not reduce to zero, in ``find_ambiguities`` order.

        An empty list proves the rules confluent in every degree by the
        diamond lemma (Bergman 1978): deglex is a monomial well-order, so
        the rules terminate, and a terminating system is confluent iff the
        S-polynomial of every ambiguity reduces to zero.
        """
        rules = self._rule_dict
        return [amb for amb in self.find_ambiguities() if not self.reduce(_s_poly(amb, rules)[0]).is_zero()]

    def uncertified_rules(self) -> list[RewriteRule]:
        """The rules whose trace does not expand to ``lhs - rhs``, in rule order.

        The expansion multiplies freely and reduces nothing; an atom naming no
        relation leaves its rule uncertified.  No uncertified rule, every
        relation reducing to 0 and no unresolved ambiguity make ``reduce`` the
        normal-form map of the presented algebra in every degree.  Proof: the
        traces put the ideal J of the rule relations inside the ideal I of the
        relations; ``p - reduce(p)`` lies in J for every p, so a relation that
        reduces to 0 lies in J and I = J; by the diamond lemma ``reduce`` is
        the projection onto the normal words along J.
        """
        rels = self.relations

        def expands(rule: RewriteRule) -> bool:
            total: dict[Word, Fraction] = {}
            for c, left, idx, right in rule.trace:
                if not 0 <= idx < len(rels):
                    return False
                _add_scaled(total, c, rels[idx].sandwich(left, right).terms)
            return total == rule.relation_poly().terms

        return [rule for rule in self.rules if not expands(rule)]


def complete(
    relations: list[NcPoly],
    order: MonomialOrder,
    max_degree: int = 12,
) -> RewriteSystem:
    """Saturate a relation set into an interreduced rewriting system.

    Ambiguities with witness length at most ``max_degree`` are resolved in
    increasing length.  Raises ``ValueError`` for a negative
    ``max_degree``, ``CompletionError('inconsistent', ...)`` when a
    relation reduces to a nonzero scalar (the algebra is zero) and
    ``CompletionError('budget', ...)`` when the rule count or a rule's
    trace explodes.

    One loop turns pending polynomials into rules first, then resolves the
    queued pair with the smallest witness; a nonzero reduced S-polynomial
    becomes pending.  The live left-hand sides are kept in an ``LhsIndex``
    for reduction and in ``AffixTables``: a new rule's overlaps are queued
    by table lookups at its proper prefixes and suffixes, the rules to
    retire are the factor table's entry for its left-hand side, and the
    right-hand sides to rebuild are those whose set of word factors holds
    it, a set remade only when its rule is.  No inclusion ambiguity is
    ever queued, because none occurs among the live rules: a new
    left-hand side is normal, so no live left-hand side lies inside it,
    and every live one containing it is retired before it is added.  The
    ledger maps ``(lhs_i, lhs_j, offset, kind)`` to
    the two rule objects a pair was last resolved against, and a pair it
    holds with the same two objects (``is``) is skipped.  A rule whose
    right-hand side is rebuilt is marked, and when nothing is pending or
    queued the pairs of the live marked rules are queued again.  The
    certificate is ``INFINITE`` when no pair with a witness longer than
    ``max_degree`` (recorded when queued) has both rules live.

    The result is exact.  A pair is queued after each addition or rebuild
    of one of its rules, so at the end every final pair with a witness of
    at most ``max_degree`` is ledgered with its final two objects.  Its
    S-polynomial was then a combination of rule relations at words below
    its witness ``w``: the steps of its reduction, plus the rule made from
    a nonzero result.  Retiring a rule or rewriting a right-hand side only
    re-expresses a rule relation through words no larger than its
    left-hand side, so the S-polynomial stays in the span of the final
    rule relations below ``w`` ("resolvable relative to <=", Bergman
    1978).  The order compares length first, so the diamond lemma taken
    below each witness makes reduction by the final rules unique on words
    up to ``max_degree``: every final S-polynomial that short reduces to
    zero, and a full check of the final rules finds nothing to add.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    base = tuple(relations)
    for r in base:
        if r.is_zero():
            raise CompletionError("inconsistent", "zero relation in presentation")

    rules: dict[int, RewriteRule] = {}
    index, tables = LhsIndex(rules), AffixTables(rules)  # changed only where a left-hand side comes or goes
    rhs_factors: dict[int, set[Word]] = {}  # the factors of each rule's right-hand-side words
    next_id = itertools.count()
    pending: list[tuple[NcPoly, Trace]] = [
        (rel, ((Fraction(1), EPSILON, idx, EPSILON),)) for idx, rel in enumerate(base)
    ]
    heap: list[tuple[int, tuple, int, int, int, str, Word]] = []
    ledger: dict[tuple[Word, Word, int, str], tuple[RewriteRule, RewriteRule]] = {}
    marked: set[int] = set()  # rules whose right-hand side was rebuilt
    beyond: set[tuple[int, int]] = set()  # pairs with a witness longer than max_degree
    resolved = 0

    def push_ambiguities(i: int) -> None:
        li = rules[i].lhs
        for amb in tables.left_overlaps(i, li) + tables.right_overlaps(i, li):
            w = amb.witness
            if len(w) <= max_degree:
                heapq.heappush(heap, (len(w), order.key(w), amb.i, amb.j, amb.offset, amb.kind, w))
            else:
                beyond.add((amb.i, amb.j))

    def new_rule(lhs: Word, rhs: NcPoly, trace: Trace) -> RewriteRule:
        if len(trace) > TRACE_BUDGET:
            raise CompletionError("budget", f"a rule trace exceeds {TRACE_BUDGET} atoms at degree bound {max_degree}")
        return RewriteRule(lhs, rhs, trace)

    def put(rid: int, rule: RewriteRule) -> None:
        rules[rid] = rule
        rhs_factors[rid] = set().union(*map(_factors, rule.rhs.terms))

    def add_rule(poly: NcPoly, trace: Trace) -> None:
        lw, lc = poly.leading_term(order)
        inv = Fraction(1) / lc
        rhs = (NcPoly.monomial(lw) - poly.scale(inv))
        rule = new_rule(lw, rhs, _scale_trace(trace, inv))
        # retire the rules whose lhs contains the new lhs, in rule order
        for rid in list(tables.factors.get(lw, ())):
            old = rules.pop(rid)
            del rhs_factors[rid]
            index.remove(old.lhs)
            tables.remove(rid, old.lhs)
            pending.append((old.relation_poly(), old.trace))
        # re-reduce the right-hand sides that contain the new lhs; no other one changes
        rid = next(next_id)
        put(rid, rule)
        index.add(rid, lw)
        tables.add(rid, lw)
        for other_id, other in list(rules.items()):
            if other_id == rid or lw not in rhs_factors[other_id]:
                continue
            new_rhs, steps = _rewrite(other.rhs, {rid: rule}, order)
            delta = _trace(steps)
            if delta:
                put(other_id, new_rule(other.lhs, new_rhs, other.trace + delta))
                marked.add(other_id)
        push_ambiguities(rid)
        if len(rules) > RULE_BUDGET:
            raise CompletionError("budget", f"more than {RULE_BUDGET} rules at degree bound {max_degree}")

    while True:
        if pending:
            poly, trace = pending.pop()
            poly, steps = _rewrite(poly, rules, order, index=index)
            if poly.is_zero():
                continue
            if poly.is_scalar():
                raise CompletionError("inconsistent", "a relation reduces to a nonzero scalar")
            # pending traces satisfy poly == sum(trace), so subtract the steps
            add_rule(poly, trace + _trace(steps, -1))
        elif heap:
            _, _, i, j, offset, kind, w = heapq.heappop(heap)
            if i not in rules or j not in rules:
                continue
            ri, rj = rules[i], rules[j]
            key = (ri.lhs, rj.lhs, offset, kind)
            held = ledger.get(key)
            if held and held[0] is ri and held[1] is rj:
                continue
            resolved += 1
            s, s_steps = _s_poly(Ambiguity(kind, i, j, w, offset), rules)
            s, steps = _rewrite(s, rules, order, index=index)
            ledger[key] = (ri, rj)
            if not s.is_zero():  # the trace is built only for a kept S-polynomial
                pending.append((s, _trace(s_steps) + _trace(steps, -1)))
        elif marked:
            for rid in marked & rules.keys():
                push_ambiguities(rid)
            marked.clear()
        else:
            break

    leftover = any(i in rules and j in rules for i, j in beyond)
    system = RewriteSystem(order, list(rules.values()), max_degree if leftover else INFINITE, base)
    system.pairs_resolved = resolved
    system.rules_added = next(next_id)  # one id per added rule; every rule not live was retired
    system.rules_retired = system.rules_added - len(rules)
    return system


def confluence_fuzz(
    system: RewriteSystem,
    trials: int,
    n_gens: int,
    seed: int = 0,
    seeds: list[NcPoly] | None = None,
) -> NcPoly | None:
    """Compare random-strategy reduction against the canonical one.

    Returns None on agreement for every trial, otherwise the first
    diverging polynomial.  The ``reduce`` benchmark workload is its only
    caller outside the tests; ``verify`` checks confluence exactly with
    ``RewriteSystem.unresolved_ambiguities`` instead.
    """
    rng = random.Random(seed)
    for t in range(trials):
        if seeds is not None and t < len(seeds):
            p = seeds[t]
        else:
            terms: dict[Word, Fraction] = {}
            for _ in range(rng.randint(1, 4)):
                w = tuple(rng.randrange(n_gens) for _ in range(rng.randint(0, FUZZ_MAX_LEN)))
                terms[w] = terms.get(w, Fraction(0)) + Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            p = NcPoly(terms)
        if _rewrite(p, system._rule_dict, system.order, rng)[0] != system.reduce(p):
            return p
    return None
