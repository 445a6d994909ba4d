"""The four workloads: what each round runs and how its outputs are checked.

A round is a fixed list of operations whose inputs are drawn from the
seed; every round of a run draws the same inputs again, so each operation
is timed on identical work once per round.  Each ``Op`` belongs to a
class; latencies are grouped by class.  Checks run after the round's
timed operations, so they never warm a memo that a later timed operation
would use.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
from setup_probe import build_catalog


@dataclass
class Op:
    cls: str  # latencies are grouped by class
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    fault: bool = False  # a named-fault input: failing it does not make the run incorrect


def rand_rational(rng: random.Random, num: int = 9, den: int = 9) -> Fraction:
    return Fraction(rng.choice([i for i in range(-num, num + 1) if i]), rng.randint(1, den))


def rand_poly(rng: random.Random, n_gens: int, lengths: list[int]):
    """One term per entry of ``lengths``: random letters, nonzero rational coefficient."""
    from zhuind.freealg import NcPoly

    terms: dict = {}
    for n in lengths:
        w = tuple(rng.randrange(n_gens) for _ in range(n))
        terms[w] = terms.get(w, Fraction(0)) + rand_rational(rng)
    return NcPoly(terms)


def as_dicts(polys) -> list[dict]:
    return [dict(p.terms) for p in polys]


def throughput(latency: dict[str, float], per_round: dict[str, int], *prefixes: str) -> float:
    """Operations per second over the classes whose names start with ``prefixes``."""
    chosen = [cls for cls in per_round if cls.startswith(prefixes)]
    return sum(per_round[c] for c in chosen) / sum(per_round[c] * latency[c] for c in chosen)


def clear_memos(handles) -> None:
    """Cold normal-form memo: the state a fresh process starts from."""
    for h in handles:
        h.system._memo.clear()


# -- completion -------------------------------------------------------------

# a_vp precedences (greatest first) are fixed, not seeded, so the number of
# named-fault failures is the same in every run.  The last two need a
# confluence certificate beyond the degree-8 completion, and AlgebraHandle
# raises CertificateError for them today.
VP_ORDERS = (
    (("y", "x_a", "x_ma", "x", "x_ab", "x_b"), False),
    (("x_a", "x_ma", "x_ab", "x", "x_b", "y"), False),
    (("x_b", "x_a", "x_ab", "y", "x", "x_ma"), True),
    (("x", "y", "x_b", "x_ma", "x_a", "x_ab"), True),
)
# generated presentations with closed-form dimensions; sizes are fixed so
# that a round's cost does not depend on the seed, which draws q
POW_SIZES = (2, 4, 6)
PLANE_SIZES = ((2, 3), (4, 5), (6, 3))
POW_FAULTS = (7, 8, 9, 10)  # a^n - a needs normal words longer than the probe
PLANE_FAULT = (6, 4, Fraction(2, 3))  # longest normal word x^5 y^3 is past the probe
PROBE = 8  # normal-word lengths AlgebraHandle probes today
PROFILE_LEN = 24  # closed-form profiles are compared on the lengths a handle reports


def pow_profile(n: int) -> tuple[int, ...]:
    return tuple(int(k < n) for k in range(PROFILE_LEN))


class Completion:
    """Catalog presentations reordered, plus generated closed-form ones."""

    name = "completion"
    in_process = True
    REORDERINGS = {"a_va1": 2, "vb": 2, "a_va2": 2}

    def setup(self, rng: random.Random) -> list[str]:
        from zhuind import catalog

        build_catalog(catalog)
        self.catalog = catalog
        # the filtration profile does not depend on the deglex precedence
        self.ref_profile = {a: catalog.algebra(a).dim_result.profile for a in ("a_va1", "vb", "a_va2", "a_vp")}
        return []

    def begin_round(self) -> None:
        pass

    def _op(self, cls, pres, max_degree, dim, profile, fault=False) -> Op:
        from zhuind.algebra import AlgebraHandle

        relations = as_dicts(pres.relations)

        def check(h) -> list[str]:
            res = h.dim_result
            if fault and res.kind not in ("finite", "unbounded"):
                return []  # an explicit unknown is a truthful answer
            problems = []
            if h.system.confluent_to_degree != float("inf"):
                problems.append(f"certificate {h.system.confluent_to_degree}, expected infinite")
            if dim is not None and (res.kind != "finite" or res.value != dim):
                problems.append(f"{res.kind} {res.value}, expected dim {dim}")
            if dim is None and res.kind != "unbounded":
                problems.append(f"{res.kind} {res.value}, expected unbounded")
            k = min(len(res.profile), len(profile))
            if k <= PROBE or res.profile[:k] != profile[:k]:
                problems.append(f"profile {res.profile}, expected {profile[:k]}")
            return problems + checks.check_rule_traces(relations, h.system.rules)

        return Op(cls, lambda: AlgebraHandle.build(pres, max_degree=max_degree), check, fault)

    def _reordered(self, alg_id, ranking, rng):
        from zhuind.algebra import Presentation
        from zhuind.freealg import MonomialOrder

        pres = self.catalog.presentation(alg_id)
        rels = list(pres.relations)
        rng.shuffle(rels)
        order = MonomialOrder.from_ranking([pres.gen_names.index(g) for g in ranking])
        return Presentation(alg_id, pres.gen_names, order, tuple(rels))

    @staticmethod
    def _pow(n: int):
        from zhuind.algebra import Presentation
        from zhuind.freealg import MonomialOrder, NcPoly

        rel = NcPoly.monomial((0,) * n) - NcPoly.gen(0)
        return Presentation(f"pow{n}", ("a",), MonomialOrder((0,)), (rel,))

    @staticmethod
    def _plane(n: int, m: int, q: Fraction):
        from zhuind.algebra import Presentation
        from zhuind.freealg import MonomialOrder, NcPoly

        rels = (
            NcPoly.monomial((0,) * n),
            NcPoly.monomial((1,) * m),
            NcPoly.monomial((1, 0)) - NcPoly.monomial((0, 1), q),
        )
        return Presentation(f"qplane{n}x{m}", ("x", "y"), MonomialOrder.from_ranking([1, 0]), rels)

    def round(self, rng: random.Random, traced: bool) -> list[Op]:
        cat = self.catalog
        ops = []
        closed = {"a_va1": 5, "vb": None, "a_va2": 19}
        for alg_id, count in self.REORDERINGS.items():
            gens = list(cat.presentation(alg_id).gen_names)
            for _ in range(count):
                rng.shuffle(gens)
                pres = self._reordered(alg_id, gens, rng)
                ops.append(self._op(alg_id, pres, cat.COMPLETION_DEGREE[alg_id], closed[alg_id], self.ref_profile[alg_id]))
        for ranking, fault in VP_ORDERS:
            pres = self._reordered("a_vp", ranking, rng)
            cls = "a_vp_fault" if fault else "a_vp"
            ops.append(self._op(cls, pres, cat.COMPLETION_DEGREE["a_vp"], None, self.ref_profile["a_vp"], fault))
        for n in POW_SIZES:
            ops.append(self._op("pow", self._pow(n), 12, n, pow_profile(n)))
        for n in POW_FAULTS:
            ops.append(self._op("pow_fault", self._pow(n), 12, n, pow_profile(n), fault=True))
        for n, m in PLANE_SIZES:
            q = rand_rational(rng)
            ops.append(self._op("qplane", self._plane(n, m, q), 12, n * m, checks.qplane_profile(n, m, PROFILE_LEN)))
        n, m, q = PLANE_FAULT
        ops.append(self._op("qplane_fault", self._plane(n, m, q), 12, n * m, checks.qplane_profile(n, m, PROFILE_LEN), fault=True))
        return ops

    @staticmethod
    def named_metrics(latency, per_round) -> dict[str, tuple[float, str]]:
        return {"completions_per_s": (throughput(latency, per_round, ""), "1/s")}


# -- reduce -----------------------------------------------------------------


class Reduce:
    """Random polynomials reduced on fixed rules by all three rewrite loops."""

    name = "reduce"
    in_process = True
    PER_ALGEBRA = 96  # seeded polynomials per algebra per round, for reduce and reduce_traced
    FUZZ_PER_ALGEBRA = 24  # fixed polynomials per algebra per round, for confluence_fuzz
    MAX_LEN = 8
    PLANES = ((4, 5), (6, 3))
    STRUCTURE_PAIRS = 2  # structure-constant checks per finite algebra per round

    def setup(self, rng: random.Random) -> list[str]:
        from zhuind import catalog
        from zhuind.algebra import AlgebraHandle

        build_catalog(catalog)
        self.targets = []  # (name, handle, plane parameters or None)
        for alg_id in catalog.ALGEBRA_IDS:
            self.targets.append((alg_id, catalog.algebra(alg_id), None))
        for n, m in self.PLANES:
            q = rand_rational(rng)
            h = AlgebraHandle.build(Completion._plane(n, m, q))
            self.targets.append((h.name, h, (n, m, q)))
        self.relations = {name: as_dicts(h.system.relations) for name, h, _ in self.targets}
        self.lhs = {name: [r.lhs for r in h.system.rules] for name, h, _ in self.targets}
        return []

    def begin_round(self) -> None:
        clear_memos(h for _, h, _ in self.targets)

    def _polys(self, rng: random.Random, n_gens: int, count: int) -> list:
        # polynomial i has 1 + i % 4 terms of lengths 6-8 in a fixed pattern:
        # long words miss the memo, and the stream picks only letters and
        # coefficients, so the cost of a round hardly depends on it
        return [rand_poly(rng, n_gens, [self.MAX_LEN - (i + t) % 3 for t in range(1 + i % 4)]) for i in range(count)]

    def round(self, rng: random.Random, traced: bool) -> list[Op]:
        from zhuind import rewrite

        # The cost of one random-strategy trial varies a hundredfold with the
        # polynomial and the choices drawn, so even the median of 24 seeded
        # trials moves by a third from seed to seed.  The fuzz trials are
        # therefore the same on every seed.
        fuzz_rng = random.Random("reduce:fuzz")
        ops = []
        for name, h, plane in self.targets:
            system = h.system
            n_gens = len(h.gen_names)
            polys = self._polys(rng, n_gens, self.PER_ALGEBRA)
            for i, p in enumerate(polys):
                ops.append(Op(f"reduce:{name}", lambda p=p, system=system: system.reduce(p), self._check_reduce(name, h, plane, p, polys[i - 1] if i else None, i)))
            for p in polys:
                ops.append(Op(f"traced:{name}", lambda p=p, system=system: system.reduce_traced(p), self._check_traced(name, system, p)))
            for p in self._polys(fuzz_rng, n_gens, self.FUZZ_PER_ALGEBRA):
                s = fuzz_rng.randrange(1 << 30)
                ops.append(Op(f"fuzz:{name}", lambda p=p, s=s, system=system, n=n_gens: rewrite.confluence_fuzz(system, 1, n, seed=s, seeds=[p]), self._check_fuzz))
        return ops

    def _check_reduce(self, name, h, plane, p, prev, i):
        lhs = self.lhs[name]

        def check(r) -> list[str]:
            system = h.system
            problems = []
            if any(checks.contains_factor(w, l) for w in r.terms for l in lhs):
                problems.append("normal form keeps a reducible word")
            if system.reduce(r) != r:
                problems.append("reduce is not idempotent")
            if system.reduce(p.scale(Fraction(3, 2))) != r.scale(Fraction(3, 2)):
                problems.append("reduce does not commute with scaling")
            if prev is not None and system.reduce(prev + p) != system.reduce(prev) + r:
                problems.append("reduce is not additive")
            if plane is not None and dict(r.terms) != checks.qplane_normal_form(dict(p.terms), *plane):
                problems.append("quantum-plane normal form differs from q^inv x^a y^b")
            if h.basis is not None and prev is not None and i <= self.STRUCTURE_PAIRS:
                a, b = system.reduce(prev), r
                if h.mul_coords(h.coords(a), h.coords(b)) != h.coords(system.reduce(a * b)):
                    problems.append("structure-constant product differs from reduction of the product")
            return problems

        return check

    def _check_traced(self, name, system, p):
        def check(out) -> list[str]:
            nf, trace = out
            problems = checks.check_reduction(dict(p.terms), dict(nf.terms), self.relations[name], trace, self.lhs[name])
            if nf != system.reduce(p):
                problems.append("traced and memoised reduction disagree")
            return problems

        return check

    @staticmethod
    def _check_fuzz(out) -> list[str]:
        return [] if out is None else ["random-strategy reduction differs from the canonical one"]

    @staticmethod
    def named_metrics(latency, per_round) -> dict[str, tuple[float, str]]:
        return {
            "reductions_per_s": (throughput(latency, per_round, "reduce:"), "1/s"),
            "traced_reductions_per_s": (throughput(latency, per_round, "traced:"), "1/s"),
            "fuzz_trials_per_s": (throughput(latency, per_round, "fuzz:"), "1/s"),
        }


# -- kernel-induction -----------------------------------------------------

# quoted tables (the paper's claims): module parameter -> (decomposition, label)
F = Fraction
INDUCTION_TABLES = {
    ("heis_to_va1", "heis_mod"): [
        (F(0), "trivial:1", "V_{A1}"), (F(1), "L_half:1", "V_{A1+½α}"), (F(-1), "L_half:1", None),
        (F(2), "0", None), (F(-3), "0", None), (F(5, 2), "0", None), (F(7), "0", None),
    ],
    ("vb_to_va1", "vb_mod"): [
        (F(0), "trivial:1", None), (F(1), "L_half:1", None), (F(-1), "0", None), (F(2), "0", None), (F(-2), "0", None),
    ],
    ("vir_to_va1", "vir_mod"): [
        (F(0), "trivial:1", None), (F(1, 4), "L_half:2", None), (F(1), "0", None), (F(-1, 4), "0", None), (F(3, 7), "0", None),
    ],
    ("vp_to_va2", "vp_mod_U0"): [
        (F(0), "L0:1", "V_{A2}"), (F(1), "L_lambda_beta:1", "V_{A2+λβ}"), (F(-1), "0", "0"), (F(3), "0", "0"),
    ],
    ("vp_to_va2", "vp_mod_Uhalf"): [
        (F(1, 2), "L_lambda_alpha:1", "V_{A2+λα}"), (F(-1, 2), "0", "0"), (F(3), "0", "0"),
    ],
}
RANK_TWO_INDUCTIONS = [
    ("va1_trivial", 7, "L0:1 + L_lambda_alpha:1 + L_lambda_beta:1"),
    ("va1_L_half", 6, "L_lambda_alpha:1 + L_lambda_beta:1"),
]
RESTRICTIONS = [
    ("va2_L0", "trivial:1"),
    ("va2_L_lambda_alpha", "trivial:1 + L_half:1"),
    ("va2_L_lambda_beta", "trivial:1 + L_half:1"),
]
FROBENIUS_GRID = {
    "heis_to_va1": [("heis_mod", (F(s),)) for s in (0, 1, -1, 2, F(5, 2))],
    "vb_to_va1": [("vb_mod", (F(s),)) for s in (0, 1, -1, 2)],
    "vir_to_va1": [("vir_mod", (F(s),)) for s in (0, F(1, 4), 1, F(3, 7))],
    "va1_to_va2": [("va1_trivial", ()), ("va1_L_half", ())],
    "vp_to_va2": [(fam, (F(t),)) for fam in ("vp_mod_U0", "vp_mod_Uhalf") for t in (0, 1, -1, F(1, 2), F(-1, 2), 3)],
    "heis_to_va2": [("heis_mod", (F(s),)) for s in (0, 1, -1, 2)],
}
GENERIC_FAMILIES = {
    "heis_mod": "heis_to_va1",
    "vb_mod": "vb_to_va1",
    "vir_mod": "vir_to_va1",
    "vp_mod_U0": "vp_to_va2",
    "vp_mod_Uhalf": "vp_to_va2",
}
# every parameter at which some family induces to a nonzero module
SPECIAL = {F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(1, 4)}
CERTIFIED = ("heis_to_va1", "vb_to_va1", "vir_to_va1", "vp_to_va2")


def module_key(module) -> tuple:
    return (module.owner.name, module.dim, tuple(tuple(map(tuple, module.actions[g])) for g in sorted(module.actions)))


class KernelInduction:
    """Kernel certificates and induction tables on the built catalog."""

    name = "kernel-induction"
    in_process = True
    GENERIC_PER_FAMILY = 2

    def setup(self, rng: random.Random) -> list[str]:
        from zhuind import catalog

        build_catalog(catalog)
        self.catalog = catalog
        self.handles = [catalog.algebra(a) for a in catalog.ALGEBRA_IDS]
        self.relations = {a: as_dicts(catalog.presentation(a).relations) for a in catalog.ALGEBRA_IDS}
        self.irr_dims = {m.label: m.dim for a in ("a_va1", "a_va2") for m in catalog.irreducibles(a)}
        self._ranks: dict[str, tuple[list[int], list[int]]] = {}
        self._modules_ok: set = set()
        problems = []
        for alg_id in ("a_va1", "a_va2"):
            irr = [(m.label, m.actions, m.dim) for m in catalog.irreducibles(alg_id)]
            problems += checks.check_schur(irr)
        return problems

    def begin_round(self) -> None:
        clear_memos(self.handles)

    # -- independent figures, computed once per run --

    def _independent_ranks(self, mor_id: str) -> tuple[list[int], list[int]]:
        if mor_id not in self._ranks:
            from zhuind.algebra import normal_words

            m = self.catalog.morphism(mor_id)
            degree = self.catalog.KERNEL_PROBE_DEGREE[mor_id]
            words = normal_words(m.source, degree)
            images = {w: dict(m.apply_word(w).terms) for w in words}
            support = sorted({t for img in images.values() for t in img})
            ranks, slices = [], []
            for d in range(degree + 1):
                rows = [[images[w].get(t, F(0)) for t in support] for w in words if len(w) <= d]
                ranks.append(checks.rank(rows))
                slices.append(len(rows))
            self._ranks[mor_id] = (ranks, slices)
        return self._ranks[mor_id]

    def _check_module(self, module) -> list[str]:
        key = module_key(module)
        if key in self._modules_ok:
            return []
        problems = checks.check_module(module.actions, module.dim, self.relations[module.owner.name])
        if not problems:
            self._modules_ok.add(key)
        return problems

    def _check_induced(self, expected: str | None, label: str | None, dim: int | None):
        def check(res) -> list[str]:
            rec = res.decomposition
            problems = self._check_module(res.module)
            problems += checks.check_decomposition(rec.entries, rec.residual, res.dim, self.irr_dims)
            if expected is not None and str(rec) != expected:
                problems.append(f"decomposition {rec}, quoted {expected}")
            if label is not None and res.voa_label != label:
                problems.append(f"label {res.voa_label}, quoted {label}")
            if dim is not None and res.dim != dim:
                problems.append(f"dim {res.dim}, quoted {dim}")
            return problems

        return check

    def round(self, rng: random.Random, traced: bool) -> list[Op]:
        # functions are looked up on their modules when called, so a traced
        # round sees the wrapped ones
        from zhuind import induct, morphism, repmod

        cat = self.catalog
        ops = []
        for mor_id in CERTIFIED:
            m, cands, deg = cat.morphism(mor_id), list(cat.kernel_candidates(mor_id)), cat.KERNEL_PROBE_DEGREE[mor_id]
            ops.append(Op(f"certify:{mor_id}", lambda m=m, c=cands, d=deg: morphism.certify_kernel(m, c, d), self._check_cert(mor_id, deg)))
        m12 = cat.morphism("va1_to_va2")
        ops.append(Op("kernel:va1_to_va2", lambda: morphism.kernel_basis_finite(m12), self._check_injective))

        def induce_op(cls, mor_id, module, check):
            m, ker, irr = cat.morphism(mor_id), list(cat.kernel_candidates(mor_id)), cat.irreducibles(cat.morphism(mor_id).target.name)
            return Op(cls, lambda: induct.induce(m, ker, module, irr, cat.VOA_LABELS), check)

        for (mor_id, fam), rows in INDUCTION_TABLES.items():
            for t, expected, label in rows:
                ops.append(induce_op(f"induce:{mor_id}", mor_id, cat.module(fam, (t,)), self._check_induced(expected, label, None)))
        for mod_id, dim, expected in RANK_TWO_INDUCTIONS:
            label = "V_{A2} ⊕ V_{A2+λα} ⊕ V_{A2+λβ}" if mod_id == "va1_trivial" else None
            ops.append(induce_op("induce:va1_to_va2", "va1_to_va2", cat.module(mod_id), self._check_induced(expected, label, dim)))
        irr1 = cat.irreducibles("a_va1")
        for mod_id, expected in RESTRICTIONS:
            module = cat.module(mod_id)
            ops.append(Op("restrict:va1_to_va2", lambda mod=module: repmod.decompose(induct.restrict(m12, mod), irr1), self._check_restricted(module.dim, expected)))
        m1, m2 = cat.morphism("heis_to_va1"), cat.morphism("va1_to_va2")
        k1, kc = list(cat.kernel_candidates("heis_to_va1")), list(cat.kernel_candidates("heis_to_va2"))
        irr2 = cat.irreducibles("a_va2")
        for s in (F(0), F(1), F(-1), F(2)):
            module = cat.module("heis_mod", (s,))
            ops.append(Op("compose:heis_to_va2", lambda mod=module: induct.composition_check(m1, m2, k1, [], kc, mod, irr2), self._check_composition))
        for mor_id, grid in FROBENIUS_GRID.items():
            m, ker = cat.morphism(mor_id), list(cat.kernel_candidates(mor_id))
            for fam, params in grid:
                module = cat.module(fam, params)
                for target in cat.irreducibles(m.target.name):
                    ops.append(Op(f"frobenius:{mor_id}", lambda m=m, k=ker, s=module, t=target: induct.frobenius_check(m, k, s, t), self._check_frobenius))
        for fam, mor_id in GENERIC_FAMILIES.items():
            for _ in range(self.GENERIC_PER_FAMILY):
                t = F(0)
                while t in SPECIAL:
                    t = F(rng.randint(-30, 30), rng.randint(1, 12))
                ops.append(induce_op(f"generic:{fam}", mor_id, cat.module(fam, (t,)), self._check_induced("0", None, 0)))
        return ops

    def _check_cert(self, mor_id: str, degree: int):
        def check(cert) -> list[str]:
            problems = [] if cert.status == "exact" else [f"status {cert.status}"]
            if cert.degree != degree:
                problems.append(f"degree {cert.degree}, asked {degree}")
            ranks, slices = self._independent_ranks(mor_id)
            return problems + checks.check_certificate_table(cert.table, ranks, slices)

        return check

    def _check_injective(self, basis) -> list[str]:
        if basis:
            return [f"kernel of va1_to_va2 has {len(basis)} vectors, expected none"]
        m = self.catalog.morphism("va1_to_va2")
        images = [dict(m.apply_word(w).terms) for w in m.source.basis]
        support = sorted({t for img in images for t in img})
        r = checks.rank([[img.get(t, F(0)) for t in support] for img in images])
        return [] if r == len(images) else [f"image rank {r} < source dim {len(images)}, kernel reported empty"]

    def _check_restricted(self, dim: int, expected: str):
        def check(rec) -> list[str]:
            problems = checks.check_decomposition(rec.entries, rec.residual, dim, self.irr_dims)
            return problems + ([] if str(rec) == expected else [f"restriction {rec}, quoted {expected}"])

        return check

    @staticmethod
    def _check_composition(out) -> list[str]:
        two, one = out
        return [] if two == one else [f"two-step {two} != composite {one}"]

    @staticmethod
    def _check_frobenius(out) -> list[str]:
        left, right = out
        return [] if left == right else [f"dim Hom(Ind M, K) = {left} != dim Hom(M, Res K) = {right}"]

    @staticmethod
    def named_metrics(latency, per_round) -> dict[str, tuple[float, str]]:
        certify = sum(n * latency[cls] for cls, n in per_round.items() if cls.startswith("certify:"))
        return {"certify_s": (certify, "s"), "inductions_per_s": (throughput(latency, per_round, "induce:", "generic:", "frobenius:"), "1/s")}


# -- cli-cold ---------------------------------------------------------------


class CliCold:
    """Fresh interpreters, one at a time, each running one ``zhuind.cli ... --json`` command through bootstrap.py."""

    name = "cli-cold"
    in_process = False

    def __init__(self, root: Path, results: Path, env: dict[str, str], gauge: tuple[int, float]):
        self.root = root
        self.results = results
        self.env = env  # PYTHONPATH reaches the checkout's src/
        self.gauge = gauge  # burst and gap of the reference.Gauge each command runs in
        self.commands_run = 0
        self.spans: dict[str, dict] = {}  # of the traced commands since the last take_spans
        self.imports: list[float] = []

    def setup(self, rng: random.Random) -> list[str]:
        sys.path.insert(0, str(self.root / "src"))
        from zhuind import catalog

        source = self.results / "catalog.zi"
        source.write_text(catalog.catalog_source(), encoding="utf-8")
        self.commands = [
            ("verify_all", ["verify", "all"], self._check_verify),
            ("kernel", ["kernel", "--via", "vp_to_va2"], self._check_kernel),
            ("dim", ["dim", "a_va2"], self._check_dim),
            ("induce_va1", ["induce", "--via", "va1_to_va2", "--module", "va1_trivial"], self._check_induce_va1),
            ("induce_vp", ["induce", "--via", "vp_to_va2", "--module", "vp_mod_U0(0)"], self._check_induce_vp),
            ("check", ["check", os.path.relpath(source, self.root)], self._check_check),
        ]
        return []

    def begin_round(self) -> None:
        pass

    def round(self, rng: random.Random, traced: bool) -> list[Op]:
        return [Op(cls, lambda a=args: self._run(a, traced), check) for cls, args, check in self.commands]

    def _out_file(self) -> Path:
        return self.results / f"command-{os.getpid()}-{self.commands_run}.json"

    def _run(self, args: list[str], traced: bool):
        self.commands_run += 1
        bootstrap = self.root / "perfbench" / "bootstrap.py"
        burst, gap = self.gauge
        argv = [sys.executable, str(bootstrap), str(self._out_file()), str(int(traced)), str(burst), str(gap), *args, "--json"]
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=170)
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            raise RuntimeError(f"exit {proc.returncode}, no JSON report: {proc.stderr.strip()[-300:]}")
        return proc.returncode, report

    def command_level(self) -> tuple[float, float]:
        """Of the last command: the seconds its reference runs took, and their level."""
        from tracing import merge

        path = self._out_file()
        data = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        if "spans" in data:
            merge(self.spans, data["spans"])
            self.imports.append(data["import_s"])
        return data["ref_s"], data["level"]

    def take_spans(self) -> tuple[dict, list[float]]:
        """Merged spans and import times of the traced commands since the last call."""
        spans, imports = self.spans, self.imports
        self.spans, self.imports = {}, []
        return spans, imports

    @staticmethod
    def _check_verify(out) -> list[str]:
        code, report = out
        problems = [] if code == 1 and report.get("failures") == 2 else [f"exit {code}, failures {report.get('failures')}, expected exit 1 and 2"]
        statuses = {row["case"]: row["status"] for row in report.get("cases", [])}
        if sorted(statuses) != [f"c{i:02d}" for i in range(1, 16)]:
            problems.append(f"cases {sorted(statuses)}")
        for case, status in statuses.items():
            want = "FAIL" if case in ("c02", "c11") else "PASS"
            if status != want:
                problems.append(f"{case} {status}, expected {want}")
        return problems

    @staticmethod
    def _check_kernel(out) -> list[str]:
        code, report = out
        problems = [] if code == 0 and report.get("status") == "exact" and report.get("degree") == 8 else [f"exit {code}, {report.get('status')} to degree {report.get('degree')}"]
        table = report.get("per_degree", [])
        if len(table) != 9:
            problems.append(f"{len(table)} degree rows, expected 9")
        for d, (slice_dim, ideal_dim, img_rank) in enumerate(table):
            if slice_dim - ideal_dim != img_rank:
                problems.append(f"degree {d}: slice {slice_dim} - ideal {ideal_dim} != rank {img_rank}")
        return problems

    @staticmethod
    def _check_dim(out) -> list[str]:
        code, report = out
        return [] if code == 0 and report.get("dimension") == 19 else [f"exit {code}, dimension {report.get('dimension')}"]

    @staticmethod
    def _check_induce(out, dim: int, decomposition: str, label: str) -> list[str]:
        code, report = out
        problems = [] if code == 0 and report.get("residual") == 0 else [f"exit {code}, residual {report.get('residual')}"]
        if report.get("dim") != dim or report.get("decomposition") != decomposition:
            problems.append(f"dim {report.get('dim')} {report.get('decomposition')}, expected dim {dim} {decomposition}")
        if report.get("voa_label") != label:
            problems.append(f"label {report.get('voa_label')}, expected {label}")
        return problems

    @staticmethod
    def _check_induce_va1(out) -> list[str]:
        return CliCold._check_induce(out, 7, "L0:1 + L_lambda_alpha:1 + L_lambda_beta:1", "V_{A2} ⊕ V_{A2+λα} ⊕ V_{A2+λβ}")

    @staticmethod
    def _check_induce_vp(out) -> list[str]:
        return CliCold._check_induce(out, 1, "L0:1", "V_{A2}")

    @staticmethod
    def _check_check(out) -> list[str]:
        code, report = out
        want = {"heis": "unbounded", "vir": "unbounded", "vb": "unbounded", "a_va1": 5, "a_va2": 19, "a_vp": "unbounded"}
        got = {row["algebra"]: row["dimension"] for row in report.get("algebras", [])}
        problems = [] if code == 0 and got == want else [f"exit {code}, dimensions {got}"]
        for row in report.get("algebras", []):
            if row["confluent_to_degree"] != "infinite":
                problems.append(f"{row['algebra']}: certificate {row['confluent_to_degree']}")
        return problems

    @staticmethod
    def named_metrics(latency, per_round) -> dict[str, tuple[float, str]]:
        return {
            "verify_all_s": (latency["verify_all"], "s"),
            "kernel_cli_s": (latency["kernel"], "s"),
            "dim_cli_s": (latency["dim"], "s"),
            "induce_cli_s": (statistics.median([latency["induce_va1"], latency["induce_vp"]]), "s"),
            "check_cli_s": (latency["check"], "s"),
        }
