"""Verification cases: one deterministic, self-contained case per
acceptance row, each reducing a documented claim to an exact check.

Two cases are expected to FAIL and are kept failing on purpose; the
source text they check is internally inconsistent and the honest
computation disagrees with it (see the repository README):

  * c02: six of the twelve quoted derived relations for the
    nineteen-dimensional algebra carry a sign error on the lowest root
    generator (their sign-corrected forms are verified instead, and the
    corrected forms also vanish on the explicit matrix modules);
  * c11: the quoted direct-sum basis of the parabolic-type algebra lists
    x_b x^2 and x_ab x^2 as independent, but x_b x^2 = x_b x and
    x_ab x^2 = -x_ab x are forced by the presentation itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from zhuind import catalog
from zhuind.algebra import normal_words
from zhuind.chars import artin_solve, symmetry_violations
from zhuind.freealg import NcPoly, Word
from zhuind.induct import frobenius_dims, induce, kernel_action_radical, composition_check, restrict
from zhuind.iolang import parse_poly_text
from zhuind.morphism import certify_kernel, kernel_basis_finite
from zhuind.repmod import decompose, wedderburn_certificate

F = Fraction


class CaseResult(NamedTuple):
    case: str
    description: str
    provenance: str
    status: str
    expected: str
    actual: str
    details: list[str]

    def row(self) -> dict:
        return {
            "case": self.case,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
            "provenance": self.provenance,
            "description": self.description,
            "details": list(self.details),
        }


def _word_str(handle, w: Word) -> str:
    return " ".join(handle.gen_names[g] for g in w) or "1"


def _induce_id(mor_id: str, fam: str, params: tuple):
    m = catalog.morphism(mor_id)
    ker = list(catalog.kernel_candidates(mor_id))
    irr = catalog.irreducibles(m.target.name)
    module = catalog.module(fam, params)
    return induce(m, ker, module, irr, catalog.VOA_LABELS)


# -- individual cases ----------------------------------------------------


def case_01() -> tuple[bool, str, str, list[str]]:
    va1 = catalog.algebra("a_va1")
    expected = {"1", "e", "f", "h", "h h"}
    actual = {_word_str(va1, w) for w in (va1.basis or [])}
    ok = va1.dim() == 5 and actual == expected
    return ok, "dim 5, basis {1,e,f,h,h h}", f"dim {va1.dim()}, basis {sorted(actual)}", []


_DERIVED_RELATIONS_LITERAL = [
    "x_a x_b + x_ab y", "x_b x_a + x_ab y + x_ab",
    "x_ma x_mb + x_mab x - x_mab", "x_mb x_ma + x_mab x",
    "x_b x_mab + x_ma y + x_ma", "x_mab x_b + x_ma y",
    "x_mb x_ab - x_a y + x_a", "x_ab x_mb - x_a y",
    "x_a x_mab - x_mb x - x_mb", "x_mab x_a - x_mb x",
    "x_ma x_ab + x_b x - x_b", "x_ab x_ma + x_b x",
]

# the same statements with the sign of x_mab flipped where it occurs
_DERIVED_RELATIONS_CORRECTED = [
    "x_a x_b + x_ab y", "x_b x_a + x_ab y + x_ab",
    "x_ma x_mb - x_mab x + x_mab", "x_mb x_ma - x_mab x",
    "x_b x_mab - x_ma y - x_ma", "x_mab x_b - x_ma y",
    "x_mb x_ab - x_a y + x_a", "x_ab x_mb - x_a y",
    "x_a x_mab + x_mb x + x_mb", "x_mab x_a + x_mb x",
    "x_ma x_ab + x_b x - x_b", "x_ab x_ma + x_b x",
]


def case_02() -> tuple[bool, str, str, list[str]]:
    va2 = catalog.algebra("a_va2")
    details: list[str] = []
    dim_ok = va2.dim() == 19
    indep_ok = va2.basis is not None and len(set(va2.basis)) == 19
    details.append(f"dimension 19: {'PASS' if dim_ok else 'FAIL'}")
    details.append(f"19 normal words independent by construction: {'PASS' if indep_ok else 'FAIL'}")
    failing = []
    for s in _DERIVED_RELATIONS_LITERAL:
        if not va2.system.reduce(parse_poly_text(s, va2.gen_names)).is_zero():
            failing.append(s)
    lit_ok = not failing
    details.append(f"12 quoted derived relations reduce to 0: {'PASS' if lit_ok else 'FAIL (%d do not)' % len(failing)}")
    for s in failing:
        details.append(f"  nonzero: {s}")
    corr_ok = all(
        va2.system.reduce(parse_poly_text(s, va2.gen_names)).is_zero() for s in _DERIVED_RELATIONS_CORRECTED
    )
    details.append(
        "sign-corrected derived relations (x_mab -> -x_mab) reduce to 0: " + ("PASS" if corr_ok else "FAIL")
    )
    if failing:
        details.append("known source defect: see decisions ledger / README")
    ok = dim_ok and indep_ok and lit_ok
    return ok, "dim 19; independent basis; 12 derived relations -> 0", (
        f"dim {va2.dim()}; {len(_DERIVED_RELATIONS_LITERAL) - len(failing)}/12 quoted relations -> 0"
    ), details


def case_03() -> tuple[bool, str, str, list[str]]:
    details = []
    ok = True
    for mor_id in catalog.MORPHISM_IDS:
        m = catalog.morphism(mor_id)
        if m.source.basis is not None:  # va1_to_va2, the one finite source
            inj = kernel_basis_finite(m)
            ok = ok and not inj
            details.append(f"{mor_id}: kernel basis {'empty' if not inj else inj}")
        else:
            deg = catalog.KERNEL_PROBE_DEGREE[mor_id]
            cert = certify_kernel(m, list(catalog.kernel_candidates(mor_id)), deg)
            ok = ok and cert.status == "exact"
            details.append(f"{mor_id}: {cert.status} to degree {deg}")
    return ok, "all kernel certificates exact; va1_to_va2 injective", "; ".join(details), details


def _grid_case(mor_id: str, fam: str, grid: list[tuple[Fraction, str]]) -> tuple[bool, str, str, list[str]]:
    details = []
    ok = True
    for s, expected in grid:
        r = _induce_id(mor_id, fam, (s,))
        actual = str(r.decomposition)
        good = actual == expected
        ok = ok and good
        details.append(f"{fam}({s}) -> {actual} (expected {expected}){'' if good else '  <-- FAIL'}")
    return ok, f"{len(grid)} inductions as tabulated", "all match" if ok else "mismatch", details


def case_04() -> tuple[bool, str, str, list[str]]:
    grid = [
        (F(0), "trivial:1"),
        (F(1), "L_half:1"),
        (F(-1), "L_half:1"),
        (F(2), "0"),
        (F(-3), "0"),
        (F(5, 2), "0"),
        (F(7), "0"),
    ]
    ok, exp, act, details = _grid_case("heis_to_va1", "heis_mod", grid)
    r = _induce_id("heis_to_va1", "heis_mod", (F(0),))
    label_ok = r.voa_label == "V_{A1}"
    details.append(f"s=0 voa label: {r.voa_label}")
    r = _induce_id("heis_to_va1", "heis_mod", (F(1),))
    label_ok = label_ok and r.voa_label == "V_{A1+½α}"
    details.append(f"s=1 voa label: {r.voa_label}")
    return ok and label_ok, exp, act, details


def case_05() -> tuple[bool, str, str, list[str]]:
    grid = [(F(0), "trivial:1"), (F(1), "L_half:1"), (F(-1), "0"), (F(2), "0"), (F(-2), "0")]
    return _grid_case("vb_to_va1", "vb_mod", grid)


def case_06() -> tuple[bool, str, str, list[str]]:
    grid = [(F(0), "trivial:1"), (F(1, 4), "L_half:2"), (F(1), "0"), (F(-1, 4), "0"), (F(3, 7), "0")]
    return _grid_case("vir_to_va1", "vir_mod", grid)


def case_07() -> tuple[bool, str, str, list[str]]:
    details = []
    ok = True
    r = _induce_id("va1_to_va2", "va1_trivial", ())
    good = r.dim == 7 and str(r.decomposition) == "L0:1 + L_lambda_alpha:1 + L_lambda_beta:1"
    ok = ok and good
    details.append(f"Ind(trivial): dim {r.dim}, {r.decomposition}")
    r = _induce_id("va1_to_va2", "va1_L_half", ())
    good = r.dim == 6 and str(r.decomposition) == "L_lambda_alpha:1 + L_lambda_beta:1"
    ok = ok and good
    details.append(f"Ind(L_half): dim {r.dim}, {r.decomposition}")
    m = catalog.morphism("va1_to_va2")
    irr1 = catalog.irreducibles("a_va1")
    for mod_id, expected in [
        ("va2_L0", "trivial:1"),
        ("va2_L_lambda_alpha", "trivial:1 + L_half:1"),
        ("va2_L_lambda_beta", "trivial:1 + L_half:1"),
    ]:
        rec = decompose(restrict(m, catalog.module(mod_id)), irr1)
        good = str(rec) == expected
        ok = ok and good
        details.append(f"Res({mod_id}): {rec} (expected {expected})")
    return ok, "Thm-level induction/restriction table", "all match" if ok else "mismatch", details


def case_08() -> tuple[bool, str, str, list[str]]:
    va1, va2 = catalog.algebra("a_va1"), catalog.algebra("a_va2")
    irr1, irr2 = catalog.irreducibles("a_va1"), catalog.irreducibles("a_va2")
    d1 = sum(m.dim**2 for m in irr1)
    d2 = sum(m.dim**2 for m in irr2)
    # the Wedderburn certificate behind the character reading of decompose: one detail line per failing algebra
    details = [
        f"{alg.name}: Wedderburn certificate fails: {cert.failure}"
        for alg, irr in ((va1, irr1), (va2, irr2))
        if (cert := wedderburn_certificate(alg, irr)).failure
    ]
    ok = d1 == va1.dim() == 5 and d2 == va2.dim() == 19 and not details
    return ok, "1^2+2^2=5 and 1^2+3^2+3^2=19", f"{d1}=={va1.dim()}, {d2}=={va2.dim()}", details


_FROBENIUS_GRIDS = {
    "heis_to_va1": [("heis_mod", (F(0),)), ("heis_mod", (F(1),)), ("heis_mod", (F(-1),)), ("heis_mod", (F(2),)), ("heis_mod", (F(5, 2),))],
    "vb_to_va1": [("vb_mod", (F(0),)), ("vb_mod", (F(1),)), ("vb_mod", (F(-1),)), ("vb_mod", (F(2),))],
    "vir_to_va1": [("vir_mod", (F(0),)), ("vir_mod", (F(1, 4),)), ("vir_mod", (F(1),)), ("vir_mod", (F(3, 7),))],
    "va1_to_va2": [("va1_trivial", ()), ("va1_L_half", ())],
    "vp_to_va2": [(fam, (F(t),)) for fam in ("vp_mod_U0", "vp_mod_Uhalf") for t in (0, 1, -1, F(1, 2), F(-1, 2), 3)],
    "heis_to_va2": [("heis_mod", (F(s),)) for s in (0, 1, -1, 2)],
}


def case_09() -> tuple[bool, str, str, list[str]]:
    details = []
    ok = True
    checked = 0
    for mor_id, grid in _FROBENIUS_GRIDS.items():
        m = catalog.morphism(mor_id)
        ker = list(catalog.kernel_candidates(mor_id))
        targets = catalog.irreducibles(m.target.name)
        modules = [catalog.module(fam, params) for fam, params in grid]
        for (fam, params), dims in zip(grid, frobenius_dims(m, ker, modules, targets)):
            for target_irr, (left, right) in zip(targets, dims):
                checked += 1
                if left != right:
                    ok = False
                    details.append(f"MISMATCH {mor_id} {fam}{params} vs {target_irr.label}: {left} != {right}")
    details.insert(0, f"{checked} (module, irreducible) pairs checked across {len(_FROBENIUS_GRIDS)} morphisms")
    return ok, "dim Hom(Ind M, K) == dim Hom(M, Res K) on the full grid", f"{checked} pairs, all equal" if ok else "mismatch", details


def case_10() -> tuple[bool, str, str, list[str]]:
    details = []
    ok = True
    m1, m2 = catalog.morphism("heis_to_va1"), catalog.morphism("va1_to_va2")
    k1 = list(catalog.kernel_candidates("heis_to_va1"))
    kc = list(catalog.kernel_candidates("heis_to_va2"))
    irr = catalog.irreducibles("a_va2")
    for s in (F(0), F(1), F(-1), F(2)):
        two, one = composition_check(m1, m2, k1, [], kc, catalog.module("heis_mod", (s,)), irr)
        good = two == one
        ok = ok and good
        details.append(f"s={s}: two-step {two} vs composite {one}")
    return ok, "two-step induction == composite induction on s in {0,1,-1,2}", "all match" if ok else "mismatch", details


def _vp_literal_slice() -> set[str]:
    words = set()
    for i in range(3):
        for j in range(6 - i):
            words.add(" ".join(["x"] * i + ["y"] * j) or "1")
    for root in ("x_a", "x_ma"):
        for n in range(5):
            words.add(" ".join([root] + ["y"] * n))
    for root in ("x_b", "x_ab"):
        for k in range(3):
            words.add(" ".join([root] + ["x"] * k))
    return words


def case_11() -> tuple[bool, str, str, list[str]]:
    vp = catalog.algebra("a_vp")
    details: list[str] = []
    actual = {_word_str(vp, w) for w in normal_words(vp, 5)}
    literal = _vp_literal_slice()
    words_ok = actual == literal
    details.append(f"normal words (<=5) equal quoted direct-sum slice: {'PASS' if words_ok else 'FAIL'}")
    if not words_ok:
        details.append(f"  quoted but not normal: {sorted(literal - actual)}")
        details.append(f"  normal but not quoted: {sorted(actual - literal)}")
        for s in ("x_b x x - x_b x", "x_ab x x + x_ab x", "x_b x_a - x_ab x"):
            red = vp.system.reduce(parse_poly_text(s, vp.gen_names))
            details.append(f"  forced identity: {s} reduces to {'0' if red.is_zero() else 'nonzero'}")
        details.append("known source defect: see decisions ledger / README")
    j_words = ["x_b", "x_b x", "x_b x x", "x_ab", "x_ab x", "x_ab x x"]
    polys = [parse_poly_text(s, vp.gen_names) for s in j_words]
    j_ok = all(vp.system.reduce(a * b).is_zero() for a in polys for b in polys)
    details.append(f"all 36 pairwise J-products reduce to 0: {'PASS' if j_ok else 'FAIL'}")
    y = parse_poly_text("y", vp.gen_names)
    skew_pairs = [("1", "0"), ("x", "0"), ("x x", "0"), ("x_a", "-x_a"), ("x_ma", "x_ma")]
    skew_ok = True
    for a_text, d_text in skew_pairs:
        a = parse_poly_text(a_text, vp.gen_names)
        want = NcPoly.zero() if d_text == "0" else parse_poly_text(d_text, vp.gen_names)
        skew_ok = skew_ok and vp.system.reduce(y * a - a * y) == vp.system.reduce(want)
    details.append(f"skew-derivation identities y*a - a*y = delta(a): {'PASS' if skew_ok else 'FAIL'}")
    ok = words_ok and j_ok and skew_ok
    return ok, "quoted basis slice; J^2 = 0; skew-derivation identities", (
        f"slice {'matches' if words_ok else 'differs'}; J-products {'0' if j_ok else 'NONZERO'}; "
        f"skew {'ok' if skew_ok else 'bad'}"
    ), details


# generic parameters, none of them special, in the order the table lists them
_C12_GENERIC = (F(-27, 10), F(24, 7), F(7, 5), F(12), F(-13, 11), F(-12, 7), F(-15, 8), F(11, 3), F(-29, 6), F(-8))


def case_12() -> tuple[bool, str, str, list[str]]:
    m = catalog.morphism("vp_to_va2")
    ker = list(catalog.kernel_candidates("vp_to_va2"))
    details = []
    ok = True
    special_u0 = {F(0), F(1), F(-1)}
    special_uh = {F(1, 2), F(-1, 2)}
    for t in sorted(special_u0 | special_uh) + list(_C12_GENERIC):
        r0 = kernel_action_radical(m, ker, catalog.module("vp_mod_U0", (t,)))
        rh = kernel_action_radical(m, ker, catalog.module("vp_mod_Uhalf", (t,)))
        good0 = (r0.dim == 0) == (t in special_u0)
        goodh = (rh.dim == 0) == (t in special_uh)
        ok = ok and good0 and goodh
        details.append(f"t={t}: U0 radical dim {r0.dim}, Uhalf radical dim {rh.dim}")
    return ok, "radical vanishes exactly at t in {0,1,-1} resp. {1/2,-1/2}", "table as predicted" if ok else "mismatch", details


def case_13() -> tuple[bool, str, str, list[str]]:
    grid = [
        ("vp_mod_U0", F(0), "L0:1", "V_{A2}"),
        ("vp_mod_U0", F(1), "L_lambda_beta:1", "V_{A2+λβ}"),
        ("vp_mod_U0", F(-1), "0", "0"),
        ("vp_mod_Uhalf", F(1, 2), "L_lambda_alpha:1", "V_{A2+λα}"),
        ("vp_mod_Uhalf", F(-1, 2), "0", "0"),
        ("vp_mod_U0", F(3), "0", "0"),
        ("vp_mod_Uhalf", F(3), "0", "0"),
    ]
    details = []
    ok = True
    for fam, t, expected, label in grid:
        r = _induce_id("vp_to_va2", fam, (t,))
        actual = str(r.decomposition)
        good = actual == expected and r.voa_label == label
        ok = ok and good
        details.append(f"{fam}({t}) -> {actual}, label {r.voa_label}{'' if good else '  <-- FAIL'}")
    return ok, "parabolic induction table", "all match" if ok else "mismatch", details


def case_14() -> tuple[bool, str, str, list[str]]:
    va1 = catalog.algebra("a_va1")
    coeffs = artin_solve(va1, va1.element("1/4 h h"), [F(0), F(1, 4)], catalog.irreducibles("a_va1"))
    expected = [[F(1), F(0)], [F(0), F(1, 2)]]
    ok = coeffs == expected
    return ok, "chi_trivial = Ind_0, chi_L_half = 1/2 Ind_{1/4}", f"coefficient rows {coeffs}", []


def case_15() -> tuple[bool, str, str, list[str]]:
    checks: list[tuple[str, bool]] = []  # (property, whether it holds): one detail line each
    systems = [(alg_id, catalog.algebra(alg_id).system) for alg_id in catalog.ALGEBRA_IDS]
    for alg_id, system in systems:
        r, n = len(system.rules), len(system.relations)
        holds = not system.uncertified_rules() and all(system.reduce(rel).is_zero() for rel in system.relations)
        checks.append((f"{alg_id}: {r} rule traces expand to their rules, {n} relations reduce to 0", holds))
    for alg_id in ("a_va1", "a_va2"):
        h = catalog.algebra(alg_id)
        nb = len(h.basis)
        checks.append((f"{alg_id}: structure constants associative on all {nb}^3 triples", not h.associativity_failures()))
    for alg_id, system in systems:
        n = len(system.find_ambiguities())
        checks.append((f"{alg_id}: {n} ambiguities, every S-polynomial reduces to 0", not system.unresolved_ambiguities()))
    for mod_id in catalog.MODULE_IDS:
        checks.append((f"{mod_id}: character symmetry on all basis pairs", not symmetry_violations(catalog.module(mod_id))))
    ok = all(holds for _, holds in checks)
    details = [f"{text}: {'PASS' if holds else 'FAIL'}" for text, holds in checks]
    return ok, "property suites all green", "all green" if ok else "failure", details


CASES = [
    ("c01", "five-dimensional algebra: exact normal-word basis", "PAPER", case_01),
    ("c02", "nineteen-dimensional algebra: dimension and derived relations", "PAPER", case_02),
    ("c03", "kernel certificates for the catalog morphisms", "PAPER", case_03),
    ("c04", "inductions from the polynomial line (Cartan embedding)", "PAPER", case_04),
    ("c05", "inductions from the Borel-type plane", "PAPER", case_05),
    ("c06", "inductions from the conformal line", "PAPER", case_06),
    ("c07", "induction and restriction between the rank-one and rank-two algebras", "PAPER", case_07),
    ("c08", "semisimplicity arithmetic (sum of squares)", "PAPER", case_08),
    ("c09", "Frobenius reciprocity on the full catalog grid", "DERIVED", case_09),
    ("c10", "composition of inductions via the intermediate algebra", "DERIVED", case_10),
    ("c11", "parabolic-type algebra structure", "PAPER", case_11),
    ("c12", "kernel-radical table for the parabolic module families", "PAPER", case_12),
    ("c13", "parabolic induction table", "PAPER", case_13),
    ("c14", "rational induction coefficients over the rank-one algebra", "PAPER", case_14),
    ("c15", "property suites: reduction, associativity, ambiguity resolution, character symmetry", "DERIVED", case_15),
]


def run(case_ids: list[str] | None = None) -> list[CaseResult]:
    """The results of the wanted cases (default: all), in table order; a case that raises is a FAIL."""
    wanted = set(case_ids) if case_ids else None
    results = []
    for cid, desc, prov, fn in CASES:
        if wanted is not None and cid not in wanted:
            continue
        try:
            ok, expected, actual, details = fn()
        except Exception as exc:  # a repr names the exception on one line: newlines in its message are escaped
            ok, expected, actual, details = False, "a verdict", f"raised {exc!r}", []
        results.append(CaseResult(cid, desc, prov, "PASS" if ok else "FAIL", expected, actual, details))
    return results


def case_ids() -> list[str]:
    return [cid for cid, *_ in CASES]
