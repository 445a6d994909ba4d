"""Acceptance suite: one test per acceptance row, exact tolerances.

Two rows contain claims that are internally inconsistent in the source
they quote; the honest computation disagrees and those two tests FAIL on
purpose (see notes in the decisions ledger and the README):

  * criterion 2, third clause: six of the twelve quoted derived
    relations for the nineteen-dimensional algebra are sign-corrupted;
  * criterion 11, first clause: the quoted basis slice lists x_b x^2 and
    x_ab x^2 as independent normal words, but the presentation forces
    x_b x^2 = x_b x and x_ab x^2 = -x_ab x.

The surrounding clauses of both rows are asserted separately and pass.
"""

import random
from fractions import Fraction as F

import pytest

from dense import hom_reading
from zhuind import catalog, repmod, verify
from zhuind.algebra import AlgebraHandle
from zhuind.rewrite import INFINITE, RewriteSystem

_RESULTS: dict[str, "verify.CaseResult"] = {}


def _result(case_id: str):
    if not _RESULTS:
        for r in verify.run():
            _RESULTS[r.case] = r
            print(f"{r.case} [{r.status}] {r.description}")
    return _RESULTS[case_id]


def _assert_pass(case_id: str):
    r = _result(case_id)
    detail = "\n".join([f"{case_id}: expected {r.expected}; actual {r.actual}"] + r.details)
    assert r.status == "PASS", detail


def test_criterion_01_rank_one_basis():
    _assert_pass("c01")


def test_criterion_02_rank_two_dimension_and_independence():
    r = _result("c02")
    assert "dimension 19: PASS" in r.details
    assert "19 normal words independent by construction: PASS" in r.details


def test_criterion_02_derived_relations_literal():
    # honest red: six quoted relations are inconsistent with the quoted
    # presentation (sign of the lowest root generator); the corrected
    # forms are verified below and in the c02 details
    r = _result("c02")
    assert "12 quoted derived relations reduce to 0: PASS" in r.details, "\n".join(r.details)


def test_criterion_02_derived_relations_sign_corrected():
    r = _result("c02")
    assert "sign-corrected derived relations (x_mab -> -x_mab) reduce to 0: PASS" in r.details


def test_criterion_03_kernel_certificates():
    _assert_pass("c03")


def test_criterion_04_heisenberg_inductions():
    _assert_pass("c04")


def test_criterion_05_borel_inductions():
    _assert_pass("c05")


def test_criterion_06_virasoro_inductions():
    _assert_pass("c06")


def test_criterion_07_rank_one_to_rank_two():
    _assert_pass("c07")


def test_criterion_08_semisimplicity_arithmetic():
    _assert_pass("c08")


def _c08_with(monkeypatch, alg_id: str, replaced: str, module):
    """c08 with the irreducible ``replaced`` of ``alg_id`` swapped for ``module``; returns the result and the list."""
    real = catalog.irreducibles
    listed = [module if m.label == replaced else m for m in real(alg_id)]
    monkeypatch.setattr(catalog, "irreducibles", lambda a: listed if a == alg_id else real(a))
    (r,) = verify.run(["c08"])
    return r, listed


def test_criterion_08_fails_when_l_half_is_trivial_plus_trivial(monkeypatch, direct_sum, recorded_calls):
    trivial = catalog.module("va1_trivial")
    r, listed = _c08_with(monkeypatch, "a_va1", "L_half", direct_sum(trivial, trivial))
    # the squares still add up to 5; the actions on trivial + trivial are scalars
    assert (r.status, r.expected, r.actual) == ("FAIL", "1^2+2^2=5 and 1^2+3^2+3^2=19", "5==5, 19==19")
    assert r.details == ["a_va1: Wedderburn certificate fails: the basis words act on trivial+trivial by 1 < 4 independent matrices"]
    # decompose reads Hom dimensions over this list
    module = catalog.module("va1_L_half")
    with recorded_calls(repmod, "hom_space") as calls:
        rec = repmod.decompose(module, listed)
    assert [args[0] for args in calls] == listed
    assert rec == hom_reading(module, listed) == repmod.DecompositionRecord((), 2)


def test_criterion_08_fails_when_l_lambda_beta_is_a_copy_of_l_lambda_alpha(monkeypatch, change_of_basis, recorded_calls):
    p = [[F(1), F(2), F(0)], [F(0), F(1), F(0)], [F(-1), F(0), F(1)]]
    copy = change_of_basis(catalog.module("va2_L_lambda_alpha"), p, "L_lambda_beta")
    r, listed = _c08_with(monkeypatch, "a_va2", "L_lambda_beta", copy)
    assert (r.status, r.actual) == ("FAIL", "5==5, 19==19")
    assert r.details == ["a_va2: Wedderburn certificate fails: the characters are dependent, so two listed modules are isomorphic"]
    module = catalog.module("va2_L_lambda_beta")
    with recorded_calls(repmod, "hom_space") as calls:
        rec = repmod.decompose(module, listed)
    assert [args[0] for args in calls] == listed
    assert rec == hom_reading(module, listed) == repmod.DecompositionRecord((), 3)


def test_criterion_09_frobenius_reciprocity():
    _assert_pass("c09")


def test_criterion_10_composition():
    _assert_pass("c10")


def test_criterion_11_normal_words_literal():
    # honest red: the quoted direct-sum slice is contradicted by the
    # presentation's own consequences (see c11 details)
    r = _result("c11")
    assert "normal words (<=5) equal quoted direct-sum slice: PASS" in r.details, "\n".join(r.details)


def test_criterion_11_j_products_and_skew_derivation():
    r = _result("c11")
    assert "all 36 pairwise J-products reduce to 0: PASS" in r.details
    assert "skew-derivation identities y*a - a*y = delta(a): PASS" in r.details


def test_criterion_12_radical_table():
    _assert_pass("c12")


def test_criterion_12_generic_parameters_are_the_seeded_draw():
    # the reference: the table first drew its ten generic parameters with this loop
    special = {F(0), F(1), F(-1), F(1, 2), F(-1, 2)}
    rng = random.Random(20240811)
    pool = []
    while len(pool) < 10:
        t = F(rng.randint(-30, 30), rng.randint(1, 12))
        if t not in special and t not in pool:
            pool.append(t)
    assert verify._C12_GENERIC == tuple(pool)


def test_criterion_13_parabolic_inductions():
    _assert_pass("c13")


def test_criterion_14_artin_coefficients():
    _assert_pass("c14")


def test_criterion_15_property_suites():
    _assert_pass("c15")


def test_criterion_15_fails_on_a_rule_with_a_doubled_right_hand_side(monkeypatch, doubled_rhs):
    # x_mb x_ma -> 2 (its right-hand side) leaves 6 of a_va2's 555 ambiguities unresolved and its
    # trace uncertified; a 500-trial random-strategy fuzz (seed 7) never meets a word on which that
    # shows, and reduction stays idempotent and linear on every input
    va2 = catalog.algebra("a_va2")
    names = va2.gen_names
    (rule,) = [r for r in va2.system.rules if [names[g] for g in r.lhs] == ["x_mb", "x_ma"]]
    mutant = AlgebraHandle(va2.presentation, doubled_rhs(va2.system, rule))
    real = catalog.algebra
    monkeypatch.setattr(catalog, "algebra", lambda alg_id: mutant if alg_id == "a_va2" else real(alg_id))
    (r,) = verify.run(["c15"])
    assert r.status == "FAIL"
    assert "a_va2: 555 ambiguities, every S-polynomial reduces to 0: FAIL" in r.details
    assert "a_va1: 28 ambiguities, every S-polynomial reduces to 0: PASS" in r.details
    assert "a_va2: 66 rule traces expand to their rules, 73 relations reduce to 0: FAIL" in r.details
    assert "a_va1: 9 rule traces expand to their rules, 8 relations reduce to 0: PASS" in r.details


def test_criterion_15_fails_on_a_system_missing_a_rule(monkeypatch):
    # without f e -> 1/2 h h - 1/2 h the rules are confluent and their traces hold, and the
    # six-dimensional algebra they define is associative; only its relations show it is not a_va1
    va1 = catalog.algebra("a_va1")
    names = va1.gen_names
    rules = [r for r in va1.system.rules if [names[g] for g in r.lhs] != ["f", "e"]]
    assert len(rules) == 8
    mutant = AlgebraHandle(va1.presentation, RewriteSystem(va1.system.order, rules, INFINITE, va1.system.relations))
    real = catalog.algebra
    monkeypatch.setattr(catalog, "algebra", lambda alg_id: mutant if alg_id == "a_va1" else real(alg_id))
    (r,) = verify.run(["c15"])
    assert r.status == "FAIL"
    assert "a_va1: 8 rule traces expand to their rules, 8 relations reduce to 0: FAIL" in r.details
    assert "a_va1: 22 ambiguities, every S-polynomial reduces to 0: PASS" in r.details
    assert "a_va1: structure constants associative on all 6^3 triples: PASS" in r.details
