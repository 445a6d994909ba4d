from fractions import Fraction

import pytest

from zhuind import catalog
from zhuind.chars import ArtinError, artin_solve, symmetry_violations
from zhuind.repmod import FinModule, char_vector, independence_check

F = Fraction


def _values_by_word(handle, cv):
    return { " ".join(handle.gen_names[g] for g in w) or "1": v for w, v in zip(handle.basis, cv.values) }


def test_char_trivial(va1):
    named = _values_by_word(va1, char_vector(catalog.module("va1_trivial")))
    assert named == {"1": 1, "e": 0, "f": 0, "h": 0, "h h": 0}


def test_char_l_half(va1):
    named = _values_by_word(va1, char_vector(catalog.module("va1_L_half")))
    assert named == {"1": 2, "e": 0, "f": 0, "h": 0, "h h": 2}


def test_char_additive_on_direct_sums(va1, direct_sum):
    a = catalog.module("va1_trivial")
    b = catalog.module("va1_L_half")
    lhs = char_vector(direct_sum(a, b)).values
    rhs = tuple(x + y for x, y in zip(char_vector(a).values, char_vector(b).values))
    assert lhs == rhs


def test_char_unit_value_is_dimension(va2):
    for mod_id in ("va2_L0", "va2_L_lambda_alpha", "va2_L_lambda_beta"):
        module = catalog.module(mod_id)
        cv = char_vector(module)
        unit_index = va2.basis.index(())
        assert cv.values[unit_index] == module.dim


def test_char_symmetric_on_all_basis_pairs():
    for mod_id in catalog.MODULE_IDS:
        assert symmetry_violations(catalog.module(mod_id)) == []


def test_symmetry_check_catches_a_module_that_breaks_relations(va1):
    # h acts with eigenvalues 2, -1, so e h + e and h h - h - 2 f e fail; trace(M_i M_j)
    # still equals trace(M_j M_i), but not the character of the reduced product b_i b_j
    bad = FinModule.from_named_actions(va1, 2, {"e": [[0, 1], [0, 0]], "f": [[0, 0], [1, 0]], "h": [[2, 0], [0, -1]]})
    g = va1.gen_names.index
    e, f, h, hh = (va1.basis_index[w] for w in [(g("e"),), (g("f"),), (g("h"),), (g("h"), g("h"))])
    assert sorted(symmetry_violations(bad)) == sorted([(e, f), (f, e), (h, hh), (hh, h), (hh, hh)])


def test_char_isomorphism_invariant(va2, permuted_copy):
    L = catalog.module("va2_L_lambda_beta")
    assert char_vector(permuted_copy(L, [1, 2, 0])) == char_vector(L)


def test_independence_va1_and_va2():
    assert independence_check([char_vector(catalog.module(m)) for m in ("va1_trivial", "va1_L_half")])
    assert independence_check(
        [char_vector(catalog.module(m)) for m in ("va2_L0", "va2_L_lambda_alpha", "va2_L_lambda_beta")]
    )


def test_independence_fails_on_duplicate():
    cv = char_vector(catalog.module("va1_L_half"))
    assert not independence_check([cv, cv])


def test_induced_character_matches_decomposition():
    from zhuind.induct import induce

    m = catalog.morphism("vir_to_va1")
    irr = catalog.irreducibles("a_va1")
    r = induce(m, list(catalog.kernel_candidates("vir_to_va1")), catalog.module("vir_mod", (F(1, 4),)), irr)
    total = char_vector(r.module).values
    combo = [F(0)] * len(total)
    for lbl, mult in r.decomposition.entries:
        piece = char_vector(next(x for x in irr if x.label == lbl)).values
        combo = [c + mult * v for c, v in zip(combo, piece)]
    assert r.decomposition.entries and tuple(combo) == total


def test_artin_coefficients_exact(va1):
    coeffs = artin_solve(va1, va1.element("1/4 h h"), [F(0), F(1, 4)], catalog.irreducibles("a_va1"))
    assert coeffs == [[F(1), F(0)], [F(0), F(1, 2)]]


def test_artin_scalar_action_checked(va1):
    # 1/4 h^2 acts as 0 on the trivial module and as 1/4 on L_half
    omega = va1.element("1/4 h h")
    triv, half = catalog.irreducibles("a_va1")
    assert triv.evaluate(omega.poly) == [{}]
    assert half.evaluate(omega.poly) == [{0: F(1, 4)}, {1: F(1, 4)}]


def test_artin_rejects_colliding_weights(va1):
    with pytest.raises(ArtinError):
        artin_solve(va1, va1.element("1/4 h h"), [F(0), F(0)], catalog.irreducibles("a_va1"))


@pytest.mark.parametrize("weights", [[F(0), F(1, 4), F(5)], [F(0)]], ids=["one-too-many", "one-too-few"])
def test_artin_rejects_a_weight_count_other_than_the_irreducibles(va1, weights):
    with pytest.raises(ArtinError, match="weights for 2 irreducibles"):
        artin_solve(va1, va1.element("1/4 h h"), weights, catalog.irreducibles("a_va1"))


def test_artin_rejects_wrong_scalar(va1):
    with pytest.raises(ArtinError):
        artin_solve(va1, va1.element("h h"), [F(0), F(1, 4)], catalog.irreducibles("a_va1"))
