from fractions import Fraction

import pytest

from zhuind import catalog
from zhuind.induct import (
    composition_check,
    frobenius_check,
    generated_by_unit_image,
    induce,
    kernel_action_radical,
    restrict,
)
from zhuind.morphism import AlgebraMorphism
from zhuind.repmod import FinModule, check_module, decompose

F = Fraction


def _ind(mor_id, fam, params=()):
    m = catalog.morphism(mor_id)
    return induce(
        m,
        list(catalog.kernel_candidates(mor_id)),
        catalog.module(fam, params),
        catalog.irreducibles(m.target.name),
        catalog.VOA_LABELS,
    )


# -- restrict ---------------------------------------------------------------


def test_restrict_rank_two_irreducible_decomposes(va1):
    res = restrict(catalog.morphism("va1_to_va2"), catalog.module("va2_L_lambda_alpha"))
    assert check_module(res) == []
    rec = decompose(res, catalog.irreducibles("a_va1"))
    assert rec.as_dict() == {"trivial": 1, "L_half": 1} and rec.residual == 0


def test_restrict_along_identity(va1):
    ident = AlgebraMorphism(va1, va1, [va1.gen(n) for n in va1.gen_names])
    L = catalog.module("va1_L_half")
    res = restrict(ident, L)
    assert res.actions == L.actions


def test_restrict_trivial_module():
    res = restrict(catalog.morphism("va1_to_va2"), catalog.module("va2_L0"))
    assert res.dim == 1 and check_module(res) == []
    rec = decompose(res, catalog.irreducibles("a_va1"))
    assert rec.as_dict() == {"trivial": 1}


# -- kernel radical ------------------------------------------------------------


def test_radical_vanishes_at_half_alpha():
    m = catalog.morphism("heis_to_va1")
    ker = list(catalog.kernel_candidates("heis_to_va1"))
    assert kernel_action_radical(m, ker, catalog.module("heis_mod", (F(1),))) == []


def test_radical_full_at_generic_point():
    m = catalog.morphism("heis_to_va1")
    ker = list(catalog.kernel_candidates("heis_to_va1"))
    assert len(kernel_action_radical(m, ker, catalog.module("heis_mod", (F(2),)))) == 1


def test_radical_virasoro_quarter():
    m = catalog.morphism("vir_to_va1")
    ker = list(catalog.kernel_candidates("vir_to_va1"))
    assert kernel_action_radical(m, ker, catalog.module("vir_mod", (F(1, 4),))) == []


# -- induce ---------------------------------------------------------------------


def test_induce_trivial_line_module():
    r = _ind("heis_to_va1", "heis_mod", (F(0),))
    assert r.dim == 1 and r.decomposition.as_dict() == {"trivial": 1}
    assert r.voa_label == "V_{A1}"


def test_induce_seven_dimensional():
    r = _ind("va1_to_va2", "va1_trivial")
    assert r.dim == 7
    assert r.decomposition.as_dict() == {"L0": 1, "L_lambda_alpha": 1, "L_lambda_beta": 1}
    assert r.decomposition.residual == 0


def test_induce_borel_collapse_to_zero():
    r = _ind("vb_to_va1", "vb_mod", (F(-1),))
    assert r.dim == 0 and str(r.decomposition) == "0"
    # the collapse happens in the tensor product, not in the radical
    m = catalog.morphism("vb_to_va1")
    ker = list(catalog.kernel_candidates("vb_to_va1"))
    assert kernel_action_radical(m, ker, catalog.module("vb_mod", (F(-1),))) == []


def test_induce_requires_finite_target(heis, vp):
    m = AlgebraMorphism(heis, vp, [vp.gen("x")])
    with pytest.raises(ValueError):
        induce(m, [], catalog.module("heis_mod", (F(0),)))


def test_unit_image_generates_catalog_inductions():
    cases = [
        ("heis_to_va1", "heis_mod", (F(0),)),
        ("heis_to_va1", "heis_mod", (F(1),)),
        ("vir_to_va1", "vir_mod", (F(1, 4),)),
        ("va1_to_va2", "va1_trivial", ()),
        ("va1_to_va2", "va1_L_half", ()),
        ("vp_to_va2", "vp_mod_U0", (F(1),)),
        ("vp_to_va2", "vp_mod_Uhalf", (F(1, 2),)),
    ]
    for mor_id, fam, params in cases:
        assert generated_by_unit_image(_ind(mor_id, fam, params))


def test_zero_kernel_degeneration():
    # where the kernel already acts as zero, the plain relative tensor
    # product (empty kernel list) gives the same module
    m = catalog.morphism("heis_to_va1")
    ker = list(catalog.kernel_candidates("heis_to_va1"))
    irr = catalog.irreducibles("a_va1")
    for s in (F(0), F(1), F(-1)):
        module = catalog.module("heis_mod", (s,))
        with_kernel = induce(m, ker, module, irr)
        without = induce(m, [], module, irr)
        assert with_kernel.dim == without.dim
        assert with_kernel.decomposition == without.decomposition


def test_dimension_bound():
    for mor_id, fam, params in [
        ("heis_to_va1", "heis_mod", (F(0),)),
        ("va1_to_va2", "va1_L_half", ()),
        ("vp_to_va2", "vp_mod_Uhalf", (F(1, 2),)),
    ]:
        m = catalog.morphism(mor_id)
        r = _ind(mor_id, fam, params)
        bound = len(m.target.basis) * r.reduced_dim
        assert r.dim == bound - r.relation_rank
        assert r.dim <= bound
        if r.relation_rank == 0:
            assert r.dim == bound


def test_induced_module_passes_check():
    r = _ind("va1_to_va2", "va1_L_half")
    assert check_module(r.module) == []


def test_frobenius_trivial_and_zero_cases():
    m = catalog.morphism("va1_to_va2")
    ker = []
    left, right = frobenius_check(m, ker, catalog.module("va1_trivial"), catalog.module("va2_L_lambda_beta"))
    assert left == right == 1
    zero = FinModule(m.source, 0, {})
    left, right = frobenius_check(m, ker, zero, catalog.module("va2_L0"))
    assert left == right == 0


def test_composition_identity_factor(va1):
    ident = AlgebraMorphism(va1, va1, [va1.gen(n) for n in va1.gen_names])
    m2 = catalog.morphism("va1_to_va2")
    irr = catalog.irreducibles("a_va2")
    two, one = composition_check(ident, m2, [], [], [], catalog.module("va1_L_half"), irr)
    assert two == one


def test_composition_heis_chain_matches():
    m1, m2 = catalog.morphism("heis_to_va1"), catalog.morphism("va1_to_va2")
    k1 = list(catalog.kernel_candidates("heis_to_va1"))
    kc = list(catalog.kernel_candidates("heis_to_va2"))
    irr = catalog.irreducibles("a_va2")
    expected = {
        F(0): {"L0": 1, "L_lambda_alpha": 1, "L_lambda_beta": 1},
        F(1): {"L_lambda_alpha": 1, "L_lambda_beta": 1},
    }
    for s, want in expected.items():
        two, one = composition_check(m1, m2, k1, [], kc, catalog.module("heis_mod", (s,)), irr)
        assert two == one
        assert one.as_dict() == want and one.residual == 0


def test_composition_check_needs_irreducibles(va1):
    ident = AlgebraMorphism(va1, va1, [va1.gen(n) for n in va1.gen_names])
    with pytest.raises(ValueError):
        composition_check(ident, catalog.morphism("va1_to_va2"), [], [], [], catalog.module("va1_L_half"), None)
