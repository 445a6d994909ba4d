import hashlib
import random
from fractions import Fraction
from importlib import resources

import pytest

from zhuind import catalog
from zhuind.iolang import parse, parse_poly_text, pretty_print
from zhuind.morphism import check_well_defined
from zhuind.repmod import check_module
from zhuind.rewrite import INFINITE

F = Fraction

CATALOG_SHA256 = "8c1b26d0cfbc33a52720f1fe2a3f69c68f68780e367946af73fc6ab24dd1c938"


def test_catalog_source_is_pinned():
    text = catalog.catalog_source()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CATALOG_SHA256
    assert text == resources.files("zhuind").joinpath("catalog.zi").read_text(encoding="utf-8")


def test_shipped_catalog_is_a_pretty_print_fixed_point():
    text = catalog.catalog_source()
    assert pretty_print(parse(text)) == text


def test_catalog_ids_name_the_blocks_in_file_order():
    src = parse(catalog.catalog_source())
    assert tuple(src.algebras()) == catalog.ALGEBRA_IDS
    assert tuple(src.morphisms()) == catalog.MORPHISM_IDS
    assert tuple(src.modules()) == catalog.MODULE_IDS
    for mod_id in catalog.MODULE_IDS:
        assert catalog.module(mod_id).label in catalog.VOA_LABELS


def test_unknown_ids_raise():
    for lookup in (catalog.presentation, catalog.morphism, catalog.kernel_candidates, catalog.module):
        with pytest.raises(catalog.UnknownId):
            lookup("nope")
    with pytest.raises(catalog.UnknownId):
        catalog.irreducibles("heis")


def test_every_presentation_completes_with_full_certificate():
    for alg_id in catalog.ALGEBRA_IDS:
        h = catalog.algebra(alg_id)
        assert h.system.confluent_to_degree == INFINITE


def test_catalog_dimensions():
    expected = {
        "heis": None,
        "vir": None,
        "vb": None,
        "a_va1": 5,
        "a_va2": 19,
        "a_vp": None,
    }
    for alg_id, dim in expected.items():
        assert catalog.algebra(alg_id).dim() == dim


def test_borel_plane_structure_facts(vb):
    x, y = vb.element("x").poly, vb.element("y").poly
    assert vb.system.reduce(y * y).is_zero()
    assert vb.system.reduce(x * y) == y
    assert vb.system.reduce(y * x) == -y


def test_parabolic_j_square_zero(vp):
    j_words = ["x_b", "x_b x", "x_b x x", "x_ab", "x_ab x", "x_ab x x"]
    polys = [parse_poly_text(s, vp.gen_names) for s in j_words]
    for a in polys:
        for b in polys:
            assert vp.system.reduce(a * b).is_zero()


def test_parabolic_skew_derivation(vp):
    y = parse_poly_text("y", vp.gen_names)
    table = {"x_a": "-x_a", "x_ma": "x_ma"}
    for name in ("x", "x x"):
        a = parse_poly_text(name, vp.gen_names)
        assert vp.system.reduce(y * a - a * y).is_zero()
    for name, image in table.items():
        a = parse_poly_text(name, vp.gen_names)
        assert vp.system.reduce(y * a - a * y) == vp.system.reduce(parse_poly_text(image, vp.gen_names))


def test_parabolic_forced_degenerations(vp):
    # these identities contradict the quoted three-dimensional summands
    for s in ("x_b x x - x_b x", "x_ab x x + x_ab x", "x_b x_a - x_ab x"):
        assert vp.system.reduce(parse_poly_text(s, vp.gen_names)).is_zero()


def test_all_morphisms_well_defined_and_kernels_map_to_zero():
    for mor_id in catalog.MORPHISM_IDS:
        m = catalog.morphism(mor_id)
        assert check_well_defined(m) == []
        for cand in catalog.kernel_candidates(mor_id):
            assert m.apply_poly(cand.poly).is_zero()


def test_module_families_at_sampled_parameters():
    rng = random.Random(41)
    for fam in catalog.FAMILY_IDS:
        for _ in range(20):
            t = F(rng.randint(-60, 60), rng.randint(1, 11))
            assert check_module(catalog.module(fam, (t,))) == []


@pytest.mark.parametrize("params", [(), (F(1), F(2))])
def test_module_family_parameter_count_is_checked(params):
    for fam in catalog.FAMILY_IDS:
        with pytest.raises(ValueError, match=f"^{fam} takes 1 parameter, got {len(params)}$"):
            catalog.module(fam, params)


@pytest.mark.parametrize("fam", catalog.FAMILY_IDS)
def test_module_family_refuses_a_float_parameter(fam):
    # 0.1 is the binary float 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="float"):
        catalog.module(fam, (0.1,))
    assert catalog.module(fam, (1,)).label == catalog.module(fam, (F(1),)).label


def test_uhalf_matrices_match_stated_family():
    mod = catalog.module("vp_mod_Uhalf", (F(1, 2),))
    vp = catalog.algebra("a_vp")
    gi = vp.gen_names.index
    assert mod.actions[gi("x")] == [[F(1), F(0)], [F(0), F(-1)]]
    assert mod.actions[gi("y")] == [[F(0), F(0)], [F(0), F(1)]]
    assert mod.actions[gi("x_b")] == [[F(0), F(0)], [F(0), F(0)]]


def test_u0_module_is_scalar_line():
    mod = catalog.module("vp_mod_U0", (F(7, 3),))
    vp = catalog.algebra("a_vp")
    gi = vp.gen_names.index
    assert mod.dim == 1
    assert mod.actions[gi("y")] == [[F(7, 3)]]
    for name in ("x", "x_a", "x_ma", "x_b", "x_ab"):
        assert mod.actions[gi(name)] == [[F(0)]]


def test_rank_two_irreducibles_highest_weight_pairs():
    # highest vector: killed by the raising generators, Cartan eigenvalues
    # (1, 0) on the 3-dim module L_lambda_alpha and (0, 1) on L_lambda_beta
    va2 = catalog.algebra("a_va2")
    gi = va2.gen_names.index
    for mod_id, pair in (("va2_L_lambda_alpha", (1, 0)), ("va2_L_lambda_beta", (0, 1))):
        mod = catalog.module(mod_id)
        highest = [F(1), F(0), F(0)]
        for raising in ("x_a", "x_b", "x_ab"):
            mat = mod.actions[gi(raising)]
            assert all(sum(mat[i][j] * highest[j] for j in range(3)) == 0 for i in range(3))
        for name, eig in zip(("x", "y"), pair):
            mat = mod.actions[gi(name)]
            image = [sum(mat[i][j] * highest[j] for j in range(3)) for i in range(3)]
            assert image == [F(eig) * v for v in highest]


def test_relation_counts_documented():
    # quoted quotient relations plus the ambient commutator table
    assert len(catalog.presentation("a_va1").relations) == 3 + 5
    assert len(catalog.presentation("a_va2").relations) == 28 + 45
    assert len(catalog.presentation("a_vp").relations) == 30
