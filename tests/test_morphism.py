import pytest
from fractions import Fraction

from zhuind import catalog
from zhuind.algebra import AlgebraHandle, Presentation
from zhuind.freealg import MonomialOrder
from zhuind.morphism import (
    AlgebraMorphism,
    certify_kernel,
    check_well_defined,
    compose,
    image_basis,
    kernel_basis_finite,
)


def test_all_catalog_morphisms_well_defined():
    for mor_id in catalog.MORPHISM_IDS:
        assert check_well_defined(catalog.morphism(mor_id)) == []


def test_wrong_map_violates(va1, va2):
    # e -> x_b breaks the source relation e h + e
    bad = AlgebraMorphism(va1, va2, [va2.gen("x_b"), va2.gen("x_ma"), va2.gen("x")])
    violations = check_well_defined(bad)
    assert violations
    gens = va1.gen_names
    violated = {v.relation.format(gens, va1.system.order) for v in violations}
    assert "e h + e" in violated


def test_image_basis_heisenberg(va1):
    basis = image_basis(catalog.morphism("heis_to_va1"))
    assert {el.poly for el in basis} == {va1.one().poly, va1.gen("h").poly, va1.element("h h").poly}


def test_image_basis_virasoro(va1):
    assert len(image_basis(catalog.morphism("vir_to_va1"))) == 2


def test_image_basis_injective_embedding():
    assert len(image_basis(catalog.morphism("va1_to_va2"))) == 5


def test_image_basis_parabolic():
    # pi(A(V_P)) inside the nineteen-dimensional algebra
    assert len(image_basis(catalog.morphism("vp_to_va2"))) == 15


def test_kernel_basis_injective():
    assert kernel_basis_finite(catalog.morphism("va1_to_va2")) == []


def test_kernel_basis_identity(va1):
    ident = AlgebraMorphism(va1, va1, [va1.gen(n) for n in va1.gen_names])
    assert kernel_basis_finite(ident) == []


def test_kernel_basis_zero_map(va1):
    # map onto C = C<z>/(z); every generator goes to zero
    from zhuind.freealg import NcPoly

    one_dim = AlgebraHandle.build(Presentation("point", ("z",), MonomialOrder((0,)), (NcPoly.gen(0),)))
    to_point = AlgebraMorphism(va1, one_dim, [one_dim.element(NcPoly.zero())] * 3)
    kernel = kernel_basis_finite(to_point)
    assert len(kernel) == 4  # everything except the identity component


def test_certify_kernel_heisenberg():
    cert = certify_kernel(
        catalog.morphism("heis_to_va1"), list(catalog.kernel_candidates("heis_to_va1")), 10
    )
    assert cert.status == "exact"
    # source slice modulo the ideal stabilizes at the 3-dimensional image
    assert cert.table[-1][0] - cert.table[-1][1] == cert.table[-1][2] == 3


def test_certify_kernel_virasoro():
    cert = certify_kernel(catalog.morphism("vir_to_va1"), list(catalog.kernel_candidates("vir_to_va1")), 10)
    assert cert.status == "exact"
    assert cert.table[-1][2] == 2


def test_certify_kernel_borel():
    cert = certify_kernel(catalog.morphism("vb_to_va1"), list(catalog.kernel_candidates("vb_to_va1")), 10)
    assert cert.status == "exact"
    assert cert.table[-1][2] == 4


def test_certify_kernel_parabolic():
    cert = certify_kernel(catalog.morphism("vp_to_va2"), list(catalog.kernel_candidates("vp_to_va2")), 8)
    assert cert.status == "exact"
    assert cert.table[-1][2] == 15


def test_certify_kernel_rejects_non_kernel_candidate(va1):
    m = catalog.morphism("heis_to_va1")
    heis = m.source
    with pytest.raises(ValueError):
        certify_kernel(m, [heis.element("x x - x")], 4)


def test_composition_images_generatorwise():
    m1 = catalog.morphism("heis_to_va1")
    m2 = catalog.morphism("va1_to_va2")
    comp = compose(m1, m2)
    for g, img in enumerate(comp.images):
        assert img.poly == m2.apply_poly(m1.images[g].poly)


def test_composite_kernel_contains_first_factor_kernel():
    comp = catalog.morphism("heis_to_va2")
    for cand in catalog.kernel_candidates("heis_to_va1"):
        assert comp.apply_poly(cand.poly).is_zero()


def test_injectivity_rank_five():
    m = catalog.morphism("va1_to_va2")
    from zhuind.linalg import rank
    from zhuind.morphism import _image_rows

    rows, ncols = _image_rows(m, m.source.basis)
    assert rank([[row.get(c, 0) for c in range(ncols)] for row in rows]) == 5


def test_certify_kernel_rejects_negative_degree():
    m = catalog.morphism("heis_to_va1")
    with pytest.raises(ValueError):
        certify_kernel(m, list(catalog.kernel_candidates("heis_to_va1")), -1)


def test_certify_kernel_degree_zero():
    m = catalog.morphism("vp_to_va2")
    cert = certify_kernel(m, list(catalog.kernel_candidates("vp_to_va2")), 0)
    assert cert.status == "exact" and cert.table == ((1, 0, 1),)
