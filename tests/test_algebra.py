import copy
import random
from fractions import Fraction

import pytest

from zhuind import catalog
from zhuind.algebra import (
    AlgebraHandle,
    CertificateError,
    Presentation,
    dimension,
    normal_words,
    subalgebra_basis,
)
from zhuind.freealg import MonomialOrder, NcPoly
from zhuind.linalg import RowSpace


def sp(vec):
    return {i: x for i, x in enumerate(vec) if x}


def units(n):
    return [{i: Fraction(1)} for i in range(n)]


def words_of(handle, max_len):
    return {" ".join(handle.gen_names[g] for g in w) or "1" for w in normal_words(handle, max_len)}


def test_normal_words_va1(va1):
    assert words_of(va1, 4) == {"1", "e", "f", "h", "h h"}


def test_normal_words_free_algebra_counts():
    free2 = AlgebraHandle.build(Presentation("free2", ("a", "b"), MonomialOrder((1, 0)), ()))
    assert len(normal_words(free2, 2)) == 7  # 1 + 2 + 4


def test_normal_words_certificate_guard(va1):
    limited = AlgebraHandle(va1.presentation, _recertified(va1.system, 4), probe_len=0)
    with pytest.raises(CertificateError):
        normal_words(limited, 6)


def _recertified(system, degree):
    from zhuind.rewrite import RewriteSystem

    return RewriteSystem(system.order, list(system.rules), degree, system.relations)


def test_dimension_finite_values(va1, va2):
    assert va1.dim_result.kind == "finite" and va1.dim_result.value == 5
    assert va2.dim_result.kind == "finite" and va2.dim_result.value == 19


def test_dimension_vp_profile(vp):
    res = vp.dim_result
    assert res.kind == "unbounded"
    # three Cartan words and two root-times-power words per level, stably
    assert res.profile[3:] == tuple([5] * (len(res.profile) - 3))


def test_dimension_vb_profile(vb):
    res = vb.dim_result
    assert res.kind == "unbounded"
    assert res.profile[:3] == (1, 2, 1) and set(res.profile[3:]) == {1}


def test_dimension_stability():
    for alg_id in catalog.ALGEBRA_IDS:
        h = catalog.algebra(alg_id)
        a = dimension(h, 6)
        b = dimension(h, 8)
        assert a.kind == b.kind
        if a.kind == "finite":
            assert a.value == b.value


def test_mul_matches_rewriting_on_random_pairs(va1, va2):
    rng = random.Random(9)
    for handle in (va1, va2):
        nb = len(handle.basis)
        for _ in range(200):
            a = [Fraction(rng.randint(-2, 2)) for _ in range(nb)]
            b = [Fraction(rng.randint(-2, 2)) for _ in range(nb)]
            via_struct = handle.mul_coords(sp(a), sp(b))
            pa, pb = handle.from_coords(sp(a)), handle.from_coords(sp(b))
            assert handle.coords((pa * pb).poly) == via_struct


def test_structure_constants_associative_dim5(va1):
    nb = len(va1.basis)
    unit = units(nb)
    for i in range(nb):
        for j in range(nb):
            ij = va1.mul_coords(unit[i], unit[j])
            for k in range(nb):
                assert va1.mul_coords(ij, unit[k]) == va1.mul_coords(unit[i], va1.mul_coords(unit[j], unit[k]))


def _dense_associativity_failures(handle):
    """The triples failing ``(e_i e_j) e_k = e_i (e_j e_k)`` through ``mul_coords`` on unit vectors."""
    nb = len(handle.basis)
    unit = units(nb)
    failures = []
    for i in range(nb):
        for j in range(nb):
            ij = handle.mul_coords(unit[i], unit[j])
            for k in range(nb):
                if handle.mul_coords(ij, unit[k]) != handle.mul_coords(unit[i], handle.mul_coords(unit[j], unit[k])):
                    failures.append((i, j, k))
    return failures


def test_associativity_failures_empty_on_catalog(va1, va2):
    assert va1.associativity_failures() == []
    assert va2.associativity_failures() == []


def test_associativity_failures_catch_one_corrupted_structure_constant(va2):
    broken = copy.copy(va2)
    broken.structure = copy.deepcopy(va2.structure)
    g = va2.presentation.gen_index
    i, j = va2.basis_index[(g("x_a"),)], va2.basis_index[(g("x_ma"),)]  # x_a x_ma = 1/2 x x + 1/2 x
    k = next(iter(broken.structure[i][j]))
    broken.structure[i][j][k] *= 2
    failures = broken.associativity_failures()
    assert failures
    assert failures == _dense_associativity_failures(broken)
    # the catalog handle itself is untouched
    assert va2.associativity_failures() == []


def test_associativity_failures_need_a_finite_basis():
    vp = catalog.algebra("a_vp")
    with pytest.raises(ValueError):
        vp.associativity_failures()


def test_basis_product_tables_match_mul_coords(va1, va2):
    for handle, texts in ((va1, ("e", "h h - 2 f", "1 + e f")), (va2, ("x_a", "y y - x_b", "1 - x x_ma"))):
        nb = len(handle.basis)
        unit = units(nb)
        for text in texts:
            p = handle.element(text).poly
            left, right = handle.times_basis(p), handle.basis_times(p)
            for i in range(nb):
                assert all(left[i].values()) and all(right[i].values())
                assert left[i] == handle.mul_coords(handle.coords(p), unit[i])
                assert right[i] == handle.mul_coords(unit[i], handle.coords(p))
        assert handle.gen_products == [handle.times_basis(handle.gen(name).poly) for name in handle.gen_names]


def test_gen_products_built_on_first_use_only():
    fresh = AlgebraHandle(catalog.presentation("a_va1"), catalog.algebra("a_va1").system)
    assert "gen_products" not in vars(fresh)
    table = fresh.gen_products
    assert vars(fresh)["gen_products"] is table
    with pytest.raises(ValueError):
        catalog.algebra("a_vp").gen_products


def test_mul_examples(va1, va2):
    assert va1.gen("e") * va1.gen("h") == -va1.gen("e")
    assert va1.one() * va1.element("f h h") == va1.element("f h h")
    assert va2.gen("x_a") * va2.gen("x_ma") == va2.element("1/2 x x + 1/2 x")


def test_mul_owner_mismatch(va1, va2):
    with pytest.raises(ValueError):
        va1.gen("e") * va2.gen("x")


def test_subalgebra_of_cartan(va1):
    basis = subalgebra_basis(va1, [va1.gen("h")])
    polys = {el.poly for el in basis}
    assert polys == {NcPoly.one(), va1.gen("h").poly, va1.element("h h").poly}


def test_subalgebra_empty_gens(va1):
    basis = subalgebra_basis(va1, [])
    assert len(basis) == 1 and basis[0].poly == NcPoly.one()


def test_subalgebra_of_squared_cartan(va1):
    basis = subalgebra_basis(va1, [va1.element("1/4 h h")])
    assert len(basis) == 2


def test_subalgebra_closure_idempotent_and_product_closed(va1):
    gens = [va1.gen("h"), va1.gen("e")]
    basis = subalgebra_basis(va1, gens)
    again = subalgebra_basis(va1, basis)
    assert len(again) == len(basis)
    span = RowSpace(len(va1.basis))
    for el in basis:
        span.add(va1.coords(el.poly))
    for a in basis:
        for b in basis:
            assert span.contains(va1.coords((a * b).poly))


def test_subalgebra_requires_finite(vp):
    with pytest.raises(ValueError):
        subalgebra_basis(vp, [vp.gen("x")])


def test_elements_stored_reduced(va1):
    el = va1.element("h h h + e e")
    assert el.poly == va1.gen("h").poly


def test_coordinates_need_a_finite_basis(vp):
    # raised, not asserted, so the check survives python -O
    with pytest.raises(ValueError):
        vp.coords(vp.gen("x").poly)
    with pytest.raises(ValueError):
        vp.from_coords({0: Fraction(1)})
    with pytest.raises(ValueError):
        vp.mul_coords({0: Fraction(1)}, {0: Fraction(1)})


def dense_mul_coords(handle, a, b):
    """Product over dense structure-constant rows: the reference for mul_coords."""
    n = len(a)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            c = a[i] * b[j]
            if not c:
                continue
            for w, v in handle.system.reduce_word(handle.basis[i] + handle.basis[j]).terms.items():
                out[handle.basis_index[w]] += c * v
    return out


@pytest.mark.parametrize("alg_id", [a for a in catalog.ALGEBRA_IDS if catalog.algebra(a).basis is not None])
def test_mul_coords_matches_dense_reference(alg_id):
    handle = catalog.algebra(alg_id)
    n = len(handle.basis)
    for i in range(n):
        for j in range(n):
            assert all(handle.structure[i][j].values())
    unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rng = random.Random(alg_id)
    vecs = unit + [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4 else Fraction(0) for _ in range(n)] for _ in range(6)]
    for a in vecs:
        for b in vecs:
            assert handle.mul_coords(sp(a), sp(b)) == sp(dense_mul_coords(handle, a, b))
