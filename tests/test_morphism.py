from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhuind import catalog
from zhuind.algebra import AlgebraHandle, Presentation, normal_words
from zhuind.freealg import MonomialOrder, NcPoly
from zhuind.induct import induce
from zhuind.iolang import format_poly
from zhuind.linalg import RowSpace
from zhuind.morphism import (
    AlgebraMorphism,
    KernelCertificate,
    _image_rows,
    certify_kernel,
    check_well_defined,
    compose,
    kernel_basis_finite,
)


def test_all_catalog_morphisms_well_defined():
    for mor_id in catalog.MORPHISM_IDS:
        assert check_well_defined(catalog.morphism(mor_id)) == []


def test_wrong_map_violates(va1, va2):
    # e -> x_b breaks the source relation e h + e
    bad = AlgebraMorphism(va1, va2, [va2.element("x_b"), va2.element("x_ma"), va2.element("x")])
    violations = check_well_defined(bad)
    assert violations
    gens = va1.gen_names
    violated = {format_poly(v.relation, gens, va1.system.order) for v in violations}
    assert "e h + e" in violated


def _image_rank(mor_id):
    """The rank of the image of the normal words up to the probe degree: the last entry of the certificate table."""
    cert = certify_kernel(catalog.morphism(mor_id), list(catalog.kernel_candidates(mor_id)), catalog.KERNEL_PROBE_DEGREE[mor_id])
    return cert.table[-1][2]


def test_image_basis_heisenberg(va1):
    # 1, h and h h: x x x - x maps to zero
    assert _image_rank("heis_to_va1") == 3


def test_image_basis_virasoro(va1):
    assert _image_rank("vir_to_va1") == 2


def test_image_basis_injective_embedding():
    m = catalog.morphism("va1_to_va2")
    assert len(m.source.basis) - len(kernel_basis_finite(m)) == 5


def test_image_basis_parabolic():
    # pi(A(V_P)) inside the nineteen-dimensional algebra
    assert _image_rank("vp_to_va2") == 15


def test_kernel_basis_injective():
    assert kernel_basis_finite(catalog.morphism("va1_to_va2")) == []


def test_kernel_basis_identity(va1):
    ident = AlgebraMorphism(va1, va1, [va1.element(n) for n in va1.gen_names])
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


@pytest.mark.parametrize("mor_id", catalog.MORPHISM_IDS)
def test_apply_poly_reduces_once_per_letter(monkeypatch, mor_id):
    # apply_word reduces once per letter; the sum of its normal forms is already normal, so no final reduce
    m = catalog.morphism(mor_id)
    calls = []
    reduce_tgt = m.target.system.reduce
    monkeypatch.setattr(m.target.system, "reduce", lambda p: calls.append(p) or reduce_tgt(p))
    words = normal_words(m.source, 3)
    polys = [*m.source.presentation.relations, *(c.poly for c in catalog.kernel_candidates(mor_id))]
    polys += [NcPoly({w: Fraction(i + 1, 2) for i, w in enumerate(words[k::3])}) for k in range(3)]
    for p in polys:
        calls.clear()
        out = m.apply_poly(p)
        assert len(calls) == sum(len(w) for w in p.terms)
        assert list(out.terms.items()) == list(reduce_tgt(out).terms.items())


def test_composite_kernel_contains_first_factor_kernel():
    comp = catalog.morphism("heis_to_va2")
    for cand in catalog.kernel_candidates("heis_to_va1"):
        assert comp.apply_poly(cand.poly).is_zero()


def test_injectivity_rank_five():
    m = catalog.morphism("va1_to_va2")
    from dense import dense_rref
    from zhuind.morphism import _image_rows

    rows, ncols = _image_rows(m, m.source.basis)
    assert len(dense_rref([[row.get(c, 0) for c in range(ncols)] for row in rows])[0]) == 5


def test_certify_kernel_rejects_negative_degree():
    m = catalog.morphism("heis_to_va1")
    with pytest.raises(ValueError):
        certify_kernel(m, list(catalog.kernel_candidates("heis_to_va1")), -1)


def test_certify_kernel_degree_zero():
    m = catalog.morphism("vp_to_va2")
    cert = certify_kernel(m, list(catalog.kernel_candidates("vp_to_va2")), 0)
    assert cert.status == "exact" and cert.table == ((1, 0, 1),)


def _ref_certify_kernel(m, candidates, degree):
    """The ideal slice from every sandwich a·c·b with |a| + |b| <= d - deg c, as certify_kernel built it before the closure."""
    src_words = sorted(normal_words(m.source, degree), key=m.source.system.order.key, reverse=True)
    by_len = {}
    for w in src_words:
        by_len.setdefault(len(w), []).append(w)

    table = []
    exact = True
    index_all = {w: i for i, w in enumerate(src_words)}
    reduce_src = m.source.system.reduce

    def coords(p):
        vec = {}
        for w, c in p.terms.items():
            col = index_all.get(w)
            if col is None:
                return None
            vec[col] = c
        return vec

    ideal = RowSpace(len(src_words))
    added = set()
    img_rows, support_size = _image_rows(m, src_words)
    image = RowSpace(support_size)
    slice_dim = 0

    for d in range(degree + 1):
        for ci, cand in enumerate(candidates):
            cdeg = cand.poly.degree()
            if cdeg < 0:
                continue
            for la in range(0, max(d - cdeg, -1) + 1):
                for lb in range(0, d - cdeg - la + 1):
                    for a in by_len.get(la, []):
                        for b in by_len.get(lb, []):
                            key = (ci, a, b)
                            if key in added:
                                continue
                            added.add(key)
                            prod = reduce_src(cand.poly.sandwich(a, b))
                            vec = coords(prod)
                            if vec is not None:
                                ideal.add(vec)
        slice_dim += len(by_len.get(d, []))
        cutoff = len(src_words) - slice_dim
        ideal_slice_dim = sum(1 for p in ideal.pivots if p >= cutoff)
        for w, row in zip(src_words, img_rows):
            if len(w) == d:
                image.add(row)
        img_rank = image.dim
        table.append((slice_dim, ideal_slice_dim, img_rank))
        if slice_dim - ideal_slice_dim != img_rank:
            exact = False

    return KernelCertificate("exact" if exact else "contained", degree, tuple(table))


@pytest.mark.parametrize("mor_id", catalog.MORPHISM_IDS)
def test_certify_kernel_matches_sandwich_reference_on_catalog(mor_id):
    m, cands = catalog.morphism(mor_id), list(catalog.kernel_candidates(mor_id))
    for degree in range(catalog.KERNEL_PROBE_DEGREE[mor_id] + 1):
        assert certify_kernel(m, cands, degree) == _ref_certify_kernel(m, cands, degree)


def test_certify_kernel_matches_sandwich_reference_on_candidate_subsets():
    m, cands = catalog.morphism("vp_to_va2"), catalog.kernel_candidates("vp_to_va2")
    statuses = []
    for mask in range(2 ** len(cands)):
        subset = [c for i, c in enumerate(cands) if mask >> i & 1]
        cert = certify_kernel(m, subset, 5)
        assert cert == _ref_certify_kernel(m, subset, 5)
        statuses.append(cert.status)
    # only all four candidates together span the kernel
    assert (statuses.count("contained"), statuses.count("exact")) == (15, 1)


# sources without a finite basis, with the highest degree generated examples certify to
_GENERATED_DEGREE = {"heis_to_va1": 8, "vb_to_va1": 8, "vir_to_va1": 8, "vp_to_va2": 5, "heis_to_va2": 8}


@st.composite
def _kernel_elements(draw):
    """A catalog morphism, kernel elements sum_k q_k a_k c_k b_k of mixed degree, and a degree."""
    mor_id = draw(st.sampled_from(sorted(_GENERATED_DEGREE)))
    m, cands = catalog.morphism(mor_id), catalog.kernel_candidates(mor_id)
    words = st.lists(st.integers(0, len(m.source.gen_names) - 1), max_size=2).map(tuple)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    term = st.tuples(coeff, words, st.sampled_from(cands), words)
    elements = []
    for terms in draw(st.lists(st.lists(term, min_size=1, max_size=3), min_size=1, max_size=3)):
        poly = NcPoly.zero()
        for q, a, c, b in terms:
            poly = poly + c.poly.sandwich(a, b).scale(q)
        elements.append(m.source.element(poly))
    return m, elements, draw(st.integers(0, _GENERATED_DEGREE[mor_id]))


@settings(max_examples=40, deadline=None)
@given(_kernel_elements())
def test_certify_kernel_matches_sandwich_reference_on_generated_kernel_elements(case):
    m, elements, degree = case
    assert certify_kernel(m, elements, degree) == _ref_certify_kernel(m, elements, degree)


def test_certify_kernel_products_are_bounded():
    # every sandwich a·c·b at degree 8 is 2,496 products; the closure needs 294
    cert = certify_kernel(catalog.morphism("vp_to_va2"), list(catalog.kernel_candidates("vp_to_va2")), 8)
    assert cert.products <= 300


def _ref_image_rows(m, words):
    """The image rows as ``_image_rows`` built them before the prefix closure: ``apply_word`` from 1."""
    images = [m.apply_word(w) for w in words]
    support = sorted({w for img in images for w in img.terms}, key=m.target.system.order.key)
    index = {w: i for i, w in enumerate(support)}
    return [{index[w]: c for w, c in img.terms.items()} for img in images], len(support)


@pytest.mark.parametrize("mor_id", catalog.MORPHISM_IDS)
def test_image_rows_match_apply_word(mor_id):
    m = catalog.morphism(mor_id)
    words = sorted(normal_words(m.source, catalog.KERNEL_PROBE_DEGREE[mor_id]), key=m.source.system.order.key, reverse=True)
    rows, ncols = _image_rows(m, words)
    ref_rows, ref_ncols = _ref_image_rows(m, words)
    assert ncols == ref_ncols
    # equal rows with their entries in the same order
    assert [list(r.items()) for r in rows] == [list(r.items()) for r in ref_rows]


def test_image_rows_reduce_once_per_word(monkeypatch):
    m = catalog.morphism("vp_to_va2")
    words = normal_words(m.source, 8)
    calls = []
    reduce_tgt = m.target.system.reduce
    monkeypatch.setattr(m.target.system, "reduce", lambda p: calls.append(p) or reduce_tgt(p))
    _image_rows(m, words)
    # one reduction per nonempty normal word; apply_word on each makes sum(len(w))
    assert len(calls) == len(words) - 1 == 43
    assert sum(len(w) for w in words) == 185


def test_certify_kernel_multiplies_coordinates_without_sandwiches(monkeypatch):
    m = catalog.morphism("vp_to_va2")
    cands = list(catalog.kernel_candidates("vp_to_va2"))
    calls = []
    sandwich = NcPoly.sandwich
    monkeypatch.setattr(NcPoly, "sandwich", lambda p, a, b: calls.append((a, b)) or sandwich(p, a, b))
    cert = certify_kernel(m, cands, 8)
    # the products of the ideal rows by a generator are read from the per-call table of word products
    assert calls == [] and cert.products == 292


@pytest.mark.parametrize("mor_id, fam, param", [("vp_to_va2", "vp_mod_Uhalf", Fraction(1, 2)), ("heis_to_va1", "heis_mod", Fraction(2))])
def test_induce_reads_quotient_images_without_reducing(monkeypatch, mor_id, fam, param):
    # the first induces a 3-dimensional module, the second quotients a 1-dimensional module by its kernel radical
    # every elimination is an add or a membership test: no quotient column is reduced
    m = catalog.morphism(mor_id)
    calls = []
    for name in ("_eliminate", "add", "contains"):
        method = getattr(RowSpace, name)
        monkeypatch.setattr(RowSpace, name, lambda space, vec, name=name, method=method: calls.append(name) or method(space, vec))
    result = induce(m, list(catalog.kernel_candidates(mor_id)), catalog.module(fam, (param,)))
    assert calls.count("_eliminate") == calls.count("add") + calls.count("contains") > 0
    assert result.dim == {"vp_to_va2": 3, "heis_to_va1": 0}[mor_id]
