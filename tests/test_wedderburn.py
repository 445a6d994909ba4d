"""The Wedderburn certificate and the two readings of ``decompose``.

Over a certified owner ``decompose`` reads multiplicities off characters;
everywhere else it reads them as Hom dimensions.  The reference for both
is ``dense.hom_reading``, the Hom reading with the dense intertwiner
equations.  Dickson's criterion, which the certificate does not need,
is the oracle for semisimplicity: the trace form of the regular module,
read here from the structure constants, has full rank on every certified
owner and not on the local one.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import dense_invert, dense_module, dense_rref, hom_reading, mat_mul, regular_module, zeros
from zhuind import catalog, induct, repmod, verify
from zhuind.algebra import AlgebraHandle, Element, Presentation
from zhuind.freealg import MonomialOrder
from zhuind.iolang import parse_poly_text
from zhuind.morphism import AlgebraMorphism
from zhuind.repmod import DecompositionRecord, FinModule, decompose, wedderburn_certificate


def regular_trace_form_rank(owner):
    """The rank of tr(L_a L_b) on the regular module of ``owner``: L_a L_b = L_ab, and tr L_c sums (c * basis[k])[k]."""
    table = owner.structure
    n = len(table)
    traces = [sum(table[c][k].get(k, 0) for k in range(n)) for c in range(n)]
    form = [[sum(x * traces[k] for k, x in product.items()) for product in row] for row in table]
    return len(dense_rref(form)[1])


def test_the_catalog_targets_are_certified():
    for alg_id, words in (("a_va1", ["1", "h h"]), ("a_va2", ["1", "y y", "y y x"])):
        owner = catalog.algebra(alg_id)
        cert = wedderburn_certificate(owner, catalog.irreducibles(alg_id))
        assert cert.failure == ""
        assert regular_trace_form_rank(owner) == len(owner.basis)  # Dickson: the radical is 0
        # the first word is 1, where the characters are the dimensions
        assert [" ".join(owner.gen_names[g] for g in w) or "1" for w in cert.words] == words
        assert wedderburn_certificate(owner, catalog.irreducibles(alg_id)) is cert  # kept per list


# -- the character reading against the Hom reading ------------------------------


def _unit_triangular(rng, n, lower):
    """An integer matrix with ones on the diagonal and small entries on one side of it: invertible."""
    mat = zeros(n, n)
    for i in range(n):
        mat[i][i] = F(1)
        for j in range(i) if lower else range(i + 1, n):
            mat[i][j] = F(rng.randint(-2, 2))
    return mat


@st.composite
def catalog_sums(draw):
    """``(module, multiplicities)``: a direct sum of catalog irreducibles under a random invertible integer change of basis."""
    alg_id = draw(st.sampled_from(["a_va1", "a_va2"]))
    irr = catalog.irreducibles(alg_id)
    # at most dimension 9, where the dense reference takes about 0.1 s
    mults = draw(st.lists(st.integers(0, 2), min_size=len(irr), max_size=len(irr)).filter(lambda ks: sum(k * m.dim for k, m in zip(ks, irr)) <= 9))
    parts = [m for m, k in zip(irr, mults) for _ in range(k)]
    n = sum(m.dim for m in parts)
    rng = draw(st.randoms(use_true_random=False))
    p = mat_mul(_unit_triangular(rng, n, True), _unit_triangular(rng, n, False))
    order = list(range(n))
    rng.shuffle(order)
    p = [p[i] for i in order]
    pinv = dense_invert(p) if n else []
    actions = {}
    for g in range(len(irr[0].owner.gen_names)):
        block = zeros(n, n)
        at = 0
        for m in parts:
            for i, row in enumerate(m.actions[g]):
                block[at + i][at : at + m.dim] = row
            at += m.dim
        actions[g] = mat_mul(mat_mul(p, block), pinv) if n else []
    module = dense_module(irr[0].owner, n, actions, "sum")
    return module, {m.label: k for m, k in zip(irr, mults) if k}


@settings(max_examples=40, deadline=None)
@given(catalog_sums())
def test_character_reading_equals_the_hom_reading_on_random_sums(recorded_calls, drawn):
    module, mults = drawn
    irr = catalog.irreducibles(module.owner.name)
    with recorded_calls(repmod, "hom_space") as calls:
        rec = decompose(module, irr)
    assert calls == []
    assert rec == hom_reading(module, irr) == DecompositionRecord(tuple(mults.items()), 0)


def test_character_reading_equals_the_hom_reading_on_the_verification_grids(recorded_calls):
    # every decomposition of the induction, restriction and composition cases, recorded as they run
    with recorded_calls(induct, "decompose") as induced, recorded_calls(verify, "decompose") as restricted:
        assert all(r.status == "PASS" for r in verify.run(["c04", "c05", "c06", "c07", "c10", "c13"]))
    seen = [args for args in induced + restricted if args[0].dim]
    assert len(induced) == 36 and len(restricted) == 3 and len(seen) == 23
    for module, irr in seen:
        with recorded_calls(repmod, "hom_space") as calls:
            rec = decompose(module, irr)
        assert calls == [] and rec == hom_reading(module, irr)


def test_a_character_that_is_not_a_sum_of_irreducible_characters_raises(va1):
    # h acting as 1 on a line: 1/2 of L_half; as 4: a negative multiplicity of the trivial module
    with pytest.raises(ValueError, match=r"^line is not a module over a_va1: its character gives L_half multiplicity 1/2$"):
        decompose(FinModule.from_named_actions(va1, 1, {"h": [[1]]}, "line"), catalog.irreducibles("a_va1"))
    with pytest.raises(ValueError, match="gives trivial multiplicity -15"):
        decompose(FinModule.from_named_actions(va1, 1, {"h": [[4]]}, "line"), catalog.irreducibles("a_va1"))


# -- inputs that keep the Hom reading ------------------------------------------


def _assert_hom_reading(recorded_calls, module, irr, expected, failure):
    cert = wedderburn_certificate(module.owner, irr)
    assert cert.failure == failure
    with recorded_calls(repmod, "hom_space") as calls:
        rec = decompose(module, irr)
    assert len(calls) == len(irr)
    assert rec == hom_reading(module, irr)
    assert str(rec) == expected


def test_a_local_owner_keeps_the_hom_reading(recorded_calls):
    # the truncated quantum plane x^2 = y^3 = 0, y x = 2 x y: its radical (x, y) is the kernel of the trace form
    names = ("x", "y")
    relations = tuple(parse_poly_text(s, names) for s in ("x x", "y y y", "y x - 2 x y"))
    plane = AlgebraHandle.build(Presentation("qplane", names, MonomialOrder((0, 1)), relations))
    assert plane.dim() == 6 and regular_trace_form_rank(plane) == 1
    trivial = FinModule.from_named_actions(plane, 1, {}, "trivial")
    failure = "the squared dimensions sum to 1, not 6, so the list is incomplete"
    _assert_hom_reading(recorded_calls, regular_module(plane), [trivial], "trivial:1 (residual 5)", failure)


def test_an_incomplete_list_keeps_the_hom_reading(recorded_calls):
    irr = catalog.irreducibles("a_va2")[:2]
    module = induct.induce(catalog.morphism("va1_to_va2"), [], catalog.module("va1_trivial")).module
    failure = "the squared dimensions sum to 10, not 19, so the list is incomplete"
    _assert_hom_reading(recorded_calls, module, irr, "L0:1 + L_lambda_alpha:1 (residual 3)", failure)


def test_a_hom_reading_with_no_irreducible_prints_zero_before_the_residual(recorded_calls):
    irr = catalog.irreducibles("a_va2")[:2]
    failure = "the squared dimensions sum to 10, not 19, so the list is incomplete"
    _assert_hom_reading(recorded_calls, catalog.module("va2_L_lambda_beta"), irr, "0 (residual 3)", failure)


def test_a_list_with_a_duplicate_keeps_the_hom_reading(recorded_calls, va1):
    trivial, half = catalog.irreducibles("a_va1")
    failure = "the characters are dependent, so two listed modules are isomorphic"
    expected = "trivial:1 + L_half:2 + L_half:2 (residual -4)"
    _assert_hom_reading(recorded_calls, regular_module(va1), [trivial, half, half], expected, failure)


def test_owners_that_differ_raise(va1):
    for module in (catalog.module("va1_L_half"), dense_module(va1, 0, {})):
        with pytest.raises(ValueError, match="^hom spaces need a common owner algebra$"):
            decompose(module, catalog.irreducibles("a_va2"))
    assert wedderburn_certificate(va1, catalog.irreducibles("a_va2")).failure == "L0 is not a module over a_va1"


def test_an_infinite_owner_or_a_module_that_breaks_a_relation_fails_the_certificate(va1):
    heis = catalog.algebra("heis")
    assert wedderburn_certificate(heis, [catalog.module("heis_mod", (F(1),))]).failure == "heis is not finite-dimensional"
    bad = FinModule.from_named_actions(va1, 1, {"h": [[1]]}, "bad")
    assert wedderburn_certificate(va1, [bad]).failure == "bad breaks a relation of a_va1"


# -- work counts ----------------------------------------------------------------


def test_inducing_the_trivial_module_solves_no_hom_space(recorded_calls):
    with recorded_calls(repmod, "hom_space") as calls:
        r = induct.induce(catalog.morphism("va1_to_va2"), [], catalog.module("va1_trivial"), catalog.irreducibles("a_va2"))
    assert calls == [] and str(r.decomposition) == "L0:1 + L_lambda_alpha:1 + L_lambda_beta:1"


def test_a_zero_module_builds_no_certificate(recorded_calls, permuted_copy, va1):
    # a list not seen before, so a lookup would have to build its certificate
    irr = [permuted_copy(m, list(range(m.dim))[::-1]) for m in catalog.irreducibles("a_va1")]
    with recorded_calls(repmod, "_certify") as built:
        assert decompose(dense_module(va1, 0, {}), irr) == DecompositionRecord((), 0)
        assert built == []
        assert str(decompose(regular_module(va1), irr)) == "trivial~:1 + L_half~:2"
        assert str(decompose(catalog.module("va1_L_half"), irr)) == "L_half~:1"
    assert len(built) == 1  # once per list


def test_a_cold_induction_and_its_certificate_build_no_structure_cube():
    for mor_id, kernel, module, expected in (
        ("va1_to_va2", [], catalog.module("va1_trivial"), "L0:1 + L_lambda_alpha:1 + L_lambda_beta:1"),
        ("vp_to_va2", list(catalog.kernel_candidates("vp_to_va2")), catalog.module("vp_mod_U0", (F(0),)), "L0:1"),
    ):
        warm = catalog.morphism(mor_id)
        target = AlgebraHandle(warm.target.presentation, warm.target.system)
        m = AlgebraMorphism(warm.source, target, [Element(target, el.poly) for el in warm.images], mor_id)
        irr = [dense_module(target, L.dim, L.actions, L.label) for L in catalog.irreducibles(warm.target.name)]
        r = induct.induce(m, kernel, module, irr)
        assert target.certificates[tuple(irr)].failure == ""  # built by the induction's decompose
        assert str(r.decomposition) == expected
        assert "gen_products" in vars(target) and "structure" not in vars(target)
