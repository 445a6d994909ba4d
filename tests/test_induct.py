import hashlib
import importlib.util
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import DenseRowSpace, dense_hom_space, dense_module, identity, mat_mul, mat_of_columns, zeros
from zhuind import catalog, induct, verify
from zhuind.algebra import AlgebraHandle, Element
from zhuind.freealg import NcPoly
from zhuind.induct import (
    _voa_label,
    composition_check,
    frobenius_check,
    frobenius_dims,
    generated_by_unit_image,
    induce,
    kernel_action_radical,
    restrict,
)
from zhuind.morphism import AlgebraMorphism, compose
from zhuind.repmod import DecompositionRecord, check_module, decompose, hom_space, quotient_module

F = Fraction


def _relation_rank(m, r):
    """The rank of the relation rows: the tensor product's dimension minus the induced one."""
    return len(m.target.basis) * r.reduced_dim - r.dim


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
    ident = AlgebraMorphism(va1, va1, [va1.element(n) for n in va1.gen_names])
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
    assert kernel_action_radical(m, ker, catalog.module("heis_mod", (F(1),))).dim == 0


def test_radical_full_at_generic_point():
    m = catalog.morphism("heis_to_va1")
    ker = list(catalog.kernel_candidates("heis_to_va1"))
    assert kernel_action_radical(m, ker, catalog.module("heis_mod", (F(2),))).dim == 1


def test_radical_virasoro_quarter():
    m = catalog.morphism("vir_to_va1")
    ker = list(catalog.kernel_candidates("vir_to_va1"))
    assert kernel_action_radical(m, ker, catalog.module("vir_mod", (F(1, 4),))).dim == 0


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
    assert kernel_action_radical(m, ker, catalog.module("vb_mod", (F(-1),))).dim == 0


def test_induce_requires_finite_target(heis, vp):
    m = AlgebraMorphism(heis, vp, [vp.element("x")])
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
        assert r.dim <= len(m.target.basis) * r.reduced_dim


def test_induced_module_passes_check():
    r = _ind("va1_to_va2", "va1_L_half")
    assert check_module(r.module) == []


def test_frobenius_trivial_and_zero_cases():
    m = catalog.morphism("va1_to_va2")
    ker = []
    left, right = frobenius_check(m, ker, catalog.module("va1_trivial"), catalog.module("va2_L_lambda_beta"))
    assert left == right == 1
    zero = dense_module(m.source, 0, {})
    left, right = frobenius_check(m, ker, zero, catalog.module("va2_L0"))
    assert left == right == 0


def _counting(monkeypatch, name):
    """Record the arguments of each call of ``induct.<name>``, which ``frobenius_dims`` looks up when it runs."""
    calls = []
    real = getattr(induct, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(induct, name, counted)
    return calls


def test_frobenius_dims_induce_once_and_match_the_check_per_target(monkeypatch):
    m = catalog.morphism("vp_to_va2")
    ker = list(catalog.kernel_candidates("vp_to_va2"))
    targets = catalog.irreducibles("a_va2")
    modules = [catalog.module(fam, (t,)) for fam, t in [("vp_mod_U0", F(0)), ("vp_mod_Uhalf", F(1, 2)), ("vp_mod_U0", F(3))]]
    want = [[frobenius_check(m, ker, module, k) for k in targets] for module in modules]
    induced, restricted = _counting(monkeypatch, "induce"), _counting(monkeypatch, "restrict")
    assert frobenius_dims(m, ker, modules, targets) == want
    assert [args[2] for args in induced] == modules and [args[1] for args in restricted] == targets
    monkeypatch.undo()
    assert frobenius_dims(m, ker, modules[:1], []) == [[]]
    assert frobenius_dims(m, ker, [], targets) == []


def test_verify_c09_induces_each_module_once(monkeypatch):
    calls = _counting(monkeypatch, "induce")
    ok, _, text, details = verify.case_09()
    grids = verify._FROBENIUS_GRIDS
    assert len(calls) == sum(len(grid) for grid in grids.values()) == 31
    pairs = sum(len(grid) * len(catalog.irreducibles(catalog.morphism(mor_id).target.name)) for mor_id, grid in grids.items())
    assert ok and text == f"{pairs} pairs, all equal" and details == [f"{pairs} (module, irreducible) pairs checked across 6 morphisms"]


def test_verify_c09_restricts_each_irreducible_once(monkeypatch):
    # one restriction per (morphism, target irreducible): 15 for the 80 (module, irreducible) pairs
    calls = _counting(monkeypatch, "restrict")
    ok = verify.case_09()[0]
    want = [(mor_id, irr.label) for mor_id in verify._FROBENIUS_GRIDS for irr in catalog.irreducibles(catalog.morphism(mor_id).target.name)]
    assert ok and [(m.name, k.label) for m, k in calls] == want and len(want) == 15


def test_composition_identity_factor(va1):
    ident = AlgebraMorphism(va1, va1, [va1.element(n) for n in va1.gen_names])
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
    ident = AlgebraMorphism(va1, va1, [va1.element(n) for n in va1.gen_names])
    with pytest.raises(ValueError):
        composition_check(ident, catalog.morphism("va1_to_va2"), [], [], [], catalog.module("va1_L_half"), None)


# -- pinned catalog inductions ----------------------------------------------

# sha256 of _render_catalog_inductions(), computed before induce, hom_space and
# RowSpace built sparse vectors; any change to an induced action, unit map,
# reduced dimension, relation rank or decomposition changes it
CATALOG_INDUCTIONS_SHA256 = "1d7dd060488a5a182bea670652f16cab1bfa905f7fcd83567e5aa0b23bcdef1d"


def _induction_grids():
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "induction_tables.py"
    spec = importlib.util.spec_from_file_location("induction_tables", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.GRIDS


def _render_catalog_inductions():
    lines = []
    for mor_id, grid in _induction_grids().items():
        m = catalog.morphism(mor_id)
        kernel = list(catalog.kernel_candidates(mor_id))
        irreducibles = catalog.irreducibles(m.target.name)
        for fam, params in grid:
            r = induce(m, kernel, catalog.module(fam, params), irreducibles, catalog.VOA_LABELS)
            lines.append(f"{mor_id} {fam}{list(map(str, params))} dim {r.dim} reduced {r.reduced_dim} rank {_relation_rank(m, r)}")
            lines.append(f"  decomposition {r.decomposition} label {r.voa_label}")
            for g, mat in r.module.actions.items():
                lines.append(f"  act {g} {[[str(x) for x in row] for row in mat]}")
            lines.append(f"  unit {[[str(x) for x in row] for row in mat_of_columns(r.unit_map, r.dim)]}")
    return "\n".join(lines) + "\n"


def test_catalog_inductions_digest_is_pinned():
    digest = hashlib.sha256(_render_catalog_inductions().encode()).hexdigest()
    assert digest == CATALOG_INDUCTIONS_SHA256, "an induced action, unit map, rank or decomposition changed"


# -- cached product tables against the per-call build ------------------------


def _combination(terms):
    acc = {}
    for c, row in terms:
        for k, v in row.items():
            acc[k] = acc.get(k, 0) + c * v
    return [(k, x) for k, x in sorted(acc.items()) if x]


def _pairs(coords):
    return sorted(coords.items())


def _dense(vec, n):
    return [F(vec.get(c, 0)) for c in range(n)]


def per_call_induce(m, kernel_gens, module, irreducibles, voa_labels):
    """induce as it was, building a_i * m(g) and g * a_i on every call: the reference, as a ``_summary``."""
    target = m.target
    radical = kernel_action_radical(m, kernel_gens, module)
    reduced = quotient_module(module, radical, label=f"{module.label}bar") if radical.dim else module
    nt, nm = len(target.basis), reduced.dim
    if nm == 0:
        rec = DecompositionRecord((), 0)
        return dense_module(target, 0, {}).actions, [], 0, 0, rec, _voa_label(rec, voa_labels)
    relations = DenseRowSpace(nt * nm)
    structure = target.structure
    gen_coords = [_pairs(target.coords(el.poly)) for el in m.images]
    for i, row in enumerate(structure):
        for g, img in enumerate(gen_coords):
            left_nz = _combination((y, row[j]) for j, y in img)
            gmat = reduced.actions[g]
            for j in range(nm):
                vec = {k * nm + j: x for k, x in left_nz}
                for l in range(nm):
                    if gmat[l][j]:
                        vec[i * nm + l] = vec.get(i * nm + l, 0) - gmat[l][j]
                if any(vec.values()):
                    relations.add(_dense(vec, nt * nm))
    comp = relations.complement_columns()
    qdim = len(comp)

    def quotient_column(coords, j, out, col):
        red = relations.reduce(_dense({k * nm + j: x for k, x in coords}, nt * nm))
        for row, flat in enumerate(comp):
            out[row][col] = red[flat]

    actions = {}
    for g in range(len(target.gen_names)):
        gcoords = _pairs(target.coords(target.system.reduce(NcPoly.gen(g))))
        mat = zeros(qdim, qdim)
        for col, flat in enumerate(comp):
            i, j = divmod(flat, nm)
            quotient_column(_combination((x, structure[h][i]) for h, x in gcoords), j, mat, col)
        actions[g] = mat
    induced = dense_module(target, qdim, actions)
    unit = zeros(qdim, nm)
    one_coords = _pairs(target.coords(target.system.reduce(NcPoly.one())))
    for j in range(nm):
        quotient_column(one_coords, j, unit, j)
    rec = decompose(induced, irreducibles)
    return induced.actions, unit, relations.dim, nm, rec, _voa_label(rec, voa_labels)


def _cold_copy(m):
    """The morphism over a freshly built target handle: neither product table exists yet."""
    target = AlgebraHandle(m.target.presentation, m.target.system)
    return AlgebraMorphism(m.source, target, [Element(target, el.poly) for el in m.images], m.name)


def _summary(m, r):
    unit = mat_of_columns(r.unit_map, r.dim)
    return (r.module.actions, unit, _relation_rank(m, r), r.reduced_dim, r.decomposition, r.voa_label)


def _assert_three_sources_agree(mor_id, fam, params, with_kernel=True):
    warm = catalog.morphism(mor_id)
    warm.image_products, warm.target.gen_products  # build both tables before inducing
    kernel = list(catalog.kernel_candidates(mor_id)) if with_kernel else []
    irreducibles = catalog.irreducibles(warm.target.name)
    module = catalog.module(fam, params)
    cold = _cold_copy(warm)
    assert "image_products" not in vars(cold) and "gen_products" not in vars(cold.target)
    cold_irreducibles = [dense_module(cold.target, irr.dim, irr.actions, irr.label) for irr in irreducibles]
    got_warm = induce(warm, kernel, module, irreducibles, catalog.VOA_LABELS)
    got_cold = induce(cold, kernel, module, cold_irreducibles, catalog.VOA_LABELS)
    # a module the kernel kills takes the general path too, so both tables are read every time
    assert "image_products" in vars(cold) and "gen_products" in vars(cold.target)
    want = per_call_induce(warm, kernel, module, irreducibles, catalog.VOA_LABELS)
    assert _summary(warm, got_warm) == want, (mor_id, fam, params)
    assert _summary(warm, got_cold) == want, (mor_id, fam, params)


def test_cached_tables_match_per_call_build_on_catalog_grids():
    grids = _induction_grids()
    assert set(grids) == set(catalog.MORPHISM_IDS)
    for mor_id, grid in grids.items():
        for fam, params in grid:
            _assert_three_sources_agree(mor_id, fam, params)


_FAMILIES = [(mor_id, fam) for mor_id, grid in _induction_grids().items() for fam in sorted({f for f, p in grid if p})]


@settings(max_examples=16, deadline=None)
@given(st.sampled_from(_FAMILIES), st.fractions(min_value=-6, max_value=6, max_denominator=8), st.booleans())
def test_cached_tables_match_per_call_build_on_generated_parameters(case, t, with_kernel):
    # without the kernel no radical is taken, so the whole module enters the tensor product
    mor_id, fam = case
    _assert_three_sources_agree(mor_id, fam, (t,), with_kernel)


def test_composite_builds_its_own_product_table():
    m1 = _cold_copy(catalog.morphism("heis_to_va1"))
    m2 = AlgebraMorphism(m1.target, catalog.algebra("a_va2"), list(catalog.morphism("va1_to_va2").images), "va1_to_va2")
    m2.image_products  # the second factor's table exists; the composite must not read it
    composite = compose(m1, m2)
    assert "image_products" not in vars(composite)  # lazy: compose builds no table
    table = composite.image_products
    assert "image_products" not in vars(m1)
    assert table is not m2.image_products and len(table) == len(m1.images)
    structure = composite.target.structure
    expected = [[dict(_combination((y, row[j]) for j, y in _pairs(composite.target.coords(el.poly)))) for row in structure] for el in composite.images]
    assert table == expected


# -- the early stop of the relation rows ------------------------------------------


def offered_relation_rows(m, module):
    """What ``RowSpace.add`` returns for each relation row of induce without the kernel, by the dense reference.

    A row is offered when it is nonzero off the coordinates that single-entry
    rows of the span already hold (those are zero modulo the span), and no
    row is offered once the span fills the tensor product.
    """
    nt, nm = len(m.target.basis), module.dim
    space = DenseRowSpace(nt * nm)
    grew = []
    for row in dense_relation_rows(m, [module.actions[g] for g in range(len(m.images))], nm):
        units = {p for p, r in zip(space.pivots, space.rows) if sum(map(bool, r)) == 1}
        if any(x for c, x in enumerate(row) if c not in units):
            grew.append(space.add(row))
            if space.dim == nt * nm:
                break
    return grew


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(_FAMILIES), st.fractions(min_value=-6, max_value=6, max_denominator=8))
def test_relation_rows_stop_once_they_fill_the_tensor_product(recorded_adds, case, t):
    # without the kernel the whole module enters the tensor product, and at most parameters it dies there
    mor_id, fam = case
    m = catalog.morphism(mor_id)
    module = catalog.module(fam, (t,))
    with recorded_adds() as grew:
        got = induce(m, [], module)
    nt, nm = len(m.target.basis), module.dim
    if got.dim == 0:
        assert sum(grew) == nt * nm and grew[-1]
    # every row that is nonzero once the single-entry coordinates are dropped reaches add, and no other
    assert grew == offered_relation_rows(m, module)
    assert len(grew) <= nt * len(m.images) * nm
    irreducibles = catalog.irreducibles(m.target.name)
    want = per_call_induce(m, [], module, irreducibles, catalog.VOA_LABELS)
    assert _summary(m, induce(m, [], module, irreducibles, catalog.VOA_LABELS)) == want


@pytest.mark.parametrize(
    "mor_id, fam, t",
    [("vp_to_va2", "vp_mod_U0", F(1, 2)), ("vp_to_va2", "vp_mod_Uhalf", F(3, 7))],
)
def test_induction_to_zero_skips_the_rows_after_the_span_is_full(recorded_adds, mor_id, fam, t):
    m = catalog.morphism(mor_id)
    module = catalog.module(fam, (t,))
    with recorded_adds() as grew:
        got = induce(m, [], module)
    nt, nm = len(m.target.basis), module.dim
    assert (got.dim, got.reduced_dim, got.unit_map) == (0, nm, [{}] * nm)
    assert got.module.columns == [[] for _ in m.target.gen_names]
    assert grew[-1] and len(grew) < nt * len(m.images) * nm


# -- induce and hom_space against dense elimination that skips no entry ------------


def _dense_apply(mat, v):
    return [sum((x * y for x, y in zip(row, v)), F(0)) for row in mat]


def _dense_times(coords, rows, n):
    """The dense coordinates of the sum over the entries ``j: y`` of ``coords`` of ``y * rows[j]``."""
    out = [F(0)] * n
    for j, y in coords.items():
        for k, x in rows[j].items():
            out[k] += y * x
    return out


def dense_relation_rows(m, actions, nm):
    """The relation rows of induce on a module with dense ``actions``, in induce's order: by generator, column, row.

    Row (g, j, i) is (a_i * m(g)) (x) v_j - a_i (x) (g v_j) over the flat
    index k * nm + l of a_k (x) v_l, with a_i * m(g) from the structure constants.
    """
    target = m.target
    nt = len(target.basis)
    for el, q in zip(m.images, actions):
        img = target.coords(el.poly)
        lefts = [_dense_times(img, target.structure[i], nt) for i in range(nt)]
        for j in range(nm):
            for i, left in enumerate(lefts):
                row = [F(0)] * (nt * nm)
                for k, x in enumerate(left):
                    row[k * nm + j] += x
                for l in range(nm):
                    row[i * nm + l] -= q[l][j]
                yield row


def dense_induce(m, kernel_gens, module):
    """induce with dense ``Fraction`` vectors and ``DenseRowSpace`` only: (actions, unit map, reduced dim).

    The kernel radical, the quotient by it, the relation rows, the quotient
    coordinates and the products ``a_i * m(g)`` and ``g * a_i`` are all built
    here from dense matrices and the target's structure constants.
    """
    target, n = m.target, module.dim
    structure = target.structure
    nt = len(target.basis)
    acts = [module.actions[g] for g in range(len(module.owner.gen_names))]

    def word_action(word):
        out = identity(n)
        for g in word:
            out = mat_mul(out, acts[g])
        return out

    radical = DenseRowSpace(n)
    queue = []
    for k in kernel_gens:
        total = zeros(n, n)
        for w, c in k.poly.terms.items():
            total = [[x + c * y for x, y in zip(r, wr)] for r, wr in zip(total, word_action(w))]
        queue.extend([row[j] for row in total] for j in range(n))
    while queue:
        v = queue.pop()
        if radical.add(v):
            queue.extend(_dense_apply(a, v) for a in acts)
    comp = radical.complement_columns()
    nm = len(comp)
    # the action on M / radical, in the coordinates of its complement columns
    reduced = [[[radical.reduce(_dense_apply(a, [F(int(i == j)) for i in range(n)]))[c] for j in comp] for c in comp] for a in acts]

    relations = DenseRowSpace(nt * nm)
    for row in dense_relation_rows(m, reduced, nm):
        relations.add(row)
    rel_comp = relations.complement_columns()

    def quotient_column(coords, j):
        vec = [F(0)] * (nt * nm)
        for k, x in enumerate(coords):
            vec[k * nm + j] = x
        red = relations.reduce(vec)
        return [red[c] for c in rel_comp]

    def dense_columns(columns):
        return [[col[r] for col in columns] for r in range(len(rel_comp))]

    actions = {}
    for h in range(len(target.gen_names)):
        gen = target.coords(target.system.reduce(NcPoly.gen(h)))
        # g * a_i: the sum over the entries hh: x of gen of x * structure[hh][i]
        actions[h] = dense_columns([quotient_column(_dense_times(gen, [structure[hh][flat // nm] for hh in range(nt)], nt), flat % nm) for flat in rel_comp])
    one = target.coords(target.system.reduce(NcPoly.one()))
    unit = dense_columns([quotient_column(_dense_times(one, [{k: 1} for k in range(nt)], nt), j) for j in range(nm)])
    return actions, unit, nm


def assert_induce_matches_dense(m, kernel_gens, module):
    got = induce(m, kernel_gens, module)
    assert (got.module.actions, mat_of_columns(got.unit_map, got.dim), got.reduced_dim) == dense_induce(m, kernel_gens, module)


def test_induce_matches_dense_elimination_on_catalog_grids():
    for mor_id, grid in _induction_grids().items():
        m = catalog.morphism(mor_id)
        kernel = list(catalog.kernel_candidates(mor_id))
        for fam, params in grid:
            assert_induce_matches_dense(m, kernel, catalog.module(fam, params))
            assert_induce_matches_dense(m, [], catalog.module(fam, params))


@st.composite
def source_modules(draw):
    """(morphism id, module over its source) with random actions; the relations need not hold."""
    mor_id = draw(st.sampled_from(["va1_to_va2", "vb_to_va1", "vp_to_va2"]))
    source = catalog.morphism(mor_id).source
    n = draw(st.integers(0, 3))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))

    def entry():
        return F(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < density else F(0)

    actions = {g: [[entry() for _ in range(n)] for _ in range(n)] for g in range(len(source.gen_names))}
    return mor_id, dense_module(source, n, actions)


@settings(max_examples=30, deadline=None)
@given(source_modules(), st.booleans())
def test_induce_matches_dense_elimination_on_random_modules(case, with_kernel):
    mor_id, module = case
    kernel = list(catalog.kernel_candidates(mor_id)) if with_kernel else []
    assert_induce_matches_dense(catalog.morphism(mor_id), kernel, module)


def test_hom_space_matches_dense_elimination_on_catalog_modules():
    for mor_id, grid in _induction_grids().items():
        m = catalog.morphism(mor_id)
        irreducibles = catalog.irreducibles(m.target.name)
        # over the source: the grid modules and the restricted irreducibles; over the target: the irreducibles
        for modules in ([catalog.module(fam, params) for fam, params in grid] + [restrict(m, k) for k in irreducibles], irreducibles):
            for a in modules:
                for b in modules:
                    assert [mat_of_columns(t, b.dim) for t in hom_space(a, b)] == dense_hom_space(a, b)
