import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import dense_hom_space, dense_module, identity, mat_mul, mat_of_columns, regular_module, zeros
from zhuind import catalog
from zhuind.freealg import NcPoly, scalar
from zhuind.linalg import RowSpace
from zhuind.iolang import parse_poly_text
from zhuind.repmod import (
    FinModule,
    char_vector,
    check_module,
    decompose,
    hom_space,
    quotient_module,
    submodule_closure,
)

F = Fraction


def test_check_module_l_half_passes(va1):
    assert check_module(catalog.module("va1_L_half")) == []


def test_check_module_zero_dimensional(va1):
    assert check_module(dense_module(va1, 0, {})) == []


def test_check_module_bad_cartan_violates(va1):
    named = {"e": [[0, 1], [0, 0]], "f": [[0, 0], [1, 0]], "h": [[2, 0], [0, -1]]}
    bad = FinModule.from_named_actions(va1, 2, named)
    violated = check_module(bad)
    assert violated  # fails, though not on e h + e: rho(e)rho(h) + rho(e) = 0 for these matrices
    assert parse_poly_text("h h - h - 2 f e", va1.gen_names) in violated
    assert parse_poly_text("e h + e", va1.gen_names) not in violated


def test_catalog_module_families_pass_at_random_parameters():
    rng = random.Random(17)
    for fam in catalog.FAMILY_IDS:
        for _ in range(20):
            t = F(rng.randint(-40, 40), rng.randint(1, 9))
            assert check_module(catalog.module(fam, (t,))) == []


def test_catalog_fixed_modules_pass():
    for mod_id in catalog.MODULE_IDS:
        assert check_module(catalog.module(mod_id)) == []


def test_hom_schur(va1):
    L = catalog.module("va1_L_half")
    assert len(hom_space(L, L)) == 1


def test_hom_inequivalent_is_zero(va1):
    assert hom_space(catalog.module("va1_trivial"), catalog.module("va1_L_half")) == []


def test_hom_additive(va1, direct_sum):
    L = catalog.module("va1_L_half")
    assert len(hom_space(L, direct_sum(L, L))) == 2


def test_hom_dimension_symmetric_for_semisimple_owners():
    for alg_id in ("a_va1", "a_va2"):
        irr = catalog.irreducibles(alg_id)
        for a in irr:
            for b in irr:
                assert len(hom_space(a, b)) == len(hom_space(b, a))


def test_decompose_direct_sum(va1, direct_sum):
    L = catalog.module("va1_L_half")
    rec = decompose(direct_sum(L, L), catalog.irreducibles("a_va1"))
    assert rec.as_dict() == {"L_half": 2} and rec.residual == 0


def test_decompose_additive_on_random_sums(direct_sum):
    rng = random.Random(23)
    irr = catalog.irreducibles("a_va2")
    for _ in range(5):
        picks = [irr[rng.randrange(3)] for _ in range(rng.randint(1, 3))]
        total = picks[0]
        for m in picks[1:]:
            total = direct_sum(total, m)
        rec = decompose(total, irr)
        expected: dict[str, int] = {}
        for m in picks:
            expected[m.label] = expected.get(m.label, 0) + 1
        assert rec.as_dict() == expected and rec.residual == 0


def test_sum_of_squares_matches_algebra_dims(va1, va2):
    assert sum(m.dim**2 for m in catalog.irreducibles("a_va1")) == va1.dim() == 5
    assert sum(m.dim**2 for m in catalog.irreducibles("a_va2")) == va2.dim() == 19


def test_submodule_closure_empty(va1):
    closure = submodule_closure(catalog.module("va1_L_half"), [])
    assert closure.dim == 0 and closure.basis() == []


def test_submodule_closure_irreducible_fills(va1):
    L = catalog.module("va1_L_half")
    assert submodule_closure(L, [{0: F(1)}]).dim == 2


def test_submodule_closure_maps_no_vector_once_the_space_is_full(va1, monkeypatch):
    from zhuind import repmod

    L, calls = catalog.module("va1_L_half"), []
    combine = repmod.linear_combination
    monkeypatch.setattr(repmod, "linear_combination", lambda v, cols: calls.append(v) or combine(v, cols))
    assert submodule_closure(L, [{0: F(1)}]).dim == 2
    # the seed's images under the three generators; the vector that fills the space is not mapped
    assert len(calls) == len(va1.gen_names) == 3


def test_submodule_closure_left_ideal_of_squared_cartan(va1):
    # in the regular module, the closure of h^2 is span{e, f, h, h^2}
    reg = regular_module(va1)
    seed = va1.coords(va1.element("h h").poly)
    closure = submodule_closure(reg, [seed])
    assert closure.dim == 4
    assert not closure.contains(va1.coords(va1.element("1").poly))


def test_quotient_by_nothing_and_everything(va1):
    L = catalog.module("va1_L_half")
    assert quotient_module(L, RowSpace(2)).dim == 2
    full = submodule_closure(L, [{0: F(1)}, {1: F(1)}])
    assert quotient_module(L, full).dim == 0


def test_quotient_requires_stable_subspace(va1):
    L = catalog.module("va1_L_half")
    line = RowSpace(2)
    line.add({0: F(1)})
    with pytest.raises(ValueError):
        quotient_module(L, line)


def test_quotient_heisenberg_radical_kills_module():
    heis = catalog.algebra("heis")
    mod = catalog.module("heis_mod", (F(2),))
    cand = catalog.kernel_candidates("heis_to_va1")[0]
    from zhuind.induct import kernel_action_radical

    radical = kernel_action_radical(catalog.morphism("heis_to_va1"), [cand], mod)
    assert quotient_module(mod, radical).dim == 0


def test_character_invariant_under_basis_shuffle(permuted_copy):
    L = catalog.module("va2_L_lambda_alpha")
    shuffled = permuted_copy(L, [2, 0, 1])
    assert check_module(shuffled) == []
    assert char_vector(shuffled).values == char_vector(L).values
    # an irreducible module with a one-dimensional hom space to an equal-dimensional module
    assert len(hom_space(L, shuffled)) == 1


def test_regular_module_is_faithful_action(va1):
    reg = regular_module(va1)
    assert check_module(reg) == []
    rec = decompose(reg, catalog.irreducibles("a_va1"))
    # semisimple regular module: each irreducible with multiplicity = its dimension
    assert rec.as_dict() == {"trivial": 1, "L_half": 2} and rec.residual == 0


# -- hom_space against the dense intertwiner equations (dense.dense_hom_space) ----


@st.composite
def dense_actions(draw, dim=None):
    """``(dim, actions)``: one random dense matrix per generator of a_va1, entries ``Fraction`` or ``int``."""
    n = draw(st.integers(0, 4)) if dim is None else dim
    density = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        if rng.random() >= density:
            return rng.choice((F(0), 0))
        value = F(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 2))
        return int(value) if value.denominator == 1 and rng.random() < 0.5 else value

    return n, {g: [[entry() for _ in range(n)] for _ in range(n)] for g in range(3)}


@st.composite
def action_modules(draw, dim=None):
    """A module over a_va1 with random actions (the relations need not hold)."""
    return dense_module(catalog.algebra("a_va1"), *draw(dense_actions(dim)))


@settings(max_examples=60, deadline=None)
@given(action_modules(), st.data())
def test_hom_space_matches_dense_reference(permuted_copy, source, data):
    rng = data.draw(st.randoms(use_true_random=False))
    kind = data.draw(st.sampled_from(["permuted", "independent", "self"]))
    if kind == "permuted":
        perm = list(range(source.dim))
        rng.shuffle(perm)
        target = permuted_copy(source, perm)
    elif kind == "independent":
        target = data.draw(action_modules())
    else:
        target = source
    hom = hom_space(source, target)
    assert [mat_of_columns(t, target.dim) for t in hom] == dense_hom_space(source, target)
    # each intertwiner is source.dim sparse columns with no stored zeros
    assert all(len(t) == source.dim and all(x and type(x) is F for col in t for x in col.values()) for t in hom)
    if kind != "independent":
        assert len(hom) >= (1 if source.dim else 0)


@st.composite
def disjoint_spectra_pairs(draw):
    """(source, target) whose first actions are triangular with disjoint diagonals, so Hom is 0.

    T A = B T with spec A and spec B disjoint has only T = 0 (Sylvester), so
    the n*m equations of the first generator alone fill the space.
    """
    owner = catalog.algebra("a_va1")
    modules = []
    for sign in (1, -1):
        n, actions = draw(dense_actions(draw(st.integers(1, 3))))
        for i, row in enumerate(actions[0]):
            for j in range(i):
                row[j] = 0
            row[i] = F(sign * (i + 1))
        modules.append(dense_module(owner, n, actions))
    return tuple(modules)


@settings(max_examples=40, deadline=None)
@given(disjoint_spectra_pairs())
def test_hom_space_stops_once_the_first_generator_fills_the_space(recorded_adds, pair):
    source, target = pair
    with recorded_adds() as grew:
        hom = hom_space(source, target)
    assert hom == [] == dense_hom_space(source, target)
    assert grew == [True] * (source.dim * target.dim)


def test_hom_space_of_one_dimensional_modules_with_distinct_scalars_is_zero(recorded_adds, va1):
    a = dense_module(va1, 1, {0: [[F(1)]], 1: [[F(2)]], 2: [[F(3)]]})
    b = dense_module(va1, 1, {0: [[F(-1)]], 1: [[F(2)]], 2: [[F(3)]]})
    with recorded_adds() as grew:
        assert hom_space(a, b) == []
    assert grew == [True]
    assert hom_space(a, a) == [[{0: F(1)}]]


# -- the stored sparse columns against the dense input ------------------------------


def is_exact_scalar(x):
    """A nonzero ``int`` or ``Fraction`` that is its own ``scalar`` form: an ``int`` when integral."""
    return x != 0 and type(x) in (int, Fraction) and scalar(x) == x and type(scalar(x)) is type(x)


def assert_sparse_form(module):
    """One list of ``dim`` sparse columns per generator, each entry nonzero and stored as ``scalar`` gives it."""
    assert len(module.columns) == len(module.owner.gen_names)
    for cols in module.columns:
        assert len(cols) == module.dim
        assert all(0 <= i < module.dim and is_exact_scalar(x) for col in cols for i, x in col.items())


@settings(max_examples=60, deadline=None)
@given(dense_actions(), st.lists(st.lists(st.integers(0, 2), max_size=4).map(tuple), max_size=4))
def test_stored_columns_hold_no_zero_and_give_back_the_dense_input(dim_actions, words):
    dim, actions = dim_actions
    module = dense_module(catalog.algebra("a_va1"), dim, actions)
    assert_sparse_form(module)
    assert module.actions == actions
    assert module.actions is module.actions  # built once
    for word in words:
        got = module.action_of_word(word)
        assert all(x for col in got for x in col.values())
        assert mat_of_columns(got, dim) == chain_action(module, word)


def test_missing_generators_act_as_zero(va1):
    module = dense_module(va1, 2, {1: [[0, 1], [0, 0]]})
    assert module.columns == [[{}, {}], [{}, {0: F(1)}], [{}, {}]]
    assert module.actions == {0: [[F(0), F(0)], [F(0), F(0)]], 1: [[F(0), F(1)], [F(0), F(0)]], 2: [[F(0), F(0)], [F(0), F(0)]]}


def test_word_actions_drop_entries_that_cancel(va1):
    # generator 0 times generator 1 acts as 0: column 0 of the second is v0 - v1, and the first sends both to v0
    module = dense_module(va1, 2, {0: [[1, 1], [0, 0]], 1: [[1, 0], [-1, 0]]})
    assert module.action_of_word((0, 1)) == [{}, {}]
    assert module.evaluate(NcPoly({(0, 1): F(1), (): F(2)})) == [{0: F(2)}, {1: F(2)}]


def test_built_modules_keep_the_sparse_form(va1, va2):
    from zhuind.induct import induce, restrict

    L = catalog.module("va1_L_half")
    full = submodule_closure(L, [{0: F(1)}])
    built = [quotient_module(L, RowSpace(2)), quotient_module(L, full), regular_module(va1), regular_module(va2)]
    m = catalog.morphism("va1_to_va2")
    built += [restrict(m, catalog.module("va2_L_lambda_alpha")), induce(m, [], L).module]
    for module in built:
        assert_sparse_form(module)


@settings(max_examples=30, deadline=None)
@given(action_modules(), st.randoms(use_true_random=False))
def test_every_built_module_stores_its_entries_through_scalar(module, rng):
    from zhuind.induct import induce, restrict

    # from_named_actions, with int, integral Fraction and other Fraction input
    built = [module]
    seed = {i: x for i in range(module.dim) if (x := F(rng.randint(-2, 2), rng.randint(1, 2)))}
    built.append(quotient_module(module, submodule_closure(module, [seed])))
    built += [restrict(catalog.morphism(mor_id), module) for mor_id in ("heis_to_va1", "vb_to_va1", "vir_to_va1")]
    built.append(induce(catalog.morphism("va1_to_va2"), [], module).module)
    built.append(regular_module(catalog.algebra(rng.choice(["a_va1", "a_va2"]))))
    for m in built:
        assert_sparse_form(m)


def test_fin_module_refuses_a_binary_float(va1):
    with pytest.raises(TypeError, match="float"):
        FinModule(va1, 1, [[{0: 0.5}], [{0: 2.0}], [{0: 0.25}]])
    with pytest.raises(TypeError, match="float"):
        FinModule(va1, 1, [[{0: 1}], [{}], [{0: 0.0}]])


# -- evaluate against the matrix sum it replaced ----------------------------------


def chain_action(module, word):
    """The action of ``word`` as identity times one action matrix per letter: the reference."""
    out = identity(module.dim)
    for g in word:
        out = mat_mul(out, module.actions[g])
    return out


def sum_evaluate(module, p):
    """evaluate as it was, a fresh product chain and a fresh sum matrix per term: the reference."""
    out = zeros(module.dim, module.dim)
    for w, c in p.terms.items():
        out = [[x + c * y for x, y in zip(out_row, row)] for out_row, row in zip(out, chain_action(module, w))]
    return out


_eval_word = st.lists(st.integers(0, 2), max_size=4).map(tuple)
_eval_poly = st.dictionaries(_eval_word, st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=4).map(NcPoly)


@settings(max_examples=60, deadline=None)
@given(action_modules(), _eval_poly)
def test_evaluate_matches_matrix_sum(module, p):
    got = module.evaluate(p)
    assert mat_of_columns(got, module.dim) == sum_evaluate(module, p)
    assert all(type(x) in (int, Fraction) and x for col in got for x in col.values())


def test_evaluate_matches_matrix_sum_on_catalog_relations():
    for mod_id in catalog.MODULE_IDS:
        module = catalog.module(mod_id)
        for rel in module.owner.presentation.relations:
            assert mat_of_columns(module.evaluate(rel), module.dim) == sum_evaluate(module, rel)


_memo_call = st.one_of(st.tuples(st.just("word"), _eval_word), st.tuples(st.just("poly"), _eval_poly))


@settings(max_examples=60, deadline=None)
@given(action_modules(), st.lists(_memo_call, max_size=8))
def test_memoised_word_actions_match_the_product_chain_in_any_order(module, calls):
    # one module across the calls, so later words meet prefixes memoised by earlier ones
    for kind, arg in calls:
        if kind == "word":
            assert mat_of_columns(module.action_of_word(arg), module.dim) == chain_action(module, arg)
            assert module.action_of_word(arg) is module.action_of_word(arg)
        else:
            assert mat_of_columns(module.evaluate(arg), module.dim) == sum_evaluate(module, arg)


def test_evaluate_walks_a_long_word_without_recursion(va1):
    # a prefix walk that recursed once per letter would pass the default recursion limit
    mod = dense_module(va1, 1, {0: [[F(-1)]], 1: [[F(2)]], 2: [[F(1, 2)]]})
    word = tuple((i * i + i // 7) % 3 for i in range(3000))
    value = F(1)
    for g in word:
        value *= mod.actions[g][0][0]
    half = F(1)
    for g in word[:1500]:
        half *= mod.actions[g][0][0]
    assert mod.evaluate(NcPoly({word: F(3), word[:1500]: F(-1)})) == [{0: 3 * value - half}]
    assert mod.action_of_word(word) == [{0: value}]


def reduced_regular_module(handle):
    """regular_module as it was, re-reducing g * w for every basis word: the reference."""
    n = len(handle.basis)
    actions = {}
    for g in range(len(handle.gen_names)):
        mat = zeros(n, n)
        for j, w in enumerate(handle.basis):
            col = handle.coords(handle.system.reduce(NcPoly.gen(g) * NcPoly.monomial(w)))
            for i, x in col.items():
                mat[i][j] = x
        actions[g] = mat
    return actions


def test_regular_module_matches_re_reduced_actions(va1, va2):
    for handle in (va1, va2):
        assert regular_module(handle).actions == reduced_regular_module(handle)


def test_fin_module_shares_fraction_entries_and_converts_the_rest(va1):
    half = F(1, 2)
    mod = FinModule.from_named_actions(va1, 2, {"h": [[half, F(3)], [0, -1]]})
    h = va1.gen_names.index("h")
    assert mod.actions[h][0][0] is half
    assert mod.actions[h] == [[F(1, 2), F(3)], [F(0), F(-1)]]
    # the integral entries, given as an int and as a Fraction, are stored as int
    assert mod.columns[h] == [{0: half}, {0: 3, 1: -1}]
    assert [type(x) for col in mod.columns[h] for x in col.values()] == [Fraction, int, int]


def test_named_actions_refuse_a_binary_float(va1):
    with pytest.raises(TypeError, match="float"):
        FinModule.from_named_actions(va1, 2, {"h": [[0.5, 0], [0, -1]]})
    with pytest.raises(TypeError, match="float"):
        FinModule.from_named_actions(va1, 1, {"h": [[0.0]]})  # a float zero is refused too, not dropped
    mod = FinModule.from_named_actions(va1, 2, {"h": [[1, 0], [0, F(-1)]]})
    assert all(type(x) is int for col in mod.columns[va1.gen_names.index("h")] for x in col.values())


def test_named_actions_reject_a_wrong_size_and_an_unknown_generator(va1):
    with pytest.raises(ValueError, match="action of h must be 2x2"):
        FinModule.from_named_actions(va1, 2, {"h": [[1, 0], [0, 1, 0]]})
    with pytest.raises(ValueError):
        FinModule.from_named_actions(va1, 1, {"q": [[1]]})


def test_constructor_rejects_dense_matrices_keyed_by_generator(va1):
    # the stored form is one list of sparse columns per generator; dense input goes through from_named_actions
    with pytest.raises(ValueError, match="from_named_actions"):
        FinModule(va1, 1, {g: [[F(1)]] for g in range(len(va1.gen_names))})
    with pytest.raises(ValueError, match="one entry per generator"):
        FinModule(va1, 1, [[{0: F(1)}]])
