import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhuind import catalog
from zhuind.linalg import nullspace
from zhuind.iolang import parse_poly_text
from zhuind.repmod import (
    FinModule,
    check_module,
    decompose,
    direct_sum,
    find_isomorphism,
    hom_space,
    permuted_copy,
    quotient_module,
    regular_module,
    submodule_closure,
)

F = Fraction


def test_check_module_l_half_passes(va1):
    assert check_module(catalog.module("va1_L_half")) == []


def test_check_module_zero_dimensional(va1):
    assert check_module(FinModule(va1, 0, {})) == []


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
    assert hom_space(L, L).dim == 1


def test_hom_inequivalent_is_zero(va1):
    assert hom_space(catalog.module("va1_trivial"), catalog.module("va1_L_half")).dim == 0


def test_hom_additive(va1):
    L = catalog.module("va1_L_half")
    assert hom_space(L, direct_sum(L, L)).dim == 2


def test_hom_dimension_symmetric_for_semisimple_owners():
    for alg_id in ("a_va1", "a_va2"):
        irr = catalog.irreducibles(alg_id)
        for a in irr:
            for b in irr:
                assert hom_space(a, b).dim == hom_space(b, a).dim


def test_decompose_direct_sum(va1):
    L = catalog.module("va1_L_half")
    rec = decompose(direct_sum(L, L), catalog.irreducibles("a_va1"))
    assert rec.as_dict() == {"L_half": 2} and rec.residual == 0


def test_decompose_additive_on_random_sums():
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
    assert submodule_closure(catalog.module("va1_L_half"), []) == []


def test_submodule_closure_irreducible_fills(va1):
    L = catalog.module("va1_L_half")
    assert len(submodule_closure(L, [[F(1), F(0)]])) == 2


def test_submodule_closure_left_ideal_of_squared_cartan(va1):
    # in the regular module, the closure of h^2 is span{e, f, h, h^2}
    reg = regular_module(va1)
    seed = va1.coords(va1.element("h h").poly)
    closure = submodule_closure(reg, [seed])
    assert len(closure) == 4
    one = va1.coords(va1.one().poly)
    from zhuind.linalg import RowSpace

    span = RowSpace(reg.dim)
    for v in closure:
        span.add({i: x for i, x in enumerate(v) if x})
    assert not span.contains({i: x for i, x in enumerate(one) if x})


def test_quotient_by_nothing_and_everything(va1):
    L = catalog.module("va1_L_half")
    assert quotient_module(L, []).dim == 2
    full = submodule_closure(L, [[F(1), F(0)], [F(0), F(1)]])
    assert quotient_module(L, full).dim == 0


def test_quotient_requires_stable_subspace(va1):
    L = catalog.module("va1_L_half")
    with pytest.raises(ValueError):
        quotient_module(L, [[F(1), F(0)]])


def test_quotient_heisenberg_radical_kills_module():
    heis = catalog.algebra("heis")
    mod = catalog.module("heis_mod", (F(2),))
    cand = catalog.kernel_candidates("heis_to_va1")[0]
    from zhuind.induct import kernel_action_radical

    radical = kernel_action_radical(catalog.morphism("heis_to_va1"), [cand], mod)
    assert quotient_module(mod, radical).dim == 0


def test_character_invariant_under_basis_shuffle():
    from zhuind.chars import char_vector

    L = catalog.module("va2_L_lambda_alpha")
    shuffled = permuted_copy(L, [2, 0, 1])
    assert check_module(shuffled) == []
    assert char_vector(shuffled).values == char_vector(L).values
    assert find_isomorphism(L, shuffled) is not None


def test_regular_module_is_faithful_action(va1):
    reg = regular_module(va1)
    assert check_module(reg) == []
    rec = decompose(reg, catalog.irreducibles("a_va1"))
    # semisimple regular module: each irreducible with multiplicity = its dimension
    assert rec.as_dict() == {"trivial": 1, "L_half": 2} and rec.residual == 0


# -- hom_space against the dense intertwiner equations -------------------------


def dense_hom_space(source, target):
    """hom_space as it was with dense n*m-column equation rows: the reference."""
    n, m = target.dim, source.dim
    if n * m == 0:
        return ()
    rows = []
    for g in source.actions:
        a = target.actions[g]
        b = source.actions[g]
        for i in range(n):
            for j in range(m):
                row = [F(0)] * (n * m)
                for k in range(m):
                    row[i * m + k] += b[k][j]
                for k in range(n):
                    row[k * m + j] -= a[i][k]
                rows.append(row)
    return tuple([[v[i * m + j] for j in range(m)] for i in range(n)] for v in nullspace(rows))


@st.composite
def action_modules(draw, dim=None):
    """A module over a_va1 with random actions (the relations need not hold)."""
    owner = catalog.algebra("a_va1")
    n = draw(st.integers(0, 4)) if dim is None else dim
    density = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        if rng.random() >= density:
            return F(0)
        return F(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 2))

    actions = {g: [[entry() for _ in range(n)] for _ in range(n)] for g in range(len(owner.gen_names))}
    return FinModule(owner, n, actions)


@settings(max_examples=60, deadline=None)
@given(action_modules(), st.data())
def test_hom_space_matches_dense_reference(source, data):
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
    assert hom.basis == dense_hom_space(source, target)
    if kind != "independent":
        assert hom.dim >= (1 if source.dim else 0)
