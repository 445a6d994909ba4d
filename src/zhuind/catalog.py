"""Built-in presentations, morphisms, kernel candidates and module families.

Six algebras are available under stable string ids:

    heis    polynomial line C[x]
    vir     polynomial line C[y]
    vb      Borel-type plane C[x] + C y  (y^2 = 0, x y = y, y x = -y)
    a_va1   five-dimensional quotient U(sl2)/<e^2>
    a_va2   nineteen-dimensional quotient U(sl3)/<x_ab^2>
    a_vp    parabolic-type algebra on x, y, x_a, x_ma, x_b, x_ab

The sl2 and sl3 quotients are presented by the enveloping-algebra
commutator table plus the extra quotient relations; the quotient
relations alone do not cut the algebras out of the free algebra (a
scaling of x_ab, x_mab fixes them but breaks the cross products), so the
commutators are genuinely part of the presentation.

Monomial precedences put root generators above the Cartan generators
they contract to, which makes the Cartan-polynomial bases of the papers'
normal forms come out as the normal words.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from zhuind.algebra import AlgebraHandle, Element, Presentation
from zhuind.freealg import MonomialOrder, NcPoly
from zhuind.iolang import parse_poly_text
from zhuind.morphism import AlgebraMorphism, compose
from zhuind.repmod import FinModule

ALGEBRA_IDS = ("heis", "vir", "vb", "a_va1", "a_va2", "a_vp")
MORPHISM_IDS = ("heis_to_va1", "vb_to_va1", "vir_to_va1", "va1_to_va2", "vp_to_va2", "heis_to_va2")
MODULE_IDS = ("va1_trivial", "va1_L_half", "va2_L0", "va2_L_lambda_alpha", "va2_L_lambda_beta")
FAMILY_IDS = ("heis_mod", "vb_mod", "vir_mod", "vp_mod_U0", "vp_mod_Uhalf")

VOA_LABELS = {
    "trivial": "V_{A1}",
    "L_half": "V_{A1+½α}",
    "L0": "V_{A2}",
    "L_lambda_alpha": "V_{A2+λα}",
    "L_lambda_beta": "V_{A2+λβ}",
}

COMPLETION_DEGREE = {"heis": 12, "vir": 12, "vb": 12, "a_va1": 12, "a_va2": 12, "a_vp": 8}


class UnknownId(KeyError):
    pass


# -- sl2 / sl3 structure -------------------------------------------------

_SL2_GENS = ("e", "f", "h")

_SL3_GENS = ("x", "y", "x_a", "x_ma", "x_b", "x_mb", "x_ab", "x_mab")

# 3x3 matrix realization used only to tabulate commutators
_E = lambda i, j: tuple(tuple(1 if (r, c) == (i, j) else 0 for c in range(3)) for r in range(3))
_SL3_MATS = {
    "x": ((1, 0, 0), (0, -1, 0), (0, 0, 0)),
    "y": ((0, 0, 0), (0, 1, 0), (0, 0, -1)),
    "x_a": _E(0, 1),
    "x_ma": _E(1, 0),
    "x_b": _E(1, 2),
    "x_mb": _E(2, 1),
    "x_ab": _E(0, 2),
    "x_mab": _E(2, 0),
}


def _mat_mul3(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3))


def _mat_sub3(a, b):
    return tuple(tuple(a[i][j] - b[i][j] for j in range(3)) for i in range(3))


def _sl3_in_basis(mat) -> dict[str, int]:
    """Write a traceless 3x3 integer matrix in the generator basis."""
    coeffs: dict[str, int] = {}
    off = {(0, 1): "x_a", (1, 0): "x_ma", (1, 2): "x_b", (2, 1): "x_mb", (0, 2): "x_ab", (2, 0): "x_mab"}
    for (i, j), name in off.items():
        if mat[i][j]:
            coeffs[name] = mat[i][j]
    # diag(d1, d2, d3): a*x + b*y = diag(a, b - a, -b)
    if mat[0][0]:
        coeffs["x"] = mat[0][0]
    if -mat[2][2]:
        coeffs["y"] = -mat[2][2]
    return coeffs


def _commutator_relations(gens: tuple[str, ...], mats: dict) -> list[NcPoly]:
    """g_i g_j - g_j g_i - [g_i, g_j] for every generator pair."""
    idx = {g: i for i, g in enumerate(gens)}
    rels = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            a, b = gens[i], gens[j]
            bracket = _mat_sub3(_mat_mul3(mats[a], mats[b]), _mat_mul3(mats[b], mats[a]))
            poly = NcPoly.monomial((idx[a], idx[b])) - NcPoly.monomial((idx[b], idx[a]))
            for name, c in _sl3_in_basis(bracket).items():
                poly = poly - NcPoly.monomial((idx[name],), Fraction(c))
            rels.append(poly)
    return rels


_SL2_MATS = {
    # embed sl2 into the upper-left block so the same tabulation works
    "e": _E(0, 1),
    "f": _E(1, 0),
    "h": ((1, 0, 0), (0, -1, 0), (0, 0, 0)),
}


def _sl2_in_basis(mat) -> dict[str, int]:
    coeffs: dict[str, int] = {}
    if mat[0][1]:
        coeffs["e"] = mat[0][1]
    if mat[1][0]:
        coeffs["f"] = mat[1][0]
    if mat[0][0]:
        coeffs["h"] = mat[0][0]
    return coeffs


# -- presentations -------------------------------------------------------


def _ranks(gens: tuple[str, ...], descending: list[str]) -> MonomialOrder:
    return MonomialOrder.from_ranking([gens.index(n) for n in descending])


@lru_cache(maxsize=None)
def presentation(alg_id: str) -> Presentation:
    if alg_id == "heis":
        return Presentation("heis", ("x",), MonomialOrder((0,)), ())
    if alg_id == "vir":
        return Presentation("vir", ("y",), MonomialOrder((0,)), ())
    if alg_id == "vb":
        gens = ("x", "y")
        P = lambda s: parse_poly_text(s, gens)
        rels = (P("y y"), P("x y - y"), P("y x + y"))
        return Presentation("vb", gens, _ranks(gens, ["x", "y"]), rels)
    if alg_id == "a_va1":
        gens = _SL2_GENS
        idx = {g: i for i, g in enumerate(gens)}
        P = lambda s: parse_poly_text(s, gens)
        rels = []
        for i in range(3):
            for j in range(i + 1, 3):
                a, b = gens[i], gens[j]
                bracket = _mat_sub3(_mat_mul3(_SL2_MATS[a], _SL2_MATS[b]), _mat_mul3(_SL2_MATS[b], _SL2_MATS[a]))
                poly = NcPoly.monomial((idx[a], idx[b])) - NcPoly.monomial((idx[b], idx[a]))
                for name, c in _sl2_in_basis(bracket).items():
                    poly = poly - NcPoly.monomial((idx[name],), Fraction(c))
                rels.append(poly)
        rels += [P("e h + e"), P("h h - h - 2 f e"), P("f h - f"), P("e e"), P("f f")]
        return Presentation("a_va1", gens, _ranks(gens, ["e", "f", "h"]), tuple(rels))
    if alg_id == "a_va2":
        gens = _SL3_GENS
        P = lambda s: parse_poly_text(s, gens)
        rels = _commutator_relations(gens, _SL3_MATS)
        rels += [
            # Cartan vs root generators, both sides
            P("x x_a - x_a"), P("x_a x + x_a"), P("x x_ma + x_ma"), P("x_ma x - x_ma"),
            P("y x_b - x_b"), P("x_b y + x_b"), P("y x_mb + x_mb"), P("x_mb y - x_mb"),
            P("x x_ab + y x_ab - x_ab"), P("x_ab x + x_ab y + x_ab"),
            P("x x_mab + y x_mab + x_mab"), P("x_mab x + x_mab y - x_mab"),
            P("y x_a - x_a y + x_a"), P("y x_ma - x_ma y - x_ma"),
            P("x x_b - x_b x + x_b"), P("x x_mb - x_mb x - x_mb"),
            P("x x_ab - x_ab x - x_ab"), P("x x_mab - x_mab x + x_mab"),
            P("y x_ab - x_ab y - x_ab"), P("y x_mab - x_mab y + x_mab"),
            # opposite-root contractions
            P("x_a x_ma - 1/2 x x - 1/2 x"),
            P("x_b x_mb - 1/2 y y - 1/2 y"),
            P("x_ab x_mab - 1/2 x x - 1/2 x y - 1/2 y x - 1/2 y y - 1/2 x - 1/2 y"),
            # products out of the root system vanish
            P("x_a x_a"), P("x_ma x_ma"), P("x_b x_b"), P("x_mb x_mb"), P("x_ab x_ab"), P("x_mab x_mab"),
            P("x_a x_ab"), P("x_ab x_a"), P("x_b x_ab"), P("x_ab x_b"),
            P("x_ma x_mab"), P("x_mab x_ma"), P("x_mb x_mab"), P("x_mab x_mb"),
            P("x_a x_mb"), P("x_mb x_a"), P("x_ma x_b"), P("x_b x_ma"),
            # Cartan polynomial relations
            P("x x x - x"), P("y y y - y"),
            _cartan_cube_rel(gens),
            P("x y - y x"),
        ]
        descending = ["x_a", "x_ma", "x_b", "x_mb", "x_ab", "x_mab", "x", "y"]
        return Presentation("a_va2", gens, _ranks(gens, descending), tuple(rels))
    if alg_id == "a_vp":
        gens = ("x", "y", "x_a", "x_ma", "x_b", "x_ab")
        P = lambda s: parse_poly_text(s, gens)
        rels = (
            P("x x_a - x_a"), P("x_a x + x_a"), P("x x_ma + x_ma"), P("x_ma x - x_ma"),
            P("x_a x_ma - 1/2 x x - 1/2 x"), P("x_ma x_a - 1/2 x x + 1/2 x"),
            P("x y - y x"), P("x x x - x"),
            P("y x_a - x_a y + x_a"), P("y x_ma - x_ma y - x_ma"),
            P("x_b y + x_b"), P("y x_b - x_b"),
            P("x_ab x + x_ab y + x_ab"), P("x x_ab + y x_ab - x_ab"),
            P("x x_b - x_b x + x_b"), P("x x_ab - x_ab x - x_ab"),
            P("x_a x_b + x_ab y"), P("x_b x_a + x_ab y + x_ab"),
            P("x_ma x_ab + x_b x - x_b"), P("x_ab x_ma + x_b x"),
            P("x_a x_a"), P("x_ma x_ma"), P("x_b x_b"), P("x_ab x_ab"),
            P("x_a x_ab"), P("x_ab x_a"), P("x_b x_ab"), P("x_ab x_b"),
            P("x_b x_ma"), P("x_ma x_b"),
        )
        descending = ["y", "x_a", "x_ma", "x", "x_ab", "x_b"]
        return Presentation("a_vp", gens, _ranks(gens, descending), rels)
    raise UnknownId(alg_id)


def _cartan_cube_rel(gens: tuple[str, ...]) -> NcPoly:
    """(x + y)^3 - (x + y) over the given generator table."""
    x = NcPoly.gen(gens.index("x"))
    y = NcPoly.gen(gens.index("y"))
    s = x + y
    return s * s * s - s


@lru_cache(maxsize=None)
def algebra(alg_id: str) -> AlgebraHandle:
    pres = presentation(alg_id)
    return AlgebraHandle.build(pres, max_degree=COMPLETION_DEGREE[alg_id], probe_len=8)


# -- morphisms -----------------------------------------------------------


@lru_cache(maxsize=None)
def morphism(mor_id: str) -> AlgebraMorphism:
    if mor_id == "heis_to_va1":
        src, tgt = algebra("heis"), algebra("a_va1")
        return AlgebraMorphism(src, tgt, [tgt.gen("h")], name=mor_id)
    if mor_id == "vb_to_va1":
        src, tgt = algebra("vb"), algebra("a_va1")
        return AlgebraMorphism(src, tgt, [tgt.gen("h"), tgt.gen("e")], name=mor_id)
    if mor_id == "vir_to_va1":
        src, tgt = algebra("vir"), algebra("a_va1")
        return AlgebraMorphism(src, tgt, [tgt.element("1/4 h h")], name=mor_id)
    if mor_id == "va1_to_va2":
        src, tgt = algebra("a_va1"), algebra("a_va2")
        return AlgebraMorphism(src, tgt, [tgt.gen("x_a"), tgt.gen("x_ma"), tgt.gen("x")], name=mor_id)
    if mor_id == "vp_to_va2":
        src, tgt = algebra("a_vp"), algebra("a_va2")
        images = [tgt.gen(name) for name in src.gen_names]
        return AlgebraMorphism(src, tgt, images, name=mor_id)
    if mor_id == "heis_to_va2":
        return compose(morphism("heis_to_va1"), morphism("va1_to_va2"), name=mor_id)
    raise UnknownId(mor_id)


@lru_cache(maxsize=None)
def kernel_candidates(mor_id: str) -> tuple[Element, ...]:
    if mor_id in ("heis_to_va1", "vb_to_va1", "heis_to_va2"):
        src = morphism(mor_id).source
        return (src.element("x x x - x"),)
    if mor_id == "vir_to_va1":
        return (algebra("vir").element("y y - 1/4 y"),)
    if mor_id == "va1_to_va2":
        return ()
    if mor_id == "vp_to_va2":
        vp = algebra("a_vp")
        x = NcPoly.gen(vp.presentation.gen_index("x"))
        y = NcPoly.gen(vp.presentation.gen_index("y"))
        xa = NcPoly.gen(vp.presentation.gen_index("x_a"))
        xma = NcPoly.gen(vp.presentation.gen_index("x_ma"))
        s = x + y
        polys = [
            xa * s * s + xa * s,
            xma * s * s - xma * s,
            xa * y * y - xa * y,
            xma * y * y + xma * y,
            y * y * y - y,
            s * s * s - s,
        ]
        return tuple(vp.element(p) for p in polys)
    raise UnknownId(mor_id)


KERNEL_PROBE_DEGREE = {
    "heis_to_va1": 10,
    "vb_to_va1": 10,
    "vir_to_va1": 10,
    "va1_to_va2": 0,
    "vp_to_va2": 8,
    "heis_to_va2": 10,
}


# -- modules -------------------------------------------------------------


@lru_cache(maxsize=None)
def module(mod_id: str, params: tuple = ()) -> FinModule:
    params = tuple(Fraction(p) for p in params)
    if mod_id == "va1_trivial":
        return FinModule(algebra("a_va1"), 1, {}, label="trivial")
    if mod_id == "va1_L_half":
        va1 = algebra("a_va1")
        named = {"e": [[0, 1], [0, 0]], "f": [[0, 0], [1, 0]], "h": [[1, 0], [0, -1]]}
        return FinModule.from_named_actions(va1, 2, named, label="L_half")
    if mod_id == "va2_L0":
        return FinModule(algebra("a_va2"), 1, {}, label="L0")
    if mod_id == "va2_L_lambda_alpha":
        va2 = algebra("a_va2")
        named = {
            "x_a": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            "x_ma": [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
            "x_b": [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            "x_mb": [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
            "x_ab": [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
            "x_mab": [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
            "x": [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
            "y": [[0, 0, 0], [0, 1, 0], [0, 0, -1]],
        }
        return FinModule.from_named_actions(va2, 3, named, label="L_lambda_alpha")
    if mod_id == "va2_L_lambda_beta":
        va2 = algebra("a_va2")
        named = {
            "x_a": [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            "x_ma": [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
            "x_b": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            "x_mb": [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
            "x_ab": [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
            "x_mab": [[0, 0, 0], [0, 0, 0], [-1, 0, 0]],
            "x": [[0, 0, 0], [0, 1, 0], [0, 0, -1]],
            "y": [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        }
        return FinModule.from_named_actions(va2, 3, named, label="L_lambda_beta")
    if mod_id == "heis_mod":
        (s,) = params
        return FinModule(algebra("heis"), 1, {0: [[s]]}, label=f"heis_mod({s})")
    if mod_id == "vb_mod":
        (s,) = params
        return FinModule(algebra("vb"), 1, {0: [[s]], 1: [[0]]}, label=f"vb_mod({s})")
    if mod_id == "vir_mod":
        (k,) = params
        return FinModule(algebra("vir"), 1, {0: [[k]]}, label=f"vir_mod({k})")
    if mod_id == "vp_mod_U0":
        (t,) = params
        vp = algebra("a_vp")
        return FinModule.from_named_actions(vp, 1, {"y": [[t]]}, label=f"U0({t})")
    if mod_id == "vp_mod_Uhalf":
        (t,) = params
        vp = algebra("a_vp")
        named = {
            "x": [[1, 0], [0, -1]],
            "x_a": [[0, 1], [0, 0]],
            "x_ma": [[0, 0], [1, 0]],
            "y": [[t - Fraction(1, 2), 0], [0, t + Fraction(1, 2)]],
        }
        return FinModule.from_named_actions(vp, 2, named, label=f"Uhalf({t})")
    raise UnknownId(mod_id)


def irreducibles(alg_id: str) -> list[FinModule]:
    if alg_id == "a_va1":
        return [module("va1_trivial"), module("va1_L_half")]
    if alg_id == "a_va2":
        return [module("va2_L0"), module("va2_L_lambda_alpha"), module("va2_L_lambda_beta")]
    raise UnknownId(alg_id)


def weight_dict() -> dict[str, dict[str, tuple[Fraction, Fraction]]]:
    """Fundamental weights named by their pairings against the simple roots."""
    return {
        "lambda_alpha": {
            "pairings": (Fraction(1), Fraction(0)),
            "root_coords": (Fraction(2, 3), Fraction(1, 3)),
        },
        "lambda_beta": {
            "pairings": (Fraction(0), Fraction(1)),
            "root_coords": (Fraction(1, 3), Fraction(2, 3)),
        },
        "gram": ((Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(2))),
    }


def catalog_source() -> str:
    """The whole catalog rendered in the source-file language."""
    from zhuind.iolang import AlgebraBlock, ModuleBlock, MorphismBlock, SourceFile, pretty_print

    blocks = []
    for alg_id in ALGEBRA_IDS:
        pres = presentation(alg_id)
        ranked = sorted(range(len(pres.gen_names)), key=lambda g: pres.order.precedence[g], reverse=True)
        blocks.append(
            AlgebraBlock(
                pres.name,
                list(pres.gen_names),
                [pres.gen_names[g] for g in ranked],
                list(pres.relations),
            )
        )
    for mor_id in MORPHISM_IDS:
        m = morphism(mor_id)
        blocks.append(
            MorphismBlock(
                mor_id,
                m.source.name,
                m.target.name,
                {name: m.images[i].poly for i, name in enumerate(m.source.gen_names)},
            )
        )
    for mod_id in MODULE_IDS:
        mod = module(mod_id)
        named = {
            mod.owner.gen_names[g]: mat
            for g, mat in mod.actions.items()
            if any(any(row) for row in mat)
        }
        blocks.append(ModuleBlock(mod_id, mod.owner.name, mod.dim, named))
    return pretty_print(SourceFile(blocks))


def get(entry_id: str):
    """Uniform lookup across algebras, morphisms, kernels and modules."""
    if entry_id in ALGEBRA_IDS:
        return algebra(entry_id)
    if entry_id in MORPHISM_IDS:
        return morphism(entry_id)
    if entry_id.startswith("kernel:"):
        return kernel_candidates(entry_id.split(":", 1)[1])
    if entry_id in MODULE_IDS:
        return module(entry_id)
    if entry_id in FAMILY_IDS:
        return lambda *params: module(entry_id, tuple(Fraction(p) for p in params))
    if entry_id == "weights":
        return weight_dict()
    raise UnknownId(entry_id)
