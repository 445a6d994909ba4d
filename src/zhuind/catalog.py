"""Built-in presentations, morphisms, kernel candidates and module families.

Six algebras are available under stable string ids:

    heis    polynomial line C[x]
    vir     polynomial line C[y]
    vb      Borel-type plane C[x] + C y  (y^2 = 0, x y = y, y x = -y)
    a_va1   five-dimensional quotient U(sl2)/<e^2>
    a_va2   nineteen-dimensional quotient U(sl3)/<x_ab^2>
    a_vp    parabolic-type algebra on x, y, x_a, x_ma, x_b, x_ab

Every fixed object -- the six presentations, the six morphisms and the
five irreducible modules -- is written in the source language in the
package file ``catalog.zi`` and built from it through ``iolang.parse``,
the same path that ``zhuind check`` and ``FILE#NAME`` take.  The order of
the relations in that file is part of the data: completion traces index
into it.  The kernel candidates are source-language texts in a Python
table; only the completion degrees and the parameterised module families
are Python code.

The sl2 and sl3 quotients are presented by the enveloping-algebra
commutator table plus the extra quotient relations; the quotient
relations alone do not cut the algebras out of the free algebra (a
scaling of x_ab, x_mab fixes them but breaks the cross products), so the
commutators are genuinely part of the presentation.  The modules
``va1_L_half`` and ``va2_L_lambda_alpha`` are the defining
representations, which are faithful on sl2 and sl3, so checking every
relation on them checks every commutator coefficient.

Monomial precedences put root generators above the Cartan generators
they contract to, which makes the Cartan-polynomial bases of the papers'
normal forms come out as the normal words.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from importlib import resources

from zhuind.algebra import AlgebraHandle, Element, Presentation
from zhuind.freealg import scalar
from zhuind.iolang import SourceFile, parse
from zhuind.morphism import AlgebraMorphism
from zhuind.repmod import FinModule

ALGEBRA_IDS = ("heis", "vir", "vb", "a_va1", "a_va2", "a_vp")
MORPHISM_IDS = ("heis_to_va1", "vb_to_va1", "vir_to_va1", "va1_to_va2", "vp_to_va2", "heis_to_va2")
MODULE_IDS = ("va1_trivial", "va1_L_half", "va2_L0", "va2_L_lambda_alpha", "va2_L_lambda_beta")
FAMILY_IDS = ("heis_mod", "vb_mod", "vir_mod", "vp_mod_U0", "vp_mod_Uhalf")

# keyed by module label: the module id without its "va1_"/"va2_" prefix
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


def catalog_source() -> str:
    """The whole catalog in the source-file language (the package file ``catalog.zi``)."""
    return resources.files("zhuind").joinpath("catalog.zi").read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def _source() -> SourceFile:
    return parse(catalog_source())


def _block(blocks: dict, entry_id: str):
    if entry_id not in blocks:
        raise UnknownId(entry_id)
    return blocks[entry_id]


# -- algebras and morphisms ----------------------------------------------


@lru_cache(maxsize=None)
def presentation(alg_id: str) -> Presentation:
    return _block(_source().algebras(), alg_id).presentation()


@lru_cache(maxsize=None)
def algebra(alg_id: str) -> AlgebraHandle:
    pres = presentation(alg_id)
    return AlgebraHandle.build(pres, max_degree=COMPLETION_DEGREE[alg_id])


@lru_cache(maxsize=None)
def morphism(mor_id: str) -> AlgebraMorphism:
    block = _block(_source().morphisms(), mor_id)
    src, tgt = algebra(block.source), algebra(block.target)
    return AlgebraMorphism(src, tgt, [tgt.element(block.images[g]) for g in src.gen_names], name=mor_id)


# kernel candidates in the source language, read over the morphism source by ``AlgebraHandle.element``
KERNEL_CANDIDATES = {
    "heis_to_va1": ("x x x - x",),
    "vb_to_va1": ("x x x - x",),
    "vir_to_va1": ("y y - 1/4 y",),
    "va1_to_va2": (),
    "vp_to_va2": ("x_a y y - x_a y", "x_ma y y + x_ma y", "y y y - y", "3 x x y + 3 x y y + y y y - y"),
    "heis_to_va2": ("x x x - x",),
}


@lru_cache(maxsize=None)
def kernel_candidates(mor_id: str) -> tuple[Element, ...]:
    source = algebra(_block(_source().morphisms(), mor_id).source)
    return tuple(source.element(text) for text in _block(KERNEL_CANDIDATES, mor_id))


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
    fixed = _source().modules().get(mod_id)
    if fixed is not None:
        label = mod_id.split("_", 1)[1]
        return FinModule.from_named_actions(algebra(fixed.algebra), fixed.dim, fixed.actions, label=label)
    if mod_id in FAMILY_IDS and len(params) != 1:
        raise ValueError(f"{mod_id} takes 1 parameter, got {len(params)}")
    params = tuple(scalar(p) for p in params)  # a float raises TypeError
    if mod_id == "heis_mod":
        (s,) = params
        return FinModule.from_named_actions(algebra("heis"), 1, {"x": [[s]]}, label=f"heis_mod({s})")
    if mod_id == "vb_mod":
        (s,) = params
        return FinModule.from_named_actions(algebra("vb"), 1, {"x": [[s]]}, label=f"vb_mod({s})")
    if mod_id == "vir_mod":
        (k,) = params
        return FinModule.from_named_actions(algebra("vir"), 1, {"y": [[k]]}, label=f"vir_mod({k})")
    if mod_id == "vp_mod_U0":
        (t,) = params
        return FinModule.from_named_actions(algebra("a_vp"), 1, {"y": [[t]]}, label=f"U0({t})")
    if mod_id == "vp_mod_Uhalf":
        (t,) = params
        named = {
            "x": [[1, 0], [0, -1]],
            "x_a": [[0, 1], [0, 0]],
            "x_ma": [[0, 0], [1, 0]],
            "y": [[t - Fraction(1, 2), 0], [0, t + Fraction(1, 2)]],
        }
        return FinModule.from_named_actions(algebra("a_vp"), 2, named, label=f"Uhalf({t})")
    raise UnknownId(mod_id)


def irreducibles(alg_id: str) -> list[FinModule]:
    """The fixed modules over ``alg_id``, in file order: its irreducibles."""
    mods = [module(name) for name, block in _source().modules().items() if block.algebra == alg_id]
    if not mods:
        raise UnknownId(alg_id)
    return mods
