"""Finite induction and restriction of modules along an algebra morphism.

Restriction pulls a target module back through the generator images.
Induction builds the relative tensor product of the target algebra with
the source module after killing the kernel action:

    induce(m, M) = target (x)_{image of source} ( M / kernel-radical )

realized concretely as a quotient of (target basis) x (module basis) by
the bimodule relation vectors (a * m(g)) (x) v - a (x) (g v).  Spanning
the relations over source generators only is enough because the span is
linear in the left slot and generators multiply out to all words.

What depends only on the morphism is built once and kept: the products
``a_i * m(g)`` on the morphism (``AlgebraMorphism.image_products``) and
``g * a_i`` on the target (``AlgebraHandle.gen_products``, shared by every
morphism into it), each product reduced by the target's rewriting system,
so no induction builds the target's structure cube.  Each ``induce``
call builds only what depends on the module: the relation rows, their
``RowSpace`` and the quotient columns.
A relation row is built without its coordinates at the unit pivots of
the relations so far (``RowSpace.unit_pivots``), and a row left empty
is not added.  The relation rows stop once they span the whole tensor
product, where the induced module is 0; a module that is 0 after the
kernel radical takes the same path, with no relation rows at all.
A quotient column, of ``(g * a_i) (x) v_j`` for the induced action or
of ``1 (x) v_j`` for the unit map, is the sum of the target coordinates
``x_k`` times the quotient image of ``a_k (x) v_j``, read from the
relations' ``quotient_images`` table: no vector is shifted into the
tensor product and none is eliminated.
``frobenius_dims`` checks Frobenius reciprocity on a grid of source and
target modules, with one induction per source module and one
restriction per target module.
"""

from __future__ import annotations

from typing import NamedTuple

from zhuind.freealg import EPSILON, _add_scaled
from zhuind.linalg import RowSpace, Sparse
from zhuind.morphism import AlgebraMorphism, compose
from zhuind.repmod import (
    DecompositionRecord,
    FinModule,
    add_tensor_equations,
    decompose,
    hom_space,
    quotient_module,
    submodule_closure,
)


class InductionResult(NamedTuple):
    module: FinModule
    unit_map: list[Sparse]  # one sparse column per reduced-module basis vector: its image 1 (x) v_j
    reduced_dim: int  # dim of M / kernel-radical
    decomposition: DecompositionRecord | None = None
    voa_label: str | None = None

    @property
    def dim(self) -> int:
        return self.module.dim


def restrict(m: AlgebraMorphism, module: FinModule) -> FinModule:
    """Pull a target module back to the source through generator images."""
    if module.owner is not m.target:
        raise ValueError("restrict expects a module over the morphism target")
    columns = [module.evaluate(el.poly) for el in m.images]
    return FinModule(m.source, module.dim, columns, f"Res({module.label})")


def kernel_action_radical(m: AlgebraMorphism, kernel_gens: list, module: FinModule) -> RowSpace:
    """Action-stable span of (kernel generator) . module."""
    if module.owner is not m.source:
        raise ValueError("module must live over the morphism source")
    seeds = [col for k in kernel_gens for col in module.evaluate(k.poly)]
    return submodule_closure(module, seeds)


def induce(
    m: AlgebraMorphism,
    kernel_gens: list,
    module: FinModule,
    irreducibles: list[FinModule] | None = None,
    voa_labels: dict[str, str] | None = None,
) -> InductionResult:
    """The induced module over the morphism target (must be finite)."""
    target = m.target
    if target.basis is None:
        raise ValueError("induction needs a finite-dimensional target")
    radical = kernel_action_radical(m, kernel_gens, module)
    reduced = quotient_module(module, radical, label=f"{module.label}bar") if radical.dim else module

    nm = reduced.dim
    # (a_i * m(g)) (x) v_j - a_i (x) (g v_j) over the flat index k * nm + l of a_k (x) v_l
    relations = RowSpace(len(target.basis) * nm)
    for products, g_cols in zip(m.image_products, reduced.columns):
        if add_tensor_equations(relations, products, g_cols):
            break
    comp = relations.complement_columns()
    images = relations.quotient_images()

    def quotient_column(coords: Sparse, j: int) -> Sparse:
        """The quotient coordinates of (target element) (x) v_j: the sum of its entries' images of a_k (x) v_j."""
        acc: Sparse = {}
        for k, x in coords.items():
            _add_scaled(acc, x, images[k * nm + j])
        return acc

    # left action of each target generator on the quotient coordinates: column of a_i (x) v_j from g * a_i
    columns = [[quotient_column(products[flat // nm], flat % nm) for flat in comp] for products in target.gen_products]
    induced = FinModule(target, len(comp), columns, f"Ind({module.label})")
    one_coords = target.coords(target.system.reduce_word(EPSILON))
    unit = [quotient_column(one_coords, j) for j in range(nm)]

    rec = decompose(induced, irreducibles) if irreducibles is not None else None
    return InductionResult(induced, unit, nm, rec, _voa_label(rec, voa_labels))


def _voa_label(rec: DecompositionRecord | None, voa_labels: dict[str, str] | None) -> str | None:
    if rec is None or voa_labels is None:
        return None
    if not rec.entries:
        return "0"
    if rec.residual:
        return None
    parts: list[str] = []
    for lbl, mult in rec.entries:
        parts.extend([voa_labels.get(lbl, lbl)] * mult)
    return " ⊕ ".join(parts)


def generated_by_unit_image(result: InductionResult) -> bool:
    """True when the unit-map image generates the induced module."""
    module = result.module
    return module.dim == 0 or submodule_closure(module, result.unit_map).dim == module.dim


def frobenius_dims(
    m: AlgebraMorphism, kernel_gens: list, source_modules: list[FinModule], targets: list[FinModule]
) -> list[list[tuple[int, int]]]:
    """Per source module M, per target module K: (dim Hom(Ind M, K), dim Hom(M, Res K)); equal on success.

    Each M is induced once and each K restricted once.
    """
    restricted = [restrict(m, k) for k in targets]
    out = []
    for module in source_modules:
        ind = induce(m, kernel_gens, module).module
        out.append([(len(hom_space(ind, k)), len(hom_space(module, res))) for k, res in zip(targets, restricted)])
    return out


def frobenius_check(
    m: AlgebraMorphism, kernel_gens: list, source_module: FinModule, target_module: FinModule
) -> tuple[int, int]:
    """(dim Hom(Ind M, K), dim Hom(M, Res K)); equal on success."""
    return frobenius_dims(m, kernel_gens, [source_module], [target_module])[0][0]


def composition_check(
    m1: AlgebraMorphism,
    m2: AlgebraMorphism,
    kernel_gens_1: list,
    kernel_gens_2: list,
    kernel_gens_composite: list,
    module: FinModule,
    irreducibles: list[FinModule],
) -> tuple[DecompositionRecord, DecompositionRecord]:
    """Two-step induction versus the composite morphism, as multiplicity records."""
    if irreducibles is None:
        raise ValueError("composition check needs irreducibles to decompose both inductions")
    step1 = induce(m1, kernel_gens_1, module)
    two_step = induce(m2, kernel_gens_2, step1.module, irreducibles)
    one_step = induce(compose(m1, m2), kernel_gens_composite, module, irreducibles)
    return two_step.decomposition, one_step.decomposition
