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
morphism into it).  Each ``induce`` call builds only what depends on the
module: the relation rows, their ``RowSpace`` and the quotient columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from zhuind.freealg import NcPoly
from zhuind.linalg import Mat, RowSpace, Sparse, zeros
from zhuind.morphism import AlgebraMorphism, compose
from zhuind.repmod import (
    DecompositionRecord,
    FinModule,
    decompose,
    hom_space,
    quotient_module,
    submodule_closure,
)


@dataclass
class InductionResult:
    module: FinModule
    unit_map: Mat  # columns: images of the reduced-module basis vectors
    reduced_dim: int  # dim of M / kernel-radical
    relation_rank: int
    decomposition: DecompositionRecord | None = None
    voa_label: str | None = None

    @property
    def dim(self) -> int:
        return self.module.dim


def restrict(m: AlgebraMorphism, module: FinModule, label: str = "") -> FinModule:
    """Pull a target module back to the source through generator images."""
    if module.owner is not m.target:
        raise ValueError("restrict expects a module over the morphism target")
    actions = {g: module.evaluate(el.poly) for g, el in enumerate(m.images)}
    return FinModule(m.source, module.dim, actions, label or f"Res({module.label})")


def _columns(mat: Mat, ncols: int) -> list[Sparse]:
    """The columns of ``mat``, nonzero entries only."""
    return [{i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(ncols)]


def kernel_action_radical(m: AlgebraMorphism, kernel_gens: list, module: FinModule) -> RowSpace:
    """Action-stable span of (kernel generator) . module."""
    if module.owner is not m.source:
        raise ValueError("module must live over the morphism source")
    seeds = [col for k in kernel_gens for col in _columns(module.evaluate(k.poly), module.dim)]
    return submodule_closure(module, seeds)


def induce(
    m: AlgebraMorphism,
    kernel_gens: list,
    module: FinModule,
    irreducibles: list[FinModule] | None = None,
    voa_labels: dict[str, str] | None = None,
    label: str = "",
) -> InductionResult:
    """The induced module over the morphism target (must be finite)."""
    target = m.target
    if target.basis is None:
        raise ValueError("induction needs a finite-dimensional target")
    radical = kernel_action_radical(m, kernel_gens, module)
    reduced = quotient_module(module, radical, label=f"{module.label}bar") if radical.dim else module

    nt = len(target.basis)
    nm = reduced.dim
    total = nt * nm
    label = label or f"Ind({module.label})"

    if nm == 0:
        zero = FinModule(target, 0, {}, label)
        rec = DecompositionRecord((), 0) if irreducibles is not None else None
        return InductionResult(zero, [], 0, 0, rec, _voa_label(rec, voa_labels))

    # relation subspace: (a * m(g)) (x) v - a (x) (g.v), over the flat index k * nm + j of a_k (x) v_j
    relations = RowSpace(total)
    image_products = m.image_products
    for i in range(nt):
        for g, products in enumerate(image_products):
            left_nz = products[i]  # a_i * m(g) over the target basis
            gmat = reduced.actions[g]
            for j in range(nm):
                vec = {k * nm + j: x for k, x in left_nz.items()}
                for l in range(nm):
                    if gmat[l][j]:
                        vec[i * nm + l] = vec.get(i * nm + l, 0) - gmat[l][j]
                if any(vec.values()):
                    relations.add(vec)

    comp = relations.complement_columns()
    qdim = len(comp)
    # a reduced vector is zero at every pivot, so its entries sit in complement columns
    pos = {flat: row for row, flat in enumerate(comp)}

    def quotient_column(coords: Sparse, j: int, out: Mat, col: int) -> None:
        """Write the quotient coordinates of (target element) (x) v_j into column ``col``."""
        vec = {k * nm + j: x for k, x in coords.items()}
        for flat, x in relations.reduce(vec).items():
            out[pos[flat]][col] = x

    # left action of each target generator on the quotient coordinates
    actions: dict[int, Mat] = {}
    for g, products in enumerate(target.gen_products):
        mat = zeros(qdim, qdim)
        for col, flat in enumerate(comp):
            i, j = divmod(flat, nm)
            quotient_column(products[i], j, mat, col)  # g * a_i
        actions[g] = mat
    induced = FinModule(target, qdim, actions, label)

    unit = zeros(qdim, nm)
    one_coords = target.coords(target.system.reduce(NcPoly.one()))
    for j in range(nm):
        quotient_column(one_coords, j, unit, j)

    rec = decompose(induced, irreducibles) if irreducibles is not None else None
    return InductionResult(induced, unit, nm, relations.dim, rec, _voa_label(rec, voa_labels))


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
    if module.dim == 0:
        return True
    return submodule_closure(module, _columns(result.unit_map, result.reduced_dim)).dim == module.dim


def frobenius_check(
    m: AlgebraMorphism, kernel_gens: list, source_module: FinModule, target_module: FinModule
) -> tuple[int, int]:
    """(dim Hom(Ind M, K), dim Hom(M, Res K)); equal on success."""
    ind = induce(m, kernel_gens, source_module)
    left = hom_space(ind.module, target_module).dim
    right = hom_space(source_module, restrict(m, target_module)).dim
    return left, right


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
