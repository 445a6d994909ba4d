"""Finite-type characters over finite-dimensional presented algebras.

The character of a module is the trace of its action on each normal-word
basis element of the owner.  ``char_vector``, ``independence_check`` and
``product_traces`` live in ``repmod``, whose ``decompose`` reads
multiplicities off characters over a certified semisimple owner (see
``repmod.wedderburn_certificate``).  This module checks that characters
are symmetric functions (``symmetry_violations``, which reads the
owner's structure cube through ``product_traces``) and, over a
polynomial source, solves for the rational coefficients of irreducible
characters through induced ones.
"""

from __future__ import annotations

from fractions import Fraction

from zhuind.algebra import AlgebraHandle, Element, Presentation
from zhuind.freealg import MonomialOrder
from zhuind.induct import induce
from zhuind.linalg import Sparse, invert
from zhuind.morphism import AlgebraMorphism
from zhuind.repmod import FinModule, product_traces


def _trace_of_product(a: list[Sparse], b: list[Sparse]) -> Fraction:
    """trace(A B) = sum of A[r][k] * B[k][r], for matrices given as sparse columns."""
    return sum((x * b[r].get(k, 0) for k, col in enumerate(a) for r, x in col.items()), Fraction(0))


def symmetry_violations(module: FinModule) -> list[tuple[int, int]]:
    """Basis pairs (i, j) with chi(b_i b_j) != trace(M_i M_j); empty = pass.

    chi(b_i b_j) is read from the structure row of the product, so an
    action that breaks a relation fails; a pass gives chi(b_i b_j) = chi(b_j b_i).
    """
    traces = product_traces(module)
    mats = [module.action_of_word(w) for w in module.owner.basis]
    return [
        (i, j)
        for i, row in enumerate(traces)
        for j, chi_ij in enumerate(row)
        if chi_ij != _trace_of_product(mats[i], mats[j])
    ]


class ArtinError(Exception):
    pass


def artin_solve(
    target: AlgebraHandle,
    omega_image: Element,
    weights: list[Fraction],
    irreducibles: list[FinModule],
) -> list[list[Fraction]]:
    """Express irreducible characters through characters induced from
    one-variable modules along y -> omega_image.

    ``weights[i]`` must be the scalar by which ``omega_image`` acts on
    ``irreducibles[i]`` and the weights must be pairwise distinct.  The
    returned row ``i`` gives rational coefficients c_ij with
    chi_i = sum_j c_ij * chi(Ind_j).
    """
    if len(weights) != len(irreducibles):
        raise ArtinError(f"{len(weights)} weights for {len(irreducibles)} irreducibles")
    if len(set(weights)) != len(weights):
        raise ArtinError("weights must be pairwise distinct")
    if omega_image.algebra is not target:
        raise ArtinError("omega image must live in the target algebra")
    for w, irr in zip(weights, irreducibles):
        if irr.evaluate(omega_image.poly) != [{j: w} if w else {} for j in range(irr.dim)]:
            raise ArtinError(f"omega image does not act as {w} on {irr.label}")

    # one-variable source algebra C[y]
    poly_line = AlgebraHandle.build(Presentation("poly_line", ("y",), MonomialOrder((0,)), ()))
    morphism = AlgebraMorphism(poly_line, target, [omega_image], name=f"line->{target.name}")

    found: list[dict[str, int]] = []  # the decomposition of each induced module
    for w in weights:
        point = FinModule.from_named_actions(poly_line, 1, {"y": [[w]]}, label=f"line@{w}")
        # no kernel radical: a kernel element q with q(w) != 0 makes omega_image - w invertible, so Ind is 0 either way
        result = induce(morphism, [], point, irreducibles)
        assert result.decomposition is not None
        if result.decomposition.residual:
            raise ArtinError("induced module does not decompose over the given irreducibles")
        found.append(result.decomposition.as_dict())

    # the multiplicity matrix N, N[i][j] = [Ind_j : irreducibles[i]], as sparse rows
    n_inv = invert([{j: f[irr.label] for j, f in enumerate(found) if irr.label in f} for irr in irreducibles])
    if n_inv is None:
        raise ArtinError("induced characters are linearly dependent")
    # chi(Ind_j) = sum_i N[i][j] chi_i, so the coefficient matrix is (N^T)^-1 = (N^-1)^T
    return [[n_inv[j].get(i, Fraction(0)) for j in range(len(weights))] for i in range(len(irreducibles))]
