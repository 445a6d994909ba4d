"""Exact-arithmetic workbench for finitely presented associative algebras.

Everything is computed over the rationals: noncommutative polynomials,
oriented rewriting systems with diamond-lemma completion certificates,
presented algebras with normal-form bases, algebra morphisms with kernel
certificates, finite-dimensional modules, the induction and restriction
functors attached to a morphism, and finite-type characters.
"""

from zhuind.freealg import MonomialOrder, NcPoly
from zhuind.rewrite import (
    Ambiguity,
    CompletionError,
    RewriteRule,
    RewriteSystem,
    complete,
    confluence_fuzz,
)
from zhuind.algebra import AlgebraHandle, Element, Presentation, dimension, normal_words
from zhuind.morphism import AlgebraMorphism, KernelCertificate, certify_kernel
from zhuind.repmod import CharacterVector, DecompositionRecord, FinModule, char_vector, decompose, hom_space
from zhuind.induct import InductionResult, induce, restrict

__all__ = [
    "MonomialOrder",
    "NcPoly",
    "Ambiguity",
    "CompletionError",
    "RewriteRule",
    "RewriteSystem",
    "complete",
    "confluence_fuzz",
    "AlgebraHandle",
    "Element",
    "Presentation",
    "dimension",
    "normal_words",
    "AlgebraMorphism",
    "KernelCertificate",
    "certify_kernel",
    "DecompositionRecord",
    "FinModule",
    "decompose",
    "hom_space",
    "InductionResult",
    "induce",
    "restrict",
    "CharacterVector",
    "char_vector",
]
