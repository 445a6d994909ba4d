#!/usr/bin/env python3
"""Print the completed rewriting system of every catalog algebra.

For each algebra: the confluence certificate, what completion did (pairs
resolved, rules added and retired), the interreduced rules in monomial
order, and the normal-word profile per length.  Useful when changing
presentations or monomial precedences.
"""

from zhuind import catalog
from zhuind.freealg import NcPoly
from zhuind.iolang import format_poly
from zhuind.rewrite import INFINITE


def _dimension(dim) -> str:
    if dim.kind == "unknown":
        return f"unknown beyond degree {dim.value}"
    return str(dim.value) if dim.is_finite() else "unbounded"


def main() -> None:
    for alg_id in catalog.ALGEBRA_IDS:
        handle = catalog.algebra(alg_id)
        system = handle.system
        cert = "infinite" if system.confluent_to_degree == INFINITE else system.confluent_to_degree
        dim = handle.dim_result
        print(f"== {alg_id}: {len(system.rules)} rules, confluent to {cert}")
        print(
            f"   completion: {system.pairs_resolved} pairs resolved, "
            f"{system.rules_added} rules added, {system.rules_retired} retired"
        )
        print(f"   dimension: {_dimension(dim)}  profile {list(dim.profile)}")
        for rule in system.rules:
            lhs = format_poly(NcPoly.monomial(rule.lhs), handle.gen_names, system.order)
            rhs = format_poly(rule.rhs, handle.gen_names, system.order)
            print(f"   {lhs}  ->  {rhs}")
        print()


if __name__ == "__main__":
    main()
