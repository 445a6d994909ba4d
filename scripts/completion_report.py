#!/usr/bin/env python3
"""Print the completed rewriting system of every catalog algebra.

For each algebra: the confluence certificate, what completion did (pairs
resolved, rules added and retired), the interreduced rules in monomial
order, and the normal-word profile per length.  Useful when changing
presentations or monomial precedences.
"""

from zhuind import catalog
from zhuind.freealg import NcPoly
from zhuind.rewrite import INFINITE


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
        print(f"   dimension: {dim.value if dim.is_finite() else 'unbounded'}  profile {list(dim.profile)}")
        for rule in system.rules:
            lhs = NcPoly.monomial(rule.lhs).format(handle.gen_names, system.order)
            rhs = rule.rhs.format(handle.gen_names, system.order)
            print(f"   {lhs}  ->  {rhs}")
        print()


if __name__ == "__main__":
    main()
