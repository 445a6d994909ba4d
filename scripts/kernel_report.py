#!/usr/bin/env python3
"""Print the kernel certificate of every certified catalog morphism.

For each morphism with an infinite-dimensional source, at its probe
degree: the status, the ideal products reduced to build the certificate,
and the last row of its table (source slice, ideal rows, image rank).
Useful when changing kernel candidates or the certificate's closure.
"""

from zhuind import catalog
from zhuind.morphism import certify_kernel


def main() -> None:
    for mor_id in catalog.MORPHISM_IDS:
        m = catalog.morphism(mor_id)
        if m.source.basis is not None:
            continue
        cert = certify_kernel(m, list(catalog.kernel_candidates(mor_id)), catalog.KERNEL_PROBE_DEGREE[mor_id])
        slice_dim, ideal_rows, image_rank = cert.table[-1]
        print(
            f"{mor_id}: degree {cert.degree}, {cert.status}, {cert.products} products reduced, "
            f"{ideal_rows} ideal rows of {slice_dim}, image rank {image_rank}"
        )


if __name__ == "__main__":
    main()
