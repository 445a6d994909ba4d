"""Set-up of the in-process workloads: import zhuind and build the catalog.

Run as a script it times that, or ``import zhuind.cli``, in a fresh
interpreter, with the reference levels around it, which is how
``run.py`` samples ``setup_s``.  ``build_catalog`` is also
what the workload process itself runs before measuring.
"""

import sys
import time
from pathlib import Path


def build_catalog(catalog) -> None:
    """Every catalog algebra, morphism, kernel candidate set and fixed module."""
    for alg_id in catalog.ALGEBRA_IDS:
        catalog.algebra(alg_id)
    for mor_id in catalog.MORPHISM_IDS:
        catalog.morphism(mor_id)
        catalog.kernel_candidates(mor_id)
    for mod_id in catalog.MODULE_IDS:
        catalog.module(mod_id)


if __name__ == "__main__":
    # ``python3 perfbench/setup_probe.py catalog|cli BURST GAP`` times
    # ``import zhuind`` plus building the catalog, or ``import zhuind.cli``,
    # inside a ``reference.Gauge(BURST, GAP)``, and prints the seconds
    # that took less the reference runs, the seconds the reference runs
    # took and the reference level
    from reference import Gauge

    what, burst, gap = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    with Gauge(burst, gap) as gauge:
        if what == "cli":
            import zhuind.cli  # noqa: F401
        else:
            from zhuind import catalog

            build_catalog(catalog)
    print(repr(time.perf_counter() - start - gauge.spent), repr(gauge.spent), repr(gauge.level))
