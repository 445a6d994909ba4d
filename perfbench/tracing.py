"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions and methods of every
``zhuind`` module (the layers) and rebinds each wrapped function in every
module namespace that imported it, so calls between layers pass through
the wrappers.  Each call is a span; spans are aggregated in memory per
name (calls, inclusive time, self time, boundary counters) and written
out when the run ends.  Self time is a span's duration minus the time of
the wrapped calls nested inside it.

``NcPoly`` and ``MonomialOrder`` methods are not wrapped: they are
called hundreds of thousands of times per second of work, and a span
around each would multiply the run time.  Their cost counts as the self
time of the layer that called them.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import re
import sys
import time

LAYERS = (
    "freealg",
    "rewrite",
    "linalg",
    "algebra",
    "morphism",
    "repmod",
    "induct",
    "chars",
    "catalog",
    "iolang",
    "verify",
    "cli",
)

SKIP_CLASSES = {("freealg", "NcPoly"), ("freealg", "MonomialOrder")}

# span name -> metric prefix, where the README's metric names differ from
# the qualified name of the wrapped function
ALIASES = {
    "rewrite.RewriteSystem.reduce": "rewrite.reduce",
    "rewrite.RewriteSystem.reduce_word": "rewrite.reduce_word",
    "rewrite.RewriteSystem.reduce_traced": "rewrite.reduce_traced",
    "algebra.AlgebraHandle.__init__": "algebra.handle",
    "algebra.AlgebraHandle.mul_coords": "algebra.mul_coords",
    "morphism.AlgebraMorphism.apply_word": "morphism.apply_word",
    "linalg.RowSpace.add": "linalg.rowspace_add",
    "linalg.RowSpace.reduce": "linalg.rowspace_reduce",
    "repmod.FinModule.evaluate": "repmod.evaluate",
}


# boundary counters: span name -> fn(stat, args, result)
def _count_complete(stat, args, result):
    stat.add("relations_in", len(args[0]))
    stat.add("rules_out", len(result.rules))


def _count_reduce_word(stat, args, result):
    stat.seen.add(args[1])


def _count_normal_words(stat, args, result):
    stat.add("words_out", len(result))


def _count_rowspace_add(stat, args, result):
    vec = args[1]
    stat.add("grew", 1 if result else 0)
    stat.add("entries", len(vec))
    stat.add("nonzero", sum(1 for x in vec if x))


def _count_rref(stat, args, result):
    rows = args[0]
    stat.add("cells", len(rows) * (len(rows[0]) if rows else 0))


def _count_hom_space(stat, args, result):
    stat.add("unknowns", args[0].dim * args[1].dim)


def _count_induce(stat, args, result):
    stat.add("tensor_dim", len(args[0].target.basis) * result.reduced_dim)


COUNTERS = {
    "rewrite.complete": _count_complete,
    "rewrite.RewriteSystem.reduce_word": _count_reduce_word,
    "algebra.normal_words": _count_normal_words,
    "linalg.RowSpace.add": _count_rowspace_add,
    "linalg.rref": _count_rref,
    "repmod.hom_space": _count_hom_space,
    "induct.induce": _count_induce,
}


class Stat:
    __slots__ = ("calls", "total", "self_time", "counts", "seen")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts: dict[str, int] = {}
        self.seen: set = set()

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    """Wraps the zhuind layers; ``stats`` holds one ``Stat`` per span name."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []  # [start, time of nested spans]
        self._patches: list[tuple] = []  # (owner, attribute or index, old value)

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter
        per_id = name == "catalog.algebra"  # one more span per catalog id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                for k in (name, f"{name}.{args[0]}") if per_id and args else (name,):
                    stat = stats.get(k)
                    if stat is None:
                        stat = stats[k] = Stat()
                    stat.calls += 1
                    stat.total += dur
                    stat.self_time += dur - frame[1]
            if counter is not None:
                counter(stats[name], args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        """Wrap every layer; idempotent per tracer."""
        if self._patches:
            return self
        modules = {layer: importlib.import_module(f"zhuind.{layer}") for layer in LAYERS}
        namespaces = [sys.modules["zhuind"], *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj)
                    continue
                is_cached = isinstance(obj, functools._lru_cache_wrapper)
                if not (inspect.isfunction(obj) or is_cached) or obj.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(obj, f"{layer}.{attr}")
                for ns in namespaces:
                    for ns_attr, ns_obj in list(vars(ns).items()):
                        if ns_obj is obj:
                            self._patch(ns, ns_attr, wrapped)
                        elif isinstance(ns_obj, list):
                            self._patch_table(ns_obj, obj, wrapped)
        return self

    def _patch_table(self, table: list, old, new) -> None:
        """Rebind a function held in a module-level table of tuples (verify.CASES)."""
        for i, row in enumerate(table):
            if isinstance(row, tuple) and any(item is old for item in row):
                self._patches.append((table, i, row))
                table[i] = tuple(new if item is old else item for item in row)

    def _install_class(self, layer: str, cls: type) -> None:
        if (layer, cls.__name__) in SKIP_CLASSES or issubclass(cls, BaseException):
            return
        for attr, raw in list(cls.__dict__.items()):
            if attr == "__init__":
                if dataclasses.is_dataclass(cls):
                    continue
            elif attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name)
            else:
                continue
            self._patch(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, list):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """Aggregated spans as plain data, keyed by span name."""
        out = {}
        for name, st in self.stats.items():
            row = {"calls": st.calls, "total_s": st.total, "self_s": st.self_time, **st.counts}
            if st.seen:
                row["distinct"] = len(st.seen)
            out[name] = row
        return out

    def reset(self) -> None:
        self.stats.clear()


def merge(into: dict[str, dict], spans: dict[str, dict]) -> None:
    """Add one snapshot's figures into an accumulated snapshot."""
    for name, row in spans.items():
        acc = into.setdefault(name, {})
        for key, value in row.items():
            acc[key] = acc.get(key, 0) + value


def layer_metrics(spans: dict[str, dict], rounds: int) -> dict[str, float]:
    """Per-round figures named as in the README table.

    Every span gives ``<prefix>.calls``, ``.self_s`` and ``.total_s``,
    plus its boundary counters; ratios are computed from the sums, so
    they are not divided by ``rounds``.
    """
    out: dict[str, float] = {}
    per = 1.0 / max(rounds, 1)
    for name, row in sorted(spans.items()):
        prefix = ALIASES.get(name, name)
        case = re.fullmatch(r"verify\.case_(\d+)", name)
        if case:
            out[f"verify.case.c{case.group(1)}.s"] = row["total_s"] * per
        for key, value in row.items():
            if key in ("grew", "entries", "nonzero", "distinct"):
                continue
            out[f"{prefix}.{key}"] = value * per
        calls = row.get("calls", 0)
        if "distinct" in row and calls:
            out[f"{prefix}.distinct_share"] = row["distinct"] / calls
        if "grew" in row and calls:
            out[f"{prefix}.grew_share"] = row["grew"] / calls
            out["linalg.rowspace.ncols_mean"] = row["entries"] / calls
            out["linalg.rowspace.density"] = row["nonzero"] / max(row["entries"], 1)
    return out
