"""zhuind benchmark: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the repository root.  One workload runs per process, one
operation at a time, in whole rounds of the same seeded inputs until
``--seconds`` have passed.
``--workload all`` runs the four workloads one after another, each in its
own process.  The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Every run also writes ``perfbench/results/<workload>-seed<N>-trace<T>.json``
with the samples behind each figure.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RESULTS = BENCH / "results"
SRC = ROOT / "src"

WORKLOAD_NAMES = ("cli-cold", "completion", "reduce", "kernel-induction")
SETUP_SAMPLES = 5
# a traced run needs an untraced and a traced round
MIN_ROUNDS = 2
# The host's speed changes within a second and drifts over minutes, so
# every time is divided by the speed of a fixed reference computation
# (reference.py) timed right around it: a burst of REF_BURST reference
# runs at the start of each round, then after the first operation that
# ends REF_GAP seconds or more after the last burst, and at the end of
# the round.  An operation's level is the mean of the bursts just before
# and just after it.  Times are reported at the nominal speed at which
# one reference run takes REF_NOMINAL_S, about this host's fast state.
REF_GAP = 0.1
REF_BURST = 3
REF_NOMINAL_S = 0.002
# A fresh interpreter (a cold command, bootstrap.py, or a set-up sample,
# setup_probe.py) gauges itself: a burst of GAUGE_BURST reference runs
# before and after the work and one run every GAUGE_GAP seconds during it
# (reference.Gauge), whose time is taken out of the work's.
GAUGE_BURST = 10
GAUGE_GAP = 0.05


def make_workload(name: str):
    import workloads

    if name == "cli-cold":
        return workloads.CliCold(ROOT, RESULTS, child_env(), (GAUGE_BURST, GAUGE_GAP))
    return {"completion": workloads.Completion, "reduce": workloads.Reduce, "kernel-induction": workloads.KernelInduction}[name]()


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def sample_setup(in_process: bool) -> list[float]:
    """Set-up time in fresh interpreters, in seconds at the nominal speed.

    In-process workloads: import zhuind and build the catalog, timed inside
    the child.  cli-cold: interpreter start plus ``import zhuind.cli``,
    timed from outside.  Either is taken less the child's reference runs
    and scaled by their level.
    """
    argv = [sys.executable, str(BENCH / "setup_probe.py"), "catalog" if in_process else "cli", str(GAUGE_BURST), str(GAUGE_GAP)]
    out = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170, check=True)
        wall = time.perf_counter() - start
        inside, ref_s, level = map(float, proc.stdout.split()[-3:])
        out.append((inside if in_process else wall - ref_s) * REF_NOMINAL_S / level)
    return out


def class_latency(samples: dict[str, list[list[float]]], levels: dict[str, list[list[float]]]) -> dict[str, float]:
    """Per class, in seconds at the nominal speed: the median over its
    operations of each one's median over rounds of latency / level.

    The median over operations, not the mean, because on seeded inputs a
    class's costs can have a long tail (random-strategy reduction of a long
    word), and the figures must not depend on which seed drew the tail.
    """
    return {
        cls: REF_NOMINAL_S * statistics.median(statistics.median(t / r for t, r in zip(op, lv)) for op, lv in zip(ops, levels[cls]))
        for cls, ops in samples.items()
    }


def round_time(latency: dict[str, float], per_round: dict[str, int]) -> float:
    return sum(n * latency[cls] for cls, n in per_round.items())


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(x) for x in values) / len(values))


def add_sample(bucket: dict[str, list[list[float]]], cls: str, j: int, value: float) -> None:
    per_op = bucket.setdefault(cls, [])
    if j == len(per_op):
        per_op.append([])
    per_op[j].append(value)


def measure(workload, inputs_seed: str, seconds: float, trace: bool) -> dict:
    """Whole rounds until ``seconds`` pass; with ``trace``, every other round is traced.

    Every round runs the same operations on the same inputs, drawn from
    ``inputs_seed``, so each operation is timed on identical work once per
    round.  ``samples[cls][j]`` holds the latencies of the j-th operation
    of class ``cls``, one per round, and ``levels[cls][j]`` the reference
    level around each.
    """
    from reference import burst_level
    from tracing import Tracer, merge

    tracer = Tracer() if trace and workload.in_process else None
    samples: dict[str, list[list[float]]] = {}
    levels: dict[str, list[list[float]]] = {}
    traced_samples: dict[str, list[list[float]]] = {}
    traced_levels: dict[str, list[list[float]]] = {}
    per_round: dict[str, int] = {}
    spans: dict[str, dict] = {}
    import_s: list[float] = []
    ref_levels: list[float] = []
    attempted = failed = rounds = traced_rounds = 0
    problems: list[str] = []
    failed_by_class: dict[str, int] = {}
    verified: dict[int, object] = {}  # op position -> an output that passed its check
    clock = time.perf_counter
    start = clock()
    while True:
        traced = trace and rounds % 2 == 1
        ops = workload.round(random.Random(inputs_seed), traced)
        if not per_round:
            for op in ops:
                per_round[op.cls] = per_round.get(op.cls, 0) + 1
        workload.begin_round()
        gc.collect()
        if tracer is not None and traced:
            tracer.install()
        outputs = []
        bucket, level_bucket = (traced_samples, traced_levels) if traced else (samples, levels)
        seen: dict[str, int] = {}
        pending: list[tuple[str, int]] = []  # operations still waiting for the burst after them
        if workload.in_process:
            level = burst_level(REF_BURST)
            ref_levels.append(level)
            last_burst = clock()
        for i, op in enumerate(ops):
            t0 = clock()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, exc
            dt = clock() - t0
            outputs.append((out, err))
            j = seen[op.cls] = seen.get(op.cls, -1) + 1
            if not workload.in_process:
                # a cold command brackets itself with bursts in its own interpreter
                ref_s, own = workload.command_level()
                add_sample(bucket, op.cls, j, dt - ref_s)
                add_sample(level_bucket, op.cls, j, own)
                ref_levels.append(own)
                continue
            add_sample(bucket, op.cls, j, dt)
            pending.append((op.cls, j))
            if i == len(ops) - 1 or clock() - last_burst >= REF_GAP:
                after = burst_level(REF_BURST)
                ref_levels.append(after)
                for cls, k in pending:
                    add_sample(level_bucket, cls, k, (level + after) / 2)
                pending, level, last_burst = [], after, clock()
        if traced:
            if tracer is not None:
                tracer.uninstall()
                merge(spans, tracer.snapshot())
                tracer.reset()
            else:
                round_spans, imports = workload.take_spans()
                merge(spans, round_spans)
                import_s += imports
            traced_rounds += 1
        for i, (op, (out, err)) in enumerate(zip(ops, outputs)):
            attempted += 1
            if err is not None:
                issues = [f"{type(err).__name__}: {err}"]
            elif i in verified and out == verified[i]:
                issues = []  # same input as a checked round, and an equal output
            else:
                try:
                    issues = op.check(out)
                except Exception as exc:  # a checker that cannot read the output rejects it
                    issues = [f"check raised {type(exc).__name__}: {exc}"]
                if not issues:
                    verified[i] = out
            if issues:
                failed += 1
                failed_by_class[op.cls] = failed_by_class.get(op.cls, 0) + 1
                if not op.fault:
                    problems.append(f"{op.cls}: {issues[0]}")
        rounds += 1
        if clock() - start >= seconds and rounds >= MIN_ROUNDS:
            break
    return {
        "rounds": rounds,
        "traced_rounds": traced_rounds,
        "attempted": attempted,
        "failed": failed,
        "failed_by_class": failed_by_class,
        "problems": problems,
        "samples": samples,
        "levels": levels,
        "traced_samples": traced_samples,
        "traced_levels": traced_levels,
        "ref_levels": ref_levels,
        "per_round": per_round,
        "spans": spans,
        "import_s": import_s,
    }


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_one(args, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    workload = make_workload(args.workload)
    setup = sample_setup(workload.in_process)
    setup_problems = workload.setup(random.Random(f"{args.workload}:{args.seed}:setup"))
    m = measure(workload, f"{args.workload}:{args.seed}", args.seconds, bool(args.trace))
    latency = class_latency(m["samples"], m["levels"])
    correct = not setup_problems and not m["problems"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "failed_by_class": m["failed_by_class"],
        "rounds": m["rounds"],
        "problems": (setup_problems + m["problems"])[:20],
        "setup_samples_s": setup,
        "ops_per_round": m["per_round"],
        "samples_s": m["samples"],
        "ref_levels_s": m["ref_levels"],
        "levels_s": m["levels"],
        "ref_nominal_s": REF_NOMINAL_S,
        "class_latency_s": latency,
    }
    lines = [f"workload {args.workload}: seed {args.seed}, {m['rounds']} rounds, attempted {m['attempted']}, failed {m['failed']}, correct {correct}"]
    lines += [f"  problem: {p}" for p in record["problems"]]
    if args.trace:
        layer = layer_figures(m)
        record.update(traced_rounds=m["traced_rounds"], traced_samples_s=m["traced_samples"], traced_levels_s=m["traced_levels"], per_layer=layer)
        metrics = {d["name"]: {"value": layer.get(d["name"], 0.0), "unit": d["unit"]} for d in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "round_s": round_time(latency, m["per_round"]),
            "op_ms": 1000.0 * geomean(latency.values()),
            "peak_rss_mb": peak_rss_mb(workload.in_process),
        }
        metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in spec["end_to_end"]}
        wall = {cls: statistics.median(min(op) for op in ops) for cls, ops in m["samples"].items()}
        named = {
            "ref_ms": (1000.0 * statistics.median(m["ref_levels"]), "ms"),
            "wall_op_ms": (1000.0 * geomean(wall.values()), "ms"),
            **workload.named_metrics(latency, m["per_round"]),
        }
        record["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        lines += [f"  {k} = {v:.6g} {u}" for k, (v, u) in named.items()]
    record["metrics"] = metrics
    lines += [f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": m["attempted"], "failed": m["failed"], "metrics": metrics}))
    return 0 if correct else 1


def layer_figures(m: dict) -> dict[str, float]:
    """Per traced round, plus the tracing overhead against untraced rounds."""
    from tracing import layer_metrics

    out = layer_metrics(m["spans"], m["traced_rounds"])
    plain = round_time(class_latency(m["samples"], m["levels"]), m["per_round"])
    traced = round_time(class_latency(m["traced_samples"], m["traced_levels"]), m["per_round"])
    out["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    out["trace.rounds"] = m["traced_rounds"]
    if m["import_s"]:
        out["cli.import_s"] = statistics.median(m["import_s"])
    return out


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name."""
    summary, code = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if lines else proc.stderr.strip())
        code = code or proc.returncode
        if proc.returncode in (0, 1) and lines:
            summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "zhuind" / "__init__.py").is_file():
        print(f"error: no zhuind sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    compileall.compile_dir(str(SRC / "zhuind"), quiet=1)
    RESULTS.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
