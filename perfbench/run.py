"""Pipeline benchmark for fuchs2.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 12 --trace 0

Runs whole rounds of one workload (see workloads.py) in this process, with
workers=1, until ``--seconds`` have passed; at least one round.  Every
round starts from a fresh import of ``src/fuchs2`` and freshly built
groups.  Outputs are checked by the benchmark's own arithmetic (check.py).

``--trace 0`` reports the end-to-end metrics, taken as medians over the
rounds.  ``--trace 1`` alternates an untraced round with a traced one and
reports the per-layer metrics of the traced rounds (spans.py), plus the
tracing overhead measured against the untraced round of each pair.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A report with the
environment, the inputs, the per-part figures and the span table goes to
standard error.  ``--workload all`` runs each workload in its own process
and prints them all.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext

import check
import env
import spans
from workloads import WORKLOADS, build_all

SETUP_REPS = 5
FAILED = object()


class Round:
    """One pass over a workload's operations: part times, operation counts
    and the problems the checks found."""

    FAILED = FAILED

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.parts = defaultdict(float)
        self.op_wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.checked = 0

    def op(self, part, fn):
        """Time one operation; its time goes to ``part`` (or to no part when
        None).  An exception counts the operation as failed."""
        self.attempted += 1
        gc.collect()
        label = part or "open_case"
        span = self.tracer.span("op." + label) if self.tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                result = fn()
        except Exception as exc:  # the round goes on; the failure is counted
            self.op_wall += time.perf_counter() - t0
            self.failed += 1
            print(f"# {label} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return FAILED
        dt = time.perf_counter() - t0
        self.op_wall += dt
        if part is not None:
            self.parts[part] += dt
        return result

    def skip(self, label):
        """An operation that could not run because its input failed."""
        self.attempted += 1
        self.failed += 1
        print(f"# {label} skipped", file=sys.stderr)

    def expect(self, ok, problem):
        self.checked += 1
        if not ok:
            self.problems.append(problem)

    def unrecorded(self):
        return self.tracer.paused() if self.tracer else nullcontext()


def set_up(workload, specs, samples, tracer=None):
    """Import the program afresh and build the workload's groups; untraced
    set-ups add their duration to ``samples``."""
    gc.collect()
    t0 = time.perf_counter()
    fx = env.fresh_import()
    if tracer is not None:
        tracer.install(fx)
    with tracer.span("setup") if tracer else nullcontext():
        groups = build_all(fx, specs)
    if tracer is None:
        samples.append(time.perf_counter() - t0)
    return fx, groups


def run_round(workload, specs, samples, tracer=None):
    for _ in range(1 if tracer else SETUP_REPS):
        fx, groups = set_up(workload, specs, samples, tracer)
    rnd = Round(tracer)
    workload.run(rnd, fx, groups, specs)
    return fx, rnd


def part_times(workload, rnd):
    """Seconds per part of one round, and their sum as ``total_s``."""
    values = {f"{p}_s": rnd.parts[p] for p in workload.parts}
    values["total_s"] = sum(values.values())
    return values


def layer_metrics(tracer, traced, untraced):
    by_name, by_edge, counts = tracer.summary()
    values = {name: fn(by_name, counts)
              for name, _, _, fn in spans.LAYER_METRICS}
    tops = [(name, agg) for (parent, name), agg in by_edge.items()
            if parent is None and name.startswith("op.")]
    values["trace.overhead_ratio"] = traced.op_wall / untraced.op_wall
    values["trace.top_span_coverage"] = \
        sum(agg[1] for _, agg in tops) / traced.op_wall
    values["trace.unattributed_s"] = sum(agg[2] for _, agg in tops)
    return values, by_edge


LAYER_UNITS = {name: unit for name, unit, _, _ in spans.LAYER_METRICS} | {
    "trace.overhead_ratio": "ratio",
    "trace.top_span_coverage": "ratio",
    "trace.unattributed_s": "s"}


def median_of(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def run_workload(args):
    workload = WORKLOADS[args.workload]
    specs = workload.inputs(args.seed)
    samples, rounds, traced, layers = [], [], [], []
    edges = None
    try:
        problems = check.run_self_test(env.fresh_import())
    except Exception as exc:  # a program fault must not stop the benchmark
        problems = [f"self-test could not run: {type(exc).__name__}: {exc}"]
    start = time.perf_counter()
    while True:
        # with tracing, an untraced and a traced round make a pair; which
        # of the two runs first alternates from pair to pair
        tracer = spans.Tracer() if args.trace else None
        order = [None, tracer] if tracer else [None]
        if len(rounds) % 2:
            order.reverse()
        done = {}
        for t in order:
            fx, done[t] = run_round(workload, specs, samples, t)
        rnd = done[None]
        rounds.append(rnd)
        print(f"# round {len(rounds)}: " + " ".join(
            f"{p} {rnd.parts[p]:.3f}" for p in workload.parts),
            file=sys.stderr)
        if tracer:
            traced.append(done[tracer])
            values, edges = layer_metrics(tracer, done[tracer], rnd)
            layers.append(values)
        if time.perf_counter() - start >= args.seconds:
            break

    everything = rounds + traced
    problems = sorted({p for r in everything for p in r.problems}
                      | set(problems))
    untraced_e2e = median_of([part_times(workload, r) for r in rounds])
    lines = [f"# workload {workload.name} seed {args.seed} trace "
             f"{args.trace}: {len(rounds)} untraced and {len(traced)} "
             f"traced rounds",
             f"# inputs {specs}",
             f"# environment {json.dumps(env.describe(fx))}"]
    if args.trace:
        traced_e2e = median_of([part_times(workload, r) for r in traced])
        lines.append("# part               untraced     traced   overhead")
        for k, v in untraced_e2e.items():
            lines.append(f"#   {k:<16} {v:9.3f} s "
                         f"{traced_e2e[k]:9.3f} s "
                         f"{(traced_e2e[k] / v - 1) * 100 if v else 0:+7.1f}%")
        lines.append("# spans of the last traced round (parent > name: "
                     "calls, total s, self s)")
        for (parent, name), (calls, total, own) in sorted(
                edges.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"#   {parent or '-'} > {name}: {calls}, "
                         f"{total:.4f}, {own:.4f}")
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in median_of(layers).items()}
    else:
        metrics = {"total_s": {"value": untraced_e2e["total_s"], "unit": "s"}}
        metrics["setup_s"] = {"value": statistics.median(samples),
                              "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024, "unit": "MB"}
        for k, v in untraced_e2e.items():
            lines.append(f"#   {k}: {v:.4f} s")
    lines.append(f"# {sum(r.checked for r in everything)} output checks, "
                 f"{len(problems)} distinct problems")
    for p in problems:
        lines.append(f"# PROBLEM {p}")
    print("\n".join(lines), file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(r.attempted for r in everything),
            "failed": sum(r.failed for r in everything),
            "metrics": metrics}


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric} {v['value']:.6g} {v['unit']}")
            merged["metrics"][f"{name}.{metric}"] = v
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not env.program_present():
        print(f"error: no program at {env.SRC / 'fuchs2'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
