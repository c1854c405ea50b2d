"""alcm benchmark: one workload, one client, a closed loop of ops.

    python3 perfbench/run.py --workload mbox-corpus --seed 1 --seconds 20 --trace 0

Run from the repository root.  The process imports alcm from `src/`, builds
the workload's inputs, forks a referee process, then runs its ops one at a
time in passes until `--seconds` have gone by; every op runs at least once,
so every run covers the same inputs.  Every answer is then checked, untimed,
against the oracle and the ground-truth evaluator.

With `--trace 0` the referee process also times work next to the ops (an
oracle run on each op's input, and windows of a fixed reference task; see
closed_loop), and the last line of output is a JSON object with the
end-to-end metrics.  With `--trace 1` untraced and traced
passes alternate, the spans are written to `perfbench/out/`, and the JSON
object holds the per-module metrics.  Exit status is 0 when every answer is
right, 1 when one is wrong, 2 when alcm cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_EVERY = 20   # untraced loops time a fresh set-up after every 20th op
MIN_SETUPS = 5
# Op time between two windows of the reference task, and the length of a
# window: REF_SHARE of the op time before it, at least one run (see closed_loop).
SEGMENT_S, REF_SHARE, FIRST_WINDOW_S = 2.0, 0.25, 2.0
TAIL_SAMPLES = 10  # op_tail_ms is the highest percentile with this many samples beyond it

RULES = ("bot", "and", "or", "trans",
         "bot1", "bot2", "bot3", "and'", "all", "eq", "neq", "or'", "close", "trans'")


def rule_metric(rule: str) -> str:
    return "engine.rule." + rule.replace("'", "_b")


@dataclass
class Outcome:
    """One op as it ran: its latency, answer and, when traced, what the
    trace learned from it."""

    latency: float
    answer: workloads.Answer
    semantics_s: float = 0.0
    graph: Counter = field(default_factory=Counter)


@dataclass
class Loop:
    """What one closed loop over the workload produced."""

    passes: int = 0
    elapsed: float = 0.0
    latencies: dict = field(default_factory=dict)  # op id -> seconds of each run
    oracle: dict = field(default_factory=dict)     # op id -> oracle seconds after each run
    answers: list = field(default_factory=list)    # (op, answer) in run order
    graph: Counter = field(default_factory=Counter)  # traced loops: graph counts
    semantics_s: float = 0.0
    ref_runs: float = 0.0  # untraced loops: op time in runs of the reference task

    @property
    def ops(self) -> int:
        return len(self.answers)

    def op_time(self) -> float:
        return sum(sum(v) for v in self.latencies.values())


def graph_counts(engine, unsat_with_order, verdict, out: Counter) -> None:
    """Exact counts read from a returned and-or graph."""
    g = verdict.graph
    n = len(g.labels)
    out["engine.nodes"] += n
    out["engine.nodes_base"] += sum(type(x) is engine.BaseJudgement for x in g.labels)
    out["engine.nodes_variable"] += sum(type(x) is engine.VariableJudgement
                                        for x in g.labels)
    out["engine.cache_hits"] += sum(map(len, g.edges)) - (n - 1)
    for ra in g.rules:
        if ra is not None:
            out[rule_metric(ra.rule)] += 1
    if verdict.consistent:
        out["useful"] += len(verdict.marking.nodes)
        return
    # The refutation: every child of an or-node, the first-refuted child of
    # an and-node.  Entry order strictly falls along it, so it is acyclic.
    unsat, entry = unsat_with_order(g)
    seen, stack = set(), [g.root]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        if g.kinds[u] == "or":
            stack.extend(g.children(u))
        elif g.kinds[u] == "and":
            stack.append(min((c for c in g.children(u) if c in unsat), key=entry.get))
    out["useful"] += len(seen)


def execute(alcm, op, budget, tracer=None, unsat_with_order=None) -> Outcome:
    """Run and time one op, then (untimed) check its model and, when
    traced, count the graphs it built with the unwrapped `unsat_with_order`."""
    if tracer is None:
        t0 = perf_counter()
        ans, model = workloads.run_op(alcm, op, budget)
        t1 = perf_counter()
    else:
        with tracer.op_span(op.id):
            t0 = perf_counter()
            ans, model = workloads.run_op(alcm, op, budget)
            t1 = perf_counter()
    out = Outcome(t1 - t0, ans)
    if model is not None:
        t0 = perf_counter()
        ok = workloads.model_ok(alcm, op.kb, model)
        out.semantics_s = perf_counter() - t0
        out.answer = replace(ans, model_ok=ok, elements=len(model.domain))
    if tracer is not None:
        for v in tracer.verdicts:
            graph_counts(alcm["engine"], unsat_with_order, v, out.graph)
        tracer.verdicts.clear()
    return out


def run_pass(alcm, ops, budget, loop: Loop, tracer=None, unsat_with_order=None,
             after=None) -> None:
    """Run `ops` in order; `after(op, outcome)` runs after each one."""
    for op in ops:
        out = execute(alcm, op, budget, tracer, unsat_with_order)
        loop.latencies.setdefault(op.id, []).append(out.latency)
        loop.answers.append((op, out.answer))
        loop.graph.update(out.graph)
        loop.semantics_s += out.semantics_s
        if after is not None:
            after(op, out)


def ordered(ops, rng):
    order = list(ops)
    if rng is not None:
        rng.shuffle(order)
    return order


def closed_loop(alcm, ops, budget, seconds, rng, referee, time_set_up) -> Loop:
    """The untraced loop: whole passes until `seconds` have gone by.

    The reference task runs in windows: one before the first op, one right
    after any op that brings the op time since the last window to
    SEGMENT_S, and one at the end.  A window lasts REF_SHARE of the op time
    before it.  The op time of each segment between two windows is divided
    by the mean time of a reference run over both windows.  A heavy op
    makes a segment of its own, so it is measured against the machine's
    speed at the time it ran, and its windows are long enough to average
    out the swings of single runs.  Each run of an op is then followed by a
    timed oracle run on the same input, and a fresh set-up is timed after
    every SETUP_EVERY-th op.
    """
    loop = Loop()
    referee.reference_window(0)  # the first run in a process is slower: heap still to grow
    window = referee.reference_window(FIRST_WINDOW_S)
    segment_s = 0.0

    def close_segment():
        nonlocal window, segment_s
        following = referee.reference_window(REF_SHARE * segment_s)
        runs, ref_s = window[0] + following[0], window[1] + following[1]
        loop.ref_runs += segment_s * runs / ref_s
        window, segment_s = following, 0.0

    def after(op, out):
        nonlocal segment_s
        segment_s += out.latency
        if segment_s >= SEGMENT_S:
            close_segment()
        loop.oracle.setdefault(op.id, []).append(referee.timed(op))
        if loop.ops % SETUP_EVERY == 0:
            time_set_up()

    start = perf_counter()
    while True:
        run_pass(alcm, ordered(ops, rng), budget, loop, after=after)
        loop.passes += 1
        if perf_counter() - start >= seconds:
            break
    if segment_s:
        close_segment()
    loop.elapsed = perf_counter() - start
    return loop


def traced_loop(alcm, ops, budget, seconds, rng, tracer):
    """Pairs of whole passes, one untraced and one traced over the same
    order, until `seconds` have gone by.  Per-module figures are per traced
    pass; alternating the two keeps drift out of the overhead figure."""
    untraced, traced = Loop(), Loop()
    unsat_with_order = alcm["engine"]._unsat_with_order  # captured before wrapping
    start = perf_counter()
    while True:
        order = ordered(ops, rng)
        run_pass(alcm, order, budget, untraced)
        with tracer.installed(alcm):
            run_pass(alcm, order, budget, traced, tracer, unsat_with_order)
        untraced.passes += 1
        traced.passes += 1
        if perf_counter() - start >= seconds:
            break
    return untraced, traced


def tail(samples):
    """(value, percentile): the highest percentile with TAIL_SAMPLES beyond it."""
    s = sorted(samples)
    k = max(len(s) - TAIL_SAMPLES - 1, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(loop: Loop, rss_mb: float, setup_times) -> dict:
    """The declared metrics, after printing the absolute timings.

    Absolute times move with the load other tenants put on a shared
    machine, by more than any bound can absorb, so they are printed and not
    declared.  Each declared time is measured against work timed next to
    it, which slows down with the machine as the ops do.  op_time_ref, the
    op time of a pass in runs of the reference task, weighs each op by its
    time, so the heavy ops that take most of a corpus's time set it.
    op_vs_oracle_gm, the geometric mean over ops of op time over the
    oracle's time on the same input, weighs every op alike and so shows a
    fixed cost per op.
    """
    per_op = [statistics.median(v) for v in loop.latencies.values()]
    tail_s, pct = tail(per_op)
    failed = sum(ans is workloads.FAILED for _, ans in loop.answers)
    op_s = sum(per_op)
    oracle_s = sum(statistics.median(v) for v in loop.oracle.values())
    ratios = [statistics.median(a / b for a, b in zip(loop.latencies[i], loop.oracle[i]))
              for i in loop.latencies]
    print(f"# {loop.ops} runs of {len(per_op)} ops in {loop.passes} pass(es), "
          f"{loop.elapsed:.3f} s; an op's latency is the median of its runs")
    print(f"# ops_per_s = {len(per_op) / op_s} 1/s")
    print(f"# op_p50_ms = {1000 * statistics.median(per_op)} ms")
    print(f"# op_tail_ms = {1000 * tail_s} ms (p{pct:.1f} of {len(per_op)} samples)")
    print(f"# failed_frac = {failed / loop.ops} (ops over the node budget)")
    print(f"# op time {op_s:.3f} s against oracle time {oracle_s:.3f} s "
          f"({op_s / oracle_s:.3f}x), per-op medians summed")
    print(f"# setup_s samples: {[round(t, 4) for t in setup_times]}")
    return {
        "op_time_ref": (loop.ref_runs / loop.passes, "ref_runs"),
        "op_vs_oracle_gm": (math.exp(statistics.fmean(map(math.log, ratios))), "x"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_module(untraced: Loop, traced: Loop, tracer, unrefereed, oracle_s) -> dict:
    inclusive, own = tracer.totals()
    p = traced.passes
    g = traced.graph
    queries = sum(op.kind == "query" for op, _ in traced.answers)
    elements = sum(ans.elements for _, ans in traced.answers)
    m = {
        "parser.parse_s": (inclusive["parser.parse"] / p, "s"),
        "engine.check_s": (inclusive["engine.check"] / p, "s"),
        "engine.init_s": (inclusive["engine.init"] / p, "s"),
        "engine.build_s": (inclusive["engine.build"] / p, "s"),
        "engine.rule_s": (inclusive["engine.rule"] / p, "s"),
        "engine.make_base_s": (inclusive["engine.make_base"] / p, "s"),
        "engine.circular_s": (inclusive["engine.circular"] / p, "s"),
        "engine.unsat_s": (inclusive["engine.unsat"] / p, "s"),
        "engine.marking_s": (inclusive["engine.marking"] / p, "s"),
        "engine.nodes": (g["engine.nodes"] / p, "count"),
        "engine.nodes_base": (g["engine.nodes_base"] / p, "count"),
        "engine.nodes_variable": (g["engine.nodes_variable"] / p, "count"),
        "engine.cache_hits": (g["engine.cache_hits"] / p, "count"),
        "engine.useful_ratio": (g["useful"] / g["engine.nodes"] if g["engine.nodes"] else 0.0,
                                "ratio"),
    }
    for rule in RULES:
        m[rule_metric(rule)] = (g[rule_metric(rule)] / p, "count")
    m.update({
        "extraction.rgraph_s": (inclusive["extraction.rgraph"] / p, "s"),
        "extraction.unfold_s": (inclusive["extraction.unfold"] / p, "s"),
        "extraction.elements": (elements / p, "count"),
        "inference.calls_per_query": (tracer.inference_calls / queries if queries else 0.0,
                                      "calls/query"),
        "inference.query_s": (inclusive["inference.query"] / p, "s"),
        "semantics.check_s": ((untraced.semantics_s + traced.semantics_s)
                              / (untraced.passes + traced.passes), "s"),
        "oracle.decide_s": (oracle_s, "s"),
        "oracle.unrefereed": (len(unrefereed), "count"),
    })
    for module in ("parser", "engine", "extraction", "inference"):
        m[f"{module}.self_s"] = (sum(t for name, t in own.items()
                                     if name.startswith(module + ".")) / p, "s")
    traced_mean, untraced_mean = traced.op_time() / traced.ops, untraced.op_time() / untraced.ops
    m["trace.overhead_frac"] = (traced_mean / untraced_mean - 1, "frac")
    print(f"# traced: {traced.ops} ops in {traced.passes} pass(es), {len(tracer.start)} spans; "
          f"untraced mean op {1000 * untraced_mean:.3f} ms, traced {1000 * traced_mean:.3f} ms")
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted([*workloads.CORPORA, "hydro-queries"]))
    p.add_argument("--seed", type=int, required=True,
                   help="seeds the order of the hydro-queries ops; the corpora are fixed")
    p.add_argument("--seconds", type=float, required=True,
                   help="loop in passes until this much time has gone by")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--corpus-seed", type=int, default=None,
                   help="generator seed of a corpus workload, to re-check a claim "
                        "on a corpus not used while the change was written")
    p.add_argument("--limit", type=int, default=None,
                   help="run only the first N ops (small cases for selfcheck.py)")
    args = p.parse_args(argv)
    if args.corpus_seed is not None and args.workload not in workloads.CORPORA:
        p.error("--corpus-seed applies to the corpus workloads only")
    if args.limit is not None and args.limit < 1:
        p.error("--limit must be at least 1")
    return args


def set_up(args):
    """(alcm modules, the workload's ops, seconds taken)."""
    t0 = perf_counter()
    alcm = workloads.load_alcm()
    ops = workloads.build_ops(args.workload, alcm, ROOT, args.corpus_seed)
    return alcm, ops, perf_counter() - t0


def time_set_up(args, times) -> None:
    """Time one more set-up, then put the modules in use back in place.

    Set-up is sampled through the loop, not in a burst before it, so that
    its median follows the machine's speed over the whole run.  Garbage is
    collected outside every timing.
    """
    def alcm_modules():
        return {k: v for k, v in sys.modules.items() if k == "alcm" or k.startswith("alcm.")}

    in_use = alcm_modules()
    times.append(set_up(args)[2])
    for name in alcm_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    gc.collect()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "alcm" / "__init__.py").is_file():
        print(f"error: alcm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    alcm, ops, first = set_up(args)
    if not Path(alcm["engine"].__file__).resolve().is_relative_to(SRC):
        print(f"error: alcm was imported from {alcm['engine'].__file__}", file=sys.stderr)
        return 2
    setup_times = [first]
    ops = ops[:args.limit]
    budget = alcm["engine"].DEFAULT_NODE_BUDGET
    # Corpus KBs run in corpus order, as the acceptance suite runs them: a
    # big KB leaves the process slower for the ops after it, so a shuffled
    # order would make the figures depend on the seed.  The hydro-queries
    # ops are all small and run in an order drawn from the seed.
    rng = None if args.workload in workloads.CORPORA else random.Random(args.seed)

    # One CPU for the benchmark and its referee: the oracle is only a fair
    # yardstick on the CPU the ops ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with workloads.RefereeProcess(alcm, ops) as referee:
        if args.trace:
            tracer = tracing.Tracer()
            loops = traced_loop(alcm, ops, budget, args.seconds, rng, tracer)
        else:
            loops = (closed_loop(alcm, ops, budget, args.seconds, rng, referee,
                                 lambda: time_set_up(args, setup_times)),)
            rss_mb = peak_rss_mb()
            while len(setup_times) < MIN_SETUPS:
                time_set_up(args, setup_times)
        refs, unrefereed, oracle_s = referee.verdicts(ops)

    wrong = [(op.id, why) for loop in loops for op, ans in loop.answers
             if (why := workloads.check(op, ans, refs[op.id])) is not None]
    for op_id, why in wrong[:20]:
        print(f"WRONG {args.workload} op {op_id}: {why}", file=sys.stderr)
    if unrefereed:
        print(f"# oracle out of budget on ops {sorted(unrefereed)}; "
              f"their models are still checked")

    if args.trace:
        metrics = per_module(*loops, tracer, unrefereed, oracle_s)
        spans = OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
        tracer.write(spans)
        print(f"# spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(loops[0], rss_mb, setup_times)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    attempted = sum(loop.ops for loop in loops)
    failed = sum(ans is workloads.FAILED for loop in loops for _, ans in loop.answers)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
