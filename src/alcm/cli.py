"""Command-line front end.

Exit codes: 0 consistent / entailed, 1 inconsistent / not entailed,
2 usage, input or parse error, 3 resource budget or memory exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import oracle
from .engine import DEFAULT_NODE_BUDGET, RULES, check_consistency, format_trace
from .errors import BudgetExceededError, UnknownNameError
from .extraction import model_from_verdict
from .inference import entails, is_meta_concept
from .parser import ParseError, parse_concept, parse_kb, parse_query
from .semantics import interpretation_to_json


def budget(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="alcm",
        description="Consistency and entailment for ALCM knowledge bases.")
    sub = p.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide consistency of a KB file")
    check.add_argument("file")
    check.add_argument("--oracle", action="store_true",
                       help="use the naive completion-forest tableau instead")
    check.add_argument("--model", metavar="OUT",
                       help="write a model of a consistent KB as JSON")
    check.add_argument("--trace", metavar="OUT",
                       help="write the and-or graph expansion trace")
    check.add_argument("--stats", action="store_true",
                       help="print graph statistics")
    check.add_argument("--budget", type=budget, metavar="N",
                       help=f"node budget (default {DEFAULT_NODE_BUDGET}); with "
                            f"--oracle, step budget (default {oracle.DEFAULT_STEP_BUDGET})")

    ent = sub.add_parser("entails", help="decide an entailment query")
    ent.add_argument("file")
    ent.add_argument("query",
                     help="'C sub D', 'C(a)', 'a = b', 'a != b' or 'a =m A'")
    ent.add_argument("--budget", type=budget, default=DEFAULT_NODE_BUDGET, metavar="N")

    meta = sub.add_parser("meta", help="decide whether a =m A is entailed")
    meta.add_argument("file")
    meta.add_argument("individual")
    meta.add_argument("concept_name")
    meta.add_argument("--budget", type=budget, default=DEFAULT_NODE_BUDGET, metavar="N")

    mc = sub.add_parser("metaconcept", help="decide whether C is a meta-concept")
    mc.add_argument("file")
    mc.add_argument("concept")
    mc.add_argument("--budget", type=budget, default=DEFAULT_NODE_BUDGET, metavar="N")
    return p


def _load_kb(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kb(fh.read(), origin=path)


def _run_check(args, kb) -> int:
    if args.oracle:
        if args.model or args.trace or args.stats:
            print("error: --model/--trace/--stats need the and-or graph engine",
                  file=sys.stderr)
            return 2
        verdict = oracle.decide(kb, args.budget or oracle.DEFAULT_STEP_BUDGET)
    else:
        verdict = check_consistency(kb, args.budget or DEFAULT_NODE_BUDGET)
    print("consistent" if verdict.consistent else "inconsistent")
    if not verdict.consistent and verdict.certificate is not None:
        print(verdict.certificate.describe())
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(format_trace(verdict.graph, verdict))
    if args.model:
        if verdict.consistent:
            interp = model_from_verdict(kb, verdict)
            with open(args.model, "w", encoding="utf-8") as fh:
                json.dump(interpretation_to_json(interp), fh, indent=2)
                fh.write("\n")
        else:
            print("no model: KB is inconsistent", file=sys.stderr)
    if args.stats:
        g = verdict.graph
        counts = {k: g.kinds.count(k) for k in ("and", "or", "end", "bot", "open")}
        expanded = counts["and"] + counts["or"] + counts["end"]
        print(f"nodes: {len(g.labels)} built, {expanded} expanded")
        print(f"edges: {sum(len(e) for e in g.edges)}")
        print("kinds: " + " ".join(f"{k}={v}" for k, v in counts.items()))
        applied = [ra.rule for ra in g.rules if ra is not None]
        print("rules: " + " ".join(f"{r}={applied.count(r)}" for r in RULES))
        # or-nodes refuted while a child was still live: each is a backjump
        unsat = g.unsat
        jumps = sum(1 for v, rank in unsat.items() if g.kinds[v] == "or"
                    and any(unsat.get(c, rank) >= rank for c in g.children(v)))
        print(f"backjumps: {jumps}")
    return 0 if verdict.consistent else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        kb = _load_kb(args.file)
        if args.command == "check":
            return _run_check(args, kb)
        if args.command in ("entails", "meta"):
            # `meta FILE a A` asks the query `a =m A`, read by the same grammar
            axiom = parse_query(args.query if args.command == "entails"
                                else f"{args.individual} =m {args.concept_name}")
            answer = entails(kb, axiom, args.budget)
            print("entailed" if answer else "not entailed")
            return 0 if answer else 1
        answer = is_meta_concept(kb, parse_concept(args.concept), args.budget)
        print("meta-concept" if answer else "not a meta-concept")
        return 0 if answer else 1
    except (ParseError, UnknownNameError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e.filename}: {e.strerror}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(f"error: {args.file}: not UTF-8 text (byte {e.start})", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        # exit 1 would read as "inconsistent": running out is a budget too
        print("error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
