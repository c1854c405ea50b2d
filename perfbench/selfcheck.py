"""Self-check of the benchmark on small cases.

    python3 perfbench/selfcheck.py

Runs every workload twice untraced and twice traced, on a small case (the
first ops of each corpus, all of hydro-queries, one pass each), and checks:

- each run exits 0 and reports correct answers;
- the untraced runs report exactly BENCHMARK.json's end-to-end metrics,
  and the traced runs exactly its per-layer metrics, each with its unit;
- the exact counts (engine.nodes, engine.rule.*, inference.calls_per_query
  and the other counts) are identical between the two traced runs;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMALL = {"mbox-corpus": 25, "alc-corpus": 25, "hydro-queries": None}
EXACT_UNITS = ("count", "calls/query", "ratio")


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    if SMALL.get(workload):
        cmd += ["--limit", str(SMALL[workload])]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    unknown = {w["name"] for w in bench["workloads"]} - set(SMALL)
    if unknown:
        problems.append(f"BENCHMARK.json names workloads run.py lacks: {sorted(unknown)}")
    for workload in SMALL:
        for trace in (0, 1):
            outs = []
            for seed in (1, 2):
                proc = run(workload, seed, trace)
                res = result(proc)
                if proc.returncode != 0 or not res or not res["correct"]:
                    problems.append(f"{workload} trace={trace} seed={seed}: exit "
                                    f"{proc.returncode}\n{proc.stderr}")
                    continue
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != wanted[trace]:
                    problems.append(f"{workload} trace={trace}: metrics differ from "
                                    f"BENCHMARK.json: {sorted(set(got) ^ set(wanted[trace]))}"
                                    f" or their units")
                outs.append(res["metrics"])
            if trace == 1 and len(outs) == 2:
                for name, unit in wanted[1].items():
                    if unit in EXACT_UNITS and name in outs[0] and \
                            outs[0][name]["value"] != outs[1].get(name, {}).get("value"):
                        problems.append(f"{workload}: {name} differs between runs: "
                                        f"{outs[0][name]['value']} vs {outs[1][name]['value']}")
            print(f"{workload} trace={trace}: {len(outs)} runs checked", flush=True)

    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("hydro-queries", 1, 0, cwd=bare)
    if proc.returncode == 0 or result(proc) is not None:
        problems.append("benchmark without the program did not fail cleanly")
    shutil.rmtree(bare)
    print("bare directory: exit", proc.returncode)

    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
