"""The three workloads: their generated inputs, the op each one times, and the
independent reference every answer is checked against.

Every op is one call sequence a user of alcm makes:

- a *check* op is what `alcm check --model` does: parse the KB text, decide
  consistency and, when consistent, extract a model;
- a *query* op is one call into `alcm.inference` on a KB parsed in set-up.

References never go through the engine or `alcm.inference`: verdicts come
from the naive oracle, on KBs this file builds itself, and models are
checked by the ground-truth evaluator in `alcm.semantics`.
"""

from __future__ import annotations

import importlib
import multiprocessing
import sys
from dataclasses import dataclass
from itertools import combinations
from time import perf_counter
from typing import Optional

MODULES = ("engine", "errors", "extraction", "inference", "oracle", "parser",
           "randomkb", "semantics", "syntax")

# Budgets of the acceptance suite (tests/test_acceptance.py).
ORACLE_BUDGET = 150_000

CORPORA = {
    # The traffic of acceptance criteria 3-7.
    "mbox-corpus": dict(seed=20240, size=300, with_mbox=True),
    # The traffic of acceptance criterion 9; KB #51 is the 198k-node outlier.
    "alc-corpus": dict(seed=31415, size=200, with_mbox=False),
}

# The reference task op time is measured against (Referee.reference_window):
# the oracle's first REF_STEPS steps on KB #51 of the alc-corpus, the same
# work at every commit that leaves the oracle alone.  Like the engine on a
# heavy KB it works on a large, growing heap, so on a shared machine it
# slows down when the heavy ops do; a small, cache-resident task does not.
REF_KB = (dict(seed=31415, size=52, with_mbox=False), 51)
REF_STEPS = 30000

# The worked examples of acceptance criterion 1, on top of the hydrography KB.
CIRCULAR_EXTRA = "tbox { HydrographicObject subclassof River; }"
MERGED_EXTRA = "abox { river = lake; }"
EXAMPLE_GRAPH_TEXT = """
tbox { top subclassof exists S . A; }
abox { (exists R . A)(d); (forall R . not B)(d); }
mbox { a =m A; b =m B; }
"""

# Fresh individual of the benchmark's own query reductions; '#' keeps it
# out of reach of the .alcm grammar.
QUERY_INDIVIDUAL = "bench#q"

QUERY_SERVICES = {
    "instance": "entails_instance",
    "sub": "entails_subsumption",
    "eq": "entails_equality",
    "neq": "entails_inequality",
    "meta": "entails_metamodelling",
    "metaconcept": "is_meta_concept",
}


@dataclass(frozen=True)
class Op:
    id: int
    kind: str                       # "check" | "query"
    kb: object                      # KB a check op parses to, or a query's KB
    text: Optional[str] = None      # check ops: the KB text the op parses
    expected: Optional[str] = None  # criterion-1 checks: verdict or certificate kind
    query: Optional[tuple] = None   # query ops: (service, *arguments)


@dataclass(frozen=True)
class Answer:
    consistent: Optional[bool] = None   # check ops
    certificate: Optional[str] = None   # check ops, inconsistent verdicts
    model_ok: Optional[bool] = None     # check ops, consistent verdicts
    elements: int = 0                   # check ops: domain size of the model
    entailed: Optional[bool] = None     # query ops


FAILED = Answer()  # the op ran out of the node budget


def load_alcm():
    """Import alcm afresh and return its modules by short name.

    Dropping earlier copies from sys.modules lets set-up be timed, import
    included, several times in one process.
    """
    for name in [m for m in sys.modules if m == "alcm" or m.startswith("alcm.")]:
        del sys.modules[name]
    return {m: importlib.import_module("alcm." + m) for m in MODULES}


def build_ops(workload: str, alcm: dict, root, corpus_seed=None):
    """The workload's ops, in their canonical order."""
    parser = alcm["parser"]
    if workload in CORPORA:
        spec = dict(CORPORA[workload])
        if corpus_seed is not None:
            spec["seed"] = corpus_seed
        kbs = alcm["randomkb"].corpus(**spec)
        ops = []
        for i, kb in enumerate(kbs):
            text = parser.print_kb(kb)
            if parser.parse_kb(text) != kb:
                raise RuntimeError(f"{workload} KB #{i} does not survive print/parse")
            ops.append(Op(i, "check", kb, text=text))
        return ops
    if workload != "hydro-queries":
        raise ValueError(f"unknown workload {workload!r}")
    hydro = (root / "demos" / "hydrography.alcm").read_text(encoding="utf-8")
    checks = [(hydro, "consistent"), (hydro + CIRCULAR_EXTRA, "circularity"),
              (hydro + MERGED_EXTRA, "clash"), (EXAMPLE_GRAPH_TEXT, "consistent")]
    ops = [Op(i, "check", parser.parse_kb(text), text=text, expected=want)
           for i, (text, want) in enumerate(checks)]
    kb = parser.parse_kb(hydro)
    for q in hydro_battery(alcm["syntax"], kb):
        ops.append(Op(len(ops), "query", kb, query=q))
    return ops


def hydro_battery(syntax, kb):
    """75 queries: every instance query, subsumption between distinct atoms
    in plain and negated form, a =m A, a = b and a != b, and is_meta_concept
    per atom."""
    inds = kb.individuals()
    names = sorted({m.concept_name for m in kb.mbox}
                   | {d.name for c in _kb_concepts(kb)
                      for d in syntax.subconcepts(c) if d.tag == syntax.ATOM})
    atoms = [syntax.atom(n) for n in names]
    qs = [("instance", c, a) for a in inds for c in atoms]
    for c in atoms:
        for d in atoms:
            if c is not d:
                qs += [("sub", c, d), ("sub", c, syntax.neg(d))]
    qs += [("meta", a, n) for a in inds for n in sorted(kb.mbox_range())]
    pairs = list(combinations(inds, 2))
    qs += [("eq", a, b) for a, b in pairs]
    qs += [("neq", a, b) for a, b in pairs]
    qs += [("metaconcept", c) for c in atoms]
    return qs


def _kb_concepts(kb):
    for ax in kb.tbox:
        yield ax.lhs
        yield ax.rhs
    for a in kb.abox:
        if hasattr(a, "concept"):
            yield a.concept


# --------------------------------------------------------------------------
# The timed op
# --------------------------------------------------------------------------

def run_op(alcm: dict, op: Op, budget: int):
    """One op: (answer, model of a consistent check or None).

    Module attributes are looked up on each call so that the traced run's
    wrappers are the ones called.
    """
    try:
        if op.kind == "check":
            kb = alcm["parser"].parse_kb(op.text)
            v = alcm["engine"].check_consistency(kb, budget)
            if not v.consistent:
                return Answer(consistent=False, certificate=v.certificate.kind), None
            return Answer(consistent=True), alcm["extraction"].model_from_verdict(kb, v)
        service = getattr(alcm["inference"], QUERY_SERVICES[op.query[0]])
        return Answer(entailed=service(op.kb, *op.query[1:], budget)), None
    except alcm["errors"].BudgetExceededError:
        return FAILED, None


def model_ok(alcm: dict, kb, model) -> bool:
    """The ground-truth evaluator's judgement of an extracted model.

    Runs in the process that built the model: domain elements are
    hash-consed there, and satisfaction compares them by identity.
    """
    try:
        return alcm["semantics"].satisfies_kb(model, kb)
    except KeyError as e:  # the model leaves an individual unmapped
        print(f"model misses individual {e}", file=sys.stderr)
        return False


# --------------------------------------------------------------------------
# The untimed reference
# --------------------------------------------------------------------------

class Referee:
    """Answers from the oracle, for checking and as the timing yardstick.

    Verdicts are memoised per op, so each distinct input is refereed once
    however many times the loop ran it; `timed` runs the oracle afresh.
    """

    def __init__(self, alcm: dict):
        self.alcm = alcm
        self.verdicts = {}
        self.unrefereed = set()
        self.oracle_s = 0.0  # time of the memoised first verdicts
        spec, index = REF_KB
        self.ref_kb = alcm["randomkb"].corpus(**spec)[index]

    def decide(self, kb) -> Optional[bool]:
        """Oracle verdict, or None when it runs out of its step budget."""
        try:
            return self.alcm["oracle"].decide(kb, step_budget=ORACLE_BUDGET).consistent
        except self.alcm["errors"].BudgetExceededError:
            return None

    def verdict(self, op: Op) -> Optional[bool]:
        """Consistency of a check op's KB, or entailment of a query."""
        return self.decide(op.kb) if op.kind == "check" else self.entailed(op.kb, op.query)

    def remember(self, op: Op, verdict) -> None:
        self.verdicts[op.id] = verdict
        if verdict is None:
            self.unrefereed.add(op.id)

    def reference(self, op: Op):
        if op.id not in self.verdicts:
            t0 = perf_counter()
            v = self.verdict(op)
            self.oracle_s += perf_counter() - t0
            self.remember(op, v)
        return self.verdicts[op.id]

    def reference_window(self, seconds: float):
        """(runs, seconds they took): the reference task, run until
        `seconds` have gone by, at least once."""
        runs = 0
        t0 = perf_counter()
        while True:
            try:
                self.alcm["oracle"].decide(self.ref_kb, step_budget=REF_STEPS)
            except self.alcm["errors"].BudgetExceededError:
                pass
            runs += 1
            elapsed = perf_counter() - t0
            if elapsed >= seconds:
                return runs, elapsed

    def timed(self, op: Op) -> float:
        """Seconds of one oracle run on the op's input."""
        t0 = perf_counter()
        v = self.verdict(op)
        elapsed = perf_counter() - t0
        if op.id not in self.verdicts:
            self.remember(op, v)
        return elapsed

    def entailed(self, kb, q) -> Optional[bool]:
        """The query reduced to one or more oracle consistency checks."""
        s = self.alcm["syntax"]
        kind = q[0]
        if kind == "metaconcept":  # some entailed member is itself meta-modelled
            unknown = False
            for a in kb.individuals():
                member = self.entailed(kb, ("instance", q[1], a))
                unknown |= member is None
                if not member:
                    continue
                for n in sorted(kb.mbox_range()):
                    meta = self.entailed(kb, ("meta", a, n))
                    if meta:
                        return True
                    unknown |= meta is None
            return None if unknown else False
        if kind == "instance":
            ext = kb.extended(abox=[s.ConceptAssertion(s.nnf(s.neg(q[1])), q[2])])
        elif kind == "sub":
            ext = kb.extended(abox=[s.ConceptAssertion(s.nnf(s.conj(q[1], s.neg(q[2]))),
                                                       QUERY_INDIVIDUAL)])
        elif kind == "eq":
            ext = kb.extended(abox=[s.not_equal(q[1], q[2])])
        elif kind == "neq":
            ext = kb.extended(abox=[s.equal(q[1], q[2])])
        else:  # meta: a fresh b with b =m A that differs from a
            ext = kb.extended(abox=[s.not_equal(q[1], QUERY_INDIVIDUAL)],
                              mbox=[s.MboxAxiom(QUERY_INDIVIDUAL, q[2])])
        consistent = self.decide(ext)
        return None if consistent is None else not consistent


def check(op: Op, ans: Answer, ref: Optional[bool]) -> Optional[str]:
    """None when the answer is right, else what is wrong with it; `ref` is
    the referee's verdict, None where the oracle ran out of budget."""
    if ans is FAILED:
        return None
    if op.kind == "query":
        if ref is not None and ans.entailed != ref:
            return f"entailed={ans.entailed}, oracle says {ref}"
        return None
    if ref is not None and ans.consistent != ref:
        return f"consistent={ans.consistent}, oracle says {ref}"
    if op.expected is not None and op.expected != (
            "consistent" if ans.consistent else ans.certificate):
        return f"expected {op.expected}, got {ans.certificate or 'consistent'}"
    if ans.consistent and not ans.model_ok:
        return "extracted model violates the KB"
    return None


class RefereeProcess:
    """A Referee in a child process forked after set-up.

    The benchmark process and its child take turns, one blocked on the pipe
    while the other works, so they never run at the same time.  The oracle's
    memory stays in the child, out of the benchmark process's peak RSS.
    Use it as a context manager: leaving the block ends the child and waits
    for it.
    """

    def __init__(self, alcm: dict, ops):
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, args=(child, alcm, ops), daemon=True)
        self.proc.start()
        child.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.proc.join(10)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()
        self.conn.close()

    def _ask(self, *request):
        self.conn.send(request)
        return self.conn.recv()

    def timed(self, op: Op) -> float:
        return self._ask("timed", op.id)

    def reference_window(self, seconds: float):
        return self._ask("reference_window", seconds)

    def verdicts(self, ops):
        """({op id: verdict}, unrefereed op ids, seconds of first verdicts)."""
        return self._ask("verdicts", sorted({op.id for op in ops}))


def _serve(conn, alcm: dict, ops) -> None:
    referee = Referee(alcm)
    by_id = {op.id: op for op in ops}
    while (request := _receive(conn)) is not None:
        if request[0] == "timed":
            conn.send(referee.timed(by_id[request[1]]))
        elif request[0] == "reference_window":
            conn.send(referee.reference_window(request[1]))
        else:
            conn.send(({i: referee.reference(by_id[i]) for i in request[1]},
                       referee.unrefereed, referee.oracle_s))
    conn.close()


def _receive(conn):
    """The next request, or None when the benchmark process has gone."""
    try:
        return conn.recv()
    except EOFError:
        return None
