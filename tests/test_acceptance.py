"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The differential corpus
is generated once and shared; budgets are fixed here, not tuned per run.
"""

import time

import pytest

from alcm import oracle
from alcm.digraph import find_cycle
from alcm.engine import (
    ABSURDITY,
    BaseJudgement,
    VariableJudgement,
    check_consistency,
    circular,
    format_trace,
)
from alcm.errors import BudgetExceededError
from alcm.extraction import build_rgraph, check_saturated, unfold_sets
from alcm.inference import (
    entails_equality,
    entails_metamodelling,
    entails_subsumption,
    is_meta_concept,
)
from alcm.parser import parse_kb
from alcm.randomkb import corpus
from alcm.semantics import satisfies_kb
from alcm.syntax import ConceptAssertion, MboxAxiom, atom, neg

from conftest import EXAMPLE_GRAPH_TEXT, HYDRO_TEXT, judgement_to_kb
from graph_checks import is_acyclic, meta_order

ENGINE_BUDGET = 200_000
ORACLE_BUDGET = 150_000

CORPUS_SIZE = 2000
ALC_CORPUS_SIZE = 500


def _report(name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"\n{'PASS' if ok else 'FAIL'}  {name}{tail}")
    assert ok, f"{name}{tail}"


@pytest.fixture(scope="module")
def corpus_runs():
    """Engine and oracle verdicts over the shared random corpus, plus the
    wall time the differential pass took.

    Entries are (kb, engine verdict or None on budget, oracle bool or None).
    """
    t0 = time.time()
    out = []
    for kb in corpus(seed=20240, size=CORPUS_SIZE):
        try:
            v = check_consistency(kb, node_budget=ENGINE_BUDGET)
        except BudgetExceededError:
            v = None
        try:
            o = oracle.decide(kb, step_budget=ORACLE_BUDGET).consistent
        except BudgetExceededError:
            o = None
        out.append((kb, v, o))
    return out, time.time() - t0


@pytest.fixture(scope="module")
def consistent_extractions(corpus_runs):
    """R-graph, terminal judgement and unfolded model per consistent corpus KB."""
    out = []
    for kb, v, _ in corpus_runs[0]:
        if v is None or not v.consistent:
            continue
        rg, terminal, merges = build_rgraph(v.graph, v.marking)
        interp = unfold_sets(rg, terminal.mbox, kb.concept_names())
        out.append((kb, v, rg, terminal, merges, interp))
    return out


def test_criterion_1_worked_examples_exact_verdicts():
    started = time.time()
    checks = []

    t0 = time.time()
    v = check_consistency(parse_kb(HYDRO_TEXT))
    checks.append(v.consistent and time.time() - t0 < 1.0)

    t0 = time.time()
    v = check_consistency(parse_kb(
        HYDRO_TEXT + "tbox { HydrographicObject subclassof River; }"))
    checks.append(not v.consistent and v.certificate.kind == "circularity"
                  and time.time() - t0 < 1.0)

    t0 = time.time()
    v = check_consistency(parse_kb(HYDRO_TEXT + "abox { river = lake; }"))
    checks.append(not v.consistent and v.certificate.kind == "clash"
                  and time.time() - t0 < 1.0)

    t0 = time.time()
    kb = parse_kb(EXAMPLE_GRAPH_TEXT)
    v = check_consistency(kb)
    checks.append(v.consistent and oracle.decide(kb).consistent
                  and time.time() - t0 < 1.0)

    _report("criterion 1: worked-example verdicts", all(checks),
            f"{sum(checks)}/4 in {time.time() - started:.2f}s")


def test_criterion_2_circularity_detector_worked_instances():
    first = circular({ConceptAssertion(atom("A"), "a"), ConceptAssertion(atom("B"), "b")},
                     {MboxAxiom("a", "A"), MboxAxiom("b", "B")})
    abox = {ConceptAssertion(atom("A1"), "a0"), ConceptAssertion(atom("A0"), "a2"),
            ConceptAssertion(atom("A3"), "a2"), ConceptAssertion(atom("A2"), "a1")}
    mbox = {MboxAxiom(f"a{i}", f"A{i}") for i in range(4)}
    second = circular(abox, mbox)
    ok = first is not None and second == ["a0", "a1", "a2"]
    _report("criterion 2: circularity detector", ok, f"cycle={second}")


def test_criterion_3_differential_oracle_suite(corpus_runs):
    runs, elapsed = corpus_runs
    completed = agreed = 0
    for kb, v, o in runs:
        if v is None or o is None:
            continue
        completed += 1
        agreed += v.consistent == o
    ok = (len(runs) >= 2000
          and completed >= 0.95 * len(runs)
          and agreed == completed
          and elapsed <= 600)
    _report("criterion 3: differential agreement", ok,
            f"{agreed}/{completed} agree, {completed}/{len(runs)} completed, "
            f"{elapsed:.0f}s")


def test_criterion_4_model_soundness(consistent_extractions):
    from alcm.extraction import model_from_verdict
    violations = []
    for kb, v, rg, terminal, merges, interp in consistent_extractions:
        full = model_from_verdict(kb, v)
        if not satisfies_kb(full, kb):
            violations.append(("satisfies", kb))
        if any(e.rank > len(kb.mbox) for e in interp.domain):
            violations.append(("rank", kb))
        if len({interp.individuals[x] for x in rg.delta}) != len(rg.delta):
            violations.append(("injective", kb))
        if not is_acyclic(set(rg.delta), meta_order(rg, terminal.mbox)):
            violations.append(("meta-order", kb))
    ok = not violations and len(consistent_extractions) > 0
    _report("criterion 4: model soundness", ok,
            f"{len(consistent_extractions)} consistent KBs, "
            f"{len(violations)} violations")


def test_criterion_5_saturation(consistent_extractions):
    bad = 0
    for kb, v, rg, terminal, merges, interp in consistent_extractions:
        if check_saturated(rg, terminal):
            bad += 1
    _report("criterion 5: saturation conditions", bad == 0,
            f"{len(consistent_extractions)} R-graphs, {bad} with violations")


def _oracle_judges(j):
    try:
        return oracle.decide(judgement_to_kb(j), step_budget=ORACLE_BUDGET).consistent
    except BudgetExceededError:
        return None


def test_criterion_6_per_rule_metamorphic(corpus_runs):
    per_rule_cap = 40
    seen = {}
    apps = []
    for kb, v, _ in corpus_runs[0]:
        if v is None:
            continue
        g = v.graph
        for nid, ra in enumerate(g.rules):
            if ra is None or seen.get(ra.rule, 0) >= per_rule_cap:
                continue
            seen[ra.rule] = seen.get(ra.rule, 0) + 1
            apps.append(ra)
        if len(apps) >= 360:
            break

    checked = 0
    checked_rules = set()
    failures = []
    for ra in apps:
        premise_ok = _oracle_judges(ra.premise)
        if premise_ok is None:
            continue
        concl_ok = []
        skip = False
        for c in ra.conclusions:
            if c is not ABSURDITY:
                r = _oracle_judges(c)
                if r is None:
                    skip = True
                    break
                concl_ok.append((c, r))
            else:  # absurdity
                concl_ok.append((c, False))
        if skip:
            continue
        checked += 1
        checked_rules.add(ra.rule)
        results = [r for _, r in concl_ok]
        if premise_ok:
            wanted = all(results) if ra.connective == "and" else any(results)
            if not wanted:
                failures.append(("preservation", ra.rule))
        if ra.rule in ("bot1", "bot2", "bot3") and premise_ok:
            failures.append(("bottom-premise", ra.rule))
        # converse direction for every static (or-connective) application:
        # a satisfiable conclusion makes its premise satisfiable
        if ra.connective == "or":
            for c, r in concl_ok:
                if r and not premise_ok:
                    failures.append(("converse", ra.rule))
    # absorbed Tbox axioms are applied by `unfold`, which must be checked too
    ok = checked >= 200 and not failures and "unfold" in checked_rules
    _report("criterion 6: per-rule metamorphic checks", ok,
            f"{checked} applications over rules {sorted(seen)}, "
            f"{len(failures)} counterexamples")


def test_criterion_7_graph_hygiene(corpus_runs):
    problems = 0
    runs = corpus_runs[0]
    graphs = [v.graph for _, v, _ in runs if v is not None]
    for g in graphs:
        if len(g.nodes) != len(g.labels):
            problems += 1
        for u in range(len(g.labels)):
            if type(g.labels[u]) is VariableJudgement:
                if any(type(g.labels[c]) is BaseJudgement for c in g.children(u)):
                    problems += 1
        succ = {u: [c for c in g.children(u) if g.kinds[c] == "or"]
                for u in range(len(g.labels)) if g.kinds[u] == "or"}
        if find_cycle(list(succ), succ) is not None:
            problems += 1
    reruns = 0
    for kb, v, _ in runs[:40]:
        if v is None:
            continue
        v2 = check_consistency(kb, node_budget=ENGINE_BUDGET)
        if format_trace(v.graph, v) != format_trace(v2.graph, v2):
            problems += 1
        reruns += 1
    _report("criterion 7: graph hygiene and determinism", problems == 0,
            f"{len(graphs)} graphs, {reruns} re-runs, {problems} problems")


def test_criterion_8_inference_services():
    hydro = parse_kb(HYDRO_TEXT)
    basics = (
        is_meta_concept(hydro, atom("HydrographicObject"))
        and entails_metamodelling(hydro, "river", "River")
        and entails_subsumption(hydro, atom("River"), neg(atom("Lake")))
    )

    # Targeted corpus: every KB carries two meta-modelling axioms over
    # distinct individuals, so each consistent KB yields a transfer case.
    import random

    from alcm.randomkb import CONCEPT_NAMES, INDIVIDUALS, random_kb

    rng = random.Random(808)
    cases = violations = 0
    while cases < 100:
        kb = random_kb(rng, with_mbox=False)
        ia, ib = rng.sample(INDIVIDUALS, 2)
        ca, cb = rng.choice(CONCEPT_NAMES), rng.choice(CONCEPT_NAMES)
        kb = kb.extended(mbox=[MboxAxiom(ia, ca), MboxAxiom(ib, cb)])
        try:
            if not check_consistency(kb, node_budget=ENGINE_BUDGET).consistent:
                continue
            a, b = sorted((ia, ib))
            ma = dict((m.individual, m.concept_name) for m in sorted(kb.mbox))
            if not (entails_metamodelling(kb, a, ma[a])
                    and entails_metamodelling(kb, b, ma[b])):
                continue
            cases += 1
            eq = entails_equality(kb, a, b)
            mutual = (entails_subsumption(kb, atom(ma[a]), atom(ma[b]))
                      and entails_subsumption(kb, atom(ma[b]), atom(ma[a])))
            if eq != mutual:
                violations += 1
        except BudgetExceededError:
            continue
    ok = basics and cases >= 100 and violations == 0
    _report("criterion 8: inference services and equality transference", ok,
            f"hydrography answers ok={basics}, {cases} transfer cases, "
            f"{violations} violations")


def test_criterion_9_alc_regression():
    classic = parse_kb("abox { (exists R . A and forall R . not A)(x0); }")
    classic_ok = (not check_consistency(classic).consistent
                  and not oracle.decide(classic).consistent)

    completed = agreed = 0
    kbs = corpus(seed=31415, size=ALC_CORPUS_SIZE, with_mbox=False)
    for kb in kbs:
        try:
            e = check_consistency(kb, node_budget=ENGINE_BUDGET).consistent
            o = oracle.decide(kb, step_budget=ORACLE_BUDGET).consistent
        except BudgetExceededError:
            continue
        completed += 1
        agreed += e == o
    ok = (classic_ok and completed >= 0.95 * ALC_CORPUS_SIZE
          and agreed == completed)
    _report("criterion 9: plain-ALC regression", ok,
            f"classic={classic_ok}, {agreed}/{completed} agree, "
            f"{completed}/{ALC_CORPUS_SIZE} completed")
