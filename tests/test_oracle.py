"""Naive completion-forest tableau used as the differential reference."""

import pytest

from alcm import oracle
from alcm.engine import check_consistency
from alcm.errors import BudgetExceededError
from alcm.extraction import model_from_verdict
from alcm.parser import parse_kb
from alcm.randomkb import corpus
from alcm.semantics import satisfies_kb
from alcm.syntax import atom

from conftest import HYDRO_TEXT


def witness_text(n: int) -> str:
    """n pairwise different individuals, each meta-modelled onto its own
    concept: `neq` gives every pair its own fresh difference witness, and
    no one element can witness them all.  Consistent for every n."""
    names = [f"a{i}" for i in range(1, n + 1)]
    neqs = " ".join(f"{x} != {y};" for i, x in enumerate(names) for y in names[i + 1:])
    mbox = " ".join(f"{x} =m C{i};" for i, x in enumerate(names, 1))
    return f"abox {{ {neqs} }} mbox {{ {mbox} }}"


# KBs that reach a corner of one rule, with the rule the engine must apply
RULE_CORNERS = [pytest.param(witness_text(n), "neq", id=f"neq-witnesses-{n}")
                for n in range(2, 6)] + [
    # two `eq` merges on one individual, from its own Mbox axioms or
    # through an equality
    pytest.param("abox { A(x); not C(x); } mbox { a =m A; a =m B; a =m C; }",
                 "eq", id="eq-twice-clash"),
    pytest.param("abox { A(x); not D(x); } mbox { a =m A; a =m B; a =m C; }",
                 "eq", id="eq-twice"),
    pytest.param("abox { a = b; A(x); B(y); } mbox { a =m A; b =m B; b =m C; }",
                 "eq", id="eq-twice-merged"),
    # `close` whose merged branch is refuted; the separated branch lives in
    # the first, and dies in the second, whose Tbox makes A and B equal
    pytest.param("abox { A(c); not B(c); } mbox { a =m A; b =m B; }",
                 "close", id="close-separated"),
    pytest.param("tbox { A subclassof B; B subclassof A; }"
                 " abox { C(a); not C(b); } mbox { a =m A; b =m B; }",
                 "close", id="close-neither"),
    # `trans'` with several universals on one role
    pytest.param("abox { (exists R . A and forall R . B and forall R . (not B or C)"
                 " and forall R . not C)(x); }", "trans'", id="trans-clash"),
    pytest.param("abox { (exists R . A and forall R . B and forall R . (not A or C))(x); }",
                 "trans'", id="trans"),
    pytest.param("abox { (exists R . A)(x); (exists R . not A)(x); (forall R . (B or C))(x);"
                 " (forall R . not C)(x); (forall R . not B)(x); }",
                 "trans'", id="trans-two-successors"),
]


class TestInitializeForest:
    def test_equality_class_representative_keeps_labels(self):
        f = oracle.initialize_forest(parse_kb("abox { a = b; C(b); }"))
        assert f.find("b") == "a"
        assert set(f.labels["a"]) == {atom("C")}
        assert set(f.labels["b"]) == set()

    def test_role_edges(self):
        f = oracle.initialize_forest(parse_kb("abox { R(a, b); }"))
        assert f.succ["a"]["b"] == {"R"}

    def test_hydrography_has_six_representatives(self):
        f = oracle.initialize_forest(parse_kb(HYDRO_TEXT))
        reps = [n for n in f.nodes if f.find(n) == n]
        assert len(reps) == 6
        assert set(f.labels["river"]) == {atom("HydrographicObject")}


class TestExpandForest:
    def test_hydrography_consistent(self, hydro_kb):
        assert oracle.decide(hydro_kb).consistent

    def test_circular_extension_inconsistent(self, hydro_circular_kb):
        assert not oracle.decide(hydro_circular_kb).consistent

    def test_classic_unsatisfiable_concept(self):
        kb = parse_kb("abox { (exists R . A and forall R . not A)(x); }")
        assert not oracle.decide(kb).consistent

    def test_merged_disjoint_individuals_inconsistent(self, hydro_merged_kb):
        assert not oracle.decide(hydro_merged_kb).consistent

    def test_budget_is_an_error(self, hydro_kb):
        with pytest.raises(BudgetExceededError):
            oracle.decide(hydro_kb, step_budget=3)


class TestBlocking:
    def test_blocking_terminates_global_existential_chains(self):
        kb = parse_kb("tbox { top subclassof exists S . A; } abox { B(d); }")
        assert oracle.decide(kb).consistent

    def test_verdicts_agree_with_and_without_blocking(self):
        # Without blocking a global existential can expand forever, so
        # budget-outs are expected there; verdicts must agree on the rest.
        agree = checked = 0
        for kb in corpus(seed=55, size=60):
            try:
                with_b = oracle.decide(kb, step_budget=1500, use_blocking=True)
                without_b = oracle.decide(kb, step_budget=1500, use_blocking=False)
            except BudgetExceededError:
                continue
            checked += 1
            agree += with_b.consistent == without_b.consistent
        assert checked >= 40
        assert agree == checked


class TestMetaRules:
    def test_restricted_oracle_agrees_on_mbox_free_kbs(self):
        checked = 0
        for kb in corpus(seed=77, size=120, with_mbox=False):
            try:
                full = oracle.decide(kb, step_budget=30000)
                restricted = oracle.decide(kb, step_budget=30000, enable_meta=False)
            except BudgetExceededError:
                continue
            checked += 1
            assert full.consistent == restricted.consistent
        assert checked >= 110

    def test_meta_rules_never_fire_without_an_mbox(self):
        for kb in corpus(seed=78, size=60, with_mbox=False):
            f = oracle.initialize_forest(kb)
            try:
                oracle.expand_forest(f, step_budget=30000)
            except BudgetExceededError:
                pass  # the counter is still meaningful: nothing fired
            assert f.meta_rule_firings == 0


class TestAgainstEngine:
    def test_small_batch_agreement(self):
        for kb in corpus(seed=500, size=120):
            try:
                e = check_consistency(kb, node_budget=30000).consistent
                o = oracle.decide(kb, step_budget=60000).consistent
            except BudgetExceededError:
                continue
            assert e == o, kb

    def test_agreement_with_deeper_metamodelling(self):
        # three mbox axioms over five individuals exercise chained
        # merge-or-separate choices and double meta-modelling
        import random

        from alcm.randomkb import random_kb

        rng = random.Random(616)
        for _ in range(60):
            kb = random_kb(rng, max_mbox=3, max_abox=6,
                           individuals=("a", "b", "c", "d", "e"))
            try:
                e = check_consistency(kb, node_budget=100000).consistent
                o = oracle.decide(kb, step_budget=100000).consistent
            except BudgetExceededError:
                continue
            assert e == o, kb

    @pytest.mark.parametrize("text, rule", RULE_CORNERS)
    def test_rule_corners(self, text, rule):
        kb = parse_kb(text)
        v = check_consistency(kb)
        g = v.graph
        applied = [nid for nid, ra in enumerate(g.rules) if ra is not None and ra.rule == rule]
        assert len(applied) >= (2 if rule == "eq" else 1)
        if rule == "close":  # the merged branch is the first child
            assert all(g.edges[nid][0] in g.unsat for nid in applied)
        assert v.consistent == oracle.decide(kb).consistent
        if v.consistent:
            assert satisfies_kb(model_from_verdict(kb, v), kb)
