"""Entailment services and their reductions to consistency."""

import importlib.util
import random
import sys
import threading
from pathlib import Path

import pytest

from alcm import inference, oracle, semantics, syntax
from alcm.engine import DEFAULT_NODE_BUDGET, empty_root, extend_root, initialize_root
from alcm.errors import BudgetExceededError, UnknownNameError
from alcm.extraction import extract_model
from alcm.inference import (
    entails,
    entails_equality,
    entails_inequality,
    entails_instance,
    entails_metamodelling,
    entails_subsumption,
    is_meta_concept,
)
from alcm.parser import parse_kb
from alcm.randomkb import corpus
from alcm.semantics import el_set, extension, satisfies_kb
from alcm.syntax import (
    ConceptAssertion,
    Equal,
    Equivalence,
    MboxAxiom,
    NotEqual,
    RoleAssertion,
    Subsumption,
    atom,
    bot,
    conj,
    equal,
    neg,
    nnf,
    not_equal,
    top,
)

ROOT = Path(__file__).resolve().parent.parent
# Oracle steps per refereed query: the acceptance suite's 150,000 take
# seconds on a few reductions of KBs #17 and #25; those few go unrefereed.
ORACLE_BUDGET = 10_000
FRESH = "t#0"

SESSION_TEXT = """
tbox { Dam subclassof Wall; }
abox { Dam(itaipu); Wall(hadrian); }
mbox { dam =m Dam; }
"""


@pytest.fixture()
def asked(monkeypatch):
    """``asked(kb, axiom[, budget])``: entails' answer, on a fresh session,
    and the tableau calls it made."""
    monkeypatch.setattr(inference, "_session", inference._Session(None))
    calls = []
    check = inference.check_consistency
    monkeypatch.setattr(inference, "check_consistency",
                        lambda kb, budget: calls.append(kb) or check(kb, budget))

    def ask(kb, axiom, budget=DEFAULT_NODE_BUDGET):
        before = len(calls)
        return entails(kb, axiom, budget), len(calls) - before
    return ask


class TestEntails:
    def test_each_axiom_kind(self, hydro_kb):
        River, Lake = atom("River"), atom("Lake")
        assert entails(hydro_kb, Subsumption(River, neg(Lake)))
        assert not entails(hydro_kb, Subsumption(River, Lake))
        assert entails(hydro_kb, ConceptAssertion(River, "queguay"))
        assert not entails(hydro_kb, ConceptAssertion(Lake, "queguay"))
        assert entails(hydro_kb, not_equal("river", "lake"))
        assert not entails(hydro_kb, equal("river", "lake"))
        assert entails(hydro_kb, MboxAxiom("river", "River"))
        assert not entails(hydro_kb, MboxAxiom("queguay", "River"))

    def test_at_most_one_call_and_none_for_a_query_a_kept_model_falsifies(self, monkeypatch):
        calls = []
        check = inference.check_consistency
        monkeypatch.setattr(inference, "check_consistency",
                            lambda kb, budget: calls.append(kb) or check(kb, budget))

        def asked(kb, axiom, budget=DEFAULT_NODE_BUDGET):
            before = len(calls)
            return entails(kb, axiom, budget), len(calls) - before

        Dam, Wall, River = atom("Dam"), atom("Wall"), atom("River")
        # A non-entailed axiom, then one that every model falsifying it
        # falsifies too.
        refuted = [
            (Subsumption(Wall, Dam), Subsumption(Wall, conj(Dam, River))),
            (ConceptAssertion(Dam, "hadrian"), ConceptAssertion(conj(River, Dam), "hadrian")),
            (equal("hadrian", "itaipu"), equal("hadrian", "itaipu")),
            (not_equal("dam", "hadrian"), not_equal("dam", "hadrian")),
            (MboxAxiom("hadrian", "Dam"), MboxAxiom("hadrian", "Dam")),
        ]
        entailed = [Subsumption(Dam, Wall), ConceptAssertion(Wall, "itaipu"),
                    MboxAxiom("dam", "Dam")]
        # Each case starts on a KB no other query has seen, so on an empty session.
        for i, (axiom, weaker) in enumerate(refuted):
            kb = parse_kb(SESSION_TEXT + f"abox {{ Wall(w{i}); }}")
            assert asked(kb, axiom) == (False, 1)
            assert asked(kb, axiom) == (False, 0)
            assert asked(kb, weaker) == (False, 0)
            # the model answers where the tableau would run out of budget
            assert asked(kb, weaker, 1) == (False, 0)
            with pytest.raises(BudgetExceededError):
                entails(kb, entailed[0], 1)
        kb = parse_kb(SESSION_TEXT + "abox { Wall(w); }")
        assert asked(kb, refuted[0][0]) == (False, 1)
        for axiom in entailed:
            assert asked(kb, axiom) == (True, 1)
            # the answer the first ask kept; the root core it left lies in
            # the same root again (TestSessionAgreement checks that)
            assert asked(kb, axiom) == (True, 0)

    def test_a_root_holding_a_kept_core_is_entailed_with_no_call(self, hydro_kb, asked):
        # deRocha = queguay merges queguay into deRocha, and the root's core
        # is River and Lake of deRocha, which unfolding Lake subclassof not
        # River refutes; merging santaLucia into deRocha gives a root that
        # holds the same two.
        assert asked(hydro_kb, not_equal("deRocha", "queguay")) == (True, 1)
        assert asked(hydro_kb, not_equal("deRocha", "santaLucia")) == (True, 0)

    def test_an_inconsistent_kb_costs_one_call(self, hydro_circular_kb, asked):
        # the first root's core is the membership cycle through river, which
        # every later root holds: no query here merges river away
        River, Lake = atom("River"), atom("Lake")
        queries = [ConceptAssertion(Lake, "queguay"), Subsumption(River, Lake),
                   MboxAxiom("queguay", "River"), equal("river", "lake"),
                   not_equal("queguay", "deRocha"), Subsumption(top(), bot())]
        got = [asked(hydro_circular_kb, axiom) for axiom in queries]
        assert [calls for _, calls in got] == [1] + [0] * (len(queries) - 1)
        for (answer, _), axiom in zip(got, queries):
            reduced = reduction(hydro_circular_kb, axiom)
            assert answer == (not oracle.decide(reduced, ORACLE_BUDGET).consistent)

    def test_a_kept_core_is_renamed_by_the_roots_merges(self, hydro_circular_kb, asked):
        # the first root's core is the membership cycle through river;
        # lake != river is asked as K plus lake = river, whose root merges
        # river into lake, and the core renamed the same way lies in it
        assert asked(hydro_circular_kb, equal("lake", "river")) == (True, 1)
        assert asked(hydro_circular_kb, not_equal("lake", "river")) == (True, 0)
        reduced = reduction(hydro_circular_kb, not_equal("lake", "river"))
        assert not oracle.decide(reduced, ORACLE_BUDGET).consistent

    def test_no_core_crosses_kbs(self, asked):
        k1 = parse_kb(SESSION_TEXT)
        k2 = parse_kb("abox { Dam(itaipu); Wall(hadrian); } mbox { dam =m Dam; }")
        axiom = ConceptAssertion(atom("Wall"), "itaipu")
        assert asked(k1, axiom) == (True, 1)
        assert asked(k2, axiom) == (False, 1)
        # k1's cores went with its session
        assert asked(k1, axiom) == (True, 1)

    def test_a_model_without_the_set_an_mbox_query_needs_refutes_nothing(self):
        # KB #46 of seed 20240 forces A onto every element, so no element can
        # equal A's extension: K plus b != q, q =m A is inconsistent, and
        # b =m A is entailed even though b differs from that set in a model.
        kb = parse_kb("""
            tbox { B subclassof exists R . C and A; not B and not A subclassof B; }
            abox { not C(b); B or not (C or A)(b); S(c, a); }
            mbox { a =m B; b =m D; }
        """)
        assert not entails(kb, ConceptAssertion(atom("C"), "c"))
        assert not inference._session.falsifies(MboxAxiom("b", "A"))
        assert entails(kb, MboxAxiom("b", "A"))

    def test_other_records_are_refused(self, hydro_kb):
        River, Lake = atom("River"), atom("Lake")
        for axiom in (RoleAssertion("R", "river", "lake"), Equivalence(River, Lake)):
            with pytest.raises(TypeError):
                entails(hydro_kb, axiom)

    def test_every_named_individual_must_occur(self, hydro_kb):
        for axiom in (equal("river", "nosuch"), not_equal("nosuch", "river"),
                      ConceptAssertion(top(), "nosuch"), MboxAxiom("nosuch", "River")):
            with pytest.raises(UnknownNameError):
                entails(hydro_kb, axiom)

    def test_an_unknown_name_leaves_the_session_as_it_was(self, hydro_kb, asked):
        # the first query leaves a model, the second a core
        lake = ConceptAssertion(atom("Lake"), "queguay")
        assert asked(hydro_kb, lake) == (False, 1)
        assert asked(hydro_kb, not_equal("deRocha", "queguay")) == (True, 1)
        session = inference._session
        models, cores = list(session.models), list(session.cores)
        answers = dict(session.answers)
        assert models and cores and len(answers) == 2
        # on the session's KB, and on another KB that would take the slot
        for kb in (hydro_kb, parse_kb(SESSION_TEXT)):
            with pytest.raises(UnknownNameError):
                entails(kb, ConceptAssertion(top(), "nosuch"))
            assert inference._session is session
            assert session.models == models and session.cores == cores
            assert session.answers == answers
        assert asked(hydro_kb, lake) == (False, 0)
        assert asked(hydro_kb, not_equal("deRocha", "santaLucia")) == (True, 0)


class TestMetamodellingQueries:
    def test_asserted_axiom_is_entailed(self, hydro_kb):
        assert entails_metamodelling(hydro_kb, "river", "River")

    def test_plain_member_is_not_the_concept(self, hydro_kb):
        assert not entails_metamodelling(hydro_kb, "queguay", "River")
        # and there is a concrete countermodel: extend the KB with a fresh
        # witness carrying River and separate from queguay, then inspect it.
        extended = hydro_kb.extended(abox=[not_equal("queguay", "q#0")],
                                     mbox=[MboxAxiom("q#0", "River")])
        m = extract_model(extended)
        assert m is not None
        assert m.individuals["queguay"] is not el_set(m.concepts["River"])

    def test_transfer_through_individual_equality(self, hydro_kb):
        from alcm.syntax import equal
        kb = hydro_kb.extended(abox=[equal("river", "lake2")],
                               mbox=[MboxAxiom("lake2", "Lake2")])
        assert entails_metamodelling(kb, "river", "Lake2")

    def test_unknown_individual_is_flagged(self, hydro_kb):
        with pytest.raises(UnknownNameError):
            entails_metamodelling(hydro_kb, "nosuch", "River")


class TestMetaConcept:
    def test_hydrographic_object_is_a_meta_concept(self, hydro_kb):
        assert is_meta_concept(hydro_kb, atom("HydrographicObject"))

    def test_river_is_not(self, hydro_kb):
        assert not is_meta_concept(hydro_kb, atom("River"))

    def test_no_mbox_means_no_meta_concepts(self):
        kb = parse_kb("abox { A(a); }")
        assert not is_meta_concept(kb, atom("A"))


class TestEntailments:
    def test_asserted_instance(self, hydro_kb):
        assert entails_instance(hydro_kb, atom("River"), "queguay")

    def test_disjointness_subsumption(self, hydro_kb):
        assert entails_subsumption(hydro_kb, atom("River"), neg(atom("Lake")))

    def test_unrelated_subsumption_fails(self, hydro_kb):
        assert not entails_subsumption(hydro_kb, atom("River"),
                                       atom("HydrographicObject"))

    def test_inconsistent_kb_entails_everything(self, hydro_merged_kb):
        assert entails_instance(hydro_merged_kb, atom("Lake"), "queguay")
        assert entails_equality(hydro_merged_kb, "queguay", "deRocha")
        assert entails_subsumption(hydro_merged_kb, top(), bot())

    def test_disjoint_metamodelled_individuals_differ(self, hydro_kb):
        assert entails_inequality(hydro_kb, "river", "lake")
        assert not entails_equality(hydro_kb, "river", "lake")


class TestReductionSanity:
    def test_everything_is_a_top_instance(self, hydro_kb):
        for a in hydro_kb.individuals():
            assert entails_instance(hydro_kb, top(), a)

    def test_bot_instances_mean_inconsistency(self, hydro_kb, hydro_merged_kb):
        for a in hydro_kb.individuals():
            assert not entails_instance(hydro_kb, bot(), a)
        for a in hydro_merged_kb.individuals():
            assert entails_instance(hydro_merged_kb, bot(), a)

    def test_bigger_budget_same_answers(self, hydro_kb):
        queries = [
            lambda b: entails_metamodelling(hydro_kb, "river", "River", b),
            lambda b: entails_subsumption(hydro_kb, atom("River"),
                                          neg(atom("Lake")), b),
            lambda b: entails_instance(hydro_kb, atom("River"), "queguay", b),
            lambda b: is_meta_concept(hydro_kb, atom("HydrographicObject"), b),
        ]
        for q in queries:
            assert q(2 ** 20) == q(2 ** 22)


class TestEqualityTransference:
    def test_on_hydrography(self, hydro_kb):
        # river and lake are meta-modelled; their individual-level equality
        # must match concept-level mutual subsumption, both ways.
        eq = entails_equality(hydro_kb, "river", "lake")
        mutual = (entails_subsumption(hydro_kb, atom("River"), atom("Lake"))
                  and entails_subsumption(hydro_kb, atom("Lake"), atom("River")))
        assert eq == mutual == False

    def test_forced_equality(self):
        kb = parse_kb("""
            tbox { A equiv B; }
            abox { A(c); }
            mbox { a =m A; b =m B; }
        """)
        assert entails_metamodelling(kb, "a", "A")
        assert entails_metamodelling(kb, "b", "B")
        assert entails_subsumption(kb, atom("A"), atom("B"))
        assert entails_subsumption(kb, atom("B"), atom("A"))
        assert entails_equality(kb, "a", "b")


def hydro_battery(kb, monkeypatch):
    """(service, arguments) of the 75 queries of the benchmark's hydro-queries
    workload, built by the benchmark's own `workloads.hydro_battery`."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return [(getattr(inference, workloads.QUERY_SERVICES[q[0]]), q[1:])
            for q in workloads.hydro_battery(syntax, kb)]


def reduction(kb, axiom):
    """K plus the axiom's negation, built here and not by alcm.inference."""
    if isinstance(axiom, Subsumption):
        return kb.extended(abox=[ConceptAssertion(nnf(conj(axiom.lhs, neg(axiom.rhs))), FRESH)])
    if isinstance(axiom, ConceptAssertion):
        return kb.extended(abox=[ConceptAssertion(nnf(neg(axiom.concept)), axiom.individual)])
    if isinstance(axiom, Equal):
        return kb.extended(abox=[not_equal(axiom.left, axiom.right)])
    if isinstance(axiom, NotEqual):
        return kb.extended(abox=[equal(axiom.left, axiom.right)])
    return kb.extended(abox=[not_equal(axiom.individual, FRESH)],
                       mbox=[MboxAxiom(FRESH, axiom.concept_name)])


def corpus_query_mix():
    """(KB, queries) for the first 200 KBs of seed 20240: up to 25 distinct
    queries per KB, in a shuffled order; 4,567 queries in all."""
    rng = random.Random(7)
    for kb in corpus(seed=20240, size=200):
        inds = kb.individuals()
        names = sorted(kb.mbox_range() | {"A", "B"})
        queries = {ConceptAssertion(c, a) for a in inds
                   for n in names for c in (atom(n), neg(atom(n)))}
        queries |= {MboxAxiom(a, n) for a in inds for n in names}
        queries |= {Subsumption(atom(m), atom(n)) for m in names for n in names if m != n}
        queries |= {f(a, b) for a in inds for b in inds if a < b
                    for f in (equal, not_equal)}
        yield kb, rng.sample(sorted(queries, key=repr), min(25, len(queries)))


def assert_root_of(root, kb):
    """The root's Abox, Mbox and merge map are those `initialize_root` builds
    for kb."""
    label, rep = initialize_root(kb)
    assert root.abox == set(label.abox)
    assert root.mbox == set(label.mbox)
    assert root.merged == {n: r for n, r in rep.items() if n != r}
    assert root.names == set(rep)


class TestSessionRoots:
    """A session builds K's root once and extends it by each query; every
    such root is the one `initialize_root` builds for K plus the query."""

    def test_every_query_of_the_mix(self):
        total = merging = 0
        for kb, queries in corpus_query_mix():
            session = inference._Session(kb)
            for axiom in queries:
                _, abox, mbox = inference._negation(axiom)
                root = session.root_of(abox, mbox)
                assert_root_of(root, kb.extended(abox=abox, mbox=mbox))
                total += 1
                merging += root.merged is not session.root.merged
        # queries whose equality merges two classes rename K's parts
        assert total == 4567 and merging > 300

    def test_chained_equalities(self):
        # K merges c into b; the extension merges b's class into a's and d's
        # into it, through equalities in either order
        kb = parse_kb("""
            tbox { top subclassof C or D; }
            abox { b = c; C(c); R(c, d); E(e); c != d; }
            mbox { c =m C; e =m E; }
        """)
        root = extend_root(empty_root(kb.tbox), kb.abox, kb.mbox)
        assert root.merged == {"c": "b"}
        for more in ([equal("a", "b"), equal("d", "c")], [equal("c", "d"), equal("b", "a")],
                     [equal("a", "b"), equal("b", "c")]):
            extended = extend_root(root, more)
            assert_root_of(extended, kb.extended(abox=more))
            # c != d collapses to a != a exactly when d joins the class
            assert (NotEqual("a", "a") in extended.abox) == ("d" in extended.merged)
        assert extend_root(root, [equal("d", "c"), equal("a", "b")]).merged == {
            "b": "a", "c": "a", "d": "a"}
        # equalities added at once chain through a name K does not know
        more = [equal("b", "x"), equal("x", "e")]
        assert_root_of(extend_root(root, more), kb.extended(abox=more))


class TestSessionAgreement:
    """Answers through one session equal those of a fresh session per query,
    and of the oracle; every model a session keeps satisfies its KB."""

    @staticmethod
    def fresh_session(monkeypatch):
        monkeypatch.setattr(inference, "_session", inference._Session(None))

    @staticmethod
    def kept_models(kb):
        """Every model the session holds for kb, its kept verdicts extracted."""
        session = inference._session
        assert session.kb == kb
        # bot sub top holds in every model, so every kept verdict is extracted
        assert not session.falsifies(Subsumption(bot(), top()))
        assert not session.verdicts
        return session.models

    def test_hydro_battery_in_any_order(self, monkeypatch):
        kb = parse_kb((ROOT / "demos" / "hydrography.alcm").read_text(encoding="utf-8"))
        battery = hydro_battery(kb, monkeypatch)
        assert len(battery) == 75
        expected = []
        for service, args in battery:
            self.fresh_session(monkeypatch)
            expected.append(service(kb, *args))
        assert 0 < sum(expected) < len(expected)
        for seed in (1, 2, 3):
            order = list(range(len(battery)))
            random.Random(seed).shuffle(order)
            self.fresh_session(monkeypatch)
            got = {i: battery[i][0](kb, *battery[i][1]) for i in order}
            assert [got[i] for i in range(len(battery))] == expected
            models = self.kept_models(kb)
            assert models and all(satisfies_kb(m, kb) for m in models)

    def test_corpus_queries_agree_with_the_oracle(self, monkeypatch):
        calls = []
        check = inference.check_consistency
        monkeypatch.setattr(inference, "check_consistency",
                            lambda kb, budget: calls.append(kb) or check(kb, budget))
        rng = random.Random(50)
        asked = answered_from_models = unrefereed = 0
        for kb in corpus(seed=20240, size=50):
            inds = kb.individuals()
            concepts = sorted(kb.mbox_range() | {"A", "B"})
            queries = [ConceptAssertion(rng.choice([atom(c), neg(atom(c))]), rng.choice(inds))
                       for c in rng.sample(concepts, 2)]
            queries += [MboxAxiom(rng.choice(inds), c) for c in rng.sample(concepts, 2)]
            queries.append(Subsumption(atom(concepts[0]), atom(concepts[-1])))
            if len(inds) > 1:
                a, b = rng.sample(inds, 2)
                queries += [equal(a, b), not_equal(a, b)]
            for axiom in queries:
                before = len(calls)
                got = entails(kb, axiom)
                asked += 1
                answered_from_models += len(calls) == before
                try:
                    want = not oracle.decide(reduction(kb, axiom), ORACLE_BUDGET).consistent
                except BudgetExceededError:
                    unrefereed += 1
                    continue
                assert got == want, (kb, axiom)
            assert all(satisfies_kb(m, kb) for m in self.kept_models(kb))
        assert asked > 300 and answered_from_models > asked // 10 and unrefereed < 10

    def test_a_session_per_kb_answers_as_a_fresh_one_per_query(self, asked, monkeypatch):
        # The corpus query mix, each KB's queries in a shuffled order through
        # one session, against a fresh session per query.
        total = from_cores = made = 0
        for kb, queries in corpus_query_mix():
            expected = []
            for axiom in queries:
                self.fresh_session(monkeypatch)
                expected.append(entails(kb, axiom))
            self.fresh_session(monkeypatch)
            for axiom, want in zip(queries, expected):
                got, calls = asked(kb, axiom)
                assert got == want, (kb, axiom)
                from_cores += got and not calls
                made += calls
                total += 1
        assert total > 4000 and from_cores > total // 10
        # 1,545 calls; a model that lost the names an earlier query added
        # to K answers fewer queries (1,607 calls)
        assert made <= 1545

    @staticmethod
    def assert_answers_found_again(kb):
        """Every answer the session kept for kb is given again by its models
        or its cores: each "not entailed" by a kept model, each "entailed" by
        a kept core.  Returns the number of each."""
        session = inference._session
        assert session.kb == kb
        found = {False: 0, True: 0}
        for axiom, answer in session.answers.items():
            if answer:
                assert session.refutes(*inference._negation(axiom)[1:]), (kb, axiom)
            else:
                assert session.falsifies(axiom), (kb, axiom)
            found[answer] += 1
        return found

    def test_kept_answers_are_found_again(self, monkeypatch):
        # repeated queries stop at the answer table, so the models and cores
        # that answered them first are checked here directly
        kb = parse_kb((ROOT / "demos" / "hydrography.alcm").read_text(encoding="utf-8"))
        self.fresh_session(monkeypatch)
        battery = hydro_battery(kb, monkeypatch)
        for service, args in battery:
            service(kb, *args)
        found = self.assert_answers_found_again(kb)
        # the battery's 96 asks, is_meta_concept's among them, are 72 queries
        assert found[False] and found[True] and sum(found.values()) == 72
        total = {False: 0, True: 0}
        for kb, queries in corpus_query_mix():
            self.fresh_session(monkeypatch)
            for axiom in queries:
                entails(kb, axiom)
            for answer, n in self.assert_answers_found_again(kb).items():
                total[answer] += n
        assert total[False] > 1000 and total[True] > 1000
        assert sum(total.values()) == 4567

    def test_threads_sharing_the_session(self, hydro_kb, hydro_circular_kb, monkeypatch):
        # Three KBs asked in turn by more threads than cores: the one session
        # slot changes hands all the time, and no answer may change with it.
        # Each thread asks every query twice, so a query may be answered from
        # the answer its own first ask kept, or another thread's, or from a
        # model or core another query left; on the inconsistent KB every
        # query is entailed.
        kbs = (hydro_kb,
               hydro_kb.extended(tbox=[Subsumption(atom("River"), atom("HydrographicObject"))]),
               hydro_circular_kb)
        battery = [(kb, service, args) for kb in kbs
                   for service, args in hydro_battery(hydro_kb, monkeypatch)]
        expected = []
        for kb, service, args in battery:
            self.fresh_session(monkeypatch)
            expected.append(service(kb, *args))
        results, errors = {}, []

        def ask(seed):
            order = list(range(len(battery))) * 2
            random.Random(seed).shuffle(order)
            got = {i: [] for i in order}
            try:
                for i in order:
                    got[i].append(battery[i][1](battery[i][0], *battery[i][2]))
            except Exception as e:  # reported by the main thread
                errors.append(e)
            results[seed] = got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(results) == len(threads)
        for got in results.values():
            assert [got[i] for i in range(len(battery))] == [[e, e] for e in expected]


class TestAnswerTable:
    """A session keeps the answer of every query it decided, and a repeated
    query is answered from that table alone."""

    def test_warm_passes_reach_no_model_root_or_core(self, monkeypatch):
        counts = {}

        def count(owner, name):
            method = getattr(owner, name)
            counts[name] = 0

            def counted(*args, **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        for name in ("falsifies", "root_of", "refutes"):
            count(inference._Session, name)
        count(inference, "check_consistency")
        count(inference, "_negation")  # which also gives the names to check
        count(inference, "entails")  # the services call it through the module
        kb = parse_kb((ROOT / "demos" / "hydrography.alcm").read_text(encoding="utf-8"))
        battery = hydro_battery(kb, monkeypatch)
        TestSessionAgreement.fresh_session(monkeypatch)
        per_pass, answers = [], []
        for _ in range(4):
            counts.update(dict.fromkeys(counts, 0))
            answers.append([service(kb, *args) for service, args in battery])
            per_pass.append(dict(counts))
        first = per_pass[0]
        assert first["check_consistency"] == 26
        # is_meta_concept asks some queries more than once within a pass, so
        # the first pass already answers those from the table
        assert first["entails"] > len(battery)
        # each query missing from the table is negated, then tried on the models
        assert 0 < first["_negation"] == first["falsifies"] < first["entails"]
        for later in per_pass[1:]:
            assert later == dict(first, falsifies=0, root_of=0, refutes=0, check_consistency=0,
                                 _negation=0)
        assert all(a == answers[0] for a in answers)

    def test_a_refused_query_is_refused_every_time(self, hydro_kb):
        # a query that names an unknown individual, or that no service
        # decides, never enters the table
        for axiom, error in ((ConceptAssertion(top(), "nosuch"), UnknownNameError),
                             (RoleAssertion("R", "river", "lake"), TypeError)):
            for _ in range(3):
                with pytest.raises(error):
                    entails(hydro_kb, axiom)
                assert axiom not in inference._session.answers

    def test_a_query_over_budget_keeps_no_answer(self, hydro_kb, asked):
        # one entailed query and one not entailed, each first asked with a
        # budget its tableau call runs out of
        for axiom, want in ((not_equal("deRocha", "queguay"), True),
                            (ConceptAssertion(atom("Lake"), "queguay"), False)):
            with pytest.raises(BudgetExceededError):
                asked(hydro_kb, axiom, 1)
            assert axiom not in inference._session.answers
            assert asked(hydro_kb, axiom) == (want, 1)
            assert inference._session.answers[axiom] is want
            # the kept answer needs no budget
            assert asked(hydro_kb, axiom, 1) == (want, 0)

    def test_warm_passes_compute_no_extension(self, monkeypatch):
        calls, computed = [], []
        check = inference.check_consistency
        monkeypatch.setattr(inference, "check_consistency",
                            lambda kb, budget: calls.append(kb) or check(kb, budget))
        # semantics' own recursion, through which `holds` and the model
        # checks evaluate every concept
        monkeypatch.setattr(semantics, "extension",
                            lambda m, c: computed.append(c) or extension(m, c))
        kb = parse_kb((ROOT / "demos" / "hydrography.alcm").read_text(encoding="utf-8"))
        battery = hydro_battery(kb, monkeypatch)
        TestSessionAgreement.fresh_session(monkeypatch)
        per_pass = []
        for _ in range(4):
            del calls[:], computed[:]
            answers = [service(kb, *args) for service, args in battery]
            per_pass.append((len(calls), len(computed), answers))
        assert [c for c, _, _ in per_pass] == [26, 0, 0, 0]
        # later passes answer every query from the session's answer table
        assert per_pass[0][1] > 0 and [n for _, n, _ in per_pass[1:]] == [0, 0, 0]
        assert all(a == per_pass[0][2] for _, _, a in per_pass)
