"""Model extraction: saturation paths, R-graphs, nested-set unfolding."""

import gc
import time
from collections import Counter

import pytest

from alcm.engine import BaseJudgement, check_consistency, difference_witness, make_base
from alcm.extraction import (
    RGraph,
    build_rgraph,
    check_saturated,
    extract_model,
    model_from_verdict,
    saturation_path,
    unfold_sets,
)
from alcm.parser import parse_kb
from alcm.randomkb import corpus
from alcm.semantics import (
    el_atom,
    el_set,
    extension,
    interpretation_to_json,
    satisfies_kb,
)
from alcm.syntax import (
    ConceptAssertion,
    MboxAxiom,
    assertion_individuals,
    atom,
    conj,
    disj,
    forall,
    neg,
    not_equal,
)

import digests
from conftest import MULTI_PAIR_TEXTS, multi_pair_corpus
from graph_checks import is_acyclic, meta_order, reference_rgraph

A, B = atom("A"), atom("B")


def _marking_of(kb_text):
    v = check_consistency(parse_kb(kb_text))
    assert v.consistent
    return v.graph, v.marking


class TestSaturationPath:
    def test_and_node_is_its_own_path(self):
        g, m = _marking_of("abox { (exists R . A)(d); }")
        assert g.kinds[g.root] == "and"
        assert saturation_path(g, m, g.root) == [g.root]

    def test_path_shape(self, hydro_kb):
        # every node but the last is an or-node, consecutive nodes are
        # marking choices, and the path closes on an and-node
        v = check_consistency(hydro_kb)
        path = saturation_path(v.graph, v.marking, v.graph.root)
        for n, nxt in zip(path, path[1:]):
            assert v.graph.kinds[n] == "or"
            assert v.marking.choice[n] == nxt
        assert v.graph.kinds[path[-1]] in ("and", "end")

    def test_or_node_steps_to_chosen_child(self):
        g, m = _marking_of("abox { (A or B)(x); }")
        assert g.kinds[g.root] == "or"
        path = saturation_path(g, m, g.root)
        assert path == [g.root, m.choice[g.root]]
        assert g.kinds[path[-1]] == "end"

    def test_example_graph_path_ends_where_only_existentials_remain(
            self, example_graph_kb):
        v = check_consistency(example_graph_kb)
        path = saturation_path(v.graph, v.marking, v.graph.root)
        last = path[-1]
        assert isinstance(v.graph.labels[last], BaseJudgement)
        assert v.graph.rules[last].rule == "trans'"


class TestBuildRGraph:
    def test_single_existential(self):
        g, m = _marking_of("abox { (exists R . A)(d); }")
        rg, terminal, merges = build_rgraph(g, m)
        assert rg.delta == ("d", "y#0")
        assert rg.labels["y#0"] == {A}
        assert rg.edges == {"R": frozenset({("d", "y#0")})}
        assert merges == []

    def test_canonical_example_keeps_named_individuals(self):
        g, m = _marking_of("abox { B(a); A(c); A(d); } mbox { a =m A; b =m B; }")
        rg, terminal, _ = build_rgraph(g, m)
        assert {"a", "b", "c", "d"} <= set(rg.delta)
        assert A in rg.labels["c"] and A in rg.labels["d"]
        assert B in rg.labels["a"]
        assert rg.edges == {}

    def test_identical_existentials_share_one_witness(self):
        g, m = _marking_of("abox { (exists R . A)(d1); (exists R . A)(d2); }")
        rg, _, _ = build_rgraph(g, m)
        assert rg.delta == ("d1", "d2", "y#0")
        assert rg.edges["R"] == {("d1", "y#0"), ("d2", "y#0")}

    def test_self_referential_witness_for_global_existential(self):
        # top subclassof exists S . A forces an infinite chain in a tree
        # model; label reuse folds it into one reflexive witness.
        g, m = _marking_of("tbox { top subclassof exists S . A; } abox { B(d); }")
        rg, _, _ = build_rgraph(g, m)
        y = [x for x in rg.delta if x.startswith("y#")]
        assert len(y) == 1
        assert (y[0], y[0]) in rg.edges["S"]

    def test_witness_reuses_individual_with_identical_label(self):
        # d itself satisfies everything its own successor must, so the
        # construction points the existential edge back at d.
        g, m = _marking_of("tbox { top subclassof exists S . A; } abox { A(d); }")
        rg, terminal, _ = build_rgraph(g, m)
        assert rg.delta == ("d",)
        assert rg.edges["S"] == {("d", "d")}
        assert check_saturated(rg, terminal) == []


def _only_in(terminal) -> dict:
    """Individuals of a terminal label by the one kind of record that names
    them, for those that occur in one kind only."""
    kinds = {}
    for a in terminal.abox:
        t = type(a).__name__
        for x in assertion_individuals(a):
            kinds.setdefault(x, set()).add(t)
    for m in terminal.mbox:
        kinds.setdefault(m.individual, set()).add("MboxAxiom")
    return {x: k.pop() for x, k in kinds.items() if len(k) == 1}


class TestRGraphReference:
    """`build_rgraph`'s one typed pass against `graph_checks.reference_rgraph`,
    which lists the individuals first and labels them in a second pass."""

    # an individual only in a role assertion, only in an inequality, only
    # in the Mbox
    TEXTS = ("abox { A(a); R(a, b); }",
             "abox { A(a); a != b; }",
             "abox { B(b); } mbox { a =m A; }",
             "abox { (exists R . A)(a); S(a, c); a != d; } mbox { e =m B; }")

    @staticmethod
    def check_rgraphs(kbs) -> Counter:
        seen = Counter()
        for kb in kbs:
            v = check_consistency(kb, node_budget=50_000)
            if not v.consistent:
                continue
            rg, terminal, merges = build_rgraph(v.graph, v.marking)
            ref_rg, ref_terminal, ref_merges = reference_rgraph(v.graph, v.marking)
            assert rg.delta == ref_rg.delta
            assert rg.labels == ref_rg.labels and list(rg.labels) == list(ref_rg.labels)
            assert rg.edges == ref_rg.edges
            assert terminal is ref_terminal and merges == ref_merges
            seen["consistent"] += 1
            seen["trans'"] += v.graph.kinds[v.graph.nodes[terminal]] == "and"
            seen.update(_only_in(terminal).values())
        return seen

    def test_first_300_corpus_kbs(self):
        seen = self.check_rgraphs(corpus(seed=20240, size=300))
        assert seen["consistent"] == 221 and seen["trans'"] >= 20
        assert min(seen[k] for k in ("RoleAssertion", "NotEqual", "MboxAxiom")) >= 10

    def test_held_out_corpus_seed(self):
        assert self.check_rgraphs(corpus(seed=7, size=300))["consistent"] >= 200

    def test_multi_pair_kbs(self):
        kbs = multi_pair_corpus(5, 100) + [parse_kb(t) for t in MULTI_PAIR_TEXTS]
        assert self.check_rgraphs(kbs)["consistent"] >= 60

    def test_worked_examples_and_lone_individuals(self, hydro_kb, example_graph_kb):
        seen = self.check_rgraphs([hydro_kb, example_graph_kb]
                                  + [parse_kb(t) for t in self.TEXTS])
        assert seen["consistent"] == 6 and seen["trans'"] >= 2
        assert seen["RoleAssertion"] >= 2
        assert seen["NotEqual"] >= 2
        assert seen["MboxAxiom"] >= 2


class TestCheckSaturated:
    def test_extracted_graphs_are_saturated(self, hydro_kb, example_graph_kb):
        for kb in (hydro_kb, example_graph_kb):
            v = check_consistency(kb)
            rg, terminal, _ = build_rgraph(v.graph, v.marking)
            assert check_saturated(rg, terminal) == []

    def test_missing_universal_propagation_is_reported(self):
        rg = RGraph(
            delta=("x", "y"),
            labels={"x": frozenset({forall("R", A)}), "y": frozenset()},
            edges={"R": frozenset({("x", "y")})},
        )
        terminal = make_base((), {ConceptAssertion(forall("R", A), "x")}, ())
        conditions = [v.condition for v in check_saturated(rg, terminal)]
        assert conditions == ["univ"]

    def test_metamodelling_self_membership_is_reported(self):
        rg = RGraph(delta=("a",), labels={"a": frozenset({A})}, edges={})
        terminal = make_base((), {ConceptAssertion(A, "a")}, {MboxAxiom("a", "A")})
        conditions = [v.condition for v in check_saturated(rg, terminal)]
        assert "mbox-circularity" in conditions

    @staticmethod
    def separated_pair(witness_label):
        # a =m A, b =m B, a != b, and one more element carrying witness_label
        rg = RGraph(delta=("a", "b", "fresh#0"),
                    labels={"a": frozenset(), "b": frozenset(),
                            "fresh#0": frozenset(witness_label)},
                    edges={})
        abox = {not_equal("a", "b")} | {ConceptAssertion(c, "fresh#0")
                                         for c in witness_label}
        terminal = make_base((), abox, {MboxAxiom("a", "A"), MboxAxiom("b", "B")})
        return check_saturated(rg, terminal)

    def test_each_extra_axiom_on_an_individual_is_reported(self):
        # a carries three axioms, b one and c two: one violation for each
        # axiom past an individual's least, in Mbox order
        rg = RGraph(delta=("a", "b", "c"),
                    labels={"a": frozenset(), "b": frozenset(), "c": frozenset()},
                    edges={})
        mbox = [MboxAxiom("c", "F"), MboxAxiom("a", "C"), MboxAxiom("b", "D"),
                MboxAxiom("a", "A"), MboxAxiom("c", "E"), MboxAxiom("a", "B")]
        terminal = make_base((), (), mbox)
        found = [v for v in check_saturated(rg, terminal) if v.condition == "mbox-functional"]
        assert found == [("mbox-functional", "a"), ("mbox-functional", "a"),
                         ("mbox-functional", "c")]

    def test_missing_difference_witness_is_reported(self):
        assert self.separated_pair(set()) == [("mbox-difference-witness", "a vs b")]

    def test_only_the_engines_witness_counts(self):
        mirrored = disj(conj(B, neg(A)), conj(neg(B), A))
        found = self.separated_pair({mirrored, conj(B, neg(A)), B, neg(A)})
        assert [v.condition for v in found] == ["mbox-difference-witness"]
        assert self.separated_pair(
            {difference_witness("A", "B"), conj(A, neg(B)), A, neg(B)}) == []


class TestInducedInterpretation:
    def idealized_canonical_rgraph(self):
        return RGraph(
            delta=("a", "b", "c", "d"),
            labels={"a": frozenset({B}), "b": frozenset(),
                    "c": frozenset({A}), "d": frozenset({A})},
            edges={},
        )

    def test_concept_extensions_from_labels(self):
        interp = unfold_sets(self.idealized_canonical_rgraph(), (), {"A", "B"})
        assert interp.concepts["A"] == {el_atom("c"), el_atom("d")}
        assert interp.concepts["B"] == {el_atom("a")}

    def test_empty_labels_empty_extensions(self):
        rg = RGraph(delta=("x",), labels={"x": frozenset()}, edges={})
        interp = unfold_sets(rg, (), {"A"})
        assert interp.concepts == {"A": frozenset()}

    def test_labelled_concepts_hold_at_their_elements(self, hydro_kb):
        v = check_consistency(hydro_kb)
        rg, _, _ = build_rgraph(v.graph, v.marking)
        interp = unfold_sets(rg, (), hydro_kb.concept_names())
        for x in rg.delta:
            for c in rg.labels[x]:
                assert el_atom(x) in extension(interp, c)

    def test_distinct_metamodelled_individuals_get_distinct_extensions(self):
        # The neq rule adds a difference witness for every pair of
        # meta-modelled individuals that stays distinct in the terminal
        # judgement, so the induced extensions of their concepts differ.
        # Nothing is promised for an Mbox pair of the input KB that the
        # close rule merges, so each KB here carries an explicit a != b over
        # its two meta-modelled individuals, as criterion 8 builds its cases.
        import random

        from alcm.errors import BudgetExceededError
        from alcm.randomkb import CONCEPT_NAMES, INDIVIDUALS, random_kb

        rng = random.Random(4242)
        checked = 0
        for _ in range(40):
            kb = random_kb(rng, with_mbox=False)
            ia, ib = rng.sample(INDIVIDUALS, 2)
            ca, cb = rng.sample(CONCEPT_NAMES, 2)
            kb = kb.extended(abox=[not_equal(ia, ib)],
                             mbox=[MboxAxiom(ia, ca), MboxAxiom(ib, cb)])
            try:
                v = check_consistency(kb, node_budget=50000)
            except BudgetExceededError:
                continue
            if not v.consistent:
                continue
            rg, terminal, _ = build_rgraph(v.graph, v.marking)
            interp = unfold_sets(rg, (), kb.concept_names())
            concept_of = {m.individual: m.concept_name for m in sorted(terminal.mbox)}
            names = sorted(concept_of)
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    checked += 1
                    assert (interp.concepts.get(concept_of[a], frozenset())
                            != interp.concepts.get(concept_of[b], frozenset()))
        assert checked >= 10


def hydrography_extended_rgraph():
    """Hand-built saturated shape for the hydrography KB plus a
    hydrographic =m HydrographicObject level on top."""
    HO = atom("HydrographicObject")
    River, Lake = atom("River"), atom("Lake")
    return RGraph(
        delta=("deRocha", "delSauce", "hydrographic", "lake",
               "queguay", "river", "santaLucia"),
        labels={
            "queguay": frozenset({River}), "santaLucia": frozenset({River}),
            "deRocha": frozenset({Lake}), "delSauce": frozenset({Lake}),
            "river": frozenset({HO}), "lake": frozenset({HO}),
            "hydrographic": frozenset(),
        },
        edges={},
    )


HYDRO_EXT_MBOX = {MboxAxiom("river", "River"), MboxAxiom("lake", "Lake"),
                  MboxAxiom("hydrographic", "HydrographicObject")}


class TestUnfoldSets:
    def test_hydrography_unfolding(self):
        interp = unfold_sets(hydrography_extended_rgraph(), HYDRO_EXT_MBOX, ())
        q, sl = el_atom("queguay"), el_atom("santaLucia")
        dr, ds = el_atom("deRocha"), el_atom("delSauce")
        assert interp.individuals["river"] is el_set([q, sl])
        assert interp.individuals["queguay"] is q
        assert interp.individuals["hydrographic"] is el_set(
            [el_set([q, sl]), el_set([dr, ds])])

    def test_canonical_example_unfolding(self):
        rg = RGraph(
            delta=("a", "b", "c", "d"),
            labels={"a": frozenset({B}), "b": frozenset(),
                    "c": frozenset({A}), "d": frozenset({A})},
            edges={},
        )
        mbox = {MboxAxiom("a", "A"), MboxAxiom("b", "B")}
        interp = unfold_sets(rg, mbox, ())
        c, d = el_atom("c"), el_atom("d")
        cd = el_set([c, d])
        assert interp.individuals["a"] is cd
        assert interp.individuals["b"] is el_set([cd])
        assert interp.domain == {cd, el_set([cd]), c, d}

    def test_circular_graph_is_rejected_not_looped_on(self):
        rg = RGraph(delta=("a",), labels={"a": frozenset({A})}, edges={})
        with pytest.raises(ValueError, match="circular"):
            unfold_sets(rg, {MboxAxiom("a", "A")}, ())

    @pytest.mark.parametrize("collect", [set, tuple, list],
                             ids=["set", "unsorted-tuple", "list"])
    def test_an_individual_meta_modelled_twice_is_rejected(self, collect):
        rg = RGraph(delta=("a", "b"), labels={"a": frozenset(), "b": frozenset()}, edges={})
        mbox = [MboxAxiom("b", "C"), MboxAxiom("a", "A"), MboxAxiom("b", "B")]
        with pytest.raises(ValueError, match=r"^b is meta-modelled twice$"):
            unfold_sets(rg, collect(mbox), ())
        # one axiom given twice is one axiom
        twice = collect([MboxAxiom("a", "A"), MboxAxiom("b", "B"), MboxAxiom("a", "A")])
        assert set(unfold_sets(rg, twice, ()).concepts) == {"A", "B"}

    def test_meta_order_is_acyclic_on_extracted_graphs(self, hydro_kb):
        v = check_consistency(hydro_kb)
        rg, terminal, _ = build_rgraph(v.graph, v.marking)
        assert is_acyclic(set(rg.delta), meta_order(rg, terminal.mbox))


class TestExtractModel:
    def test_hydrography_end_to_end(self, hydro_kb):
        interp = extract_model(hydro_kb)
        assert satisfies_kb(interp, hydro_kb)
        assert interp.individuals["river"] is el_set(
            [el_atom("queguay"), el_atom("santaLucia")])
        assert max(e.rank for e in interp.domain) <= len(hydro_kb.mbox)

    def test_inconsistent_kb_has_no_model(self, hydro_circular_kb):
        assert extract_model(hydro_circular_kb) is None

    def test_a_name_known_only_through_equalities_gets_a_fresh_element(self):
        kb = parse_kb("abox { a = b; C(c); }")
        interp = extract_model(kb)
        assert interp.individuals["a"] is interp.individuals["b"] is el_atom("a")
        assert interp.domain == {el_atom("a"), el_atom("c")}
        assert satisfies_kb(interp, kb)

    def test_initialization_merge_keeps_original_names_resolvable(self):
        kb = parse_kb("abox { a = b; C(b); }")
        interp = extract_model(kb)
        assert interp.individuals["b"] is interp.individuals["a"]
        assert satisfies_kb(interp, kb)

    def test_close_merge_keeps_original_names_resolvable(self):
        # two individuals meta-modelled onto the same concept: the chosen
        # branch merges them, and the model must still resolve both names.
        kb = parse_kb("mbox { a =m A; b =m A; } abox { A(c); }")
        v = check_consistency(kb)
        _, _, merges = build_rgraph(v.graph, v.marking)
        interp = model_from_verdict(kb, v)
        assert satisfies_kb(interp, kb)
        if merges:
            assert interp.individuals["b"] is interp.individuals["a"]

    def test_extraction_leaves_nothing_for_the_cyclic_collector(self, hydro_kb):
        # reference counting alone frees everything extraction builds
        v = check_consistency(hydro_kb)
        gc.collect()
        gc.disable()
        try:
            model_from_verdict(hydro_kb, v)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unfolded_set_identity_is_injective(self, hydro_kb):
        v = check_consistency(hydro_kb)
        rg, terminal, _ = build_rgraph(v.graph, v.marking)
        interp = unfold_sets(rg, terminal.mbox, hydro_kb.concept_names())
        images = [interp.individuals[x] for x in rg.delta]
        assert len(set(images)) == len(rg.delta)


class TestModelsAreStable:
    def test_every_concept_name_of_the_kb_is_listed(self):
        # KB #7 of seed 20240 has a =m D and c =m B; close merges a into c
        # and keeps c =m B, so no label and no Mbox on the path names D
        kb = corpus(seed=20240, size=8)[7]
        concepts = interpretation_to_json(extract_model(kb))["concepts"]
        assert concepts["D"] == []
        assert list(concepts) == ["A", "B", "C", "D"]

    def test_models_match_the_pinned_digest(self):
        # one digest over the models of the consistent KBs among the first
        # 300 corpus KBs; a change to which model is extracted must update
        # it on purpose
        digest, consistent = digests.model_digest()
        assert consistent >= 200
        assert digest == digests.MODEL_DIGEST

    @pytest.mark.parametrize("text", [
        # one label with 400 atoms took 3.2 s while each element's label
        # was sorted and searched once per existential
        "abox { (" + " and ".join(f"A{i}" for i in range(400)) + ")(a); }",
        # 2,000 successors took 3.5 s while each one scanned the domain
        # for an element with an equal label
        "abox { " + " ".join(f"(exists R . A{i})(a);" for i in range(2000)) + " }",
    ], ids=["conjunction-400", "existentials-2000"])
    def test_large_labels_extract_quickly(self, text):
        kb = parse_kb(text)
        v = check_consistency(kb)
        assert v.consistent
        start = time.perf_counter()
        interp = model_from_verdict(kb, v)
        assert time.perf_counter() - start < 1.0
        assert satisfies_kb(interp, kb)
