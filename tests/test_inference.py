"""Entailment services and their reductions to consistency."""

import pytest

from alcm import inference
from alcm.errors import UnknownNameError
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
from alcm.semantics import el_set
from alcm.syntax import (
    ConceptAssertion,
    Equivalence,
    MboxAxiom,
    RoleAssertion,
    Subsumption,
    atom,
    bot,
    equal,
    neg,
    not_equal,
    top,
)


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

    def test_one_consistency_call_per_query(self, hydro_kb, monkeypatch):
        calls = []
        check = inference.check_consistency
        monkeypatch.setattr(inference, "check_consistency",
                            lambda kb, budget: calls.append(kb) or check(kb, budget))
        entails_equality(hydro_kb, "river", "lake")
        entails_metamodelling(hydro_kb, "queguay", "River")
        assert len(calls) == 2

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
