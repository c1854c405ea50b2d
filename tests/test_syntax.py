"""Concept term language: interning, NNF, subconcepts, substitution."""

import copy
import gc
import importlib
import pickle
import sys
import threading
import uuid
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from alcm import oracle, syntax
from alcm.engine import ABSURDITY, check_consistency
from alcm.parser import parse_kb
from alcm.randomkb import corpus
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
    disj,
    equal,
    exists,
    forall,
    neg,
    nnf,
    nnf_abox,
    nnf_tbox,
    not_equal,
    rename_abox,
    rename_mbox,
    subconcepts,
    top,
)

from nnf_reference import forget_nnf, reference_nnf

A, B, C = atom("A"), atom("B"), atom("C")


names = st.sampled_from(["A", "B", "C"])
roles = st.sampled_from(["R", "S"])
concepts = st.recursive(
    st.one_of(st.just(top()), st.just(bot()), names.map(atom)),
    lambda kids: st.one_of(
        kids.map(neg),
        st.tuples(kids, kids).map(lambda t: conj(*t)),
        st.tuples(kids, kids).map(lambda t: disj(*t)),
        st.tuples(roles, kids).map(lambda t: exists(*t)),
        st.tuples(roles, kids).map(lambda t: forall(*t)),
    ),
    max_leaves=12,
)


class TestInterning:
    def test_structural_sharing(self):
        assert conj(A, neg(B)) is conj(atom("A"), neg(atom("B")))
        assert exists("R", conj(A, B)) is exists("R", conj(A, B))

    def test_distinct_shapes_distinct_objects(self):
        assert conj(A, B) is not conj(B, A)
        assert disj(A, B) is not conj(A, B)

    @given(concepts, concepts)
    def test_total_order(self, c, d):
        assert (c.key < d.key) or (d.key < c.key) or (c is d)


class TestNnf:
    def test_pushes_negated_conjunction(self):
        assert nnf(neg(conj(A, B))) is disj(neg(A), neg(B))

    def test_double_negation(self):
        assert nnf(neg(neg(A))) is A

    def test_atom_is_fixed(self):
        assert nnf(A) is A

    def test_negated_constants(self):
        assert nnf(neg(top())) is bot()
        assert nnf(neg(bot())) is top()

    def test_negated_quantifiers(self):
        assert nnf(neg(forall("R", A))) is exists("R", neg(A))
        assert nnf(neg(exists("R", A))) is forall("R", neg(A))

    def test_constant_folding(self):
        assert nnf(disj(bot(), A)) is A
        assert nnf(conj(top(), A)) is A
        assert nnf(conj(bot(), A)) is bot()
        assert nnf(disj(top(), A)) is top()

    @given(concepts)
    def test_idempotent(self, c):
        assert nnf(nnf(c)) is nnf(c)

    @given(concepts)
    def test_negation_only_on_atoms(self, c):
        for d in subconcepts(nnf(c)):
            if d.tag == syntax.NOT:
                assert d.child.tag == syntax.ATOM

    @given(concepts)
    def test_no_constants_under_connectives(self, c):
        for d in subconcepts(nnf(c)):
            if d.tag in (syntax.AND, syntax.OR):
                assert d.left.tag not in (syntax.TOP, syntax.BOT)
                assert d.right.tag not in (syntax.TOP, syntax.BOT)


def kb_concepts(kb) -> list:
    """The concepts of a KB: those of its concept assertions, both sides of
    each Tbox axiom, and each axiom's internalised concepts."""
    out = [a.concept for a in kb.abox if type(a) is ConceptAssertion]
    for ax in kb.tbox:
        out += [ax.lhs, ax.rhs, disj(neg(ax.lhs), ax.rhs)]
        if type(ax) is Equivalence:
            out.append(disj(neg(ax.rhs), ax.lhs))
    return out


def slice_concepts() -> list:
    """Every subconcept of the concepts of the first 300 KBs of seed 20240,
    and the negation of each, in key order."""
    found = set()
    for kb in corpus(seed=20240, size=300):
        for c in kb_concepts(kb):
            found |= subconcepts(c)
    found |= {neg(c) for c in found}
    return sorted(found, key=lambda c: c.key)


def fresh_concepts(n: int) -> list:
    """Three concepts for each of ``n`` pairs of atoms no earlier call has
    interned, with every connective, negations of compound concepts, and
    constants."""
    tag = uuid.uuid4().hex
    out = []
    for k in range(n):
        x, y = atom(f"{tag}x{k}"), atom(f"{tag}y{k}")
        body = disj(conj(x, neg(B)), forall("R", neg(conj(y, top()))))
        out += [neg(conj(body, exists("S", neg(disj(x, bot()))))), neg(neg(body)),
                disj(neg(exists("R", body)), conj(y, neg(forall("S", x))))]
    return out


class TestNnfMemo:
    """`nnf` keeps each result on the interned concept: whatever filled the
    memo, and in whatever order, every call must give the reference NNF."""

    def test_a_memo_the_engine_filled_agrees_with_the_reference(self):
        concepts = slice_concepts()
        forget_nnf()
        for kb in corpus(seed=20240, size=300):
            check_consistency(kb)
        filled = [c for c in concepts if c.nnf_form is not None]
        assert len(filled) > 500
        for c in filled:
            assert c.nnf_form is reference_nnf(c)
        for c in concepts:
            assert nnf(c) is reference_nnf(c)

    @pytest.mark.parametrize("order", ["shallow first", "deep first"])
    def test_a_memo_direct_calls_filled_agrees_with_the_reference(self, order):
        concepts = sorted(slice_concepts(), key=lambda c: len(subconcepts(c)),
                          reverse=order == "deep first")
        forget_nnf()
        assert all(nnf(c) is reference_nnf(c) for c in concepts)
        assert all(c.nnf_form is reference_nnf(c) for c in concepts)

    def test_a_normal_form_is_its_own(self):
        concepts = slice_concepts() + fresh_concepts(20)
        forget_nnf()
        for c in concepts:
            assert nnf(nnf(c)) is nnf(c)
            assert nnf(c).nnf_form is nnf(c)

    def test_threads_get_the_same_objects(self):
        concepts = fresh_concepts(150)  # no memo filled yet
        n_threads = 4
        start = threading.Barrier(n_threads, timeout=30)
        made = [None] * n_threads

        def normalise(i):
            start.wait()
            order = range(len(concepts)) if i % 2 else reversed(range(len(concepts)))
            made[i] = sorted((k, nnf(concepts[k])) for k in order)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=normalise, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert all(m is not None for m in made)
        for k, c in enumerate(concepts):
            want = reference_nnf(c)
            assert all(m[k][1] is want for m in made)
            assert c.nnf_form is want

    def test_copies_of_a_memoised_concept_are_the_concept(self):
        c = neg(conj(A, exists("R", neg(disj(B, C)))))
        n = nnf(c)
        for x in (c, n, neg(n)):
            assert pickle.loads(pickle.dumps(x)) is x
            assert copy.copy(x) is x
            assert copy.deepcopy(x) is x
        assert c.nnf_form is n and n.nnf_form is n


class TestNnfWithoutRecursion:
    """`nnf` loops over an explicit stack, so depth is no limit."""

    N = 1000

    def fresh_atoms(self):
        tag = uuid.uuid4().hex
        return [atom(f"{tag}{k}") for k in range(self.N)]

    def test_a_flat_conjunction_of_1000_atoms(self):
        big = reduce(conj, self.fresh_atoms())  # left-nested, 999 deep
        assert nnf(big) is big

    def test_its_negation(self):
        atoms = self.fresh_atoms()
        assert nnf(neg(reduce(conj, atoms))) is reduce(disj, [neg(a) for a in atoms])

    def test_a_1000_deep_chain_of_not_exists(self):
        # c_0 = A, c_k = not exists R . c_{k-1}; so nnf(c_k) = forall R . nnf(not c_{k-1})
        # and nnf(not c_k) = exists R . nnf(c_{k-1})
        x = self.fresh_atoms()[0]
        c, pos, negated = x, x, neg(x)
        for _ in range(self.N):
            c = neg(exists("R", c))
            pos, negated = forall("R", negated), exists("R", pos)
        assert nnf(c) is pos
        assert nnf(neg(c)) is negated


class TestOracleNnf:
    """The oracle puts its input into NNF with its own, unmemoised copy of
    the rewrite, so that it stays a fixed yardstick; it must give the very
    concepts `syntax.nnf` gives."""

    def test_the_oracle_nnf_is_the_engine_nnf_on_the_slice(self):
        for kb in corpus(seed=20240, size=300):
            for c in kb_concepts(kb):
                assert oracle._nnf(c) is nnf(c)
            assert oracle._nnf_tbox(kb.tbox) == nnf_tbox(kb.tbox)
            assert oracle._nnf_abox(kb.abox) == nnf_abox(kb.abox)


class TestNnfTbox:
    def test_disjointness_axiom(self):
        out = nnf_tbox({Subsumption(conj(atom("River"), atom("Lake")), bot())})
        assert out == {disj(neg(atom("River")), neg(atom("Lake")))}

    def test_empty(self):
        assert nnf_tbox(set()) == frozenset()

    def test_global_existential(self):
        out = nnf_tbox({Subsumption(top(), exists("S", A))})
        assert out == {exists("S", A)}

    def test_equivalence_gives_both_directions(self):
        out = nnf_tbox({Equivalence(A, B)})
        assert out == {disj(neg(A), B), disj(neg(B), A)}


class TestSubconcepts:
    def test_under_existential(self):
        c = exists("R", conj(A, B))
        assert subconcepts(c) == {c, conj(A, B), A, B}

    def test_atom(self):
        assert subconcepts(A) == {A}

    def test_negated_atom(self):
        assert subconcepts(neg(A)) == {neg(A), A}

    @given(concepts)
    def test_bounded_by_syntactic_length(self, c):
        def size(d):
            if d.tag in (syntax.TOP, syntax.BOT, syntax.ATOM):
                return 1
            if d.tag in (syntax.AND, syntax.OR):
                return 1 + size(d.left) + size(d.right)
            return 1 + size(d.child)

        assert len(subconcepts(c)) <= size(c)


class TestSubstitution:
    def test_abox_replacement(self):
        abox = {ConceptAssertion(C, "b"), RoleAssertion("R", "b", "c")}
        out = rename_abox(abox, {"b": "a"})
        assert out == {ConceptAssertion(C, "a"), RoleAssertion("R", "a", "c")}

    def test_mbox_replacement(self):
        assert rename_mbox({MboxAxiom("b", "B")}, {"b": "a"}) == {MboxAxiom("a", "B")}

    def test_can_create_self_inequality(self):
        out = rename_abox({not_equal("a", "b")}, {"b": "a"})
        assert out == {NotEqual("a", "a")}

    def test_deduplicates(self):
        abox = {ConceptAssertion(C, "a"), ConceptAssertion(C, "b")}
        assert rename_abox(abox, {"b": "a"}) == {ConceptAssertion(C, "a")}

    def test_never_introduces_new_names(self):
        abox = {RoleAssertion("R", "b", "c"), not_equal("b", "c")}
        out = rename_abox(abox, {"b": "a"})
        seen = {n for x in out for n in syntax.assertion_individuals(x)}
        assert seen <= {"a", "c"}

    def test_many_name_map(self):
        # every name is looked up in the original map (no chaining), and
        # (in)equality pairs are re-sorted after renaming
        abox = {equal("a", "c"), not_equal("b", "d"), RoleAssertion("R", "a", "b"),
                ConceptAssertion(C, "c")}
        ren = {"a": "z", "b": "a", "c": "b"}
        assert rename_abox(abox, ren) == {
            Equal("b", "z"), NotEqual("a", "d"), RoleAssertion("R", "z", "a"),
            ConceptAssertion(C, "b")}
        mbox = {MboxAxiom("a", "A"), MboxAxiom("c", "C"), MboxAxiom("d", "B")}
        assert rename_mbox(mbox, ren) == {
            MboxAxiom("z", "A"), MboxAxiom("b", "C"), MboxAxiom("d", "B")}


class TestRecordEquality:
    def test_equal_and_notequal_are_distinct(self):
        assert equal("a", "b") != not_equal("a", "b")
        assert len({equal("a", "b"), not_equal("a", "b")}) == 2

    def test_subsumption_and_equivalence_are_distinct(self):
        assert Subsumption(A, B) != Equivalence(A, B)

    def test_pairs_are_canonicalized(self):
        assert equal("b", "a") == Equal("a", "b")
        assert not_equal("b", "a") == NotEqual("a", "b")


def reference_assertion_key(a):
    """The sort key of an assertion as it was computed before assertions
    stored their own: class rank by isinstance dispatch, then the fields."""
    if isinstance(a, ConceptAssertion):
        return (0, a.concept.key, a.individual)
    if isinstance(a, RoleAssertion):
        return (1, a.role, a.subject, a.object)
    if isinstance(a, Equal):
        return (2, a.left, a.right)
    return (3, a.left, a.right)


class TestRecords:
    def test_equal_fields_give_one_object(self):
        assert ConceptAssertion(conj(A, B), "a") is ConceptAssertion(conj(A, B), "a")
        assert RoleAssertion("R", "a", "b") is RoleAssertion("R", "a", "b")
        assert Equal("a", "b") is equal("b", "a")
        assert NotEqual("a", "b") is not_equal("b", "a")
        assert Equal("a", "b") is not NotEqual("a", "b")
        assert RoleAssertion("R", "a", "b") is not RoleAssertion("R", "b", "a")

    @pytest.mark.parametrize("record, field", [
        (ConceptAssertion(A, "a"), "individual"), (RoleAssertion("R", "a", "b"), "role"),
        (Equal("a", "b"), "left"), (NotEqual("a", "b"), "right")])
    def test_fields_cannot_be_set(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, "z")
        with pytest.raises(AttributeError):
            record.key = ()
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) != "z"

    def test_stored_key_orders_every_label_as_the_reference_key(self):
        labels = 0
        for kb in corpus(seed=20240, size=400):
            for j in check_consistency(kb).graph.labels:
                if j is ABSURDITY:
                    continue
                labels += 1
                assert all(a.key == reference_assertion_key(a) for a in j.abox)
                assert list(j.abox) == sorted(j.abox, key=reference_assertion_key)
        assert labels > 3000

    def test_copies_are_the_interned_objects(self):
        c = conj(A, exists("R", neg(B)))
        for x in (c, ConceptAssertion(c, "a"), RoleAssertion("R", "a", "b"),
                  Equal("a", "b"), NotEqual("a", "b")):
            assert pickle.loads(pickle.dumps(x)) is x
            assert copy.copy(x) is x
            assert copy.deepcopy(x) is x

    def test_a_deep_copied_kb_keeps_its_verdict(self):
        # a copied concept that is not the interned one hides the clash
        kb = copy.deepcopy(parse_kb("abox { A(a); }"))
        assert not check_consistency(kb.extended(abox=[ConceptAssertion(neg(A), "a")])).consistent

    def test_one_object_per_key_across_threads(self):
        tag = uuid.uuid4().hex  # names no earlier call has interned
        n_threads, n_keys = 6, 300
        start = threading.Barrier(n_threads, timeout=30)
        made = [None] * n_threads

        def intern_all(i):
            start.wait()
            out = []
            for k in (range(n_keys) if i % 2 else reversed(range(n_keys))):
                x = f"{tag}{k}"
                out.append((k, ConceptAssertion(conj(atom(x), B), x), RoleAssertion("R", x, "z"),
                            Equal(x, "z"), NotEqual(x, "z")))
            made[i] = sorted(out, key=lambda t: t[0])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=intern_all, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert all(m is not None for m in made)
        for rows in zip(*made):
            for records in list(zip(*rows))[1:]:
                assert all(r is records[0] for r in records)
                assert type(records[0])(*records[0]._values()) is records[0]


def _alcm_module_names():
    return [k for k in sys.modules if k == "alcm" or k.startswith("alcm.")]


def test_reimported_copies_of_alcm_are_collected():
    # Nothing at module level may hand a reference to a module's own classes
    # to a process-wide cache (typing caches every Union[...] it builds), or
    # each fresh import pins the old copy and its intern tables for good.
    in_use = {k: sys.modules[k] for k in _alcm_module_names()}
    try:
        for _ in range(20):
            for name in _alcm_module_names():
                del sys.modules[name]
            importlib.import_module("alcm")
    finally:
        for name in _alcm_module_names():
            del sys.modules[name]
        sys.modules.update(in_use)
    gc.collect()
    stale = [o for o in gc.get_objects()
             if isinstance(o, type) and o.__name__ == "Concept"
             and o.__module__ == "alcm.syntax" and o is not syntax.Concept]
    assert stale == []
