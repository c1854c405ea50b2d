"""And-or graph engine: initialization, rules, graph construction, verdicts."""

import copy
import os
import subprocess
import sys

import pytest

from alcm import oracle, syntax
from alcm.digraph import find_cycle
from alcm.engine import (
    ABSURDITY,
    ANONYMOUS,
    FRESH_PREFIX,
    RULES,
    BaseJudgement,
    VariableJudgement,
    _extend,
    absorb,
    applicable_rule,
    build_graph,
    check_consistency,
    circular,
    consistent_marking,
    format_trace,
    initialize_root,
    make_base,
    make_variable,
    unsat_nodes,
)
from alcm.errors import BudgetExceededError
from alcm.extraction import model_from_verdict
from alcm.parser import parse_kb
from alcm.randomkb import corpus
from alcm.semantics import satisfies_kb
from alcm.syntax import (
    ConceptAssertion,
    Equal,
    KnowledgeBase,
    MboxAxiom,
    NotEqual,
    abox_individuals,
    assertion_key,
    atom,
    conj,
    disj,
    exists,
    forall,
    neg,
    nnf_abox,
    nnf_tbox,
    not_equal,
    rename_abox,
    rename_mbox,
)

import digests
from conftest import (
    HYDRO_INDIVIDUALS,
    core_kb,
    multi_pair_corpus,
    tbox_chain_text,
    thrash_text,
)
from rule_reference import reference_absorb, reference_rule

A, B, C, D, E = (atom(x) for x in "ABCDE")

# KBs with several Mbox concept-name pairs, so neq makes several fresh
# individuals in one label.
MULTI_PAIR_TEXTS = (
    "abox { C(c); not (A and (C or A))(g); }"
    " mbox { a =m A; a =m E; b =m B; b =m D; c =m F; d =m B; g =m B; g =m C; }",
    "tbox { B or B or A equiv forall R . (F or D); }"
    " abox { not (A or C) and B(c); S(d, e); }"
    " mbox { b =m E; d =m C; e =m F; f =m C; }",
)


def irrelevant_disjunctions(n: int) -> str:
    """n disjunctions that play no part in the clash of Z1 or Z2 with
    not Z1 and not Z2; unsatisfiable."""
    return " and ".join([f"(X{i} or Y{i})" for i in range(n)]
                        + ["(Z1 or Z2)", "not Z1", "not Z2"])


def pigeonhole(n: int) -> str:
    """n + 1 pigeons in n holes, P_i_j for pigeon i in hole j; unsatisfiable."""
    holes = [" or ".join(f"P{i}_{j}" for j in range(n)) for i in range(n + 1)]
    apart = [f"not P{i}_{j} or not P{k}_{j}"
             for j in range(n) for i in range(n + 1) for k in range(i + 1, n + 1)]
    return " and ".join(f"({c})" for c in holes + apart)


def tree(n: int) -> str:
    """C_n: an R-successor in A_n, one not in A_n, and C_{n-1} on every
    R-successor, with C_0 = top; satisfiable, with 2^n leaves."""
    if n == 0:
        return "top"
    return f"(exists R . A{n}) and (exists R . not A{n}) and (forall R . ({tree(n - 1)}))"


def under_exists(body: str) -> KnowledgeBase:
    """The KB that asserts an R-successor of a satisfying ``body``."""
    return parse_kb(f"abox {{ (exists R . ({body}))(a); }}")


class TestInitializeRoot:
    def test_hydro_instantiates_tbox_on_every_individual(self):
        # hydrography's one axiom is absorbed as Lake subclassof not River,
        # so only the added general concept goes on every individual; the
        # label still carries the whole Tbox
        kb = parse_kb("""
            tbox { River and Lake subclassof bot;
                   top subclassof HydrographicObject or Wall; }
            abox { HydrographicObject(river); HydrographicObject(lake);
                   River(queguay); River(santaLucia);
                   Lake(deRocha); Lake(delSauce); }
            mbox { river =m River; lake =m Lake; }
        """)
        root, _ = initialize_root(kb)
        absorbed = disj(neg(atom("River")), neg(atom("Lake")))
        general = disj(atom("HydrographicObject"), atom("Wall"))
        assert set(root.tbox) == {absorbed, general}
        assert reference_absorb(root.tbox) == (
            [general], [(atom("Lake"), neg(atom("River")))])
        for x in HYDRO_INDIVIDUALS:
            assert ConceptAssertion(general, x) in root.abox
            assert ConceptAssertion(absorbed, x) not in root.abox

    def test_equality_merges_to_least_name(self):
        kb = parse_kb("abox { a = b; C(b); }")
        root, merges = initialize_root(kb)
        assert set(root.abox) == {ConceptAssertion(C, "a")}
        assert merges == {"a": "a", "b": "a"}

    def test_inequality_survives_merge_as_self_inequality(self):
        kb = parse_kb("abox { a = b; a != b; }")
        root, _ = initialize_root(kb)
        assert NotEqual("a", "a") in root.abox

    def test_equality_only_individuals_still_get_the_tbox(self):
        # an individual known only through an equality is still a domain
        # element, so a contradictory Tbox must reach it
        kb = parse_kb("tbox { top subclassof bot; } abox { d = d; }")
        root, _ = initialize_root(kb)
        assert ConceptAssertion(syntax.bot(), "d") in root.abox
        assert not check_consistency(kb).consistent


class TestAbsorb:
    def test_nested_disjunctions_are_flattened(self):
        # ((B or not A) or (C or D)) absorbs on not A, and the rest keep
        # their order, left-nested
        general, absorbed = absorb((disj(disj(B, neg(A)), disj(C, D)),))
        assert general == ()
        assert absorbed == {A: (disj(disj(B, C), D),)}

    def test_the_least_negated_atom_absorbs(self):
        general, absorbed = absorb((disj(disj(neg(C), neg(B)), A),))
        assert general == () and absorbed == {B: (disj(neg(C), A),)}

    def test_a_lone_negated_atom_stays_general(self):
        # A subclassof bot, written once or twice, never branches
        assert absorb((neg(A),)) == ((neg(A),), {})
        assert absorb((disj(neg(A), neg(A)),)) == ((disj(neg(A), neg(A)),), {})

    def test_a_concept_with_no_negated_atom_stays_general(self):
        tbox = tuple(sorted((disj(A, B), forall("R", neg(A)), conj(neg(A), B),
                             disj(exists("R", A), forall("R", neg(B)))),
                            key=assertion_key))
        assert absorb(tbox) == (tbox, {})

    def test_eq_axioms_absorb_both_ways(self, example_graph_kb):
        # A or not B is B subclassof A, and B or not A is A subclassof B
        assert absorb((disj(A, neg(B)), disj(B, neg(A)))) == ((), {A: (B,), B: (A,)})
        g = build_graph(example_graph_kb)
        (eq_node,) = [u for u, ra in enumerate(g.rules) if ra is not None and ra.rule == "eq"]
        unfolded = {g.rules[u].principal[0].concept for u, ra in enumerate(g.rules)
                    if ra is not None and ra.rule == "unfold"}
        assert unfolded == {A} and set(absorb(g.labels[g.edges[eq_node][0]].tbox)[1]) == {A, B}

    def test_the_result_does_not_depend_on_order_or_hash_seed(self):
        tbox = [disj(neg(B), C), disj(neg(A), C), disj(neg(A), D), disj(C, D), neg(E),
                disj(neg(A), disj(neg(B), E))]
        want = absorb(tuple(sorted(tbox, key=assertion_key)))
        assert want == absorb(tuple(tbox)) == absorb(tuple(reversed(tbox)))
        assert list(want[1]) == [A, B] and want[1][A] == (C, D, disj(neg(B), E))
        code = ("from alcm.engine import absorb, initialize_root\n"
                "from alcm.parser import parse_kb\n"
                "from alcm.syntax import concept_to_str as s\n"
                "t = initialize_root(parse_kb('tbox { B subclassof C; A subclassof C or D;"
                " A and B subclassof E; top subclassof C or D; E subclassof bot; }'))[0].tbox\n"
                "g, a = absorb(t)\n"
                "print([s(c) for c in g], [(s(k), [s(d) for d in v]) for k, v in a.items()])\n")
        outs = {subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed,
                 "PYTHONPATH": os.path.dirname(os.path.dirname(syntax.__file__))}).stdout
            for seed in ("0", "1", "2")}
        assert outs == {"['not E', 'C or D'] [('A', ['C or D', 'not B or E']), ('B', ['C'])]\n"}

    def test_tbox_chain_is_unfolded_only_from_a0(self):
        # 4,028 nodes while every individual carried every not A_i or A_i+1:
        # each b_j branched on all of them
        v = check_consistency(parse_kb(tbox_chain_text(32)))
        assert v.consistent
        assert len(v.graph.labels) <= 40

    @pytest.mark.parametrize("n", [0, 4, 8, 16])
    def test_thrash_family_needs_no_branching(self, n):
        # 41 to 169 nodes while B or not B or C stood on every individual;
        # absorbed as B subclassof B or C, it unfolds on d alone
        v = check_consistency(parse_kb(thrash_text(n)))
        assert v.consistent
        assert len(v.graph.labels) <= 10


def root_by_composition(kb):
    """The root and merge map composed from the whole-set helpers: NNF of
    the Abox, union-find over the equalities (least name wins), the renaming
    of Abox and Mbox, the general Tbox concepts of `reference_absorb` on
    every representative, then `make_base`."""
    tbox_c = nnf_tbox(kb.tbox)
    abox_n = nnf_abox(kb.abox)
    names = sorted(abox_individuals(abox_n) | kb.mbox_dom())
    parent = {n: n for n in names}

    def find(n):
        while parent[n] != n:
            n = parent[n]
        return n

    for a in sorted((x for x in abox_n if isinstance(x, Equal)), key=assertion_key):
        ra, rb = find(a.left), find(a.right)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    rep = {n: find(n) for n in names}
    merged = rename_abox((a for a in abox_n if not isinstance(a, Equal)), rep)
    mbox = rename_mbox(kb.mbox, rep)
    dom = set(rep.values()) | {m.individual for m in mbox}
    general, _ = reference_absorb(tbox_c)
    tbox_assertions = {ConceptAssertion(c, a) for c in general for a in dom}
    return make_base(tbox_c, merged | tbox_assertions, mbox), rep


class TestRootDifferential:
    CHAIN = "abox { a = b; b = c; a != c; }"

    def test_one_pass_root_equals_the_composition(self):
        kbs = corpus(seed=20240, size=500) + [parse_kb(self.CHAIN)]
        # the equality branch must be exercised, not only the plain one
        assert sum(any(isinstance(a, Equal) for a in kb.abox) for kb in kbs) >= 50
        for kb in kbs:
            root, merges = initialize_root(kb)
            want, want_merges = root_by_composition(kb)
            assert (root.tbox, root.abox, root.mbox) == (want.tbox, want.abox, want.mbox)
            assert list(merges.items()) == list(want_merges.items())

    def test_equality_chain_keeps_the_self_inequality(self):
        root, merges = initialize_root(parse_kb(self.CHAIN))
        assert root.abox == (NotEqual("a", "a"),)
        assert merges == {"a": "a", "b": "a", "c": "a"}


class TestCircular:
    def test_two_axiom_loop(self):
        abox = {ConceptAssertion(A, "a"), ConceptAssertion(B, "b")}
        mbox = {MboxAxiom("a", "A"), MboxAxiom("b", "B")}
        assert circular(abox, mbox) is not None

    def test_four_node_graph_finds_exact_cycle(self):
        abox = {ConceptAssertion(atom("A1"), "a0"), ConceptAssertion(atom("A0"), "a2"),
                ConceptAssertion(atom("A3"), "a2"), ConceptAssertion(atom("A2"), "a1")}
        mbox = {MboxAxiom(f"a{i}", f"A{i}") for i in range(4)}
        assert circular(abox, mbox) == ["a0", "a1", "a2"]

    def test_hydro_is_acyclic(self, hydro_kb):
        root, _ = initialize_root(hydro_kb)
        assert circular(root.abox, root.mbox) is None


def concepts_of(j) -> set:
    """The concept set of a role successor's label."""
    assert type(j) is VariableJudgement and j.mbox == ()
    assert all(a.individual == ANONYMOUS for a in j.abox)
    return {a.concept for a in j.abox}


class TestApplicableRule:
    def test_variable_clash(self):
        j = make_variable((), {A, neg(A), disj(C, D)})
        ra = applicable_rule(j)
        assert ra.rule == "bot1" and ra.conclusions == (ABSURDITY,)
        assert ra.principal == (ConceptAssertion(A, ANONYMOUS),
                                ConceptAssertion(neg(A), ANONYMOUS))
        # the certificate names the clashing concepts, not the anonymous name
        v = check_consistency(parse_kb("abox { (exists R . (A and not A))(a); }"))
        assert v.certificate.describe() == "clash: A / not A"

    def test_circularity_beats_static_rules(self):
        j = make_base((), {ConceptAssertion(A, "a"), ConceptAssertion(B, "b")},
                      {MboxAxiom("a", "A"), MboxAxiom("b", "B")})
        assert applicable_rule(j).rule == "bot3"

    def test_double_metamodelling_transfers_to_tbox(self):
        j = make_base((), {ConceptAssertion(C, "c")},
                      {MboxAxiom("a", "A"), MboxAxiom("a", "B")})
        ra = applicable_rule(j)
        assert ra.rule == "eq"
        (concl,) = ra.conclusions
        assert set(concl.tbox) == {disj(A, neg(B)), disj(B, neg(A))}
        # the added axioms are absorbed and unfolded where A or B holds, so
        # no individual gets an assertion for them
        assert concl.abox == j.abox
        assert set(concl.mbox) == {MboxAxiom("a", "A")}

    def test_transitional_rule_bundles_universals_and_tbox(self):
        # on a role successor, whose successor is a role successor again
        j = make_variable((E,), {exists("R", A), forall("R", B), forall("R", neg(C))})
        ra = applicable_rule(j)
        assert ra.rule == "trans'" and ra.connective == "and"
        assert ra.principal == (ConceptAssertion(exists("R", A), ANONYMOUS),)
        (concl,) = ra.conclusions
        assert concl == make_variable((E,), {A, B, neg(C), E})
        assert concepts_of(concl) == {A, B, neg(C), E}

    def test_end_node(self):
        j = make_base((), {ConceptAssertion(A, "a")}, ())
        assert applicable_rule(j) is None

    def test_conjunction_keeps_principal_and_fires_when_one_part_missing(self):
        j = make_base((), {ConceptAssertion(conj(A, B), "x"), ConceptAssertion(A, "x")}, ())
        ra = applicable_rule(j)
        assert ra.rule == "and'"
        (concl,) = ra.conclusions
        assert ConceptAssertion(conj(A, B), "x") in concl.abox
        assert ConceptAssertion(B, "x") in concl.abox

    def test_disjunction_skipped_when_a_branch_is_present(self):
        j = make_base((), {ConceptAssertion(disj(A, B), "x"), ConceptAssertion(A, "x")}, ())
        assert applicable_rule(j) is None

    def test_successor_rules_keep_the_principal(self):
        j = make_variable((), {conj(A, B)})
        ra = applicable_rule(j)
        assert ra.rule == "and'"
        (concl,) = ra.conclusions
        assert concepts_of(concl) == {conj(A, B), A, B}
        j2 = make_variable((), {disj(A, B), C})
        ra2 = applicable_rule(j2)
        assert ra2.rule == "or'"
        left, right = ra2.conclusions
        assert concepts_of(left) == {disj(A, B), A, C}
        assert concepts_of(right) == {disj(A, B), B, C}
        assert applicable_rule(left) is None

    def test_inequality_of_metamodelled_pair_creates_witness(self):
        j = make_base((), {not_equal("a", "b")},
                      {MboxAxiom("a", "A"), MboxAxiom("b", "B")})
        ra = applicable_rule(j)
        assert ra.rule == "neq"
        (concl,) = ra.conclusions
        w = disj(conj(A, neg(B)), conj(neg(A), B))
        assert ConceptAssertion(w, "fresh#0") in concl.abox


class TestMakeBase:
    def test_derived_label_skips_assertions_already_present(self):
        j = make_base((), {ConceptAssertion(A, "a"), ConceptAssertion(B, "b")}, ())
        assert _extend(j, (ConceptAssertion(A, "a"), ConceptAssertion(C, "a"))) == \
            make_base((), set(j.abox) | {ConceptAssertion(C, "a")}, ())

    def test_every_base_label_is_canonical(self, sample):
        # labels derived from their parent must be exactly what make_base
        # builds from scratch, or the global cache would split
        for g in sample:
            for label in g.labels:
                if isinstance(label, BaseJudgement):
                    again = make_base(label.tbox, label.abox, label.mbox)
                    assert (again.tbox, again.abox, again.mbox) == \
                        (label.tbox, label.abox, label.mbox)


class TestBuildGraph:
    def test_example_graph_root_closes_on_metamodelled_pair(self, example_graph_kb):
        g = build_graph(example_graph_kb)
        ra = g.rules[g.root]
        assert ra.rule == "close" and ra.principal == ("a", "b")
        # frozen from a hand-checked trace dump of this construction: `eq`
        # adds A or not B and B or not A to the Tbox alone, absorbed as
        # B subclassof A and A subclassof B, so its child goes straight to
        # trans'; the merge branch dies on d's R-successor, where unfolding
        # A adds B beside not B, so the trans' node gets the core
        # {exists R . A(d), forall R . not B(d)}, which `eq` takes as its
        # own; the separated branch closes through the neq witness; and two
        # more nodes (the unfolded S-successor beside the dead R-successor,
        # and the witness's right disjunct) are built but never expanded.
        # 24 nodes, 3 of them open, while `eq` also asserted
        # (A or not B) and (B or not A) of every individual
        assert len(g.labels) == 15
        assert g.kinds.count("open") == 2

    def test_empty_kb_is_a_single_end_node(self):
        g = build_graph(parse_kb(""))
        assert len(g.labels) == 1
        assert g.kinds[g.root] == "end"

    def test_immediate_clash(self):
        g = build_graph(parse_kb("abox { A(a); not A(a); }"))
        assert len(g.labels) == 2
        assert g.rules[g.root].rule == "bot1"
        assert g.labels[g.children(g.root)[0]] is ABSURDITY

    def test_budget_exhaustion_is_an_error_not_a_verdict(self, hydro_kb):
        with pytest.raises(BudgetExceededError):
            build_graph(hydro_kb, node_budget=10)

    def test_satisfiable_left_disjunct_leaves_the_right_unexpanded(self):
        g = build_graph(parse_kb("abox { (A or B)(a); }"))
        left, right = g.children(g.root)
        assert g.kinds[left] == "end"
        assert g.kinds[right] == "open"
        assert g.rules[right] is None and g.edges[right] == []

    def test_traces_match_the_pinned_digest(self):
        # one digest over the traces and certificates of 100 corpus KBs; a
        # change to which nodes are built, or in what order, must update it
        # on purpose
        assert digests.trace_digest() == digests.TRACE_DIGEST

    def test_digests_do_not_depend_on_record_addresses(self):
        # assertions hash by identity, so every set of them iterates in an
        # order set by where the records sit in memory; a child process
        # re-interns every record in four shuffled orders, and neither the
        # traces nor the models may move
        out = subprocess.run(
            [sys.executable, digests.__file__, "1", "2", "3", "4"],
            check=True, capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(
                [os.path.dirname(os.path.dirname(syntax.__file__)),
                 os.path.dirname(digests.__file__)])}).stdout
        assert out.splitlines() == [f"{digests.TRACE_DIGEST} {digests.MODEL_DIGEST}"] * 4

    def test_node_totals_stay_bounded(self):
        # 19,790 and 18,707 nodes while `eq` also asserted
        # (A or not B) and (B or not A) of every individual, which branched
        # on what unfolding its absorbed axioms already gives
        def total(kbs):
            return sum(len(build_graph(kb, node_budget=50_000).labels) for kb in kbs)
        multi_pair = [kb for seed in (3, 4, 5) for kb in multi_pair_corpus(seed, 200)]
        assert total(multi_pair) <= 10_000
        assert total(corpus(seed=20240, size=2000)) <= 16_000

    def test_construction_stops_once_the_root_is_decided(self):
        # this corpus KB took 38,312 nodes when the graph was expanded to
        # fixpoint before deciding; its consistent marking has 30
        kb = corpus(seed=20240, size=138)[137]
        v = check_consistency(kb)
        assert v.consistent
        assert len(v.graph.labels) <= 100


class TestCores:
    def test_corpus_kb_211_stops_thrashing(self):
        # 1,272 nodes when every combination of the earlier disjunctions
        # was retried under the `close` whose separated branch always dies
        v = check_consistency(corpus(seed=20240, size=212)[211])
        assert v.consistent
        assert len(v.graph.labels) <= 60

    def test_corpus_kb_257_is_refuted_through_one_existential(self):
        # 280 nodes when a dead role successor refuted its trans' node
        # with the whole Abox as core
        v = check_consistency(corpus(seed=20240, size=258)[257])
        assert not v.consistent
        assert len(v.graph.labels) <= 40

    @pytest.mark.parametrize("n", [0, 2, 4, 8])
    def test_thrash_family_decides_in_linear_nodes(self, n):
        # without backjumping, n = 2 took 29,864 nodes and n = 4 over 500,000
        v = check_consistency(parse_kb(thrash_text(n)), node_budget=10_000)
        assert v.consistent
        assert len(v.graph.labels) <= 150

    def test_no_backjump_through_the_merged_branch(self):
        # merging a and b makes A = B, so the merged branch dies on the
        # clash A(c), not B(c); that core lies in the root's Abox, but is
        # unsat only under the merged Mbox
        kb = parse_kb("abox { A(c); not B(c); } mbox { a =m A; b =m B; }")
        v = check_consistency(kb)
        g = v.graph
        merged, separated = g.children(g.root)
        assert g.rules[g.root].rule == "close"
        assert merged in g.unsat and g.cores[merged] <= set(g.labels[g.root].abox)
        assert v.consistent and oracle.decide(kb).consistent

    @pytest.mark.parametrize("extra, consistent", [((), True), ((neg(C),), False)])
    def test_fresh_names_are_kept_in_the_child(self, extra, consistent):
        # fresh individuals are named directly here; the engine makes them
        # for neq.  The left child of the disjunction is its parent plus
        # A(fresh#1) under the parent's names, so its clash core
        # {A(fresh#1), not A(fresh#1)} minus what it added is its part of
        # the parent's core
        f0, f1 = "fresh#0", "fresh#1"
        kb = KnowledgeBase.of((), [ConceptAssertion(B, f0), ConceptAssertion(neg(A), f1),
                                   ConceptAssertion(disj(A, C), f1)]
                              + [ConceptAssertion(c, f1) for c in extra], ())
        v = check_consistency(kb)
        g = v.graph
        root, left = g.labels[g.root], g.labels[g.children(g.root)[0]]
        assert set(left.abox) == set(root.abox) | {ConceptAssertion(A, f1)}
        assert v.consistent == consistent == oracle.decide(kb).consistent
        for u, core in g.cores.items():
            assert core <= set(g.labels[u].abox)
            assert not oracle.decide(core_kb(g.labels[u], core)).consistent

    def test_irrelevant_disjunctions_in_a_role_successor_are_not_retried(self):
        # 65,553 nodes while role successors recorded no core: every
        # combination of the 14 disjunctions was tried; asserted of `a`
        # itself the family takes 48
        v = check_consistency(under_exists(irrelevant_disjunctions(14)), node_budget=10_000)
        assert not v.consistent
        assert len(v.graph.labels) <= 60

    def test_irrelevant_universals_stay_out_of_a_trans_core(self):
        # 3,072 nodes while a dead role successor gave its trans' node every
        # universal on its role as core: each disjunction's universal then
        # blocked the backjump past it, though the clash is A, not A
        body = " ".join(f"((forall R . C{i}) or D{i})(a);" for i in range(10))
        kb = parse_kb(f"abox {{ (exists R . A)(a); (forall R . not A)(a); {body} }}")
        v = check_consistency(kb)
        g = v.graph
        assert not v.consistent
        assert len(g.labels) <= 30
        for u, core in g.cores.items():
            if g.kinds[u] == "and":
                assert core <= set(g.labels[u].abox)
                assert not oracle.decide(core_kb(g.labels[u], core)).consistent

    def test_pigeonhole_in_a_role_successor_backjumps(self):
        # 4,369 nodes without cores in role successors, against 386 when
        # asserted of `a`; each backjump inside the successor rests on a
        # core the oracle refutes on its own
        v = check_consistency(under_exists(pigeonhole(3)), node_budget=10_000)
        g = v.graph
        assert not v.consistent
        assert len(g.labels) <= 400
        jumps = [u for u in g.core_child if type(g.labels[u]) is VariableJudgement]
        assert jumps
        for u in jumps:
            j, core = g.labels[u], g.cores[u]
            assert core == g.cores[g.core_child[u]] and core <= set(j.abox)
            assert not oracle.decide(core_kb(j, core)).consistent

    def test_multi_pair_kb_is_consistent_in_few_nodes(self):
        # 2,737 nodes while fresh individuals were renumbered per label,
        # which kept a renumbered child from backjumping
        kb = parse_kb(MULTI_PAIR_TEXTS[0])
        v = check_consistency(kb)
        assert v.consistent and oracle.decide(kb).consistent
        assert len(v.graph.labels) <= 1000

    def test_multi_pair_kb_with_a_role_is_decided_in_few_nodes(self):
        # 4,363 nodes while fresh individuals were renumbered; the oracle
        # runs out of 200,000 steps here, so the model is checked instead
        kb = parse_kb(MULTI_PAIR_TEXTS[1])
        v = check_consistency(kb)
        assert len(v.graph.labels) <= 1000
        assert v.consistent
        assert satisfies_kb(model_from_verdict(kb, v), kb)


    def test_multi_pair_kb_backjumps_through_eq(self):
        # 49,747 nodes while an `eq` node's core was its whole Abox, so no
        # backjump passed an `eq` choice
        v = check_consistency(multi_pair_corpus(5, 148)[147], node_budget=10_000)
        assert not v.consistent
        assert len(v.graph.labels) <= 400

    def test_multi_pair_kb_past_the_budget_before_is_decided(self):
        # over 50,000 nodes while `eq` took its whole Abox as core; the
        # oracle runs out of 200,000 steps here, so the model is checked
        kb = multi_pair_corpus(5, 113)[112]
        v = check_consistency(kb, node_budget=10_000)
        assert v.consistent
        assert len(v.graph.labels) <= 500
        assert satisfies_kb(model_from_verdict(kb, v), kb)

    def test_eq_cores_are_refuted(self):
        # an `eq` node's core is the part of its child's core in its own
        # Abox; the oracle must refute it under the node's Tbox and Mbox.
        # 59 of these 63 cores are decided within 20,000 steps, 4 are not
        refuted = unrefereed = 0
        for seed in (3, 4):
            for kb in multi_pair_corpus(seed, 250):
                g = check_consistency(kb, node_budget=50_000).graph
                for u, core in g.cores.items():
                    if g.rules[u].rule != "eq":
                        continue
                    j = g.labels[u]
                    assert core <= set(j.abox)
                    try:
                        verdict = oracle.decide(core_kb(j, core), step_budget=20_000)
                    except BudgetExceededError:
                        unrefereed += 1
                        continue
                    assert not verdict.consistent
                    refuted += 1
        assert refuted >= 50 and unrefereed <= 5


class TestRuleSelection:
    """`applicable_rule` against the reference strategy of
    `rule_reference.py`, and each label's hash against one computed from
    scratch, on every label of the graphs built for several KB sets."""

    @staticmethod
    def check_labels(kbs) -> set:
        rules = set()
        labels = 0
        for kb in kbs:
            for j in check_consistency(kb, node_budget=50_000).graph.labels:
                if j is ABSURDITY:
                    continue
                ra = applicable_rule(j)
                assert ra == reference_rule(j)
                if ra is not None:
                    rules.add(ra.rule)
                assert hash(j) == hash(BaseJudgement(j.tbox, j.abox, j.mbox))
                if j.abox:
                    # inserting an assertion the label has gives the label back
                    same = _extend(j, (j.abox[len(j.abox) // 2],))
                    assert type(same) is type(j) and same == j and hash(same) == hash(j)
                labels += 1
        assert labels >= 100
        return rules

    def test_first_300_corpus_kbs(self):
        assert self.check_labels(corpus(seed=20240, size=300)) == set(RULES)

    def test_multi_pair_kbs(self):
        kbs = multi_pair_corpus(5, 100) + [parse_kb(t) for t in MULTI_PAIR_TEXTS]
        assert {"eq", "neq", "close"} <= self.check_labels(kbs)

    def test_families(self):
        texts = ([f"abox {{ ({tree(n)})(a); }}" for n in range(1, 6)]
                 + [thrash_text(n) for n in (0, 2, 4)]
                 + [f"abox {{ ({irrelevant_disjunctions(n)})(a); }}" for n in (2, 4, 6)])
        kbs = [parse_kb(t) for t in texts]
        kbs += [under_exists(irrelevant_disjunctions(n)) for n in (2, 4, 6)]
        assert {"trans'", "or'", "and'", "close"} <= self.check_labels(kbs)


class TestUnsatNodes:
    def test_clash_graph(self):
        g = build_graph(parse_kb("abox { A(a); not A(a); }"))
        assert unsat_nodes(g) == {0, 1}

    def test_or_node_needs_all_children(self):
        g = build_graph(parse_kb("abox { B(x); ((not B) or A)(x); }"))
        unsat = unsat_nodes(g)
        assert g.kinds[g.root] == "or"
        kids = g.children(g.root)
        assert any(k in unsat for k in kids)
        assert g.root not in unsat

    def test_hydro_root_is_satisfiable(self, hydro_kb):
        g = build_graph(hydro_kb)
        assert g.root not in unsat_nodes(g)


class TestCheckConsistency:
    def test_hydrography(self, hydro_kb):
        assert check_consistency(hydro_kb).consistent

    def test_subclassing_a_metamodelled_concept_is_circular(self, hydro_circular_kb):
        v = check_consistency(hydro_circular_kb)
        assert not v.consistent
        assert v.certificate.kind == "circularity"
        assert "river" in v.certificate.detail

    def test_equating_disjoint_metamodelled_individuals_clashes(self, hydro_merged_kb):
        v = check_consistency(hydro_merged_kb)
        assert not v.consistent
        assert v.certificate.kind == "clash"

    def test_example_graph_kb_is_consistent(self, example_graph_kb):
        assert check_consistency(example_graph_kb).consistent

    def test_self_inequality_certificate(self):
        v = check_consistency(parse_kb("abox { a = b; a != b; }"))
        assert not v.consistent
        assert v.certificate.kind == "self-inequality"

    def test_trace_ends_with_verdict_line(self, hydro_kb):
        v = check_consistency(hydro_kb)
        assert format_trace(v.graph, v).endswith("verdict consistent\n")


@pytest.fixture(scope="module")
def sample():
    kbs = corpus(seed=99, size=60)
    out = []
    for kb in kbs:
        try:
            out.append(build_graph(kb, node_budget=30000))
        except BudgetExceededError:
            pass
    assert len(out) >= 55
    return out


class TestGraphHygiene:

    def test_rules_lists_every_applied_rule(self, sample):
        # `alcm check --stats` counts only the names in RULES; the sample
        # applies all eleven, so renaming one, or adding one the sample
        # applies, without listing it fails here
        assert {ra.rule for g in sample for ra in g.rules if ra is not None} == set(RULES)

    def test_unique_labels(self, sample):
        for g in sample:
            assert len(g.nodes) == len(g.labels)
            assert sorted(g.nodes.values()) == list(range(len(g.labels)))

    def test_no_variable_to_base_edges(self, sample):
        for g in sample:
            for u in range(len(g.labels)):
                if type(g.labels[u]) is VariableJudgement:
                    for v in g.children(u):
                        assert type(g.labels[v]) is not BaseJudgement

    def test_or_subgraph_is_acyclic(self, sample):
        for g in sample:
            succ = {}
            for u in range(len(g.labels)):
                if g.kinds[u] != "or":
                    continue
                succ[u] = [v for v in g.children(u) if g.kinds[v] == "or"]
            assert find_cycle(list(succ), succ) is None

    def test_additive_children_are_the_parent_plus_what_was_added(self, sample):
        # the core rule "a child's core minus what it added lies in the
        # parent's Abox" rests on this; fresh individuals are never renamed
        graphs = sample + [build_graph(parse_kb(t)) for t in MULTI_PAIR_TEXTS]
        fresh = 0
        for g in graphs:
            for u, ra in enumerate(g.rules):
                if ra is None:
                    continue
                j = g.labels[u]
                for c, add in zip(g.edges[u], ra.added):
                    if add is None:
                        continue
                    child = g.labels[c]
                    assert child.tbox == j.tbox and child.mbox == j.mbox
                    assert set(child.abox) == set(j.abox).union(add)
                    fresh += any(a.individual.startswith(FRESH_PREFIX) for a in add
                                 if type(a) is ConceptAssertion)
        assert fresh > 0

    def test_recorded_rules_are_reproducible(self, sample):
        for g in sample:
            for u, ra in enumerate(g.rules):
                if ra is None:
                    continue
                again = applicable_rule(g.labels[u])
                assert again.rule == ra.rule
                assert again.principal == ra.principal
                assert again.conclusions == ra.conclusions

    def test_each_edge_leads_to_its_conclusion(self, sample):
        for g in sample:
            for u, ra in enumerate(g.rules):
                if ra is None:
                    continue
                assert len(g.edges[u]) == len(ra.conclusions)
                for i in range(len(ra.conclusions)):
                    assert g.labels[g.edges[u][i]] == ra.conclusions[i]
                if ra.rule == "trans'":
                    # the i-th existential's successor is the i-th conclusion
                    assert len(ra.principal) == len(ra.conclusions)

    def test_partial_graph_invariants(self, sample):
        verdicts = set()
        jumps = 0
        for g in sample:
            # The reference: the core-blind fixpoint, plus the or-nodes a
            # child's core refuted, closed under propagation.  Each such
            # core is checked on its own: it lies in the node's Abox, the
            # oracle refutes it, and it is the child's core.
            blind_graph = copy.copy(g)  # the same lists and maps, no backjumps
            blind_graph.core_child = {}
            blind = unsat_nodes(blind_graph)
            assert blind <= set(g.unsat)
            assert unsat_nodes(g) == set(g.unsat)
            for v, c in g.core_child.items():
                j, core = g.labels[v], g.cores[v]
                assert core == g.cores[c] and core <= set(j.abox)
                assert not oracle.decide(core_kb(j, core)).consistent
                jumps += v not in blind
            for v in g.unsat:
                assert g.kinds[v] in ("and", "or", "bot")
            consistent = g.root not in g.unsat
            verdicts.add(consistent)
            if consistent:
                for v in consistent_marking(g).nodes:
                    assert g.kinds[v] in ("and", "or", "end")
        assert verdicts == {True, False}
        assert jumps > 0

    def test_every_core_lies_in_its_abox_and_is_refuted(self, sample):
        # two irrelevant-disjunction KBs add role-successor cores, and the
        # first 30 KBs of seed 7 more cores of every kind: the random
        # sample's next ones come from KB #112 of seed 99, one of whose
        # cores the oracle refutes only past its default step budget
        graphs = sample + [build_graph(under_exists(irrelevant_disjunctions(n)))
                           for n in (2, 4)]
        graphs += [build_graph(kb) for kb in corpus(seed=7, size=30)]
        cores = successors = 0
        for g in graphs:
            for v, core in g.cores.items():
                j = g.labels[v]
                assert v in g.unsat and core <= set(j.abox)
                assert not oracle.decide(core_kb(j, core)).consistent
                cores += 1
                successors += type(j) is VariableJudgement
        assert cores >= 100
        # role successors record cores too
        assert successors >= 10

    def test_rebuilding_gives_identical_traces(self):
        for kb in corpus(seed=3, size=30):
            v1 = check_consistency(kb, node_budget=30000)
            v2 = check_consistency(kb, node_budget=30000)
            assert format_trace(v1.graph, v1) == format_trace(v2.graph, v2)
