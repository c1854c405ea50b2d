"""Ground-truth evaluator: extensions, model checking, ranks, well-foundedness."""

import pytest
from hypothesis import given, strategies as st

from alcm import oracle
from alcm.parser import parse_kb
from alcm.semantics import (
    Interpretation,
    el_atom,
    el_set,
    extension,
    find_violation,
    interpretation_to_json,
    satisfies_kb,
)
from alcm.syntax import (
    MboxAxiom,
    atom,
    bot,
    conj,
    disj,
    exists,
    forall,
    neg,
    nnf,
    top,
)

from conftest import HYDRO_TEXT
from graph_checks import is_acyclic

A, B = atom("A"), atom("B")


def flat_interp(n, concepts=(), roles=()):
    dom = [el_atom(f"e{i}") for i in range(n)]
    return dom, Interpretation(
        domain=frozenset(dom),
        concepts={name: frozenset(dom[i] for i in idxs) for name, idxs in concepts},
        roles={name: frozenset((dom[i], dom[j]) for i, j in pairs)
               for name, pairs in roles},
        individuals={f"e{i}": dom[i] for i in range(n)},
    )


class TestExtension:
    def test_top_is_whole_domain(self):
        dom, i = flat_interp(3)
        assert extension(i, top()) == frozenset(dom)
        assert extension(i, bot()) == frozenset()

    def test_complement(self):
        dom, i = flat_interp(2, concepts=[("A", [0])])
        assert extension(i, neg(A)) == {dom[1]}

    def test_quantifiers_by_enumeration(self):
        # domain {e0,e1}, R = {(e0,e1)}, A = {e1}:
        # exists R.A holds exactly at e0; forall R.A holds everywhere.
        dom, i = flat_interp(2, concepts=[("A", [1])], roles=[("R", [(0, 1)])])
        assert extension(i, exists("R", A)) == {dom[0]}
        assert extension(i, forall("R", A)) == {dom[0], dom[1]}

    def test_unknown_names_are_empty(self):
        dom, i = flat_interp(2)
        assert extension(i, atom("Nope")) == frozenset()
        assert extension(i, exists("NoRole", top())) == frozenset()


def hydro_model():
    q, sl, dr, ds = (el_atom(x) for x in ("queguay", "santaLucia", "deRocha", "delSauce"))
    rivers = el_set([q, sl])
    lakes = el_set([dr, ds])
    hydro = el_set([rivers, lakes])
    return Interpretation(
        domain=frozenset([q, sl, dr, ds, rivers, lakes, hydro]),
        concepts={"River": frozenset([q, sl]),
                  "Lake": frozenset([dr, ds]),
                  "HydrographicObject": frozenset([rivers, lakes])},
        roles={},
        individuals={"queguay": q, "santaLucia": sl, "deRocha": dr, "delSauce": ds,
                     "river": rivers, "lake": lakes},
    )


class TestSatisfiesKb:
    def test_hydrography_model(self):
        kb = parse_kb(HYDRO_TEXT)
        assert satisfies_kb(hydro_model(), kb)

    def test_meta_axiom_violation_is_witnessed(self):
        kb = parse_kb(HYDRO_TEXT)
        m = hydro_model()
        m.individuals["river"] = el_atom("queguay")
        v = find_violation(m, kb)
        assert v == MboxAxiom("river", "River")

    def test_nested_set_model(self):
        kb = parse_kb("abox { B(a); A(c); A(d); } mbox { a =m A; b =m B; }")
        c, d = el_atom("c"), el_atom("d")
        cd = el_set([c, d])
        ccd = el_set([cd])
        m = Interpretation(
            domain=frozenset([cd, ccd, c, d]),
            concepts={"A": frozenset([c, d]), "B": frozenset([cd])},
            roles={},
            individuals={"a": cd, "b": ccd, "c": c, "d": d},
        )
        assert satisfies_kb(m, kb)

    def test_unresolved_individual_raises(self):
        kb = parse_kb("abox { A(zz); }")
        dom, i = flat_interp(1, concepts=[("A", [0])])
        with pytest.raises(KeyError):
            satisfies_kb(i, kb)

    def test_isomorphism_invariance(self):
        kb = parse_kb(HYDRO_TEXT)
        ren = {"queguay": "w", "santaLucia": "x", "deRocha": "y", "delSauce": "z"}

        def relabel(e):
            if e.tag == 0:
                return el_atom(ren.get(e.atom_id, e.atom_id))
            return el_set(relabel(m) for m in e.members)

        m = hydro_model()
        m2 = Interpretation(
            domain=frozenset(relabel(e) for e in m.domain),
            concepts={k: frozenset(relabel(e) for e in v) for k, v in m.concepts.items()},
            roles={},
            individuals={k: relabel(v) for k, v in m.individuals.items()},
        )
        assert satisfies_kb(m2, kb)


class TestRank:
    def test_atom(self):
        assert el_atom("c").rank == 0

    def test_flat_set(self):
        assert el_set([el_atom("c"), el_atom("d")]).rank == 1

    def test_nested_set(self):
        inner = el_set([el_atom("c"), el_atom("d")])
        assert el_set([inner]).rank == 2

    def test_empty_set(self):
        assert el_set([]).rank == 1

    @given(st.recursive(st.sampled_from("cdef").map(el_atom),
                        lambda kids: st.lists(kids, max_size=3).map(el_set),
                        max_leaves=8))
    def test_monotone_under_membership(self, e):
        if e.tag == 1:
            for m in e.members:
                assert m.rank < e.rank


class TestWellFoundedness:
    def test_single_edge(self):
        assert is_acyclic({"a", "b"}, {("a", "b")})

    def test_self_loop(self):
        assert not is_acyclic({"a"}, {("a", "a")})

    def test_cycle_with_tail(self):
        edges = {("a0", "a1"), ("a1", "a2"), ("a2", "a0"), ("a2", "a3")}
        assert not is_acyclic({"a0", "a1", "a2", "a3"}, edges)


class TestHashConsing:
    def test_extensional_equality_is_identity(self):
        s1 = el_set([el_atom("x"), el_atom("y")])
        s2 = el_set([el_atom("y"), el_atom("x"), el_atom("y")])
        assert s1 is s2

    def test_json_shape(self):
        j = interpretation_to_json(hydro_model())
        assert set(j) == {"domain", "concepts", "roles", "individuals"}
        river_set = j["domain"][j["individuals"]["river"]]
        assert sorted(j["domain"][i] for i in river_set) == ["queguay", "santaLucia"]

    def test_json_rejects_members_outside_domain(self):
        lonely = el_set([el_atom("ghost")])
        i = Interpretation(domain=frozenset([lonely]), concepts={}, roles={},
                           individuals={})
        with pytest.raises(ValueError):
            interpretation_to_json(i)


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
    max_leaves=10,
)


@st.composite
def small_interps(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    dom = [el_atom(f"e{i}") for i in range(n)]
    concepts = {}
    for name in ("A", "B", "C"):
        idx = draw(st.sets(st.integers(0, n - 1)))
        concepts[name] = frozenset(dom[i] for i in idx)
    roles = {}
    for role in ("R", "S"):
        pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=5))
        roles[role] = frozenset((dom[i], dom[j]) for i, j in pairs)
    return Interpretation(domain=frozenset(dom), concepts=concepts, roles=roles,
                          individuals={f"e{i}": dom[i] for i in range(n)})


@given(small_interps(), concepts)
def test_nnf_preserves_extension(interp, c):
    assert extension(interp, c) == extension(interp, nnf(c))


@given(concepts)
def test_the_oracle_nnf_is_the_engine_nnf(c):
    # the oracle keeps its own NNF, so the check above covers it only
    # through this identity
    assert oracle._nnf(c) is nnf(c)


@given(small_interps(), concepts, concepts)
def test_de_morgan(interp, c, d):
    assert extension(interp, neg(conj(c, d))) == extension(interp, disj(neg(c), neg(d)))
    assert extension(interp, neg(disj(c, d))) == extension(interp, conj(neg(c), neg(d)))
