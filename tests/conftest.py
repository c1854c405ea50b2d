"""Shared fixtures: worked example KBs and judgement-to-KB conversion."""

import pytest

from alcm.engine import BaseJudgement
from alcm.parser import parse_kb
from alcm.randomkb import corpus
from alcm.syntax import KnowledgeBase, Subsumption, top

HYDRO_TEXT = """
tbox { River and Lake subclassof bot; }
abox {
  HydrographicObject(river); HydrographicObject(lake);
  River(queguay); River(santaLucia);
  Lake(deRocha); Lake(delSauce);
}
mbox { river =m River; lake =m Lake; }
"""

HYDRO_INDIVIDUALS = ("deRocha", "delSauce", "lake", "queguay", "river", "santaLucia")

# The graph-walkthrough KB: one global existential, one R-successor
# constraint, and two meta-modelled individuals.
EXAMPLE_GRAPH_TEXT = """
tbox { top subclassof exists S . A; }
abox { (exists R . A)(d); (forall R . not B)(d); }
mbox { a =m A; b =m B; }
"""


# Corpus KB #211 of seed 20240 plus n unrelated individuals E(e1) ... E(en):
# the separated branch of `close` dies under every combination of the
# earlier disjunctions, since b =m D, c =m D make the neq witness
# (D and not D) or (not D and D).  Consistent for every n.
def thrash_text(n: int) -> str:
    extra = " ".join(f"E(e{i});" for i in range(1, n + 1))
    return ("tbox { A subclassof C; B subclassof B or C; }\n"
            f"abox {{ A(b); B(d); not D(a); {extra} }}\n"
            "mbox { b =m D; c =m D; }\n")


# A chain of n atomic subsumptions A0 ... An from A0(a), beside n
# individuals that no axiom's left side reaches.  Consistent for every n.
def tbox_chain_text(n: int) -> str:
    axioms = " ".join(f"A{i} subclassof A{i + 1};" for i in range(n))
    others = " ".join(f"C(b{j});" for j in range(n))
    return f"tbox {{ {axioms} }}\nabox {{ A0(a); {others} }}\n"


# KBs with several Mbox concept-name pairs, so neq makes several fresh
# individuals in one label.
MULTI_PAIR_TEXTS = (
    "abox { C(c); not (A and (C or A))(g); }"
    " mbox { a =m A; a =m E; b =m B; b =m D; c =m F; d =m B; g =m B; g =m C; }",
    "tbox { B or B or A equiv forall R . (F or D); }"
    " abox { not (A or C) and B(c); S(d, e); }"
    " mbox { b =m E; d =m C; e =m F; f =m C; }",
)


# Random KBs with several Mbox axioms, so `eq`, `neq` and `close` meet
# several concept-name pairs in one label: generator seed -> (Mbox axioms
# at most, individuals, concept names).
MULTI_PAIR_SETS = {3: (6, "abcdef", "ABCD"), 4: (6, "abcdef", "ABCDEF"),
                   5: (8, "abcdefg", "ABCDEFG")}


def multi_pair_corpus(seed: int, size: int):
    max_mbox, individuals, names = MULTI_PAIR_SETS[seed]
    return corpus(seed=seed, size=size, max_mbox=max_mbox, max_abox=6,
                  individuals=tuple(individuals), concept_names=tuple(names))


@pytest.fixture(scope="session")
def hydro_kb():
    return parse_kb(HYDRO_TEXT)


@pytest.fixture(scope="session")
def hydro_circular_kb():
    return parse_kb(HYDRO_TEXT + "tbox { HydrographicObject subclassof River; }")


@pytest.fixture(scope="session")
def hydro_merged_kb():
    return parse_kb(HYDRO_TEXT + "abox { river = lake; }")


@pytest.fixture(scope="session")
def example_graph_kb():
    return parse_kb(EXAMPLE_GRAPH_TEXT)


def judgement_to_kb(j) -> KnowledgeBase:
    """Read a judgement back as a standalone KB (for the oracle to referee).

    A Tbox concept C stands for 'C holds everywhere', i.e. top subclassof C;
    a role successor's Abox asserts its concept set of one anonymous
    individual.
    """
    tbox = {Subsumption(top(), c) for c in j.tbox}
    return KnowledgeBase.of(tbox, j.abox, j.mbox)


def core_kb(j: BaseJudgement, core) -> KnowledgeBase:
    """A base judgement's Tbox and Mbox with ``core`` for its Abox, as a KB."""
    return judgement_to_kb(BaseJudgement(j.tbox, tuple(core), j.mbox))
