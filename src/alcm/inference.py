"""Entailment services, each reduced to a consistency check."""

from __future__ import annotations

from .engine import DEFAULT_NODE_BUDGET, check_consistency
from .errors import UnknownNameError
from .syntax import (
    Concept,
    ConceptAssertion,
    Equal,
    KnowledgeBase,
    MboxAxiom,
    NotEqual,
    Subsumption,
    conj,
    equal,
    neg,
    nnf,
    not_equal,
)

QUERY_FRESH = "q#0"  # reserved name, unreachable from the input grammar


def entails(kb: KnowledgeBase, axiom, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """K entails the axiom iff K plus the axiom's negation is inconsistent.

    The negation of C sub D is a fresh individual in C and not D; of C(a),
    (not C)(a); of a = b, a != b and back; of a =m A, a fresh b with
    b =m A and a != b.  Individuals the axiom names must occur in the KB.
    """
    mbox = ()
    if type(axiom) is Subsumption:
        names = ()
        abox = [ConceptAssertion(nnf(conj(axiom.lhs, neg(axiom.rhs))), QUERY_FRESH)]
    elif type(axiom) is ConceptAssertion:
        names = (axiom.individual,)
        abox = [ConceptAssertion(nnf(neg(axiom.concept)), axiom.individual)]
    elif type(axiom) is Equal:
        names = (axiom.left, axiom.right)
        abox = [not_equal(axiom.left, axiom.right)]
    elif type(axiom) is NotEqual:
        names = (axiom.left, axiom.right)
        abox = [equal(axiom.left, axiom.right)]
    elif type(axiom) is MboxAxiom:
        names = (axiom.individual,)
        abox = [not_equal(axiom.individual, QUERY_FRESH)]
        mbox = [MboxAxiom(QUERY_FRESH, axiom.concept_name)]
    else:
        raise TypeError(f"no entailment service for {type(axiom).__name__}")
    known = kb.individuals()
    for name in names:
        if name not in known:
            raise UnknownNameError(f"individual {name!r} does not occur in the KB")
    return not check_consistency(kb.extended(abox=abox, mbox=mbox), node_budget).consistent


def entails_instance(kb: KnowledgeBase, c: Concept, a: str,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    return entails(kb, ConceptAssertion(c, a), node_budget)


def entails_subsumption(kb: KnowledgeBase, c: Concept, d: Concept,
                        node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    return entails(kb, Subsumption(c, d), node_budget)


def entails_equality(kb: KnowledgeBase, a: str, b: str,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    return entails(kb, equal(a, b), node_budget)


def entails_inequality(kb: KnowledgeBase, a: str, b: str,
                       node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    return entails(kb, not_equal(a, b), node_budget)


def entails_metamodelling(kb: KnowledgeBase, a: str, concept_name: str,
                          node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    return entails(kb, MboxAxiom(a, concept_name), node_budget)


def is_meta_concept(kb: KnowledgeBase, c: Concept,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Some entailed member of C is itself meta-modelled onto a concept."""
    candidates = sorted(kb.mbox_range())
    if not candidates:
        return False
    for a in kb.individuals():
        if not entails_instance(kb, c, a, node_budget):
            continue
        for concept_name in candidates:
            if entails_metamodelling(kb, a, concept_name, node_budget):
                return True
    return False
