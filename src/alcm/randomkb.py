"""Seeded random knowledge bases for differential testing.

The defaults stay inside the small-instance envelope where the naive
tableau is fast enough to referee the engine: at most four atomic concepts,
two roles, four individuals, two meta-modelling axioms, concept depth three.
"""

from __future__ import annotations

import random

from .syntax import (
    ConceptAssertion,
    Equivalence,
    KnowledgeBase,
    MboxAxiom,
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
    not_equal,
    top,
)

CONCEPT_NAMES = ("A", "B", "C", "D")
ROLE_NAMES = ("R", "S")
INDIVIDUALS = ("a", "b", "c", "d")


def random_concept(rng: random.Random, depth: int = 3, concept_names=CONCEPT_NAMES):
    if depth <= 0:
        r = rng.random()
        if r < 0.9:
            return atom(rng.choice(concept_names))
        return top() if r < 0.95 else bot()
    r = rng.random()
    if r < 0.35:
        return atom(rng.choice(concept_names))
    if r < 0.50:
        return neg(random_concept(rng, depth - 1, concept_names))
    if r < 0.65:
        return conj(random_concept(rng, depth - 1, concept_names),
                    random_concept(rng, depth - 1, concept_names))
    if r < 0.80:
        return disj(random_concept(rng, depth - 1, concept_names),
                    random_concept(rng, depth - 1, concept_names))
    if r < 0.90:
        return exists(rng.choice(ROLE_NAMES),
                      random_concept(rng, depth - 1, concept_names))
    if r < 0.98:
        return forall(rng.choice(ROLE_NAMES),
                      random_concept(rng, depth - 1, concept_names))
    return top() if rng.random() < 0.5 else bot()


def random_kb(rng: random.Random, *, max_abox: int = 5, max_mbox: int = 2,
              concept_names=CONCEPT_NAMES, individuals=INDIVIDUALS,
              with_mbox: bool = True) -> KnowledgeBase:
    """At most two Tbox axioms of depth two, and Abox concepts of depth three."""
    tbox = set()
    for _ in range(rng.randint(0, 2)):
        lhs = random_concept(rng, 2, concept_names)
        rhs = random_concept(rng, 2, concept_names)
        tbox.add(Equivalence(lhs, rhs) if rng.random() < 0.2 else Subsumption(lhs, rhs))
    abox = set()
    for _ in range(rng.randint(1, max_abox)):
        r = rng.random()
        if r < 0.55:
            abox.add(ConceptAssertion(random_concept(rng, 3, concept_names),
                                      rng.choice(individuals)))
        elif r < 0.80:
            abox.add(RoleAssertion(rng.choice(ROLE_NAMES),
                                   rng.choice(individuals), rng.choice(individuals)))
        elif r < 0.90:
            abox.add(equal(rng.choice(individuals), rng.choice(individuals)))
        else:
            abox.add(not_equal(rng.choice(individuals), rng.choice(individuals)))
    mbox = set()
    if with_mbox:
        for _ in range(rng.randint(0, max_mbox)):
            mbox.add(MboxAxiom(rng.choice(individuals), rng.choice(concept_names)))
    return KnowledgeBase.of(tbox, abox, mbox)


def corpus(seed: int, size: int, **kwargs):
    """A reproducible list of random KBs."""
    rng = random.Random(seed)
    return [random_kb(rng, **kwargs) for _ in range(size)]
