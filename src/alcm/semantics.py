"""Finite interpretations over well-founded nested-set domains.

Domain elements are either named atoms or finite sets of elements.  They are
hash-consed with canonical member ordering, so extensional set equality is
identity comparison.  This module is the ground-truth evaluator: it knows
nothing about tableaux and decides satisfaction by direct enumeration.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Tuple

from . import syntax
from .syntax import (
    Concept,
    ConceptAssertion,
    Equal,
    Equivalence,
    KnowledgeBase,
    MboxAxiom,
    RoleAssertion,
    Subsumption,
    assertion_key,
)

E_ATOM, E_SET = 0, 1


class Element:
    """A nested-set domain element.  Use el_atom / el_set.

    ``rank`` is the least n such that the element lives in the n-th
    powerset stage over its atoms.
    """

    __slots__ = ("tag", "atom_id", "members", "key", "rank")

    def __init__(self, tag, atom_id, members, key, rank):
        self.tag = tag
        self.atom_id = atom_id
        self.members = members  # tuple sorted by key, or None for atoms
        self.key = key
        self.rank = rank

    def __lt__(self, other: "Element") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        if self.tag == E_ATOM:
            return self.atom_id
        return "{" + ", ".join(repr(m) for m in self.members) + "}"


_atoms: dict = {}
_sets: dict = {}
_el_lock = threading.Lock()


def el_atom(name: str) -> Element:
    e = _atoms.get(name)
    if e is None:
        made = Element(E_ATOM, name, None, (E_ATOM, name), 0)
        with _el_lock:
            e = _atoms.setdefault(name, made)
    return e


def el_set(members: Iterable[Element]) -> Element:
    ms = frozenset(members)
    e = _sets.get(ms)
    if e is None:
        ordered = tuple(sorted(ms))
        key = (E_SET, tuple(m.key for m in ordered))
        rk = 1 + max((m.rank for m in ordered), default=0)
        made = Element(E_SET, None, ordered, key, rk)
        with _el_lock:
            e = _sets.setdefault(ms, made)
    return e


@dataclass
class Interpretation:
    """A finite model candidate: domain plus concept/role/individual maps."""

    domain: FrozenSet[Element]
    concepts: Dict[str, FrozenSet[Element]] = field(default_factory=dict)
    roles: Dict[str, FrozenSet[Tuple[Element, Element]]] = field(default_factory=dict)
    individuals: Dict[str, Element] = field(default_factory=dict)


def extension(interp: Interpretation, c: Concept) -> frozenset:
    """Evaluate a concept to its subset of the domain.

    Atomic concepts and roles absent from the maps denote the empty set.
    """
    t = c.tag
    if t == syntax.TOP:
        return frozenset(interp.domain)
    if t == syntax.BOT:
        return frozenset()
    if t == syntax.ATOM:
        return frozenset(interp.concepts.get(c.name, frozenset()))
    if t == syntax.NOT:
        return frozenset(interp.domain) - extension(interp, c.child)
    if t == syntax.AND:
        return extension(interp, c.left) & extension(interp, c.right)
    if t == syntax.OR:
        return extension(interp, c.left) | extension(interp, c.right)
    pairs = interp.roles.get(c.role, frozenset())
    body = extension(interp, c.child)
    if t == syntax.EXISTS:
        return frozenset(x for (x, y) in pairs if y in body)
    # FORALL
    out = []
    for x in interp.domain:
        if all(y in body for (x2, y) in pairs if x2 is x):
            out.append(x)
    return frozenset(out)


def holds(interp: Interpretation, ax) -> bool:
    """The interpretation satisfies one Mbox, Tbox or Abox axiom.

    Raises KeyError when the axiom names an individual the interpretation
    does not map.
    """
    ind = interp.individuals
    if isinstance(ax, MboxAxiom):
        return ind[ax.individual] is el_set(interp.concepts.get(ax.concept_name, frozenset()))
    if isinstance(ax, (Subsumption, Equivalence)):
        le, re = extension(interp, ax.lhs), extension(interp, ax.rhs)
        return le <= re if isinstance(ax, Subsumption) else le == re
    if isinstance(ax, ConceptAssertion):
        return ind[ax.individual] in extension(interp, ax.concept)
    if isinstance(ax, RoleAssertion):
        return (ind[ax.subject], ind[ax.object]) in interp.roles.get(ax.role, frozenset())
    if isinstance(ax, Equal):
        return ind[ax.left] is ind[ax.right]
    return ind[ax.left] is not ind[ax.right]


def find_violation(interp: Interpretation, kb: KnowledgeBase):
    """First axiom of the KB that the interpretation fails, or None.

    Axioms are checked in canonical order, meta-modelling first (Mbox,
    Tbox, Abox).  Raises KeyError when an assertion mentions an individual
    the interpretation does not map.
    """
    for axioms in (sorted(kb.mbox), sorted(kb.tbox, key=assertion_key),
                   sorted(kb.abox, key=assertion_key)):
        for ax in axioms:
            if not holds(interp, ax):
                return ax
    return None


def satisfies_kb(interp: Interpretation, kb: KnowledgeBase) -> bool:
    return find_violation(interp, kb) is None


def interpretation_to_json(interp: Interpretation) -> dict:
    """JSON-ready form: {"domain": [...], "concepts": ..., "roles": ..., "individuals": ...}.

    A domain entry is a string for an atom or an array of domain indices for
    a set; every member of a set element must itself be in the domain.
    """
    ordered = sorted(interp.domain)
    index = {e: i for i, e in enumerate(ordered)}

    def term(e: Element):
        if e.tag == E_ATOM:
            return e.atom_id
        try:
            return sorted(index[m] for m in e.members)
        except KeyError:
            raise ValueError(f"set element {e!r} has members outside the domain")

    return {
        "domain": [term(e) for e in ordered],
        "concepts": {name: sorted(index[e] for e in ext)
                     for name, ext in sorted(interp.concepts.items())},
        "roles": {name: sorted([index[x], index[y]] for (x, y) in pairs)
                  for name, pairs in sorted(interp.roles.items())},
        "individuals": {name: index[e]
                        for name, e in sorted(interp.individuals.items())},
    }
