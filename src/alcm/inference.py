"""Entailment services, each reduced to a consistency check.

K entails an axiom iff K plus the axiom's negation is inconsistent, and
`entails` decides that with one call to the engine.  When that call finds
the extended KB consistent, its model is also a model of K.  `entails`
keeps such verdicts in a session for the last KB it was asked about: one
slot, matched by KB equality.  A later query on an equal KB is first
evaluated in their models.  If one of them satisfies the query's negation,
the extended KB is consistent, so the answer is "not entailed" and no
tableau call is made.  A verdict becomes a model only when a query first
needs it, so a one-off query pays nothing for the session, and a model is
kept only if `semantics.satisfies_kb` confirms it satisfies K.  A query is
evaluated in a kept model with `semantics.holds`, except `a =m A`, whose
negation needs an element equal to A's extension in the model's domain;
a repeated query is answered from the table of answers below and reaches
no model.

An inconsistent verdict leaves the core of its root: a part of the root's
Abox that is unsat with the root's Tbox and Mbox.  The session keeps it
with that Mbox: a query extends only K's Abox and Mbox, so every root of
the session has K's Tbox.  Adding assertions or axioms never restores
consistency, so a later query whose root holds a kept core in its Abox,
and the core's Mbox in its own, is answered "entailed" with no tableau
call.  The core and its Mbox are matched after renaming by the root's
merge map, so a query that merges an individual named in a core still
meets it.

A query's root comes from `engine.extend_root`, the helper
`engine.initialize_root` builds every root with.  The session builds K's
root once, the first time a query reaches the cores; a query's root is
then K's root plus the query's own assertions, and K's parts are renamed
only when the query's equality merges two classes.  The root is built for
this only once the session holds a core and no model has refuted the
query, and K plus the query is built as a KB only for a tableau call.  A
query that would run out of the node budget may thus be answered from a
model or from a core.

K is fixed within a session, so a query's answer never changes there.  The
session keeps every answer, whether a model, a core or a tableau call gave
it, in a table keyed by the query axiom, and a repeated query is one lookup
in it: it checks no names, builds no negation, scans no model, builds no
root and matches no core.  Its names were checked when it was first
answered on this KB; a query that names an individual the KB lacks never
enters the table.  A query whose tableau call runs out of the node budget
keeps no answer.
"""

from __future__ import annotations

import threading

from .engine import DEFAULT_NODE_BUDGET, check_consistency, empty_root, extend_root
from .errors import UnknownNameError
from .extraction import model_from_verdict
from .semantics import Interpretation, el_set, holds, satisfies_kb
from .syntax import (
    Concept,
    ConceptAssertion,
    Equal,
    KnowledgeBase,
    MboxAxiom,
    NotEqual,
    Subsumption,
    abox_individuals,
    conj,
    equal,
    neg,
    not_equal,
    rename_abox,
    rename_mbox,
)

QUERY_FRESH = "q#0"  # reserved name, unreachable from the input grammar


class _Session:
    """Models of one KB, from the consistent verdicts of its earlier queries,
    root cores, from the inconsistent ones, and the answer of every query
    answered on it.

    It holds one model per query that no model before it had refuted, and
    one core per query that no core before it had refuted.  A query that
    makes a tableau call has first turned every waiting verdict into a
    model, so only one verdict waits unless queries run concurrently.
    """

    def __init__(self, kb):
        self.kb = kb
        # the individuals a query may name
        self.individuals = frozenset() if kb is None else (
            abox_individuals(kb.abox) | kb.mbox_dom())
        self.root = None  # the KB's root, built when a query first needs it
        # (K plus a query, its consistent verdict), not yet turned into models
        self.verdicts = []
        self.models = []
        # (Mbox, its individuals, core, its individuals) of each refuted
        # root, as frozensets; every root has the KB's Tbox
        self.cores = []
        # from each query axiom answered on this KB to its answer; every
        # query axiom is an interned record that hashes by identity, so a
        # lookup builds nothing
        self.answers = {}

    def falsifies(self, axiom) -> bool:
        """Some model of the KB kept here satisfies the axiom's negation,
        which refutes the axiom."""
        if any(_negation_holds(m, axiom) for m in self.models):
            return True
        while self.verdicts:
            # a model of K plus an earlier query: also one of K, and it
            # lists the query's concept names
            m = model_from_verdict(*self.verdicts.pop(0))
            if not satisfies_kb(m, self.kb):  # keep no model that extraction got wrong
                continue
            self.models.append(m)
            if _negation_holds(m, axiom):
                return True
        return False

    def root_of(self, abox, mbox):
        """The root of the KB plus the query's assertions and Mbox axioms, as
        `engine.extend_root` gives it: the KB's root, built once, plus the
        query's own parts."""
        if self.root is None:
            self.root = extend_root(empty_root(self.kb.tbox), self.kb.abox, self.kb.mbox)
        return extend_root(self.root, abox, mbox)

    def refutes(self, abox, mbox) -> bool:
        """Some kept core, with its Mbox, lies in the root of the KB plus the
        query's assertions and Mbox axioms, which is therefore inconsistent.

        Each core and its Mbox are first renamed by the merge map the root
        was built with.  A renamed core stays unsat: a model of it is a model
        of the original core that sends each merged name to its
        representative's element."""
        if not self.cores:
            return False
        root = self.root_of(abox, mbox)
        ren = root.merged
        for m, m_names, core, names in self.cores:
            # most roots merge nothing, and most cores and their Mboxes name
            # no merged individual: only those are renamed
            if not names.isdisjoint(ren):
                core = rename_abox(core, ren)
            if core <= root.abox:
                if not m_names.isdisjoint(ren):
                    m = rename_mbox(m, ren)
                if m <= root.mbox:
                    return True
        return False

    def keep_core(self, verdict):
        """Keep the core of an inconsistent verdict's root, with its Mbox."""
        g = verdict.graph
        root, core = g.labels[g.root], g.cores[g.root]
        mbox = frozenset(root.mbox)
        self.cores.append((mbox, frozenset(ax.individual for ax in mbox),
                           core, frozenset(abox_individuals(core))))


def _negation_holds(m: Interpretation, axiom) -> bool:
    """The model, extended by a fresh individual where the negation has one,
    satisfies the axiom's negation.

    The negation of a =m A needs an element equal to A's extension, and a
    model that falsifies a =m A need not have one: when the KB forces A to
    hold of every element, no element can be that set.
    """
    if type(axiom) is MboxAxiom:
        wanted = el_set(m.concepts.get(axiom.concept_name, ()))
        return wanted in m.domain and m.individuals[axiom.individual] is not wanted
    return not holds(m, axiom)


_session = _Session(None)
_session_lock = threading.Lock()  # guards _session and the lists it holds


def _negation(axiom):
    """The individuals the axiom names, and the assertions and Mbox axioms
    that K adds to decide it: its negation.  The root puts the concepts into
    NNF.  A TypeError for a record no service decides."""
    t = type(axiom)
    if t is Subsumption:
        return (), [ConceptAssertion(conj(axiom.lhs, neg(axiom.rhs)), QUERY_FRESH)], ()
    if t is ConceptAssertion:
        return ((axiom.individual,),
                [ConceptAssertion(neg(axiom.concept), axiom.individual)], ())
    if t is Equal:
        return (axiom.left, axiom.right), [not_equal(axiom.left, axiom.right)], ()
    if t is NotEqual:
        return (axiom.left, axiom.right), [equal(axiom.left, axiom.right)], ()
    if t is MboxAxiom:
        return ((axiom.individual,), [not_equal(axiom.individual, QUERY_FRESH)],
                [MboxAxiom(QUERY_FRESH, axiom.concept_name)])
    raise TypeError(f"no entailment service for {t.__name__}")


def entails(kb: KnowledgeBase, axiom, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """K entails the axiom iff K plus the axiom's negation is inconsistent.

    The negation of C sub D is a fresh individual in C and not D; of C(a),
    (not C)(a); of a = b, a != b and back; of a =m A, a fresh b with
    b =m A and a != b.  Individuals the axiom names must occur in the KB.
    A query on the KB of the previous one is first evaluated in the models
    that the earlier queries on it found, then its root is matched against
    the cores they left (see the module docstring), so "not entailed" may
    come from a model and "entailed" from a core.  A query asked before on
    that KB is answered from the session's table of answers, so a query
    that would run out of the node budget may also be answered from the
    table; one whose call ran out of budget keeps no answer there, and is
    decided again when asked again.
    """
    global _session
    with _session_lock:
        same = _session.kb is kb or _session.kb == kb
        session = _session if same else _Session(kb)
        # an answer in the table was given on this KB, so its names were checked
        answer = session.answers.get(axiom)
        if answer is not None:
            return answer
        names, abox, mbox = _negation(axiom)
        for name in names:
            if name not in session.individuals:
                raise UnknownNameError(f"individual {name!r} does not occur in the KB")
        _session = session
        if session.falsifies(axiom):
            session.answers[axiom] = False
            return False
        if session.refutes(abox, mbox):
            session.answers[axiom] = True
            return True
    extended = kb.extended(abox=abox, mbox=mbox)
    verdict = check_consistency(extended, node_budget)
    answer = not verdict.consistent
    with _session_lock:
        if answer:
            session.keep_core(verdict)
        else:
            session.verdicts.append((extended, verdict))
        session.answers[axiom] = answer
    return answer


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
