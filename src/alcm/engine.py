"""Consistency engine: judgement rewriting over a globally cached and-or graph.

A node label is either a base judgement (Tbox, Abox, Mbox) or absurdity.
A role successor is a base judgement too: its Abox asserts its concept set
of one anonymous individual, `ANONYMOUS`, and its Mbox is empty, so one
rule set, with its cores and backjumping, runs inside role successors as
well as on the named individuals.  Every label is kept in canonical form -
sorted tuples, merged equalities - so the global cache maps each label to
exactly one node.  Fresh individuals keep the names they are made with:
`neq` makes one only for a difference witness no individual carries yet,
so a label holds at most one per ordered pair of Mbox concept names, and
the set of labels stays finite without renaming.  Expansion order, rule
choice and tie-breaking are all fixed by the structural total orders,
which makes graphs, verdicts and traces reproducible byte for byte.

The Tbox is absorbed (Horrocks & Tobies, "Reasoning with Axioms: Theory
and Practice", KR 2000): a Tbox concept whose flattened disjunction has a
disjunct ``not A`` is read as an axiom ``A subclassof D`` and applied by the
`unfold` rule only to elements that carry ``A``.  The remaining, general
concepts go on every element: on each named individual at the root, on
each fresh individual of `neq`, and on each role successor.  Labels still
carry the whole Tbox, so caching, cores and the oracle's reading of a
label as a KB see the internalised Tbox as before.  `eq` adds its
``A or not B`` and ``B or not A`` to the Tbox alone, where they are
absorbed both ways, and keeps its premise's Abox.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import xor
from typing import Dict, List, Optional, Tuple

from . import syntax
from .digraph import find_cycle
from .errors import BudgetExceededError
from .syntax import (
    Concept,
    ConceptAssertion,
    Equal,
    KnowledgeBase,
    RoleAssertion,
    assertion_key,
    assertion_to_str,
    atom,
    concept_to_str,
    conj,
    disj,
    disjuncts,
    neg,
    nnf,
    nnf_tbox,
    not_equal,
    rename_abox,
    rename_mbox,
)

DEFAULT_NODE_BUDGET = 2 ** 20

FRESH_PREFIX = "fresh#"

# The one individual of a role successor's label; no parsed name has a "#".
ANONYMOUS = "x#"

# Every rule name, in the order the strategy tries them.
RULES = ("bot1", "bot2", "bot3", "and'", "all", "unfold", "eq", "neq", "or'", "close",
         "trans'")


class _Absurdity:
    def __repr__(self):
        return "absurdity"


ABSURDITY = _Absurdity()


class BaseJudgement:
    """Tbox, Abox and Mbox.  Hash is cached: judgements are looked up in the
    global node cache constantly.

    The hash is ``hash((tbox, mbox))`` XOR the hashes of the Abox
    assertions, so a label derived from another by inserting assertions
    gets its hash from its parent's (``label_hash``, see `_extend`) without
    re-hashing the whole Abox; equal labels hash equal however they were
    built."""

    __slots__ = ("tbox", "abox", "mbox", "_hash")

    def __init__(self, tbox, abox, mbox, label_hash=None):
        self.tbox = tbox
        self.abox = abox
        self.mbox = mbox
        if label_hash is None:
            label_hash = reduce(xor, map(hash, abox), hash((tbox, mbox)))
        self._hash = label_hash

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (
            type(other) is type(self) and self._hash == other._hash
            and self.tbox == other.tbox and self.abox == other.abox
            and self.mbox == other.mbox)

    def __repr__(self):
        return (f"{type(self).__name__}(tbox={self.tbox!r}, abox={self.abox!r}, "
                f"mbox={self.mbox!r})")


class VariableJudgement(BaseJudgement):
    """A role successor: its concept set asserted of `ANONYMOUS`, no Mbox.
    Only the type tells it from a base judgement of the named individuals."""

    __slots__ = ()


def make_variable(tbox: tuple, concepts) -> VariableJudgement:
    """A role successor's label; ``tbox`` is a label's Tbox, already canonical."""
    return VariableJudgement(
        tbox,
        tuple(ConceptAssertion(c, ANONYMOUS)
              for c in sorted(set(concepts), key=assertion_key)),
        ())


def make_base(tbox, abox, mbox) -> BaseJudgement:
    abox = set(abox)
    for a in abox:
        if isinstance(a, Equal):
            raise ValueError("base judgements never carry equality assertions")
    return BaseJudgement(tuple(sorted(set(tbox), key=assertion_key)),
                         tuple(sorted(abox, key=assertion_key)),
                         tuple(sorted(set(mbox))))


def _extend(j: BaseJudgement, adds) -> BaseJudgement:
    """``make_base(j.tbox, set(j.abox) | adds, j.mbox)``, derived from j and
    of j's type: the new assertions are inserted into j's sorted Abox, j's
    Tbox and Mbox tuples are reused, and the hash is j's with the hashes of
    the inserted assertions XOR-ed in."""
    abox = list(j.abox)
    h = j._hash
    for a in adds:
        i = bisect_left(abox, a.key, key=assertion_key)
        if i == len(abox) or abox[i] is not a:
            abox.insert(i, a)
            h ^= hash(a)
    return type(j)(j.tbox, tuple(abox), j.mbox, h)


@dataclass(slots=True, unsafe_hash=True)
class RuleApplication:
    """One expansion: the rule, its principal assertions or names, the
    premise and its conclusions.  Built once per expanded node, so a
    slotted record whose constructor only assigns; equal when every field
    is."""

    rule: str
    connective: str  # "or" for static rules, "and" for transitional ones
    principal: tuple
    premise: object
    conclusions: tuple
    # One entry per conclusion: the assertions it adds to the premise's
    # Abox, keeping its Tbox and Mbox, or None for the merged branch of
    # `close`.  Empty for rules whose conclusions are built another way.
    added: tuple = ()


# --------------------------------------------------------------------------
# Absorption
# --------------------------------------------------------------------------

@lru_cache(maxsize=256)
def absorb(tbox: tuple):
    """Split a label's NNF Tbox into general concepts and absorbed axioms.

    A concept whose flattened disjunction, with repeated disjuncts dropped,
    has a disjunct ``not A`` and at least one other disjunct is absorbed on
    its least ``not A`` by key, as the axiom ``A subclassof D``, where D is
    the disjunction of the other disjuncts, left-nested in their order.
    Every other concept is general; among them a lone ``not A``, which
    never branches and keeps ``A subclassof bot`` clashing as
    ``A(x) / not A(x)``.

    Returns the general concepts in key order, and a dict that maps each
    absorbing atom, in key order, to its Ds, in key order.  The result is
    shared by every caller with an equal Tbox, so it must not be mutated.
    """
    general, absorbed = [], {}
    for c in sorted(tbox, key=assertion_key):
        ds = list(dict.fromkeys(disjuncts(c)))
        negated = [d for d in ds if d.tag == syntax.NOT]
        if not negated or len(ds) == 1:
            general.append(c)
            continue
        on = min(negated, key=assertion_key)
        ds.remove(on)
        absorbed.setdefault(on.child, set()).add(reduce(disj, ds))
    return tuple(general), {a: tuple(sorted(absorbed[a], key=assertion_key))
                            for a in sorted(absorbed, key=assertion_key)}


# --------------------------------------------------------------------------
# Rule selection
# --------------------------------------------------------------------------

def circular(abox, mbox):
    """Cycle in the membership graph induced by the Abox over the Mbox domain.

    Nodes are the Mbox individuals; there is an edge a -> b whenever B(a) is
    asserted and b corresponds to B.  Returns the cycle or None.  The
    individuals and each concept's members come from `_mbox_facts`; an Mbox
    given as another collection than a tuple is sorted into one first.  A
    cycle needs an edge, so when no atom of an Mbox concept sits on an Mbox
    individual this returns None before it builds the graph; the
    extraction checks call it without a test of their own.  Rule selection
    tests for an edge first, from the same facts, and calls this only when
    there is one.
    """
    if type(mbox) is not tuple:
        mbox = tuple(sorted(mbox))
    concept_of, members, _ = _mbox_facts(mbox)
    succ: Dict[str, set] = {}
    for a in abox:
        if (type(a) is ConceptAssertion and a.individual in concept_of
                and a.concept.tag == syntax.ATOM):
            bs = members.get(a.concept.name)
            if bs is not None:
                succ.setdefault(a.individual, set()).update(bs)
    return find_cycle(concept_of, succ) if succ else None


def difference_witness(a_name: str, b_name: str) -> Concept:
    """The one concept the neq rule asserts to make A and B differ:
    ``(A and not B) or (not A and B)``, in the order the names are given."""
    A, B = atom(a_name), atom(b_name)
    return disj(conj(A, neg(B)), conj(neg(A), B))


@lru_cache(maxsize=256)
def _mbox_facts(mbox: tuple):
    """What the engine and the extraction checks read off an Mbox, given
    as a tuple in any order: a dict that maps each Mbox individual to the
    concept name of its least axiom, a dict that maps each Mbox concept
    name to its individuals, and the two least axioms of the first
    individual that has two, which `eq` merges, or None.  The axioms are
    sorted, once each, when the tuple is first met.

    The result is shared by every caller with an equal Mbox, so it must not
    be mutated.
    """
    ms = sorted(set(mbox))
    concept_of: Dict[str, str] = {}
    members: Dict[str, List[str]] = {}
    for m in ms:
        concept_of.setdefault(m.individual, m.concept_name)
        members.setdefault(m.concept_name, []).append(m.individual)
    # sorted, an individual's axioms are adjacent
    pair = next(((keep, drop) for keep, drop in zip(ms, ms[1:])
                 if keep.individual == drop.individual), None)
    return concept_of, members, pair


def applicable_rule(j: BaseJudgement) -> Optional[RuleApplication]:
    """The unique rule application the strategy picks for a judgement.

    Priority runs bottom rules, then the remaining unary rules, then the
    branching rules, then the transitional rule; ties inside a class are
    broken by a fixed rule order and then by the least principal formula.
    Returns None exactly when the judgement is an end node.
    """
    if j is ABSURDITY:
        raise ValueError("absurdity is never expanded")
    T, A, M = j.tbox, j.abox, j.mbox
    # One pass over the Abox indexes it and sorts its concept assertions by
    # connective.  The Abox is in canonical order, and a concept's sort key
    # starts with its tag, so each per-connective list is in Abox order too:
    # every scan below meets its candidates least-first.
    by_ind: Dict[str, set] = {}
    role_out: Dict[Tuple[str, str], list] = {}
    neqs = []
    by_tag = ([], [], [], [], [], [], [], [])  # indexed by syntax tag
    for a in A:
        t = type(a)
        if t is ConceptAssertion:
            c = a.concept
            have = by_ind.get(a.individual)
            if have is None:
                by_ind[a.individual] = {c}
            else:
                have.add(c)
            by_tag[c.tag].append(a)
        elif t is RoleAssertion:
            out = role_out.get((a.role, a.subject))
            if out is None:
                role_out[(a.role, a.subject)] = [a]
            else:
                out.append(a)
        else:
            neqs.append(a)
    _, bots, atoms, nots, ands, ors, exs, alls = by_tag

    # Bottom rules first.
    if bots:
        return RuleApplication("bot1", "or", (bots[0],), j, (ABSURDITY,))
    # Labels are in NNF, so every negation is of an atom, and negated atoms
    # sort as their atoms do: the first negation that clashes names the
    # least clashing atom.
    for a in nots:
        if a.concept.child in by_ind[a.individual]:
            other = ConceptAssertion(a.concept.child, a.individual)
            return RuleApplication("bot1", "or", (other, a), j, (ABSURDITY,))
    for a in neqs:
        if a.left == a.right:
            return RuleApplication("bot2", "or", (a,), j, (ABSURDITY,))
    concept_of, eq_pair = {}, None
    if M:  # a role successor has no Mbox, hence no membership cycle
        concept_of, members, eq_pair = _mbox_facts(M)
        # a cycle needs an edge: an atom of an Mbox concept on an Mbox individual
        for a in atoms:
            if a.individual in concept_of and a.concept.name in members:
                cycle = circular(atoms, M)
                if cycle is not None:
                    return RuleApplication("bot3", "or", tuple(cycle), j, (ABSURDITY,))
                break

    # Unary static rules.
    for a in ands:
        c, x = a.concept, a.individual
        have = by_ind[x]
        if not (c.left in have and c.right in have):
            adds = (ConceptAssertion(c.left, x), ConceptAssertion(c.right, x))
            return RuleApplication("and'", "or", (a,), j, (_extend(j, adds),), (adds,))
    if role_out:
        for a in alls:
            c = a.concept
            for r in role_out.get((c.role, a.individual), ()):
                if c.child not in by_ind.get(r.object, ()):
                    adds = (ConceptAssertion(c.child, r.object),)
                    return RuleApplication("all", "or", (a, r), j, (_extend(j, adds),),
                                           (adds,))
    general, absorbed = absorb(T)
    if absorbed:
        for a in atoms:
            ds = absorbed.get(a.concept)
            if ds is not None:
                x = a.individual
                have = by_ind[x]
                adds = tuple(ConceptAssertion(d, x) for d in ds if d not in have)
                if adds:
                    return RuleApplication("unfold", "or", (a,), j, (_extend(j, adds),),
                                           (adds,))
    if eq_pair is not None:
        keep, drop = eq_pair
        An, Bn = keep.concept_name, drop.concept_name
        tb_add = {disj(atom(An), neg(atom(Bn))), disj(atom(Bn), neg(atom(An)))}
        concl = make_base(set(T) | tb_add, A, set(M) - {drop})
        return RuleApplication("eq", "or", (keep.individual, An, Bn), j, (concl,))
    for a in neqs:
        if a.left in concept_of and a.right in concept_of:
            An, Bn = concept_of[a.left], concept_of[a.right]
            w = difference_witness(An, Bn)
            if not any(b.concept is w for b in ors):
                nfresh = sum(1 for n in by_ind if n.startswith(FRESH_PREFIX))
                d0 = f"{FRESH_PREFIX}{nfresh}"
                adds = (ConceptAssertion(w, d0),) + tuple(ConceptAssertion(c, d0)
                                                          for c in general)
                return RuleApplication("neq", "or", (a, An, Bn), j, (_extend(j, adds),),
                                       (adds,))

    # Branching static rules.
    for a in ors:
        c, x = a.concept, a.individual
        have = by_ind[x]
        if c.left not in have and c.right not in have:
            left, right = (ConceptAssertion(c.left, x),), (ConceptAssertion(c.right, x),)
            return RuleApplication("or'", "or", (a,), j,
                                   (_extend(j, left), _extend(j, right)), (left, right))
    if len(concept_of) > 1:
        neq_pairs = {(n.left, n.right) for n in neqs}
        srt = sorted(concept_of)
        for i, a in enumerate(srt):
            for b in srt[i + 1:]:
                if (a, b) not in neq_pairs:
                    merged = make_base(T, rename_abox(A, {b: a}),
                                       rename_mbox(M, {b: a}))
                    adds = (not_equal(a, b),)
                    return RuleApplication("close", "or", (a, b), j,
                                           (merged, _extend(j, adds)), (None, adds))

    # Transitional rule: each existential's successor gets its concept, the
    # concepts of the universals on its role and individual, and the general
    # Tbox concepts.
    if exs:
        universals: Dict[Tuple[str, str], list] = {}
        for a in alls:
            universals.setdefault((a.individual, a.concept.role), []).append(a.concept.child)
        concls = []
        for e in exs:
            c = e.concept
            xs = [c.child] + universals.get((e.individual, c.role), [])
            concls.append(make_variable(T, xs + list(general)))
        return RuleApplication("trans'", "and", tuple(exs), j, tuple(concls))
    return None


# --------------------------------------------------------------------------
# Graph construction
# --------------------------------------------------------------------------

@dataclass
class Marking:
    """A consistent marking: all children of and-nodes, one child per or-node."""

    nodes: set
    choice: Dict[int, int]


class AndOrGraph:
    """The graph `build_graph` grows: one entry per node in each list, the
    root's first.  Nodes are added by `build_graph` alone."""

    __slots__ = ("nodes", "labels", "kinds", "edges", "rules", "root",
                 "initial_merges", "unsat", "cores", "core_child", "walk")

    def __init__(self, root_label, initial_merges: Dict[str, str]):
        self.nodes: Dict[object, int] = {root_label: 0}
        self.labels: List[object] = [root_label]
        # "and" | "or" | "end" (expanded, no rule applies) | "bot" | "open" (never expanded)
        self.kinds: List[str] = ["open"]
        # Child id of each conclusion, in the rule's order; two conclusions
        # may be one node, as in `(A or A)(a)`.
        self.edges: List[List[int]] = [[]]
        self.rules: List[Optional[RuleApplication]] = [None]
        self.root = 0
        self.initial_merges = initial_merges
        # Nodes known unsat, each mapped to its rank in the order they were found.
        self.unsat: Dict[int, int] = {}
        # Core of each unsat node but absurdity: a subset of its Abox that is
        # unsat with its Tbox and Mbox.
        self.cores: Dict[int, frozenset] = {}
        # Or-nodes refuted by one child's core alone, mapped to that child.
        self.core_child: Dict[int, int] = {}
        # The last marking walk of construction, filled in place as it
        # walks.  When the root is not unsat, this is the closed marking
        # that decided the KB.
        self.walk = Marking(set(), {})

    def __eq__(self, other):
        if type(other) is not AndOrGraph:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in AndOrGraph.__slots__)

    __hash__ = None

    def children(self, nid: int) -> tuple:
        """The distinct children of a node, in edge order."""
        return tuple(dict.fromkeys(self.edges[nid]))


@dataclass(slots=True, eq=False)
class Root:
    """A root's parts before they are sorted into its label.

    ``tbox`` is the NNF Tbox, sorted by key, and ``general`` its general
    concepts (see `absorb`); ``names`` holds every individual in sight, and
    ``merged`` maps each one merged away by an equality to its
    representative, the least name of its class.  ``abox`` and ``mbox`` are
    sets, already renamed by ``merged``.  A root is never mutated:
    `extend_root` shares its parts where they do not change."""

    tbox: tuple
    general: tuple
    abox: set
    mbox: set
    names: set
    merged: Dict[str, str]


_EMPTY = frozenset()


def empty_root(tbox) -> Root:
    """The root of a KB that has the given Tbox axioms and nothing else."""
    t = tuple(sorted(nnf_tbox(tbox), key=assertion_key)) if tbox else ()
    return Root(t, absorb(t)[0], _EMPTY, _EMPTY, _EMPTY, {})


def extend_root(root: Root, abox=(), mbox=()) -> Root:
    """The root of root's KB plus the given assertions and Mbox axioms,
    each given as a collection that can be read more than once.

    Concept assertions go into NNF, and what is added is renamed by the
    merge map.  Equalities are merged by union-find over the classes (least
    name wins, so the result does not depend on their order); the root's
    own parts are renamed only when two classes merge.  Each individual not
    in sight before gets the general Tbox concepts, on its representative.
    An inequality that collapses to `a != a` is kept for the bottom rules
    to catch.  Unless classes merge, the work is proportional to what is
    added, besides copying the root's sets into the new root.
    """
    added, equalities = set(), []
    new = {m.individual for m in mbox}
    for a in abox:
        t = type(a)
        if t is ConceptAssertion:
            c = a.concept.nnf_form or nnf(a.concept)
            added.add(a if c is a.concept else ConceptAssertion(c, a.individual))
            new.add(a.individual)
        elif t is RoleAssertion:
            added.add(a)
            new.add(a.subject)
            new.add(a.object)
        else:
            if t is Equal:
                equalities.append(a)
            else:
                added.add(a)
            new.add(a.left)
            new.add(a.right)
    if root.names:
        new -= root.names
        names = root.names.union(new) if new else root.names
    else:  # every name is new, and the set is the root's
        names = new
    merged, abox_k, mbox_k = root.merged, root.abox, root.mbox

    if equalities:
        get, parent = merged.get, {}  # a representative merged away here -> the one it joined

        def find(n):
            n = get(n, n)
            while n in parent:  # halve the path on the way up
                up = parent.get(parent[n], parent[n])
                parent[n] = up
                n = up
            return n

        for a in equalities:
            ra, rb = find(a.left), find(a.right)
            if ra != rb:
                keep, drop = (ra, rb) if ra < rb else (rb, ra)
                parent[drop] = keep
        if parent:  # classes merged: the root's own parts are renamed too
            merged = {}
            for n in names:
                r = find(n)
                if r != n:
                    merged[n] = r
            added.update(abox_k)
            mbox = mbox_k.union(mbox)
            abox_k = mbox_k = frozenset()

    if merged:
        added = rename_abox(added, merged)
        mbox = rename_mbox(mbox, merged)
        new = {merged.get(n, n) for n in new}
    if root.general:
        added.update([ConceptAssertion(c, a) for c in root.general for a in new])
    if abox_k:
        added.update(abox_k)
    return Root(root.tbox, root.general, added,
                mbox_k.union(mbox) if mbox_k else frozenset(mbox), names, merged)


def initialize_root(kb: KnowledgeBase):
    """Initial base judgement plus the equality-merge map it was built with,
    which maps every individual, in name order, to its representative.

    The root of the KB extends the empty root by the KB's Abox and Mbox (see
    `extend_root`); its Tbox, in NNF, is the label's.  Its general concepts
    (see `absorb`) are thus instantiated on every individual in sight,
    including individuals that occur only in merged-away equalities.
    """
    root = extend_root(empty_root(kb.tbox), kb.abox, kb.mbox)
    names = sorted(root.names)
    rep = dict(zip(names, names))
    if root.merged:
        rep.update(root.merged)
    mbox = root.mbox
    return (BaseJudgement(root.tbox, tuple(sorted(root.abox, key=assertion_key)),
                          tuple(sorted(mbox, key=assertion_key)) if mbox else ()), rep)


def build_graph(kb: KnowledgeBase, node_budget: int = DEFAULT_NODE_BUDGET) -> AndOrGraph:
    """Grow the and-or graph on demand until the root's status is known.

    Only the candidate marking is expanded: the marking walk from the root,
    which takes the least child not known unsat at an or-node and every
    child of an and-node.  Each round walks, then expands, least id first,
    the unexpanded nodes that walk reached, and unsat status is
    propagated to parents as soon as it changes (see `_refuted`): absurdity
    is unsat, an and-node with one unsat child is, and so is an or-node
    whose children all are, or one child of which has a core inside the
    or-node's own Abox.  That last case is a backjump: the or-node's other
    children are never expanded for it.  Unexpanded nodes are never unsat,
    and every unsat node has an unsat core, so every unsat fact here also
    holds on the fully expanded graph.

    The walk is kept across rounds.  After a round that found no unsat
    node, every choice it made still stands, so it only grows from the
    nodes that round expanded; after one that did, it starts again from
    the root.

    Construction stops when the root is unsat (the KB is inconsistent) or
    when the walk reaches no unexpanded node (the KB is consistent: that
    closed marking avoids the least unsat fixpoint of the full graph, and
    ``g.walk`` keeps it for `consistent_marking`).
    Nodes never expanded keep kind "open"; ``g.unsat`` holds the propagated
    set in the order it grew, ``g.cores`` the core of each unsat node but
    absurdity, and ``g.core_child`` each or-node refuted by one child's core
    alone, with that child, whether or not its other children had died by
    then.  ``--stats`` counts as backjumps only the or-nodes that died while
    a child was live, so it reports fewer.  The node budget counts the nodes
    built.
    """
    g = AndOrGraph(*initialize_root(kb))
    nodes, labels, kinds, unsat = g.nodes, g.labels, g.kinds, g.unsat
    edges_of, rules, cores, core_child = g.edges, g.rules, g.cores, g.core_child
    parents: List[List[int]] = [[]]
    marked, choice = g.walk.nodes, g.walk.choice
    stack = [g.root]
    while True:
        # the marking walk: mark what the stack reaches, collect its open nodes
        frontier = []
        while stack:
            v = stack.pop()
            if v in marked:
                continue
            marked.add(v)
            kind = kinds[v]
            if kind == "or":  # the least child not known unsat
                least = None
                for c in edges_of[v]:
                    if c not in unsat and (least is None or c < least):
                        least = c
                choice[v] = least
                stack.append(least)
            elif kind == "and":
                stack.extend(edges_of[v])
            elif kind == "open":
                frontier.append(v)
        if not frontier:
            break
        frontier.sort()
        before = len(unsat)
        for v in frontier:
            ra = applicable_rule(labels[v])
            if ra is None:
                kinds[v] = "end"
                continue
            rules[v] = ra
            kinds[v] = "and" if ra.connective == "and" else "or"
            edges = edges_of[v]
            for concl in ra.conclusions:
                n = len(labels)
                cid = nodes.setdefault(concl, n)  # one lookup, hit or miss
                if cid == n:  # a new node, open unless it is absurdity
                    if cid >= node_budget:
                        raise BudgetExceededError(
                            f"node budget ({node_budget}) exhausted")
                    labels.append(concl)
                    edges_of.append([])
                    rules.append(None)
                    parents.append([])
                    if concl is ABSURDITY:
                        kinds.append("bot")
                        unsat[cid] = len(unsat)
                    else:
                        kinds.append("open")
                edges.append(cid)
            dead = False
            for c in edges:
                parents[c].append(v)
                dead = dead or c in unsat
            if not dead:  # with no unsat child, v cannot be refuted yet
                continue
            # refute v if it is unsat now, then every ancestor that dies with it
            queue = [v]
            for u in queue:  # the queue grows as it is read: breadth first
                death = None if u in unsat else _refuted(g, u)
                if death is None:
                    continue
                unsat[u] = len(unsat)
                cores[u], by = death
                if by is not None:
                    core_child[u] = by
                queue += parents[u]
            if len(unsat) != before:
                break  # the walk may now take other children: walk again
        if len(unsat) == before:
            # every choice stands: walk on from the nodes just expanded,
            # which were open, so none of them has a choice yet
            marked.difference_update(frontier)
            stack = frontier
        elif g.root in unsat:
            break
        else:
            marked.clear()
            choice.clear()
            stack = [g.root]
    return g


# --------------------------------------------------------------------------
# Unsat status and cores
# --------------------------------------------------------------------------

def _refuted(g: AndOrGraph, v: int):
    """None while expanded node ``v``, one of whose children has died, may be
    satisfiable, given ``g.unsat``; else ``(core, by)``.

    ``core`` is v's core, named individuals and role successors alike.
    ``by`` is the child whose core alone refutes or-node ``v`` (a
    backjump), else None.
    A backjump needs a child whose label is v's plus the assertions the
    rule added (``ra.added``): if its core avoids those, it lies inside
    v's Abox.  The merged branch of `close` never qualifies, since its
    core is unsat only under the merged Mbox.
    """
    unsat, kids = g.unsat, g.edges[v]
    if g.kinds[v] == "and":  # the child that died first refutes it
        first = min((c for c in kids if c in unsat), key=unsat.__getitem__)
        return _trans_core(g, v, first), None
    ra = g.rules[v]
    for c, add in zip(kids, ra.added):
        if add is not None and c in unsat and g.cores[c].isdisjoint(add):
            return g.cores[c], c
    for c in kids:
        if c not in unsat:
            return None
    return _or_core(g, v), None


def _or_core(g: AndOrGraph, v: int) -> frozenset:
    """Core of or-node ``v``, all of whose children are unsat.

    For `bot3` it is the assertions that make the membership cycle.
    Otherwise it is the principal assertions plus, for each child, the part
    of the child's core that lies in v's Abox: its core minus what it added,
    or for the merged branch of `close` the assertions the merge renames
    into its core.  The absurdity child of `bot1` and `bot2` adds nothing;
    what `unfold` adds follows from its principal ``A(x)`` and the Tbox.
    For `eq` it is the child's core: the child's Abox is v's, its Mbox is
    part of v's, and the Tbox axioms it adds follow from v's two Mbox
    axioms on one individual, which make the two concepts equal in every
    model.
    """
    ra, j = g.rules[v], g.labels[v]
    if ra.rule == "bot3":
        # the cycle's arcs: each B(x) whose next individual on it is a member of B
        cycle = ra.principal
        _, members, _ = _mbox_facts(j.mbox)
        succ = dict(zip(cycle, cycle[1:] + cycle[:1]))
        return frozenset(a for a in j.abox if type(a) is ConceptAssertion
                         and a.concept.tag == syntax.ATOM
                         and succ.get(a.individual) in members.get(a.concept.name, ()))
    if ra.rule == "eq":
        return g.cores[g.edges[v][0]]
    core = {p for p in ra.principal if not isinstance(p, str)}
    for c, add in zip(g.edges[v], ra.added):
        if add is None:
            ren = {ra.principal[1]: ra.principal[0]}
            merged_core = g.cores[c]
            core.update(a for a in j.abox
                        if not merged_core.isdisjoint(rename_abox((a,), ren)))
        else:
            core.update(g.cores[c].difference(add))
    return frozenset(core)


def _trans_core(g: AndOrGraph, v: int, c: int) -> frozenset:
    """Core of `trans'` node ``v`` whose successor ``c`` is unsat: the existential
    that built ``c`` and the universals on its role and individual whose concept
    is in ``c``'s core; with the Tbox they build a successor that holds that core."""
    j, e, dead = g.labels[v], g.rules[v].principal[g.edges[v].index(c)], g.cores[c]
    x, role = e.individual, e.concept.role
    return frozenset([e] + [a for a in j.abox
                            if type(a) is ConceptAssertion and a.individual == x
                            and a.concept.tag == syntax.FORALL and a.concept.role == role
                            and ConceptAssertion(a.concept.child, ANONYMOUS) in dead])


# --------------------------------------------------------------------------
# Unsatisfiable-node fixpoint, markings, verdicts
# --------------------------------------------------------------------------

def _unsat_with_order(g: AndOrGraph):
    """Least fixpoint of unsat propagation, plus the order nodes entered it.

    Recomputed from the edges and the recorded backjumps alone: absurdity
    is unsat, an and-node with an unsat child is, and so is an or-node
    whose children all are or whose ``g.core_child`` is.  `build_graph`
    keeps the same set up to date in ``g.unsat`` as it grows the graph, and
    this is the reference that checks it; the cores behind the backjumps
    are checked on their own.
    """
    parents: List[set] = [set() for _ in g.labels]
    for u in range(len(g.labels)):
        for c in g.children(u):
            parents[c].add(u)
    entry: Dict[int, int] = {}
    try:
        seed = g.nodes[ABSURDITY]
    except KeyError:
        return set(), entry
    entry[seed] = 0
    queue = deque([seed])
    while queue:
        v = queue.popleft()
        for u in sorted(parents[v]):
            if u in entry:
                continue
            if g.kinds[u] == "or" and g.core_child.get(u) not in entry:
                if not all(c in entry for c in g.children(u)):
                    continue
            entry[u] = len(entry)
            queue.append(u)
    return set(entry), entry


def unsat_nodes(g: AndOrGraph) -> set:
    return _unsat_with_order(g)[0]


def consistent_marking(g: AndOrGraph) -> Marking:
    """The marking reached from the root, taking at each or-node the least
    child id that is not in ``g.unsat``.

    This is the walk that decided the KB: `build_graph` stops when its walk
    reaches no open node, and that walk is the graph's own marking
    (``g.walk``), filled in place as it walked, so it is returned as it
    is.  The graph must be one `build_graph` returned with its root not
    unsat.

    At a ``close`` node the choice is usually the merge branch: its
    conclusion is added to the graph before the separated one, so it gets
    the lower id unless the separated judgement was already cached.  Any
    surviving child would give a legal marking; this preference only fixes
    which one.
    """
    return g.walk


@dataclass(frozen=True)
class Certificate:
    kind: str  # "clash" | "self-inequality" | "circularity"
    detail: tuple

    def describe(self) -> str:
        if self.kind == "clash":
            return "clash: " + " / ".join(self.detail)
        if self.kind == "self-inequality":
            return f"self-inequality: {self.detail[0]} != {self.detail[0]}"
        chain = " -> ".join(self.detail + (self.detail[0],))
        return f"circularity: {chain}"


def _certificate(ra: RuleApplication) -> Certificate:
    if ra.rule == "bot3":
        return Certificate("circularity", tuple(ra.principal))
    if ra.rule == "bot2":
        return Certificate("self-inequality", (ra.principal[0].left,))
    # a clash inside a role successor names its concepts only
    return Certificate("clash", tuple(
        concept_to_str(a.concept) if a.individual == ANONYMOUS else assertion_to_str(a)
        for a in ra.principal))


# The bottom rules, in the order a refutation trace prefers them.
_BOTTOM_PREFERENCE = {"bot3": 0, "bot2": 1, "bot1": 2}


def _refutation_trace(g: AndOrGraph):
    """Deterministic walk from the root through the unsat subgraph, ending
    at the first bottom rule, whose certificate it returns.

    Only the bottom rules conclude absurdity, so every other node on the
    walk was refuted by expanded children, and every step goes to a child
    refuted before its parent.  At an or-node the walk follows the child
    whose core refuted it, if one did; otherwise every child is unsat, and
    the walk takes the least child not expanded by a bottom rule.  When a
    bottom rule expanded every child, it prefers circularity over
    self-inequality over clash, so the reported certificate names the
    deepest obstacle rather than the first dead branch.
    """
    v = g.root
    trace = []
    while True:
        ra = g.rules[v]
        trace.append((v, ra.rule, ra.principal))
        if ra.rule in _BOTTOM_PREFERENCE:
            return trace, _certificate(ra)
        if v in g.core_child:
            v = g.core_child[v]
            continue
        rank = g.unsat[v]
        kids = [c for c in g.edges[v] if g.unsat.get(c, rank) < rank]
        if g.kinds[v] == "or":
            v = min(kids, key=lambda c: (_BOTTOM_PREFERENCE.get(g.rules[c].rule, -1), c))
        else:  # and-node: follow the child that was refuted first
            v = min(kids, key=g.unsat.__getitem__)


@dataclass
class Consistent:
    graph: Optional[AndOrGraph] = None
    marking: Optional[Marking] = None

    @property
    def consistent(self) -> bool:
        return True


@dataclass
class Inconsistent:
    graph: Optional[AndOrGraph] = None
    trace: Optional[list] = None
    certificate: Optional[Certificate] = None

    @property
    def consistent(self) -> bool:
        return False


def check_consistency(kb: KnowledgeBase, node_budget: int = DEFAULT_NODE_BUDGET):
    """Decide KB consistency; consistent verdicts carry a marking."""
    g = build_graph(kb, node_budget)
    if g.root not in g.unsat:
        return Consistent(g, consistent_marking(g))
    return Inconsistent(g, *_refutation_trace(g))


# --------------------------------------------------------------------------
# Trace formatting
# --------------------------------------------------------------------------

def _principal_to_str(ra: RuleApplication) -> str:
    # a principal is an assertion or a name
    return " | ".join(p if isinstance(p, str) else assertion_to_str(p)
                      for p in ra.principal) or "-"


def format_trace(g: AndOrGraph, verdict) -> str:
    """One line per expansion plus a final verdict line; stable across runs."""
    lines = []
    for nid, ra in enumerate(g.rules):
        if ra is None:
            continue
        kids = " ".join(map(str, g.edges[nid]))
        lines.append(f"{nid} {g.kinds[nid]} {ra.rule} {_principal_to_str(ra)} -> {kids}")
    lines.append("verdict " + ("consistent" if verdict.consistent else "inconsistent"))
    return "\n".join(lines) + "\n"
