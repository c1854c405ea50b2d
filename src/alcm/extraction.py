"""From consistent markings to concrete models.

A marking is flattened into an R-graph (element names, concept labels, role
edges) by walking saturation paths; the R-graph is then read back either as
a flat name-domain interpretation or, unfolding meta-modelled individuals
into nested sets, as a full model of the original knowledge base.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from . import syntax
from .engine import (
    ANONYMOUS,
    AndOrGraph,
    BaseJudgement,
    Marking,
    _mbox_facts,
    check_consistency,
    circular,
    difference_witness,
    DEFAULT_NODE_BUDGET,
)
from .semantics import Interpretation, el_atom, el_set
from .syntax import (
    Concept,
    ConceptAssertion,
    NotEqual,
    RoleAssertion,
    concept_to_str,
    disjuncts,
)

VAR_PREFIX = "y#"


@dataclass
class RGraph:
    """Element names with concept labels and role edges."""

    delta: Tuple[str, ...]
    labels: Dict[str, FrozenSet[Concept]]
    edges: Dict[str, FrozenSet[Tuple[str, str]]]


def saturation_path(g: AndOrGraph, marking: Marking, v: int) -> List[int]:
    """Follow or-node choices from v down to the first and-node (or end node)."""
    path = [v]
    while g.kinds[v] == "or":
        v = marking.choice[v]
        path.append(v)
    return path


def build_rgraph(g: AndOrGraph, marking: Marking):
    """Flatten a consistent marking into an R-graph.

    Returns (rgraph, terminal judgement, merge list), where the terminal
    judgement is the base and-node (or end node) closing the root's
    saturation path and the merge list records the (keep, drop) pairs of
    every merge taken on that path, in order.

    The named elements, their labels and the role edges come from one pass
    over the terminal's Abox, plus its Mbox individuals, in name order.
    Only a `trans'` terminal has successors to add: they are read off the
    marking from it, and elements with equal labels are shared.
    """
    root_path = saturation_path(g, marking, g.root)
    merges = []
    for v, w in zip(root_path, root_path[1:]):
        ra = g.rules[v]
        if ra.rule == "close" and w == g.edges[v][0]:
            merges.append((ra.principal[0], ra.principal[1]))
    terminal_id = root_path[-1]
    terminal = g.labels[terminal_id]

    found: Dict[str, set] = {}
    edges: Dict[str, set] = {}
    for a in terminal.abox:
        t = type(a)
        if t is ConceptAssertion:
            have = found.get(a.individual)
            if have is None:
                found[a.individual] = {a.concept}
            else:
                have.add(a.concept)
        elif t is RoleAssertion:
            edges.setdefault(a.role, set()).add((a.subject, a.object))
            found.setdefault(a.subject, set())
            found.setdefault(a.object, set())
        else:  # an inequality: base judgements carry no equalities
            found.setdefault(a.left, set())
            found.setdefault(a.right, set())
    for m in terminal.mbox:
        found.setdefault(m.individual, set())
    delta: List[str] = sorted(found)
    labels: Dict[str, FrozenSet[Concept]] = {n: frozenset(found[n]) for n in delta}

    if g.kinds[terminal_id] == "and":
        named = len(delta)
        # elements with equal labels are one element: the first name wins
        element_of: Dict[FrozenSet[Concept], str] = {}
        for n in delta:
            element_of.setdefault(labels[n], n)
        queue = deque((n, terminal_id) for n in delta)
        while queue:
            x, u = queue.popleft()
            if g.kinds[u] != "and":
                continue
            # edge i of a trans' node is the successor of its i-th existential;
            # x's are asserted of x at the terminal, of ANONYMOUS in a successor
            me = x if u == terminal_id else ANONYMOUS
            for e, w in zip(g.rules[u].principal, g.edges[u]):
                if e.individual != me:
                    continue
                # labels only grow along an or-path, so its last one holds them all
                v = saturation_path(g, marking, w)[-1]
                Y = frozenset(a.concept for a in g.labels[v].abox)
                y = element_of.get(Y)
                if y is None:
                    y = element_of[Y] = f"{VAR_PREFIX}{len(delta) - named}"
                    delta.append(y)
                    labels[y] = Y
                    queue.append((y, v))
                edges.setdefault(e.concept.role, set()).add((x, y))

    rg = RGraph(tuple(delta), labels, {r: frozenset(ps) for r, ps in edges.items()})
    return rg, terminal, merges


# --------------------------------------------------------------------------
# Saturation conditions
# --------------------------------------------------------------------------

class Violation(NamedTuple):
    condition: str
    witness: str


def check_saturated(rg: RGraph, terminal: BaseJudgement) -> List[Violation]:
    """All fourteen closure conditions; empty list means fully saturated."""
    out: List[Violation] = []
    labels, edges = rg.labels, rg.edges
    delta = rg.delta
    succ: Dict[str, Dict[str, set]] = {}
    for role, pairs in edges.items():
        for (x, y) in pairs:
            succ.setdefault(x, {}).setdefault(role, set()).add(y)

    for x in delta:
        for c in sorted(labels[x], key=lambda d: d.key):
            if c.tag == syntax.NOT and c.child in labels[x]:
                out.append(Violation("clash", f"{concept_to_str(c)} and its operand on {x}"))
            elif c.tag == syntax.AND and not (c.left in labels[x] and c.right in labels[x]):
                out.append(Violation("conj", f"{concept_to_str(c)} on {x}"))
            elif c.tag == syntax.OR and not (c.left in labels[x] or c.right in labels[x]):
                out.append(Violation("disj", f"{concept_to_str(c)} on {x}"))
            elif c.tag == syntax.FORALL:
                for y in sorted(succ.get(x, {}).get(c.role, ())):
                    if c.child not in labels[y]:
                        out.append(Violation(
                            "univ", f"{concept_to_str(c)} on {x}, successor {y}"))
            elif c.tag == syntax.EXISTS:
                if not any(c.child in labels[y]
                           for y in succ.get(x, {}).get(c.role, ())):
                    out.append(Violation("exist", f"{concept_to_str(c)} on {x}"))
    # A Tbox concept holds on x, as x's label reads it, when it is in the
    # label, when one of its disjuncts is, or when a disjunct `not A` has A
    # absent from the label; this holds however the Tbox was put on elements.
    for c in terminal.tbox:
        ds = disjuncts(c)
        negated = [d.child for d in ds if d.tag == syntax.NOT]
        for x in delta:
            ls = labels[x]
            if not (c in ls or any(d in ls for d in ds)
                    or any(a not in ls for a in negated)):
                out.append(Violation("tbox", f"{concept_to_str(c)} missing on {x}"))

    abox, mbox = terminal.abox, terminal.mbox
    in_delta = set(delta)
    for a in abox:
        if isinstance(a, ConceptAssertion):
            if a.individual not in in_delta:
                out.append(Violation("abox-domain", a.individual))
            elif a.concept not in labels[a.individual]:
                out.append(Violation("abox-concept", f"{concept_to_str(a.concept)} on {a.individual}"))
        elif isinstance(a, RoleAssertion):
            if not {a.subject, a.object} <= in_delta:
                out.append(Violation("abox-domain", f"{a.subject},{a.object}"))
            elif (a.subject, a.object) not in edges.get(a.role, frozenset()):
                out.append(Violation("abox-role", f"{a.role}({a.subject},{a.object})"))
        elif isinstance(a, NotEqual):
            if a.left == a.right:
                out.append(Violation("abox-inequality", a.left))

    concept_of, _, pair = _mbox_facts(mbox)
    mdom = sorted(concept_of)
    for a in mdom:
        if a not in in_delta:
            out.append(Violation("mbox-domain", a))
    cyc = circular([ConceptAssertion(c, a) for a in mdom for c in labels.get(a, ())],
                   mbox)
    if cyc is not None:
        out.append(Violation("mbox-circularity", " -> ".join(cyc)))
    if pair is not None:  # one violation per axiom past an individual's least
        out.extend(Violation("mbox-functional", m.individual) for m in sorted(mbox)
                   if concept_of[m.individual] != m.concept_name)
    for i, a in enumerate(mdom):
        for b in mdom[i + 1:]:
            w = difference_witness(concept_of[a], concept_of[b])
            if not any(w in labels[t] for t in delta if t in labels):
                out.append(Violation("mbox-difference-witness", f"{a} vs {b}"))
    return out


# --------------------------------------------------------------------------
# Interpretations
# --------------------------------------------------------------------------

def _holders(rg: RGraph) -> Dict[str, List[str]]:
    """Each concept name's holders: the elements labelled with its atom, in order."""
    holders: Dict[str, List[str]] = {}
    for x in rg.delta:
        for c in rg.labels[x]:
            if c.tag == syntax.ATOM:
                holders.setdefault(c.name, []).append(x)
    return holders


def _unfold(x: str, memo: dict, concept_of: dict, holders: dict):
    """x's element: an atom, or for a meta-modelled x the set of its concept's
    holders' elements, each made once and kept in ``memo``.  A module-level
    function, so the recursion leaves no closure cycle for the collector."""
    e = memo.get(x)
    if e is None:
        cn = concept_of.get(x)
        e = el_atom(x) if cn is None else el_set(
            _unfold(y, memo, concept_of, holders) for y in holders.get(cn, ()))
        memo[x] = e
    return e


def unfold_sets(rg: RGraph, mbox, names) -> Interpretation:
    """Replace each meta-modelled individual by the set its concept denotes.

    The interpretation lists the given concept names and those of the Mbox,
    each with its holders' elements, so a name no label holds has an empty
    extension.  Requires the meta-modelling recursion to be well-founded; a
    circular R-graph is rejected up front rather than looped on.  The Mbox
    may be any collection; it is read, like the engine reads a label's,
    through `_mbox_facts`.
    """
    if type(mbox) is not tuple:
        mbox = tuple(sorted(mbox))
    concept_of, _, pair = _mbox_facts(mbox)
    if pair is not None:
        raise ValueError(f"{pair[0].individual} is meta-modelled twice")
    cyc = circular([ConceptAssertion(c, x) for x in concept_of
                    for c in rg.labels.get(x, ())], mbox)
    if cyc is not None:
        raise ValueError("meta-modelling circularity: " + " -> ".join(cyc))

    holders = _holders(rg)
    memo: Dict[str, object] = {}
    elems = {x: _unfold(x, memo, concept_of, holders) for x in rg.delta}
    concepts = {name: frozenset(map(elems.__getitem__, holders.get(name, ())))
                for name in sorted({*names, *concept_of.values()})}
    roles = {r: frozenset((elems[x], elems[y]) for (x, y) in ps)
             for r, ps in rg.edges.items()}
    return Interpretation(domain=frozenset(elems.values()),
                          concepts=concepts,
                          roles=roles,
                          individuals=dict(elems))


# --------------------------------------------------------------------------
# End-to-end extraction
# --------------------------------------------------------------------------

def model_from_verdict(kb, verdict) -> Interpretation:
    """Model of the original KB from its consistent engine verdict.

    Individuals merged away by initialization or on the saturation path are
    mapped to their representative's element, so every original name stays
    resolvable.  A representative that no surviving assertion mentions (an
    individual known only through equalities) is unconstrained and becomes a
    fresh atom of its own.  Every concept name of the KB is listed, with an
    empty extension where no label holds it, whatever path the rules took;
    the rules introduce no name the KB lacks.
    """
    rg, terminal, merges = build_rgraph(verdict.graph, verdict.marking)
    interp = unfold_sets(rg, terminal.mbox, kb.concept_names())
    rep = dict(verdict.graph.initial_merges)
    for keep, drop in merges:
        rep = {orig: (keep if r == drop else r) for orig, r in rep.items()}
    fresh = []
    for orig in sorted(rep):
        r = rep[orig]
        e = interp.individuals.get(r)
        if e is None:
            e = el_atom(r)
            interp.individuals[r] = e
            fresh.append(e)
        interp.individuals[orig] = e
    if fresh:  # else unfold_sets' domain stands as it is
        interp.domain = interp.domain.union(fresh)
    return interp


def extract_model(kb, node_budget: int = DEFAULT_NODE_BUDGET) -> Optional[Interpretation]:
    """Decide the KB and, when consistent, hand back a full nested-set model."""
    verdict = check_consistency(kb, node_budget)
    if not verdict.consistent:
        return None
    return model_from_verdict(kb, verdict)
