"""Graph checks that only the tests use: acyclicity of an edge set, the
membership precedence of an extracted R-graph, which criterion 7 requires to
be acyclic, and the direct readings that the engine's and extraction's
shortcuts must agree with.

`reference_marking` walks the consistent marking from the root, where
`engine.consistent_marking` reads it off the walk that decided the KB.
`reference_rgraph` builds the R-graph in two passes over the terminal Abox
and always indexes labels, where `extraction.build_rgraph` makes one typed
pass and indexes only at a `trans'` terminal.  `reference_circular` builds
the membership graph whether or not it has an edge."""

from collections import deque
from typing import Dict, FrozenSet, List

from alcm.digraph import find_cycle
from alcm.engine import ANONYMOUS, AndOrGraph, Marking
from alcm.extraction import VAR_PREFIX, RGraph, _holders, saturation_path
from alcm.syntax import ATOM, Concept, ConceptAssertion, RoleAssertion, abox_individuals


def is_acyclic(nodes, edges) -> bool:
    """True iff the directed graph (nodes, edge pairs) has no cycle."""
    succ = {}
    for (a, b) in edges:
        succ.setdefault(a, []).append(b)
    return find_cycle(nodes, succ) is None


def meta_order(rg: RGraph, mbox) -> set:
    """Membership precedence: y below a whenever a's concept labels y."""
    concept_of = {}
    for m in sorted(mbox):
        concept_of.setdefault(m.individual, m.concept_name)
    holders = _holders(rg)
    return {(y, a) for a, cn in concept_of.items() for y in holders.get(cn, ())}


def reference_circular(abox, mbox):
    """The membership graph's cycle, or None: nodes are the Mbox
    individuals, with an edge a -> b whenever B(a) is asserted and b
    corresponds to B."""
    by_concept: Dict[str, List[str]] = {}
    for m in mbox:
        by_concept.setdefault(m.concept_name, []).append(m.individual)
    mdom = {m.individual for m in mbox}
    succ: Dict[str, set] = {a: set() for a in mdom}
    for a in abox:
        if isinstance(a, ConceptAssertion) and a.individual in mdom \
                and a.concept.tag == ATOM:
            for b in by_concept.get(a.concept.name, ()):
                succ[a.individual].add(b)
    return find_cycle(mdom, succ)


def _least_live_child(g: AndOrGraph, v: int) -> int:
    return min(c for c in g.children(v) if c not in g.unsat)


def reference_marking(g: AndOrGraph) -> Marking:
    """The marking walked from the root of a finished graph: the least
    child not in ``g.unsat`` at each or-node, every child of an and-node."""
    marked = set()
    stack = [g.root]
    while stack:
        v = stack.pop()
        if v in marked:
            continue
        marked.add(v)
        if g.kinds[v] == "or":
            stack.append(_least_live_child(g, v))
        elif g.kinds[v] == "and":
            stack.extend(g.children(v))
    return Marking(frozenset(marked), {v: _least_live_child(g, v) for v in marked
                                       if g.kinds[v] == "or"})


def reference_rgraph(g: AndOrGraph, marking: Marking):
    """`extraction.build_rgraph` read directly: the individuals of the
    terminal's Abox and Mbox first, then a second pass for labels and
    edges, then successors queued from every named individual."""
    root_path = saturation_path(g, marking, g.root)
    merges = []
    for v, w in zip(root_path, root_path[1:]):
        ra = g.rules[v]
        if ra.rule == "close" and w == g.edges[v][0]:
            merges.append((ra.principal[0], ra.principal[1]))
    terminal_id = root_path[-1]
    terminal = g.labels[terminal_id]

    abox = terminal.abox
    names = sorted(abox_individuals(abox) | {m.individual for m in terminal.mbox})
    labels: Dict[str, set] = {n: set() for n in names}
    edges: Dict[str, set] = {}
    for a in abox:
        if isinstance(a, ConceptAssertion):
            labels[a.individual].add(a.concept)
        elif isinstance(a, RoleAssertion):
            edges.setdefault(a.role, set()).add((a.subject, a.object))

    element_of: Dict[FrozenSet[Concept], str] = {}
    for n in names:
        element_of.setdefault(frozenset(labels[n]), n)
    delta: List[str] = list(names)
    queue = deque((n, terminal_id) for n in names)
    while queue:
        x, u = queue.popleft()
        if g.kinds[u] != "and":
            continue
        me = x if u == terminal_id else ANONYMOUS
        for e, w in zip(g.rules[u].principal, g.edges[u]):
            if e.individual != me:
                continue
            v = saturation_path(g, marking, w)[-1]
            Y = frozenset(a.concept for a in g.labels[v].abox)
            y = element_of.get(Y)
            if y is None:
                y = element_of[Y] = f"{VAR_PREFIX}{len(delta) - len(names)}"
                delta.append(y)
                labels[y] = Y
                queue.append((y, v))
            edges.setdefault(e.concept.role, set()).add((x, y))

    rg = RGraph(tuple(delta),
                {n: frozenset(ls) for n, ls in labels.items()},
                {r: frozenset(ps) for r, ps in edges.items()})
    return rg, terminal, merges
