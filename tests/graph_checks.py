"""Graph checks that only the tests use: acyclicity of an edge set, and the
membership precedence of an extracted R-graph, which criterion 7 requires to
be acyclic."""

from alcm.digraph import find_cycle
from alcm.extraction import RGraph, _holders


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
