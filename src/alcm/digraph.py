"""Deterministic cycle detection for small directed graphs."""

from __future__ import annotations


def find_cycle(nodes, successors):
    """Return one directed cycle as a node list, or None if the graph is acyclic.

    `successors` maps a node to an iterable of nodes; nodes and successor lists
    are visited in sorted order, so the returned cycle is the same on every
    run.  Self-loops count as cycles.  The cycle [a, b, c] stands for the
    edge sequence a -> b -> c -> a.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    for start in sorted(nodes):
        if color[start] != WHITE:
            continue
        stack = [(start, iter(sorted(successors.get(start, ()))))]
        color[start] = GREY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in color:
                    continue
                if color[nxt] == GREY:
                    return path[path.index(nxt):]
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, iter(sorted(successors.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None

