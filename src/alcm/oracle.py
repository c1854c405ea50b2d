"""Naive completion-forest tableau with backtracking.

This is the reference decision procedure used for differential testing: a
direct implementation of the nondeterministic expansion rules, exploring
disjunction and merge choices depth-first with full state snapshots at each
choice point.  It is deliberately simple and slow; the and-or graph engine
is the production path.

Node labels are insertion-ordered dicts used as sets, so scans are
deterministic without any hashing or sorting of concept objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from . import syntax
from .digraph import find_cycle
from .engine import Consistent, Inconsistent
from .errors import BudgetExceededError
from .syntax import (
    AND,
    ATOM,
    BOT,
    EXISTS,
    FORALL,
    NOT,
    OR,
    TOP,
    Concept,
    ConceptAssertion,
    Equal,
    Equivalence,
    KnowledgeBase,
    MboxAxiom,
    NotEqual,
    RoleAssertion,
    abox_individuals,
    assertion_key,
    atom,
    bot,
    conj,
    disj,
    exists,
    forall,
    neg,
    top,
)

DEFAULT_STEP_BUDGET = 200_000

VAR_PREFIX = "v#"
WITNESS_PREFIX = "w#"


# --------------------------------------------------------------------------
# Negation normal form, the oracle's own
# --------------------------------------------------------------------------

# The engine's `syntax.nnf` keeps each result on the interned concept.  The
# oracle recomputes the same form on every call, with the same rewrite
# rules over the same constructors, so that it stays a fixed yardstick for
# the engine: no speed-up of the engine's NNF moves the oracle's time.

def _and(l: Concept, r: Concept) -> Concept:
    if l.tag == TOP:
        return r
    if r.tag == TOP:
        return l
    if l.tag == BOT or r.tag == BOT:
        return bot()
    return conj(l, r)


def _or(l: Concept, r: Concept) -> Concept:
    if l.tag == BOT:
        return r
    if r.tag == BOT:
        return l
    if l.tag == TOP or r.tag == TOP:
        return top()
    return disj(l, r)


def _nnf(c: Concept) -> Concept:
    """Negation normal form with constant folding, as `syntax.nnf`."""
    t = c.tag
    if t in (TOP, BOT, ATOM):
        return c
    if t == AND:
        return _and(_nnf(c.left), _nnf(c.right))
    if t == OR:
        return _or(_nnf(c.left), _nnf(c.right))
    if t == EXISTS:
        return exists(c.role, _nnf(c.child))
    if t == FORALL:
        return forall(c.role, _nnf(c.child))
    d = c.child  # t == NOT
    if d.tag == ATOM:
        return c
    if d.tag == TOP:
        return bot()
    if d.tag == BOT:
        return top()
    if d.tag == NOT:
        return _nnf(d.child)
    if d.tag == AND:
        return _or(_nnf(neg(d.left)), _nnf(neg(d.right)))
    if d.tag == OR:
        return _and(_nnf(neg(d.left)), _nnf(neg(d.right)))
    if d.tag == EXISTS:
        return forall(d.role, _nnf(neg(d.child)))
    return exists(d.role, _nnf(neg(d.child)))  # d.tag == FORALL


def _nnf_tbox(tbox) -> frozenset:
    """Each Tbox axiom as NNF concepts that hold everywhere; an equivalence
    gives both directions."""
    out = set()
    for ax in tbox:
        out.add(_nnf(disj(neg(ax.lhs), ax.rhs)))
        if isinstance(ax, Equivalence):
            out.add(_nnf(disj(neg(ax.rhs), ax.lhs)))
    return frozenset(out)


def _nnf_abox(abox) -> frozenset:
    out = set()
    for a in abox:
        if isinstance(a, ConceptAssertion):
            out.add(ConceptAssertion(_nnf(a.concept), a.individual))
        else:
            out.add(a)
    return frozenset(out)


# --------------------------------------------------------------------------
# Completion forest
# --------------------------------------------------------------------------

@dataclass
class Forest:
    tbox: List[Concept]
    mbox: Tuple[MboxAxiom, ...]
    nodes: List[str]
    labels: Dict[str, dict]                    # node -> ordered concept set
    succ: Dict[str, Dict[str, Set[str]]]       # x -> y -> roles
    uf: Dict[str, str]
    neq: Set[frozenset]
    parent_of: Dict[str, str]
    var_count: int = 0
    meta_rule_firings: int = 0

    def copy(self) -> "Forest":
        return Forest(
            tbox=list(self.tbox),
            mbox=self.mbox,
            nodes=list(self.nodes),
            labels={n: dict(s) for n, s in self.labels.items()},
            succ={x: {y: set(r) for y, r in out.items()}
                  for x, out in self.succ.items()},
            uf=dict(self.uf),
            neq=set(self.neq),
            parent_of=dict(self.parent_of),
            var_count=self.var_count,
            meta_rule_firings=self.meta_rule_firings,
        )

    def find(self, x: str) -> str:
        while self.uf.get(x, x) != x:
            x = self.uf[x]
        return x

    def active(self) -> List[str]:
        return [n for n in self.nodes if self.uf.get(n, n) == n]

    def add_label(self, x: str, c: Concept) -> None:
        self.labels[x][c] = None


def initialize_forest(kb: KnowledgeBase) -> Forest:
    """Seed the forest from the KB: merged equality classes, labels, edges."""
    tbox = sorted(_nnf_tbox(kb.tbox), key=lambda c: c.key)
    abox = _nnf_abox(kb.abox)
    names = sorted(abox_individuals(abox) | kb.mbox_dom())
    uf = {n: n for n in names}

    def find(x):
        while uf[x] != x:
            x = uf[x]
        return x

    for a in sorted((x for x in abox if isinstance(x, Equal)), key=assertion_key):
        ra, rb = find(a.left), find(a.right)
        if ra != rb:
            keep, drop = (ra, rb) if ra < rb else (rb, ra)
            uf[drop] = keep

    labels: Dict[str, dict] = {n: {} for n in names}
    succ: Dict[str, Dict[str, Set[str]]] = {}
    neq: Set[frozenset] = set()
    for a in sorted(abox, key=assertion_key):
        if isinstance(a, ConceptAssertion):
            labels[find(a.individual)][a.concept] = None
        elif isinstance(a, RoleAssertion):
            succ.setdefault(find(a.subject), {}).setdefault(find(a.object), set()) \
                .add(a.role)
        elif isinstance(a, NotEqual):
            neq.add(frozenset((a.left, a.right)))
    return Forest(tbox=tbox, mbox=tuple(sorted(kb.mbox)), nodes=names,
                  labels=labels, succ=succ, uf=uf, neq=neq, parent_of={})


def _label_clash(f: Forest, x: str) -> bool:
    lab = f.labels.get(x, ())
    for c in lab:
        if c.tag == syntax.BOT:
            return True
        if c.tag == syntax.ATOM and neg(c) in lab:
            return True
    return False


def _neq_clash(f: Forest) -> bool:
    return any(len({f.find(p) for p in pair}) == 1 for pair in f.neq)


def _contradiction(f: Forest, touched=None) -> bool:
    # Clashes only ever appear in labels that just grew, so rule
    # applications report the nodes they touched; None scans everything.
    nodes = f.active() if touched is None else touched
    return any(_label_clash(f, x) for x in nodes) or _neq_clash(f)


def _circularity(f: Forest) -> bool:
    by_concept: Dict[str, List[str]] = {}
    for m in f.mbox:
        by_concept.setdefault(m.concept_name, []).append(m.individual)
    mdom = {m.individual for m in f.mbox}
    succ = {a: set() for a in mdom}
    for a in mdom:
        for c in f.labels.get(f.find(a), ()):  # non-representatives carry no labels
            if c.tag == syntax.ATOM:
                for b in by_concept.get(c.name, ()):
                    succ[a].add(b)
    return find_cycle(mdom, succ) is not None


def _blocked(f: Forest, x: str) -> bool:
    """Subset blocking along the variable ancestor chain, indirect included."""
    chain = [x]
    cur = x
    while cur.startswith(VAR_PREFIX):
        parent = f.parent_of[cur]
        if not parent.startswith((VAR_PREFIX, WITNESS_PREFIX)):
            parent = f.find(parent)
        chain.append(parent)
        cur = parent
    for i, v in enumerate(chain[:-1]):
        if not v.startswith(VAR_PREFIX):
            continue
        lv = set(f.labels[v])
        for a in chain[i + 1:]:
            if a in f.labels and lv <= set(f.labels[a]):
                return True
    return False


def _merge(f: Forest, x: str, y: str) -> None:
    """Fold class y into class x: labels, edges, then clear y."""
    f.labels[x].update(f.labels[y])
    for w, roles in f.succ.pop(y, {}).items():
        f.succ.setdefault(x, {}).setdefault(w, set()).update(roles)
    for a, out in f.succ.items():
        if y in out:
            out.setdefault(x, set()).update(out.pop(y))
    f.labels[y] = {}
    f.uf[y] = x


def _find_application(f: Forest, use_blocking: bool, enable_meta: bool = True):
    """First applicable rule under a fixed scan order, or None when complete."""
    act = f.active()
    for x in act:
        for c in f.labels[x]:
            if c.tag == syntax.AND and not (c.left in f.labels[x] and c.right in f.labels[x]):
                return ("conj", x, c)
    for x in act:
        out = f.succ.get(x)
        if not out:
            continue
        for c in f.labels[x]:
            if c.tag == syntax.FORALL:
                for y, roles in out.items():
                    if c.role in roles and c.child not in f.labels[y]:
                        return ("univ", x, c, y)
    for x in act:
        for c in f.tbox:
            if c not in f.labels[x]:
                return ("tbox", x, c)
    maxs = f.mbox if enable_meta else ()
    for i, m1 in enumerate(maxs):
        for m2 in maxs[i:]:
            if m1 == m2:
                continue
            if f.find(m1.individual) == f.find(m2.individual):
                A, B = atom(m1.concept_name), atom(m2.concept_name)
                if disj(A, neg(B)) not in f.tbox or disj(B, neg(A)) not in f.tbox:
                    return ("approx", m1, m2)
    for i, m1 in enumerate(maxs):
        for m2 in maxs[i + 1:]:
            r1, r2 = f.find(m1.individual), f.find(m2.individual)
            if r1 == r2:
                continue
            if any({f.find(p) for p in pair} == {r1, r2} for pair in f.neq):
                w = disj(conj(atom(m1.concept_name), neg(atom(m2.concept_name))),
                         conj(atom(m2.concept_name), neg(atom(m1.concept_name))))
                if not any(w in f.labels[z] for z in act):
                    return ("napprox", m1, m2, w)
    for x in act:
        for c in f.labels[x]:
            if c.tag == syntax.OR and c.left not in f.labels[x] and c.right not in f.labels[x]:
                return ("disj", x, c)
    for i, m1 in enumerate(maxs):
        for m2 in maxs[i + 1:]:
            r1, r2 = f.find(m1.individual), f.find(m2.individual)
            if r1 == r2:
                continue
            if not any({f.find(p) for p in pair} == {r1, r2} for pair in f.neq):
                return ("close", r1, r2)
    for x in act:
        if use_blocking and _blocked(f, x):
            continue
        out = f.succ.get(x, {})
        for c in f.labels[x]:
            if c.tag == syntax.EXISTS:
                if not any(c.role in roles and c.child in f.labels[y]
                           for y, roles in out.items()):
                    return ("exist", x, c)
    return None


def _apply(f: Forest, app, alternative: bool = False) -> list:
    """Mutate the forest; returns the nodes whose labels may have grown."""
    kind = app[0]
    if kind == "conj":
        _, x, c = app
        f.add_label(x, c.left)
        f.add_label(x, c.right)
        return [x]
    if kind == "univ":
        _, x, c, y = app
        f.add_label(y, c.child)
        return [y]
    if kind == "tbox":
        _, x, c = app
        f.add_label(x, c)
        return [x]
    if kind == "approx":
        _, m1, m2 = app
        f.meta_rule_firings += 1
        A, B = atom(m1.concept_name), atom(m2.concept_name)
        for c in (disj(A, neg(B)), disj(B, neg(A))):
            if c not in f.tbox:
                f.tbox.append(c)
        return []
    if kind == "napprox":
        _, m1, m2, w = app
        f.meta_rule_firings += 1
        z = f"{WITNESS_PREFIX}{f.var_count}"
        f.var_count += 1
        f.nodes.append(z)
        f.labels[z] = {w: None}
        return [z]
    if kind == "disj":
        _, x, c = app
        f.add_label(x, c.right if alternative else c.left)
        return [x]
    if kind == "close":
        _, r1, r2 = app
        f.meta_rule_firings += 1
        if alternative:
            f.neq.add(frozenset((r1, r2)))
            return []
        _merge(f, r1, r2)
        return [r1]
    if kind == "exist":
        _, x, c = app
        z = f"{VAR_PREFIX}{f.var_count}"
        f.var_count += 1
        f.nodes.append(z)
        f.labels[z] = {c.child: None}
        f.succ.setdefault(x, {}).setdefault(z, set()).add(c.role)
        f.parent_of[z] = x
        return [z]
    raise AssertionError(kind)


def expand_forest(f: Forest, step_budget: int = DEFAULT_STEP_BUDGET,
                  use_blocking: bool = True, enable_meta: bool = True) -> bool:
    """Depth-first search over disjunction and merge choices.

    True when some branch completes without contradiction or circularity.
    """
    stack: List[Tuple[Forest, tuple]] = []
    steps = 0
    state = f
    touched = None  # None forces a full contradiction scan
    while True:
        steps += 1
        if steps > step_budget:
            raise BudgetExceededError(f"step budget ({step_budget}) exhausted")
        if _contradiction(state, touched) or _circularity(state):
            if not stack:
                return False
            state, alt = stack.pop()
            touched = _apply(state, alt, alternative=True)
            continue
        app = _find_application(state, use_blocking, enable_meta)
        if app is None:
            return True
        if app[0] in ("disj", "close"):
            stack.append((state.copy(), app))
        touched = _apply(state, app)


def decide(kb: KnowledgeBase, step_budget: int = DEFAULT_STEP_BUDGET,
           use_blocking: bool = True, enable_meta: bool = True):
    """Same verdict type as the engine, minus graph details."""
    f = initialize_forest(kb)
    if expand_forest(f, step_budget, use_blocking, enable_meta):
        return Consistent()
    return Inconsistent()
