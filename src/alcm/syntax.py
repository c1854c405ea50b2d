"""Term language for ALCM knowledge bases.

Concepts and Abox assertions are hash-consed: constructing the same shape
twice returns the same object, so structural equality is identity and both
can be used freely as dict keys.  Every concept and assertion carries a
precomputed structural sort key; that fixed total order is what makes
judgement labels, rule choices and printed output deterministic across runs.
A concept also keeps its negation normal form once `nnf` has computed it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Iterable

# Concept variant tags, in sort-key order.
TOP, BOT, ATOM, NOT, AND, OR, EXISTS, FORALL = range(8)


class Concept:
    """One node of the interned concept DAG.  Use the module constructors.

    ``nnf_form`` is the concept's negation normal form once `nnf` has
    computed it, else None: a memo that lasts as long as the interned node.
    """

    __slots__ = ("tag", "name", "role", "left", "right", "child", "key", "nnf_form")

    def __init__(self, tag, name, role, left, right, child, key):
        self.tag = tag
        self.name = name
        self.role = role
        self.left = left
        self.right = right
        self.child = child
        self.key = key
        self.nnf_form = None

    def __lt__(self, other: "Concept") -> bool:
        return self.key < other.key

    def __reduce__(self):
        # pickle and copy rebuild through the intern table, so a copy is the
        # very object it copies
        return _intern, (self.tag, self.name, self.role, self.left, self.right, self.child)

    def __str__(self) -> str:
        return concept_to_str(self)

    def __repr__(self) -> str:
        return f"<{concept_to_str(self)}>"


_table: dict = {}
_table_lock = threading.Lock()


def _sort_key(tag, name, role, left, right, child):
    if tag in (TOP, BOT):
        return (tag,)
    if tag == ATOM:
        return (tag, name)
    if tag == NOT:
        return (tag, child.key)
    if tag in (AND, OR):
        return (tag, left.key, right.key)
    return (tag, role, child.key)


def _intern(tag, name=None, role=None, left=None, right=None, child=None) -> Concept:
    k = (tag, name, role, left, right, child)
    c = _table.get(k)
    if c is None:
        made = Concept(tag, name, role, left, right, child,
                       _sort_key(tag, name, role, left, right, child))
        # Concurrent reads are lock-free; inserts are serialized.
        with _table_lock:
            c = _table.setdefault(k, made)
    return c


def top() -> Concept:
    return _intern(TOP)


def bot() -> Concept:
    return _intern(BOT)


def atom(name: str) -> Concept:
    return _intern(ATOM, name=name)


def neg(c: Concept) -> Concept:
    return _intern(NOT, child=c)


def conj(left: Concept, right: Concept) -> Concept:
    return _intern(AND, left=left, right=right)


def disj(left: Concept, right: Concept) -> Concept:
    return _intern(OR, left=left, right=right)


def exists(role: str, c: Concept) -> Concept:
    return _intern(EXISTS, role=role, child=c)


def forall(role: str, c: Concept) -> Concept:
    return _intern(FORALL, role=role, child=c)


def _conj_simplified(l: Concept, r: Concept) -> Concept:
    # Constant folding: drop top conjuncts, absorb bottom.
    if l.tag == TOP:
        return r
    if r.tag == TOP:
        return l
    if l.tag == BOT or r.tag == BOT:
        return bot()
    return conj(l, r)


def _disj_simplified(l: Concept, r: Concept) -> Concept:
    if l.tag == BOT:
        return r
    if r.tag == BOT:
        return l
    if l.tag == TOP or r.tag == TOP:
        return top()
    return disj(l, r)


def _nnf_step(c: Concept):
    """One rewrite step of `nnf` at ``c``: ``(build, operands)`` such that
    the NNF of ``c`` is ``build`` applied to the NNFs of ``operands``."""
    t = c.tag
    if t == AND:
        return _conj_simplified, (c.left, c.right)
    if t == OR:
        return _disj_simplified, (c.left, c.right)
    if t == EXISTS:
        return partial(exists, c.role), (c.child,)
    if t == FORALL:
        return partial(forall, c.role), (c.child,)
    if t != NOT:  # TOP, BOT, ATOM
        return partial(_same, c), ()
    d = c.child
    t = d.tag
    if t == ATOM:
        return partial(_same, c), ()
    if t == TOP:
        return bot, ()
    if t == BOT:
        return top, ()
    if t == NOT:
        return _same, (d.child,)
    if t == AND:
        return _disj_simplified, (neg(d.left), neg(d.right))
    if t == OR:
        return _conj_simplified, (neg(d.left), neg(d.right))
    if t == EXISTS:
        return partial(forall, d.role), (neg(d.child),)
    return partial(exists, d.role), (neg(d.child),)  # t == FORALL


def _same(c: Concept) -> Concept:
    return c


def nnf(c: Concept) -> Concept:
    """Negation normal form with constant folding.

    Negation ends up applied to atoms only (never to top/bot), and top/bot
    never survive as operands of a binary connective.

    The result is kept on the interned node (``Concept.nnf_form``), so a
    concept is put into NNF once per process and every later call is one
    field read.  It is computed without recursion, operands first; the
    concepts met on the way (negations pushed inward among them) keep their
    NNFs too, and a result, being in NNF, is its own.
    """
    r = c.nnf_form
    if r is not None:
        return r
    stack = [c]
    while stack:
        d = stack[-1]
        if d.nnf_form is not None:
            stack.pop()
            continue
        build, operands = _nnf_step(d)
        todo = [o for o in operands if o.nnf_form is None]
        if todo:
            stack += todo
            continue
        r = build(*[o.nnf_form for o in operands])
        # every thread builds the same interned object, so a racing write
        # stores what is already there
        d.nnf_form = r
        if r.nnf_form is None:
            r.nnf_form = r
        stack.pop()
    return c.nnf_form


def subconcepts(c: Concept) -> frozenset:
    """Syntactic subconcept closure (the concept itself included)."""
    out = set()
    stack = [c]
    while stack:
        d = stack.pop()
        if d in out:
            continue
        out.add(d)
        if d.tag == NOT:
            stack.append(d.child)
        elif d.tag in (AND, OR):
            stack.append(d.left)
            stack.append(d.right)
        elif d.tag in (EXISTS, FORALL):
            stack.append(d.child)
    return frozenset(out)


def disjuncts(c: Concept) -> list:
    """The operands of a flattened disjunction, left to right; ``[c]`` for a
    concept that is not a disjunction."""
    out = []
    stack = [c]
    while stack:
        d = stack.pop()
        if d.tag == OR:
            stack.append(d.right)
            stack.append(d.left)
        else:
            out.append(d)
    return out


# --------------------------------------------------------------------------
# Axioms and assertions
# --------------------------------------------------------------------------

# Axiom records are frozen dataclasses rather than tuples so that equality
# is class-aware.

@dataclass(frozen=True)
class Subsumption:
    lhs: Concept
    rhs: Concept


@dataclass(frozen=True)
class Equivalence:
    lhs: Concept
    rhs: Concept


# Assertion records are hash-consed like concepts: one immutable object per
# class and field tuple, so equality and hashing are by identity and run in
# C, and Equal(a, b) and NotEqual(a, b) stay distinct set members.  Each
# carries its sort key, computed once: the class rank, then its fields.

class _Assertion:
    __slots__ = ("key",)
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


def _new_assertion(cls, table: dict, values: tuple, key: tuple):
    made = object.__new__(cls)
    for f, v in zip(cls._fields, values):
        object.__setattr__(made, f, v)
    object.__setattr__(made, "key", key)
    # Concurrent reads are lock-free; inserts are serialized.
    with _table_lock:
        return table.setdefault(values, made)


_concept_assertions: dict = {}
_role_assertions: dict = {}
_equalities: dict = {}
_inequalities: dict = {}


class ConceptAssertion(_Assertion):
    __slots__ = _fields = ("concept", "individual")

    def __new__(cls, concept: Concept, individual: str):
        k = (concept, individual)
        a = _concept_assertions.get(k)
        if a is None:
            a = _new_assertion(cls, _concept_assertions, k, (0, concept.key, individual))
        return a


class RoleAssertion(_Assertion):
    __slots__ = _fields = ("role", "subject", "object")

    def __new__(cls, role: str, subject: str, object: str):
        k = (role, subject, object)
        a = _role_assertions.get(k)
        if a is None:
            a = _new_assertion(cls, _role_assertions, k, (1,) + k)
        return a


class Equal(_Assertion):
    """Individual equality.  Build with equal() so the pair is sorted."""

    __slots__ = _fields = ("left", "right")

    def __new__(cls, left: str, right: str):
        k = (left, right)
        a = _equalities.get(k)
        if a is None:
            a = _new_assertion(cls, _equalities, k, (2,) + k)
        return a


class NotEqual(_Assertion):
    """Individual inequality.  Build with not_equal() so the pair is sorted."""

    __slots__ = _fields = ("left", "right")

    def __new__(cls, left: str, right: str):
        k = (left, right)
        a = _inequalities.get(k)
        if a is None:
            a = _new_assertion(cls, _inequalities, k, (3,) + k)
        return a


def equal(a: str, b: str) -> Equal:
    return Equal(a, b) if a <= b else Equal(b, a)


def not_equal(a: str, b: str) -> NotEqual:
    return NotEqual(a, b) if a <= b else NotEqual(b, a)


@dataclass(frozen=True, order=True)
class MboxAxiom:
    individual: str
    concept_name: str  # always an atomic concept name


def tbox_axiom_key(ax: Subsumption | Equivalence):
    return (0 if isinstance(ax, Subsumption) else 1, ax.lhs.key, ax.rhs.key)


# The stored sort key of an assertion, or of a concept.
assertion_key = attrgetter("key")


def assertion_individuals(a: ConceptAssertion | RoleAssertion | Equal | NotEqual) -> tuple:
    if isinstance(a, ConceptAssertion):
        return (a.individual,)
    if isinstance(a, RoleAssertion):
        return (a.subject, a.object)
    return (a.left, a.right)


def abox_individuals(
        abox: Iterable[ConceptAssertion | RoleAssertion | Equal | NotEqual]) -> set:
    out = set()
    for a in abox:
        out.update(assertion_individuals(a))
    return out


@dataclass(frozen=True)
class KnowledgeBase:
    """A Tbox/Abox/Mbox triple over the interned name and concept pools."""

    tbox: frozenset = field(default_factory=frozenset)
    abox: frozenset = field(default_factory=frozenset)
    mbox: frozenset = field(default_factory=frozenset)

    @classmethod
    def of(cls, tbox=(), abox=(), mbox=()) -> "KnowledgeBase":
        return cls(frozenset(tbox), frozenset(abox), frozenset(mbox))

    def extended(self, tbox=(), abox=(), mbox=()) -> "KnowledgeBase":
        return KnowledgeBase(self.tbox | frozenset(tbox),
                             self.abox | frozenset(abox),
                             self.mbox | frozenset(mbox))

    def individuals(self) -> tuple:
        return tuple(sorted(abox_individuals(self.abox) | self.mbox_dom()))

    def mbox_dom(self) -> set:
        return {m.individual for m in self.mbox}

    def mbox_range(self) -> set:
        return {m.concept_name for m in self.mbox}

    def concept_names(self) -> set:
        """Every concept name the Tbox, the Abox or the Mbox mentions; the
        concepts share subconcepts, so each distinct one is visited once."""
        names = self.mbox_range()
        stack = [c for ax in self.tbox for c in (ax.lhs, ax.rhs)]
        stack += [a.concept for a in self.abox if type(a) is ConceptAssertion]
        seen = set()
        while stack:
            d = stack.pop()
            if d in seen:
                continue
            seen.add(d)
            t = d.tag
            if t == ATOM:
                names.add(d.name)
            elif t == AND or t == OR:
                stack.append(d.left)
                stack.append(d.right)
            elif t > ATOM:  # NOT, EXISTS, FORALL
                stack.append(d.child)
        return names


def nnf_tbox(tbox: Iterable[Subsumption | Equivalence]) -> frozenset:
    """Compile Tbox axioms to NNF concepts, each read as 'holds everywhere'.

    An equivalence contributes both subsumption directions.
    """
    out = set()
    for ax in tbox:
        out.add(nnf(disj(neg(ax.lhs), ax.rhs)))
        if isinstance(ax, Equivalence):
            out.add(nnf(disj(neg(ax.rhs), ax.lhs)))
    return frozenset(out)


def nnf_abox(abox: Iterable[ConceptAssertion | RoleAssertion | Equal | NotEqual]) -> frozenset:
    out = set()
    for a in abox:
        if isinstance(a, ConceptAssertion):
            out.add(ConceptAssertion(nnf(a.concept), a.individual))
        else:
            out.add(a)
    return frozenset(out)


def rename_abox(abox: Iterable[ConceptAssertion | RoleAssertion | Equal | NotEqual],
                ren: dict) -> set:
    """Replace every individual n by ``ren.get(n, n)``; result is deduplicated.

    (In)equality pairs are re-sorted, and a renaming may collapse one to
    ``a != a``.  Dispatch is on the exact class: this runs for every label
    the engine builds.
    """
    get = ren.get
    out = set()
    for a in abox:
        t = type(a)
        if t is ConceptAssertion:
            out.add(ConceptAssertion(a.concept, get(a.individual, a.individual)))
        elif t is RoleAssertion:
            out.add(RoleAssertion(a.role, get(a.subject, a.subject),
                                  get(a.object, a.object)))
        elif t is Equal:
            out.add(equal(get(a.left, a.left), get(a.right, a.right)))
        else:
            out.add(not_equal(get(a.left, a.left), get(a.right, a.right)))
    return out


def rename_mbox(mbox: Iterable[MboxAxiom], ren: dict) -> frozenset:
    """Replace every individual n by ``ren.get(n, n)``."""
    return frozenset(MboxAxiom(ren.get(m.individual, m.individual), m.concept_name)
                     for m in mbox)


# --------------------------------------------------------------------------
# Printing (shared by the pretty-printer, traces and error messages)
# --------------------------------------------------------------------------

# Precedence levels used for minimal parenthesisation: or < and < unary.
_LVL_OR, _LVL_AND, _LVL_UN, _LVL_ATOM = 1, 2, 3, 4


def concept_to_str(c: Concept) -> str:
    return _cs(c, 0)


def _cs(c: Concept, min_level: int) -> str:
    if c.tag == TOP:
        s, lvl = "top", _LVL_ATOM
    elif c.tag == BOT:
        s, lvl = "bot", _LVL_ATOM
    elif c.tag == ATOM:
        s, lvl = c.name, _LVL_ATOM
    elif c.tag == NOT:
        s, lvl = "not " + _cs(c.child, _LVL_UN), _LVL_UN
    elif c.tag == EXISTS:
        s, lvl = f"exists {c.role} . " + _cs(c.child, _LVL_UN), _LVL_UN
    elif c.tag == FORALL:
        s, lvl = f"forall {c.role} . " + _cs(c.child, _LVL_UN), _LVL_UN
    elif c.tag == AND:
        # Left-associative: the right operand needs the tighter level.
        s, lvl = _cs(c.left, _LVL_AND) + " and " + _cs(c.right, _LVL_UN), _LVL_AND
    else:
        s, lvl = _cs(c.left, _LVL_OR) + " or " + _cs(c.right, _LVL_AND), _LVL_OR
    if lvl < min_level:
        return "(" + s + ")"
    return s


def assertion_to_str(a: ConceptAssertion | RoleAssertion | Equal | NotEqual) -> str:
    if isinstance(a, ConceptAssertion):
        return f"{concept_to_str(a.concept)}({a.individual})"
    if isinstance(a, RoleAssertion):
        return f"{a.role}({a.subject}, {a.object})"
    if isinstance(a, Equal):
        return f"{a.left} = {a.right}"
    return f"{a.left} != {a.right}"


def tbox_axiom_to_str(ax: Subsumption | Equivalence) -> str:
    word = "subclassof" if isinstance(ax, Subsumption) else "equiv"
    return f"{concept_to_str(ax.lhs)} {word} {concept_to_str(ax.rhs)}"


def mbox_axiom_to_str(m: MboxAxiom) -> str:
    return f"{m.individual} =m {m.concept_name}"
