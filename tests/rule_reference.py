"""The rule strategy written as one scan of the label per rule class.

`engine.applicable_rule` sorts a label's assertions once by connective and
scans each list on its own.  This is the direct reading of the strategy it
must agree with: each class of rules walks the whole Abox again, and every
candidate is tested against a per-individual concept index.  The tests
compare the two on every label of their graphs.  Absorption is written out
here too, as `reference_absorb`, apart from `engine.absorb`, and membership
cycles are found by `graph_checks.reference_circular`, apart from
`engine.circular`.
"""

from functools import reduce
from typing import Dict, Tuple

from alcm import syntax
from alcm.engine import (
    ABSURDITY,
    FRESH_PREFIX,
    RuleApplication,
    _extend,
    difference_witness,
    make_base,
    make_variable,
)
from alcm.syntax import (
    ConceptAssertion,
    RoleAssertion,
    atom,
    disj,
    neg,
    not_equal,
    rename_abox,
    rename_mbox,
)

from graph_checks import reference_circular


def _flat(c):
    if c.tag == syntax.OR:
        return _flat(c.left) + _flat(c.right)
    return [c]


def reference_absorb(tbox):
    """``(general, axioms)``: the Tbox concepts with no negated-atom disjunct
    beside another disjunct, in key order, and the absorbed axioms as a
    sorted list of ``(A, D)`` pairs, each absorbed on its least negated
    atom, with D the other disjuncts, repeats dropped, left-nested."""
    general, axioms = [], set()
    for c in tbox:
        ds = []
        for d in _flat(c):
            if d not in ds:
                ds.append(d)
        negated = sorted((d for d in ds if d.tag == syntax.NOT), key=lambda d: d.key)
        if negated and len(ds) > 1:
            rest = [d for d in ds if d is not negated[0]]
            axioms.add((negated[0].child, reduce(disj, rest)))
        else:
            general.append(c)
    return (sorted(general, key=lambda d: d.key),
            sorted(axioms, key=lambda ad: (ad[0].key, ad[1].key)))


def reference_rule(j):
    """The rule application the strategy picks for ``j``, or None."""
    T, A, M = j.tbox, j.abox, j.mbox
    by_ind: Dict[str, set] = {}
    role_out: Dict[Tuple[str, str], list] = {}
    neqs = []
    individuals = set()
    for a in A:
        if type(a) is ConceptAssertion:
            by_ind.setdefault(a.individual, set()).add(a.concept)
            individuals.add(a.individual)
        elif type(a) is RoleAssertion:
            role_out.setdefault((a.role, a.subject), []).append(a)
            individuals.add(a.subject)
            individuals.add(a.object)
        else:
            neqs.append(a)
            individuals.add(a.left)
            individuals.add(a.right)
    mdom = list(dict.fromkeys(m.individual for m in M))
    concept_of = {}
    for m in M:
        concept_of.setdefault(m.individual, m.concept_name)

    general, axioms = reference_absorb(T)

    # Bottom rules first.
    for a in A:
        if type(a) is ConceptAssertion:
            c = a.concept
            if c.tag == syntax.BOT:
                return RuleApplication("bot1", "or", (a,), j, (ABSURDITY,))
            if c.tag == syntax.ATOM and neg(c) in by_ind[a.individual]:
                other = ConceptAssertion(neg(c), a.individual)
                return RuleApplication("bot1", "or", (a, other), j, (ABSURDITY,))
            if c.tag == syntax.NOT and c.child in by_ind[a.individual]:
                other = ConceptAssertion(c.child, a.individual)
                return RuleApplication("bot1", "or", (other, a), j, (ABSURDITY,))
    for a in neqs:
        if a.left == a.right:
            return RuleApplication("bot2", "or", (a,), j, (ABSURDITY,))
    if M:
        cycle = reference_circular(A, M)
        if cycle is not None:
            return RuleApplication("bot3", "or", tuple(cycle), j, (ABSURDITY,))

    # Unary static rules.
    for a in A:
        if type(a) is ConceptAssertion and a.concept.tag == syntax.AND:
            c, x = a.concept, a.individual
            have = by_ind[x]
            if not (c.left in have and c.right in have):
                adds = (ConceptAssertion(c.left, x), ConceptAssertion(c.right, x))
                return RuleApplication("and'", "or", (a,), j, (_extend(j, adds),), (adds,))
    for a in A:
        if type(a) is ConceptAssertion and a.concept.tag == syntax.FORALL:
            c, x = a.concept, a.individual
            for r in role_out.get((c.role, x), ()):
                if c.child not in by_ind.get(r.object, ()):
                    adds = (ConceptAssertion(c.child, r.object),)
                    return RuleApplication("all", "or", (a, r), j, (_extend(j, adds),),
                                           (adds,))
    for a in A:
        if type(a) is ConceptAssertion and a.concept.tag == syntax.ATOM:
            x = a.individual
            adds = tuple(ConceptAssertion(d, x) for at, d in axioms
                         if at is a.concept and d not in by_ind[x])
            if adds:
                return RuleApplication("unfold", "or", (a,), j, (_extend(j, adds),), (adds,))
    for ind in mdom:
        axs = [m for m in M if m.individual == ind]
        if len(axs) >= 2:
            keep, drop = axs[0], axs[1]
            An, Bn = keep.concept_name, drop.concept_name
            tb_add = {disj(atom(An), neg(atom(Bn))), disj(atom(Bn), neg(atom(An)))}
            concl = make_base(set(T) | tb_add, A, set(M) - {drop})
            return RuleApplication("eq", "or", (ind, An, Bn), j, (concl,))
    for a in neqs:
        if a.left in concept_of and a.right in concept_of:
            An, Bn = concept_of[a.left], concept_of[a.right]
            w = difference_witness(An, Bn)
            if not any(w in cs for cs in by_ind.values()):
                nfresh = sum(1 for n in individuals if n.startswith(FRESH_PREFIX))
                d0 = f"{FRESH_PREFIX}{nfresh}"
                adds = (ConceptAssertion(w, d0),) + tuple(ConceptAssertion(c, d0) for c in general)
                return RuleApplication("neq", "or", (a, An, Bn), j, (_extend(j, adds),),
                                       (adds,))

    # Branching static rules.
    for a in A:
        if type(a) is ConceptAssertion and a.concept.tag == syntax.OR:
            c, x = a.concept, a.individual
            have = by_ind[x]
            if c.left not in have and c.right not in have:
                adds = ((ConceptAssertion(c.left, x),), (ConceptAssertion(c.right, x),))
                return RuleApplication("or'", "or", (a,), j,
                                       tuple(_extend(j, add) for add in adds), adds)
    if len(mdom) > 1:
        neq_pairs = {(n.left, n.right) for n in neqs}
        srt = sorted(mdom)
        for i, a in enumerate(srt):
            for b in srt[i + 1:]:
                if (a, b) not in neq_pairs:
                    merged = make_base(T, rename_abox(A, {b: a}), rename_mbox(M, {b: a}))
                    adds = (not_equal(a, b),)
                    return RuleApplication("close", "or", (a, b), j,
                                           (merged, _extend(j, adds)), (None, adds))

    # Transitional rule: the general Tbox concepts go on every successor.
    existentials = [a for a in A
                    if type(a) is ConceptAssertion and a.concept.tag == syntax.EXISTS]
    if existentials:
        concls = []
        for e in existentials:
            c, x = e.concept, e.individual
            xs = [c.child] + [d.child for d in sorted(by_ind[x], key=lambda d: d.key)
                              if d.tag == syntax.FORALL and d.role == c.role]
            concls.append(make_variable(T, xs + general))
        return RuleApplication("trans'", "and", tuple(existentials), j, tuple(concls))
    return None
