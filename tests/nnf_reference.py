"""Negation normal form written out by polarity.

`syntax.nnf` rewrites one connective at a time, pushing each negation one
step inward, and keeps every result on the interned concept.  This is the
textbook reading it must agree with: one walk down the concept that carries
whether an odd number of negations lies above, and dualises each connective
and quantifier under one.  Constant folding is the same: top drops out of a
conjunction and absorbs a disjunction, bot the other way round.  It
recurses and keeps nothing, so it is for concepts of everyday depth.
"""

from alcm import syntax
from alcm.syntax import bot, conj, disj, exists, forall, neg, top


def _join(conjunctive: bool, left, right):
    unit, zero = (syntax.TOP, syntax.BOT) if conjunctive else (syntax.BOT, syntax.TOP)
    if left.tag == unit:
        return right
    if right.tag == unit:
        return left
    if left.tag == zero or right.tag == zero:
        return bot() if conjunctive else top()
    return conj(left, right) if conjunctive else disj(left, right)


def reference_nnf(c, negated: bool = False):
    """The NNF of ``c``, or of ``not c`` when ``negated``."""
    t = c.tag
    if t == syntax.NOT:
        return reference_nnf(c.child, not negated)
    if t == syntax.ATOM:
        return neg(c) if negated else c
    if t == syntax.TOP:
        return bot() if negated else top()
    if t == syntax.BOT:
        return top() if negated else bot()
    if t in (syntax.AND, syntax.OR):
        return _join((t == syntax.AND) != negated,
                     reference_nnf(c.left, negated), reference_nnf(c.right, negated))
    universal = (t == syntax.FORALL) != negated
    return (forall if universal else exists)(c.role, reference_nnf(c.child, negated))


def forget_nnf() -> None:
    """Empty the NNF memo of every interned concept, as in a fresh process."""
    for c in list(syntax._table.values()):
        c.nnf_form = None
