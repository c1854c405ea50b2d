"""Reader and printer for the textual knowledge-base format (.alcm files).

Grammar (sections may repeat and accumulate):

    kb       := (tboxSec | aboxSec | mboxSec)*
    tboxSec  := "tbox" "{" (taxiom ";")* "}"
    taxiom   := concept ("subclassof" | "equiv") concept
    aboxSec  := "abox" "{" (assertion ";")* "}"
    assertion:= concept "(" IND ")" | ROLE "(" IND "," IND ")"
              | IND "=" IND | IND "!=" IND
    mboxSec  := "mbox" "{" (IND "=m" CNAME ";")* "}"
    concept  := orC ;  orC := andC ("or" andC)* ;  andC := un ("and" un)*
    un       := "not" un | "exists" ROLE "." un | "forall" ROLE "." un
              | "top" | "bot" | CNAME | "(" concept ")"

Identifiers are [A-Za-z][A-Za-z0-9_]*; "#" starts a line comment.  Concept,
role and individual namespaces are told apart by syntactic position only.
"""

from __future__ import annotations

from typing import NamedTuple

from .syntax import (
    ConceptAssertion,
    Equivalence,
    KnowledgeBase,
    MboxAxiom,
    RoleAssertion,
    Subsumption,
    assertion_key,
    assertion_to_str,
    atom,
    bot,
    conj,
    disj,
    equal,
    exists,
    forall,
    mbox_axiom_to_str,
    neg,
    not_equal,
    tbox_axiom_key,
    tbox_axiom_to_str,
    top,
)

KEYWORDS = frozenset({
    "tbox", "abox", "mbox", "and", "or", "not", "exists", "forall",
    "top", "bot", "subclassof", "equiv",
})


class ParseError(Exception):
    """A syntax error at ``origin:line:column`` (origin names the input:
    a file path, "query", ...)."""

    def __init__(self, message: str, origin: str, line: int, column: int,
                 expected: str = ""):
        self.message = message
        self.origin = origin
        self.line = line
        self.column = column
        self.expected = expected
        tail = f" (expected {expected})" if expected else ""
        super().__init__(f"{origin}:{line}:{column}: {message}{tail}")


class Token(NamedTuple):
    kind: str  # "ident", a punctuation string, or "eof"
    text: str
    line: int
    column: int


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _tokenize(text: str, origin: str):
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha():
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == "!" and i + 1 < n and text[i + 1] == "=":
            toks.append(Token("!=", "!=", line, col))
            i += 2
            col += 2
            continue
        if ch == "=":
            # "=m" only when the m is not the start of an identifier.
            if (i + 1 < n and text[i + 1] == "m"
                    and (i + 2 >= n or not _is_ident_char(text[i + 2]))):
                toks.append(Token("=m", "=m", line, col))
                i += 2
                col += 2
                continue
            toks.append(Token("=", "=", line, col))
            i += 1
            col += 1
            continue
        if ch in "{}();.,":
            toks.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", origin, line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str, origin: str):
        self.toks = _tokenize(text, origin)
        self.pos = 0
        self.origin = origin

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def error(self, message: str, expected: str = "", tok: Token = None):
        t = tok or self.peek()
        raise ParseError(message, self.origin, t.line, t.column, expected)

    def expect(self, kind: str, production: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.error(f"malformed {production}: got {t.text or 'end of input'!r}",
                       expected=kind)
        return self.advance()

    def expect_name(self, production: str) -> str:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            self.error(f"malformed {production}: got {t.text or 'end of input'!r}",
                       expected="a name")
        return self.advance().text

    # ---- concepts --------------------------------------------------------

    def concept(self):
        c = self.and_concept()
        while self.peek().kind == "ident" and self.peek().text == "or":
            self.advance()
            c = disj(c, self.and_concept())
        return c

    def and_concept(self):
        c = self.unary_concept()
        while self.peek().kind == "ident" and self.peek().text == "and":
            self.advance()
            c = conj(c, self.unary_concept())
        return c

    def unary_concept(self):
        t = self.peek()
        if t.kind == "(":
            self.advance()
            c = self.concept()
            self.expect(")", "concept")
            return c
        if t.kind != "ident":
            self.error("malformed concept", expected="a concept")
        if t.text == "not":
            self.advance()
            return neg(self.unary_concept())
        if t.text in ("exists", "forall"):
            self.advance()
            role = self.expect_name("role restriction")
            self.expect(".", "role restriction")
            body = self.unary_concept()
            return exists(role, body) if t.text == "exists" else forall(role, body)
        if t.text == "top":
            self.advance()
            return top()
        if t.text == "bot":
            self.advance()
            return bot()
        if t.text in KEYWORDS:
            self.error(f"keyword {t.text!r} cannot be used as a concept name",
                       expected="a concept")
        self.advance()
        return atom(t.text)

    # ---- sections --------------------------------------------------------

    def kb(self) -> KnowledgeBase:
        tbox, abox, mbox = set(), set(), set()
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "ident" or t.text not in ("tbox", "abox", "mbox"):
                self.error("expected a section", expected="'tbox', 'abox' or 'mbox'")
            self.advance()
            self.expect("{", f"{t.text} section")
            while self.peek().kind != "}":
                if t.text == "tbox":
                    tbox.add(self.tbox_axiom())
                elif t.text == "abox":
                    abox.add(self.abox_assertion())
                else:
                    mbox.add(self.mbox_axiom())
                self.expect(";", f"{t.text} entry")
            self.advance()
        return KnowledgeBase.of(tbox, abox, mbox)

    def tbox_axiom(self):
        lhs = self.concept()
        t = self.peek()
        if t.kind == "ident" and t.text in ("subclassof", "equiv"):
            self.advance()
            rhs = self.concept()
            return Subsumption(lhs, rhs) if t.text == "subclassof" else Equivalence(lhs, rhs)
        self.error("malformed tbox axiom", expected="'subclassof' or 'equiv'")

    def abox_assertion(self):
        t0, t1 = self.peek(0), self.peek(1)
        if t0.kind == "ident" and t0.text not in KEYWORDS:
            if t1.kind in ("=", "!="):
                a = self.advance().text
                op = self.advance()
                b = self.expect_name("individual equality")
                return equal(a, b) if op.kind == "=" else not_equal(a, b)
            if t1.kind == "=m":
                self.error("meta-modelling axioms belong in the mbox section",
                           expected="an abox assertion")
            if (t1.kind == "(" and self.peek(2).kind == "ident"
                    and self.peek(3).kind == ","):
                role = self.advance().text
                self.advance()  # (
                a = self.expect_name("role assertion")
                self.expect(",", "role assertion")
                b = self.expect_name("role assertion")
                self.expect(")", "role assertion")
                return RoleAssertion(role, a, b)
        return self.concept_assertion(self.concept())

    def concept_assertion(self, c):
        """The "(" IND ")" that makes concept ``c`` an assertion."""
        self.expect("(", "concept assertion")
        a = self.expect_name("concept assertion")
        self.expect(")", "concept assertion")
        return ConceptAssertion(c, a)

    def mbox_axiom(self):
        ind = self.expect_name("mbox axiom")
        self.expect("=m", "mbox axiom")
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            self.error("mbox right-hand side must be an atomic concept name",
                       expected="a concept name")
        return MboxAxiom(ind, self.advance().text)


def parse_kb(text: str, origin: str = "<kb>") -> KnowledgeBase:
    return _Parser(text, origin).kb()


def parse_concept(text: str):
    """Parse a whole string as one concept (used by the CLI); errors name
    their origin "query"."""
    p = _Parser(text, "query")
    c = p.concept()
    if p.peek().kind != "eof":
        p.error("trailing input after concept")
    return c


def parse_query(text: str):
    """Parse the query of `alcm entails` into the axiom it asks about.

    `C sub D` gives a `Subsumption`; `C(a)`, `a = b` and `a != b` the Abox
    assertion and `a =m A` the `MboxAxiom` that `parse_kb` reads from the
    same text.  Errors name their origin "query".
    """
    p = _Parser(text, "query")
    t0, t1 = p.peek(0), p.peek(1)
    named = t0.kind == "ident" and t0.text not in KEYWORDS
    if named and t1.kind == "=m":
        axiom = p.mbox_axiom()
    elif named and t1.kind in ("=", "!="):
        p.pos = 2
        p.expect_name("query")  # a missing right-hand name makes the query malformed
        p.pos = 0
        axiom = p.abox_assertion()
    elif named and t1.kind == "(" and p.peek(2).kind == "ident" and p.peek(3).kind == ",":
        p.error("role assertion queries are not supported")
    else:
        c = p.concept()
        t = p.peek()
        if t.kind == "(":
            axiom = p.concept_assertion(c)
        elif t.kind == "ident" and t.text == "sub":
            p.advance()
            axiom = Subsumption(c, p.concept())
        else:
            p.error("malformed query",
                    expected="'sub', '(individual)', '=', '!=' or '=m'")
    if p.peek().kind != "eof":
        p.error("trailing input after query")
    return axiom


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

def print_kb(kb: KnowledgeBase) -> str:
    """Canonical pretty-print; parse_kb(print_kb(kb)) == kb."""
    parts = []
    parts.append(_section("tbox", [tbox_axiom_to_str(ax)
                                   for ax in sorted(kb.tbox, key=tbox_axiom_key)]))
    parts.append(_section("abox", [assertion_to_str(a)
                                   for a in sorted(kb.abox, key=assertion_key)]))
    parts.append(_section("mbox", [mbox_axiom_to_str(m)
                                   for m in sorted(kb.mbox)]))
    return "\n".join(parts)


def _section(name: str, entries) -> str:
    if not entries:
        return name + " { }"
    body = "\n".join(f"  {e};" for e in entries)
    return f"{name} {{\n{body}\n}}"
