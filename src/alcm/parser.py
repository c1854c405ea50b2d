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

An identifier starts with a character that passes `str.isalpha` and goes on
with characters that pass `str.isalnum` or are "_"; "#" starts a line
comment.  Concept, role and individual namespaces are told apart by
syntactic position only.

One compiled regex scans the text into two flat lists, token kinds and
token texts, and the recursive descent indexes them directly.  A keyword's
kind is the keyword itself, so a name test is one comparison.  A token's
offset, line and column are worked out only when an error is raised.
"""

from __future__ import annotations

import re

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


# One match per token: blanks and comments, then a run of name characters
# (its first character is checked on its own), punctuation, any other
# character, or the empty string at the end of the text.  "=m" is the mbox
# operator only when the m does not start a name.  `\w` is exactly the
# characters that pass `str.isalnum`, plus "_".
_TOKEN = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*(\w+|!=|=m(?!\w)|[={}();.,]|.|\Z)", re.DOTALL)

# Token text -> kind, for every token that is not a name: punctuation and
# keywords are their own kind, and the empty string is the end of input.
_KINDS = {s: s for s in ("!=", "=m", "=", "{", "}", "(", ")", ";", ".", ",", *KEYWORDS)}
_KINDS[""] = "eof"

# The kinds a name token can have: "ident", or the keyword itself.
_WORDS = KEYWORDS | {"ident"}


def _scan(text: str, origin: str):
    """The tokens of ``text`` as two parallel lists: kinds and texts.

    A kind is "ident", a keyword, a punctuation string or "eof".  Four more
    "eof" entries end the lists, so the parser may look up to three tokens
    past the one it is at without a bounds check.
    """
    texts = _TOKEN.findall(text)
    kinds = [_KINDS.get(s) or ("ident" if s[0].isalpha() else None) for s in texts]
    if None in kinds:
        i = kinds.index(None)
        raise _error(text, origin, i, f"unexpected character {texts[i][0]!r}")
    kinds += ("eof",) * 4
    texts += ("",) * 4
    return kinds, texts


def _error(text: str, origin: str, i: int, message: str, expected: str = "") -> ParseError:
    """A ParseError at token ``i`` of ``text``.  Only errors need a
    position, so the text is scanned again here for the token's offset."""
    ms = list(_TOKEN.finditer(text))
    if i < len(ms) and ms[i].group(1):
        off = ms[i].start(1)
    else:
        # end of input, which sits where a comment running to the end starts
        off = text.find("#", text.rfind("\n") + 1)
        if off < 0:
            off = len(text)
    return ParseError(message, origin, text.count("\n", 0, off) + 1,
                      off - text.rfind("\n", 0, off), expected)


class _Parser:
    def __init__(self, text: str, origin: str):
        self.text = text
        self.origin = origin
        self.kinds, self.texts = _scan(text, origin)
        self.pos = 0

    def error(self, message: str, expected: str = ""):
        """Raise a ParseError at the next token."""
        raise _error(self.text, self.origin, self.pos, message, expected)

    def expect(self, kind: str, production: str):
        pos = self.pos
        if self.kinds[pos] != kind:
            self.error(f"malformed {production}: got {self.texts[pos] or 'end of input'!r}",
                       expected=kind)
        self.pos = pos + 1

    def expect_name(self, production: str) -> str:
        pos = self.pos
        if self.kinds[pos] != "ident":
            self.error(f"malformed {production}: got {self.texts[pos] or 'end of input'!r}",
                       expected="a name")
        self.pos = pos + 1
        return self.texts[pos]

    # ---- concepts --------------------------------------------------------

    def concept(self):
        c = self.and_concept()
        while self.kinds[self.pos] == "or":
            self.pos += 1
            c = disj(c, self.and_concept())
        return c

    def and_concept(self):
        c = self.unary_concept()
        while self.kinds[self.pos] == "and":
            self.pos += 1
            c = conj(c, self.unary_concept())
        return c

    def unary_concept(self):
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "ident":
            self.pos = pos + 1
            return atom(self.texts[pos])
        if kind == "(":
            self.pos = pos + 1
            c = self.concept()
            self.expect(")", "concept")
            return c
        if kind == "not":
            self.pos = pos + 1
            return neg(self.unary_concept())
        if kind == "exists" or kind == "forall":
            self.pos = pos + 1
            role = self.expect_name("role restriction")
            self.expect(".", "role restriction")
            body = self.unary_concept()
            return exists(role, body) if kind == "exists" else forall(role, body)
        if kind == "top":
            self.pos = pos + 1
            return top()
        if kind == "bot":
            self.pos = pos + 1
            return bot()
        if kind in KEYWORDS:
            self.error(f"keyword {kind!r} cannot be used as a concept name",
                       expected="a concept")
        self.error("malformed concept", expected="a concept")

    # ---- sections --------------------------------------------------------

    def kb(self) -> KnowledgeBase:
        tbox, abox, mbox = set(), set(), set()
        kinds = self.kinds
        while kinds[self.pos] != "eof":
            section = kinds[self.pos]
            if section == "tbox":
                read, add = self.tbox_axiom, tbox.add
            elif section == "abox":
                read, add = self.abox_assertion, abox.add
            elif section == "mbox":
                read, add = self.mbox_axiom, mbox.add
            else:
                self.error("expected a section", expected="'tbox', 'abox' or 'mbox'")
            self.pos += 1
            self.expect("{", f"{section} section")
            entry = f"{section} entry"
            while kinds[self.pos] != "}":
                add(read())
                self.expect(";", entry)
            self.pos += 1
        return KnowledgeBase.of(tbox, abox, mbox)

    def tbox_axiom(self):
        lhs = self.concept()
        kind = self.kinds[self.pos]
        if kind == "subclassof" or kind == "equiv":
            self.pos += 1
            rhs = self.concept()
            return Subsumption(lhs, rhs) if kind == "subclassof" else Equivalence(lhs, rhs)
        self.error("malformed tbox axiom", expected="'subclassof' or 'equiv'")

    def abox_assertion(self):
        kinds, texts, pos = self.kinds, self.texts, self.pos
        if kinds[pos] == "ident":
            k1 = kinds[pos + 1]
            if k1 == "=" or k1 == "!=":
                self.pos = pos + 2
                b = self.expect_name("individual equality")
                return equal(texts[pos], b) if k1 == "=" else not_equal(texts[pos], b)
            if k1 == "=m":
                self.error("meta-modelling axioms belong in the mbox section",
                           expected="an abox assertion")
            if k1 == "(" and kinds[pos + 2] in _WORDS and kinds[pos + 3] == ",":
                self.pos = pos + 2
                a = self.expect_name("role assertion")
                self.expect(",", "role assertion")
                b = self.expect_name("role assertion")
                self.expect(")", "role assertion")
                return RoleAssertion(texts[pos], a, b)
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
        pos = self.pos
        if self.kinds[pos] != "ident":
            self.error("mbox right-hand side must be an atomic concept name",
                       expected="a concept name")
        self.pos = pos + 1
        return MboxAxiom(ind, self.texts[pos])


def parse_kb(text: str, origin: str = "<kb>") -> KnowledgeBase:
    return _Parser(text, origin).kb()


def parse_concept(text: str):
    """Parse a whole string as one concept (used by the CLI); errors name
    their origin "query"."""
    p = _Parser(text, "query")
    c = p.concept()
    if p.kinds[p.pos] != "eof":
        p.error("trailing input after concept")
    return c


def parse_query(text: str):
    """Parse the query of `alcm entails` into the axiom it asks about.

    `C sub D` gives a `Subsumption`; `C(a)`, `a = b` and `a != b` the Abox
    assertion and `a =m A` the `MboxAxiom` that `parse_kb` reads from the
    same text.  Errors name their origin "query".
    """
    p = _Parser(text, "query")
    kinds = p.kinds
    named = kinds[0] == "ident"
    if named and kinds[1] == "=m":
        axiom = p.mbox_axiom()
    elif named and kinds[1] in ("=", "!="):
        p.pos = 2
        p.expect_name("query")  # a missing right-hand name makes the query malformed
        p.pos = 0
        axiom = p.abox_assertion()
    elif named and kinds[1] == "(" and kinds[2] in _WORDS and kinds[3] == ",":
        p.error("role assertion queries are not supported")
    else:
        c = p.concept()
        kind = kinds[p.pos]
        if kind == "(":
            axiom = p.concept_assertion(c)
        elif kind == "ident" and p.texts[p.pos] == "sub":
            p.pos += 1
            axiom = Subsumption(c, p.concept())
        else:
            p.error("malformed query",
                    expected="'sub', '(individual)', '=', '!=' or '=m'")
    if kinds[p.pos] != "eof":
        p.error("trailing input after query")
    return axiom


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

def print_kb(kb: KnowledgeBase) -> str:
    """Canonical pretty-print; parse_kb(print_kb(kb)) == kb."""
    parts = []
    parts.append(_section("tbox", [tbox_axiom_to_str(ax)
                                   for ax in sorted(kb.tbox, key=assertion_key)]))
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
