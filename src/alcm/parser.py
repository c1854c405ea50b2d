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

One compiled regex scans the text into one flat list of token texts, with
no second pass over the tokens, and the recursive descent indexes that list
directly.  A keyword or punctuation token is its own kind and a name is
any other token, so a keyword test is one comparison and a name test one
set lookup.  The scan also finds every invalid character before the descent
starts.  A token's offset, line and column are worked out only when an
error is raised.
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


# One match per token: blanks, then punctuation, a name, a comment or any
# other character.  A name starts with a character of `\w` that is neither a
# digit nor "_" (an ASCII letter is tried first, as the cheaper test), so in
# ASCII text every name start is a letter; an invalid character falls
# outside the group, and findall gives it as "".  "=m" is the mbox operator
# only when the m does not start a name.  `\w` is exactly the characters
# that pass `str.isalnum`, plus "_".  Blanks at the end of the text match
# nothing, and the end of input is appended after the scan.
_TOKEN = re.compile(r"[ \t\r\n]*(?:([(){};.,]|[a-zA-Z]\w*|=m(?!\w)|=|!=|[^\W\d_]\w*|#[^\n]*)"
                    r"|[^ \t\r\n])")

# Punctuation, and "", which marks the end of input; a token that is not
# one of these is a word, a name or a keyword.
_PUNCTUATION = frozenset({"!=", "=m", "=", "{", "}", "(", ")", ";", ".", ",", ""})

# Every token that is not a name.
_SYMBOLS = _PUNCTUATION | KEYWORDS


def _scan(text: str, origin: str) -> list:
    """The tokens of ``text``, each as its text.

    Four "" entries end the list, which mark the end of input; so the parser
    may look up to three tokens past one that is not the end without a
    bounds check.  Every character is checked here, before the descent
    reads any token.
    """
    toks = _TOKEN.findall(text)
    if "#" in text:
        toks = [s for s in toks if s[:1] != "#"]
    # In ASCII text an invalid character is the only "" token; elsewhere a
    # name may also start with a character of `\w` that is not a letter.
    if "" in toks or not text.isascii():
        bad = next((i for i, s in enumerate(toks)
                    if not s or not (s[0].isalpha() or s in _SYMBOLS)), None)
        if bad is not None:
            off = _offset(text, bad)
            raise _error(text, origin, off, f"unexpected character {text[off]!r}")
    toks += ("",) * 4
    return toks


def _offset(text: str, i: int) -> int:
    """The offset of token ``i`` of ``text``.  Only errors need a position,
    so the text is scanned again here."""
    for m in _TOKEN.finditer(text):
        s = m[1]
        if s is None:
            if not i:
                return m.end() - 1
        elif s[0] == "#":
            continue
        elif not i:
            return m.start(1)
        i -= 1
    # end of input, which sits where a comment running to the end starts
    off = text.find("#", text.rfind("\n") + 1)
    return off if off >= 0 else len(text)


def _error(text: str, origin: str, off: int, message: str, expected: str = "") -> ParseError:
    """A ParseError at offset ``off`` of ``text``."""
    return ParseError(message, origin, text.count("\n", 0, off) + 1,
                      off - text.rfind("\n", 0, off), expected)


class _Parser:
    """A recursive descent over the token list; ``pos`` is the next token."""

    def __init__(self, text: str, origin: str):
        self.text = text
        self.origin = origin
        self.toks = _scan(text, origin)
        self.pos = 0

    def error(self, message: str, expected: str = ""):
        """Raise a ParseError at the next token."""
        raise _error(self.text, self.origin, _offset(self.text, self.pos), message, expected)

    def expect(self, tok: str, production: str):
        pos = self.pos
        if self.toks[pos] != tok:
            self.error(f"malformed {production}: got {self.toks[pos] or 'end of input'!r}",
                       expected=tok)
        self.pos = pos + 1

    def expect_name(self, production: str) -> str:
        pos = self.pos
        name = self.toks[pos]
        if name in _SYMBOLS:
            self.error(f"malformed {production}: got {name or 'end of input'!r}",
                       expected="a name")
        self.pos = pos + 1
        return name

    # ---- concepts --------------------------------------------------------

    def concept(self):
        """One concept, ``orC`` of the grammar, read in one loop.

        ``c`` is the conjunction being read and ``left`` the disjunction of
        the conjunctions before the last "or" (None before the first), so
        both operators associate to the left.  A concept name is read here;
        any other unary concept goes through `unary_concept`.
        """
        toks = self.toks
        pos = self.pos
        left = c = None
        while True:
            tok = toks[pos]
            if tok in _SYMBOLS:
                self.pos = pos
                u = self.unary_concept()
                pos = self.pos
            else:
                u = atom(tok)
                pos += 1
            c = u if c is None else conj(c, u)
            tok = toks[pos]
            if tok == "and":
                pos += 1
            elif tok == "or":
                pos += 1
                left = c if left is None else disj(left, c)
                c = None
            else:
                self.pos = pos
                return c if left is None else disj(left, c)

    def unary_concept(self):
        pos = self.pos
        tok = self.toks[pos]
        if tok == "(":
            self.pos = pos + 1
            c = self.concept()
            self.expect(")", "concept")
            return c
        if tok == "not":
            self.pos = pos + 1
            return neg(self.unary_concept())
        if tok == "exists" or tok == "forall":
            self.pos = pos + 1
            role = self.expect_name("role restriction")
            self.expect(".", "role restriction")
            body = self.unary_concept()
            return exists(role, body) if tok == "exists" else forall(role, body)
        if tok == "top":
            self.pos = pos + 1
            return top()
        if tok == "bot":
            self.pos = pos + 1
            return bot()
        if tok not in _SYMBOLS:
            self.pos = pos + 1
            return atom(tok)
        if tok in KEYWORDS:
            self.error(f"keyword {tok!r} cannot be used as a concept name",
                       expected="a concept")
        self.error("malformed concept", expected="a concept")

    # ---- sections --------------------------------------------------------

    def kb(self) -> KnowledgeBase:
        tbox, abox, mbox = set(), set(), set()
        toks = self.toks
        pos = 0
        while (section := toks[pos]):
            if section == "tbox":
                read, add = self.tbox_axiom, tbox.add
            elif section == "abox":
                read, add = self.abox_assertion, abox.add
            elif section == "mbox":
                read, add = self.mbox_axiom, mbox.add
            else:
                self.pos = pos
                self.error("expected a section", expected="'tbox', 'abox' or 'mbox'")
            if toks[pos + 1] != "{":
                self.pos = pos + 1
                self.expect("{", f"{section} section")
            pos += 2
            while toks[pos] != "}":
                self.pos = pos
                add(read())
                pos = self.pos
                if toks[pos] != ";":
                    self.expect(";", f"{section} entry")
                pos += 1
            pos += 1
        return KnowledgeBase.of(tbox, abox, mbox)

    def tbox_axiom(self):
        lhs = self.concept()
        tok = self.toks[self.pos]
        if tok == "subclassof" or tok == "equiv":
            self.pos += 1
            rhs = self.concept()
            return Subsumption(lhs, rhs) if tok == "subclassof" else Equivalence(lhs, rhs)
        self.error("malformed tbox axiom", expected="'subclassof' or 'equiv'")

    def abox_assertion(self):
        toks, pos = self.toks, self.pos
        first = toks[pos]
        if first not in _SYMBOLS:
            t1 = toks[pos + 1]
            if t1 == "(":
                a, t3 = toks[pos + 2], toks[pos + 3]
                if t3 == ")" and a not in _SYMBOLS:
                    # A(a), the commonest entry
                    self.pos = pos + 4
                    return ConceptAssertion(atom(first), a)
                if t3 == "," and a not in _PUNCTUATION:
                    self.pos = pos + 2
                    a = self.expect_name("role assertion")
                    self.expect(",", "role assertion")
                    b = self.expect_name("role assertion")
                    self.expect(")", "role assertion")
                    return RoleAssertion(first, a, b)
            elif t1 == "=" or t1 == "!=":
                self.pos = pos + 2
                b = self.expect_name("individual equality")
                return equal(first, b) if t1 == "=" else not_equal(first, b)
            elif t1 == "=m":
                self.error("meta-modelling axioms belong in the mbox section",
                           expected="an abox assertion")
        return self.concept_assertion(self.concept())

    def concept_assertion(self, c):
        """The "(" IND ")" that makes concept ``c`` an assertion."""
        self.expect("(", "concept assertion")
        a = self.expect_name("concept assertion")
        self.expect(")", "concept assertion")
        return ConceptAssertion(c, a)

    def mbox_axiom(self):
        toks, pos = self.toks, self.pos
        ind, name = toks[pos], toks[pos + 2]
        if toks[pos + 1] == "=m" and ind not in _SYMBOLS and name not in _SYMBOLS:
            self.pos = pos + 3
            return MboxAxiom(ind, name)
        self.expect_name("mbox axiom")
        self.expect("=m", "mbox axiom")
        self.error("mbox right-hand side must be an atomic concept name",
                   expected="a concept name")


def parse_kb(text: str, origin: str = "<kb>") -> KnowledgeBase:
    return _Parser(text, origin).kb()


def parse_concept(text: str):
    """Parse a whole string as one concept (used by the CLI); errors name
    their origin "query"."""
    p = _Parser(text, "query")
    c = p.concept()
    if p.toks[p.pos]:
        p.error("trailing input after concept")
    return c


def parse_query(text: str):
    """Parse the query of `alcm entails` into the axiom it asks about.

    `C sub D` gives a `Subsumption`; `C(a)`, `a = b` and `a != b` the Abox
    assertion and `a =m A` the `MboxAxiom` that `parse_kb` reads from the
    same text.  Errors name their origin "query".
    """
    p = _Parser(text, "query")
    toks = p.toks
    named = toks[0] not in _SYMBOLS
    if named and toks[1] == "=m":
        axiom = p.mbox_axiom()
    elif named and toks[1] in ("=", "!="):
        p.pos = 2
        p.expect_name("query")  # a missing right-hand name makes the query malformed
        p.pos = 0
        axiom = p.abox_assertion()
    elif named and toks[1] == "(" and toks[2] not in _PUNCTUATION and toks[3] == ",":
        p.error("role assertion queries are not supported")
    else:
        c = p.concept()
        tok = toks[p.pos]
        if tok == "(":
            axiom = p.concept_assertion(c)
        elif tok == "sub":
            p.pos += 1
            axiom = Subsumption(c, p.concept())
        else:
            p.error("malformed query",
                    expected="'sub', '(individual)', '=', '!=' or '=m'")
    if toks[p.pos]:
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
