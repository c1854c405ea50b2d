"""Text format: grammar, precedence, errors, round-trips."""

import pytest
from hypothesis import given, strategies as st

from alcm.parser import ParseError, parse_concept, parse_kb, parse_query, print_kb
from alcm.randomkb import corpus
from alcm.syntax import (
    ConceptAssertion,
    Equal,
    MboxAxiom,
    NotEqual,
    RoleAssertion,
    Subsumption,
    atom,
    bot,
    concept_to_str,
    conj,
    disj,
    exists,
    forall,
    neg,
    top,
)

from conftest import HYDRO_TEXT


class TestParseKb:
    def test_sections(self):
        kb = parse_kb("tbox { River and Lake subclassof bot; } mbox { river =m River; }")
        assert kb.tbox == {Subsumption(conj(atom("River"), atom("Lake")), bot())}
        assert kb.mbox == {MboxAxiom("river", "River")}

    def test_empty_abox(self):
        kb = parse_kb("abox { }")
        assert kb == parse_kb("")

    def test_mbox_rhs_must_be_atomic(self):
        with pytest.raises(ParseError) as e:
            parse_kb("mbox { river =m (River and Lake); }")
        assert "atomic" in str(e.value)

    def test_assertions(self):
        kb = parse_kb("abox { R(a, b); A(a); a = b; a != c; (A or B)(c); }")
        assert RoleAssertion("R", "a", "b") in kb.abox
        assert ConceptAssertion(atom("A"), "a") in kb.abox
        assert Equal("a", "b") in kb.abox
        assert NotEqual("a", "c") in kb.abox
        assert ConceptAssertion(disj(atom("A"), atom("B")), "c") in kb.abox

    def test_comments_and_repeated_sections(self):
        kb = parse_kb("abox { A(a); } # trailing\nabox { B(b); } tbox { } # x\n")
        assert len(kb.abox) == 2

    def test_error_positions(self):
        with pytest.raises(ParseError) as e:
            parse_kb("abox {\n  A(a)\n}")
        assert e.value.line == 3

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_kb("abox { A(a)? }")

    def test_error_names_its_origin(self):
        with pytest.raises(ParseError) as e:
            parse_kb("abox { A(a)? }", origin="kb.alcm")
        assert (e.value.origin, e.value.line, e.value.column) == ("kb.alcm", 1, 12)
        assert str(e.value) == "kb.alcm:1:12: unexpected character '?'"
        with pytest.raises(ParseError) as e:
            parse_query("a = ")
        assert str(e.value).startswith("query:1:5: malformed query")
        with pytest.raises(ParseError) as e:
            parse_concept("A and")
        assert str(e.value).startswith("query:1:6: malformed concept")


class TestTokenizer:
    # identifiers start with a character that passes str.isalpha and go on
    # with characters that pass str.isalnum or are "_"
    @pytest.mark.parametrize("text, assertion", [
        ("abox { Río(a); }", ConceptAssertion(atom("Río"), "a")),
        ("abox { A½(a); }", ConceptAssertion(atom("A½"), "a")),
        ("abox { A²(a); }", ConceptAssertion(atom("A²"), "a")),
        ("abox { a=b; }", Equal("a", "b")),
        ("abox { A(a); } # end", ConceptAssertion(atom("A"), "a")),
    ])
    def test_accepted(self, text, assertion):
        assert parse_kb(text).abox == {assertion}

    @pytest.mark.parametrize("text, message, line, column", [
        ("abox { ½A(a); }", "unexpected character '½'", 1, 8),
        ("abox { _A(a); }", "unexpected character '_'", 1, 8),
        ("abox { 1A(a); }", "unexpected character '1'", 1, 8),
        ("abox { A(a); }  \x0b", "unexpected character '\\x0b'", 1, 17),
        ("abox { a ! b; }", "unexpected character '!'", 1, 10),
        ("!", "unexpected character '!'", 1, 1),
        ("mbox { a =mB; }", "malformed mbox axiom: got '='", 1, 10),
        ("abox {\tA(a)\r\n  ?; }", "unexpected character '?'", 2, 3),
        # a keyword where a role assertion's first individual goes
        ("abox { R(not, b); }", "malformed role assertion: got 'not'", 1, 10),
        # end of input after a trailing comment is placed where the comment starts
        ("abox { A(a) # end", "malformed abox entry: got 'end of input'", 1, 13),
        ("abox { A(a); } # x\n abox { B(b)", "malformed abox entry: got 'end of input'", 2, 13),
        # otherwise it sits after the last blank
        ("abox { A(a)\n\n", "malformed abox entry: got 'end of input'", 3, 1),
        ("abox { A(a)  ", "malformed abox entry: got 'end of input'", 1, 14),
        ("abox { A(a) # end\n", "malformed abox entry: got 'end of input'", 2, 1),
        ("\n\nabox # c\n", "malformed abox section: got 'end of input'", 4, 1),
        # every character is checked before the descent reads an entry, so
        # the missing ";" that comes first in the text is not the error
        ("abox { A(a) B(b); } @", "unexpected character '@'", 1, 21),
    ])
    def test_rejected(self, text, message, line, column):
        with pytest.raises(ParseError) as e:
            parse_kb(text)
        assert (e.value.message, e.value.line, e.value.column) == (message, line, column)

    @pytest.mark.parametrize("text, char", [
        ("abox { ²A(a); ½B(b); }", "²"),
        ("abox { ½A(a); ²B(b); }", "½"),
    ])
    def test_the_first_bad_name_start_in_text_order_is_reported(self, text, char):
        # both pass `\w` but not `str.isalpha`; the one reported is the
        # first in the text, never one picked by the string hash seed
        with pytest.raises(ParseError) as e:
            parse_kb(text)
        assert (e.value.message, e.value.line, e.value.column) == (
            f"unexpected character {char!r}", 1, 8)

    def test_m_after_equals_is_the_mbox_operator_only_before_a_non_name_character(self):
        assert parse_kb("mbox { a =m B; }").mbox == {MboxAxiom("a", "B")}
        with pytest.raises(ParseError) as e:
            parse_kb("mbox { a =mB; }")
        assert e.value.expected == "=m"
        assert parse_kb("abox { a =m½; }").abox == {Equal("a", "m½")}


class TestEndOfInput:
    @pytest.mark.parametrize("text, abox", [
        ("", set()),
        ("\n\n", set()),
        ("# only", set()),
        ("abox { A(a); }   \n", {ConceptAssertion(atom("A"), "a")}),
        ("abox { A(a); }\n# end\n\n", {ConceptAssertion(atom("A"), "a")}),
    ])
    def test_blanks_and_comments_may_end_the_text(self, text, abox):
        kb = parse_kb(text)
        assert (kb.tbox, kb.abox, kb.mbox) == (set(), abox, set())

    def test_blanks_may_surround_a_concept_or_a_query(self):
        assert parse_concept(" A ") is atom("A")
        assert parse_query("A(a)  ") == ConceptAssertion(atom("A"), "a")
        assert parse_query("a =m A # q") == MboxAxiom("a", "A")


class TestPrecedence:
    def test_not_exists_bind_tighter_than_and_than_or(self):
        c = parse_concept("not exists R . A and B")
        assert c is conj(neg(exists("R", atom("A"))), atom("B"))

    def test_or_is_loosest(self):
        c = parse_concept("A and B or C")
        assert c is disj(conj(atom("A"), atom("B")), atom("C"))

    def test_parentheses(self):
        c = parse_concept("A and (B or C)")
        assert c is conj(atom("A"), disj(atom("B"), atom("C")))

    def test_left_associativity(self):
        assert parse_concept("A or B or C") is disj(disj(atom("A"), atom("B")), atom("C"))

    def test_quantifier_chains(self):
        c = parse_concept("forall R . exists S . not A")
        assert c is forall("R", exists("S", neg(atom("A"))))


class TestPrintKb:
    def test_empty(self):
        assert print_kb(parse_kb("")) == "tbox { }\nabox { }\nmbox { }"

    def test_inequality_line(self):
        assert "a != b;" in print_kb(parse_kb("abox { a != b; }"))

    def test_hydro_roundtrip(self):
        kb = parse_kb(HYDRO_TEXT)
        assert parse_kb(print_kb(kb)) == kb

    def test_corpus_roundtrip(self):
        for kb in corpus(seed=1234, size=150):
            assert parse_kb(print_kb(kb)) == kb


names = st.sampled_from(["A", "B", "Habc", "X1_y"])
roles = st.sampled_from(["R", "hasPart"])
concepts = st.recursive(
    st.one_of(st.just(top()), st.just(bot()), names.map(atom)),
    lambda kids: st.one_of(
        kids.map(neg),
        st.tuples(kids, kids).map(lambda t: conj(*t)),
        st.tuples(kids, kids).map(lambda t: disj(*t)),
        st.tuples(roles, kids).map(lambda t: exists(*t)),
        st.tuples(roles, kids).map(lambda t: forall(*t)),
    ),
    max_leaves=16,
)


@given(concepts)
def test_concept_print_parse_roundtrip(c):
    assert parse_concept(concept_to_str(c)) is c


class TestParseQuery:
    def test_forms(self):
        assert parse_query("River sub not Lake") == Subsumption(atom("River"), neg(atom("Lake")))
        assert parse_query("River(queguay)") == ConceptAssertion(atom("River"), "queguay")
        assert parse_query("a = b") == Equal("a", "b")
        assert parse_query("a != b") == NotEqual("a", "b")
        assert parse_query("river =m River") == MboxAxiom("river", "River")

    def test_compound_instance(self):
        q = parse_query("(River or Lake)(x)")
        assert q == ConceptAssertion(disj(atom("River"), atom("Lake")), "x")

    @pytest.mark.parametrize("query, kb_text", [
        ("(River or not Lake)(x)", "abox { (River or not Lake)(x); }"),
        ("b = a", "abox { b = a; }"),
        ("b != a", "abox { b != a; }"),
        ("river =m River", "mbox { river =m River; }"),
        ("exists R . C sub D and E", "tbox { exists R . C subclassof D and E; }"),
    ])
    def test_a_query_is_the_axiom_a_kb_reads(self, query, kb_text):
        kb = parse_kb(kb_text)
        (axiom,) = kb.tbox | kb.abox | kb.mbox
        assert parse_query(query) == axiom

    def test_role_queries_rejected(self):
        with pytest.raises(ParseError):
            parse_query("R(a, b)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_query("a = b c")
