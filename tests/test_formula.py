"""Parser, printer, abbreviations and subformula ordering."""

import inspect
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ALL_LOGICS, subformula_set
from oracle import reference_parse

from dacosta import axioms, formula
from dacosta.formula import (
    And, C, CILA, Cons, Imp, MAX_NESTING, MAX_SUGAR_TEXT, MBCCL, Neg, Or,
    ParseError, Var,
    complexity, contradiction_base, is_pow1, ordered_subformulas, parse,
    parse_logic, postorder, pow, pow_decompose, powseq, random_formula,
    strong_neg,
)

_GOLDEN = Path(__file__).resolve().parent / "data"

p, q, r = Var("p"), Var("q"), Var("r")


class TestParsing:
    def test_ast_shapes(self):
        assert parse("~(p & ~p)") == Neg(And(p, Neg(p)))
        assert parse("@p") == Cons(p)
        assert parse("p -> q -> r") == Imp(p, Imp(q, r))
        assert parse("p & q & r") == And(And(p, q), r)
        assert parse("p | q | r") == Or(Or(p, q), r)

    def test_precedence(self):
        # -> binds loosest, then |, then &, then unary
        assert parse("p -> q | r & ~p") == Imp(p, Or(q, And(r, Neg(p))))
        assert parse("~p & q") == And(Neg(p), q)
        assert parse("~(p & q)") == Neg(And(p, q))

    def test_unicode_aliases(self):
        assert parse("¬p ∧ ∘q → r") == parse("~p & @q -> r")
        assert parse("°p") == Cons(p)
        assert parse("p ∨ q") == Or(p, q)

    def test_atoms(self):
        assert parse("p_12").name == "p_12"
        assert parse("alpha & b2") == And(Var("alpha"), Var("b2"))

    def test_atom_names_parse_back(self):
        # Var takes the parser's atom names only, so every text parses back
        for bad in ["a@b", "p q", "1p", "_p", "p'", "", "pé"]:
            with pytest.raises(ValueError, match="^atom name "):
                Var(bad)
        f = Imp(Var("a_1"), Var("Pq9"))
        assert parse(f.text) is f

    def test_signature_gate(self):
        # @ is only in the LFI signature
        parse("@p", logic=MBCCL)
        parse("@p", logic=CILA)
        with pytest.raises(ParseError, match="signature"):
            parse("@p", logic=C(2))
        parse("p & ~p", logic=C(2))

    def test_syntax_errors(self):
        for bad in ["p &", "p & (", "-> p", "p q", "(p", "p)", "", "p ^ x"]:
            with pytest.raises(ParseError):
                parse(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError, match="position"):
            parse("p & (")


# (text, logic, message, position) of malformed inputs, one or more per
# place the parser raises ParseError.
_TOO_LARGE = ("exponent too large: the power's text would pass "
              f"{MAX_SUGAR_TEXT} characters")
_TOO_LONG = f"formula too long: its text would pass {MAX_SUGAR_TEXT} characters"
_EIGHT_POWERS = "a^17 & b^17 & c^17 & d^17 & e^17 & f^17 & g^17 & h^17"
PARSE_ERRORS = [
    # a character no token starts with; it is reported before any other error
    ("p $ q", None, "unexpected character '$'", 2),
    ("$", None, "unexpected character '$'", 0),
    ("p & ) $", None, "unexpected character '$'", 6),
    ("p -", None, "unexpected character '-'", 2),
    ("p - > q", None, "unexpected character '-'", 2),
    ("p^-1", None, "unexpected character '-'", 2),
    ("_p", None, "unexpected character '_'", 0),
    ("\u00e9", None, "unexpected character '\u00e9'", 0),
    ("p \u2283 q", None, "unexpected character '\u2283'", 2),
    ("p^\u00b2", None, "unexpected character '\u00b2'", 2),
    ("@ $", C(1), "unexpected character '$'", 2),
    ("~" * 3000 + "$", None, "unexpected character '$'", 3000),
    ("a^17 & b^17 #", None, "unexpected character '#'", 12),
    # a formula expected, or the input ended
    ("", None, "unexpected end of input", 0),
    ("   ", None, "unexpected end of input", 3),
    ("p &", None, "unexpected end of input", 3),
    ("p & (", None, "unexpected end of input", 5),
    ("p -> ", None, "unexpected end of input", 5),
    ("~", None, "unexpected end of input", 1),
    ("@", None, "unexpected end of input", 1),
    ("(", None, "unexpected end of input", 1),
    ("-> p", None, "expected a formula, found '->'", 0),
    ("& p", None, "expected a formula, found '&'", 0),
    (")", None, "expected a formula, found ')'", 0),
    ("()", None, "expected a formula, found ')'", 1),
    ("^2", None, "expected a formula, found '^'", 0),
    ("3", None, "expected a formula, found '3'", 0),
    ("~ )", None, "expected a formula, found ')'", 2),
    ("~3", None, "expected a formula, found '3'", 1),
    ("p & & q", None, "expected a formula, found '&'", 4),
    ("p | -> q", None, "expected a formula, found '->'", 4),
    ("(p &)", None, "expected a formula, found ')'", 4),
    # a ')' expected
    ("(p", None, "expected ')'", 2),
    ("((p & q)", None, "expected ')'", 8),
    ("(p -> (q", None, "expected ')'", 8),
    ("(p q", None, "expected ')', found 'q'", 3),
    ("(p ~q)", None, "expected ')', found '~'", 3),
    ("(p 2)", None, "expected ')', found '2'", 3),
    ("((p) (q))", None, "expected ')', found '('", 5),
    # a token after a whole formula
    ("p q", None, "unexpected 'q' after formula", 2),
    ("  p q", None, "unexpected 'q' after formula", 4),
    ("p\u00a0q", None, "unexpected 'q' after formula", 2),
    ("p)", None, "unexpected ')' after formula", 1),
    ("p & q r", None, "unexpected 'r' after formula", 6),
    ("p -> q r", None, "unexpected 'r' after formula", 7),
    ("p 3", None, "unexpected '3' after formula", 2),
    ("p ~q", None, "unexpected '~' after formula", 2),
    ("p (q)", None, "unexpected '(' after formula", 2),
    ("(p) q", None, "unexpected 'q' after formula", 4),
    ("p @", None, "unexpected '@' after formula", 2),
    ("p -> q)", None, "unexpected ')' after formula", 6),
    ("p^2 3", None, "unexpected '3' after formula", 4),
    # ^ without an integer
    ("p ^ x", None, "expected integer after '^'", 4),
    ("p^", None, "expected integer after '^'", 2),
    ("p^(", None, "expected integer after '^'", 2),
    ("p^(2", None, "expected integer after '^'", 2),
    ("p^()", None, "expected integer after '^'", 2),
    ("p^(x)", None, "expected integer after '^'", 2),
    ("p^ ~", None, "expected integer after '^'", 3),
    ("p^2^", None, "expected integer after '^'", 4),
    ("(p^(2) ^", None, "expected integer after '^'", 8),
    # exponent too large, at the '^'
    ("p^18", None, _TOO_LARGE, 1),
    ("p^(17)", None, _TOO_LARGE, 1),
    ("(p^10)^10", None, _TOO_LARGE, 6),
    ("q & (p & q)^17", None, _TOO_LARGE, 11),
    ("~p^99", None, _TOO_LARGE, 2),
    ("p -> q^100", None, _TOO_LARGE, 6),
    ("a^17 -> b^17 -> c^18", None, _TOO_LARGE, 17),
    # formula too long, at the connective whose node would pass the bound
    (_EIGHT_POWERS, None, _TOO_LONG, 5),
    ("~~~~~~~~p^17", None, _TOO_LONG, 0),
    ("@@@@@@@@p^17", None, _TOO_LONG, 0),
    ("p^17 | qqqqq", None, _TOO_LONG, 5),
    ("qqqq -> p^17", None, _TOO_LONG, 5),
    ("(p^17) -> q | p^17", None, _TOO_LONG, 7),
    ("a^17 & b^17 q", None, _TOO_LONG, 5),
    ("a^17 & b^17 & )", None, _TOO_LONG, 5),
    ("(a^17 | b^17", None, _TOO_LONG, 6),
    ("qqqq -> p^17 -> r", None, _TOO_LONG, 5),
    ("a^17 & b^17 & @p", C(1), _TOO_LONG, 5),
    # @ outside the signature, at the @
    ("@p", C(1), "consistency connective not in signature of C1", 0),
    ("@", C(1), "consistency connective not in signature of C1", 0),
    ("q & @p", C(2), "consistency connective not in signature of C2", 4),
    ("~(p | @q)", C(4), "consistency connective not in signature of C4", 6),
    ("q -> \u2218p", C(3), "consistency connective not in signature of C3", 5),
    ("\u00b0p", C(1), "consistency connective not in signature of C1", 0),
    # Unicode spellings
    ("p \u2227", None, "unexpected end of input", 3),
    ("\u00ac", None, "unexpected end of input", 1),
    ("p \u2192 \u2192 q", None, "expected a formula, found '\u2192'", 4),
    ("\u2218 \u2228 p", None, "expected a formula, found '\u2228'", 2),
    ("p \u2228 \u2227 q", None, "expected a formula, found '\u2227'", 4),
    ("p \u2228 q)", None, "unexpected ')' after formula", 5),
    ("p\u2192q r", None, "unexpected 'r' after formula", 4),
    ("\u00ac\u00acp \u2227 \u2218q \u2192 r )", None,
     "unexpected ')' after formula", 13),
    ("(p \u2227 q", None, "expected ')'", 6),
    ("p \u0663", None, "unexpected '\u0663' after formula", 2),
    ("p^\u0663\u0663\u0663", None, _TOO_LARGE, 1),
    # nesting past the parser's limit, at position 0
    ("~" * 3000 + "p", None, "formula nested too deeply", 0),
    ("  " + "(" * 3000 + "p" + ")" * 3000, None, "formula nested too deeply", 0),
]


def test_parse_error_table():
    wrong = []
    for text, logic, message, position in PARSE_ERRORS:
        try:
            parse(text, logic)
        except ParseError as err:
            got = (str(err), err.position)
        else:
            got = "parsed"
        if got != (f"{message} (at position {position})", position):
            wrong.append((text[:40], got))
    assert not wrong


class TestSugar:
    def test_pow(self):
        assert pow(p, 0) == p
        assert pow(p, 1) == Neg(And(p, Neg(p)))
        p1 = pow(p, 1)
        assert pow(p, 2) == Neg(And(p1, Neg(p1)))
        assert parse("p^2") == pow(p, 2)
        assert parse("p^0") == p

    def test_pow_towers_compose(self):
        assert pow(pow(p, 1), 1) == pow(p, 2)
        assert pow(pow(p, 2), 3) == pow(p, 5)

    def test_powseq(self):
        assert powseq(p, 0) == p
        assert powseq(p, 1) == pow(p, 1)
        assert powseq(p, 2) == And(pow(p, 1), pow(p, 2))
        assert powseq(p, 3) == And(And(pow(p, 1), pow(p, 2)), pow(p, 3))
        assert parse("p^(2)") == powseq(p, 2)
        assert parse("p^(0)") == p

    def test_strong_neg(self):
        assert strong_neg(p, 1) == And(Neg(p), powseq(p, 1))
        assert strong_neg(p, 2) == And(Neg(p), powseq(p, 2))

    def test_pow_decompose(self):
        assert pow_decompose(pow(p, 3)) == (p, 3)
        assert pow_decompose(p) == (p, 0)
        base, k = pow_decompose(pow(And(p, q), 2))
        assert base == And(p, q) and k == 2

    def test_is_pow1(self):
        assert is_pow1(pow(p, 1))
        assert is_pow1(pow(And(p, q), 1))
        assert not is_pow1(p)
        assert not is_pow1(Neg(p))
        assert not is_pow1(And(p, Neg(p)))

    def test_is_pow1_matches_construction_exhaustively(self):
        # every formula up to 3 connectives: is_pow1(f) iff f == pow(b, 1)
        # for some subformula b
        from conftest import enumerate_formulas
        for f in enumerate_formulas(3, ("p", "q"), with_circ=True):
            direct = any(f == pow(g, 1) for g in ordered_subformulas(f))
            assert is_pow1(f) == direct, f.text

    def test_sugar_text_lengths(self):
        # the parser's bound predicts the text length of f^k without
        # building f^k; every parenthesization of the base is covered
        for base in ["p", "~p", "@p", "p & q", "p | q", "p -> q"]:
            f = parse(base)
            lengths = formula._pow_text_lengths(f)
            for k in range(1, 7):
                assert next(lengths) == len(pow(f, k).text), (base, k)

    def test_exponent_bound(self):
        # the text of p^k has 2^(k+3) - 7 characters
        assert len(parse("p^17").text) == 2 ** 20 - 7 <= MAX_SUGAR_TEXT
        assert len(parse("p^(16)").text) <= MAX_SUGAR_TEXT
        assert parse("p^003") == pow(p, 3)
        assert parse("p^" + "0" * 5000 + "2") == pow(p, 2)
        for text in ["p^18", "p^(17)", "(p^10)^10", "(p & q)^17",
                     "p^" + "9" * 5000, "p^(" + "9" * 5000 + ")"]:
            with pytest.raises(ParseError, match="exponent too large"):
                parse(text)

    def test_exponent_bound_builds_nothing(self, monkeypatch):
        def refuse(f, k):
            raise AssertionError(f"built a power of {f.text} for k = {k}")

        monkeypatch.setattr(formula, "pow", refuse)
        monkeypatch.setattr(formula, "powseq", refuse)
        for text in ["p^18", "p^(17)", "p^" + "9" * 5000]:
            with pytest.raises(ParseError, match="exponent too large"):
                parse(text)

    def test_connective_text_lengths(self):
        # the parser's bound predicts the text length of every connective
        # node without building it, parentheses included
        from conftest import enumerate_formulas
        small = enumerate_formulas(1, ("p", "q"), with_circ=True)
        for f in small:
            for kind, make in ((formula.NEG, Neg), (formula.CONS, Cons)):
                assert formula._text_length(kind, f) == len(make(f).text)
            for g in small:
                for kind, make in ((formula.AND, And), (formula.OR, Or),
                                   (formula.IMP, Imp)):
                    assert formula._text_length(kind, f, g) == \
                        len(make(f, g).text), (kind, f.text, g.text)

    def test_connective_text_bound(self):
        # each p^17 is within the bound, but not two of them joined; the
        # text of p^17 has MAX_SUGAR_TEXT - 7 characters
        big = "a^17 & b^17 & c^17 & d^17 & e^17 & f^17 & g^17 & h^17"
        with pytest.raises(ParseError, match="formula too long") as info:
            parse(big)
        assert info.value.position == 5
        assert len(parse("~" * 7 + "p^17").text) == MAX_SUGAR_TEXT
        assert len(parse("@p^17", MBCCL).text) == MAX_SUGAR_TEXT - 6
        assert len(parse("p^17 & q").text) == MAX_SUGAR_TEXT - 3
        assert len(parse("q -> p^17").text) == MAX_SUGAR_TEXT - 2
        assert len(parse("qqq -> p^17").text) == MAX_SUGAR_TEXT
        for text in ["~" * 8 + "p^17", "@@@@@@@@p^17", "p^17 & qqqqq",
                     "p^17 | qqqqq", "qqqq -> p^17", "(p^17) -> q | p^17"]:
            with pytest.raises(ParseError, match="formula too long"):
                parse(text)

    def test_connective_text_bound_builds_nothing(self, monkeypatch):
        made = []
        real_make = formula._make

        def recording_make(kind, name, left, right):
            f = real_make(kind, name, left, right)
            made.append(len(f.text))
            return f

        monkeypatch.setattr(formula, "_make", recording_make)
        with pytest.raises(ParseError, match="formula too long"):
            parse("a^17 & b^17 & c^17 & d^17 & e^17 & f^17 & g^17 & h^17")
        assert made and max(made) <= MAX_SUGAR_TEXT

    def test_shape_helpers(self):
        assert contradiction_base(And(p, Neg(p))) == p
        assert contradiction_base(And(p, Neg(q))) is None
        assert And(p, Neg(p)).conj_base == p
        assert pow(p, 2).pow_base == p
        assert pow(p, 2).pow_height == 2
        assert p.pow_height == 0


class TestComplexity:
    def test_base_cases(self):
        assert complexity(p) == 0
        assert complexity(Neg(p)) == 1
        assert complexity(Cons(p)) == 2  # @ is charged two units
        assert complexity(And(p, q)) == 1
        assert complexity(Imp(And(p, q), r)) == 2

    def test_monotone(self):
        rng = random.Random(7)
        for _ in range(50):
            f = random_formula(rng, CILA, connectives=6)
            for g in ordered_subformulas(f)[:-1]:
                assert complexity(g) <= complexity(f)


class TestRendering:
    def test_canonical_text(self):
        assert parse("p -> (q -> r)").text == "p -> q -> r"
        assert parse("(p -> q) -> r").text == "(p -> q) -> r"
        assert parse("(p & q) & r").text == "p & q & r"
        assert parse("p & (q & r)").text == "p & (q & r)"
        assert parse("~ ( p & ~ p )").text == "~(p & ~p)"

    def test_round_trip_seeded(self):
        rng = random.Random(20260817)
        for _ in range(300):
            f = random_formula(rng, CILA, connectives=9, atoms=("p", "q", "r"))
            assert parse(f.text) == f

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, CILA, connectives=7, atoms=("p", "q"))
        assert parse(f.text) == f
        assert parse(f.text).text == f.text



# Every spelling the parser accepts for each connective.
_SPELLINGS = {Neg: ("~", "\u00ac"), Cons: ("@", "\u2218", "\u00b0"),
              And: ("&", "\u2227"), Or: ("|", "\u2228"), Imp: ("->", "\u2192")}
_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\u00a0", "\u3000"])


@st.composite
def _spelled(draw, logic, children):
    """(formula, text): a connective over `children`, in a random spelling
    of its text with parentheses around every argument."""
    make = draw(st.sampled_from([Neg, Cons, And, Or, Imp] if logic.has_circ
                                else [Neg, And, Or, Imp]))
    sym = draw(st.sampled_from(_SPELLINGS[make]))
    f, text = draw(children)
    if make in (Neg, Cons):
        return make(f), sym + draw(_SPACE) + "(" + text + ")"
    g, right = draw(children)
    return make(f, g), "(" + text + ")" + draw(_SPACE) + sym + draw(_SPACE) + "(" + right + ")"


@st.composite
def _decorated(draw, pair):
    """`pair` with random whitespace around it, redundant parentheses and
    ^k or ^(k) sugar, and the formula it then denotes."""
    f, text = draw(pair)
    sugar = draw(st.sampled_from([None, pow, powseq]))
    if sugar is not None:
        k = draw(st.integers(0, 2))
        f = sugar(f, k)
        text = f"({text})^{k}" if sugar is pow else f"({text})^({k})"
    for _ in range(draw(st.integers(0, 2))):
        text = "(" + draw(_SPACE) + text + draw(_SPACE) + ")"
    return f, draw(_SPACE) + text + draw(_SPACE)


def _formulas(logic):
    atoms = _decorated(st.sampled_from(["p", "q", "r"]).map(lambda a: (Var(a), a)))
    return st.recursive(atoms, lambda children: _decorated(_spelled(logic, children)),
                        max_leaves=6)


class TestRoundTrip:
    @pytest.mark.parametrize("lg", [C(1), C(2), C(3), C(4), MBCCL, CILA],
                             ids=lambda lg: lg.name)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_spellings_parse_to_the_interned_formula(self, lg, data):
        f, text = data.draw(_formulas(lg))
        assert parse(f.text, lg) is f
        assert parse(text, lg) is f


class TestNestingLimit:
    """The parser holds at most MAX_NESTING operators pending, whatever the
    interpreter's recursion limit."""

    SHAPES = {"negations": lambda n: "~" * n + "p",
              "consistency": lambda n: "@" * n + "p",
              "parentheses": lambda n: "(" * n + "p" + ")" * n,
              "implications": lambda n: "p -> " * n + "p"}

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_limit_does_not_depend_on_the_stack(self, shape):
        spell = self.SHAPES[shape]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            fits = [parse(spell(n)) for n in (999, MAX_NESTING)]
            with pytest.raises(ParseError) as info:
                parse(spell(MAX_NESTING + 1))
        finally:
            sys.setrecursionlimit(limit)
        assert str(info.value) == "formula nested too deeply (at position 0)"
        assert info.value.position == 0
        depth = {"negations": 1, "consistency": 2, "parentheses": 0,
                 "implications": 1}[shape]
        assert [f.complexity for f in fits] == [depth * 999, depth * MAX_NESTING]

    def test_left_nested_chains_are_unbounded(self):
        chain = " & ".join(["p"] * 5000) + " | q" * 5000
        f = parse(chain)
        assert f.complexity == 9999 and f.kind == formula.OR


def _outcome(parser, text, logic=None):
    """The formula `parser` reads from `text`, or its error's message and
    position."""
    try:
        return parser(text, logic)
    except ParseError as err:
        return str(err), err.position


def _pow_text(text, k):
    """A spelling of A^k over a spelling `text` of A."""
    for _ in range(k):
        text = f"~(({text}) & ~({text}))"
    return text


# What a replaced token becomes.
_EDITS = ["(", ")", "~", "@", "&", "|", "->", "^", "2", "p", "q", "$", " "]


@st.composite
def _repeating(draw, logic):
    """Text of a formula that repeats a parenthesized group: A^k or A^(k)
    at heights 1-4, A & A or (A -> B) | (A -> B), spelled canonically or
    over random spellings of A and B, then maybe with one token deleted,
    duplicated or replaced."""
    (a, ta), (b, tb) = draw(_formulas(logic)), draw(_formulas(logic))
    shape = draw(st.sampled_from(["pow", "powseq", "and", "or"]))
    k = draw(st.integers(1, 4))
    if shape == "pow":
        f, text = pow(a, k), _pow_text(ta, k)
    elif shape == "powseq":
        f, text = powseq(a, k), _pow_text(ta, 1)
        for i in range(2, k + 1):
            text = f"({text}) & ({_pow_text(ta, i)})"
    elif shape == "and":
        f, text = And(a, a), f"({ta}) & ({ta})"
    else:
        f, text = Or(Imp(a, b), Imp(a, b)), f"(({ta}) -> ({tb})) | (({ta}) -> ({tb}))"
    if draw(st.booleans()):
        text = f.text
    edit = draw(st.sampled_from([None, "delete", "duplicate", "replace"]))
    if edit is not None:
        start, end = draw(st.sampled_from(
            [m.span() for m in formula._TOKEN_RE.finditer(text)]))
        if edit == "delete":
            text = text[:start] + text[end:]
        elif edit == "duplicate":
            text = text[:end] + " " + text[start:end] + text[end:]
        else:
            text = text[:start] + draw(st.sampled_from(_EDITS)) + text[end:]
    return text


class TestGroupMemo:
    """The parser reads a repeated parenthesized group once; it must give
    what reading every token gives (`oracle.reference_parse`)."""

    @pytest.mark.parametrize("lg", [C(1), C(2), C(3), C(4), MBCCL, CILA],
                             ids=lambda lg: lg.name)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_results_as_the_reference(self, lg, data):
        text = data.draw(_repeating(lg))
        # formulas are interned, so == is identity for them
        assert _outcome(parse, text, lg) == _outcome(reference_parse, text, lg)

    def test_corpora_parse_as_the_reference(self):
        texts = []
        for lg in [C(1), C(2), C(3), C(4), C(8), MBCCL, CILA]:
            texts += [(inst.text, lg) for _, inst in axioms.instance_corpus(lg, 20)]
        for name in ("decide_golden.json", "prove_golden.json"):
            for q in json.loads((_GOLDEN / name).read_text())["queries"]:
                lg = parse_logic(q["logic"])
                texts += [(t, lg) for t in [q["goal"], *q["premises"]]]
        assert all(parse(t, lg) is reference_parse(t, lg) for t, lg in texts)

    @pytest.mark.parametrize("group", [
        "(p -> q) -> (p -> q) -> r",
        "~(~(p & ~p) & ~~(p & ~p))",
        powseq(Var("p"), 3).text,
        pow(Or(p, q), 3).text,
        # over MAX_NESTING tokens, so never taken whole
        pow(Var("p"), 8).text,
    ], ids=["imp", "p^2", "p^(3)", "(p|q)^3", "p^8"])
    def test_nesting_limit_flips_at_the_reference_depth(self, group):
        def refuses(parser, d):
            out = _outcome(parser, f"({group}) & " + "~" * d + f"({group})")
            if isinstance(out, tuple):
                assert out == ("formula nested too deeply (at position 0)", 0)
                return True
            return False

        lo, hi = 0, MAX_NESTING
        assert not refuses(reference_parse, lo) and refuses(reference_parse, hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if refuses(reference_parse, mid):
                hi = mid
            else:
                lo = mid
        assert [refuses(parse, d) for d in (lo - 1, lo, hi, hi + 1)] == \
            [False, False, True, True]

    @pytest.mark.parametrize("k, most", [(8, 100), (12, 300)])
    def test_a_repeat_is_read_once(self, monkeypatch, k, most):
        # Reading every token makes 1,533 nodes for k = 8 and 24,573 for
        # k = 12.  With the memo a tower costs its distinct groups, 41 for
        # k = 8.  A group of more than MAX_NESTING tokens is read, not taken
        # whole, and from level 7 on a level's group is: 281 for k = 12.
        tower = pow(parse("p | q"), k)
        text = tower.text
        calls = []
        make = formula._make

        def counting(*args):
            calls.append(args[0])
            return make(*args)

        monkeypatch.setattr(formula, "_make", counting)
        assert parse(text) is tower
        assert len(calls) <= most

    def test_the_search_for_repeats_stays_linear(self):
        # Sibling groups ~(~(...~(pj & pj)...)) differ only at their middle,
        # so every "(" in one finds many recorded groups of the same first
        # tokens and length; comparing them all costs the square of the
        # text.  Count the tokens the parser copies out of its token list.
        class Counting(list):
            copied = 0

            def __getitem__(self, at):
                got = super().__getitem__(at)
                if isinstance(at, slice):
                    Counting.copied += len(got)
                return got

        for k in (5, 20):
            text = " & ".join("~(" * 300 + f"p{j} & p{j})" + ")" * 299
                              for j in range(k))
            tokens = Counting(formula._TOKEN_RE.findall(text) + [""])
            Counting.copied = 0
            assert formula._parse_tokens(tokens, None) is reference_parse(text)
            assert Counting.copied <= 20 * len(tokens)


class TestOrderedSubformulas:
    def test_small(self):
        assert ordered_subformulas(And(p, Neg(p))) == [p, Neg(p), And(p, Neg(p))]
        assert ordered_subformulas(p) == [p]

    def test_flagship_column_order(self):
        psi = parse("((p & ~p) & ~(p & ~p)) -> ~~p")
        texts = [f.text for f in ordered_subformulas(psi)]
        assert texts == [
            "p", "~p", "p & ~p", "~~p", "~(p & ~p)",
            "p & ~p & ~(p & ~p)", "p & ~p & ~(p & ~p) -> ~~p",
        ]

    def test_closure_and_monotony(self):
        rng = random.Random(3)
        for _ in range(40):
            f = random_formula(rng, MBCCL, connectives=7, atoms=("p", "q"))
            cols = ordered_subformulas(f)
            seen = set()
            for g in cols:
                if g.kind not in ("var",):
                    for child in (g.left, g.right):
                        if child is not None:
                            assert child in seen
                seen.add(g)
            assert cols[-1] == f
            for a, b in zip(cols, cols[1:]):
                assert complexity(a) <= complexity(b)

    def test_premises_merged_deduplicated(self):
        cols = ordered_subformulas(q, premises=(p, And(p, q)))
        assert cols.count(p) == 1
        assert set((p, q, And(p, q))) <= set(cols)

    def test_deterministic(self):
        f = parse("(p -> q) & (q -> p) | ~p")
        assert ordered_subformulas(f) == ordered_subformulas(f)


class TestPostorder:
    def test_left_first_root_by_root(self):
        assert postorder(Imp(p, q), r, p) == [p, q, Imp(p, q), r]
        assert postorder(And(p, Neg(q)), q) == [p, q, Neg(q), And(p, Neg(q))]
        assert postorder(And(p, p)) == [p, And(p, p)]
        assert postorder() == []

    def test_deep_chain_without_recursion(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"sys.setrecursionlimit({limit}) called")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        chain = p
        for _ in range(5000):
            chain = Neg(chain)
        order = postorder(chain)
        assert len(order) == 5001
        assert order[0] is p and order[-1] is chain
        assert all(g.left is f for f, g in zip(order, order[1:]))

    @pytest.mark.parametrize("lg", ALL_LOGICS, ids=[lg.name for lg in ALL_LOGICS])
    def test_each_once_after_its_arguments(self, lg):
        rng = random.Random(11)
        for _ in range(60):
            roots = [random_formula(rng, lg, rng.randint(0, 9), ("p", "q", "r"))
                     for _ in range(rng.randint(1, 3))]
            order = postorder(*roots)
            assert len(order) == len(set(order))
            assert set(order) == subformula_set(*roots)
            position = {f: i for i, f in enumerate(order)}
            for f in order:
                for child in (f.left, f.right):
                    if child is not None:
                        assert position[child] < position[f]

    @pytest.mark.parametrize("lg", ALL_LOGICS, ids=[lg.name for lg in ALL_LOGICS])
    def test_ordered_subformulas_match_reference(self, lg):
        rng = random.Random(12)
        for _ in range(60):
            goal = random_formula(rng, lg, rng.randint(0, 9), ("p", "q", "r"))
            premises = [random_formula(rng, lg, rng.randint(0, 4), ("p", "q"))
                        for _ in range(rng.randint(0, 2))]
            expected = sorted(subformula_set(goal, *premises),
                              key=lambda f: (f.complexity, f.text))
            assert ordered_subformulas(goal, premises) == expected


class TestLogicNames:
    def test_parse_logic(self):
        assert parse_logic("C1") == C(1)
        assert parse_logic("c4") == C(4)
        assert parse_logic("C10") == C(10)
        assert parse_logic("mbccl") == MBCCL
        assert parse_logic("mbCcl") == MBCCL
        assert parse_logic("Cila") == CILA
        for bad in ["C0", "K3", "", "cilla"]:
            with pytest.raises(ValueError):
                parse_logic(bad)

    def test_hierarchy_index_is_bounded(self):
        # C_n's tables grow as n^3, so names stop at C32; C(n) does not.
        assert parse_logic("C32") == C(32)
        for bad in ["C33", "C64", "C1000000"]:
            with pytest.raises(ValueError, match="C1..C32"):
                parse_logic(bad)
        assert C(33).n == 33

    def test_names_and_signature(self):
        assert C(3).name == "C3"
        assert MBCCL.name == "mbCcl"
        assert CILA.name == "Cila"
        assert not C(2).has_circ
        assert MBCCL.has_circ and CILA.has_circ

    def test_c_requires_positive_index(self):
        with pytest.raises(ValueError):
            C(0)


def recursive_random_formula(rng, logic, connectives, atoms=("p", "q")):
    """`random_formula` as a recursion: the reference for the draws of the
    iterative walk."""
    unary = ([formula.NEG, formula.CONS] if (logic is None or logic.has_circ)
             else [formula.NEG])
    binary = [formula.AND, formula.OR, formula.IMP]

    def gen(k):
        if k == 0:
            return Var(rng.choice(atoms))
        op = rng.choice(unary + binary)
        if op in (formula.NEG, formula.CONS):
            child = gen(k - 1)
            return Neg(child) if op == formula.NEG else Cons(child)
        split = rng.randint(0, k - 1)
        l, r = gen(split), gen(k - 1 - split)
        return (And(l, r) if op == formula.AND else Or(l, r) if op == formula.OR
                else Imp(l, r))

    return gen(connectives)


class TestRandomFormula:
    @pytest.mark.parametrize("lg", ALL_LOGICS + [None],
                             ids=[lg.name for lg in ALL_LOGICS] + ["none"])
    def test_same_draws_as_the_recursion(self, lg):
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            for size in range(31):
                f = random_formula(ours, lg, size, ("p", "q", "r"))
                assert f is recursive_random_formula(theirs, lg, size, ("p", "q", "r"))
                assert ours.getstate() == theirs.getstate()

    def test_size_does_not_depend_on_the_stack(self):
        # 40 frames above this one: the draws and the constructors need a
        # few, and the tree is hundreds of nodes deep.
        depth = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            f = random_formula(random.Random(3), CILA, 5000)
        finally:
            sys.setrecursionlimit(limit)
        connectives, stack = 0, [f]
        while stack:
            g = stack.pop()
            connectives += g.kind != formula.VAR
            stack.extend(h for h in (g.left, g.right) if h is not None)
        assert connectives == 5000

    def test_negative_size(self):
        with pytest.raises(ValueError):
            random_formula(random.Random(0), C(1), -1)
