"""Parser, printer, abbreviations and subformula ordering."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ALL_LOGICS, subformula_set

from dacosta import formula
from dacosta.formula import (
    And, C, CILA, Cons, Imp, MAX_SUGAR_TEXT, MBCCL, Neg, Or, ParseError, Var,
    complexity, contradiction_base, is_pow1, ordered_subformulas, parse,
    parse_logic, postorder, pow, pow_decompose, powseq, random_formula,
    strong_neg,
)

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
