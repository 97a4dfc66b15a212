"""Two-valued clause systems and the snapshot round-trip maps."""

import itertools
import random

import pytest

from conftest import ALL_LOGICS, row_assignment, subformula_set
from oracle import oracle_rows

from dacosta.bivaluation import (
    bivaluation_from_json, bivaluation_to_json, bivaluation_to_valuation,
    check_bivaluation, closure, valuation_to_bivaluation,
)
from dacosta.algebra import snapshots
from dacosta.errors import DomainError
from dacosta.formula import (
    And, C, CILA, Cons, MBCCL, Neg, parse, pow, random_formula,
)
from dacosta.truthtable import build_table, extend_partial, ordered_subformulas

C1, C2, C3 = C(1), C(2), C(3)
p, q = parse("p"), parse("q")


class TestClosure:
    def test_c1(self):
        got = {f.text for f in closure(C1, {p})}
        assert got == {"p", "~p", "p & ~p", "~(p & ~p)"}

    def test_c2_reaches_pow2(self):
        got = closure(C2, {p})
        assert pow(p, 1) in got and pow(p, 2) in got
        assert Neg(pow(p, 1)) in got

    def test_lfi_adds_cons(self):
        got = closure(CILA, {p})
        assert Cons(p) in got or parse("~(p & ~p)") in got


    @pytest.mark.parametrize("lg", ALL_LOGICS, ids=[lg.name for lg in ALL_LOGICS])
    def test_matches_reference(self, lg):
        rng = random.Random(13)
        for _ in range(40):
            seeds = [random_formula(rng, lg, rng.randint(0, 5), ("p", "q", "r"))
                     for _ in range(rng.randint(1, 3))]
            companions = set()
            for g in seeds:
                companions |= {g, Neg(g), And(g, Neg(g))}
                companions |= {pow(g, k) for k in range(1, lg.n + 1)}
                if lg.has_circ:
                    companions |= {Cons(g), Neg(Cons(g)), Neg(And(g, Neg(g)))}
            expected = sorted(subformula_set(*companions),
                              key=lambda f: (f.complexity, f.text))
            assert closure(lg, seeds) == expected


class TestCheckBivaluation:
    def test_neg_floor(self):
        out = check_bivaluation(C1, {p: 0, Neg(p): 0})
        assert [v.clause for v in out] == ["neg-floor"]

    def test_inconsistent_atom_collapses_pow(self):
        # an inconsistent p forces its consistency marker down...
        b = {p: 1, Neg(p): 1, parse("p & ~p"): 1, parse("~(p & ~p)"): 1}
        assert "pow-collapse" in [v.clause for v in check_bivaluation(C1, b)]
        # ...and the corrected vector passes every clause, including the
        # negated-marker reading
        good = {p: 1, Neg(p): 1, parse("p & ~p"): 1, parse("~(p & ~p)"): 0,
                parse("~~(p & ~p)"): 1}
        assert check_bivaluation(C1, good) == []

    def test_pow1_mark(self):
        # a consistent p cannot have its negated marker hold
        b = {p: 1, Neg(p): 0, parse("~(p & ~p)"): 1, parse("~~(p & ~p)"): 1}
        assert "pow1-mark" in [v.clause for v in check_bivaluation(C1, b)]

    def test_noncontra_forces_circ(self):
        b = {parse("~(p & ~p)"): 1, Cons(p): 0, p: 1, Neg(p): 1,
             parse("p & ~p"): 1}
        out = check_bivaluation(MBCCL, b)
        assert "noncontra-circ" in [v.clause for v in out]

    def test_positive_clauses(self):
        assert [v.clause for v in check_bivaluation(
            C1, {p: 1, q: 1, And(p, q): 0})] == ["and"]
        assert [v.clause for v in check_bivaluation(
            C1, {p: 0, q: 0, parse("p | q"): 1})] == ["or"]
        assert [v.clause for v in check_bivaluation(
            C1, {p: 1, q: 0, parse("p -> q"): 1})] == ["imp"]

    def test_double_neg(self):
        out = check_bivaluation(C1, {p: 0, Neg(Neg(p)): 1, Neg(p): 1})
        assert "double-neg" in [v.clause for v in out]

    def test_circ_meaning(self):
        out = check_bivaluation(MBCCL, {p: 1, Neg(p): 1, Cons(p): 1})
        assert [v.clause for v in out] == ["circ"]

    def test_named_checker_systems(self):
        # clause-checker-only systems are addressable by name
        assert check_bivaluation("mbC", {p: 1, Neg(p): 1, Cons(p): 1})
        assert check_bivaluation("mbCci", {p: 1, Neg(p): 0,
                                           Neg(Cons(p)): 1, Cons(p): 0})
        with pytest.raises(ValueError):
            check_bivaluation("nope", {p: 1})

    def test_range_validation(self):
        out = check_bivaluation(C1, {p: 7})
        assert [v.clause for v in out] == ["range"]

    def test_clause_fires_only_on_full_domain(self):
        # imp clause needs all three formulas present
        assert check_bivaluation(C1, {parse("p -> q"): 1, p: 1}) == []


class TestProjection:
    def test_first_coordinate(self):
        # projecting a live row gives exactly the indicator of designation
        for lg in [C1, C2, CILA]:
            table = build_table(lg, parse("(p & ~p) -> (q | ~q)"))
            for r in table.live_rows:
                nu = row_assignment(table, r)
                b = valuation_to_bivaluation(lg, nu)
                for f, v in nu.items():
                    assert b[f] == (1 if v <= lg.n else 0)

    def test_projection_passes_clauses(self):
        rng = random.Random(21)
        for lg in [C1, C2, C3, MBCCL, CILA]:
            for _ in range(15):
                f = random_formula(rng, lg, connectives=6)
                table = build_table(lg, f)
                for r in table.live_rows[:25]:
                    b = valuation_to_bivaluation(lg, row_assignment(table, r))
                    assert check_bivaluation(lg, b) == []


class TestAssembly:
    def test_snapshot_tuples(self):
        b = {p: 1, Neg(p): 0, pow(p, 1): 1}
        nu = bivaluation_to_valuation(C2, b, formulas=[p])
        assert nu.assignment[p] == 0  # (1,0,1) = T2
        b2 = {p: 1, Neg(p): 1, pow(p, 1): 0}
        nu2 = bivaluation_to_valuation(C2, b2, formulas=[p])
        assert nu2.value_name(p) == "t2_0"  # (1,1,0)

    def test_missing_coordinate(self):
        with pytest.raises(DomainError):
            bivaluation_to_valuation(C2, {p: 1, Neg(p): 0}, formulas=[p])


class TestRoundTrip:
    @pytest.mark.parametrize("n,count", [(1, 4), (2, 23)])
    def test_exhaustive_single_atom(self, n, count):
        # project each consistent assignment to two values, then rebuild the
        # snapshots from the projection of its (lazy) total extension
        lg = C(n)
        snaps = snapshots(n)
        cols = ordered_subformulas(pow(p, n))
        rows = sorted(oracle_rows(lg, cols))
        assert len(rows) == count
        for row in rows:
            nu = dict(zip(cols, row))
            b = valuation_to_bivaluation(lg, nu)
            assert check_bivaluation(lg, b) == []
            total = extend_partial(lg, set(cols), nu)
            back = bivaluation_to_valuation(
                lg, lambda g: snaps[total[g]][0], formulas=cols)
            assert {f: back.assignment[f] for f in cols} == nu

    def test_bivaluation_side_round_trip(self):
        # starting from the two-valued side: project, assemble whatever has
        # all coordinates on the domain, project again
        lg = C2
        cols = ordered_subformulas(pow(p, 2))
        for row in sorted(oracle_rows(lg, cols)):
            nu = dict(zip(cols, row))
            b = valuation_to_bivaluation(lg, nu)
            part = bivaluation_to_valuation(lg, b)
            assert p in part.assignment and pow(p, 1) in part.assignment
            for f, v in part.assignment.items():
                assert nu[f] == v
            again = valuation_to_bivaluation(lg, part.assignment)
            assert again == {f: b[f] for f in again}


class TestJson:
    def test_round_trip(self):
        b = {p: 1, Neg(p): 1, parse("p & ~p"): 1, parse("~(p & ~p)"): 0}
        text = bivaluation_to_json(b)
        assert bivaluation_from_json(text) == b

    def test_logic_gate(self):
        text = bivaluation_to_json({Cons(p): 1})
        assert bivaluation_from_json(text, logic=CILA) == {Cons(p): 1}
        with pytest.raises(Exception):
            bivaluation_from_json(text, logic=C2)

    def test_values_validated(self):
        with pytest.raises(Exception):
            bivaluation_from_json('{"p": 3}')
