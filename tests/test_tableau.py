"""Tableau engine tests: rule coherence, closure, search, extraction, dumps."""

import importlib.util
import itertools
import json
import pathlib
import random

import pytest

from dacosta import (
    C,
    CILA,
    MBCCL,
    And,
    Cons,
    Imp,
    Neg,
    Or,
    ResourceLimitError,
    Var,
    axioms,
    parse,
    pow,
    powseq,
)
from dacosta.algebra import domain_size, mult_op, value_names
from dacosta.tableau import (
    Branch,
    SignedFormula,
    expand,
    expand_derived,
    extract_countermodel,
    fold_premises,
    prove,
    tableau_to_json,
    tableau_to_text,
    _derived_raw,
    _derived_set,
    _factored_table,
    _merge_pairs,
    _note_partner,
    _pow_chain_step,
    _prefilter,
    _resolve,
    _restrict,
    _rule_table,
    _set_rule,
)
from dacosta.errors import ExtensionError
from dacosta.formula import (AND, CONS, IMP, NEG, OR, ordered_subformulas,
                             random_formula)
from dacosta.truthtable import check_valuation, decide, extend_partial

from conftest import random_corpus
from oracle import oracle_rows

X, Y = Var("x"), Var("y")
P, Q = Var("p"), Var("q")

PSI = parse("((p & ~p) & ~(p & ~p)) -> ~~p")
DATA = pathlib.Path(__file__).parent / "data"

COHERENCE_LOGICS = [C(1), C(2), C(3), C(4), MBCCL, CILA]


def shapes(exts):
    """Extensions as nested (label, formula) lists for frozen comparisons."""
    return [[(sf.label, sf.formula) for sf in ext] for ext in exts]


class TestRuleShapes:
    """Branch orders for specific rules, frozen."""

    def test_three_valued_negation(self):
        lg = C(1)
        assert shapes(expand(lg, SignedFormula(0, Neg(X)))) == [[(2, X)], [(1, X)]]
        assert shapes(expand(lg, SignedFormula(1, Neg(X)))) == [[(1, X)]]
        assert shapes(expand(lg, SignedFormula(2, Neg(X)))) == [[(0, X)]]

    def test_three_valued_false_implication(self):
        exts = shapes(expand(C(1), SignedFormula(2, Imp(X, Y))))
        assert exts == [[(0, X), (2, Y)], [(1, X), (2, Y)]]

    def test_three_valued_true_conjunction(self):
        exts = shapes(expand(C(1), SignedFormula(0, And(X, Y))))
        assert exts == [
            [(0, X), (0, Y)],
            [(0, X), (1, Y)],
            [(1, X), (0, Y)],
            [(1, X), (1, Y)],
        ]

    def test_c2_inconsistent_disjunction_branches(self):
        # A disjunction lands on an inconsistent value only when some
        # disjunct is inconsistent, whichever of t_0, t_1 that is.
        want = [[(1, X)], [(2, X)], [(1, Y)], [(2, Y)]]
        assert shapes(expand(C(2), SignedFormula(1, Or(X, Y)))) == want
        assert shapes(expand(C(2), SignedFormula(2, Or(X, Y)))) == want

    def test_mbccl_consistency_rules(self):
        lg = MBCCL
        assert shapes(expand(lg, SignedFormula(0, Cons(X)))) == [[(0, X)], [(2, X)]]
        assert shapes(expand(lg, SignedFormula(1, Cons(X)))) == [[(0, X)], [(2, X)]]
        assert shapes(expand(lg, SignedFormula(2, Cons(X)))) == [[(1, X)]]

    def test_cila_consistency_rules(self):
        lg = CILA
        assert shapes(expand(lg, SignedFormula(0, Cons(X)))) == [[(0, X)], [(2, X)]]
        assert expand(lg, SignedFormula(1, Cons(X))) == ()
        assert shapes(expand(lg, SignedFormula(2, Cons(X)))) == [[(1, X)]]

    def test_atom_has_no_rule(self):
        with pytest.raises(ValueError, match="atomic"):
            expand(C(1), SignedFormula(0, X))

    def test_circ_outside_signature(self):
        with pytest.raises(Exception):
            expand(C(1), SignedFormula(0, Cons(X)))


class TestRuleCoherence:
    """Rule branches characterize exactly the matrix preimage of each label."""

    @pytest.mark.parametrize("lg", COHERENCE_LOGICS, ids=lambda l: l.name)
    def test_unary_rules_match_tables(self, lg):
        dom = domain_size(lg)
        conns = [("neg", Neg(X))] + ([("cons", Cons(X))] if lg.has_circ else [])
        for conn, f in conns:
            for label in range(dom):
                exts = expand(lg, SignedFormula(label, f))
                got = set()
                for ext in exts:
                    assert len(ext) == 1 and ext[0].formula == X
                    assert 0 <= ext[0].label < dom
                    got.add(ext[0].label)
                want = {a for a in range(dom) if label in mult_op(lg, conn, (a,))}
                assert got == want, (lg.name, conn, label)
                assert len(exts) == len(got), "duplicate branches"

    @pytest.mark.parametrize("lg", COHERENCE_LOGICS, ids=lambda l: l.name)
    def test_binary_rules_match_tables(self, lg):
        dom = domain_size(lg)
        pairs = list(itertools.product(range(dom), repeat=2))
        for conn, f in (("and", And(X, Y)), ("or", Or(X, Y)), ("imp", Imp(X, Y))):
            for label in range(dom):
                exts = expand(lg, SignedFormula(label, f))
                want = {ab for ab in pairs if label in mult_op(lg, conn, ab)}
                got = set()
                for a, b in pairs:
                    for ext in exts:
                        ok = True
                        for sf in ext:
                            assert sf.formula in (X, Y)
                            v = a if sf.formula == X else b
                            if sf.label != v:
                                ok = False
                                break
                        if ok:
                            got.add((a, b))
                            break
                assert got == want, (lg.name, conn, label)

    @pytest.mark.parametrize("lg", COHERENCE_LOGICS, ids=lambda l: l.name)
    def test_branches_are_distinct(self, lg):
        dom = domain_size(lg)
        forms = [Neg(X), And(X, Y), Or(X, Y), Imp(X, Y)]
        if lg.has_circ:
            forms.append(Cons(X))
        for f in forms:
            for label in range(dom):
                exts = expand(lg, SignedFormula(label, f))
                keys = [tuple((sf.label, sf.formula) for sf in ext) for ext in exts]
                assert len(keys) == len(set(keys))


CONN_NAMES = {NEG: "neg", CONS: "cons", AND: "and", OR: "or", IMP: "imp"}


def fits(pairs, args):
    """Do the argument values `args` satisfy template pairs (side, label)?"""
    return all(args[side] == label for side, label in pairs)


class TestSharedConclusions:
    """Each basic rule template, split into the part every extension shares
    and the rests (`_factored_table`), says what the rule says: shared plus
    rest i is extension i, and shared AND (some rest) reaches exactly the
    preimage of the label, as TestRuleCoherence checks of the rule itself."""

    LOGICS = COHERENCE_LOGICS + [C(5)]

    @pytest.mark.parametrize("lg", LOGICS, ids=lambda l: l.name)
    def test_shared_part_lies_in_every_extension(self, lg):
        rules = _rule_table(lg.family, lg.n)
        factored = _factored_table(lg.family, lg.n)
        assert factored.keys() == rules.keys()
        for key, exts in rules.items():
            if factored[key] is None:
                assert len(exts) < 2 or not set(exts[0]).intersection(*exts[1:]), key
                continue
            shared, rests = factored[key]
            assert shared and len(rests) == len(exts), key
            for ext, rest in zip(exts, rests):
                assert set(shared) <= set(ext), key
                assert set(shared) | set(rest) == set(ext), key
                assert not set(shared) & set(rest), key

    @pytest.mark.parametrize("lg", LOGICS, ids=lambda l: l.name)
    def test_factored_form_matches_tables(self, lg):
        dom = domain_size(lg)
        for (label, kind), factored in _factored_table(lg.family, lg.n).items():
            if factored is None:
                continue
            shared, rests = factored
            arity = 1 if kind in (NEG, CONS) else 2
            for args in itertools.product(range(dom), repeat=arity):
                want = label in mult_op(lg, CONN_NAMES[kind], args)
                got = fits(shared, args) and any(fits(rest, args) for rest in rests)
                assert got == want, (lg.name, label, kind, args)

    def test_c_n_false_implication_shares_its_consequent(self):
        # F(A -> B) in C4: one extension per designated label of A, each
        # with F(B); B is inserted once and the split is on A alone.
        shared, rests = _factored_table("C", 4)[(5, IMP)]
        assert shared == ((1, 5),)
        assert rests == tuple(((0, a),) for a in range(5))


def admitted(exts, arity, dom):
    """The argument tuples that some extension of (side, label set) pairs
    admits."""
    return {args for args in itertools.product(range(dom), repeat=arity)
            if any(all(s >> args[side] & 1 for side, s in ext) for ext in exts)}


class TestSetRuleCoherence:
    """Bulk mode's rules on label sets against the tables and the per-label
    rules, for every connective and every non-empty label set: the boxes of
    `_set_rule` lie in the set's preimage and cover it, a one-label set
    admits what `expand`'s rule admits, and a derived set rule is the union
    of the per-label derived extensions."""

    LOGICS = COHERENCE_LOGICS + [C(5)]

    @staticmethod
    def kinds(lg):
        forms = {NEG: Neg(X), AND: And(X, Y), OR: Or(X, Y), IMP: Imp(X, Y)}
        if lg.has_circ:
            forms[CONS] = Cons(X)
        return forms

    @pytest.mark.parametrize("lg", LOGICS, ids=lambda l: l.name)
    def test_boxes_cover_the_preimage(self, lg):
        dom = domain_size(lg)
        full = (1 << dom) - 1
        for kind in self.kinds(lg):
            arity = 1 if kind in (NEG, CONS) else 2
            tuples = set(itertools.product(range(dom), repeat=arity))
            for mask in range(1, full + 1):
                want = {args for args in tuples if any(
                    mask >> c & 1 for c in mult_op(lg, CONN_NAMES[kind], args))}
                rule = _set_rule(lg.family, lg.n, kind, mask)
                if rule is None:
                    assert want == tuples, (lg.name, kind, mask)
                    continue
                exts, factored = rule
                for ext in exts:
                    assert ext and all(0 < s < full for _, s in ext)
                    assert admitted([ext], arity, dom) <= want, (kind, mask, ext)
                assert admitted(exts, arity, dom) == want, (lg.name, kind, mask)
                if factored is not None:
                    shared, rests = factored
                    joined = [shared + rest for rest in rests]
                    assert admitted(joined, arity, dom) == want, (kind, mask)

    @pytest.mark.parametrize("lg", LOGICS, ids=lambda l: l.name)
    def test_one_label_sets_match_expand(self, lg):
        dom = domain_size(lg)
        for kind, f in self.kinds(lg).items():
            arity = 1 if kind in (NEG, CONS) else 2
            for label in range(dom):
                per_label = [tuple((0 if sf.formula == X else 1, 1 << sf.label)
                                   for sf in ext)
                             for ext in expand(lg, SignedFormula(label, f))]
                rule = _set_rule(lg.family, lg.n, kind, 1 << label)
                got = set(itertools.product(range(dom), repeat=arity)) \
                    if rule is None else admitted(rule[0], arity, dom)
                assert got == admitted(per_label, arity, dom), (kind, label)

    @pytest.mark.parametrize("lg", LOGICS, ids=lambda l: l.name)
    def test_derived_sets_are_unions(self, lg):
        dom = domain_size(lg)
        forms = TestDerivedRuleCoherence.towers(lg.n)
        if lg.n == 1:
            forms.append(And(pow(X, 1), pow(Y, 1)))
        for f in forms:
            for mask in range(1, (1 << dom)):
                per_label = [_derived_raw(lg, v, f) for v in range(dom)
                             if mask >> v & 1]
                got = _derived_set(lg, mask, f)
                if any(exts is None for exts in per_label):
                    assert got is None, (f.text, mask)
                    continue
                want = {frozenset(ext) for exts in per_label for ext in exts}
                if got is None:
                    # The one-pair extensions on some formula allow every value.
                    singles = {}
                    for ext in want:
                        if len(ext) == 1:
                            (g, v), = ext
                            singles.setdefault(g, set()).add(v)
                    assert set(range(dom)) in singles.values(), (f.text, mask)
                    continue
                spelled = {frozenset(zip([g for g, _ in ext], labels))
                           for ext in got for labels in itertools.product(
                               *[[v for v in range(dom) if s >> v & 1]
                                 for _, s in ext])}
                assert spelled == want, (f.text, mask)


class TestDerivedRules:
    def test_mbccl_has_none(self):
        for f in (pow(X, 1), Neg(pow(X, 2)), powseq(X, 2), And(X, Y)):
            for label in range(3):
                assert expand_derived(MBCCL, SignedFormula(label, f)) is None

    def test_inconsistent_first_power_closes_in_three_values(self):
        # x^1 marks the consistency of x, so it is never inconsistent itself.
        assert expand_derived(C(1), SignedFormula(1, pow(X, 1))) == ()
        assert expand_derived(CILA, SignedFormula(1, pow(X, 1))) == ()

    def test_power_shift(self):
        # t_0(x^1) forces x = t_1 in C2.
        exts = expand_derived(C(2), SignedFormula(1, pow(X, 1)))
        assert shapes(exts) == [[(2, X)]]

    def test_high_power_beyond_depth_closes(self):
        f = And(pow(X, 2), Neg(pow(X, 2)))
        assert expand_derived(C(2), SignedFormula(0, f)) == ()

    def test_negated_power_rule_c2(self):
        assert shapes(expand_derived(C(2), SignedFormula(0, Neg(pow(X, 2))))) == [
            [(2, X)]
        ]
        assert expand_derived(C(2), SignedFormula(2, Neg(pow(X, 2)))) == ()
        assert shapes(expand_derived(C(2), SignedFormula(3, Neg(pow(X, 2))))) == [
            [(0, X)],
            [(1, X)],
            [(3, X)],
        ]

    def test_power_sequence_row_rule(self):
        exts = expand_derived(C(2), SignedFormula(3, powseq(X, 2)))
        assert [[(sf.label, sf.formula.text) for sf in ext] for ext in exts] == [
            [(1, "x"), (3, "~(x & ~x)"), (0, "~(~(x & ~x) & ~~(x & ~x))")],
            [(2, "x"), (1, "~(x & ~x)"), (3, "~(~(x & ~x) & ~~(x & ~x))")],
        ]

    def test_power_value_chain(self):
        assert _pow_chain_step("C", 1) == (0, 2, 0)
        assert _pow_chain_step("C", 2) == (0, 3, 1, 0)
        assert _pow_chain_step("C", 3) == (0, 4, 1, 2, 0)
        # In mbCcl ~F can be T or t, so x^1 is no function of x.
        assert _pow_chain_step("mbCcl", 1) is None

    def test_chain_sends_booleans_to_true(self):
        for n in range(1, 5):
            step = _pow_chain_step("C", n)
            assert step[0] == 0
            assert step[n + 1] == 0
            assert step[1] == n + 1  # consistency mark of t_0 is F


class TestDerivedRuleCoherence:
    """Each derived tower rule against the semantics: for every label, the
    root values its extensions give are exactly the values of x under which
    some restricted valuation of f's subformulas gives f that label.  Each
    extension is satisfiable whole, () means no value is, and None means
    every value is, save where no rule exists: mbCcl, and ~(x^k) at n = 1."""

    @staticmethod
    def towers(n):
        return ([pow(X, k) for k in range(1, n + 1)]
                + [Neg(pow(X, k)) for k in range(1, n + 1)]
                + [And(pow(X, k), Neg(pow(X, k))) for k in range(0, n + 1)]
                + [powseq(X, k) for k in range(2, n + 2)])

    @staticmethod
    def satisfiable(lg, f, pins):
        try:
            extend_partial(lg, ordered_subformulas(f), pins)
        except ExtensionError:
            return False
        return True

    @pytest.mark.parametrize("lg", [C(1), C(2), C(3), MBCCL, CILA], ids=str)
    def test_rules_match_restricted_valuations(self, lg):
        values = range(domain_size(lg))
        for f in self.towers(lg.n):
            for label in values:
                reach = {s for s in values
                         if self.satisfiable(lg, f, {X: s, f: label})}
                exts = expand_derived(lg, SignedFormula(label, f))
                if exts is None:
                    assert (lg == MBCCL or (lg.n == 1 and f.kind == NEG)
                            or reach == set(values)), (f.text, label)
                    continue
                assert lg != MBCCL
                roots = []
                for ext in exts:
                    pins = {sf.formula: sf.label for sf in ext}
                    roots.append(pins[X])
                    assert self.satisfiable(lg, f, {**pins, f: label}), (f, ext)
                assert sorted(roots) == sorted(reach), (f.text, label)


def closes(lg, labels, f, lab):
    """Why lab(f) closes a branch with the one-label `labels`, or None."""
    partners = {}
    for g in labels:
        _note_partner(partners, g)
    sets = {g: 1 << v for g, v in labels.items()}
    return _restrict(lg.family, lg.n, sets, partners, f, 1 << lab)[1]


class TestClosure:
    def test_inconsistent_contradiction_three_valued(self):
        conj = And(X, Neg(X))
        assert closes(C(1), {}, conj, 1)
        assert closes(MBCCL, {}, conj, 1)
        assert closes(CILA, {}, conj, 1)
        assert not closes(C(1), {}, conj, 0)
        assert not closes(C(2), {}, conj, 1)

    def test_inconsistent_consistency_operator(self):
        assert not closes(MBCCL, {}, Cons(X), 1)

    def test_consistent_value_with_inconsistent_contradiction(self):
        conj = And(X, Neg(X))
        assert closes(C(2), {X: 1}, conj, 2)
        assert closes(C(2), {conj: 2}, X, 1)
        assert closes(C(3), {X: 1}, conj, 3)
        assert not closes(C(2), {X: 1}, conj, 0)

    def test_deep_inconsistency_with_true_contradiction(self):
        conj = And(X, Neg(X))
        assert closes(C(2), {X: 2}, conj, 0)
        assert closes(C(2), {conj: 0}, X, 2)
        assert not closes(C(2), {X: 2}, conj, 1)

    def test_power_mark_must_track_depth(self):
        p1 = pow(X, 1)
        assert closes(C(2), {X: 2}, p1, 0)
        assert closes(C(2), {X: 2}, p1, 3)
        assert closes(C(2), {p1: 0}, X, 2)
        assert not closes(C(2), {X: 2}, p1, 1)
        assert closes(C(3), {X: 3}, p1, 0)
        assert not closes(C(3), {X: 3}, p1, 2)

    def test_label_conflicts_close_during_search(self):
        # F(p) goes in once, shared by both extensions of F(p -> p); it
        # leaves the queued split on T(p) | t(p) nothing that fits.
        res = prove(C(1), parse("p -> p"))
        assert res.proved
        assert [(b.status, b.reason) for b in res.tableau.branches] == [
            ("closed", "every extension of F(p -> p) conflicts")]


class TestClosureCoherence:
    """`_closes` against the brute-force oracle: the (x, x & ~x) and (x, x^1)
    label pairs that some restricted valuation reaches never close, and on
    x & ~x it closes exactly where the restriction cuts what the tables
    alone allow.  A branch whose x & ~x carries a label no valuation gives it
    has closed already, so the reverse order is checked for the others."""

    @staticmethod
    def pairs(lg, f):
        cols = ordered_subformulas(f)
        i, j = cols.index(X), cols.index(f)
        return {(row[i], row[j]) for row in oracle_rows(lg, cols)}

    @pytest.mark.parametrize("lg", COHERENCE_LOGICS, ids=lambda l: l.name)
    def test_reachable_pairs_stay_open(self, lg):
        conj = And(X, Neg(X))
        for f in (conj, pow(X, 1)):
            for v, w in self.pairs(lg, f):
                assert not closes(lg, {X: v}, f, w), (f.text, v, w)
                assert not closes(lg, {f: w}, X, v), (f.text, v, w)

    @pytest.mark.parametrize("lg", COHERENCE_LOGICS, ids=lambda l: l.name)
    def test_cuts_exactly_the_restricted_cell(self, lg):
        conj = And(X, Neg(X))
        reach = self.pairs(lg, conj)
        taken = {w for _, w in reach}
        for v in range(domain_size(lg)):
            cell = {w for u in mult_op(lg, "neg", (v,))
                    for w in mult_op(lg, "and", (v, u))}
            for w in cell:
                cut = (v, w) not in reach
                assert bool(closes(lg, {X: v}, conj, w)) == cut, (v, w)
                if w in taken:
                    assert bool(closes(lg, {conj: w}, X, v)) == cut, (v, w)

    @pytest.mark.parametrize("lg", COHERENCE_LOGICS, ids=lambda l: l.name)
    def test_contradiction_alone(self, lg):
        conj = And(X, Neg(X))
        taken = {w for _, w in self.pairs(lg, conj)}
        for w in range(domain_size(lg)):
            assert bool(closes(lg, {}, conj, w)) == (w not in taken), w


class TestSearch:
    def test_flagship_formula_proved(self):
        for derived in (False, True):
            res = prove(C(1), PSI, use_derived=derived)
            assert res.proved
            assert res.countermodel is None
            assert res.tableau.stats["all_branches_closed"]

    def test_derived_rules_shrink_flagship_proof(self):
        basic = prove(C(1), PSI, use_derived=False)
        derived = prove(C(1), PSI, use_derived=True)
        assert derived.proved and basic.proved
        assert derived.tableau.stats["derived_rule_hits"] >= 1
        assert derived.tableau.stats["nodes"] < basic.tableau.stats["nodes"]

    def test_divergent_branch_does_not_decide(self):
        res = prove(C(1), parse("p -> p & ~p"), stop_on_open=False)
        assert not res.proved
        assert res.tableau.stats["branches"] == 2
        assert res.tableau.stats["closures"] == 1
        assert res.tableau.stats["completed"]
        assert not res.tableau.stats["early_stop"]
        cm = res.countermodel
        assert cm.designated(P) and not cm.designated(parse("p -> p & ~p"))
        assert check_valuation(C(1), dict(cm.items())) == []

    def test_early_stop_leaves_work_pending(self):
        # F(p -> q) puts F(q) on the branch once, then splits on T(p) and
        # t(p); the first is open, so the second is left unexplored.
        res = prove(C(1), parse("p -> q"), stop_on_open=True)
        assert not res.proved
        assert res.tableau.stats["early_stop"]
        assert not res.tableau.stats["completed"]
        assert [b.reason for b in res.tableau.branches] == ["", "unexplored"]
        assert res.countermodel is not None

    def test_paraconsistency(self):
        res = prove(C(1), Q, premises=(P, Neg(P)))
        assert not res.proved
        cm = res.countermodel
        assert cm.designated(P) and cm.designated(Neg(P))
        assert not cm.designated(Q)

    def test_explosion_recovered_by_power_premise(self):
        for n in (1, 2):
            lg = C(n)
            res = prove(lg, Q, premises=(P, Neg(P), powseq(P, n)))
            assert res.proved, lg.name

    def test_hierarchy_separation_at_two(self):
        res = prove(C(2), Q, premises=(P, Neg(P), powseq(P, 1)))
        assert not res.proved
        assert res.countermodel[P] == 2  # the deepest inconsistent value

    def test_boundary_contradiction_of_powers(self):
        deep = And(pow(P, 2), Neg(pow(P, 2)))
        shallow = And(pow(P, 1), Neg(pow(P, 1)))
        for derived in (False, True):
            assert prove(C(2), Q, premises=(deep,), use_derived=derived).proved
            assert not prove(C(2), Q, premises=(shallow,), use_derived=derived).proved

    def test_agrees_with_tables_on_random_formulas(self):
        for lg in (C(1), C(2), MBCCL, CILA):
            for f in random_corpus(lg, 40, 6, seed=911):
                want = decide(lg, f).entailed
                assert prove(lg, f).proved == want
                assert prove(lg, f, use_derived=True).proved == want

    def test_premise_folding(self):
        assert fold_premises(Q, ()) == Q
        assert fold_premises(Q, (P, Neg(P))) == parse("p -> ~p -> q")

    def test_node_cap(self):
        with pytest.raises(ResourceLimitError, match="exceeded"):
            prove(C(4), PSI, max_nodes=3)

    def test_tree_building_is_optional(self):
        res = prove(C(1), parse("p -> p"), build_tree=False)
        assert res.proved
        assert res.tableau.root is None

    def test_deterministic(self):
        runs = [prove(C(2), PSI, use_derived=True) for _ in range(2)]
        s0, s1 = (dict(r.tableau.stats) for r in runs)
        s0.pop("elapsed"), s1.pop("elapsed")
        assert s0 == s1
        b0, b1 = (
            [(b.status, [t for t in b.signed]) for b in r.tableau.branches]
            for r in runs
        )
        assert b0 == b1

    def test_stats_keys(self):
        stats = prove(C(1), PSI).tableau.stats
        assert set(stats) == {
            "nodes",
            "branches",
            "closures",
            "derived_rule_hits",
            "all_branches_closed",
            "completed",
            "early_stop",
            "elapsed",
        }


class TestForcedSplitsFirst:
    """A queued split that the branch's labels force (at most one extension
    left) runs before any real split.  Node counts, not times: before that
    order the C4 Ax2 tail took up to 73,518 nodes and the C3 query 3,030."""

    def test_prefilter_sorts_extensions(self):
        # Label sets as bitmasks: bit v for value v.
        T, t, F = 1, 2, 4
        exts = (((P, T), (Q, T)), ((P, t),), ((P, T), (Q, F)), ((Q, t),))
        assert _prefilter({P: T}, exts) == (
            False, [((P, T), (Q, T)), ((P, T), (Q, F)), ((Q, t),)],
            [(((P, t),), (P, t))])
        assert _prefilter({P: T, Q: F}, exts)[0]
        satisfied, survivors, conflicted = _prefilter({P: F, Q: T}, exts)
        assert not satisfied and survivors == []
        assert [c for _, c in conflicted] == [(P, T), (P, t), (P, T), (Q, t)]
        # A set is held only once it lies inside the extension's set.
        wide = (((P, T | t),), ((Q, F),))
        assert _prefilter({P: T | t}, wide)[0]
        assert _prefilter({P: T | F}, wide) == (False, list(wide), [])

    def test_c4_ax2_tail(self):
        lg = C(4)
        ax2 = next(s for s in axioms.schemata(lg) if s.name == "Ax2")
        rng = random.Random(3)
        for _ in range(15):
            inst = axioms.random_instance(ax2, rng, 2)
            res = prove(lg, inst, use_derived=True, build_tree=False)
            assert res.proved
            assert res.tableau.stats["nodes"] <= 5000, inst.text

    def test_folded_premises(self):
        lg = C(3)
        premises = (parse("p -> r | r", lg), parse("p | r & p", lg))
        res = prove(lg, parse("r -> r", lg), premises)
        assert res.proved
        assert res.tableau.stats["nodes"] <= 1000


class TestSharedConclusionsFirst:
    """A real split puts the part all its extensions share on the branch
    once and queues the rests; a queued split with no extension left that
    fits closes the branch at once.  Node counts, not times: before both,
    the C4 query took 23,373 nodes and the C8 probe 25,907."""

    def test_c4_goal_under_folded_premises(self):
        lg = C(4)
        premises = (parse("~~(r | r)", lg), parse("p & ~r | q", lg))
        res = prove(lg, parse("q -> q", lg), premises, use_derived=True,
                    build_tree=False)
        assert res.proved
        assert res.tableau.stats["nodes"] <= 1000

    def test_c8_one_instance_per_schema(self):
        lg = C(8)
        rng = random.Random(11)
        nodes = 0
        for schema in axioms.schemata(lg):
            inst = axioms.random_instance(schema, rng, 1)
            res = prove(lg, inst, use_derived=True, build_tree=False)
            assert res.proved, inst.text
            nodes += res.tableau.stats["nodes"]
        assert nodes <= 10_000

    def test_split_with_no_fitting_extension_closes_on_insert(self):
        # F(p -> p & ~p): F(p & ~p) goes in once; its split takes F(p)
        # first, which leaves the queued F(->) split (on T(p) | t(p)) no
        # extension, so that branch closes at F(p).
        res = prove(C(1), parse("p -> p & ~p"), stop_on_open=False)
        closed = [b for b in res.tableau.branches if b.status == "closed"]
        assert [b.reason for b in closed] == [
            "every extension of F(p -> p & ~p) conflicts"]
        assert closed[0].signed[-1] == (2, P)

    def test_derived_rule_only_when_no_wider(self):
        # In C2 the derived rule for F(~(x^2)) has three extensions and the
        # basic F(~) rule one, so the basic rule runs.
        lg = C(2)
        f = Neg(pow(P, 2))
        assert len(expand_derived(lg, SignedFormula(3, f))) == 3
        res = prove(lg, f, use_derived=True, stop_on_open=False)
        names = value_names(lg)
        assert res.tableau.root.children[0].rule == f"{names[3]}(~)"


def tower(rng, lg):
    """A random tower over a 0-1 connective root: x^k, x^(k), ~(x^k) or
    x^k & ~(x^k), k up to n + 1."""
    x = random_formula(rng, lg, rng.randint(0, 1), ("p", "q"))
    k = rng.randint(1, lg.n + 1)
    return rng.choice([pow(x, k), powseq(x, k), Neg(pow(x, k)),
                       And(pow(x, k), Neg(pow(x, k)))])


class TestLabelSets:
    """Bulk mode: one label set per formula on a branch."""

    CAPPED = [
        (C(4), (), "p^(4) -> ~~(~p & ((q -> p) -> p -> p)) | q", False),
        (C(5), ("p | q", "~(q -> p)"), "p^(5) -> p -> q", True),
        (C(5), ("(q | q & p) & ~p", "q & q -> q"),
         "p^(5) -> ~(p | p | (~q -> p | p))", False),
    ]

    @pytest.mark.parametrize("lg, premises, goal, entailed", CAPPED,
                             ids=["C4", "C5-entailed", "C5-refuted"])
    def test_small_towers_stay_small(self, lg, premises, goal, entailed):
        # Per-label branching passed 1M nodes on each, derived rules off.
        res = prove(lg, parse(goal, lg), tuple(parse(p, lg) for p in premises),
                    build_tree=False)
        assert res.proved == entailed
        assert res.tableau.stats["nodes"] <= 20_000

    def test_same_formula_pairs_merge(self):
        t, F = 1 << 1, 1 << 2
        # C1 t(q & q): both boxes of t(&) leave q the label t.
        exts, _ = _set_rule("C", 1, AND, t)
        assert len(exts) == 2
        assert _merge_pairs(_resolve(exts, And(Q, Q))) == (((Q, t),),)
        # C1 F(q -> q) wants q designated and false: no extension is left.
        exts, _ = _set_rule("C", 1, IMP, F)
        assert _merge_pairs(_resolve(exts, Imp(Q, Q))) == ()

    def test_same_formula_split_clones_nothing(self):
        # Per-label rules on s -> s made a survivor that cloned the branch
        # only to conflict on its second insert.
        goal = parse("@(s -> s) -> (s -> s) -> ~(s -> s) -> ~(s -> s)", MBCCL)
        res = prove(MBCCL, goal, build_tree=False)
        assert res.proved and res.tableau.stats["branches"] == 1

    def test_open_branch_records_label_sets(self):
        # F(p & ~p -> q) in C2: p is split into single labels before the
        # branch counts as open, while ~p keeps a label set.
        res = prove(C(2), parse("p & ~p -> q"), build_tree=False)
        assert not res.proved
        labels = res.tableau.branches[0].labels
        assert all(isinstance(v, tuple) and v == tuple(sorted(v))
                   for v in labels.values())
        assert len(labels[P]) == 1 and len(labels[Neg(P)]) > 1
        cm = res.countermodel
        assert check_valuation(C(2), dict(cm.items())) == []
        assert cm[P] in labels[P] and cm[Neg(P)] in labels[Neg(P)]

    def test_agrees_with_decide(self):
        # Seeded goals over p, q with premises and towers; every bulk
        # countermodel replays with the premises designated, the goal not.
        # The cap stands for "stays small": grounding triple members only
        # once nothing else is queued, without narrowing their partners,
        # passed it on C5 towers without derived rules.
        rng = random.Random(1414)
        sizes = {1: 6, 2: 5, 3: 4, 4: 3, 5: 3}
        for lg in COHERENCE_LOGICS + [C(5)]:
            for _ in range(500):
                goal = random_formula(rng, lg, rng.randint(0, sizes[lg.n]),
                                      ("p", "q"))
                if rng.random() < 0.5:
                    goal = Imp(tower(rng, lg), goal)
                premises = tuple(random_formula(rng, lg, rng.randint(0, 3),
                                                ("p", "q"))
                                 for _ in range(rng.randint(0, 2)))
                if rng.random() < 0.3:
                    premises += (tower(rng, lg),)
                entailed = decide(lg, goal, premises).entailed
                for derived in (False, True):
                    res = prove(lg, goal, premises, use_derived=derived,
                                max_nodes=200_000, build_tree=False)
                    query = (lg.name, derived, goal.text, [p.text for p in premises])
                    assert res.proved == entailed, query
                    if not entailed:
                        cm = dict(res.countermodel.items())
                        assert check_valuation(lg, cm) == [], query
                        assert cm[goal] > lg.n, query
                        assert all(cm[p] <= lg.n for p in premises), query


class TestExtraction:
    def test_inconsistent_pair_extends_to_true_contradiction(self):
        br = Branch([(1, Neg(P)), (1, P)], "open")
        cm = extract_countermodel(br, C(1))
        assert cm[P] == 1 and cm[Neg(P)] == 1
        assert cm[And(P, Neg(P))] == 0

    def test_classical_countermodel_values(self):
        res = prove(C(1), Imp(P, Q))
        cm = res.countermodel
        assert cm.value_name(P) == "T" and cm.value_name(Q) == "F"

    def test_extraction_satisfies_engine_checks(self):
        res = prove(C(2), parse("(p | q) -> (p & q)"), stop_on_open=False)
        assert not res.proved
        cm = res.countermodel
        assert check_valuation(C(2), dict(cm.items())) == []

    def test_closed_branch_rejected(self):
        with pytest.raises(ValueError, match="open"):
            extract_countermodel(Branch([(0, P)], "closed"), C(1))

    def test_unexpanded_compound_is_completed_by_extension(self):
        br = Branch([(0, And(P, Q))], "open")
        cm = extract_countermodel(br, C(1))
        assert cm[And(P, Q)] == 0
        assert cm.designated(P) and cm.designated(Q)


class TestDumps:
    def test_text_tree_shows_root_once(self):
        res = prove(C(1), parse("p -> p & ~p"), stop_on_open=False)
        txt = tableau_to_text(res.tableau)
        lines = txt.splitlines()
        assert sum(1 for ln in lines if ln.startswith("F(p -> p & ~p)")) == 1
        assert lines[0] == "F(p -> p & ~p)"
        assert any("[closed: every extension of F(p -> p & ~p) conflicts]" in ln
                   for ln in lines)
        assert any("[open]" in ln for ln in lines)
        assert any("<F(->)>" in ln for ln in lines)

    def test_json_structure(self):
        res = prove(C(2), PSI, use_derived=True)
        doc = tableau_to_json(res.tableau)
        assert set(doc) == {"logic", "root", "stats"}
        assert doc["logic"] == "C2"
        root = doc["root"]
        assert root["label"] == "F2" and root["formula"] == PSI.text
        assert root["rule"] == "root"
        names = value_names(C(2))
        stack = [root]
        while stack:
            node = stack.pop()
            assert node["label"] in names
            stack.extend(node["children"])

    def test_json_matches_stats(self):
        res = prove(C(1), parse("p -> p"))
        doc = tableau_to_json(res.tableau)
        assert doc["stats"]["nodes"] == res.tableau.stats["nodes"]


def load_make_golden():
    spec = importlib.util.spec_from_file_location("make_golden",
                                                  DATA / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestProveGolden:
    """prove against results recorded with unit-first branching and shared
    conclusions factored (see the file's "about" field): every stat, branch
    record, countermodel and recorded tree, query by query."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((DATA / "prove_golden.json").read_text())

    @pytest.mark.parametrize("section, tree", [("queries", False), ("trees", True)])
    def test_matches_recorded_results(self, golden, section, tree):
        prove_record = load_make_golden().prove_record
        rows = golden[section]
        assert len(rows) == (325 if section == "queries" else 24)
        for row in rows:
            query = {k: row[k] for k in ("logic", "goal", "premises", "use_derived")}
            got = prove_record(query, tree=tree)
            assert set(got) | set(query) == set(row)
            assert got == {k: row[k] for k in got}, query


class TestGoldenReplay:
    """make_golden.py records a countermodel only once it refutes its query."""

    QUERY = {"logic": "C1", "goal": "p & q", "premises": ["p"]}

    def test_refuting_countermodel_is_recorded(self):
        mg = load_make_golden()
        res = decide(*mg._parsed(self.QUERY))
        assert mg._countermodel(self.QUERY, res.countermodel) == {
            "p": 0, "q": 2, "p & q": 2}

    @pytest.mark.parametrize("assignment, fault", [
        ({"p": 0, "q": 0, "p & q": 2}, "breaks check_valuation"),
        ({"p": 0, "q": 2}, "misses the goal"),
        ({"p": 2, "q": 2, "p & q": 2}, "leaves a premise undesignated"),
        ({"p": 0, "q": 0, "p & q": 0}, "designates the goal"),
    ])
    def test_other_countermodels_stop_the_run(self, assignment, fault):
        mg = load_make_golden()
        valuation = {parse(text): v for text, v in assignment.items()}
        with pytest.raises(mg.BadCountermodel, match=fault):
            mg._countermodel(self.QUERY, valuation)


class TestGoldenCheck:
    """make_golden.py --check counts, per field, the records that moved."""

    def test_field_differences(self):
        mg = load_make_golden()
        old = mg._dump("a", [("queries", [
            {"goal": "p", "work": 1, "entailed": True},
            {"goal": "q", "work": 2, "entailed": False}])])
        new = mg._dump("b", [("queries", [
            {"goal": "p", "work": 3, "entailed": True},
            {"goal": "q", "work": 4, "entailed": True}])])
        assert mg._field_differences(old, new) == "work: 2, about: 1, entailed: 1"
        assert mg._field_differences(old, old) == "none"

    def test_rewrite_refuses_a_moved_verdict(self, monkeypatch, tmp_path, capsys):
        mg = load_make_golden()
        rows = [{"logic": "C1", "goal": "p", "premises": [], "use_derived": False,
                 "nodes": 1, "proved": False},
                {"logic": "C1", "goal": "p -> p", "premises": [],
                 "use_derived": False, "nodes": 2, "proved": True}]
        old = mg._dump("a", [("queries", rows)])
        moved = mg._dump("b", [("queries", [dict(rows[0], nodes=3),
                                            dict(rows[1], proved=False)])])
        path = tmp_path / "golden.json"
        path.write_text(old)
        monkeypatch.setattr(mg, "DATA", tmp_path)
        monkeypatch.setattr(mg, "FILES", {"golden.json": lambda: moved})
        assert mg.main([]) == 1
        assert path.read_text() == old
        err = capsys.readouterr().err
        assert "golden.json: the verdict of" in err and "'goal': 'p -> p'" in err
        assert "'goal': 'p'," not in err
        # Other fields may move: the rewrite goes through.
        same = mg._dump("b", [("queries", [dict(rows[0], nodes=3), rows[1]])])
        monkeypatch.setattr(mg, "FILES", {"golden.json": lambda: same})
        assert mg.main([]) == 0
        assert path.read_text() == same


class TestTreeAndBulkStats:
    """Tree mode runs the paper's per-label rules and bulk mode label sets:
    their searches and counts differ, their answers do not."""

    @pytest.mark.parametrize("stop_on_open", [True, False])
    def test_verdicts_match(self, stop_on_open):
        golden = json.loads((DATA / "prove_golden.json").read_text())
        mg = load_make_golden()
        for row in golden["queries"] + golden["trees"]:
            verdicts = []
            for build_tree in (True, False):
                res = prove(*mg._parsed(row), use_derived=row["use_derived"],
                            stop_on_open=stop_on_open, build_tree=build_tree)
                verdicts.append(res.proved)
                # Raises BadCountermodel unless the countermodel replays.
                mg._countermodel(row, res.countermodel)
            assert verdicts == [row["proved"]] * 2, row

    def test_tree_draws_prefilter_conflicts(self):
        # A split's extension that conflicts with the branch is drawn as a
        # closed leaf but never inserted, so `nodes` does not count it.
        # Here the t(p -> q) split's t(p) extension conflicts with F(p).
        res = prove(C(1), parse("(p -> q) -> p"), stop_on_open=False)

        def count(node):
            return 1 + sum(count(c) for c in node.children)

        assert (count(res.tableau.root), res.tableau.stats["nodes"]) == (6, 5)


class _AlgebraSpy:
    """Stands in for `algebra` as the tableau module sees it, and records
    the logics it is asked to name values for."""

    def __init__(self, real, refuse):
        self._real, self._refuse, self.calls = real, refuse, []

    def __getattr__(self, name):
        return getattr(self._real, name)

    def value_names(self, logic):
        if self._refuse:
            raise AssertionError("value_names called without a tree")
        self.calls.append(logic)
        return self._real.value_names(logic)


class TestBulkModeBuildsNoStrings:
    """Without a recorded tree, a proof never asks for value names: rule
    strings exist only on tree nodes."""

    QUERIES = [(C(2), "p^(2) -> p -> ~p -> q"), (C(2), "p^1 -> p -> ~p -> q"),
               (C(4), "p^(4) -> p -> ~p -> q"), (C(4), "p^(3) -> p -> ~p -> q")]

    def spy(self, monkeypatch, refuse):
        import dacosta.tableau as tableau_module

        spy = _AlgebraSpy(tableau_module.algebra, refuse)
        monkeypatch.setattr(tableau_module, "algebra", spy)
        return spy

    def test_bulk_proof_never_names_values(self, monkeypatch):
        self.spy(monkeypatch, refuse=True)
        verdicts = []
        for lg, text in self.QUERIES:
            res = prove(lg, parse(text), use_derived=True, build_tree=False)
            assert res.tableau.stats["derived_rule_hits"] > 0
            verdicts.append(res.proved)
        assert verdicts == [True, False, True, False]

    def test_tree_mode_names_values(self, monkeypatch):
        spy = self.spy(monkeypatch, refuse=False)
        res = prove(C(2), parse(self.QUERIES[0][1]), use_derived=True)
        assert res.proved and spy.calls == [C(2)]
