"""Row-branching enumeration, decision procedure and partial-extension."""

import functools
import importlib.util
import itertools
import json
import pathlib
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import enumerate_formulas, random_corpus, row_assignment
from oracle import (oracle_rows, reference_classes, reference_decide,
                    reference_pair_entry)

from dacosta import axioms, truthtable
from dacosta.algebra import (
    designated, domain_size, forced_conj_cells, forced_pow1_values, tables,
    value_names,
)
from dacosta.errors import ExtensionError, ResourceLimitError
from dacosta.formula import (
    AND, C, CILA, CONS, IMP, MBCCL, NEG, OR, VAR, And, Cons, Imp, Neg, Or, Var, parse,
    parse_logic, pow, powseq, random_formula,
)
from dacosta.tableau import prove
from dacosta.truthtable import (
    build_table, check_valuation, decide, extend_partial, ordered_subformulas,
    render_table, table_verdict,
)

C1, C2, C3, C4 = C(1), C(2), C(3), C(4)
DP_LOGICS = [C1, C2, C3, C4, MBCCL, CILA]
GOLDEN = pathlib.Path(__file__).parent / "data" / "decide_golden.json"
PSI = parse("((p & ~p) & ~(p & ~p)) -> ~~p")

# the six-row flagship table, cell-for-cell, in enumeration order
PSI_ROWS = [
    "T F F T T F T",
    "t T T F F F T",
    "t t T T F F T",
    "t t T t F F T",
    "t t T t F F t",
    "F T F F T F T",
]


@pytest.fixture
def run_builds(monkeypatch):
    """The (start, end) of each one-input run program built while the test
    runs; a run whose program the logic holds builds none."""
    builds = []
    build = truthtable._run_program

    def counting(plan, i, j, *rest):
        builds.append((i, j))
        return build(plan, i, j, *rest)

    monkeypatch.setattr(truthtable, "_run_program", counting)
    return builds


def lookups(monkeypatch, view):
    """The inputs of every per-call lookup that misses the table class
    `view` while the test runs, in order."""
    seen = []
    missing = view.__missing__

    def counting(table, inputs):
        seen.append(inputs)
        return missing(table, inputs)

    monkeypatch.setattr(view, "__missing__", counting)
    return seen


@pytest.fixture
def run_fills(monkeypatch):
    """The per-call lookups of one-input run tables while the test runs:
    one per run step and class of its input in each decide call, whether
    the logic's shared run tables held the class or it was filled then.
    So it counts the runs that formed, whatever earlier tests decided."""
    return lookups(monkeypatch, truthtable._RunView)


@pytest.fixture
def sum_lookups(monkeypatch):
    """The per-call lookups of columns summed into the one-input run over
    them while the test runs: one per such step and input of the column in
    each decide call, whether the run's entry held the sum or it was summed
    then."""
    return lookups(monkeypatch, truthtable._FusedRun)


class TestFlagshipTable:
    def test_cells_and_order(self):
        table = build_table(C1, PSI)
        assert [f.text for f in table.columns] == [
            "p", "~p", "p & ~p", "~~p", "~(p & ~p)",
            "p & ~p & ~(p & ~p)", "p & ~p & ~(p & ~p) -> ~~p",
        ]
        names = value_names(C1)
        got = [" ".join(names[v] for v in r.values) for r in table.live_rows]
        assert got == PSI_ROWS

    def test_discarded_stubs(self):
        table = build_table(C1, PSI)
        discarded = [r for r in table.rows if r.status == "discarded"]
        assert len(discarded) == 2
        assert table.stats["rows_discarded"] == 2

    def test_verdict_columns(self):
        table = build_table(C1, PSI)
        phi_col = table.columns.index(parse("(p & ~p) & ~(p & ~p)"))
        assert all(r.values[phi_col] == 2 for r in table.live_rows)  # all F
        assert all(r.values[-1] in designated(C1) for r in table.live_rows)
        entailed, countermodel = table_verdict(table)
        assert entailed and countermodel is None
        assert decide(C1, PSI).entailed


class TestBuildTable:
    def test_contradiction_rows_c1(self):
        table = build_table(C1, parse("p & ~p"))
        names = value_names(C1)
        got = [" ".join(names[v] for v in r.values) for r in table.live_rows]
        assert got == ["T F F", "t T T", "t t T", "F T F"]

    def test_forcing_at_n2(self):
        # rows where p = t2_1 must put p & ~p in the inconsistent band and
        # pin p^1 to t2_0
        table = build_table(C2, pow(parse("p"), 1))
        cols = table.columns
        i_p = cols.index(parse("p"))
        i_conj = cols.index(parse("p & ~p"))
        i_pow = cols.index(pow(parse("p"), 1))
        hit = 0
        for r in table.live_rows:
            if r.values[i_p] == 2:  # t2_1
                assert r.values[i_conj] in (1, 2)
                assert r.values[i_pow] == 1  # t2_0
                hit += 1
        assert hit > 0

    def test_oracle_equivalence_sample(self):
        rng = random.Random(11)
        for lg in [C1, C2, MBCCL, CILA]:
            for _ in range(25):
                f = random_formula(rng, lg, connectives=rng.randint(1, 4))
                table = build_table(lg, f)
                live = {tuple(r.values) for r in table.live_rows}
                assert live == oracle_rows(lg, table.columns), (lg.name, f.text)

    def test_rows_distinct_and_deterministic(self, logic):
        f = parse("(p -> q) & ~p | q")
        t1, t2 = build_table(logic, f), build_table(logic, f)
        rows1 = [tuple(r.values) for r in t1.live_rows]
        assert rows1 == [tuple(r.values) for r in t2.live_rows]
        assert len(set(rows1)) == len(rows1)

    def test_atom_table(self, logic):
        table = build_table(logic, parse("p"))
        assert len(table.live_rows) == domain_size(logic)

    def test_premise_columns(self):
        table = build_table(C1, parse("q"), premises=(parse("p"), parse("~p")))
        assert parse("p") in table.columns and parse("~p") in table.columns
        assert table.columns == ordered_subformulas(
            parse("q"), (parse("p"), parse("~p")))

    def test_row_cap(self):
        with pytest.raises(ResourceLimitError):
            build_table(C3, parse("(p | q) & (q | r) -> (r | p)"), max_rows=10)


class TestDecide:
    def test_paraconsistency_c1(self):
        res = decide(C1, parse("q"), premises=(parse("p"), parse("~p")))
        assert not res.entailed
        cm = res.countermodel
        assert cm.value_name(parse("p")) == "t"
        assert cm.value_name(parse("q")) == "F"

    def test_recovery_with_powseq(self):
        res = decide(C1, parse("q"),
                     premises=(parse("p"), parse("~p"), powseq(parse("p"), 1)))
        assert res.entailed

    def test_hierarchy_witness_c2(self):
        res = decide(C2, parse("q"),
                     premises=(parse("p"), parse("~p"), pow(parse("p"), 1)))
        assert not res.entailed
        assert res.countermodel.value_name(parse("p")) == "t2_1"

    def test_per_row_modus_ponens(self):
        rng = random.Random(5)
        for lg in [C1, C2, MBCCL]:
            for _ in range(20):
                f = random_formula(rng, lg, connectives=5)
                table = build_table(lg, parse("p -> q"), premises=(f,))
                des = designated(lg)
                cols = table.columns
                i_p, i_q = cols.index(parse("p")), cols.index(parse("q"))
                i_imp = cols.index(parse("p -> q"))
                for r in table.live_rows:
                    if r.values[i_p] in des and r.values[i_imp] in des:
                        assert r.values[i_q] in des

    def test_work_cap(self):
        with pytest.raises(ResourceLimitError):
            decide(C3, parse("(p | q) & (q | r) -> (r | p)"), max_work=5)

    def test_work_cap_boundary(self, run_fills):
        # the second goal's tower over p is a one-input run, whose fills count
        for goal, premises, runs in (
                ("(p | q) & (q | r) -> (r | p)", ("~p",), False),
                ("q -> p^(3) -> r", (), True)):
            goal, premises = parse(goal), tuple(map(parse, premises))
            run_fills.clear()
            work = decide(C3, goal, premises).stats["work"]
            assert bool(run_fills) is runs
            assert decide(C3, goal, premises, max_work=work).stats["work"] == work
            with pytest.raises(ResourceLimitError, match=f"exceeded {work - 1} "):
                decide(C3, goal, premises, max_work=work - 1)

    def test_consistency_outside_signature(self):
        p, q = Var("p"), Var("q")
        for lg, goal, premises in ((C1, Cons(p), ()), (C3, p, (q, Neg(Cons(q)))),
                                   (C2, parse("@p -> p"), ())):
            with pytest.raises(ValueError, match="^consistency connective not "
                               f"in signature of {lg.name}$"):
                decide(lg, goal, premises)
            with pytest.raises(ValueError, match="not in signature"):
                build_table(lg, goal, premises)
        # no atom carries @ in its name, so only a @ node shows one
        with pytest.raises(ValueError, match="^atom name 'a@b' "):
            Var("a@b")

    def test_step_getters_are_bounded(self):
        # the getters are shared across queries, so a long batch must not
        # grow their cache
        assert truthtable._getter.cache_info().maxsize is not None

    def test_countermodel_designates_premises(self):
        res = decide(C2, parse("r"), premises=(parse("p -> q"), parse("p")))
        assert not res.entailed
        des = designated(C2)
        assert res.countermodel.value_name(parse("r")) not in (
            "T2", "t2_0", "t2_1")
        for prem in (parse("p -> q"), parse("p")):
            assert res.countermodel.assignment[prem] in des


class TestExtendPartial:
    def test_empty_seed(self, logic):
        nu = extend_partial(logic, set(), {})
        v = nu.value_name(parse("p & ~p"))
        assert v in value_names(logic)

    def test_live_rows_extend(self):
        rng = random.Random(9)
        for lg in [C1, C2, MBCCL, CILA]:
            for _ in range(10):
                f = random_formula(rng, lg, connectives=6)
                table = build_table(lg, f)
                for r in table.live_rows[:20]:
                    nu0 = row_assignment(table, r)
                    nu = extend_partial(lg, set(table.columns), nu0)
                    for g, val in nu0.items():
                        assert nu.assignment[g] == val
                    # extension still satisfies the clause checker on a
                    # slightly larger domain
                    probe = Neg(f)
                    nu.value_name(probe)
                    assert check_valuation(lg, dict(nu.items())) == []

    def test_stuck_seed_reports_formula(self):
        p = parse("p")
        bad = {p: 1, parse("p & ~p"): 1}  # t and t: the t-row is discarded
        with pytest.raises(ExtensionError, match=r"p & ~p"):
            extend_partial(C1, {p, parse("~p"), parse("p & ~p")}, bad)

    def test_deep_chain_without_recursion(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"sys.setrecursionlimit({limit}) called")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        k = 1200
        chain = parse("p")
        for _ in range(k):
            chain = Neg(chain)
        table = build_table(C1, chain)
        assert len(table.live_rows) == k + 3
        columns = ordered_subformulas(chain)
        nu = extend_partial(C1, columns, {chain: 2})
        assert nu.assignment[chain] == 2
        assert check_valuation(C1, nu.assignment) == []
        # with p = T every C1 negation is forced: T, F, T, ..., so an even
        # chain is T and the search is stuck at its top
        with pytest.raises(ExtensionError) as info:
            extend_partial(C1, columns, {parse("p"): 0, chain: 2})
        assert info.value.formula is chain

    def test_non_closed_domain_rejected(self):
        with pytest.raises(ExtensionError, match="closed"):
            extend_partial(C1, {parse("p & q")}, {parse("p & q"): 0})


class TestCheckValuation:
    def test_live_rows_pass(self):
        for lg in [C1, C2, CILA]:
            table = build_table(lg, parse("(p & ~p) -> q"))
            for r in table.live_rows:
                assert check_valuation(lg, row_assignment(table, r)) == []

    def test_violations_reported(self):
        p = parse("p")
        # non-homomorphic: T & T -> F is not in the C1 cell
        bad = {p: 0, parse("~p"): 2, parse("p & ~p"): 0}
        assert check_valuation(C1, bad)
        # restriction breach: p = t but p & ~p = t
        bad2 = {p: 1, parse("~p"): 0, parse("p & ~p"): 1}
        assert check_valuation(C1, bad2)


class TestRenderTable:
    def test_plain(self):
        txt = render_table(build_table(C1, PSI))
        assert txt.splitlines()[0].split() == [
            "p", "~p", "p", "&", "~p", "~~p", "~(p", "&", "~p)",
            "p", "&", "~p", "&", "~(p", "&", "~p)",
            "p", "&", "~p", "&", "~(p", "&", "~p)", "->", "~~p"]
        assert len([ln for ln in txt.splitlines() if ln.strip()]) == 8

    def test_show_discarded(self):
        table = build_table(C1, PSI)
        txt = render_table(table, show_discarded=True)
        assert txt.count(" x") == 2

    def test_column_count(self, logic):
        f = parse("p -> (q -> p)")
        table = build_table(logic, f)
        assert len(table.columns) == len(ordered_subformulas(f))


class TestAgreementSmall:
    def test_exhaustive_two_connectives(self, logic):
        formulas = enumerate_formulas(2, ("p", "q"), logic.has_circ)
        for k, goal in enumerate(formulas):
            for premises in ((), (formulas[(7 * k + 3) % len(formulas)],)):
                table = build_table(logic, goal, premises)
                res = decide(logic, goal, premises)
                assert res.stats["rows_live"] == len(table.live_rows)
                for stats in (table.stats, res.stats):
                    assert stats["rows_total"] == \
                        stats["rows_live"] + stats["rows_discarded"]
                entailed, _ = table_verdict(table)
                assert res.entailed == entailed, (goal.text, premises)
                if entailed:
                    assert res.countermodel is None
                    continue
                cm = res.countermodel.assignment
                assert set(cm) == set(table.columns)
                assert check_valuation(logic, cm) == []
                assert all(cm[p] <= logic.n for p in premises)
                assert cm[goal] > logic.n

    def test_random_corpus_verdicts_stable(self, logic):
        for f in random_corpus(logic, 30, 7, seed=13):
            r1, r2 = decide(logic, f), decide(logic, f)
            assert r1.entailed == r2.entailed


# Column shapes whose successor tables are checked: atom, every connective,
# the b & ~b hook and the a^1 hook.
SHAPES = ["p", "~p", "@p", "p & q", "p | q", "p -> q", "p & ~p", "~(p & ~p)"]
CONN = {NEG: "neg", CONS: "cons", AND: "and", OR: "or", IMP: "imp"}


def expected_successors(lg, f, inputs, is_prem, is_goal, survives):
    """(entries, pruned count) of column f at inputs, from algebra alone.

    A premise or goal column's inputs end with the flag: 3 while the
    premises so far are designated, else 0, plus the goal's status (0 before
    its column, 1 designated, 2 undesignated)."""
    role = is_prem or is_goal
    cell_inputs = inputs[:-1] if role else inputs
    tab = tables(lg)
    if f.kind == VAR:
        cell = tuple(range(lg.n + 2))
    elif f.kind in (NEG, CONS):
        cell = tab[CONN[f.kind]][cell_inputs[0]]
    else:
        cell = tab[CONN[f.kind]][cell_inputs[0]][cell_inputs[1]]
    allowed = set(cell)
    if f.conj_base is not None:
        conj = forced_conj_cells(lg)[cell_inputs[2]]
        if conj is not None:
            allowed &= conj
    if f.pow_height >= 1:
        forced = forced_pow1_values(lg)[cell_inputs[-1]]
        if forced is not None:
            allowed &= {forced}
    live = [v for v in cell if v in allowed]
    tails = []
    for v in live:
        tail = (v,) if survives else ()
        if role:
            flag = inputs[-1]
            prem_ok = flag >= 3 and not (is_prem and v not in designated(lg))
            goal = (1 if v in designated(lg) else 2) if is_goal else flag % 3
            tail += (3 * prem_ok + goal,)
        tails.append(tail)
    entries = tuple((tail, tails.count(tail), (live[tails.index(tail)],))
                    for tail in dict.fromkeys(tails))
    return entries, len(cell) - len(live)


# (premise, goal, survives) of the successor tables checked: a plain column
# always survives its step, a premise or goal column may not.
TABLE_KINDS = [(False, False, True)] + [
    (is_prem, is_goal, survives) for is_prem, is_goal in ((True, False),
                                                         (False, True), (True, True))
    for survives in (True, False)]


class TestSuccessorTables:
    @pytest.mark.parametrize("lg", DP_LOGICS, ids=[lg.name for lg in DP_LOGICS])
    def test_entries_match_cells(self, lg):
        hooked = {"conj": 0, "pow": 0}
        merged = 0
        for text in SHAPES:
            if "@" in text and not lg.has_circ:
                continue
            f = parse(text)
            plan = truthtable._Plan(lg, ordered_subformulas(f))
            j = plan.index[f]
            rule, srcs = plan.entries[j]
            assert plan.entries[j][0] is truthtable._Plan(
                lg, ordered_subformulas(f)).entries[j][0]
            hooked["conj"] += rule.conj_cells is not None
            hooked["pow"] += rule.pow1_values is not None
            distinct = sorted(set(srcs))
            for combo in itertools.product(range(lg.n + 2), repeat=len(distinct)):
                values = [None] * len(plan.columns)
                for s, v in zip(distinct, combo):
                    values[s] = v
                inputs = tuple(values[s] for s in srcs)
                live, pruned = plan.candidates(j, values)
                for is_prem, is_goal, survives in TABLE_KINDS:
                    table = rule.successor_table(is_prem, is_goal, survives,
                                                 rule.full_domain)
                    flags = range(6) if is_prem or is_goal else (None,)
                    for key in (inputs if flag is None else inputs + (flag,)
                                for flag in flags):
                        entries, npruned = table[key]
                        assert (entries, npruned) == expected_successors(
                            lg, f, key, is_prem, is_goal, survives), (text, key)
                        assert npruned == len(pruned)
                        # every live value is counted once, and values holds
                        # the first in cell order that gives each tail
                        assert sum(mult for _, mult, _ in entries) == len(live)
                        firsts = [v for _, _, (v,) in entries]
                        assert firsts == [v for v in live if v in firsts]
                        if survives:
                            assert [(tail[0], mult) for tail, mult, _ in entries] \
                                == [(v, 1) for v in live]
                        else:
                            # only the new flag is appended, so values that
                            # agree on it are one entry
                            assert all(len(tail) == 1 for tail, _, _ in entries)
                            merged += len(entries) < len(live)
        assert hooked["conj"] == 1
        assert hooked["pow"] == (1 if lg.family == "C" and lg.n >= 2 else 0)
        assert merged > 0

    def test_fills_only_reached_entries(self):
        lg = C(40)
        truthtable._cell_rules.cache_clear()
        res = decide(lg, parse("p & ~p"))
        assert not res.entailed
        neg = tables(lg)["neg"]
        rules = truthtable._cell_rules(lg)
        filled = {key: {kind: set(table) for kind, table in rule.successors.items()}
                  for key, rule in rules.items()}
        # p's slot holds its class: T, t_0, the other t_k (the conj hook
        # tells them from t_0) or F; ~p's: T, any t_k or F.  The goal column
        # reads p, ~p and p again, then the start flag.
        p_reps = (0, 1) + (2,) * 39 + (41,)
        neg_reps = (0,) + (1,) * 40 + (41,)
        assert filled == {
            (None, False, False): {(False, False, True, p_reps): {()}},
            ("neg", False, False): {(False, False, True, neg_reps): {
                (a,) for a in (0, 1, 2, 41)}},
            ("and", True, False): {(False, True, False, None): {
                (a, neg_reps[b], a, 3) for a in (0, 1, 2, 41) for b in neg[a]}},
        }
        # six entries, where keeping every value of p and ~p would fill 1,642
        assert len(filled["and", True, False][False, True, False, None]) == 6 \
            < sum(len(neg[a]) for a in range(42))


CLASS_LOGICS = [C(n) for n in range(1, 7)] + [MBCCL, CILA]
REFERENCE_CLASS_LOGICS = [C(n) for n in (*range(1, 9), 16)] + [MBCCL, CILA]


def restricted_cell(lg, conn, has_conj, has_pow, inputs):
    """(live cell, pruned count) of a column kind at inputs, from algebra
    alone: the cell, then the conj hook's and the pow hook's restriction."""
    cell = tables(lg)[conn][inputs[0]]
    if conn not in ("neg", "cons"):
        cell = cell[inputs[1]]
    allowed = set(cell)
    arity = 1 if conn in ("neg", "cons") else 2
    if has_conj and forced_conj_cells(lg)[inputs[arity]] is not None:
        allowed &= forced_conj_cells(lg)[inputs[arity]]
    if has_pow and forced_pow1_values(lg)[inputs[-1]] is not None:
        allowed &= {forced_pow1_values(lg)[inputs[-1]]}
    live = tuple(v for v in cell if v in allowed)
    return live, len(cell) - len(live)


def rule_kinds(lg):
    """Every (connective, conj hook, pow hook) kind of the logic, with its
    input count."""
    for conn in tables(lg):
        arity = 1 if conn in ("neg", "cons") else 2
        for has_conj, has_pow in itertools.product((False, True), repeat=2):
            yield (conn, has_conj, has_pow), arity + has_conj + has_pow


class TestValueClasses:
    """Each column's state slot holds the first value of its class under
    _CellRule.classes; the classes must be exactly the values that no
    reader can tell apart."""

    @pytest.mark.parametrize("lg", CLASS_LOGICS, ids=[lg.name for lg in CLASS_LOGICS])
    def test_classes_are_the_coarsest_exact_partition(self, lg):
        rules = truthtable._cell_rules(lg)
        domain = range(lg.n + 2)
        merged = 0
        for kind, width in rule_kinds(lg):
            for position in range(width):
                reps = rules[kind].classes(position)
                others = list(itertools.product(domain, repeat=width - 1))

                def cells(u):
                    return [restricted_cell(lg, *kind, rest[:position] + (u,)
                                            + rest[position:]) for rest in others]

                by_value = [cells(u) for u in domain]
                for u in domain:
                    # the first value of u's class, which it shares with u
                    assert reps[u] <= u and reps[reps[u]] == reps[u]
                    for w in domain:
                        same = by_value[u] == by_value[w]
                        assert (reps[u] == reps[w]) is same, (kind, position, u, w)
                merged += len(set(reps)) < len(reps)
        assert merged > 0

    @pytest.mark.parametrize("lg", REFERENCE_CLASS_LOGICS,
                             ids=[lg.name for lg in REFERENCE_CLASS_LOGICS])
    def test_classes_match_reference(self, lg):
        # A hook input takes one value per distinct filter while the other
        # positions' maps are found; the reference ranges it over every value.
        for kind, width in rule_kinds(lg):
            rule = truthtable._CellRule(lg, *kind)
            assert tuple(map(rule.classes, range(width))) \
                == reference_classes(truthtable._CellRule(lg, *kind)), kind

    def test_hook_maps_split_once_per_filter(self, monkeypatch):
        # C16 has 3 distinct conjunction filters over 18 values: ranging the
        # hook over every value took 6,966 splits for this rule's maps.
        calls = []
        split = truthtable._CellRule.split

        def counting(rule, inputs):
            calls.append(inputs)
            return split(rule, inputs)

        monkeypatch.setattr(truthtable._CellRule, "split", counting)
        truthtable._CellRule(C(16), "and", True, False).classes(0)
        assert 0 < len(calls) <= 2_000

    def test_c1_columns_keep_every_value(self):
        # A C1 connective tells T, t and F apart at each argument.  Only the
        # conj hook merges T and F, and its base is also the conjunction's
        # left argument; C1 forces no pow hook.  So every C1 column's map
        # is the identity.
        rules = truthtable._cell_rules(C1)
        for conn, has_conj in itertools.product(tables(C1), (False, True)):
            rule = rules[conn, has_conj, False]
            for position in range(rule.arity):
                assert rule.classes(position) == (0, 1, 2)
            if has_conj:
                hook = rule.classes(rule.arity)
                assert hook == (0, 1, 0)
                assert truthtable._meet(rule.classes(0), hook) == (0, 1, 2)

    def test_meet_intersects_classes(self):
        for lg in CLASS_LOGICS:
            rules = truthtable._cell_rules(lg)
            maps = {rules[kind].classes(position)
                    for kind, width in rule_kinds(lg) for position in range(width)}
            for a, b in itertools.product(maps, repeat=2):
                meet = truthtable._meet(a, b)
                for u, w in itertools.product(range(lg.n + 2), repeat=2):
                    assert (meet[u] == meet[w]) is (a[u] == a[w] and b[u] == b[w])
                    assert meet[u] <= u and meet[meet[u]] == meet[u]

    def test_caches_do_not_grow_over_the_golden_corpus(self):
        golden = json.loads(GOLDEN.read_text())["queries"]
        logics = {q["logic"]: parse_logic(q["logic"]) for q in golden}

        def run_corpus():
            for q in golden:
                lg = logics[q["logic"]]
                decide(lg, parse(q["goal"], lg),
                       tuple(parse(p, lg) for p in q["premises"]))

        def sizes():
            return (truthtable._meet.cache_info().currsize,
                    {(name, key): rule.class_maps
                     for name, lg in logics.items()
                     for key, rule in truthtable._cell_rules(lg).items()})

        truthtable._cell_rules.cache_clear()
        truthtable._meet.cache_clear()
        run_corpus()
        first = sizes()
        run_corpus()
        assert sizes() == first
        assert first[0] > 0 and any(first[1].values())

    def test_only_decide_builds_class_maps(self):
        # build_table and extend_partial read cells only; building a rule's
        # maps costs up to (n+2)^3 splits on first use, so they must not pay it
        goal = parse("p^2 -> p")
        truthtable._cell_rules.cache_clear()
        build_table(C3, goal)
        extend_partial(C3, ordered_subformulas(goal), {})
        rules = truthtable._cell_rules(C3)
        assert ("and", True, False) in rules and ("neg", False, True) in rules
        assert all(rule.class_maps is None for rule in rules.values())
        decide(C3, goal)
        # every rule with inputs reads a column, so decide met its maps
        assert all(rule.class_maps is not None
                   for key, rule in rules.items() if key[0] is not None)


class TestHighN:
    def test_axiom_instances_within_the_default_cap(self):
        # One instance of each C_n schema over 1-connective substituents.
        # Keeping every value, C12's P_12 alone took 4.9M states.
        work = {}
        for lg in (C(8), C(12), C(16)):
            rng = random.Random(5)
            work[lg.n] = 0
            for schema in axioms.schemata(lg):
                f = axioms.random_instance(schema, rng, connectives=1)
                res = decide(lg, f)
                assert res.entailed, (lg.name, f.text)
                work[lg.n] += res.stats["work"]
        assert work[12] < 300_000
        # 770,842 states when every tower column stood in the frontier
        assert work[16] < 40_000


def decide_fields(lg, goal, premises=()):
    """The fields of decide() that reference_decide reports."""
    res = decide(lg, goal, premises)
    fields = {key: res.stats[key] for key in ("rows_live", "rows_discarded", "work")}
    fields["entailed"] = res.entailed
    fields["countermodel"] = (None if res.countermodel is None
                              else res.countermodel.assignment)
    return fields


def tower_instances(ns=range(2, 6)):
    """(logic, instance) for bc_n, dc_n and P_n in C_n for n in `ns` (C2-C5
    by default), over the atoms p, q and over one seeded pair of
    1-connective substituents."""
    rng = random.Random(31)
    out = []
    for n in ns:
        lg = C(n)
        for name in ("bc", "dc", "P"):
            schema = axioms.schema_by_name(lg, f"{name}_{n}")
            for subs in ((Var("p"), Var("q")),
                         tuple(random_formula(rng, lg, 1, ("p", "q"))
                               for _ in "AB")):
                out.append((lg, axioms.instantiate(schema, dict(zip("AB", subs)))))
    return out


@functools.lru_cache(maxsize=None)
def tower_references():
    """(logic, instance, reference_decide fields) over tower_instances(),
    computed once for the tests that share them."""
    return tuple((lg, f, reference_decide(lg, f)) for lg, f in tower_instances())


class TestPairSteps:
    """decide sums out a column read only by the next one; the column-by-
    column DP in oracle.reference_decide gives the figures it must keep."""

    @pytest.mark.parametrize("lg", DP_LOGICS, ids=[lg.name for lg in DP_LOGICS])
    def test_random_goals_match_reference(self, lg):
        rng = random.Random(4242)
        summed_out = 0
        for i in range(40):
            goal = random_formula(rng, lg, rng.randint(0, 7), ("p", "q", "r"))
            premises = tuple(random_formula(rng, lg, rng.randint(0, 3), ("p", "q"))
                             for _ in range(i % 3))
            got, want = decide_fields(lg, goal, premises), \
                reference_decide(lg, goal, premises)
            assert got["work"] <= want["work"], (goal.text, premises)
            summed_out += got["work"] < want["work"]
            got["work"] = want["work"]
            assert got == want, (goal.text, premises)
        assert summed_out > 0

    def test_towers_match_reference_with_less_work(self):
        for lg, f, want in tower_references():
            got = decide_fields(lg, f)
            assert got["work"] < want["work"], (lg.name, f.text)
            got["work"] = want["work"]
            assert got == want, (lg.name, f.text)

    def test_countermodel_through_pairs(self):
        # In the first goal p and q are summed out into ~p and ~q, and ~~q
        # into the conjunction; the walk back fills those columns too.  The
        # others move the flag slot: the goal column is read by a premise, a
        # premise column survives its step, and the goal is also a premise.
        cases = [  # goal, premises, entailed, a column is summed out
            ("~~p & ~~q -> r", (), False, True),
            ("p", ("p -> q",), False, False),
            ("~p & q -> r", ("p",), False, True),
            ("q", ("q",), True, False),
        ]
        for lg in (C1, C2, MBCCL):
            for goal, premises, entailed, summed in cases:
                goal, premises = parse(goal), tuple(map(parse, premises))
                got = decide_fields(lg, goal, premises)
                want = reference_decide(lg, goal, premises)
                assert got["entailed"] is entailed
                assert got == dict(want, work=got["work"]), (lg.name, goal.text)
                if lg == C1:
                    # every C1 class map is the identity, so only pairs
                    # lower the work
                    assert (got["work"] < want["work"]) is summed
                else:
                    assert got["work"] <= want["work"]
                if not entailed:
                    assert check_valuation(lg, got["countermodel"]) == []

    def test_fills_only_reached_entries(self):
        # ~p is read only by p & ~p, which only ~(p & ~p) reads: one pair
        # step, whose outside inputs are p, then p twice for the reader.
        # p's readers tell every value apart (the pow hook of ~(p & ~p)
        # reads the exact t_k); p & ~p's reader only T, any t_k and F.
        lg = C(40)
        truthtable._cell_rules.cache_clear()
        decide(lg, parse("~(p & ~p) -> q"))
        rules = truthtable._cell_rules(lg)
        filled = {(key, pair_key[0] is rules["neg", False, False]) + pair_key[1:]:
                  set(table)
                  for key, rule in rules.items()
                  for pair_key, table in rule.pairs.items()}
        neg_reps = (0,) + (1,) * 40 + (41,)
        assert filled == {(("and", True, False), True, 1, (1,), neg_reps):
                          {(a, a, a) for a in range(42)}}

    def test_bounded_and_interned_over_the_golden_corpus(self):
        golden = json.loads(GOLDEN.read_text())["queries"]

        def run_corpus():
            for q in golden:
                lg = parse_logic(q["logic"])
                decide(lg, parse(q["goal"], lg),
                       tuple(parse(p, lg) for p in q["premises"]))

        def pair_tables():
            return {(lg.name, key, pair_key): table
                    for lg in map(parse_logic, {q["logic"] for q in golden})
                    for key, rule in truthtable._cell_rules(lg).items()
                    for pair_key, table in rule.pairs.items()}

        truthtable._cell_rules.cache_clear()
        run_corpus()
        first = {key: dict(table) for key, table in pair_tables().items()}
        run_corpus()
        assert {key: dict(table) for key, table in pair_tables().items()} == first
        assert first
        by_value = {}
        for (name, key, (_, split, positions, _)), table in pair_tables().items():
            reader = truthtable._cell_rules(parse_logic(name))[key]
            # the first column's inputs and the reader's other inputs
            width = split - len(positions) + reader.arity + \
                (reader.conj_cells is not None) + (reader.pow1_values is not None)
            assert all(len(inputs) == width for inputs in table)
            assert len(table) <= (parse_logic(name).n + 2) ** width
            for entry in table.values():
                assert by_value.setdefault(entry, entry) is entry
        assert len(by_value) < sum(map(len, first.values()))


    def test_entries_match_value_by_value_sums(self):
        # A pair reads its first column under that column's class map, and
        # the reader once per class; every entry filled over the golden
        # corpus and the tower goals must be the one that summing the
        # column out value by value gives.
        golden = json.loads(GOLDEN.read_text())["queries"]
        cases = [(lg, f, ()) for lg, f in tower_instances()] + \
            tower_goals(320, 77)
        for q in golden:
            lg = parse_logic(q["logic"])
            cases.append((lg, parse(q["goal"], lg),
                          tuple(parse(p, lg) for p in q["premises"])))
        truthtable._cell_rules.cache_clear()
        for case in cases:
            decide(*case)
        checked = merged = 0
        for lg in {lg for lg, _, _ in cases}:
            for rule in truthtable._cell_rules(lg).values():
                for (first, split, positions, reps), table in rule.pairs.items():
                    merged += len(set(table.column.reps)) < len(first.full_domain)
                    for inputs, entry in table.items():
                        assert entry == reference_pair_entry(
                            first, split, positions, rule, reps, inputs), \
                            (lg.name, inputs)
                        checked += 1
        assert checked > 1000 and merged > 0


TOWER_LOGICS = [C1, C2, C3, C4, C(5), MBCCL, CILA]


def tower_query(rng, lg):
    """(goal, premises) in `lg`: towers pow(A, k) or powseq(A, k) of random
    substituents A of 0-3 connectives over p and q, joined by &, | and ->,
    with 0-2 premises of the same kind.  k is at most 3, and 2 in C4 and
    C5, where the reference's frontiers are wide."""

    def tower():
        sub = random_formula(rng, lg, rng.randint(0, 3), ("p", "q"))
        height = 2 if lg.family == "C" and lg.n >= 4 else 3
        return rng.choice((pow, powseq))(sub, rng.randint(1, height))

    def joined(towers):
        f = tower()
        for _ in range(towers - 1):
            f = rng.choice((And, Or, Imp))(f, tower())
        return f

    goal = joined(rng.randint(1, 2))
    return goal, tuple(joined(1) for _ in range(rng.randint(0, 2)))


def tower_goals(count, seed):
    """(logic, goal, premises) of `count` tower queries (tower_query), in
    the logics of TOWER_LOGICS in turn."""
    rng = random.Random(seed)
    return [(lg, *tower_query(rng, lg))
            for lg in itertools.islice(itertools.cycle(TOWER_LOGICS), count)]


def benchmark_blocks(count, seed=7):
    """(logic, goal, premises) of the first `count` blocks of each workload
    of the benchmark's query generator (perfbench/workloads.py)."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for name in workloads.WORKLOADS:
        for index in range(count):
            for q in workloads.block(name, seed, index):
                lg = parse_logic(q["logic"])
                out.append((lg, parse(q["goal"], lg),
                            tuple(parse(p, lg) for p in q["premises"])))
    return out


class TestOneInputRuns:
    """decide sums out a block of columns that depend on one earlier column
    alone, once per class of that column; the column-by-column DP in
    oracle.reference_decide gives the figures it must keep."""

    def test_towers_match_reference(self, run_fills):
        cases = [(lg, f, (), want) for lg, f, want in tower_references()] + [
            (lg, goal, premises, None) for lg, goal, premises in tower_goals(320, 77)]
        formed = 0
        for lg, goal, premises, want in cases:
            before = len(run_fills)
            got = decide_fields(lg, goal, premises)
            want = want or reference_decide(lg, goal, premises)
            formed += len(run_fills) > before
            assert got["work"] <= want["work"], (lg.name, goal.text, premises)
            got["work"] = want["work"]
            assert got == want, (lg.name, goal.text, premises)
        assert formed > len(cases) // 4

    def test_countermodel_read_through_a_run(self, run_fills):
        # p^(3) = p^1 & p^2 & p^3 is one run over p, entered with q's slot
        # alive; q = T, r = F and p = F refute the goal, and the walk reads
        # every tower column off the run's entry.
        p, q, r = Var("p"), Var("q"), Var("r")
        for lg in (C2, C3):
            goal = Imp(q, Imp(powseq(p, 3), r))
            got, want = decide_fields(lg, goal), reference_decide(lg, goal)
            assert run_fills and not got["entailed"]
            assert got == dict(want, work=got["work"])
            assert check_valuation(lg, got["countermodel"]) == []
            assert pow(p, 3) in got["countermodel"]
            run_fills.clear()

    def test_tower_shared_with_a_premise(self, run_fills):
        # The premise reads ~p and ~p^1, interior columns of both levels of
        # the tower p^(2) = p^1 & p^2, so no block of three of its columns
        # is read only inside itself: no run forms.
        p, q, r = Var("p"), Var("q"), Var("r")
        goal = Imp(q, Imp(powseq(p, 2), r))
        premises = (Or(Or(Neg(p), Neg(pow(p, 1))), r),)
        for lg in (C1, C2, C3):
            got = decide_fields(lg, goal, premises)
            assert got == dict(reference_decide(lg, goal, premises), work=got["work"])
            assert not got["entailed"]
        assert run_fills == []
        decide(C3, goal)
        assert run_fills

    def test_results_do_not_depend_on_shared_tables(self, run_fills,
                                                     run_builds):
        # Runs are shared across calls; a call's figures and countermodel
        # must be those of a fresh process whatever the logic holds:
        # nothing, warm runs, runs cleared, or runs filled by the queries
        # after it.  The C6-C8 towers are the longest runs; the reference
        # DP's frontiers are too wide there, so the tableau checks them.
        longest = [(lg, f, ()) for lg, f in tower_instances(range(6, 9))]
        cases = [(lg, f, ()) for lg, f in tower_instances()] + longest + \
            tower_goals(140, 19) + benchmark_blocks(2)
        logics = {lg for lg, _, _ in cases}

        def answers(order):
            return {i: decide_fields(*cases[i]) for i in order}

        def held():
            # each cell rule named by its key, so entries compare across
            # cache_clear()
            out = {}
            for lg in logics:
                rules = truthtable._cell_rules(lg)
                name = {id(rule): key for key, rule in rules.items()}
                out[lg] = {tuple(name.get(id(part), part) for part in key):
                           (dict(fills), {name[id(rule)]: dict(table)
                                          for rule, table in sums.items()})
                           for key, (_, fills, sums) in rules.runs.items()}
            return out

        truthtable._cell_rules.cache_clear()
        cold = answers(range(len(cases)))
        filled = held()
        assert run_fills and any(filled.values()) and run_builds
        assert any(any(sums.values()) for runs in filled.values()
                   for _, sums in runs.values())
        run_builds.clear()
        assert answers(range(len(cases))) == cold
        assert held() == filled  # the warm run filled nothing
        assert run_builds == []  # and built no run
        for lg in logics:
            truthtable._cell_rules(lg).runs.clear()
        assert answers(range(len(cases))) == cold
        assert held() == filled and run_builds
        truthtable._cell_rules.cache_clear()
        assert answers(reversed(range(len(cases)))) == cold
        assert held() == filled
        for case in longest:
            got = cold[cases.index(case)]
            proof = prove(*case, use_derived=True, build_tree=False)
            assert got["entailed"] and proof.proved, (case[0].name, case[1].text)

    def test_programs_are_keyed_by_what_runs_read(self, run_builds):
        # The tower p^(3) over p and over q & r, starting at columns 2 and
        # 4, reads alike and shares one run entry, steps and fills.  p^2
        # read as the base of p^3 and read by a conjunction is the same run
        # with another class map on its last column, so another entry.
        p, q, r, s = Var("p"), Var("q"), Var("r"), Var("s")
        shared = [(Imp(q, Imp(powseq(p, 3), r)), ()),
                  (Imp(s, Imp(powseq(And(q, r), 3), p)), ())]
        apart = [(r, (pow(p, 3), Or(r, q))),
                 (r, (And(pow(p, 2), r), Or(r, q)))]
        for cases, entries in ((shared, 1), (apart, 2)):
            truthtable._cell_rules.cache_clear()
            run_builds.clear()
            for goal, premises in cases:
                got = decide_fields(C3, goal, premises)
                assert got == dict(reference_decide(C3, goal, premises),
                                   work=got["work"])
            assert len(run_builds) == len(truthtable._cell_rules(C3).runs) \
                == entries
        assert [j - i for i, j in run_builds] == [5, 5]

    def test_cap_boundary_cold_and_warm(self, run_fills, sum_lookups):
        # p & r is summed into the run over it.  A cap that trips inside a
        # fill reached through that sum stores neither the fill nor the sum,
        # so what the run's entry holds is whole and the next call reports
        # the work of a fresh process; a warm call charges a stored fill's
        # work at once and trips at the same cap.
        lg, goal = C3, parse("q -> (p & r)^(3) -> r")

        def stored():
            return [(dict(fills), [dict(held) for held in sums.values()])
                    for _, fills, sums in truthtable._cell_rules(lg).runs.values()]

        truthtable._cell_rules.cache_clear()
        work = decide(lg, goal).stats["work"]
        [(all_fills, all_sums)] = stored()
        inside_sum = 0
        for cap in range(work):
            truthtable._cell_rules.cache_clear()
            run_fills.clear()
            sum_lookups.clear()
            with pytest.raises(ResourceLimitError, match=f"exceeded {cap} "):
                decide(lg, goal, max_work=cap)
            for fills, sums in stored():
                assert fills.items() <= all_fills.items()
                assert all(held.items() <= all_held.items()
                           for held, all_held in zip(sums, all_sums))
                summed = sum(map(len, sums))
                if len(sum_lookups) > summed:
                    # the last sum looked up stopped in the last fill
                    assert len(run_fills) == len(fills) + 1
                    inside_sum += 1
            assert decide(lg, goal, max_work=work).stats["work"] == work
        assert inside_sum > 0
        for cache in ("cold", "warm"):
            if cache == "cold":
                truthtable._cell_rules.cache_clear()
            with pytest.raises(ResourceLimitError, match=f"exceeded {work - 1} "):
                decide(lg, goal, max_work=work - 1)
            run_fills.clear()
            sum_lookups.clear()
            assert decide(lg, goal, max_work=work).stats["work"] == work
            assert run_fills and sum_lookups, cache
        assert stored() == [(all_fills, all_sums)]

    def test_run_input_summed_into_the_run(self, run_fills, sum_lookups):
        # p & r is read by the run (p & r)^(3) alone, which q's slot
        # enters: p & r is summed into the run's step and gets no slot.
        # Column by column, with the run, this took 115 and 129 work.
        p, q, r = Var("p"), Var("q"), Var("r")
        goal = Imp(q, Imp(powseq(And(p, r), 3), r))
        for lg, work in ((C2, 88), (C3, 96)):
            run_fills.clear()
            sum_lookups.clear()
            got, want = decide_fields(lg, goal), reference_decide(lg, goal)
            # one lookup per pair of classes of p and r, each reading the
            # run at the classes of p & r
            assert len(sum_lookups) == len(set(sum_lookups)) > 1
            assert run_fills
            assert got == dict(want, work=work)
            assert not got["entailed"]
            assert check_valuation(lg, got["countermodel"]) == []

    def test_summed_runs_are_not_interned(self):
        # A column summed into a run keeps its entries in the run's entry,
        # which goes with the run; interned, they would stay in the
        # process-wide pair entries for good, one set per run a batch meets.
        p, q, r = Var("p"), Var("q"), Var("r")
        goal = Imp(q, Imp(powseq(And(p, r), 3), r))
        cases = [(C2, goal, ()), (C3, goal, ())] + \
            [(lg, f, ()) for lg, f in tower_instances()] + tower_goals(320, 77)
        truthtable._cell_rules.cache_clear()
        before = len(truthtable._pair_entries)
        for case in cases:
            decide(*case)
        rules = [truthtable._cell_rules(lg) for lg in {lg for lg, _, _ in cases}]
        summed = [entry for held in rules
                  for _, _, sums in held.runs.values()
                  for entries in sums.values()
                  for entry, _ in entries.values()]
        pairs = {id(entry) for held in rules for rule in held.values()
                 for table in rule.pairs.values() for entry in table.values()}
        assert summed
        assert all(truthtable._pair_entries.get(entry) is not entry
                   for entry in summed)
        assert all(id(entry) in pairs
                   for entry in list(truthtable._pair_entries)[before:])

    def test_shared_tables_are_bounded(self, monkeypatch):
        # More runs than the bound: the least recently used go with their
        # fills, and no answer moves.
        cases = [(lg, f, ()) for lg, f in tower_instances()] + tower_goals(140, 23)
        truthtable._cell_rules.cache_clear()
        want = [decide_fields(*case) for case in cases]
        bound = 3
        monkeypatch.setattr(truthtable, "MAX_RUNS", bound)
        truthtable._cell_rules.cache_clear()
        keys = set()
        for case, expected in zip(cases, want):
            assert decide_fields(*case) == expected
            runs = truthtable._cell_rules(case[0]).runs
            assert len(runs) <= bound
            keys.update((case[0], key) for key in runs)
        assert len({lg for lg, _ in keys}) > 1
        assert max(sum(lg == other for other, _ in keys)
                   for lg, _ in keys) > bound

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rng=st.randoms(use_true_random=False),
           logics=st.lists(st.sampled_from(TOWER_LOGICS), min_size=1,
                           max_size=6))
    def test_engines_agree_with_shared_tables_warm(self, rng, logics):
        # The shared tables stay as earlier examples and tests left them,
        # and the logics come in a drawn order.
        for lg in logics:
            goal, premises = tower_query(rng, lg)
            got = decide_fields(lg, goal, premises)
            want = reference_decide(lg, goal, premises)
            assert got["work"] <= want["work"], (lg.name, goal.text, premises)
            assert got == dict(want, work=got["work"]), (lg.name, goal.text)
            proof = prove(lg, goal, premises, use_derived=True,
                          build_tree=False)
            assert proof.proved is got["entailed"], (lg.name, goal.text)
            for model in (got["countermodel"], proof.countermodel):
                if model is not None:
                    assert check_valuation(lg, dict(model.items())) == []

    def test_p8_work(self):
        lg = C(8)
        f = axioms.instantiate(axioms.schema_by_name(lg, "P_8"),
                               {"A": Var("p"), "B": Var("q")})
        res = decide(lg, f)
        # 60,079 states when every tower column stood in the frontier, and
        # 4,771 before a run's input column was summed into the run's step
        assert res.entailed and res.stats["work"] <= 2_500


class TestDecideGolden:
    """decide against results recorded from the DP before its column steps
    were compiled into successor tables; work was re-recorded when plain
    columns read only by the next one were summed out, and again when state
    slots came to hold value classes (see the file's "about" field)."""

    def test_matches_recorded_results(self):
        golden = json.loads(GOLDEN.read_text())["queries"]
        assert len(golden) == 300
        for q in golden:
            lg = parse_logic(q["logic"])
            goal = parse(q["goal"], lg)
            premises = tuple(parse(p, lg) for p in q["premises"])
            res = decide(lg, goal, premises)
            got = {
                "entailed": res.entailed,
                "rows_live": res.stats["rows_live"],
                "rows_discarded": res.stats["rows_discarded"],
                "work": res.stats["work"],
                "countermodel": None if res.countermodel is None else {
                    f.text: v for f, v in res.countermodel.items()},
            }
            want = {k: q[k] for k in got}
            assert got == want, (q["logic"], q["goal"], q["premises"])
