"""Row-branching truth tables and the table-side decision procedure.

The table for a goal (plus premises) has one column per distinct subformula,
sorted by (complexity, canonical text).  Atom columns branch over the whole
value domain; a compound column branches over the multioperation cell of its
children's values, in canonical value order, depth first.  The valuation
restriction is applied directly while branching: a cell value that the
restriction forbids becomes a discarded stub row (kept only for display).

Entailment: premises entail the goal iff every live row that designates all
premise columns designates the goal column.

Two engines share this semantics:

  build_table  materializes rows in canonical depth-first order (display,
               small-scale oracle checks); guarded by a row cap.
  decide       computes the verdict, exact live-row count and a countermodel
               without materializing rows, by dynamic programming over the
               plain postorder of the goal and premises (no search for a
               narrower order).  A state is one flag slot (is every premise
               so far designated, and the goal's status) plus a slot for
               each column that later steps still read, so formulas whose
               tables have astronomically many rows (iterated-consistency
               towers) stay feasible.  A column's slot holds the class of
               its value: the first of the values that no reader of the
               column can tell apart (interchangeable values, Freuder 1991),
               and the rows of a class are counted together (lumping, as in
               Kemeny & Snell 1960).  A C_n conjunction, say, reads an
               argument only as T, F or some t_k, so n inconsistent values
               take one slot value.  Every step has one form: a table maps
               its input slots to (tail, multiplicity, values) entries, and
               each tail is appended to the kept slots.  A premise or goal
               step reads the flag and appends its new value.  A column read
               only by the next column is summed out inside that column's
               step (bucket elimination, Dechter 1999), so it never takes a
               state slot: the values of a tower level's ~y, which the
               restriction collapses again at y & ~y, never widen a
               frontier.  The countermodel walk takes each step's entry back
               to the target and reads off its values, the first of the
               class in cell order.

Both read a column's cell through one helper, _CellRule.split, which applies
the restriction to the multioperation cell; the DP's successor and pair
tables and the value classes are derived from it.

Verdicts, live-row counts and countermodel existence are order-independent
facts about the constraint system, so the two engines agree everywhere; the
test suite enforces that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from operator import itemgetter

from . import algebra
from .errors import ExtensionError, ResourceLimitError
from .formula import (VAR, NEG, CONS, AND, OR, IMP, canonical_key,
                      ordered_subformulas, postorder)

DEFAULT_MAX_ROWS = 5_000_000
DEFAULT_MAX_WORK = 50_000_000

_CONN_NAME = {NEG: "neg", CONS: "cons", AND: "and", OR: "or", IMP: "imp"}


class Valuation:
    """Read access to one restricted valuation over a finite formula domain."""

    def __init__(self, logic, assignment):
        self.logic = logic
        self.assignment = dict(assignment)
        self._names = algebra.value_names(logic)

    def __getitem__(self, formula):
        return self.assignment[formula]

    def __contains__(self, formula):
        return formula in self.assignment

    def value_name(self, formula):
        return self._names[self.assignment[formula]]

    def designated(self, formula):
        return self.assignment[formula] <= self.logic.n

    def items(self):
        return self.assignment.items()

    def atoms(self):
        return {f: v for f, v in self.assignment.items() if f.kind == VAR}

    def render(self, only_atoms=False):
        pairs = sorted(self.assignment.items(), key=lambda kv: canonical_key(kv[0]))
        if only_atoms:
            pairs = [(f, v) for f, v in pairs if f.kind == VAR]
        return ", ".join(f"{f.text}={self._names[v]}" for f, v in pairs)

    def __repr__(self):
        return f"<Valuation {self.logic.name}: {self.render(only_atoms=True)}>"


# --------------------------------------------------------------------------
# Restricted cells and column plans


class _CellRule:
    """The multioperation cell of one kind of column, split by the restriction.

    A kind of column is a connective (None for an atom) plus the restriction
    hooks tied to it: a column b & ~b is tied to b's column, and a column a^1
    (= ~(a & ~a)) to a's column when the logic forces descent values.  Its
    inputs are the values of its source columns in the order
    (left[, right][, conj base][, pow source]).
    """

    __slots__ = ("logic", "arity", "table", "full_domain", "conj_cells",
                 "pow1_values", "successors", "pairs", "class_maps")

    def __init__(self, logic, conn, has_conj, has_pow):
        self.logic = logic
        self.arity = 0 if conn is None else 1 if conn in ("neg", "cons") else 2
        self.table = None if conn is None else algebra.tables(logic)[conn]
        self.full_domain = tuple(range(logic.n + 2))
        self.conj_cells = algebra.forced_conj_cells(logic) if has_conj else None
        self.pow1_values = algebra.forced_pow1_values(logic) if has_pow else None
        self.successors = {}
        self.pairs = {}
        self.class_maps = None

    def split(self, inputs):
        """(live, pruned) at `inputs`, both in canonical order.

        pruned lists the cell members that the restriction forbids.
        """
        arity = self.arity
        if arity == 0:
            cell = self.full_domain
        elif arity == 1:
            cell = self.table[inputs[0]]
        else:
            cell = self.table[inputs[0]][inputs[1]]
        allowed = None
        if self.conj_cells is not None:
            allowed = self.conj_cells[inputs[arity]]
        if self.pow1_values is not None:
            forced = self.pow1_values[inputs[-1]]
            if forced is not None:
                allowed = {forced} if allowed is None else (allowed & {forced})
        if allowed is None:
            return cell, ()
        live = tuple(v for v in cell if v in allowed)
        pruned = tuple(v for v in cell if v not in allowed)
        return live, pruned

    def classes(self, position):
        """The class map of input `position`: each value's first value, in
        canonical order, that gives the same split as it at every
        assignment of the other inputs.  No reader of the input at
        `position` can tell the values of one class apart.  The maps of
        all positions are found on first use."""
        if self.class_maps is None:
            width = self.arity + (self.conj_cells is not None) \
                + (self.pow1_values is not None)
            # A later position's signatures take one value per class at the
            # earlier positions: the other values of a class give the same
            # splits whatever the other inputs, so they would only repeat a
            # signature's entries, never tell two signatures apart.
            domains = [self.full_domain] * width
            maps = []
            for k in range(width):
                others = list(product(*domains[:k], *domains[k + 1:]))
                first, reps = {}, []
                for u in self.full_domain:
                    splits = []
                    for rest in others:
                        live, pruned = self.split(rest[:k] + (u,) + rest[k:])
                        splits.append((live, len(pruned)))
                    reps.append(first.setdefault(tuple(splits), u))
                maps.append(tuple(reps))
                domains[k] = tuple(first.values())
            self.class_maps = tuple(maps)
        return self.class_maps[position]

    def successor_table(self, is_prem, is_goal, survives, reps=None):
        """The shared successor table of this kind of column in a role,
        kept in the state after its step or not, storing its value's class
        under the class map `reps` (None keeps every value)."""
        key = (is_prem, is_goal, survives, reps)
        table = self.successors.get(key)
        if table is None:
            table = self.successors[key] = _Successors(self, *key)
        return table

    def pair_table(self, first, split, positions, reps):
        """The shared pair table of a plain column of kind `first`, with
        `split` inputs, read only by this kind of column, itself plain, at
        `positions` of its inputs; the reader stores its value's class
        under `reps`."""
        key = (first, split, positions, reps)
        table = self.pairs.get(key)
        if table is None:
            table = self.pairs[key] = _PairTable(first, split, positions, self, reps)
        return table


class _CellRules(dict):
    """The cell rules of one logic by (connective, conj hook, pow hook)."""

    def __init__(self, logic):
        super().__init__()
        self.logic = logic
        self.forces_pow = any(v is not None
                              for v in algebra.forced_pow1_values(logic))

    def __missing__(self, key):
        rule = self[key] = _CellRule(self.logic, *key)
        return rule


# One entry per logic used; each grows only by the column kinds, roles, pairs
# and input combinations that queries reach.
_cell_rules = lru_cache(maxsize=None)(_CellRules)


class _Plan:
    __slots__ = ("logic", "columns", "index", "entries", "goal_ix", "premise_ix")

    def __init__(self, logic, columns, goal=None, premises=()):
        self.logic = logic
        self.columns = columns
        self.index = {f: j for j, f in enumerate(columns)}
        rules = _cell_rules(logic)
        entries = []
        for f in columns:
            if f.kind == VAR:
                srcs = []
            elif f.kind in (NEG, CONS):
                if f.kind == CONS and not logic.has_circ:
                    raise ValueError(
                        f"consistency connective not in signature of {logic.name}")
                srcs = [self.index[f.left]]
            else:
                srcs = [self.index[f.left], self.index[f.right]]
            has_conj = f.conj_base is not None
            if has_conj:
                srcs.append(self.index[f.conj_base])
            has_pow = f.pow_height >= 1 and rules.forces_pow
            if has_pow:
                srcs.append(self.index[f.left.conj_base])
            entries.append((rules[_CONN_NAME.get(f.kind), has_conj, has_pow],
                            tuple(srcs)))
        # entries[j] = (cell rule of column j, its source column indices)
        self.entries = entries
        self.goal_ix = self.index[goal] if goal is not None else -1
        self.premise_ix = tuple(self.index[p] for p in premises)

    def candidates(self, j, values):
        """Cell for column j given the values list, after restriction forcing.

        Returns (live_tuple, pruned_tuple); pruned lists cell members removed
        by the restriction, in canonical order.
        """
        rule, srcs = self.entries[j]
        return rule.split([values[s] for s in srcs])


def _plan_for(logic, goal, premises):
    columns = ordered_subformulas(goal, premises)
    return _Plan(logic, columns, goal, premises)


# --------------------------------------------------------------------------
# Materialized tables


@dataclass
class Row:
    values: tuple  # None-padded after the violation column for discarded stubs
    status: str    # "live" | "discarded"


@dataclass
class Table:
    logic: object
    columns: list
    rows: list
    goal: object
    premises: tuple
    stats: dict = field(default_factory=dict)

    @property
    def live_rows(self):
        return [r for r in self.rows if r.status == "live"]


def build_table(logic, goal, premises=(), max_rows=DEFAULT_MAX_ROWS,
                collect_discarded=True):
    """Materialize the branching table in canonical depth-first order.

    Raises ResourceLimitError when the row count (live + discarded stubs)
    would exceed `max_rows`.
    """
    start = time.perf_counter()
    plan = _plan_for(logic, goal, tuple(premises))
    ncols = len(plan.columns)
    rows = []
    n_live = 0
    n_disc = 0
    values = [0] * ncols

    # Depth-first over columns; cells[j] holds the untried cell values of
    # column j, with discarded stubs interleaved where forcing pruned.
    cells, pruned_at = [], []
    j = 0
    while j >= 0:
        if j == len(cells):
            live, pruned = plan.candidates(j, values)
            # cells are ascending, so sorting the two halves restores cell order
            cells.append(iter(sorted(live + pruned) if pruned else live))
            pruned_at.append(pruned)
        v = next(cells[j], None)
        if v is None:
            cells.pop()
            pruned_at.pop()
            j -= 1
        elif v in pruned_at[j]:
            if collect_discarded:
                stub = tuple(values[:j]) + (v,) + (None,) * (ncols - j - 1)
                rows.append(Row(stub, "discarded"))
            n_disc += 1
        elif j + 1 < ncols:
            values[j] = v
            j += 1
        else:
            values[j] = v
            rows.append(Row(tuple(values), "live"))
            n_live += 1
        if n_live + n_disc > max_rows:
            raise ResourceLimitError(
                f"table exceeds {max_rows} rows; raise max_rows to materialize")

    elapsed = time.perf_counter() - start
    table = Table(logic, plan.columns, rows, goal, tuple(premises))
    table.stats = {
        "rows_live": n_live,
        "rows_discarded": n_disc,
        "rows_total": n_live + n_disc,
        "elapsed": elapsed,
    }
    return table


def table_verdict(table):
    """(entailed, countermodel Valuation or None) read off a materialized table."""
    plan_goal = table.columns.index(table.goal)
    prem_ix = [table.columns.index(p) for p in table.premises]
    n = table.logic.n
    for row in table.rows:
        if row.status != "live":
            continue
        if all(row.values[p] <= n for p in prem_ix) and row.values[plan_goal] > n:
            assignment = dict(zip(table.columns, row.values))
            return False, Valuation(table.logic, assignment)
    return True, None


def render_table(table, show_discarded=False):
    names = algebra.value_names(table.logic)
    headers = [f.text for f in table.columns]
    widths = [max(len(h), max((len(names[v]) for v in range(len(names))), default=1))
              for h in headers]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in table.rows:
        if row.status == "discarded" and not show_discarded:
            continue
        cells = []
        for v, w in zip(row.values, widths):
            if v is None:
                cells.append("".ljust(w))
            else:
                cells.append(names[v].ljust(w))
        line = "  ".join(cells)
        if row.status == "discarded":
            line += "  x"
        lines.append(line)
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Decision procedure (no materialization)


@dataclass
class DecisionResult:
    logic: object
    goal: object
    premises: tuple
    entailed: bool
    countermodel: object  # Valuation | None
    stats: dict = field(default_factory=dict)


# The flag slot's value: 3 while every premise column so far is designated,
# else 0, plus the goal's status (0 before its column, 1 designated, 2 not).
# _FLAG names that slot where decide lays out a state's columns.
_START, _VIOLATED = 3, 5
_FLAG = -1


def _merged(triples):
    """The (tail, mult, values) triples with equal tails merged, in order of
    first appearance: their multiplicities add up, the first values stay."""
    merged = {}
    for tail, mult, values in triples:
        if tail in merged:
            merged[tail][0] += mult
        else:
            merged[tail] = [mult, values]
    return tuple((tail, mult, values) for tail, (mult, values) in merged.items())


class _Successors(dict):
    """Successor table of one column step, filled on first lookup.

    Maps the step's inputs (the column's inputs, then the flag at a premise
    or goal column) to (entries, pruned).  Each live cell value v gives the
    tail (reps[v], its class, if the column survives its step, then the new
    flag at a premise or goal column); entries are the merged (tail, 1,
    (v,)) triples in cell order, so values is the first (v,) that gives the
    tail.  pruned counts the cell values the restriction forbids.
    """

    __slots__ = ("rule", "is_prem", "is_goal", "survives", "reps")

    def __init__(self, rule, is_prem, is_goal, survives, reps):
        super().__init__()
        self.rule = rule
        self.is_prem = is_prem
        self.is_goal = is_goal
        self.survives = survives
        self.reps = rule.full_domain if reps is None else reps

    def __missing__(self, inputs):
        role = self.is_prem or self.is_goal
        live, pruned = self.rule.split(inputs[:-1] if role else inputs)
        n = self.rule.logic.n
        triples = []
        for v in live:
            tail = (self.reps[v],) if self.survives else ()
            if role:
                prem_ok, goal = divmod(inputs[-1], 3)
                if self.is_prem and v > n:
                    prem_ok = 0
                if self.is_goal:
                    goal = 1 if v <= n else 2
                tail += (3 * prem_ok + goal,)
            triples.append((tail, 1, (v,)))
        entry = self[inputs] = (_merged(triples), len(pruned))
        return entry


class _PairTable(dict):
    """Successor table of a fused pair step, filled on first lookup.

    The pair is a plain column (neither premise nor goal) whose only reader
    is the next column, itself plain.  The table maps the pair's outside
    inputs (the first column's inputs, then the reader's inputs at the
    positions that do not read the first column) to (entries, pruned) as in
    _Successors.  Entries are the reader's merged ((reps[v],), 1, (u, v))
    triples over the first column's values u in cell order, then the
    reader's, and pruned sums the cell values the restriction forbids in
    both columns.  Both are read off the two columns' _Successors tables, the
    first column's keeping every value; equal entries are one interned
    object.
    """

    __slots__ = ("first", "second", "split", "positions")

    def __init__(self, first, split, positions, second, reps):
        super().__init__()
        self.first = first.successor_table(False, False, True)
        self.second = second.successor_table(False, False, True, reps)
        self.split = split
        self.positions = positions

    def __missing__(self, inputs):
        split, positions = self.split, self.positions
        width = len(inputs) - split + len(positions)
        firsts, pruned = self.first[inputs[:split]]
        triples = []
        for _, first_mult, (u,) in firsts:
            rest = iter(inputs[split:])
            succ, npruned = self.second[tuple(
                u if k in positions else next(rest) for k in range(width))]
            pruned += npruned
            triples += [(tail, first_mult * mult, (u, v))
                        for tail, mult, (v,) in succ]
        entry = (_merged(triples), pruned)
        entry = self[inputs] = _pair_entries.setdefault(entry, entry)
        return entry


# One copy of each distinct pair-table entry: a few dozen values serve
# thousands of entries.
_pair_entries = {}


@lru_cache(maxsize=None)
def _meet(a, b):
    """The class map whose classes are the intersections of the classes of
    the maps a and b.  Only a few distinct maps exist per logic."""
    first = {}
    return tuple(first.setdefault(pair, u) for u, pair in enumerate(zip(a, b)))


def _getter(slots):
    """Callable returning the tuple of a state's values at `slots`."""
    if len(slots) > 1:
        return itemgetter(*slots)
    # a one-index itemgetter returns the bare item, a slice stays a tuple
    return itemgetter(slice(slots[0], slots[0] + 1) if slots else slice(0, 0))


def _predecessor(step, frontier, target):
    """The first state of `frontier`, in frontier order, that `step` takes
    to `target`, and the values of the entry it takes there."""
    table, inputs, rest, _ = step
    for state in frontier:
        head = rest(state)
        if target[:len(head)] == head:
            for tail, _, values in table[inputs(state)][0]:
                if tail == target[len(head):]:
                    return state, values
    raise AssertionError("target key has no predecessor")


def decide(logic, goal, premises=(), max_work=DEFAULT_MAX_WORK):
    """Decide whether `premises` entail `goal` in `logic`.

    Exact over the same table semantics as build_table, by a frontier
    dynamic program over the postorder of the goal and premises.  A state is
    a flat tuple, counted by the table rows that reach it.  It starts as
    (flag,): the flag slot says whether every premise so far is designated,
    and the goal's status.  The other slots hold the columns assigned so
    far that later steps still read, each as its class: the first value,
    in canonical order, of the values that every reader of the column, at
    every position where it reads it, splits alike (_CellRule.classes, met
    over the readers by _meet).  Replacing a value by its class changes no
    reader's cell or restriction, so the rows of a class go on together.

    Every step looks up its input slots in a table shared by every query
    with the same logic and column kinds, filled only at the inputs reached,
    and gets (tail, mult, values) entries: the state's kept slots plus each
    tail make a successor, reached mult times per row.  A step is one column
    (see _Successors), where a premise or goal column also reads the flag
    and appends its new value; or a pair (see _PairTable): a plain column
    whose only reader is the next column, itself plain, is summed out with
    that reader and never gets a slot.

    The frontier entering every step is kept.  The countermodel is walked
    back from the final state (_VIOLATED,): at each step it takes the first
    state in frontier order whose kept slots and one of whose entries' tail
    make up the target, and that entry's values, the first in cell order
    that give the tail, that is the first value of the tail's class.  Each
    is a cell value at its inputs' class values, so at the values the walk
    picked for them as well, and the countermodel is a restricted valuation.

    stats reports the exact live-row count of the canonical table
    (rows_live), the rows cut by the restriction in this column order
    (rows_discarded), their sum (rows_total, as in build_table), and the
    states of the frontiers the steps expand (work); a summed-out column
    adds none, and the values of one class make one state.  Raises
    ResourceLimitError when `work` would exceed `max_work`.
    """
    start = time.perf_counter()
    premises = tuple(premises)
    order = postorder(goal, *premises)
    plan = _Plan(logic, order, goal, premises)
    ncols = len(order)
    roles = {plan.goal_ix, *plan.premise_ix}

    # last[i] = last position whose cell reads column i; reps[i] = the class
    # map of column i, the meet of its readers' maps at the positions where
    # they read it (None when nothing reads it).
    last = list(range(ncols))
    reps = [None] * ncols
    for i, (rule, srcs) in enumerate(plan.entries):
        for k, src in enumerate(srcs):
            last[src] = i
            classes = rule.classes(k)
            reps[src] = classes if reps[src] is None else _meet(reps[src], classes)

    # alive names the slots of the state entering a step, in the order they
    # were appended.  A step is (table, input getter, getter of the kept
    # slots, its first column).  Only a premise or goal column can be read
    # by no later column, and only its step reads and replaces the flag.
    steps = []
    alive = [_FLAG]
    i = 0
    while i < ncols:
        rule, srcs = plan.entries[i]
        slot = {p: s for s, p in enumerate(alive)}
        role = i in roles
        # the column the step ends at: i, or i + 1 for a pair
        j = i + 1 if not role and last[i] == i + 1 and i + 1 not in roles else i
        kept = [p for p in alive if (not role if p == _FLAG else last[p] > j)]
        if j > i:
            reader, reader_srcs = plan.entries[j]
            positions = tuple(k for k, s in enumerate(reader_srcs) if s == i)
            reads = list(srcs) + [s for s in reader_srcs if s != i]
            table = reader.pair_table(rule, len(srcs), positions, reps[j])
        else:
            reads = list(srcs) + ([_FLAG] if role else [])
            table = rule.successor_table(i in plan.premise_ix,
                                         i == plan.goal_ix, last[i] > i, reps[i])
        steps.append((table, _getter([slot[p] for p in reads]),
                      _getter([slot[p] for p in kept]), i))
        alive = kept + ([j] if last[j] > j else []) + ([_FLAG] if role else [])
        i = j + 1

    # frontiers[k] is the frontier entering step k.
    frontiers = []
    frontier = {(_START,): 1}
    work = 0
    pruned_paths = 0
    for table, inputs, rest, _ in steps:
        work += len(frontier)
        if work > max_work:
            raise ResourceLimitError(
                f"decision DP exceeded {max_work} state expansions")
        frontiers.append(frontier)
        nxt = {}
        get = nxt.get
        for state, count in frontier.items():
            entries, npruned = table[inputs(state)]
            if npruned:
                pruned_paths += npruned * count
            head = rest(state)
            for tail, mult, _ in entries:
                key = head + tail
                nxt[key] = get(key, 0) + mult * count
        frontier = nxt

    # the last column is a premise or the goal, so a final state is (flag,)
    rows_live = sum(frontier.values())
    target = (_VIOLATED,)
    entailed = target not in frontier

    countermodel = None
    if not entailed:
        assignment = {}
        for step, frontier in zip(reversed(steps), reversed(frontiers)):
            target, values = _predecessor(step, frontier, target)
            assignment.update(zip(order[step[3]:], values))
        countermodel = Valuation(logic, assignment)

    elapsed = time.perf_counter() - start
    return DecisionResult(
        logic=logic, goal=goal, premises=premises, entailed=entailed,
        countermodel=countermodel,
        stats={
            "rows_live": rows_live,
            "rows_total": rows_live + pruned_paths,
            "rows_discarded": pruned_paths,
            "work": work,
            "elapsed": elapsed,
        },
    )


# --------------------------------------------------------------------------
# Partial valuations: validation and extension


def check_valuation(logic, assignment):
    """Violations of the restricted-valuation conditions on `assignment`.

    `assignment` maps formulas to value indices; clauses fire only when every
    formula they mention is present.  An empty list means the assignment is
    the restriction of a genuine restricted valuation to its domain (given the
    domain is subformula-closed).
    """
    tab = algebra.tables(logic)
    conj_cells = algebra.forced_conj_cells(logic)
    pow1_values = algebra.forced_pow1_values(logic)
    m = logic.n + 2
    out = []
    for f, v in assignment.items():
        if not isinstance(v, int) or not 0 <= v < m:
            out.append(("range", f, f"value {v!r} outside the {m}-element domain"))
            continue
        if f.kind == VAR:
            continue
        if f.kind in (NEG, CONS):
            if f.kind == CONS and not logic.has_circ:
                out.append(("signature", f, f"@ not in the signature of {logic.name}"))
                continue
            if f.left in assignment:
                cell = tab[_CONN_NAME[f.kind]][assignment[f.left]]
                if v not in cell:
                    out.append(("hom", f, "value outside the multioperation cell"))
        else:
            if f.left in assignment and f.right in assignment:
                cell = tab[_CONN_NAME[f.kind]][assignment[f.left]][assignment[f.right]]
                if v not in cell:
                    out.append(("hom", f, "value outside the multioperation cell"))
        base = f.conj_base
        if base is not None and base in assignment:
            allowed = conj_cells[assignment[base]]
            if allowed is not None and v not in allowed:
                out.append(("restriction", f,
                            "conjunction value not forced-consistent with its base"))
        if f.pow_height >= 1:
            src = f.left.conj_base
            if src in assignment:
                forced = pow1_values[assignment[src]]
                if forced is not None and v != forced:
                    out.append(("restriction", f,
                                "iterated-consistency value breaks the descent clause"))
    return out


def extend_partial(logic, domain_formulas, nu0):
    """Extend a partial assignment to a restricted valuation over the domain.

    Preconditions: `domain_formulas` is subformula-closed, and `nu0` (a map
    from formulas in the domain to a value index, or to a tuple of the value
    indices allowed there) must be compatible with the multioperation cells
    and the restriction clauses.  Violations raise ExtensionError naming the
    offending formula.

    Unpinned columns are searched depth-first in canonical value order, so the
    result is deterministic; backtracking handles pins on formulas whose
    subformulas are unpinned.
    """
    domain = set(domain_formulas)
    columns = sorted(domain, key=canonical_key)
    for f in columns:
        kids = ()
        if f.kind in (NEG, CONS):
            kids = (f.left,)
        elif f.kind != VAR:
            kids = (f.left, f.right)
        for k in kids:
            if k not in domain:
                raise ExtensionError(
                    f"domain is not subformula-closed: {f.text} needs {k.text}",
                    formula=f)
    m = logic.n + 2
    pins = {}
    for f, v in nu0.items():
        if f not in domain:
            raise ExtensionError(
                f"assigned formula {f.text} is outside the domain", formula=f)
        allowed = (v,) if isinstance(v, int) else v
        if not isinstance(allowed, tuple) or not allowed or any(
                not isinstance(w, int) or not 0 <= w < m for w in allowed):
            raise ExtensionError(
                f"value {v!r} for {f.text} is outside the {m}-element domain",
                formula=f)
        pins[f] = allowed

    plan = _Plan(logic, columns)
    ncols = len(columns)
    values = [None] * ncols
    deepest = -1

    # Depth-first in canonical value order; stack[j] holds the untried values
    # of column j, and j falls to -1 once every choice has failed.
    stack = []
    j = 0
    while 0 <= j < ncols:
        if j == len(stack):
            deepest = max(deepest, j)
            live, _ = plan.candidates(j, values)
            pinned = pins.get(columns[j])
            if pinned is not None:
                live = [v for v in live if v in pinned]
            stack.append(iter(live))
        values[j] = next(stack[j], None)
        if values[j] is None:
            stack.pop()
            j -= 1
        else:
            j += 1
    if j < 0:
        bad = columns[deepest]
        raise ExtensionError(
            "precondition violation: no restricted valuation extends the "
            f"assignment (stuck at {bad.text})", formula=bad)
    return _LazyValuation(logic, dict(zip(columns, values)))


class _LazyValuation(Valuation):
    """Valuation that grows its domain on demand.

    Queries for formulas outside the materialized domain re-run the
    extension search over the enlarged closure, with every earlier answer
    pinned; the extension construction guarantees a solution exists, so
    previously returned values never change.
    """

    def _ensure(self, formula):
        if formula not in self.assignment:
            needed = set(self.assignment) | set(postorder(formula))
            wider = extend_partial(self.logic, needed, dict(self.assignment))
            self.assignment.update(wider.assignment)

    def __getitem__(self, formula):
        self._ensure(formula)
        return self.assignment[formula]

    def value_name(self, formula):
        self._ensure(formula)
        return self._names[self.assignment[formula]]

    def designated(self, formula):
        self._ensure(formula)
        return self.assignment[formula] <= self.logic.n
