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
               without materializing rows, by a frontier dynamic program
               over the plain postorder of the goal and premises, which sums
               columns out as bucket elimination does (Dechter 1999), so
               formulas whose tables have astronomically many rows
               (iterated-consistency towers) stay feasible.  Its docstring
               states the DP's states, steps and countermodel walk.

Both read a column's cell through one helper, _CellRule.split, which applies
the restriction to the multioperation cell; a query's _Plan lists each
column's cell rule and inputs, and the DP's four kinds of step table
(column, pair, one-input run, and a run with its input column summed in)
and value classes are derived from them.

Verdicts, live-row counts and countermodel existence are order-independent
facts about the constraint system, so the two engines agree everywhere; the
test suite enforces that.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, product
from operator import itemgetter

from . import algebra
from .errors import ExtensionError, ResourceLimitError
from .formula import (VAR, NEG, CONS, CONN_NAMES, canonical_key,
                      check_signature, ordered_subformulas, postorder)

DEFAULT_MAX_ROWS = 5_000_000
DEFAULT_MAX_WORK = 50_000_000
# The one-input runs one logic keeps; past it the least recently used goes
# (see _CellRules).
MAX_RUNS = 128


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
            hooks = [h for h in (self.conj_cells, self.pow1_values)
                     if h is not None]
            width = self.arity + len(hooks)
            # A later position's signatures take one value per class at the
            # earlier positions: the other values of a class give the same
            # splits whatever the other inputs, so they would only repeat a
            # signature's entries, never tell two signatures apart.  For the
            # same reason a hook position, which split reads only through
            # its filter, takes one value per distinct filter until its own
            # map is found.
            domains = [self.full_domain] * width
            for k, hook in enumerate(hooks, self.arity):
                first = {}
                for v, allowed in enumerate(hook):
                    first.setdefault(allowed, v)
                domains[k] = tuple(first.values())
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
    """The cell rules of one logic by (connective, conj hook, pow hook), and
    the logic's shared one-input runs.

    runs maps a run's key (_run_key) to (steps, fills, sums): the run's own
    steps (_run_program); their fills, x's class -> ((entries, pruned),
    work), as _RunView makes them; and the sums of x into the run, x's cell
    rule -> {x's inputs: ((entries, pruned), the classes of x read)}, as
    _SumView makes them.  The steps follow from the key alone, the fills
    from the steps, and the sums from the fills and x's rule (a sum forms
    only where the run alone reads x, so the key fixes x's class map): the
    key that names a run's steps names its fills and sums too.  It holds at
    most MAX_RUNS entries, the least recently used going first with its
    fills and sums.
    """

    def __init__(self, logic):
        super().__init__()
        self.logic = logic
        self.forces_pow = any(v is not None
                              for v in algebra.forced_pow1_values(logic))
        self.runs = OrderedDict()

    def __missing__(self, key):
        rule = self[key] = _CellRule(self.logic, *key)
        return rule


# One entry per logic used; each grows only by the column kinds, roles, pairs
# and input combinations that queries reach, and by at most MAX_RUNS runs.
_cell_rules = lru_cache(maxsize=None)(_CellRules)


class _Plan:
    """One query's plan: what the engines read of its columns, built in one
    pass over them.

    entries[j] is (cell rule of column j, its source column indices), and
    last[j] the last column whose cell reads column j, or j when none does.
    goal_ix and premise_ix locate the goal and premise columns, and roles
    holds both.  Only a plan with a goal, which is decide's, meets class
    maps: reps[j] is then the meet of column j's readers' class maps at the
    positions where they read it (_CellRule.classes, _meet), None when
    nothing reads it.  build_table and extend_partial give no goal and read
    only the cells (candidates), so they build no class map.
    """

    __slots__ = ("rules", "columns", "index", "entries", "last", "reps",
                 "goal_ix", "premise_ix", "roles")

    def __init__(self, logic, columns, goal=None, premises=()):
        self.columns = columns
        index = self.index = {f: j for j, f in enumerate(columns)}
        rules = self.rules = _cell_rules(logic)
        entries = self.entries = []
        last = self.last = list(range(len(columns)))
        reps = self.reps = [None] * len(columns)
        for j, f in enumerate(columns):
            if f.kind == VAR:
                srcs = ()
            elif f.kind in (NEG, CONS):
                if f.kind == CONS:
                    check_signature(logic, f)
                srcs = (index[f.left],)
            else:
                srcs = (index[f.left], index[f.right])
            has_conj = f.conj_base is not None
            if has_conj:
                srcs += (index[f.conj_base],)
            has_pow = f.pow_height >= 1 and rules.forces_pow
            if has_pow:
                srcs += (index[f.left.conj_base],)
            rule = rules[CONN_NAMES.get(f.kind), has_conj, has_pow]
            entries.append((rule, srcs))
            for k, src in enumerate(srcs):
                last[src] = j
                if goal is not None:
                    classes = rule.classes(k)
                    reps[src] = classes if reps[src] is None \
                        else _meet(reps[src], classes)
        self.goal_ix = index[goal] if goal is not None else -1
        self.premise_ix = tuple(index[p] for p in premises)
        self.roles = {self.goal_ix, *self.premise_ix}

    def candidates(self, j, values):
        """Cell for column j given the values list, after restriction forcing.

        Returns (live_tuple, pruned_tuple); pruned lists cell members removed
        by the restriction, in canonical order.
        """
        rule, srcs = self.entries[j]
        return rule.split([values[s] for s in srcs])


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
    premises = tuple(premises)
    plan = _Plan(logic, ordered_subformulas(goal, premises))
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
    table = Table(logic, plan.columns, rows, goal, premises)
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


class _RunView(dict):
    """Successor table of a one-input run, as one decide call sees it.

    A run is a block of plain columns whose only outside input is one
    column x (see _runs).  The table maps x's class to (entries, pruned).
    Its fill runs the run's own steps, column and pair steps only, from the
    state (x's class,) with count 1 (_forward).  Each state of the last
    frontier, the class of the run's last column, is a tail; its
    multiplicity is the state's count and its values are those of the
    first path to it in frontier order (_walk), one per column of the run.
    pruned is the path-weighted count of the cell values the restriction
    forbids.

    The fill depends on the run's steps alone, so it is stored in `fills`,
    the logic's fills of the run, named by the key that names its steps
    (_CellRules.runs), with its work: the states of its frontiers but the
    first, which stands for the states entering the run that hold this
    class, counted by the step that reads the run already.  The first
    lookup of a class in a call charges that work to the call's budget:
    filled here, the fill charges it as it goes, and a fill that trips the
    cap stores nothing; read from `fills`, the stored work is charged at
    once.  So a call's work, cap trip and results do not depend on what the
    process decided before.  The step is the run's own, or the step of the
    column x summed into the run (_SumView), which reads the run through
    this view too.
    """

    __slots__ = ("steps", "fills", "budget")

    def __init__(self, steps, fills, budget):
        super().__init__()
        self.steps = steps
        self.fills = fills
        self.budget = budget

    def __missing__(self, inputs):
        stored = self.fills.get(inputs)
        if stored is None:
            self.budget.work -= 1
            frontier, frontiers, pruned = _forward(self.steps, {inputs: 1},
                                                   self.budget)
            entry = (tuple((tail, mult, _walk(self.steps, frontiers, tail))
                           for tail, mult in frontier.items()), pruned)
            self.fills[inputs] = (entry, sum(map(len, frontiers)) - 1)
        else:
            entry, work = stored
            self.budget.spend(work)
        self[inputs] = entry
        return entry


class _SumView(dict):
    """Successor table of a column x summed into the one-input run over it,
    as one decide call sees it.

    x is plain and read by the run alone, so it never gets a slot.  The
    table maps x's inputs to (entries, pruned).  Entries are the merged
    (tail, m1 * m2, (u,) + values) over x's entries ((c,), m1, (u,)) in cell
    order (`column`, x's _Successors table under its class map), then the
    run's entries (tail, m2, values) at (c,); pruned is x's own count plus
    m1 times the run's at (c,).

    They depend on x's cell rule and the run's steps alone (the run's key
    fixes x's class map, since only the run reads x), so they are stored in
    `sums`, the run entry's table for x's rule (_CellRules.runs), with the
    classes they read.  The first lookup of inputs in a call reads each of
    those classes through `run`, the call's _RunView, so the fills' work is
    charged, and the cap trips, as if the call summed them itself.  A fill
    that trips the cap stores neither itself nor the sum.
    """

    __slots__ = ("column", "run", "sums")

    def __init__(self, column, run, sums):
        super().__init__()
        self.column = column
        self.run = run
        self.sums = sums

    def __missing__(self, inputs):
        run, stored = self.run, self.sums.get(inputs)
        if stored is None:
            firsts, pruned = self.column[inputs]
            triples = []
            for tail, first_mult, (u,) in firsts:
                entries, npruned = run[tail]
                pruned += first_mult * npruned
                triples += [(run_tail, first_mult * mult, (u,) + values)
                            for run_tail, mult, values in entries]
            entry = (_merged(triples), pruned)
            self.sums[inputs] = (entry, tuple(tail for tail, _, _ in firsts))
        else:
            entry, classes = stored
            for tail in classes:
                run[tail]
        self[inputs] = entry
        return entry


class _Budget:
    """The states one decide call has expanded (work), against its cap."""

    __slots__ = ("work", "max_work")

    def __init__(self, max_work):
        self.work = 0
        self.max_work = max_work

    def spend(self, states):
        self.work += states
        if self.work > self.max_work:
            raise ResourceLimitError(
                f"decision DP exceeded {self.max_work} state expansions")


@lru_cache(maxsize=None)
def _meet(a, b):
    """The class map whose classes are the intersections of the classes of
    the maps a and b.  Only a few distinct maps exist per logic."""
    first = {}
    return tuple(first.setdefault(pair, u) for u, pair in enumerate(zip(a, b)))


@lru_cache(maxsize=1024)
def _getter(slots):
    """Callable returning the tuple of a state's values at the positions
    `slots`, a tuple; the few distinct tuples keep one getter each."""
    if len(slots) > 1:
        return itemgetter(*slots)
    # a one-index itemgetter returns the bare item, a slice stays a tuple
    return itemgetter(slice(slots[0], slots[0] + 1) if slots else slice(0, 0))


def _runs(plan):
    """{start: (end, x, x's last reader in the run)} of the one-input runs.

    A run is a block start..end of at least three plain columns that read
    nothing from outside the block but one column x, and each of which but
    the last is read only inside the block.  Blocks are taken left to
    right, each as long as it can be.
    """
    roles, last, entries = plan.roles, plan.last, plan.entries
    runs = {}
    ncols = len(entries)
    i = 0
    while i < ncols:
        srcs, found = entries[i][1], None
        if srcs and i not in roles and srcs.count(srcs[0]) == len(srcs):
            x = srcs[0]
            # reach: the last reader of the columns i..k-1
            reach = x_last = k = i
            while k < ncols and k not in roles:
                srcs = entries[k][1]
                # column k joins the block if it reads no column before the
                # block but x; x_last moves to k only when k reads x
                if x in srcs:
                    for s in srcs:
                        if s < i and s != x:
                            break
                    else:
                        x_last = k
                    if x_last < k:
                        break
                elif srcs and min(srcs) < i:
                    break
                if reach <= k and k - i >= 2:
                    found = (k, x, x_last)
                if last[k] > reach:
                    reach = last[k]
                k += 1
        if found is None:
            i += 1
        else:
            runs[i] = found
            i = found[0] + 1
    return runs


def _run_key(plan, i, j):
    """What the run i..j reads, which its steps follow from: reps[j],
    which the readers after the run decide, then each column's cell rule
    followed by the offsets c - s at which column c reads its sources.

    Nothing outside the run reads its interior, so the run's last readers
    and its other columns' class maps follow from its cells and offsets; so
    does x_last, the last column that reads from before the run, where
    every source is x.  A rule's arity and hooks give its offset count, so
    the flat tuple reads back one way."""
    key = [plan.reps[j]]
    add = key.append
    for c, (cell, ins) in enumerate(plan.entries[i:j + 1], i):
        add(cell)
        for s in ins:
            add(c - s)
    return tuple(key)


def _run_program(plan, i, j, x, x_last, last):
    """The logic's new entry for the run i..j over x (see _runs): its steps,
    entering with x's slot alone, and no fills or sums yet."""
    inner = {c: last[c] for c in range(i, j)}
    inner[x] = x_last
    inner[j] = j + 1  # the run's last column survives its run
    return _steps(plan, i, j, [x], inner, {}, None), {}, {}


def _run_entry(plan, i, run, last):
    """The logic's entry (steps, fills, sums) for the run at i, run = (end,
    x, x_last) as in _runs: built only when its key (_run_key) is new, and
    made the most recently used."""
    j, x, x_last = run
    held, key = plan.rules.runs, _run_key(plan, i, j)
    entry = held.get(key)
    if entry is None:
        entry = held[key] = _run_program(plan, i, j, x, x_last, last)
        if len(held) > MAX_RUNS:
            held.popitem(last=False)
    else:
        held.move_to_end(key)
    return entry


def _steps(plan, lo, hi, alive, last, runs, budget):
    """The steps over the columns lo..hi, entering with the slots `alive`.

    alive names the slots of the state entering a step, in the order they
    were appended, so a slot's position in the state is its index there.
    A step runs as (table, input getter, getter of the kept slots), each
    getter reading its positions in the state entering the step.  A step
    covers one column, a pair, a run of `runs`, or a run with the column x
    before it, which the run alone reads, summed in (_SumView); a run's
    per-call view (_RunView) charges `budget`.  A run's steps, fills and
    sums are looked up in the logic's runs by what the run reads
    (_run_entry), and its steps built only when that key is new.  A pair
    takes x when only the run's first column reads it: summing x into the
    run there lowers the total work, but raised it by 1-4 on four small
    mbCcl and Cila goals of the benchmark's seed-7 blocks, where the run's
    fills cost more than the pair's merged classes save.  `last` is
    plan.last, or in a run's own steps the run's last readers.  Only a
    premise or goal column can be read by no later column, and only its
    step reads and replaces the flag.
    """
    roles, reps = plan.roles, plan.reps
    steps = []
    i = lo
    while i <= hi:
        rule, srcs = plan.entries[i]
        role = i in roles
        # A run pays a fill per class of x and keeps the classes apart after
        # x's last reader, where column steps would merge them; it gains only
        # by not carrying other slots than x and the flag through the block.
        if i in runs and len(alive) > 2:
            j, x, _ = runs[i]
            reads = [x]
            run_steps, fills, _ = _run_entry(plan, i, runs[i], last)
            table = _RunView(run_steps, fills, budget)
        elif i < hi and not role and last[i] == i + 1 and i + 1 not in roles:
            j = i + 1
            reader, reader_srcs = plan.entries[j]
            positions = tuple(k for k, s in enumerate(reader_srcs) if s == i)
            reads = srcs + tuple(s for s in reader_srcs if s != i)
            table = reader.pair_table(rule, len(srcs), positions, reps[j])
        elif (i + 1 in runs and runs[i + 1][1] == i and not role
              and last[i] <= runs[i + 1][0]
              and any(p != _FLAG and last[p] > i for p in alive)):
            # Column i is the x of the run after it, which alone reads it,
            # and the state entering the run would hold another slot.
            j = runs[i + 1][0]
            reads = srcs
            run_steps, fills, sums = _run_entry(plan, i + 1, runs[i + 1], last)
            table = _SumView(rule.successor_table(False, False, True, reps[i]),
                             _RunView(run_steps, fills, budget),
                             sums.setdefault(rule, {}))
        else:
            j = i
            reads = srcs + (_FLAG,) if role else srcs
            table = rule.successor_table(i in plan.premise_ix,
                                         i == plan.goal_ix, last[i] > i, reps[i])
        kept = [p for p in alive if (not role if p == _FLAG else last[p] > j)]
        slot = alive.index
        ins, keep = tuple(map(slot, reads)), tuple(map(slot, kept))
        steps.append((table, _getter(ins), _getter(keep)))
        alive = kept + ([j] if last[j] > j else []) + ([_FLAG] if role else [])
        i = j + 1
    return steps


def _forward(steps, frontier, budget):
    """Run `steps` from `frontier`, charging each frontier they expand to
    `budget`: the last frontier, the frontier entering each step, and the
    path-weighted count of cell values the restriction forbids."""
    frontiers = []
    pruned_paths = 0
    for table, inputs, rest in steps:
        budget.spend(len(frontier))
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
    return frontier, frontiers, pruned_paths


def _predecessor(step, frontier, target):
    """The first state of `frontier`, in frontier order, that `step` takes
    to `target`, and the values of the entry it takes there."""
    table, inputs, rest = step
    for state in frontier:
        head = rest(state)
        if target[:len(head)] == head:
            for tail, _, values in table[inputs(state)][0]:
                if tail == target[len(head):]:
                    return state, values
    raise AssertionError("target key has no predecessor")


def _walk(steps, frontiers, target):
    """The values, column by column, of the first path in frontier order
    that `steps` take from their first frontier to `target`."""
    parts = []
    for step, frontier in zip(reversed(steps), reversed(frontiers)):
        target, values = _predecessor(step, frontier, target)
        parts.append(values)
    return tuple(chain.from_iterable(reversed(parts)))


def decide(logic, goal, premises=(), max_work=DEFAULT_MAX_WORK):
    """Decide whether `premises` entail `goal` in `logic`.

    Exact over the same table semantics as build_table, by a frontier
    dynamic program over the postorder of the goal and premises, laid out
    by the query's _Plan.  A state is a flat tuple, counted by the table
    rows that reach it.  It starts as (flag,): the flag slot says whether
    every premise so far is designated, and the goal's status.  The other
    slots hold the columns assigned so far that later steps still read,
    each as its class (the plan's reps): the first value, in canonical
    order, of the values that every reader of the column, at every position
    where it reads it, splits alike (interchangeable values, Freuder 1991).
    Replacing a value by its class changes no reader's cell or restriction,
    so the rows of a class go on together (lumping, Kemeny & Snell 1960),
    and a C_n conjunction, say, which reads an argument only as T, F or some
    t_k, gives n inconsistent values one slot value.

    Every step looks up its input slots in a table and gets (tail, mult,
    values) entries: the state's kept slots plus each tail make a
    successor, reached mult times per row.  A step is one column (see
    _Successors), where a premise or goal column also reads the flag and
    appends its new value; or a pair (see _PairTable): a plain column whose
    only reader is the next column, itself plain, is summed out with that
    reader and never gets a slot, so the values of a tower level's ~y,
    which the restriction collapses again at y & ~y, never widen a
    frontier.  Both tables are shared by every query with the same logic
    and column kinds, filled only at the inputs reached.  Or the step is a
    one-input run (see _runs, _RunView): a block of at least three plain
    columns that depend on one earlier column x alone, read nothing else
    from outside, and but for the last are read only inside the block, such
    as the tower x^1, ..., x^(n) over its base.  Its table maps x's class to
    the run's last column's classes, filled per class by the same steps and
    forward loop (_forward) from the state (x's class,).  Steps and fills
    are shared by every query of the logic whose run reads alike: its
    cells, the offsets at which they read, and its last column's class map
    (_run_key), which name one entry of at most MAX_RUNS per logic
    (_CellRules.runs); a run whose key the logic holds builds no step.
    That is exact: no column outside the run reads its interior, and x's
    slot already holds the meet of all its readers' classes, the run's
    among them, so every value of the class gives the run the same cells.
    The call sees the fills through a view of its own that charges a fill's
    work on the call's first lookup of the class, so work and the max_work
    trip are those of a fresh process.
    A run is taken only where the state entering it holds a slot besides x
    and the flag, which plain steps would carry through every column of the
    block; elsewhere it could only lose the merging of x's classes after
    x's last reader.  The fourth step is such a run with x summed in (see
    _SumView): where x is the column just before the run, plain, read by
    the run alone and not only by its first column (a pair takes that x),
    x's step and the run's are one, keyed by x's inputs, so x's classes,
    which the run maps to its last column's anyway, never make a frontier;
    the tower (A & B)^(n) over a compound A & B is one.  Its entries are
    shared in the run's entry too, and a call charges the fills they read
    as the run step does.

    The frontier entering every step is kept.  The countermodel is walked
    back from the final state (_VIOLATED,) (_walk): at each step it takes
    the first state in frontier order whose kept slots and one of whose
    entries' tail make up the target, and that entry's values, the first in
    cell order that give the tail, that is the first value of the tail's
    class; a run's entry holds the first path in its own frontier order,
    which is the path the column-by-column walk takes.  Each is a cell
    value at its inputs' class values, so at the values the walk picked for
    them as well, and the countermodel is a restricted valuation.

    stats reports the exact live-row count of the canonical table
    (rows_live), the rows cut by the restriction in this column order
    (rows_discarded), their sum (rows_total, as in build_table), and the
    states of the frontiers the steps expand (work), a run's own frontiers
    included once per class of x but for their first state, which the step
    that reads the run has counted, whether the call filled the class or
    found it filled; a summed-out column (a pair's first, or a run's input
    x summed into the run) adds none, and the values of one class make one
    state.  Raises ResourceLimitError as soon as `work` would exceed
    `max_work`; stored fills change neither whether nor where it trips.
    """
    start = time.perf_counter()
    premises = tuple(premises)
    order = postorder(goal, *premises)
    plan = _Plan(logic, order, goal, premises)
    budget = _Budget(max_work)
    steps = _steps(plan, 0, len(order) - 1, [_FLAG], plan.last, _runs(plan),
                   budget)
    frontier, frontiers, pruned_paths = _forward(steps, {(_START,): 1}, budget)

    # the last column is a premise or the goal, so a final state is (flag,)
    rows_live = sum(frontier.values())
    target = (_VIOLATED,)
    entailed = target not in frontier
    countermodel = None
    if not entailed:
        countermodel = Valuation(
            logic, dict(zip(order, _walk(steps, frontiers, target))))

    elapsed = time.perf_counter() - start
    return DecisionResult(
        logic=logic, goal=goal, premises=premises, entailed=entailed,
        countermodel=countermodel,
        stats={
            "rows_live": rows_live,
            "rows_total": rows_live + pruned_paths,
            "rows_discarded": pruned_paths,
            "work": budget.work,
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
                cell = tab[CONN_NAMES[f.kind]][assignment[f.left]]
                if v not in cell:
                    out.append(("hom", f, "value outside the multioperation cell"))
        else:
            if f.left in assignment and f.right in assignment:
                cell = tab[CONN_NAMES[f.kind]][assignment[f.left]][assignment[f.right]]
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
