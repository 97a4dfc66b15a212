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
               narrower order).  Formulas whose tables have astronomically
               many rows (iterated-consistency towers) stay feasible because
               only the value combinations of the columns still referenced
               later are kept.  A column read only by the next column is
               summed out inside that column's step (bucket elimination,
               Dechter 1999), so it never takes a state slot: the values of
               a tower level's ~y, which the restriction collapses again at
               y & ~y, never widen a frontier.

Both read a column's cell through one helper, _CellRule.split, which applies
the restriction to the multioperation cell; the DP's successor and pair
tables are filled from it.

Verdicts, live-row counts and countermodel existence are order-independent
facts about the constraint system, so the two engines agree everywhere; the
test suite enforces that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
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
                 "pow1_values", "successors", "pairs")

    def __init__(self, logic, conn, has_conj, has_pow):
        self.logic = logic
        self.arity = 0 if conn is None else 1 if conn in ("neg", "cons") else 2
        self.table = None if conn is None else algebra.tables(logic)[conn]
        self.full_domain = tuple(range(logic.n + 2))
        self.conj_cells = algebra.forced_conj_cells(logic) if has_conj else None
        self.pow1_values = algebra.forced_pow1_values(logic) if has_pow else None
        self.successors = {}
        self.pairs = {}

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

    def successor_table(self, is_prem, is_goal):
        """The shared successor table of this kind of column in a role."""
        table = self.successors.get((is_prem, is_goal))
        if table is None:
            table = self.successors[is_prem, is_goal] = _Successors(
                self, is_prem, is_goal)
        return table

    def pair_table(self, first, split, positions):
        """The shared pair table of a plain column of kind `first`, with
        `split` inputs, read only by this kind of column, itself plain, at
        `positions` of its inputs."""
        key = (first, split, positions)
        table = self.pairs.get(key)
        if table is None:
            table = self.pairs[key] = _PairTable(first, split, positions, self)
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


class _Successors(dict):
    """Successor table of one column step, filled on first lookup.

    Maps the tuple of the step's input values to (successors, pruned): the
    live cell values as (v, premise killed, goal flag) triples in canonical
    order, and how many cell values the restriction forbids.  The goal flag
    is 1 (designated) or 2 (undesignated) on a goal column, else 0.
    """

    __slots__ = ("rule", "is_prem", "is_goal")

    def __init__(self, rule, is_prem, is_goal):
        super().__init__()
        self.rule = rule
        self.is_prem = is_prem
        self.is_goal = is_goal

    def __missing__(self, inputs):
        live, pruned = self.rule.split(inputs)
        n = self.rule.logic.n
        succ = tuple((v, self.is_prem and v > n,
                      (1 if v <= n else 2) if self.is_goal else 0) for v in live)
        entry = self[inputs] = (succ, len(pruned))
        return entry


class _PairTable(dict):
    """Successor table of a fused pair step, filled on first lookup.

    The pair is a plain column (neither premise nor goal) whose only reader
    is the next column, itself plain.  The table maps the pair's outside
    inputs (the first column's inputs, then the reader's inputs at the
    positions that do not read the first column) to (successors, pruned):
    the reader's live values as (v, multiplicity) pairs, in order of first
    appearance over the first column's cell order and then the reader's,
    and the cell values the restriction forbids in both columns, summed over
    the first column's live values.  Both are read off the two columns'
    _Successors tables; equal entries are one interned object.
    """

    __slots__ = ("first", "second", "split", "positions")

    def __init__(self, first, split, positions, second):
        super().__init__()
        self.first = first.successor_table(False, False)
        self.second = second.successor_table(False, False)
        self.split = split
        self.positions = positions

    def middle(self, inputs):
        """(u, reader's inputs) for each live value u of the first column at
        the outside `inputs`, in cell order."""
        split, positions = self.split, self.positions
        width = len(inputs) - split + len(positions)
        out = []
        for u, _, _ in self.first[inputs[:split]][0]:
            rest = iter(inputs[split:])
            out.append((u, tuple(u if k in positions else next(rest)
                                 for k in range(width))))
        return out

    def __missing__(self, inputs):
        counts = {}
        pruned = self.first[inputs[:self.split]][1]
        for _, reader_inputs in self.middle(inputs):
            succ, npruned = self.second[reader_inputs]
            pruned += npruned
            for v, _, _ in succ:
                counts[v] = counts.get(v, 0) + 1
        entry = (tuple(counts.items()), pruned)
        entry = self[inputs] = _pair_entries.setdefault(entry, entry)
        return entry


# One copy of each distinct pair-table entry: a few dozen values serve
# thousands of entries.
_pair_entries = {}

# Kinds of DP step: a plain column, a premise or goal column, a fused pair.
_PLAIN, _ROLE, _PAIR = range(3)


def _getter(slots):
    """Callable returning the tuple of a state's values at `slots`."""
    if len(slots) > 1:
        return itemgetter(*slots)
    # a one-index itemgetter returns the bare item, a slice stays a tuple
    return itemgetter(slice(slots[0], slots[0] + 1) if slots else slice(0, 0))


def _successor_keys(step, state, succ):
    """(v, successor key) for the live cell values `succ` of `state` at a
    plain or role step."""
    kind, _, _, rest, alive, _ = step
    if kind == _PLAIN:
        head = rest(state)
        return [(v, head + (v,)) for v, _, _ in succ]
    prem_ok, goal_st = state[0], state[1]
    vals = rest(state)
    return [(v, (0 if killed else prem_ok, goal or goal_st) + vals
             + ((v,) if alive else ())) for v, killed, goal in succ]


def _predecessor(step, frontier, target):
    """The first state of `frontier`, in frontier order, that leads to
    `target`, with the values it takes on the way: (state, v) at a plain or
    role step, (state, u, v) at a pair step, u and v first in cell order."""
    kind, table, inputs, rest, _, _ = step
    head, v = target[:-1], target[-1]
    for state in frontier:
        # a plain or pair step's key is rest(state) + (v,)
        if kind != _ROLE and rest(state) != head:
            continue
        if kind == _PAIR:
            for u, reader_inputs in table.middle(inputs(state)):
                if any(w == v for w, _, _ in table.second[reader_inputs][0]):
                    return state, u, v
        else:
            for w, key in _successor_keys(step, state, table[inputs(state)][0]):
                if key == target:
                    return state, w
    raise AssertionError("target key has no predecessor")


def decide(logic, goal, premises=(), max_work=DEFAULT_MAX_WORK):
    """Decide whether `premises` entail `goal` in `logic`.

    Exact over the same table semantics as build_table, but runs a frontier
    dynamic program over the postorder of the goal and premises: after a
    column's last consumer is processed its value is dropped from the state,
    so only the reachable value combinations of the currently-live columns
    are stored.  A state is the flat tuple (premises designated so far,
    goal flag, values of the live columns), counted by the number of table
    rows that reach it.

    Each step reads its successors from a table keyed by the values of its
    input slots, shared by every query with the same logic and column kinds
    and filled only at the input combinations reached.  A step is one column
    (see _Successors), or a pair: a plain column whose only reader is the
    next column, itself plain, is summed out inside one step with that
    reader and never gets a state slot (see _PairTable).  The frontier
    entering every step is kept; a countermodel is read off by walking back
    from the first violating final state, taking at each step the first
    state in frontier order, and the first values in cell order, that lead
    to the current key.  Summing a column out keeps the order in which keys
    first appear, so the walk picks the same values as a column-by-column
    DP.

    stats reports the exact live-row count of the canonical table
    (rows_live), the rows cut by the restriction in this column order
    (rows_discarded), their sum (rows_total, as in build_table), and the
    states of the frontiers the steps expand (work); a summed-out column
    adds none.  Raises ResourceLimitError when `work` would exceed
    `max_work`.
    """
    start = time.perf_counter()
    premises = tuple(premises)
    order = postorder(goal, *premises)
    plan = _Plan(logic, order, goal, premises)
    ncols = len(order)
    roles = set(plan.premise_ix)
    roles.add(plan.goal_ix)

    # last[i] = last position whose cell reads column i.
    last = list(range(ncols))
    for i, (_, srcs) in enumerate(plan.entries):
        for src in srcs:
            if last[src] < i:
                last[src] = i

    # State slots 0 and 1 hold the premise and goal flags; then the columns
    # assigned before the step and still needed at or after it, oldest
    # first.  A surviving new column is always appended last.  A column that
    # is neither premise nor goal is consumed by a later parent, so it always
    # survives its own step.  A step is (kind, table, input getter, getter of
    # the kept slots, new column survives, its first column).
    steps = []
    alive = []
    i = 0
    while i < ncols:
        rule, srcs = plan.entries[i]
        slot = {p: 2 + s for s, p in enumerate(alive)}
        role = i in roles
        # the column the step ends at: i, or i + 1 for a pair
        j = i + 1 if not role and last[i] == i + 1 and i + 1 not in roles else i
        kept = [slot[p] for p in alive if last[p] > j]
        if j > i:
            reader, reader_srcs = plan.entries[j]
            positions = tuple(k for k, s in enumerate(reader_srcs) if s == i)
            outside = list(srcs) + [s for s in reader_srcs if s != i]
            steps.append((_PAIR, reader.pair_table(rule, len(srcs), positions),
                          _getter([slot[s] for s in outside]),
                          itemgetter(0, 1, *kept), True, i))
        else:
            table = rule.successor_table(i in plan.premise_ix,
                                         i == plan.goal_ix)
            steps.append((_ROLE if role else _PLAIN, table,
                          _getter([slot[s] for s in srcs]),
                          _getter(kept) if role else itemgetter(0, 1, *kept),
                          last[i] > i, i))
        alive = [p for p in alive if last[p] > j] + ([j] if last[j] > j else [])
        i = j + 1

    # frontiers[k] is the frontier entering step k.
    frontiers = []
    frontier = {(1, 0): 1}
    work = 0
    pruned_paths = 0
    for step in steps:
        work += len(frontier)
        if work > max_work:
            raise ResourceLimitError(
                f"decision DP exceeded {max_work} state expansions")
        frontiers.append(frontier)
        kind, table, inputs, rest, _, _ = step
        nxt = {}
        get = nxt.get
        for state, count in frontier.items():
            succ, npruned = table[inputs(state)]
            if npruned:
                pruned_paths += npruned * count
            if kind == _ROLE:
                for _, key in _successor_keys(step, state, succ):
                    nxt[key] = get(key, 0) + count
                continue
            head = rest(state)
            if kind == _PAIR:
                for v, mult in succ:
                    key = head + (v,)
                    nxt[key] = get(key, 0) + mult * count
            else:
                for v, _, _ in succ:
                    key = head + (v,)
                    nxt[key] = get(key, 0) + count
        frontier = nxt

    rows_live = sum(frontier.values())
    violating = next(
        (key for key in frontier if key[0] == 1 and key[1] == 2), None)
    entailed = violating is None

    countermodel = None
    if not entailed:
        assignment = {}
        target = violating
        for step, frontier in zip(reversed(steps), reversed(frontiers)):
            target, *values = _predecessor(step, frontier, target)
            for k in reversed(range(len(values))):
                assignment[order[step[5] + k]] = values[k]
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
    from formulas in the domain to value indices) must be compatible with the
    multioperation cells and the restriction clauses.  Violations raise
    ExtensionError naming the offending formula.

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
    for f, v in nu0.items():
        if f not in domain:
            raise ExtensionError(
                f"assigned formula {f.text} is outside the domain", formula=f)
        if not isinstance(v, int) or not 0 <= v < m:
            raise ExtensionError(
                f"value {v!r} for {f.text} is outside the {m}-element domain",
                formula=f)

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
            pinned = nu0.get(columns[j])
            if pinned is not None:
                live = (pinned,) if pinned in live else ()
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
