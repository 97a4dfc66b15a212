"""Reference semantics for the enumeration and decision tests.

The engine under test builds rows by branching left-to-right with restriction
forcing baked in.  oracle_rows does the dumbest possible thing instead: lay
out EVERY function from the column list to the value domain, then keep the
ones that (a) pick a member of the connective table cell at every compound
column and (b) satisfy the restriction clauses.  The only shared ingredient
is the connective tables themselves, which are pinned by their own tests.

Everything is vectorised with numpy so that exhausting domain**columns
candidates stays cheap; candidate blocks are decoded arithmetically in chunks
to keep memory flat when the column list is long.

reference_decide is the decision DP one column per step, with no successor
tables and no fused steps: the figures `truthtable.decide` must reproduce.
"""

from __future__ import annotations

import numpy as np

from dacosta.algebra import domain_size, tables
from dacosta.formula import (AND, CONS, IMP, NEG, OR, VAR, And, Neg, pow,
                             postorder)
from dacosta.truthtable import _Plan

_CHUNK = 1 << 20


def _unary_member(cells, dom):
    m = np.zeros((dom, dom), dtype=bool)
    for a, cell in enumerate(cells):
        for v in cell:
            m[a, v] = True
    return m


def _binary_member(cells, dom):
    m = np.zeros((dom, dom, dom), dtype=bool)
    for a, row in enumerate(cells):
        for b, cell in enumerate(row):
            for v in cell:
                m[a, b, v] = True
    return m


def _filter_block(logic, columns, idx, members, vals):
    keep = np.ones(len(vals), dtype=bool)
    kindmap = {NEG: "neg", CONS: "cons", AND: "and", OR: "or", IMP: "imp"}
    for f in columns:
        i = idx[f]
        if f.kind == VAR:
            continue
        member = members[kindmap[f.kind]]
        if f.kind in (NEG, CONS):
            keep &= member[vals[:, idx[f.left]], vals[:, i]]
        else:
            keep &= member[vals[:, idx[f.left]], vals[:, idx[f.right]], vals[:, i]]
    # restriction clauses: triggers are syntactic, on every column f whose
    # companion columns are present.
    n = logic.n
    for f in columns:
        conj = And(f, Neg(f))
        j = idx.get(conj)
        p1 = idx.get(pow(f, 1)) if logic.family == "C" else None
        fv = vals[:, idx[f]]
        for k in range(n):
            hit = fv == k + 1  # value index of t_k
            if not hit.any():
                continue
            if k == 0:
                if j is not None:
                    keep &= ~hit | (vals[:, j] == 0)
            else:
                if j is not None:
                    keep &= ~hit | ((vals[:, j] >= 1) & (vals[:, j] <= n))
                if p1 is not None:
                    keep &= ~hit | (vals[:, p1] == k)
    return vals[keep]


def oracle_rows(logic, columns):
    """Every total assignment over `columns` that the semantics allows.

    Returns a set of value-index tuples in column order.  `columns` must be
    closed under subformulas (each compound's children appear in the list).
    """
    columns = list(columns)
    idx = {f: i for i, f in enumerate(columns)}
    dom = domain_size(logic)
    tbl = tables(logic)
    members = {name: (_unary_member(cells, dom) if name in ("neg", "cons")
                      else _binary_member(cells, dom))
               for name, cells in tbl.items()}
    ncols = len(columns)
    total = dom ** ncols
    weights = np.array([dom ** (ncols - 1 - i) for i in range(ncols)],
                       dtype=np.int64)
    out = set()
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        codes = np.arange(start, stop, dtype=np.int64)
        vals = ((codes[:, None] // weights[None, :]) % dom).astype(np.int16)
        for row in _filter_block(logic, columns, idx, members, vals):
            out.add(tuple(int(x) for x in row))
    return out


def reference_decide(logic, goal, premises=()):
    """The column-by-column frontier DP over the postorder of the query.

    A state is (premises designated so far, goal flag, ((column, value), ...)
    for the columns a later cell still reads); the frontier entering every
    column is kept, and the countermodel is walked back from the first
    violating final state through the first (state, value) pair, in
    frontier and cell order, that leads to the current state.  Returns the
    fields decide() reports: entailed, rows_live, rows_discarded, work and
    countermodel (formula -> value, or None).
    """
    premises = tuple(premises)
    order = postorder(goal, *premises)
    plan = _Plan(logic, order, goal, premises)
    last = list(range(len(order)))
    for i, (_, srcs) in enumerate(plan.entries):
        for src in srcs:
            last[src] = max(last[src], i)

    def successors(i, state):
        ok, flag, held = state
        live, pruned = plan.candidates(i, dict(held))
        kept = tuple((c, v) for c, v in held if last[c] > i)
        out = []
        for v in live:
            out.append((v, (
                0 if i in plan.premise_ix and v > logic.n else ok,
                (1 if v <= logic.n else 2) if i == plan.goal_ix else flag,
                kept + (((i, v),) if last[i] > i else ()))))
        return out, len(pruned)

    frontiers, frontier = [], {(1, 0, ()): 1}
    discarded = 0
    for i in range(len(order)):
        frontiers.append(frontier)
        nxt = {}
        for state, count in frontier.items():
            succ, pruned = successors(i, state)
            discarded += pruned * count
            for _, key in succ:
                nxt[key] = nxt.get(key, 0) + count
        frontier = nxt
    violating = next((k for k in frontier if k[0] == 1 and k[1] == 2), None)
    countermodel = None
    if violating is not None:
        countermodel, target = {}, violating
        for i in reversed(range(len(order))):
            target, countermodel[order[i]] = next(
                (state, v) for state in frontiers[i]
                for v, key in successors(i, state)[0] if key == target)
    return {"entailed": violating is None, "rows_live": sum(frontier.values()),
            "rows_discarded": discarded,
            "work": sum(len(f) for f in frontiers), "countermodel": countermodel}
