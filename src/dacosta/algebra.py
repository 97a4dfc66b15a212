"""Truth-value domains and multioperations for C_n, mbCcl and Cila.

Truth values are snapshots: (n+1)-tuples over {0,1} holding at most one 0,
read as (b(a), b(~a), b(a^1), ..., b(a^(n-1))) for a bivaluation b.  The domain
B_n has n + 2 elements, ordered canonically

    T_n,  t^n_0, ..., t^n_{n-1},  F_n

with T_n = (1,0,1,...,1), t^n_i carrying its 0 at coordinate i+2 (t^n_{n-1} is
all ones), and F_n = (0,1,...,1).  Everything below indexes values by their
position in that order: 0 is T_n, n+1 is F_n, and the inconsistent values
t^n_0..t^n_{n-1} sit at 1..n.  Designated values are all but F_n.

C_n multioperations are computed from the snapshot coordinates:

    neg:  w in ~z  iff  w1 = z2 and w2 <= z1      (coordinates 1-based)
    bin:  first coordinate is the classical result; when both arguments are
          Boolean (T_n or F_n) the output is the Boolean with that first
          coordinate, otherwise every value with that first coordinate.

The 3-valued LFIs mbCcl and Cila use fixed tables over {T, t, F} (indices
0, 1, 2), written out literally below.  At n = 1 the computed C_n tables agree
cell-for-cell with the Cila tables restricted to {~, &, |, ->}; `cila_reduct`
exposes that restriction for cross-checking.

Valuations are additionally restricted: if v(a) = t (t^n_0), then
v(a & ~a) = T (T_n); in C_n for n >= 2, if v(a) = t^n_k with k >= 1, then
v(a & ~a) is inconsistent and v(a^1) = t^n_{k-1}.  The `forced_*` helpers
express those clauses as per-value constraints.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError
from .formula import Logic


def snapshots(n):
    """The domain B_n in canonical order, as bit tuples of length n + 1."""
    if n < 1:
        raise ValueError("snapshots require n >= 1")
    top = tuple([1, 0] + [1] * (n - 1))
    bottom = tuple([0] + [1] * n)
    middles = []
    for i in range(n):
        bits = [1] * (n + 1)
        if i <= n - 2:
            bits[i + 2] = 0
        middles.append(tuple(bits))
    return [top] + middles + [bottom]


def value_names(logic):
    n = logic.n
    if n == 1:
        return ["T", "t", "F"]
    return [f"T{n}"] + [f"t{n}_{i}" for i in range(n)] + [f"F{n}"]


def domain_size(logic):
    return logic.n + 2


def designated(logic):
    """Indices of the designated values: everything except the last (F)."""
    return frozenset(range(logic.n + 1))


def inconsistent(logic):
    """Indices of the inconsistent values t^n_0 .. t^n_{n-1}."""
    return frozenset(range(1, logic.n + 1))


def boolean_values(logic):
    return frozenset((0, logic.n + 1))


def _bool_and(a, b):
    return a & b


def _bool_or(a, b):
    return a | b


def _bool_imp(a, b):
    return (1 - a) | b


@lru_cache(maxsize=None)
def _cn_tables(n):
    snaps = snapshots(n)
    m = n + 2
    top, bot = 0, m - 1
    boolean = {top, bot}
    first = [s[0] for s in snaps]

    neg = tuple(
        tuple(w for w in range(m) if snaps[w][0] == z[1] and snaps[w][1] <= z[0])
        for z in snaps
    )

    def binary(bitop):
        rows = []
        for a in range(m):
            row = []
            for b in range(m):
                bit = bitop(first[a], first[b])
                if a in boolean and b in boolean:
                    row.append((top,) if bit else (bot,))
                else:
                    row.append(tuple(w for w in range(m) if first[w] == bit))
            rows.append(tuple(row))
        return tuple(rows)

    return {
        "neg": neg,
        "and": binary(_bool_and),
        "or": binary(_bool_or),
        "imp": binary(_bool_imp),
    }


# 3-valued tables, indices 0=T, 1=t, 2=F.  D = (0, 1).
_D = (0, 1)

_MBCCL_TABLES = {
    "neg": ((2,), _D, _D),
    "cons": (_D, (2,), _D),
    "and": (
        (_D, _D, (2,)),
        (_D, _D, (2,)),
        ((2,), (2,), (2,)),
    ),
    "or": (
        (_D, _D, _D),
        (_D, _D, _D),
        (_D, _D, (2,)),
    ),
    "imp": (
        (_D, _D, (2,)),
        (_D, _D, (2,)),
        (_D, _D, _D),
    ),
}

_CILA_TABLES = {
    "neg": ((2,), _D, (0,)),
    "cons": ((0,), (2,), (0,)),
    "and": (
        ((0,), _D, (2,)),
        (_D, _D, (2,)),
        ((2,), (2,), (2,)),
    ),
    "or": (
        ((0,), _D, (0,)),
        (_D, _D, _D),
        ((0,), _D, (2,)),
    ),
    "imp": (
        ((0,), _D, (2,)),
        (_D, _D, (2,)),
        ((0,), _D, (0,)),
    ),
}


def cila_reduct():
    """The {~, &, |, ->} fragment of the Cila tables (no consistency operator)."""
    return {k: v for k, v in _CILA_TABLES.items() if k != "cons"}


def tables(logic):
    """All multioperation tables of the logic, keyed by connective name.

    Unary tables are indexed [value]; binary tables [left][right].  Cells are
    tuples of value indices in canonical (ascending) order.
    """
    if logic.family == "C":
        return _cn_tables(logic.n)
    if logic.family == "mbCcl":
        return _MBCCL_TABLES
    if logic.family == "Cila":
        return _CILA_TABLES
    raise ValueError(f"no tables for logic {logic}")


def mult_op(logic, conn, args):
    """Cell of the multioperation `conn` at `args` (value indices) as a frozenset."""
    t = tables(logic)
    if conn not in t:
        raise DomainError(f"{logic.name} has no connective {conn!r}")
    arity = 1 if conn in ("neg", "cons") else 2
    if len(args) != arity:
        raise DomainError(f"{conn!r} takes {arity} argument(s), got {len(args)}")
    dom = domain_size(logic)
    if any(not (0 <= a < dom) for a in args):
        raise DomainError(f"value index out of range for {logic.name}: {args!r}")
    if arity == 1:
        return frozenset(t[conn][args[0]])
    return frozenset(t[conn][args[0]][args[1]])


# --------------------------------------------------------------------------
# Restriction clauses on valuations


def forced_conj_cells(logic):
    """Per value v of a: allowed values of a & ~a, or None when unconstrained.

    Index the result by v(a).  v = t^n_0 forces T_n; in C_n (n >= 2),
    v = t^n_k with k >= 1 forces an inconsistent value.
    """
    n = logic.n
    out = [None] * (n + 2)
    out[1] = frozenset((0,))
    if logic.family == "C" and n >= 2:
        inc = inconsistent(logic)
        for v in range(2, n + 1):
            out[v] = inc
    return tuple(out)


def forced_pow1_values(logic):
    """Per value v of a: the forced value of a^1, or None.

    Only C_n with n >= 2 forces anything: v(a) = t^n_k (k >= 1) forces
    v(a^1) = t^n_{k-1}.
    """
    n = logic.n
    out = [None] * (n + 2)
    if logic.family == "C" and n >= 2:
        for v in range(2, n + 1):
            out[v] = v - 1
    return tuple(out)


# --------------------------------------------------------------------------
# Table dumps (CLI `tables` subcommand)


def render_tables(logic):
    names = value_names(logic)
    t = tables(logic)
    width = max(len(x) for x in names)
    lines = [f"logic {logic.name}: values {', '.join(names)}; designated: all but {names[-1]}"]

    def cell_text(cell):
        return "{" + ",".join(names[v] for v in cell) + "}"

    for conn in ("neg", "cons"):
        if conn not in t:
            continue
        lines.append("")
        lines.append(f"{conn}:")
        for v, cell in enumerate(t[conn]):
            lines.append(f"  {names[v]:<{width}}  ->  {cell_text(cell)}")
    for conn in ("and", "or", "imp"):
        grid = t[conn]
        cells = [[cell_text(c) for c in row] for row in grid]
        cw = max(width, max(len(x) for row in cells for x in row))
        lines.append("")
        lines.append(f"{conn}:")
        header = " " * (width + 2) + "  ".join(f"{x:<{cw}}" for x in names)
        lines.append(header)
        for v, row in enumerate(cells):
            lines.append(f"  {names[v]:<{width}}" + "  ".join(f"{x:<{cw}}" for x in row))
    return "\n".join(lines)


def tables_json(logic):
    names = value_names(logic)
    t = tables(logic)
    out = {"logic": logic.name, "values": names, "designated": names[:-1], "tables": {}}
    for conn, table in t.items():
        if conn in ("neg", "cons"):
            out["tables"][conn] = {names[v]: [names[w] for w in cell]
                                   for v, cell in enumerate(table)}
        else:
            out["tables"][conn] = {
                names[a]: {names[b]: [names[w] for w in table[a][b]]
                           for b in range(len(names))}
                for a in range(len(names))
            }
    return out
