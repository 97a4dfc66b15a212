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

reference_classes derives a cell rule's class maps with every hook input
ranging over the whole domain: the maps `_CellRule.classes` must give.

reference_derived_raw and reference_derived_set derive the tableau's tower
rules formula by formula and label by label, rebuilding each chain with
`pow`: the rules that `tableau`'s per-logic tables must give once their
anchors are put in.

reference_parse is the parser that reads every token, with no record of
the groups it has read: the results, error messages and positions
`formula.parse` must give.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from dacosta.algebra import domain_size, tables
from dacosta.errors import ParseError
from dacosta.formula import (_KINDS, _LETTERS, _LP, _POW, _REDUCES, _RP,
                             _TOKEN_RE, AND, CONS, IMP, MAX_NESTING,
                             MAX_SUGAR_TEXT, NEG, OR, VAR, And, Neg, _make,
                             _sugar_exponent, _text_length, _Unparsed, pow,
                             postorder, powseq)
# tableau's tower shape _POW, apart from the parser's ^ token kind
from dacosta.tableau import _POW as _TOWER_POW
from dacosta.tableau import (_CONJ, _NEG, _as_sets, _merge_pairs,
                             _pow_chain_step, _powseq_profiles, _rule_table,
                             _tower_values, _values)
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


def reference_classes(rule):
    """The class maps of every input position of the _CellRule `rule`: each
    value's first value, in canonical order, that gives the same split as
    it at every assignment of the other inputs.  The positions before one
    take one value per class, the positions after it every value."""
    width = rule.arity + (rule.conj_cells is not None) \
        + (rule.pow1_values is not None)
    domains = [rule.full_domain] * width
    maps = []
    for k in range(width):
        others = list(product(*domains[:k], *domains[k + 1:]))
        first, reps = {}, []
        for u in rule.full_domain:
            splits = []
            for rest in others:
                live, pruned = rule.split(rest[:k] + (u,) + rest[k:])
                splits.append((live, len(pruned)))
            reps.append(first.setdefault(tuple(splits), u))
        maps.append(tuple(reps))
        domains[k] = tuple(first.values())
    return tuple(maps)


def reference_derived_raw(logic, label, f):
    """Derived extensions as for _expand_raw, () meaning close-now (star),
    or None when no derived rule matches."""
    n = logic.n
    if _pow_chain_step(logic.family, n) is None:
        return None  # the pow chain is not a function of the base (mbCcl)

    # The towers: f is y & ~y, y or ~y (n >= 2) with y = root^u.  One
    # extension per root value under which f can take the label.
    shape = None
    if f.conj_base is not None:
        shape, root, u = _CONJ, f.conj_base.pow_base, f.conj_base.pow_height
    elif f.pow_height >= 1 or (n >= 2 and f.kind == NEG and f.left.pow_height >= 1):
        shape, y = (_TOWER_POW, f) if f.pow_height >= 1 else (_NEG, f.left)
        u = min(y.pow_height, n)
        root = pow(y.pow_base, y.pow_height - u)
    if shape is not None:
        reach = _tower_values(logic.family, n, min(u, n + 1))
        exts = tuple(((root, s),) for s, values in enumerate(reach)
                     if label in values[shape])
        return None if len(exts) == len(reach) else exts

    if f.kind == AND:
        seq = _powseq_decompose(f)
        if seq is not None:
            return _powseq_extensions(logic, seq[0], seq[1], label)

    if n == 1 and f.kind == AND and f.left.pow_height >= 1 and f.right.pow_height >= 1:
        # x^1 & y^1: the basic & rule with each label of x^1 (y^1) replaced
        # by the values of x (y) that the pow chain sends there.
        step = _pow_chain_step(logic.family, n)
        roots = (f.left.left.conj_base, f.right.left.conj_base)
        out = []
        for ext in _rule_table(logic.family, n)[(label, AND)]:
            choices = [[(roots[side], s) for s, v in enumerate(step) if v == l]
                       for side, l in ext]
            out.extend(product(*choices))
        return tuple(out)

    return None


def _powseq_decompose(f):
    """(base, k) when f is literally base^(k) = base^1 & ... & base^k with
    k >= 2, None otherwise."""
    parts = []
    cur = f
    while cur.kind == AND and cur.right.pow_height >= 1:
        parts.append(cur.right)
        cur = cur.left
    if cur.pow_height < 1:
        return None
    parts.append(cur)
    parts.reverse()
    if len(parts) < 2:
        return None
    base = parts[0].pow_base
    for i, g in enumerate(parts):
        if g.pow_height != i + 1 or g.pow_base is not base:
            return None
    return base, len(parts)


def _powseq_extensions(logic, base, k, label):
    """Derived expansion of label(base^(k)): one branch per base value whose
    forced pow chain lets the conjunction reach the label.  Each branch pins
    the base and the whole chain base^1..base^k."""
    profiles = _powseq_profiles(logic.family, logic.n, k)
    out = []
    for s, (vs, finals) in enumerate(profiles):
        if label not in finals:
            continue
        ext = [(base, s)]
        g = base
        for v in vs:
            g = pow(g, 1)
            ext.append((g, v))
        out.append(tuple(ext))
    return tuple(out)


def reference_derived_set(logic, mask, f):
    """The derived rule for a label set: the union of `reference_derived_raw`'s
    extensions over its labels, with the one-pair extensions on one formula
    merged into one pair holding their labels.  None when some label has no
    derived rule, or when a merged pair allows every value (it then asks
    nothing); () when no label has an extension (close now)."""
    exts = {}
    for label in _values(mask):
        raw = reference_derived_raw(logic, label, f)
        if raw is None:
            return None
        for ext in raw:
            exts.setdefault(_as_sets(ext), None)
    out = []
    single = {}  # formula -> index in out of its one-pair extension
    for ext in exts:
        if len(ext) == 1:
            g, s = ext[0]
            i = single.get(g)
            if i is not None:
                out[i] = ((g, out[i][0][1] | s),)
                continue
            single[g] = len(out)
        out.append(ext)
    full = (1 << (logic.n + 2)) - 1
    if any(out[i][0][1] == full for i in single.values()):
        return None
    return _merge_pairs(out)


# --------------------------------------------------------------------------
# Parser

def _parse_tokens(tokens, logic):
    """The formula of `tokens`, which end with "" for the end of input.

    One loop with an explicit stack of pending operators, each a (kind,
    token index) pair, and of the left arguments of the pending binary
    ones; `f` is the formula read last.
    """
    no_circ = logic is not None and not logic.has_circ
    ops = []
    lefts = []
    i = 0
    while True:
        # A formula: prefix ~ and @ and open parentheses, then an atom.
        tok = tokens[i]
        kind = _KINDS.get(tok)
        while kind == NEG or kind == CONS or kind == _LP:
            if kind == CONS and no_circ:
                raise _Unparsed("consistency connective not in signature of "
                                f"{logic.name}", i)
            ops.append((kind, i))
            if len(ops) > MAX_NESTING:
                raise _Unparsed("formula nested too deeply", None)
            i += 1
            tok = tokens[i]
            kind = _KINDS.get(tok)
        if kind is not None or tok[:1] not in _LETTERS:
            raise _Unparsed(f"expected a formula, found {tok!r}" if tok
                            else "unexpected end of input", i)
        f = _make(VAR, tok, None, None)
        i += 1
        # After it: powers, closing parentheses, then a binary connective
        # or the end.
        while True:
            tok = tokens[i]
            kind = _KINDS.get(tok)
            if kind == _POW:
                # f^3 is pow, f^(3) is powseq.
                digits = tokens[i + 1]
                if digits[:1].isdecimal():
                    f = pow(f, _sugar_exponent(f, digits, False, i))
                    i += 2
                elif (digits == "(" and tokens[i + 2][:1].isdecimal()
                        and tokens[i + 3] == ")"):
                    f = powseq(f, _sugar_exponent(f, tokens[i + 2], True, i))
                    i += 4
                else:
                    raise _Unparsed("expected integer after '^'", i + 1)
                continue
            # Reduce the pending operators that bind tighter than this
            # token; anything but a binary connective ends a parenthesis.
            limit = _REDUCES.get(kind, IMP)
            while ops and ops[-1][0] <= limit:
                op, at = ops.pop()
                if op <= CONS:
                    left, right = f, None
                    size = len(f.text)
                else:
                    left, right = lefts.pop(), f
                    size = len(left.text) + len(f.text)
                # parentheses and the connective add at most 8 characters,
                # so the exact length is needed only near the limit
                if (size + 8 > MAX_SUGAR_TEXT
                        and _text_length(op, left, right) > MAX_SUGAR_TEXT):
                    raise _Unparsed("formula too long: its text would pass "
                                    f"{MAX_SUGAR_TEXT} characters", at)
                f = _make(op, None, left, right)
            if limit != IMP:
                break
            if ops:
                if kind != _RP:
                    raise _Unparsed(f"expected ')', found {tok!r}" if tok
                                    else "expected ')'", i)
                ops.pop()
            elif tok:
                raise _Unparsed(f"unexpected {tok!r} after formula", i)
            else:
                return f
            i += 1
        lefts.append(f)
        ops.append((kind, i))
        if len(ops) > MAX_NESTING:
            raise _Unparsed("formula nested too deeply", None)
        i += 1


def reference_parse(text, logic=None):
    """`formula.parse` with the reference loop."""
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    try:
        return _parse_tokens(tokens, logic)
    except _Unparsed as err:
        message, at = err.args
    starts = [m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)]
    for tok, start in zip(tokens[:-1], starts):
        if tok not in _KINDS and tok[0] not in _LETTERS and not tok.isdecimal():
            raise ParseError(f"unexpected character {tok!r}", start)
    raise ParseError(message, 0 if at is None else starts[at])
