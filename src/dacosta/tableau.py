"""Labelled tableaux for C_n, mbCcl and Cila.

Signed formulas L(f) carry a truth-value label; the label set is the logic's
value domain (T/t/F for the 3-valued logics, T_n/t^n_0../t^n_{n-1}/F_n for
C_n with n >= 2, encoded as value indices throughout).  A rule decomposes a
signed formula into branch extensions whose satisfying valuations are exactly
those of the premise formula: for every rule and every cell of the underlying
multioperations, the set of argument tuples reachable through the branches
equals the preimage of the label (an invariant the test suite checks
exhaustively).  `expand` gives the paper's rules, one per label.

`prove` searches over label *sets*, as in the signed tableaux of Hähnle
(*Automated Deduction in Multiple-valued Logics*, OUP 1993) and Avron and
Konikowska (Logic J. IGPL 13(4), 2005).  A branch holds, per formula, the
set of values it may still take, as a bitmask over the n + 2 values, and
putting a signed formula on the branch intersects its set.  In bulk mode
(`build_tree=False`, as the command line and the benchmark run it) a rule
on a set S emits boxes (`_set_rule`): products of argument sets, read off
`algebra.tables`, each of whose tuples has a cell that meets S, and which
together cover every such tuple.  C_n's T(A & B) is one extension, A and B
designated, where the per-label rules split 25 ways; T(A -> B) is F(A) |
D(B).  In tree mode (`--emit-tableau`) every set holds one label and the
rules are `expand`'s, so the recorded tree is the paper's tableau.  One
search loop serves both.

A branch closes when a formula's set becomes empty, when a rule leaves a
signed formula no extension, or when the restriction leaves a member of a
triple (x, x & ~x, x^1) no label that its labelled partners allow.  The
restriction's cuts are read off per logic by `_closure_cuts`, not written
out here: inserting on a triple member narrows the set inserted, and the
sets of its labelled partners, to the values with a compatible partner.

Provability: the tableau for premises g_1..g_m and goal f starts from
F(g_1 -> (g_2 -> ... (g_m -> f)...)); the goal is provable iff the completed
tableau has every branch closed.  (A tableau that merely *contains* a closed
branch proves nothing: F(p -> (p & ~p)) completes with one closed and one open
branch while the formula is invalid.  The regression tests keep that example.)

Branching order: a branch first applies its one-extension steps, taking
first any that closes it on the spot.  When none is left it applies the
first queued split (FIFO) that its labels force: one that some extension
already on the branch satisfies, one whose every extension conflicts (the
branch closes), or one with a single extension left (applied without a
clone).  This is unit propagation, as in Davis, Logemann and Loveland (CACM
5(7), 1962).  Only when no split is forced is the oldest one taken as a
real split.  If all its extensions share some signed formulas (C_n's F(A ->
B) puts F(B) in each of its n + 1 per-label extensions), the shared part
goes on the branch once and the rests go back to the queue's tail as one
split, taken like any other; else the split clones the branch once per
surviving extension.  A queued split whose every extension conflicts closes
the branch at the insert that takes the last one away, not when it is next
scanned: each queued split watches one extension that still fits, under
that extension's formulas whose sets do not lie in it yet, and looks for
another only when one of them narrows.  A step queued for a formula whose
set has narrowed since is skipped: the narrower set queued its own.  In
bulk mode, once a branch has nothing queued, a triple member that still
holds several labels is split into single labels (the least complex first,
so a tower's base goes before the members above it); only a branch with
none left counts as open.  Derived rules are used only where they have no
more extensions than the basic rule for the same signed formula (or none:
close now), so they never split wider than the rule they replace.

The search is sound and complete because no step changes which valuations
a branch admits: a branch stands for the conjunction of its signed
formulas, f in S for each, and each rule replaces one of them by the
disjunction of its extensions.  For a box rule that disjunction is exact,
because every tuple of a box reaches S (so no valuation is added) and the
boxes cover the preimage of S (so none is lost).  Intersecting sets is
conjunction; extensions that conflict with the branch, and values that the
restriction gives no compatible partner, admit no valuation; splitting a
set into its single labels is a disjunction.  Factoring keeps the
disjunction too: with ext_i = shared + rest_i, ext_1 | ... | ext_k =
shared & (rest_1 | ... | rest_k).  A saturated open branch has a
valuation: its triple members hold single labels that pass the
restriction, and every other formula's set meets the cell of any values
its arguments take within their sets, which is the box property, so the
values can be chosen bottom-up.  The factored form of each per-label rule
is read off its template once per logic (`_factored_table`), that of each
set rule on first use of the set, and that of a derived rule with the rule,
in its table.

An open complete branch yields a countermodel by extending its labels, each
formula's set as the values allowed there, to a restricted valuation over
the subformula domain, which `formula.postorder` lists.  `prove` records
the branch but does not extend it: `ProveResult.countermodel` does that
when it is first read, so a caller that takes its countermodel elsewhere
(the command line with both engines takes `decide`'s) never pays for the
extension.

Derived rules (enabled per call) shortcut iterated-consistency towers x^k:
they compress chains of basic expansions and may close a branch on the spot.
The rules for x^k, ~(x^k) and x^k & ~(x^k) are computed from `algebra`'s
tables and restriction: each extension pins the tower's root to one value
under which the formula takes the label.  x^(k) pins its base and the whole
chain x^1..x^k, and x^1 & y^1 (n = 1) maps the & rule's labels back to the
roots.  On a label set the rule is the union of the per-label ones, the
root's values merged into one set.  Like the basic rules, they are read off
tables rather than derived per formula: `_tower_shape` reads a formula's
shape and its anchors (the root, or the base and its chain) off the chain
the formula holds, and `_derived_rule` keeps, per logic, labels and shape,
the rule over anchor positions and its factored form (`lru_cache`, 4,096
entries); the anchors are put in for the positions when a proof resolves
the rule.  A formula with no tower shape returns before any lookup.  mbCcl
has no derived rules: there ~x can designate x^1 freely, so x^1 is not a
function of x.

Within one proof, the expansion of each signed formula is resolved once:
formulas are interned, so `prove` keeps a memo keyed by (label set,
formula), and a map from each x to its labelled triple partners.  Both live
and die with the call; the basic and derived rule tables, which are keyed
by plain values and bounded, stay the only source of the extensions.  Rule
strings ("T(&)", "F2(->) derived") are built only for recorded trees, and
branch records keep their label sets until `Branch.signed` is first read.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product

from . import algebra
from .errors import ResourceLimitError
from .formula import (VAR, NEG, CONS, AND, OR, IMP, CONN_NAMES, Imp, Logic,
                      check_signature, postorder)
from .truthtable import extend_partial

DEFAULT_MAX_NODES = 1_000_000

_CONN_LABEL = {NEG: "~", CONS: "@", AND: "&", OR: "|", IMP: "->"}


@dataclass
class SignedFormula:
    label: int
    formula: object

    def render(self, logic):
        return f"{algebra.value_names(logic)[self.label]}({self.formula.text})"


# --------------------------------------------------------------------------
# Basic rule tables.  Extensions are tuples of (side, label) pairs, side 0/1
# selecting the connective's left/right argument; they are resolved to
# concrete formulas at expansion time.


def _t1_rules():
    T, t, F = 0, 1, 2
    return {
        (T, NEG): (((0, F),), ((0, t),)),
        (t, NEG): (((0, t),),),
        (F, NEG): (((0, T),),),
        (T, AND): (((0, T), (1, T)), ((0, T), (1, t)), ((0, t), (1, T)), ((0, t), (1, t))),
        (t, AND): (((0, T), (1, t)), ((0, t), (1, T)), ((0, t), (1, t))),
        (F, AND): (((0, F),), ((1, F),)),
        (T, OR): (((0, T),), ((0, t),), ((1, T),), ((1, t),)),
        (t, OR): (((0, t),), ((1, t),)),
        (F, OR): (((0, F), (1, F)),),
        (T, IMP): (((0, F),), ((1, T),), ((1, t),)),
        (t, IMP): (((0, t), (1, T)), ((1, t),)),
        (F, IMP): (((0, T), (1, F)), ((0, t), (1, F))),
    }


def _cila_rules():
    T, t, F = 0, 1, 2
    rules = dict(_t1_rules())
    rules[(T, CONS)] = (((0, T),), ((0, F),))
    rules[(t, CONS)] = ()  # unsatisfiable; the branch closes on insertion
    rules[(F, CONS)] = (((0, t),),)
    return rules


def _mbccl_rules():
    T, t, F = 0, 1, 2
    rules = dict(_t1_rules())
    rules[(t, NEG)] = (((0, F),), ((0, t),))
    rules[(t, AND)] = (((0, T), (1, T)), ((0, T), (1, t)), ((0, t), (1, T)), ((0, t), (1, t)))
    rules[(t, OR)] = (((0, T),), ((0, t),), ((1, T),), ((1, t),))
    rules[(t, IMP)] = (((0, F),), ((1, T),), ((1, t),))
    rules[(T, CONS)] = (((0, T),), ((0, F),))
    rules[(t, CONS)] = (((0, T),), ((0, F),))
    rules[(F, CONS)] = (((0, t),),)
    return rules


def _cn_rules(n):
    T, F = 0, n + 1
    I = tuple(range(1, n + 1))
    D = tuple(range(0, n + 1))
    rules = {}
    rules[(T, NEG)] = tuple(((0, l),) for l in I) + (((0, F),),)
    for t in I:
        rules[(t, NEG)] = tuple(((0, l),) for l in I)
    rules[(F, NEG)] = (((0, T),),)
    rules[(T, AND)] = tuple(((0, a), (1, b)) for a in D for b in D)
    for t in I:
        rules[(t, AND)] = (tuple(((0, T), (1, b)) for b in I)
                           + tuple(((0, a), (1, b)) for a in I for b in I)
                           + tuple(((0, a), (1, T)) for a in I))
    rules[(F, AND)] = (((0, F),), ((1, F),))
    rules[(T, OR)] = tuple(((0, a),) for a in D) + tuple(((1, b),) for b in D)
    for t in I:
        rules[(t, OR)] = tuple(((0, a),) for a in I) + tuple(((1, b),) for b in I)
    rules[(F, OR)] = (((0, F), (1, F)),)
    rules[(T, IMP)] = (((0, F),),) + tuple(((1, b),) for b in D)
    for t in I:
        rules[(t, IMP)] = (tuple(((0, a), (1, T)) for a in I)
                           + tuple(((1, b),) for b in I))
    rules[(F, IMP)] = tuple(((0, a), (1, F)) for a in D)
    return rules


@lru_cache(maxsize=None)
def _rule_table(family, n):
    if family == "mbCcl":
        return _mbccl_rules()
    if family == "Cila":
        return _cila_rules()
    return _t1_rules() if n == 1 else _cn_rules(n)


def _factor(exts):
    """Split a rule's extensions into (shared, rests): the pairs that every
    extension holds, in the first extension's order, and per extension the
    pairs it holds besides them.  None when the extensions share nothing
    or there are fewer than two.  Then ext_i = shared + rest_i as sets, so
    the disjunction of the extensions is shared AND (rest_1 OR ... OR rest_k)."""
    if len(exts) < 2:
        return None
    common = set(exts[0]).intersection(*exts[1:])
    if not common:
        return None
    return (tuple(x for x in exts[0] if x in common),
            tuple(tuple(x for x in ext if x not in common) for ext in exts))


@lru_cache(maxsize=None)
def _factored_table(family, n):
    """`_factor` of every basic rule template, keyed as `_rule_table`."""
    return {key: _factor(template)
            for key, template in _rule_table(family, n).items()}


# --------------------------------------------------------------------------
# Label sets.  `prove` keeps the labels a formula may still take as a
# bitmask over the n + 2 values (bit v for value v), and its rules give
# extensions of (side or formula, label set) pairs.


@lru_cache(maxsize=4096)
def _values(mask):
    """The values of a label set, ascending."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _mask(values):
    """The label set of some values."""
    return sum(1 << v for v in values)


def _as_sets(pairs):
    return tuple((x, 1 << label) for x, label in pairs)


@lru_cache(maxsize=None)
def _label_rules(family, n):
    """The basic rules with one-label sets: (label, kind) -> (extensions,
    factored), the templates of `_rule_table` and `_factored_table`."""
    factored = _factored_table(family, n)
    out = {}
    for key, template in _rule_table(family, n).items():
        shared_rests = factored[key]
        if shared_rests is not None:
            shared_rests = (_as_sets(shared_rests[0]),
                            tuple(map(_as_sets, shared_rests[1])))
        out[key] = (tuple(map(_as_sets, template)), shared_rests)
    return out


@lru_cache(maxsize=4096)
def _set_rule(family, n, kind, mask):
    """(extensions, factored) of the label set `mask` on connective `kind`,
    templates of (side, label set) pairs; None when every argument tuple's
    cell meets the set, so the rule asks nothing.

    Each extension is a box, a product of argument sets, every tuple of which
    has a cell in `algebra.tables` that meets the set; together the boxes
    cover every such tuple.  A unary rule's one box is that preimage.  For a
    binary one, let R_a be the right arguments b whose cell (a, b) meets the
    set: each distinct non-empty R_a gives the box {a' : R_a' contains R_a}
    x R_a, boxes inside another are dropped, and a side whose set is the
    whole domain is left out.  Built on first use per set reached."""
    table = algebra.tables(Logic(family, n))[CONN_NAMES[kind]]
    size = n + 2
    full = (1 << size) - 1

    def reach(cell):
        return any(mask >> c & 1 for c in cell)

    if kind in (NEG, CONS):
        pre = _mask(a for a in range(size) if reach(table[a]))
        boxes = [(pre,)] if pre else []
    else:
        rows = [_mask(b for b in range(size) if reach(table[a][b]))
                for a in range(size)]
        boxes = []
        for row in rows:
            if row and all(row != right for _, right in boxes):
                boxes.append((_mask(a for a in range(size) if rows[a] & row == row),
                              row))
        boxes = [box for box in boxes if not any(
            other != box and all(x & y == x for x, y in zip(box, other))
            for other in boxes)]
    exts = []
    for box in boxes:
        ext = tuple((side, s) for side, s in enumerate(box) if s != full)
        if not ext:
            return None
        exts.append(ext)
    exts = tuple(exts)
    return exts, _factor(exts)


def _merge_pairs(exts):
    """Extensions with their pairs on one formula merged into one pair
    holding the intersection; an extension with an empty intersection is
    dropped, and a repeated one is kept once."""
    out = {}
    for ext in exts:
        sets = {}
        for g, s in ext:
            sets[g] = sets.get(g, s) & s
        if all(sets.values()):
            out.setdefault(tuple(sets.items()), None)
    return tuple(out)


def expand(logic, sf):
    """Branch extensions of a signed formula under the basic rules.

    Returns a tuple of extensions, each a tuple of SignedFormula; the empty
    tuple of extensions means the signed formula is unsatisfiable.  Atomic
    formulas have no rule (ValueError).
    """
    exts = _expand_raw(logic, sf.label, sf.formula)
    if exts is None:
        raise ValueError(f"no rule applies to the atomic formula {sf.formula.text}")
    return tuple(tuple(SignedFormula(l, f) for f, l in ext) for ext in exts)


def _resolve(template, f):
    """Template extensions with each side index replaced by f's argument."""
    sides = (f.left, f.right)
    return tuple([tuple([(sides[s], l) for s, l in ext]) for ext in template])


def _expand_raw(logic, label, f):
    """Extensions as tuples of (formula, label), or None for atoms."""
    if f.kind == VAR:
        return None
    template = _rule_table(logic.family, logic.n).get((label, f.kind))
    if template is None:
        raise ValueError(f"no rule for label {label} on {f.text} in {logic.name}")
    return _resolve(template, f)


# --------------------------------------------------------------------------
# Derived rules


def _conj_cell(logic, v):
    """The values the tables alone give x & ~x when x has value v."""
    tab = algebra.tables(logic)
    return {c for w in tab["neg"][v] for c in tab["and"][v][w]}


def _conj_values(logic, v):
    """The values x & ~x can take when x has value v, under the restriction."""
    conj = _conj_cell(logic, v)
    forced = algebra.forced_conj_cells(logic)[v]
    return conj if forced is None else conj & forced


@lru_cache(maxsize=None)
def _pow_chain_step(family, n):
    """The successor map s -> value of x^1 when x has value s, or None when
    x^1 is not a function of x (mbCcl).  In C_n and Cila the restriction
    clauses pin the contradiction x & ~x for every inconsistent value, so
    the whole pow chain is a function of the base's value."""
    logic = Logic(family, n)
    neg = algebra.tables(logic)["neg"]
    forced_pow1 = algebra.forced_pow1_values(logic)
    step = []
    for s in range(n + 2):
        if forced_pow1[s] is not None:
            step.append(forced_pow1[s])
            continue
        nxt = {w for c in _conj_values(logic, s) for w in neg[c]}
        if len(nxt) != 1:
            return None
        step.append(nxt.pop())
    return tuple(step)


# Tower shapes: y, ~y and y & ~y with y = root^u (the indices of
# `_tower_values`' triples); base^(k); and x^1 & y^1 at n = 1.
_POW, _NEG, _CONJ, _SEQ, _PAIR = range(5)


@lru_cache(maxsize=None)
def _tower_values(family, n, u):
    """Per root value s: the values y, ~y and y & ~y can take, y = root^u
    (indexed by _POW, _NEG, _CONJ).  The chain is constant from u = n + 1
    on, so callers clamp u there."""
    logic = Logic(family, n)
    step = _pow_chain_step(family, n)
    neg = algebra.tables(logic)["neg"]
    out = []
    for s in range(n + 2):
        v = s
        for _ in range(u):
            v = step[v]
        out.append(((v,), neg[v], _conj_values(logic, v)))
    return tuple(out)


@lru_cache(maxsize=None)
def _powseq_profiles(family, n, k):
    """For each base value s: the forced labels (v_1..v_k) of x^1..x^k and
    the set of values the chain conjunction x^(k) can take."""
    logic = Logic(family, n)
    step = _pow_chain_step(family, n)
    and_tab = algebra.tables(logic)["and"]
    profiles = []
    for s in range(n + 2):
        vs = []
        v = s
        for _ in range(k):
            v = step[v]
            vs.append(v)
        finals = {vs[0]}
        for v in vs[1:]:
            finals = {c for p in finals for c in and_tab[p][v]}
        profiles.append((tuple(vs), frozenset(finals)))
    return tuple(profiles)


def _tower_shape(n, f):
    """(key, anchors) of f's derived rule, or None when f has no tower
    shape.  Read off the chain f holds: the key is a plain value that fixes
    the rule with the logic and the labels, and the anchors are the
    distinct formulas that the rule's positions 0, 1, ... stand for.

      y & ~y, y = root^u:       (_CONJ, u clamped at n + 1), (root,)
      y, or ~y at n >= 2, with the top u = min(height, n) levels of y:
                                (_POW or _NEG, u), (root,)
      base^(k), k >= 2:         (_SEQ, k), (base, base^1, ..., base^k)
      x^1 & y^1 at n = 1:       (_PAIR, x is y), (x, y), or (x,) when x is y
    """
    if f.conj_base is not None:
        y = f.conj_base
        return (_CONJ, min(y.pow_height, n + 1)), (y.pow_base,)
    if f.kind == AND:
        # base^(k) = base^1 & ... & base^k, left-nested
        parts = []
        cur = f
        while cur.kind == AND and cur.right.pow_height >= 1:
            parts.append(cur.right)
            cur = cur.left
        if cur.pow_height >= 1 and parts:
            parts.append(cur)
            parts.reverse()
            base = cur.pow_base
            if all(g.pow_height == i and g.pow_base is base
                   for i, g in enumerate(parts, 1)):
                return (_SEQ, len(parts)), (base, *parts)
        if n == 1 and f.left.pow_height >= 1 and f.right.pow_height >= 1:
            x, y = f.left.left.conj_base, f.right.left.conj_base
            if x is y:
                return (_PAIR, True), (x,)
            return (_PAIR, False), (x, y)
        return None
    if f.pow_height >= 1:
        shape, y = _POW, f
    elif n >= 2 and f.kind == NEG and f.left.pow_height >= 1:
        shape, y = _NEG, f.left
    else:
        return None
    u = min(y.pow_height, n)
    root = y
    for _ in range(u):
        root = root.left.conj_base
    return (shape, u), (root,)


def _label_templates(family, n, label, key):
    """The derived extensions of one label on the shape `key`, as tuples of
    (anchor position, label); () means close now, and None that the label
    asks nothing of a tower's root (every root value reaches it)."""
    shape, arg = key
    if shape == _SEQ:
        # One branch per base value whose forced chain lets base^(k) take
        # the label; it pins the base and the whole chain base^1..base^k.
        return tuple(((0, s),) + tuple(enumerate(vs, 1))
                     for s, (vs, finals) in enumerate(_powseq_profiles(family, n, arg))
                     if label in finals)
    if shape == _PAIR:
        # The basic & rule with each label of x^1 (y^1) replaced by the
        # values of x (y) that the pow chain sends there.
        step = _pow_chain_step(family, n)
        positions = (0, 0) if arg else (0, 1)
        out = []
        for ext in _rule_table(family, n)[(label, AND)]:
            choices = [[(positions[side], s) for s, v in enumerate(step) if v == l]
                       for side, l in ext]
            out.extend(product(*choices))
        return tuple(out)
    # One extension per root value under which the tower takes the label.
    reach = _tower_values(family, n, arg)
    exts = tuple(((0, s),) for s, values in enumerate(reach)
                 if label in values[shape])
    return None if len(exts) == len(reach) else exts


@lru_cache(maxsize=4096)
def _derived_rule(family, n, per_label, mask, key):
    """(extensions, factored) of the derived rule for the label set `mask`
    on the shape `key`, extensions of (anchor position, label set) pairs and
    `_factor` of them; None when no rule applies.  With per_label, the set
    holds one label and the rule is that label's (`expand_derived`, tree
    mode).  Otherwise it is the union of its labels' rules, with the
    one-pair extensions on one position merged into one pair holding their
    labels; None when some label has no rule, or when a merged pair allows
    every value (it then asks nothing); () when no label has an extension
    (close now).  Built on first use per logic, labels and shape."""
    if per_label:
        raw = _label_templates(family, n, mask.bit_length() - 1, key)
        if raw is None:
            return None
        exts = tuple(map(_as_sets, raw))
        return exts, _factor(exts)
    union = {}
    for label in _values(mask):
        raw = _label_templates(family, n, label, key)
        if raw is None:
            return None
        for ext in raw:
            union.setdefault(_as_sets(ext), None)
    out = []
    single = {}  # position -> index in out of its one-pair extension
    for ext in union:
        if len(ext) == 1:
            i, s = ext[0]
            j = single.get(i)
            if j is not None:
                out[j] = ((i, out[j][0][1] | s),)
                continue
            single[i] = len(out)
        out.append(ext)
    full = (1 << (n + 2)) - 1
    if any(out[j][0][1] == full for j in single.values()):
        return None
    exts = _merge_pairs(out)
    return exts, _factor(exts)


def _derived(family, n, per_label, mask, f):
    """(extensions, factored) of f's derived rule with its anchors put in
    for the positions (`_derived_rule`), or None when no rule applies: f
    has no tower shape, or x^1 is no function of x (mbCcl: there ~x can
    designate x^1 freely)."""
    shape = _tower_shape(n, f)
    if shape is None or _pow_chain_step(family, n) is None:
        return None
    key, anchors = shape
    rule = _derived_rule(family, n, per_label, mask, key)
    if rule is None:
        return None
    exts, factored = rule
    if factored is not None:
        shared, rests = factored
        factored = _substitute((shared,), anchors)[0], _substitute(rests, anchors)
    return _substitute(exts, anchors), factored


def _substitute(template, anchors):
    """Template extensions with each anchor position replaced by its formula."""
    return tuple([tuple([(anchors[i], s) for i, s in ext]) for ext in template])


def _derived_raw(logic, label, f):
    """Derived extensions of label(f) as for _expand_raw, () meaning
    close-now (star), or None when no derived rule matches."""
    found = _derived(logic.family, logic.n, True, 1 << label, f)
    if found is None:
        return None
    return tuple(tuple((g, s.bit_length() - 1) for g, s in ext) for ext in found[0])


def expand_derived(logic, sf):
    """Derived-rule expansion of a signed formula, or None when none matches.

    The empty tuple means the branch closes immediately (the star rules).
    """
    exts = _derived_raw(logic, sf.label, sf.formula)
    if exts is None:
        return None
    return tuple(tuple(SignedFormula(l, f) for f, l in ext) for ext in exts)


# --------------------------------------------------------------------------
# Branch closure


@lru_cache(maxsize=None)
def _closure_cuts(family, n):
    """The restriction's cuts from the tables, as label sets: (conj_cut,
    pow1_cut).  Keyed by the value of x, or None while x has no label,
    conj_cut gives the labels x & ~x may not take and pow1_cut those x^1 may
    not take; every conj_cut holds the labels x & ~x takes under no value of
    x."""
    logic = Logic(family, n)
    values = range(n + 2)
    allowed = {v: _conj_values(logic, v) for v in values}
    never = set(values).difference(*allowed.values())
    full = (1 << (n + 2)) - 1
    conj_cut = {v: _mask(_conj_cell(logic, v) - allowed[v] | never)
                for v in values}
    pow1_cut = {v: 0 if w is None else full & ~(1 << w)
                for v, w in enumerate(algebra.forced_pow1_values(logic))}
    conj_cut[None], pow1_cut[None] = _mask(never), 0
    return conj_cut, pow1_cut


_CUT_REASONS = ("restriction on x & ~x", "restriction on x^1")


@lru_cache(maxsize=4096)
def _partner_sets(family, n, s):
    """(labels of x & ~x, labels of x^1) that the restriction allows beside
    some value of x in the label set s, None while x has no label."""
    full = (1 << (n + 2)) - 1
    allowed = []
    for cut in _closure_cuts(family, n):
        common = full
        for v in (None,) if s is None else _values(s):
            common &= cut[v]
        allowed.append(full & ~common)
    return tuple(allowed)


@lru_cache(maxsize=4096)
def _base_set(family, n, partner, s):
    """The values of x that the restriction allows beside some label in s on
    its partner x & ~x (partner 0) or x^1 (partner 1)."""
    cut = _closure_cuts(family, n)[partner]
    return _mask(v for v in range(n + 2) if s & ~cut[v])


def _restrict(family, n, labels, partners, f, s):
    """The label set s of f narrowed to the values that a labelled member of
    one of f's triples (x, x & ~x, x^1) allows beside it, and the name of
    the cut that empties it, if one does.  `labels` maps formulas to label
    sets; `partners` maps x to [x & ~x, x^1], each None until labelled."""
    if f.conj_base is not None:
        s &= _partner_sets(family, n, labels.get(f.conj_base))[0]
        if not s:
            return 0, _CUT_REASONS[0]
    if f.pow_height >= 1:
        s &= _partner_sets(family, n, labels.get(f.left.conj_base))[1]
        if not s:
            return 0, _CUT_REASONS[1]
    for partner, g in enumerate(partners.get(f, ())):
        t = labels.get(g)
        if t is not None:
            s &= _base_set(family, n, partner, t)
            if not s:
                return 0, _CUT_REASONS[partner]
    return s, None


def _partner_narrowings(family, n, labels, partners, f, s):
    """(label set, member) for each labelled member of f's triples: the
    labels that f's label set s allows beside it."""
    out = []
    x = f.conj_base
    if x is not None and x in labels:
        out.append((_base_set(family, n, 0, s), x))
    if f.pow_height >= 1 and f.left.conj_base in labels:
        out.append((_base_set(family, n, 1, s), f.left.conj_base))
    for g, allowed in zip(partners.get(f, ()), _partner_sets(family, n, s)):
        if g in labels:
            out.append((allowed, g))
    return out


def _note_partner(partners, f):
    """File f under its x in `partners` when f is x & ~x or x^1."""
    if f.conj_base is not None:
        partners.setdefault(f.conj_base, [None, None])[0] = f
    if f.pow_height >= 1:
        partners.setdefault(f.left.conj_base, [None, None])[1] = f


# --------------------------------------------------------------------------
# Tableau construction


@dataclass
class Node:
    label: int
    formula: object
    rule: str
    children: list = field(default_factory=list)
    status: str = ""  # set on leaves: "closed: ..." | "open" | "unexplored"


class Branch:
    """A finished branch.  `signed` is [(label, formula)] in insertion
    order, the label an int, or in bulk mode a sorted tuple of values;
    `status` is "open" or "closed", and `reason` says why it closed, or
    "unexplored" for an open branch left pending.  `prove` keeps the
    branch's label sets (`_of_sets`) and converts them on the first read of
    `signed`, so a record nobody reads costs no conversion."""

    __slots__ = ("status", "reason", "_signed", "_sets", "_bulk")

    def __init__(self, signed, status, reason=""):
        self._signed = signed
        self.status = status
        self.reason = reason
        self._sets = self._bulk = None

    @classmethod
    def _of_sets(cls, sets, bulk, status, reason=""):
        """A record of (formula, label set) pairs, converted on read."""
        branch = cls(None, status, reason)
        branch._sets, branch._bulk = sets, bulk
        return branch

    @property
    def signed(self):
        if self._signed is None:
            if self._bulk:
                self._signed = [(_values(s), f) for f, s in self._sets]
            else:
                self._signed = [(s.bit_length() - 1, f) for f, s in self._sets]
            self._sets = None
        return self._signed

    @property
    def labels(self):
        return {f: l for l, f in self.signed}

    def __eq__(self, other):
        if not isinstance(other, Branch):
            return NotImplemented
        return (self.signed, self.status, self.reason) == \
            (other.signed, other.status, other.reason)

    def __repr__(self):
        return f"Branch({self.signed!r}, {self.status!r}, {self.reason!r})"


@dataclass
class Tableau:
    logic: object
    root: object          # Node | None when tree building is off
    branches: list        # list of Branch
    stats: dict = field(default_factory=dict)


@dataclass
class ProveResult:
    logic: object
    goal: object
    premises: tuple
    proved: bool
    tableau: object

    @cached_property
    def countermodel(self):
        """Valuation | None: the first complete open branch's labels, extended
        to a restricted valuation when this is first read."""
        for branch in self.tableau.branches:
            if branch.status == "open" and branch.reason != "unexplored":
                return _extract(self.logic, branch.labels)
        return None


class _BranchState:
    __slots__ = ("labels", "simple", "branching", "watch", "leaf")

    def __init__(self, labels, simple, branching, watch, leaf):
        self.labels = labels  # formula -> label set, insertion-ordered
        self.simple = simple
        self.branching = branching
        # Formula -> ((split, label set), ...): the queued splits whose
        # watched extension narrows it to that set (see _watch).  Tuples, so
        # clones share them; a formula's entry goes when it narrows.
        self.watch = watch
        self.leaf = leaf

    def clone(self):
        return _BranchState(dict(self.labels), deque(self.simple),
                            deque(self.branching), dict(self.watch), self.leaf)


def _prefilter(labels, exts):
    """Sort a rule's extensions against a branch's label sets.

    Returns (satisfied, survivors, conflicted).  `satisfied` is True when the
    branch already holds some extension whole (each of its formulas' sets
    lies in the extension's): any valuation satisfying the branch then
    satisfies the rule, so no split is needed (the other two are partial
    then).  `conflicted` pairs each extension that some formula's set misses
    with that (formula, label set); those close on the spot.  The rest,
    `survivors`, are the real choices, in rule order.
    """
    survivors = []
    conflicted = []
    for ext in exts:
        held = True
        conflict = None
        for g, want in ext:
            have = labels.get(g)
            if have is None:
                held = False
            elif not have & want:
                conflict = (g, want)
                break
            elif have & ~want:
                held = False
        if conflict is not None:
            conflicted.append((ext, conflict))
        elif held:
            return True, survivors, conflicted
        else:
            survivors.append(ext)
    return False, survivors, conflicted


def _watch(labels, watch, entry):
    """Watch one extension of a queued split that still fits the branch.

    The split is filed, with the label set the extension wants, under each
    of that extension's formulas whose set does not lie in it yet; only a
    narrower set on one of them can take the extension away.  An extension
    held whole satisfies the split for good, so it needs no watch.  Returns
    False when no extension fits: the split leaves the branch no valuation."""
    for ext in entry[2]:
        for g, want in ext:
            have = labels.get(g)
            if have is not None and not have & want:
                break
        else:
            for g, want in ext:
                have = labels.get(g)
                if have is None or have & ~want:
                    watch[g] = watch.get(g, ()) + ((entry, want),)
            return True
    return False


def fold_premises(goal, premises):
    """g1 -> (g2 -> ... (gm -> goal)...); just the goal when premises are empty."""
    out = goal
    for p in reversed(premises):
        out = Imp(p, out)
    return out


def prove(logic, goal, premises=(), use_derived=False, stop_on_open=True,
          max_nodes=DEFAULT_MAX_NODES, build_tree=True):
    """Tableau decision: do the premises prove the goal?

    Roots the tableau at F(premises folded into nested implication), expands
    to completion and declares proved iff every branch closed.  Each branch
    applies its non-branching steps first (closing ones ahead), then the
    first queued split its labels force to at most one extension, and only
    then the oldest real split.  A real split whose extensions share signed
    formulas puts them on the branch once and queues the rests at the tail
    as one split (sound: the disjunction of shared + rest_i is shared and
    the disjunction of the rests).  A queued split left with no extension
    that fits closes the branch at the insert that caused it.  A derived
    rule replaces the basic one only when it has no more extensions (an
    empty one, close now, always does).  See the module docstring for why
    the order cannot change a verdict.  On failure, the first open complete
    branch provides `countermodel`, extended when it is first read.  With
    stop_on_open (default) expansion stops at the first open complete
    branch; pass False to complete the whole tableau (CLI dumps,
    invariants).  Raises ValueError before any search when a formula uses
    @ in a C_n (`formula.check_signature`, as `decide` does), and
    ResourceLimitError past max_nodes insertions (default 1,000,000; the
    CLI reads DACOSTA_MAX_NODES).

    The two modes run one search loop over label sets.  With build_tree=False
    (bulk mode, as the command line runs it) a branch holds one label set
    per formula.  A rule on a set emits boxes (`_set_rule`) whose argument
    tuples all reach the set and which together cover its preimage, so the
    rule keeps exactly the set's valuations; an insert intersects; a member
    of a restriction triple narrows its labelled partners to the labels its
    set allows beside them; and before a branch counts as open, each triple
    member that still holds several labels is split into single ones, after
    which the branch's sets extend to a valuation.  Branch records then
    give each formula's labels as a sorted tuple of values.  With
    build_tree=True every set holds one label and the rules are the paper's
    per-label ones (`expand`), so the tree, its rule strings and the closed
    branches' records are the paper's tableau; each label is an int.

    A (label set, formula) that many branches insert resolves its rule once
    per call, through a memo that is dropped when the call returns.  A
    derived rule is read off a bounded per-logic table keyed by the
    formula's tower shape (`_derived_rule`), with the formula's anchors put
    in, so a proof derives no rule itself.  Bulk mode makes no tree, rule
    string or closed-branch record; `tableau.branches` then holds the open
    and unexplored branches only, and every record converts its label sets
    on the first read of `signed`.
    The tree costs: over the first 20 axiom-proofs blocks of the benchmark's
    seed 7 (1,700 queries, derived rules on), tree mode took about 9 times
    bulk mode's time (0.69-0.90 against 0.07-0.12 s in-process on a 2-vCPU
    VM), and its largest proof held 3.0 MB traced against 0.02 MB.  Pass
    build_tree=False unless the tree or the closed branches are wanted.
    """
    premises = tuple(premises)
    check_signature(logic, goal, *premises)
    root_formula = fold_premises(goal, premises)
    family, n = logic.family, logic.n
    full = (1 << (n + 2)) - 1
    start = time.perf_counter()

    stats = {
        "nodes": 0, "branches": 0, "closures": 0, "derived_rule_hits": 0,
        "all_branches_closed": True, "completed": True, "early_stop": False,
    }
    finished = []  # Branch records
    expansions = {}  # (label set, formula) -> resolve(...), per proof
    partners = {}    # x -> [x & ~x, x^1] once labelled, see _restrict
    label_rules = _label_rules(family, n) if build_tree else None
    names = algebra.value_names(logic) if build_tree else None

    def make_node(s, f, rule, parent):
        if not build_tree:
            return parent
        node = Node(s.bit_length() - 1, f, rule)
        if parent is not None:
            parent.children.append(node)
        return node

    def resolve(s, f):
        """(extensions, derived, factored) of s(f), or None when s asks
        nothing of f's arguments: the derived rule's extensions when it has
        no more of them than the basic rule, else the basic rule's; and
        `_factor` of them, for a basic rule resolved from its template's."""
        if build_tree:
            rule = label_rules[(s.bit_length() - 1, f.kind)]
        else:
            rule = _set_rule(family, n, f.kind, s)
        if rule is None:
            return None
        template, factored = rule
        derived = _derived(family, n, build_tree, s, f) if use_derived else None
        if not build_tree and f.left is f.right:
            # merging the pairs of a bulk A op A can leave fewer extensions
            # than the template has entries, so they are counted first
            exts = _merge_pairs(_resolve(template, f))
            if derived is not None and len(derived[0]) <= len(exts):
                return derived[0], True, derived[1]
            return exts, False, _factor(exts)
        # _resolve gives one extension per template entry
        if derived is not None and len(derived[0]) <= len(template):
            return derived[0], True, derived[1]
        if factored is not None:
            shared, rests = factored
            factored = _resolve((shared,), f)[0], _resolve(rests, f)
        return _resolve(template, f), False, factored

    def expansion_of(s, f):
        key = (s, f)
        if key in expansions:
            return expansions[key]
        found = expansions[key] = resolve(s, f)
        return found

    def rule_name(s, f, derived):
        if not build_tree:
            return None
        return f"{names[s.bit_length() - 1]}({_CONN_LABEL.get(f.kind, '?')})" \
            + (" derived" if derived else "")

    def split_conflicts(entry):
        """The closure reason of a queued split none of whose extensions fit."""
        if not build_tree:
            return "split conflicts"
        s, f = entry[:2]
        return f"every extension of {names[s.bit_length() - 1]}({f.text}) conflicts"

    def insert(state, s, f, rule, source=None):
        """Narrow f's label set on the branch to s, then the labelled
        members of its restriction triples to what that allows, one at a
        time and depth first; returns the closure reason, or None while the
        branch stays open.  `source` is the formula whose split puts a whole
        extension on the branch, s(f) among it, if any."""
        pending = []
        reason = place(state, s, f, rule, source, pending)
        while reason is None and pending:
            s, f = pending.pop()
            reason = place(state, s, f, rule, None, pending)
        return reason

    def place(state, s, f, rule, source, pending):
        """One narrowing of `insert`; pushes the partner narrowings it
        implies onto `pending`."""
        labels = state.labels
        have = labels.get(f, full)
        new = have & s
        if new == have:
            return None
        state.leaf = make_node(s, f, rule, state.leaf)
        stats["nodes"] += 1
        if not new:
            # Bulk mode records no closed branch, so it needs no formula text.
            return f"label conflict on {f.text}" if build_tree else "label conflict"
        triple = f.conj_base is not None or f.pow_height >= 1 or f in partners
        reason = None
        if triple:
            _note_partner(partners, f)
            restricted, reason = _restrict(family, n, labels, partners, f, new)
            if reason is None:
                new = restricted
        labels[f] = new
        if stats["nodes"] > max_nodes:
            raise ResourceLimitError(f"tableau exceeded {max_nodes} nodes")
        if reason is not None:
            return reason
        # A queued split whose watched extension wanted other labels on f
        # may have no extension left that fits: then close now, before any
        # other step spends nodes.  The split being applied needs no look:
        # the extension going in fits, or its own insert conflicts.  A split
        # queued for a wider set of its formula than the branch now holds
        # is stale: the narrower set queued its own.
        watchers = state.watch.pop(f, None)
        if watchers is not None:
            for entry, want in watchers:
                if entry[1] is source or labels[entry[1]] != entry[0]:
                    continue
                if not new & want:
                    if not _watch(labels, state.watch, entry):
                        return split_conflicts(entry)
                elif new & ~want:
                    state.watch[f] = state.watch.get(f, ()) + ((entry, want),)
        if f.kind != VAR:
            found = expansion_of(new, f)
            if found is not None:
                exts, derived, factored = found
                if derived:
                    stats["derived_rule_hits"] += 1
                if not exts:
                    return "unsatisfiable signed formula"
                entry = (new, f, exts, derived, factored)
                if len(exts) == 1:
                    state.simple.append(entry)
                else:
                    state.branching.append(entry)
                    if not _watch(labels, state.watch, entry):
                        return split_conflicts(entry)
        if triple:
            pending.extend(reversed(_partner_narrowings(
                family, n, labels, partners, f, new)))
        return None

    def finish(state, status, reason=""):
        stats["branches"] += 1
        if status == "closed":
            stats["closures"] += 1
        else:
            stats["all_branches_closed"] = False
        if build_tree and state.leaf is not None:
            state.leaf.status = f"closed: {reason}" if status == "closed" else "open"
        # Bulk mode keeps only open branches (closed-branch records on large
        # tableaux would dominate memory); tree mode records everything.  A
        # finished state is dropped, so its label sets need no copy.
        if build_tree or status == "open":
            finished.append(Branch._of_sets(state.labels.items(), not build_tree,
                                            status, reason))

    root_state = _BranchState({}, deque(), deque(), {}, None)
    reason = insert(root_state, 1 << (n + 1), root_formula, "root")
    root_node = root_state.leaf if build_tree else None
    stack = []
    if reason is None:
        stack.append(root_state)
    else:
        finish(root_state, "closed", reason)

    def pop_simple(state):
        # Prefer a queued step that conflicts with a label set on the
        # branch: it closes the branch now, so no other step should be able
        # to spend nodes first.  Stale steps are dropped.
        labels = state.labels
        queue = state.simple
        for i, entry in enumerate(queue):
            if labels[entry[1]] == entry[0]:
                for g, want in entry[2][0]:
                    have = labels.get(g)
                    if have is not None and not have & want:
                        del queue[i]
                        return entry
        while queue:
            entry = queue.popleft()
            if labels[entry[1]] == entry[0]:
                return entry
        return None

    def pop_branching(state):
        # Unit first: the first queued split that the branch's labels force
        # (already satisfied, closing, or down to one extension) is applied
        # before any real split clones the branch.  Else the queue's head.
        # Stale splits are dropped.
        labels = state.labels
        queue = state.branching
        head = None
        i = 0
        while i < len(queue):
            entry = queue[i]
            if labels[entry[1]] != entry[0]:
                del queue[i]
                continue
            filtered = _prefilter(labels, entry[2])
            if filtered[0] or len(filtered[1]) <= 1:
                del queue[i]
                return entry, filtered
            if head is None:
                head = filtered
            i += 1
        return None if head is None else (queue.popleft(), head)

    def ungrounded(state):
        """The least complex restriction triple member that still holds
        several labels: x & ~x, x^1, or an x beside a labelled partner.
        Splitting a tower's base first narrows the members above it."""
        labels = state.labels
        found = None
        for g, s in labels.items():
            if s & (s - 1) and (g.conj_base is not None or g.pow_height >= 1
                                or any(p in labels for p in partners.get(g, ()))) \
                    and (found is None or g.complexity < found[0].complexity):
                found = g, s
        return found

    while stack:
        state = stack.pop()
        closed_reason = None
        while True:
            if state.simple:
                entry = pop_simple(state)
                if entry is None:
                    continue
                s, f, exts, derived, _ = entry
                rule = rule_name(s, f, derived)
                for g, want in exts[0]:
                    closed_reason = insert(state, want, g, rule)
                    if closed_reason is not None:
                        break
                if closed_reason is not None:
                    break
                continue
            if state.branching:
                popped = pop_branching(state)
                if popped is None:
                    continue
                (s, f, exts, derived, factored), (satisfied, survivors, conflicted) = popped
                if satisfied:
                    continue
                rule = rule_name(s, f, derived)
                if factored is not None and len(survivors) > 1:
                    # Every extension holds the shared part: the branch takes
                    # it once, and the rests go to the queue's tail as one split.
                    shared, rests = factored
                    for g, want in shared:
                        closed_reason = insert(state, want, g, rule)
                        if closed_reason is not None:
                            break
                    if closed_reason is not None:
                        break
                    state.branching.append((s, f, rests, derived, None))
                    continue
                for ext, (g, want) in conflicted:
                    stats["branches"] += 1
                    stats["closures"] += 1
                    if build_tree:
                        reason = f"label conflict on {g.text}"
                        leaf = state.leaf
                        for h, hs in ext:
                            leaf = make_node(hs, h, rule, leaf)
                            if h is g:
                                break
                        leaf.status = f"closed: {reason}"
                        finished.append(Branch._of_sets(
                            [*state.labels.items(), (g, want)], False, "closed", reason))
                source = f
            else:
                # Nothing is queued: a triple member with several labels
                # splits into one branch per label before the branch counts
                # as open (bulk mode only; tree mode holds single labels).
                grounding = ungrounded(state)
                if grounding is None:
                    break
                g, s = grounding
                rule = source = None
                survivors = [((g, 1 << v),) for v in _values(s)]
            # The last survivor takes the branch itself, so a forced step
            # clones nothing; every other survivor gets a copy.
            children = []
            last = len(survivors) - 1
            for i, ext in enumerate(survivors):
                child = state if i == last else state.clone()
                child_closed = None
                for g, want in ext:
                    child_closed = insert(child, want, g, rule, source)
                    if child_closed is not None:
                        break
                if child_closed is not None:
                    finish(child, "closed", child_closed)
                else:
                    children.append(child)
            stack.extend(reversed(children))
            state = None
            break
        if state is None:
            continue
        if closed_reason is not None:
            finish(state, "closed", closed_reason)
            continue
        finish(state, "open")
        if stop_on_open:
            stats["early_stop"] = bool(stack)
            stats["completed"] = not stack
            for st in stack:
                stats["branches"] += 1
                stats["all_branches_closed"] = False
                if build_tree and st.leaf is not None:
                    st.leaf.status = "unexplored"
                finished.append(Branch._of_sets(st.labels.items(), not build_tree,
                                                "open", "unexplored"))
            break

    stats["elapsed"] = time.perf_counter() - start
    tableau = Tableau(logic, root_node, finished, stats)
    return ProveResult(logic, goal, premises, stats["all_branches_closed"],
                       tableau)


def _extract(logic, labels):
    return extend_partial(logic, postorder(*labels), labels)


def extract_countermodel(branch, logic):
    """Countermodel from a complete open branch (a Branch record).

    Reads the branch's labels and extends them to a restricted valuation over
    the subformula closure of the branch.  Raises ValueError on closed or
    unexplored branches.
    """
    if branch.status != "open" or branch.reason == "unexplored":
        raise ValueError("countermodels come from open complete branches only")
    return _extract(logic, branch.labels)


# --------------------------------------------------------------------------
# Dumps


def tableau_to_text(tableau):
    """One line per node in preorder, indented two spaces per level.  The
    walk keeps an explicit stack, so deep trees need no recursion."""
    if tableau.root is None:
        return "(tree not recorded)"
    names = algebra.value_names(tableau.logic)
    lines = []
    stack = [(tableau.root, 0)]
    while stack:
        node, depth = stack.pop()
        tag = f"{names[node.label]}({node.formula.text})"
        status = f"  [{node.status}]" if node.status else ""
        rule = f"  <{node.rule}>" if node.rule and node.rule != "root" else ""
        lines.append("  " * depth + tag + rule + status)
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines)


def tableau_to_json(tableau):
    """The tableau as a JSON-ready dict: its logic, stats and root node, each
    node a dict of its label, formula, rule, status and children.  The walk
    keeps an explicit stack, so deep trees need no recursion."""
    names = algebra.value_names(tableau.logic)
    root = None if tableau.root is None else {}
    stack = [] if root is None else [(tableau.root, root)]
    while stack:
        node, doc = stack.pop()
        children = [{} for _ in node.children]
        doc.update(label=names[node.label], formula=node.formula.text,
                   rule=node.rule, status=node.status or None, children=children)
        stack.extend(zip(node.children, children))
    return {
        "logic": tableau.logic.name,
        "stats": dict(tableau.stats),
        "root": root,
    }
