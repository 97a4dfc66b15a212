"""Labelled tableaux for C_n, mbCcl and Cila.

Signed formulas L(f) carry a truth-value label; the label set is the logic's
value domain (T/t/F for the 3-valued logics, T_n/t^n_0../t^n_{n-1}/F_n for
C_n with n >= 2, encoded as value indices throughout).  A rule decomposes a
signed formula into branch extensions whose satisfying valuations are exactly
those of the premise formula: for every rule and every cell of the underlying
multioperations, the set of argument tuples reachable through the branches
equals the preimage of the label (an invariant the test suite checks
exhaustively).

A branch closes when it carries two labels on the same formula, when a
rule leaves a signed formula no extension, or when the labels on x, x & ~x
and x^1 are ones `algebra`'s tables allow but its restriction cuts; the
last are read off per logic by `_closure_cuts`, not written out here.

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
B) puts F(B) in each of its n + 1 extensions), the shared part goes on the
branch once and the rests go back to the queue's tail as one split, taken
like any other; else the split clones the branch once per surviving
extension.  A queued split whose every extension conflicts closes the
branch at the insert that takes the last one away, not when it is next
scanned: each queued split watches one extension that still fits, under
that extension's unlabelled formulas, and looks for another only when one
of them gets another label.  Derived rules are used only where they have no
more extensions than the basic rule for the same signed formula (or none:
close now), so they never split wider than the rule they replace.

The order is sound and complete because it never changes which valuations
a saturated branch admits: a branch stands for the conjunction of its
signed formulas, each rule replaces one of them by the disjunction of its
extensions, and extensions that conflict with the branch admit no
valuation.  Factoring keeps the disjunction too: with ext_i = shared +
rest_i, ext_1 | ... | ext_k = shared & (rest_1 | ... | rest_k).  Any order
that applies every rule reaches the same set of valuations over the open
leaves; these orders only reach it through fewer nodes.  The factored form
of each basic rule is read off its template once per logic
(`_factored_table`); a derived expansion is factored once per proof, in the
memo below.

An open complete branch yields a countermodel by reading off its labels and
extending them to a restricted valuation over the subformula domain, which
`formula.postorder` lists.  `prove` records the branch but does not extend
it: `ProveResult.countermodel` does that when it is first read, so a caller
that takes its countermodel elsewhere (the command line with both engines
takes `decide`'s) never pays for the extension.

Derived rules (enabled per call) shortcut iterated-consistency towers x^k:
they compress chains of basic expansions and may close a branch on the spot.
The rules for x^k, ~(x^k) and x^k & ~(x^k) are computed from `algebra`'s
tables and restriction: each extension pins the tower's root to one value
under which the formula takes the label; x^1 & y^1 (n = 1) maps the & rule's
labels back to the roots.  mbCcl has none: there ~x can designate x^1
freely, so x^1 is not a function of x.

Within one proof, the expansion of each signed formula is resolved once:
formulas are interned, so `prove` keeps a memo keyed by (label, formula)
over `expand_derived`'s and `expand`'s raw forms, and another for the
closure partners x & ~x and ~(x & ~x) of `_closes`.  Both memos live and die
with the call; the rule tables stay the only source of the extensions.  Rule
strings ("T(&)", "F2(->) derived") are built only for recorded trees.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product

from . import algebra
from .errors import ResourceLimitError
from .formula import (VAR, NEG, CONS, AND, OR, IMP, And, Imp, Logic, Neg,
                      postorder, pow)
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


def _derived_raw(logic, label, f):
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
        shape, y = (_POW, f) if f.pow_height >= 1 else (_NEG, f.left)
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


_POW, _NEG, _CONJ = range(3)


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
    """The restriction's cuts from the tables: (conj_cut, pow1_cut,
    partnered).  Keyed by the label of x, None while x has none, conj_cut
    gives the labels x & ~x may not take and pow1_cut those x^1 may not
    take; every conj_cut holds the labels x & ~x takes under no value of x.
    `partnered` holds the labels of x that cut anything more."""
    logic = Logic(family, n)
    values = frozenset(range(n + 2))
    allowed = {v: _conj_values(logic, v) for v in values}
    never = values.difference(*allowed.values())
    conj_cut = {v: frozenset(_conj_cell(logic, v) - allowed[v]) | never for v in values}
    pow1_cut = {v: frozenset() if w is None else values - {w}
                for v, w in enumerate(algebra.forced_pow1_values(logic))}
    conj_cut[None], pow1_cut[None] = never, frozenset()
    partnered = {v for v in values if conj_cut[v] - never or pow1_cut[v]}
    return conj_cut, pow1_cut, partnered


def _closes(cuts, labels, f, lab, partners):
    """Does adding lab(f) to `labels` leave no restricted valuation, beyond a
    straight label conflict (the caller's)?  `cuts` is the logic's
    `_closure_cuts`; `partners` maps x to (x & ~x, x^1), one dict per proof."""
    conj_cut, pow1_cut, partnered = cuts
    if f.conj_base is not None and lab in conj_cut[labels.get(f.conj_base)]:
        return "restriction on x & ~x"
    if f.pow_height >= 1 and lab in pow1_cut[labels.get(f.left.conj_base)]:
        return "restriction on x^1"
    if lab in partnered:
        pair = partners.get(f)
        if pair is None:
            conj = And(f, Neg(f))
            pair = partners[f] = (conj, Neg(conj))
        if labels.get(pair[0]) in conj_cut[lab]:
            return "restriction on x & ~x"
        if labels.get(pair[1]) in pow1_cut[lab]:
            return "restriction on x^1"
    return None


# --------------------------------------------------------------------------
# Tableau construction


@dataclass
class Node:
    label: int
    formula: object
    rule: str
    children: list = field(default_factory=list)
    status: str = ""  # set on leaves: "closed: ..." | "open" | "unexplored"


@dataclass
class Branch:
    signed: list          # [(label, formula)] in insertion order
    status: str           # "open" | "closed"
    reason: str = ""

    @property
    def labels(self):
        return {f: l for l, f in self.signed}


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
        self.labels = labels  # insertion-ordered; a formula enters once
        self.simple = simple
        self.branching = branching
        # Unlabelled formula -> ((split, label), ...): the queued splits whose
        # watched extension gives it that label (see _watch).  Tuples, so
        # clones share them; a formula's entry goes when it gets a label.
        self.watch = watch
        self.leaf = leaf

    def clone(self):
        return _BranchState(dict(self.labels), deque(self.simple),
                            deque(self.branching), dict(self.watch), self.leaf)


def _signed(state):
    """The branch's (label, formula) pairs in insertion order."""
    return [(lab, f) for f, lab in state.labels.items()]


def _prefilter(labels, exts):
    """Sort a rule's extensions against a branch's labels.

    Returns (satisfied, survivors, conflicted).  `satisfied` is True when the
    branch already carries some extension whole: any valuation satisfying the
    branch then satisfies the rule, so no split is needed (the other two are
    partial then).  `conflicted` pairs each extension that gives some formula
    a second label with that (formula, label); those close on the spot.  The
    rest, `survivors`, are the real choices, in rule order.
    """
    survivors = []
    conflicted = []
    for ext in exts:
        all_dup = True
        conflict = None
        for g, gl in ext:
            have = labels.get(g)
            if have is None:
                all_dup = False
            elif have != gl:
                conflict = (g, gl)
                break
        if conflict is not None:
            conflicted.append((ext, conflict))
        elif all_dup:
            return True, survivors, conflicted
        else:
            survivors.append(ext)
    return False, survivors, conflicted


def _watch(labels, watch, entry):
    """Watch one extension of a queued split that still fits the branch.

    The split is filed, with the label the extension wants, under each of
    that extension's formulas that has no label yet; only a different label
    on one of them can take the extension away.  An extension held whole
    satisfies the split for good, so it needs no watch.  Returns False
    when no extension fits: the split leaves the branch no valuation."""
    for ext in entry[2]:
        for g, gl in ext:
            have = labels.get(g)
            if have is not None and have != gl:
                break
        else:
            for g, gl in ext:
                if g not in labels:
                    watch[g] = watch.get(g, ()) + ((entry, gl),)
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
    invariants).  Raises ResourceLimitError past max_nodes
    insertions (default 1,000,000; the CLI reads DACOSTA_MAX_NODES).

    A (label, formula) that many branches insert resolves its rule once per
    call, through a memo that is dropped when the call returns.  With
    build_tree=False (bulk mode) no tree, rule string or closed-branch record
    is made; `tableau.branches` then holds the open and unexplored branches
    only.  The default build_tree=True records all of that, and it costs:
    over the first 20 axiom-proofs blocks of the benchmark's seed 7 (1,700
    queries, derived rules on), tree mode took 1.7 times bulk mode's time
    (0.78 against 0.47 s on a 2-vCPU VM) and its largest proof held 3.4 MB
    traced against 0.2 MB.  Pass build_tree=False unless the tree or the
    closed branches are wanted.
    """
    premises = tuple(premises)
    root_formula = fold_premises(goal, premises)
    F = logic.n + 1
    start = time.perf_counter()

    stats = {
        "nodes": 0, "branches": 0, "closures": 0, "derived_rule_hits": 0,
        "all_branches_closed": True, "completed": True, "early_stop": False,
    }
    finished = []  # Branch records
    expansions = {}  # (label, formula) -> expansion_of(...), per proof
    partners = {}    # formula -> closure partners, see _closes
    cuts = _closure_cuts(logic.family, logic.n)
    factored_rules = _factored_table(logic.family, logic.n)
    names = algebra.value_names(logic) if build_tree else None

    def make_node(lab, f, rule, parent):
        if not build_tree:
            return parent
        node = Node(lab, f, rule)
        if parent is not None:
            parent.children.append(node)
        return node

    def expansion_of(lab, f):
        """(extensions, derived, factored) of lab(f): the derived rule's
        extensions when it has no more of them than the basic rule, else the
        basic rule's; and `_factor` of them, for a basic rule resolved from
        its template's in `_factored_table`."""
        key = (lab, f)
        found = expansions.get(key)
        if found is None:
            exts = _derived_raw(logic, lab, f) if use_derived else None
            if exts is not None and (not exts or len(exts) <= len(
                    _rule_table(logic.family, logic.n)[(lab, f.kind)])):
                found = (exts, True, _factor(exts))
            else:
                exts = _expand_raw(logic, lab, f)
                factored = factored_rules[(lab, f.kind)]
                if factored is not None:
                    shared, rests = factored
                    factored = _resolve((shared,), f)[0], _resolve(rests, f)
                found = (exts, False, factored)
            expansions[key] = found
        return found

    def rule_name(lab, f, derived):
        if not build_tree:
            return None
        return f"{names[lab]}({_CONN_LABEL.get(f.kind, '?')})" \
            + (" derived" if derived else "")

    def split_conflicts(entry):
        """The closure reason of a queued split none of whose extensions fit."""
        if not build_tree:
            return "split conflicts"
        lab, f = entry[:2]
        return f"every extension of {names[lab]}({f.text}) conflicts"

    def insert(state, lab, f, rule, source=None):
        """Add lab(f) to the branch; returns the closure reason, or None
        while the branch stays open.  `source` is the formula whose split
        puts a whole extension on the branch, lab(f) among it, if any."""
        labels = state.labels
        existing = labels.get(f)
        if existing is not None:
            if existing == lab:
                return None
            state.leaf = make_node(lab, f, rule, state.leaf)
            stats["nodes"] += 1
            # Bulk mode records no closed branch, so it needs no formula text.
            return f"label conflict on {f.text}" if build_tree else "label conflict"
        reason = _closes(cuts, labels, f, lab, partners)
        labels[f] = lab
        state.leaf = make_node(lab, f, rule, state.leaf)
        stats["nodes"] += 1
        if stats["nodes"] > max_nodes:
            raise ResourceLimitError(f"tableau exceeded {max_nodes} nodes")
        if reason is not None:
            return reason
        # A queued split whose watched extension wanted another label on f
        # may have no extension left that fits: then close now, before any
        # other step spends nodes.  The split being applied needs no look:
        # the extension going in fits, or its own insert conflicts.
        watchers = state.watch.pop(f, None)
        if watchers is not None:
            for entry, want in watchers:
                if want != lab and entry[1] is not source \
                        and not _watch(labels, state.watch, entry):
                    return split_conflicts(entry)
        if f.kind == VAR:
            return None
        exts, derived, factored = expansion_of(lab, f)
        if derived:
            stats["derived_rule_hits"] += 1
        if len(exts) == 0:
            return "unsatisfiable signed formula"
        entry = (lab, f, exts, derived, factored)
        if len(exts) == 1:
            state.simple.append(entry)
            return None
        state.branching.append(entry)
        if not _watch(labels, state.watch, entry):
            return split_conflicts(entry)
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
        # tableaux would dominate memory); tree mode records everything.
        if build_tree or status == "open":
            finished.append(Branch(_signed(state), status, reason))

    root_state = _BranchState({}, deque(), deque(), {}, None)
    reason = insert(root_state, F, root_formula, "root")
    root_node = root_state.leaf if build_tree else None
    stack = []
    if reason is None:
        stack.append(root_state)
    else:
        finish(root_state, "closed", reason)

    def pop_simple(state):
        # Prefer a queued step that conflicts with a label already on the
        # branch: it closes the branch now, so no other step should be able
        # to spend nodes first.
        for i, entry in enumerate(state.simple):
            for g, gl in entry[2][0]:
                have = state.labels.get(g)
                if have is not None and have != gl:
                    del state.simple[i]
                    return entry
        return state.simple.popleft()

    def pop_branching(state):
        # Unit first: the first queued split that the branch's labels force
        # (already satisfied, closing, or down to one extension) is applied
        # before any real split clones the branch.  Else the queue's head.
        head = None
        for i, entry in enumerate(state.branching):
            filtered = _prefilter(state.labels, entry[2])
            if filtered[0] or len(filtered[1]) <= 1:
                del state.branching[i]
                return entry, filtered
            if head is None:
                head = filtered
        return state.branching.popleft(), head

    while stack:
        state = stack.pop()
        closed_reason = None
        while True:
            if state.simple:
                lab, f, exts, derived, _ = pop_simple(state)
                rule = rule_name(lab, f, derived)
                for g, gl in exts[0]:
                    closed_reason = insert(state, gl, g, rule)
                    if closed_reason is not None:
                        break
                if closed_reason is not None:
                    break
                continue
            if not state.branching:
                break
            (lab, f, exts, derived, factored), (satisfied, survivors, conflicted) = \
                pop_branching(state)
            if satisfied:
                continue
            rule = rule_name(lab, f, derived)
            if factored is not None and len(survivors) > 1:
                # Every extension holds the shared part: the branch takes it
                # once, and the rests go to the queue's tail as one split.
                shared, rests = factored
                for g, gl in shared:
                    closed_reason = insert(state, gl, g, rule)
                    if closed_reason is not None:
                        break
                if closed_reason is not None:
                    break
                state.branching.append((lab, f, rests, derived, None))
                continue
            for ext, (g, gl) in conflicted:
                stats["branches"] += 1
                stats["closures"] += 1
                if build_tree:
                    reason = f"label conflict on {g.text}"
                    leaf = state.leaf
                    for h, hl in ext:
                        leaf = make_node(hl, h, rule, leaf)
                        if h is g:
                            break
                    leaf.status = f"closed: {reason}"
                    finished.append(Branch(_signed(state) + [(gl, g)],
                                           "closed", reason))
            # The last survivor takes the branch itself, so a forced step
            # clones nothing; every other survivor gets a copy.
            children = []
            last = len(survivors) - 1
            for i, ext in enumerate(survivors):
                child = state if i == last else state.clone()
                child_closed = None
                for g, gl in ext:
                    child_closed = insert(child, gl, g, rule, f)
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
                finished.append(Branch(_signed(st), "open", "unexplored"))
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
    names = algebra.value_names(tableau.logic)

    def walk(node):
        return {
            "label": names[node.label],
            "formula": node.formula.text,
            "rule": node.rule,
            "status": node.status or None,
            "children": [walk(c) for c in node.children],
        }

    return {
        "logic": tableau.logic.name,
        "stats": dict(tableau.stats),
        "root": walk(tableau.root) if tableau.root is not None else None,
    }
