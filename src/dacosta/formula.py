"""Propositional formulas over the signatures of da Costa's C_n and the LFIs mbCcl/Cila.

The C_n calculi speak the signature {~, &, |, ->}; mbCcl and Cila add the unary
consistency connective, written @ here (circle in the usual notation).  Formulas
are interned: building the same shape twice returns the same object, so equality
and hashing are identity-based and O(1), and syntactic companions such as
a & ~a or a^1 can be looked up in constant time.

ASCII connective spellings (Unicode aliases accepted by the parser):

    ~f      negation            (¬)
    @f      consistency         (∘, Sigma-circ logics only)
    f & g   conjunction         (∧)
    f | g   disjunction         (∨)
    f -> g  implication         (→)
    f^k     iterated consistency: f^1 = ~(f & ~f), f^(k+1) = ~(f^k & ~(f^k))
    f^(k)   f^1 & f^2 & ... & f^k (left-nested)

Precedence, loosest first: ->  |  &  {~, @, ^k}; -> associates right, & and |
left.  The ^k and ^(k) forms are input sugar only and never appear as AST nodes.
The text of f^k doubles per level, so the parser refuses (ParseError; exit 2
on the command line) a ^k or ^(k), or a ~, @, &, | or -> node, whose text
would pass MAX_SUGAR_TEXT characters, before building it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError

VAR, NEG, CONS, AND, OR, IMP = range(6)

# The name of each connective's table in algebra.tables.
CONN_NAMES = {NEG: "neg", CONS: "cons", AND: "and", OR: "or", IMP: "imp"}

# An atom's name, as the parser reads it and Var accepts it.
_ATOM = r"[A-Za-z][A-Za-z0-9_]*"
_ATOM_RE = re.compile(_ATOM)

# Pretty-printer precedence; higher binds tighter.
_PREC = {IMP: 1, OR: 2, AND: 3, NEG: 4, CONS: 4, VAR: 5}
_BIN_SYMBOL = {AND: " & ", OR: " | ", IMP: " -> "}


class Formula:
    """An interned propositional formula node.

    Do not call directly; use Var/Neg/Cons/And/Or/Imp or parse().  Identity is
    structural equality.  Besides the shape (kind, name for atoms, left and
    right arguments, None where absent), each node caches:

      complexity  - 0 for atoms, +1 per ~/&/|/->, +2 per @
      text        - canonical ASCII rendering with minimal parentheses
      pow_base, pow_height - maximal decomposition f = base^height
      conj_base   - b when f is literally b & ~b, else None

    Nothing else is kept per node.  Subformulas are listed on demand by
    postorder() (each once, after its arguments) or ordered_subformulas()
    (sorted by complexity and text); neither caches its answer.
    """

    __slots__ = ("kind", "name", "left", "right", "complexity", "text",
                 "pow_base", "pow_height", "conj_base")

    def __str__(self):
        return self.text

    def __repr__(self):
        return f"<Formula {self.text!r}>"

_interned: dict = {}


def _parenthesized(child_kind, parent_kind, right_side=False):
    need = _PREC[child_kind] < _PREC[parent_kind]
    if not need and child_kind == parent_kind:
        # Same precedence level: parenthesize against the associativity.
        if parent_kind == IMP:
            need = not right_side
        elif parent_kind in (AND, OR):
            need = right_side
    return need


def _child_text(child, parent_kind, right_side=False):
    if _parenthesized(child.kind, parent_kind, right_side):
        return "(" + child.text + ")"
    return child.text


def _make(kind, name, left, right):
    key = (kind, name, left, right)
    f = _interned.get(key)
    if f is not None:
        return f
    f = Formula.__new__(Formula)
    f.kind = kind
    f.name = name
    f.left = left
    f.right = right
    if kind == VAR:
        f.complexity = 0
        f.text = name
    elif kind == NEG:
        f.complexity = left.complexity + 1
        f.text = "~" + _child_text(left, NEG)
    elif kind == CONS:
        f.complexity = left.complexity + 2
        f.text = "@" + _child_text(left, CONS)
    else:
        f.complexity = left.complexity + right.complexity + 1
        f.text = _child_text(left, kind) + _BIN_SYMBOL[kind] + _child_text(right, kind, True)
    f.conj_base = left if (kind == AND and right.kind == NEG and right.left is left) else None
    if kind == NEG and left.conj_base is not None:
        base = left.conj_base
        f.pow_base = base.pow_base
        f.pow_height = base.pow_height + 1
    else:
        f.pow_base = f
        f.pow_height = 0
    _interned[key] = f
    return f


def Var(name):
    """The atom `name`; ValueError unless the parser reads `name` as an atom,
    so that every formula's text parses back to it."""
    if not _ATOM_RE.fullmatch(name):
        raise ValueError(f"atom name {name!r} is not a letter followed by "
                         "letters, digits or _")
    return _make(VAR, name, None, None)


def Neg(f):
    return _make(NEG, None, f, None)


def Cons(f):
    return _make(CONS, None, f, None)


def And(left, right):
    return _make(AND, None, left, right)


def Or(left, right):
    return _make(OR, None, left, right)


def Imp(left, right):
    return _make(IMP, None, left, right)


# --------------------------------------------------------------------------
# Logics


@dataclass(frozen=True)
class Logic:
    """One of the supported logics: C(n) for n >= 1, MBCCL, or CILA.

    `n` is the hierarchy index; the 3-valued LFIs sit at n = 1.  The truth-value
    domain always has n + 2 elements.
    """

    family: str  # "C", "mbCcl", or "Cila"
    n: int

    @property
    def has_circ(self):
        return self.family != "C"

    @property
    def name(self):
        return f"C{self.n}" if self.family == "C" else self.family

    def __str__(self):
        return self.name


def C(n):
    if n < 1:
        raise ValueError("C_n requires n >= 1")
    return Logic("C", n)


MBCCL = Logic("mbCcl", 1)
CILA = Logic("Cila", 1)


# The largest C_n index parse_logic accepts.  The tables and tableau rules of
# C_n take O(n^3) memory (about 8 MB at n = 32, 58 MB at n = 64); C(n) itself
# stays unbounded for library callers.
MAX_PARSED_N = 32


def parse_logic(name):
    s = name.strip().lower()
    if s == "mbccl":
        return MBCCL
    if s == "cila":
        return CILA
    m = re.fullmatch(r"c(\d+)", s)
    if m and 1 <= int(m.group(1)) <= MAX_PARSED_N:
        return C(int(m.group(1)))
    raise ValueError(f"unknown logic {name!r}; expected C1..C{MAX_PARSED_N}, "
                     "mbCcl or Cila")


def check_signature(logic, *formulas):
    """Raise ValueError when a formula uses @ and `logic` is a C_n, whose
    signature lacks it.  Both decision procedures check their input here."""
    # Only a @ node puts @ in a text: atom names hold none (Var).
    if not logic.has_circ and any("@" in f.text for f in formulas):
        raise ValueError(
            f"consistency connective not in signature of {logic.name}")


# --------------------------------------------------------------------------
# Abbreviations


def pow(f, k):
    """f^k: f^0 = f, f^(k+1) = ~(f^k & ~(f^k)).  Shadows builtins.pow on purpose;
    the numeric builtin is unused in this module."""
    if k < 0:
        raise ValueError("pow exponent must be >= 0")
    for _ in range(k):
        f = Neg(And(f, Neg(f)))
    return f


def powseq(f, k):
    """f^(k) = f^1 & f^2 & ... & f^k, left-nested.  f^(0) = f."""
    if k < 0:
        raise ValueError("powseq exponent must be >= 0")
    if k == 0:
        return f
    out = pow(f, 1)
    for i in range(2, k + 1):
        out = And(out, pow(f, i))
    return out


def strong_neg(f, n):
    """Classical-strength negation inside C_n: ~f & f^(n)."""
    return And(Neg(f), powseq(f, n))


def pow_decompose(f):
    """Maximal (base, height) with f = pow(base, height); height 0 when f is no power."""
    return f.pow_base, f.pow_height


def is_pow1(f):
    """True when f is g^1 for some g, i.e. literally ~(g & ~g)."""
    return f.pow_height >= 1


def contradiction_base(f):
    """b when f is literally b & ~b, else None."""
    return f.conj_base


def complexity(f):
    return f.complexity


# --------------------------------------------------------------------------
# Subformula ordering


def canonical_key(f):
    """Sort key of the canonical formula order: complexity, then text."""
    return (f.complexity, f.text)


def postorder(*roots):
    """Every distinct subformula of `roots`, each once and after its arguments.

    The walk goes left argument before right and root by root, and keeps an
    explicit stack, so a formula's depth is bounded by memory, not by the
    interpreter's recursion limit.  Both decision procedures, the bivaluation
    closure and the tableau's countermodel domain take their subformulas from
    here.
    """
    order = []
    seen = set()
    stack = [(f, False) for f in reversed(roots)]
    while stack:
        f, done = stack.pop()
        if done:
            order.append(f)
        elif f not in seen:
            seen.add(f)
            stack.append((f, True))
            if f.right is not None:
                stack.append((f.right, False))
            if f.left is not None:
                stack.append((f.left, False))
    return order


def ordered_subformulas(goal, premises=()):
    """All distinct subformulas of goal and premises, in `canonical_key` order.

    The secondary key is the canonical rendering, so the order is deterministic
    and reproducible across runs; atoms come first, the goal last (when the goal
    is not itself a premise subformula).
    """
    out = postorder(goal, *premises)
    out.sort(key=canonical_key)
    return out


# --------------------------------------------------------------------------
# Parser

# One scan takes every token: an atom, a number, "->", or any other single
# character other than whitespace, which is a connective, a parenthesis, "^",
# or a character no token starts with.
_TOKEN_RE = re.compile(_ATOM + r"|\d+|->|\S")
_LP, _RP, _POW = 6, 7, 8
_KINDS = {"~": NEG, "¬": NEG, "@": CONS, "∘": CONS, "°": CONS,
          "&": AND, "∧": AND, "|": OR, "∨": OR, "->": IMP, "→": IMP,
          "(": _LP, ")": _RP, "^": _POW}
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
# A binary connective first reduces the pending operators whose kind is at
# most this: ~ and @ (kinds 1 and 2) bind tighter than &, & than |, and
# | than ->; & and | associate left, -> right.  ( is never reduced by it.
_REDUCES = {AND: AND, OR: OR, IMP: OR}


# The longest text that one ^k or ^(k), or one connective node, may
# produce.  The text of f^k at least doubles per level, and a connective
# copies its arguments' texts, so without a bound a few characters of input
# could ask for gigabytes.
MAX_SUGAR_TEXT = 1 << 20

# The most operators the parser holds pending at once: prefix ~ and @, open
# parentheses, and the connectives still waiting for their right argument,
# such as every -> of a right-nested chain.  Left-nested & and | chains are
# reduced as they are read and never count more than one.
MAX_NESTING = 1000

# The parser's search for repeated groups looks at no more candidates and
# compares no more tokens, together, than this many per token of the text.
_RECALL_WORK = 4


class _Unparsed(Exception):
    """Syntax error at token args[1]; parse() turns it into a ParseError at
    that token's character position (position 0 when args[1] is None)."""


def _text_length(kind, left, right=None):
    """len(text) of the node (kind, left, right) without building it."""
    if right is None:
        return 1 + len(left.text) + 2 * _parenthesized(left.kind, kind)
    return (len(left.text) + 2 * _parenthesized(left.kind, kind)
            + len(_BIN_SYMBOL[kind])
            + len(right.text) + 2 * _parenthesized(right.kind, kind, True))


def _pow_text_lengths(f):
    """len(f^1.text), len(f^2.text), ... without building the formulas."""
    size = len(f.text)
    # f^1 = ~(f & ~f), where f may take parentheses twice; from then on
    # f^i is a negation and takes none.
    size = (2 * size + 7 + 2 * _parenthesized(f.kind, AND)
            + 2 * _parenthesized(f.kind, NEG))
    while True:
        yield size
        size = 2 * size + 7


def _sugar_exponent(f, digits, seq, at):
    """k of f^k, or of f^(k) when `seq`; _Unparsed at token `at`, the ^,
    when the text of the result would be longer than MAX_SUGAR_TEXT."""
    # f^100 and up is past the limit for every f, so a longer digit string
    # is never converted to an int.
    significant = digits.lstrip("0") or "0"
    k = int(significant) if len(significant) <= 2 else None
    size = len(f.text)
    for i, power in enumerate(_pow_text_lengths(f)):
        if i == k:
            return k
        # f^(k) = f^1 & ... & f^k: the powers plus k - 1 separators " & "
        size = power + (size + 3 if seq and i else 0)
        if size > MAX_SUGAR_TEXT:
            raise _Unparsed("exponent too large: the power's text would pass "
                            f"{MAX_SUGAR_TEXT} characters", at)


def _recall(candidates, tokens, i, room, budget):
    """(formula, token count, budget left) of the first recorded group in
    `candidates` whose tokens and closing ")" are those after the "(" at
    token i, formula None when there is none.  Only a group of at most
    `room` tokens is taken: its token count bounds how many operators it
    holds pending at once.  A group's tokens are balanced, so that ")"
    closes the "(" at i.  Each candidate looked at costs 1 of `budget` and
    each token compared 1 more; the search stops when it is spent."""
    for start, n, f in candidates:
        if budget <= 0:
            break
        budget -= 1
        end = i + n + 1
        if n <= room and end < len(tokens) and tokens[end] == ")":
            # Groups that differ mostly do so in their first tokens, such
            # as the ~( runs of towers of two heights.
            budget -= 16
            if n < 16 or tokens[i + 1:i + 17] == tokens[start:start + 16]:
                budget -= n
                if tokens[i + 1:end] == tokens[start:start + n]:
                    return f, n, budget
    return None, 0, budget


def _parse_tokens(tokens, logic):
    """The formula of `tokens`, which end with "" for the end of input.

    One loop with an explicit stack of pending operators, each a (kind,
    token index) pair, and of the left arguments of the pending binary
    ones; `f` is the formula read last.

    A parenthesized group that holds a group is recorded under its tokens
    when it closes.  A later "(" followed by the same tokens and ")" takes
    the recorded formula and jumps past that ")" (`_recall`), so a repeated
    group, such as each level of a tower's text, is read once.  What is
    inside parentheses parses the same wherever it stands, except for the
    pending operators it adds, so a jump is taken only when the group's
    token count, on top of the operators pending, stays within MAX_NESTING.
    The search for repeats costs at most a few times the tokens: when its
    budget is spent, the rest of the text is read token by token.
    """
    no_circ = logic is not None and not logic.has_circ
    ops = []
    lefts = []
    # Recorded groups by the eight tokens from their first on, each as
    # (index of its first token, token count, formula).
    groups = {}
    closed = -1  # the index of the last ")" read
    budget = _RECALL_WORK * len(tokens)
    i = 0
    while True:
        # A formula: prefix ~ and @ and open parentheses, then an atom or
        # a recorded group.
        tok = tokens[i]
        kind = _KINDS.get(tok)
        while kind == NEG or kind == CONS or kind == _LP:
            if kind == _LP and groups and budget > 0:
                found, n, budget = _recall(
                    groups.get(tuple(tokens[i + 1:i + 9]), ()), tokens, i,
                    MAX_NESTING - len(ops), budget)
                if found is not None:
                    f = found
                    i += n + 2
                    closed = i - 1
                    break
            elif kind == CONS and no_circ:
                raise _Unparsed("consistency connective not in signature of "
                                f"{logic.name}", i)
            ops.append((kind, i))
            if len(ops) > MAX_NESTING:
                raise _Unparsed("formula nested too deeply", None)
            i += 1
            tok = tokens[i]
            kind = _KINDS.get(tok)
        else:
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
                at = ops.pop()[1]
                # Record the group when the last ")" lies inside it.
                if closed > at:
                    groups.setdefault(tuple(tokens[at + 1:at + 9]), []).append(
                        (at + 1, i - at - 1, f))
                closed = i
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


def parse(text, logic=None):
    """Parse a formula.  When `logic` is a C_n, the @ connective is rejected.

    Every error is a ParseError at the offending character.  A formula
    that holds more than MAX_NESTING (1,000) operators pending at once, such
    as 1,001 nested ~, @ or parentheses or a chain of 1,001 right-nested ->,
    raises "formula nested too deeply" at position 0, whatever the caller's
    recursion limit.

    A parenthesized group that holds a group and repeats an earlier group
    of the same text token for token is read once, so the written-out text
    of a tower, which doubles per level, parses at the cost of its distinct
    groups; a group of more than MAX_NESTING tokens is read, though its own
    repeats are not.  The record of groups lives for one call.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    try:
        return _parse_tokens(tokens, logic)
    except _Unparsed as err:
        message, at = err.args
    # Only an error needs positions.  A character no token starts with is
    # reported first, wherever it is.
    starts = [m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)]
    for tok, start in zip(tokens[:-1], starts):
        if tok not in _KINDS and tok[0] not in _LETTERS and not tok.isdecimal():
            raise ParseError(f"unexpected character {tok!r}", start)
    raise ParseError(message, 0 if at is None else starts[at])


# --------------------------------------------------------------------------
# Random formula generation (test corpora, CLI axiom instances)


def random_formula(rng, logic, connectives, atoms=("p", "q")):
    """A uniform-ish random formula with exactly `connectives` connective nodes.

    @ counts as one connective here (generation-side convenience; the complexity
    measure still charges it 2).  A node draws its connective, then a binary
    one the size of its left argument, before its arguments draw theirs,
    left first.  The walk keeps an explicit stack, so the size is bounded by
    memory, not by the interpreter's recursion limit.
    """
    if connectives < 0:
        raise ValueError("connectives must be >= 0")
    ops = ([NEG, CONS] if (logic is None or logic.has_circ) else [NEG]) + [AND, OR, IMP]
    # `todo` holds the sizes still to draw and, negated, the kind of each
    # node whose arguments are still being drawn; `made` holds the finished
    # formulas, left to right.
    made = []
    todo = [connectives]
    while todo:
        k = todo.pop()
        if k < 0:
            kind = -k
            if kind == NEG or kind == CONS:
                made.append(_make(kind, None, made.pop(), None))
            else:
                right = made.pop()
                made.append(_make(kind, None, made.pop(), right))
        elif k == 0:
            made.append(Var(rng.choice(atoms)))
        else:
            op = rng.choice(ops)
            todo.append(-op)
            if op == NEG or op == CONS:
                todo.append(k - 1)
            else:
                split = rng.randint(0, k - 1)
                todo += (k - 1 - split, split)
    return made[0]
