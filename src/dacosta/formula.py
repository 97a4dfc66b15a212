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

_KIND_NAMES = {VAR: "var", NEG: "neg", CONS: "cons", AND: "and", OR: "or", IMP: "imp"}

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

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<atom>[A-Za-z][A-Za-z0-9_]*)
  | (?P<num>\d+)
  | (?P<imp>->|→)
  | (?P<neg>~|¬)
  | (?P<cons>@|∘|°)
  | (?P<and>&|∧)
  | (?P<or>\||∨)
  | (?P<lp>\()
  | (?P<rp>\))
  | (?P<pow>\^)
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# The longest text that one ^k or ^(k), or one connective node, may
# produce.  The text of f^k at least doubles per level, and a connective
# copies its arguments' texts, so without a bound a few characters of input
# could ask for gigabytes.
MAX_SUGAR_TEXT = 1 << 20


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


def _sugar_exponent(f, digits, seq, pos):
    """k of f^k, or of f^(k) when `seq`; ParseError at `pos` when the text
    of the result would be longer than MAX_SUGAR_TEXT characters."""
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
            raise ParseError("exponent too large: the power's text would pass "
                             f"{MAX_SUGAR_TEXT} characters", pos)


class _Parser:
    def __init__(self, text, logic):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.logic = logic

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, kind, what):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {what}, found {t[1]!r}" if t[1] else f"expected {what}", t[2])
        return t

    def node(self, kind, left, right, pos):
        """The node (kind, left, right); ParseError at `pos`, the place of
        its connective, when its text would pass MAX_SUGAR_TEXT characters."""
        # parentheses and the connective add at most 8 characters, so the
        # exact length is needed only near the limit
        size = len(left.text) + (0 if right is None else len(right.text))
        if (size + 8 > MAX_SUGAR_TEXT
                and _text_length(kind, left, right) > MAX_SUGAR_TEXT):
            raise ParseError("formula too long: its text would pass "
                             f"{MAX_SUGAR_TEXT} characters", pos)
        return _make(kind, None, left, right)

    def parse(self):
        f = self.imp()
        t = self.peek()
        if t[0] != "end":
            raise ParseError(f"unexpected {t[1]!r} after formula", t[2])
        return f

    def imp(self):
        left = self.disj()
        if self.peek()[0] == "imp":
            pos = self.next()[2]
            return self.node(IMP, left, self.imp(), pos)
        return left

    def disj(self):
        f = self.conj()
        while self.peek()[0] == "or":
            pos = self.next()[2]
            f = self.node(OR, f, self.conj(), pos)
        return f

    def conj(self):
        f = self.unary()
        while self.peek()[0] == "and":
            pos = self.next()[2]
            f = self.node(AND, f, self.unary(), pos)
        return f

    def unary(self):
        t = self.peek()
        if t[0] == "neg":
            self.next()
            return self.node(NEG, self.unary(), None, t[2])
        if t[0] == "cons":
            self.next()
            if self.logic is not None and not self.logic.has_circ:
                raise ParseError(
                    f"consistency connective not in signature of {self.logic.name}", t[2])
            return self.node(CONS, self.unary(), None, t[2])
        return self.postfix()

    def postfix(self):
        f = self.primary()
        while self.peek()[0] == "pow":
            pos = self.next()[2]
            f = self.apply_pow(f, pos)
        return f

    def apply_pow(self, f, pos):
        # f^3 is pow, f^(3) is powseq.
        t = self.peek()
        if t[0] == "num":
            self.next()
            return pow(f, _sugar_exponent(f, t[1], False, pos))
        if (t[0] == "lp" and self.tokens[self.i + 1][0] == "num"
                and self.tokens[self.i + 2][0] == "rp"):
            self.next()
            digits = self.next()[1]
            self.next()
            return powseq(f, _sugar_exponent(f, digits, True, pos))
        raise ParseError("expected integer after '^'", t[2])

    def primary(self):
        t = self.next()
        if t[0] == "atom":
            return Var(t[1])
        if t[0] == "lp":
            f = self.imp()
            self.expect("rp", "')'")
            return f
        raise ParseError(f"expected a formula, found {t[1]!r}" if t[1] else "unexpected end of input", t[2])


def parse(text, logic=None):
    """Parse a formula.  When `logic` is a C_n, the @ connective is rejected.

    Nesting deeper than the interpreter's recursion limit raises ParseError
    at position 0.
    """
    try:
        return _Parser(text, logic).parse()
    except RecursionError:
        raise ParseError("formula nested too deeply", 0) from None


# --------------------------------------------------------------------------
# Random formula generation (test corpora, CLI axiom instances)


def random_formula(rng, logic, connectives, atoms=("p", "q")):
    """A uniform-ish random formula with exactly `connectives` connective nodes.

    @ counts as one connective here (generation-side convenience; the complexity
    measure still charges it 2).
    """
    unary = [NEG, CONS] if (logic is None or logic.has_circ) else [NEG]
    binary = [AND, OR, IMP]

    def gen(k):
        if k == 0:
            return Var(rng.choice(atoms))
        op = rng.choice(unary + binary)
        if op in (NEG, CONS):
            child = gen(k - 1)
            return Neg(child) if op == NEG else Cons(child)
        split = rng.randint(0, k - 1)
        l, r = gen(split), gen(k - 1 - split)
        return And(l, r) if op == AND else Or(l, r) if op == OR else Imp(l, r)

    return gen(connectives)
