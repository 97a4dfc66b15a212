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
    structural equality.  Besides the shape, each node caches:

      complexity  - 0 for atoms, +1 per ~/&/|/->, +2 per @
      text        - canonical ASCII rendering with minimal parentheses
      pow_base, pow_height - maximal decomposition f = base^height
      conj_base   - b when f is literally b & ~b, else None
    """

    __slots__ = ("kind", "name", "left", "right", "complexity", "text",
                 "pow_base", "pow_height", "conj_base", "_subs")

    def __str__(self):
        return self.text

    def __repr__(self):
        return f"<Formula {self.text!r}>"

    def atoms(self):
        seen = set()
        out = []
        stack = [self]
        while stack:
            f = stack.pop()
            if f.kind == VAR:
                if f.name not in seen:
                    seen.add(f.name)
                    out.append(f.name)
            elif f.kind in (NEG, CONS):
                stack.append(f.left)
            else:
                stack.append(f.right)
                stack.append(f.left)
        return sorted(out)


_interned: dict = {}


def _child_text(child, parent_kind, right_side=False):
    need = _PREC[child.kind] < _PREC[parent_kind]
    if not need and child.kind == parent_kind:
        # Same precedence level: parenthesize against the associativity.
        if parent_kind == IMP:
            need = not right_side
        elif parent_kind in (AND, OR):
            need = right_side
    return "(" + child.text + ")" if need else child.text


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
    f._subs = None
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


def _collect(f, seen, out):
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        out.append(g)
        if g.kind in (NEG, CONS):
            stack.append(g.left)
        elif g.kind != VAR:
            stack.append(g.left)
            stack.append(g.right)


def ordered_subformulas(goal, premises=()):
    """All distinct subformulas of goal and premises, sorted by (complexity, text).

    The secondary key is the canonical rendering, so the order is deterministic
    and reproducible across runs; atoms come first, the goal last (when the goal
    is not itself a premise subformula).
    """
    if not premises:
        cached = goal._subs
        if cached is not None:
            return list(cached)
    seen = set()
    out = []
    _collect(goal, seen, out)
    for p in premises:
        _collect(p, seen, out)
    out.sort(key=lambda g: (g.complexity, g.text))
    if not premises:
        goal._subs = tuple(out)
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

    def parse(self):
        f = self.imp()
        t = self.peek()
        if t[0] != "end":
            raise ParseError(f"unexpected {t[1]!r} after formula", t[2])
        return f

    def imp(self):
        left = self.disj()
        if self.peek()[0] == "imp":
            self.next()
            return Imp(left, self.imp())
        return left

    def disj(self):
        f = self.conj()
        while self.peek()[0] == "or":
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self):
        f = self.unary()
        while self.peek()[0] == "and":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self):
        t = self.peek()
        if t[0] == "neg":
            self.next()
            return Neg(self.unary())
        if t[0] == "cons":
            self.next()
            if self.logic is not None and not self.logic.has_circ:
                raise ParseError(
                    f"consistency connective not in signature of {self.logic.name}", t[2])
            return Cons(self.unary())
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
            return pow(f, int(t[1]))
        if (t[0] == "lp" and self.tokens[self.i + 1][0] == "num"
                and self.tokens[self.i + 2][0] == "rp"):
            self.next()
            k = int(self.next()[1])
            self.next()
            return powseq(f, k)
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
