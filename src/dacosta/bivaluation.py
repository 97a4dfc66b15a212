"""Two-valued semantics: bivaluation clause systems and snapshot conversions.

A bivaluation is a map from formulas to {0, 1} constrained by a clause system
rather than by truth functions.  The systems here:

  Cn      clauses 1-8 below with the hierarchy index n (the original
          semantics of da Costa's C_n)
  mbC     classical positive clauses + negation floor + the consistency
          operator's meaning (checker only)
  mbCci   mbC + inconsistency reading of ~@a (checker only)
  mbCcl   mbC + @ from provable non-contradiction
  Cila    mbCcl + mbCci's clause + double negation + Boolean propagation

Snapshots and bivaluations translate into each other: the snapshot of a at a
bivaluation b is (b(a), b(~a), b(a^1), ..., b(a^(n-1))), and conversely the
first snapshot coordinate of a restricted valuation is a bivaluation.  The
conversions below implement both directions over finite domains; `closure`
produces the standard domain for that exchange.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import algebra
from .errors import DomainError
from .formula import (NEG, CONS, AND, OR, IMP, And, Cons, Neg, Logic,
                      canonical_key, parse, postorder, pow)


@dataclass(frozen=True)
class Violation:
    clause: str
    formulas: tuple
    message: str

    def __str__(self):
        where = ", ".join(f.text for f in self.formulas)
        return f"{self.clause}: {self.message} [{where}]"


def closure(logic, seeds):
    """Companion closure of the seed formulas, sorted canonically.

    Each seed g contributes ~g, g & ~g and g^k for k <= n; the Sigma-circ
    logics additionally contribute @g and ~@g.  The union is then closed under
    subformulas.
    """
    roots = []
    for g in seeds:
        roots += [g, Neg(g), And(g, Neg(g))]
        roots += [pow(g, k) for k in range(1, logic.n + 1)]
        if logic.has_circ:
            roots += [Cons(g), Neg(Cons(g)), Neg(And(g, Neg(g)))]
    return sorted(postorder(*roots), key=canonical_key)


# --------------------------------------------------------------------------
# Clause checkers.  Every checker fires only when all mentioned formulas are
# in the bivaluation's domain, so partial domains are fine.


def _positive_clauses(b, out):
    for f, v in b.items():
        if f.kind == AND and f.left in b and f.right in b:
            if v != (b[f.left] and b[f.right]):
                out.append(Violation("and", (f,), "b(x & y) must be b(x) min b(y)"))
        elif f.kind == OR and f.left in b and f.right in b:
            if v != (b[f.left] or b[f.right]):
                out.append(Violation("or", (f,), "b(x | y) must be b(x) max b(y)"))
        elif f.kind == IMP and f.left in b and f.right in b:
            if v != ((1 - b[f.left]) or b[f.right]):
                out.append(Violation("imp", (f,), "b(x -> y) must be classical"))


def _neg_floor(b, out):
    # b(x) = 0 implies b(~x) = 1: no truth-value gaps.
    for f in b:
        if f.kind == NEG and f.left in b and b[f.left] == 0 and b[f] == 0:
            out.append(Violation("neg-floor", (f,), "x and ~x cannot both be 0"))


def _double_neg(b, out):
    for f in b:
        if f.kind == NEG and f.left.kind == NEG and f.left.left in b:
            if b[f] == 1 and b[f.left.left] == 0:
                out.append(Violation("double-neg", (f,), "b(~~x)=1 forces b(x)=1"))


def _pow_collapse(b, n, out):
    # b(x^(n-1)) = b(~(x^(n-1))) iff b(x^n) = 0.
    for f in b:
        lower = pow(f, n - 1)
        if lower not in b:
            continue
        neg_lower = Neg(lower)
        upper = pow(f, n)
        if neg_lower in b and upper in b:
            same = b[lower] == b[neg_lower]
            if same != (b[upper] == 0):
                out.append(Violation(
                    "pow-collapse", (f,),
                    f"b(x^{n}) must be 0 exactly when x^{n-1} behaves inconsistently"))


def _pow1_marks_inconsistency(b, out):
    # b(x) = b(~x) iff b(~(x^1)) = 1.
    for f in b:
        nf = Neg(f)
        marker = Neg(pow(f, 1))
        if nf in b and marker in b:
            if (b[f] == b[nf]) != (b[marker] == 1):
                out.append(Violation(
                    "pow1-mark", (f,), "~(x^1) must hold exactly on inconsistent x"))


def _boolean_propagation(b, out):
    for f in b:
        if f.kind not in (AND, OR, IMP):
            continue
        x, y = f.left, f.right
        nx, ny, nf = Neg(x), Neg(y), Neg(f)
        if x in b and y in b and nx in b and ny in b and nf in b:
            if b[x] != b[nx] and b[y] != b[ny] and b[f] == b[nf]:
                out.append(Violation(
                    "boolean-prop", (f,),
                    "a compound of consistently-valued parts must be consistently valued"))


def _circ_meaning(b, out):
    # b(@x) = 1 implies b(x) = 0 or b(~x) = 0.
    for f in b:
        if f.kind == CONS and f.left in b:
            nx = Neg(f.left)
            if nx in b and b[f] == 1 and b[f.left] == 1 and b[nx] == 1:
                out.append(Violation(
                    "circ", (f,), "@x rules out x and ~x holding together"))


def _neg_circ_meaning(b, out):
    # b(~@x) = 1 implies b(x) = 1 and b(~x) = 1.
    for f in b:
        if f.kind == NEG and f.left.kind == CONS:
            x = f.left.left
            nx = Neg(x)
            if x in b and nx in b and b[f] == 1 and not (b[x] == 1 and b[nx] == 1):
                out.append(Violation(
                    "neg-circ", (f,), "~@x asserts both x and ~x"))


def _noncontradiction_gives_circ(b, out):
    # b(~(x & ~x)) = 1 implies b(@x) = 1.
    for f in b:
        if f.kind == NEG and f.left.conj_base is not None:
            x = f.left.conj_base
            cx = Cons(x)
            if cx in b and b[f] == 1 and b[cx] == 0:
                out.append(Violation(
                    "noncontra-circ", (f,), "~(x & ~x) holding forces @x"))


def _systems(logic):
    if isinstance(logic, Logic):
        name = "Cn" if logic.family == "C" else logic.family
        n = logic.n
    else:
        name = str(logic)
        n = 1
    checks = []
    if name == "Cn":
        def pow_n(b, out):
            _pow_collapse(b, n, out)
        checks = [_positive_clauses, _neg_floor, _double_neg, pow_n,
                  _pow1_marks_inconsistency, _boolean_propagation]
    elif name == "mbC":
        checks = [_positive_clauses, _neg_floor, _circ_meaning]
    elif name == "mbCci":
        checks = [_positive_clauses, _neg_floor, _circ_meaning, _neg_circ_meaning]
    elif name == "mbCcl":
        checks = [_positive_clauses, _neg_floor, _circ_meaning,
                  _noncontradiction_gives_circ]
    elif name == "Cila":
        checks = [_positive_clauses, _neg_floor, _circ_meaning, _neg_circ_meaning,
                  _noncontradiction_gives_circ, _double_neg, _boolean_propagation]
    else:
        raise ValueError(f"unknown clause system {logic!r}")
    return checks


def check_bivaluation(logic, b):
    """All clause violations of bivaluation `b` under the logic's system.

    `logic` is a Logic, or one of the checker-only system names
    "mbC"/"mbCci"/"mbCcl"/"Cila".  Returns a list of Violation records; empty
    means `b` satisfies every clause instance whose formulas lie in b's domain.
    """
    for f, v in b.items():
        if v not in (0, 1):
            return [Violation("range", (f,), f"bivaluations map to 0/1, got {v!r}")]
    out = []
    for check in _systems(logic):
        check(b, out)
    return out


# --------------------------------------------------------------------------
# Conversions


def valuation_to_bivaluation(logic, valuation):
    """Project a valuation (Valuation or formula->index dict) to 0/1.

    The bivaluation value of a formula is the first coordinate of its
    snapshot, i.e. 1 exactly on designated values.
    """
    items = valuation.items() if hasattr(valuation, "items") else valuation
    snaps = algebra.snapshots(logic.n)
    return {f: snaps[v][0] for f, v in dict(items).items()}


def bivaluation_to_valuation(logic, b, formulas=None):
    """Assemble snapshots from a bivaluation.

    For each target formula a, the snapshot is (b(a), b(~a), b(a^1), ...,
    b(a^(n-1))); every coordinate formula must be in b's domain.  `b` is a
    finite map, or a callable deciding membership (a total bivaluation given
    as a decision procedure; then `formulas` is required).  With
    `formulas=None` the targets default to every domain formula whose
    coordinates are all present; an explicit target with a missing coordinate
    raises DomainError.  A coordinate combination that is not a snapshot
    (impossible when `b` passes check_bivaluation over a closed domain) raises
    ValueError.
    """
    n = logic.n
    snaps = algebra.snapshots(n)
    index = {s: i for i, s in enumerate(snaps)}
    if callable(b) and not hasattr(b, "keys"):
        if formulas is None:
            raise DomainError(
                "a callable bivaluation needs an explicit `formulas` list")
        fn = b
        lookup = lambda g: (True, int(fn(g)))
    else:
        lookup = lambda g: (g in b, b[g] if g in b else None)

    def coords(f):
        needed = [f, Neg(f)] + [pow(f, k) for k in range(1, n)]
        vec = []
        for g in needed:
            present, val = lookup(g)
            if not present:
                return None, g
            vec.append(val)
        return tuple(vec), None

    targets = list(b) if formulas is None else list(formulas)
    assignment = {}
    for f in targets:
        vec, missing = coords(f)
        if vec is None:
            if formulas is None:
                continue
            raise DomainError(
                f"closure formula missing from b's domain: {missing.text}",
                formula=missing)
        v = index.get(vec)
        if v is None:
            raise ValueError(
                f"coordinates {vec} of {f.text} do not form a snapshot; "
                "the bivaluation breaks its clause system")
        assignment[f] = v
    from .truthtable import Valuation
    return Valuation(logic, assignment)


# --------------------------------------------------------------------------
# JSON import/export


def bivaluation_to_json(b):
    return json.dumps({f.text: v for f, v in
                       sorted(b.items(), key=lambda kv: canonical_key(kv[0]))})


def bivaluation_from_json(text, logic=None):
    raw = json.loads(text)
    out = {}
    for k, v in raw.items():
        if v not in (0, 1):
            raise ValueError(f"bivaluations map to 0/1, got {v!r} for {k!r}")
        out[parse(k, logic)] = int(v)
    return out
