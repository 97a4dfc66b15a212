"""Hilbert-calculus axiom schemata for C_n, mbCcl and Cila.

Schemata are templates over metavariable atoms (A, B, C); `instantiate`
substitutes concrete formulas homomorphically.  Every instance of every
schema of a logic is valid in that logic's semantics, which the test suite
exercises through both decision procedures.  The registry also records the
separating axioms: mbCcl lacks cf and ci (their instances have countermodels
there), Cila has them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DomainError
from .formula import (VAR, NEG, CONS, AND, OR, IMP, And, Cons, Imp, Neg, Or,
                      Var, postorder, powseq, random_formula)

_UNARY = {NEG: Neg, CONS: Cons}
_BINARY = {AND: And, OR: Or, IMP: Imp}


@dataclass(frozen=True)
class Schema:
    name: str
    metavars: tuple
    template: object
    logic: object

    @property
    def arity(self):
        return len(self.metavars)

    def __str__(self):
        return f"{self.name}({', '.join(self.metavars)}) = {self.template.text}"


def instantiate(schema, assignment):
    """Substitute formulas for the schema's metavariables.

    `assignment` maps metavariable names to formulas and must cover every
    metavariable occurring in the template (DomainError otherwise, naming the
    leftmost one missing).  The template is mapped in `postorder`, so its
    depth is not bounded by the recursion limit.
    """
    out = {}
    for f in postorder(schema.template):
        if f.kind == VAR:
            out[f] = assignment.get(f.name)
            if out[f] is None:
                raise DomainError(
                    f"schema {schema.name} needs metavariable '{f.name}'", f)
        elif f.right is None:
            out[f] = _UNARY[f.kind](out[f.left])
        else:
            out[f] = _BINARY[f.kind](out[f.left], out[f.right])
    return out[schema.template]


def schemata(logic):
    """The axiom schemata of the logic, in presentation order."""
    A, B, C = Var("A"), Var("B"), Var("C")
    base = [
        Schema("Ax1", ("A", "B"), Imp(A, Imp(B, A)), logic),
        Schema("Ax2", ("A", "B", "C"),
               Imp(Imp(A, Imp(B, C)), Imp(Imp(A, B), Imp(A, C))), logic),
        Schema("Ax3", ("A", "B"), Imp(A, Imp(B, And(A, B))), logic),
        Schema("Ax4", ("A", "B"), Imp(And(A, B), A), logic),
        Schema("Ax5", ("A", "B"), Imp(And(A, B), B), logic),
        Schema("Ax6", ("A", "B"), Imp(A, Or(A, B)), logic),
        Schema("Ax7", ("A", "B"), Imp(B, Or(A, B)), logic),
        Schema("Ax8", ("A", "B", "C"),
               Imp(Imp(A, C), Imp(Imp(B, C), Imp(Or(A, B), C))), logic),
        Schema("Ax9", ("A",), Or(A, Neg(A)), logic),
    ]
    dummett = Schema("Dummett", ("A", "B"), Or(A, Imp(A, B)), logic)
    if logic.family == "C":
        n = logic.n
        return base + [
            Schema("Ax10", ("A",), Imp(Neg(Neg(A)), A), logic),
            Schema(f"bc_{n}", ("A", "B"),
                   Imp(powseq(A, n), Imp(A, Imp(Neg(A), B))), logic),
            Schema(f"dc_{n}", ("A", "B"),
                   Imp(powseq(A, n),
                       Imp(Imp(B, A), Imp(Imp(B, Neg(A)), Neg(B)))), logic),
            Schema(f"P_{n}", ("A", "B"),
                   Imp(And(powseq(A, n), powseq(B, n)),
                       And(And(powseq(And(A, B), n), powseq(Or(A, B), n)),
                           powseq(Imp(A, B), n))), logic),
            dummett,
        ]
    out = base + [
        dummett,
        Schema("bc1", ("A", "B"),
               Imp(Cons(A), Imp(A, Imp(Neg(A), B))), logic),
        Schema("cl", ("A",), Imp(Neg(And(A, Neg(A))), Cons(A)), logic),
    ]
    if logic.family == "Cila":
        out += [
            Schema("ci", ("A",), Imp(Neg(Cons(A)), And(A, Neg(A))), logic),
            Schema("cf", ("A",), Imp(Neg(Neg(A)), A), logic),
            Schema("ca_and", ("A", "B"),
                   Imp(And(Cons(A), Cons(B)), Cons(And(A, B))), logic),
            Schema("ca_or", ("A", "B"),
                   Imp(And(Cons(A), Cons(B)), Cons(Or(A, B))), logic),
            Schema("ca_imp", ("A", "B"),
                   Imp(And(Cons(A), Cons(B)), Cons(Imp(A, B))), logic),
        ]
    return out


def schema_by_name(logic, name):
    for s in schemata(logic):
        if s.name == name:
            return s
    raise KeyError(f"no schema named {name!r} in {logic.name}")


def random_instance(schema, rng, connectives=3, atoms=("p", "q", "r", "s")):
    """Instantiate with random substituents of at most `connectives` connectives
    each (signature follows the schema's logic)."""
    assignment = {
        mv: random_formula(rng, schema.logic, rng.randint(0, connectives), atoms)
        for mv in schema.metavars
    }
    return instantiate(schema, assignment)


def instance_corpus(logic, per_schema, rng=None, connectives=3,
                    atoms=("p", "q", "r", "s")):
    """(schema, instance) pairs: `per_schema` random instances of each schema."""
    if rng is None:
        rng = random.Random(0)
    out = []
    for s in schemata(logic):
        for _ in range(per_schema):
            out.append((s, random_instance(s, rng, connectives, atoms)))
    return out
