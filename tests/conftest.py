"""Shared fixtures and corpus builders for the test suite."""

from __future__ import annotations

import random

import pytest

from dacosta.formula import (
    And, C, CILA, Imp, MBCCL, Neg, Cons, Or, Var, random_formula,
)

ALL_LOGICS = [C(1), C(2), C(3), MBCCL, CILA]


@pytest.fixture(params=ALL_LOGICS, ids=[lg.name for lg in ALL_LOGICS])
def logic(request):
    return request.param


def enumerate_formulas(max_conn, atoms=("p", "q"), with_circ=False):
    """Every formula with at most `max_conn` connective nodes, by size.

    @ counts as one node here (it is one grammar production); the result is
    grouped size-by-size so callers can slice exhaustive corpora.
    """
    by_size = {0: [Var(a) for a in atoms]}
    for size in range(1, max_conn + 1):
        out = []
        for f in by_size[size - 1]:
            out.append(Neg(f))
            if with_circ:
                out.append(Cons(f))
        for ls in range(size):
            rs = size - 1 - ls
            for a in by_size[ls]:
                for b in by_size[rs]:
                    out.extend((And(a, b), Or(a, b), Imp(a, b)))
        by_size[size] = out
    return [f for fs in by_size.values() for f in fs]


def random_corpus(logic, count, connectives, seed, atoms=("p", "q", "r")):
    rng = random.Random(seed)
    return [random_formula(rng, logic, connectives=rng.randint(1, connectives),
                           atoms=atoms)
            for _ in range(count)]


def subformula_set(*roots):
    """The subformulas of `roots` as a set, by plain recursion (a reference
    for the iterative walk; keep the formulas shallow)."""
    out = set()

    def walk(f):
        out.add(f)
        for child in (f.left, f.right):
            if child is not None:
                walk(child)

    for root in roots:
        walk(root)
    return out


def row_assignment(table, row):
    return {table.columns[i]: row.values[i] for i in range(len(table.columns))}
