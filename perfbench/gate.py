"""Correctness gate: checks one `dacosta decide --format json` answer.

Runs outside the timed span, and calls no entry point the tracer wraps.
"""

from __future__ import annotations

import json

from dacosta.algebra import value_names
from dacosta.bivaluation import check_bivaluation, valuation_to_bivaluation
from dacosta.truthtable import check_valuation

EXIT_ENTAILED, EXIT_NOT_ENTAILED, EXIT_DISAGREEMENT = 0, 1, 4

# Outcomes that count as failed but say nothing against the answer's truth.
FAILED = ("cap", "disagreement")


def check(q, logic, goal, premises, code, output):
    """Outcome of one answer: "ok", one of FAILED, or a "wrong: ..." string.

    `q` is the generated query, `goal` and `premises` the parsed formulas,
    `code` the exit code of `cli.run` (None when a cap was hit) and `output`
    the JSON it printed.
    """
    if code is None:
        return "cap"
    if code == EXIT_DISAGREEMENT:
        return "disagreement"
    if code not in (EXIT_ENTAILED, EXIT_NOT_ENTAILED):
        return f"wrong: exit code {code}"
    payload = json.loads(output)
    if payload["exit"] != code or payload["agree"] is not True:
        return f"wrong: exit {payload['exit']} / agree {payload['agree']} for code {code}"
    entailed = payload["entailed"]
    if entailed != (code == EXIT_ENTAILED):
        return "wrong: exit code does not match the verdict"
    if q["expect"] == "valid" and not entailed:
        return "wrong: known-valid query answered not entailed"
    if q["expect"] == "not entailed" and entailed:
        return "wrong: known non-entailment answered entailed"
    model = payload["countermodel"]
    if entailed:
        return "ok" if model is None else "wrong: countermodel on an entailed goal"
    if model is None:
        return "wrong: no countermodel for a non-entailment"
    return replay(logic, goal, premises, model)


def replay(logic, goal, premises, model):
    """Replay a JSON countermodel: value names back to indices, then the
    table semantics (restricted valuation, premises designated, goal not) and
    the independent two-valued semantics of its first-coordinate projection."""
    index = {name: i for i, name in enumerate(value_names(logic))}
    formulas = subformulas(goal, premises)
    assignment = {}
    for text, name in model.items():
        if name not in index:
            return f"wrong: countermodel value {name!r} not in {logic.name}"
        if text not in formulas:
            return f"wrong: countermodel names {text!r}, no subformula of the query"
        assignment[formulas[text]] = index[name]
    if goal not in assignment or any(p not in assignment for p in premises):
        return "wrong: countermodel misses the goal or a premise"
    violations = check_valuation(logic, assignment)
    if violations:
        return f"wrong: countermodel breaks the tables: {violations[0][2]}"
    designated = logic.n
    if any(assignment[p] > designated for p in premises):
        return "wrong: countermodel leaves a premise undesignated"
    if assignment[goal] <= designated:
        return "wrong: countermodel designates the goal"
    if check_bivaluation(logic, valuation_to_bivaluation(logic, assignment)):
        return "wrong: countermodel projection breaks the bivaluation clauses"
    return "ok"


def subformulas(goal, premises):
    """Text -> formula for every subformula of the goal and premises."""
    out = {}
    stack = [goal, *premises]
    while stack:
        f = stack.pop()
        if f.text not in out:
            out[f.text] = f
            stack.extend(g for g in (f.left, f.right) if g is not None)
    return out
