"""Seeded query generator for the entailment benchmark.

A workload is an endless sequence of blocks.  Block `i` of a workload is a
pure function of (workload, seed, i): every block is one stratified round
over the workload's query classes, shuffled, so any window of whole blocks
carries the same mix.  Queries leave this module as formula *text* only; the
measuring process parses them itself.

Axiom instances are stratified across blocks too.  A substituent's top-level
shape (its size, and its main connective) is what mostly sets the cost of
proving an instance: in C4 `Ax2`, a conjunction for the first metavariable
costs five times an atom, and conjunctions for the first two cost sixteen
times two atoms.  Drawn independently per block, these shapes made a
run's mix of heavy instances, and so its figures, swing from seed to seed.
Here each metavariable of each schema takes every shape of one cycle once
per window of consecutive blocks, in a seeded order (a Latin hypercube over
the metavariables), in the proportions `axioms.random_instance` draws them.
Atoms, the pairing of shapes across metavariables and everything below the
top level stay random.

Run as a script, it prints blocks as JSON (one block per line):

    python3 perfbench/workloads.py --workload random-refute --seed 1 --first 0 --count 10

The benchmark runs it in a child process so that the formulas it builds do
not pre-fill the intern table of the process being measured.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

WORKLOADS = ("axiom-proofs", "random-refute")

# Axiom schemata: every logic with an axiom registry up to C4.  Substituent
# sizes shrink with the domain: 3-connective C3/C4 instances take tens of
# seconds in the tableau, and 2-connective C4 instances (up to 4 s and 260k
# nodes) left a run's p99 to a handful of draws.
AXIOM_CONNECTIVES = {"C1": 3, "C2": 3, "C3": 2, "C4": 1, "mbCcl": 3, "Cila": 3}
ATOMS = ("p", "q", "r", "s")
# Largest goal size per logic.  Valid random C2/C3 goals can blow the
# tableau up: at 9-12 connectives a C3 goal took 2.5-12 s and one hit the
# 1M-node cap (about 1 in 6000 queries), and C2 goals at 12 passed 100k
# nodes.  At these sizes 5000 random goals per logic stayed under 60k.
REFUTE_MAX_CONNECTIVES = {"C1": 12, "C2": 10, "C3": 6, "mbCcl": 12, "Cila": 12}


def query(logic, goal, premises=(), expect="unknown", derived=False, tag=""):
    """One benchmark query; expect is "valid", "not entailed" or "unknown"."""
    return {"logic": logic, "goal": goal, "premises": list(premises),
            "expect": expect, "derived": derived, "tag": tag}


def shape_cycle(logic, most):
    """One cycle of top-level substituent shapes, (size, main connective),
    in the proportions of `axioms.random_instance`: the size is uniform over
    0..most, then the connective uniform, as in `formula.random_formula`."""
    from dacosta.formula import And, Cons, Imp, Neg, Or

    unary = [Neg, Cons] if logic.has_circ else [Neg]
    ops = unary + [And, Or, Imp]
    return ([(0, None)] * len(ops)
            + [(k, op) for k in range(1, most + 1) for op in ops])


def _substituent(rng, logic, top, atoms):
    """A random formula of the top-level shape `top`, drawn below the top
    level as `formula.random_formula` draws it."""
    from dacosta.formula import Cons, Neg, Var, random_formula

    size, op = top
    if size == 0:
        return Var(rng.choice(atoms))
    if op in (Neg, Cons):
        return op(random_formula(rng, logic, size - 1, atoms))
    split = rng.randint(0, size - 1)
    return op(random_formula(rng, logic, split, atoms),
              random_formula(rng, logic, size - 1 - split, atoms))


def shape(cycle, seed, key, index):
    """The shape of cycle that block `index` gives the metavariable `key`:
    every shape once per window of len(cycle) blocks, in a seeded order."""
    window, slot = divmod(index, len(cycle))
    order = list(range(len(cycle)))
    random.Random(f"{seed}/{key}/{window}").shuffle(order)
    return cycle[order[slot]]


def _axiom_proofs(rng, seed, index):
    from dacosta.axioms import instantiate, schemata
    from dacosta.formula import parse_logic

    out = []
    for name, most in AXIOM_CONNECTIVES.items():
        logic = parse_logic(name)
        cycle = shape_cycle(logic, most)
        for schema in schemata(logic):
            assignment = {
                mv: _substituent(rng, logic,
                                 shape(cycle, seed, f"{name}/{schema.name}/{mv}", index),
                                 ATOMS)
                for mv in schema.metavars
            }
            inst = instantiate(schema, assignment)
            out.append(query(name, inst.text, expect="valid", derived=True,
                             tag=f"{name}/{schema.name}"))
    return out


def _random_refute(rng, seed, index):
    from dacosta.formula import parse_logic, random_formula

    out = []
    for name, most in REFUTE_MAX_CONNECTIVES.items():
        logic = parse_logic(name)
        for k in range(1, most + 1):
            goal = random_formula(rng, logic, k, ("p", "q", "r"))
            out.append(query(name, goal.text, tag=f"{name}/k{k}"))
    return out


_GENERATORS = {
    "axiom-proofs": _axiom_proofs,
    "random-refute": _random_refute,
}


def block(workload, seed, index):
    """Block `index` of the workload under `seed`: a shuffled list of queries."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    out = _GENERATORS[workload](rng, seed, index)
    rng.shuffle(out)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--count", type=int, default=1)
    args = ap.parse_args(argv)
    for i in range(args.first, args.first + args.count):
        sys.stdout.write(json.dumps(block(args.workload, args.seed, i)) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    sys.exit(main())
