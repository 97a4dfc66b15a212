"""Print a digest of both engines' answers on the benchmark's first blocks.

    python3 tests/data/digest.py

For seed-7 blocks 0-39 of each perfbench workload, one line per workload:
the query count, the total `decide` work, the total bulk `prove` nodes, and
a sha256 over every query's verdicts, stats (without `elapsed`) and
`decide` countermodel.  A change that should move no figure of either
engine prints the same lines before and after it.  The blocks come from
`perfbench/workloads.py`, run in a child process as the benchmark runs it;
each query is decided as the benchmark asks it (`decide`, then bulk
`prove` with the query's derived-rule setting).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from dacosta.formula import parse, parse_logic  # noqa: E402
from dacosta.tableau import prove  # noqa: E402
from dacosta.truthtable import decide  # noqa: E402

WORKLOADS = ("axiom-proofs", "random-refute")
SEED, BLOCKS = 7, 40


def blocks(workload):
    """The queries of the workload's first BLOCKS blocks, in order."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "workloads.py"),
         "--workload", workload, "--seed", str(SEED), "--count", str(BLOCKS)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return [q for line in proc.stdout.splitlines() for q in json.loads(line)]


def record(q):
    """One query's answers with every stat but `elapsed`."""
    logic = parse_logic(q["logic"])
    goal = parse(q["goal"], logic)
    premises = tuple(parse(p, logic) for p in q["premises"])
    table = decide(logic, goal, premises)
    proof = prove(logic, goal, premises, use_derived=q["derived"],
                  build_tree=False)
    model = table.countermodel
    return {
        "entailed": table.entailed,
        "proved": proof.proved,
        "decide": {k: v for k, v in table.stats.items() if k != "elapsed"},
        "prove": {k: v for k, v in proof.tableau.stats.items()
                  if k != "elapsed"},
        "countermodel": None if model is None else sorted(
            (f.text, v) for f, v in model.items()),
    }


def main():
    for workload in WORKLOADS:
        sha = hashlib.sha256()
        queries = work = nodes = 0
        for q in blocks(workload):
            rec = record(q)
            queries += 1
            work += rec["decide"]["work"]
            nodes += rec["prove"]["nodes"]
            sha.update(json.dumps(rec, sort_keys=True).encode() + b"\n")
        print(f"{workload}: queries {queries}, work {work}, nodes {nodes}, "
              f"sha256 {sha.hexdigest()}")


if __name__ == "__main__":
    main()
