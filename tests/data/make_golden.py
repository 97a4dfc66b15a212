"""Regenerate the golden files that pin both decision procedures.

    python3 tests/data/make_golden.py           # rewrite both files
    python3 tests/data/make_golden.py --check   # exit 1 if either would change

decide_golden.json holds `truthtable.decide` results and prove_golden.json
holds `tableau.prove` results, each on a seeded corpus built here.  The test
suite (TestDecideGolden, TestProveGolden) replays the files against the
current source; rewrite them only when a change is meant to move a pinned
figure, and say so where the change is described.

Every countermodel is replayed before it is recorded: it must pass
`check_valuation`, designate every premise and leave the goal undesignated.
One that does not stops both modes with exit 1, and nothing is written.
A rewrite also stops with exit 1, writing nothing, when a query recorded
at the same place would get another `proved` or `entailed`: a change may
move how an engine gets to its answer, never the answer.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import random
import sys

DATA = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(DATA.parent.parent / "src"))

from dacosta import axioms  # noqa: E402
from dacosta.errors import ResourceLimitError  # noqa: E402
from dacosta.formula import parse, parse_logic, random_formula  # noqa: E402
from dacosta.tableau import prove, tableau_to_text  # noqa: E402
from dacosta.truthtable import check_valuation, decide  # noqa: E402

LOGICS = ("C1", "C2", "C3", "C4", "mbCcl", "Cila")
ATOMS = ("p", "q", "r")

DECIDE_ABOUT = (
    "decide() results on a seeded random_formula corpus (random.Random(20201120); "
    "50 goals per logic over p, q, r; every third goal with 1-2 premises of 0-3 "
    "connectives; goal sizes up to C1/mbCcl/Cila 8, C2 7, C3 6, C4 5 connectives). "
    "Verdicts, rows and countermodels were recorded from the frontier DP with "
    "per-column back-pointers before the successor-table rewrite; work counts "
    "the frontiers of the pair-step DP, where a plain column read only by the "
    "next column, itself plain, is summed out inside that column's step, and "
    "each state slot holds its column's value class (the first of the values "
    "that no reader of the column can tell apart), merged classes counting "
    "once; a one-input run (three or more plain columns that depend on one "
    "earlier column x alone and, but the last, are read only inside the run, "
    "entered with a slot besides x and the flag) is one step whose table is "
    "filled per class of x by the run's own steps, which count every state "
    "but their first; a plain column x read by the run over it alone, which "
    "is not read only by the next column, is summed into that run's step "
    "(the state entering the run would hold a slot besides x and the flag), "
    "so x adds no frontier and the fills it reaches count as the run's do. "
    "countermodel maps formula text to value index.")
DECIDE_MAX = {"C1": 8, "C2": 7, "C3": 6, "C4": 5, "mbCcl": 8, "Cila": 8}

PROVE_ABOUT = (
    "prove() results (build_tree=False, stop_on_open=True, default max_nodes), "
    "recorded with label sets: a branch holds one set of values per formula, "
    "a rule on a set emits boxes read off the tables (a C_n T(A & B) is the "
    "one extension A, B designated), an insert intersects and closes on an "
    "empty set, a member of a restriction triple (x, x & ~x, x^1) narrows its "
    "labelled partners, and one that still holds several labels is split into "
    "single labels once nothing else is queued on its branch; derived rules "
    "on a set are the union of their per-label extensions. The search keeps "
    "unit-first branching (forced splits before real ones), shared conclusions "
    "factored (a real split puts the part that all its extensions share on the "
    "branch once and queues the rests at the tail), early closing (a queued "
    "split with no extension left that fits closes the branch at the insert "
    "that takes the last one) and derived rules used only where they have no "
    "more extensions than the basic rule; derived_rule_hits counts signed "
    "formulas put on a branch whose rule is derived. "
    "Corpus: random.Random(20110510); per logic, 40 random_formula goals over "
    "p, q, r (sizes up to C1/mbCcl/Cila 7, C2 6, C3 5, C4 4 connectives; every "
    "third goal with 1-2 premises of 0-3 connectives; use_derived on every odd "
    "goal), then one instance of each axiom schema with substituents of 0-2 "
    "connectives (0-1 in C3/C4), proved with use_derived on. branch_records are "
    "[status, reason, [[labels, formula text], ...]], labels the sorted values "
    "the formula may still take; countermodel maps formula text to value index. "
    "trees: per logic, the first 2 random goals and the first 2 axiom instances "
    "(those that fire a derived rule first) whose completed tableau, recorded "
    "with build_tree=True and so with the per-label rules of expand(), has at "
    "most 300 nodes, rerun with stop_on_open=False; text is their "
    "tableau_to_text. Closure reasons in text come from the restriction check "
    "derived from algebra (_closure_cuts); t(@x) in Cila closes through its "
    "rule, as an unsatisfiable signed formula.")
PROVE_MAX = {"C1": 7, "C2": 6, "C3": 5, "C4": 4, "mbCcl": 7, "Cila": 7}
AXIOM_MAX = {"C1": 2, "C2": 2, "C3": 1, "C4": 1, "mbCcl": 2, "Cila": 2}
TREES_PER_PART, TREE_NODES = 2, 300


def _premises(rng, lg):
    return [random_formula(rng, lg, rng.randint(0, 3), ATOMS).text
            for _ in range(rng.randint(1, 2))]


def decide_corpus():
    rng = random.Random(20201120)
    out = []
    for name in LOGICS:
        lg = parse_logic(name)
        for i in range(50):
            goal = random_formula(rng, lg, rng.randint(0, DECIDE_MAX[name]), ATOMS)
            premises = _premises(rng, lg) if i % 3 == 0 else []
            out.append({"logic": name, "goal": goal.text, "premises": premises})
    return out


def prove_corpus():
    """Per logic, its random goals and its axiom instances."""
    rng = random.Random(20110510)
    out = {}
    for name in LOGICS:
        lg = parse_logic(name)
        goals = []
        for i in range(40):
            goal = random_formula(rng, lg, rng.randint(0, PROVE_MAX[name]), ATOMS)
            premises = _premises(rng, lg) if i % 3 == 0 else []
            goals.append({"logic": name, "goal": goal.text, "premises": premises,
                          "use_derived": i % 2 == 1})
        instances = [{"logic": name, "premises": [], "use_derived": True,
                      "goal": axioms.random_instance(s, rng, AXIOM_MAX[name], ATOMS).text}
                     for s in axioms.schemata(lg)]
        out[name] = (goals, instances)
    return out


def _tree_stats(q):
    """Stats of the completed recorded tableau of q, or None past
    TREE_NODES nodes."""
    try:
        return prove(*_parsed(q), use_derived=q["use_derived"], stop_on_open=False,
                     max_nodes=TREE_NODES, build_tree=True).tableau.stats
    except ResourceLimitError:
        return None


def tree_corpus(corpus):
    """Per logic, the first TREES_PER_PART random goals and axiom instances
    whose completed tableau has at most TREE_NODES nodes; instances that fire
    a derived rule go first."""
    out = []
    for goals, instances in corpus.values():
        out += [q for q in goals if _tree_stats(q) is not None][:TREES_PER_PART]
        small = [(q, stats) for q in instances
                 if (stats := _tree_stats(q)) is not None]
        small.sort(key=lambda pair: pair[1]["derived_rule_hits"] == 0)
        out += [q for q, _ in small[:TREES_PER_PART]]
    return out


def _parsed(q):
    lg = parse_logic(q["logic"])
    return lg, parse(q["goal"], lg), tuple(parse(p, lg) for p in q["premises"])


class BadCountermodel(Exception):
    """A countermodel that does not refute its query."""


def _replay_fault(lg, goal, premises, assignment):
    """Why `assignment` does not refute the query, or None when it does."""
    violations = check_valuation(lg, assignment)
    if violations:
        _, f, message = violations[0]
        return f"breaks check_valuation at {f.text}: {message}"
    if any(f not in assignment for f in (goal, *premises)):
        return "misses the goal or a premise"
    if any(assignment[p] > lg.n for p in premises):
        return "leaves a premise undesignated"
    if assignment[goal] <= lg.n:
        return "designates the goal"
    return None


def _countermodel(q, valuation):
    """The recorded form of a countermodel, once it has replayed."""
    if valuation is None:
        return None
    assignment = dict(valuation.items())
    fault = _replay_fault(*_parsed(q), assignment)
    if fault is not None:
        raise BadCountermodel(f"countermodel of (logic {q['logic']}, goal "
                              f"{q['goal']}, premises {q['premises']}) {fault}")
    return {f.text: v for f, v in
            sorted(assignment.items(), key=lambda kv: (kv[0].complexity, kv[0].text))}


def decide_record(q):
    """The pinned fields of decide() on query q."""
    res = decide(*_parsed(q))
    return {"entailed": res.entailed,
            "rows_live": res.stats["rows_live"],
            "rows_discarded": res.stats["rows_discarded"],
            "work": res.stats["work"],
            "countermodel": _countermodel(q, res.countermodel)}


def prove_record(q, tree=False):
    """The pinned fields of prove() on query q.  With `tree`, the tableau is
    completed and recorded, and its text rendering stands in for the branch
    records (its leaves carry every branch's status and reason)."""
    lg, goal, premises = _parsed(q)
    res = prove(lg, goal, premises, use_derived=q["use_derived"],
                stop_on_open=not tree, build_tree=tree)
    stats = res.tableau.stats
    rec = {"proved": res.proved}
    for key in ("nodes", "branches", "closures", "derived_rule_hits",
                "early_stop", "completed"):
        rec[key] = stats[key]
    if tree:
        rec["text"] = tableau_to_text(res.tableau)
    else:
        rec["branch_records"] = [[b.status, b.reason,
                                  [[list(labels), f.text] for labels, f in b.signed]]
                                 for b in res.tableau.branches]
    rec["countermodel"] = _countermodel(q, res.countermodel)
    return rec


def _dump(about, sections):
    parts = ['{"about": ' + json.dumps(about)]
    for key, rows in sections:
        parts.append(f' "{key}": [\n  ' + ",\n  ".join(json.dumps(r) for r in rows)
                     + "\n ]")
    return ",\n".join(parts) + "}\n"


def render_decide():
    rows = [dict(q, **decide_record(q)) for q in decide_corpus()]
    return _dump(DECIDE_ABOUT, [("queries", rows)])


def render_prove():
    corpus = prove_corpus()
    rows = [dict(q, **prove_record(q))
            for goals, instances in corpus.values() for q in goals + instances]
    trees = [dict(q, **prove_record(q, tree=True)) for q in tree_corpus(corpus)]
    return _dump(PROVE_ABOUT, [("queries", rows), ("trees", trees)])


FILES = {"decide_golden.json": render_decide, "prove_golden.json": render_prove}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the committed files instead of writing")
    args = ap.parse_args(argv)
    stale = 0
    try:
        texts = {name: render() for name, render in FILES.items()}
    except BadCountermodel as exc:
        print(exc, file=sys.stderr)
        return 1
    olds = {name: (DATA / name).read_text() if (DATA / name).exists() else None
            for name in texts}
    moved = [(name, query) for name, text in texts.items() if olds[name] is not None
             for query in _verdict_changes(olds[name], text)]
    for name, query in moved:
        print(f"{name}: the verdict of {query} would change", file=sys.stderr)
    if moved and not args.check:
        return 1
    for name, text in texts.items():
        path = DATA / name
        if not args.check:
            path.write_text(text)
            continue
        old = olds[name]
        if old != text:
            print(f"{name} is missing" if old is None else
                  f"{name} differs from the current source's output at "
                  + _first_difference(old, text), file=sys.stderr)
            if old is not None:
                print(f"{name} records that differ, by field: "
                      + _field_differences(old, text), file=sys.stderr)
            stale += 1
    return 1 if stale else 0


VERDICTS = ("proved", "entailed")
QUERY_KEYS = ("logic", "goal", "premises", "use_derived")


def _verdict_changes(old, new):
    """The queries that both renderings record at the same place, in the
    same section, with a different verdict."""
    old, new = json.loads(old), json.loads(new)
    out = []
    for key in sorted(old.keys() & new.keys() - {"about"}):
        for was, now in zip(old[key], new[key]):
            query = {k: was.get(k) for k in QUERY_KEYS}
            if query == {k: now.get(k) for k in QUERY_KEYS} and any(
                    was.get(v) != now.get(v) for v in VERDICTS):
                out.append({k: v for k, v in query.items() if v is not None})
    return out


def _field_differences(old, new):
    """How many records of two renderings differ in each field, matched by
    section and position, as in `work: 227, about: 1`."""
    old, new = json.loads(old), json.loads(new)
    counts = {}
    for key in old.keys() | new.keys():
        if key == "about":
            if old.get(key) != new.get(key):
                counts[key] = 1
            continue
        for was, now in itertools.zip_longest(old.get(key, []), new.get(key, [])):
            was, now = was or {}, now or {}
            for field in was.keys() | now.keys():
                if was.get(field) != now.get(field):
                    counts[field] = counts.get(field, 0) + 1
    return ", ".join(f"{field}: {n}" for field, n in
                     sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))) or "none"


def _first_difference(old, new):
    """Where two renderings first differ: the line number and, when that
    line is a record, its logic and goal."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for number, (was, now) in enumerate(
            itertools.zip_longest(old_lines, new_lines), 1):
        if was != now:
            break
    where = f"line {number}"
    try:
        record = json.loads((now if now is not None else was).strip().rstrip(","))
        return where + f" (logic {record['logic']}, goal {record['goal']})"
    except (ValueError, TypeError, KeyError):
        return where


if __name__ == "__main__":
    sys.exit(main())
