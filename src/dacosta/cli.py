"""Command-line front end.

    dacosta decide --logic C1 --formula "((p & ~p) & ~(p & ~p)) -> ~~p"
    dacosta decide --logic C1 --premises "p; ~p" --formula q
    dacosta decide --logic C3 --method both --formula "p | ~p"
    dacosta tables --logic C2
    dacosta axioms --logic Cila --instances 5 --seed 7 --out corpus.txt

Every query takes one path: `answer` runs the chosen engines once and
cross-checks their verdicts, then `run` writes the --emit-* files and prints
the answer as text or JSON; `decide --stdin` prints one line per goal.

Exit codes: 0 entailed/valid, 1 not entailed, 2 usage, parse or output-path
error, 3 resource cap exceeded, 4 the two decision methods disagreed (a bug
signal; the run emits a diagnostic instead of silently picking a winner),
5 internal error (an unexpected exception, printed as `dacosta: internal
error: ...` without a traceback; in `--stdin` mode one `error` line, and the
batch goes on), 141 the reader closed stdout (128 + SIGPIPE, as a shell
reports `yes | head -1`; nothing is printed).

Caps come from flags or the environment: DACOSTA_MAX_ROWS (table rows),
DACOSTA_MAX_NODES (tableau nodes), DACOSTA_MAX_WORK (decision-DP states).
A negative cap is a usage error; a cap of 0 fails as any exceeded cap does.
`decide` resolves its caps once, before the first query of a --stdin batch.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass, fields

from . import algebra, axioms, tableau, truthtable
from .errors import DacostaError, ResourceLimitError
from .formula import canonical_key, parse, parse_logic

EXIT_ENTAILED = 0
EXIT_NOT_ENTAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_DISAGREEMENT = 4
EXIT_INTERNAL = 5
EXIT_BROKEN_PIPE = 141

# Errors that print as `dacosta: ...` (an `error` line in batch mode): bad
# formulas, logics, caps and flags, and unwritable output paths.  Any other
# exception is a bug; it prints as an internal error, also without traceback.
_REPORTED = (DacostaError, ValueError, OSError)


def _exit_code(exc):
    if isinstance(exc, ResourceLimitError):
        return EXIT_RESOURCE
    return EXIT_USAGE if isinstance(exc, _REPORTED) else EXIT_INTERNAL


def _error_text(exc):
    return str(exc) if isinstance(exc, _REPORTED) else f"internal error: {exc!r}"


@dataclass
class RunConfig:
    logic: object
    goal: object = None
    premises: tuple = ()
    method: str = "both"          # table | tableau | both
    derived_rules: bool = False
    show_discarded: bool = False
    format: str = "text"          # text | json
    max_rows: int = None
    max_nodes: int = None
    max_work: int = None
    emit_table: str = None
    emit_tableau: str = None
    complete: bool = False
    stats: bool = False


def _cap(flag, option, name, default):
    """The flag's value, else the environment variable's, else the default.

    A negative cap is a usage error that names the flag or the variable.
    """
    if flag is None:
        raw = os.environ.get(name)
        if raw is None:
            return default
        option = f"environment variable {name}"
        try:
            flag = int(raw)
        except ValueError:
            raise DacostaError(f"{option} must be an integer, got {raw!r}") from None
    if flag < 0:
        raise DacostaError(f"{option} must be at least 0, got {flag}")
    return flag


def _caps(cfg):
    return (_cap(cfg.max_rows, "--max-rows", "DACOSTA_MAX_ROWS",
                 truthtable.DEFAULT_MAX_ROWS),
            _cap(cfg.max_nodes, "--max-nodes", "DACOSTA_MAX_NODES",
                 tableau.DEFAULT_MAX_NODES),
            _cap(cfg.max_work, "--max-work", "DACOSTA_MAX_WORK",
                 truthtable.DEFAULT_MAX_WORK))


@dataclass
class Answer:
    """One query's cross-checked answer.  `entailed` and `countermodel` are
    None when the engines disagree; `agree` is None when one engine ran."""
    entailed: bool
    agree: bool
    countermodel: object            # Valuation | None
    table_result: object            # truthtable.DecisionResult | None
    tableau_result: object          # tableau.ProveResult | None
    code: int


def answer(config):
    """Run the configured engines on one query and cross-check their verdicts."""
    _, max_nodes, max_work = _caps(config)
    table_result = tableau_result = None
    if config.method in ("table", "both"):
        table_result = truthtable.decide(config.logic, config.goal, config.premises,
                                         max_work=max_work)
    if config.method in ("tableau", "both"):
        tableau_result = tableau.prove(
            config.logic, config.goal, config.premises,
            use_derived=config.derived_rules,
            stop_on_open=not config.complete,
            max_nodes=max_nodes, build_tree=config.emit_tableau is not None)

    agree = None
    if table_result is not None and tableau_result is not None:
        agree = table_result.entailed == tableau_result.proved
        if not agree:
            return Answer(None, False, None, table_result, tableau_result,
                          EXIT_DISAGREEMENT)
    if table_result is not None:
        entailed, countermodel = table_result.entailed, table_result.countermodel
    else:
        entailed, countermodel = tableau_result.proved, tableau_result.countermodel
    return Answer(entailed, agree, None if entailed else countermodel,
                  table_result, tableau_result,
                  EXIT_ENTAILED if entailed else EXIT_NOT_ENTAILED)


def _table_json(table):
    names = algebra.value_names(table.logic)
    return {
        "logic": table.logic.name,
        "columns": [f.text for f in table.columns],
        "rows": [
            {"status": row.status,
             "values": [None if v is None else names[v] for v in row.values]}
            for row in table.rows
        ],
        "stats": dict(table.stats),
    }


def _countermodel_json(valuation):
    if valuation is None:
        return None
    pairs = sorted(valuation.items(), key=lambda kv: canonical_key(kv[0]))
    names = algebra.value_names(valuation.logic)
    return {f.text: names[v] for f, v in pairs}


def _json_text(doc):
    """json.dumps(doc, indent=2) for dicts with string keys, lists and JSON
    scalars, walked with an explicit stack so that any depth dumps."""
    parts = []
    # (iterator of (key, value) pairs, key None in a list; closing bracket)
    stack = [(iter([(None, doc)]), "")]
    first = True
    while stack:
        items, close = stack[-1]
        depth = len(stack) - 1
        item = next(items, None)
        if item is None:
            stack.pop()
            if close:
                parts.append("\n" + "  " * (depth - 1) + close)
            first = False
            continue
        key, value = item
        if depth:
            parts.append(("\n" if first else ",\n") + "  " * depth)
        if key is not None:
            parts.append(json.dumps(key) + ": ")
        first = False
        if value and isinstance(value, dict):
            parts.append("{")
            stack.append((iter(value.items()), "}"))
            first = True
        elif value and isinstance(value, (list, tuple)):
            parts.append("[")
            stack.append((((None, v) for v in value), "]"))
            first = True
        else:
            parts.append(json.dumps(value))
    return "".join(parts)


def _emit_files(config, ans):
    """Write the --emit-table and --emit-tableau files."""
    if config.emit_table is not None:
        tab = truthtable.build_table(config.logic, config.goal, config.premises,
                                     max_rows=_caps(config)[0],
                                     collect_discarded=config.show_discarded)
        text = json.dumps(_table_json(tab), indent=2) if config.format == "json" \
            else truthtable.render_table(tab, config.show_discarded)
        with open(config.emit_table, "w") as fh:
            fh.write(text + "\n")
    if config.emit_tableau is not None:
        tree = ans.tableau_result.tableau
        text = _json_text(tableau.tableau_to_json(tree)) \
            if config.format == "json" else tableau.tableau_to_text(tree)
        with open(config.emit_tableau, "w") as fh:
            fh.write(text + "\n")


def _verdict_word(config, entailed):
    if config.premises:
        return "entailed" if entailed else "not entailed"
    return "valid" if entailed else "invalid"


def _report_disagreement(config, ans, err):
    print("method disagreement: "
          f"table says {'entailed' if ans.table_result.entailed else 'not entailed'}, "
          f"tableau says {'proved' if ans.tableau_result.proved else 'not proved'} "
          f"for {config.goal.text} in {config.logic.name}", file=err)
    print("this indicates a bug in one of the engines; "
          "re-run each method separately and report the formula", file=err)


def _render_json(config, ans, out, err):
    """One JSON object on one line."""
    if ans.agree is False:
        return _report_disagreement(config, ans, err)
    stats = {}
    if ans.table_result is not None:
        stats["table"] = dict(ans.table_result.stats)
    if ans.tableau_result is not None:
        stats["tableau"] = dict(ans.tableau_result.tableau.stats)
    payload = {
        "logic": config.logic.name,
        "goal": config.goal.text,
        "premises": [p.text for p in config.premises],
        "method": config.method,
        "entailed": ans.entailed,
        "agree": ans.agree,
        "countermodel": _countermodel_json(ans.countermodel),
        "stats": stats,
        "exit": ans.code,
    }
    print(json.dumps(payload), file=out)


def _render_text(config, ans, out, err):
    """The multi-line report of one query."""
    if ans.agree is False:
        return _report_disagreement(config, ans, err)
    print(f"logic: {config.logic.name}", file=out)
    if config.premises:
        print("premises: " + "; ".join(p.text for p in config.premises), file=out)
    print(f"goal: {config.goal.text}", file=out)
    print(f"verdict: {_verdict_word(config, ans.entailed)}", file=out)
    if ans.agree is not None:
        print("methods agree (table, tableau)", file=out)
    if ans.countermodel is not None:
        print(f"countermodel: {ans.countermodel.render()}", file=out)
    if config.stats:
        if ans.table_result is not None:
            print(f"table stats: {ans.table_result.stats}", file=out)
        if ans.tableau_result is not None:
            print(f"tableau stats: {ans.tableau_result.tableau.stats}", file=out)


def _render_line(config, ans, line, out):
    """Batch mode in text format: the verdict and the input line."""
    word = "disagreement" if ans.agree is False \
        else _verdict_word(config, ans.entailed)
    print(f"{word}\t{line}", file=out)


def run(config, out=None, err=None):
    """Decide one goal per the config; print a report; return the exit code."""
    out = out or sys.stdout
    err = err or sys.stderr
    ans = answer(config)
    _emit_files(config, ans)
    render = _render_json if config.format == "json" else _render_text
    render(config, ans, out, err)
    return ans.code


def _flag_conflict(args):
    """Why these decide flags cannot run together, or None."""
    if args.emit_tableau is not None and args.method == "table":
        return "--emit-tableau needs --method tableau or both"
    if not args.stdin:
        return None if args.formula is not None else "provide --formula or --stdin"
    if args.emit_table is not None or args.emit_tableau is not None:
        return "--stdin cannot take --emit-table or --emit-tableau"
    if args.stats and args.format == "text":
        return "--stdin takes --stats only with --format json"
    return None


def _cmd_decide(args, out, err):
    conflict = _flag_conflict(args)
    if conflict is not None:
        print(f"decide: {conflict}", file=err)
        return EXIT_USAGE
    logic = parse_logic(args.logic)
    premises = tuple(parse(chunk, logic)
                     for chunk in (args.premises or "").split(";") if chunk.strip())
    # The other fields of RunConfig are the decide flags of the same names.
    base = {f.name: getattr(args, f.name) for f in fields(RunConfig)
            if f.name not in ("logic", "goal", "premises")}
    # Caps are resolved once per command: a bad one is one usage error before
    # the batch, and no query reads the environment again.
    base.update(zip(("max_rows", "max_nodes", "max_work"), _caps(args)))
    if not args.stdin:
        return run(RunConfig(logic, parse(args.formula, logic), premises, **base),
                   out, err)
    worst = EXIT_ENTAILED
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            cfg = RunConfig(logic, parse(line, logic), premises, **base)
            ans = answer(cfg)
            if args.format == "json":
                _render_json(cfg, ans, out, err)
            else:
                _render_line(cfg, ans, line, out)
            code = ans.code
        except BrokenPipeError:
            raise  # stdout is gone: no later line can be answered
        except Exception as exc:
            print(f"error\t{line}\t{_error_text(exc)}", file=err)
            code = _exit_code(exc)
        worst = max(worst, code)
    return worst


def _cmd_tables(args, out, err):
    logic = parse_logic(args.logic)
    if args.format == "json":
        print(json.dumps(algebra.tables_json(logic), indent=2), file=out)
    else:
        print(algebra.render_tables(logic), file=out)
    return 0


def _cmd_axioms(args, out, err):
    for option, value in (("--instances", args.instances),
                          ("--connectives", args.connectives)):
        if value is not None and value < 0:
            print(f"axioms: {option} must be at least 0, got {value}", file=err)
            return EXIT_USAGE
    logic = parse_logic(args.logic)
    if args.instances is None:
        for s in axioms.schemata(logic):
            print(s, file=out)
        return 0
    rng = random.Random(args.seed)
    lines = [inst.text for _, inst in
             axioms.instance_corpus(logic, args.instances, rng, args.connectives)]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for ln in lines:
            print(ln, file=out)
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="dacosta",
        description="Decision procedures for da Costa's paraconsistent calculi "
                    "C_n and the LFIs mbCcl and Cila.")
    sub = p.add_subparsers(dest="command")

    d = sub.add_parser("decide", help="decide validity / entailment")
    d.add_argument("--logic", required=True, help="C1..C32, mbCcl or Cila")
    d.add_argument("--formula", help="goal formula")
    d.add_argument("--premises", help="semicolon-separated premise formulas")
    d.add_argument("--method", choices=("table", "tableau", "both"), default="both")
    d.add_argument("--derived-rules", action="store_true",
                   help="enable derived tableau rules for iterated-consistency towers")
    d.add_argument("--show-discarded", action="store_true",
                   help="keep discarded row stubs in emitted tables")
    d.add_argument("--format", choices=("text", "json"), default="text")
    d.add_argument("--max-rows", type=int, default=None)
    d.add_argument("--max-nodes", type=int, default=None)
    d.add_argument("--max-work", type=int, default=None)
    d.add_argument("--emit-table", metavar="PATH",
                   help="write the branching truth table to a file")
    d.add_argument("--emit-tableau", metavar="PATH",
                   help="write the tableau tree to a file")
    d.add_argument("--complete", action="store_true",
                   help="expand the whole tableau instead of stopping at the "
                        "first open branch")
    d.add_argument("--stats", action="store_true")
    d.add_argument("--stdin", action="store_true",
                   help="read one goal formula per line from stdin")

    t = sub.add_parser("tables", help="print the logic's connective tables")
    t.add_argument("--logic", required=True)
    t.add_argument("--format", choices=("text", "json"), default="text")

    a = sub.add_parser("axioms", help="list axiom schemata or emit random instances")
    a.add_argument("--logic", required=True)
    a.add_argument("--instances", type=int, default=None,
                   help="emit this many random instances per schema")
    a.add_argument("--connectives", type=int, default=3,
                   help="max connectives per random substituent")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", metavar="PATH")
    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    out, err = sys.stdout, sys.stderr
    if args.command is None:
        parser.print_usage(err)
        return EXIT_USAGE
    commands = {"decide": _cmd_decide, "tables": _cmd_tables, "axioms": _cmd_axioms}
    try:
        code = commands[args.command](args, out, err)
        out.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the
        # interpreter's final flush is quiet, and exit as for SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Exception as exc:
        print(f"dacosta: {_error_text(exc)}", file=err)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
