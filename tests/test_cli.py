"""Command-line interface tests driven through main(argv)."""

import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import dacosta
from dacosta import cli, tableau
from dacosta.formula import C, parse, random_formula

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def console_scripts():
    """The `[project.scripts]` table of the repository's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def make_console_script(bin_dir, monkeypatch):
    """Write the declared `dacosta` console script into `bin_dir`.

    The launcher comes from the generator pip uses at install time and runs
    under this interpreter. `bin_dir` goes first on PATH, and the directory
    this suite imported `dacosta` from goes first on PYTHONPATH, so a fresh
    process runs the same code as the suite without an install.
    """
    scripts = pytest.importorskip("pip._vendor.distlib.scripts")
    maker = scripts.ScriptMaker(None, str(bin_dir))
    maker.executable = sys.executable
    maker.variants = {""}
    maker.make(f"dacosta = {console_scripts()['dacosta']}")
    monkeypatch.setenv("PATH", str(bin_dir), prepend=os.pathsep)
    src_dir = Path(dacosta.__file__).resolve().parent.parent
    monkeypatch.setenv("PYTHONPATH", str(src_dir), prepend=os.pathsep)


class TestDecideText:
    def test_valid_formula(self, capsys):
        code, out, err = run_cli(
            capsys, "decide", "--logic", "C1",
            "--formula", "((p & ~p) & ~(p & ~p)) -> ~~p",
        )
        assert code == 0
        assert out.splitlines() == [
            "logic: C1",
            "goal: p & ~p & ~(p & ~p) -> ~~p",
            "verdict: valid",
            "methods agree (table, tableau)",
        ]
        assert err == ""

    def test_non_explosive_premises(self, capsys):
        code, out, _ = run_cli(
            capsys, "decide", "--logic", "C1",
            "--formula", "q", "--premises", "p; ~p",
        )
        assert code == 1
        assert out.splitlines() == [
            "logic: C1",
            "premises: p; ~p",
            "goal: q",
            "verdict: not entailed",
            "methods agree (table, tableau)",
            "countermodel: p=t, q=F, ~p=T",
        ]

    def test_parse_error(self, capsys):
        code, out, err = run_cli(
            capsys, "decide", "--logic", "C1", "--formula", "p | (q",
        )
        assert code == 2
        assert out == ""
        assert err.strip() == "dacosta: expected ')' (at position 6)"

    def test_unknown_logic(self, capsys):
        code, _, err = run_cli(capsys, "decide", "--logic", "K3", "--formula", "p")
        assert code == 2
        assert err.startswith("dacosta:")

    def test_hierarchy_index_past_bound(self, capsys):
        code, out, err = run_cli(capsys, "decide", "--logic", "C33", "--formula", "p")
        assert code == 2
        assert out == ""
        assert err.strip() == ("dacosta: unknown logic 'C33'; expected C1..C32, "
                               "mbCcl or Cila")

    def test_exponent_past_bound(self, capsys):
        code, out, err = run_cli(capsys, "decide", "--logic", "C1",
                                 "--formula", "p^26")
        assert code == 2
        assert out == ""
        assert err == ("dacosta: exponent too large: the power's text would "
                       "pass 1048576 characters (at position 1)\n")

    def test_connective_text_past_bound(self, capsys):
        code, out, err = run_cli(
            capsys, "decide", "--logic", "C1", "--formula",
            "a^17 & b^17 & c^17 & d^17 & e^17 & f^17 & g^17 & h^17")
        assert code == 2
        assert out == ""
        assert err == ("dacosta: formula too long: its text would pass "
                       "1048576 characters (at position 5)\n")

    def test_missing_formula(self, capsys):
        code, _, err = run_cli(capsys, "decide", "--logic", "C1")
        assert code == 2
        assert "--formula" in err

    def test_single_method_runs(self, capsys):
        for method in ("table", "tableau"):
            code, out, _ = run_cli(
                capsys, "decide", "--logic", "C1",
                "--formula", "p -> p", "--method", method,
            )
            assert code == 0
            assert "verdict: valid" in out
            assert "methods agree" not in out

    def test_stats_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "decide", "--logic", "C1", "--formula", "p -> p", "--stats",
        )
        assert code == 0
        assert "table stats:" in out and "tableau stats:" in out


class TestDecideJson:
    def test_payload_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "decide", "--logic", "C2", "--formula", "q",
            "--premises", "p; ~p; p^(1)", "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert set(doc) == {
            "logic", "goal", "premises", "method", "entailed",
            "agree", "countermodel", "stats", "exit",
        }
        assert doc["logic"] == "C2"
        assert doc["goal"] == "q"
        assert doc["premises"] == ["p", "~p", "~(p & ~p)"]
        assert doc["method"] == "both"
        assert doc["entailed"] is False
        assert doc["agree"] is True
        assert doc["exit"] == 1
        assert doc["countermodel"]["p"] == "t2_1"
        assert doc["countermodel"]["q"] == "F2"
        assert set(doc["stats"]) == {"table", "tableau"}
        assert set(doc["stats"]["table"]) == {
            "rows_live", "rows_total", "rows_discarded", "work", "elapsed",
        }
        assert set(doc["stats"]["tableau"]) == {
            "nodes", "branches", "closures", "derived_rule_hits",
            "all_branches_closed", "completed", "early_stop", "elapsed",
        }

    def test_valid_formula_has_null_countermodel(self, capsys):
        code, out, _ = run_cli(
            capsys, "decide", "--logic", "Cila",
            "--formula", "@p & @q -> @(p & q)", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["entailed"] is True
        assert doc["countermodel"] is None
        assert doc["exit"] == 0


class TestSmallTowers:
    """Goals over a small tower that per-label tableau branching took past
    the default node cap (exit 3); both engines answer them, and agree."""

    @pytest.mark.parametrize("logic, premises, goal, code", [
        ("C4", None, "p^(4) -> ~~(~p & ((q -> p) -> p -> p)) | q", 1),
        ("C5", "p | q; ~(q -> p)", "p^(5) -> p -> q", 0),
        ("C5", "(q | q & p) & ~p; q & q -> q",
         "p^(5) -> ~(p | p | (~q -> p | p))", 1),
    ], ids=["C4", "C5-entailed", "C5-refuted"])
    def test_both_engines_answer(self, capsys, logic, premises, goal, code):
        argv = ["decide", "--logic", logic, "--formula", goal, "--format", "json"]
        if premises is not None:
            argv += ["--premises", premises]
        got, out, _ = run_cli(capsys, *argv)
        assert got == code
        doc = json.loads(out)
        assert doc["agree"] is True and doc["entailed"] is (code == 0)


class TestResourceCaps:
    def test_max_work_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "decide", "--logic", "C1",
            "--formula", "p -> p", "--max-work", "1",
        )
        assert code == 3
        assert "exceeded" in err

    def test_max_nodes_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "decide", "--logic", "C4",
            "--formula", "((p & ~p) & ~(p & ~p)) -> ~~p",
            "--method", "tableau", "--max-nodes", "2",
        )
        assert code == 3
        assert "exceeded" in err

    def test_environment_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("DACOSTA_MAX_WORK", "1")
        code, _, err = run_cli(
            capsys, "decide", "--logic", "C1", "--formula", "p -> p",
        )
        assert code == 3
        assert "exceeded" in err

    def test_non_integer_environment_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("DACOSTA_MAX_WORK", "lots")
        code, out, err = run_cli(
            capsys, "decide", "--logic", "C1", "--formula", "p -> p",
        )
        assert code == 2
        assert out == ""
        assert err.strip() == ("dacosta: environment variable DACOSTA_MAX_WORK "
                               "must be an integer, got 'lots'")

    def test_bad_cap_is_one_error_before_a_batch(self, capsys, monkeypatch):
        query = ("decide", "--logic", "C1", "--stdin")
        monkeypatch.setattr(sys, "stdin", io.StringIO("p\nq\n"))
        code, out, err = run_cli(capsys, *query, "--max-work", "-1")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["dacosta: --max-work must be at least 0, got -1"]
        monkeypatch.setattr(sys, "stdin", io.StringIO("p\nq\n"))
        monkeypatch.setenv("DACOSTA_MAX_NODES", "lots")
        code, out, err = run_cli(capsys, *query)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["dacosta: environment variable "
                                    "DACOSTA_MAX_NODES must be an integer, got 'lots'"]

    def test_batch_reads_the_environment_once(self, capsys, monkeypatch):
        reads = []

        class Environ(dict):
            def get(self, key, default=None):
                reads.append(key)
                return super().get(key, default)

        monkeypatch.setattr(os, "environ", Environ(os.environ, DACOSTA_MAX_WORK="100"))
        monkeypatch.setattr(sys, "stdin", io.StringIO("p -> p\nq\np | ~p\n"))
        code, out, _ = run_cli(capsys, "decide", "--logic", "C1", "--stdin")
        assert code == 1 and len(out.splitlines()) == 3
        assert sorted(key for key in reads if key.startswith("DACOSTA_")) == [
            "DACOSTA_MAX_NODES", "DACOSTA_MAX_ROWS", "DACOSTA_MAX_WORK"]

    @pytest.mark.parametrize("flag, variable, value", [
        ("--max-work", "DACOSTA_MAX_WORK", "-1"),
        ("--max-nodes", "DACOSTA_MAX_NODES", "-3"),
        ("--max-rows", "DACOSTA_MAX_ROWS", "-1"),
    ])
    def test_negative_cap_is_usage_error(self, capsys, monkeypatch, flag,
                                         variable, value):
        query = ("decide", "--logic", "C1", "--formula", "p -> p")
        code, out, err = run_cli(capsys, *query, flag, value)
        assert (code, out) == (2, "")
        assert err.strip() == f"dacosta: {flag} must be at least 0, got {value}"
        monkeypatch.setenv(variable, value)
        code, out, err = run_cli(capsys, *query)
        assert (code, out) == (2, "")
        assert err.strip() == (f"dacosta: environment variable {variable} "
                               f"must be at least 0, got {value}")

    def test_zero_cap_is_a_cap_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "decide", "--logic", "C1", "--formula", "p -> p",
            "--max-work", "0",
        )
        assert code == 3
        assert "exceeded 0 " in err

    @pytest.mark.parametrize("flag, value, other", [
        ("--instances", "-2", ()), ("--connectives", "-1", ("--instances", "1")),
    ])
    def test_negative_axioms_count_is_usage_error(self, capsys, flag, value, other):
        code, out, err = run_cli(capsys, "axioms", "--logic", "C1", *other,
                                 flag, value)
        assert (code, out) == (2, "")
        assert err.strip() == f"axioms: {flag} must be at least 0, got {value}"

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("DACOSTA_MAX_WORK", "1")
        code, out, _ = run_cli(
            capsys, "decide", "--logic", "C1",
            "--formula", "p -> p", "--max-work", "100000",
        )
        assert code == 0
        assert "verdict: valid" in out


class TestDisagreementGuard:
    def test_engine_disagreement_is_exit_four(self, capsys, monkeypatch):
        fake = SimpleNamespace(entailed=False, countermodel=None, stats={})
        monkeypatch.setattr(cli.truthtable, "decide", lambda *a, **k: fake)
        code, out, err = run_cli(
            capsys, "decide", "--logic", "C1", "--formula", "p -> p",
        )
        assert code == 4
        assert "method disagreement" in err
        assert "bug" in err

    def test_batch_disagreement_line(self, capsys, monkeypatch):
        fake = SimpleNamespace(entailed=False, countermodel=None, stats={})
        monkeypatch.setattr(cli.truthtable, "decide", lambda *a, **k: fake)
        monkeypatch.setattr(sys, "stdin", io.StringIO("p -> p\n"))
        code, out, _ = run_cli(capsys, "decide", "--logic", "C1", "--stdin")
        assert code == 4
        assert out.splitlines() == ["disagreement\tp -> p"]


def refuse_extension(*args, **kwargs):
    raise AssertionError("tableau countermodel extracted")


class TestTableauCountermodelOnDemand:
    """The tableau extends an open branch to a countermodel only when its
    countermodel is read; with both engines the answer takes decide's."""

    def test_both_methods_skip_extraction(self, capsys, monkeypatch):
        monkeypatch.setattr(tableau, "extend_partial", refuse_extension)
        ans = cli.answer(cli.RunConfig(C(1), parse("p & q"), method="both"))
        assert ans.entailed is False and ans.agree is True
        assert ans.countermodel is ans.table_result.countermodel
        code, _, _ = run_cli(capsys, "decide", "--logic", "C1",
                             "--formula", "p & q", "--format", "json")
        assert code == 1

    def test_tableau_method_extracts(self, monkeypatch):
        monkeypatch.setattr(tableau, "extend_partial", refuse_extension)
        with pytest.raises(AssertionError, match="extracted"):
            cli.answer(cli.RunConfig(C(1), parse("p & q"), method="tableau"))


def broken_decide(*args, **kwargs):
    raise RuntimeError("boom")


class TestInternalError:
    """An unexpected exception is a bug: exit 5 with one message line, never
    a traceback or exit 1 (which reads as "not entailed")."""

    def test_single_goal(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.truthtable, "decide", broken_decide)
        code, out, err = run_cli(
            capsys, "decide", "--logic", "C1", "--formula", "p -> p",
        )
        assert code == 5
        assert out == ""
        assert err == "dacosta: internal error: RuntimeError('boom')\n"

    def test_batch_answers_other_lines(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.truthtable, "decide", broken_decide)
        monkeypatch.setattr(sys, "stdin", io.StringIO("p -> p\np | (q\n"))
        code, out, err = run_cli(capsys, "decide", "--logic", "C1", "--stdin")
        assert code == 5
        assert out == ""
        assert err.splitlines()[0] == \
            "error\tp -> p\tinternal error: RuntimeError('boom')"
        assert err.splitlines()[1].startswith("error\tp | (q\t")



class TestSignatureOfLibraryGoals:
    """A library caller may hand cli.run a goal with @ in a C_n, which the
    command line's parser refuses: every method is a usage error, exit 2."""

    @pytest.mark.parametrize("method", ["table", "tableau", "both"])
    def test_usage_error(self, method):
        config = cli.RunConfig(logic=C(1), goal=parse("@p -> p"), method=method)
        with pytest.raises(ValueError) as info:
            cli.run(config, out=io.StringIO(), err=io.StringIO())
        assert str(info.value) == "consistency connective not in signature of C1"
        assert cli._exit_code(info.value) == 2

class TestStdinBatch:
    def test_one_verdict_per_line(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin", io.StringIO("p -> p\np & q\n\n~(p & ~p)\n")
        )
        code, out, err = run_cli(capsys, "decide", "--logic", "C1", "--stdin")
        assert code == 1
        assert out.splitlines() == [
            "valid\tp -> p",
            "invalid\tp & q",
            "invalid\t~(p & ~p)",
        ]
        assert err == ""

    def test_worst_exit_code_wins(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("p -> p\np | (q\n"))
        code, out, err = run_cli(capsys, "decide", "--logic", "C1", "--stdin")
        assert code == 2
        assert out.splitlines() == ["valid\tp -> p"]
        assert err.startswith("error\tp | (q\t")

    def test_json_batch(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("p -> p\nq\n"))
        code, out, _ = run_cli(
            capsys, "decide", "--logic", "C1", "--stdin", "--format", "json",
        )
        assert code == 1
        docs = [json.loads(ln) for ln in out.splitlines()]
        assert [d["entailed"] for d in docs] == [True, False]


class TestFlagConflicts:
    @pytest.mark.parametrize("flags", [
        ("--formula", "p -> p", "--method", "table", "--emit-tableau", "tree.txt"),
        ("--stdin", "--emit-table", "table.txt"),
        ("--stdin", "--emit-tableau", "tree.txt"),
        ("--stdin", "--stats"),
    ], ids=["emit-tableau-without-tableau", "stdin-emit-table",
            "stdin-emit-tableau", "stdin-text-stats"])
    def test_usage_error(self, capsys, monkeypatch, tmp_path, flags):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdin", io.StringIO("p -> p\n"))
        code, out, err = run_cli(capsys, "decide", "--logic", "C1", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("decide: ")
        assert list(tmp_path.iterdir()) == []

    def test_stdin_stats_in_json(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("p -> p\n"))
        code, out, _ = run_cli(
            capsys, "decide", "--logic", "C1", "--stdin", "--stats",
            "--format", "json",
        )
        assert code == 0
        assert set(json.loads(out)["stats"]) == {"table", "tableau"}


class TestEmitFiles:
    def test_emit_table_text(self, capsys, tmp_path):
        path = tmp_path / "table.txt"
        code, _, _ = run_cli(
            capsys, "decide", "--logic", "C1",
            "--formula", "p & ~p -> q", "--emit-table", str(path),
            "--show-discarded",
        )
        assert code == 1
        text = path.read_text()
        header = text.splitlines()[0].split()
        assert header == ["p", "q", "~p", "p", "&", "~p", "p", "&", "~p", "->", "q"]
        assert "T" in text and "t" in text

    def test_emit_table_json(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        code, _, _ = run_cli(
            capsys, "decide", "--logic", "C1",
            "--formula", "p -> p", "--emit-table", str(path),
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert "columns" in doc and "rows" in doc

    def test_emit_tableau_text(self, capsys, tmp_path):
        path = tmp_path / "tree.txt"
        code, _, _ = run_cli(
            capsys, "decide", "--logic", "C1",
            "--formula", "p -> p", "--emit-tableau", str(path),
        )
        assert code == 0
        assert path.read_text().startswith("F(p -> p)")

    def test_emit_tableau_json(self, capsys, tmp_path):
        path = tmp_path / "tree.json"
        code, _, _ = run_cli(
            capsys, "decide", "--logic", "C2",
            "--formula", "p -> p", "--emit-tableau", str(path),
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["logic"] == "C2"
        assert doc["root"]["formula"] == "p -> p"

    def test_emit_deep_tableau_text(self, capsys, tmp_path):
        # F(p0 | ... | p1199) unfolds into a chain of 2,399 nodes, deeper
        # than the interpreter's default recursion limit
        path = tmp_path / "tree.txt"
        goal = " | ".join(f"p{i}" for i in range(1200))
        code, _, err = run_cli(
            capsys, "decide", "--logic", "C1", "--method", "tableau",
            "--formula", goal, "--emit-tableau", str(path),
        )
        assert (code, err) == (1, "")
        lines = path.read_text().splitlines()
        assert len(lines) == 2399
        assert lines[0] == f"F({goal})"
        assert lines[-1] == "  " * 2398 + "F(p1)  <F(|)>  [open]"

    def test_emit_deep_tableau_json(self, capsys, tmp_path):
        # The same chain dumps as JSON under a recursion limit far below its
        # depth: both the tree and its text are walked with explicit stacks.
        path = tmp_path / "tree.json"
        goal = " | ".join(f"p{i}" for i in range(1200))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            code, out, err = run_cli(
                capsys, "decide", "--logic", "C1", "--method", "tableau",
                "--format", "json", "--formula", goal, "--emit-tableau", str(path))
        finally:
            sys.setrecursionlimit(limit)
        assert (code, err) == (1, "")
        assert json.loads(out)["entailed"] is False
        lines = path.read_text().splitlines()
        assert lines[-1] == "}"
        # a node's fields are indented by two levels more than its parent's
        formulas = [ln for ln in lines if '"formula": ' in ln]
        assert len(formulas) == 2399
        assert formulas[0] == f'    "formula": "{goal}",'
        assert formulas[-1] == "  " * (2 + 2 * 2398) + '"formula": "p1",'

    def test_tableau_json_text_is_json_dumps(self):
        # the dump's explicit-stack writer gives json.dumps' indented text
        rng = random.Random(3)
        docs = [{}, [], {"a": [[], {}]}, [1, [2.5, None], {"b": ["\u00e9", True]}]]
        for lg in (C(1), C(2), C(3)):
            for _ in range(20):
                f = random_formula(rng, lg, rng.randint(0, 5), ("p", "q"))
                docs.append(tableau.tableau_to_json(
                    dacosta.prove(lg, f, build_tree=True).tableau))
        for doc in docs:
            assert cli._json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("argv", [
        ("decide", "--logic", "C1", "--formula", "p -> p", "--emit-table"),
        ("decide", "--logic", "C1", "--formula", "p -> p", "--emit-tableau"),
        ("axioms", "--logic", "C1", "--instances", "1", "--out"),
    ], ids=["emit-table", "emit-tableau", "axioms-out"])
    def test_unwritable_path(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.txt"
        code, _, err = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert err.startswith("dacosta: ") and "No such file or directory" in err


# Goals for the no-traceback matrix: valid, invalid, a syntax error, a
# connective outside C1's signature, an exponent past the bound, an
# unexpected character, Unicode connectives (invalid in C1), the end of
# input, an empty group, and a goal past both caps of the run.
ROBUST_GOALS = ["p -> p", "p & q", "p | (q", "@p -> p", "p^100", "p $ q",
                "p ∧ ¬p → q", "p ->", "()",
                "(p | q) & (r | s) & (t | u) -> (q | p) & (s | r) & (u | t)"]


class TestNoTraceback:
    @pytest.mark.parametrize("mode", ["goal", "stdin"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("method", ["table", "tableau", "both"])
    def test_exit_codes(self, monkeypatch, method, fmt, mode):
        src_dir = Path(dacosta.__file__).resolve().parent.parent
        monkeypatch.setenv("PYTHONPATH", str(src_dir), prepend=os.pathsep)
        base = [sys.executable, "-m", "dacosta.cli", "decide", "--logic", "C1",
                "--method", method, "--format", fmt,
                "--max-work", "40", "--max-nodes", "20"]
        if mode == "stdin":
            runs = [(base + ["--stdin"], "\n".join(ROBUST_GOALS) + "\n")]
        else:
            runs = [(base + ["--formula", goal], "") for goal in ROBUST_GOALS]
        codes = []
        for argv, stdin in runs:
            proc = subprocess.run(argv, input=stdin, capture_output=True, text=True)
            assert "Traceback" not in proc.stderr
            assert proc.returncode in {0, 1, 2, 3}
            codes.append(proc.returncode)
        # the batch exits with its worst line, the cap
        assert codes == ([3] if mode == "stdin"
                         else [0, 1, 2, 2, 2, 2, 1, 2, 2, 3])


def cli_module(monkeypatch, *argv):
    """argv for `python -m dacosta.cli` running the code this suite imported."""
    src_dir = Path(dacosta.__file__).resolve().parent.parent
    monkeypatch.setenv("PYTHONPATH", str(src_dir), prepend=os.pathsep)
    return [sys.executable, "-m", "dacosta.cli", *argv]


class TestDeepNesting:
    """A goal nested past the recursion limit is a parse error (exit 2), and
    a batch answers the lines around it."""

    DEEP = {"negations": "~" * 3000 + "p",
            "parentheses": "(" * 3000 + "p" + ")" * 3000}

    @pytest.mark.parametrize("shape", sorted(DEEP))
    def test_batch_answers_other_lines(self, monkeypatch, shape):
        deep = self.DEEP[shape]
        proc = subprocess.run(
            cli_module(monkeypatch, "decide", "--logic", "C1", "--stdin"),
            input=f"p -> p\n{deep}\np & q\n", capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stdout.splitlines() == ["valid\tp -> p", "invalid\tp & q"]
        assert proc.stderr.splitlines() == [
            f"error\t{deep}\tformula nested too deeply (at position 0)"]

    def test_single_goal(self, monkeypatch):
        proc = subprocess.run(
            cli_module(monkeypatch, "decide", "--logic", "C1",
                       "--formula", self.DEEP["negations"]),
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == "dacosta: formula nested too deeply (at position 0)\n"


class TestClosedStdout:
    """A reader that closes stdout early ends the run quietly with 141."""

    @pytest.mark.parametrize("argv, lines", [
        (["axioms", "--logic", "C1", "--instances", "300"], 0),
        (["decide", "--logic", "C1", "--stdin"], 5000),
    ], ids=["axioms", "stdin-batch"])
    def test_exit_141_and_no_stderr(self, monkeypatch, tmp_path, argv, lines):
        goals = tmp_path / "goals.txt"
        goals.write_text("p -> p | q & (r -> p)\n" * lines)
        with goals.open() as stdin, subprocess.Popen(
                cli_module(monkeypatch, *argv), stdin=stdin,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert first.strip()
        assert err == b""
        assert code == cli.EXIT_BROKEN_PIPE == 141


class TestTables:
    def test_text_render(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--logic", "C1")
        assert code == 0
        assert out.startswith("logic C1: values T, t, F; designated: all but F")
        for section in ("neg:", "and:", "or:", "imp:"):
            assert section in out

    def test_json_render(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--logic", "mbCcl", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"designated", "logic", "tables", "values"}
        assert doc["values"] == ["T", "t", "F"]
        assert doc["logic"] == "mbCcl"


class TestAxioms:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "axioms", "--logic", "mbCcl")
        assert code == 0
        lines = out.splitlines()
        assert "Ax1(A, B) = A -> B -> A" in lines
        assert "bc1(A, B) = @A -> A -> ~A -> B" in lines
        assert "cl(A) = ~(A & ~A) -> @A" in lines
        assert len(lines) == 12

    def test_instances_to_file(self, capsys, tmp_path):
        path = tmp_path / "inst.txt"
        code, out, _ = run_cli(
            capsys, "axioms", "--logic", "C1", "--instances", "2",
            "--seed", "9", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 2 * 14
        from dacosta import parse, parse_logic

        lg = parse_logic("C1")
        for ln in lines:
            parse(ln, lg)

    def test_instances_decide_in_one_batch(self, capsys, monkeypatch):
        # C4 instances in the sugar-free text `axioms` writes: 14 lines of
        # up to about 3,200 characters, each a tower that doubles per level
        code, out, _ = run_cli(
            capsys, "axioms", "--logic", "C4", "--instances", "1",
            "--connectives", "1", "--seed", "7",
        )
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out, err = run_cli(
            capsys, "decide", "--logic", "C4", "--stdin", "--derived-rules",
            "--format", "json",
        )
        assert code == 0 and err == ""
        docs = [json.loads(ln) for ln in out.splitlines()]
        assert len(docs) == 14
        assert all(d["entailed"] is True and d["agree"] is True for d in docs)

    def test_instance_seed_reproducible(self, capsys):
        code, out1, _ = run_cli(
            capsys, "axioms", "--logic", "Cila", "--instances", "1", "--seed", "4",
        )
        code, out2, _ = run_cli(
            capsys, "axioms", "--logic", "Cila", "--instances", "1", "--seed", "4",
        )
        assert out1 == out2


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert "usage" in err

    def test_installed_script(self, tmp_path, monkeypatch):
        make_console_script(tmp_path / "bin", monkeypatch)
        proc = subprocess.run(
            ["dacosta", "decide", "--logic", "Cila",
             "--formula", "~@p -> p & ~p"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "verdict: valid" in proc.stdout

    @pytest.mark.skipif(shutil.which("dacosta") is None,
                        reason="no `dacosta` console script on PATH "
                               "(the package is not installed)")
    def test_console_script_on_path(self, monkeypatch):
        # Without the suite's PYTHONPATH the script must find the package
        # where the install put it, which checks the packaging itself.
        monkeypatch.delenv("PYTHONPATH", raising=False)
        proc = subprocess.run(
            ["dacosta", "decide", "--logic", "Cila",
             "--formula", "~@p -> p & ~p"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "verdict: valid" in proc.stdout
