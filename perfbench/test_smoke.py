"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from dacosta.formula import parse_logic  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0.05",
                "--trace", trace)
    lines = out.splitlines()
    result = json.loads(lines[-1])
    want = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    for m in want:
        assert any(ln.split()[:1] == [m["name"]] and ln.split()[-1] == m["unit"]
                   for ln in lines[:-1]), m["name"]


class OneBlock:
    def __init__(self, block):
        self.block = block

    def next(self):
        return self.block


def known_answer_queries():
    """Non-explosion and its recovery along the C_n hierarchy."""
    out = []
    for n in (2, 3):
        name = f"C{n}"
        out.append(workloads.query(name, "q", ("p", "~p"), "not entailed",
                                   True, f"{name}/explode"))
        out.append(workloads.query(name, "q", ("p", "~p", f"p^({n})"), "valid",
                                   True, f"{name}/recover"))
        out.append(workloads.query(name, "q", ("p", "~p", f"p^({n - 1})"),
                                   "not entailed", True, f"{name}/short"))
    return out


def run_block(block):
    b = run.Bench(OneBlock(block))
    b.run(0.0, max_blocks=1)
    return b


def test_gate_passes_the_true_answers():
    b = run_block(known_answer_queries())
    assert b.wrong == [] and b.failed == 0 and b.attempted == 6


@pytest.mark.parametrize("tag", ["C2/recover", "C3/short"])
def test_gate_trips_on_a_flipped_answer(tag):
    block = known_answer_queries()
    flipped = next(q for q in block if q["tag"] == tag)
    flipped["expect"] = "not entailed" if flipped["expect"] == "valid" else "valid"
    b = run_block(block)
    assert len(b.wrong) == 1 and b.wrong[0].startswith(tag)
    assert b.failed == 1


def test_gate_replays_the_countermodel():
    logic = parse_logic("C2")
    q = workloads.query("C2", "q", ("p", "~p"), "not entailed")
    b = run.Bench(OneBlock([q]))
    goal, premises, code, output = b.ask(q, logic)
    assert gate.check(q, logic, goal, premises, code, output) == "ok"
    payload = json.loads(output)
    payload["countermodel"]["q"] = "T2"      # designates the goal
    assert "designates the goal" in gate.check(
        q, logic, goal, premises, code, json.dumps(payload))
    payload["countermodel"]["q"] = "F2"
    payload["countermodel"]["~p"] = "F2"     # ~p = F2 needs p = T2
    assert gate.check(q, logic, goal, premises, code,
                      json.dumps(payload)).startswith("wrong:")


def test_correction_divides_out_the_speed():
    b = run.Bench(OneBlock([]))
    b.latencies = [0.010, 0.020, 0.030]
    b.segments = [0, 0, 1]
    # The kernel ran at nominal speed, then at a third of it.
    b.probes = [speed.NOMINAL_S, speed.NOMINAL_S, 3 * speed.NOMINAL_S]
    assert b.corrected() == pytest.approx([0.010, 0.020, 0.015])


@pytest.mark.parametrize("name", ["C1", "C4", "Cila"])
def test_every_shape_once_per_window(name):
    cycle = workloads.shape_cycle(parse_logic(name), workloads.AXIOM_CONNECTIVES[name])
    key = f"{name}/Ax2/B"
    for window in range(3):
        got = [workloads.shape(cycle, 5, key, window * len(cycle) + i)
               for i in range(len(cycle))]
        assert sorted(got, key=repr) == sorted(cycle, key=repr)


COUNTS = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import run, tracing, warmup
warmup.warm_up()
tracer = tracing.Tracer()
run.Bench(run.Blocks({workload!r}, 11)).run(0.0, tracer, max_blocks=1)
print(json.dumps({{k: tracer.counts[k] for k in run.SEEDED_COUNTS}}))
"""


@pytest.mark.parametrize("workload", ["random-refute", "axiom-proofs"])
def test_seeded_counts_repeat_across_runs(workload):
    code = COUNTS.format(src=os.path.join(ROOT, "src"), here=HERE,
                         workload=workload)
    outs = [subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                           capture_output=True, text=True, timeout=300,
                           check=True).stdout
            for _ in range(2)]
    first = json.loads(outs[0])
    assert first["tableau.nodes"] > 0 and first["truthtable.work"] > 0
    assert outs[0] == outs[1]


def test_fails_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), bench_dir / name)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "random-refute", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
