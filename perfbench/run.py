"""Entailment benchmark for dacosta: one client, closed loop, one process.

    python3 perfbench/run.py --workload axiom-proofs --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Each query is the `dacosta decide --format json --method both` path without
process start and argparse: the goal and premise texts go through
`formula.parse`, then `cli.run` answers with its output captured in memory.
Every answer is checked outside the timed span (gate.py); the run stops at
the first query boundary after `--seconds` of timed queries.  Between
queries a fixed speed kernel (speed.py) is timed, and every reported time
is scaled by it to the kernel's nominal speed, which divides out the shared
host's drift.

--trace 0 prints the end-to-end metrics.  --trace 1 answers every block
twice, untraced and traced, and prints the per-layer metrics, read from
spans and result stats around each layer's entry point (tracing.py).
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Spans of a traced run are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, deque

import speed
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7          # fresh interpreters timed for setup_s
FIRST_BATCH = 8           # blocks generated before timing starts
MAX_BATCH = 256
# peak_rss_mb is read once this many blocks are done (about 15 s of queries
# on a 2-vCPU Xeon VM), or at the end of a shorter run.  A fixed amount of
# input keeps a faster program, which gets through more blocks, from being
# charged for the larger intern table they leave behind.
RSS_BLOCKS = {"axiom-proofs": 20, "random-refute": 300}
# The speed kernel (speed.py) runs after every PROBE_EVERY_S seconds of timed
# queries.  A query's time is corrected by the mean of the probes just before
# and just after it.
PROBE_EVERY_S = 0.05

END_TO_END = {
    "queries_per_s": "queries/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "tableau.prove_self_ms": "ms/query",
    "tableau.prove_p99_ms": "ms",
    "tableau.nodes": "count/query",
    "tableau.nodes_per_ms": "nodes/ms",
    "tableau.branches": "count/query",
    "tableau.closures": "count/query",
    "tableau.derived_rule_hits": "count/query",
    "tableau.early_stops": "count/query",
    "tableau.cap_failures": "count/query",
    "truthtable.decide_ms": "ms/query",
    "truthtable.decide_p99_ms": "ms",
    "truthtable.work": "count/query",
    "truthtable.work_per_ms": "work/ms",
    "truthtable.cap_failures": "count/query",
    # A share, not a time: axiom-proofs has no countermodels, so the time
    # spent in extension there is exactly 0 on every run.
    "truthtable.extend_partial_pct": "%",
    "truthtable.extend_partial_calls": "count/query",
    "formula.parse_ms": "ms/query",
    "formula.parse_calls": "count/query",
    "cli.run_self_ms": "ms/query",
    "cli.disagreements": "count/query",
    "trace.overhead_pct": "%",
}
# Seeded counts: a pure function of the generated queries, so two runs over
# the same blocks must report them identically.
SEEDED_COUNTS = ("truthtable.work", "tableau.nodes", "tableau.branches",
                 "tableau.closures", "tableau.derived_rule_hits")


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Blocks:
    """The workload's blocks in order, generated in a child process in
    growing batches, so the measured process never builds a formula itself."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.next_index = 0
        self.batch = FIRST_BATCH
        self.pending = deque()
        self._generate()

    def _generate(self):
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--first", str(self.next_index), "--count", str(self.batch)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        self.pending.extend(json.loads(line) for line in proc.stdout.splitlines())
        self.next_index += self.batch
        self.batch = min(2 * self.batch, MAX_BATCH)

    def next(self):
        if not self.pending:
            self._generate()
        return self.pending.popleft()


class Bench:
    """Runs blocks of queries, times each, and checks each answer."""

    def __init__(self, blocks):
        from dacosta import cli, formula
        from dacosta.errors import ResourceLimitError

        # Modules, not functions: the tracer swaps their attributes.
        self.cli = cli
        self.formula = formula
        self.cap_error = ResourceLimitError
        self.blocks = blocks
        self.latencies = []         # measured seconds per query
        self.segments = []          # per query: index of the last probe before it
        self.probes = []            # speed kernel seconds, in run order
        self.answered = 0
        self._probed_at = 0.0
        self.block_rss = []         # peak RSS in MB after each whole block
        self.pairs = []             # (untraced, traced) seconds per traced block
        self.timed = 0.0
        self.outcomes = Counter()
        self.wrong = []
        self.attempted = 0

    def ask(self, q, logic):
        """The timed request: parse the texts, answer through cli.run."""
        goal = self.formula.parse(q["goal"], logic)
        premises = tuple(self.formula.parse(t, logic) for t in q["premises"])
        out = io.StringIO()
        cfg = self.cli.RunConfig(logic=logic, goal=goal, premises=premises,
                                 method="both", derived_rules=q["derived"],
                                 format="json")
        try:
            code = self.cli.run(cfg, out=out, err=io.StringIO())
        except self.cap_error:
            code = None
        return goal, premises, code, out.getvalue()

    def run(self, seconds, tracer=None, max_blocks=None):
        """Closed loop until `seconds` of timed queries, or `max_blocks` whole
        blocks.  When tracing, a timed stop waits for one whole pair, as the
        overhead compares the two runs of whole blocks.

        With a tracer, each block runs twice, traced and untraced, the order
        alternating from block to block so that the second run's warm intern
        table favours neither side."""
        self.timed = 0.0
        self._probe()
        index = 0

        def stop():
            if max_blocks is not None:
                return index >= max_blocks
            return self.timed >= seconds and (tracer is None or bool(self.pairs))

        while not stop():
            block = self.blocks.next()
            logics = [self.formula.parse_logic(q["logic"]) for q in block]
            if tracer is None:
                if self._block(block, logics, None, stop) is not None:
                    self.block_rss.append(peak_rss_mb())
            else:
                times = {}
                for traced in ((False, True) if index % 2 == 0 else (True, False)):
                    times[traced] = self._block(
                        block, logics, tracer if traced else None, stop)
                    if times[traced] is None:
                        break
                else:
                    self.pairs.append((times[False], times[True]))
            index += 1
        self._probe()

    def _probe(self):
        self.probes.append(speed.probe())
        self._probed_at = self.timed

    def _block(self, block, logics, tracer, stop):
        """Answer and check one block: its timed seconds, or None when
        `stop()` cut the block short."""
        import gate

        if tracer is not None:
            tracer.install()
        elapsed = 0.0
        asked = 0
        try:
            for q, logic in zip(block, logics):
                t0 = time.perf_counter()
                if tracer is not None:
                    answer = tracer.query(self.attempted, lambda: self.ask(q, logic))
                else:
                    answer = self.ask(q, logic)
                t = time.perf_counter() - t0
                self.attempted += 1
                asked += 1
                elapsed += t
                self.timed += t
                self.latencies.append(t)
                self.segments.append(len(self.probes) - 1)
                outcome = gate.check(q, logic, *answer)
                if outcome == "ok":
                    self.answered += 1
                elif outcome in gate.FAILED:
                    self.outcomes[outcome] += 1
                else:
                    self.outcomes["wrong"] += 1
                    self.wrong.append(f"{q['tag']}: {outcome}: "
                                      f"{'; '.join(q['premises'])} |- {q['goal']}")
                if self.timed - self._probed_at >= PROBE_EVERY_S:
                    self._probe()
                if stop():
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        return elapsed if asked == len(block) else None

    def corrected(self):
        """Each query's seconds scaled to the speed kernel's nominal speed,
        by the mean of the probes just before and just after it (speed.py)."""
        around = zip(self.probes, self.probes[1:])
        scale = [2.0 * speed.NOMINAL_S / (before + after) for before, after in around]
        return [t * scale[s] for t, s in zip(self.latencies, self.segments)]

    @property
    def failed(self):
        return sum(self.outcomes.values())


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup():
    """Median seconds of import + warm-up over fresh interpreters, each
    corrected for the machine's speed (warmup.py)."""
    cmd = [sys.executable, os.path.join(HERE, "warmup.py")]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def end_to_end_metrics(bench, workload, setup_s):
    """Times are corrected for the machine's drift (Bench.corrected)."""
    seconds = bench.corrected()
    ms = sorted(1000.0 * t for t in seconds)
    # A run cut inside its first block reads the peak at its end.
    rss = bench.block_rss[:RSS_BLOCKS[workload]][-1] if bench.block_rss else peak_rss_mb()
    return {
        "queries_per_s": bench.answered / sum(seconds),
        "latency_p50_ms": statistics.median(ms),
        "latency_p99_ms": percentile(ms, 0.99),
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }


def per_layer_metrics(bench, tracer):
    n = max(tracer.queries, 1)
    spans = tracer.durations()
    counts = tracer.counts

    def self_ms(name):
        return 1000.0 * spans[name][1] if name in spans else 0.0

    def p99_ms(name):
        durs = spans[name][0] if name in spans else [0.0]
        return 1000.0 * percentile(sorted(durs), 0.99)

    def calls(name):
        return len(spans[name][0]) if name in spans else 0

    prove_self = self_ms("tableau.prove")
    decide_ms = self_ms("truthtable.decide")
    untraced = sum(u for u, _ in bench.pairs)
    traced = sum(t for _, t in bench.pairs)
    return {
        "tableau.prove_self_ms": prove_self / n,
        "tableau.prove_p99_ms": p99_ms("tableau.prove"),
        "tableau.nodes": counts["tableau.nodes"] / n,
        "tableau.nodes_per_ms": counts["tableau.nodes"] / prove_self if prove_self else 0.0,
        "tableau.branches": counts["tableau.branches"] / n,
        "tableau.closures": counts["tableau.closures"] / n,
        "tableau.derived_rule_hits": counts["tableau.derived_rule_hits"] / n,
        "tableau.early_stops": counts["tableau.early_stops"] / n,
        "tableau.cap_failures": counts["tableau.cap_failures"] / n,
        "truthtable.decide_ms": decide_ms / n,
        "truthtable.decide_p99_ms": p99_ms("truthtable.decide"),
        "truthtable.work": counts["truthtable.work"] / n,
        "truthtable.work_per_ms": counts["truthtable.work"] / decide_ms if decide_ms else 0.0,
        "truthtable.cap_failures": counts["truthtable.cap_failures"] / n,
        "truthtable.extend_partial_pct":
            100.0 * spans["truthtable.extend_partial"][1] / sum(spans["query"][0])
            if "truthtable.extend_partial" in spans else 0.0,
        "truthtable.extend_partial_calls": calls("truthtable.extend_partial") / n,
        "formula.parse_ms": self_ms("formula.parse") / n,
        "formula.parse_calls": calls("formula.parse") / n,
        "cli.run_self_ms": self_ms("cli.run") / n,
        "cli.disagreements": counts["cli.disagreements"] / n,
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0),
    }


def layer_shares(tracer):
    """Self time per span name as a share of all query time."""
    spans = tracer.durations()
    total = sum(spans["query"][0])
    return {name: self_s / total for name, (_, self_s) in spans.items()}


def run_one(args):
    sys.path.insert(0, SRC)
    setup_s = None if args.trace else measure_setup()
    blocks = Blocks(args.workload, args.seed)
    import warmup
    warmup.warm_up()
    bench = Bench(blocks)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        bench.run(args.seconds, tracer)
        metrics = per_layer_metrics(bench, tracer)
        units = PER_LAYER
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.dump(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"))
        for name, share in sorted(layer_shares(tracer).items(), key=lambda kv: -kv[1]):
            print(f"self-time share  {name:28} {100.0 * share:6.2f} %")
    else:
        bench.run(args.seconds)
        metrics = end_to_end_metrics(bench, args.workload, setup_s)
        units = END_TO_END
    for line in bench.wrong[:10]:
        print(f"perfbench: wrong answer: {line}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:32} {value:14.4f} {units[name]}")
    print(f"{'failed_share':32} {bench.failed / bench.attempted:14.4f} "
          f"of {bench.attempted} attempted ({dict(bench.outcomes) or 'none'})")
    print(json.dumps({
        "correct": not bench.wrong,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own fresh process, then one summary table."""
    rows = []
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        print(f"== {workload}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((workload, "failed_share",
                     result["failed"] / result["attempted"], "of attempted"))
        rows.extend((workload, name, m["value"], m["unit"])
                    for name, m in result["metrics"].items())
    print("== summary")
    for workload, name, value, unit in rows:
        print(f"{workload:20} {name:32} {value:14.4f} {unit}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dacosta", "__init__.py")):
        print(f"perfbench: no dacosta sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # The library's default caps, whatever the environment says.
    for var in ("DACOSTA_MAX_ROWS", "DACOSTA_MAX_NODES", "DACOSTA_MAX_WORK"):
        os.environ.pop(var, None)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
