"""Spans and counters around the public entry points of each layer.

The tracer swaps wrappers into module attributes while a traced block runs:

    dacosta.formula.parse        -> span "formula.parse"
    dacosta.truthtable.decide    -> span "truthtable.decide" (+ work)
    dacosta.tableau.prove        -> span "tableau.prove" (+ nodes, branches, ...)
    dacosta.tableau.extend_partial -> span "truthtable.extend_partial"
                                   (tableau binds this name at import)
    dacosta.cli.run              -> span "cli.run" (+ disagreements)

`cli.run` reaches `decide` and `prove` through module attributes, so their
spans nest under it.  Spans are recorded only inside `query()`, so the
correctness gate and the warm-up leave no spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from dacosta import cli, formula, tableau, truthtable
from dacosta.errors import ResourceLimitError

EXIT_DISAGREEMENT = 4


def _decide_counts(result, counts):
    counts["truthtable.work"] += result.stats["work"]


def _prove_counts(result, counts):
    stats = result.tableau.stats
    for key in ("nodes", "branches", "closures", "derived_rule_hits"):
        counts[f"tableau.{key}"] += stats[key]
    counts["tableau.early_stops"] += bool(stats["early_stop"])


def _run_counts(code, counts):
    counts["cli.disagreements"] += code == EXIT_DISAGREEMENT


# Layers whose caps raise ResourceLimitError.
CAP_COUNTERS = {"truthtable.decide": "truthtable.cap_failures",
                "tableau.prove": "tableau.cap_failures"}


# (module, attribute, span name, result -> counters)
TARGETS = (
    (formula, "parse", "formula.parse", None),
    (truthtable, "decide", "truthtable.decide", _decide_counts),
    (tableau, "prove", "tableau.prove", _prove_counts),
    (tableau, "extend_partial", "truthtable.extend_partial", None),
    (cli, "run", "cli.run", _run_counts),
)


class Tracer:
    def __init__(self):
        self.spans = []        # [query id, span id, parent id, name, start, end]
        self.counts = Counter()
        self.queries = 0
        self._stack = []
        self._qid = None
        self._saved = None

    def install(self):
        self._saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        for (mod, attr, name, on_result), (_, _, fn) in zip(TARGETS, self._saved):
            setattr(mod, attr, self._wrap(name, fn, on_result))

    def uninstall(self):
        for mod, attr, fn in self._saved:
            setattr(mod, attr, fn)
        self._saved = None

    def _wrap(self, name, fn, on_result):
        def traced(*args, **kwargs):
            if self._qid is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except ResourceLimitError:
                if name in CAP_COUNTERS:
                    self.counts[CAP_COUNTERS[name]] += 1
                raise
            finally:
                self._close(span)
            if on_result is not None:
                on_result(result, self.counts)
            return result
        return traced

    def _open(self, name):
        parent = self._stack[-1][1] if self._stack else None
        span = [self._qid, len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span[5] = time.perf_counter()
        self._stack.pop()

    def query(self, qid, fn):
        """Run fn() as query `qid` under a root span "query"."""
        self._qid = qid
        self.queries += 1
        span = self._open("query")
        try:
            return fn()
        finally:
            self._close(span)
            self._qid = None

    def durations(self):
        """Per span name: (list of durations, total self time), in seconds.

        Self time is a span's duration minus the durations of its children."""
        child_time = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: ([], 0.0))
        for _, sid, _, name, start, end in self.spans:
            durs, self_s = out[name]
            durs.append(end - start)
            out[name] = (durs, self_s + (end - start) - child_time[sid])
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for qid, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"query": qid, "span": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")
