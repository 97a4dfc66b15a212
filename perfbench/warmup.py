"""Set-up of the measured process: import dacosta and warm its caches.

One query per logic through `cli.run` fills the connective tables, the
tableau rule tables and the pow-chain caches of every logic the workloads
use.  Run as a script, it times import plus warm-up in this fresh
interpreter and prints the seconds, corrected for the machine's speed by
the speed kernel run just before and just after (speed.py):

    python3 perfbench/warmup.py
"""

from __future__ import annotations

import io
import os
import sys
import time

LOGICS = ("C1", "C2", "C3", "C4", "mbCcl", "Cila")


def warm_up():
    from dacosta import cli, formula

    for name in LOGICS:
        logic = formula.parse_logic(name)
        guard = f"p^({logic.n})" if logic.family == "C" else "@p"
        premises = tuple(formula.parse(t, logic) for t in ("p", "~p", guard))
        cfg = cli.RunConfig(logic=logic, goal=formula.parse("q", logic),
                            premises=premises, derived_rules=True, format="json")
        cli.run(cfg, out=io.StringIO(), err=io.StringIO())


if __name__ == "__main__":
    import speed

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    before = speed.probe()
    start = time.perf_counter()
    import dacosta  # noqa: F401  (the import is part of what is timed)
    warm_up()
    elapsed = time.perf_counter() - start
    after = speed.probe()
    print(elapsed * 2.0 * speed.NOMINAL_S / (before + after))
