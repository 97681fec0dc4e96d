"""Regenerate ``compos_strata.json``, the work table the compos workload samples from.

The cost of one ``opseries verify compos --m M --seed s`` request varies
about threefold from one CLI seed to the next, with the size of the
operators the seed draws.  The table records, for CLI seeds ``0..P-1``,
the request's ``MultiPoly`` multiply-add count (``multipoly.mul.madds``
from a traced run), a deterministic work count that tracks its time
closely (correlation 0.92 over 40 seeds at M=6).  ``run.py`` sorts the
seeds by it, cuts them into equal strata and draws one seed per stratum,
so every benchmark seed asks for the same mix of small and large
instances.

Run from the repository root (takes about ten minutes):

    python3 perfbench/make_strata.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import opseries.cli as cli  # noqa: E402
from run import Checker, call  # noqa: E402
from tracer import Tracer  # noqa: E402

POOL_SIZE = {5: 120, 6: 360}


def madds(m: int, cli_seed: int) -> int:
    argv = ["verify", "compos", "--m", str(m), "--seed", str(cli_seed), "--format", "json"]
    checker = Checker()
    with Tracer() as tracer:
        code, out, _ = call(cli, argv)
    if not checker(0, argv, code, out):
        raise SystemExit(checker.failures[0])
    return tracer.metrics()["multipoly.mul.madds"]


def build_table() -> None:
    table = {str(m): [madds(m, s) for s in range(p)] for m, p in POOL_SIZE.items()}
    (HERE / "compos_strata.json").write_text(json.dumps(table) + "\n")


if __name__ == "__main__":
    build_table()
