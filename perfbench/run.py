"""End-to-end and per-layer benchmark for the opseries command line.

One run is one workload in one fresh interpreter.  A closed loop with a
single client calls ``opseries.cli.main(argv)`` in-process on one thread,
with stdout captured, and sends the next request only when the previous
one has returned.  Every output is checked outside the timed region.

    python3 perfbench/run.py --workload invert_log --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # all workloads, one interpreter each

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` sends the first requests of the seed's stream once untraced
and once with every layer entry point wrapped, and reports the per-layer
metrics.
The last line of stdout is one JSON object; a readable summary goes to
stderr.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

POOL = ("0", "1", "-1", "2", "-2", "1/2")
LEAD_POOL = ("1", "-1", "2", "-2", "1/2")
INVERT_ORDERS = tuple(range(40, 65, 2))
COMPOS_MIX = ((6, 12), (5, 4))  # (m, requests per block): mostly m=6, some m=5
SUITE_ROTATION = (
    ("prop1",),
    ("corollary",),
    ("compos", "--m", "4"),
    ("bellpower", "--m", "5"),
    ("expid", "--order", "4"),
    ("stirling", "--m", "10"),
    ("inversion", "--order", "14"),
)
SETUP_REPEATS = 11
CAL_EVERY = 0.25  # seconds of request time between calibration passes
CAL_NOMINAL = 0.0075  # the calibration kernel's time on an idle host (Xeon, Python 3.11)
# The anchor requests are the first requests of this seed's stream; they
# warm the interpreter and their stdout must hash to the recorded digest.
REFERENCE_SEED = 1


def spread_order(n: int) -> list[int]:
    """0..n-1 in bit-reversed order, so that every prefix covers the range evenly.

    Blocks list their size levels in this order: a run that stops part way
    through a block has still sampled small, middle and large requests alike.
    """
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))


def invert_log_block(rng: random.Random) -> list[list[str]]:
    requests = []
    for i in spread_order(len(INVERT_ORDERS)):
        order = INVERT_ORDERS[i]
        # `invert --method log` needs the input valid to order + 1
        coeffs = ["0", rng.choice(LEAD_POOL)] + [rng.choice(POOL) for _ in range(order)]
        requests.append(
            ["invert", "--method", "log", "--format", "json", "--order", str(order),
             "--coeffs", ",".join(coeffs)]
        )
    return requests


@functools.cache
def compos_strata() -> list[tuple[int, list[int]]]:
    """(m, CLI seeds) strata of increasing work: the M=5 strata, then the M=6 ones."""
    work = json.loads((HERE / "compos_strata.json").read_text())
    strata = []
    for m, count in sorted(COMPOS_MIX):
        table = work[str(m)]
        ranked = sorted(range(len(table)), key=lambda s: (table[s], s))
        width = len(ranked) // count
        strata += [(m, ranked[k * width:(k + 1) * width]) for k in range(count)]
    return strata


def compos_block(rng: random.Random) -> list[list[str]]:
    strata = compos_strata()
    return [
        ["verify", "compos", "--m", str(m), "--seed", str(rng.choice(seeds)), "--format", "json"]
        for m, seeds in (strata[i] for i in spread_order(len(strata)))
    ]


def suites_block(rng: random.Random) -> list[list[str]]:
    return [
        ["verify", *suite, "--seed", str(rng.randrange(10**6)), "--format", "json"]
        for suite in SUITE_ROTATION
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[random.Random], list[list[str]]]
    tail_pct: float  # highest percentile with >= 10 requests beyond it at 30 s runs
    traced: int  # requests in one traced pass
    anchor: int  # number of anchor requests
    anchor_sha256: str

    def requests(self, seed: int) -> Iterator[list[str]]:
        """The seed's endless request stream, one stratified block after another."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield from self.block(rng)

    def first(self, seed: int, count: int) -> list[list[str]]:
        return list(itertools.islice(self.requests(seed), count))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("invert_log", invert_log_block, 80.0, 13, 3,
                 "f91260f5ab767e6ce96fa45decb633ce065f7987c49ecaaf6e20081052876949"),
        Workload("compos", compos_block, 70.0, 16, 2,
                 "538601efa6672ad2888caf9446fc37c1d09bf6b09c9a02b4280b283d34dea45d"),
        Workload("suites", suites_block, 98.0, 224, 7,
                 "0319cf0921a9e4623034f59454fe16c8a62907e04f7b601e8c0510a9051ddd5a"),
    )
}


# --- output checks -----------------------------------------------------------


def _ogf(coeffs: list[Fraction]) -> list[Fraction]:
    return [c / math.factorial(k) for k, c in enumerate(coeffs)]


def composes_to_identity(f_egf: list[Fraction], g_egf: list[Fraction], order: int) -> bool:
    """Exact check that f(g(x)) = x + O(x^(order+1)), by plain power sums.

    Independent of ``EgfSeries.compose``: works on ordinary coefficients
    and sums ``F_k G^k`` with powers built by truncated schoolbook products.
    """
    F = _ogf(f_egf[: order + 1])
    G = _ogf(g_egf[: order + 1])
    if F[0] != 0 or G[0] != 0:
        return False
    total = [Fraction(0)] * (order + 1)
    power = G
    for k in range(1, order + 1):
        if k > 1:
            nxt = [Fraction(0)] * (order + 1)
            for i in range(k - 1, order + 1):
                if power[i]:
                    for j in range(1, order + 1 - i):
                        if G[j]:
                            nxt[i + j] += power[i] * G[j]
            power = nxt
        if F[k]:
            for i in range(k, order + 1):
                total[i] += F[k] * power[i]
    return total == [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_output(argv: list[str], code: int, out: str) -> str | None:
    """Why the response to ``argv`` is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(out)
        if argv[0] == "invert":
            return _check_inverse(argv, payload)
        if not payload or not all(report["passed"] is True for report in payload):
            return "a report has passed != true"
    except (ValueError, LookupError, TypeError, ArithmeticError) as exc:
        return f"malformed output: {exc!r}"
    return None


def _check_inverse(argv: list[str], payload: dict) -> str | None:
    order = int(_flag(argv, "--order"))
    sent = _flag(argv, "--coeffs").split(",")
    if payload.get("agree", True) is not True:
        return "agree is false"
    if payload["input"]["coeffs"] != sent or payload["inverse"]["order"] != order:
        return "input echo or inverse order differs from the request"
    f = [Fraction(c) for c in sent]
    g = [Fraction(c) for c in payload["inverse"]["coeffs"]]
    if not composes_to_identity(f, g, order):
        return f"f(g(x)) != x to order {order}"
    return None


class Checker:
    """Checks each response; one sent again under the same key must repeat its bytes."""

    def __init__(self) -> None:
        self.seen: dict[int, tuple[str, str | None]] = {}
        self.failures: list[str] = []

    def __call__(self, key: int, argv: list[str], code: int, out: str) -> bool:
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        if key not in self.seen:
            self.seen[key] = (digest, check_output(argv, code, out))
        first_digest, problem = self.seen[key]
        if problem is None and digest != first_digest:
            problem = "stdout differs from an earlier run of the same request"
        if problem is not None:
            self.failures.append(f"{' '.join(argv)[:120]}: {problem}")
        return problem is None


# --- running requests --------------------------------------------------------


def call(cli, argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), elapsed


def run_anchor(cli, workload: Workload, checker: Checker) -> int:
    """Run the anchor requests; return how many of them failed."""
    anchor = workload.first(REFERENCE_SEED, workload.anchor)
    digest = hashlib.sha256()
    failed = 0
    for k, argv in enumerate(anchor):
        code, out, _ = call(cli, argv)
        digest.update(out.encode())
        failed += not checker(-1 - k, argv, code, out)
    if digest.hexdigest() != workload.anchor_sha256:
        checker.failures.append(
            f"anchor stdout sha256 {digest.hexdigest()} != recorded {workload.anchor_sha256}"
        )
        return len(anchor)
    return failed


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import opseries
from opseries.cli import build_parser
build_parser()
elapsed = time.perf_counter() - t0
print(opseries.__file__)
print(elapsed)
"""


def setup_once() -> float:
    """Seconds a fresh interpreter takes to import opseries and build the parser."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    where, elapsed = proc.stdout.split()
    if not Path(where).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up imported opseries from {where}, not {SRC}")
    return float(elapsed)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def calibration_seconds() -> float:
    """Time one pass of a fixed exact-arithmetic kernel: the host's current speed."""
    t0 = time.perf_counter()
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 40):
        for j in range(1, 40):
            key = (i % 7, j % 5)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, j) * Fraction(j + 1, i + 2)
    return time.perf_counter() - t0


def measure(cli, workload: Workload, seed: int, seconds: float) -> dict:
    stream = workload.requests(seed)
    checker = Checker()
    setup_once()  # writes the bytecode caches; not counted
    failed = run_anchor(cli, workload, checker)
    # Other tenants of a shared host slow every process down by up to 2x,
    # in phases of a few seconds.  Each batch of requests (CAL_EVERY seconds
    # of them) is bracketed by calibration passes and its times are
    # rescaled to the speed at which the kernel takes CAL_NOMINAL seconds.
    scale = CAL_NOMINAL / calibration_seconds()
    setups: list[float] = []
    samples: list[float] = []
    batch: list[float] = []
    busy = 0.0
    while busy < seconds:
        if len(setups) < SETUP_REPEATS and busy >= len(setups) * seconds / SETUP_REPEATS:
            elapsed = setup_once()
            after = CAL_NOMINAL / calibration_seconds()
            setups.append(elapsed * (scale + after) / 2)
            samples += [t * (scale + after) / 2 for t in batch]
            scale, batch = after, []
        argv = next(stream)
        code, out, elapsed = call(cli, argv)
        batch.append(elapsed)
        busy += elapsed
        failed += not checker(len(samples) + len(batch), argv, code, out)
        if sum(batch) >= CAL_EVERY or busy >= seconds:
            after = CAL_NOMINAL / calibration_seconds()
            samples += [t * (scale + after) / 2 for t in batch]
            scale, batch = after, []
    ordered = sorted(samples)
    return {
        "attempted": workload.anchor + len(samples),
        "failed": failed,
        "failures": checker.failures,
        "samples": len(samples),
        "metrics": {
            "setup_s": statistics.median(setups),
            "throughput_rps": len(samples) / sum(samples),
            "latency_p50_ms": statistics.median(ordered) * 1000,
            "latency_tail_ms": percentile(ordered, workload.tail_pct) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


def run_pass(cli, requests: list[list[str]], checker: Checker) -> tuple[int, int, float]:
    """Send each request once; return (failed, stdout bytes, summed request seconds)."""
    failed = output_bytes = 0
    busy = 0.0
    for k, argv in enumerate(requests):
        code, out, elapsed = call(cli, argv)
        failed += not checker(k, argv, code, out)
        output_bytes += len(out.encode())
        busy += elapsed
    return failed, output_bytes, busy


def measure_traced(cli, workload: Workload, seed: int) -> dict:
    from tracer import Tracer  # imports opseries, so only once src/ is on the path

    requests = workload.first(seed, workload.traced)
    checker = Checker()
    anchor_failed = run_anchor(cli, workload, checker)
    plain_failed, _, plain_s = run_pass(cli, requests, checker)
    with Tracer() as tracer:
        traced_failed, output_bytes, traced_s = run_pass(cli, requests, checker)
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = output_bytes
    metrics["trace.requests"] = len(requests)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    return {
        "attempted": workload.anchor + 2 * len(requests),
        "failed": anchor_failed + plain_failed + traced_failed,
        "failures": checker.failures,
        "samples": len(requests),
        "metrics": metrics,
    }


# --- entry point -------------------------------------------------------------


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_all(args) -> int:
    """Run every workload, each in its own interpreter, and relay the results."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        status = status or proc.returncode
        lines = proc.stdout.splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "opseries" / "__init__.py").is_file():
        print(f"error: no opseries sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import opseries.cli as cli

    workload = WORKLOADS[args.workload]
    if args.trace:
        result = measure_traced(cli, workload, args.seed)
    else:
        result = measure(cli, workload, args.seed, args.seconds)

    declared = declared_metrics(bool(args.trace))
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared}
    for failure in result["failures"][:5]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} samples={result['samples']} "
          f"fail_ratio={result['failed'] / result['attempted']:g} "
          f"({result['failed']}/{result['attempted']})"
          + ("" if args.trace else f" latency_tail=p{workload.tail_pct:g}"), file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
