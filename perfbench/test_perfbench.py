"""Tests of the benchmark itself: output oracle, tracer bindings, interaction map, counts.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import opseries.cli as cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from opseries import EgfSeries, log_form_inverse  # noqa: E402

COUNTERS = (".calls", ".madds", ".terms_out", ".coeff_bits_max", ".render_chars", ".output_bytes")
# a few requests of each workload keep the traced passes short
PREFIX = {"invert_log": 2, "compos": 2, "suites": len(run.SUITE_ROTATION)}


def traced(workload: str, seed: int = 1) -> dict:
    requests = run.WORKLOADS[workload].first(seed, PREFIX[workload])
    checker = run.Checker()
    with tracer.Tracer() as tr:
        failed, output_bytes, _ = run.run_pass(cli, requests, checker)
    assert failed == 0, checker.failures
    metrics = tr.metrics()
    metrics["cli.output_bytes"] = output_bytes
    metrics["requests"] = len(requests)
    return metrics


def calls(metrics: dict, layer: str) -> list[int]:
    return [v for k, v in metrics.items() if k.startswith(layer + ".") and k.endswith(".calls")]


def test_composition_oracle_accepts_inverse_and_rejects_a_perturbed_one():
    f = [Fraction(c) for c in ["0", "2", "-1", "1/2", "0", "1", "-2", "1"]]
    g = list(log_form_inverse(EgfSeries(f), 6).coeffs)
    assert run.composes_to_identity(f, g, 6)
    g[6] += 1
    assert not run.composes_to_identity(f, g, 6)
    assert run.composes_to_identity(f, g, 5)  # order 5 does not see g[6]


def test_checker_flags_failures_and_changed_bytes():
    argv = run.WORKLOADS["suites"].first(1, 1)[0]
    code, out, _ = run.call(cli, argv)
    checker = run.Checker()
    assert checker(0, argv, code, out)
    assert not checker(0, argv, code, out + " ")
    assert not checker(1, argv, code, out.replace('"passed": true', '"passed": false'))
    assert not checker(2, argv, 1, out)


def test_checker_rejects_a_truncated_inverse():
    argv = run.WORKLOADS["invert_log"].first(1, 1)[0]
    code, out, _ = run.call(cli, argv)
    assert run.check_output(argv, code, out) is None
    payload = json.loads(out)
    payload["inverse"]["coeffs"] = payload["inverse"]["coeffs"][:5]
    assert "malformed" in run.check_output(argv, code, json.dumps(payload))


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_requests_are_fixed_by_the_seed(workload):
    w = run.WORKLOADS[workload]
    assert w.first(5, 20) == w.first(5, 20)
    assert w.first(5, 20) != w.first(6, 20)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_anchor_reproduces_recorded_digest(workload):
    checker = run.Checker()
    assert run.run_anchor(cli, run.WORKLOADS[workload], checker) == 0, checker.failures


def test_tracer_patches_every_binding_and_restores_them():
    originals = [fn for fn, _, _ in tracer._functions()]
    assert all(tracer.bindings(fn) for fn in originals)
    methods = {(cls, attr): cls.__dict__[attr] for cls, attr, _, _ in tracer.METHODS}
    with tracer.Tracer():
        for fn in originals:
            assert tracer.bindings(fn) == [], fn.__qualname__
        for (cls, attr), original in methods.items():
            assert cls.__dict__[attr] is not original
    for fn in originals:
        assert tracer.bindings(fn)
    for (cls, attr), original in methods.items():
        assert cls.__dict__[attr] is original


def test_interaction_map_invert_log():
    m = traced("invert_log")
    for layer in ("multipoly", "diffop", "verify", "combinat"):
        assert set(calls(m, layer)) == {0}, layer
    assert m["series.compose.calls"] == m["series.newton_inverse.calls"] == 0
    for name in ("mul", "reciprocal", "ln"):
        assert m[f"series.{name}.calls"] > 0
    # the CLI computes the log-form terms twice per request
    assert m["series.log_form_terms.calls"] == 2 * m["requests"]


def test_interaction_map_compos():
    m = traced("compos")
    assert set(calls(m, "series")) == {0}
    for name in ("multipoly.mul", "multipoly.init", "multipoly.add", "multipoly.partial",
                 "diffop.diamond", "diffop.circ", "diffop.bullet", "diffop.add",
                 "combinat.set_partitions", "verify"):
        assert m[f"{name}.calls"] > 0, name
    assert m["combinat.bell_eval_bullet.calls"] == 0


def test_interaction_map_suites():
    m = traced("suites")
    names = [k[: -len(".calls")] for k in m if k.endswith(".calls")]
    for name in names:
        assert m[f"{name}.calls"] > 0, name
    assert m["verify.render_chars"] > 0 and m["series.coeff_bits_max"] > 0


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_counts_repeat_exactly(workload):
    first, second = traced(workload), traced(workload)
    counts = {k: v for k, v in first.items() if k.endswith(COUNTERS)}
    assert counts == {k: second[k] for k in counts}
