"""Per-layer spans for opseries, recorded from outside the package.

``Tracer`` wraps the entry points of each layer (``multipoly``, ``diffop``,
``combinat``, ``series``, ``verify``, ``cli``) while it is entered as a
context manager and restores the originals on exit; nothing in ``src/``
is edited.  Methods are replaced on their class.  A module function is
replaced under every name that binds it: the globals of each loaded
``opseries`` module and the values of module-level dicts such as
``INVERSE_METHODS``.

Each wrapped call is one span.  A span's self time is its duration minus
the time its child spans took, wrapper bookkeeping included, so the cost
of tracing lands in no layer; it shows only as ``trace.overhead_ratio``.
Sizes (``madds``, ``terms_out``, ``coeff_bits_max``, ``render_chars``) are
computed from arguments and results through the public API after the
span has stopped.  They repeat exactly from run to run.

``EgfSeries.__init__`` is deliberately not wrapped: ``EgfSeries.__mul__``
hands it a lazy generator, so the convolution runs inside the
constructor and an init span would take that time away from
``series.mul``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Iterable

from opseries import combinat, series, verify
from opseries import cli as cli_module
from opseries.diffop import DiffOp
from opseries.multipoly import MultiPoly
from opseries.series import EgfSeries
from opseries.verify import VerifyReport


class SpanStats:
    __slots__ = ("calls", "self_s", "total_s", "madds", "terms_out", "bits_max", "render_chars")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.madds = 0
        self.terms_out = 0
        self.bits_max = 0
        self.render_chars = 0


def _bits(values: Iterable[Fraction]) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in values),
               default=0)


def _poly_terms(p: MultiPoly) -> int:
    return len(p.items())


def _poly_mul(st: SpanStats, args, result: MultiPoly) -> None:
    left, right = args
    st.madds += _poly_terms(left) * (_poly_terms(right) if isinstance(right, MultiPoly) else 1)
    st.bits_max = max(st.bits_max, _bits(c for _, c in result.items()))


def _poly_result(st: SpanStats, args, result: MultiPoly) -> None:
    st.bits_max = max(st.bits_max, _bits(c for _, c in result.items()))


def _op_product(st: SpanStats, args, result: DiffOp) -> None:
    st.terms_out += sum(_poly_terms(u) for _, u in result.items())


def _series_mul(st: SpanStats, args, result: EgfSeries) -> None:
    left, right = args
    upto = result.order
    # the binomial convolution does m+1 multiply-adds for coefficient m
    st.madds += (upto + 1) * (upto + 2) // 2 if isinstance(right, EgfSeries) else upto + 1
    st.bits_max = max(st.bits_max, _bits(result.coeffs))


def _series_result(st: SpanStats, args, result: EgfSeries) -> None:
    st.bits_max = max(st.bits_max, _bits(result.coeffs))


def _suite_reports(st: SpanStats, args, result: list[VerifyReport]) -> None:
    st.render_chars += sum(len(r.left) + len(r.right) for r in result)


METHODS = (
    (MultiPoly, "__init__", "multipoly.init", None),
    (MultiPoly, "__mul__", "multipoly.mul", _poly_mul),
    (MultiPoly, "__add__", "multipoly.add", _poly_result),
    (MultiPoly, "partial", "multipoly.partial", _poly_result),
    (DiffOp, "diamond", "diffop.diamond", _op_product),
    (DiffOp, "circ", "diffop.circ", _op_product),
    (DiffOp, "bullet", "diffop.bullet", _op_product),
    (DiffOp, "__add__", "diffop.add", None),
    (EgfSeries, "__mul__", "series.mul", _series_mul),
    (EgfSeries, "reciprocal", "series.reciprocal", _series_result),
    (EgfSeries, "ln", "series.ln", _series_result),
    (EgfSeries, "compose", "series.compose", _series_result),
)


def _functions() -> list[tuple[Callable, str, Callable | None]]:
    verify_public = [
        fn for name, fn in vars(verify).items()
        if callable(fn) and not name.startswith("_") and not isinstance(fn, type)
        and getattr(fn, "__module__", None) == verify.__name__
    ]
    return [
        (combinat.set_partitions, "combinat.set_partitions", None),
        (combinat.bell_eval_bullet, "combinat.bell_eval_bullet", None),
        (series.log_form_terms, "series.log_form_terms", None),
        (series.classical_inverse, "series.classical_inverse", None),
        (series.operator_inverse, "series.operator_inverse", None),
        (series.log_form_inverse, "series.log_form_inverse", None),
        (series.newton_inverse, "series.newton_inverse", None),
        (cli_module.main, "cli.main", None),
    ] + [
        (fn, "verify", _suite_reports if fn is verify.run_suite else None)
        for fn in verify_public
    ]


def opseries_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "opseries" or name.startswith("opseries.")]


def bindings(fn: Callable) -> list[tuple[object, str]]:
    """Every (namespace, key) under which a loaded opseries module holds ``fn``."""
    found: list[tuple[object, str]] = []
    for mod in opseries_modules():
        for key, value in vars(mod).items():
            if value is fn:
                found.append((mod, key))
            elif isinstance(value, dict):
                found.extend((value, k) for k, v in value.items() if v is fn)
    return found


class Tracer:
    """Context manager that records per-layer spans while entered."""

    def __init__(self) -> None:
        self.stats: defaultdict[str, SpanStats] = defaultdict(SpanStats)
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, measure: Callable | None) -> Callable:
        st = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            w0 = clock()
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                children = stack.pop()
            st.calls += 1
            st.total_s += t1 - t0
            st.self_s += t1 - t0 - children
            if measure is not None:
                measure(st, args, result)
            if stack:
                stack[-1] += clock() - w0
            return result

        return span

    def __enter__(self) -> Tracer:
        for cls, attr, name, measure in METHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, measure))
        for fn, name, measure in _functions():
            wrapped = self._wrap(fn, name, measure)
            for namespace, key in bindings(fn):
                self._undo.append((namespace, key, fn))
                if isinstance(namespace, dict):
                    namespace[key] = wrapped
                else:
                    setattr(namespace, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            namespace, key, original = self._undo.pop()
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)

    def metrics(self) -> dict[str, float]:
        """Flat counters: ``<span>.calls``, ``.self_s``, ``.total_s`` and sizes."""
        out: dict[str, float] = {}
        bits: defaultdict[str, int] = defaultdict(int)
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.total_s"] = st.total_s
            out[f"{name}.madds"] = st.madds
            out[f"{name}.terms_out"] = st.terms_out
            out[f"{name}.render_chars"] = st.render_chars
            layer = name.split(".")[0]
            bits[layer] = max(bits[layer], st.bits_max)
        for layer, value in bits.items():
            out[f"{layer}.coeff_bits_max"] = value
        return out
