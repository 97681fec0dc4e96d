"""Executable verification of the package's algebraic identities.

Every checker computes both sides of an identity and decides pass/fail
by ``==`` on the computed values (operators, series, or lists of labelled
ones), so a passing report certifies structural equality, not sampled
agreement.  Both sides are rendered in canonical form only for output.
Random instances are drawn from seeded generators; a report carries its
seed and sizes, which is enough to regenerate the instance exactly.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import time
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, islice, repeat
from typing import Callable, Iterable, Iterator, Sequence

from .combinat import _partition_sum, bell_eval_bullet, set_partitions, stirling2
from .diffop import (DiffOp, _check_op_list, _circ_powers, _diamond_powers, diamond_chain,
                     power_diamond, unit_op)
from .multipoly import MultiIndex, MultiPoly, _check_int, _read_only
from .series import (
    EgfSeries,
    _exp_recurrence,
    _quotient,
    classical_inverse,
    log_form_inverse,
    newton_inverse,
    operator_inverse,
)

DEFAULT_POOL = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
)
# leading coefficients for invertible series: nonzero by construction
LEAD_POOL = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2))

STIRLING_POWER_CAP = 10
_Z_ORDER = "z-order must be a non-negative integer"


class RandomSpec:
    """Deterministic recipe for one random instance.  Immutable, compared and hashed by value."""

    __slots__ = ("seed", "n", "max_degree")
    seed: int
    n: int
    max_degree: int

    def __init__(self, seed: int, n: int = 2, max_degree: int = 2):
        _check_int(seed, -math.inf, "seed must be an integer")
        _check_int(n, 1, "variable count n must be at least 1")
        _check_int(max_degree, 0, "degree bound must be non-negative")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "max_degree", max_degree)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RandomSpec):
            return NotImplemented
        return (self.seed, self.n, self.max_degree) == (other.seed, other.n, other.max_degree)

    def __hash__(self) -> int:
        return hash((self.seed, self.n, self.max_degree))


class VerifyReport:
    """One checked identity: rendered sides, verdict, provenance."""

    __slots__ = ("theorem", "description", "left", "right", "passed", "elapsed")

    def __init__(self, theorem: str, description: str, left: str, right: str, passed: bool,
                 elapsed: float = 0.0):
        self.theorem = theorem
        self.description = description
        self.left = left
        self.right = right
        self.passed = passed
        self.elapsed = elapsed

    def as_dict(self) -> dict:
        # elapsed is intentionally left out: JSON output must be
        # byte-identical across runs with the same flags and seed
        return {
            "theorem": self.theorem,
            "description": self.description,
            "left": self.left,
            "right": self.right,
            "passed": self.passed,
        }


def _render(side) -> str:
    # a multi-line side is a list of (label, value) pairs, one "label: value" line each
    if isinstance(side, list):
        return "\n".join(f"{label}: {value}" for label, value in side)
    return str(side)


def _report(theorem: str, description: str, left, right, started: float) -> VerifyReport:
    passed = left == right  # equal sides render equal: render the right one only on failure
    shown = _render(left)
    return VerifyReport(
        theorem, description, shown, shown if passed else _render(right), passed,
        time.perf_counter() - started,
    )


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def _trials(
    spec: RandomSpec, trials: int, sized: bool = True
) -> Iterator[tuple[random.Random, str]]:
    # each trial's seeded stream and the description that regenerates it
    for t in range(trials):
        desc = f"seed={spec.seed} trial={t}"
        if sized:
            desc += f" n={spec.n} degree<={spec.max_degree}"
        yield random.Random(_trial_seed(spec.seed, t)), desc


@functools.lru_cache(maxsize=2)  # a suite run reads two bounds: degree and derivative order
def _indices_up_to(n: int, bound: int) -> tuple[MultiIndex, ...]:
    # the n-tuples with sum <= bound in the order of product(range(bound + 1), repeat=n),
    # which rng.sample reads: the successive differences of the non-decreasing n-tuples
    # over 0..bound, in the same lexicographic order.  Every polynomial drawn samples
    # it, so it is built once per (n, bound) and shared, hence a tuple.
    return tuple(tuple(map(operator.sub, d, (0, *d[:-1])))
                 for d in combinations_with_replacement(range(bound + 1), n))


def _poly_from_rng(rng: random.Random, spec: RandomSpec) -> MultiPoly:
    monomials = _indices_up_to(spec.n, spec.max_degree)
    chosen = rng.sample(monomials, rng.randint(1, min(3, len(monomials))))
    return MultiPoly(spec.n, {alpha: rng.choice(DEFAULT_POOL) for alpha in chosen})


def _vector_field_from_rng(rng: random.Random, spec: RandomSpec) -> DiffOp:
    return DiffOp.vector_field([_poly_from_rng(rng, spec) for _ in range(spec.n)])


def _diffop_from_rng(rng: random.Random, spec: RandomSpec, max_order: int = 2) -> DiffOp:
    betas = _indices_up_to(spec.n, max_order)
    chosen = rng.sample(betas, rng.randint(1, 2))
    return DiffOp(spec.n, {beta: _poly_from_rng(rng, spec) for beta in chosen})


def _op_list_from_rng(rng: random.Random, spec: RandomSpec, m: int) -> list[DiffOp]:
    return [_vector_field_from_rng(rng, spec) for _ in range(m)]


def _series_from_rng(rng: random.Random, order: int) -> EgfSeries:
    coeffs = [Fraction(0), rng.choice(LEAD_POOL)]
    return EgfSeries(coeffs + [rng.choice(DEFAULT_POOL) for _ in range(order - 1)])


def random_vector_field(spec: RandomSpec) -> DiffOp:
    """First-order operator with random bounded-degree coefficients, seed-determined."""
    return _vector_field_from_rng(random.Random(spec.seed), spec)


def random_diffop(spec: RandomSpec, max_order: int = 2) -> DiffOp:
    """Operator with random terms of derivative order up to ``max_order``."""
    _check_int(max_order, 0, "derivative order bound must be non-negative")
    return _diffop_from_rng(random.Random(spec.seed), spec, max_order)


def random_op_list(spec: RandomSpec, m: int) -> list[DiffOp]:
    """m first-order operators drawn from one seeded stream."""
    _check_int(m, 0, "operator count m must be non-negative")
    return _op_list_from_rng(random.Random(spec.seed), spec, m)


def random_invertible_series(spec: RandomSpec, order: int) -> EgfSeries:
    """Invertible series of the given order with pool coefficients."""
    _check_int(order, 1, "an invertible series needs order >= 1")
    return _series_from_rng(random.Random(spec.seed), order)


def _associator(x: DiffOp, y: DiffOp, z: DiffOp) -> DiffOp:
    return x.circ(y.circ(z)) - x.circ(y).circ(z)


def _xd_normal_form(coeffs: Iterable[Fraction | int]) -> DiffOp:
    # sum_k c_k x^k d^k in one variable; x*d itself is coeffs [0, 1]
    return DiffOp(1, {(k,): MultiPoly(1, {(k,): c}) for k, c in enumerate(coeffs)})


def _timed_reports(
    desc: str, checks: Iterable[tuple[str, Callable, Callable]]
) -> list[VerifyReport]:
    # one report per (label, left, right) entry; each side is a thunk, so a report's
    # elapsed time covers computing its own two sides and nothing else
    reports = []
    for label, left, right in checks:
        started = time.perf_counter()
        reports.append(_report(label, desc, left(), right(), started))
    return reports


def verify_product_identities(spec: RandomSpec, trials: int) -> list[VerifyReport]:
    """The five product identities on fresh random operators per trial.

    Composition associativity and bullet associativity/commutativity use
    operators of mixed derivative order; the associator identity, the
    Leibniz rule and associator symmetry take first-order operators where
    required.
    """
    reports: list[VerifyReport] = []
    for rng, desc in _trials(spec, trials):
        a, b, c = (_diffop_from_rng(rng, spec) for _ in range(3))
        u, v = (_vector_field_from_rng(rng, spec) for _ in range(2))
        reports += _timed_reports(desc, [
            ("prop1.diamond_assoc",
             lambda: a.diamond(b.diamond(c)), lambda: a.diamond(b).diamond(c)),
            ("prop1.bullet_assoc", lambda: a.bullet(b.bullet(c)), lambda: a.bullet(b).bullet(c)),
            ("prop1.bullet_comm", lambda: a.bullet(b), lambda: b.bullet(a)),
            ("prop1.associator", lambda: _associator(u, b, c), lambda: u.bullet(b).circ(c)),
            ("prop1.leibniz",
             lambda: u.circ(b.bullet(c)), lambda: u.circ(b).bullet(c) + b.bullet(u.circ(c))),
            ("prop1.associator_symmetry",
             lambda: _associator(u, v, c), lambda: _associator(v, u, c)),
        ])
    return reports


def verify_composition_split(spec: RandomSpec, trials: int) -> list[VerifyReport]:
    """First-order corollaries: X o (Y o Z) = (X <> Y) o Z and X <> Y = X o Y + X . Y."""
    reports: list[VerifyReport] = []
    for rng, desc in _trials(spec, trials):
        u = _vector_field_from_rng(rng, spec)
        b, c = (_diffop_from_rng(rng, spec) for _ in range(2))
        reports += _timed_reports(desc, [
            ("corollary.compose_shift", lambda: u.circ(b.circ(c)), lambda: u.diamond(b).circ(c)),
            ("corollary.product_split", lambda: u.diamond(b), lambda: u.circ(b) + u.bullet(b)),
        ])
    return reports


def verify_partition_expansion(ops: Sequence[DiffOp], description: str = "") -> VerifyReport:
    """Iterated composition of first-order operators vs. its set-partition sum.

    The left side is ``L_m <> ... <> L_1``; the right side sums, over every
    partition of ``{1..m}``, the bullet product of per-block operators
    ``(chain of non-minimal elements) o (minimal element)``.  The sum is not
    formed partition by partition: bullet is bilinear and commutative, so
    peeling the block that holds the minimum gives the subset recursion
    ``P(S) = sum over blocks B with min(S) in B of block(B) . P(S \\ B)``,
    which forms ``(3^(m-1) - 1)/2`` bullet products instead of one chain per
    partition.  Each block is built once, as one circ onto the block of
    its first ``s - 1`` labels, and a singleton costs no product, so the
    right side takes circs and bullets alone.  The left side is
    :func:`diamond_chain`, its ``m - 1`` diamonds the only ones formed.
    """
    started = time.perf_counter()
    ops = list(ops)
    _check_op_list(ops)
    m = len(ops)
    summands = len(set_partitions(m))  # enforces the size cap before any product

    rhs = _partition_sum(ops, tuple(range(1, m + 1)), {}, {})
    lhs = diamond_chain(ops, range(1, m + 1))

    desc = f"{description} m={m} summands={summands}".strip()
    return _report("compos", desc, lhs, rhs, started)


def verify_bell_power(op: DiffOp, m: int, description: str = "") -> VerifyReport:
    """Composition power of a first-order operator vs. its Bell-polynomial form."""
    started = time.perf_counter()
    rhs = bell_eval_bullet(m, op)  # refuses a non-first-order op before any product
    lhs = power_diamond(op, m)
    desc = f"{description} m={m}".strip()
    return _report("bellpower", desc, lhs, rhs, started)


def verify_exp_identity(op: DiffOp, z_order: int, description: str = "") -> VerifyReport:
    """Generating-function identity for composition powers, checked per z-coefficient.

    Left: the composition powers ``op^m``.  Right: the bullet-exponential
    of the z-series with coefficients ``op^{m-1} o op``.  The matching
    bullet-logarithm round trip is checked alongside.
    """
    started = time.perf_counter()
    if not op.is_first_order():
        raise ValueError("operator must be first order")
    _check_int(z_order, 0, _Z_ORDER)
    zero = DiffOp.zero(op.n)
    powers = [*islice(_diamond_powers(op), z_order + 1)]
    inner = [zero, *islice(_circ_powers(op), z_order)]
    # exp and ln of operator-valued z-series under the bullet product
    exp_side = _exp_recurrence(inner, DiffOp.bullet, unit_op(op.n))
    ln_side = [zero] + _quotient(powers[1:], powers, DiffOp.bullet)

    z = range(z_order + 1)
    left = [(f"z^{m}", powers[m]) for m in z] + [(f"ln z^{m}", inner[m]) for m in z]
    right = [(f"z^{m}", exp_side[m]) for m in z] + [(f"ln z^{m}", ln_side[m]) for m in z]
    desc = f"{description} z_order={z_order}".strip()
    return _report("expid", desc, left, right, started)


def verify_exp_identity_xd(z_order: int) -> VerifyReport:
    """Specialization to x*d in one variable.

    The right side expands ``sum_i x^i d^i (e^z - 1)^i / i!`` with scalar
    series arithmetic in z, so the comparison crosses from operator
    algebra to series algebra.
    """
    started = time.perf_counter()
    _check_int(z_order, 0, _Z_ORDER)
    powers = [*islice(_diamond_powers(_xd_normal_form([0, 1])), z_order + 1)]

    em1 = EgfSeries([0] + [1] * z_order)  # e^z - 1
    em1_powers = [EgfSeries.one(z_order), *islice(accumulate(repeat(em1), operator.mul), z_order)]

    z = range(z_order + 1)
    weights = [[p[m] / math.factorial(i) for i, p in enumerate(em1_powers)] for m in z]
    left = [(f"z^{m}", powers[m]) for m in z]
    right = [(f"z^{m}", _xd_normal_form(weights[m])) for m in z]
    return _report("expid.xd", f"z_order={z_order}", left, right, started)


def verify_stirling_power(m: int, description: str = "") -> VerifyReport:
    """Composition powers of x*d vs. the Stirling-weighted normal form."""
    started = time.perf_counter()
    _check_int(m, 1, f"m must lie in 1..{STIRLING_POWER_CAP}", STIRLING_POWER_CAP)
    lhs = power_diamond(_xd_normal_form([0, 1]), m)
    rhs = _xd_normal_form(stirling2(m, k) for k in range(m + 1))
    desc = f"{description} m={m}".strip()
    return _report("stirling", desc, lhs, rhs, started)


def verify_inversion(f: EgfSeries, order: int, description: str = "") -> VerifyReport:
    """All four inverse algorithms must agree and invert under composition.

    The expected side pins everything to the classical result and the
    identity series; the report passes exactly when every labelled series
    equals its expected one under ``==``.  The renderings, one line per
    label, are for output only.
    """
    started = time.perf_counter()
    g_classical = classical_inverse(f, order)  # checks f first, for all four
    g_operator = operator_inverse(f, order)
    g_log = log_form_inverse(f, order)
    g_newton = newton_inverse(f, order)
    ident = EgfSeries.identity(order)
    f_n = f.truncate(order)
    f_after_g = f_n.compose(g_classical)
    g_after_f = g_classical.compose(f_n)

    labels = ("classical", "operator", "log", "newton", "f(g)", "g(f)")
    left = list(zip(labels, [g_classical] * 4 + [ident] * 2))
    right = list(zip(labels, [g_classical, g_operator, g_log, g_newton, f_after_g, g_after_f]))
    desc = f"{description} order={order} a1={f[1]}".strip()
    return _report("inversion", desc, left, right, started)


# suite name -> (the size flag it reads, "m" or "order", or None; that flag's default;
# the runner, called with the RandomSpec, the trial count and the size)
SUITES: dict[str, tuple[str | None, int | None, Callable[..., list[VerifyReport]]]] = {
    "prop1": (None, None, lambda spec, trials, _: verify_product_identities(spec, trials)),
    "corollary": (None, None, lambda spec, trials, _: verify_composition_split(spec, trials)),
    "compos": ("m", 3, lambda spec, trials, m: [
        verify_partition_expansion(_op_list_from_rng(rng, spec, m), desc)
        for rng, desc in _trials(spec, trials)
    ]),
    "bellpower": ("m", 4, lambda spec, trials, m: [
        verify_bell_power(_vector_field_from_rng(rng, spec), m, desc)
        for rng, desc in _trials(spec, trials)
    ]),
    "expid": ("order", 5, lambda spec, trials, order: [
        verify_exp_identity(_vector_field_from_rng(rng, spec), order, desc)
        for rng, desc in _trials(spec, trials)
    ] + [verify_exp_identity_xd(order)]),
    "stirling": ("m", 6, lambda spec, trials, m: [verify_stirling_power(m)]),
    # the instance depends on neither n nor degree, so neither is described
    "inversion": ("order", 8, lambda spec, trials, order: [
        verify_inversion(_series_from_rng(rng, order + 1), order, desc)
        for rng, desc in _trials(spec, trials, sized=False)
    ]),
}
# the instance flags a suite does not read, refused when given: stirling checks one fixed
# operator, and inversion draws series, which have no variable count or coefficient degree;
# --seed is accepted by every suite
UNREAD_FLAGS = {"stirling": ("trials", "n", "degree"), "inversion": ("n", "degree")}


def run_suite(
    name: str,
    *,
    seed: int = 0,
    trials: int | None = None,
    n: int | None = None,
    degree: int | None = None,
    m: int | None = None,
    order: int | None = None,
) -> list[VerifyReport]:
    """Dispatch one named identity suite with seeded random instances.

    Suites: ``prop1`` (product identities), ``corollary`` (first-order
    composition splits), ``compos`` (set-partition expansion),
    ``bellpower`` (Bell-polynomial powers), ``expid`` (generating-function
    identity, plus the x*d specialization), ``stirling`` (normal form of
    powers of x*d), ``inversion`` (four-way inverse agreement).  Each suite
    reads at most one size, ``m`` or ``order`` (see ``SUITES``); the
    other is refused, and an unset one takes the suite's default.  So is
    each of ``trials``, ``n`` and ``degree`` that the suite does not read
    (see ``UNREAD_FLAGS``); unset, they are 1, 2 and 2.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    knobs = {"trials": trials, "n": n, "degree": degree}
    for knob in UNREAD_FLAGS.get(name, ()):
        if knobs[knob] is not None:
            raise ValueError(f"suite {name!r} does not read --{knob}")
    spec = RandomSpec(seed, 2 if n is None else n, 2 if degree is None else degree)
    trials = 1 if trials is None else _check_int(trials, 1, "trials must be at least 1")
    flag, default, run = SUITES[name]
    sizes = {"m": m, "order": order}
    for given, value in sizes.items():
        if value is not None and given != flag:
            reads = f"--{flag}" if flag else "no size flag"
            raise ValueError(f"suite {name!r} does not read --{given}; it reads {reads}")
    size = sizes.get(flag)
    size = default if size is None else _check_int(size, 0, f"--{flag} must be an integer >= 0")
    return run(spec, trials, size)
