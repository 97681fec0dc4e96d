"""Executable verification of the package's algebraic identities.

Every checker computes both sides of an identity and decides pass/fail
by ``==`` on the computed values (operators, series, or lists of labelled
ones), so a passing report certifies structural equality, not sampled
agreement.  Both sides are rendered in canonical form only for output.
Random instances are drawn from seeded generators; a report carries its
seed and sizes, which is enough to regenerate the instance exactly.
"""

from __future__ import annotations

import math
import operator
import random
import sys
import time
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import Callable, Iterable, Iterator, Sequence

from .combinat import _partition_sum, bell_eval_bullet, set_partitions, stirling2
from .diffop import (DiffOp, _check_op_list, _check_operand, _circ_powers, _diamond_powers,
                     diamond_chain, power_diamond, unit_op)
from .multipoly import MultiIndex, MultiPoly, _check_int, _read_only
from .series import INVERSE_METHODS, EgfSeries, _exp_recurrence, _quotient

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
    # each trial's seeded stream and the description that regenerates it; the count is
    # checked here, at the call, so that no checker passes on zero trials
    _check_operand(spec, RandomSpec, "a verify suite")
    _check_int(trials, 1, "trials must be at least 1")
    sizes = f" n={spec.n} degree<={spec.max_degree}" if sized else ""
    return ((random.Random(_trial_seed(spec.seed, t)), f"seed={spec.seed} trial={t}{sizes}")
            for t in range(trials))


def _index_at(n: int, bound: int, rank: int) -> MultiIndex:
    # the rank-th n-tuple with sum <= bound in the order of product(range(bound + 1), repeat=n),
    # which is the order of the successive differences of combinations_with_replacement(
    # range(bound + 1), n), with no table: each entry is the least e whose completions, the
    # C(bound - e + rest, rest) tuples of the rest entries with sum <= bound - e, pass rank;
    # the last entry, with one completion per value, is what is left of rank
    alpha = []
    for rest in range(n - 1, 0, -1):
        e = 0
        while rank >= (count := math.comb(bound - e + rest, rest)):
            rank -= count
            e += 1
        alpha.append(e)
        bound -= e
    return (*alpha, rank)


def _indices_from_rng(rng: random.Random, n: int, bound: int, most: int) -> list[MultiIndex]:
    # 1..most distinct n-tuples with sum <= bound: rng.sample over the C(n + bound, n) ranks
    # draws exactly what it drew from the list of every tuple, which is never built
    size = math.comb(n + bound, n)
    if size > sys.maxsize:  # rng.sample takes the len() of its range
        raise ValueError(f"n = {n} and bound {bound} give C({n + bound}, {n}) monomials to "
                         f"draw from, more than the {sys.maxsize} a draw can index")
    ranks = rng.sample(range(size), rng.randint(1, min(most, size)))
    return [_index_at(n, bound, r) for r in ranks]


def _poly_from_rng(rng: random.Random, spec: RandomSpec) -> MultiPoly:
    chosen = _indices_from_rng(rng, spec.n, spec.max_degree, 3)
    return MultiPoly(spec.n, {alpha: rng.choice(DEFAULT_POOL) for alpha in chosen})


def _vector_field_from_rng(rng: random.Random, spec: RandomSpec) -> DiffOp:
    return DiffOp.vector_field([_poly_from_rng(rng, spec) for _ in range(spec.n)])


def _diffop_from_rng(rng: random.Random, spec: RandomSpec, max_order: int = 2) -> DiffOp:
    chosen = _indices_from_rng(rng, spec.n, max_order, 2)
    return DiffOp(spec.n, {beta: _poly_from_rng(rng, spec) for beta in chosen})


def _op_list_from_rng(rng: random.Random, spec: RandomSpec, m: int) -> list[DiffOp]:
    return [_vector_field_from_rng(rng, spec) for _ in range(m)]


def _series_from_rng(rng: random.Random, order: int) -> EgfSeries:
    coeffs = [Fraction(0), rng.choice(LEAD_POOL)]
    return EgfSeries(coeffs + [rng.choice(DEFAULT_POOL) for _ in range(order - 1)])


def random_vector_field(spec: RandomSpec) -> DiffOp:
    """First-order operator with random bounded-degree coefficients, seed-determined."""
    _check_operand(spec, RandomSpec, "random_vector_field")
    return _vector_field_from_rng(random.Random(spec.seed), spec)


def random_diffop(spec: RandomSpec, max_order: int = 2) -> DiffOp:
    """Operator with random terms of derivative order up to ``max_order``."""
    _check_operand(spec, RandomSpec, "random_diffop")
    _check_int(max_order, 0, "derivative order bound must be non-negative")
    return _diffop_from_rng(random.Random(spec.seed), spec, max_order)


def random_op_list(spec: RandomSpec, m: int) -> list[DiffOp]:
    """m first-order operators drawn from one seeded stream."""
    _check_operand(spec, RandomSpec, "random_op_list")
    _check_int(m, 0, "operator count m must be non-negative")
    return _op_list_from_rng(random.Random(spec.seed), spec, m)


def random_invertible_series(spec: RandomSpec, order: int) -> EgfSeries:
    """Invertible series of the given order with pool coefficients."""
    _check_operand(spec, RandomSpec, "random_invertible_series")
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
    which takes ``(3^(m-1) - 1)/2`` bullet products instead of one chain per
    partition, each multiply-accumulated into its subset's one sum.  Each
    block is built once, as one circ onto the block of its first ``s - 1``
    labels, and a singleton costs no product, so the right side takes circs
    and bullets alone.  The left side is :func:`diamond_chain`, its
    ``m - 1`` diamonds the only ones formed.
    """
    started = time.perf_counter()
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
    _check_operand(op, DiffOp, "verify_exp_identity")
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
    # classical, the first method, reads f to order + 1 and so checks f for all four
    inverses = {name: inverse(f, order) for name, inverse in INVERSE_METHODS.items()}
    g = inverses["classical"]
    ident = EgfSeries.identity(order)
    f_n = f.truncate(order)

    left = [(name, g) for name in inverses] + [("f(g)", ident), ("g(f)", ident)]
    right = [*inverses.items(), ("f(g)", f_n.compose(g)), ("g(f)", g.compose(f_n))]
    desc = f"{description} order={order} a1={f[1]}".strip()
    return _report("inversion", desc, left, right, started)


def _compos_suite(spec: RandomSpec, trials: int, m: int) -> list[VerifyReport]:
    # m = 0 is refused here, before any draw: the empty operator list it would draw names
    # no flag
    _check_int(m, 1, "operator count m must be at least 1")
    return [verify_partition_expansion(_op_list_from_rng(rng, spec, m), desc)
            for rng, desc in _trials(spec, trials)]


# the flags of a random operator instance, each mapped to its unset value
_INSTANCE = {"trials": 1, "n": 2, "degree": 2}

# suite name -> (each flag it reads besides --seed, mapped to its unset value; the runner,
# called with the RandomSpec and the row's other flags by keyword). stirling checks one
# fixed operator, and inversion draws series, which have no variable count or degree
SUITES: dict[str, tuple[dict[str, int], Callable[..., list[VerifyReport]]]] = {
    "prop1": (_INSTANCE, lambda spec, trials: verify_product_identities(spec, trials)),
    "corollary": (_INSTANCE, lambda spec, trials: verify_composition_split(spec, trials)),
    "compos": ({**_INSTANCE, "m": 3}, _compos_suite),
    "bellpower": ({**_INSTANCE, "m": 4}, lambda spec, trials, m: [
        verify_bell_power(_vector_field_from_rng(rng, spec), m, desc)
        for rng, desc in _trials(spec, trials)
    ]),
    "expid": ({**_INSTANCE, "order": 5}, lambda spec, trials, order: [
        verify_exp_identity(_vector_field_from_rng(rng, spec), order, desc)
        for rng, desc in _trials(spec, trials)
    ] + [verify_exp_identity_xd(order)]),
    "stirling": ({"m": 6}, lambda spec, m: [verify_stirling_power(m)]),
    # the instance depends on neither n nor degree, so neither is described
    "inversion": ({"trials": 1, "order": 8}, lambda spec, trials, order: [
        verify_inversion(_series_from_rng(rng, order + 1), order, desc)
        for rng, desc in _trials(spec, trials, sized=False)
    ]),
}


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
    powers of x*d), ``inversion`` (four-way inverse agreement).  Each
    suite's row in ``SUITES`` names the flags it reads besides ``seed``:
    at most one size, ``m`` or ``order``, and some of ``trials``, ``n``
    and ``degree``.  A given flag outside the row is refused before any
    value is checked; an unset one in it takes the row's value.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    reads, run = SUITES[name]
    given = {"trials": trials, "n": n, "degree": degree, "m": m, "order": order}
    given = {flag: value for flag, value in given.items() if value is not None}
    for flag in given:
        if flag in reads:
            continue
        if flag in _INSTANCE:
            raise ValueError(f"suite {name!r} does not read --{flag}")
        size = next((f"--{f}" for f in reads if f not in _INSTANCE), "no size flag")
        raise ValueError(f"suite {name!r} does not read --{flag}; it reads {size}")
    flags = {**reads, **given}
    spec = RandomSpec(seed, flags.pop("n", 2), flags.pop("degree", 2))
    for flag in flags.keys() - _INSTANCE.keys():
        _check_int(flags[flag], 0, f"--{flag} must be an integer >= 0")
    return run(spec, **flags)
