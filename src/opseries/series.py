"""Truncated univariate power series with exponential coefficients.

A series of order ``N`` stores the exact rational coefficients
``b_0 .. b_N`` of ``sum b_m x^m / m!``.  The order is the highest index
guaranteed correct and is tracked explicitly through every operation:
differentiation drops it by one, binary operations take the minimum,
and nothing is ever silently zero-padded.

Every binomial convolution ``(fg)_m = sum_k C(m,k) f_k g_{m-k}`` runs
through one ring-generic kernel, ``_rows`` (the rows ``C(m,k) f_k`` of one
operand) and ``_convolve`` (the product through them): the series product,
the integer operator iterates and the two triangular solves, ``exp`` by the
recurrence of ``g' = f'g`` and ``den * q = num`` for ``reciprocal`` and
``ln`` (``q = f'/f``, then a shift).  The solves run over Python ints: with
the coefficients ``A_k/d`` over one denominator, x is scaled by ``c = A_0``
(by ``d`` for ``exp``, where ``A_0 = 0``), so the scaled ``A_k c^(k-1)`` are
integers with ``den_0 = 1``, no step divides, and coefficient ``m`` comes
back as one reduced ``Fraction`` over a power of ``c``.  ``verify`` runs
the same solves over the bullet ring of operators.  The log form's iterates
(``_iterates``) still take series products on ``Fraction``s: over ints, the
benchmark's untimed exact output gate on the log-form workload would stretch
its run past the time limit (ROADMAP item 2).  Every computed series is
built by ``EgfSeries._of``, which skips the constructor's checks.

The three cross-checks of the log form run over ints too, and keep their
own binomial weights, so no fault in the kernel can pass both them and the
operator forms.  Composition ``f(g)`` and the Newton solve share one table
of the partial Bell polynomials ``B_{n,k}(b) = [g^k/k!]_n``, which have
integer coefficients (Comtet, *Advanced Combinatorics*, 3.3), extended one
column at a time: column ``n`` reads ``b_n`` only at ``k = 1``, otherwise
``b_1 .. b_{n-1}`` and the earlier columns, about ``N^3/6`` multiply-adds
at order ``N``.  The classical method forms the powers of ``x/f`` by
J.C.P. Miller's recurrence instead, so no fault in that table can pass
both it and Newton.

Four compositional-inverse algorithms are provided for series with zero
constant term and invertible linear coefficient:

* :func:`classical_inverse` -- read ``b_n`` off the (n-1)-th coefficient
  of the n-th power of ``x/f``, formed over integers by Miller's recurrence
  ``W P' = n W' P`` for ``P = W^n``;
* :func:`operator_inverse` -- iterate ``s -> (1/f') * s'`` starting from
  ``1/f'`` of ``f`` truncated at the inverse order, over integer numerators,
  and collect constant terms;
* :func:`log_form_inverse` -- iterate the same operator starting from
  ``e^x``, then take the log of the collected constant-term series;
* :func:`newton_inverse` -- triangular coefficient-by-coefficient solve
  of ``f(g(x)) = x`` over the partial Bell table (the independent
  cross-check).

Their shared precondition is checked once per public entry point: the series
(``a_0 = 0``, ``a_1 != 0``, valid far enough) by ``_as_invertible``, the order
by ``multipoly._check_int``, the one contract on every integer argument.
``log_form_inverse`` leaves the series check to ``log_form_terms``, and
``verify_inversion`` leaves it to ``classical_inverse``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice, repeat
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .multipoly import (Scalar, _check_int, _check_sequence, _check_type, _is_scalar,
                        _join_signed, _scalar, _term)

T = TypeVar("T")

# the contracts on a series order and on an inverse order, for multipoly._check_int
_SERIES_ORDER = "series order must be an integer >= 0"
_INVERSE_ORDER = "inverse order must be >= 1"
_ZERO, _ONE = Fraction(0), Fraction(1)


def _rows(a: Sequence[T], count: int) -> Iterator[list[T]]:
    # rows m < count of the binomial convolution with a, [C(m, j) a_j for j = 0..m], lazily
    for m in range(count):
        yield [math.comb(m, j) * a[j] for j in range(m + 1)]


def _convolve(rows: Iterable[list[T]], b: Sequence[T]) -> list[T]:
    # the binomial product sum_j C(m, j) a_j b_(m-j) over the rows of a, through the shorter
    # operand; terms are added with no int start, so any ring with * and + serves
    return [reduce(operator.add, map(operator.mul, row, reversed(b[: m + 1])))
            for m, row in zip(range(len(b)), rows)]


def _exp_recurrence(coeffs: Sequence[T], mul: Callable[[T, T], T], one: T) -> list[T]:
    # exponential of a z-series, over any ring given by its product and one: g' = f'g, so
    # g_{m+1} is row m of f' against g_m .. g_0, whose last term f_{m+1} (g_0 = one)
    # starts the sum; coeffs[0] must be zero
    out = [one]
    for row in _rows(coeffs[1:], len(coeffs) - 1):
        term = row[-1]
        for k in range(len(row) - 1):
            term = term + mul(row[k], out[-1 - k])
        out.append(term)
    return out


def _quotient(num: Sequence[T], den: Sequence[T], mul: Callable[[T, T], T]) -> list[T]:
    # the q with den * q = num under the binomial convolution, over any ring
    # given by its product; den[0] must be the ring's one, so no step divides:
    # q_m = num_m - (row m of den, but its unit term, against q_(m-1) .. q_0)
    out: list[T] = []
    for term, row in zip(num, _rows(den, len(num))):
        for k in range(1, len(row)):
            term = term - mul(row[k], out[-k])
        out.append(term)
    return out


def _over_lcm(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    # the coefficients as integer numerators over their one least common denominator
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _over_ints(
    coeffs: Sequence[Fraction], solve: Callable[[list[int], int], list[int]], shift: int = 0
) -> EgfSeries:
    # the series whose coefficient m is solve(S, d)[m] / c^(m + shift): with x scaled by c
    # (module docstring), S_k = A_k c^(k-1) are integers and S_0 is 1 (or 0), so a solve
    # over S divides by nothing; newton_inverse scales its unknowns the same way
    a, d = _over_lcm(coeffs)
    c = a[0] or d
    powers = list(accumulate(repeat(c, len(a)), operator.mul, initial=1))  # c^0 .. c^(N+1)
    scaled = [a[0] // c, *map(operator.mul, a[1:], powers)]
    return EgfSeries._of(map(Fraction, solve(scaled, d), powers[shift:]))


def _exact(num: int, den: int) -> int:
    # num / den where the recurrence makes it an integer; a remainder is a fault, not a floor
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} / {den} is not exact, which the recurrence rules out")
    return q


def _bell_columns(b: Sequence[int], order: int) -> Iterator[list[int]]:
    # for n = 1..order, yield column n of the integer partial Bell table
    # B_{n,k}(b) = [g^k/k!]_n for g = sum b_m x^m/m!, as a list indexed by k = 0..n.
    # Peeling off the block that holds element n gives
    # B_{n,k} = sum_i C(n-1,i) b_(i+1) B_(n-1-i,k-1), which divides by nothing.  Row 1
    # is b itself, so column n reads b_n only at k = 1, as the yielded col[1]: a caller
    # may write b_n after the n-th yield, as newton_inverse does.  About order^3/6
    # multiply-adds.  Its weights are its own, not _rows', so no kernel fault passes both.
    rows = [None, b] + [[0] * (order + 1) for _ in range(2, order + 1)]
    for n in range(1, order + 1):  # rows[k][m] = B_{m,k}, zero below m = k
        weights = [math.comb(n - 1, i) * b[i + 1] for i in range(n - 1)]
        col = [0, b[n]]
        for k in range(2, n + 1):
            # i = 0..n-k meets B_(n-1-i,k-1) for m = n-1 down to k-1
            value = sum(map(operator.mul, weights, reversed(rows[k - 1][k - 1 : n])))
            rows[k][n] = value
            col.append(value)
        yield col


def _scalars(coeffs: Iterable[Scalar | str]) -> tuple[Fraction, ...]:
    # the coefficient-sequence contract: a sequence of scalars, each read by _scalar
    contract = "coefficients must be a sequence of scalars"
    return tuple(map(_scalar, _check_sequence(coeffs, contract)))


class EgfSeries:
    """Immutable truncated series ``sum_{m<=N} b_m x^m/m!`` over the rationals."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar | str]):
        coeffs = _scalars(coeffs)
        if not coeffs:
            raise ValueError("a series carries at least its constant term")
        self._coeffs = coeffs

    @classmethod
    def _of(cls, coeffs: Iterable[Fraction]) -> EgfSeries:
        # a computed result, every coefficient a Fraction already and at least one of them:
        # the public constructor's checks are skipped
        out = object.__new__(cls)
        out._coeffs = tuple(coeffs)
        return out

    @classmethod
    def zero(cls, order: int) -> EgfSeries:
        return cls._of([_ZERO] * (_check_int(order, 0, _SERIES_ORDER) + 1))

    @classmethod
    def one(cls, order: int) -> EgfSeries:
        return cls._of([_ONE] + [_ZERO] * _check_int(order, 0, _SERIES_ORDER))

    @classmethod
    def identity(cls, order: int) -> EgfSeries:
        """The series x, the unit for composition."""
        _check_int(order, 1, "the identity series needs order >= 1")
        return cls._of([_ZERO, _ONE] + [_ZERO] * (order - 1))

    @classmethod
    def exp_x(cls, order: int) -> EgfSeries:
        """e^x truncated at the given order (all coefficients 1)."""
        return cls._of([_ONE] * (_check_int(order, 0, _SERIES_ORDER) + 1))

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, m: int) -> Fraction:
        # one type test, as every iterate on the log path is indexed: a bool is not an index
        if type(m) is not int:
            raise ValueError(f"series index must be an integer, got {m!r} (a {type(m).__name__})")
        if not 0 <= m <= self.order:
            raise IndexError(f"index {m} outside valid order {self.order}")
        return self._coeffs[m]

    def truncate(self, order: int) -> EgfSeries:
        _check_int(order, 0, f"truncation order must lie in 0..{self.order}", self.order)
        return EgfSeries._of(self._coeffs[: order + 1])

    def agrees_with(self, other: EgfSeries, order: int | None = None) -> bool:
        """Coefficientwise equality up to ``order`` (default: the smaller order)."""
        _check_type(other, EgfSeries, "the compared series must be an EgfSeries")
        upto = min(self.order, other.order)
        if order is not None:
            upto = _check_int(order, 0, f"compared order must lie in 0..{upto}", upto)
        return self._coeffs[: upto + 1] == other._coeffs[: upto + 1]

    def __add__(self, other: EgfSeries) -> EgfSeries:
        if not isinstance(other, EgfSeries):
            return NotImplemented
        upto = min(self.order, other.order)
        return EgfSeries._of(a + b for a, b in zip(self._coeffs, other._coeffs[: upto + 1]))

    def __sub__(self, other: EgfSeries) -> EgfSeries:
        if not isinstance(other, EgfSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> EgfSeries:
        return EgfSeries._of(-c for c in self._coeffs)

    def __mul__(self, other: EgfSeries | Scalar) -> EgfSeries:
        if _is_scalar(other):
            return EgfSeries._of(c * other for c in self._coeffs)
        if not isinstance(other, EgfSeries):
            return NotImplemented
        return EgfSeries._of(_convolve(_rows(self._coeffs, self.order + 1), other._coeffs))

    def __rmul__(self, other: Scalar) -> EgfSeries:
        if _is_scalar(other):
            return self * other
        return NotImplemented

    def derivative(self) -> EgfSeries:
        """Shift coefficients down one slot; costs one order of validity."""
        if self.order < 1:
            raise ValueError("cannot differentiate a series of order 0")
        return EgfSeries._of(self._coeffs[1:])

    def reciprocal(self) -> EgfSeries:
        """Multiplicative inverse, over integers by one :func:`_quotient`.

        With the coefficients ``A_k/d`` over one denominator, it solves
        ``[1, A_k A_0^(k-1)] Q = [d, 0, ...]``, and ``b_m = Q_m / A_0^(m+1)``.
        """
        if self._coeffs[0] == 0:
            raise ValueError("reciprocal needs a nonzero constant term")
        zeros = [0] * self.order
        return _over_ints(self._coeffs, lambda s, d: _quotient([d, *zeros], s, operator.mul), 1)

    def compose(self, inner: EgfSeries) -> EgfSeries:
        """Substitute ``inner`` (which must vanish at 0) into this series.

        Over integers: with the coefficients ``A_k/e`` of this series and
        ``N_m/d`` of ``inner``, each over its least common denominator,
        ``B_{n,k}`` is homogeneous of degree ``k``, so coefficient ``n`` is
        ``sum_{k=1..n} A_k B_{n,k}(N) d^(n-k) / (e d^n)`` over the integer
        table of :func:`_bell_columns`; coefficient 0 is ``a_0``.  About
        ``N^3/6`` multiply-adds at order ``N = min(self.order, inner.order)``.
        """
        _check_type(inner, EgfSeries, "the inner series must be an EgfSeries")
        if inner._coeffs[0] != 0:
            raise ValueError("inner series must have zero constant term")
        upto = min(self.order, inner.order)
        a, e = _over_lcm(self._coeffs[: upto + 1])
        b, d = _over_lcm(inner._coeffs[: upto + 1])
        dpow = list(accumulate(repeat(d, upto), operator.mul, initial=1))  # d^0 .. d^upto
        out = [self._coeffs[0]]
        for n, col in enumerate(_bell_columns(b, upto), start=1):
            # row k of the table sits over d^k: scale it to the column's d^n
            num = sum(a[k] * col[k] * dpow[n - k] for k in range(1, n + 1))
            out.append(Fraction(num, e * dpow[n]))
        return EgfSeries._of(out)

    def exp(self) -> EgfSeries:
        """Exponential, over integers by :func:`_exp_recurrence`; requires zero constant term.

        With the coefficients ``A_k/e`` over one denominator, ``G = exp(sum_k A_k
        e^(k-1) x^k/k!)`` has integer coefficients, and ``g_m = G_m / e^m``.
        """
        if self._coeffs[0] != 0:
            raise ValueError("exp needs a zero constant term")
        return _over_ints(self._coeffs, lambda s, _: _exp_recurrence(s, operator.mul, 1))

    def ln(self) -> EgfSeries:
        """Logarithm ``ln f = integral of f'/f``, over integers by one :func:`_quotient`.

        Requires constant term one.  With the coefficients ``A_k/d`` over one
        denominator (so ``A_0 = d``), it solves ``[1, A_k d^(k-1)] Q =
        [A_(m+1) d^m]``, and ``q_m = Q_m / d^(m+1)`` is coefficient ``m + 1``.
        """
        if self._coeffs[0] != 1:
            raise ValueError("ln needs constant term one")
        return _over_ints(self._coeffs, lambda s, _: [0, *_quotient(s[1:], s, operator.mul)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EgfSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        return _join_signed([
            _term(c.numerator, c.denominator, f"x^{m}/{m}!" if m > 1 else "x" if m else "", " ")
            for m, c in enumerate(self._coeffs)
            if c
        ])

    def __repr__(self) -> str:
        return f"EgfSeries([{', '.join(str(c) for c in self._coeffs)}])"


def _as_invertible(f: EgfSeries, needed: int = 1) -> None:
    """Check the inverses' series contract: ``a_0 = 0``, ``a_1 != 0``, valid to ``needed``.

    Every public function taking an invertible ``f`` runs this exactly once,
    itself or through one callee, with the order of ``f`` that it reads.
    """
    _check_type(f, EgfSeries, "the series to invert must be an EgfSeries")
    if f.order < 1:
        raise ValueError("an invertible series needs order >= 1")
    if f[0] != 0:
        raise ValueError("constant term must be zero")
    if f[1] == 0:
        raise ValueError("a1 must be nonzero")
    if f.order < needed:
        raise ValueError(f"input series must be valid to order {needed}, has {f.order}")


def _iterates(f: EgfSeries, s: EgfSeries) -> Iterator[EgfSeries]:
    # the start s and its images under s -> (1/f') * s', without end;
    # callers take as many as the start's order allows
    w = f.derivative().reciprocal()
    while True:
        yield s
        s = w * s.derivative()


def classical_inverse(f: EgfSeries, order: int) -> EgfSeries:
    """Compositional inverse coefficients from powers of x/f.

    ``b_n`` is the (n-1)-th coefficient of ``(x/f)^n``.  The removable
    singularity in ``x/f`` is handled structurally: ``f/x`` comes from the
    coefficient shift ``(f/x)_m = a_{m+1}/(m+1)``, then one reciprocal.
    The powers are formed over integers: with ``w = x/f = W/d`` over one
    denominator, coefficients ``0 .. n-1`` of ``P = W^n`` follow from
    J.C.P. Miller's recurrence ``W P' = n W' P`` (Knuth, TAOCP vol. 2,
    4.7), ``W_0 P_(k+1) = sum_j (n C(k,j) - C(k,j+1)) W_(j+1) P_(k-j)``,
    one exact division per coefficient, and ``b_n = P_(n-1) / d^n``.  This
    is independent of :func:`_bell_columns` and of ``_rows``.  About ``N^3/3``
    multiply-adds; needs ``f`` valid to ``order + 1``.
    """
    _check_int(order, 1, _INVERSE_ORDER)
    _as_invertible(f, order + 1)
    shifted = EgfSeries._of(f.coeffs[m + 1] / (m + 1) for m in range(order))
    w, d = _over_lcm(shifted.reciprocal().coeffs)  # x/f, valid to order - 1
    binom = [[math.comb(k, j) for j in range(k + 2)] for k in range(order - 1)]  # C(k, k+1) = 0
    out = [_ZERO]
    d_n = d
    for n in range(1, order + 1):
        p = [w[0] ** n]  # P_0, then P_1 .. P_(n-1)
        for k in range(n - 1):
            row = binom[k]
            total = sum((n * row[j] - row[j + 1]) * w[j + 1] * p[k - j] for j in range(k + 1))
            p.append(_exact(total, w[0]))
        out.append(Fraction(p[-1], d_n))
        d_n *= d
    return EgfSeries._of(out)


def operator_iterate(f: EgfSeries, start: EgfSeries, count: int) -> EgfSeries:
    """Apply ``s -> (1/f') * s'`` to ``start`` the given number of times.

    Each application consumes one order of validity, so the result has
    order ``start.order - count`` (provided ``f`` itself is valid far
    enough for the 1/f' factor not to be the binding truncation).
    """
    _as_invertible(f)
    _check_type(start, EgfSeries, "the start must be an EgfSeries")
    _check_int(count, 0, f"iteration count must lie in 0..{start.order} (the start order)",
               start.order)
    return next(islice(_iterates(f, start), count, None))


def operator_inverse(f: EgfSeries, order: int) -> EgfSeries:
    """Inverse coefficients as constant terms of operator iterates of 1/f'.

    ``b_n`` is the constant term after ``n-1`` applications of
    ``(1/f') d/dx`` to ``1/f'``, so iterate ``k`` is read only through order
    ``order - 1 - k``: the iterates start from ``1/f'`` of ``f`` truncated at
    ``order``, and the method reads ``f`` only through order ``order``.
    They run over integers: with ``1/f' = W/d`` over one denominator, iterate
    ``k`` is ``S_k / d^(k+1)`` with ``S_0 = W`` and ``S_(k+1) = W S_k'``, one
    ``_convolve`` through the rows of ``W``, formed once, and ``b_(k+1) =
    S_k,0 / d^(k+1)``.  About ``N^3/6`` integer multiply-adds at ``N =
    order``.  Needs ``f`` valid to ``order + 1``, the contract the four
    methods share.
    """
    _check_int(order, 1, _INVERSE_ORDER)
    _as_invertible(f, order + 1)
    w, d = _over_lcm(f.truncate(order).derivative().reciprocal().coeffs)  # valid to order - 1
    rows = list(_rows(w, order - 1))  # formed once, read by every iterate
    out = [_ZERO]
    s, d_pow = w, d  # S_0 over d^1
    for _ in range(order):
        out.append(Fraction(s[0], d_pow))
        s = _convolve(rows, s[1:])
        d_pow *= d
    return EgfSeries._of(out)


def log_form_terms(f: EgfSeries, order: int) -> EgfSeries:
    """Constant terms of operator iterates of e^x, as a series.

    Coefficient ``m`` is the constant term of ``((1/f') d/dx)^m e^x``;
    coefficient 0 is always 1, so the result is a valid ``ln`` input.
    Needs ``f`` valid to ``order + 1``.
    """
    _as_invertible(f, _check_int(order, 0, _SERIES_ORDER) + 1)
    return EgfSeries._of(s[0] for s in islice(_iterates(f, EgfSeries.exp_x(order)), order + 1))


def log_form_inverse(f: EgfSeries, order: int) -> EgfSeries:
    """Compositional inverse as the log of the operator-iterate series."""
    _check_int(order, 1, _INVERSE_ORDER)  # log_form_terms checks the series
    return log_form_terms(f, order).ln()


def newton_inverse(f: EgfSeries, order: int) -> EgfSeries:
    """Solve ``f(g(x)) = x`` coefficient by coefficient, over integers.

    The unknown ``b_n`` enters coefficient ``n`` of ``f(g)`` only through
    the linear term ``a_1 b_n``: every ``B_{n,k}(b)`` with ``k >= 2`` reads
    ``b_1 .. b_{n-1}``.  With ``f``'s coefficients ``A_k/e`` over one
    denominator and ``c = A_1^2``, the scaled unknowns ``B~_n = b_n c^n``
    are integers (the reversion coefficients of ``x + sum alpha_k x^k/k!``
    are integer polynomials of weight ``n-1`` in ``alpha_k = A_k/A_1``), and
    homogeneity of the partial Bell table :func:`_bell_columns` gives
    ``B~_n = (e c [n=1] - sum_{k>=2} A_k B_{n,k}(B~)) / A_1``, one exact
    division per step, then ``b_n = B~_n / c^n``: about ``N^3/6``
    multiply-adds in all.  It uses no series product, no powers of
    ``x/f``, no operator iterates and no ``ln``, so it stays independent of
    the other three algorithms; needs ``f`` valid to ``order``.
    """
    _check_int(order, 1, _INVERSE_ORDER)
    _as_invertible(f, order)
    a, e = _over_lcm(f.coeffs[: order + 1])
    c = a[1] * a[1]
    scaled = [0] * (order + 1)  # B~_n, written after column n is yielded
    out = [_ZERO]
    c_n = c
    for n, col in enumerate(_bell_columns(scaled, order), start=1):
        total = sum(map(operator.mul, a[2 : n + 1], col[2:]))
        scaled[n] = _exact((e * c if n == 1 else 0) - total, a[1])  # column n + 1 reads it
        out.append(Fraction(scaled[n], c_n))
        c_n *= c
    return EgfSeries._of(out)


INVERSE_METHODS = {
    "classical": classical_inverse,
    "operator": operator_inverse,
    "log": log_form_inverse,
    "newton": newton_inverse,
}


def ogf_to_egf(coeffs: Sequence[Scalar | str]) -> list[Fraction]:
    """Rescale ordinary coefficients c_m to exponential ones b_m = m! c_m."""
    return [c * math.factorial(m) for m, c in enumerate(_scalars(coeffs))]


def egf_to_ogf(coeffs: Sequence[Scalar | str]) -> list[Fraction]:
    """Rescale exponential coefficients b_m to ordinary ones c_m = b_m / m!."""
    return [c / math.factorial(m) for m, c in enumerate(_scalars(coeffs))]


def to_json_dict(series: EgfSeries, convention: str = "egf") -> dict:
    """Serialize a series: rationals as exact \"p/q\" strings."""
    _check_type(series, EgfSeries, "the series to serialize must be an EgfSeries")
    if convention == "egf":
        coeffs = list(series.coeffs)
    elif convention == "ogf":
        coeffs = egf_to_ogf(series.coeffs)
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return {
        "convention": convention,
        "order": series.order,
        "coeffs": [str(c) for c in coeffs],
    }


def from_json_dict(data: dict) -> EgfSeries:
    """Parse the JSON series object, converting ordinary coefficients if needed."""
    try:
        convention = data["convention"]
        order = data["order"]
        raw = data["coeffs"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"series object needs convention/order/coeffs: {exc}") from exc
    _check_int(order, 0, _SERIES_ORDER)
    if not isinstance(raw, list):
        raise ValueError(f"series coeffs must be a list, got {raw!r}")
    try:
        coeffs = [_scalar(c) for c in raw]
    except ValueError as exc:
        raise ValueError(f"bad series coefficient: {exc}") from exc
    if len(coeffs) != order + 1:
        raise ValueError(f"order {order} needs {order + 1} coefficients, got {len(coeffs)}")
    if convention == "ogf":
        coeffs = ogf_to_egf(coeffs)
    elif convention != "egf":
        raise ValueError(f"unknown convention {convention!r}")
    return EgfSeries(coeffs)
