"""Sparse multivariate polynomials over exact rationals.

A polynomial in ``n`` variables is a finite map from exponent vectors
(length-``n`` tuples of non-negative ints) to nonzero ``Fraction``
coefficients.  Instances are immutable and always canonical -- zero
coefficients are dropped on construction -- so ``==`` is decisive
structural equality and nothing ever needs re-normalising.

The coefficient field is the rationals: ``fractions.Fraction`` keeps
every value reduced with a positive denominator, which makes all the
identity checks elsewhere in the package plain equality tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping

MultiIndex = tuple[int, ...]
Scalar = Fraction | int


def index_add(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    return tuple(a + b for a, b in zip(alpha, beta))


def index_binomial(alpha: MultiIndex, gamma: MultiIndex) -> int:
    """Product of componentwise binomial coefficients (alpha_i choose gamma_i)."""
    out = 1
    for a, g in zip(alpha, gamma):
        out *= math.comb(a, g)
    return out


def sub_indices(alpha: MultiIndex) -> Iterator[MultiIndex]:
    """All gamma with 0 <= gamma_i <= alpha_i componentwise."""
    return product(*(range(a + 1) for a in alpha))


def _join_signed(parts: Iterable[tuple[bool, str]]) -> str:
    # parts: (is_negative, body) in display order
    out: list[str] = []
    for negative, body in parts:
        if not out:
            out.append("-" + body if negative else body)
        else:
            out.append((" - " if negative else " + ") + body)
    return "".join(out) if out else "0"


def _monomial_str(alpha: MultiIndex) -> str:
    factors = []
    for i, e in enumerate(alpha):
        if e == 1:
            factors.append(f"x{i + 1}")
        elif e > 1:
            factors.append(f"x{i + 1}^{e}")
    return "*".join(factors)


class MultiPoly:
    """Immutable sparse polynomial with ``Fraction`` coefficients.

    The variable count ``n`` is fixed per instance and checked on every
    binary operation; there is no implicit promotion between rings.
    """

    __slots__ = ("_n", "_terms", "_hash")

    def __init__(self, n: int, terms: Mapping[MultiIndex, Scalar] | None = None):
        if n < 1:
            raise ValueError(f"variable count must be positive, got {n}")
        clean: dict[MultiIndex, Fraction] = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != n or any(e < 0 or not isinstance(e, int) for e in alpha):
                raise ValueError(f"bad exponent vector {alpha} for {n} variables")
            c = Fraction(c)
            if c:
                clean[alpha] = c
        self._n = n
        self._terms = clean
        self._hash: int | None = None

    @classmethod
    def zero(cls, n: int) -> MultiPoly:
        return cls(n)

    @classmethod
    def const(cls, n: int, value: Scalar) -> MultiPoly:
        return cls(n, {(0,) * n: value})

    @classmethod
    def variable(cls, n: int, i: int) -> MultiPoly:
        """The polynomial x_{i+1} (index ``i`` is 0-based)."""
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for {n} variables")
        alpha = tuple(1 if j == i else 0 for j in range(n))
        return cls(n, {alpha: 1})

    @property
    def n(self) -> int:
        return self._n

    def items(self) -> list[tuple[MultiIndex, Fraction]]:
        """Terms in descending graded-lexicographic order (canonical)."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def coefficient(self, alpha: MultiIndex) -> Fraction:
        return self._terms.get(tuple(alpha), Fraction(0))

    def constant_term(self) -> Fraction:
        """The value at the origin, i.e. the coefficient of x^0."""
        return self._terms.get((0,) * self._n, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Maximum total degree of any term; -1 for the zero polynomial."""
        return max((sum(a) for a in self._terms), default=-1)

    def _check_same_ring(self, other: MultiPoly) -> None:
        if self._n != other._n:
            raise ValueError(f"variable-count mismatch: {self._n} vs {other._n}")

    def __add__(self, other: MultiPoly) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_ring(other)
        out = dict(self._terms)
        for alpha, c in other._terms.items():
            out[alpha] = out.get(alpha, Fraction(0)) + c
        return MultiPoly(self._n, out)

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self._n, {a: -c for a, c in self._terms.items()})

    def __mul__(self, other: MultiPoly | Scalar) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self._n, {a: c * other for a, c in self._terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_ring(other)
        out: dict[MultiIndex, Fraction] = {}
        for alpha, c in self._terms.items():
            for beta, d in other._terms.items():
                key = index_add(alpha, beta)
                out[key] = out.get(key, Fraction(0)) + c * d
        return MultiPoly(self._n, out)

    def __rmul__(self, other: Scalar) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def partial(self, alpha: MultiIndex) -> MultiPoly:
        """Iterated partial derivative d^alpha, exact.

        A term x^gamma survives only when gamma >= alpha componentwise and
        picks up the falling-factorial factor prod_i gamma_i!/(gamma_i-alpha_i)!.
        """
        alpha = tuple(alpha)
        if len(alpha) != self._n or any(e < 0 for e in alpha):
            raise ValueError(f"bad derivative multi-index {alpha} for {self._n} variables")
        if not any(alpha):
            return self  # immutable, so d^0 can hand back the instance itself
        out: dict[MultiIndex, Fraction] = {}
        for gamma, c in self._terms.items():
            if all(g >= a for g, a in zip(gamma, alpha)):
                k = 1
                for g, a in zip(gamma, alpha):
                    k *= math.perm(g, a)
                out[tuple(g - a for g, a in zip(gamma, alpha))] = c * k
        return MultiPoly(self._n, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._n == other._n and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._n, frozenset(self._terms.items())))
        return self._hash

    def __str__(self) -> str:
        parts = []
        for alpha, c in self.items():
            mono = _monomial_str(alpha)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            parts.append((c < 0, body))
        return _join_signed(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self._n}, {self})"
