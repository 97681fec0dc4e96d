"""Sparse multivariate polynomials over exact rationals, stored fraction-free.

A polynomial in ``n`` variables is a finite map from exponent vectors
(length-``n`` tuples of non-negative ints) to nonzero rational
coefficients.  The storage is fraction-free: one positive integer
denominator shared by the whole polynomial and a nonzero integer
numerator per exponent vector, with ``gcd(den, *nums) == 1``.  That form
is canonical, so ``==`` and ``hash`` are structural, and ring operations
run on plain ints (the idea behind Bareiss's fraction-free elimination,
Math. Comp. 1968): each result is reduced once, by one gcd, instead of
once per coefficient operation.

Each exponent vector is packed into one int key: entry ``i`` occupies the
``W``-bit field starting at bit ``W*i`` (the packed-exponent idea of
Monagan and Pearce, CASC 2007).  The top bit of every field is a guard,
so every stored exponent is below ``2**(W-1)`` (``2**31``).  A monomial
product is then one int add, which no carry can leave its field, and the
guard bits of the result show any exponent that reached the bound: the
product is refused with a ``ValueError``, never wrapped into the next
variable.  ``partial`` tests divisibility for all variables at once with
one subtraction whose borrows land in the guard bits.  Exponent vectors
are tuples outside this module; only the storage is packed.

Rationals appear only at the boundary.  The public constructor takes
ints, ``Fraction``s and ``"p/q"`` strings; ``items()``, ``coefficient()``
and ``constant_term()`` hand back reduced ``fractions.Fraction`` values,
which makes all the identity checks elsewhere in the package plain
equality tests.  ``str()`` forms no ``Fraction``: it renders each stored
numerator over the shared denominator, in lowest terms by one gcd.

Every sum in the package, ``+`` and the n-ary sums of ``diffop`` and
``combinat``, is ``_sum``: it copies the first addend's numerator map,
merges each later one into it over a running denominator, rescaling the
map only when that denominator grows, and reduces once.  An addend may
also be a factor pair ``(p, q)``: ``_mul_into`` multiply-accumulates
``p * q`` straight into the running map, with the scale factor on the
smaller factor, so no product polynomial is formed, and the guard bits of
the whole map are checked once before zeros are dropped.
"""

from __future__ import annotations

import functools
import math
import struct
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping

MultiIndex = tuple[int, ...]
Scalar = Fraction | int

W = 32  # bits per packed exponent field, guard bit included
_BOUND = 1 << (W - 1)  # every stored exponent is below this


@functools.cache
def _guard(n: int) -> int:
    # the guard (top) bit of each of the n fields
    return sum(_BOUND << (W * i) for i in range(n))


@functools.cache
def _fields(n: int) -> struct.Struct:
    # n unsigned W-bit ("I") fields, little-endian: field i is bits W*i to W*i + W - 1
    return struct.Struct(f"<{n}I")


def _pack(alpha: MultiIndex) -> int:
    # alpha must hold entries below _BOUND (see _check_exponents)
    return int.from_bytes(_fields(len(alpha)).pack(*alpha), "little")


def _unpack(key: int, n: int) -> MultiIndex:
    fields = _fields(n)
    return fields.unpack(key.to_bytes(fields.size, "little"))


def _check_exponents(alpha: Iterable[int], n: int, what: str) -> MultiIndex:
    """``alpha`` as a tuple of ``n`` ints (no bools) in ``[0, 2**31)``, else ValueError."""
    try:
        alpha = tuple(alpha)
    except TypeError:
        msg = f"bad {what} {alpha!r} for {n} variables: need a sequence of ints"
        raise ValueError(msg) from None
    if len(alpha) != n or any(
        not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in alpha
    ):
        raise ValueError(f"bad {what} {alpha} for {n} variables")
    if max(alpha) >= _BOUND:
        raise ValueError(f"bad {what} {alpha}: every entry must be below 2**{W - 1}")
    return alpha


def index_binomial(alpha: MultiIndex, gamma: MultiIndex) -> int:
    """Product of componentwise binomial coefficients (alpha_i choose gamma_i)."""
    return math.prod(map(math.comb, alpha, gamma))


def sub_indices(alpha: MultiIndex) -> Iterator[MultiIndex]:
    """All gamma with 0 <= gamma_i <= alpha_i componentwise."""
    return product(*(range(a + 1) for a in alpha))


def _scaled(nums: Mapping[int, int], k: int) -> dict[int, int]:
    return dict(nums) if k == 1 else {a: c * k for a, c in nums.items()}


# the one term format: MultiPoly, DiffOp, EgfSeries and BellPoly list their terms
# in _graded_lex order, build each from its numerator and denominator through _term
# and join them with _join_signed; no Fraction is formed on the way
def _graded_lex(terms: Iterable[tuple[MultiIndex, object]]) -> list:
    # (multi-index, value) pairs in descending graded-lexicographic order
    return sorted(terms, key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)


def _monomial_str(alpha: MultiIndex, letter: str = "x") -> str:
    # x1^2*x3 for (2, 0, 1); letter "d" renders a derivative multi-index
    factors = []
    for i, e in enumerate(alpha, 1):
        if e == 1:
            factors.append(f"{letter}{i}")
        elif e > 1:
            factors.append(f"{letter}{i}^{e}")
    return "*".join(factors)


def _term(num: int, den: int, factors: str, sep: str = "*") -> tuple[bool, str]:
    # (is_negative, body) of num/den (den > 0) times factors: |num/den| is shown in lowest
    # terms, by one gcd, unless it is 1 and a factor follows
    if factors and abs(num) == den:
        return num < 0, factors
    g = math.gcd(num, den)
    mag = f"{abs(num) // g}" if den == g else f"{abs(num) // g}/{den // g}"
    return num < 0, f"{mag}{sep}{factors}" if factors else mag


def _join_signed(parts: Iterable[tuple[bool, str]]) -> str:
    # parts: (is_negative, body) in display order; the first " + " or " - " becomes "" or "-"
    out = "".join([(" - " if negative else " + ") + body for negative, body in parts])
    if not out:
        return "0"
    return "-" + out[3:] if out[1] == "-" else out[3:]


def _scalar(c: object) -> Fraction:
    # the coefficient contract at the public boundary: a float is inexact and a bool is not
    # a number, so neither is read as a rational; a Fraction is reduced and is kept as it is
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (int, str)) and not isinstance(c, bool):
        try:
            return Fraction(c)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f'bad coefficient {c!r}: need an int, Fraction or "p/q" string')


def _check_int(value: object, least: float, contract: str, most: float = math.inf) -> int:
    # the contract on every count, order, degree and index: a bool or float is not read as
    # an int, and the int must lie in least..most (an infinite bound leaves that side open)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{contract}, got {value!r} (a {type(value).__name__})")
    if not least <= value <= most:
        raise ValueError(f"{contract}, got {value!r}")
    return value


def _read_only(self: object, name: str, value: object = None) -> None:
    # __setattr__ and __delattr__ of an immutable record, whose __init__ sets each slot
    # once through object.__setattr__
    raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")


_VARIABLE_COUNT = "variable count must be positive"  # the contract on every n


def _items(terms: Mapping | None, keys: str) -> Iterable[tuple]:
    # the (key, coefficient) pairs of a constructor's terms mapping, none for None; any
    # other value would leak an AttributeError on .items that names no contract
    if terms is None:
        return ()
    try:
        return terms.items()
    except AttributeError:
        msg = f"terms must be a mapping from {keys} to coefficients, got {terms!r}"
        raise ValueError(msg) from None


def _is_scalar(c: object) -> bool:
    # whether c is the factor of a scalar product (an int or Fraction); a bool
    # is refused with the coefficient contract's error, not read as 0 or 1
    if isinstance(c, bool):
        _scalar(c)  # always raises for a bool
    return isinstance(c, (int, Fraction))


def _check_same_n(n: int, other: int) -> None:
    if n != other:
        raise ValueError(f"variable-count mismatch: {n} vs {other}")


def _mul_into(out: dict[int, int], p: Mapping[int, int], q: Mapping[int, int]) -> dict[int, int]:
    # out + p * q on packed keys and integer numerators, summed in out itself unless out is
    # empty; the result must pass _product_result
    rows, cols = (p, q) if len(p) <= len(q) else (q, p)
    cols = cols.items()
    for alpha, c in rows.items():
        if out:
            for beta, d in cols:
                key = alpha + beta
                out[key] = out.get(key, 0) + c * d
        else:  # the first row's keys are distinct: nothing to merge yet
            out = {alpha + beta: c * d for beta, d in cols}
    return out


def _product_result(n: int, nums: dict[int, int], den: int) -> MultiPoly:
    # every key is the field-wise sum of two packed keys whose fields are below _BOUND, so
    # no sum carries into the next field, and a set guard bit is exactly an exponent that
    # reached _BOUND
    if any(map(_guard(n).__and__, nums)):
        raise ValueError(f"product has an exponent of at least 2**{W - 1}, the bound")
    return MultiPoly._reduced(n, nums, den)


class MultiPoly:
    """Immutable sparse polynomial with rational coefficients.

    Stored as integer numerators ``_nums``, keyed by packed exponent
    vectors, over one shared positive denominator ``_den``, reduced so that
    ``gcd(_den, *_nums) == 1``; no ``Fraction`` is held.  The variable
    count ``n`` is fixed per instance and checked on every binary
    operation; there is no implicit promotion between rings.
    """

    __slots__ = ("_n", "_nums", "_den")

    def __init__(self, n: int, terms: Mapping[MultiIndex, Scalar | str] | None = None):
        _check_int(n, 1, _VARIABLE_COUNT)
        coeffs: dict[int, Fraction] = {}
        for alpha, c in _items(terms, "exponent vectors"):
            key = _pack(_check_exponents(alpha, n, "exponent vector"))
            c = _scalar(c)
            if c:
                coeffs[key] = c
        # the lcm of reduced denominators leaves gcd(den, *nums) == 1 already
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self._n = n
        self._nums = {a: c.numerator * (den // c.denominator) for a, c in coeffs.items()}
        self._den = den

    @classmethod
    def _reduced(cls, n: int, nums: dict[int, int], den: int) -> MultiPoly:
        # the one normalisation of every computed result: drop zero numerators,
        # divide out the common gcd, and skip the public constructor's checks.
        # nums is a fresh map that the result takes over, so it is changed in place
        if 0 in nums.values():
            for a in [a for a, c in nums.items() if not c]:
                del nums[a]
        if den != 1:  # over den 1 the gcd is 1 already
            g = math.gcd(den, *nums.values())
            if g != 1:
                for a, c in nums.items():
                    nums[a] = c // g
                den //= g
        out = object.__new__(cls)
        out._n = n
        out._nums = nums
        out._den = den
        return out

    @classmethod
    def zero(cls, n: int) -> MultiPoly:
        return cls(n)

    @classmethod
    def const(cls, n: int, value: Scalar | str) -> MultiPoly:
        return cls(n, {(0,) * _check_int(n, 1, _VARIABLE_COUNT): value})

    @classmethod
    def variable(cls, n: int, i: int) -> MultiPoly:
        """The polynomial x_{i+1} (index ``i`` is 0-based)."""
        n = _check_int(n, 1, _VARIABLE_COUNT)
        _check_int(i, 0, f"variable index must lie in 0..{n - 1}", n - 1)
        alpha = tuple(1 if j == i else 0 for j in range(n))
        return cls(n, {alpha: 1})

    @property
    def n(self) -> int:
        return self._n

    def items(self) -> list[tuple[MultiIndex, Fraction]]:
        """Terms in descending graded-lexicographic order (canonical)."""
        n, den = self._n, self._den
        return _graded_lex((_unpack(a, n), Fraction(c, den)) for a, c in self._nums.items())

    def coefficient(self, alpha: MultiIndex) -> Fraction:
        key = _pack(_check_exponents(alpha, self._n, "exponent vector"))
        return Fraction(self._nums.get(key, 0), self._den)

    def constant_term(self) -> Fraction:
        """The value at the origin, i.e. the coefficient of x^0."""
        return self.coefficient((0,) * self._n)

    def is_zero(self) -> bool:
        return not self._nums

    def total_degree(self) -> int:
        """Maximum total degree of any term; -1 for the zero polynomial."""
        return max((sum(_unpack(a, self._n)) for a in self._nums), default=-1)

    def __add__(self, other: MultiPoly) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return _sum(self._n, (self, other))

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> MultiPoly:
        return MultiPoly._reduced(self._n, _scaled(self._nums, -1), self._den)

    def __mul__(self, other: MultiPoly | Scalar) -> MultiPoly:
        if _is_scalar(other):
            return MultiPoly._reduced(
                self._n, _scaled(self._nums, other.numerator), self._den * other.denominator
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        _check_same_n(self._n, other._n)
        out = _mul_into({}, self._nums, other._nums)
        return _product_result(self._n, out, self._den * other._den)

    def __rmul__(self, other: Scalar) -> MultiPoly:
        if _is_scalar(other):
            return self * other
        return NotImplemented

    def partial(self, alpha: MultiIndex) -> MultiPoly:
        """Iterated partial derivative d^alpha, exact.

        A term x^gamma survives only when gamma >= alpha componentwise and
        picks up the falling-factorial factor prod_i gamma_i!/(gamma_i-alpha_i)!.
        """
        alpha = _check_exponents(alpha, self._n, "derivative multi-index")
        if not any(alpha):
            return self  # immutable, so d^0 can hand back the instance itself
        guard, packed = _guard(self._n), _pack(alpha)
        fields = [(W * i, a) for i, a in enumerate(alpha) if a]  # (bit offset, order) per x_i
        low = (1 << W) - 1
        out: dict[int, int] = {}
        for gamma, c in self._nums.items():
            # field i keeps its guard bit iff gamma_i >= alpha_i: no borrow crosses fields
            if ((gamma | guard) - packed) & guard == guard:
                for shift, a in fields:
                    c *= math.perm((gamma >> shift) & low, a)
                out[gamma - packed] = c
        return MultiPoly._reduced(self._n, out, self._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._n == other._n and self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._n, self._den, frozenset(self._nums.items())))

    def __str__(self) -> str:
        n, den = self._n, self._den
        terms = _graded_lex((_unpack(a, n), c) for a, c in self._nums.items())
        return _join_signed([_term(c, den, _monomial_str(a)) for a, c in terms])

    def __repr__(self) -> str:
        return f"MultiPoly({self._n}, {self})"


def _sum(n: int, addends: Iterable[MultiPoly | tuple[MultiPoly, MultiPoly]]) -> MultiPoly:
    # the sum of the module docstring; addends may be a lazy generator, and no addend and no
    # factor changes
    nums: dict[int, int] = {}
    den, paired = 1, False
    for addend in addends:
        pair = not isinstance(addend, MultiPoly)
        if pair:  # a factor pair (p, q) stands for p * q
            p, q = addend
            _check_same_n(n, q._n)
            d = p._den * q._den
        else:
            p = addend
            d = p._den
        _check_same_n(n, p._n)
        if not nums:  # a zero sum so far: it starts over this addend's denominator
            den = d
        elif den % d:  # the running denominator grows to lcm(den, d) = den * s
            s = d // math.gcd(den, d)
            for key, c in nums.items():
                nums[key] = c * s
            den *= s
        k = den // d
        if pair:
            paired = True
            if len(q._nums) < len(p._nums):
                p, q = q, p  # k goes on the smaller factor
            nums = _mul_into(nums, p._nums if k == 1 else _scaled(p._nums, k), q._nums)
        elif not nums:  # a copy of p's map, never p's map itself
            nums = dict(p._nums)
        else:
            for key, c in p._nums.items():
                nums[key] = nums.get(key, 0) + c * k
    if paired:  # every product key is guard-checked, those whose numerators cancelled too
        return _product_result(n, nums, den)
    return MultiPoly._reduced(n, nums, den)
