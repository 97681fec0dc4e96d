"""Differential operators with polynomial coefficients and their three products.

An operator ``sum_a u_a d^a`` is stored as its normally ordered symbol
``sum_a u_a(x) xi^a``: one :class:`MultiPoly` in ``2n`` variables, with
``x_1..x_n`` in the first ``n`` packed exponent fields and the derivative
symbols ``xi_1..xi_n`` in the last ``n``.  Three bilinear products are
defined on generators and extended over sums.  On symbols all three are
slices of one sum over derivative indices ``g``,

    X <> Y = sum_g (1/g!) d_xi^g X * d_x^g Y,

where ``(1/g!) d_xi^g X = sum_{a >= g} (a choose g) u_a xi^(a-g)``:

* ``diamond`` -- genuine operator composition, every ``g``; on generators
  ``u d^a <> v d^b = sum_{g <= a} (a choose g) u d^g(v) d^(a+b-g)``;
* ``circ`` -- the same sum with ``xi = 0`` set in each ``(1/g!) d_xi^g X``,
  which leaves ``u_g``, the part of X with derivative index exactly ``g``:
  ``u d^a o v d^b = u d^a(v) d^b``;
* ``bullet`` -- the ``g = 0`` term alone, one polynomial product of the two
  symbols: ``u d^a . v d^b = u v d^(a+b)`` (commutative).

``diamond`` and ``circ`` share one kernel, told which ``g <= a`` to take
for each derivative index ``a`` of X (all of them, or ``g = a``); for
``diamond`` ``g`` goes no further than Y's largest exponent of each ``x``.
Each operator keeps two private caches: its groups (its terms split by
derivative index, keyed by the index tuple), made on the first read by
``items()``, ``coefficient()``, ``orders()``, ``apply`` or ``str()``, and
its Leibniz columns, one per ``g``, made when a product first needs them:
``d_x^g`` of its symbol over its own denominator, formed by one
``MultiPoly.partial``, with ``xi^(-g)`` folded into the keys so that a
group multiplies as stored.  A block that is the right operand of several
circs is differentiated once for all of them, and each ``L_i``, split
when the operator list is checked, is split once.  A product reads its
left operand's kept groups but keeps none it had to make: the left
operand of a diamond chain or power is a fresh result used once, and its
groups would stay alive through the product's reduction, where memory
peaks.  For each group ``a`` of X the kernel merges Y's columns
into one, ``sum_g (a choose g) col_g``, skipping a ``g`` where the column
is zero, and makes one multiply into one numerator map: no per-term key
tuples and no temporary polynomial per pair of terms.  For ``circ`` that
column is the kept one itself, with no copy and no weight.  The caches
take no part in ``==``, ``hash``, ``str`` or ``items()``, a result starts
with both empty, and the symbol is never changed.  A product whose
derivative order reaches ``2**31`` sets a guard bit of the symbol and is
refused with ``MultiPoly``'s ``ValueError``, as an exponent would be.

For first-order ``X`` the sum has only the terms ``|g| <= 1``, which is
the split ``X <> Y = X o Y + X . Y``, and ``X o (Y o Z) = (X <> Y) o Z``.
By the latter every block ``(L_{i_s} <> ... <> L_{i_2}) o L_{i_1}`` of
the set-partition expansion is built as ``L_{i_s} o block(i_1 .. i_{s-1})``
and every Bell generator ``op^(i-1) o op`` as ``op o G_(i-1)``: white
products alone, with no diamond chain or diamond power.  The bullet
product over the blocks of a set partition,
:func:`opseries.combinat.partition_operator`, lives next to the partition
type that validates its blocks.

``diamond`` is grounded semantically by :meth:`DiffOp.apply`:
``(X <> Y).apply(p) == X.apply(Y.apply(p))`` for every polynomial ``p``.

Input is checked once, where it enters: the public constructor checks each
derivative index and shifts each coefficient, checked when it was built, to
the piece ``u_beta xi^beta`` by adding the packed ``xi^beta`` to its keys.
Distinct indices give distinct keys, so the pieces fill one numerator map
over the lcm of their denominators with nothing to merge.  Each operation
checks its operands' variable counts.  Results wrap their symbol through
the private ``DiffOp._of_symbol`` and check nothing again.
``items()``, ``coefficient()`` and ``orders()`` read the kept groups, one
reduced coefficient polynomial at a time.  ``str()`` reads the same groups
but builds no coefficient polynomial and no ``Fraction``: each term is its
numerator over the symbol's denominator, put in lowest terms by one gcd.
Each distinct x-monomial is ranked by one graded-lex sort and rendered
once per call, and each coefficient's terms sort by that int rank.  The
products work on ``MultiPoly``'s packed storage (``_nums``, ``_den``,
``_reduced``, ``_mul_into``) and every sum is ``multipoly._sum`` of
symbols; an addend may be a pair ``(X, Y)`` for ``X . Y``, whose symbols'
product that sum multiply-accumulates with no product operator formed.
Nothing outside this module sees the symbol.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import accumulate, chain, islice, repeat
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .multipoly import (
    MultiIndex,
    MultiPoly,
    Scalar,
    W,
    _VARIABLE_COUNT,
    _check_exponents,
    _check_int,
    _check_same_n,
    _graded_lex,
    _is_scalar,
    _items,
    _join_signed,
    _monomial_str,
    _mul_into,
    _pack,
    _product_result,
    _sum as _sum_polys,
    _term,
    _unpack,
    index_binomial,
    sub_indices,
)


class DiffOp:
    """Immutable differential operator ``sum_beta u_beta d^beta``.

    Coefficients are :class:`MultiPoly` over the same variable count.  The
    operator is held as its symbol, a canonical ``MultiPoly`` in ``2n``
    variables, so ``==`` is symbol equality.  The zero operator has the
    zero symbol.
    """

    __slots__ = ("_n", "_sym", "_split", "_columns")  # the last two: caches (module docstring)

    def __init__(self, n: int, terms: Mapping[MultiIndex, MultiPoly | Scalar] | None = None):
        _check_int(n, 1, _VARIABLE_COUNT)
        pieces = []  # (packed xi^beta, u_beta) per coefficient: distinct betas, distinct keys
        for beta, u in _items(terms, "derivative multi-indices"):
            xi = _pack(_check_exponents(beta, n, "derivative multi-index")) << (W * n)
            if not isinstance(u, MultiPoly):
                u = MultiPoly.const(n, u)
            _check_same_n(n, u.n)
            pieces.append((xi, u))
        den = math.lcm(*(u._den for _, u in pieces))
        nums = {a + xi: c * (den // u._den) for xi, u in pieces for a, c in u._nums.items()}
        self._n = n
        self._sym = MultiPoly._reduced(2 * n, nums, den)
        self._split = self._columns = None

    @classmethod
    def _of_symbol(cls, n: int, sym: MultiPoly) -> DiffOp:
        # an operation result from checked operands: wrap its symbol, check nothing again
        out = object.__new__(cls)
        out._n = n
        out._sym = sym
        out._split = out._columns = None
        return out

    def _groups(self) -> dict[MultiIndex, dict[int, int]]:
        # the split of the symbol's terms, made on first read and kept: callers read the
        # maps and never change them
        split = self._split
        if split is None:
            split = self._split = self._split_terms()
        return split

    def _split_terms(self) -> dict[MultiIndex, dict[int, int]]:
        # the symbol's terms {key: numerator} by derivative index
        n = self._n
        shift = W * n
        groups: dict[int, dict[int, int]] = {}
        for key, c in self._sym._nums.items():
            groups.setdefault(key >> shift, {})[key] = c
        return {_unpack(a, n): terms for a, terms in groups.items()}

    def _column(self, gamma: MultiIndex) -> dict[int, int]:
        # d_x^g of the symbol over its own denominator, each key lowered by xi^g, formed by
        # one partial on first use and kept: a left group's key plus a column key is the
        # packed key of x^(x1+x2) xi^((a-g)+b), a sum of two valid keys, so the guard check
        # still sees every overflow
        columns = self._columns
        if columns is None:
            columns = self._columns = {}
        if gamma not in columns:
            n, den = self._n, self._sym._den
            right = self._sym.partial(gamma + (0,) * n)
            k, xi = den // right._den, _pack(gamma) << (W * n)
            columns[gamma] = {key - xi: c * k for key, c in right._nums.items()}
        return columns[gamma]

    def _coefficient(self, terms: Iterable[tuple[int, int]]) -> MultiPoly:
        # the reduced coefficient polynomial of one group's (key, numerator) pairs
        mask = (1 << (W * self._n)) - 1
        nums = {key & mask: c for key, c in terms}
        return MultiPoly._reduced(self._n, nums, self._sym._den)

    def _terms(self) -> Iterator[tuple[MultiIndex, MultiPoly]]:
        # the terms in items() order, one coefficient polynomial built at a time
        for beta, terms in _graded_lex(self._groups().items()):
            yield beta, self._coefficient(terms.items())

    @classmethod
    def zero(cls, n: int) -> DiffOp:
        return cls(n)

    @classmethod
    def single(cls, coeff: MultiPoly, beta: MultiIndex) -> DiffOp:
        """The generator ``coeff * d^beta``."""
        _check_operand(coeff, MultiPoly, "single")
        return cls(coeff.n, {_check_exponents(beta, coeff.n, "derivative multi-index"): coeff})

    @classmethod
    def vector_field(cls, coeffs: Sequence[MultiPoly]) -> DiffOp:
        """First-order operator ``sum_j u_j d_j`` from its coefficient list."""
        try:
            n = len(coeffs)
        except TypeError:
            msg = f"vector_field expects a sequence of coefficients, got {coeffs!r}"
            raise ValueError(msg) from None
        terms: dict[MultiIndex, MultiPoly] = {}
        for j, u in enumerate(coeffs):
            terms[tuple(1 if i == j else 0 for i in range(n))] = u
        return cls(n, terms)

    @property
    def n(self) -> int:
        return self._n

    def items(self) -> list[tuple[MultiIndex, MultiPoly]]:
        """Terms sorted by descending derivative order, then graded-lex."""
        return list(self._terms())

    def coefficient(self, beta: MultiIndex) -> MultiPoly:
        beta = _check_exponents(beta, self._n, "derivative multi-index")
        return self._coefficient(self._groups().get(beta, {}).items())

    def is_zero(self) -> bool:
        return self._sym.is_zero()

    def orders(self) -> frozenset[int]:
        """Derivative orders |beta| present; empty for the zero operator."""
        return frozenset(map(sum, self._groups()))

    def is_first_order(self) -> bool:
        """True when every stored term has |beta| = 1 (vacuously so for zero)."""
        return self.orders() <= {1}

    def __add__(self, other: DiffOp) -> DiffOp:
        if not isinstance(other, DiffOp):
            return NotImplemented
        _check_same_n(self._n, other._n)
        return DiffOp._of_symbol(self._n, self._sym + other._sym)

    def __sub__(self, other: DiffOp) -> DiffOp:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> DiffOp:
        return DiffOp._of_symbol(self._n, -self._sym)

    def __mul__(self, scalar: Scalar) -> DiffOp:
        if _is_scalar(scalar):
            return DiffOp._of_symbol(self._n, self._sym * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def _product(
        self, other: DiffOp, gammas: Callable[[MultiIndex], Iterable[MultiIndex]]
    ) -> DiffOp:
        # each group u_a xi^a of self times its one column, the sum over g in gammas(a) of
        # (a choose g) xi^(-g) d_x^g(other), into one numerator map over the product of the
        # two denominators
        _check_same_n(self._n, other._n)
        # the kept split if a read made one, else one made for this loop alone (see the
        # module docstring)
        split = self._split
        out: dict[int, int] = {}
        for alpha, terms in (self._split_terms() if split is None else split).items():
            cols = [(gamma, col) for gamma in gammas(alpha) if (col := other._column(gamma))]
            if len(cols) == 1 and cols[0][0] == alpha:
                col = cols[0][1]  # circ's column, weight 1, used as kept
            else:  # a fresh map: the kept columns never change
                col = {}
                for gamma, column in cols:
                    w = index_binomial(alpha, gamma)
                    for key, c in column.items():
                        col[key] = col.get(key, 0) + c * w
            if col:
                out = _mul_into(out, terms, col)
        den = self._sym._den * other._sym._den
        return DiffOp._of_symbol(self._n, _product_result(2 * self._n, out, den))

    def diamond(self, other: DiffOp) -> DiffOp:
        """Operator composition (associative): the full Leibniz sum over gamma <= alpha."""
        _check_operand(other, DiffOp, "diamond")
        # g stops at other's largest exponent of each x (top), past which d_x^g(other) is 0
        n, mask = other._n, (1 << (W * other._n)) - 1
        top = (0,) * n
        for key in other._sym._nums:
            top = tuple(map(max, top, _unpack(key & mask, n)))
        return self._product(other, lambda alpha: sub_indices(tuple(map(min, alpha, top))))

    def circ(self, other: DiffOp) -> DiffOp:
        """White product: the left derivative acts on the right coefficient only."""
        _check_operand(other, DiffOp, "circ")
        return self._product(other, lambda alpha: (alpha,))

    def bullet(self, other: DiffOp) -> DiffOp:
        """Black product: coefficients multiply, derivative orders add (commutative)."""
        _check_operand(other, DiffOp, "bullet")
        _check_same_n(self._n, other._n)
        return DiffOp._of_symbol(self._n, self._sym * other._sym)

    def apply(self, p: MultiPoly) -> MultiPoly:
        """Act on a polynomial: ``sum_beta u_beta * d^beta(p)``.

        Every product ``u_beta * d^beta(p)`` is summed into one numerator map
        over one denominator, the symbol's times ``p``'s, and reduced once.
        """
        _check_operand(p, MultiPoly, "apply")
        _check_same_n(self._n, p.n)
        n, den = self._n, p._den
        mask = (1 << (W * n)) - 1
        out: dict[int, int] = {}
        for beta, terms in self._groups().items():
            dp = p.partial(beta)  # over a divisor of p's denominator
            if dp._nums:
                k = den // dp._den
                u = {key & mask: c for key, c in terms.items()}
                out = _mul_into(out, u, dp._nums if k == 1 else
                                {key: c * k for key, c in dp._nums.items()})
        return _product_result(n, out, self._sym._den * den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self._n == other._n and self._sym == other._sym

    def __hash__(self) -> int:
        return hash((self._n, self._sym))

    def __str__(self) -> str:
        # a one-term coefficient c*x^alpha merges into its term; a longer one
        # is a parenthesised factor with scalar one, so it carries no sign. Each distinct
        # x-monomial is ranked by one _graded_lex sort and rendered once per call, and each
        # coefficient's terms sort by that int rank: a large operator's coefficients share
        # few monomials
        n, den = self._n, self._sym._den
        mask = (1 << (W * n)) - 1
        ranked = _graded_lex((_unpack(x, n), x) for x in {key & mask for key in self._sym._nums})
        rank = {x: r for r, (_, x) in enumerate(ranked)}
        monomials = [_monomial_str(alpha) for alpha, _ in ranked]
        parts = []
        for beta, terms in _graded_lex(self._groups().items()):
            row = sorted([(rank[key & mask], c) for key, c in terms.items()])
            if len(row) == 1:
                ((r, c),) = row
                mono, d = monomials[r], den
            else:
                inner = _join_signed([_term(c, den, monomials[r]) for r, c in row])
                c, d, mono = 1, 1, f"({inner})"
            dpart = _monomial_str(beta, "d")
            parts.append(_term(c, d, f"{mono}*{dpart}" if mono and dpart else mono or dpart))
        return _join_signed(parts)

    def __repr__(self) -> str:
        return f"DiffOp({self._n}, {self})"


def _check_operand(value: object, cls: type, method: str) -> None:
    # an entry point's operand (a product's, apply's, a verify generator's or checker's): any
    # other value would fail deep inside with an AttributeError that names a private field
    if not isinstance(value, cls):
        raise TypeError(f"{method} expects a {cls.__name__}, got {type(value).__name__}")


def unit_op(n: int) -> DiffOp:
    """The operator ``1 * d^0``: two-sided identity for diamond, left identity for circ."""
    return DiffOp.single(MultiPoly.const(n, 1), (0,) * n)


def _sum(n: int, addends: Iterable[DiffOp | tuple[DiffOp, DiffOp]]) -> DiffOp:
    # the sum of operators over n variables, addends perhaps a lazy generator; a pair (X, Y)
    # stands for X . Y and passes on as its symbols' pair, which multipoly._sum
    # multiply-accumulates with no product operator formed; the check of each symbol's 2n
    # variables there is the check of each operator's n
    symbols = (a._sym if isinstance(a, DiffOp) else (a[0]._sym, a[1]._sym) for a in addends)
    return DiffOp._of_symbol(n, _sum_polys(2 * n, symbols))


def _check_op_list(ops: Sequence[DiffOp]) -> int:
    # callers index the list, so a set or generator is refused along with a non-iterable
    if not isinstance(ops, Sequence) or not ops:
        raise ValueError(f"operator list must be a non-empty sequence of operators, got {ops!r}")
    for k, op in enumerate(ops, start=1):
        _check_operand(op, DiffOp, "an operator list")
        if op.n != ops[0].n:
            raise ValueError("all operators must share the same variable count")
        if not op.is_first_order():
            raise ValueError(f"operator {k} is not first order")
    return ops[0].n


def _check_indices(indices: Iterable[int]) -> tuple[int, ...]:
    # 1-based operator and partition labels: a float or bool would pass for an int
    try:
        indices = tuple(indices)
    except TypeError:
        raise ValueError(f"indices must be an iterable of labels, got {indices!r}") from None
    for i in indices:
        _check_int(i, -math.inf, "indices must be integers")
    return indices


def _check_subset(indices: Iterable[int], m: int) -> tuple[int, ...]:
    picked = tuple(sorted(_check_indices(indices)))
    if not picked:
        raise ValueError("index subset must be non-empty")
    for i, j in zip(picked, picked[1:]):
        if i == j:
            raise ValueError(f"index {i} is repeated in {list(picked)}")
    if picked[0] < 1 or picked[-1] > m:
        raise ValueError(f"indices must lie in 1..{m}, got {list(picked)}")
    return picked


def _block(ops: Sequence[DiffOp], picked: tuple[int, ...], memo: dict) -> DiffOp:
    # (L_{i_s} <> ... <> L_{i_2}) o L_{i_1} over a sorted 1-based index tuple, built as
    # L_{i_s} o block(i_1 .. i_{s-1}) by X o (Y o Z) = (X <> Y) o Z for first-order X;
    # memo keeps each block, so a block shares the circs of its prefixes
    if picked not in memo:
        last = ops[picked[-1] - 1]
        memo[picked] = last if len(picked) == 1 else last.circ(_block(ops, picked[:-1], memo))
    return memo[picked]


def diamond_chain(ops: Sequence[DiffOp], indices: Iterable[int]) -> DiffOp:
    """Compose the selected operators, largest index leftmost.

    For indices ``i_1 < ... < i_s`` this is ``L_{i_s} <> ... <> L_{i_1}``,
    a left fold of ``s - 1`` diamonds; a singleton just returns that
    operator.  Indices are 1-based.
    """
    _check_op_list(ops)
    return reduce(DiffOp.diamond, [ops[i - 1] for i in reversed(_check_subset(indices, len(ops)))])


def subset_operator(ops: Sequence[DiffOp], indices: Iterable[int]) -> DiffOp:
    """Chain the non-minimal selected operators, then circ onto the minimal one.

    For indices ``i_1 < ... < i_s``: ``(L_{i_s} <> ... <> L_{i_2}) o L_{i_1}``.
    It is built with white products alone, ``s - 1`` circs: by
    ``X o (Y o Z) = (X <> Y) o Z`` for first-order ``X`` it equals
    ``L_{i_s} o (L_{i_(s-1)} o ( ... o (L_{i_2} o L_{i_1})))``.  A singleton
    is the operator itself and costs no product.
    """
    _check_op_list(ops)
    return _block(ops, _check_subset(indices, len(ops)), {})


def _diamond_powers(op: DiffOp) -> Iterator[DiffOp]:
    # unit, op, op <> op, ... without end, for callers to slice: one fold, in which the
    # m-th power costs m - 1 diamonds and only the latest power stays alive
    return chain([unit_op(op.n)], accumulate(repeat(op), DiffOp.diamond))


def _circ_powers(op: DiffOp) -> Iterator[DiffOp]:
    # the Bell generators op^(i-1) o op for i = 1, 2, ... without end: G_1 = op and
    # G_i = op o G_(i-1), since op^(i-1) o op = (op <> op^(i-2)) o op = op o (op^(i-2) o op)
    # for first-order op; the i-th costs i - 1 circs and forms no diamond power
    return accumulate(repeat(op), lambda g, x: x.circ(g))


def power_diamond(op: DiffOp, m: int) -> DiffOp:
    """m-fold composition power; the empty product is the unit operator."""
    _check_operand(op, DiffOp, "power_diamond")
    _check_int(m, 0, "power must be a non-negative integer")
    return next(islice(_diamond_powers(op), m, None))
