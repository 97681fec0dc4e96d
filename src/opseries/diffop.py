"""Differential operators with polynomial coefficients and their three products.

An operator is a finite sum of generators ``u * d^beta`` stored as a map
from the derivative multi-index ``beta`` to its polynomial coefficient
``u``.  Three bilinear products are defined on generators and extended
over sums.  All three are slices of one Leibniz sum, computed by a single
kernel that is told which indices ``g`` to keep:

* ``diamond`` -- genuine operator composition, every ``g <= a``:
  ``u d^a <> v d^b = sum_{g <= a} (a choose g) u d^g(v) d^(a+b-g)``;
* ``circ`` -- the ``g = a`` term, the derivative part hits only the right
  coefficient: ``u d^a o v d^b = u d^a(v) d^b``;
* ``bullet`` -- the ``g = 0`` term, coefficients multiply and derivative
  orders stack: ``u d^a . v d^b = u v d^(a+b)`` (commutative).

For first-order ``X`` the sum has only those two terms, which is the split
``X <> Y = X o Y + X . Y``.  The bullet product over the blocks of a set
partition, :func:`opseries.combinat.partition_operator`, lives next to the
partition type that validates its blocks.

``diamond`` is grounded semantically by :meth:`DiffOp.apply`:
``(X <> Y).apply(p) == X.apply(Y.apply(p))`` for every polynomial ``p``.

Input is checked once, where it enters: the public constructor checks
every index and coefficient, each operation its operands' variable counts.
Results are built by the private ``DiffOp._reduced``, which only drops
zero coefficients, like ``MultiPoly._reduced``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .multipoly import (
    MultiIndex,
    MultiPoly,
    Scalar,
    _check_exponents,
    _check_same_n,
    _graded_lex,
    _is_scalar,
    _join_signed,
    _monomial_str,
    _term,
    index_binomial,
    sub_indices,
)


class DiffOp:
    """Immutable differential operator ``sum_beta u_beta d^beta``.

    Coefficients are :class:`MultiPoly` over the same variable count;
    zero coefficients are never stored, so ``==`` is canonical-map
    equality.  The zero operator is the empty sum.
    """

    __slots__ = ("_n", "_terms")

    def __init__(self, n: int, terms: Mapping[MultiIndex, MultiPoly | Scalar] | None = None):
        if n < 1:
            raise ValueError(f"variable count must be positive, got {n}")
        clean: dict[MultiIndex, MultiPoly] = {}
        for beta, u in (terms or {}).items():
            beta = _check_exponents(beta, n, "derivative multi-index")
            if not isinstance(u, MultiPoly):
                u = MultiPoly.const(n, u)
            _check_same_n(n, u.n)
            if not u.is_zero():
                clean[beta] = u
        self._n = n
        self._terms = clean

    @classmethod
    def _reduced(cls, n: int, terms: dict[MultiIndex, MultiPoly]) -> DiffOp:
        # an operation result from checked operands: drop zeros, check nothing again
        out = object.__new__(cls)
        out._n = n
        out._terms = {b: u for b, u in terms.items() if not u.is_zero()}
        return out

    @classmethod
    def zero(cls, n: int) -> DiffOp:
        return cls(n)

    @classmethod
    def single(cls, coeff: MultiPoly, beta: MultiIndex) -> DiffOp:
        """The generator ``coeff * d^beta``."""
        return cls(coeff.n, {tuple(beta): coeff})

    @classmethod
    def vector_field(cls, coeffs: Sequence[MultiPoly]) -> DiffOp:
        """First-order operator ``sum_j u_j d_j`` from its coefficient list."""
        n = len(coeffs)
        terms: dict[MultiIndex, MultiPoly] = {}
        for j, u in enumerate(coeffs):
            terms[tuple(1 if i == j else 0 for i in range(n))] = u
        return cls(n, terms)

    @property
    def n(self) -> int:
        return self._n

    def items(self) -> list[tuple[MultiIndex, MultiPoly]]:
        """Terms sorted by descending derivative order, then graded-lex."""
        return _graded_lex(self._terms.items())

    def coefficient(self, beta: MultiIndex) -> MultiPoly:
        beta = _check_exponents(beta, self._n, "derivative multi-index")
        return self._terms.get(beta, MultiPoly.zero(self._n))

    def is_zero(self) -> bool:
        return not self._terms

    def orders(self) -> frozenset[int]:
        """Derivative orders |beta| present; empty for the zero operator."""
        return frozenset(sum(b) for b in self._terms)

    def is_first_order(self) -> bool:
        """True when every stored term has |beta| = 1 (vacuously so for zero)."""
        return all(sum(b) == 1 for b in self._terms)

    def __add__(self, other: DiffOp) -> DiffOp:
        if not isinstance(other, DiffOp):
            return NotImplemented
        _check_same_n(self._n, other._n)
        out = dict(self._terms)
        for beta, u in other._terms.items():
            prev = out.get(beta)
            out[beta] = u if prev is None else prev + u
        return DiffOp._reduced(self._n, out)

    def __sub__(self, other: DiffOp) -> DiffOp:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> DiffOp:
        return DiffOp._reduced(self._n, {b: -u for b, u in self._terms.items()})

    def __mul__(self, scalar: Scalar) -> DiffOp:
        if _is_scalar(scalar):
            return DiffOp._reduced(self._n, {b: u * scalar for b, u in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def _product(
        self, other: DiffOp, gammas: Callable[[MultiIndex], Iterable[MultiIndex]]
    ) -> DiffOp:
        # sum over generator pairs of C(alpha, gamma) u d^gamma(v) d^(alpha+beta-gamma),
        # gamma running over gammas(alpha); each product is one choice of gammas
        _check_same_n(self._n, other._n)
        acc: dict[MultiIndex, MultiPoly] = {}
        for alpha, u in self._terms.items():
            for beta, v in other._terms.items():
                for gamma in gammas(alpha):
                    dv = v.partial(gamma)
                    if dv.is_zero():
                        continue
                    w = index_binomial(alpha, gamma)
                    coeff = u * dv
                    if w != 1:
                        coeff = coeff * w
                    key = tuple(a + b - g for a, b, g in zip(alpha, beta, gamma))
                    prev = acc.get(key)
                    acc[key] = coeff if prev is None else prev + coeff
        return DiffOp._reduced(self._n, acc)

    def diamond(self, other: DiffOp) -> DiffOp:
        """Operator composition (associative): the full Leibniz sum over gamma <= alpha."""
        return self._product(other, sub_indices)

    def circ(self, other: DiffOp) -> DiffOp:
        """White product: the left derivative acts on the right coefficient only."""
        return self._product(other, lambda alpha: (alpha,))

    def bullet(self, other: DiffOp) -> DiffOp:
        """Black product: coefficients multiply, derivative orders add (commutative)."""
        zero = ((0,) * self._n,)
        return self._product(other, lambda alpha: zero)

    def apply(self, p: MultiPoly) -> MultiPoly:
        """Act on a polynomial: ``sum_beta u_beta * d^beta(p)``."""
        _check_same_n(self._n, p.n)
        out = MultiPoly.zero(self._n)
        for beta, u in self._terms.items():
            dp = p.partial(beta)
            if not dp.is_zero():
                out = out + u * dp
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self._n == other._n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._n, frozenset(self._terms.items())))

    def __str__(self) -> str:
        # a one-term coefficient c*x^alpha merges into its term; a longer one
        # is a parenthesised factor with scalar one, so it carries no sign
        parts = []
        for beta, u in self.items():
            if len(terms := u.items()) == 1:
                ((alpha, c),) = terms
                mono = _monomial_str(alpha)
            else:
                c, mono = 1, f"({u})"
            dpart = _monomial_str(beta, "d")
            parts.append(_term(c, f"{mono}*{dpart}" if mono and dpart else mono or dpart))
        return _join_signed(parts)

    def __repr__(self) -> str:
        return f"DiffOp({self._n}, {self})"


def unit_op(n: int) -> DiffOp:
    """The operator ``1 * d^0``: two-sided identity for diamond, left identity for circ."""
    return DiffOp(n, {(0,) * n: MultiPoly.const(n, 1)})


def _check_op_list(ops: Sequence[DiffOp]) -> int:
    if not ops:
        raise ValueError("operator list must be non-empty")
    n = ops[0].n
    for k, op in enumerate(ops, start=1):
        if op.n != n:
            raise ValueError("all operators must share the same variable count")
        if not op.is_first_order():
            raise ValueError(f"operator {k} is not first order")
    return n


def _check_indices(indices: Iterable[int]) -> tuple[int, ...]:
    # 1-based operator and partition labels: a float or bool would pass for an int
    try:
        indices = tuple(indices)
    except TypeError:
        raise ValueError(f"indices must be an iterable of labels, got {indices!r}") from None
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, int):
            raise ValueError(f"indices must be integers (not bools), got {i!r}")
    return indices


def _check_subset(indices: Iterable[int], m: int) -> tuple[int, ...]:
    picked = tuple(sorted(set(_check_indices(indices))))
    if not picked:
        raise ValueError("index subset must be non-empty")
    if picked[0] < 1 or picked[-1] > m:
        raise ValueError(f"indices must lie in 1..{m}, got {list(picked)}")
    return picked


def _chain(ops: Sequence[DiffOp], picked: tuple[int, ...], memo: dict) -> DiffOp:
    # L_max <> ... <> L_min over a sorted 1-based index tuple, peeling the minimum:
    # _chain(picked[1:]) <> L_min; memo keeps each chain, so shared tails compose once
    if picked not in memo:
        head = ops[picked[0] - 1]
        memo[picked] = head if len(picked) == 1 else _chain(ops, picked[1:], memo).diamond(head)
    return memo[picked]


def _block(ops: Sequence[DiffOp], picked: tuple[int, ...], memo: dict) -> DiffOp:
    # (L_max <> ... <> L_{i_2}) o L_{i_1}; a singleton is the operator itself
    head = ops[picked[0] - 1]
    return head if len(picked) == 1 else _chain(ops, picked[1:], memo).circ(head)


def diamond_chain(ops: Sequence[DiffOp], indices: Iterable[int]) -> DiffOp:
    """Compose the selected operators, largest index leftmost.

    For indices ``i_1 < ... < i_s`` this is ``L_{i_s} <> ... <> L_{i_1}``;
    a singleton just returns that operator.  Indices are 1-based.  One
    memoised recursion builds every chain in the package, and only when read.
    """
    _check_op_list(ops)
    return _chain(ops, _check_subset(indices, len(ops)), {})


def subset_operator(ops: Sequence[DiffOp], indices: Iterable[int]) -> DiffOp:
    """Chain the non-minimal selected operators, then circ onto the minimal one.

    For indices ``i_1 < ... < i_s``: ``(L_{i_s} <> ... <> L_{i_2}) o L_{i_1}``.
    A singleton is the operator itself and costs no product (empty chain =
    unit, a left identity for circ); the chain comes from :func:`diamond_chain`'s
    memoised recursion.
    """
    _check_op_list(ops)
    return _block(ops, _check_subset(indices, len(ops)), {})


def _diamond_powers(op: DiffOp, m: int) -> list[DiffOp]:
    """``[unit, op, op <> op, ...]`` up to the m-th composition power."""
    if m < 0:
        raise ValueError(f"power must be non-negative, got {m}")
    powers = [unit_op(op.n), op][: m + 1]  # unit <> op is op: no product
    for _ in range(m - 1):
        powers.append(powers[-1].diamond(op))
    return powers


def _circ_generators(op: DiffOp, powers: Sequence[DiffOp]) -> list[DiffOp]:
    # [op, op o op, (op <> op) o op, ...]: p o op for each p of a prefix [unit, op, ...]
    # of _diamond_powers; unit o op is op, so the first one costs no product
    return [op, *(p.circ(op) for p in powers[1:])][: len(powers)]


def power_diamond(op: DiffOp, m: int) -> DiffOp:
    """m-fold composition power; the empty product is the unit operator."""
    return _diamond_powers(op, m)[-1]
