"""Set partitions, integer partitions, Bell polynomials and Stirling numbers.

Two operator constructions are indexed by these objects and live here:
:func:`partition_operator` (the bullet product of block operators over a
set partition) and :func:`bell_eval_bullet` (a Bell polynomial evaluated
under the bullet product).  The sum of the former over every partition,
which ``verify compos`` checks, is formed by a subset recursion that
builds each block operator and each sub-sum once and multiply-accumulates
their bullet products into one sum per subset; blocks and Bell
generators are white products alone, with no diamond.

Set partitions of ``{1..m}`` are enumerated in the order of their
restricted-growth strings, by placing each element into every open block
and then into a new one; that is duplicate-free by construction and
yields blocks already sorted by their minimum element.  Integer
partitions are kept in multiplicity form ``(l_1, ..., l_m)`` with
``sum i*l_i = m``, the shape in which they index Bell-polynomial terms.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations, islice
from typing import Iterable, Iterator, Sequence

from .diffop import (
    DiffOp, _block, _check_first_order, _check_indices, _check_op_list, _circ_powers, _sum,
    unit_op,
)
from .multipoly import (
    _Record, _check_int, _check_sequence, _graded_lex, _items, _join_signed, _monomial_str, _term,
)

MAX_SET_PARTITION_SIZE = 12  # B(12) = 4,213,597 is the practical exhaustive bound
MAX_INT_PARTITION_SIZE = 40  # p(40) = 37,338; p(100) = 190,569,292 is out of reach
# bound on bell_eval_bullet's bullet products, counted as one chain of parts - 1 products per
# monomial: m=16 needs 1,232 and passes, m=17 needs 1,668; reusing shared prefixes forms fewer
# (960 at m=16), but the bound keeps this count
MAX_BELL_BULLETS = 1500


class SetPartition(_Record):
    """Partition of ``{1..m}`` into disjoint non-empty blocks.

    Canonical form: elements ascending within a block, blocks sorted by
    minimum element.  Immutable, compared and hashed by value.
    """

    __slots__ = ("m", "blocks")
    m: int
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, m: int, blocks: Iterable[Iterable[int]]):
        _check_int(m, 1, "ground set size must be a positive integer")
        super().__init__(m, self._canonical(m, blocks))

    @staticmethod
    def _canonical(m: int, blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
        # the constructor's checks: the blocks partition 1..m; returns them in canonical form
        raw = _check_sequence(blocks, "partition must be an iterable of blocks", ordered=False)
        canon = [tuple(sorted(_check_indices(b))) for b in raw]
        seen: set[int] = set()
        for block in canon:
            if not block:
                raise ValueError("empty block")
            if len(set(block)) < len(block):
                raise ValueError(f"block {block} repeats an element")
            if seen & set(block):
                raise ValueError("blocks are not disjoint")
            seen |= set(block)
        if seen != set(range(1, m + 1)):
            raise ValueError(f"blocks do not cover 1..{m}")
        # disjoint non-empty blocks have distinct minima, so plain tuple order sorts by minimum
        return tuple(sorted(canon))

    @classmethod
    def _unchecked(cls, m: int, blocks: tuple[tuple[int, ...], ...]) -> SetPartition:
        # blocks that are valid and canonical by construction: skip _canonical's checks
        out = object.__new__(cls)
        object.__setattr__(out, "m", m)  # not through _Record.__init__: B(m) of these are made
        object.__setattr__(out, "blocks", blocks)
        return out

    def signature(self) -> IntPartition:
        """Block-size signature as an integer partition in multiplicity form."""
        mults = [0] * self.m
        for block in self.blocks:
            mults[len(block) - 1] += 1
        return IntPartition(self.m, tuple(mults))

    def __str__(self) -> str:
        sep = "" if self.m <= 9 else ","
        return "-".join(sep.join(str(e) for e in block) for block in self.blocks)


class IntPartition(_Record):
    """Integer partition of ``m`` in multiplicity form: l_i parts of size i.

    Immutable, compared and hashed by value: the key type of ``BellPoly.terms``.
    """

    __slots__ = ("m", "multiplicities")
    m: int
    multiplicities: tuple[int, ...]

    def __init__(self, m: int, multiplicities: Iterable[int]):
        _check_int(m, 0, "partitioned integer must be a non-negative integer")
        mults = _multiplicities(multiplicities)
        if len(mults) != m:
            raise ValueError(f"need {m} multiplicities, got {mults}")
        if sum((i + 1) * l for i, l in enumerate(mults)) != m:
            raise ValueError(f"multiplicities {mults} do not sum to {m}")
        super().__init__(m, mults)

    @property
    def length(self) -> int:
        """Number of parts."""
        return sum(self.multiplicities)

    def __str__(self) -> str:
        return " ".join(
            f"{i + 1}^{l}" for i, l in enumerate(self.multiplicities) if l > 0
        )


def _multiplicities(mults: Iterable[int]) -> tuple[int, ...]:
    # the block-size multiplicities l_1, l_2, ... of a partition, each a count
    mults = _check_sequence(mults, "multiplicities must be a sequence of counts l_1, l_2, ...")
    for l in mults:
        _check_int(l, 0, "each multiplicity must be a non-negative integer")
    return mults


def set_partitions(m: int) -> list[SetPartition]:
    """All partitions of ``{1..m}``, duplicate-free, in restricted-growth order."""
    _check_int(m, 1, "ground set size must be a positive integer")
    if m > MAX_SET_PARTITION_SIZE:
        raise ValueError(f"set partitions capped at m <= {MAX_SET_PARTITION_SIZE}, got {m}")
    out: list[SetPartition] = []
    _place(2, m, ((1,),), out)
    return out


def _place(e: int, m: int, blocks: tuple[tuple[int, ...], ...], out: list) -> None:
    # append to out every partition of 1..m that extends blocks, a partition of 1..e - 1:
    # e joins each open block in turn and then opens a new one, which is the order of the
    # restricted-growth strings (e's block label 0, 1, ..., one past the largest so far)
    if e > m:
        out.append(SetPartition._unchecked(m, blocks))
        return
    for i, block in enumerate(blocks):
        _place(e + 1, m, (*blocks[:i], (*block, e), *blocks[i + 1:]), out)
    _place(e + 1, m, (*blocks, (e,)), out)


def integer_partitions(m: int) -> list[IntPartition]:
    """All integer partitions of ``m`` in multiplicity form."""
    _check_int(m, 1, "partitioned integer must be a positive integer")
    if m > MAX_INT_PARTITION_SIZE:
        raise ValueError(f"integer partitions capped at m <= {MAX_INT_PARTITION_SIZE}, got {m}")
    out: list[IntPartition] = []
    mults = [0] * (m - 1) + [1]  # the partition m itself comes first
    while True:
        out.append(IntPartition(m, tuple(mults)))
        # the next one lowers the smallest part p > 1 by one, refilling p and the 1s with
        # parts p - 1 and one part for the remainder
        part = next((p for p in range(2, m + 1) if mults[p - 1]), 0)
        if not part:
            return out
        count, rest = divmod(part + mults[0], part - 1)
        mults[0], mults[part - 1] = 0, mults[part - 1] - 1
        mults[part - 2] += count
        if rest:
            mults[rest - 1] += 1


def partition_class_count(mults: Sequence[int] | IntPartition) -> int:
    """Number of set partitions of ``{1..m}`` with the given block-size signature.

    For l_i blocks of size i this is ``m! / (prod l_i! * prod (i!)^l_i)``,
    which always divides evenly.
    """
    mults = _multiplicities(mults.multiplicities if isinstance(mults, IntPartition) else mults)
    m = sum((i + 1) * l for i, l in enumerate(mults))
    denom = 1
    for i, l in enumerate(mults, start=1):
        denom *= math.factorial(l) * math.factorial(i) ** l
    return math.factorial(m) // denom


class BellPoly:
    """Complete Bell polynomial: a map from integer partitions to counts.

    The coefficient of ``x_1^{l_1} ... x_m^{l_m}`` counts the set
    partitions with that block-size signature; the coefficients sum to
    the Bell number B(m).  Compared by value; mutable, so not hashable.
    The constructor checks its degree and keeps a checked copy of ``terms``.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: dict[IntPartition, int] | None = None):
        _check_int(m, 1, "degree must be a positive integer")
        self.m = m
        self.terms = {}
        for part, count in _items(terms, "integer partitions"):
            if not isinstance(part, IntPartition):
                raise ValueError(f"Bell polynomial terms are keyed by IntPartition, got {part!r}")
            if part.m != m:
                raise ValueError(f"a partition of {part.m} in a Bell polynomial of degree {m}")
            self.terms[part] = _check_int(count, -math.inf, "each term count must be an integer")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BellPoly):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def items(self) -> list[tuple[IntPartition, int]]:
        """Terms in the graded-lex order of their multiplicity vectors (part count first)."""
        ordered = _graded_lex((p.multiplicities, p) for p in self.terms)
        return [(p, self.terms[p]) for _, p in ordered]

    def coefficient_sum(self) -> int:
        return sum(self.terms.values())

    def __str__(self) -> str:
        return _join_signed(
            [_term(count, 1, _monomial_str(part.multiplicities)) for part, count in self.items()]
        )


def bell_polynomial(m: int) -> BellPoly:
    """The degree-m complete Bell polynomial with exact integer coefficients."""
    _check_int(m, 1, "degree must be a positive integer")
    return BellPoly(m, {p: partition_class_count(p) for p in integer_partitions(m)})


def bell_eval_bullet(m: int, op: DiffOp) -> DiffOp:
    """Bell polynomial evaluated on a first-order operator under the bullet product.

    Substitutes ``x_i -> (diamond power of op, i-1 times) circ op`` and takes
    every monomial product with ``bullet``.  The generators are formed as
    ``G_1 = op`` and ``G_i = op o G_(i-1)``, ``m - 1`` circs and no diamond
    power, and each monomial, times its count, streams into one
    ``multipoly._sum``.  ``m = 0`` gives the unit operator (empty product).
    """
    _check_int(m, 0, "degree must be a non-negative integer")
    _check_first_order(op, "bell_eval_bullet expects a DiffOp")
    n = op.n
    if m == 0:
        return unit_op(n)
    terms = bell_polynomial(m).terms  # enforces the size cap before any product
    bullets = sum(part.length - 1 for part in terms)  # one chain of products per monomial
    if bullets > MAX_BELL_BULLETS:
        msg = f"degree {m} needs {bullets} bullet products, over the bound of {MAX_BELL_BULLETS}"
        raise ValueError(msg)
    gens = [*islice(_circ_powers(op), m)]  # op^{i-1} o op, with no diamond power
    def monomials() -> Iterator[DiffOp]:
        # (generator index, product of the factors up to it) for the previous monomial's
        # factors; a monomial reuses the products over the prefix it shares with the previous one
        prefix: list[tuple[int, DiffOp]] = []
        for part, count in terms.items():
            factors = [i for i, mult in enumerate(part.multiplicities) for _ in range(mult)]
            shared = 0
            while shared < min(len(factors), len(prefix)) and prefix[shared][0] == factors[shared]:
                shared += 1
            del prefix[shared:]
            for i in factors[shared:]:
                prefix.append((i, prefix[-1][1].bullet(gens[i]) if prefix else gens[i]))
            yield count * prefix[-1][1]
    return _sum(n, monomials())


def partition_operator(
    ops: Sequence[DiffOp], partition: SetPartition | Iterable[Iterable[int]]
) -> DiffOp:
    """Bullet product of :func:`subset_operator` over the partition's blocks.

    ``partition`` is either a ``SetPartition`` or any iterable of blocks
    (iterables of 1-based indices) that partition ``1..len(ops)``; both are
    validated as a ``SetPartition`` of ``len(ops)``.  Block order does not
    matter since the bullet product is commutative.
    """
    _check_op_list(ops)
    part = SetPartition(len(ops), getattr(partition, "blocks", partition))
    return reduce(DiffOp.bullet, (_block(ops, block, {}) for block in part.blocks))


def _partition_sum(
    ops: Sequence[DiffOp], subset: tuple[int, ...], blocks: dict, sums: dict
) -> DiffOp:
    # sum over the set partitions of a sorted index tuple S of the bullet product of their
    # block operators, peeling the block B that holds min(S) (the exponential formula):
    # P(S) = block(S) + sum over B != S of block(B) . P(S \ B); blocks and sums keep each
    # block and each P once, so every subset of 2..m is summed once for all its supersets.
    # Each product streams into one _sum as the pair (block(B), P(S \ B)), which
    # multiply-accumulates it into the subset's one numerator map: no product operator is
    # formed, and a subset costs one map and one + however many partitions it has. The sum
    # is the left operand, whose map + clones whole, which peaks lower than merging it into
    # a copy of the smaller block(S)
    if subset not in sums:
        head, rest = subset[0], subset[1:]
        total = _block(ops, subset, blocks)
        if rest:
            products = (  # a proper tail of B leaves S \ B non-empty
                (_block(ops, (head, *tail), blocks),
                 _partition_sum(ops, tuple(i for i in rest if i not in tail), blocks, sums))
                for size in range(len(rest)) for tail in combinations(rest, size)
            )
            if len(rest) == 1:
                # the one product of a two-label subset, the smallest, stays a bullet (and so a
                # MultiPoly product): perfbench/test_perfbench.py::test_interaction_map_compos
                # requires diffop.bullet and multipoly.mul calls on compos
                products = [x.bullet(y) for x, y in products]
            total = _sum(total.n, products) + total
        sums[subset] = total
    return sums[subset]


def stirling2(m: int, k: int) -> int:
    """Stirling number of the second kind via the standard recurrence.

    ``S(m,k) = k*S(m-1,k) + S(m-1,k-1)`` with ``S(0,0) = 1``; out-of-range
    arguments give 0; a non-int argument is refused.
    """
    _check_int(m, -math.inf, "m must be an integer")
    _check_int(k, -math.inf, "k must be an integer")
    if m < 0 or k < 0 or k > m:
        return 0
    row = [1]  # S(0, 0..0)
    for i in range(1, m + 1):
        new = [0] * (min(i, k) + 1)
        for j in range(1, len(new)):
            new[j] = j * (row[j] if j < len(row) else 0) + row[j - 1]
        row = new
    return row[k] if k < len(row) else 0
