"""Partition enumeration, Bell polynomials and Stirling numbers."""

import math
import re
from collections import Counter
from functools import reduce

import pytest

from opseries import (
    INVERSE_METHODS,
    BellPoly,
    DiffOp,
    EgfSeries,
    IntPartition,
    MultiPoly,
    RandomSpec,
    SetPartition,
    bell_eval_bullet,
    bell_polynomial,
    from_json_dict,
    integer_partitions,
    log_form_terms,
    operator_iterate,
    partition_class_count,
    partition_operator,
    power_diamond,
    random_diffop,
    random_invertible_series,
    random_op_list,
    random_vector_field,
    run_suite,
    set_partitions,
    stirling2,
    unit_op,
    verify_exp_identity,
    verify_exp_identity_xd,
    verify_stirling_power,
)
from opseries.combinat import MAX_BELL_BULLETS, _partition_sum


def bell_oracle(n):
    """Bell number via the binomial recurrence B(n+1) = sum_k C(n,k) B(k)."""
    values = [1]
    for i in range(n):
        values.append(sum(math.comb(i, k) * values[k] for k in range(i + 1)))
    return values[n]


def stirling_oracle(m, k):
    """Inclusion-exclusion surjection count divided by k!."""
    if k == 0:
        return 1 if m == 0 else 0
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1))
    return total // math.factorial(k)


def partition_count_oracle(n):
    """Number of integer partitions of n, by the coin-style DP."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


# each call read True as 1: set_partitions(True) returned a partition with m=True
@pytest.mark.parametrize(
    "call",
    [lambda op: set_partitions(True), lambda op: integer_partitions(True),
     lambda op: bell_polynomial(True), lambda op: IntPartition(True, (1,)),
     lambda op: power_diamond(op, True), lambda op: bell_eval_bullet(True, op),
     lambda op: verify_exp_identity(op, True), lambda op: verify_exp_identity_xd(True),
     lambda op: SetPartition(True, ((1,),)), lambda op: IntPartition(1, (True,)),
     lambda op: partition_class_count((True,)), lambda op: stirling2(True, 1),
     lambda op: stirling2(1, True), lambda op: RandomSpec(seed=True)],
    ids=["set_partitions", "integer_partitions", "bell_polynomial", "IntPartition",
         "power_diamond", "bell_eval_bullet", "verify_exp_identity", "verify_exp_identity_xd",
         "SetPartition", "IntPartition_multiplicity", "partition_class_count", "stirling2_m",
         "stirling2_k", "RandomSpec_seed"],
)
def test_a_bool_size_is_refused(call):
    with pytest.raises(ValueError, match="integer, got True"):
        call(random_vector_field(RandomSpec(seed=1)))


F = EgfSeries([0, 1, 1, 1, 1, 1])  # invertible, valid to order 5
X1D1 = DiffOp(1, {(1,): MultiPoly.variable(1, 0)})  # first order
SERIES_ORDER = "series order must be an integer >= 0"
# every integer argument of the public API: a call that passes it the bad value, and the
# contract the refusal names
INTEGER_ARGUMENTS = {
    "MultiPoly": (lambda v: MultiPoly(v), "variable count must be positive"),
    "MultiPoly.const": (lambda v: MultiPoly.const(v, 1), "variable count must be positive"),
    "MultiPoly.variable_n": (lambda v: MultiPoly.variable(v, 0),
                             "variable count must be positive"),
    "MultiPoly.variable_i": (lambda v: MultiPoly.variable(3, v),
                             "variable index must lie in 0..2"),
    "DiffOp": (lambda v: DiffOp(v), "variable count must be positive"),
    "unit_op": (lambda v: unit_op(v), "variable count must be positive"),
    "power_diamond": (lambda v: power_diamond(X1D1, v), "power must be a non-negative integer"),
    "SetPartition": (lambda v: SetPartition(v, ((1,),)),
                     "ground set size must be a positive integer"),
    "IntPartition_m": (lambda v: IntPartition(v, (1,)),
                       "partitioned integer must be a non-negative integer"),
    "IntPartition_multiplicity": (lambda v: IntPartition(1, (v,)),
                                  "each multiplicity must be a non-negative integer"),
    "set_partitions": (set_partitions, "ground set size must be a positive integer"),
    "integer_partitions": (integer_partitions, "partitioned integer must be a positive integer"),
    "bell_polynomial": (bell_polynomial, "degree must be a positive integer"),
    "bell_eval_bullet": (lambda v: bell_eval_bullet(v, X1D1),
                         "degree must be a non-negative integer"),
    "partition_class_count": (lambda v: partition_class_count((v,)),
                              "each multiplicity must be a non-negative integer"),
    "stirling2_m": (lambda v: stirling2(v, 1), "m must be an integer"),
    "stirling2_k": (lambda v: stirling2(1, v), "k must be an integer"),
    **{name: (lambda v, fn=fn: fn(F, v), "inverse order must be >= 1")
       for name, fn in INVERSE_METHODS.items()},
    "log_form_terms": (lambda v: log_form_terms(F, v), SERIES_ORDER),
    "operator_iterate": (lambda v: operator_iterate(F, EgfSeries.exp_x(3), v),
                         "iteration count must lie in 0..3 (the start order)"),
    "EgfSeries.zero": (EgfSeries.zero, SERIES_ORDER),
    "EgfSeries.one": (EgfSeries.one, SERIES_ORDER),
    "EgfSeries.exp_x": (EgfSeries.exp_x, SERIES_ORDER),
    "EgfSeries.identity": (EgfSeries.identity, "the identity series needs order >= 1"),
    "EgfSeries.truncate": (F.truncate, "truncation order must lie in 0..5"),
    "EgfSeries.agrees_with": (lambda v: F.agrees_with(F, v), "compared order must lie in 0..5"),
    "from_json_dict": (lambda v: from_json_dict({"convention": "egf", "order": v,
                                                 "coeffs": ["0", "1", "1"]}), SERIES_ORDER),
    "verify_exp_identity": (lambda v: verify_exp_identity(X1D1, v),
                            "z-order must be a non-negative integer"),
    "verify_exp_identity_xd": (verify_exp_identity_xd, "z-order must be a non-negative integer"),
    "verify_stirling_power": (verify_stirling_power, "m must lie in 1..10"),
    "run_suite_trials": (lambda v: run_suite("prop1", trials=v), "trials must be at least 1"),
    "run_suite_seed": (lambda v: run_suite("prop1", seed=v), "seed must be an integer"),
    "run_suite_n": (lambda v: run_suite("prop1", n=v), "variable count n must be at least 1"),
    "run_suite_degree": (lambda v: run_suite("prop1", degree=v),
                         "degree bound must be non-negative"),
    "run_suite_m": (lambda v: run_suite("compos", m=v), "--m must be an integer >= 0"),
    "run_suite_order": (lambda v: run_suite("inversion", order=v),
                        "--order must be an integer >= 0"),
    "RandomSpec_seed": (lambda v: RandomSpec(seed=v), "seed must be an integer"),
    "RandomSpec_n": (lambda v: RandomSpec(seed=1, n=v), "variable count n must be at least 1"),
    "RandomSpec_max_degree": (lambda v: RandomSpec(seed=1, max_degree=v),
                              "degree bound must be non-negative"),
    "random_diffop": (lambda v: random_diffop(RandomSpec(seed=1), v),
                      "derivative order bound must be non-negative"),
    "random_op_list": (lambda v: random_op_list(RandomSpec(seed=1), v),
                       "operator count m must be non-negative"),
    "random_invertible_series": (lambda v: random_invertible_series(RandomSpec(seed=1), v),
                                 "an invertible series needs order >= 1"),
}


# each was read as an int (True as 1, 2.0 as 2), or leaked a TypeError or struct.error
@pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize("site", list(INTEGER_ARGUMENTS))
def test_an_integer_argument_refuses_a_bool_and_a_float(site, bad):
    call, contract = INTEGER_ARGUMENTS[site]
    with pytest.raises(ValueError, match=re.escape(f"{contract}, got {bad!r}")):
        call(bad)


class TestSetPartitions:
    def test_m3_matches_known_list(self):
        rendered = {str(p) for p in set_partitions(3)}
        assert rendered == {"1-2-3", "12-3", "13-2", "1-23", "123"}

    def test_m1(self):
        assert [p.blocks for p in set_partitions(1)] == [((1,),)]

    def test_counts_match_bell_oracle(self):
        assert len(set_partitions(5)) == 52
        for m in range(1, 7):
            assert len(set_partitions(m)) == bell_oracle(m)

    def test_enumeration_is_duplicate_free_and_valid(self):
        parts = set_partitions(4)
        assert len(set(parts)) == len(parts)
        for p in parts:
            flat = sorted(e for block in p.blocks for e in block)
            assert flat == list(range(1, 5))
            mins = [block[0] for block in p.blocks]
            assert mins == sorted(mins)

    def test_signature_counts_match_class_counts(self):
        for m in range(1, 6):
            counts = Counter(p.signature() for p in set_partitions(m))
            for signature, count in counts.items():
                assert count == partition_class_count(signature)

    def test_unchecked_results_equal_checked_ones(self, monkeypatch):
        # set_partitions builds valid canonical blocks, so it skips the constructor's checks;
        # each result is still exactly what the checked constructor makes of its blocks
        results = {m: set_partitions(m) for m in range(1, 8)}
        for m, parts in results.items():
            for p in parts:
                assert p == SetPartition(m, p.blocks)
                assert type(p.blocks) is tuple and all(type(b) is tuple for b in p.blocks)

        def refuse(*args):
            raise AssertionError("set_partitions ran SetPartition's checks")

        monkeypatch.setattr(SetPartition, "_canonical", refuse)
        assert set_partitions(5) == results[5]
        with pytest.raises(AssertionError, match="ran SetPartition's checks"):
            SetPartition(1, ((1,),))

    def test_cap_and_domain(self):
        with pytest.raises(ValueError):
            set_partitions(0)
        with pytest.raises(ValueError):
            set_partitions(13)

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError, match="do not cover"):
            SetPartition(3, ((1, 2),))  # misses 3
        with pytest.raises(ValueError, match="not disjoint"):
            SetPartition(3, ((1, 2), (2, 3)))  # overlap
        for blocks in [((), (1, 2, 3)), ((1, 2, 3), ())]:
            with pytest.raises(ValueError, match="empty block"):
                SetPartition(3, blocks)
        with pytest.raises(ValueError, match="repeats an element"):
            SetPartition(2, ((1, 1), (2,)))
        # a float or bool label would render as 1.0 or True and compare equal to 1
        for blocks in [((1.0,), (2,)), ((True,), (2,)), (("1",), (2,)), ((1,), (2, 2.0))]:
            with pytest.raises(ValueError, match="indices must be integers"):
                SetPartition(2, blocks)
        # the ground set is 1..m for an int m >= 1, as set_partitions demands
        for m, blocks in [(True, ((1,),)), (2.0, ((1,), (2,))), (0, ()), (-1, ())]:
            with pytest.raises(ValueError, match="ground set size must be a positive integer"):
                SetPartition(m, blocks)
        with pytest.raises(ValueError, match="indices must be an iterable of labels"):
            SetPartition(2, ((1,), 2))
        with pytest.raises(ValueError, match="partition must be an iterable of blocks"):
            SetPartition(2, 5)

    def test_rendering(self):
        assert str(SetPartition(3, ((2,), (1, 3)))) == "13-2"
        # elements get comma-separated once two-digit labels appear
        wide = SetPartition(10, (tuple(range(1, 10)), (10,)))
        assert str(wide) == "1,2,3,4,5,6,7,8,9-10"


class TestRecordTypes:
    def test_partitions_compare_and_hash_by_value(self):
        p = SetPartition(3, ((3, 2), (1,)))
        assert p == SetPartition(3, [[1], [2, 3]])
        assert hash(p) == hash(SetPartition(3, ((1,), (2, 3))))
        assert p != SetPartition(3, ((1, 2), (3,))) and p != "1-23"
        assert len(set(set_partitions(5))) == 52
        q = IntPartition(4, [2, 1, 0, 0])
        assert q == IntPartition(4, (2, 1, 0, 0))
        assert hash(q) == hash(IntPartition(4, (2, 1, 0, 0)))
        assert q != IntPartition(4, (0, 2, 0, 0)) and q != (2, 1, 0, 0)
        assert len(set(integer_partitions(8))) == 22

    @pytest.mark.parametrize(
        "record, field",
        [(SetPartition(2, ((1, 2),)), "blocks"), (IntPartition(2, (0, 1)), "multiplicities")],
    )
    def test_partitions_are_immutable(self, record, field):
        for change in (lambda: setattr(record, field, ()), lambda: setattr(record, "m", 3),
                       lambda: delattr(record, field), lambda: setattr(record, "extra", 1)):
            with pytest.raises(AttributeError, match="cannot assign to field"):
                change()
        assert record.m == 2 and getattr(record, field)

    def test_bell_polynomials_compare_by_value(self):
        assert BellPoly(3).terms == {} and BellPoly(3).terms is not BellPoly(3).terms
        four = bell_polynomial(4)
        assert len(four.terms) == 5
        assert four == BellPoly(4, dict(four.terms)) and four != bell_polynomial(3)
        assert four != BellPoly(4, {**four.terms, IntPartition(4, (0, 0, 0, 1)): 2})
        with pytest.raises(TypeError):
            hash(four)


class TestPartitionOperator:
    """The bullet product over a partition's blocks validates them as a SetPartition."""

    @staticmethod
    def ops():
        x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        return [
            DiffOp.vector_field([x2, MultiPoly.const(2, 1)]),
            DiffOp.vector_field([x1 * x2, x1]),
            DiffOp.vector_field([MultiPoly.const(2, 2), x2 * x2]),
        ]

    @pytest.mark.parametrize(
        "partition, match",
        [
            ([{1, 2}], "do not cover"),  # misses 3
            ([{1, 2}, {2, 3}], "not disjoint"),  # overlap
            ([set(), {1, 2, 3}], "empty block"),
            ([{1, 2, 3}, {4}], "do not cover"),  # element outside 1..3
            (SetPartition(2, ((1, 2),)), "do not cover"),  # partition of the wrong ground set
            (SetPartition(4, ((1, 2), (3, 4))), "do not cover"),
            ([(1, 1), (2,), (3,)], "repeats an element"),  # repeated element inside a block
            ([(1.0,), (2,), (3,)], "indices must be integers"),
            ([{1, 2}, 3], "indices must be an iterable of labels"),  # a bare label as a block
            (5, "partition must be an iterable of blocks"),
        ],
        ids=[f"partition{i}" for i in range(10)],  # the ids of the one-parameter form
    )
    def test_invalid_partition_rejected(self, partition, match):
        with pytest.raises(ValueError, match=match):
            partition_operator(self.ops(), partition)


class TestPartitionSum:
    """The subset recursion equals the paper's sum over every set partition."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_equals_the_sum_over_set_partitions(self, m, seed):
        ops = random_op_list(RandomSpec(seed=seed), m)
        terms = [partition_operator(ops, part) for part in set_partitions(m)]
        expected = reduce(DiffOp.__add__, terms)
        assert _partition_sum(ops, tuple(range(1, m + 1)), {}, {}) == expected


class TestIntegerPartitions:
    def test_m3(self):
        mults = {p.multiplicities for p in integer_partitions(3)}
        assert mults == {(3, 0, 0), (1, 1, 0), (0, 0, 1)}

    def test_m1(self):
        assert [p.multiplicities for p in integer_partitions(1)] == [(1,)]

    def test_count_matches_oracle(self):
        assert len(integer_partitions(6)) == 11
        for m in range(1, 10):
            assert len(integer_partitions(m)) == partition_count_oracle(m)

    def test_weights_sum_to_m(self):
        for p in integer_partitions(7):
            assert sum((i + 1) * l for i, l in enumerate(p.multiplicities)) == 7
            assert p.length == sum(p.multiplicities)

    def test_cap_refused_before_enumerating(self):
        assert len(integer_partitions(40)) == 37338
        with pytest.raises(ValueError, match="integer partitions capped at m <= 40, got 41"):
            integer_partitions(41)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: IntPartition(2, 5), id="IntPartition"),
        pytest.param(lambda: partition_class_count(5), id="partition_class_count"),
    ])
    def test_a_non_sequence_of_multiplicities_is_refused_by_its_contract(self, call):
        # iterating 5 would leak Python's "'int' object is not iterable"
        with pytest.raises(ValueError, match=re.escape(
                "multiplicities must be a sequence of counts l_1, l_2, ..., got 5")):
            call()

    def test_inconsistent_multiplicities_rejected(self):
        with pytest.raises(ValueError):
            IntPartition(3, (1, 1, 1))

    def test_rendering(self):
        assert str(IntPartition(4, (2, 1, 0, 0))) == "1^2 2^1"
        # a Bell term with a count and an exponent
        assert str(BellPoly(4, {IntPartition(4, (2, 1, 0, 0)): 6})) == "6*x1^2*x2"
        assert str(BellPoly(6, {IntPartition(6, (0, 3, 0, 0, 0, 0)): 15})) == "15*x2^3"


class TestClassCounts:
    def test_known_values(self):
        assert partition_class_count((1, 1, 0)) == 3  # blocks of sizes 1+2 in [3]
        assert partition_class_count((3, 0, 0)) == 1
        assert partition_class_count((0, 2, 0, 0)) == 3  # two pairs in [4]

    def test_sum_over_signatures_is_bell(self):
        for m in range(1, 8):
            total = sum(partition_class_count(p) for p in integer_partitions(m))
            assert total == bell_oracle(m)


class TestBellPolynomial:
    def test_degree_three(self):
        poly = bell_polynomial(3)
        assert str(poly) == "x1^3 + 3*x1*x2 + x3"
        assert poly.terms == {
            IntPartition(3, (3, 0, 0)): 1,
            IntPartition(3, (1, 1, 0)): 3,
            IntPartition(3, (0, 0, 1)): 1,
        }

    def test_degree_one(self):
        assert str(bell_polynomial(1)) == "x1"

    def test_degree_four(self):
        poly = bell_polynomial(4)
        assert str(poly) == "x1^4 + 6*x1^2*x2 + 4*x1*x3 + 3*x2^2 + x4"
        assert sorted(poly.terms.values(), reverse=True) == [6, 4, 3, 1, 1]

    def test_coefficient_sum_is_bell(self):
        for m in range(1, 8):
            assert bell_polynomial(m).coefficient_sum() == bell_oracle(m)

    def test_touchard_identity(self):
        # substituting the same value for every x_i groups terms by part count
        for m in range(1, 9):
            by_length = Counter()
            for part, count in bell_polynomial(m).terms.items():
                by_length[part.length] += count
            expected = {k: stirling2(m, k) for k in range(m + 1) if stirling2(m, k)}
            assert dict(by_length) == expected


class TestStirling:
    def test_matches_inclusion_exclusion(self):
        # the oracle counts surjections, so it also vanishes for k > m
        for m in range(9):
            for k in range(9):
                assert stirling2(m, k) == stirling_oracle(m, k)

    def test_known_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert all(stirling2(m, m) == 1 for m in range(7))

    def test_out_of_range(self):
        assert stirling2(2, 3) == 0
        assert stirling2(-1, 0) == 0
        assert stirling2(3, -1) == 0

    def test_row_sums_are_bell(self):
        for m in range(1, 9):
            assert sum(stirling2(m, k) for k in range(m + 1)) == bell_oracle(m)


class TestBellEvalBullet:
    def xd(self):
        return DiffOp.single(MultiPoly.variable(1, 0), (1,))

    def generic_field(self):
        u = MultiPoly(2, {(1, 0): 1, (0, 1): 2})
        v = MultiPoly(2, {(0, 0): -1, (2, 0): 1})
        return DiffOp.vector_field([u, v])

    def test_degree_zero_and_one(self):
        field = self.generic_field()
        assert bell_eval_bullet(0, field) == unit_op(2)
        assert bell_eval_bullet(1, field) == field

    def test_degree_two_xd(self):
        expected = DiffOp(1, {(2,): MultiPoly(1, {(2,): 1}), (1,): MultiPoly.variable(1, 0)})
        assert bell_eval_bullet(2, self.xd()) == expected

    def test_degree_three_structure(self):
        field = self.generic_field()
        squared = field.diamond(field)
        expected = (
            field.bullet(field).bullet(field)
            + 3 * field.bullet(field.circ(field))
            + squared.circ(field)
        )
        assert bell_eval_bullet(3, field) == expected

    def test_rejects_higher_order(self):
        with pytest.raises(ValueError):
            bell_eval_bullet(2, DiffOp(1, {(2,): MultiPoly.const(1, 1)}))

    def test_monomials_start_from_a_generator(self, monkeypatch):
        # the unit is the bullet identity, so a product with it is wasted work
        unit, bullet = unit_op(2), DiffOp.bullet

        def guarded(x, y):
            assert unit not in (x, y)
            return bullet(x, y)

        monkeypatch.setattr(DiffOp, "bullet", guarded)
        field = self.generic_field()
        assert bell_eval_bullet(4, field) == power_diamond(field, 4)

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_generators_are_white_products_alone(self, monkeypatch, m):
        # G_1 = op and G_i = op o G_(i-1): m - 1 circs and no diamond power
        calls = Counter()
        for name in ("diamond", "circ"):
            original = getattr(DiffOp, name)

            def counted(x, y, name=name, original=original):
                calls[name] += 1
                return original(x, y)

            monkeypatch.setattr(DiffOp, name, counted)
        field = self.generic_field()
        result = bell_eval_bullet(m, field)
        assert (calls["diamond"], calls["circ"]) == (0, m - 1)
        monkeypatch.undo()
        assert result == power_diamond(field, m)

    @pytest.mark.parametrize("m, formed", [(8, 52), (12, 255)])
    def test_monomials_reuse_the_previous_prefix(self, monkeypatch, m, formed):
        # 1^m, 2 1^(m-2), ... share their leading factors with the monomial before them,
        # so fewer bullets are formed than the one chain per monomial the bound counts
        calls, bullet = [], DiffOp.bullet

        def counted(x, y):
            calls.append(1)
            return bullet(x, y)

        monkeypatch.setattr(DiffOp, "bullet", counted)
        result = bell_eval_bullet(m, self.xd())
        assert len(calls) == formed < sum(p.length - 1 for p in integer_partitions(m))
        monkeypatch.setattr(DiffOp, "bullet", bullet)
        assert result == power_diamond(self.xd(), m)

    @pytest.mark.parametrize(
        "m, bullets, admitted", [(12, 322, True), (16, 1232, True), (17, 1668, False),
                                 (20, 4003, False)]
    )
    def test_predicted_bullets_bound_the_degree(self, monkeypatch, m, bullets, admitted):
        # one chain of parts - 1 bullets per integer partition; a refused degree forms
        # no product at all, an admitted one gets as far as its first product
        assert sum(p.length - 1 for p in integer_partitions(m)) == bullets
        assert (bullets <= MAX_BELL_BULLETS) == admitted

        class FirstProduct(Exception):
            pass

        def first_product(x, y):
            raise FirstProduct

        for name in ("diamond", "circ", "bullet"):
            monkeypatch.setattr(DiffOp, name, first_product)
        field = random_vector_field(RandomSpec(seed=2))
        if admitted:
            with pytest.raises(FirstProduct):
                bell_eval_bullet(m, field)
        else:
            with pytest.raises(ValueError, match=f"needs {bullets} bullet products"):
                bell_eval_bullet(m, field)
