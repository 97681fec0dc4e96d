"""Behaviour of the identity-verification suites and their reports."""

import inspect
import json
import operator
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from opseries import (
    DiffOp,
    EgfSeries,
    IntPartition,
    MultiPoly,
    RandomSpec,
    VerifyReport,
    bell_eval_bullet,
    classical_inverse,
    egf_to_ogf,
    ogf_to_egf,
    operator_inverse,
    partition_class_count,
    power_diamond,
    random_diffop,
    random_invertible_series,
    random_op_list,
    random_vector_field,
    run_suite,
    unit_op,
    verify_bell_power,
    verify_composition_split,
    verify_exp_identity,
    verify_exp_identity_xd,
    verify_inversion,
    verify_partition_expansion,
    verify_product_identities,
    verify_stirling_power,
)
import opseries
import opseries.combinat as combinat_module
import opseries.series as series_module
import opseries.verify as verify_module
from opseries.cli import main
from opseries.combinat import stirling2
from opseries.verify import SUITES, _index_at, _report, _trial_seed
from test_series import TAKES_INVERTIBLE


def forbid_unit_operands(monkeypatch, n):
    # the unit is an identity for diamond and bullet and a left identity for
    # circ, so a product that takes it as an operand is wasted work
    unit = unit_op(n)
    for name in ("diamond", "circ", "bullet"):
        original = getattr(DiffOp, name)

        def guarded(x, y, original=original):
            assert unit not in (x, y)
            return original(x, y)

        monkeypatch.setattr(DiffOp, name, guarded)


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


INVERTIBLE = EgfSeries([0] + [1] * 9)  # valid to order 9: enough for order-8 inverses


class TestChecksRunOnce:
    """Each contract is checked once per entry point; a caller trusts its callee's check."""

    @pytest.mark.parametrize("entry", list(TAKES_INVERTIBLE))
    def test_entry_point_checks_invertibility_once(self, monkeypatch, entry):
        calls = count_calls(monkeypatch, series_module, "_as_invertible")
        TAKES_INVERTIBLE[entry](INVERTIBLE, 8)
        # verify_inversion leaves the check to each of the four methods it calls
        assert len(calls) == (4 if entry == "verify_inversion" else 1)

    @pytest.mark.parametrize("method,expected", [("log", 2), ("all", 5)])
    def test_cli_invert_checks_once_per_call(self, monkeypatch, method, expected):
        # the log method and the printed c terms each call log_form_terms
        calls = count_calls(monkeypatch, series_module, "_as_invertible")
        coeffs = ",".join(map(str, INVERTIBLE.coeffs))
        assert main(["invert", "--method", method, "--order", "8", "--coeffs", coeffs]) == 0
        assert len(calls) == expected

    def test_bell_power_checks_first_order_once(self, monkeypatch):
        calls = count_calls(monkeypatch, DiffOp, "is_first_order")
        assert verify_bell_power(random_vector_field(RandomSpec(seed=2)), 4).passed
        assert len(calls) == 1

    def test_bell_power_refuses_before_any_product(self, monkeypatch):
        for name in ("diamond", "circ", "bullet"):
            monkeypatch.setattr(DiffOp, name, lambda x, y: pytest.fail("product formed"))
        second_order = DiffOp(1, {(2,): MultiPoly.const(1, 1)})
        with pytest.raises(ValueError, match="operator must be first order"):
            verify_bell_power(second_order, 4)
        with pytest.raises(ValueError, match="integer partitions capped at m <= 40"):
            verify_bell_power(random_vector_field(RandomSpec(seed=2)), 41)


class TestOneTriangularSolve:
    """reciprocal and both logarithms divide through one private solve, series._quotient."""

    @pytest.mark.parametrize(
        "divide",
        [
            lambda: EgfSeries([2, 1, -1, 3]).reciprocal(),
            lambda: EgfSeries([1, 1, -1, 3]).ln(),
            lambda: verify_exp_identity(random_vector_field(RandomSpec(seed=9)), 4),
        ],
        ids=["reciprocal", "ln", "exp_identity"],
    )
    def test_each_division_solves_once(self, monkeypatch, divide):
        calls = count_calls(monkeypatch, series_module, "_quotient")
        # verify imported the solve by name: point its reference at the counter too
        monkeypatch.setattr(verify_module, "_quotient", series_module._quotient)
        divide()
        assert len(calls) == 1


class TestRandomGenerators:
    def test_vector_field_deterministic(self):
        spec = RandomSpec(seed=11)
        assert random_vector_field(spec) == random_vector_field(spec)

    def test_vector_field_is_first_order(self):
        for seed in range(10):
            field = random_vector_field(RandomSpec(seed=seed))
            assert field.is_first_order()

    def test_degree_bound_respected(self):
        for seed in range(10):
            field = random_vector_field(RandomSpec(seed=seed, max_degree=2))
            for _, coeff in field.items():
                assert coeff.total_degree() <= 2

    def test_degree_zero_gives_constant_fields(self):
        field = random_vector_field(RandomSpec(seed=3, max_degree=0))
        for _, coeff in field.items():
            assert coeff.total_degree() <= 0

    def test_op_list_deterministic(self):
        spec = RandomSpec(seed=5)
        assert random_op_list(spec, 4) == random_op_list(spec, 4)

    def test_index_at_unranks_the_old_table_in_order(self):
        # rng.sample draws ranks, so the order is part of the contract: the reference is the
        # table the generators sampled before, which is also the filtered product
        for n in range(1, 6):
            for bound in range(5):
                table = [tuple(map(operator.sub, d, (0, *d[:-1])))
                         for d in combinations_with_replacement(range(bound + 1), n)]
                assert table == [t for t in product(range(bound + 1), repeat=n) if sum(t) <= bound]
                assert [_index_at(n, bound, r) for r in range(len(table))] == table

    def test_index_at_does_not_enumerate_the_full_product(self):
        # filtering product(range(3), repeat=20) would visit 3^20 tuples, and the table of
        # C(24, 12) = 2,704,156 tuples at n = degree = 12 is never built
        assert _index_at(20, 2, 0) == (0,) * 20
        assert _index_at(20, 2, 230) == (2,) + (0,) * 19
        assert _index_at(12, 12, comb(24, 12) - 1) == (12,) + (0,) * 11
        assert _index_at(12, 12, 1) == (0,) * 11 + (1,)

    def test_a_diffop_of_order_zero_has_one_term_to_draw(self):
        # one derivative index, d^0, so one is drawn: the count is capped at the population
        for seed in range(8):
            assert random_diffop(RandomSpec(seed=seed), 0).orders() <= {0}

    def test_spec_has_only_the_knobs_the_generators_read(self):
        assert RandomSpec.__slots__ == ("seed", "n", "max_degree")

    def test_spec_compares_and_hashes_by_value_and_is_immutable(self):
        spec = RandomSpec(7)
        assert (spec.seed, spec.n, spec.max_degree) == (7, 2, 2)
        assert spec == RandomSpec(seed=7, n=2, max_degree=2)
        assert hash(spec) == hash(RandomSpec(7, 2, 2))
        assert spec not in {RandomSpec(8), RandomSpec(7, 3), RandomSpec(7, max_degree=1)}
        with pytest.raises(AttributeError, match="cannot assign to field 'seed'"):
            spec.seed = 8
        with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
            del spec.n

    def test_report_takes_its_fields_in_order(self):
        report = VerifyReport("t", "d", "l", "r", True)
        assert report.elapsed == 0.0
        assert VerifyReport("t", "d", "l", "r", False, elapsed=1.5).elapsed == 1.5
        assert VerifyReport("t", "d", "l", "r", False, elapsed=2).elapsed == 2
        assert report.as_dict() == {
            "theorem": "t", "description": "d", "left": "l", "right": "r", "passed": True}

    @pytest.mark.parametrize("fields, error, message", [
        (("t", "d", 5, "r", True), TypeError, "a report's left must be a str, got int$"),
        ((None, "d", "l", "r", True), TypeError, "a report's theorem must be a str, got NoneType"),
        (("t", "d", "l", "r", 1), TypeError, "a report's verdict must be a bool, got int$"),
        *[(("t", "d", "l", "r", True, elapsed), ValueError, "elapsed time must be seconds >= 0")
          for elapsed in (-0.5, float("nan"), True)],
    ])
    def test_report_refuses_a_wrong_field_in_the_package_words(self, fields, error, message):
        with pytest.raises(error, match=message):
            VerifyReport(*fields)

    def test_invertible_series_shape(self):
        for seed in range(10):
            f = random_invertible_series(RandomSpec(seed=seed), 9)
            assert f.order == 9
            assert f[0] == 0 and f[1] != 0


class TestIdentitiesOnSpecialOperators:
    def test_unconditional_identities_trivial_on_unit(self):
        e = unit_op(2)
        assert e.diamond(e.diamond(e)) == e.diamond(e).diamond(e)
        assert e.bullet(e.bullet(e)) == e.bullet(e).bullet(e)
        assert e.bullet(e) == e.bullet(e)

    def test_zero_operator_admissible_in_conditioned_identities(self):
        # zero is vacuously first order, so it may stand in the X slot
        zero = DiffOp.zero(2)
        e = unit_op(2)
        assert zero.circ(e.circ(e)) - zero.circ(e).circ(e) == zero.bullet(e).circ(e)
        lhs = zero.circ(e.bullet(e))
        rhs = zero.circ(e).bullet(e) + e.bullet(zero.circ(e))
        assert lhs == rhs

    def test_fixed_mixed_order_instance(self):
        u = random_vector_field(RandomSpec(seed=2))
        y = DiffOp.single(MultiPoly.variable(2, 0), (2, 0))  # x1 d1^2
        z = DiffOp.single(MultiPoly.variable(2, 1), (0, 1))  # x2 d2
        assoc = u.circ(y.circ(z)) - u.circ(y).circ(z)
        assert assoc == u.bullet(y).circ(z)


class TestSuites:
    def test_product_identities_pass(self):
        reports = verify_product_identities(RandomSpec(seed=7), trials=20)
        assert len(reports) == 120
        assert all(r.passed for r in reports)

    def test_composition_split_passes(self):
        reports = verify_composition_split(RandomSpec(seed=8), trials=20)
        assert all(r.passed for r in reports)

    def test_partition_expansion_m1(self):
        ops = random_op_list(RandomSpec(seed=1), 1)
        report = verify_partition_expansion(ops)
        assert report.passed
        assert "summands=1" in report.description

    def test_partition_expansion_m3(self):
        ops = random_op_list(RandomSpec(seed=9), 3)
        report = verify_partition_expansion(ops)
        assert report.passed
        assert "summands=5" in report.description

    def test_partition_expansion_refuses_m13_before_any_product(self, monkeypatch):
        def refuse(x, y):
            raise AssertionError("a diamond ran before the size cap was checked")

        monkeypatch.setattr(DiffOp, "diamond", refuse)
        ops = random_op_list(RandomSpec(seed=1), 13)
        with pytest.raises(ValueError, match="m <= 12"):
            verify_partition_expansion(ops)

    def test_partition_expansion_multiplies_no_unit(self, monkeypatch):
        # singleton blocks are the operators themselves
        forbid_unit_operands(monkeypatch, 2)
        assert verify_partition_expansion(random_op_list(RandomSpec(seed=9), 4)).passed

    @pytest.mark.parametrize(
        "check",
        [
            lambda op: bell_eval_bullet(5, op) == power_diamond(op, 5),
            lambda op: verify_exp_identity(op, 4).passed,
            lambda op: power_diamond(op, 3) == op.diamond(op).diamond(op),
        ],
        ids=["bell_eval_bullet", "exp_identity", "power_diamond"],
    )
    def test_no_product_takes_a_unit_operand(self, monkeypatch, check):
        op = random_vector_field(RandomSpec(seed=9))
        forbid_unit_operands(monkeypatch, 2)
        assert check(op)

    def test_classical_inverse_forms_no_series_product_and_one_reciprocal(self, monkeypatch):
        # Miller's recurrence forms the powers of x/f over integers: the one series
        # operation is the reciprocal of f/x
        calls = {name: count_calls(monkeypatch, EgfSeries, name)
                 for name in ("__mul__", "__rmul__", "compose", "exp", "ln", "reciprocal")}
        assert classical_inverse(EgfSeries([0, 2, -1, 1, 0, 3, 1]), 5)[1] == Fraction(1, 2)
        assert {name: len(c) for name, c in calls.items() if c} == {"reciprocal": 1}

    def test_operator_inverse_forms_no_series_product_and_one_reciprocal(self, monkeypatch):
        # the iterates run over integer numerators: the one series operation is 1/f',
        # and the log form's _iterates is never called, so the two forms share no iterate
        calls = {name: count_calls(monkeypatch, EgfSeries, name)
                 for name in ("__mul__", "__rmul__", "compose", "exp", "ln", "reciprocal")}
        iterates = count_calls(monkeypatch, series_module, "_iterates")
        assert operator_inverse(EgfSeries([0, 2, -1, 1, 0, 3, 1]), 5)[1] == Fraction(1, 2)
        assert {name: len(c) for name, c in calls.items() if c} == {"reciprocal": 1}
        assert iterates == []

    @pytest.mark.parametrize(
        "check", [lambda: verify_exp_identity_xd(5).passed], ids=["exp_identity_xd"],
    )
    def test_no_series_product_takes_a_unit_operand(self, monkeypatch, check):
        original = EgfSeries.__mul__

        def guarded(x, y):
            for s in (x, y):
                assert not isinstance(s, EgfSeries) or s != EgfSeries.one(s.order)
            return original(x, y)

        monkeypatch.setattr(EgfSeries, "__mul__", guarded)
        assert check()

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_power_sequences_form_no_power_past_the_last(self, monkeypatch, m):
        # the m-th power costs m - 1 products, and nothing forms the (m+1)-th
        diamonds = count_calls(monkeypatch, DiffOp, "diamond")
        power_diamond(random_vector_field(RandomSpec(seed=9)), m)
        assert len(diamonds) == m - 1
        products = count_calls(monkeypatch, EgfSeries, "__mul__")
        # forms (x/f)^1 .. (x/f)^m over integers by Miller's recurrence, no series product
        classical_inverse(EgfSeries([0, 2, -1, 1, 0, 3, 1]), m)
        assert len(products) == 0
        verify_exp_identity_xd(m)  # reads (e^z - 1)^0 .. (e^z - 1)^m
        assert len(products) == m - 1

    @pytest.mark.parametrize("m, diamonds, circs", [(5, 4, 26), (6, 5, 57)])
    def test_partition_expansion_composes_only_the_chains_it_reads(
        self, monkeypatch, m, diamonds, circs
    ):
        # the left side's chain alone takes diamonds, m - 1 of them; the blocks are
        # white products alone, one circ per block of two or more indices, 2^m - m - 1
        calls = Counter()
        for name in ("diamond", "circ"):
            original = getattr(DiffOp, name)

            def counted(x, y, name=name, original=original):
                calls[name] += 1
                return original(x, y)

            monkeypatch.setattr(DiffOp, name, counted)
        assert verify_partition_expansion(random_op_list(RandomSpec(seed=9), m)).passed
        assert calls == {"diamond": diamonds, "circ": circs}

    @pytest.mark.parametrize("m, products", [(5, 40), (6, 121)])
    def test_partition_expansion_sums_by_the_subset_recursion(self, monkeypatch, m, products):
        # (3^(m-1) - 1)/2 products (one bullet chain per set partition would take 99 and 471).
        # The summed subsets are 1..m and the non-empty subsets of 2..m; each of two or more
        # labels streams its products into one private sum and adds block(S) to it with
        # one +, 2^(m-1) - (m-1) in all (a running total took one + per product). Only the
        # C(m-1, 2) two-label subsets form their one product as a bullet; every other
        # product reaches the sum as a (block, sub-sum) pair and forms no operator
        calls = Counter()
        for name in ("bullet", "__add__"):
            original = getattr(DiffOp, name)

            def counted(x, y, name=name, original=original):
                calls[name] += 1
                return original(x, y)

            monkeypatch.setattr(DiffOp, name, counted)

        def counted_sum(n, addends, original=combinat_module._sum):
            def counting():
                for addend in addends:
                    calls["pair"] += isinstance(addend, tuple)
                    yield addend
            return original(n, counting())

        monkeypatch.setattr(combinat_module, "_sum", counted_sum)
        assert verify_partition_expansion(random_op_list(RandomSpec(seed=9), m)).passed
        sums = {5: 12, 6: 27}[m]
        assert products == (3 ** (m - 1) - 1) // 2 and sums == 2 ** (m - 1) - (m - 1)
        assert calls == {"bullet": comb(m - 1, 2), "pair": products - comb(m - 1, 2),
                         "__add__": sums}

    def test_partition_expansion_rejects_higher_order(self):
        bad = DiffOp(2, {(1, 1): MultiPoly.const(2, 1)})
        with pytest.raises(ValueError):
            verify_partition_expansion([bad])

    def test_bell_power(self):
        field = random_vector_field(RandomSpec(seed=4))
        for m in range(5):
            assert verify_bell_power(field, m).passed

    def test_stirling_power(self):
        for m in range(1, 7):
            report = verify_stirling_power(m)
            assert report.passed
        with pytest.raises(ValueError):
            verify_stirling_power(11)

    def test_exp_identity(self):
        field = random_vector_field(RandomSpec(seed=6))
        assert verify_exp_identity(field, 3).passed
        assert verify_exp_identity_xd(4).passed

    def test_exp_identity_zero_order_trivial(self):
        field = random_vector_field(RandomSpec(seed=6))
        report = verify_exp_identity(field, 0)
        assert report.passed
        assert report.left == "z^0: 1\nln z^0: 0"

    def test_inversion(self):
        report = verify_inversion(random_invertible_series(RandomSpec(seed=10), 7), 6)
        assert report.passed
        assert verify_inversion(EgfSeries([0] + [1] * 8), 6).passed

    def test_inversion_rejects_degenerate(self):
        with pytest.raises(ValueError):
            verify_inversion(EgfSeries([0, 0, 1, 1, 1, 1, 1, 1]), 6)


class TestReports:
    def test_pass_iff_renderings_match(self):
        reports = verify_product_identities(RandomSpec(seed=12), trials=3)
        for r in reports:
            assert r.passed == (r.left == r.right)

    def test_verdict_is_structural_not_rendered(self):
        # both series render as "x", but the padded one is valid to a higher order
        short, padded = EgfSeries([0, 1]), EgfSeries([0, 1, 0, 0])
        report = _report("t", "", short, padded, 0.0)
        assert report.left == report.right == "x"
        assert report.passed is False

    def test_labelled_sides_render_one_line_per_label(self):
        left = [("a", EgfSeries([0, 1])), ("b", unit_op(1))]
        right = [("a", EgfSeries([0, 1, 0])), ("b", unit_op(1))]
        assert _report("t", "", left, right, 0.0).left == "a: x\nb: 1"
        assert _report("t", "", left, right, 0.0).passed is False
        assert _report("t", "", left, list(left), 0.0).passed is True

    def test_passing_report_renders_one_side(self, monkeypatch):
        # equal sides render equal, so the right side is rendered only on failure
        rendered = []

        def counted(side, original=verify_module._render):
            rendered.append(side)
            return original(side)

        monkeypatch.setattr(verify_module, "_render", counted)
        report = verify_partition_expansion(random_op_list(RandomSpec(seed=9), 4))
        assert report.passed and report.left == report.right
        assert len(rendered) == 1

    def test_reports_reproducible(self):
        first = [r.as_dict() for r in verify_product_identities(RandomSpec(seed=13), 5)]
        second = [r.as_dict() for r in verify_product_identities(RandomSpec(seed=13), 5)]
        assert first == second

    def test_as_dict_is_json_ready(self):
        report = verify_stirling_power(3)
        payload = json.dumps(report.as_dict())
        assert json.loads(payload)["theorem"] == "stirling"
        assert "elapsed" not in report.as_dict()
        assert report.elapsed >= 0


def differing_labels(report):
    # the labels whose rendered values differ between the two sides of a labelled report
    left, right = (dict(line.split(": ", 1) for line in side.splitlines())
                   for side in (report.left, report.right))
    return {label for label in left if left[label] != right[label]}


class TestCheckersCanFail:
    """Each checker reports a failure once one ingredient of one side is broken."""

    def test_associator_symmetry(self, monkeypatch):
        original = verify_module._associator
        # adding x o z makes the associator depend on the order of x and y
        monkeypatch.setattr(verify_module, "_associator",
                            lambda x, y, z: original(x, y, z) + x.circ(z))
        reports = {r.theorem: r for r in verify_product_identities(RandomSpec(seed=1), 1)}
        assert reports["prop1.associator_symmetry"].passed is False

    @staticmethod
    def prop1_passed(label):
        reports = {r.theorem: r for r in verify_product_identities(RandomSpec(seed=1), 1)}
        return reports[label].passed

    # X * Y + X is neither associative nor commutative: the two sides of an associativity
    # label differ by a * c, those of prop1.bullet_comm by a - b
    @pytest.mark.parametrize("product, label", [("diamond", "prop1.diamond_assoc"),
                                                ("bullet", "prop1.bullet_assoc"),
                                                ("bullet", "prop1.bullet_comm")])
    def test_product_laws(self, monkeypatch, product, label):
        original = getattr(DiffOp, product)
        monkeypatch.setattr(DiffOp, product, lambda x, y: original(x, y) + x)
        assert self.prop1_passed(label) is False

    def test_associator(self, monkeypatch):
        original = verify_module._associator
        # the left side alone gains its first operand
        monkeypatch.setattr(verify_module, "_associator",
                            lambda x, y, z: original(x, y, z) + x)
        assert self.prop1_passed("prop1.associator") is False

    def test_leibniz(self, monkeypatch):
        original = DiffOp.circ
        # X o Y + Y: the left side gains b . c once, the right side gains it twice
        monkeypatch.setattr(DiffOp, "circ", lambda x, y: original(x, y) + y)
        assert self.prop1_passed("prop1.leibniz") is False

    def test_product_split(self, monkeypatch):
        original = DiffOp.bullet
        monkeypatch.setattr(DiffOp, "bullet", lambda x, y: original(x, y) + x)
        reports = {r.theorem: r for r in verify_composition_split(RandomSpec(seed=1), 1)}
        assert reports["corollary.product_split"].passed is False

    def test_compose_shift(self, monkeypatch):
        original = DiffOp.diamond
        # X <> Y + X . Y on the right side; its left side takes no diamond
        monkeypatch.setattr(DiffOp, "diamond", lambda x, y: original(x, y) + x.bullet(y))
        reports = {r.theorem: r for r in verify_composition_split(RandomSpec(seed=1), 1)}
        assert reports["corollary.compose_shift"].passed is False

    def test_partition_expansion(self, monkeypatch):
        original = DiffOp.circ
        # every block of two or more labels becomes X <> Y; the left side takes no circ
        monkeypatch.setattr(DiffOp, "circ", lambda x, y: original(x, y) + x.bullet(y))
        assert verify_partition_expansion(random_op_list(RandomSpec(seed=1), 3)).passed is False

    def test_bell_power(self, monkeypatch):
        original = verify_module.bell_eval_bullet
        monkeypatch.setattr(verify_module, "bell_eval_bullet",
                            lambda m, op: original(m, op) + unit_op(op.n))
        assert verify_bell_power(random_vector_field(RandomSpec(seed=1)), 4).passed is False

    def test_exp_side_of_the_exp_identity(self, monkeypatch):
        original = verify_module._exp_recurrence

        def perturbed(coeffs, mul, one):
            out = original(coeffs, mul, one)
            return out[:-1] + [out[-1] + one]

        monkeypatch.setattr(verify_module, "_exp_recurrence", perturbed)
        report = verify_exp_identity(random_vector_field(RandomSpec(seed=1)), 4)
        assert report.passed is False
        assert differing_labels(report) == {"z^4"}

    def test_exp_identity_for_xd(self, monkeypatch):
        original = EgfSeries.__mul__
        # every power (e^z - 1)^i with i >= 2 gains the power i - 1
        monkeypatch.setattr(EgfSeries, "__mul__", lambda f, g: original(f, g) + f)
        report = verify_exp_identity_xd(4)
        assert report.passed is False
        assert differing_labels(report) == {"z^1", "z^2", "z^3", "z^4"}

    def test_stirling_power(self, monkeypatch):
        monkeypatch.setattr(verify_module, "stirling2", lambda m, k: stirling2(m, k + 1))
        assert verify_stirling_power(4).passed is False

    def test_f_of_g_in_the_inversion(self, monkeypatch):
        original = EgfSeries.compose

        def perturbed(f, inner):
            coeffs = list(original(f, inner).coeffs)
            coeffs[1] += 1
            return EgfSeries(coeffs)

        monkeypatch.setattr(EgfSeries, "compose", perturbed)
        report = verify_inversion(random_invertible_series(RandomSpec(seed=1), 9), 8)
        assert report.passed is False
        assert differing_labels(report) == {"f(g)", "g(f)"}


# the flags each suite reads besides --seed, written out apart from SUITES
READS = {
    "prop1": {"trials", "n", "degree"},
    "corollary": {"trials", "n", "degree"},
    "compos": {"trials", "n", "degree", "m"},
    "bellpower": {"trials", "n", "degree", "m"},
    "expid": {"trials", "n", "degree", "order"},
    "stirling": {"m"},
    "inversion": {"trials", "order"},
}
SIZE_FLAGS = ("m", "order")
GRID = [(name, flag) for name in READS for flag in ("trials", "n", "degree", *SIZE_FLAGS)]


def size_read(name):
    return next((f"--{flag}" for flag in SIZE_FLAGS if flag in READS[name]), "no size flag")


class TestTrialCount:
    @pytest.mark.parametrize("trials", [0, -1, 1.5, True])
    @pytest.mark.parametrize("checker", [verify_product_identities, verify_composition_split])
    def test_a_count_below_one_or_not_an_int_is_refused(self, checker, trials):
        # 0 and -1 returned no report, a vacuous pass; 1.5 leaked a TypeError; True ran once
        message = re.escape(f"trials must be at least 1, got {trials!r}")
        with pytest.raises(ValueError, match=message):
            checker(RandomSpec(seed=1), trials)


# each leaked Python's own error: an AttributeError ('seed', 'n', 'is_first_order') or
# "'int' object is not iterable"
NOT_AN_OPERAND = {
    "random_vector_field": (lambda: random_vector_field(5), "expects a RandomSpec, got int"),
    "random_diffop": (lambda: random_diffop(5), "expects a RandomSpec, got int"),
    "random_op_list": (lambda: random_op_list(3, 2), "expects a RandomSpec, got int"),
    "random_invertible_series": (lambda: random_invertible_series(3, 2),
                                 "expects a RandomSpec, got int"),
    "verify_product_identities": (lambda: verify_product_identities(5, 1),
                                  "expects a RandomSpec, got int"),
    "verify_composition_split": (lambda: verify_composition_split(5, 1),
                                 "expects a RandomSpec, got int"),
    "verify_exp_identity": (lambda: verify_exp_identity(5, 2), "expects a DiffOp, got int"),
    "verify_partition_expansion": (lambda: verify_partition_expansion(5),
                                   "operator list must be a non-empty sequence"),
    "ogf_to_egf": (lambda: ogf_to_egf(5), "coefficients must be a sequence of scalars"),
    "egf_to_ogf": (lambda: egf_to_ogf(5), "coefficients must be a sequence of scalars"),
}

X1, X2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
D1 = DiffOp.vector_field([MultiPoly.const(2, 1), MultiPoly.zero(2)])
# each ran without error, reading a dict's keys, a str's characters or a set's arbitrary
# order as the values meant: EgfSeries({0: 5, 1: 7}) was EgfSeries([0, 1])
NOT_A_SEQUENCE = {
    "EgfSeries-dict": (lambda: EgfSeries({0: 5, 1: 7}),
                       "coefficients must be a sequence of scalars, not the dict"),
    "EgfSeries-set": (lambda: EgfSeries({1, 2}),
                      "coefficients must be a sequence of scalars, not the set"),
    "ogf_to_egf": (lambda: ogf_to_egf({0: 5, 1: 7}),
                   "coefficients must be a sequence of scalars, not the dict"),
    "egf_to_ogf": (lambda: egf_to_ogf({0: 5, 1: 7}),
                   "coefficients must be a sequence of scalars, not the dict"),
    "vector_field-str": (lambda: DiffOp.vector_field("12"),
                         "vector_field expects a sequence of coefficients, not the str '12'"),
    "vector_field-dict": (lambda: DiffOp.vector_field({0: X1, 1: X2}),
                          "vector_field expects a sequence of coefficients, not the dict"),
    "vector_field-set": (lambda: DiffOp.vector_field({X1, X2}),
                         "vector_field expects a sequence of coefficients, not the set"),
    "single": (lambda: DiffOp.single(X1, {0: 5, 1: 5}),
               "bad derivative multi-index {0: 5, 1: 5} for 2 variables: need a sequence of ints"),
    "MultiPoly.coefficient": (lambda: X1.coefficient({0: 9, 1: 9}),
                              "bad exponent vector {0: 9, 1: 9} for 2 variables: "
                              "need a sequence of ints"),
    "MultiPoly.coefficient-set": (lambda: X1.coefficient({0, 1}),
                                  "bad exponent vector {0, 1} for 2 variables: "
                                  "need a sequence of ints"),
    "DiffOp.coefficient": (lambda: D1.coefficient({0: 9, 1: 9}),
                           "bad derivative multi-index {0: 9, 1: 9} for 2 variables: "
                           "need a sequence of ints"),
    "partition_class_count": (lambda: partition_class_count({2: 2}),
                              "multiplicities must be a sequence of counts l_1, l_2, ..., "
                              "not the dict {2: 2}"),
    "IntPartition": (lambda: IntPartition(1, {1: 5}),
                     "multiplicities must be a sequence of counts l_1, l_2, ..., "
                     "not the dict {1: 5}"),
    "indices": (lambda: opseries.diamond_chain([D1, D1], {1: 0, 2: 0}),
                "indices must be an iterable of labels, not the dict"),
}


class TestOperandContracts:
    @pytest.mark.parametrize("entry", list(NOT_AN_OPERAND))
    def test_a_wrong_operand_is_refused_in_the_package_words(self, entry):
        call, contract = NOT_AN_OPERAND[entry]
        with pytest.raises((TypeError, ValueError), match=contract) as info:
            call()
        assert not re.search("has no attribute|is not iterable|cannot be interpreted",
                             str(info.value))

    @pytest.mark.parametrize("entry", list(NOT_A_SEQUENCE))
    def test_a_mapping_str_or_unordered_set_is_not_read_as_a_sequence(self, entry):
        call, contract = NOT_A_SEQUENCE[entry]
        with pytest.raises(ValueError, match=re.escape(contract)):
            call()

    def test_labels_may_come_as_a_set_and_vector_field_coefficients_as_a_generator(self):
        # labels name operators and blocks, so their order carries no meaning
        ops = [D1, DiffOp.vector_field([X2, X1])]
        assert opseries.diamond_chain(ops, {1, 2}) == opseries.diamond_chain(ops, [2, 1])
        assert opseries.SetPartition(2, {frozenset({1}), frozenset({2})}).blocks == ((1,), (2,))
        # vector_field iterates its coefficients, so a generator serves, as for EgfSeries
        assert DiffOp.vector_field(u for u in (X1, X2)) == DiffOp.vector_field([X1, X2])


# Python's own wording for a wrong type met deep inside, not at an entry point
PYTHON_WORDS = re.compile(
    "has no attribute|is not iterable|cannot be interpreted|unhashable|not subscriptable|"
    "unsupported operand|not callable|has no len|positional argument|not supported between"
)
WRONG_TYPES = (None, 1.5, "x", [1], object(), -1)
# a type alias, which checks nothing
UNCHECKED = {"MultiIndex"}


def library_callables():
    # every callable of opseries.__all__ and every public method of a polynomial, an
    # operator and a series that takes an argument, with its required positional count
    samples = [MultiPoly.variable(2, 0), unit_op(1), EgfSeries([0, 1, 2])]
    found = [(name, getattr(opseries, name)) for name in opseries.__all__
             if name not in UNCHECKED and callable(getattr(opseries, name))]
    found += [(f"{type(x).__name__}.{name}", getattr(x, name)) for x in samples
              for name in dir(x) if not name.startswith("_") or name == "__getitem__"]
    out = []
    for name, call in found:
        if not callable(call):
            continue
        needed = [p for p in inspect.signature(call).parameters.values()
                  if p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD]
        if needed:
            out.append(pytest.param(call, len(needed), id=name))
    return out


class TestLibraryContract:
    @pytest.mark.parametrize("call, arity", library_callables())
    def test_a_wrong_type_is_refused_in_the_package_words(self, call, arity):
        errors = (ValueError, TypeError)
        if call.__name__ == "__getitem__":  # the sequence protocol: out of range, IndexError
            errors += (IndexError,)
        refused = 0
        for value in WRONG_TYPES:
            try:
                call(*[value] * arity)
            except errors as exc:
                refused += 1
                # a message may quote Python's text only after naming its own contract,
                # as from_json_dict does, raising from the original error
                assert exc.__cause__ is not None or not PYTHON_WORDS.search(str(exc)), value
        assert refused

    def test_a_non_str_suite_name_is_an_unknown_suite(self):
        # a list name leaked "unhashable type: 'list'" from the SUITES lookup
        for name in ([1], 1, None):
            with pytest.raises(ValueError, match=r"^unknown suite .*; choose from prop1, "):
                run_suite(name)


class TestRunSuite:
    def test_suites_keep_their_names_and_order(self):
        assert list(SUITES) == [
            "prop1", "corollary", "compos", "bellpower", "expid", "stirling", "inversion"
        ]

    @pytest.mark.parametrize(
        "name, sizes, default",
        [("prop1", {}, None), ("corollary", {}, None), ("compos", {"m": 3}, "m=3"),
         ("bellpower", {"m": 4}, "m=4"), ("expid", {"order": 5}, "z_order=5"),
         ("stirling", {"m": 6}, "m=6"), ("inversion", {"order": 8}, "order=8")],
    )
    def test_an_unset_size_takes_the_suite_default(self, name, sizes, default):
        reports = run_suite(name, seed=2)
        assert [r.as_dict() for r in reports] == [
            r.as_dict() for r in run_suite(name, seed=2, **sizes)
        ]
        if default:
            assert all(default in r.description for r in reports)

    @pytest.mark.parametrize(
        "name, flag, reads",
        [(name, flag, size_read(name)) for name, flag in GRID
         if flag in SIZE_FLAGS and flag not in READS[name]],
    )
    def test_a_size_the_suite_does_not_read_is_refused(self, monkeypatch, name, flag, reads):
        monkeypatch.setattr(verify_module, "_trials", lambda *a, **k: pytest.fail("ran"))
        with pytest.raises(ValueError, match=f"suite '{name}' does not read --{flag}; "
                                             f"it reads {reads}"):
            run_suite(name, **{flag: 3})

    @pytest.mark.parametrize(
        "name, flag",
        [(name, flag) for name, flag in GRID
         if flag not in SIZE_FLAGS and flag not in READS[name]],
    )
    def test_an_instance_flag_the_suite_does_not_read_is_refused(self, monkeypatch, name, flag):
        monkeypatch.setattr(verify_module, "_trials", lambda *a, **k: pytest.fail("ran"))
        monkeypatch.setattr(verify_module, "verify_stirling_power", lambda m: pytest.fail("ran"))
        with pytest.raises(ValueError, match=f"^suite '{name}' does not read --{flag}$"):
            run_suite(name, **{flag: 1})

    @pytest.mark.parametrize(
        "name, flag", [(name, flag) for name, flag in GRID if flag in READS[name]]
    )
    def test_a_flag_the_suite_reads_reaches_its_runner(self, monkeypatch, name, flag):
        received = []

        def runner(spec, **flags):
            received.append((spec, flags))
            return []

        monkeypatch.setitem(SUITES, name, (SUITES[name][0], runner))
        assert run_suite(name, seed=4, **{flag: 3}) == []
        ((spec, flags),) = received
        # n and degree reach the runner inside the RandomSpec, the rest by keyword
        assert flags.keys() == READS[name] - {"n", "degree"}
        assert {**flags, "n": spec.n, "degree": spec.max_degree}[flag] == 3
        assert spec.seed == 4

    @pytest.mark.parametrize("name, flags, message", [
        ("prop1", {"n": 0, "m": 3}, "does not read --m; it reads no size flag"),
        ("prop1", {"trials": 0, "order": -1}, "does not read --order; it reads no size flag"),
        # of two unread flags, the first in run_suite's keyword order is named
        ("stirling", {"order": -1, "degree": -1, "trials": 0}, "does not read --trials"),
        ("inversion", {"m": -1, "n": 0}, "does not read --n"),
    ])
    def test_an_unread_flag_is_refused_before_any_value_is_checked(self, name, flags, message):
        with pytest.raises(ValueError, match=f"^suite '{name}' {message}$"):
            run_suite(name, **flags)

    def test_unset_instance_flags_take_their_defaults(self):
        # every suite takes --seed; a suite that reads trials, n or degree defaults them to 1, 2, 2
        assert [r.as_dict() for r in run_suite("stirling", seed=5)] == [
            r.as_dict() for r in run_suite("stirling")]
        for name, flags in [("corollary", {"trials": 1, "n": 2, "degree": 2}),
                            ("inversion", {"trials": 1})]:
            assert [r.as_dict() for r in run_suite(name, seed=5)] == [
                r.as_dict() for r in run_suite(name, seed=5, **flags)]

    def test_every_report_is_timed_on_its_own_sides(self, monkeypatch):
        ticks = iter(range(1000))
        monkeypatch.setattr(verify_module.time, "perf_counter", lambda: next(ticks))
        reports = run_suite("prop1", trials=2) + run_suite("corollary")
        assert [r.elapsed for r in reports] == [1] * 14

    def test_every_suite_runs_green(self):
        for name in SUITES:
            trials = {"trials": 2} if "trials" in READS[name] else {}
            reports = run_suite(name, seed=3, **trials)
            assert reports, name
            assert all(r.passed for r in reports), name

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_report_description_regenerates_the_instance(self):
        reports = run_suite("compos", seed=4, trials=2, n=1, degree=3)
        assert reports[1].description == "seed=4 trial=1 n=1 degree<=3 m=3 summands=5"
        ops = random_op_list(RandomSpec(seed=_trial_seed(4, 1), n=1, max_degree=3), 3)
        again = verify_partition_expansion(ops, "seed=4 trial=1 n=1 degree<=3")
        assert again.as_dict() == reports[1].as_dict()
        (inversion,) = run_suite("inversion", seed=4)
        assert inversion.description.startswith("seed=4 trial=0 order=8 ")

    def test_summand_counts_match_bell_numbers(self):
        for m, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
            (report,) = run_suite("compos", seed=1, trials=1, m=m)
            assert f"summands={bell}" in report.description
