"""Truncated series arithmetic and the four compositional-inverse algorithms."""

import math
import operator
import re
from fractions import Fraction
from itertools import accumulate, islice, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opseries import (
    EgfSeries,
    INVERSE_METHODS,
    classical_inverse,
    egf_to_ogf,
    from_json_dict,
    log_form_inverse,
    log_form_terms,
    newton_inverse,
    ogf_to_egf,
    operator_inverse,
    operator_iterate,
    series,
    to_json_dict,
    verify_inversion,
)

COEFFS = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2)]
)


def egf_mul_oracle(a, b):
    """Binomial convolution written out independently on raw tuples."""
    upto = min(len(a), len(b)) - 1
    return [
        sum(math.comb(m, k) * a[k] * b[m - k] for k in range(m + 1))
        for m in range(upto + 1)
    ]


def double_factorial(k):
    return math.prod(range(k, 0, -2))  # (-1)!! = 0!! = 1


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


# b_{2k+1} of tan x for k = 0..6, enough for an order-12 inverse
TANGENT_NUMBERS = (1, 2, 16, 272, 7936, 353792, 22368256)

# closed-form inverse pairs, as egf coefficient formulas for m >= 1
CLOSED_FORM_PAIRS = {
    "expm1-log1p": (lambda m: 1, lambda m: (-1) ** (m - 1) * math.factorial(m - 1)),
    "sin-arcsin": (
        lambda m: (-1) ** (m // 2) if m % 2 else 0,
        lambda m: double_factorial(m - 2) ** 2 if m % 2 else 0,
    ),
    "tan-arctan": (
        lambda m: TANGENT_NUMBERS[m // 2] if m % 2 else 0,
        lambda m: (-1) ** (m // 2) * math.factorial(m - 1) if m % 2 else 0,
    ),
    "x-x^2-catalan": (
        lambda m: {1: 1, 2: -2}.get(m, 0),
        lambda m: math.factorial(m) * catalan(m - 1),
    ),
}


def x_exp_minus_x(order):
    """x e^{-x}: coefficient m is (-1)^(m-1) m."""
    return EgfSeries([0] + [Fraction((-1) ** (m - 1) * m) for m in range(1, order + 1)])


class TestArithmetic:
    def test_exp_times_exp(self):
        product = EgfSeries.exp_x(6) * EgfSeries.exp_x(6)
        # binomial theorem: sum_k C(m,k) = 2^m
        assert product == EgfSeries([2**m for m in range(7)])

    def test_add_zero(self):
        f = EgfSeries([1, 2, 3])
        assert f + EgfSeries.zero(2) == f

    @pytest.mark.parametrize("coeffs", ["012", "1/2", ""])
    def test_a_str_is_not_read_as_its_characters(self, coeffs):
        # "012" would otherwise be the series [0, 1, 2]
        contract = "coefficients must be a sequence of scalars, not the str"
        with pytest.raises(ValueError, match=contract):
            EgfSeries(coeffs)

    @pytest.mark.parametrize("coeffs", [5, None, 1.5])
    def test_a_non_iterable_is_refused_by_the_contract(self, coeffs):
        # iterating it would leak Python's "'int' object is not iterable"
        with pytest.raises(ValueError, match="coefficients must be a sequence of scalars, got"):
            EgfSeries(coeffs)

    def test_x_squared(self):
        x = EgfSeries([0, 1, 0])
        assert x * x == EgfSeries([0, 0, 2])

    def test_mul_takes_min_order(self):
        f = EgfSeries([1, 1, 1, 1])
        g = EgfSeries([1, 1])
        assert (f * g).order == 1

    def test_mul_matches_oracle(self):
        a = EgfSeries([1, Fraction(1, 2), -2, 3])
        b = EgfSeries([2, 0, 1, -1])
        assert list((a * b).coeffs) == egf_mul_oracle(a.coeffs, b.coeffs)

    def test_getitem_bounds(self):
        f = EgfSeries([1, 2])
        assert f[1] == 2
        with pytest.raises(IndexError):
            f[2]

    @pytest.mark.parametrize("index", [True, 1.0])
    def test_getitem_refuses_a_non_int_index(self, index):
        # True and 1.0 are not read as the index 1
        with pytest.raises(ValueError, match=re.escape(
                f"series index must be an integer, got {index!r} (a {type(index).__name__})")):
            EgfSeries([0, 5, 7])[index]

    @pytest.mark.parametrize("index", [-1, 3])
    def test_getitem_keeps_index_error_out_of_range(self, index):
        # -1 does not read from the end, and order + 1 is past the last valid coefficient
        with pytest.raises(IndexError, match=f"index {index} outside valid order 2"):
            EgfSeries([0, 5, 7])[index]

    def test_truncate_never_extends(self):
        f = EgfSeries([1, 2, 3])
        assert f.truncate(1) == EgfSeries([1, 2])
        with pytest.raises(ValueError):
            f.truncate(5)

    def test_prefix_agreement(self):
        f = EgfSeries([1, 2, 3, 4])
        g = EgfSeries([1, 2, 3])
        assert f != g  # exact equality includes the order
        assert f.agrees_with(g)
        assert f.agrees_with(g, 2)
        assert not f.agrees_with(EgfSeries([1, 2, 9]))
        with pytest.raises(ValueError):
            f.agrees_with(g, 3)


class TestDerivativeReciprocal:
    def test_derivative_of_exp(self):
        assert EgfSeries.exp_x(6).derivative() == EgfSeries.exp_x(5)

    def test_derivative_of_x(self):
        assert EgfSeries([0, 1]).derivative() == EgfSeries([1])

    def test_derivative_of_x_exp_minus_x(self):
        f = x_exp_minus_x(8)
        # Taylor coefficients of (1-x)e^{-x} are (-1)^m (m+1)
        expected = EgfSeries([Fraction((-1) ** m * (m + 1)) for m in range(8)])
        assert f.derivative() == expected

    def test_derivative_needs_order(self):
        with pytest.raises(ValueError):
            EgfSeries([5]).derivative()

    def test_reciprocal_of_one(self):
        assert EgfSeries.one(5).reciprocal() == EgfSeries.one(5)

    def test_reciprocal_of_exp_minus(self):
        exp_minus = EgfSeries([Fraction((-1) ** m) for m in range(7)])
        assert exp_minus.reciprocal() == EgfSeries.exp_x(6)

    def test_reciprocal_inverts_product(self):
        fprime = x_exp_minus_x(9).derivative()
        recip = fprime.reciprocal()
        assert list((fprime * recip).coeffs) == egf_mul_oracle(fprime.coeffs, recip.coeffs)
        assert fprime * recip == EgfSeries.one(8)

    @pytest.mark.parametrize("a0", [2, -1, Fraction(1, 2), -2])
    def test_reciprocal_with_constant_term_other_than_one(self, a0):
        f = EgfSeries([a0, 1, -2, Fraction(1, 2), 0, 3])
        recip = f.reciprocal()
        assert recip[0] == 1 / Fraction(a0)
        assert list((f * recip).coeffs) == egf_mul_oracle(f.coeffs, recip.coeffs)
        assert f * recip == EgfSeries.one(5)

    def test_reciprocal_needs_constant(self):
        with pytest.raises(ValueError):
            EgfSeries([0, 1]).reciprocal()


class TestComposeExpLn:
    def test_compose_with_identity(self):
        f = EgfSeries([3, 1, -2, 5])
        assert f.compose(EgfSeries.identity(3)) == f
        g = EgfSeries([0, 2, 1, Fraction(1, 2)])
        assert EgfSeries.identity(3).compose(g) == g

    def test_compose_takes_no_series_product(self, monkeypatch):
        # compose walks its own power table instead of multiplying series
        f, g = EgfSeries([3, 0, 1, -2, 0, Fraction(1, 2), 2]), x_exp_minus_x(6)
        expected = f.compose(g)

        def refuse(*args):
            raise AssertionError("compose called EgfSeries.__mul__")

        monkeypatch.setattr(EgfSeries, "__mul__", refuse)
        assert f.compose(g) == expected

    def test_compose_needs_zero_constant(self):
        with pytest.raises(ValueError):
            EgfSeries([1, 1]).compose(EgfSeries([1, 1]))

    def test_exp_ln_constants(self):
        assert EgfSeries.zero(4).exp() == EgfSeries.one(4)
        assert EgfSeries.one(4).ln() == EgfSeries.zero(4)

    def test_exp_of_x(self):
        assert EgfSeries.identity(6).exp() == EgfSeries.exp_x(6)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            EgfSeries([1, 1]).exp()
        with pytest.raises(ValueError):
            EgfSeries([0, 1]).ln()

    @given(st.lists(COEFFS, min_size=4, max_size=10))
    @settings(max_examples=60)
    def test_ln_exp_round_trip(self, tail):
        f = EgfSeries([0] + tail)
        assert f.exp().ln() == f

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_bell_columns_are_the_scaled_powers(self, tail):
        # the integer kernel of compose and newton_inverse against repeated series
        # products: B_{n,k}(b) = [g^k]_n / k!
        b, order = [0] + tail, len(tail)
        g = EgfSeries(b)
        powers = list(islice(accumulate(repeat(g), operator.mul), order))  # g^1 .. g^order
        for n, col in enumerate(series._bell_columns(b, order), start=1):
            assert all(isinstance(v, int) for v in col)
            assert col == [0] + [powers[k - 1][n] / math.factorial(k) for k in range(1, n + 1)]

    def test_ln_of_tree_series(self):
        # ln turns coefficients (m+1)^(m-1) into m^(m-1)
        src = EgfSeries([Fraction((m + 1) ** m // (m + 1)) for m in range(9)])
        expected = EgfSeries([0] + [Fraction(m ** (m - 1)) for m in range(1, 9)])
        assert src.ln() == expected


# the solves as they ran on Fractions before they ran on integers, written out here so
# that no fault in series._quotient or series._exp_recurrence is shared
def fraction_quotient(num, den):
    out = []
    for m, term in enumerate(num):
        for k in range(1, m + 1):
            term = term - math.comb(m, k) * den[k] * out[m - k]
        out.append(term)
    return out


def fraction_reciprocal(c):
    inv0 = 1 / c[0]
    return fraction_quotient([inv0] + [0] * (len(c) - 1), [a * inv0 for a in c])


def fraction_ln(c):
    return [Fraction(0)] + fraction_quotient(c[1:], c)


def fraction_exp(c):
    out = [Fraction(1)]
    for m in range(len(c) - 1):
        out.append(c[m + 1] + sum(math.comb(m, k) * c[k + 1] * out[m - k] for k in range(m)))
    return out


LEADS = st.sampled_from([Fraction(v) for v in (1, -1, 2, -2, "1/2", "-3/7")])
# zero often, so that tails carry interior zeros, and denominators 2, 3 and 7
TAILS = st.lists(
    st.sampled_from([Fraction(v) for v in (0, 0, 0, 1, -1, 2, "1/2", "-2/3", "5/7")]),
    max_size=20,
)


class TestSolvesOverIntegers:
    """reciprocal, ln and exp run over integers and equal the Fraction solves."""

    @given(LEADS, TAILS)
    @settings(max_examples=80, deadline=None)
    def test_reciprocal_equals_the_fraction_solve(self, lead, tail):
        c = [lead] + tail  # orders 0..20
        assert EgfSeries(c).reciprocal() == EgfSeries(fraction_reciprocal(c))

    @given(LEADS, TAILS)
    @settings(max_examples=80, deadline=None)
    def test_ln_equals_the_fraction_solve(self, lead, tail):
        c = [Fraction(1), lead] + tail[:19]  # the lead is a_1, as ln needs a_0 = 1
        assert EgfSeries(c).ln() == EgfSeries(fraction_ln(c))

    @given(LEADS, TAILS)
    @settings(max_examples=80, deadline=None)
    def test_exp_equals_the_fraction_recurrence(self, lead, tail):
        c = [Fraction(0), lead] + tail[:19]  # the lead is a_1, as exp needs a_0 = 0
        assert EgfSeries(c).exp() == EgfSeries(fraction_exp(c))

    @pytest.mark.parametrize("order", [0, 1])
    def test_the_shortest_series(self, order):
        c = [Fraction(-3, 7), Fraction(1, 2)][: order + 1]
        assert EgfSeries(c).reciprocal() == EgfSeries(fraction_reciprocal(c))
        assert EgfSeries([1, 2][: order + 1]).ln() == EgfSeries([0, 2][: order + 1])
        assert EgfSeries([0, 2][: order + 1]).exp() == EgfSeries([1, 2][: order + 1])

    def test_the_solves_receive_only_ints(self, monkeypatch):
        received = []

        def spy(name):
            original = getattr(series, name)

            def recorded(*args):
                received.append((name, args))
                return original(*args)

            monkeypatch.setattr(series, name, recorded)

        spy("_quotient")
        spy("_exp_recurrence")
        EgfSeries([Fraction(-3, 7), Fraction(1, 2), 0, 5, Fraction(2, 9)]).reciprocal()
        EgfSeries([1, Fraction(-3, 7), 0, Fraction(1, 2), 3]).ln()
        EgfSeries([0, Fraction(-3, 7), Fraction(1, 2), 0, Fraction(5, 6)]).exp()
        assert [name for name, _ in received] == ["_quotient", "_quotient", "_exp_recurrence"]
        for name, (first, second, third) in received:
            # (num, den, mul) for the quotient, (coeffs, mul, one) for the recurrence
            ints = [*first, *second] if name == "_quotient" else [*first, third]
            assert all(type(v) is int for v in ints), (name, ints)

    def test_log_form_inverse_checks_no_coefficient_again(self, monkeypatch):
        # every series it computes is built unchecked: only the public constructor, which
        # took f, runs the coefficient contract
        f = x_exp_minus_x(21)
        calls = []
        original = series._scalar
        monkeypatch.setattr(series, "_scalar", lambda c: calls.append(c) or original(c))
        assert list(log_form_inverse(f, 20).coeffs[1:4]) == [1, 2, 9]
        assert calls == []


# every public function that takes an invertible series, called as (f, order)
TAKES_INVERTIBLE = {
    **INVERSE_METHODS,
    "log_form_terms": log_form_terms,
    "operator_iterate": lambda f, order: operator_iterate(f, EgfSeries.exp_x(order), order),
    "verify_inversion": verify_inversion,
}
NOT_INVERTIBLE = {
    "constant-term": (EgfSeries([1, 1, 1, 1]), "constant term must be zero"),
    "a1-zero": (EgfSeries([0, 0, 1, 1]), "a1 must be nonzero"),
    "order-0": (EgfSeries([0]), "an invertible series needs order >= 1"),
    "too-short": (EgfSeries([0, 1]), "input series must be valid to order [23], has 1"),
}

# each leaked AttributeError: 'int' object has no attribute 'order' (or 'coeffs')
NOT_A_SERIES = {
    **{entry: lambda call=call: call(5, 5) for entry, call in TAKES_INVERTIBLE.items()},
    "operator_iterate_start": lambda: operator_iterate(x_exp_minus_x(3), 5, 0),
    "to_json_dict": lambda: to_json_dict(5),
    "agrees_with": lambda: EgfSeries([0, 1]).agrees_with(5),
}


class TestInvertibilityRefusals:
    @pytest.mark.parametrize(
        "case,entry",
        [
            (case, entry)
            for entry in TAKES_INVERTIBLE
            for case in NOT_INVERTIBLE
            # operator_iterate reads f to order 1 only: its start bounds the result
            if (case, entry) != ("too-short", "operator_iterate")
        ],
    )
    def test_refused_by_name(self, case, entry):
        f, contract = NOT_INVERTIBLE[case]
        with pytest.raises(ValueError, match=contract):
            TAKES_INVERTIBLE[entry](f, 2)

    @pytest.mark.parametrize("entry", list(NOT_A_SERIES))
    def test_a_non_series_is_refused_by_type(self, entry):
        with pytest.raises(TypeError, match="must be an EgfSeries, got int$"):
            NOT_A_SERIES[entry]()


class TestClassicalInverse:
    def test_identity(self):
        assert classical_inverse(EgfSeries.identity(6), 5) == EgfSeries.identity(5)

    def test_worked_example(self):
        g = classical_inverse(x_exp_minus_x(6), 5)
        assert list(g.coeffs[1:]) == [1, 2, 9, 64, 625]

    def test_geometric(self):
        # f = x/(1-x) has a_m = m!; the inverse x/(1+x) has b_m = (-1)^(m-1) m!
        f = EgfSeries([0] + [math.factorial(m) for m in range(1, 8)])
        g = classical_inverse(f, 6)
        assert list(g.coeffs) == [0] + [
            (-1) ** (m - 1) * math.factorial(m) for m in range(1, 7)
        ]
        assert f.truncate(6).compose(g) == EgfSeries.identity(6)

    def test_requires_one_extra_order(self):
        with pytest.raises(ValueError):
            classical_inverse(x_exp_minus_x(6), 6)


class TestOperatorIterate:
    def test_plain_derivative(self):
        f = EgfSeries.identity(9)
        assert operator_iterate(f, EgfSeries.exp_x(8), 3) == EgfSeries.exp_x(5)

    def test_zero_applications(self):
        start = EgfSeries([1, 5, 7])
        assert operator_iterate(x_exp_minus_x(6), start, 0) == start

    def test_tree_constants(self):
        f = x_exp_minus_x(12)
        start = EgfSeries.exp_x(10)
        for k in range(8):
            iterated = operator_iterate(f, start, k)
            expected = (k + 1) ** (k - 1) if k >= 1 else 1
            assert iterated[0] == expected
            assert iterated.order == start.order - k

    def test_order_exhausted(self):
        with pytest.raises(ValueError):
            operator_iterate(x_exp_minus_x(6), EgfSeries([1, 1]), 2)


class TestInverseMethods:
    def test_operator_form(self):
        assert operator_inverse(EgfSeries.identity(9), 8) == EgfSeries.identity(8)
        g = operator_inverse(x_exp_minus_x(7), 6)
        assert list(g.coeffs[1:]) == [1, 2, 9, 64, 625, 7776]

    def test_log_form(self):
        f = EgfSeries.identity(9)
        assert log_form_terms(f, 8) == EgfSeries.exp_x(8)
        assert log_form_inverse(f, 8) == EgfSeries.identity(8)
        g = log_form_inverse(x_exp_minus_x(7), 6)
        assert list(g.coeffs[1:]) == [1, 2, 9, 64, 625, 7776]
        c = log_form_terms(x_exp_minus_x(7), 6)
        assert list(c.coeffs) == [(m + 1) ** m // (m + 1) for m in range(7)]

    def test_newton(self):
        assert newton_inverse(EgfSeries.identity(8), 8) == EgfSeries.identity(8)
        half = newton_inverse(EgfSeries([0, 2, 0, 0]), 3)
        assert half == EgfSeries([0, Fraction(1, 2), 0, 0])
        g = newton_inverse(x_exp_minus_x(6), 6)
        assert list(g.coeffs[1:]) == [1, 2, 9, 64, 625, 7776]

    def test_newton_shares_no_step_with_the_other_methods(self, monkeypatch):
        # the cross-check takes no series product, reciprocal, ln, compose or
        # operator iterate, so it cannot share a fault with the other three
        f = x_exp_minus_x(11)
        expected = log_form_inverse(f, 10)

        def refuse(*args):
            raise AssertionError("newton_inverse used a step another method uses")

        for name in ("__mul__", "reciprocal", "ln", "compose"):
            monkeypatch.setattr(EgfSeries, name, refuse)
        monkeypatch.setattr(series, "_iterates", refuse)
        assert newton_inverse(f, 10) == expected

    def test_methods_agree_on_seeded_random_series(self):
        import random

        pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2)]
        lead = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2)]
        rng = random.Random(20240814)
        for _ in range(10):
            f = EgfSeries(
                [0, rng.choice(lead)] + [rng.choice(pool) for _ in range(8)]
            )
            results = {name: fn(f, 8) for name, fn in INVERSE_METHODS.items()}
            baseline = results["classical"]
            assert all(g == baseline for g in results.values())
            assert f.truncate(8).compose(baseline) == EgfSeries.identity(8)
            assert baseline.compose(f.truncate(8)) == EgfSeries.identity(8)

    def test_order_slack_never_changes_coefficients(self):
        f_long = x_exp_minus_x(12)
        for name, fn in INVERSE_METHODS.items():
            tight = fn(x_exp_minus_x(9), 8)
            slack = fn(f_long, 8)
            assert tight == slack, name

    @pytest.mark.parametrize("name", list(INVERSE_METHODS))
    def test_order_below_one_rejected(self, name):
        for order in (0, -1):
            with pytest.raises(ValueError, match="order must be >= 1"):
                INVERSE_METHODS[name](x_exp_minus_x(6), order)

    @pytest.mark.parametrize("name", ["classical", "operator", "newton"])
    def test_reads_f_only_through_the_inverse_order(self, name):
        # the shared contract asks for f valid to order + 1, but b_1 .. b_N depend on
        # a_1 .. a_N alone, and these three methods read no further: coefficient N + 1
        # here refuses every attribute read, so one read of it fails the call
        class Unreadable:
            def __getattribute__(self, attr):
                raise AssertionError(f"coefficient N + 1 was read (.{attr})")

        order = 8
        f = EgfSeries([0, Fraction(-3, 7), Fraction(1, 2), 0, 5, Fraction(2, 9), 1, -2, 4, 3])
        unreadable = series.EgfSeries._of([*f.coeffs[: order + 1], Unreadable()])
        method = INVERSE_METHODS[name]
        assert method(unreadable, order) == method(f, order)

    def test_log_form_terms_keeps_order_zero(self):
        assert log_form_terms(x_exp_minus_x(6), 0) == EgfSeries([1])

    @pytest.mark.parametrize("name", list(INVERSE_METHODS))
    @pytest.mark.parametrize("pair", list(CLOSED_FORM_PAIRS))
    def test_closed_form_pairs(self, pair, name):
        order = 12
        forward, backward = CLOSED_FORM_PAIRS[pair]
        for f, g in [(forward, backward), (backward, forward)]:
            source = EgfSeries([0] + [f(m) for m in range(1, order + 2)])
            expected = EgfSeries([0] + [g(m) for m in range(1, order + 1)])
            assert INVERSE_METHODS[name](source, order) == expected

    def test_a1_zero_rejected(self):
        for fn in INVERSE_METHODS.values():
            with pytest.raises(ValueError, match="a1"):
                fn(EgfSeries([0, 0, 1, 1, 1, 1, 1, 1, 1, 1]), 8)


class TestSerialization:
    def test_round_trip_egf(self):
        f = EgfSeries([0, 1, Fraction(-3, 2), 7])
        data = to_json_dict(f)
        assert data["coeffs"] == ["0", "1", "-3/2", "7"]
        assert from_json_dict(data) == f

    def test_round_trip_ogf(self):
        f = EgfSeries([0, 1, 2, 12])
        data = to_json_dict(f, convention="ogf")
        assert data["coeffs"] == ["0", "1", "1", "2"]
        assert from_json_dict(data) == f

    def test_conversions(self):
        assert ogf_to_egf([1, 1, 1]) == [1, 1, 2]
        assert egf_to_ogf([1, 1, 2]) == [1, 1, 1]

    def test_bad_payloads(self):
        with pytest.raises(ValueError):
            from_json_dict({"convention": "egf", "order": 2, "coeffs": ["1"]})
        with pytest.raises(ValueError):
            from_json_dict({"convention": "laurent", "order": 0, "coeffs": ["1"]})
        with pytest.raises(ValueError):
            from_json_dict({"order": 0, "coeffs": ["1"]})
        with pytest.raises(ValueError, match="order must be an integer"):
            from_json_dict({"convention": "egf", "order": "2", "coeffs": ["0", "1", "1"]})
        with pytest.raises(ValueError, match="order must be an integer"):
            from_json_dict({"convention": "egf", "order": True, "coeffs": ["0", "1"]})
        with pytest.raises(ValueError, match="coeffs must be a list"):
            from_json_dict({"convention": "egf", "order": 2, "coeffs": "012"})
        with pytest.raises(ValueError, match="bad series coefficient"):
            from_json_dict({"convention": "egf", "order": 1, "coeffs": ["0", "1/0"]})
        with pytest.raises(ValueError, match="bad series coefficient"):
            from_json_dict({"convention": "egf", "order": 2, "coeffs": [0, 1, 0.1]})
        with pytest.raises(ValueError, match="bad series coefficient"):
            from_json_dict({"convention": "egf", "order": 2, "coeffs": [0, True, 1]})

    def test_integer_and_string_coefficients_load(self):
        loaded = from_json_dict({"convention": "egf", "order": 2, "coeffs": [0, 1, "-1/2"]})
        assert loaded == EgfSeries([0, 1, Fraction(-1, 2)])


class TestRendering:
    def test_str(self):
        assert str(EgfSeries([0, 1, 2])) == "x + 2 x^2/2!"
        assert str(EgfSeries.zero(3)) == "0"
        assert str(EgfSeries([Fraction(1, 2), -1, 0, 6])) == "1/2 - x + 6 x^3/3!"
        assert str(EgfSeries([0, -1, Fraction(-1, 2)])) == "-x - 1/2 x^2/2!"
        assert str(EgfSeries([-1, 1, -1])) == "-1 + x - x^2/2!"
