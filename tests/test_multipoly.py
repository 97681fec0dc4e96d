"""Ring arithmetic and partial derivatives of sparse rational polynomials."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opseries import DiffOp, EgfSeries, MultiPoly
from opseries.cli import main
from opseries.multipoly import _sum

COEFFS = st.sampled_from(
    [
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(2),
        Fraction(-2),
        Fraction(1, 2),
        Fraction(-3, 2),
    ]
)


def polys(n=2, max_degree=3, max_terms=4):
    indices = st.tuples(*(st.integers(0, max_degree) for _ in range(n)))
    return st.dictionaries(indices, COEFFS, max_size=max_terms).map(
        lambda d: MultiPoly(n, d)
    )


def reduced_fractions(p: MultiPoly) -> bool:
    """Every coefficient is a ``Fraction`` in lowest terms, positive denominator."""
    return all(
        type(c) is Fraction and c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
        for _, c in p.items()
    )


def convolve_terms(p: MultiPoly, q: MultiPoly) -> dict:
    """Independent term-by-term product in ``Fraction``s: every exponent pair added by hand."""
    out: dict = {}
    for a, c in p.items():
        for b, d in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, Fraction(0)) + c * d
    return {a: c for a, c in out.items() if c}


def convolve_oracle(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    return MultiPoly(p.n, convolve_terms(p, q))


class TestExamples:
    def test_add_cancels(self):
        x1 = MultiPoly.variable(2, 0)
        x2 = MultiPoly.variable(2, 1)
        assert (x1 + x2) + (x1 - x2) == 2 * x1

    def test_mul_monomial(self):
        x1 = MultiPoly.variable(2, 0)
        assert x1 * x1 == MultiPoly(2, {(2, 0): 1})

    def test_difference_of_squares(self):
        one = MultiPoly.const(1, 1)
        x = MultiPoly.variable(1, 0)
        product = (one + x) * (one - x)
        assert product == MultiPoly(1, {(0,): 1, (2,): -1})
        assert product == convolve_oracle(one + x, one - x)

    def test_partial_single(self):
        x1 = MultiPoly.variable(1, 0)
        assert (x1 * x1).partial((1,)) == 2 * x1

    def test_partial_mixed(self):
        p = MultiPoly(2, {(1, 1): 1})
        assert p.partial((1, 1)) == MultiPoly.const(2, 1)

    def test_partial_repeated_matches_iterated(self):
        p = MultiPoly(2, {(3, 1): 1})  # x1^3 x2
        once = p.partial((1, 0))
        assert once.partial((1, 0)) == p.partial((2, 0))
        assert p.partial((2, 0)) == MultiPoly(2, {(1, 1): 6})

    def test_partial_annihilates(self):
        p = MultiPoly(2, {(1, 0): 5})
        assert p.partial((2, 0)).is_zero()

    def test_constant_term(self):
        assert MultiPoly(1, {(0,): 5, (1,): 3}).constant_term() == 5
        assert MultiPoly(2, {(1, 1): 1}).constant_term() == 0
        p = MultiPoly(2, {(0, 0): Fraction(7, 3), (0, 2): -2})
        assert p.constant_term() == Fraction(7, 3)

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            MultiPoly.variable(2, 0) + MultiPoly.variable(3, 0)
        with pytest.raises(ValueError):
            MultiPoly.variable(2, 0) * MultiPoly.variable(1, 0)
        with pytest.raises(ValueError):
            MultiPoly.variable(2, 0).partial((1,))

    def test_rendering(self):
        assert str(MultiPoly.zero(2)) == "0"
        p = MultiPoly(1, {(0,): 1, (2,): -1})
        assert str(p) == "-x1^2 + 1"
        q = MultiPoly(2, {(2, 0): Fraction(3, 2), (1, 1): 1, (0, 0): Fraction(-7, 3)})
        assert str(q) == "3/2*x1^2 + x1*x2 - 7/3"
        assert str(MultiPoly.const(1, -1)) == "-1"
        assert str(MultiPoly(3, {(0, 2, 1): -1, (1, 0, 0): Fraction(-1, 2)})) == (
            "-x2^2*x3 - 1/2*x1"
        )

    def test_coefficients_stay_reduced(self):
        # the scalar field keeps gcd-reduced values with positive denominators
        c = Fraction(2, 4)
        assert (c.numerator, c.denominator) == (1, 2)
        c = Fraction(1, -2)
        assert (c.numerator, c.denominator) == (-1, 2)
        p = MultiPoly(1, {(1,): Fraction(2, 4)})
        ((_, coeff),) = p.items()
        assert (coeff.numerator, coeff.denominator) == (1, 2)

    def test_string_coefficients(self):
        p = MultiPoly(1, {(0,): "-3/6", (1,): "2"})
        assert p == MultiPoly(1, {(0,): Fraction(-1, 2), (1,): 2})
        assert p.coefficient((0,)) == Fraction(-1, 2)


class TestBoundary:
    """Only ints, Fractions and "p/q" strings are read as coefficients."""

    # a float 0.1 would be stored as 3602879701896397/36028797018963968, a True as 1
    @pytest.mark.parametrize("bad", [0.1, 0.5, True, False, None, "x/2", "1/0", 1j])
    def test_refuses_non_rational_coefficients(self, bad):
        with pytest.raises(ValueError, match=r'an int, Fraction or "p/q" string'):
            MultiPoly(1, {(1,): bad})
        with pytest.raises(ValueError, match=r'an int, Fraction or "p/q" string'):
            MultiPoly.const(2, bad)
        with pytest.raises(ValueError, match=r'an int, Fraction or "p/q" string'):
            EgfSeries([0, bad])

    # x * True used to print x1, x * False 0, and EgfSeries([0, 1]) * True x
    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize(
        "operand",
        [MultiPoly.variable(1, 0), DiffOp(1, {(1,): MultiPoly.variable(1, 0)}),
         DiffOp.zero(1), EgfSeries([0, 1])],
        ids=["MultiPoly", "DiffOp", "DiffOp.zero", "EgfSeries"],
    )
    def test_scalar_products_refuse_bools(self, operand, flag):
        with pytest.raises(ValueError, match=r'an int, Fraction or "p/q" string'):
            operand * flag
        with pytest.raises(ValueError, match=r'an int, Fraction or "p/q" string'):
            flag * operand
        assert operand.__mul__(0.5) is NotImplemented
        assert operand.__rmul__(0.5) is NotImplemented

    def test_exponent_notation_is_held_to_the_int_digit_limit(self):
        # Fraction("1e<k>") builds 10**k before any method reads it, so |k| is refused
        # past the digit limit Python puts on an int string, as int("1" * (limit + 1)) is
        limit = sys.get_int_max_str_digits()
        assert EgfSeries([0, 1, "1e3", "-15E-1"]).coeffs[2:] == (1000, Fraction(-3, 2))
        assert EgfSeries([0, f"1e{limit}", f"1e-{limit}"]).coeffs[1:] == (
            10**limit, Fraction(1, 10**limit))
        for bad in (f"1e{limit + 1}", f"1e-{limit + 1}", "1e1000000"):
            with pytest.raises(ValueError, match=r"bad coefficient .*\"p/q\" string"):
                EgfSeries([0, 1, bad])
            with pytest.raises(ValueError, match="bad coefficient"):
                MultiPoly.const(1, bad)

    def test_a_digit_limit_of_zero_leaves_the_exponent_unbounded(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert EgfSeries([0, "1e5000"]).coeffs[1] == 10**5000

    def test_a_fraction_coefficient_is_kept_as_it_is(self):
        # a Fraction is immutable and reduced, so a computed series is not rebuilt
        third = Fraction(1, 3)
        assert EgfSeries([0, third]).coeffs[1] is third
        assert EgfSeries([0, 2, "4/6"]).coeffs == (0, 2, Fraction(2, 3))

    @pytest.mark.parametrize("i", [2, -1])
    def test_variable_refuses_an_index_out_of_range(self, i):
        with pytest.raises(ValueError, match=rf"variable index must lie in 0\.\.1, got {i}"):
            MultiPoly.variable(2, i)
        assert MultiPoly.variable(2, 1) == MultiPoly(2, {(0, 1): 1})

    @pytest.mark.parametrize("alpha", [(True,), (1.0,), (-1,), (1, 0)])
    def test_refuses_bad_exponents(self, alpha):
        with pytest.raises(ValueError, match="bad exponent vector"):
            MultiPoly(1, {alpha: 2})

    # a packed (1,) would read the key of (1, 0); these all returned 0
    @pytest.mark.parametrize("alpha", [(1,), (1, 0, 0), (-1, 0), (True, 0), (1.0, 0)])
    def test_coefficient_checks_its_index(self, alpha):
        p = MultiPoly(2, {(1, 0): 3, (0, 0): 1})
        with pytest.raises(ValueError, match="bad exponent vector"):
            p.coefficient(alpha)
        assert p.coefficient([1, 0]) == 3 and p.coefficient((0, 1)) == 0


class TestExponentBound:
    """Exponents are packed into 32-bit fields whose top bit is a guard: every one is below 2**31."""

    def test_largest_exponent_is_accepted_and_the_next_refused(self):
        top = MultiPoly(2, {(2**31 - 1, 0): 1, (0, 2**31 - 1): -2})
        assert top.items() == [((2**31 - 1, 0), 1), ((0, 2**31 - 1), -2)]
        assert top.coefficient((0, 2**31 - 1)) == -2
        for alpha in [(2**31,), (2**32,), (2**40 + 1,)]:
            with pytest.raises(ValueError, match=r"below 2\*\*31"):
                MultiPoly(1, {alpha: 1})
            with pytest.raises(ValueError, match=r"below 2\*\*31"):
                MultiPoly.variable(1, 0).coefficient(alpha)
            with pytest.raises(ValueError, match=r"below 2\*\*31"):
                MultiPoly.variable(1, 0).partial(alpha)

    def test_product_reaching_the_bound_is_refused_not_carried(self):
        half = MultiPoly(2, {(2**30, 0): 1})
        # a carry out of the x1 field would have returned x2 here
        with pytest.raises(ValueError, match=r"2\*\*31, the bound"):
            half * half
        with pytest.raises(ValueError, match=r"2\*\*31, the bound"):
            MultiPoly(2, {(0, 2**31 - 1): 1, (0, 0): 1}) * MultiPoly.variable(2, 1)
        below = MultiPoly(2, {(2**30 - 1, 0): 1}) * half
        assert below.items() == [((2**31 - 1, 0), 1)]
        assert (half * MultiPoly(2, {(0, 2**31 - 1): 1})).items() == [((2**30, 2**31 - 1), 1)]

    @pytest.mark.parametrize("addends", [
        pytest.param(lambda half, y: [(half, half)], id="one-pair"),
        pytest.param(lambda half, y: [y, (half, half), y], id="between-plain-addends"),
        pytest.param(lambda half, y: [(half, half), (-half, half)], id="cancelled"),
        pytest.param(lambda half, y: [(y, y), (half, half * 2), (half * -2, half)],
                     id="cancelled-after-a-pair"),
    ])
    def test_a_summed_pair_reaching_the_bound_is_refused(self, addends):
        # the guard bits are read before zeros are dropped, so a cancelled overflow counts
        half, y = MultiPoly(2, {(2**30, 0): 1}), MultiPoly.variable(2, 1)
        with pytest.raises(ValueError, match=r"2\*\*31, the bound"):
            _sum(2, addends(half, y))
        below = _sum(2, [(MultiPoly(2, {(2**30 - 1, 0): 1}), half), y])
        assert below.items() == [((2**31 - 1, 0), 1), ((0, 1), 1)]

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=80)
    def test_partial_matches_tuple_oracle(self, data, n):
        # near-bound exponents in the polynomial; alpha stays small, since
        # the falling factorial of a near-bound alpha has billions of digits
        exponent = st.one_of(st.integers(0, 4), st.integers(2**31 - 3, 2**31 - 1))
        alpha = data.draw(st.tuples(*(st.integers(0, 4) for _ in range(n))))
        terms = data.draw(st.dictionaries(st.tuples(*(exponent for _ in range(n))),
                                          COEFFS, max_size=4))
        # the same exponent as alpha, except one entry one short of it
        for i in range(n):
            if alpha[i]:
                terms[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]] = Fraction(5, 3)
        p = MultiPoly(n, terms)
        expected = {}
        for gamma, c in p.items():
            if all(g >= a for g, a in zip(gamma, alpha)):
                for g, a in zip(gamma, alpha):
                    c *= math.perm(g, a)
                expected[tuple(g - a for g, a in zip(gamma, alpha))] = c
        assert dict(p.partial(alpha).items()) == expected

    def test_prop1_at_degree_20000_still_runs(self, capsys):
        assert main(["verify", "prop1", "--n", "1", "--degree", "20000", "--seed", "1"]) == 0
        assert capsys.readouterr().out.endswith("6/6 passed\n")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: MultiPoly(1, {5: 1}), id="constructor"),
    pytest.param(lambda: MultiPoly(1).partial(5), id="partial"),
    pytest.param(lambda: MultiPoly.variable(1, 0).coefficient(5), id="coefficient"),
])
def test_a_non_sequence_exponent_vector_is_refused_by_its_contract(call):
    # tuple(5) would leak Python's "'int' object is not iterable", which names no contract
    with pytest.raises(ValueError, match="5 for 1 variables: need a sequence of ints"):
        call()


def test_a_non_mapping_terms_argument_is_refused_by_its_contract():
    # (5).items() would leak Python's "'int' object has no attribute 'items'"
    with pytest.raises(ValueError, match="terms must be a mapping from exponent vectors to "
                       "coefficients, got 5"):
        MultiPoly(1, 5)


class TestRingProperties:
    @given(polys(), polys(), polys())
    @settings(max_examples=50)
    def test_add_associative_commutative(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p

    @given(polys(), polys(), polys())
    @settings(max_examples=40)
    def test_mul_associative_commutative(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p

    @given(polys(), polys(), polys())
    @settings(max_examples=40)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys(), polys())
    @settings(max_examples=40)
    def test_mul_matches_convolution_oracle(self, p, q):
        assert p * q == convolve_oracle(p, q)

    @given(polys())
    @settings(max_examples=40)
    def test_neg_and_scale(self, p):
        assert p + (-p) == MultiPoly.zero(p.n)
        assert Fraction(1, 2) * p + Fraction(1, 2) * p == p

    @given(polys())
    @settings(max_examples=40)
    def test_partials_commute(self, p):
        d12 = p.partial((1, 0)).partial((0, 1))
        d21 = p.partial((0, 1)).partial((1, 0))
        assert d12 == d21

    @given(polys(max_degree=4))
    @settings(max_examples=40)
    def test_partial_composes_additively(self, p):
        assert p.partial((1, 2)) == p.partial((0, 2)).partial((1, 0))

    @given(polys())
    @settings(max_examples=40)
    def test_partial_matches_termwise_oracle(self, p):
        alpha = (1, 2)
        expected = {}
        for gamma, c in p.items():
            if gamma[0] >= 1 and gamma[1] >= 2:
                k = math.perm(gamma[0], 1) * math.perm(gamma[1], 2)
                expected[(gamma[0] - 1, gamma[1] - 2)] = c * k
        assert dict(p.partial(alpha).items()) == expected
        assert reduced_fractions(p.partial(alpha))

    @given(polys(), polys())
    @settings(max_examples=40)
    def test_items_match_fraction_reference(self, p, q):
        total: dict = dict(p.items())
        for b, d in q.items():
            total[b] = total.get(b, Fraction(0)) + d
        assert dict((p + q).items()) == {a: c for a, c in total.items() if c}
        assert dict((p * q).items()) == convolve_terms(p, q)
        assert reduced_fractions(p + q) and reduced_fractions(p * q)

    @given(polys(), polys())
    @settings(max_examples=40)
    def test_equal_values_by_different_routes_are_equal_and_hash_alike(self, p, q):
        halved = (p * Fraction(1, 2)) * 2
        assert halved == p and hash(halved) == hash(p)
        round_trip = p + q - q
        assert round_trip == p and hash(round_trip) == hash(p)
        zero = p - p
        assert zero.is_zero()
        assert zero == MultiPoly.zero(p.n) and hash(zero) == hash(MultiPoly.zero(p.n))
        assert reduced_fractions(halved) and reduced_fractions(round_trip)

    @given(polys())
    @settings(max_examples=40)
    def test_canonical_idempotent(self, p):
        rebuilt = MultiPoly(p.n, dict(p.items()))
        assert rebuilt == p
        assert all(c != 0 for _, c in p.items())


def assert_unequal(a, b):
    """``a`` and ``b`` compare unequal both ways; copies built anew are equal and hash alike."""
    assert a != b and b != a and not a == b
    for x, y in [(a, 1 * a), (a, -(-a)), (b, 1 * b), (b, -(-b))]:
        assert x is not y and x == y and hash(x) == hash(y)


INT_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5).filter(bool), min_size=1, max_size=4,
)


class TestInequality:
    """Values that differ in one place compare unequal."""

    @given(INT_TERMS, st.sampled_from([7, 11, 13]))
    @settings(max_examples=40)
    def test_same_numerators_over_another_denominator(self, terms, k):
        p = MultiPoly(2, terms)
        q = p * Fraction(1, k)  # k is prime to every numerator, so only the denominator moves
        assert {a: c * k for a, c in q.items()} == dict(p.items())
        assert_unequal(p, q)
        x = MultiPoly.variable(2, 0)
        assert_unequal(x, x * Fraction(1, 2))

    @given(INT_TERMS, st.data())
    @settings(max_examples=40)
    def test_one_exponent_changed(self, terms, data):
        alpha = data.draw(st.sampled_from(sorted(terms)))
        beta = data.draw(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
            lambda b: b not in terms))
        moved = dict(terms)
        moved[beta] = moved.pop(alpha)
        assert_unequal(MultiPoly(2, terms), MultiPoly(2, moved))

    @given(INT_TERMS, st.data())
    @settings(max_examples=40)
    def test_one_numerator_changed(self, terms, data):
        alpha = data.draw(st.sampled_from(sorted(terms)))
        c = data.draw(st.integers(-6, 6).filter(lambda c: c and c != terms[alpha]))
        assert_unequal(MultiPoly(2, terms), MultiPoly(2, {**terms, alpha: c}))

    @pytest.mark.parametrize("n, other", [(1, 2), (2, 3)])
    def test_another_variable_count(self, n, other):
        assert_unequal(MultiPoly.zero(n), MultiPoly.zero(other))
        assert_unequal(MultiPoly.const(n, 1), MultiPoly.const(other, 1))
