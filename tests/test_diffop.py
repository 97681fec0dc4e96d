"""The three operator products, their identities, and the chain constructions."""

import math
from functools import reduce
import operator
import sys
import threading
from fractions import Fraction
from itertools import combinations, islice, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opseries import (
    DiffOp,
    MultiPoly,
    bell_eval_bullet,
    bell_polynomial,
    diamond_chain,
    partition_operator,
    power_diamond,
    subset_operator,
    unit_op,
)

import opseries.diffop as diffop_module
import opseries.multipoly as multipoly_module
from opseries.diffop import _circ_powers, _diamond_powers, _sum
from opseries.verify import RandomSpec, random_op_list
from opseries.multipoly import _join_signed, _monomial_str
from test_multipoly import COEFFS, assert_unequal, convolve_terms, polys


def diffops(n=2, max_order=2, max_degree=2):
    betas = st.tuples(*(st.integers(0, max_order) for _ in range(n))).filter(
        lambda b: sum(b) <= max_order
    )
    return st.dictionaries(
        betas, polys(n, max_degree, max_terms=2), min_size=0, max_size=2
    ).map(lambda d: DiffOp(n, d))


def vector_fields(n=2, max_degree=2):
    return st.lists(
        polys(n, max_degree, max_terms=2), min_size=n, max_size=n
    ).map(DiffOp.vector_field)


def stirling_oracle(m, k):
    """Inclusion-exclusion count of surjections, divided by k! exactly."""
    if k == 0:
        return 1 if m == 0 else 0
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1))
    return total // math.factorial(k)


def leibniz_reference(x, y, gammas):
    """The products as first written, one generator pair at a time.

    For each pair of terms ``u d^alpha`` of x and ``v d^beta`` of y and each
    gamma in ``gammas(alpha)``, add ``C(alpha, gamma) u d^gamma(v)`` at the
    derivative index ``alpha + beta - gamma``, with plain tuple keys.
    """
    acc = {}
    for alpha, u in x.items():
        for beta, v in y.items():
            for gamma in gammas(alpha):
                w = math.prod(math.comb(a, g) for a, g in zip(alpha, gamma))
                key = tuple(a + b - g for a, b, g in zip(alpha, beta, gamma))
                acc[key] = acc.get(key, MultiPoly.zero(x.n)) + u * v.partial(gamma) * w
    return DiffOp(x.n, acc)


REFERENCE_GAMMAS = {
    "diamond": lambda alpha: product(*(range(a + 1) for a in alpha)),
    "circ": lambda alpha: [alpha],
    "bullet": lambda alpha: [(0,) * len(alpha)],
}


def xd():
    return DiffOp.single(MultiPoly.variable(1, 0), (1,))


def x1d1():
    return DiffOp.single(MultiPoly.variable(2, 0), (1, 0))


class TestUnit:
    def test_unit_diamond_identity(self):
        assert unit_op(2).diamond(x1d1()) == x1d1()
        assert x1d1().diamond(unit_op(2)) == x1d1()

    def test_unit_circ_left_identity(self):
        assert unit_op(2).circ(x1d1()) == x1d1()

    def test_circ_onto_unit_vanishes(self):
        assert x1d1().circ(unit_op(2)).is_zero()

    def test_unit_bullet_identity(self):
        assert unit_op(2).bullet(x1d1()) == x1d1()

    def test_apply_unit(self):
        p = MultiPoly(2, {(2, 1): Fraction(1, 2), (0, 0): 3})
        assert unit_op(2).apply(p) == p


class TestProducts:
    def test_diamond_generator_example(self):
        d1 = DiffOp(1, {(1,): MultiPoly.const(1, 1)})
        expected = d1 + DiffOp.single(MultiPoly.variable(1, 0), (2,))
        assert d1.diamond(xd()) == expected
        # semantic cross-check on monomials
        for k in range(4):
            p = MultiPoly(1, {(k,): 1})
            assert d1.diamond(xd()).apply(p) == d1.apply(xd().apply(p))

    def test_circ_examples(self):
        assert xd().circ(xd()) == xd()
        d1 = DiffOp(2, {(1, 0): MultiPoly.const(2, 1)})
        x2d2 = DiffOp.single(MultiPoly.variable(2, 1), (0, 1))
        assert d1.circ(x2d2).is_zero()

    def test_bullet_example(self):
        assert xd().bullet(xd()) == DiffOp(1, {(2,): MultiPoly(1, {(2,): 1})})

    def test_first_order_diamond_splits(self):
        u = DiffOp.vector_field(
            [MultiPoly(2, {(1, 0): 1, (0, 1): 2}), MultiPoly(2, {(0, 0): -1})]
        )
        y = DiffOp(2, {(1, 1): MultiPoly.variable(2, 0), (0, 1): MultiPoly.const(2, 3)})
        assert u.diamond(y) == u.circ(y) + u.bullet(y)

    @pytest.mark.parametrize("method, operand", [
        *((method, operand) for method in ("diamond", "circ", "bullet")
          for operand in (5, "x1", MultiPoly.variable(1, 0))),
        *(("apply", operand) for operand in (5, "x1", xd())),
    ])
    def test_a_wrong_operand_is_refused_by_type(self, method, operand):
        # it would fail deep inside with an AttributeError that names a private field
        expected = "MultiPoly" if method == "apply" else "DiffOp"
        message = f"{method} expects a {expected}, got {type(operand).__name__}"
        with pytest.raises(TypeError, match=message):
            getattr(xd(), method)(operand)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: DiffOp.single(5, (1,)), "single expects a MultiPoly", id="single"),
        pytest.param(lambda: partition_operator([5], [[1]]), "an operator list expects a DiffOp",
                     id="partition_operator"),
        pytest.param(lambda: diamond_chain([xd(), 5], [1, 2]),
                     "an operator list expects a DiffOp", id="diamond_chain"),
        pytest.param(lambda: power_diamond(5, 2), "power_diamond expects a DiffOp",
                     id="power_diamond"),
        pytest.param(lambda: bell_eval_bullet(2, 5), "bell_eval_bullet expects a DiffOp",
                     id="bell_eval_bullet"),
    ])
    def test_a_non_operator_argument_is_refused_by_type(self, call, message):
        # each would fail with an AttributeError on an attribute of the int
        with pytest.raises(TypeError, match=f"{message}, got int"):
            call()

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: DiffOp(1, {5: 1}), "bad derivative multi-index 5 for 1 variables: "
                     "need a sequence of ints", id="constructor"),
        pytest.param(lambda: DiffOp.single(MultiPoly.const(1, 1), 5),
                     "bad derivative multi-index 5 for 1 variables", id="single"),
        pytest.param(lambda: xd().coefficient(5), "bad derivative multi-index 5 for 1 variables",
                     id="coefficient"),
        pytest.param(lambda: DiffOp.vector_field(5),
                     "vector_field expects a sequence of coefficients, got 5", id="vector_field"),
    ])
    def test_a_non_sequence_index_or_coefficient_list_is_refused(self, call, message):
        # each would leak Python's own TypeError, which names no contract
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: partition_operator(5, [[1]]),
                     "operator list must be a non-empty sequence of operators, got 5",
                     id="partition_operator"),
        pytest.param(lambda: diamond_chain(5, [1]),
                     "operator list must be a non-empty sequence of operators, got 5",
                     id="diamond_chain"),
        pytest.param(lambda: DiffOp(1, 5), "terms must be a mapping from derivative "
                     "multi-indices to coefficients, got 5", id="constructor"),
    ])
    def test_a_non_sequence_operator_list_or_non_mapping_terms_is_refused(self, call, message):
        # enumerate(5) and (5).items() would leak Python's own TypeError and AttributeError
        with pytest.raises(ValueError, match=message):
            call()

    def test_apply_scales_monomial(self):
        p = MultiPoly(1, {(2,): 1})
        assert xd().apply(p) == 2 * p

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            xd().diamond(x1d1())
        with pytest.raises(ValueError):
            xd().apply(MultiPoly.variable(2, 0))
        with pytest.raises(ValueError, match="variable-count mismatch: 1 vs 2"):
            DiffOp.vector_field([MultiPoly.variable(2, 0)])
        with pytest.raises(ValueError, match="variable count must be positive"):
            DiffOp.vector_field([])

    @pytest.mark.parametrize("bad", [0.5, True])
    def test_refuses_float_and_bool_coefficients(self, bad):
        with pytest.raises(ValueError, match=r'an int, Fraction or "p/q" string'):
            DiffOp(1, {(1,): bad})

    @pytest.mark.parametrize("beta", [(True,), (1.0,), (-1,)])
    def test_refuses_bad_derivative_indices(self, beta):
        with pytest.raises(ValueError, match="bad derivative multi-index"):
            DiffOp(1, {beta: 1})
        with pytest.raises(ValueError, match="bad derivative multi-index"):
            MultiPoly(1, {(2,): 1}).partial(beta)

    @pytest.mark.parametrize("beta", [(1,), (-1, 0), (True, False), (1.0, 0), (2**31, 0)])
    def test_coefficient_refuses_what_the_constructor_refuses(self, beta):
        # one index contract: a key no operator can hold is an error, not a zero coefficient
        op = DiffOp(2, {(1, 0): 3, (0, 1): 5})
        with pytest.raises(ValueError, match="bad derivative multi-index"):
            op.coefficient(beta)
        with pytest.raises(ValueError, match="bad derivative multi-index"):
            DiffOp(2, {beta: 1})
        assert op.coefficient([1, 0]) == MultiPoly.const(2, 3)

    def test_refuses_derivative_indices_beyond_the_exponent_bound(self):
        with pytest.raises(ValueError, match=r"every entry must be below 2\*\*31"):
            DiffOp(1, {(2**31,): 1})
        assert DiffOp(1, {(2**31 - 1,): 1}).orders() == {2**31 - 1}

    @pytest.mark.parametrize(
        "operation",
        [DiffOp.diamond, DiffOp.circ, DiffOp.bullet, operator.add, operator.sub,
         lambda a, b: -a, lambda a, b: 2 * a],
        ids=["diamond", "circ", "bullet", "add", "sub", "neg", "scale"],
    )
    def test_results_skip_the_public_constructor(self, monkeypatch, operation):
        # operands are checked once, when built; their results are not checked again
        x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        a = DiffOp(2, {(1, 0): x2, (0, 2): MultiPoly.const(2, "1/2")})
        b = DiffOp(2, {(0, 1): x1 * x2, (1, 1): -x1, (0, 0): 3})
        expected = operation(a, b)

        def refuse(self, *args):
            raise AssertionError("an operation result went through DiffOp.__init__")

        monkeypatch.setattr(DiffOp, "__init__", refuse)
        assert operation(a, b) == expected

    def test_zero_is_first_order(self):
        assert DiffOp.zero(2).is_first_order()
        assert DiffOp.zero(2).orders() == frozenset()

    def test_rendering(self):
        op = xd() + xd().bullet(xd())
        assert str(op) == "x1^2*d1^2 + x1*d1"
        assert str(unit_op(2)) == "1"
        assert str(DiffOp.zero(1)) == "0"
        x1 = MultiPoly.variable(1, 0)
        assert str(DiffOp.single(-x1, (1,))) == "-x1*d1"
        assert str(DiffOp(1, {(2,): Fraction(1, 2)})) == "1/2*d1^2"
        assert str(DiffOp(1, {(0,): -1})) == "-1"
        assert str(DiffOp.single(x1 + MultiPoly.const(1, 1), (1,))) == "(x1 + 1)*d1"
        # a multi-term coefficient is parenthesised and never signed as a whole
        two = MultiPoly(2, {(1, 0): -1, (0, 0): -2})
        op = DiffOp(2, {(0, 1): two, (0, 0): two, (1, 1): Fraction(-3, 4)})
        assert str(op) == "-3/4*d1*d2 + (-x1 - 2)*d2 + (-x1 - 2)"


def symbol_reference(n, terms):
    """The symbol as first built: one MultiPoly in 2n variables from (*alpha, *beta) keys."""
    return MultiPoly(2 * n, {
        (*alpha, *beta): c
        for beta, u in terms.items()
        for alpha, c in (u if isinstance(u, MultiPoly) else MultiPoly.const(n, u)).items()
    })


class TestConstructor:
    """Each coefficient becomes one piece of the symbol, shifted by xi^beta."""

    @given(
        st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.dictionaries(
            st.tuples(*(st.integers(0, 3) for _ in range(n))),
            polys(n, 2, max_terms=3) | st.sampled_from([0, Fraction(-2, 3), "5/7"]),
            max_size=3,
        )))
    )
    def test_symbol_matches_the_reference_and_items_rebuild_the_operator(self, case):
        n, terms = case
        op = DiffOp(n, terms)
        assert op._sym == symbol_reference(n, terms)
        assert DiffOp(n, dict(op.items())) == op

    def test_coefficients_over_different_denominators_and_a_zero(self):
        x = MultiPoly.variable(1, 0)
        terms = {(2,): x * Fraction(1, 2), (1,): MultiPoly.const(1, "2/3"),
                 (0,): MultiPoly.zero(1), (3,): x * x * Fraction(-5, 4)}
        op = DiffOp(1, terms)
        assert op._sym == symbol_reference(1, terms)
        assert op._sym._den == 12
        assert [beta for beta, _ in op.items()] == [(3,), (2,), (1,)]
        assert op.coefficient((0,)).is_zero()
        assert op.coefficient((2,)) == x * Fraction(1, 2)

    def test_sums_its_pieces_without_a_polynomial_sum(self, monkeypatch):
        # each piece u_beta xi^beta lands in one numerator map: an add per piece would copy
        # the running sum, which is quadratic in the number of derivative indices
        x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        terms = {(1, 0): x1 * Fraction(1, 6), (0, 1): x2 * Fraction(-3, 4), (2, 1): "2/9",
                 (0, 0): x1 * x2 + x1, (3, 0): MultiPoly.zero(2)}
        expected = symbol_reference(2, terms)

        def refuse(self, other):
            raise AssertionError("DiffOp.__init__ summed its pieces with MultiPoly.__add__")

        monkeypatch.setattr(MultiPoly, "__add__", refuse)
        op = DiffOp(2, terms)
        assert op._sym == expected and op._sym._den == 36
        assert DiffOp(2).is_zero()

    def test_checks_each_derivative_index_once_and_no_symbol_term(self, monkeypatch):
        x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        terms = {(1, 0): x1 * x2 + x1 * Fraction(1, 3), (0, 2): x2 * x2 - x1, (0, 0): x1}
        calls = []
        for module in (multipoly_module, diffop_module):
            original = module._check_exponents

            def counted(alpha, n, what, original=original):
                calls.append(what)
                return original(alpha, n, what)

            monkeypatch.setattr(module, "_check_exponents", counted)
        op = DiffOp(2, terms)
        assert calls == ["derivative multi-index"] * len(terms)
        assert op._sym == symbol_reference(2, terms)


class TestAgainstTheGeneratorSum:
    """The symbol kernel against the per-generator Leibniz sum it replaced."""

    @pytest.mark.parametrize("name", list(REFERENCE_GAMMAS))
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(diffops(n, max_order=3), diffops(n, max_order=3))
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_order_products(self, name, pair):
        x, y = pair
        assert getattr(x, name)(y) == leibniz_reference(x, y, REFERENCE_GAMMAS[name])

    def test_a_derivative_order_of_2_31_is_refused(self):
        # the symbol keeps derivative orders in guarded fields, as MultiPoly keeps exponents
        x1 = MultiPoly.variable(1, 0)
        big = DiffOp(1, {(2**30,): x1})
        bound = r"product has an exponent of at least 2\*\*31, the bound"
        with pytest.raises(ValueError, match=bound):
            big.bullet(big)
        with pytest.raises(ValueError, match=bound):
            big.diamond(big)
        below = DiffOp(1, {(2**30 - 1,): 1})
        assert big.bullet(below) == DiffOp(1, {(2**31 - 1,): x1})

    def test_diamond_takes_no_gamma_beyond_the_right_degree(self):
        # d^(2^30) <> x d has only the gammas 0 and 1: d^gamma(x) is zero beyond them
        x1 = MultiPoly.variable(1, 0)
        high = DiffOp(1, {(2**30,): 1})
        assert high.diamond(xd()) == DiffOp(1, {(2**30 + 1,): x1, (2**30,): 2**30})
        assert high.circ(xd()).is_zero()


def per_pair_kernel(x, y, name):
    """The symbol kernel as it was before columns were kept and merged.

    One multiply per (group alpha of x, gamma) pair, each ``d_x^gamma`` of
    y's symbol formed afresh for every product.
    """
    n, w = x.n, multipoly_module.W
    den, zeros, mask = y._sym._den, (0,) * n, (1 << (w * n)) - 1
    top = (0,) * n
    for key in y._sym._nums:
        top = tuple(map(max, top, multipoly_module._unpack(key & mask, n)))
    groups = {}
    for key, c in x._sym._nums.items():
        groups.setdefault(key >> (w * n), {})[key] = c
    derivatives, out = {}, {}
    for a, terms in groups.items():
        alpha = multipoly_module._unpack(a, n)
        bound = tuple(map(min, alpha, top))
        gammas = [alpha] if name == "circ" else product(*(range(e + 1) for e in bound))
        for gamma in gammas:
            if gamma not in derivatives:
                right = y._sym.partial(gamma + zeros)
                k, xi = den // right._den, multipoly_module._pack(gamma) << (w * n)
                derivatives[gamma] = {key - xi: c * k for key, c in right._nums.items()}
            cols = derivatives[gamma]
            if cols:
                weight = multipoly_module.index_binomial(alpha, gamma)
                weighted = {key: c * weight for key, c in cols.items()}
                out = multipoly_module._mul_into(out, terms, weighted)
    symbol = multipoly_module._product_result(2 * n, out, x._sym._den * den)
    return DiffOp._of_symbol(n, symbol)


def fresh(op):
    """The same operator built again through the public constructor, with empty caches."""
    return DiffOp(op.n, dict(op.items()))


class TestKeptColumns:
    """Each operator keeps its groups and its Leibniz columns; nothing else sees them."""

    @pytest.mark.parametrize("name", ["diamond", "circ"])
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(mixed_ops(n, 3), mixed_ops(n, 3))))
    @settings(max_examples=80, deadline=None)
    def test_equals_the_per_pair_kernel(self, name, pair):
        x, y = pair
        expected = per_pair_kernel(x, y, name)
        assert getattr(x, name)(y) == expected
        # again, now that y's columns and x's groups are kept
        assert getattr(x, name)(y) == expected
        assert getattr(fresh(x), name)(y) == expected

    @given(st.integers(1, 3).flatmap(
        lambda n: st.tuples(mixed_ops(n, 3), mixed_ops(n, 3), mixed_polys(n))))
    @settings(max_examples=60, deadline=None)
    def test_caches_change_no_equality_hash_string_or_items(self, ops):
        x, y, p = ops
        assume(not x.is_zero() and not y.is_zero())  # a zero operator has nothing to keep
        seen = [(op, hash(op), str(op), op.items()) for op in (x, y)]
        for left, right in ((x, y), (y, x), (x, x)):
            left.diamond(right), left.circ(right), left.bullet(right)
        x.apply(p), x.coefficient((0,) * x.n), y.orders()
        for op, h, text, items in seen:
            assert op._split is not None and op._columns is not None  # the caches were used
            copy = fresh(op)
            assert copy._split is None and copy._columns is None
            assert op == copy and copy == op
            assert hash(op) == hash(copy) == h
            assert str(op) == str(copy) == text
            assert op.items() == copy.items() == items

    @pytest.mark.parametrize("name", ["diamond", "circ", "bullet"])
    def test_a_result_starts_with_empty_caches(self, name):
        x = DiffOp(2, {(1, 0): MultiPoly.variable(2, 1), (0, 2): 3})
        y = DiffOp(2, {(0, 1): MultiPoly.variable(2, 0), (1, 1): "1/2"})
        x.orders(), y.diamond(x)  # x's groups and columns are kept
        out = getattr(x, name)(y)
        assert out._split is None and out._columns is None
        assert out._sym is not x._sym and out._sym is not y._sym

    @pytest.mark.parametrize("name", ["diamond", "circ"])
    def test_a_product_reads_kept_groups_and_keeps_none_it_made(self, name, monkeypatch):
        # a diamond power's left operand is a fresh result used once: its groups kept
        # through the product's reduction would raise the peak memory
        x = DiffOp(2, {(1, 0): MultiPoly.variable(2, 1), (0, 2): 3})
        y = DiffOp(2, {(0, 1): MultiPoly.variable(2, 0), (1, 1): "1/2"})
        expected = getattr(x, name)(y)
        assert x._split is None and y._split is None
        kept = x._groups()
        monkeypatch.setattr(DiffOp, "_split_terms", lambda op: pytest.fail("split again"))
        assert getattr(x, name)(y) == expected
        assert x._split is kept

    def test_the_63_blocks_at_m_6_form_each_column_once(self, monkeypatch):
        # a block is the right operand of every L_j o with j above its labels: its d_x^g is
        # formed by one partial however many circs read it
        ops = random_op_list(RandomSpec(seed=1), 6)
        calls, kept = [], []
        partial = MultiPoly.partial

        def counted(poly, alpha):
            calls.append((id(poly), tuple(alpha)))
            kept.append(poly)  # no id is reused while the pin runs
            return partial(poly, alpha)

        monkeypatch.setattr(MultiPoly, "partial", counted)
        memo = {}
        for size in range(1, 7):
            for labels in combinations(range(1, 7), size):
                diffop_module._block(ops, labels, memo)
        assert len(memo) == 63
        # each block below the full set is read by a circ (the 32 blocks holding 6 are not),
        # each through the two columns d_x1 and d_x2 of a vector field's groups
        assert len(calls) == len(set(calls)) == 31 * 2

    def test_threads_sharing_operands_fill_each_cache_with_its_one_value(self):
        # operators are shared freely across threads: a cache that two threads fill at once
        # may cost the work twice, never a value. Each round starts the threads together on
        # operands whose caches are empty
        ops = random_op_list(RandomSpec(seed=3, n=3), 2)
        expected = (fresh(ops[0]).circ(fresh(ops[1])), fresh(ops[1]).diamond(fresh(ops[0])))
        rounds = [[fresh(op) for op in ops] for _ in range(40)]
        barrier = threading.Barrier(6, timeout=60)
        results = [[] for _ in range(6)]

        def work(out):
            for x, y in rounds:
                barrier.wait()
                out.append((x.circ(y), y.diamond(x)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(out == [expected] * len(rounds) for out in results)

    def test_circ_reads_its_kept_column_with_no_weight(self, monkeypatch):
        # circ's one gamma per group is alpha itself, whose (alpha choose alpha) is 1
        x = DiffOp(2, {(1, 0): MultiPoly.variable(2, 1), (0, 2): 3})
        y = DiffOp(2, {(0, 0): MultiPoly.variable(2, 0) * MultiPoly.variable(2, 1)})
        expected = per_pair_kernel(x, y, "circ")
        monkeypatch.setattr(diffop_module, "index_binomial",
                            lambda *args: pytest.fail("a weight was formed"))
        assert x.circ(y) == expected


# denominators 1, 2, 3 and 6, so that a later addend's need not divide the running one
MIXED = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(1, 3),
                         Fraction(-2, 3), Fraction(-5, 6), Fraction(4)])


def mixed_polys(n):
    """Polynomials of up to three terms over mixed denominators (zero included)."""
    return st.dictionaries(
        st.tuples(*(st.integers(0, 2) for _ in range(n))), MIXED, max_size=3
    ).map(lambda d: MultiPoly(n, d))


def mixed_ops(n, max_order=2):
    """Operators whose coefficients have up to three terms over mixed denominators."""
    betas = st.tuples(*(st.integers(0, max_order) for _ in range(n)))
    return st.dictionaries(betas, mixed_polys(n), max_size=3).map(lambda d: DiffOp(n, d))


def plain_or_pair(addend):
    """A summand as plain addend or factor pair: ``x`` or ``(x, y)``."""
    return st.one_of(addend, st.tuples(addend, addend))


def factors_of(addends):
    return [f for a in addends for f in (a if isinstance(a, tuple) else (a,))]


class TestStreamedSum:
    """_sum, one numerator map over a running denominator: its denominator and refusals.

    Its terms are checked against Fraction-level sums in TestSumsAgainstFractions.
    """

    @given(st.integers(1, 2).flatmap(lambda n: st.lists(mixed_ops(n), min_size=1, max_size=4)))
    @settings(max_examples=40)
    def test_an_operator_and_its_negation_cancel_to_zero_over_one(self, ops):
        total = _sum(ops[0].n, ops + [-op for op in reversed(ops)])
        assert total == DiffOp.zero(ops[0].n) and total._sym._den == 1

    def test_a_denominator_that_does_not_divide_the_running_one_rescales_it(self):
        x1 = MultiPoly.variable(1, 0)
        half, third = DiffOp(1, {(1,): x1 * Fraction(1, 2)}), DiffOp(1, {(0,): "-2/3"})
        total = _sum(1, [half, third, DiffOp(1, {(1,): x1 * Fraction(1, 2), (0,): 1})])
        assert total == DiffOp(1, {(1,): x1, (0,): Fraction(1, 3)})
        assert total._sym._den == 3 and str(total) == "x1*d1 + 1/3"

    def test_cancellation_to_zero(self):
        x = DiffOp(1, {(1,): MultiPoly(1, {(1,): "1/3", (0,): -1}), (0,): "-2/3"})
        total = _sum(1, [x, -x])
        assert total.is_zero() and total._sym._den == 1 and str(total) == "0"
        assert _sum(2, []) == DiffOp.zero(2)

    def test_refuses_another_variable_count(self):
        with pytest.raises(ValueError, match="variable-count mismatch"):
            _sum(2, [unit_op(2), unit_op(1)])


def fraction_sum(terms):
    """The sum of (key, Fraction) pairs, zeros dropped: no numerator map, no running den."""
    total = {}
    for key, c in terms:
        total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if c}


def op_terms(op, scale=1):
    """An operator's ((beta, alpha), Fraction) pairs, read through its public items()."""
    return [((beta, alpha), scale * c) for beta, u in op.items() for alpha, c in u.items()]


def op_product_terms(x, y):
    """The bullet product's ((beta, alpha), Fraction) pairs: indices add, coefficients multiply."""
    return [((tuple(map(operator.add, b, b2)), tuple(map(operator.add, a, a2))), c * d)
            for (b, a), c in op_terms(x) for (b2, a2), d in op_terms(y)]


def op_of_terms(n, terms):
    by_beta = {}
    for (beta, alpha), c in terms.items():
        by_beta.setdefault(beta, {})[alpha] = c
    return DiffOp(n, {beta: MultiPoly(n, coeffs) for beta, coeffs in by_beta.items()})


class TestSumsAgainstFractions:
    """Every sum of the package, which runs multipoly._sum, against Fraction-level sums."""

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(polys(n), min_size=1, max_size=5)))
    @settings(max_examples=80)
    def test_polynomial_sums(self, ps):
        n = ps[0].n
        before = [(dict(p._nums), p._den) for p in ps]
        expected = fraction_sum(term for p in ps for term in p.items())
        for total in multipoly_module._sum(n, iter(ps)), reduce(MultiPoly.__add__, ps):
            assert dict(total.items()) == expected and total == MultiPoly(n, expected)
        assert [(p._nums, p._den) for p in ps] == before  # no addend changes, the first included

    @given(st.integers(1, 2).flatmap(lambda n: st.lists(mixed_ops(n), min_size=1, max_size=6)))
    @settings(max_examples=60)
    def test_operator_sums(self, ops):
        n = ops[0].n
        before = [(dict(op._sym._nums), op._sym._den) for op in ops]
        expected = fraction_sum(term for op in ops for term in op_terms(op))
        total = _sum(n, iter(ops))
        assert dict(op_terms(total)) == expected and total == op_of_terms(n, expected)
        assert [(op._sym._nums, op._sym._den) for op in ops] == before

    @given(st.integers(1, 3).flatmap(
        lambda n: st.lists(plain_or_pair(mixed_polys(n)), min_size=1, max_size=5)))
    @settings(max_examples=80)
    def test_polynomial_sums_of_plain_addends_and_factor_pairs(self, addends):
        # a pair (p, q) stands for p * q, multiply-accumulated into the running map
        n = factors_of(addends)[0].n
        before = [(dict(f._nums), f._den) for f in factors_of(addends)]
        expected = fraction_sum(
            term for a in addends
            for term in (convolve_terms(*a).items() if isinstance(a, tuple) else a.items())
        )
        total = multipoly_module._sum(n, iter(addends))
        assert dict(total.items()) == expected and total == MultiPoly(n, expected)
        assert [(f._nums, f._den) for f in factors_of(addends)] == before  # no factor changes

    @given(st.integers(1, 2).flatmap(
        lambda n: st.lists(plain_or_pair(mixed_ops(n)), min_size=1, max_size=5)))
    @settings(max_examples=60)
    def test_operator_sums_of_plain_addends_and_bullet_pairs(self, addends):
        # a pair (X, Y) stands for X . Y
        n = factors_of(addends)[0].n
        before = [(dict(f._sym._nums), f._sym._den) for f in factors_of(addends)]
        expected = fraction_sum(
            term for a in addends
            for term in (op_product_terms(*a) if isinstance(a, tuple) else op_terms(a))
        )
        total = _sum(n, iter(addends))
        assert dict(op_terms(total)) == expected and total == op_of_terms(n, expected)
        assert [(f._sym._nums, f._sym._den) for f in factors_of(addends)] == before

    def test_a_pair_takes_the_factor_of_the_running_denominator(self):
        # over the running denominator 6, the pair x * x/2 (over 2) is scaled by 3, x * 3x
        # (over 1) by 6, and x * x/4 grows the denominator to 12 and is scaled by 1
        x = MultiPoly.variable(1, 0)
        addends = [x * Fraction(1, 6), (x, x * Fraction(1, 2)), (x * 3, x), (x, x * Fraction(1, 4))]
        total = multipoly_module._sum(1, addends)
        assert total == MultiPoly(1, {(1,): Fraction(1, 6), (2,): Fraction(15, 4)})
        assert total._den == 12

    def test_a_zero_factor_adds_nothing(self):
        x, zero = MultiPoly.variable(2, 0), MultiPoly.zero(2)
        third = x * Fraction(1, 3)
        assert multipoly_module._sum(2, [(zero, third)]) == zero
        assert multipoly_module._sum(2, [(zero, third)])._den == 1
        assert multipoly_module._sum(2, [(zero, x), third, (third, zero)]) == third
        op = DiffOp.vector_field([x, third])
        assert _sum(2, [(op, DiffOp.zero(2)), op, (DiffOp.zero(2), op)]) == op

    @given(st.integers(1, 2).flatmap(lambda n: st.tuples(st.integers(1, 6), vector_fields(n, 1))))
    @settings(max_examples=20)
    def test_bell_eval_bullet(self, case):
        # each monomial a bullet product of the generators op^(i-1) o op, the count applied
        # to the product's Fractions and every term summed as a Fraction
        m, op = case
        before = (dict(op._sym._nums), op._sym._den)
        generators = [power_diamond(op, i).circ(op) for i in range(m)]
        expected = fraction_sum(
            term for part, count in bell_polynomial(m).terms.items()
            for term in op_terms(reduce(DiffOp.bullet, [
                g for g, mult in zip(generators, part.multiplicities) for _ in range(mult)
            ]), count)
        )
        total = bell_eval_bullet(m, op)
        assert dict(op_terms(total)) == expected and total == op_of_terms(op.n, expected)
        assert (op._sym._nums, op._sym._den) == before


def fraction_term_reference(c, factors):
    """The term format as first written: one reduced Fraction per term."""
    mag = abs(c)
    if not factors:
        return c < 0, str(mag)
    return c < 0, factors if mag == 1 else f"{mag}*{factors}"


def poly_str_reference(p):
    """MultiPoly rendering as first written, from items()."""
    return _join_signed([fraction_term_reference(c, _monomial_str(a)) for a, c in p.items()])


def op_str_reference(op):
    """DiffOp rendering as first written, one reduced coefficient polynomial per index."""
    parts = []
    for beta, u in op.items():
        if len(terms := u.items()) == 1:
            ((alpha, c),) = terms
            mono = _monomial_str(alpha)
        else:
            c, mono = 1, f"({poly_str_reference(u)})"
        dpart = _monomial_str(beta, "d")
        parts.append(fraction_term_reference(c, f"{mono}*{dpart}" if mono and dpart else
                                             mono or dpart))
    return _join_signed(parts)


class TestRenderingFromNumerators:
    """str() read straight from the numerators against the items()-based renderer."""

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(mixed_ops(n), mixed_ops(n))))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_items_renderer(self, pair):
        x, y = pair
        # the bullet product and the sum put terms over denominators they do not need,
        # which the renderer must reduce term by term
        for op in (x, y, x.bullet(y), x + y, -x, DiffOp.zero(x.n), unit_op(x.n)):
            assert str(op) == op_str_reference(op)
            for _, u in op.items():
                assert str(u) == poly_str_reference(u)

    def test_unit_negative_and_fractional_coefficients(self):
        x1, x2, one = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1), MultiPoly.const(2, 1)
        op = DiffOp(2, {(0, 0): x1 * Fraction(-1, 2) + one, (1, 0): -x1 * x2, (0, 2): "-3/4",
                        (2, 0): x2 * x2 * 4 - x1})
        assert str(op) == op_str_reference(op) == (
            "(4*x2^2 - x1)*d1^2 - 3/4*d2^2 - x1*x2*d1 + (-1/2*x1 + 1)")
        third = op * Fraction(1, 3)
        assert str(third) == op_str_reference(third)

    def test_x_monomials_repeated_across_derivative_indices(self):
        # each distinct x-monomial is rendered once per call and reused in every coefficient
        x1, x2, one = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1), MultiPoly.const(2, 1)
        shared = x1 * x1 * x2 - x1 * Fraction(2, 3) + one
        op = DiffOp(2, {(0, 0): shared, (1, 0): shared * Fraction(-3, 4) + x2,
                        (0, 1): x1 * x1 * x2, (2, 1): x2 * x1 * 5 - x1, (1, 1): x1 * Fraction(1, 6)})
        assert str(op) == op_str_reference(op) == (
            "(5*x1*x2 - x1)*d1^2*d2 + 1/6*x1*d1*d2 + (-3/4*x1^2*x2 + 1/2*x1 + x2 - 3/4)*d1"
            " + x1^2*x2*d2 + (x1^2*x2 - 2/3*x1 + 1)")
        scaled = op * Fraction(2, 7)
        assert str(scaled) == op_str_reference(scaled) == (
            "(10/7*x1*x2 - 2/7*x1)*d1^2*d2 + 1/21*x1*d1*d2"
            " + (-3/14*x1^2*x2 + 1/7*x1 + 2/7*x2 - 3/14)*d1 + 2/7*x1^2*x2*d2"
            " + (2/7*x1^2*x2 - 4/21*x1 + 2/7)")


class TestInequality:
    """Operators that differ in one place compare unequal."""

    @given(diffops(), st.data(), st.sampled_from([2, -1, Fraction(1, 3)]))
    @settings(max_examples=40)
    def test_one_coefficient_changed(self, op, data, k):
        terms = dict(op.items())
        if not terms:
            terms = {(1, 0): MultiPoly.variable(2, 1)}
            op = DiffOp(2, terms)
        beta = data.draw(st.sampled_from(sorted(terms)))
        assert_unequal(op, DiffOp(2, {**terms, beta: terms[beta] * k}))
        assert_unequal(x1d1(), 2 * x1d1())

    @pytest.mark.parametrize("n, other", [(1, 2), (2, 3)])
    def test_another_variable_count(self, n, other):
        assert_unequal(DiffOp.zero(n), DiffOp.zero(other))
        assert_unequal(unit_op(n), unit_op(other))


class TestProductProperties:
    @given(diffops(), diffops(), polys(2, 2, 3))
    @settings(max_examples=40, deadline=None)
    def test_diamond_is_composition_of_actions(self, x, y, p):
        assert x.diamond(y).apply(p) == x.apply(y.apply(p))

    @given(diffops(n=2, max_order=3), polys(2, 3, 4))
    @settings(max_examples=60, deadline=None)
    def test_apply_is_the_pairwise_sum(self, x, p):
        # the one numerator map against sum_beta u_beta * d^beta(p), added pairwise
        expected = reduce(operator.add, (u * p.partial(beta) for beta, u in x.items()),
                          MultiPoly.zero(2))
        assert x.apply(p) == expected

    @given(diffops(), diffops())
    @settings(max_examples=40, deadline=None)
    def test_bullet_commutes(self, x, y):
        assert x.bullet(y) == y.bullet(x)

    @given(vector_fields(), diffops())
    @settings(max_examples=40, deadline=None)
    def test_first_order_split(self, u, y):
        assert u.diamond(y) == u.circ(y) + u.bullet(y)

    @given(diffops(), diffops())
    @settings(max_examples=60, deadline=None)
    def test_diamond_order_grading(self, x, y):
        product = x.diamond(y)
        if x.is_zero() or y.is_zero():
            assert product.is_zero()
            return
        bound = max(x.orders()) + max(y.orders())
        assert all(k <= bound for k in product.orders())

    @given(st.integers(0, 2), st.integers(0, 2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bullet_order_grading(self, j, k, data):
        x = data.draw(diffops(max_order=j).filter(lambda o: o.orders() == {j}))
        y = data.draw(diffops(max_order=k).filter(lambda o: o.orders() == {k}))
        product = x.bullet(y)
        assert product.orders() <= {j + k}


class TestChains:
    def make_ops(self, m=3):
        # fixed generic first-order operators in two variables
        ops = []
        for k in range(1, m + 1):
            u = MultiPoly(2, {(1, 0): k, (0, 1): Fraction(1, k)})
            v = MultiPoly(2, {(0, 0): -k, (1, 1): 1})
            ops.append(DiffOp.vector_field([u, v]))
        return ops

    def test_singleton_chain(self):
        ops = self.make_ops()
        assert diamond_chain(ops, {2}) == ops[1]

    def test_pair_chain_order(self):
        ops = self.make_ops()
        assert diamond_chain(ops, {1, 2}) == ops[1].diamond(ops[0])

    def test_chain_all_xd(self):
        ops = [xd(), xd(), xd()]
        result = diamond_chain(ops, {1, 2, 3})
        expected = DiffOp(
            1, {(k,): MultiPoly(1, {(k,): stirling_oracle(3, k)}) for k in (1, 2, 3)}
        )
        assert result == expected

    def test_subset_operator_singleton(self):
        ops = self.make_ops()
        assert subset_operator(ops, {3}) == ops[2]

    def test_subset_operator_pair(self):
        ops = self.make_ops()
        assert subset_operator(ops, {1, 2}) == ops[1].circ(ops[0])

    def test_subset_operator_triple(self):
        ops = self.make_ops()
        expected = ops[2].diamond(ops[1]).circ(ops[0])
        assert subset_operator(ops, {1, 2, 3}) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(vector_fields(), min_size=2, max_size=5))
    def test_every_block_matches_its_definition(self, ops):
        # the block is built from circs alone; its definition is a diamond chain circ L_min
        for size in range(2, len(ops) + 1):
            for picked in combinations(range(1, len(ops) + 1), size):
                expected = diamond_chain(ops, picked[1:]).circ(ops[picked[0] - 1])
                assert subset_operator(ops, picked) == expected

    @settings(max_examples=60, deadline=None)
    @given(vector_fields())
    def test_circ_powers_match_their_definition(self, op):
        # G_i = op o G_(i-1) is op^(i-1) o op, whose powers are diamond powers
        expected = [p.circ(op) for p in islice(_diamond_powers(op), 6)]
        assert list(islice(_circ_powers(op), 6)) == expected

    def test_partition_operator_blocks(self):
        ops = self.make_ops()
        l1, l2, l3 = ops
        assert partition_operator(ops, [{1}, {2}, {3}]) == l3.bullet(l2).bullet(l1)
        assert partition_operator(ops, [{1, 3}, {2}]) == l2.bullet(l3.circ(l1))
        assert partition_operator(ops, [{1, 2, 3}]) == l3.diamond(l2).circ(l1)

    def test_five_term_expansion(self):
        ops = self.make_ops()
        l1, l2, l3 = ops
        total = (
            l3.bullet(l2).bullet(l1)
            + l3.bullet(l2.circ(l1))
            + l2.bullet(l3.circ(l1))
            + l3.circ(l2).bullet(l1)
            + l3.diamond(l2).circ(l1)
        )
        assert l3.diamond(l2).diamond(l1) == total

    def test_power_diamond(self):
        assert power_diamond(xd(), 0) == unit_op(1)
        assert power_diamond(xd(), 2) == xd() + DiffOp(1, {(2,): MultiPoly(1, {(2,): 1})})
        expected = DiffOp(
            1, {(k,): MultiPoly(1, {(k,): stirling_oracle(4, k)}) for k in range(1, 5)}
        )
        assert power_diamond(xd(), 4) == expected

    def test_chain_errors(self):
        ops = self.make_ops()
        with pytest.raises(ValueError):
            diamond_chain(ops, set())
        with pytest.raises(ValueError):
            diamond_chain(ops, {0, 1})
        with pytest.raises(ValueError):
            diamond_chain(ops, {4})
        for build in (diamond_chain, subset_operator):
            for indices in ([1.5], ["1"], [True], [1, 2.0]):
                with pytest.raises(ValueError, match="indices must be integers"):
                    build(ops, indices)
        with pytest.raises(ValueError):
            partition_operator(ops, [{1, 2}])  # misses 3
        with pytest.raises(ValueError):
            partition_operator(ops, [{1, 2}, {2, 3}])  # overlap
        second_order = DiffOp(2, {(1, 1): MultiPoly.const(2, 1)})
        with pytest.raises(ValueError):
            diamond_chain([second_order], {1})

    @pytest.mark.parametrize("build", [diamond_chain, subset_operator])
    @pytest.mark.parametrize("indices, label", [([1, 1, 2], 1), ((2, 2), 2), ([3, 1, 3], 3)])
    def test_repeated_label_is_refused_not_dropped(self, build, indices, label):
        with pytest.raises(ValueError, match=f"index {label} is repeated"):
            build(self.make_ops(), indices)
