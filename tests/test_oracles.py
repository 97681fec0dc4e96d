"""Reversion and operator action checked against sympy, outside the package.

``rs_series_reversion`` is the oracle for the four inverse methods,
``rs_series_from_list`` the oracle for :meth:`EgfSeries.compose`,
``rs_series_inversion``, ``rs_log`` and ``rs_exp`` the oracles for
:meth:`EgfSeries.reciprocal`, ``ln`` and ``exp``, and ``sympy.diff`` the
oracle for :meth:`DiffOp.apply`.  The module is skipped
when sympy is not installed; it is declared in the ``test`` extra.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.domains import QQ  # noqa: E402
from sympy.polys.ring_series import (  # noqa: E402
    rs_exp,
    rs_log,
    rs_series_from_list,
    rs_series_inversion,
    rs_series_reversion,
)
from sympy.polys.rings import ring  # noqa: E402

from opseries import (  # noqa: E402
    EgfSeries,
    MultiPoly,
    RandomSpec,
    classical_inverse,
    log_form_inverse,
    newton_inverse,
    operator_inverse,
    random_diffop,
    random_invertible_series,
)


def sympy_inverse(f, order):
    """The egf coefficients of the reversion of f, computed by sympy over QQ."""
    R, x, y = ring("x, y", QQ)
    p = R.zero
    for m, c in enumerate(f.coeffs[: order + 1]):
        p += QQ(c.numerator, c.denominator * math.factorial(m)) * x**m
    g = rs_series_reversion(p, x, order + 1, y)
    coeffs = [0]
    for m in range(1, order + 1):
        c = g.coeff(y**m)
        coeffs.append(Fraction(c.numerator, c.denominator) * math.factorial(m))
    return EgfSeries(coeffs)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reversion_matches_sympy(seed):
    order = 8
    f = random_invertible_series(RandomSpec(seed=seed), order + 1)
    expected = sympy_inverse(f, order)
    for method in (classical_inverse, operator_inverse, log_form_inverse, newton_inverse):
        assert method(f, order) == expected, method.__name__


def mixed_series(seed, order):
    """An invertible series with lead -3/2 and coefficients over 9 and 4.

    Its numerators over one denominator have a lead other than +-1, so the
    scaling of ``newton_inverse`` and the divisions of ``classical_inverse``
    by the leading coefficient of ``x/f`` are not exact by accident.
    """
    rng = random.Random(seed)
    tail = [Fraction(rng.randint(-9, 9), rng.choice([9, 4])) for _ in range(order - 1)]
    return EgfSeries([0, Fraction(-3, 2)] + tail)


@pytest.mark.parametrize("seed", [1, 2])
def test_reversion_with_a_rational_lead_matches_sympy_at_order_20(seed):
    order = 20
    f = mixed_series(seed, order + 1)
    expected = sympy_inverse(f, order)
    assert expected[1] == Fraction(-2, 3)
    for method in (classical_inverse, operator_inverse, log_form_inverse, newton_inverse):
        assert method(f, order) == expected, method.__name__


def to_sympy(p, xs):
    expr = sympy.Integer(0)
    for alpha, c in p.items():
        expr += sympy.Rational(c.numerator, c.denominator) * sympy.Mul(
            *(x**e for x, e in zip(xs, alpha))
        )
    return expr


def seeded_poly(rng, n, degree):
    monomials = [a for a in product(range(degree + 1), repeat=n) if sum(a) <= degree]
    chosen = rng.sample(monomials, min(4, len(monomials)))
    return MultiPoly(n, {a: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for a in chosen})


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_matches_sympy_diff(seed, n):
    op = random_diffop(RandomSpec(seed=seed, n=n), max_order=3)
    p = seeded_poly(random.Random(seed), n, 4)
    xs = sympy.symbols(f"x1:{n + 1}")
    expected = sympy.Integer(0)
    for beta, u in op.items():
        dp = to_sympy(p, xs)
        for x, e in zip(xs, beta):
            dp = sympy.diff(dp, x, e)
        expected += to_sympy(u, xs) * dp
    assert sympy.expand(to_sympy(op.apply(p), xs) - expected) == 0


R1, X1 = ring("x", QQ)


def ordinary(f):
    """The series f as an element of sympy's QQ[x], with ordinary coefficients."""
    return sum((QQ(c.numerator, c.denominator * math.factorial(m)) * X1**m
                for m, c in enumerate(f.coeffs)), R1.zero)


def egf_from_ring(h, order):
    """The egf coefficients 0..order of an element of QQ[x]."""
    coeffs = []
    for m in range(order + 1):
        q = h.coeff(X1**m)
        coeffs.append(Fraction(q.numerator, q.denominator) * math.factorial(m))
    return EgfSeries(coeffs)


def sympy_compose(outer, inner):
    """The egf coefficients of outer(inner), by sympy's ``sum c_k p^k`` over QQ."""
    upto = min(outer.order, inner.order)
    c = [QQ(a.numerator, a.denominator * math.factorial(k)) for k, a in enumerate(outer.coeffs)]
    return egf_from_ring(rs_series_from_list(ordinary(inner), c, X1, upto + 1), upto)


POOL = [0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)]

# outer order, inner order, outer coefficients pinned by index
COMPOSE_SHAPES = {
    "a0-nonzero": (8, 8, {0: 3}),
    "a1-zero": (8, 8, {0: 0, 1: 0}),
    "interior-zeros": (10, 10, {2: 0, 3: 0, 5: 0, 6: 0, 7: 0}),
    "outer-shorter": (5, 9, {}),
    "inner-shorter": (11, 6, {}),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("shape", COMPOSE_SHAPES)
def test_compose_matches_sympy(shape, seed):
    outer_order, inner_order, pinned = COMPOSE_SHAPES[shape]
    rng = random.Random(f"{shape}:{seed}")
    a = [pinned.get(k, rng.choice(POOL)) for k in range(outer_order + 1)]
    b = [0] + [rng.choice(POOL) for _ in range(inner_order)]
    outer, inner = EgfSeries(a), EgfSeries(b)
    assert outer.compose(inner) == sympy_compose(outer, inner)


@pytest.mark.parametrize("seed", [1, 2])
def test_compose_with_a_fractional_inner_series_matches_sympy_at_order_16(seed):
    # mixed denominators on both sides, so each row k of the power table sits over d^k
    outer = mixed_series(seed, 16)
    inner = mixed_series(seed + 10, 16)
    assert any(c.denominator == 9 for c in inner.coeffs)
    assert outer.compose(inner) == sympy_compose(outer, inner)
    assert inner.compose(outer) == sympy_compose(inner, outer)


@pytest.mark.parametrize("seed", [1, 2])
def test_newton_reversion_matches_sympy_at_order_24(seed):
    order = 24
    f = random_invertible_series(RandomSpec(seed=seed), order)
    assert newton_inverse(f, order) == sympy_inverse(f, order)


@pytest.mark.parametrize("seed", [1, 2])
def test_reciprocal_ln_exp_with_a_rational_lead_match_sympy_at_order_24(seed):
    # a lead other than +-1 over 7 and coefficients over 9 and 4, so no power of the
    # lead or of the common denominator cancels by accident
    order = 24
    tail = mixed_series(seed, order).coeffs[1:]
    unit, nonunit = EgfSeries([1, *tail]), EgfSeries([Fraction(-3, 7), *tail])
    exponent = mixed_series(seed, order)
    assert nonunit.reciprocal() == egf_from_ring(
        rs_series_inversion(ordinary(nonunit), X1, order + 1), order)
    assert unit.ln() == egf_from_ring(rs_log(ordinary(unit), X1, order + 1), order)
    assert exponent.exp() == egf_from_ring(rs_exp(ordinary(exponent), X1, order + 1), order)
