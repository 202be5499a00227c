"""sympy as an independent reference for the exact kernels.

The cyclotomic polynomials, inversion in Q(zeta_L), the Todd series and
its powers, and the normal-factor series are each compared with sympy's own
construction: `cyclotomic_poly`, `invert` modulo Phi_L over QQ, and
power-series arithmetic over QQ (`ring_series`).  sympy is in the `test` extra, so CI
runs this file; it is skipped where sympy is not installed.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.ring_series import rs_exp, rs_pow, rs_series, rs_series_inversion  # noqa: E402

from contact_index.forms import (_normal_determinant, _rational_power,  # noqa: E402
                                 _series_power, _todd_quotient)
from contact_index.scalars import (CyclotomicNumber, _euler_phi,  # noqa: E402
                                   cyclotomic_polynomial)

X = sympy.Symbol("x")
INVERSE_LEVELS = (12, 20, 44, 52, 68)
TERMS = 30


def todd_series(length, direction):
    """Taylor coefficients of x/(1-e^-x) ("plus") or x/(e^x-1) ("minus")."""
    return _rational_power(_todd_quotient(length, direction), -1)


def normal_factor_series(eigenvalue, length):
    """Taylor coefficients of (1 - lambda e^t)^-1 for lambda != 1."""
    return _series_power(_normal_determinant(eigenvalue, length), -1)


def _ascending(series, length):
    """The first `length` coefficients in x of a sympy polynomial or ring element, ascending."""
    poly = sympy.Poly(series.as_expr(), X)
    return [Fraction(str(poly.coeff_monomial(X ** j))) for j in range(length)]


def test_cyclotomic_polynomials():
    for n in range(1, 121):
        want = sympy.cyclotomic_poly(n, X, polys=True).all_coeffs()[::-1]
        assert list(cyclotomic_polynomial(n)) == [int(c) for c in want], n


def _elements(level, rng):
    """Two dense numbers and two of the form 1 - lambda, lambda != 1 a root of unity."""
    phi = _euler_phi(level)
    for _ in range(2):
        yield CyclotomicNumber(level, {e: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
                                       for e in range(phi)})
    for k in rng.sample(range(1, level), 2):
        yield CyclotomicNumber.from_rational(1, level) - CyclotomicNumber.zeta(level, k)


@pytest.mark.parametrize("level", INVERSE_LEVELS)
def test_inverse_equals_sympy_invert_modulo_phi(level):
    rng = random.Random(level)
    modulus = sympy.cyclotomic_poly(level, X, polys=True).set_domain(sympy.QQ)
    for x in _elements(level, rng):
        coeffs = x.promote(level).coeffs
        f = sympy.Poly.from_dict({(e,): sympy.Rational(c.numerator, c.denominator)
                                  for e, c in coeffs.items()}, X, domain=sympy.QQ)
        want = _ascending(sympy.invert(f, modulus), _euler_phi(level))
        got = x.inverse().promote(level).coeffs
        assert [got.get(e, 0) for e in range(_euler_phi(level))] == want


def _ring():
    return sympy.polys.rings.ring("x", sympy.QQ)


def test_todd_series_plus_is_x_over_one_minus_exp_minus_x():
    _, x = _ring()
    series = rs_series_inversion((1 - rs_exp(-x, x, TERMS + 1)).exquo(x), x, TERMS)
    assert todd_series(TERMS, "plus") == _ascending(series, TERMS)


def test_todd_series_minus_is_x_over_exp_x_minus_one():
    _, x = _ring()
    series = rs_series_inversion((rs_exp(x, x, TERMS + 1) - 1).exquo(x), x, TERMS)
    assert todd_series(TERMS, "minus") == _ascending(series, TERMS)


@pytest.mark.parametrize("r", [-3, 2, 5, 13, 21])
def test_todd_power_is_sympys_power_of_x_over_one_minus_exp_minus_x(r):
    _, x = _ring()
    series = rs_pow(rs_series_inversion((1 - rs_exp(-x, x, TERMS + 1)).exquo(x), x, TERMS),
                    r, x, TERMS)
    assert _rational_power(_todd_quotient(TERMS, "plus"), -r) == _ascending(series, TERMS)


def test_normal_factor_at_minus_one_is_one_over_one_plus_exp():
    series = rs_series(1 / (1 + sympy.exp(X)), X, TERMS)
    got = [c.rational_value() for c in normal_factor_series(-1, TERMS)]
    assert got == _ascending(series, TERMS)
