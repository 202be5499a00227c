"""Test-only route to the inverse normal determinant: J.C.P. Miller's recurrence.

The library writes (1 - lambda e^x)^-r in closed form (`forms._normal_power`,
Bernoulli polynomials summed against the powers of lambda).  This module keeps
the long way round as the reference it is checked against: the Taylor series
of 1 - lambda e^x over `CyclotomicNumber`, raised to the power -r by Miller's
recurrence, which divides by its constant term 1 - lambda through
`CyclotomicNumber.inverse`.
"""

import math
from fractions import Fraction

from contact_index.forms import _EIGENVALUE_ONE, FormError
from contact_index.scalars import CyclotomicNumber, _coerce


def eigenvalue(exponent):
    """The torsion eigenvalue e^(2 pi i exponent) of a root, at its canonical level."""
    f = Fraction(exponent) % 1
    return CyclotomicNumber.root_of_unity(f.numerator, f.denominator)


def normal_determinant(eigenvalue, length):
    """Taylor coefficients of 1 - lambda e^t for lambda != 1, as `CyclotomicNumber`s."""
    lam = _coerce(eigenvalue)
    head = CyclotomicNumber.from_rational(1) - lam
    if head.is_zero():
        raise FormError(_EIGENVALUE_ONE)
    return [head] + [-(lam * Fraction(1, math.factorial(n))) for n in range(1, length)]


def series_power(coeffs, r):
    """The r-th power, r any integer, of a series of `CyclotomicNumber`s with invertible f_0.

    J.C.P. Miller's recurrence: g_0 = f_0^r and, skipping zero terms,
    g_n = (1 / (n f_0)) sum_{k=1..n} ((r+1) k - n) f_k g_{n-k},
    truncated at the length of the input; r = -1 is the inverse.
    """
    f0, inv0 = coeffs[0], coeffs[0].inverse()
    base = f0 if r > 0 else inv0
    g0 = base if r else CyclotomicNumber.from_rational(1)
    for _ in range(abs(r) - 1):
        g0 = g0 * base
    out = [g0]
    for n in range(1, len(coeffs)):
        acc = 0
        for k in range(1, n + 1):
            weight = (r + 1) * k - n
            if weight and coeffs[k]:
                acc = acc + coeffs[k] * out[n - k] * weight
        out.append(acc * inv0 * Fraction(1, n))
    return out


def normal_power(exponent, r, length):
    """The first `length` coefficients of (1 - lambda e^x)^-r by Miller's recurrence."""
    return series_power(normal_determinant(eigenvalue(exponent), length), -r)


def normal_factor_series(eigenvalue, length):
    """Taylor coefficients of (1 - lambda e^t)^-1 for lambda != 1."""
    return series_power(normal_determinant(eigenvalue, length), -1)
