"""Property tests: the two series power kernels agree, and `evaluate_series`
agrees with Horner's rule.

`forms._rational_power` raises a series over Q to any integer power in
Python integers (the Todd factor); `series_reference.series_power` runs the
same Miller recurrence over `ExactScalar` (the normal factor's reference,
see `test_normal_power_properties`).  Both are checked
against each other, against f^r f^-r = 1 and against repeated truncated
multiplication, by f itself or, for r < 0, by its inverse from the naive
recurrence.  `forms.evaluate_series` sums running powers of its nilpotent
argument and reads only the coefficients that can survive; the reference
here runs Horner's rule over every coefficient it is given.  Seeded through
a derandomized hypothesis profile, so every run draws the same examples.
"""

from fractions import Fraction
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from contact_index.forms import (FormElement, FormError, _rational_power,  # noqa: E402
                                 evaluate_series)
from contact_index.scalars import ExactScalar  # noqa: E402
from series_reference import series_power  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
exponents = st.integers(-5, 5)


@st.composite
def rational_series(draw):
    """A power series over Q with a nonzero constant term, 1 to 10 coefficients."""
    head = draw(fractions.filter(bool))
    return [head] + draw(st.lists(fractions, max_size=9))


def lift(coeffs):
    return [ExactScalar.from_rational(c) for c in coeffs]


def truncated_product(a, b):
    """Cauchy product of two series of equal length, truncated at that length."""
    return [sum((a[j] * b[n - j] for j in range(n + 1)), 0) for n in range(len(a))]


def unit(length):
    return [Fraction(1)] + [Fraction(0)] * (length - 1)


def naive_inverse(f):
    """1/f by solving f * g = 1 term by term."""
    g = [1 / f[0]]
    for n in range(1, len(f)):
        g.append(-sum(f[j] * g[n - j] for j in range(1, n + 1)) / f[0])
    return g


@DETERMINISTIC
@given(rational_series(), exponents)
def test_integer_kernel_agrees_with_the_cyclotomic_kernel(f, r):
    over_q = _rational_power(f, r)
    lifted = series_power(lift(f), r)
    assert len(over_q) == len(f)
    assert all(type(c) is Fraction for c in over_q)
    assert all(type(c) is ExactScalar for c in lifted)
    assert lifted == lift(over_q)


@DETERMINISTIC
@given(rational_series(), exponents)
def test_power_times_opposite_power_is_one(f, r):
    assert truncated_product(_rational_power(f, r), _rational_power(f, -r)) == unit(len(f))


@DETERMINISTIC
@given(rational_series(), exponents)
def test_power_equals_repeated_multiplication(f, r):
    inverse = naive_inverse(f)
    assert truncated_product(f, inverse) == unit(len(f))
    factor = f if r >= 0 else inverse
    expected = unit(len(f))
    for _ in range(abs(r)):
        expected = truncated_product(factor, expected)
    assert _rational_power(f, r) == expected


# -- evaluate_series against Horner's rule -----------------------------------

I = ExactScalar.i()
scalars = st.sampled_from([ExactScalar.zero(), ExactScalar.one(), ExactScalar.from_rational(-2),
                           ExactScalar.from_rational(Fraction(1, 3)), I, I * -3])


@st.composite
def nilpotent_forms(draw):
    """A form with no constant term: 1 or 2 generators, truncation 0-4, up to
    three generator monomials whose phi coefficients run to phi^0 or up to
    phi^4 (the form drops those past the truncation)."""
    gens = ("a", "b")[:draw(st.integers(1, 2))]
    truncation = draw(st.integers(0, 4))
    with_phi = draw(st.booleans())
    exps = [e for e in product(range(truncation + 1), repeat=len(gens)) if sum(e) <= truncation]
    terms = {}
    for exp in draw(st.lists(st.sampled_from(exps), max_size=3, unique=True)):
        coeffs = draw(st.lists(scalars, min_size=1, max_size=5 if with_phi else 1))
        if not any(exp):
            coeffs[0] = ExactScalar.zero()
        terms.update({exp + (f,): c for f, c in enumerate(coeffs)})
    return FormElement(gens, truncation, terms)


def horner(coeffs, element):
    """Horner's rule over every coefficient given, whatever vanishes."""
    one = FormElement.one(element.generators, element.truncation)
    acc = one * 0
    for c in reversed(coeffs):
        acc = acc * element + one * c
    return acc


@settings(DETERMINISTIC, max_examples=200)
@given(nilpotent_forms(), st.lists(st.sampled_from([0, 0, 1, -1, Fraction(1, 2), Fraction(-2, 3)]),
                                   min_size=11, max_size=11),
       st.integers(0, 2), st.booleans())
def test_power_sums_equal_horners_rule(element, raw, extra, exact):
    need = element.truncation + 1
    coeffs = lift(raw) if exact else [Fraction(c) for c in raw]
    assert evaluate_series(coeffs[:need + extra], element) == horner(coeffs[:need + extra],
                                                                     element)
    with pytest.raises(FormError, match=f"need {need} coefficients, got {need - 1}"):
        evaluate_series(coeffs[:need - 1], element)
