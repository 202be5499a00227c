"""Property tests: the series kernels give the same values over Q and over
the cyclotomic scalars.

`forms._series_invert` and `forms._series_power` are one code path for both
number types: the Todd series runs them over `Fraction`, the normal factor
over `ExactScalar`.  Seeded through a derandomized hypothesis profile, so
every run draws the same examples.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from contact_index.forms import _series_invert, _series_power  # noqa: E402
from contact_index.scalars import ExactScalar  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


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


@DETERMINISTIC
@given(rational_series())
def test_inverse_agrees_over_q_and_the_cyclotomic_scalars(f):
    over_q = _series_invert(f)
    lifted = _series_invert(lift(f))
    assert all(type(c) is Fraction for c in over_q)
    assert all(type(c) is ExactScalar for c in lifted)
    assert lifted == lift(over_q)
    assert truncated_product(f, over_q) == unit(len(f))
    assert truncated_product(lift(f), lifted) == lift(unit(len(f)))


@DETERMINISTIC
@given(rational_series(), st.integers(0, 5))
def test_power_agrees_over_q_and_the_cyclotomic_scalars(f, r):
    over_q = _series_power(f, r)
    lifted = _series_power(lift(f), r)
    assert all(type(c) is Fraction for c in over_q)
    assert all(type(c) is ExactScalar for c in lifted)
    assert lifted == lift(over_q)
    expected = unit(len(f))
    for _ in range(r):
        expected = truncated_product(f, expected)
    assert over_q == expected
