"""Property tests: the closed-form normal factor equals Miller's recurrence.

`forms._normal_power(exponent, r, length)` writes (1 - lambda e^x)^-r, lambda =
e^(2 pi i exponent), from one integer polynomial summed against the powers of
lambda.  `series_reference.normal_power` raises the Taylor series of
1 - lambda e^x to the power -r by Miller's recurrence, dividing by 1 - lambda
through `CyclotomicNumber.inverse`.  Both must give the same canonical scalars:
equal level, denominator, numerators and pi-grade, coefficient by coefficient.
Seeded through a derandomized hypothesis profile, so every run draws the same
examples.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from contact_index.forms import _EIGENVALUE_ONE, FormError, _normal_power  # noqa: E402
from series_reference import normal_power  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def exponents(draw):
    """u/q, not an integer, with 2 <= q <= 120, shifted by an integer from -2 to 2."""
    q = draw(st.integers(2, 120))
    u = draw(st.integers(1, q - 1).filter(lambda u: Fraction(u, q).denominator > 1))
    return Fraction(u, q) + draw(st.integers(-2, 2))


def canonical(series):
    return [(c.pi, c.value.level, c.value.den, c.value.nums) for c in series]


@DETERMINISTIC
@given(exponents(), st.integers(-3, 4), st.integers(1, 8))
@example(Fraction(1, 2), 1, 3)
@example(Fraction(1, 3), 2, 4)
@example(Fraction(5, 12), 3, 5)
@example(Fraction(7, 840), 1, 2)
def test_closed_form_equals_millers_recurrence(exponent, r, length):
    got = _normal_power(exponent, r, length)
    assert len(got) == length
    assert canonical(got) == canonical(normal_power(exponent, r, length))


@pytest.mark.parametrize("exponent", [0, 1, -2])
@pytest.mark.parametrize("r", [-1, 0, 1, 3])
def test_an_integer_exponent_is_a_fixed_set_mismatch(exponent, r):
    # lambda = 1: the direction is tangential, whatever the power
    with pytest.raises(FormError) as info:
        _normal_power(exponent, r, 3)
    assert str(info.value) == _EIGENVALUE_ONE
