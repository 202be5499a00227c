"""Property tests: promotion to a larger level commutes with the ring operations.

Seeded through a derandomized hypothesis profile, so every run draws the
same examples.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from contact_index.scalars import CyclotomicNumber, _euler_phi  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=80)

LEVELS = (4, 12, 20, 44, 52, 60)
MULTIPLIERS = (1, 2, 3, 5, 11, 13)

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def at_level(draw, level):
    exponents = st.integers(0, _euler_phi(level) - 1)
    return CyclotomicNumber(level, draw(st.dictionaries(exponents, fractions, max_size=6)))


@st.composite
def pair_and_level(draw):
    m = draw(st.sampled_from(LEVELS))
    return draw(at_level(m)), draw(at_level(m)), m * draw(st.sampled_from(MULTIPLIERS))


def canonical(x):
    d = x.demote()
    return d.level, d.coeffs


@DETERMINISTIC
@given(pair_and_level())
def test_demotion_forgets_promotion(case):
    x, _, level = case
    assert canonical(x.promote(level)) == canonical(x)


@DETERMINISTIC
@given(pair_and_level())
def test_promotion_is_a_ring_homomorphism(case):
    x, y, level = case
    up_x, up_y = x.promote(level), y.promote(level)
    assert (x * y).promote(level) == up_x * up_y
    assert (x + y).promote(level) == up_x + up_y
    assert canonical(x * y) == canonical(up_x * up_y)
    assert canonical(x + y) == canonical(up_x + up_y)
