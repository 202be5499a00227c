"""Property tests: promotion and the Galois maps commute with the ring operations,
every operation returns the canonical (den, nums) representation, and the
rational route of `approx_display` writes what the complex route writes.

Seeded through a derandomized hypothesis profile, so every run draws the
same examples.
"""

from fractions import Fraction

import cmath
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from contact_index.scalars import (CyclotomicNumber, ExactScalar, ScalarError,  # noqa: E402
                                   _euler_phi, approx_display)

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


GALOIS_LEVELS = (12, 20, 28, 44, 52, 60, 68)


@st.composite
def galois_case(draw):
    """(x, y, t, u, level): two numbers at `level` and two units mod `level`."""
    level = draw(st.sampled_from(GALOIS_LEVELS))
    units = st.integers(1, level - 1).filter(lambda t: math.gcd(t, level) == 1)
    return draw(at_level(level)), draw(at_level(level)), draw(units), draw(units), level


@DETERMINISTIC
@given(galois_case())
def test_galois_is_a_ring_homomorphism(case):
    x, y, t, _, _ = case
    assert (x * y).galois(t) == x.galois(t) * y.galois(t)
    assert (x + y).galois(t) == x.galois(t) + y.galois(t)


@DETERMINISTIC
@given(galois_case())
def test_galois_maps_compose_by_multiplying_exponents(case):
    x, _, t, u, level = case
    assert x.galois(t).galois(u) == x.galois(t * u % level)


@DETERMINISTIC
@given(galois_case())
def test_conjugation_is_galois_minus_one(case):
    x, _, _, _, _ = case
    assert x.galois(-1).complex_value() == pytest.approx(x.complex_value().conjugate())


@DETERMINISTIC
@given(galois_case())
def test_relative_trace_sums_the_maps_fixing_i(case):
    x, _, _, _, level = case
    trace = x.relative_trace(level)
    explicit = CyclotomicNumber(4, {})
    for t in range(1, level, 4):
        if math.gcd(t, level) == 1:
            explicit = explicit + x.galois(t)
    assert trace.level == 4
    assert trace == explicit


@st.composite
def invertible(draw, multipliers=(1,)):
    """(x, level): a nonzero number at one of `LEVELS` and a multiple of its level."""
    m = draw(st.sampled_from(LEVELS))
    x = draw(at_level(m).filter(lambda x: not x.is_zero()))
    return x, m * draw(st.sampled_from(multipliers))


@DETERMINISTIC
@given(invertible())
def test_inverse_times_self_is_one(case):
    x, _ = case
    assert x * x.inverse() == 1


@settings(DETERMINISTIC, max_examples=30)
@given(invertible(multipliers=(2, 3, 5, 11, 13)))
def test_inverse_forgets_promotion(case):
    x, level = case
    assert canonical(x.promote(level).inverse()) == canonical(x.inverse())


@DETERMINISTIC
@given(invertible(), st.data())
def test_inverse_commutes_with_galois(case, data):
    x, level = case
    t = data.draw(st.integers(1, level - 1).filter(lambda t: math.gcd(t, level) == 1))
    assert x.galois(t).inverse() == x.inverse().galois(t)


def test_zero_has_no_inverse():
    for level in LEVELS:
        with pytest.raises(ScalarError, match="division by zero"):
            CyclotomicNumber(level, {}).inverse()


def assert_canonical(v):
    """den >= 1, no zero numerator, gcd(den, *nums) == 1, and the public constructor agrees."""
    assert v.den >= 1
    assert all(v.nums.values())
    assert math.gcd(v.den, *v.nums.values()) == 1
    rebuilt = CyclotomicNumber(v.level, v.coeffs)
    assert (rebuilt.den, rebuilt.nums) == (v.den, v.nums)


@st.composite
def operands(draw):
    """(x, y, t, level): x at one of `LEVELS`, y at another, a unit t and a multiple of x's level."""
    m = draw(st.sampled_from(LEVELS))
    y = draw(at_level(draw(st.sampled_from(LEVELS))))
    t = draw(st.integers(1, m - 1).filter(lambda t: math.gcd(t, m) == 1))
    return draw(at_level(m)), y, t, m * draw(st.sampled_from(MULTIPLIERS))


@DETERMINISTIC
@given(operands())
def test_every_operation_returns_the_canonical_representation(case):
    x, y, t, level = case
    results = [x, x + y, x * y, -x, x.galois(t), x.promote(level), x.relative_trace(level),
               x.demote()]
    if not x.is_zero():
        results.append(x.inverse())
    for v in results:
        assert_canonical(v)


def complex_route(value, digits):
    """`approx_display` of the ExactScalar of `value` as it was written before its
    rational route: the complex value summed term by term through cmath."""
    x = ExactScalar.from_rational(value)
    z = sum(c / x.value.den * cmath.exp(2j * cmath.pi * e / x.value.level)
            for e, c in x.value.nums.items()) if x.value.nums else 0j
    z = z * math.pi ** x.pi
    re_s = f"{z.real:.{digits}f}".rstrip("0").rstrip(".") or "0"
    if abs(z.imag) < 10 ** (-digits - 6) * max(1.0, abs(z.real)):
        return re_s
    im_s = f"{abs(z.imag):.{digits}f}".rstrip("0").rstrip(".") or "0"
    sign = "+" if z.imag >= 0 else "-"
    return f"{re_s}{sign}{im_s}i"


wide_fractions = st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80),
                           st.one_of(st.just(1), st.integers(1, 2 ** 70)))


@settings(DETERMINISTIC, max_examples=300)
@given(wide_fractions, st.integers(0, 8))
@example(Fraction(0), 4)
@example(Fraction(-7, 3), 0)
@example(Fraction(2 ** 53 + 1), 4)
@example(Fraction(-(2 ** 60) - 3, 7), 8)
@example(Fraction(35059744171120209526176, 514710375938), 4)  # not float(n) / float(den)
def test_the_rational_route_of_approx_display_matches_the_complex_route(value, digits):
    want, x = complex_route(value, digits), ExactScalar.from_rational(value)
    assert approx_display(x, digits) == want
    assert approx_display(ExactScalar(0, x.value.promote(12)), digits) == want  # held at level 12
