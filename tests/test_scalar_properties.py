"""Property tests: promotion and the Galois maps commute with the ring operations,
every operation returns the canonical (den, nums) representation, the
level-4 (Gaussian rational) branch returns what the general route does, a
product whose slots are set directly is what the checked constructor builds, the
rational route of `approx_display` writes what the complex route writes, and
its e notation past double range keeps every value a double holds as it was.

Seeded through a derandomized hypothesis profile, so every run draws the
same examples.
"""

from collections import Counter
from fractions import Fraction

import cmath
import math
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from contact_index import scalars  # noqa: E402
from contact_index.scalars import (CyclotomicNumber, ExactScalar, ScalarError,  # noqa: E402
                                   _euler_phi, _integer, _trace_table, _units_over_qi,
                                   approx_display)

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


# p^2 | L (72), p dividing L once with phi(L/p) < p (44), and p dividing L once
# with phi(L/p) >= p, where the value is split along zeta_p (60, 420, 660, 1020)
DESCENT_LEVELS = (72, 44, 60, 420, 660, 1020)


@st.composite
def descent_case(draw):
    """A number at one of `DESCENT_LEVELS` made from one or two subfield values, not demoted,
    and in half the draws moved off its subfield by a root of unity."""
    level = draw(st.sampled_from(DESCENT_LEVELS))
    subfields = [m for m in range(4, level + 1, 4) if level % m == 0]
    coeffs = {}
    for m in draw(st.lists(st.sampled_from(subfields), min_size=1, max_size=2)):
        for e, c in draw(at_level(m)).promote(level).coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c
    x = CyclotomicNumber(level, coeffs)
    if draw(st.booleans()):
        x = (x * CyclotomicNumber.zeta(level, draw(st.integers(1, level - 1)))).promote(level)
    return x


@settings(DETERMINISTIC, max_examples=60)
@given(descent_case())
@example(CyclotomicNumber.root_of_unity(1, 5).promote(60))
@example(CyclotomicNumber.root_of_unity(1, 3).promote(72))
@example(CyclotomicNumber.zeta(1020, 255))
def test_demotion_stops_at_the_smallest_level(x):
    # Q(zeta_m) inside Q(zeta_L) is the field fixed by the units t = 1 mod m; only
    # `galois` and `==` decide it, and neither demotes
    d = x.demote().level
    units = [t for t in range(1, x.level) if math.gcd(t, x.level) == 1]
    assert all(x.galois(t) == x for t in units if t % d == 1)
    for p in (p for p in range(2, d) if d % (4 * p) == 0 and all(p % q for q in range(2, p))):
        assert any(x.galois(t) != x for t in units if t % (d // p) == 1), (x.level, d, p)


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


@pytest.mark.parametrize("level", (*LEVELS, 1020))
def test_trace_table_rows_sum_the_maps_fixing_i(level):
    """Row e is the sum of zeta^e's images zeta^(e t) over the units t = 1 mod 4, every
    image folded on its own: no row is shared."""
    units = _units_over_qi(level)
    sub, rows = _trace_table(level, units)
    assert sub == 4 and len(rows) == level
    powers = [CyclotomicNumber.zeta(level, k).nums for k in range(level)]
    for e in range(level):
        explicit = Counter()
        for t in units:
            explicit.update(powers[e * t % level])
        assert CyclotomicNumber(4, dict(rows[e])) == CyclotomicNumber(level, explicit), e


def test_the_image_of_a_power_of_zeta_is_its_power():
    for level in LEVELS:
        for t in _units_over_qi(level):
            assert all(CyclotomicNumber.zeta(level, e).galois(t) ==
                       CyclotomicNumber.zeta(level, e * t) for e in range(level))


@pytest.mark.parametrize("level", (*LEVELS, 1020))
def test_trace_table_of_the_map_one_holds_the_powers_of_zeta(level):
    sub, rows = _trace_table(level, (1,))
    assert sub == level and len(rows) == level
    for e in range(level):
        assert CyclotomicNumber(level, dict(rows[e])) == CyclotomicNumber.zeta(level, e), e


def test_trace_table_maps_are_a_group_of_units():
    with pytest.raises(ScalarError, match="3 is not coprime to the level 12"):
        _trace_table(12, (1, 3))
    with pytest.raises(ScalarError, match="not a group of units mod 40"):
        _trace_table(40, (1, 9, 13, 17))  # the units over Q(i) mod 20, not closed mod 40


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


@st.composite
def scaling_case(draw):
    """(x, n): x at a level 4..840, demoted, moved off its subfield by a root of unity
    or promoted back to that level, and n an int or a Fraction."""
    level = 4 * draw(st.integers(1, 210))
    x = draw(at_level(level)).demote()
    how = draw(st.sampled_from(("demoted", "moved", "promoted")))
    if how == "moved":
        x = x * CyclotomicNumber.zeta(level, draw(st.integers(1, level - 1)))
    elif how == "promoted":
        x = x.promote(level)
    n = draw(st.one_of(st.integers(-10 ** 6, 10 ** 6), fractions))
    return ExactScalar(draw(st.integers(-3, 3)), x), n


def parts(s):
    return s.pi, s.value.level, s.value.den, s.value.nums


@DETERMINISTIC
@given(scaling_case())
@example((ExactScalar(2, CyclotomicNumber.zeta(840, 7)), 0))
@example((ExactScalar(-1, CyclotomicNumber.zeta(60, 12).promote(840)), -1))
@example((ExactScalar.zero(), Fraction(-3, 7)))
def test_a_rational_factor_scales_as_the_cyclotomic_product_does(case):
    # the int/Fraction route of ExactScalar.__mul__ skips the product, not the demotion
    x, n = case
    assert parts(x * n) == parts(n * x) == parts(x * ExactScalar.from_rational(n))


@st.composite
def graded_pair(draw):
    """Two scalars of grades -3..3 at a level 4..60 or a multiple, either possibly zero,
    one of them promoted off its canonical level, and an int or Fraction factor."""
    x, y, level = draw(pair_and_level())
    x, y = x.demote(), y.promote(level)
    n = draw(st.one_of(st.integers(-10 ** 6, 10 ** 6), fractions))
    return ExactScalar(draw(st.integers(-3, 3)), x), ExactScalar(draw(st.integers(-3, 3)), y), n


@DETERMINISTIC
@given(graded_pair())
@example((ExactScalar(1, CyclotomicNumber.zeta(12, 1)),
          ExactScalar(-1, CyclotomicNumber.zeta(12, 3)), 2))
@example((ExactScalar(2, CyclotomicNumber.zeta(4, 1)), ExactScalar.zero(), Fraction(-1, 3)))
@example((ExactScalar(0, CyclotomicNumber.zeta(60, 5)),
          ExactScalar(3, CyclotomicNumber.zeta(60, 55)), 0))
def test_a_product_is_what_the_checked_constructor_builds(case):
    # ExactScalar.__mul__ sets the slots of a nonzero product directly, past __init__
    x, y, n = case
    for got, want in ((x * y, ExactScalar(x.pi + y.pi, x.value * y.value)),
                      (y * x, ExactScalar(x.pi + y.pi, y.value * x.value)),
                      (x * n, ExactScalar(x.pi, x.value * CyclotomicNumber.from_rational(n))),
                      (y * n, ExactScalar(y.pi, y.value * CyclotomicNumber.from_rational(n)))):
        assert type(got) is ExactScalar and type(got.pi) is int
        assert parts(got) == parts(want)


wide_ints = st.one_of(st.integers(-2 ** 80, 2 ** 80), st.sampled_from((0, 1, -1)))


@st.composite
def gaussian(draw):
    """(a + b i) / den at level 4: large and negative numerators, zero parts, zero."""
    den = draw(st.one_of(st.just(1), st.integers(1, 2 ** 70)))
    return CyclotomicNumber(4, {0: Fraction(draw(wide_ints), den),
                                1: Fraction(draw(wide_ints), den)})


@st.composite
def gaussian_pair(draw):
    """Two Gaussian rationals, the second drawn on its own or cancelling the first: -x
    (sum zero), the conjugate (product real), minus the conjugate (sum imaginary), or i
    times the conjugate (product imaginary)."""
    x = draw(gaussian())
    pair = draw(st.sampled_from((lambda x: draw(gaussian()), lambda x: -x,
                                 lambda x: x.galois(-1), lambda x: -x.galois(-1),
                                 lambda x: x.galois(-1) * CyclotomicNumber.zeta(4, 1))))
    return x, pair(x)


def cyclotomic_parts(x):
    return x.level, x.den, x.nums


def at_twelve(op, x, y):
    """The general route: both operands promoted to level 12, combined there, demoted."""
    return op(x.promote(12), y.promote(12)).demote()


@settings(DETERMINISTIC, max_examples=100)
@given(gaussian_pair())
@example((CyclotomicNumber(4, {}), CyclotomicNumber(4, {1: Fraction(-3, 4)})))
@example((CyclotomicNumber(4, {0: 2 ** 90, 1: -(2 ** 90)}),
          CyclotomicNumber(4, {0: Fraction(1, 2 ** 90), 1: Fraction(1, 2 ** 90)})))
def test_a_level_4_sum_or_product_is_the_general_routes(pair):
    x, y = pair
    for op in (CyclotomicNumber.__add__, CyclotomicNumber.__mul__):
        got = op(x, y)
        assert cyclotomic_parts(got) == cyclotomic_parts(at_twelve(op, x, y))
        assert_canonical(got)


@DETERMINISTIC
@given(gaussian(), st.one_of(wide_ints, st.builds(Fraction, wide_ints, st.integers(1, 2 ** 70))),
       st.integers(-3, 3))
@example(CyclotomicNumber(4, {0: 6, 1: -4}), Fraction(-1, 2), 1)
@example(CyclotomicNumber(4, {1: 5}), 0, 2)
def test_a_rational_factor_at_level_4_scales_as_the_general_route(x, n, grade):
    want = parts(ExactScalar(grade, x.promote(12)) * n)
    assert want[1] == 4
    assert parts(ExactScalar(grade, x) * n) == parts(n * ExactScalar(grade, x)) == want


@DETERMINISTIC
@given(wide_ints)
@example(0)
def test_an_integer_scalar_is_the_general_routes(n):
    want = ExactScalar(0, CyclotomicNumber.from_rational(n, 12).demote())
    assert parts(_integer(n)) == parts(want) == parts(ExactScalar.from_rational(n))


def test_level_4_arithmetic_calls_no_promotion_fold_or_demotion(monkeypatch):
    x = CyclotomicNumber(4, {0: Fraction(3, 4), 1: -2})
    y, minus_conj = CyclotomicNumber(4, {1: Fraction(5, 6)}), -x.galois(-1)
    calls = []

    def spy(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper
    monkeypatch.setattr(CyclotomicNumber, "_common",
                        staticmethod(spy("_common", CyclotomicNumber._common)))
    monkeypatch.setattr(CyclotomicNumber, "demote", spy("demote", CyclotomicNumber.demote))
    monkeypatch.setattr(scalars, "_fold", spy("_fold", scalars._fold))
    results = [x * y, x + y, x * minus_conj, x + -x, ExactScalar(1, x) * 3,
               ExactScalar(1, x) * Fraction(-2, 9), _integer(7), _integer(0)]
    assert calls == []
    assert x.promote(12) * y == x * y and calls  # the spies see the general route
    assert [cyclotomic_parts(r) for r in results[:4]] == [
        (4, 24, {0: 40, 1: 15}), (4, 12, {0: 9, 1: -14}), (4, 16, {0: -73}), (4, 1, {})]


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
    results = [x, x + y, x * y, -x, x.galois(t), x.promote(level), x.demote()]
    if not x.is_zero():
        results.append(x.inverse())
    for v in results:
        assert_canonical(v)


def fixed(v, digits):
    """`v` to `digits` places, the fraction's trailing zeros dropped; at 0 digits there
    is no fraction, and 10 stays 10.  A value that rounds to zero is 0, never -0."""
    text = f"{v:.{digits}f}"
    text = text.rstrip("0").rstrip(".") if "." in text else text
    return "0" if text == "-0" else text


def complex_route(value, digits):
    """`approx_display` of the ExactScalar of `value` as it was written before its
    rational route: the complex value summed term by term through cmath.  The
    zeros it strips are those after a decimal point only (`fixed`)."""
    x = ExactScalar.from_rational(value)
    z = sum(c / x.value.den * cmath.exp(2j * cmath.pi * e / x.value.level)
            for e, c in x.value.nums.items()) if x.value.nums else 0j
    z = z * math.pi ** x.pi
    re_s = fixed(z.real, digits)
    if abs(z.imag) < 10 ** (-digits - 6) * max(1.0, abs(z.real)):
        return re_s
    im_s = fixed(z.imag, digits)  # a zero imaginary part joins with +
    return f"{re_s}{'' if im_s.startswith('-') else '+'}{im_s}i"


wide_fractions = st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80),
                           st.one_of(st.just(1), st.integers(1, 2 ** 70)))


@settings(DETERMINISTIC, max_examples=300)
@given(wide_fractions, st.integers(0, 8))
@example(Fraction(0), 4)
@example(Fraction(-7, 3), 0)
@example(Fraction(-1, 3), 0)  # rounds to zero: 0, not -0
@example(Fraction(-1, 100000), 4)
@example(Fraction(2 ** 53 + 1), 4)
@example(Fraction(-(2 ** 60) - 3, 7), 8)
@example(Fraction(35059744171120209526176, 514710375938), 4)  # not float(n) / float(den)
@example(Fraction(10), 0)  # no decimal point, so no zero to strip
@example(Fraction(-1230), 0)
def test_the_rational_route_of_approx_display_matches_the_complex_route(value, digits):
    want, x = complex_route(value, digits), ExactScalar.from_rational(value)
    assert approx_display(x, digits) == want
    assert approx_display(ExactScalar(0, x.value.promote(12)), digits) == want  # held at level 12


def display_before_e_notation(a, digits):
    """`approx_display` as it was written before values beyond double range
    printed in e notation: it raised OverflowError or wrote inf or nan there.
    An exactly imaginary value shows real part 0, and at 0 digits an integer
    keeps its zeros, as they do now."""
    x = a.value
    z = complex(x.nums.get(0, 0) / x.den) if not a.pi and x.nums.keys() <= {0} \
        else a.complex_value()
    re_s = fixed(z.real, digits)
    if not z.imag or x == x.galois(-1):
        return re_s
    if x == -x.galois(-1):
        re_s = "0"
    im_s = fixed(z.imag, digits)  # a zero imaginary part joins with +
    return f"{re_s}{'' if im_s.startswith('-') else '+'}{im_s}i"


@st.composite
def scalars_near_double_range(draw):
    level = draw(st.sampled_from((4, 12, 20)))
    size = draw(st.sampled_from((2 ** 20, 2 ** 1000, 2 ** 1030, 2 ** 1400)))
    nums = draw(st.dictionaries(st.integers(0, _euler_phi(level) - 1),
                                st.integers(-size, size), min_size=1, max_size=3))
    den = draw(st.one_of(st.just(1), st.integers(1, 2 ** 70)))
    grade = draw(st.one_of(st.integers(-3, 3), st.integers(-700, 700)))
    return ExactScalar(grade, CyclotomicNumber(level, {e: Fraction(n, den)
                                                       for e, n in nums.items()}))


_E_TEXT = r"-?\d(?:\.\d+)?e[+-]\d+"


@settings(DETERMINISTIC, max_examples=400)
@given(scalars_near_double_range(), st.integers(0, 15))
@example(ExactScalar(0, CyclotomicNumber(12, {0: 15 * 10 ** 307, 2: 15 * 10 ** 307})),
         4)  # each term is a double, their sum is not
@example(ExactScalar.pi_power(-1000, 10 ** 600), 4)  # pi^k underflows, the numerator overflows
def test_approx_display_changes_only_past_double_range(a, digits):
    try:
        before = display_before_e_notation(a, digits)
    except OverflowError:
        before = "overflow"
    got = approx_display(a, digits)
    if not any(word in before for word in ("overflow", "inf", "nan")):
        assert got == before
        return
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    parts = re.fullmatch(f"(0|{_E_TEXT})(?:([+-](?:{_E_TEXT}))i)?", got)
    assert parts, got
    x = a.value
    exact = sum(mpmath.mpf(n) / x.den * mpmath.expjpi(mpmath.mpf(2 * e) / x.level)
                for e, n in x.nums.items()) * mpmath.pi ** a.pi
    scale = max(abs(n) for n in x.nums.values()) / mpmath.mpf(x.den) * mpmath.pi ** a.pi
    for text, want in ((parts[1], exact.real), (parts[2] or "0", exact.imag)):
        error = abs(mpmath.mpf(text) - want)
        assert error <= scale * 1e-9 + abs(want) * 10 ** -digits, (got, text, want)
