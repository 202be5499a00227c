"""Exact scalar arithmetic: cyclotomic levels, pi grading, text round trips."""

import random
import sys
from fractions import Fraction

import pytest

from contact_index.scalars import (MAX_TEXT_LEVEL, CyclotomicNumber, ExactScalar, ScalarError,
                                   _fold_table, approx_display, cyclotomic_polynomial)


ONE = ExactScalar.one()
I = ExactScalar.i()
TWO_PI = ExactScalar.pi_power(1, 2)


class TestCyclotomicLevels:
    def test_level_must_be_multiple_of_four(self):
        with pytest.raises(ScalarError):
            CyclotomicNumber(6, {0: 1})

    def test_rational_lives_at_level_four(self):
        assert CyclotomicNumber.from_rational(Fraction(3, 7)).level == 4

    def test_promote_identity_embeds(self):
        one = CyclotomicNumber.from_rational(1)
        up = one.promote(12)
        assert up.level == 12
        assert up == one

    def test_promote_i_to_level_eight(self):
        i = CyclotomicNumber.zeta(4, 1)
        up = i.promote(8)
        assert up.coeffs == CyclotomicNumber.zeta(8, 2).coeffs

    def test_promote_zeta3_to_level_24_satisfies_minimal_polynomial(self):
        z = CyclotomicNumber.root_of_unity(1, 3).promote(24)
        value = z * z + z + CyclotomicNumber.from_rational(1)
        assert value.is_zero()

    def test_promote_rejects_non_multiple(self):
        z = CyclotomicNumber.root_of_unity(1, 3)  # level 12
        with pytest.raises(ScalarError):
            z.promote(16)

    @pytest.mark.parametrize("value, level, expected", [
        (CyclotomicNumber.zeta(4, 1), 24, 4),
        (CyclotomicNumber.zeta(4, 1), 420, 4),
        (CyclotomicNumber.root_of_unity(1, 11), 572, 44),
        (CyclotomicNumber.root_of_unity(1, 13), 572, 52),
        (CyclotomicNumber.root_of_unity(1, 3), 60, 12),
        (CyclotomicNumber.root_of_unity(1, 11) * CyclotomicNumber.root_of_unity(1, 13), 572, 572),
        (CyclotomicNumber.root_of_unity(1, 5), 60, 20),
        (ExactScalar.from_text("(1*z1020^255)*pi^0").value, 1020, 4),
        (ExactScalar.from_text("(1*z1020^1)*pi^0 + (2*z1020^5)*pi^0").value, 1020, 1020),
    ], ids=["i@24", "i@420", "zeta11@572", "zeta13@572", "zeta3@60", "zeta11*zeta13@572",
            "zeta5@60", "z1020^255-is-i", "z1020-stays"])
    def test_demote_round_trip(self, value, level, expected):
        down = value.promote(level).demote()
        assert down.level == expected == value.level
        assert down.coeffs == value.coeffs

    def test_cross_level_equality(self):
        a = CyclotomicNumber.root_of_unity(1, 4)
        b = CyclotomicNumber.zeta(24, 6)  # the same root at level 24
        assert a == b

    def test_cyclotomic_polynomial_degree_is_totient(self):
        assert len(cyclotomic_polynomial(12)) == 5  # x^4 - x^2 + 1
        assert list(cyclotomic_polynomial(4)) == [1, 0, 1]


class TestArithmeticExamples:
    def test_two_pi_squared(self):
        assert TWO_PI * TWO_PI == ExactScalar.pi_power(2, 4)

    def test_gaussian_norm(self):
        assert (ONE - I) * (ONE + I) == ExactScalar.from_rational(2)

    def test_division_by_two_pi_i(self):
        q = (TWO_PI * TWO_PI) / (TWO_PI * I)
        assert q == ExactScalar.pi_power(1, -2) * I
        assert q * (TWO_PI * I) == TWO_PI * TWO_PI

    def test_adding_different_pi_grades_is_rejected(self):
        with pytest.raises(ScalarError, match="pi-grades 0 and 1"):
            ONE + TWO_PI

    def test_zero_adds_to_every_grade(self):
        for x in (ONE, TWO_PI, ExactScalar.pi_power(-1, 3) * I):
            assert x + ExactScalar.zero() == x == ExactScalar.zero() + x
            assert (x - x).pi == 0

    def test_division_by_zero_is_rejected(self):
        with pytest.raises(ScalarError):
            ONE / ExactScalar.zero()

    def test_self_subtraction_is_structural_zero(self):
        x = ExactScalar.root_of_unity(2, 5) * TWO_PI + I * TWO_PI
        assert (x - x).is_zero()


def _random_scalar(rng):
    """A sum of one to three scaled roots of unity at one pi-grade, random in {-1, 0, 1}."""
    k = rng.randint(-1, 1)
    value = CyclotomicNumber.from_rational(0)
    for _ in range(rng.randint(1, 3)):
        q = rng.choice([3, 4, 12])
        value = value + CyclotomicNumber.root_of_unity(rng.randint(0, q - 1), q) * \
            CyclotomicNumber.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return ExactScalar(k, value)


def _at_grade(x, k):
    """x's cyclotomic value at pi-grade k: an operand x can be added to."""
    return ExactScalar(k, x.value)


class TestRingAxioms:
    def test_axioms_on_randomized_inputs(self):
        # 2000 triples x 5 axiom checks = 10^4 exact property cases; the
        # additive axioms take b and c at a's grade
        rng = random.Random(20260809)
        for _ in range(2000):
            a, b, c = (_random_scalar(rng) for _ in range(3))
            b_a, c_a, c_b = _at_grade(b, a.pi), _at_grade(c, a.pi), _at_grade(c, b.pi)
            assert a + b_a == b_a + a
            assert a * b == b * a
            assert (a + b_a) + c_a == a + (b_a + c_a)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c_b) == a * b + a * c_b
            if a and b and a.pi != b.pi:
                with pytest.raises(ScalarError):
                    a + b

    def test_conjugation_is_an_automorphism(self):
        rng = random.Random(7)
        for _ in range(300):
            a, b = _random_scalar(rng), _random_scalar(rng)
            assert (a * b).galois(-1) == a.galois(-1) * b.galois(-1)
            b_a = _at_grade(b, a.pi)
            assert (a + b_a).galois(-1) == a.galois(-1) + b_a.galois(-1)

    def test_inversion_round_trips(self):
        rng = random.Random(11)
        count = 0
        while count < 200:
            a = _random_scalar(rng)
            if a.is_zero():
                continue
            count += 1
            assert a * a.inverse() == ONE


class TestTextForm:
    def test_round_trip_examples(self):
        cases = [
            ExactScalar.zero(),
            ONE,
            I,
            TWO_PI,
            ExactScalar.pi_power(-1, Fraction(1, 2)),
            ExactScalar.root_of_unity(2, 3) * TWO_PI + ExactScalar.pi_power(1, Fraction(-7, 3)),
        ]
        for x in cases:
            assert ExactScalar.from_text(x.to_text()) == x

    def test_round_trip_randomized(self):
        rng = random.Random(23)
        for _ in range(300):
            x = _random_scalar(rng)
            assert ExactScalar.from_text(x.to_text()) == x

    def test_canonical_text_is_identical_for_equal_values(self):
        a = ExactScalar(0, CyclotomicNumber.zeta(4, 1).promote(24))
        assert a.to_text() == I.to_text()

    def test_rejects_garbage(self):
        with pytest.raises(ScalarError):
            ExactScalar.from_text("pi + 1")

    @pytest.mark.parametrize("text", ["(1/0)*pi^0", "(1*z0^1)*pi^0", "(1)*pi^1 + (1)*pi^2",
                                      "(1)*pi^0 + (0)*pi^1"])
    def test_rejects_zero_denominators_level_zero_and_mixed_grades(self, text):
        with pytest.raises(ScalarError):
            ExactScalar.from_text(text)

    def test_the_level_bound_itself_parses(self):
        text = f"(1*z{MAX_TEXT_LEVEL}^{MAX_TEXT_LEVEL // 4})*pi^0"  # zeta^(L/4) = i
        assert ExactScalar.from_text(text) == I

    def test_a_level_past_the_bound_is_refused_before_its_tables_are_built(self):
        level = MAX_TEXT_LEVEL + 4
        misses = _fold_table.cache_info().misses
        with pytest.raises(ScalarError, match=f"level {level} exceeds {MAX_TEXT_LEVEL}"):
            ExactScalar.from_text(f"(1)*pi^0 + (1*z{level}^1)*pi^0")
        assert _fold_table.cache_info().misses == misses

    @pytest.mark.parametrize("text_of", [
        lambda digits: ExactScalar.from_rational(10 ** (digits - 1)).to_text(),
        lambda digits: ExactScalar.from_text(f"(1/{'1' * digits})*pi^0"),
    ], ids=["to_text", "from_text"])
    def test_integers_past_the_text_digit_limit_raise_a_scalar_error(self, text_of):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("integer text has no digit limit here")
        with pytest.raises(ScalarError, match=f"of {limit + 1} digits is past the limit of {limit}"):
            text_of(limit + 1)

    @pytest.mark.parametrize("level", [0, -4, 6])
    def test_zeta_rejects_a_level_that_is_not_a_positive_multiple_of_four(self, level):
        with pytest.raises(ScalarError, match="positive multiple of 4"):
            CyclotomicNumber.zeta(level, 1)


class TestApproxDisplay:
    def test_four_pi_squared(self):
        assert approx_display(TWO_PI * TWO_PI, 4).startswith("39.478")

    def test_imaginary_unit(self):
        assert approx_display(I, 3) == "0+1i"

    def test_third_root_of_unity(self):
        s = approx_display(ExactScalar.root_of_unity(1, 3), 3)
        assert s == "-0.5+0.866i"

    @pytest.mark.parametrize("value, digits, expected", [
        (ExactScalar(0, CyclotomicNumber.zeta(12, 1) + CyclotomicNumber.zeta(12, 11)), 12,
         "1.732050807569"),
        (ONE, 320, "1"),
        (ExactScalar.from_rational(int(sys.float_info.max)), 4, str(int(sys.float_info.max))),
    ], ids=["sqrt3", "one-at-320-digits", "largest-double"])
    def test_a_real_value_has_no_imaginary_part(self, value, digits, expected):
        assert approx_display(value, digits) == expected

    @pytest.mark.parametrize("value, expected", [
        (ExactScalar.from_rational(10 ** 400), "1e+400"),
        (ExactScalar(0, CyclotomicNumber.zeta(12) * CyclotomicNumber.from_rational(10 ** 400)),
         "8.6603e+399+5e+399i"),
        (ExactScalar.pi_power(1000), "1.4121e+497"),
        (ExactScalar(0, CyclotomicNumber(4, {1: -10 ** 400})), "0-1e+400i"),
        (ExactScalar.from_rational(Fraction(-10 ** 400, 3)), "-3.3333e+399"),
        (ExactScalar.from_rational(2 ** 1024), "1.7977e+308"),
        (ExactScalar.from_rational(Fraction(-10 ** 5000, 3)), "-3.3333e+4999"),
    ], ids=["10^400", "10^400-z12", "pi^1000", "minus-10^400-i", "over-three", "2^1024",
            "past-the-text-digit-limit"])
    def test_a_value_beyond_double_range_prints_in_e_notation(self, value, expected):
        assert approx_display(value, 4) == expected

    @pytest.mark.parametrize("value, expected", [
        (ExactScalar.from_rational(10), "10"),
        (ExactScalar.from_rational(-1230), "-1230"),
        (ExactScalar(0, CyclotomicNumber(4, {0: 10, 1: 20})), "10+20i"),
        (ExactScalar.from_rational(0), "0"),
        (ExactScalar.from_rational(Fraction(201, 2)), "100"),
    ], ids=["10", "-1230", "10+20i", "0", "100.5"])
    def test_zero_digits_keep_the_zeros_of_the_integer_part(self, value, expected):
        assert approx_display(value, 0) == expected

    def test_a_non_real_value_keeps_its_imaginary_part_at_any_digits(self):
        assert approx_display(I, 320).endswith("+1i")

    @pytest.mark.parametrize("value, digits, expected", [
        (I * 10 ** 20, 4, "0+100000000000000000000i"),
        (ExactScalar.pi_power(1, Fraction(-5, 6)) * I, 15, "0-2.617993877991494i"),
        (ExactScalar(0, CyclotomicNumber.zeta(44, 1) - CyclotomicNumber.zeta(44, 43)), 15,
         "0+0.284629676546571i"),
    ], ids=["10^20-i", "hopf-germ-term", "z44-difference"])
    def test_an_exactly_imaginary_value_has_real_part_zero(self, value, digits, expected):
        # their floats have the noisy real parts 6123.234, -0 and 0.000000000000001
        assert approx_display(value, digits) == expected

    def test_display_never_feeds_back(self):
        # the display is a string; exact arithmetic objects never accept floats
        with pytest.raises(TypeError):
            ONE + 0.5


class TestPredicates:
    def test_integrality(self):
        assert (TWO_PI * ExactScalar.pi_power(-1, Fraction(1, 2))).is_integer()
        assert not ExactScalar.from_rational(Fraction(1, 2)).is_integer()
        assert not I.is_rational()

    def test_rational_value(self):
        assert (TWO_PI / TWO_PI).rational_value() == 1
