"""Delta germs: the general calculus of the tests (rescaling, smooth
multiplication), Fourier conversion, serialization."""

import random
import re
import sys
from fractions import Fraction

import pytest

from contact_index.deltas import DeltaError, DeltaGerm, fourier_contribution, germ_to_document
from contact_index.engine import fit_quasi_polynomial
from contact_index.forms import FormElement
from contact_index.scalars import CyclotomicNumber, ScalarError
from distributions import (HalfDeltaGerm, delta, germ_from_document, multiply_smooth,
                           pair_with_trig, scale_variable)

ONE = CyclotomicNumber.from_rational(1)
I = CyclotomicNumber.zeta(4, 1)
TWO = CyclotomicNumber.from_rational(2)  # 2 pi: a germ's pi-grade 1 is left implicit
ZERO = CyclotomicNumber.from_rational(0)
PHI = [ZERO, ONE]  # the jet of phi: ascending phi coefficients

d0 = delta(0)
d1 = delta(1)
d2 = delta(2)


def evaluate_quasi(table, m):
    """The value at m of `fourier_contribution`'s table."""
    return fit_quasi_polynomial([table]).read(m)[0]


class TestDelta:
    def test_a_negative_order_is_rejected_by_name(self):
        with pytest.raises(DeltaError, match="nonnegative, got -2"):
            delta(-2, 3)


class TestScaleVariable:
    def test_halving(self):
        assert scale_variable(d0, 2) == d0 * CyclotomicNumber.from_rational(Fraction(1, 2))

    def test_reflection_is_even(self):
        assert scale_variable(d0, -1) == d0

    def test_reflection_of_first_derivative_is_odd(self):
        assert scale_variable(d1, -1) == d1 * CyclotomicNumber.from_rational(-1)

    def test_zero_is_rejected(self):
        with pytest.raises(DeltaError, match="ellipticity"):
            scale_variable(d0, 0)

    def test_round_trip_property(self):
        rng = random.Random(101)
        for _ in range(400):
            order = rng.randint(0, 5)
            germ = delta(order, CyclotomicNumber.from_rational(
                Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))))
            a = Fraction(rng.randint(-9, 9) or 3, rng.randint(1, 9))
            assert scale_variable(scale_variable(germ, a), 1 / a) == germ


class TestMultiplySmooth:
    def test_x_kills_delta(self):
        assert multiply_smooth(d0, PHI).is_zero()

    def test_x_lowers_first_derivative(self):
        assert multiply_smooth(d1, PHI) == d0 * CyclotomicNumber.from_rational(-1)

    def test_x_on_first_derivative_against_pairing_oracle(self):
        # independent route: <x d0', e^{i m phi}> = <d0', x e^{i m phi}>
        # equals -(d/dphi)(phi e^{i m phi}) at 0 = -1 for every m
        lhs = multiply_smooth(d1, PHI)
        for m in range(-5, 6):
            assert pair_with_trig(lhs, {m: ONE}) == CyclotomicNumber.from_rational(-1)

    def test_one_plus_x(self):
        assert multiply_smooth(d0, [ONE, ONE]) == d0

    def test_leibniz_general_order(self):
        # phi^2 * d0^(3) = 3!/(1!) d0^(1) = 6 d0' with sign (+1)^2
        got = multiply_smooth(delta(3), [ZERO, ZERO, ONE])
        assert got == delta(1, CyclotomicNumber.from_rational(6))


class TestFourier:
    def test_two_pi_delta_gives_all_ones(self):
        pair = fourier_contribution(d0 * TWO, Fraction(0), +1)
        for m in range(-20, 21):
            assert evaluate_quasi(pair, m) == ONE

    def test_zero_germ(self):
        pair = fourier_contribution(DeltaGerm.zero(), Fraction(0), +1)
        assert evaluate_quasi(pair, 5).is_zero()

    def test_sphere_germ_gives_one_minus_m(self):
        germ = d0 * TWO + d1 * (TWO * I)
        pair = fourier_contribution(germ, Fraction(0), +1)
        for m in range(-20, 21):
            assert evaluate_quasi(pair, m) == CyclotomicNumber.from_rational(1 - m)

    def test_torsion_location_enters_as_phase(self):
        pair = fourier_contribution(d0 * TWO, Fraction(1, 2), +1)
        for m in range(-6, 7):
            expected = CyclotomicNumber.from_rational((-1) ** m)
            assert evaluate_quasi(pair, m) == expected

    def test_linearity(self):
        rng = random.Random(3)
        for _ in range(60):
            g1 = delta(rng.randint(0, 4), TWO * rng.randint(-5, 5))
            g2 = delta(rng.randint(0, 4), TWO * rng.randint(-5, 5))
            p_sum = fourier_contribution(g1 + g2, Fraction(1, 3), +1)
            p1 = fourier_contribution(g1, Fraction(1, 3), +1)
            p2 = fourier_contribution(g2, Fraction(1, 3), +1)
            for m in (-7, -1, 0, 2, 9):
                assert evaluate_quasi(p_sum, m) == \
                    evaluate_quasi(p1, m) + evaluate_quasi(p2, m)


class TestPairWithTrig:
    def test_delta_pairs_to_one(self):
        for m in range(-4, 5):
            assert pair_with_trig(d0, {m: ONE}) == ONE

    def test_derivative_pairs_to_minus_i_m(self):
        for m in range(-4, 5):
            assert pair_with_trig(d1, {m: ONE}) == I * CyclotomicNumber.from_rational(-m)

    def test_fourteen_pi(self):
        trig = {m: ONE for m in range(-3, 4)}
        assert pair_with_trig(d0 * TWO, trig) == 14  # 14 pi

    def test_pairing_reconstructs_fourier_coefficients(self):
        # <g, p> = 2 pi sum_m c_m a_{-m} for germs at the identity, of pi-grade 1:
        # derivative orders up to 6, trig degree up to 20
        rng = random.Random(77)
        for _ in range(40):
            terms = {
                rng.randint(0, 6): TWO * Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))
                for _ in range(3)}
            germ = DeltaGerm([terms.get(j, 0) for j in range(7)])
            trig = {rng.randint(-20, 20): CyclotomicNumber.from_rational(rng.randint(-3, 3))
                    for _ in range(5)}
            pair = fourier_contribution(germ, Fraction(0), +1)
            rhs = ZERO
            for m, a in trig.items():
                rhs = rhs + evaluate_quasi(pair, m) * a
            assert pair_with_trig(germ, {-m: a for m, a in trig.items()}) == TWO * rhs


class TestSerialization:
    def test_round_trip(self):
        germ = d0 * TWO + d2 * (I * CyclotomicNumber.from_rational(Fraction(3, 7)))
        doc = germ_to_document(germ, Fraction(2, 3))
        back, loc = germ_from_document(doc)
        assert back == germ
        assert loc == Fraction(2, 3)

    def test_location_format(self):
        doc = germ_to_document(d0, Fraction(1, 2))
        assert doc["location"] == "e^{2pi*i*1/2}"

    def test_terms_are_written_at_pi_grade_one(self):
        doc = germ_to_document(d0 * TWO + d1 * I, Fraction(0))
        assert [t["scalar"] for t in doc["terms"]] == ["(2)*pi^1", "(1*z4^1)*pi^1"]
        assert repr(d0 * TWO + d1 * I) == "((2)*pi^1)*d0[phi] + ((1*z4^1)*pi^1)*d0^(1)[phi]"

    def test_a_location_past_the_text_digit_limit_raises_a_scalar_error(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("integer text has no digit limit here")
        with pytest.raises(ScalarError, match=f"of {limit + 1} digits is past the limit"):
            germ_to_document(DeltaGerm.zero(), Fraction(1, 10 ** limit))


class TestBoundaryGerms:
    def test_d1_identity_sum_reduces_to_delta(self):
        combo = HalfDeltaGerm.half(1) + HalfDeltaGerm.half(-1)
        assert combo.reduce() == d0

    def test_unbalanced_cannot_reduce(self):
        with pytest.raises(DeltaError, match="unbalanced"):
            HalfDeltaGerm.half(1).reduce()

    def test_d2_product_rule_constants(self):
        const_p, rest_p = HalfDeltaGerm.half(1).multiply_by_x()
        const_m, rest_m = HalfDeltaGerm.half(-1).multiply_by_x()
        two_pi_inv = Fraction(1, 2)  # 1/2pi, its pi^-1 implicit
        assert const_p == I * two_pi_inv
        assert const_m == -1 * (I * two_pi_inv)
        assert not rest_p.terms and not rest_m.terms

    def test_d2_sum_matches_delta_rule(self):
        # x (d+ + d-) must agree with x d0 = 0
        combo = HalfDeltaGerm.half(1) + HalfDeltaGerm.half(-1)
        const, rest = combo.multiply_by_x()
        assert const.is_zero()
        assert rest.reduce().is_zero()

    def test_d3_scaling_swaps_boundaries(self):
        assert HalfDeltaGerm.half(1).scale_argument(-1) == \
            HalfDeltaGerm.half(-1) * CyclotomicNumber.from_rational(-1)
        assert HalfDeltaGerm.half(1).scale_argument(2) == \
            HalfDeltaGerm.half(1) * CyclotomicNumber.from_rational(Fraction(1, 2))

    def test_derivative_product_rule(self):
        # x d+^(1) = -d+
        const, rest = HalfDeltaGerm.half(1, order=1).multiply_by_x()
        assert const.is_zero()
        assert rest == HalfDeltaGerm.half(1) * CyclotomicNumber.from_rational(-1)




class TestGermDocumentValidation:
    def _doc(self):
        return germ_to_document(d0 * TWO + d2 * I, Fraction(1, 3))

    @pytest.mark.parametrize("variables", [["X", "phi"], ["theta"], [], "phi"],
                             ids=["two-variable", "other-name", "empty", "bare-string"])
    def test_variables_other_than_phi_are_rejected(self, variables):
        doc = self._doc()
        doc["variables"] = variables
        with pytest.raises(DeltaError, match="variables"):
            germ_from_document(doc)

    @pytest.mark.parametrize("order", [[1, 0], [], [-1], 2, ["2"], [True], [1.0]],
                             ids=["two-entries", "empty", "negative", "bare-int",
                                  "string", "bool", "float"])
    def test_derivative_order_must_be_one_nonnegative_integer(self, order):
        doc = self._doc()
        doc["terms"][1]["derivative_order"] = order
        with pytest.raises(DeltaError, match=r"terms\[1\]\.derivative_order"):
            germ_from_document(doc)

    def test_repeated_derivative_order_is_rejected(self):
        doc = self._doc()
        doc["terms"][1]["derivative_order"] = [0]
        with pytest.raises(DeltaError, match="repeated order 0"):
            germ_from_document(doc)

    @pytest.mark.parametrize("text", ["(1)*pi^0", "(2)*pi^2", "(1*z4^1)*pi^-1"],
                             ids=["grade-0", "grade-2", "grade-minus-1"])
    def test_a_term_at_a_grade_other_than_one_is_rejected(self, text):
        doc = self._doc()
        doc["terms"][1]["scalar"] = text
        with pytest.raises(DeltaError, match=r"terms\[1\]\.scalar: germ terms have pi-grade 1"):
            germ_from_document(doc)

    def test_a_zero_term_fits_grade_one(self):
        doc = self._doc()
        doc["terms"][1]["scalar"] = "0"
        assert germ_from_document(doc)[0] == d0 * TWO

    @pytest.mark.parametrize("path", [("location",), ("variables",), ("terms",),
                                      ("terms", 0, "derivative_order"),
                                      ("terms", 0, "scalar")],
                             ids=lambda p: ".".join(map(str, p)))
    def test_missing_key_names_the_field(self, path):
        doc = self._doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        with pytest.raises(DeltaError, match=re.escape(path[-1]) + ": missing"):
            germ_from_document(doc)


class TestModuleAction:
    def test_jet_product_acts_as_successive_multiplications(self):
        # (g a) b == g (a b) for germs of order <= 6 and jets truncated at or
        # above the germ's order, a b their product in the form ring (no
        # generators, phi only): the identity that lets forms resolve a jet
        # against a germ as soon as they meet
        rng = random.Random(2007)
        units = [ONE, I, CyclotomicNumber.root_of_unity(1, 3)]

        def scalar():
            return rng.choice(units) * Fraction(rng.randint(-5, 5), rng.randint(1, 4))

        def jet(truncation):
            return FormElement((), truncation, {
                (e,): scalar() for e in range(rng.randint(0, 9))})

        def coefficients(form):
            return [form.terms.get((e,), ZERO) for e in range(form.truncation + 1)]

        for _ in range(80):
            order = rng.randint(0, 6)
            germ = DeltaGerm([scalar() for _ in range(order + 1)])
            truncation = rng.randint(order, 8)
            a, b = jet(truncation), jet(truncation)
            assert multiply_smooth(multiply_smooth(germ, coefficients(a)), coefficients(b)) == \
                multiply_smooth(germ, coefficients(a * b))
