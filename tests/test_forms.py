"""Form algebra: Todd and determinant factors, the delta form, integration."""

import random
import re
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial

import pytest

from contact_index import forms
from contact_index.catalog import FixedComponentData
from contact_index.deltas import DeltaGerm
from contact_index.engine import CalibrationConfig, build_preset, germ_at
from contact_index.forms import (ChernRoot, FormElement, FormError, _normal_determinant,
                                 _rational_power, _series_power, _todd_quotient, dc_inverse,
                                 evaluate_series, integrate_component, j_form, root_value,
                                 todd)
from contact_index.scalars import CyclotomicNumber, ExactScalar
from distributions import reference_integral, scale_variable

ONE = ExactScalar.one()
I = ExactScalar.i()
TWO_PI = ExactScalar.pi_power(1, 2)


def todd_series(length, direction="plus"):
    """Taylor coefficients of x/(1-e^-x) ("plus") or x/(e^x-1) ("minus")."""
    return _rational_power(_todd_quotient(length, direction), -1)


def normal_factor_series(eigenvalue, length):
    """Taylor coefficients of (1 - lambda e^t)^-1 for lambda != 1."""
    return _series_power(_normal_determinant(eigenvalue, length), -1)


def bernoulli_numbers(count):
    """Independent oracle: the defining recurrence sum_j C(n+1, j) B_j = 0."""
    B = [Fraction(1)]
    for n in range(1, count):
        B.append(Fraction(-1, n + 1) * sum(comb(n + 1, j) * B[j] for j in range(n)))
    return B


class TestToddSeries:
    # the series is computed over Q: a Fraction type check catches a silent
    # return to cyclotomic scalars
    def test_plus_direction_against_bernoulli_recurrence(self):
        B = bernoulli_numbers(60)
        series = todd_series(60, "plus")
        assert len(series) == 60
        for n, c in enumerate(series):
            assert type(c) is Fraction and c == (-1) ** n * B[n] / factorial(n)

    def test_minus_direction_against_bernoulli_recurrence(self):
        B = bernoulli_numbers(60)
        series = todd_series(60, "minus")
        assert len(series) == 60
        for n, c in enumerate(series):
            assert type(c) is Fraction and c == B[n] / factorial(n)

    def test_unknown_direction(self):
        with pytest.raises(FormError):
            todd_series(5, "sideways")


class TestTodd:
    def test_empty_product_is_one(self):
        assert todd([], ("dA",), 2, jet_order=4) == FormElement.one(("dA",), 2, 4)

    def test_round_sphere_value(self):
        # two factors of curvature i dA at truncation 1 multiply to 1 + i dA
        r = ChernRoot(curvature=(I,), weight=(0,))
        td = todd([r, r], ("dA",), 1, jet_order=4)
        expected = FormElement.one(("dA",), 1, 4) + FormElement(("dA",), 1, 4, {(1, 0): I})
        assert td == expected

    def test_single_root_taylor_coefficients(self):
        # 1 + c/2 + c^2/12 for curvature c, frozen from the recurrence oracle
        c = ExactScalar.from_rational(1)
        r = ChernRoot(curvature=(c,), weight=(0,))
        td = todd([r], ("dA",), 2, jet_order=4)
        assert td.terms[(0, 0)] == ONE
        assert td.terms[(1, 0)] == ExactScalar.from_rational(Fraction(1, 2))
        assert td.terms[(2, 0)] == ExactScalar.from_rational(Fraction(1, 12))

    def test_multiplicativity(self):
        rng = random.Random(5)
        for _ in range(20):
            roots = [ChernRoot(curvature=(ExactScalar.from_rational(rng.randint(-3, 3)),),
                               weight=(rng.randint(-2, 2),)) for _ in range(3)]
            left = todd(roots[:1], ("dA",), 2, jet_order=4) * \
                todd(roots[1:], ("dA",), 2, jet_order=4)
            assert left == todd(roots, ("dA",), 2, jet_order=4)

    def test_tangential_precondition(self):
        bad = ChernRoot(curvature=(I,), weight=(0,), eigenvalue_exponent=Fraction(1, 2))
        with pytest.raises(FormError, match="tangential"):
            todd([bad], ("dA",), 1, jet_order=4)


class TestNormalDeterminant:
    def test_empty_product_is_one(self):
        assert dc_inverse([], ("dA",), 2, jet_order=4) == FormElement.one(("dA",), 2, 4)

    def test_minus_one_eigenvalue_jet(self):
        # (1 + e^{i b phi})^-1 = 1/2 - (i b / 4) phi + O(phi^2), b = 3
        r = ChernRoot(curvature=(), weight=(3,), eigenvalue_exponent=Fraction(1, 2))
        dc = dc_inverse([r], (), 0, jet_order=1)
        assert dc.terms[(0,)] == ExactScalar.from_rational(Fraction(1, 2))
        assert dc.terms[(1,)] == I * ExactScalar.from_rational(Fraction(-3, 4))

    def test_minus_one_eigenvalue_jet_against_finite_differences(self):
        # numeric oracle: central differences of t -> 1/(1 + e^{3 i t}) at 0
        import cmath
        f = lambda t: 1 / (1 + cmath.exp(3j * t))
        h = 1e-6
        d1 = (f(h) - f(-h)) / (2 * h)
        r = ChernRoot(curvature=(), weight=(3,), eigenvalue_exponent=Fraction(1, 2))
        dc = dc_inverse([r], (), 0, jet_order=1)
        assert abs(dc.terms[(0,)].complex_value() - f(0)) < 1e-12
        assert abs(dc.terms[(1,)].complex_value() - d1) < 1e-6

    def test_cube_root_eigenvalue_constant(self):
        r = ChernRoot(curvature=(), weight=(0,), eigenvalue_exponent=Fraction(1, 3))
        dc = dc_inverse([r], (), 0, jet_order=0)
        value = dc.terms[(0,)]
        lam = ExactScalar.root_of_unity(1, 3)
        assert value * (ONE - lam) == ONE

    def test_eigenvalue_one_is_a_fixed_set_mismatch(self):
        with pytest.raises(FormError, match="mis-identified"):
            normal_factor_series(CyclotomicNumber.from_rational(1), 4)

    def test_product_with_direct_determinant_is_one(self):
        # dc_inverse(root) times the directly assembled (1 - lambda e^value) is 1
        r = ChernRoot(curvature=(I,), weight=(2,), eigenvalue_exponent=Fraction(1, 4))
        gens, k, order = ("dA",), 2, 3
        inv = dc_inverse([r], gens, k, jet_order=order)
        lam = ExactScalar.root_of_unity(1, 4)
        length = k + order + 1
        exp_series = [ExactScalar.from_rational(Fraction(1, factorial(j))) for j in range(length)]
        e_v = evaluate_series(exp_series, root_value(r, gens, k, order))
        direct = FormElement.one(gens, k, order) - FormElement.one(gens, k, order) * lam * e_v
        assert inv * direct == FormElement.one(gens, k, order)


class TestGroupedRoots:
    @pytest.mark.parametrize("direction", ["plus", "minus"])
    def test_todd_equals_the_product_of_single_root_factors(self, direction):
        rng = random.Random(11)
        pool = [ChernRoot(curvature=(I * 2,), weight=(1,)),
                ChernRoot(curvature=(ExactScalar.from_rational(-1),), weight=(0,))]
        for _ in range(12):
            roots = [rng.choice(pool) for _ in range(rng.randint(2, 5))]
            expected = FormElement.one(("dA",), 2, 3)
            for r in roots:
                expected = expected * todd([r], ("dA",), 2, jet_order=3, direction=direction)
            assert todd(roots, ("dA",), 2, jet_order=3, direction=direction) == expected

    def test_repeated_normal_root_squares_its_factor(self):
        r = ChernRoot(curvature=(I,), weight=(3,), eigenvalue_exponent=Fraction(2, 5))
        single = dc_inverse([r], ("dA",), 2, jet_order=3)
        assert dc_inverse([r, r], ("dA",), 2, jet_order=3) == single * single

    def test_every_repeated_root_is_checked(self):
        good = ChernRoot(curvature=(I,), weight=(0,))
        bad = ChernRoot(curvature=(I,), weight=(0,), eigenvalue_exponent=Fraction(1, 2))
        with pytest.raises(FormError, match="tangential"):
            todd([good, good, bad], ("dA",), 1, jet_order=2)
        with pytest.raises(FormError, match="mis-identified"):
            dc_inverse([bad, bad, good], ("dA",), 1, jet_order=2)

    @pytest.mark.parametrize("r", [0, 1, 2, 5])
    @pytest.mark.parametrize("kind", ["todd", "normal"])
    def test_series_power_against_repeated_multiplication(self, r, kind):
        length = 8
        if kind == "todd":
            f, power = todd_series(length, "plus"), _rational_power
        else:  # constant term 1/(1 - zeta_5^2) != 1
            f = normal_factor_series(CyclotomicNumber.root_of_unity(2, 5), length)
            power = _series_power
        expected = [ONE] + [ExactScalar.zero()] * (length - 1)
        for _ in range(r):
            expected = [sum((expected[j] * f[n - j] for j in range(n + 1)), ExactScalar.zero())
                        for n in range(length)]
        got = power(f, r)
        assert len(got) == length
        assert all(a == b for a, b in zip(got, expected))


def _full_horner(coeffs, element):
    """Horner's rule over every power up to truncation + jet order."""
    need = element.truncation + element.jet_order + 1
    one = FormElement.one(element.generators, element.truncation, element.jet_order)
    acc = one * coeffs[need - 1]
    for j in range(need - 2, -1, -1):
        acc = acc * element + one * coeffs[j]
    return acc


ALL_PRESETS = [("circle", ()), ("hopf", (1,)), ("hopf", (2,)), ("hopf", (3,)),
               ("weighted-s3", (1, 2)), ("weighted-s3", (2, 3)), ("weighted-s3", (3, 4)),
               ("weighted-s3", (5, 7))]
ALL_CALIBRATIONS = [CalibrationConfig(s, o, d) for s in (1, -1) for o in (1, -1)
                    for d in ("plus", "minus")]


def _components(name, params):
    """Every component of a preset under every calibration, with its Todd direction."""
    for cal in ALL_CALIBRATIONS:
        model = build_preset(name, params, cal)
        for comps in model.components.values():
            for comp in comps:
                yield comp, cal.todd_direction


class TestShortHorner:
    def test_weight_zero_argument_stops_at_the_truncation(self):
        x = root_value(ChernRoot(curvature=(I,), weight=(0,)), ("dA",), 2, 5)
        series = todd_series(3, "plus")  # truncation + 1 coefficients suffice
        assert evaluate_series(series, x) == _full_horner(todd_series(8, "plus"), x)
        y = root_value(ChernRoot(curvature=(I,), weight=(1,)), ("dA",), 2, 5)
        with pytest.raises(FormError, match="need 8"):
            evaluate_series(series, y)

    @pytest.mark.parametrize("name, params", ALL_PRESETS)
    def test_short_and_full_loops_agree_on_every_calibration(self, name, params):
        # the reference takes no grouping, no Miller power and no sizing: one
        # series of k + jet order + 1 terms per root, by the full Horner loop
        def reference(roots, series_of, gens, k, order):
            acc = FormElement.one(gens, k, order)
            for root in roots:
                acc = acc * _full_horner(series_of(root, k + order + 1),
                                         root_value(root, gens, k, order))
            return acc

        for comp, direction in _components(name, params):
            k, gens = comp.k, comp.generators
            for order in (k, k + 4):
                assert todd(comp.tangential, gens, k, jet_order=order, direction=direction) \
                    == reference(comp.tangential, lambda r, n: todd_series(n, direction),
                                 gens, k, order)
                assert dc_inverse(comp.normal, gens, k, jet_order=order) == reference(
                    comp.normal, lambda r, n: normal_factor_series(r.eigenvalue(), n),
                    gens, k, order)


class TestJetOrder:
    @pytest.mark.parametrize("name, params", ALL_PRESETS)
    def test_jet_order_k_gives_the_germ_of_jet_order_k_plus_4(self, name, params):
        # the delta form's top derivative order is k, and the Leibniz pairing
        # reads no jet term above it
        def germ(comp, direction, order):
            gens, k = comp.generators, comp.k
            smooth = todd(comp.tangential, gens, k, jet_order=order, direction=direction) \
                * dc_inverse(comp.normal, gens, k, jet_order=order)
            return integrate_component(smooth, j_form(comp, jet_order=order), comp.pairing)

        for comp, direction in _components(name, params):
            assert germ(comp, direction, comp.k) == germ(comp, direction, comp.k + 4)


class TestSeriesSizing:
    """Each root's series is built, and raised to its power, at the length its
    argument reads: truncation + 1, plus the jet order for a nonzero weight."""

    @staticmethod
    def spy(monkeypatch):
        """Record the length each series kernel is called at."""
        seen = {"_todd_quotient": [], "_rational_power": [], "_series_power": []}
        for name in seen:
            def spied(first, *args, name=name, real=getattr(forms, name)):
                # `_todd_quotient` takes a length, the power kernels a series
                seen[name].append(first if isinstance(first, int) else len(first))
                return real(first, *args)
            monkeypatch.setattr(forms, name, spied)
        return seen

    def test_hopf_tangential_roots_read_the_truncation_only(self, monkeypatch):
        model = build_preset("hopf", (20,))
        (comp,) = model.components[Fraction(0)]
        assert comp.k == 20 and len(comp.tangential) == 21
        seen = self.spy(monkeypatch)
        todd(comp.tangential, comp.generators, 20, jet_order=20)
        assert seen == {"_todd_quotient": [21], "_rational_power": [21], "_series_power": []}
        # the engine asks for the same: jet order k, and one Todd quotient
        seen["_todd_quotient"].clear()
        germ_at(model, 0)
        assert seen["_todd_quotient"] == [21]

    def test_a_root_of_nonzero_weight_adds_the_jet_order(self, monkeypatch):
        flat = ChernRoot(curvature=(I,), weight=(0,))
        turning = ChernRoot(curvature=(I,), weight=(2,))
        seen = self.spy(monkeypatch)
        todd([flat, turning, flat], ("dA",), 2, jet_order=3)
        # one quotient at the longest length, a prefix for the weight-0 group
        assert seen == {"_todd_quotient": [6], "_rational_power": [3, 6], "_series_power": []}

    def test_circle_normal_series_has_jet_order_plus_one_terms(self, monkeypatch):
        (comp,) = build_preset("weighted-s3", (2, 3)).components[Fraction(1, 2)]
        assert comp.k == 0 and len(comp.normal) == 1 and comp.normal[0].weight[0]
        seen = self.spy(monkeypatch)
        dc_inverse(comp.normal, comp.generators, 0, jet_order=5)
        assert seen == {"_todd_quotient": [], "_rational_power": [], "_series_power": [6]}


def _seven_dimensional_component(generators, pairing):
    """A fixed component with k = 3, mu = 1 and Reeb weight 1, and no roots."""
    return FixedComponentData(dim_odd=7, generators=generators, tangential=[], normal=[],
                              mu=Fraction(1), reeb_weight=(1,), pairing=pairing)


def _sphere_component():
    return FixedComponentData(
        dim_odd=3, generators=("dA",),
        tangential=[ChernRoot(curvature=(I,), weight=(0,)) for _ in range(2)],
        normal=[], mu=Fraction(1), reeb_weight=(1,),
        pairing={(1,): ExactScalar.pi_power(2, 4)})


class TestJForm:
    def test_sphere_delta_form(self):
        # d0(-phi) + d0'(-phi) dA: constant term d0, linear term -d0'
        assert j_form(_sphere_component(), jet_order=4) == [1, -1]

    def test_circle_delta_form(self):
        comp = FixedComponentData(dim_odd=1, generators=(), tangential=[], normal=[],
                                  mu=Fraction(1), reeb_weight=(1,),
                                  pairing={(): TWO_PI})
        assert j_form(comp, jet_order=4) == [1]

    def test_parity_no_generator_term_in_dimension_one(self):
        comp = FixedComponentData(dim_odd=1, generators=(), tangential=[], normal=[],
                                  mu=Fraction(1), reeb_weight=(1,),
                                  pairing={(): TWO_PI})
        assert len(j_form(comp, jet_order=4)) == 1

    def test_five_sphere_delta_form_is_the_taylor_sum(self):
        # alpha sum_j d0^(j)(-phi) dA^j / j!: d0, -d0', d0''/2
        (comp,) = build_preset("hopf", (2,)).components[Fraction(0)]
        assert j_form(comp, jet_order=4) == [1, -1, Fraction(1, 2)]

    def test_moment_constant_rescales_the_delta_argument(self):
        # mu = 2: d0^(j)(-2 phi) = -(-2)^-(j+1) d0^(j)(phi)
        form = j_form(replace(_sphere_component(), mu=Fraction(2)), jet_order=4)
        assert form == [Fraction(1, 2), Fraction(-1, 4)]

    def test_zero_reeb_weight_is_rejected(self):
        with pytest.raises(FormError, match="pair nontrivially"):
            j_form(replace(_sphere_component(), reeb_weight=(0,)), jet_order=4)

    def test_nonpositive_moment_is_an_ellipticity_violation(self):
        comp = FixedComponentData(dim_odd=3, generators=("dA",), tangential=[],
                                  normal=[], mu=Fraction(-1), reeb_weight=(1,),
                                  pairing={(1,): TWO_PI})
        with pytest.raises(FormError, match="ellipticity"):
            j_form(comp, jet_order=4)

    @pytest.mark.parametrize("mu, w", [(Fraction(1), 1), (Fraction(1), -1),
                                       (Fraction(3, 2), 2), (Fraction(2, 5), -3)])
    def test_each_term_is_the_rescaled_taylor_term(self, mu, w):
        # one rational per term: d0^(j)(-mu w phi) / j! through the rescaling rule
        def parts(germ):
            return [(c.pi, c.value.level, c.value.den, c.value.nums) for c in germ.terms]
        for k in range(7):
            comp = FixedComponentData(dim_odd=2 * k + 1, generators=("dA",), tangential=[],
                                      normal=[], mu=mu, reeb_weight=(w,),
                                      pairing={(k,): TWO_PI})
            form = j_form(comp, jet_order=k)
            assert len(form) == k + 1 and all(type(c) is Fraction for c in form)
            for j, c in enumerate(form):
                old = scale_variable(DeltaGerm.delta(j, Fraction(1, factorial(j))), -mu * w)
                assert parts(DeltaGerm.delta(j, c)) == parts(old), (mu, w, k, j)

    def test_the_checks_keep_their_messages(self):
        for mu in (Fraction(0), Fraction(-1)):
            with pytest.raises(FormError) as err:
                j_form(replace(_sphere_component(), mu=mu), jet_order=4)
            assert str(err.value) == "ellipticity violation: moment constant must be positive"
        with pytest.raises(FormError) as err:
            j_form(replace(_sphere_component(), reeb_weight=(0,)), jet_order=4)
        assert str(err.value) == ("the moment covector must pair nontrivially with the circle "
                                  "on each component (constant-moment normalization)")


class TestMultiply:
    def test_multiplying_by_one_is_identity(self):
        x = FormElement(("dA",), 2, 4, {(1, 0): ONE, (0, 2): I})
        assert FormElement.one(("dA",), 2, 4) * x == x

    def test_basis_mismatch_is_rejected(self):
        a = FormElement.one(("dA",), 1, 4)
        b = FormElement.one(("dA", "e1"), 1, 4)
        with pytest.raises(FormError, match="basis"):
            a * b

    def test_truncation_consistency(self):
        # truncate(a b) computed at high truncation equals the product computed
        # directly at the low truncation, in the generators and in phi
        rng = random.Random(13)
        for _ in range(25):
            def random_form(k, order):
                terms = {}
                for e in range(k + 1):
                    for f in range(order + 1):
                        terms[(e, f)] = ExactScalar.from_rational(rng.randint(-4, 4))
                return FormElement(("dA",), k, order, terms)
            hi_a, hi_b = random_form(4, 4), random_form(4, 4)
            for k, order in ((2, 4), (4, 2), (2, 1)):
                lo_a = FormElement(("dA",), k, order, hi_a.terms)
                lo_b = FormElement(("dA",), k, order, hi_b.terms)
                cut = FormElement(("dA",), k, order, (hi_a * hi_b).terms)
                assert cut == lo_a * lo_b

    def test_product_jet_order_is_the_lower_one(self):
        phi = FormElement((), 0, 4, {(1,): ONE})
        low = FormElement.one((), 0, 1) + phi
        prod = (phi + phi * phi) * low
        assert prod.jet_order == 1 and prod == FormElement((), 0, 1, {(1,): ONE})

    def test_exponent_needs_a_phi_entry(self):
        with pytest.raises(FormError, match="bad exponent"):
            FormElement(("dA",), 1, 4, {(1,): ONE})


class TestNoProductByOne:
    def test_the_hopf_identity_germ_multiplies_no_form_by_one(self, monkeypatch):
        model = build_preset("hopf", (4,))
        (comp,) = model.components[Fraction(0)]
        assert not comp.normal and all(r == comp.tangential[0] for r in comp.tangential)
        operands, real = [], FormElement.__mul__

        def spied(self, other):
            operands.extend((self, other))
            return real(self, other)
        monkeypatch.setattr(FormElement, "__mul__", spied)
        germ_at(model, 0)
        assert operands  # the running powers of the one Todd group's series
        for f in operands:
            assert f != FormElement.one(f.generators, f.truncation, f.jet_order)

    def test_the_empty_products_are_one(self):
        one = FormElement.one(("dA",), 3, 3)
        assert todd([], ("dA",), 3, jet_order=3) == one
        assert dc_inverse([], ("dA",), 3, jet_order=3) == one


class TestRootValue:
    def test_two_generator_curvature_and_a_nonzero_weight(self):
        # curvature i e1 - 2 e2 and weight 3: i e1 - 2 e2 + 3 i phi
        gens = ("e1", "e2")
        r = ChernRoot(curvature=(I, ExactScalar.from_rational(-2)), weight=(3,))
        assert root_value(r, gens, 2, 3) == FormElement(gens, 2, 3, {
            (1, 0, 0): I, (0, 1, 0): ExactScalar.from_rational(-2), (0, 0, 1): I * 3})
        # truncation 0 drops the curvature, jet order 0 the phi term
        assert root_value(r, gens, 0, 3) == FormElement(gens, 0, 3, {(0, 0, 1): I * 3})
        assert root_value(r, gens, 2, 0) == FormElement(gens, 2, 0, {
            (1, 0, 0): I, (0, 1, 0): ExactScalar.from_rational(-2)})


class TestIntegrate:
    def test_circle_gives_two_pi_delta(self):
        comp = FixedComponentData(dim_odd=1, generators=(), tangential=[], normal=[],
                                  mu=Fraction(1), reeb_weight=(1,),
                                  pairing={(): TWO_PI})
        one = FormElement.one((), 0, 4)
        germ = integrate_component(one, j_form(comp, jet_order=4), comp.pairing)
        assert germ == DeltaGerm.delta(0, TWO_PI)

    def test_sphere_reproduces_worked_example(self):
        comp = _sphere_component()
        td = todd(comp.tangential, comp.generators, comp.k, jet_order=5, direction="plus")
        germ = integrate_component(td, j_form(comp, jet_order=5), comp.pairing)
        germ = germ * (TWO_PI * I).inverse()
        expected = DeltaGerm([TWO_PI, TWO_PI * I])
        assert germ == expected

    def test_todd_times_delta_form_expansion(self):
        # (1 + i dA) * (d0 - d0' dA) has top coefficient i d0 - d0' at dA
        comp = replace(_sphere_component(), pairing={(1,): ONE})
        td = FormElement.one(("dA",), 1, 4) + FormElement(("dA",), 1, 4, {(1, 0): I})
        delta = j_form(comp, jet_order=4)
        assert delta == [1, -1]
        germ = integrate_component(td, delta, comp.pairing)
        assert germ == DeltaGerm.delta(0) * I - DeltaGerm.delta(1)
        assert germ == reference_integral(td, comp)

    def test_zero_form_integrates_to_zero(self):
        zero = FormElement(("dA",), 1, 4)
        delta = j_form(_sphere_component(), jet_order=4)
        assert integrate_component(zero, delta, {(1,): TWO_PI}).is_zero()

    def test_missing_pairing_entry_is_an_error(self):
        one = FormElement.one(("dA",), 1, 4)
        with pytest.raises(FormError, match=re.escape("surviving monomial (1,)")):
            integrate_component(one, j_form(_sphere_component(), jet_order=4), {})

    def test_missing_entry_of_a_nonzero_top_monomial_names_it(self):
        # two generators: only the e1 monomial is missing, and its coefficient
        # e1 * d0 is nonzero
        gens = ("dA", "e1")
        smooth = FormElement(gens, 1, 4, {(0, 0, 0): ONE, (0, 1, 0): ONE})
        delta = j_form(replace(_sphere_component(), generators=gens), jet_order=4)
        with pytest.raises(FormError, match=re.escape("surviving monomial (0, 1)")):
            integrate_component(smooth, delta, {(1, 0): TWO_PI})

    def test_missing_entry_of_a_vanishing_top_monomial_is_not_needed(self):
        # (phi - dA) * (d0 - d0' dA) at dA: phi * (-d0') - d0 = d0 - d0 = 0
        smooth = FormElement(("dA",), 1, 4, {(0, 1): ONE, (1, 0): -ONE})
        delta = j_form(_sphere_component(), jet_order=4)
        assert integrate_component(smooth, delta, {}).is_zero()

    def test_insufficient_jet_order_is_an_error(self):
        # k = 3: the delta form reaches d0^(3), and against a jet of order 1
        # the dropped phi^2 and phi^3 would still pair with it
        comp = _seven_dimensional_component(("dA",), {(3,): ONE})
        delta = j_form(comp, jet_order=3)
        assert delta == [1, -1, Fraction(1, 2), Fraction(-1, 6)]
        with pytest.raises(FormError, match="raise the truncation to at least 3"):
            integrate_component(FormElement.one(("dA",), 3, 1), delta, comp.pairing)
        one = FormElement.one(("dA",), 3, 3)
        assert integrate_component(one, delta, comp.pairing) == \
            DeltaGerm.delta(3, Fraction(-1, 6)) == reference_integral(one, comp)

    def test_jets_group_by_generator_monomial(self):
        # k = 3, delta form d0 - d0^(1) dA + d0^(2) dA^2/2 - d0^(3) dA^3/6
        # (alpha implicit): 2 phi^3 meets -d0^(3)/6 and dA^2 (1 + phi) meets
        # -d0^(1), both at dA^3, 2 d0 - d0^(1) + d0; e1^2 phi meets -d0^(1)
        # at dA e1^2, giving d0, which pairs to 2
        comp = _seven_dimensional_component(("dA", "e1"), {(3, 0): ONE, (1, 2): ONE * 2})
        smooth = FormElement(("dA", "e1"), 3, 3, {
            (0, 0, 3): ONE * 2, (2, 0, 0): ONE, (2, 0, 1): ONE, (0, 2, 1): ONE})
        germ = integrate_component(smooth, j_form(comp, jet_order=3), comp.pairing)
        assert germ == DeltaGerm.delta(0, 5) - DeltaGerm.delta(1)
        assert germ == reference_integral(smooth, comp)

    def test_basis_mismatch_is_rejected(self):
        delta = j_form(_sphere_component(), jet_order=4)
        with pytest.raises(FormError, match="basis"):
            integrate_component(FormElement.one(("dA",), 2, 4), delta, {(1,): TWO_PI})
