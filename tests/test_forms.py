"""Form algebra: Todd and determinant factors, the delta form, integration."""

import random
import re
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial

import pytest

from contact_index import forms
from contact_index.catalog import FixedComponentData, model_from_document
from contact_index.deltas import DeltaGerm
from contact_index.engine import CalibrationConfig, build_preset, germ_at
from contact_index.forms import (ChernRoot, FormElement, FormError, _normal_power,
                                 _rational_power, _todd_quotient, dc_inverse, evaluate_series,
                                 integrate_component, j_form, root_value, todd)
from contact_index.scalars import CyclotomicNumber
from distributions import delta, reference_integral, scale_variable
from series_reference import eigenvalue, normal_factor_series
from test_golden_reports import TWO_GENERATOR_MODELS

ONE = CyclotomicNumber.from_rational(1)
I = CyclotomicNumber.zeta(4, 1)
TWO = CyclotomicNumber.from_rational(2)  # 2 pi at pi-grade 1, its pi left implicit


def todd_series(length, direction="plus"):
    """Taylor coefficients of x/(1-e^-x) ("plus") or x/(e^x-1) ("minus")."""
    return _rational_power(_todd_quotient(length, direction), -1)


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
        assert todd([], ("dA",), jet_order=2) == FormElement.one(("dA",), 2)

    def test_round_sphere_value(self):
        # two factors of curvature i dA at truncation 1 multiply to 1 + i dA
        r = ChernRoot(curvature=(I,), weight=(0,))
        td = todd([r, r], ("dA",), jet_order=1)
        expected = FormElement.one(("dA",), 1) + FormElement(("dA",), 1, {(1, 0): I})
        assert td == expected

    def test_single_root_taylor_coefficients(self):
        # 1 + c/2 + c^2/12 for curvature c, frozen from the recurrence oracle
        c = CyclotomicNumber.from_rational(1)
        r = ChernRoot(curvature=(c,), weight=(0,))
        td = todd([r], ("dA",), jet_order=2)
        assert td.terms[(0, 0)] == ONE
        assert td.terms[(1, 0)] == CyclotomicNumber.from_rational(Fraction(1, 2))
        assert td.terms[(2, 0)] == CyclotomicNumber.from_rational(Fraction(1, 12))

    def test_multiplicativity(self):
        rng = random.Random(5)
        for _ in range(20):
            roots = [ChernRoot(curvature=(CyclotomicNumber.from_rational(rng.randint(-3, 3)),),
                               weight=(rng.randint(-2, 2),)) for _ in range(3)]
            left = todd(roots[:1], ("dA",), jet_order=4) * todd(roots[1:], ("dA",), jet_order=4)
            assert left == todd(roots, ("dA",), jet_order=4)

    def test_tangential_precondition(self):
        bad = ChernRoot(curvature=(I,), weight=(0,), eigenvalue_exponent=Fraction(1, 2))
        with pytest.raises(FormError, match="tangential"):
            todd([bad], ("dA",), jet_order=1)


class TestNormalDeterminant:
    def test_empty_product_is_one(self):
        assert dc_inverse([], ("dA",), jet_order=2) == FormElement.one(("dA",), 2)

    def test_minus_one_eigenvalue_jet(self):
        # (1 + e^{i b phi})^-1 = 1/2 - (i b / 4) phi + O(phi^2), b = 3
        r = ChernRoot(curvature=(), weight=(3,), eigenvalue_exponent=Fraction(1, 2))
        dc = dc_inverse([r], (), jet_order=1)
        assert dc.terms[(0,)] == CyclotomicNumber.from_rational(Fraction(1, 2))
        assert dc.terms[(1,)] == I * CyclotomicNumber.from_rational(Fraction(-3, 4))

    def test_minus_one_eigenvalue_jet_against_finite_differences(self):
        # numeric oracle: central differences of t -> 1/(1 + e^{3 i t}) at 0
        import cmath
        f = lambda t: 1 / (1 + cmath.exp(3j * t))
        h = 1e-6
        d1 = (f(h) - f(-h)) / (2 * h)
        r = ChernRoot(curvature=(), weight=(3,), eigenvalue_exponent=Fraction(1, 2))
        dc = dc_inverse([r], (), jet_order=1)
        assert abs(dc.terms[(0,)].complex_value() - f(0)) < 1e-12
        assert abs(dc.terms[(1,)].complex_value() - d1) < 1e-6

    def test_cube_root_eigenvalue_constant(self):
        r = ChernRoot(curvature=(), weight=(0,), eigenvalue_exponent=Fraction(1, 3))
        dc = dc_inverse([r], (), jet_order=0)
        value = dc.terms[(0,)]
        lam = CyclotomicNumber.root_of_unity(1, 3)
        assert value * (ONE - lam) == ONE

    def test_eigenvalue_one_is_a_fixed_set_mismatch(self):
        with pytest.raises(FormError, match="mis-identified"):
            normal_factor_series(CyclotomicNumber.from_rational(1), 4)

    def test_product_with_direct_determinant_is_one(self):
        # dc_inverse(root) times the directly assembled (1 - lambda e^value) is 1
        r = ChernRoot(curvature=(I,), weight=(2,), eigenvalue_exponent=Fraction(1, 4))
        gens, k = ("dA",), 3
        inv = dc_inverse([r], gens, jet_order=k)
        lam = CyclotomicNumber.root_of_unity(1, 4)
        exp_series = [CyclotomicNumber.from_rational(Fraction(1, factorial(j)))
                      for j in range(k + 1)]
        e_v = evaluate_series(exp_series, root_value(r, gens, k))
        direct = FormElement.one(gens, k) - FormElement.one(gens, k) * lam * e_v
        assert inv * direct == FormElement.one(gens, k)


class TestGroupedRoots:
    @pytest.mark.parametrize("direction", ["plus", "minus"])
    def test_todd_equals_the_product_of_single_root_factors(self, direction):
        rng = random.Random(11)
        pool = [ChernRoot(curvature=(I * 2,), weight=(1,)),
                ChernRoot(curvature=(CyclotomicNumber.from_rational(-1),), weight=(0,))]
        for _ in range(12):
            roots = [rng.choice(pool) for _ in range(rng.randint(2, 5))]
            expected = FormElement.one(("dA",), 3)
            for r in roots:
                expected = expected * todd([r], ("dA",), jet_order=3, direction=direction)
            assert todd(roots, ("dA",), jet_order=3, direction=direction) == expected

    def test_repeated_normal_root_squares_its_factor(self):
        r = ChernRoot(curvature=(I,), weight=(3,), eigenvalue_exponent=Fraction(2, 5))
        single = dc_inverse([r], ("dA",), jet_order=3)
        assert dc_inverse([r, r], ("dA",), jet_order=3) == single * single

    def test_every_repeated_root_is_checked(self):
        good = ChernRoot(curvature=(I,), weight=(0,))
        bad = ChernRoot(curvature=(I,), weight=(0,), eigenvalue_exponent=Fraction(1, 2))
        with pytest.raises(FormError, match="tangential"):
            todd([good, good, bad], ("dA",), jet_order=2)
        with pytest.raises(FormError, match="mis-identified"):
            dc_inverse([bad, bad, good], ("dA",), jet_order=2)

    @pytest.mark.parametrize("r", [0, 1, 2, 5])
    @pytest.mark.parametrize("kind", ["todd", "normal"])
    def test_series_power_against_repeated_multiplication(self, r, kind):
        length = 8
        if kind == "todd":
            f = todd_series(length, "plus")
            got = _rational_power(f, r)
        else:  # constant term 1/(1 - zeta_5^2) != 1
            f = normal_factor_series(CyclotomicNumber.root_of_unity(2, 5), length)
            got = _normal_power(Fraction(2, 5), r, length)
        expected = [ONE] + [CyclotomicNumber.from_rational(0)] * (length - 1)
        for _ in range(r):
            expected = [sum((expected[j] * f[n - j] for j in range(n + 1)),
                            CyclotomicNumber.from_rational(0))
                        for n in range(length)]
        assert len(got) == length
        assert all(a == b for a, b in zip(got, expected))


def _full_horner(coeffs, element):
    """Horner's rule over every coefficient given, past the truncation too."""
    one = FormElement.one(element.generators, element.truncation)
    acc = one * coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * element + one * c
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
    def test_every_argument_reads_truncation_plus_one_coefficients(self):
        # a root with a phi term (weight 1) reads no more of its series than one without
        series = todd_series(3, "plus")
        for weight in (0, 1):
            x = root_value(ChernRoot(curvature=(I,), weight=(weight,)), ("dA",), 2)
            assert evaluate_series(series, x) == _full_horner(todd_series(8, "plus"), x)
            with pytest.raises(FormError, match="need 3 coefficients, got 2"):
                evaluate_series(series[:2], x)

    @pytest.mark.parametrize("name, params", ALL_PRESETS)
    def test_short_and_full_loops_agree_on_every_calibration(self, name, params):
        # the reference takes no grouping, no Miller power and no sizing: one
        # series of truncation + 5 terms per root, by the full Horner loop
        def reference(roots, series_of, gens, order):
            acc = FormElement.one(gens, order)
            for root in roots:
                acc = acc * _full_horner(series_of(root, order + 5),
                                         root_value(root, gens, order))
            return acc

        for comp, direction in _components(name, params):
            k, gens = comp.k, comp.generators
            for order in (k, k + 4):
                assert todd(comp.tangential, gens, jet_order=order, direction=direction) \
                    == reference(comp.tangential, lambda r, n: todd_series(n, direction),
                                 gens, order)
                assert dc_inverse(comp.normal, gens, jet_order=order) == reference(
                    comp.normal,
                    lambda r, n: normal_factor_series(eigenvalue(r.eigenvalue_exponent), n),
                    gens, order)


def _seeded_two_generator_components(count=16, seed=30):
    """Components on (dA, e1), k = 1 to 4, whose tangential roots carry curvature on
    both generators and weight 1, with up to two normal roots of weight +-1 and
    curvature at torsion eigenvalues of order 2 to 6."""
    rng = random.Random(seed)

    def curvature():
        return tuple(CyclotomicNumber.from_rational(Fraction(rng.randint(-4, 4) or 1,
                                                        rng.randint(1, 3))) for _ in "ab")
    for _ in range(count):
        k = rng.randint(1, 4)
        tangential = [ChernRoot(curvature=curvature(), weight=(1,))
                      for _ in range(rng.randint(1, 3))]
        normal = []
        for _ in range(rng.randint(0, 2)):
            q = rng.randint(2, 6)
            normal.append(ChernRoot(curvature=curvature(), weight=(rng.choice((1, -1)),),
                                    eigenvalue_exponent=Fraction(rng.randint(1, q - 1), q)))
        tops = [(k - e, e) for e in range(k + 1)]
        yield FixedComponentData(
            dim_odd=2 * k + 1, generators=("dA", "e1"), tangential=tangential, normal=normal,
            mu=Fraction(rng.randint(1, 5), rng.randint(1, 3)), reeb_weight=(rng.choice((1, 2)),),
            pairing={e: CyclotomicNumber.from_rational(Fraction(rng.randint(-5, 5) or 1))
                     for e in tops})


class TestJetOrder:
    """A smooth form built at a higher truncation and cut to total degree k pairs
    to the germ of the form built at k, and so does every term it has of generator
    degree at most k, whatever its phi power, through the general calculus.  Roots
    with curvature and a nonzero weight are where the cut at total degree drops
    terms that a cut at generator degree k and phi degree k would each keep."""

    @staticmethod
    def check(comp, direction):
        gens, k = comp.generators, comp.k

        def smooth(order):
            return todd(comp.tangential, gens, jet_order=order, direction=direction) \
                * dc_inverse(comp.normal, gens, jet_order=order)

        delta_form = j_form(comp, jet_order=k)
        germ = integrate_component(smooth(k), delta_form, comp.pairing)
        wide = smooth(k + 4)
        assert integrate_component(FormElement(gens, k, wide.terms), delta_form,
                                   comp.pairing) == germ
        assert reference_integral(wide.terms, comp) == germ

    @pytest.mark.parametrize("name, params", ALL_PRESETS)
    def test_jet_order_k_gives_the_germ_of_jet_order_k_plus_4(self, name, params):
        for comp, direction in _components(name, params):
            self.check(comp, direction)

    @pytest.mark.parametrize("name", list(TWO_GENERATOR_MODELS))
    def test_two_generator_golden_models(self, name):
        model = model_from_document(TWO_GENERATOR_MODELS[name])
        for comps in model.components.values():
            for comp in comps:
                assert any(r.weight[0] and not r.curvature[1].is_zero()
                           for r in comp.tangential)
                for direction in ("plus", "minus"):
                    self.check(comp, direction)

    def test_seeded_two_generator_components(self):
        for comp in _seeded_two_generator_components():
            for direction in ("plus", "minus"):
                self.check(comp, direction)


class TestSeriesSizing:
    """Each root's series is built, and raised to its power, at the truncation + 1
    coefficients its argument reads: every term of a root's value has total degree
    1, with or without a phi term, so its powers vanish past the truncation."""

    @staticmethod
    def spy(monkeypatch):
        """Record the length each series kernel is called at."""
        seen = {"_todd_quotient": [], "_rational_power": [], "_normal_power": []}
        for name in seen:
            def spied(*args, name=name, real=getattr(forms, name)):
                # `_todd_quotient` takes a length first, `_rational_power` a series and
                # `_normal_power` its length last
                size = args[-1] if name == "_normal_power" else args[0]
                seen[name].append(size if isinstance(size, int) else len(size))
                return real(*args)
            monkeypatch.setattr(forms, name, spied)
        return seen

    def test_hopf_tangential_roots_read_the_truncation_only(self, monkeypatch):
        model = build_preset("hopf", (20,))
        (comp,) = model.components[Fraction(0)]
        assert comp.k == 20 and len(comp.tangential) == 21
        seen = self.spy(monkeypatch)
        todd(comp.tangential, comp.generators, jet_order=20)
        assert seen == {"_todd_quotient": [21], "_rational_power": [21], "_normal_power": []}
        # the engine asks for the same: truncation k, and one Todd quotient
        seen["_todd_quotient"].clear()
        germ_at(model, 0)
        assert seen["_todd_quotient"] == [21]

    def test_a_root_of_nonzero_weight_reads_truncation_plus_one_terms(self, monkeypatch):
        flat = ChernRoot(curvature=(I,), weight=(0,))
        turning = ChernRoot(curvature=(I,), weight=(2,))
        seen = self.spy(monkeypatch)
        todd([flat, turning, flat], ("dA",), jet_order=2)
        # one quotient, and one power per group, all of truncation + 1 terms
        assert seen == {"_todd_quotient": [3], "_rational_power": [3, 3], "_normal_power": []}

    def test_circle_normal_series_has_jet_order_plus_one_terms(self, monkeypatch):
        (comp,) = build_preset("weighted-s3", (2, 3)).components[Fraction(1, 2)]
        assert comp.k == 0 and len(comp.normal) == 1 and comp.normal[0].weight[0]
        seen = self.spy(monkeypatch)
        dc_inverse(comp.normal, comp.generators, jet_order=5)
        assert seen == {"_todd_quotient": [], "_rational_power": [], "_normal_power": [6]}


def _seven_dimensional_component(generators, pairing):
    """A fixed component with k = 3, mu = 1 and Reeb weight 1, and no roots."""
    return FixedComponentData(dim_odd=7, generators=generators, tangential=[], normal=[],
                              mu=Fraction(1), reeb_weight=(1,), pairing=pairing)


def _sphere_component():
    return FixedComponentData(
        dim_odd=3, generators=("dA",),
        tangential=[ChernRoot(curvature=(I,), weight=(0,)) for _ in range(2)],
        normal=[], mu=Fraction(1), reeb_weight=(1,),
        pairing={(1,): CyclotomicNumber.from_rational(4)})


class TestJForm:
    def test_sphere_delta_form(self):
        # d0(-phi) + d0'(-phi) dA: constant term d0, linear term -d0'
        assert j_form(_sphere_component(), jet_order=4) == [1, -1]

    def test_circle_delta_form(self):
        comp = FixedComponentData(dim_odd=1, generators=(), tangential=[], normal=[],
                                  mu=Fraction(1), reeb_weight=(1,),
                                  pairing={(): TWO})
        assert j_form(comp, jet_order=4) == [1]

    def test_parity_no_generator_term_in_dimension_one(self):
        comp = FixedComponentData(dim_odd=1, generators=(), tangential=[], normal=[],
                                  mu=Fraction(1), reeb_weight=(1,),
                                  pairing={(): TWO})
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
                                  pairing={(1,): TWO})
        with pytest.raises(FormError, match="ellipticity"):
            j_form(comp, jet_order=4)

    @pytest.mark.parametrize("mu, w", [(Fraction(1), 1), (Fraction(1), -1),
                                       (Fraction(3, 2), 2), (Fraction(2, 5), -3)])
    def test_each_term_is_the_rescaled_taylor_term(self, mu, w):
        # one rational per term: d0^(j)(-mu w phi) / j! through the rescaling rule
        def parts(germ):
            return [(c.level, c.den, c.nums) for c in germ.terms]
        for k in range(7):
            comp = FixedComponentData(dim_odd=2 * k + 1, generators=("dA",), tangential=[],
                                      normal=[], mu=mu, reeb_weight=(w,),
                                      pairing={(k,): TWO})
            form = j_form(comp, jet_order=k)
            assert len(form) == k + 1 and all(type(c) is Fraction for c in form)
            for j, c in enumerate(form):
                old = scale_variable(delta(j, Fraction(1, factorial(j))), -mu * w)
                assert parts(delta(j, c)) == parts(old), (mu, w, k, j)

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
        x = FormElement(("dA",), 2, {(1, 0): ONE, (0, 2): I})
        assert FormElement.one(("dA",), 2) * x == x

    def test_basis_mismatch_is_rejected(self):
        a = FormElement.one(("dA",), 1)
        b = FormElement.one(("dA", "e1"), 1)
        with pytest.raises(FormError, match="basis"):
            a * b

    def test_truncation_consistency(self):
        # truncate(a b) computed at high truncation equals the product computed
        # directly at the low truncation: total degrees add under products
        rng = random.Random(13)
        for _ in range(25):
            def random_form():
                terms = {(e, f): CyclotomicNumber.from_rational(rng.randint(-4, 4))
                         for e in range(5) for f in range(5)}
                return FormElement(("dA",), 8, terms)
            hi_a, hi_b = random_form(), random_form()
            for k in (4, 2, 1, 0):
                lo_a = FormElement(("dA",), k, hi_a.terms)
                lo_b = FormElement(("dA",), k, hi_b.terms)
                cut = FormElement(("dA",), k, (hi_a * hi_b).terms)
                assert cut == lo_a * lo_b

    def test_terms_past_the_total_degree_are_dropped(self):
        x = FormElement(("dA",), 2, {(1, 1): ONE, (2, 1): ONE, (0, 3): ONE, (1, 0): I})
        assert sorted(x.terms) == [(1, 0), (1, 1)]
        assert x * x == FormElement(("dA",), 2, {(2, 0): -ONE})

    def test_exponent_needs_a_phi_entry(self):
        with pytest.raises(FormError, match="bad exponent"):
            FormElement(("dA",), 1, {(1,): ONE})


def spy_form_products(monkeypatch):
    """The operand pairs of every `FormElement.__mul__` taken from here on."""
    operands, real = [], FormElement.__mul__

    def spied(self, other):
        operands.append((self, other))
        return real(self, other)
    monkeypatch.setattr(FormElement, "__mul__", spied)
    return operands


class TestNoProductByOne:
    def test_the_hopf_identity_germ_multiplies_no_form_by_one(self, monkeypatch):
        # one Todd group of the one-term argument i dA: no form product at all
        model = build_preset("hopf", (4,))
        (comp,) = model.components[Fraction(0)]
        assert not comp.normal and all(r is comp.tangential[0] for r in comp.tangential)
        operands = spy_form_products(monkeypatch)
        germ_at(model, 0)
        assert operands == []

    def test_the_weighted_sphere_takes_one_product_and_none_by_one(self, monkeypatch):
        # (2, 3): two Todd groups at the identity make the one product; a torsion
        # circle has no tangential roots, so its normal factor is used as it is
        model = build_preset("weighted-s3", (2, 3))
        assert sorted(model.components) == [0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
        operands = spy_form_products(monkeypatch)
        for at in model.components:
            germ_at(model, at)
        (pair,) = operands
        for f in pair:
            assert f != FormElement.one(f.generators, f.truncation)
            assert len(f.terms) == 2  # 1 + (a/2) i dA + ..., truncated at k = 1

    def test_the_empty_products_are_one(self):
        one = FormElement.one(("dA",), 3)
        assert todd([], ("dA",), jet_order=3) == one
        assert dc_inverse([], ("dA",), jet_order=3) == one


def running_power_sum(coeffs, element):
    """sum_j coeffs[j] element^j, every power a `FormElement.__mul__` of the last by element."""
    one = FormElement.one(element.generators, element.truncation)
    acc, power = one * coeffs[0], one
    for c in coeffs[1:]:
        power = power * element
        acc = acc + power * c
    return acc


class TestOneTermArgument:
    """`evaluate_series` writes the powers of c x^e as c^j at j e, with no form product."""

    Z12 = CyclotomicNumber(12, {1: Fraction(2, 3), 2: -1})
    # (generators, truncation, exponent): the powers of (2, 0), (0, 2), (0, 0, 2) and
    # (0, 1, 1) reach the truncation exactly; those of (1, 1, 0) stop at 6 of 7 and
    # those of (1, 1) at 4 of 5
    CASES = [(("dA",), 4, (1, 0)), (("dA",), 4, (2, 0)), (("dA",), 5, (0, 1)),
             (("dA",), 6, (0, 2)), ((), 5, (1,)), (("e1", "e2"), 7, (1, 1, 0)),
             (("e1", "e2"), 6, (0, 0, 2)), (("e1", "e2"), 4, (0, 1, 1)), (("dA",), 5, (1, 1))]

    @pytest.mark.parametrize("gens, k, exp", CASES)
    @pytest.mark.parametrize("scalar", [I * 3, CyclotomicNumber.from_rational(Fraction(-2, 5)),
                                        Z12], ids=["3i", "-2/5", "z12"])
    def test_powers_equal_the_running_form_products(self, monkeypatch, gens, k, exp, scalar):
        rng = random.Random(repr((exp, k)))
        element = FormElement(gens, k, {exp: scalar})
        need = k + 1
        for series in ([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(need)],
                       [CyclotomicNumber(12, {rng.randint(0, 3): rng.randint(-4, 4)})
                        for _ in range(need)]):
            want = running_power_sum(series, element)
            operands = spy_form_products(monkeypatch)
            got = evaluate_series(series, element)
            monkeypatch.undo()
            assert operands == []
            assert got == want and got.truncation == k
            assert repr(got) == repr(want)

    def test_the_power_at_the_truncation_is_kept_and_the_next_is_dropped(self):
        # (i phi)^3 at truncation 3 is the last term; (i phi^2)^2 and (i dA phi)^2 are past it
        got = evaluate_series([ONE] * 4, FormElement(("dA",), 3, {(0, 1): I}))
        assert got == FormElement(("dA",), 3, {(0, 0): ONE, (0, 1): I, (0, 2): -ONE,
                                               (0, 3): -I})
        got = evaluate_series([ONE] * 4, FormElement(("dA",), 3, {(0, 2): I}))
        assert got == FormElement(("dA",), 3, {(0, 0): ONE, (0, 2): I})
        got = evaluate_series([ONE] * 4, FormElement(("dA",), 3, {(1, 1): I}))
        assert got == FormElement(("dA",), 3, {(0, 0): ONE, (1, 1): I})


class TestRootValue:
    def test_two_generator_curvature_and_a_nonzero_weight(self):
        # curvature i e1 - 2 e2 and weight 3: i e1 - 2 e2 + 3 i phi
        gens = ("e1", "e2")
        r = ChernRoot(curvature=(I, CyclotomicNumber.from_rational(-2)), weight=(3,))
        assert root_value(r, gens, 2) == FormElement(gens, 2, {
            (1, 0, 0): I, (0, 1, 0): CyclotomicNumber.from_rational(-2), (0, 0, 1): I * 3})
        # every term has total degree 1, so truncation 0 drops them all
        assert root_value(r, gens, 0) == FormElement(gens, 0)


class TestIntegrate:
    def test_circle_gives_two_pi_delta(self):
        comp = FixedComponentData(dim_odd=1, generators=(), tangential=[], normal=[],
                                  mu=Fraction(1), reeb_weight=(1,),
                                  pairing={(): TWO})
        one = FormElement.one((), 0)
        germ = integrate_component(one, j_form(comp, jet_order=0), comp.pairing)
        assert germ == delta(0, TWO)

    def test_sphere_reproduces_worked_example(self):
        comp = _sphere_component()
        td = todd(comp.tangential, comp.generators, jet_order=comp.k, direction="plus")
        germ = integrate_component(td, j_form(comp, jet_order=comp.k), comp.pairing)
        germ = germ * (TWO * I).inverse()
        expected = DeltaGerm([TWO, TWO * I])
        assert germ == expected

    def test_todd_times_delta_form_expansion(self):
        # (1 + i dA) * (d0 - d0' dA) has top coefficient i d0 - d0' at dA
        comp = replace(_sphere_component(), pairing={(1,): ONE})
        td = FormElement.one(("dA",), 1) + FormElement(("dA",), 1, {(1, 0): I})
        delta_form = j_form(comp, jet_order=1)
        assert delta_form == [1, -1]
        germ = integrate_component(td, delta_form, comp.pairing)
        assert germ == delta(0) * I - delta(1)
        assert germ == reference_integral(td.terms, comp)

    def test_zero_form_integrates_to_zero(self):
        zero = FormElement(("dA",), 1)
        delta_form = j_form(_sphere_component(), jet_order=1)
        assert integrate_component(zero, delta_form, {(1,): TWO}).is_zero()

    def test_missing_pairing_entry_is_an_error(self):
        one = FormElement.one(("dA",), 1)
        with pytest.raises(FormError, match=re.escape("surviving monomial (1,)")):
            integrate_component(one, j_form(_sphere_component(), jet_order=1), {})

    def test_missing_entry_of_a_nonzero_top_monomial_names_it(self):
        # two generators: only the e1 monomial is missing, and its coefficient
        # e1 * d0 is nonzero
        gens = ("dA", "e1")
        smooth = FormElement(gens, 1, {(0, 0, 0): ONE, (0, 1, 0): ONE})
        delta_form = j_form(replace(_sphere_component(), generators=gens), jet_order=1)
        with pytest.raises(FormError, match=re.escape("surviving monomial (0, 1)")):
            integrate_component(smooth, delta_form, {(1, 0): TWO})

    def test_missing_entry_of_a_vanishing_top_monomial_is_not_needed(self):
        # (phi - dA) * (d0 - d0' dA) at dA: phi * (-d0') - d0 = d0 - d0 = 0
        smooth = FormElement(("dA",), 1, {(0, 1): ONE, (1, 0): -ONE})
        delta_form = j_form(_sphere_component(), jet_order=1)
        assert integrate_component(smooth, delta_form, {}).is_zero()

    def test_terms_past_total_degree_k_pair_to_zero(self):
        # k = 3: phi^4, phi^5 meet d0^(3) and dA phi^3, dA^2 phi^2 meet d0^(2), d0^(1),
        # so the terms the truncation drops are the ones that pair to zero; phi^p for
        # p <= 3 meets -d0^(3)/6 and leaves (-1)^p 3!/(3-p)! (-1/6) d0^(3-p)
        comp = _seven_dimensional_component(("dA",), {(3,): ONE})
        delta_form = j_form(comp, jet_order=3)
        assert delta_form == [1, -1, Fraction(1, 2), Fraction(-1, 6)]
        terms = {(0, p): ONE for p in range(6)} | {(1, 3): ONE, (2, 2): ONE}
        smooth = FormElement(("dA",), 3, terms)
        assert sorted(smooth.terms) == [(0, 0), (0, 1), (0, 2), (0, 3)]
        germ = integrate_component(smooth, delta_form, comp.pairing)
        assert germ == DeltaGerm(delta_form) == reference_integral(terms, comp)

    def test_jets_group_by_generator_monomial(self):
        # k = 3, delta form d0 - d0^(1) dA + d0^(2) dA^2/2 - d0^(3) dA^3/6
        # (alpha implicit): 2 phi^3 meets -d0^(3)/6 and dA^2 (1 + phi) meets
        # -d0^(1), both at dA^3, 2 d0 - d0^(1) + d0; e1^2 phi meets -d0^(1)
        # at dA e1^2, giving d0, which pairs to 2
        comp = _seven_dimensional_component(("dA", "e1"), {(3, 0): ONE, (1, 2): ONE * 2})
        smooth = FormElement(("dA", "e1"), 3, {
            (0, 0, 3): ONE * 2, (2, 0, 0): ONE, (2, 0, 1): ONE, (0, 2, 1): ONE})
        germ = integrate_component(smooth, j_form(comp, jet_order=3), comp.pairing)
        assert germ == delta(0, 5) - delta(1)
        assert germ == reference_integral(smooth.terms, comp)

    def test_basis_mismatch_is_rejected(self):
        delta_form = j_form(_sphere_component(), jet_order=1)
        with pytest.raises(FormError, match="basis"):
            integrate_component(FormElement.one(("dA",), 2), delta_form, {(1,): TWO})
