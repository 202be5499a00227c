"""Engine: germs, character assembly, quasi-polynomials, the double expansion."""

import math
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from contact_index import catalog, oracle
from contact_index.catalog import (IDENTITY, ContactModel, FiberFamily,
                                   FixedComponentData, preset_circle, scaled_model)
from contact_index.deltas import DeltaGerm
from contact_index.forms import FormElement, integrate_component, j_form, todd
from contact_index import engine
from contact_index.engine import (DEFAULT_CALIBRATION, CalibrationConfig, CalibrationError,
                                  EngineError, UnsupportedModelError,
                                  assemble_character, build_preset,
                                  calibrate_conventions, corollary_expand,
                                  dh_fourier, fit_quasi_polynomial, germ_at,
                                  residual_factors)
from contact_index.scalars import CyclotomicNumber, _euler_phi, approx_display
from character_reference import ScalarFit, components, fourier_table, quasi_equal
from distributions import delta
from laurent_reference import corollary_reference

ONE = CyclotomicNumber.from_rational(1)
I = CyclotomicNumber.zeta(4, 1)
TWO = CyclotomicNumber.from_rational(2)  # 2 pi at pi-grade 1, its pi left implicit


def exact_horner(coeffs, m):
    """The reference value of a residue polynomial: exact scalar arithmetic throughout."""
    acc = CyclotomicNumber.from_rational(0)
    for c in reversed(coeffs):
        acc = acc * m + c
    return acc


def fit(contributions):
    """`fit_quasi_polynomial` of (q, cyclotomic table) pairs, each through `components`."""
    return fit_quasi_polynomial([components(q, table) for q, table in contributions])


RANK1_PRESETS = [
    ("circle", ()),
    ("hopf", (1,)),
    ("hopf", (2,)),
    ("weighted-s3", (1, 2)),
    ("weighted-s3", (2, 3)),
    ("weighted-s3", (3, 4)),
]


class TestGerms:
    def test_circle_identity_germ(self):
        assert germ_at(build_preset("circle", ()), IDENTITY) == \
            delta(0, TWO)

    def test_sphere_identity_germ(self):
        germ = germ_at(build_preset("hopf", (1,)), IDENTITY)
        assert germ == DeltaGerm([TWO, TWO * I])

    def test_sphere_vanishes_off_the_identity(self):
        hopf = build_preset("hopf", (1,))
        for at in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 3)):
            assert germ_at(hopf, at).is_zero()

    def test_weighted_half_turn_germ_value(self):
        germ = germ_at(build_preset("weighted-s3", (1, 2)), Fraction(1, 2))
        assert germ == delta(0, CyclotomicNumber.from_rational(Fraction(1, 2)))

    def test_weighted_third_turn_has_cyclotomic_coefficient(self):
        germ = germ_at(build_preset("weighted-s3", (2, 3)), Fraction(1, 3))
        (coeff,) = germ.terms
        # (2 pi / 3) / (1 - e^{-4 pi i/3}): check by multiplying the factor back
        lam = CyclotomicNumber.root_of_unity(-2, 3)
        assert coeff * (ONE - lam) == CyclotomicNumber.from_rational(Fraction(2, 3))

    def test_additivity_over_components(self):
        (circle_comp,) = preset_circle().components[IDENTITY]
        doubled = ContactModel(rank=1, ambient_n=0, model_id="two-circles",
                               components={IDENTITY: [circle_comp, circle_comp]})
        single = ContactModel(rank=1, ambient_n=0, model_id="one-circle",
                              components={IDENTITY: [circle_comp]})
        assert germ_at(doubled.validate(), IDENTITY) == \
            germ_at(single.validate(), IDENTITY) + germ_at(single, IDENTITY)

    def test_rank_two_is_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            germ_at(build_preset("prequantum-cpn", (1,)), IDENTITY)

    def test_vanishing_exactly_off_torsion_support(self):
        model = build_preset("weighted-s3", (2, 3))
        for at in model.torsion_support:
            assert not germ_at(model, at).is_zero()
        for at in (Fraction(1, 5), Fraction(1, 4), Fraction(5, 6)):
            assert germ_at(model, at).is_zero()


class TestOneRescale:
    """(2 pi i)^-k is folded into the pairing table, so each top monomial's germ takes one
    `DeltaGerm.__mul__`, by its scaled pairing value, and the total is not scaled again."""

    @staticmethod
    def spy(monkeypatch):
        calls, real = [], DeltaGerm.__mul__

        def spied(self, scalar):
            calls.append(scalar)
            return real(self, scalar)
        monkeypatch.setattr(DeltaGerm, "__mul__", spied)
        return calls

    @staticmethod
    def twice_scaled(comp, smooth, k):
        """The germ scaled the other way round: by the pairing, then by (2 pi i)^-k."""
        germ = integrate_component(smooth, j_form(comp, jet_order=comp.k), comp.pairing)
        scale = ONE
        for _ in range(k):
            scale = scale * (TWO * I).inverse()
        return germ * scale

    def test_germ_at_scales_each_top_monomial_once(self, monkeypatch):
        model = build_preset("hopf", (8,))
        (comp,) = model.components[IDENTITY]
        want = self.twice_scaled(comp, todd(comp.tangential, comp.generators,
                                            jet_order=8, direction="plus"), 8)
        calls = self.spy(monkeypatch)
        germ = germ_at(model, IDENTITY)
        assert len(calls) == len(comp.pairing) == 1  # the top monomial dA^8
        assert germ == want

    def test_dh_fourier_scales_each_top_monomial_once(self, monkeypatch):
        model = build_preset("hopf", (3,))
        (comp,) = model.components[IDENTITY]
        want = self.twice_scaled(comp, FormElement.one(comp.generators, 3), 3)
        calls = self.spy(monkeypatch)
        germ = dh_fourier(model)
        assert len(calls) == len(comp.pairing) == 1
        assert germ == want


class TestScalingInvariance:
    @pytest.mark.parametrize("name,params", RANK1_PRESETS,
                             ids=[f"{n}{p}" for n, p in RANK1_PRESETS])
    def test_germs_are_bit_identical_under_rescaling(self, name, params):
        model = build_preset(name, params)
        for lam in (2, 3, 5):
            scaled = scaled_model(model, lam)
            for at in model.torsion_support:
                assert germ_at(model, at) == germ_at(scaled, at)


class TestCharacters:
    def test_circle_is_all_ones(self):
        res = assemble_character(build_preset("circle", ()), 20)
        assert all(res.integers[m] == 1 for m in range(-20, 21))

    def test_sphere_is_one_minus_m(self):
        res = assemble_character(build_preset("hopf", (1,)), 20)
        assert all(res.integers[m] == 1 - m for m in range(-20, 21))

    @pytest.mark.parametrize("name,params", RANK1_PRESETS,
                             ids=[f"{n}{p}" for n, p in RANK1_PRESETS])
    def test_oracle_equivalence_and_integrality(self, name, params):
        model = build_preset(name, params)
        res = assemble_character(model, 100)
        assert None not in res.integers.values()
        for m in range(-100, 101):
            assert res.integers[m] == oracle.oracle_character(name, params, m), m

    def test_weighted_period_is_the_torsion_lcm(self):
        res = assemble_character(build_preset("weighted-s3", (2, 3)), 30)
        assert res.quasi.period == 6

    def test_oracle_equivalence_beyond_the_bundled_pairs(self):
        # (1, 120): every order divisible by 4 from 4 to 120, two Galois orbits each
        for a, b, max_m in ((3, 5, 60), (4, 5, 60), (1, 120, 100)):
            res = assemble_character(build_preset("weighted-s3", (a, b)), max_m)
            for m in range(-max_m, max_m + 1):
                assert res.integers[m] == \
                    oracle.sphere_char_oracle(a, b, m), (a, b, m)

    def test_seven_sphere_character(self):
        res = assemble_character(build_preset("hopf", (3,)), 30)
        for m in range(-30, 31):
            assert res.integers[m] == oracle.cpn_chi(3, -m), m

    def test_sphere_quasi_polynomial_coefficients(self):
        res = assemble_character(build_preset("hopf", (1,)), 10)
        assert res.quasi.period == 1
        assert res.quasi.to_document()["polys"][0]["coefficients"] == \
            [ONE.to_text(), CyclotomicNumber.from_rational(-1).to_text()]

    def test_quasi_polynomial_evaluates_like_the_samples(self):
        res = assemble_character(build_preset("weighted-s3", (3, 4)), 60)
        for m in range(-60, 61):
            want = oracle.sphere_char_oracle(3, 4, m)
            assert res.coefficients[m] == CyclotomicNumber.from_rational(want), m
            assert res.integers[m] == want, m
            value, integer = res.quasi.read(m)
            assert value.to_text() == res.coefficients[m].to_text() and integer == want, m

    @pytest.mark.parametrize("a,b,max_m", [(5, 7, 3), (2, 3, 1)])
    def test_window_below_the_period_gives_the_whole_quasi_polynomial(self, a, b, max_m):
        model = build_preset("weighted-s3", (a, b))
        short = assemble_character(model, max_m)
        full = assemble_character(model, 3 * a * b)
        assert short.quasi.period == a * b
        assert quasi_equal(short.quasi, full.quasi)
        assert sorted(short.coefficients) == list(range(-max_m, max_m + 1))
        for m in range(-max_m, max_m + 1):
            assert short.integers[m] == \
                oracle.oracle_character("weighted-s3", (a, b), m), m

    def test_rank_two_is_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            assemble_character(build_preset("prequantum-cpn", (1,)), 5)


class TestQuasiPolynomialFit:
    def test_period_one_table_evaluates(self):
        table = {0: [CyclotomicNumber.from_rational(1), CyclotomicNumber.from_rational(3)]}
        qp = fit([(1, table)])
        assert qp.period == 1
        assert qp.read(17)[0] == CyclotomicNumber.from_rational(52)
        assert qp.read(-5)[0] == CyclotomicNumber.from_rational(-14)

    def test_tables_sum_per_residue_over_the_lcm_period(self):
        two = {0: [ONE], 1: [CyclotomicNumber.from_rational(-1)]}
        three = {r: [CyclotomicNumber.from_rational(r), ONE] for r in range(3)}
        qp = fit([(2, two), (3, three), (2, two)])
        assert qp.period == 6
        for m in range(-12, 13):
            want = 2 * (-1) ** (m % 2) + m % 3 + m
            assert qp.read(m)[0] == CyclotomicNumber.from_rational(want), m

    def test_equality_across_periods(self):
        a = fit([(1, {0: [ONE]})])
        b = fit([(2, {0: [ONE], 1: [ONE]})])
        assert quasi_equal(a, b)
        assert not quasi_equal(a, fit([(2, {0: [ONE], 1: [ONE, ONE]})]))
        # the class itself compares by identity
        assert a != fit([(1, {0: [ONE]})])

    def test_integer_evaluation_matches_exact_horner(self):
        rng = random.Random(17)

        def scalar():  # zero one time in four; a character has pi-grade 0
            if not rng.randint(0, 3):
                return CyclotomicNumber.from_rational(0)
            level = rng.choice([4, 12, 20])
            return CyclotomicNumber(level, {
                e: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                for e in rng.sample(range(_euler_phi(level)), rng.randint(1, 2))})

        for period in (1, 3, 4):
            polys = {r: [scalar() for _ in range(rng.randint(0, 4))]
                     for r in range(period) if rng.random() < 0.8}
            qp = fit([(period, {r: polys.get(r, []) for r in range(period)})])
            for m in range(-13, 14):
                want = exact_horner(polys.get(m % period, []), m)
                got = qp.read(m)[0]
                assert got == want, (period, m)
                assert got.to_text() == want.to_text(), (period, m)
                assert got.level == got.demote().level

    def test_window_reads_what_read_reads_one_residue_at_a_time(self):
        rng = random.Random(21)

        def coefficient(kind):
            if kind == "integer":
                return CyclotomicNumber.from_rational(rng.randint(-9, 9))
            if kind == "rational":  # some values are integers, some not
                return CyclotomicNumber.from_rational(Fraction(rng.randint(-9, 9),
                                                               rng.randint(2, 6)))
            level = rng.choice([12, 20])
            return CyclotomicNumber(
                level, {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        for e in rng.sample(range(_euler_phi(level)), rng.randint(1, 2))})

        kinds, seen = ("integer", "rational", "irrational", "zero"), set()
        for period in (1, 2, 5, 7, 12):
            for _ in range(4):
                polys = {}
                for r in range(period):
                    kind = rng.choice(kinds)
                    polys[r] = [coefficient(kind) for _ in range(rng.randint(1, 3))] \
                        if kind != "zero" else []
                qp = fit([(period, polys)])
                for max_m in {1, 2, period // 2, period, 2 * period + 3} - {0}:
                    coefficients, integers = qp.window(max_m)
                    span = list(range(-max_m, max_m + 1))
                    assert list(coefficients) == span and list(integers) == span
                    for m in span:
                        value, integer = qp.read(m)
                        assert coefficients[m] == value, (period, max_m, m)
                        assert coefficients[m].to_text() == value.to_text(), (period, max_m, m)
                        assert integers[m] == integer, (period, max_m, m)
                        seen.add("integer" if integer is not None else "other")
                    self.assert_document_is_the_per_entry_formula(qp, coefficients, integers)
        assert seen == {"integer", "other"}

    @staticmethod
    def assert_document_is_the_per_entry_formula(qp, coefficients, integers):
        result = engine.CharacterResult("synthetic", CalibrationConfig(), {}, coefficients, qp,
                                        integers)
        for digits in (0, 4, 15):
            doc = engine.character_document(result, digits)
            want = []
            for m in sorted(coefficients):
                value, integer = qp.read(m)
                entry = {"m": m, "value": value.to_text(), "approx": approx_display(value, digits)}
                want.append(entry if integer is None else {**entry, "integer": integer})
            assert doc["coefficients"] == want
            assert doc["non_integer_coefficients"] == \
                [m for m in sorted(coefficients) if qp.read(m)[1] is None]

    def test_window_shares_equal_integers_within_one_call_only(self):
        qp = fit([(3, {0: [ONE], 1: [ONE], 2: [ONE]})])
        first, _ = qp.window(4)
        assert all(first[m] is first[-4] for m in first)  # across residues too
        assert qp.window(4)[0][-4] is not first[-4]

    def test_the_report_reads_every_coefficient_it_writes(self):
        result = assemble_character(build_preset("hopf", (12,)), 20)
        assert result.integers[7] == result.integers[6] == 0  # earlier m share its integer
        before = engine.character_document(result)["coefficients"]
        result.coefficients[7] = result.coefficients[7] + ONE
        after = engine.character_document(result)["coefficients"]
        assert [e for e in after if e["m"] != 7] == [e for e in before if e["m"] != 7]
        (entry,) = [e for e in after if e["m"] == 7]
        assert entry == {"m": 7, "value": result.coefficients[7].to_text(),
                         "approx": approx_display(result.coefficients[7], 4), "integer": 0}
        assert entry != [e for e in before if e["m"] == 7][0]

    # Irrational residue coefficients, residue -> coefficients, whose values at
    # chosen m are integers (m = 4; m = 4; m = 2, -4), non-integer rationals
    # (m = 3; m = 5) or irrational at level 12 (every odd m); the constant
    # 20 z12 + 1/3 is given at level 24, so its integer values need demotion.
    READ_OFF_CASES = {
        "i-quadratic": {0: [CyclotomicNumber(4, {1: 12}),
                            CyclotomicNumber(4, {0: Fraction(1, 2), 1: -7}),
                            CyclotomicNumber(4, {1: 1})]},
        "z12-over-z24": {0: [CyclotomicNumber(24, {0: Fraction(1, 3), 2: 20}),
                             CyclotomicNumber(12, {0: Fraction(2, 3), 1: -9}),
                             CyclotomicNumber(12, {1: 1})]},
        "two-residues": {0: [CyclotomicNumber(4, {0: 1, 1: -8}),
                             CyclotomicNumber(4, {0: Fraction(1, 2), 1: 2}),
                             CyclotomicNumber(4, {1: 1})],
                         1: [CyclotomicNumber(12, {1: -2}), CyclotomicNumber(12, {1: 1}),
                             CyclotomicNumber(4, {0: 2})]},
    }

    @pytest.mark.parametrize("name", READ_OFF_CASES)
    def test_integer_read_off_matches_the_rational_reference(self, name):
        polys = self.READ_OFF_CASES[name]
        qp = fit([(len(polys), polys)])
        kinds = set()
        for m in range(-12, 13):
            c, integer = qp.read(m)
            assert c == exact_horner(polys[m % len(polys)], m), (name, m)
            want = int(c.rational_value()) if c.is_integer() else None
            assert integer == want, (name, m)
            kinds.add("integer" if c.is_integer() else "rational" if c.is_rational()
                      else "irrational")
        assert "integer" in kinds and {"rational", "irrational"} & kinds, kinds

    @pytest.mark.parametrize("n", [*range(1, 9), 12, 16, 20])
    def test_hopf_characters_against_the_binomial_polynomial(self, n):
        max_m = 30 if n <= 8 else 100  # 12, 16, 20 at 100: the benchmark's sizes
        res = assemble_character(build_preset("hopf", (n,)), max_m)
        assert res.quasi.period == 1
        for m in range(-max_m, max_m + 1):
            assert res.integers[m] == oracle.cpn_chi_polynomial(n, -m), (n, m)


FIT_MODELS = [("circle", ()), *(("hopf", (n,)) for n in range(1, 9)),
              *(("weighted-s3", ab) for ab in ((8, 3), (4, 7), (12, 5), (16, 9)))]


class TestIntegerFitAgainstTheScalarRoute:
    """`fit_quasi_polynomial` sums integer components; `ScalarFit` sums `CyclotomicNumber`s.

    On the bundled models the reference is `fourier_table` of every point's
    germ, one point at a time.  The weighted spheres have torsion orders
    divisible by 4, which take two orbits, so one order arrives as two
    lists of rows.
    """

    @staticmethod
    def assert_matches(quasi, reference, ms, integers=None):
        assert quasi.to_document() == reference.to_document()
        for m in ms:
            got, want = quasi.read(m)[0], reference.evaluate(m)
            assert got == want, m
            assert got.to_text() == want.to_text(), m
            assert quasi.read(m)[1] == reference.integer(m), m
            if integers is not None:
                assert integers[m] == reference.integer(m), m

    @pytest.mark.parametrize("name,params", FIT_MODELS, ids=[f"{n}{p}" for n, p in FIT_MODELS])
    def test_bundled_models(self, name, params):
        max_m = params[0] * params[1] if name == "weighted-s3" else 30
        result = assemble_character(build_preset(name, params), max_m)
        reference = ScalarFit([fourier_table(germ, at, DEFAULT_CALIBRATION.poisson_sign)
                               for at, germ in result.germs.items() if not germ.is_zero()])
        ms = range(-max_m, max_m + 1)
        self.assert_matches(result.quasi, reference, ms, result.integers)
        assert all(result.coefficients[m] == result.quasi.read(m)[0] for m in ms)

    def test_orders_at_levels_8_and_12(self):
        # Order 8 arrives as two tables, one at level 4 only, whose top
        # coefficients cancel; both orders are promoted to level 24 in the
        # sum over the period.
        def zeta(p, q):
            return CyclotomicNumber.root_of_unity(p, q)

        eight = {r: [zeta(r, 8) * Fraction(r + 1, 3), ONE * Fraction(1, 2), I]
                 for r in range(8)}
        eight_at_4 = {r: [ONE * Fraction(-1, 6), ONE * 0, -I] for r in range(8)}
        twelve = {r: [zeta(r, 12) * Fraction(r, 4) + Fraction(1, 3),
                      zeta(r + 1, 12) * Fraction(5, 7)] for r in range(12)}
        contributions = [(8, eight), (12, twelve), (8, eight_at_4)]
        quasi = fit(contributions)
        assert quasi.period == 24
        polys = [p["coefficients"] for p in quasi.to_document()["polys"]]
        assert {len(p) for p in polys} == {2}
        # canonical text names each coefficient's level
        assert {int(level) for p in polys for c in p
                for level in re.findall(r"z(\d+)\^", c)} >= {8, 12, 24}
        self.assert_matches(quasi, ScalarFit(contributions), range(-30, 31))


class TestPerOrderFit:
    """The fit adds each table once into its order, never per residue of the period."""

    def test_one_table_addition_per_contribution(self, monkeypatch):
        # each addition is O(q) residues, so the fit makes O(sum of the orders) sums; the
        # orbits' tables are traces at level 4, the fit's level too, so none is folded
        model = catalog._sphere((23, 24, 25), DEFAULT_CALIBRATION.orientation_sign, "s")
        contributions, real_fourier = [], engine.fourier_contribution
        monkeypatch.setattr(engine, "fourier_contribution",
                            lambda *args: contributions.append(real_fourier(*args)) or
                            contributions[-1])
        additions, folds, real_add, real_fold = [], [], engine._add_table, engine._fold
        monkeypatch.setattr(engine, "_add_table",
                            lambda acc, table, *args: additions.append(table) or
                            real_add(acc, table, *args))
        monkeypatch.setattr(engine, "_fold", lambda *args: folds.append(1) or real_fold(*args))
        result = assemble_character(model, 100)
        assert result.quasi.period == 13800 and result.quasi.level == 4
        assert {table[1] for table in contributions} == {4}
        assert additions == contributions and len(additions) > 1
        # the points of order q form one orbit, two if 4 divides q
        assert sum(table[0] for table in additions) <= 2 * sum(result.quasi.orders) == 226
        assert folds == []

    def test_the_quasi_polynomial_holds_one_part_per_order(self):
        model = catalog._sphere((5, 7, 9, 11), DEFAULT_CALIBRATION.orientation_sign, "s")
        quasi = assemble_character(model, 10).quasi
        assert sorted(quasi.orders) == sorted({at.denominator for at in model.torsion_support})
        for q, columns in quasi.orders.items():
            assert all(len(col) == q for cols in columns.values() for col in cols), q


class TestNormalFactorsTakeNoInverse:
    """The normal factors are in closed form: no torsion point divides in Q(zeta_L)."""

    @pytest.mark.parametrize("weights, max_m", [((1, 105), 100), ((11, 13), 429)])
    def test_assembly_calls_no_cyclotomic_inverse(self, monkeypatch, weights, max_m):
        calls, real = [], CyclotomicNumber.inverse
        monkeypatch.setattr(CyclotomicNumber, "inverse", lambda x: calls.append(x) or real(x))
        model = build_preset("weighted-s3", weights)
        assert any(comp.normal for comps in model.components.values() for comp in comps)
        assemble_character(model, max_m)
        assert calls == []
        # the spy sees a division that does happen
        CyclotomicNumber.root_of_unity(1, 3).inverse()
        assert len(calls) == 1


def sphere_character(weights, m):
    """c_m = L_a(-m) + (-1)^n L_a(m - sum a) on S(a) in C^{n+1}: Serre duality on the
    weighted projective space, L_a counting the monomials of weighted degree m."""
    n = len(weights) - 1
    return oracle.lattice_count_series(weights, -m) + \
        (-1) ** n * oracle.lattice_count_series(weights, m - sum(weights))


class TestSpheresOfThreeOrMoreWeights:
    """Weighted spheres past dimension three against the lattice count, at every |m| <= 60."""

    @pytest.mark.parametrize("weights", [(2, 3, 5), (5, 7, 9, 11), (23, 24, 25)])
    def test_characters_equal_the_serre_dual_lattice_counts(self, weights):
        model = catalog._sphere(weights, DEFAULT_CALIBRATION.orientation_sign,
                                "sphere-" + "-".join(map(str, weights)))
        result = assemble_character(model, 60)
        assert result.quasi.period == math.lcm(*weights)
        for m in range(-60, 61):
            assert result.integers[m] == sphere_character(weights, m), (weights, m)

    def test_the_formula_is_the_bundled_oracle_on_two_weights(self):
        for a, b in ((1, 1), (2, 3), (5, 7)):
            for m in range(-40, 41):
                assert sphere_character((a, b), m) == \
                    oracle.oracle_character("weighted-s3", (a, b), m), (a, b, m)


class TestVolumeTransform:
    def test_circle_coincides_with_the_index(self):
        model = build_preset("circle", ())
        assert dh_fourier(model) == germ_at(model, IDENTITY)

    def test_sphere_drops_the_todd_factor(self):
        got = dh_fourier(build_preset("hopf", (1,)))
        assert got == delta(1, TWO * I)

    def test_scaling_invariance(self):
        for name, params in RANK1_PRESETS:
            model = build_preset(name, params)
            assert dh_fourier(model) == dh_fourier(scaled_model(model, 5))


class TestDoubleExpansion:
    def test_matches_the_equivariant_oracle(self):
        table = corollary_expand(build_preset("prequantum-cpn", (1,)), 20, 22)
        for m in range(-20, 21):
            assert table[m] == oracle.equivariant_s2_character(m), m

    def test_examples(self):
        table = corollary_expand(build_preset("prequantum-cpn", (1,)), 3, 5)
        assert table[3] == {0: 1, 1: 1, 2: 1, 3: 1}
        assert table[-1] == {}
        assert table[-2] == {-1: -1}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_slice_matches_the_enumeration_oracle(self, n):
        table = corollary_expand(build_preset("prequantum-cpn", (n,)), 10, 40)
        for m in range(-10, 11):
            assert table[m] == oracle.cpn_weight_multiplicities(n, m), (n, m)

    def test_projective_plane_spot_checks(self):
        table = corollary_expand(build_preset("prequantum-cpn", (2,)), 2, 6)
        assert table[1] == {0: 1, 1: 1, 2: 1}
        assert table[2] == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}

    def test_weight_sums_match_the_principal_limit(self):
        for n in (1, 2):
            model = build_preset("prequantum-cpn", (n,))
            table = corollary_expand(model, 8, 20)
            # chi_{-m} of the principal reduction is the weight sum of slice m
            principal = assemble_character(build_preset("hopf", (n,)), 8)
            for m in range(-8, 9):
                assert sum(table[m].values()) == principal.integers[-m]

    def test_residual_factors_expose_the_slice_data(self):
        model = build_preset("prequantum-cpn", (1,))
        factors = residual_factors(model, 3)
        assert [f["power"] for f in factors] == [0, 3]
        assert [f["denominator_exponents"] for f in factors] == [[1], [-1]]
        assert all(f["amplitude"] == 1 for f in factors)

    def test_rank_one_is_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            corollary_expand(build_preset("hopf", (1,)), 3, 3)

    @pytest.mark.parametrize("max_m, max_k, name", [(-2, 4, "max_m"), (2, -5, "max_k")])
    def test_negative_window_is_rejected(self, max_m, max_k, name):
        with pytest.raises(EngineError, match=f"{name} must be at least 0, got -"):
            corollary_expand(build_preset("prequantum-cpn", (1,)), max_m, max_k)

    def test_zero_window_gives_slice_zero(self):
        assert corollary_expand(build_preset("prequantum-cpn", (1,)), 0, 0) == {0: {0: 1}}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tables_equal_the_fraction_reference(self, n):
        model = build_preset("prequantum-cpn", (n,))
        assert corollary_expand(model, 15, 15 * n) == corollary_reference(model, 15)

    def test_halved_fibers_sum_to_the_whole(self):
        # every fiber twice at amplitude 1/2 (mu = 2): the common denominator
        # 2 is cleared, and the multiplicities come back as integers
        halves = _cpn_with_fibers(1, [(j, replace(f.component, mu=Fraction(2)))
                                      for f in build_preset("prequantum-cpn", (1,)).fiber_families
                                      for j in (f.sigma, f.sigma)])
        assert corollary_expand(halves, 6, 10) == \
            corollary_expand(build_preset("prequantum-cpn", (1,)), 6, 10)

    def test_nonzero_remainder_names_the_slice(self):
        with pytest.raises(EngineError, match="at m=-2 is not a Laurent polynomial: "
                                              "nonzero remainder"):
            corollary_expand(_cpn_with_amplitudes(1, [2, 1]), 2, 4)

    def test_degree_deficit_names_the_slice(self):
        # slice -1 of amplitudes (2, 1) is 1/(1 - x): a constant over a binomial
        with pytest.raises(EngineError, match="at m=-1 .*degree deficit"):
            corollary_expand(_cpn_with_amplitudes(1, [2, 1]), 1, 4)

    def test_half_amplitudes_give_a_non_integer_multiplicity(self):
        with pytest.raises(EngineError, match=r"non-integer multiplicity -1/2 at weight -1, m=-2"):
            corollary_expand(_cpn_with_amplitudes(1, [Fraction(1, 2), Fraction(1, 2)]), 2, 4)

    def test_weight_outside_the_window_asks_to_raise_max_k(self):
        with pytest.raises(EngineError, match="weight 3 exceeds the requested window 2 "
                                              "at m=3; raise max_k"):
            corollary_expand(build_preset("prequantum-cpn", (1,)), 3, 2)

    def test_non_rational_amplitude_is_rejected(self):
        model = _cpn_with_amplitudes(1, [1, 1])
        fam = model.fiber_families[0]
        fam.component = replace(fam.component, pairing={(): TWO * I})
        with pytest.raises(EngineError, match="fiber amplitude must be rational"):
            corollary_expand(model, 2, 4)

    def test_non_separating_fiber_is_unsupported(self):
        from contact_index.forms import ChernRoot
        comp = FixedComponentData(
            dim_odd=1, generators=(), tangential=[],
            normal=[ChernRoot(curvature=(), weight=(2, -1))],
            mu=Fraction(1), reeb_weight=(2, -1),
            pairing={(): TWO})
        model = ContactModel(rank=2, ambient_n=1, model_id="bad",
                             fiber_families=[FiberFamily(sigma=2, component=comp)])
        with pytest.raises(UnsupportedModelError, match="separate"):
            corollary_expand(model, 2, 4)


def _cpn_with_fibers(n, fibers):
    """prequantum-cpn n with its fiber families replaced by (sigma, component) pairs."""
    model = build_preset("prequantum-cpn", (n,))
    return replace(model, fiber_families=[FiberFamily(s, c) for s, c in fibers])


def _cpn_with_amplitudes(n, amplitudes):
    """prequantum-cpn n with the j-th fiber's amplitude set to amplitudes[j]."""
    model = build_preset("prequantum-cpn", (n,))
    return _cpn_with_fibers(n, [
        (f.sigma, replace(f.component, pairing={(): TWO * Fraction(a)}))
        for f, a in zip(model.fiber_families, amplitudes)])


class TestCalibration:
    def test_exactly_one_combination_passes(self):
        cfg = calibrate_conventions()
        assert cfg == CalibrationConfig(poisson_sign=1, orientation_sign=1,
                                        todd_direction="plus")

    def test_idempotent(self):
        assert calibrate_conventions() == calibrate_conventions()

    @pytest.mark.parametrize("passes,count", [(False, 0), (True, 8)], ids=["none", "all"])
    def test_anchor_failures_raise(self, monkeypatch, passes, count):
        monkeypatch.setattr(engine, "_anchor_pass", lambda cfg: passes)
        with pytest.raises(CalibrationError, match=f"exactly one convention combination; "
                                                   f"{count} of 8 passed the anchors"):
            calibrate_conventions()

    def test_wrong_conventions_break_the_anchors(self):
        bad = CalibrationConfig(poisson_sign=-1, orientation_sign=1,
                                todd_direction="plus")
        res = assemble_character(build_preset("hopf", (1,), bad), 5, bad)
        values = [res.integers[m] for m in range(-5, 6)]
        assert values != [1 - m for m in range(-5, 6)]
