"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (zero tolerance); the few stated runtime budgets
are asserted with `time.perf_counter`.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from contact_index import oracle
from contact_index.catalog import scaled_model
from contact_index.cli import main
from contact_index.deltas import DeltaGerm
from contact_index.engine import (CalibrationConfig, assemble_character,
                                  build_preset, calibrate_conventions,
                                  corollary_expand, dh_fourier, germ_at)
from contact_index.forms import FormElement, integrate_component, j_form
from contact_index.scalars import CyclotomicNumber
from distributions import HalfDeltaGerm, delta, derivative, multiply_smooth, scale_variable

TWO = CyclotomicNumber.from_rational(2)  # 2 pi at pi-grade 1, its pi left implicit
I = CyclotomicNumber.zeta(4, 1)

RANK1_PRESETS = [
    ("circle", ()),
    ("hopf", (1,)),
    ("hopf", (2,)),
    ("weighted-s3", (1, 2)),
    ("weighted-s3", (2, 3)),
    ("weighted-s3", (3, 4)),
]


def _report(number, text):
    print(f"PASS criterion {number}: {text}")


@pytest.fixture()
def cli_env(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CONTACT_INDEX_CALIBRATION", raising=False)
    runner = CliRunner()
    assert runner.invoke(main, ["calibrate"]).exit_code == 0
    return runner


def test_criterion_1_circle_character(cli_env):
    start = time.perf_counter()
    result = cli_env.invoke(main, ["character", "--preset", "circle",
                                   "--max-m", "50", "--format", "csv"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[1:] == [f"{m},1" for m in range(-50, 51)]
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _report(1, f"circle character is identically 1 for |m| <= 50 "
               f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_sphere_verification(cli_env):
    start = time.perf_counter()
    result = cli_env.invoke(main, ["verify", "--preset", "hopf", "--n", "1",
                                   "--max-m", "50"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0, result.output
    res = assemble_character(build_preset("hopf", (1,)), 50)
    assert all(res.integers[m] == 1 - m for m in range(-50, 51))
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    _report(2, f"sphere character equals 1 - m and the oracle for |m| <= 50 "
               f"({elapsed * 1000:.0f} ms)")


def test_criterion_3_germs_vanish_off_the_fixed_sets():
    hopf = build_preset("hopf", (1,))
    points = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 3)]
    for at in points:
        assert germ_at(hopf, at).is_zero()
    _report(3, "sphere germs vanish exactly at the three sampled torsion points")


def test_criterion_4_weighted_spheres_match_the_lattice_oracle():
    start = time.perf_counter()
    for a, b in ((1, 2), (2, 3), (3, 4)):
        res = assemble_character(build_preset("weighted-s3", (a, b)), 100)
        for m in range(-100, 101):
            assert res.integers[m] == oracle.sphere_char_oracle(a, b, m), \
                (a, b, m)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    _report(4, f"weighted characters equal the lattice oracle for |m| <= 100 "
               f"({elapsed:.2f} s total)")


def test_criterion_5_five_sphere_character():
    res = assemble_character(build_preset("hopf", (2,)), 50)
    for m in range(-50, 51):
        assert res.integers[m] == oracle.cpn_chi(2, -m), m
    _report(5, "five-sphere character equals the projective-plane pattern "
               "for |m| <= 50")


def test_criterion_6_double_expansion():
    table = corollary_expand(build_preset("prequantum-cpn", (1,)), 20, 20)
    for m in range(-20, 21):
        expected = oracle.equivariant_s2_character(m)
        assert table[m] == expected, m
        assert all(abs(k) <= 20 for k in table[m])
    _report(6, "prequantum double expansion equals the equivariant oracle "
               "for |m| <= 20, |weights| <= 20")


def test_criterion_7_distribution_identity_suite():
    rng = random.Random(20260809)
    cases = 0
    x = [CyclotomicNumber.from_rational(0), CyclotomicNumber.from_rational(1)]  # the jet of phi
    for _ in range(150):
        coeff = CyclotomicNumber.from_rational(
            Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
        order = rng.randint(0, 6)
        germ = delta(order, coeff)
        a = Fraction(rng.randint(-9, 9) or 2, rng.randint(1, 9))
        # (d3) scale round trip
        assert scale_variable(scale_variable(germ, a), 1 / a) == germ
        cases += 1
        # (d2) delta-level identities
        assert multiply_smooth(delta(0, coeff), x).is_zero()
        assert multiply_smooth(delta(1, coeff), x) == \
            delta(0, coeff * CyclotomicNumber.from_rational(-1))
        cases += 2
        # (d1) boundary rewrite agrees with the direct delta
        combo = HalfDeltaGerm.half(1, order, coeff) + HalfDeltaGerm.half(-1, order, coeff)
        assert combo.reduce() == germ
        cases += 1
        # (d3) boundary scaling round-trips, swapping halves at negative factors
        neg = -a if a > 0 else a
        scaled = HalfDeltaGerm.half(1, order, coeff).scale_argument(neg)
        assert all(sign == -1 for sign, _ in scaled.terms)
        assert scaled.scale_argument(Fraction(1) / neg) == \
            HalfDeltaGerm.half(1, order, coeff)
        cases += 1
        # (d2) boundary product rule sums to the delta rule
        const, rest = combo.multiply_by_x()
        assert const.is_zero()
        expected = delta(order - 1,
                                   coeff * CyclotomicNumber.from_rational(-order)) \
            if order else DeltaGerm.zero()
        assert rest.reduce() == expected
        cases += 1
        # scale_variable homogeneity against the derivative route
        assert scale_variable(derivative(germ), a) == \
            derivative(scale_variable(germ, a)) * CyclotomicNumber.from_rational(1 / a)
        cases += 1
    assert cases >= 1000
    _report(7, f"distribution identity suite: {cases} randomized exact checks")


def test_criterion_8_contact_form_independence():
    for name, params in RANK1_PRESETS:
        model = build_preset(name, params)
        for lam in (2, 3, 5):
            scaled = scaled_model(model, lam)
            for at in model.torsion_support:
                assert germ_at(model, at) == germ_at(scaled, at), (name, lam, at)
    _report(8, "rescaling the contact data by 2, 3, 5 leaves every preset germ "
               "bit-identical")


def test_criterion_9_calibration_uniqueness():
    cfg = calibrate_conventions()
    assert cfg == CalibrationConfig(poisson_sign=1, orientation_sign=1,
                                    todd_direction="plus")
    _report(9, "exactly one of the eight convention combinations passes the anchors")


def test_criterion_10_volume_transform():
    hopf = build_preset("hopf", (1,))
    got = dh_fourier(hopf)
    # independent route: drop the Todd factor from the worked sphere example
    # and re-integrate the delta form alone
    (comp,) = hopf.components[Fraction(0, 1)]
    one = FormElement.one(comp.generators, comp.k)
    direct = integrate_component(one, j_form(comp, jet_order=comp.k), comp.pairing)
    direct = direct * (TWO * I).inverse()
    assert got == direct
    assert got == delta(1, TWO * I)
    for lam in (2, 3, 5):
        assert dh_fourier(scaled_model(hopf, lam)) == got
    _report(10, "volume transform drops the Todd factor and is scaling-invariant")
