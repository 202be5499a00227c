"""Orbit evaluation: one germ and one traced Fourier table per Galois orbit.

`assemble_character` must reproduce the per-point reference of
`character_reference` exactly: on the bundled weighted spheres, where each
orbit of torsion points is evaluated once (one orbit of order q when 4 does
not divide q, two when it does), and on model documents that break one of
the guards, where each point is its own orbit.  On both, every germ has at
most k + 1 terms, the degree bound that `fit_quasi_polynomial` relies on
without checking it.  An orbit's integer table from `fourier_contribution`
is the sum of its members' cyclotomic tables, at level 4, and once the
trace table is built it takes no cyclotomic product, fold or demotion.
"""

import math
from fractions import Fraction

import pytest

from contact_index import engine, scalars
from contact_index.catalog import model_from_document, model_to_document
from contact_index.deltas import fourier_contribution
from contact_index.engine import (CalibrationConfig, _orbits, assemble_character,
                                  build_preset, fit_quasi_polynomial, germ_at)
from contact_index.scalars import CyclotomicNumber, _euler_phi, _units_over_qi
from character_reference import character_reference, fourier_table, quasi_equal

CALIBRATIONS = [CalibrationConfig(s, o, d) for s in (1, -1) for o in (1, -1)
                for d in ("plus", "minus")]
PAIRS = [(2, 3), (3, 4), (4, 5), (3, 10), (6, 7), (5, 7), (11, 13), (5, 8), (3, 16)]


def assert_matches_reference(model, max_m, calibration):
    result = assemble_character(model, max_m, calibration)
    germs, quasi, coefficients = character_reference(model, max_m, calibration)
    assert list(result.germs) == list(germs)
    for at, germ in germs.items():
        assert result.germs[at] == germ, at
    assert quasi_equal(result.quasi, quasi)
    assert result.quasi.to_document() == quasi.to_document()
    assert list(result.coefficients) == list(coefficients)
    for m, c in coefficients.items():
        assert result.coefficients[m] == c, m


def orbits(model):
    by_order = {}
    for at in model.torsion_support:
        by_order.setdefault(at.denominator, []).append(at)
    return by_order


@pytest.mark.parametrize("a,b", PAIRS)
def test_weighted_spheres_match_the_per_point_reference(a, b):
    for calibration in CALIBRATIONS:
        model = build_preset("weighted-s3", (a, b), calibration)
        assert_matches_reference(model, 30, calibration)


@pytest.mark.parametrize("a,b", PAIRS)
def test_bundled_orbits_take_the_orbit_path(a, b):
    model = build_preset("weighted-s3", (a, b))
    for q, points in orbits(model).items():
        units = _units_over_qi(math.lcm(4, q))
        found = list(_orbits(model, q, points))
        assert sorted(at for orbit, _ in found for at in orbit) == points, q
        assert [len(orbit) for orbit, _ in found] == \
            ([_euler_phi(q)] if q % 4 else [_euler_phi(q) // 2] * 2), q
        for orbit, maps in found:
            assert maps == units, q
            assert orbit == [Fraction(t * orbit[0].numerator % q, q) for t in maps], q


def test_an_order_divisible_by_four_takes_one_germ_per_orbit(monkeypatch):
    calls = []

    def spy(model, at, calibration):
        calls.append(at)
        return germ_at(model, at, calibration)

    monkeypatch.setattr(engine, "germ_at", spy)
    assemble_character(build_preset("weighted-s3", (3, 16)), 96)
    assert calls == [Fraction(p, q) for p, q in
                     ((0, 1), (1, 2), (1, 3), (1, 4), (3, 4), (1, 8), (3, 8), (1, 16), (3, 16))]


def exact_horner(coeffs, m):
    acc = CyclotomicNumber.from_rational(0)
    for c in reversed(coeffs):
        acc = acc * m + c
    return acc


@pytest.mark.parametrize("a,b", [(2, 3), (5, 8), (3, 16), (1, 60)])
@pytest.mark.parametrize("s", [1, -1])
def test_orbit_rows_are_the_sum_of_the_members_tables(a, b, s):
    calibration = CalibrationConfig(poisson_sign=s)
    model = build_preset("weighted-s3", (a, b), calibration)
    for q, points in orbits(model).items():
        for orbit, maps in _orbits(model, q, points):
            p0 = orbit[0]
            germ = germ_at(model, p0, calibration)
            table = fourier_contribution(germ, p0, s, maps)
            order, level, _, columns = table
            assert order == q and all(len(col) == q for cols in columns.values()
                                      for col in cols), p0
            if len(orbit) > 1:  # traced down to Q(i)
                assert level == 4, p0
            tables = [fourier_table(germ.galois(t), t * p0, s)[1] for t in maps]
            quasi = fit_quasi_polynomial([table])
            for m in range(-q, q):
                want = sum((exact_horner(table[m % q], m) for table in tables),
                           CyclotomicNumber.from_rational(0))
                assert quasi.read(m)[0] == want, (p0, m)


def test_an_orbit_takes_no_product_fold_or_demotion_once_its_table_is_built(monkeypatch):
    model = build_preset("weighted-s3", (1, 420))
    p0 = Fraction(1, 420)
    ((orbit, maps),) = [o for o in _orbits(model, 420, orbits(model)[420]) if p0 in o[0]]
    assert orbit[0] == p0 and len(orbit) > 1
    germ = germ_at(model, p0)
    want = fourier_contribution(germ, p0, 1, maps)  # builds the trace table
    calls = []
    for owner, name in ((CyclotomicNumber, "__mul__"), (CyclotomicNumber, "demote"),
                        (scalars, "_fold")):
        def spy(*args, _original=getattr(owner, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(owner, name, spy)
    assert fourier_contribution(germ, p0, 1, maps) == want
    assert calls == []


pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402


@st.composite
def torsion_point(draw):
    """(a, b, r, t, q, calibration): t r/q a torsion point of weighted-s3 (a, b).

    r/q is 1/q or -1/q, the representatives of the two cosets of the units
    t = 1 mod 4 (one coset when 4 does not divide q), and t is drawn from
    those units.
    """
    a = draw(st.integers(1, 30))
    b = draw(st.integers(1, 30).filter(lambda b: math.gcd(a, b) == 1))
    orders = [d for d in range(2, 31) if a % d == 0 or b % d == 0]
    assume(orders)
    q = draw(st.sampled_from(orders))
    r = draw(st.sampled_from((1, q - 1)))
    t = draw(st.sampled_from(_units_over_qi(math.lcm(4, q))))
    return a, b, r, t, q, draw(st.sampled_from(CALIBRATIONS))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(torsion_point())
def test_germs_of_an_orbit_are_galois_conjugates(case):
    a, b, r, t, q, calibration = case
    model = build_preset("weighted-s3", (a, b), calibration)
    assert germ_at(model, Fraction(t * r % q, q), calibration) == \
        germ_at(model, Fraction(r, q), calibration).galois(t)


# ----------------------------------------------------------------------
# documents that break one guard each: the order-5 orbit of weighted-s3 (2,5)
# ----------------------------------------------------------------------

def _order_five(doc, p):
    (comp,) = [c for c in doc["components"] if c["at"] == f"{p}/5"]
    return comp


def _change_one_pairing(doc):
    _order_five(doc, 2)["pairing"][0]["value"] = "(4/5)*pi^1"


def _change_one_eigenvalue(doc):
    _order_five(doc, 3)["normal_roots"][0]["eig"] = "1/5"


def _remove_one_point(doc):
    doc["components"].remove(_order_five(doc, 3))


def _pairings_outside_gaussian_field(doc):
    for p in range(1, 5):
        _order_five(doc, p)["pairing"][0]["value"] = "(2/5*z20^4)*pi^1"


def _eigenvalues_outside_the_orbit_field(doc):
    # t * 1/6 mod 1 for the maps t = 1, 17, 13, 9 of the points 1/5 .. 4/5
    for p, eig in zip(range(1, 5), ("1/6", "5/6", "1/6", "1/2")):
        _order_five(doc, p)["normal_roots"][0]["eig"] = eig


EDITS = [_change_one_pairing, _change_one_eigenvalue, _remove_one_point,
         _pairings_outside_gaussian_field, _eigenvalues_outside_the_orbit_field]


def _broken_model(edit):
    doc = model_to_document(build_preset("weighted-s3", (2, 5)))
    edit(doc)
    return model_from_document(doc)


@pytest.mark.parametrize("edit", EDITS)
def test_broken_orbits_fall_back_to_the_per_point_loop(edit):
    model = _broken_model(edit)
    points = orbits(model)[5]
    assert list(_orbits(model, 5, points)) == [([at], (1,)) for at in points]
    for calibration in CALIBRATIONS[:2]:
        assert_matches_reference(model, 20, calibration)


# ----------------------------------------------------------------------
# the degree bound that fit_quasi_polynomial relies on
# ----------------------------------------------------------------------

PRESETS = [("circle", ()), ("hopf", (1,)), ("hopf", (2,)), ("hopf", (3,)),
           ("weighted-s3", (1, 2))] + [("weighted-s3", pair) for pair in PAIRS]


def assert_germ_orders_within_the_bound(model, calibration):
    """Every germ has at most k + 1 terms, k the largest (dim - 1)/2; the bound is met."""
    bound = max(c.k for comps in model.components.values() for c in comps) + 1
    result = assemble_character(model, 1, calibration)
    assert list(result.germs) == model.torsion_support
    for at, germ in result.germs.items():
        assert len(germ.terms) <= bound, at
    assert max(len(g.terms) for g in result.germs.values()) == bound
    assert all(len(poly["coefficients"]) <= bound
               for poly in result.quasi.to_document()["polys"])


@pytest.mark.parametrize("name,params", PRESETS, ids=[f"{n}{p}" for n, p in PRESETS])
def test_germ_order_is_at_most_k(name, params):
    for calibration in CALIBRATIONS:
        assert_germ_orders_within_the_bound(build_preset(name, params, calibration),
                                            calibration)


@pytest.mark.parametrize("edit", EDITS)
def test_germ_order_is_at_most_k_off_the_orbit_path(edit):
    model = _broken_model(edit)
    for calibration in CALIBRATIONS:
        assert_germ_orders_within_the_bound(model, calibration)
