"""Property tests: `QuasiPolynomial.window` reads what `read` reads, at every m.

`window` reads the rational parts of the quasi-polynomial in whole lists:
per order, an integer polynomial of degree d >= 2 past 2 (d + 1) q points
by forward differences over each residue's progression, other orders by
Horner across the window, and the sum over the orders divided by the
denominator once per m, a remainder sending m through `read`.  A single
order's residue here is drawn by its values at the first d + 1 points of
its progression in the window, m0, m0 + period, ...: all ints (an
integer-valued polynomial), or with non-integer rationals among them
(which must come out as `read`'s exact non-integer scalars).  Several
orders, with rational and level-12 parts, are checked against the
per-residue sum of `character_reference.ScalarFit` as well.  Seeded
through a derandomized hypothesis profile, so every run draws the same
examples.
"""

import itertools
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from contact_index.engine import fit_quasi_polynomial  # noqa: E402
from contact_index.scalars import CyclotomicNumber, ExactScalar  # noqa: E402
from character_reference import ScalarFit, components  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)

integers = st.integers(-10 ** 6, 10 ** 6)
rationals = st.one_of(integers, st.builds(Fraction, st.integers(-99, 99), st.integers(2, 7)))


def first_point(r, period, max_m):
    """The least m >= -max_m with m = r mod period: where `window` starts residue r."""
    return -max_m + (r + max_m) % period


def through(values, m0, step):
    """Ascending Fraction coefficients in m of the polynomial of degree < len(values)
    taking values[i] at m0 + i step, from its Newton form in i = (m - m0) / step."""
    diffs = list(values)
    for j in range(1, len(diffs)):
        diffs[j:] = [b - a for a, b in zip(diffs[j - 1:], diffs[j:])]
    poly = []
    for j in range(len(diffs) - 1, -1, -1):  # poly <- diffs[j] + poly (i - j) / (j + 1)
        a, b = Fraction(1, step * (j + 1)), Fraction(-m0 - j * step, step * (j + 1))
        old, poly = poly, [Fraction(diffs[j])] + [0] * len(poly)
        for n, c in enumerate(old):  # (a m + b) c m^n
            poly[n] += b * c
            poly[n + 1] += a * c
    while poly and not poly[-1]:
        poly.pop()
    return poly


def quasi(polys):
    period = len(polys)
    return fit_quasi_polynomial([components(period, [[ExactScalar.from_rational(c) for c in p]
                                                     for p in polys])])


def assert_window_is_read(qp, max_m):
    coefficients, integers = qp.window(max_m)
    span = list(range(-max_m, max_m + 1))
    assert list(coefficients) == span and list(integers) == span
    for m in span:
        value, integer = qp.read(m)
        assert coefficients[m] == value, m
        assert coefficients[m].to_text() == value.to_text(), m
        assert integers[m] == integer, m
        if integer is not None:
            assert coefficients[m].value.level == 4 and coefficients[m].value.den == 1
    return integers


@st.composite
def residues(draw, values):
    """(period, max_m, per residue the values at the first d + 1 points of its
    progression, d from -1, the zero residue, to 24)."""
    period, max_m = draw(st.integers(1, 7)), draw(st.integers(1, 300))
    degrees = [draw(st.integers(-1, 24)) for _ in range(period)]
    return period, max_m, [draw(st.lists(values, min_size=d + 1, max_size=d + 1))
                           for d in degrees]


@DETERMINISTIC
@given(residues(integers))
def test_integer_valued_residues_read_as_read_does(case):
    period, max_m, values = case
    polys = [through(v, first_point(r, period, max_m), period) for r, v in enumerate(values)]
    assert all(len(p) <= 25 for p in polys)
    integers = assert_window_is_read(quasi(polys), max_m)
    assert None not in integers.values()


@DETERMINISTIC
@given(residues(rationals))
def test_rational_residues_read_as_read_does(case):
    period, max_m, values = case
    polys = [through(v, first_point(r, period, max_m), period) for r, v in enumerate(values)]
    assert_window_is_read(quasi(polys), max_m)


@pytest.mark.parametrize("degree", [2, 5, 24])
@pytest.mark.parametrize("at", ["first", "last"])
def test_a_non_integer_among_the_first_values_keeps_its_exact_scalar(degree, at):
    # ints at the first d + 1 points but one, which is 1/2 off: a remainder, so `read`
    period, max_m = 3, 200
    values = [(-1) ** i * i ** 3 for i in range(degree + 1)]
    values[0 if at == "first" else degree] += Fraction(1, 2)
    poly = through(values, first_point(1, period, max_m), period)
    assert len(poly) == degree + 1
    integers = assert_window_is_read(quasi([[], poly, [7]]), max_m)
    first = first_point(1, period, max_m)
    assert integers[first + (0 if at == "first" else degree * period)] is None


@pytest.mark.parametrize("period, max_m", [(2, 0), (5, 1), (5, 2), (7, 1), (7, 2), (7, 3)])
def test_windows_shorter_than_the_period(period, max_m):
    # some residues have no point in the window; degree 2 residues keep Horner
    polys = [through([r, r * r, 3 - r], first_point(r, period, max_m), period)
             for r in range(period)]
    assert 2 * max_m + 1 <= period
    assert_window_is_read(quasi(polys), max_m)


@pytest.mark.parametrize("degree", [2, 3, 24])
def test_long_integer_valued_residues_take_forward_differences(monkeypatch, degree):
    # one accumulate per order below the degree, per residue long enough for it
    period, max_m = 7, 300
    polys = [through([(r + 1) * (i - 3) ** degree - i for i in range(degree + 1)],
                     first_point(r, period, max_m), period) for r in range(period)]
    assert all(len(p) == degree + 1 for p in polys)
    calls, real = [], itertools.accumulate
    monkeypatch.setattr(itertools, "accumulate", lambda *a, **k: calls.append(1) or real(*a, **k))
    qp = quasi(polys)
    coefficients, integers = qp.window(max_m)
    monkeypatch.undo()
    assert len(calls) == period * degree
    assert None not in integers.values()
    assert_window_is_read(qp, max_m)


def test_the_constructed_polynomials_pass_through_their_values():
    poly = through([Fraction(1, 3), 4, -2, 9], -7, 5)
    for i, want in enumerate([Fraction(1, 3), 4, -2, 9]):
        m = -7 + 5 * i
        assert sum(c * m ** n for n, c in enumerate(poly)) == want


# ----------------------------------------------------------------------
# several torsion orders, one column store each
# ----------------------------------------------------------------------

ORDERS = (1, 3, 4, 6)
KINDS = ("integer", "rational", "rational at level 12", "level 12")


@st.composite
def orders(draw):
    """(max_m, contributions): per order in a nonempty subset of ORDERS, one or two tables
    of ExactScalar polynomials of degree -1 (zero) to 5, of pi-grade 0 as a character is,
    the coefficients of each table of one kind: ints, rationals, rationals written at level
    12, or level-12 values with nonzero exponents (as a point outside any orbit writes its
    table)."""
    chosen = draw(st.lists(st.sampled_from(ORDERS), min_size=1, max_size=4, unique=True))
    contributions = []
    for q in chosen:
        for _ in range(draw(st.integers(1, 2))):
            kind = draw(st.sampled_from(KINDS))

            def coefficient():
                if kind == "integer":
                    value = draw(st.integers(-50, 50))
                elif kind == "rational":
                    value = Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 6)))
                else:
                    exponents = [0] if kind == "rational at level 12" else range(4)
                    value = CyclotomicNumber(12, {e: Fraction(draw(st.integers(-9, 9)),
                                                              draw(st.integers(1, 4)))
                                                  for e in exponents})
                return ExactScalar(0, value)

            contributions.append((q, {r: [coefficient() for _ in range(draw(st.integers(0, 6)))]
                                      for r in range(q)}))
    max_m = draw(st.one_of(st.integers(1, 14), st.integers(60, 200)))
    return max_m, contributions


def fit_tables(contributions):
    return fit_quasi_polynomial([components(q, table) for q, table in contributions])


@DETERMINISTIC
@given(orders())
def test_several_orders_read_as_the_per_residue_sum_does(case):
    max_m, contributions = case
    qp, reference = fit_tables(contributions), ScalarFit(contributions)
    assert qp.period == reference.period == math.lcm(*(q for q, _ in contributions))
    assert sorted(qp.orders) == sorted({q for q, _ in contributions})
    assert qp.to_document() == reference.to_document()
    integers = assert_window_is_read(qp, max_m)
    for m in integers:
        assert qp.read(m)[0] == reference.evaluate(m), m
        assert integers[m] == reference.integer(m), m


@pytest.mark.parametrize("max_m", [1, 2, 5, 11, 12, 40, 150])
def test_integer_orders_of_degree_three_take_differences_where_the_window_is_long(
        monkeypatch, max_m):
    # order 1 of degree 3 takes differences past 2 * 4 * 1 points, order 6 past 48
    cubic = [ExactScalar.from_rational(c) for c in (5, -2, 0, 3)]
    contributions = [(1, {0: cubic}),
                     (6, {r: [ExactScalar.from_rational(c) for c in (r, 1 - r, r * r, -1)]
                          for r in range(6)}),
                     (4, {r: [ExactScalar.from_rational(Fraction(r, 2))] for r in range(4)})]
    calls, real = [], itertools.accumulate
    monkeypatch.setattr(itertools, "accumulate", lambda *a, **k: calls.append(1) or real(*a, **k))
    qp = fit_tables(contributions)
    qp.window(max_m)
    monkeypatch.undo()
    span = 2 * max_m + 1
    assert len(calls) == 3 * ((span > 8) + 6 * (span > 48))
    assert qp.to_document() == ScalarFit(contributions).to_document()
    assert_window_is_read(qp, max_m)
