"""Test-only references for character assembly.

`character_reference` is the direct computation that the engine's orbit
evaluation must reproduce: every torsion point's germ from `germ_at`, every
nonzero germ's Fourier table from `fourier_contribution` at that point
alone, the tables summed into the quasi-polynomial, and each coefficient
read off it.
`quasi_equal` compares two quasi-polynomials as functions of m.

`fourier_table` is the Fourier conversion in `CyclotomicNumber`s, one
cyclotomic product per residue and coefficient, that `fourier_contribution`
must reproduce in integers.  `components` turns a table of cyclotomic
polynomials into the integer table that `fit_quasi_polynomial` sums, one
coefficient at a time.  `ScalarFit` is the route that `fit_quasi_polynomial` must
reproduce in integers: cyclotomic tables summed per residue mod each order
and then per residue mod the period, and each value found by Horner's rule
in `CyclotomicNumber`s.  Germs have pi-grade 1 and the 1/2pi of the Fourier
conversion cancels the pi, so every table here has grade 0.
"""

import math
from fractions import Fraction

from contact_index.deltas import _poly_add, fourier_contribution
from contact_index.engine import DEFAULT_CALIBRATION, fit_quasi_polynomial, germ_at
from contact_index.scalars import CyclotomicNumber


def character_reference(model, max_m, calibration=DEFAULT_CALIBRATION):
    """(germs, quasi-polynomial, coefficients) from the per-point loop."""
    germs = {}
    contributions = []
    for at in model.torsion_support:
        germ = germ_at(model, at, calibration)
        germs[at] = germ
        if not germ.is_zero():
            contributions.append(fourier_contribution(germ, at, calibration.poisson_sign))
    quasi = fit_quasi_polynomial(contributions)
    coefficients = {m: quasi.read(m)[0] for m in range(-max_m, max_m + 1)}
    return germs, quasi, coefficients


def fourier_table(germ, at, s):
    """(q, residue -> cyclotomic coefficients) of the germ at the point `at` alone:
    zeta^{-s r p} (1/2pi) sum_j c_j (s i)^j m^j, by cyclotomic products."""
    loc = Fraction(at) % 1
    poly, weight = [], CyclotomicNumber.from_rational(Fraction(1, 2))
    for c in germ.terms:  # weight runs through (1/2pi) (s i)^j, its pi^-1 cancelling c's pi
        poly.append(weight * c)
        weight = weight * (CyclotomicNumber.zeta(4, 1) * s)
    return loc.denominator, {r: [CyclotomicNumber.root_of_unity(-s * r * loc.numerator,
                                                                loc.denominator) * c
                                 for c in poly]
                             for r in range(loc.denominator)}


def components(q, table):
    """The integer table (q, level, den, columns) of residue -> ascending cyclotomic
    coefficients, each coefficient promoted to the lcm level and scaled to the lcm
    denominator on its own; columns[e][j][r] is its zeta_level^e numerator."""
    coefficients = [(r, j, c) for r in range(q) for j, c in enumerate(table[r]) if c]
    level = math.lcm(4, *(x.level for _, _, x in coefficients))
    den = math.lcm(*(x.den for _, _, x in coefficients))
    width, columns = max((j + 1 for _, j, _ in coefficients), default=0), {}
    for r, j, x in coefficients:
        y = x.promote(level)
        for e, n in y.nums.items():
            columns.setdefault(e, [[0] * q for _ in range(width)])[j][r] += n * (den // y.den)
    return q, level, den, columns


def quasi_equal(a, b):
    """Equal residue polynomials over the lcm of the two periods.

    Compares the canonical coefficient text of `to_document`, which is equal
    exactly when the values are.
    """
    a_polys, b_polys = (
        [p["coefficients"] for p in q.to_document()["polys"]] for q in (a, b))
    return all(a_polys[r % a.period] == b_polys[r % b.period]
               for r in range(math.lcm(a.period, b.period)))


class ScalarFit:
    """The quasi-polynomial of Fourier tables, summed in `CyclotomicNumber`s."""

    def __init__(self, contributions):
        by_order = {}
        for q, table in contributions:
            acc = by_order.get(q, [[]] * q)
            by_order[q] = [_poly_add(acc[r], table[r]) for r in range(q)]
        self.period = math.lcm(*by_order)
        self.polys = {}
        for r in range(self.period):
            poly = []
            for q, acc in by_order.items():
                poly = _poly_add(poly, acc[r % q])
            while poly and poly[-1].is_zero():
                poly.pop()
            self.polys[r] = poly

    def to_document(self):
        return {"period": self.period,
                "polys": [{"residue": r, "coefficients": [c.to_text() for c in self.polys[r]]}
                          for r in range(self.period)]}

    def evaluate(self, m):
        acc = CyclotomicNumber.from_rational(0)
        for c in reversed(self.polys[m % self.period]):
            acc = acc * m + c
        return acc

    def integer(self, m):
        value = self.evaluate(m)
        return int(value.rational_value()) if value.is_integer() else None
