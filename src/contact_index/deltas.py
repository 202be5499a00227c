"""Germs of delta distributions at a point of the circle, and their Fourier conversion.

A germ is a finite combination sum_j c_j d0^(j)(phi) in the local angle
variable phi, with exact scalar coefficients.  The localization builds its
germs in `forms.integrate_component`, in closed form; the one rewrite left
here is the conversion of a germ sitting at a root of unity into Fourier
coefficients (a quasi-polynomial in the frequency), summed over Galois maps.

Germs are dense ascending coefficient lists with trailing zeros trimmed;
every operation returns a new value.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

from .scalars import ScalarError, _coerce, _trace_table

GERM_VAR = "phi"


class DeltaError(ValueError):
    """Raised for invalid germ operations (a Poisson sign other than +1 or -1, ...)."""


def _trimmed(coeffs):
    """Coerced copy of a coefficient list without its trailing zeros."""
    out = [_coerce(c) for c in coeffs]
    end = len(out)
    while end and out[end - 1].is_zero():
        end -= 1
    return out[:end]


def _poly_add(a, b):
    """Sum of two ascending coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


class DeltaGerm:
    """Finite combination of derivatives of d0 at the origin of phi.

    `terms[j]` is the coefficient of d0^(j).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = _trimmed(terms)

    @staticmethod
    def zero():
        return DeltaGerm()

    def __add__(self, other):
        return DeltaGerm(_poly_add(self.terms, other.terms))

    def __neg__(self):
        return DeltaGerm([-c for c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        s = _coerce(scalar)
        return DeltaGerm([c * s for c in self.terms])

    __rmul__ = __mul__

    def galois(self, t):
        """The automorphism zeta -> zeta^t applied to every coefficient."""
        return DeltaGerm([c.galois(t) for c in self.terms])

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, DeltaGerm):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*d0^({j})[{GERM_VAR}]" if j else f"({c})*d0[{GERM_VAR}]"
                          for j, c in enumerate(self.terms) if not c.is_zero())


# ----------------------------------------------------------------------
# Fourier conversion
# ----------------------------------------------------------------------

def fourier_contribution(germ, location, poisson_sign, maps=(1,)):
    """Fourier coefficients of a germ at a torsion point, summed over Galois maps.

    A germ sum_j c_j d0^(j)(phi) sitting at zeta = e^{2 pi i p/q} contributes
    c_m = zeta^{-s m} (1/2pi) sum_j c_j (s i m)^j, s = +-1, here summed over the
    maps zeta_L -> zeta_L^t, a group of units mod L: (1,) for the point alone,
    `_units_over_qi(L)` for its orbit's trace to Q(i).  Returns (q, rows), row r
    for m = r mod q in the integer components of `engine.QuasiPolynomial`.  The
    germ is written once in integers at L = lcm(4, q, its coefficients' levels):
    1/2pi is grade -1 and a factor 2 in D, (s i)^j the exponent shift s j L/4,
    zeta^{-s r p} the shift (-s r p mod q) L/q, and row r reads each shifted
    exponent's trace from `scalars._trace_table(L, maps)`, at that table's level.
    """
    if poisson_sign not in (1, -1):
        raise DeltaError("poisson sign must be +1 or -1")
    loc = Fraction(location) % 1
    q, p = loc.denominator, loc.numerator
    terms = [(j, c.value) for j, c in enumerate(germ.terms) if c]
    if len(grades := {germ.terms[j].pi for j, _ in terms}) > 1:
        raise ScalarError(f"a germ mixes pi-grades {sorted(grades)}")
    level = math.lcm(4, q, *(x.level for _, x in terms))
    den = math.lcm(*(x.den for _, x in terms))
    exponents = [(j, (e * (level // x.level) + poisson_sign * j * level // 4) % level,
                  n * (den // x.den)) for j, x in terms for e, n in x.nums.items()]
    sub, table = _trace_table(level, tuple(maps))
    grade, width, rows = max(grades, default=1) - 1, len(germ.terms), []
    for r in range(q):
        shift = (-poisson_sign * r * p % q) * (level // q)
        columns = defaultdict(lambda: [0] * width)
        for j, e, n in exponents:
            for x, v in table[(e + shift) % level]:
                columns[x][j] += n * v
        rows.append(_trimmed_row(grade, sub, 2 * den, columns))
    return q, rows


def _trimmed_row(k, level, den, columns):
    """(k, level, den, columns), every column cut to the polynomial's length, none zero."""
    length = max((j + 1 for col in columns.values() for j, c in enumerate(col) if c), default=0)
    return k, level, den, {e: col[:length] for e, col in columns.items() if any(col[:length])}


# ----------------------------------------------------------------------
# germ serialization (torsion location + term list, exact text)
# ----------------------------------------------------------------------

def germ_to_document(germ, location):
    loc = Fraction(location) % 1
    return {
        "location": f"e^{{2pi*i*{loc.numerator}/{loc.denominator}}}",
        "variables": [GERM_VAR],
        "terms": [
            {"derivative_order": [j], "scalar": c.to_text()}
            for j, c in enumerate(germ.terms) if not c.is_zero()
        ],
    }
