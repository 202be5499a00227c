"""Germs of delta distributions at a point of the circle, and their Fourier conversion.

A germ is a finite combination sum_j c_j d0^(j)(phi) in the local angle
variable phi, with exact coefficients of pi-grade 1: each c_j is a
`CyclotomicNumber` times pi, and the pi is left implicit until a writer
(`germ_to_document`, the repr) puts it back.  The localization builds its
germs in `forms.integrate_component`, in closed form; the one rewrite left
here turns a germ at a root of unity into its Fourier coefficients, one
integer table of a quasi-polynomial in the frequency, summed over Galois maps.

Germs are dense ascending coefficient lists with trailing zeros trimmed;
every operation returns a new value.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

from .scalars import _coerce, _int_text, _trace_table

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
        return DeltaGerm([c * scalar for c in self.terms])

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
        return " + ".join(f"({c.to_text(pi=1)})*d0{f'^({j})' if j else ''}[{GERM_VAR}]"
                          for j, c in enumerate(self.terms) if not c.is_zero())


# ----------------------------------------------------------------------
# Fourier conversion
# ----------------------------------------------------------------------

def fourier_contribution(germ, location, poisson_sign, maps=(1,)):
    """Fourier coefficients of a germ at a torsion point, summed over Galois maps.

    A germ sum_j c_j d0^(j)(phi) sitting at zeta = e^{2 pi i p/q} contributes
    c_m = zeta^{-s m} (1/2pi) sum_j c_j (s i m)^j, s = +-1, here summed over the
    maps zeta_L -> zeta_L^t, a group of units mod L: (1,) for the point alone,
    `_units_over_qi(L)` for its orbit's trace to Q(i).  Every term has pi-grade 1, so
    c_m has grade 0: returns (q, level, den, columns), columns[e][j][r]
    / den the zeta_level^e part of the m^j coefficient at m = r mod q.  The germ is written
    once in integers at L = lcm(4, q, its coefficients' levels): 1/2pi is a factor 2 in den,
    (s i)^j the exponent shift s j L/4, zeta^{-s r p} the shift (-s r p mod q) L/q, and
    residue r reads each shifted exponent's trace from `scalars._trace_table(L, maps)`.
    """
    if poisson_sign not in (1, -1):
        raise DeltaError("poisson sign must be +1 or -1")
    loc = Fraction(location) % 1
    q, p = loc.denominator, loc.numerator
    terms = [(j, c) for j, c in enumerate(germ.terms) if c]
    level = math.lcm(4, q, *(x.level for _, x in terms))
    den = math.lcm(*(x.den for _, x in terms))
    exponents = [(j, (e * (level // x.level) + poisson_sign * j * level // 4) % level,
                  n * (den // x.den)) for j, x in terms for e, n in x.nums.items()]
    sub, table = _trace_table(level, tuple(maps))
    columns = defaultdict(lambda: [[0] * q for _ in germ.terms])
    for r in range(q):
        shift = (-poisson_sign * r * p % q) * (level // q)
        for j, e, n in exponents:
            for x, v in table[(e + shift) % level]:
                columns[x][j][r] += n * v
    return q, sub, 2 * den, _trimmed_table(columns)


def _trimmed_table(columns):
    """{e: columns} cut to the polynomial's length (its last nonzero m^j), no e all zero."""
    length = max((j + 1 for cols in columns.values() for j, col in enumerate(cols) if any(col)),
                 default=0)
    return {e: cols[:length] for e, cols in columns.items() if any(map(any, cols[:length]))}


# ----------------------------------------------------------------------
# germ serialization (torsion location + term list, exact text)
# ----------------------------------------------------------------------

def germ_to_document(germ, location):
    loc = Fraction(location) % 1
    return {
        "location": f"e^{{2pi*i*{_int_text(loc.numerator)}/{_int_text(loc.denominator)}}}",
        "variables": [GERM_VAR],
        "terms": [
            {"derivative_order": [j], "scalar": c.to_text(pi=1)}
            for j, c in enumerate(germ.terms) if not c.is_zero()
        ],
    }
