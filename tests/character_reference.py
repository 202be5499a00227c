"""Test-only reference for character assembly: one germ per torsion point.

`character_reference` is the direct computation that the engine's orbit
evaluation must reproduce: every torsion point's germ from `germ_at`, every
nonzero germ's Fourier table from `fourier_contribution`, the tables summed
into the quasi-polynomial, and each coefficient read off it.
`quasi_equal` compares two quasi-polynomials as functions of m.
"""

import math

from contact_index.deltas import fourier_contribution
from contact_index.engine import DEFAULT_CALIBRATION, fit_quasi_polynomial, germ_at


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
    coefficients = {m: quasi.evaluate(m) for m in range(-max_m, max_m + 1)}
    return germs, quasi, coefficients


def quasi_equal(a, b):
    """Equal residue polynomials over the lcm of the two periods."""
    for r in range(math.lcm(a.period, b.period)):
        x, y = a.polys[r % a.period], b.polys[r % b.period]
        if len(x) != len(y) or any(not (u - v).is_zero() for u, v in zip(x, y)):
            return False
    return True
