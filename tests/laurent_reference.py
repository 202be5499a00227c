"""Test-only reference for the double expansion: Fraction Laurent division.

Laurent polynomials are dicts {exponent: Fraction}.  `corollary_reference`
is the direct computation the engine's integer, per-binomial division must
reproduce: per slice, the fiber terms over one common denominator, then one
long division over Q by the whole denominator.
"""

from fractions import Fraction

from contact_index.engine import EngineError, residual_factors


def laurent_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = e1 + e2
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def laurent_divide(num, den):
    """Exact division of Laurent polynomials over Q; the remainder must vanish."""
    if not num:
        return {}
    if not den:
        raise EngineError("division by the zero polynomial")
    shift_n = min(num)
    shift_d = min(den)
    n = {e - shift_n: c for e, c in num.items()}
    d = {e - shift_d: c for e, c in den.items()}
    deg_n = max(n)
    deg_d = max(d)
    if deg_n < deg_d:
        raise EngineError("degree deficit")
    d0 = d[0]
    quotient = {}
    work = dict(n)
    for e in range(deg_n - deg_d + 1):
        c = work.get(e, Fraction(0))
        if c == 0:
            continue
        q = c / d0
        quotient[e] = q
        for ed, cd in d.items():
            key = e + ed
            work[key] = work.get(key, Fraction(0)) - q * cd
            if work[key] == 0:
                del work[key]
    if work:
        raise EngineError(f"nonzero remainder {sorted(work.items())}")
    return {e + shift_n - shift_d: c for e, c in quotient.items() if c != 0}


def binomial_product(exponents):
    """prod (1 - x^e) as a Laurent polynomial; e may have either sign."""
    out = {0: Fraction(1)}
    for e in exponents:
        out = laurent_mul(out, {0: Fraction(1), e: Fraction(-1)})
    return out


def corollary_reference(model, max_m):
    """{m: {weight: Fraction multiplicity}} by Fraction long division, unclipped."""
    table = {}
    for m in range(-max_m, max_m + 1):
        factors = residual_factors(model, m)
        denominators = [binomial_product(f["denominator_exponents"]) for f in factors]
        total_num = {}
        for i, f in enumerate(factors):
            term = {f["power"]: Fraction(f["amplitude"])}
            for j, d in enumerate(denominators):
                if j != i:
                    term = laurent_mul(term, d)
            for e, c in term.items():
                total_num[e] = total_num.get(e, Fraction(0)) + c
        total_num = {e: c for e, c in total_num.items() if c != 0}
        total_den = {0: Fraction(1)}
        for d in denominators:
            total_den = laurent_mul(total_den, d)
        table[m] = laurent_divide(total_num, total_den)
    return table
