"""Property tests: the integer per-binomial division and the double expansion.

The integer division must agree with the Fraction long division of
`laurent_reference` on exact multiples of prod (1 - x^e), e of either sign,
and must refuse anything else; the double expansion must not see a rescaling
of the contact form.  Seeded through a derandomized hypothesis profile, so
every run draws the same examples.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from contact_index.catalog import scaled_model  # noqa: E402
from contact_index.engine import (EngineError, _divide_binomials,  # noqa: E402
                                  build_preset, corollary_expand)
from laurent_reference import binomial_product, laurent_divide, laurent_mul  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=80)

exponents = st.lists(st.integers(1, 6).flatmap(lambda s: st.sampled_from((s, -s))),
                     min_size=1, max_size=5)


@st.composite
def laurent(draw):
    """A nonzero integer Laurent polynomial as {exponent: Fraction}."""
    low = draw(st.integers(-8, 8))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=8))
    poly = {low + j: Fraction(c) for j, c in enumerate(coeffs) if c}
    return poly or {low: Fraction(1)}


def integer_quotient(num, exps):
    """num / prod (1 - x^e) through the engine's division.

    prod (1 - x^e) = sign * x^shift * prod (1 - x^|e|), so the quotient is
    sign * x^-shift times the integer quotient by the binomials in |e|.
    """
    negative = [e for e in exps if e < 0]
    sign, shift = (-1) ** len(negative), sum(negative)
    low = min(num)
    dense = [int(num.get(e, 0)) for e in range(low, max(num) + 1)]
    q = _divide_binomials(dense, [abs(e) for e in exps])
    return {low - shift + j: Fraction(sign * c) for j, c in enumerate(q) if c}


@DETERMINISTIC
@given(laurent(), exponents)
def test_integer_division_equals_the_fraction_reference(poly, exps):
    num = laurent_mul(poly, binomial_product(exps))
    assert integer_quotient(num, exps) == laurent_divide(num, binomial_product(exps)) == poly


@DETERMINISTIC
@given(laurent(), exponents, st.integers(-12, 12), st.integers(1, 5))
def test_a_non_multiple_is_refused(poly, exps, e, c):
    # a multiple plus one monomial: no (1 - x^s), s > 0, divides a monomial
    num = laurent_mul(poly, binomial_product(exps))
    num[e] = num.get(e, 0) + c
    num = {k: v for k, v in num.items() if v}
    with pytest.raises(EngineError):
        integer_quotient(num, exps)
    with pytest.raises(EngineError):
        laurent_divide(num, binomial_product(exps))


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(st.integers(1, 3), st.integers(1, 40), st.integers(1, 40))
def test_rescaling_the_contact_form_leaves_the_expansion(n, p, q):
    model = build_preset("prequantum-cpn", (n,))
    assert corollary_expand(scaled_model(model, Fraction(p, q)), 8, 8 * n) == \
        corollary_expand(model, 8, 8 * n)
