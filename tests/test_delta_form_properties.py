"""Property test: the closed-form pairing of the contact delta form equals the
general germ calculus.

`forms.j_form` is the list of the delta form's k + 1 rationals, and
`forms.integrate_component` pairs each smooth term with the one rational it
meets, by one Leibniz weight.  The reference, `distributions.reference_integral`,
takes the long way: per generator monomial a jet, d0^(j)/j! rescaled by
-mu w, multiplied by the jet, and the germs summed per top monomial.
Components have k <= 5, one or two generators, mu > 0 and a nonzero Reeb
weight.  The smooth terms carry cyclotomic coefficients and phi exponents up
to k + 2, above the delta form's top derivative order; the reference reads
them all, while `FormElement` keeps those of total degree at most k, so the
test also checks that the cut drops only terms that pair to zero.  Seeded
through a derandomized hypothesis profile, so every run draws the same
examples.
"""

from fractions import Fraction
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from contact_index.catalog import FixedComponentData  # noqa: E402
from contact_index.forms import FormElement, integrate_component, j_form  # noqa: E402
from contact_index.scalars import CyclotomicNumber  # noqa: E402
from distributions import reference_integral  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=80)

fractions = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 5))


def cyclotomic(draw):
    """A nonzero rational multiple of a root of unity of order 1 to 12."""
    q = draw(st.integers(1, 12))
    return CyclotomicNumber.root_of_unity(draw(st.integers(0, q - 1)), q) * draw(fractions)


@st.composite
def cases(draw):
    k = draw(st.integers(0, 5))
    gens = draw(st.sampled_from([("dA",), ("dA", "e1")]))
    tops = [e for e in product(range(k + 1), repeat=len(gens)) if sum(e) == k]
    comp = FixedComponentData(
        dim_odd=2 * k + 1, generators=gens, tangential=[], normal=[],
        mu=draw(st.builds(Fraction, st.integers(1, 9), st.integers(1, 5))),
        reeb_weight=(draw(st.integers(-4, 4).filter(bool)),),
        pairing={e: CyclotomicNumber.from_rational(draw(fractions)) for e in tops})
    monomials = [e for e in product(range(k + 1), repeat=len(gens)) if sum(e) <= k]
    exponents = draw(st.lists(st.tuples(st.sampled_from(monomials), st.integers(0, k + 2)),
                              max_size=10, unique=True))
    return comp, {e + (p,): cyclotomic(draw) for e, p in exponents}


@DETERMINISTIC
@given(cases())
def test_closed_form_pairing_equals_the_general_calculus(case):
    comp, terms = case
    smooth = FormElement(comp.generators, comp.k, terms)
    got = integrate_component(smooth, j_form(comp, jet_order=comp.k), comp.pairing)
    assert got == reference_integral(terms, comp)
