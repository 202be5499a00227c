"""Property test: every germ has pi-grade 1, the invariant the Fourier path relies on.

`deltas.fourier_contribution` rejects a germ term of any other grade, and the
quasi-polynomial stores no grade at all, so the grade rule that `catalog`
validates (curvatures 0, the pairing of a monomial J |J| + 1) must give every
nonzero term of every germ from `germ_at` the grade 1.  The models drawn are
validated rank-1 models: spheres with pairwise coprime speeds, the
two-generator documents of the golden reports, and either rescaled by a
positive rational factor, under every calibration.  Seeded through a
derandomized hypothesis profile, so every run draws the same examples.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from contact_index import catalog  # noqa: E402
from contact_index.catalog import model_from_document, scaled_model  # noqa: E402
from contact_index.engine import germ_at  # noqa: E402
from test_golden_reports import CALIBRATIONS, TWO_GENERATOR_MODELS  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=100)

coprime_speeds = st.lists(st.integers(1, 9), min_size=1, max_size=4).filter(
    lambda a: math.lcm(*a) == math.prod(a))


@st.composite
def models(draw):
    """(model, calibration): a sphere or a two-generator document, maybe rescaled."""
    calibration = draw(st.sampled_from(CALIBRATIONS))
    if draw(st.booleans()):
        model = catalog._sphere(tuple(draw(coprime_speeds)), calibration.orientation_sign,
                                "sphere")
    else:
        model = model_from_document(
            TWO_GENERATOR_MODELS[draw(st.sampled_from(sorted(TWO_GENERATOR_MODELS)))])
    if draw(st.booleans()):
        lam = Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 30)))
        model = scaled_model(model, lam).validate()
    return model, calibration


@DETERMINISTIC
@given(models())
def test_every_germ_term_has_pi_grade_one(case):
    model, calibration = case
    for at in model.torsion_support:
        terms = [c for c in germ_at(model, at, calibration).terms if c]
        assert {c.pi for c in terms} <= {1}, (model.model_id, at)
