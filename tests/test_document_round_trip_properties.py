"""Property test: a rescaled preset's model document round-trips through the loader.

A preset (the free circle, a Hopf sphere with n <= 3, or a weighted three-sphere
with coprime speeds a, b <= 7) rescaled by a positive rational lambda carries
non-unit values at every grade a document holds: curvatures i a / lambda at
pi-grade 0 and pairing values c lambda^(|J| + 1) at grade |J| + 1.  Its document
is dumped, loaded, where `catalog._parse_scalar` reads each grade against its
field, and dumped again, where the writers put the grades back: the two files
must be the same bytes, and the loaded model's germ at every torsion point must
be the unscaled preset's, which rescaling leaves unchanged.  Seeded through a
derandomized hypothesis profile, so every run draws the same examples.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from contact_index.catalog import (dump_model, load_model, preset_circle,  # noqa: E402
                                   preset_hopf_sphere, preset_weighted_s3, scaled_model)
from contact_index.engine import germ_at  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def presets(draw):
    kind = draw(st.sampled_from(("circle", "hopf", "weighted-s3")))
    if kind == "circle":
        return preset_circle()
    if kind == "hopf":
        return preset_hopf_sphere(draw(st.integers(1, 3)))
    a = draw(st.integers(1, 7))
    return preset_weighted_s3(a, draw(st.integers(1, 7).filter(lambda b: math.gcd(a, b) == 1)))


scales = st.builds(Fraction, st.integers(1, 60), st.integers(1, 60))


@DETERMINISTIC
@given(presets(), scales)
def test_a_rescaled_preset_round_trips_byte_for_byte(tmp_path_factory, model, lam):
    work = tmp_path_factory.mktemp("round-trip")
    dump_model(scaled_model(model, lam), work / "first.json")
    loaded = load_model(work / "first.json")
    dump_model(loaded, work / "second.json")
    assert (work / "second.json").read_bytes() == (work / "first.json").read_bytes()
    assert loaded.torsion_support == model.torsion_support
    for at in model.torsion_support:
        assert germ_at(loaded, at) == germ_at(model, at), (model.model_id, lam, at)
