"""Preset models, document round trips, validation errors."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from contact_index import oracle
from contact_index.catalog import (IDENTITY, ContactModel, ModelError, dump_model, load_model,
                                   model_from_document, model_to_document, preset_circle,
                                   preset_hopf_sphere, preset_prequantum_cpn,
                                   preset_weighted_s3, scaled_model)
from contact_index.engine import corollary_expand
from contact_index.scalars import ExactScalar


class TestCirclePreset:
    def test_structure(self):
        m = preset_circle()
        assert m.rank == 1 and m.ambient_n == 0
        assert m.torsion_support == [IDENTITY]
        (comp,) = m.components[IDENTITY]
        assert comp.dim_odd == 1 and comp.mu == 1

    def test_pairing_is_the_orbit_length(self):
        (comp,) = preset_circle().components[IDENTITY]
        # magnitude from the Stokes oracle at n = 0
        assert comp.pairing[()] * comp.pairing[()] == \
            oracle.ball_integral(0) * oracle.ball_integral(0)


class TestHopfPreset:
    def test_pairing_magnitude_matches_ball_integral(self):
        for n in (1, 2, 3):
            (comp,) = preset_hopf_sphere(n).components[IDENTITY]
            top = comp.pairing[(n,)]
            assert top * top == oracle.ball_integral(n) * oracle.ball_integral(n)

    def test_free_action_has_no_extra_torsion(self):
        m = preset_hopf_sphere(1)
        assert m.torsion_support == [IDENTITY]

    def test_dimension_bookkeeping(self):
        for n in (1, 2, 3):
            m = preset_hopf_sphere(n)
            for comps in m.components.values():
                for c in comps:
                    assert c.k + len(c.normal) == m.ambient_n


class TestWeightedPreset:
    def test_unit_weights_reduce_to_the_round_sphere(self):
        assert preset_weighted_s3(1, 1).components == preset_hopf_sphere(1).components

    def test_non_coprime_weights_are_rejected(self):
        with pytest.raises(ModelError, match="coprime"):
            preset_weighted_s3(2, 4)

    def test_torsion_support(self):
        m = preset_weighted_s3(1, 2)
        assert m.torsion_support == [IDENTITY, Fraction(1, 2)]
        m = preset_weighted_s3(2, 3)
        assert m.torsion_support == [IDENTITY, Fraction(1, 2), Fraction(1, 3),
                                     Fraction(2, 3)]

    def test_circle_component_data(self):
        m = preset_weighted_s3(1, 2)
        (comp,) = m.components[Fraction(1, 2)]
        assert comp.dim_odd == 1
        assert comp.k + len(comp.normal) == m.ambient_n
        (root,) = comp.normal
        assert Fraction(root.eigenvalue_exponent) % 1 == Fraction(1, 2)
        assert comp.pairing[()] == ExactScalar.pi_power(1, 1)  # 2 pi / 2

    def test_dimension_bookkeeping_at_every_point(self):
        for a, b in ((1, 2), (2, 3), (3, 4)):
            m = preset_weighted_s3(a, b)
            for comps in m.components.values():
                for c in comps:
                    assert c.k + len(c.normal) == m.ambient_n


class TestPrequantumPreset:
    def test_structure(self):
        m = preset_prequantum_cpn(1)
        assert m.rank == 2 and len(m.fiber_families) == 2
        sigmas = [f.sigma for f in m.fiber_families]
        assert sigmas == [0, 1]

    def test_fiber_dimension_bookkeeping(self):
        for n in (1, 2):
            m = preset_prequantum_cpn(n)
            for fam in m.fiber_families:
                assert fam.component.k + len(fam.component.normal) == n

    def test_a_document_with_the_old_principal_reduction_still_loads(self):
        # rank-2 documents used to carry the round sphere as "identity_model";
        # the key is now ignored like any other unknown one
        doc = model_to_document(preset_prequantum_cpn(1))
        doc["identity_model"] = model_to_document(preset_hopf_sphere(1))
        assert corollary_expand(model_from_document(doc), 8, 8) == \
            corollary_expand(preset_prequantum_cpn(1), 8, 8)


class TestScaling:
    def test_moment_and_pairing_transform(self):
        m = preset_hopf_sphere(1)
        s = scaled_model(m, 3)
        (orig,) = m.components[IDENTITY]
        (comp,) = s.components[IDENTITY]
        assert comp.mu == 3
        assert comp.pairing[(1,)] == orig.pairing[(1,)] * ExactScalar.from_rational(9)
        third = ExactScalar.from_rational(Fraction(1, 3))
        assert comp.tangential[0].curvature[0] == orig.tangential[0].curvature[0] * third

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ModelError):
            scaled_model(preset_circle(), 0)


class TestDocuments:
    @pytest.mark.parametrize("model", [
        preset_circle(), preset_hopf_sphere(2), preset_weighted_s3(2, 3),
        preset_prequantum_cpn(1),
    ], ids=["circle", "hopf2", "weighted23", "prequantum1"])
    def test_round_trip(self, model, tmp_path):
        path = tmp_path / "model.json"
        dump_model(model, path)
        loaded = load_model(path)
        assert model_to_document(loaded) == model_to_document(model)

    def test_reserialization_is_canonical(self, tmp_path):
        path = tmp_path / "model.json"
        dump_model(preset_weighted_s3(2, 3), path)
        first = path.read_text()
        dump_model(load_model(path), path)
        assert path.read_text() == first

    def test_hand_written_five_sphere_equals_preset(self):
        i_text = ExactScalar.i().to_text()
        doc = {
            "rank": 1, "ambient_n": 2, "model_id": "hopf-2",
            "components": [{
                "at": "0/1", "dim": 5,
                "tangential_roots": [
                    {"curv": [i_text], "weight": 0, "eig": "0/1"}
                ] * 3,
                "normal_roots": [],
                "moment": {"mu": "1", "reeb_weight": 1},
                "pairing": [{"mono": [2], "value": "(8)*pi^3"}],
            }],
        }
        model = model_from_document(doc)
        assert model_to_document(model) == model_to_document(preset_hopf_sphere(2))

    def test_zero_moment_is_an_ellipticity_error(self):
        doc = {
            "rank": 1, "ambient_n": 0,
            "components": [{
                "at": "0/1", "dim": 1, "tangential_roots": [], "normal_roots": [],
                "moment": {"mu": "0", "reeb_weight": 1},
                "pairing": [{"mono": [], "value": "(2)*pi^1"}],
            }],
        }
        with pytest.raises(ModelError, match="ellipticity"):
            model_from_document(doc)

    def test_root_count_mismatch(self):
        doc = {
            "rank": 1, "ambient_n": 3,
            "components": [{
                "at": "0/1", "dim": 1, "tangential_roots": [], "normal_roots": [],
                "moment": {"mu": "1", "reeb_weight": 1},
                "pairing": [{"mono": [], "value": "(2)*pi^1"}],
            }],
        }
        with pytest.raises(ModelError, match="bookkeeping"):
            model_from_document(doc)

    def test_normal_eigenvalue_one_is_rejected(self):
        doc = {
            "rank": 1, "ambient_n": 1,
            "components": [
                {"at": "0/1", "dim": 3, "tangential_roots":
                    [{"curv": ["(1*z4^1)*pi^0"], "weight": 0, "eig": "0/1"}],
                 "normal_roots": [],
                 "moment": {"mu": "1", "reeb_weight": 1},
                 "pairing": [{"mono": [1], "value": "(4)*pi^2"}]},
                {"at": "1/2", "dim": 1, "tangential_roots": [],
                 "normal_roots": [{"curv": [], "weight": 2, "eig": "0/1"}],
                 "moment": {"mu": "1", "reeb_weight": 1},
                 "pairing": [{"mono": [], "value": "(1)*pi^1"}]},
            ],
        }
        with pytest.raises(ModelError, match="fixed-set mismatch"):
            model_from_document(doc)

    def test_malformed_rational_names_the_field(self):
        doc = {
            "rank": 1, "ambient_n": 0,
            "components": [{
                "at": "0/1", "dim": 1, "tangential_roots": [], "normal_roots": [],
                "moment": {"mu": "one half", "reeb_weight": 1},
                "pairing": [{"mono": [], "value": "(2)*pi^1"}],
            }],
        }
        with pytest.raises(ModelError, match=r"components\[0\].moment.mu"):
            model_from_document(doc)

    def test_floats_are_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "rank": 1, "ambient_n": 0,
            "components": [{
                "at": "0/1", "dim": 1, "tangential_roots": [], "normal_roots": [],
                "moment": {"mu": 0.5, "reeb_weight": 1},
                "pairing": [{"mono": [], "value": "(2)*pi^1"}],
            }],
        }))
        with pytest.raises(ModelError, match="float"):
            load_model(path)

    def test_a_deeply_nested_document_is_a_model_error(self, tmp_path):
        # the JSON parser recurses once per bracket and gives up at the recursion limit;
        # the caller holds the path, and the CLI names it once (test_cli)
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        with pytest.raises(ModelError, match="^model document is nested too deeply$"):
            load_model(path)

    def test_identity_must_be_present(self):
        with pytest.raises(ModelError, match="identity"):
            ContactModel(rank=1, ambient_n=0, model_id="m", components={}).validate()


def _circle_doc():
    return model_to_document(preset_circle())


def _identity_with_a_normal_root_doc():
    """The three-sphere's identity component with a normal root at eigenvalue -1."""
    doc = model_to_document(preset_hopf_sphere(1))
    doc["ambient_n"] = 2
    doc["components"][0]["normal_roots"] = [{"curv": ["0"], "weight": 1, "eig": "1/2"}]
    return doc


def _set(path, value):
    """An edit of a model document: set the field at `path` (keys and indices)."""
    def edit(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        doc[last] = value
    return edit


def _drop(path):
    def edit(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        del doc[last]
    return edit


class TestDocumentShape:
    @pytest.mark.parametrize("edit,field", [
        (_drop(["ambient_n"]), r"^ambient_n: missing field"),
        (_set(["ambient_n"], None), r"^ambient_n: expected an integer"),
        (_set(["rank"], "one"), r"^rank: expected an integer"),
        (_set(["components"], 5), r"^components: expected a list"),
        (_set(["components", 0], 5), r"^components\[0\]: expected an object"),
        (_drop(["components", 0, "dim"]), r"^components\[0\]\.dim: missing field"),
        (_set(["components", 0, "dim"], [1]), r"^components\[0\]\.dim: expected an integer"),
        (_set(["components", 0, "dim"], 3.5), r"^components\[0\]\.dim: expected an integer"),
        (_set(["components", 0, "dim"], True), r"^components\[0\]\.dim: expected an integer"),
        (_set(["components", 0, "normal_roots"], {}),
         r"^components\[0\]\.normal_roots: expected a list"),
        (_set(["components", 0, "normal_roots"], [3]),
         r"^components\[0\]\.normal_roots\[0\]: expected an object"),
        (_set(["components", 0, "moment"], "1"), r"^components\[0\]\.moment: expected an object"),
        (_set(["components", 0, "moment", "reeb_weight"], None),
         r"^components\[0\]\.moment\.reeb_weight: expected an integer"),
        (_drop(["components", 0, "pairing", 0, "mono"]),
         r"^components\[0\]\.pairing\[0\]\.mono: missing field"),
        (_drop(["components", 0, "pairing", 0, "value"]),
         r"^components\[0\]\.pairing\[0\]\.value: missing field"),
        (_set(["components", 0, "pairing", 0, "mono"], ["x"]),
         r"^components\[0\]\.pairing\[0\]\.mono: expected an integer"),
        (_set(["components", 0, "moment", "mu"], True),
         r"^components\[0\]\.moment\.mu: expected an integer or an exact 'p/q' string"),
        (_set(["components", 0, "moment", "mu"], 0.5),
         r"^components\[0\]\.moment\.mu: expected an integer or an exact 'p/q' string"),
        (_set(["components", 0, "at"], False),
         r"^components\[0\]\.at: expected an integer or an exact 'p/q' string"),
    ])
    def test_wrong_shape_names_the_field(self, edit, field):
        doc = _circle_doc()
        edit(doc)
        with pytest.raises(ModelError, match=field):
            model_from_document(doc)

    # the grade rule: curvatures have pi-grade 0, the pairing of a monomial J
    # grade |J| + 1; scalar text that does not parse names its field too
    @pytest.mark.parametrize("edit,field", [
        (_set(["components", 0, "tangential_roots", 0, "curv", 0], "(1)*pi^1"),
         r"^components\[0\]\[0\]\.tangential_roots\[0\]\.curv\[0\]: a curvature has "
         r"pi-grade 0, got 1"),
        (_set(["components", 0, "pairing", 0, "value"], "(4)*pi^3"),
         r"^components\[0\]\[0\]\.pairing: the value for \(1,\) has pi-grade 2 "
         r"\(\|mono\| \+ 1\), got 3"),
        (_set(["components", 0, "pairing", 0, "value"], "(1)*pi^1 + (1)*pi^2"),
         r"^components\[0\]\.pairing\[0\]\.value: malformed scalar .*mixes pi-grades \[1, 2\]"),
        (_set(["components", 0, "tangential_roots", 0, "curv", 0], "(1/0)*pi^0"),
         r"^components\[0\]\.tangential_roots\[0\]\.curv\[0\]: malformed scalar "
         r".*unparseable"),
        (_set(["components", 0, "tangential_roots", 0, "curv", 0], "(1*z0^1)*pi^0"),
         r"^components\[0\]\.tangential_roots\[0\]\.curv\[0\]: malformed scalar .*level"),
        (_set(["components", 0, "pairing", 0, "value"], 4),
         r"^components\[0\]\.pairing\[0\]\.value: expected a scalar string, got 4"),
    ], ids=["curvature-grade-1", "pairing-one-grade-off", "pairing-mixed-grades",
            "zero-denominator", "level-zero", "not-a-string"])
    def test_scalar_grade_rule_names_the_field(self, edit, field):
        doc = model_to_document(preset_hopf_sphere(1))
        edit(doc)
        with pytest.raises(ModelError, match=field):
            model_from_document(doc)

    # the component invariants `FixedComponentData.validate` and the loader check
    @pytest.mark.parametrize("edit,field", [
        (_set(["components", 0, "dim"], 2),
         r"^components\[0\]\[0\]\.dim: component dimension must be odd and positive"),
        (_set(["components", 0, "moment", "reeb_weight"], [1, 1]),
         r"^components\[0\]\[0\]\.moment\.reeb_weight: expected 1 entries"),
        (_set(["components", 0, "tangential_roots", 0, "weight"], [0, 0]),
         r"^components\[0\]\[0\]\.tangential_roots\[0\]\.weight: expected 1 entries"),
        (_set(["components", 0, "tangential_roots", 0, "eig"], "1/2"),
         r"^components\[0\]\[0\]\.tangential_roots\[0\]\.eig: tangential roots must have "
         r"eigenvalue 1"),
        (_set(["components", 0, "pairing", 0, "value"], "0"),
         r"^components\[0\]\[0\]\.pairing: top pairing value for \(1,\) is zero"),
        (_set(["components", 0, "pairing"], [{"mono": [0], "value": "(1)*pi^1"}]),
         r"^components\[0\]\[0\]\.pairing: no entry of top degree 1"),
        (_set(["components", 0, "tangential_roots", 0, "curv"], ["(1*z4^1)*pi^0", "0"]),
         r"^components\[0\]\.tangential_roots: inconsistent curvature vector lengths"),
        (_set(["rank"], 3), r"^rank: only 1 and 2 are supported"),
    ], ids=["even-dim", "reeb-weight-length", "root-weight-length", "tangential-eig",
            "zero-top-pairing", "no-top-degree", "curvature-lengths", "rank-3"])
    def test_validation_rule_names_the_field(self, edit, field):
        doc = model_to_document(preset_hopf_sphere(1))
        edit(doc)
        with pytest.raises(ModelError, match=field):
            model_from_document(doc)

    def test_zero_pairing_below_the_top_degree_has_any_grade(self):
        doc = model_to_document(preset_hopf_sphere(1))
        doc["components"][0]["pairing"].append({"mono": [0], "value": "0"})
        model_from_document(doc)

    def test_readme_example_loads_and_reserializes_canonically(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("## Model documents"):]
        start = section.index("```json\n") + len("```json\n")
        (tmp_path / "readme.json").write_text(section[start:section.index("```", start)])
        model = load_model(tmp_path / "readme.json")
        assert model.components[IDENTITY][0].pairing[(1,)].pi == 2
        dump_model(model, tmp_path / "first.json")
        dump_model(load_model(tmp_path / "first.json"), tmp_path / "second.json")
        assert (tmp_path / "second.json").read_text() == (tmp_path / "first.json").read_text()

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ModelError, match="^model document: expected an object"):
            model_from_document([1])

    def test_identity_component_with_a_normal_root_is_rejected(self):
        # the identity fixes all of M, so k must equal ambient_n: a
        # three-dimensional identity component in ambient rank 2 cannot take
        # up the missing direction as a normal root at eigenvalue -1
        with pytest.raises(ModelError, match=r"^components\[0\]\[0\]\.normal_roots\[0\]: "
                                             r"the identity fixes all of M"):
            model_from_document(_identity_with_a_normal_root_doc())

    @pytest.mark.parametrize("edit,field", [
        (_drop(["fiber_families", 1, "sigma"]), r"^fiber_families\[1\]\.sigma: missing field"),
        (_set(["fiber_families", 1, "sigma"], True),
         r"^fiber_families\[1\]\.sigma: expected an integer"),
        (_set(["fiber_families", 0], []), r"^fiber_families\[0\]: expected an object"),
    ])
    def test_wrong_shape_of_a_rank_two_document_names_the_field(self, edit, field):
        doc = model_to_document(preset_prequantum_cpn(1))
        edit(doc)
        with pytest.raises(ModelError, match=field):
            model_from_document(doc)
