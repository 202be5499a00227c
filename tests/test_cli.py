"""Command-line surface: flags, exit codes, exact outputs, determinism."""

import json
import os
import stat
import sys

import pytest
from click.testing import CliRunner

from contact_index import cli, engine, oracle
from contact_index.cli import main
from contact_index.catalog import ModelError, dump_model, model_to_document, preset_weighted_s3
from contact_index.deltas import DeltaError
from contact_index.engine import build_preset
from contact_index.scalars import CyclotomicNumber, ScalarError, approx_display
from distributions import germ_from_document


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def calibrated(runner, tmp_path, monkeypatch):
    """Run every command from a scratch directory holding a calibration file."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CONTACT_INDEX_CALIBRATION", raising=False)
    result = runner.invoke(main, ["calibrate"])
    assert result.exit_code == 0, result.output
    return tmp_path


def _circle_document(**component_fields):
    doc = model_to_document(build_preset("circle", ()))
    doc["components"][0].update(component_fields)
    return doc


def _identity_with_a_normal_root():
    """A three-dimensional identity component with a normal root, ambient rank 2."""
    doc = model_to_document(build_preset("hopf", (1,)))
    doc["ambient_n"] = 2
    doc["components"][0]["normal_roots"] = [{"curv": ["0"], "weight": 1, "eig": "1/2"}]
    return doc


def _strip_stamp(text):
    doc = json.loads(text)
    doc.pop("generated_at", None)
    return doc


class TestCalibrate:
    def test_fresh_run_writes_the_artifact(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["calibrate"])
        assert result.exit_code == 0
        assert "poisson_sign=1" in result.output
        doc = json.loads((tmp_path / "contact-index-calibration.json").read_text())
        assert doc == {"version": 1, "poisson_sign": 1, "orientation_sign": 1,
                       "todd_direction": "plus"}

    def test_second_run_is_idempotent(self, runner, calibrated):
        first = (calibrated / "contact-index-calibration.json").read_text()
        result = runner.invoke(main, ["calibrate"])
        assert result.exit_code == 0
        assert (calibrated / "contact-index-calibration.json").read_text() == first

    @pytest.mark.parametrize("passes,count", [(False, 0), (True, 8)], ids=["none", "all"])
    def test_anchor_failures_exit_five(self, runner, tmp_path, monkeypatch, passes, count):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(engine, "_anchor_pass", lambda cfg: passes)
        result = runner.invoke(main, ["calibrate"])
        assert result.exit_code == 5
        assert result.stderr.startswith("calibration failure: ")
        assert f"{count} of 8 passed the anchors" in result.output
        assert not (tmp_path / "contact-index-calibration.json").exists()

    @pytest.mark.parametrize("text,field", [
        ("[]", "calibration record"),
        ('"x"', "calibration record"),
        ('{"poisson_sign": null, "orientation_sign": 1, "todd_direction": "plus"}',
         "poisson_sign"),
        ('{"poisson_sign": true, "orientation_sign": 1, "todd_direction": "plus"}',
         "poisson_sign"),
        ('{"poisson_sign": 1.0, "orientation_sign": 1, "todd_direction": "plus"}',
         "poisson_sign"),
        ('{"poisson_sign": 1, "orientation_sign": -1.0, "todd_direction": "plus"}',
         "orientation_sign"),
    ])
    def test_malformed_calibration_file_exits_two(self, runner, tmp_path, monkeypatch,
                                                  text, field):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CONTACT_INDEX_CALIBRATION", raising=False)
        (tmp_path / "contact-index-calibration.json").write_text(text)
        result = runner.invoke(main, ["character", "--preset", "circle", "--max-m", "2"])
        assert result.exit_code == 2, result.output
        assert field in result.output

    def test_deeply_nested_calibration_file_exits_two_naming_it(self, runner, tmp_path,
                                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CONTACT_INDEX_CALIBRATION", raising=False)
        (tmp_path / "contact-index-calibration.json").write_text("[" * 200_000)
        result = runner.invoke(main, ["character", "--preset", "circle", "--max-m", "2"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: unreadable calibration file "
                                         "'contact-index-calibration.json': maximum recursion")

    def test_has_no_window_option(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["calibrate", "--max-m", "20"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--max-m" in result.output

    def test_env_var_overrides_the_path(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "alt" / "cal.json"
        target.parent.mkdir()
        monkeypatch.setenv("CONTACT_INDEX_CALIBRATION", str(target))
        assert runner.invoke(main, ["calibrate"]).exit_code == 0
        assert target.exists()
        assert runner.invoke(main, ["character", "--preset", "circle",
                                    "--max-m", "2"]).exit_code == 0


class TestGermCommand:
    def test_circle_identity(self, runner, calibrated):
        result = runner.invoke(main, ["germ", "--preset", "circle", "--at", "0/1"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        germ, loc = germ_from_document(doc["germ"])
        assert loc == 0
        assert doc["germ"]["terms"] == [{
            "derivative_order": [0], "scalar": "(2)*pi^1", "approx": "6.2832"}]

    def test_sphere_half_turn_is_zero(self, runner, calibrated):
        result = runner.invoke(main, ["germ", "--preset", "hopf", "--n", "1",
                                      "--at", "1/2"])
        assert result.exit_code == 0
        assert json.loads(result.output)["germ"]["terms"] == []

    def test_weighted_half_turn_single_term(self, runner, calibrated):
        result = runner.invoke(main, ["germ", "--preset", "weighted-s3",
                                      "--weights", "1,2", "--at", "1/2"])
        assert result.exit_code == 0
        terms = json.loads(result.output)["germ"]["terms"]
        assert len(terms) == 1
        assert terms[0]["scalar"] == "(1/2)*pi^1"

    def test_a_point_past_the_text_digit_limit_exits_two(self, runner, calibrated):
        # 1e-5000 parses exactly, off the support: the germ is zero, and writing the
        # point's denominator, 10^5000, is past Python's int-to-text digit limit
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("integer text has no digit limit here")
        result = runner.invoke(main, ["germ", "--preset", "weighted-s3", "--weights", "5,7",
                                      "--at", "1e-5000"])
        assert result.exit_code == 2, result.output
        assert result.stderr == (f"error: an integer of 5001 digits is past the limit of "
                                 f"{limit} digits for integer text\n")

    def test_every_term_carries_its_approximation(self, runner, calibrated):
        result = runner.invoke(main, ["germ", "--preset", "hopf", "--n", "3", "--at", "0/1",
                                      "--digits", "6"])
        assert result.exit_code == 0
        terms = json.loads(result.output)["germ"]["terms"]
        assert len(terms) == 4
        for term in terms:
            value, grade = CyclotomicNumber.from_text(term["scalar"])
            assert grade == 1
            assert term["approx"] == approx_display(value, 6, pi=grade)

    def test_has_no_format_option(self, runner, calibrated):
        result = runner.invoke(main, ["germ", "--preset", "circle", "--at", "0/1",
                                      "--format", "json"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--format" in result.output

    def test_bad_fraction_is_a_config_error(self, runner, calibrated):
        result = runner.invoke(main, ["germ", "--preset", "circle", "--at", "x/y"])
        assert result.exit_code == 2

    def test_negative_digits_is_a_config_error(self, runner, calibrated):
        result = runner.invoke(main, ["germ", "--preset", "circle", "--at", "0/1",
                                      "--digits", "-2"])
        assert result.exit_code == 2
        assert "--digits" in result.output

    @pytest.mark.parametrize("digits, code", [("15", 0), ("16", 2)])
    def test_digits_stop_at_double_precision(self, runner, calibrated, digits, code):
        result = runner.invoke(main, ["germ", "--preset", "weighted-s3", "--weights", "2,3",
                                      "--at", "1/3", "--digits", digits])
        assert result.exit_code == code, result.output
        if code:
            assert "--digits" in result.output and "0<=x<=15" in result.output

    def test_rank_two_is_unsupported(self, runner, calibrated):
        result = runner.invoke(main, ["germ", "--preset", "prequantum-cpn",
                                      "--n", "1", "--at", "0/1"])
        assert result.exit_code == 3
        assert result.stderr.startswith("unsupported: ")

    def test_out_writes_a_file(self, runner, calibrated):
        out = calibrated / "germ.json"
        result = runner.invoke(main, ["germ", "--preset", "circle", "--at", "0/1",
                                      "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["model_id"] == "circle"


class TestCharacterCommand:
    def test_circle_csv(self, runner, calibrated):
        result = runner.invoke(main, ["character", "--preset", "circle",
                                      "--max-m", "5", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "m,value"
        assert lines[1:] == [f"{m},1" for m in range(-5, 6)]

    def test_json_report_shape(self, runner, calibrated):
        result = runner.invoke(main, ["character", "--preset", "hopf", "--n", "1",
                                      "--max-m", "3"])
        doc = json.loads(result.output)
        values = {e["m"]: e["integer"] for e in doc["coefficients"]}
        assert values == {m: 1 - m for m in range(-3, 4)}
        assert doc["quasi_polynomial"]["period"] == 1
        assert doc["non_integer_coefficients"] == []

    def test_determinism_modulo_timestamp(self, runner, calibrated):
        args = ["character", "--preset", "weighted-s3", "--weights", "2,3",
                "--max-m", "12"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert _strip_stamp(first.output) == _strip_stamp(second.output)

    def test_default_window_below_the_period_matches_the_oracle(self, runner,
                                                                calibrated):
        result = runner.invoke(main, ["character", "--preset", "weighted-s3",
                                      "--weights", "5,7"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        values = {e["m"]: e.get("integer") for e in doc["coefficients"]}
        assert values == {m: oracle.oracle_character("weighted-s3", (5, 7), m)
                          for m in range(-50, 51)}
        assert doc["quasi_polynomial"]["period"] == 35

    def test_missing_calibration_is_a_config_error(self, runner, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CONTACT_INDEX_CALIBRATION", raising=False)
        result = runner.invoke(main, ["character", "--preset", "circle"])
        assert result.exit_code == 2
        assert "calibrate" in result.output

    def test_model_document_matches_preset(self, runner, calibrated):
        path = calibrated / "w23.json"
        dump_model(preset_weighted_s3(2, 3), path)
        from_file = runner.invoke(main, ["character", "--model", str(path),
                                         "--max-m", "12", "--format", "csv"])
        from_preset = runner.invoke(main, ["character", "--preset", "weighted-s3",
                                           "--weights", "2,3", "--max-m", "12",
                                           "--format", "csv"])
        assert from_file.exit_code == 0
        assert from_file.output == from_preset.output

    @pytest.mark.parametrize("doc,field", [
        ({"components": []}, "ambient_n"),
        ({"ambient_n": 1, "components": 5}, "components"),
        ([1], "model document"),
        (_circle_document(moment={"mu": True, "reeb_weight": 1}),
         "components[0].moment.mu: expected an integer or an exact 'p/q' string"),
        (_circle_document(at=False),
         "components[0].at: expected an integer or an exact 'p/q' string"),
        (_identity_with_a_normal_root(),
         "components[0][0].normal_roots[0]: the identity fixes all of M"),
        (_circle_document(pairing=[{"mono": [], "value": "(2*z1028^0)*pi^1"}]),
         "components[0].pairing[0].value: malformed scalar '(2*z1028^0)*pi^1' "
         "(cyclotomic level 1028 exceeds 1024)"),
    ])
    def test_malformed_model_document_exits_two(self, runner, calibrated, doc, field):
        path = calibrated / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["character", "--model", str(path)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ")
        assert field in result.output

    def test_deeply_nested_model_document_exits_two_naming_it(self, runner, calibrated):
        path = calibrated / "deep.json"
        path.write_text('{"a":' * 100_000)
        result = runner.invoke(main, ["character", "--model", str(path)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: cannot load model")
        assert "is nested too deeply" in result.output
        assert result.output.count(str(path)) == 1, result.output

    @pytest.mark.parametrize("make, cause", [
        (lambda path: None, ": No such file or directory"),
        (lambda path: path.mkdir(), ": Is a directory"),
        (lambda path: path.write_bytes(b"\xff{}"), "can't decode byte 0xff"),
        (lambda path: path.write_text("{"), ": Expecting property name"),
    ], ids=["missing", "directory", "not-utf8", "bad-json"])
    def test_unreadable_model_files_exit_two_naming_the_file_once(self, runner, calibrated,
                                                                  make, cause):
        path = calibrated / "model.json"
        make(path)
        result = runner.invoke(main, ["germ", "--model", str(path), "--at", "0"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: cannot load model {str(path)!r}: ")
        assert cause in result.output
        assert result.output.count(str(path)) == 1, result.output

    def test_non_integer_coefficients_print_exactly(self, runner, calibrated):
        # the circle with half its orbit length: every coefficient is 1/2
        doc = model_to_document(build_preset("circle", ()))
        doc["components"][0]["pairing"][0]["value"] = "(1)*pi^1"
        path = calibrated / "half.json"
        path.write_text(json.dumps(doc))
        csv = runner.invoke(main, ["character", "--model", str(path), "--max-m", "2",
                                   "--format", "csv"])
        assert csv.exit_code == 0, csv.output
        assert csv.output.splitlines()[1:] == [f"{m},(1/2)*pi^0" for m in range(-2, 3)]
        doc = json.loads(runner.invoke(main, ["character", "--model", str(path),
                                              "--max-m", "2"]).output)
        assert doc["non_integer_coefficients"] == list(range(-2, 3))
        assert not any("integer" in e for e in doc["coefficients"])

    def test_a_pairing_beyond_double_range_writes_its_report(self, runner, calibrated):
        path = calibrated / "big.json"
        path.write_text(json.dumps(_circle_document(
            pairing=[{"mono": [], "value": f"({2 * 10 ** 400})*pi^1"}])))
        character = runner.invoke(main, ["character", "--model", str(path), "--max-m", "2"])
        assert character.exit_code == 0, character.output
        entries = json.loads(character.output)["coefficients"]
        assert [(e["integer"], e["approx"]) for e in entries] == [(10 ** 400, "1e+400")] * 5
        germ = runner.invoke(main, ["germ", "--model", str(path), "--at", "0"])
        assert germ.exit_code == 0, germ.output
        assert [t["approx"] for t in json.loads(germ.output)["germ"]["terms"]] == ["6.2832e+400"]

    @pytest.mark.parametrize("extra, message", [
        (0, "error: an integer of "),
        (701, "error: cannot load model"),
    ], ids=["report-past-the-limit", "pairing-past-the-limit"])
    def test_integers_past_the_text_digit_limit_exit_two(self, runner, calibrated, extra,
                                                         message):
        # a pairing at the limit parses, and its coefficients have one digit more
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("integer text has no digit limit here")
        doc = model_to_document(build_preset("hopf", (1,)))
        doc["components"][0]["pairing"][0]["value"] = f"(4{'0' * (limit + extra - 1)})*pi^2"
        path = calibrated / "huge.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["character", "--model", str(path), "--max-m", "50"])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(message), result.stderr[:200]
        assert f"digits is past the limit of {limit} digits for integer text" in result.stderr
        assert len(result.stderr) < 400, result.stderr[:600]
        if extra:
            assert "components[0].pairing[0].value: malformed scalar" in result.stderr
            assert f"of {limit + extra + 7} characters" in result.stderr

    def test_preset_and_model_are_mutually_exclusive(self, runner, calibrated):
        result = runner.invoke(main, ["character", "--preset", "circle",
                                      "--model", "x.json"])
        assert result.exit_code == 2

    def test_missing_n_is_a_config_error(self, runner, calibrated):
        assert runner.invoke(main, ["character", "--preset", "hopf"]).exit_code == 2

    def test_bad_weights_are_a_config_error(self, runner, calibrated):
        result = runner.invoke(main, ["character", "--preset", "weighted-s3",
                                      "--weights", "2;3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("weights", ["--5,7", "\u00b2,3", "5,\u00b9"])
    def test_weights_that_pass_isdigit_but_not_int_are_a_config_error(self, runner, calibrated,
                                                                       weights):
        # "²".isdigit() holds and "--5" passes lstrip("-"), but int refuses both
        result = runner.invoke(main, ["character", "--preset", "weighted-s3",
                                      f"--weights={weights}"])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: --weights must be two integers 'a,b', got {weights!r}\n"

    def test_negative_digits_is_a_config_error(self, runner, calibrated):
        result = runner.invoke(main, ["character", "--preset", "circle",
                                      "--max-m", "3", "--digits", "-1"])
        assert result.exit_code == 2
        assert "--digits" in result.output

    @pytest.mark.parametrize("digits, code", [("15", 0), ("16", 2)])
    def test_digits_stop_at_double_precision(self, runner, calibrated, digits, code):
        result = runner.invoke(main, ["character", "--preset", "weighted-s3", "--weights", "2,3",
                                      "--max-m", "3", "--digits", digits])
        assert result.exit_code == code, result.output
        if code:
            assert "--digits" in result.output and "0<=x<=15" in result.output

    def test_empty_window_exits_2(self, runner, calibrated):
        result = runner.invoke(main, ["character", "--preset", "circle", "--max-m", "0"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ") and "max_m" in result.stderr


class TestDhCommand:
    def test_sphere_volume_transform(self, runner, calibrated):
        result = runner.invoke(main, ["dh", "--preset", "hopf", "--n", "1"])
        assert result.exit_code == 0
        terms = json.loads(result.output)["germ"]["terms"]
        assert terms == [{"derivative_order": [1], "scalar": "(2*z4^1)*pi^1"}]

    def test_has_no_digits_option(self, runner):
        result = runner.invoke(main, ["dh", "--help"])
        assert result.exit_code == 0
        assert "--digits" not in result.output

    def test_rank_two_is_unsupported(self, runner, calibrated):
        result = runner.invoke(main, ["dh", "--preset", "prequantum-cpn", "--n", "1"])
        assert result.exit_code == 3
        assert result.stderr.startswith("unsupported: ")


class TestCorollaryCommand:
    def test_weights_table(self, runner, calibrated):
        result = runner.invoke(main, ["corollary", "--preset", "prequantum-cpn",
                                      "--n", "1", "--max-m", "2", "--max-k", "4"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        by_m = {e["m"]: {w["weight"]: w["multiplicity"] for w in e["weights"]}
                for e in doc["characters"]}
        assert by_m[2] == {0: 1, 1: 1, 2: 1}
        assert by_m[-1] == {}

    def test_rank_one_is_unsupported(self, runner, calibrated):
        result = runner.invoke(main, ["corollary", "--preset", "circle"])
        assert result.exit_code == 3
        assert result.stderr.startswith("unsupported: ")

    @pytest.mark.parametrize("flag, value", [("--max-m", "-2"), ("--max-k", "-5")])
    def test_negative_window_exits_2_naming_the_value(self, runner, calibrated, flag, value):
        result = runner.invoke(main, ["corollary", "--preset", "prequantum-cpn",
                                      "--n", "1", flag, value])
        assert result.exit_code == 2
        assert f"must be at least 0, got {value}" in result.output
        assert "raise max_k" not in result.output


    def test_default_window_holds_every_weight_of_a_projective_plane(self, runner, calibrated):
        result = runner.invoke(main, ["corollary", "--preset", "prequantum-cpn", "--n", "2"])
        assert result.exit_code == 0, result.output
        by_m = {e["m"]: {w["weight"]: w["multiplicity"] for w in e["weights"]}
                for e in json.loads(result.output)["characters"]}
        assert by_m == {m: oracle.cpn_weight_multiplicities(2, m) for m in range(-20, 21)}

    def test_explicit_window_too_small_still_exits_2(self, runner, calibrated):
        result = runner.invoke(main, ["corollary", "--preset", "prequantum-cpn", "--n", "2",
                                      "--max-k", "39"])
        assert result.exit_code == 2
        assert "raise max_k" in result.output

    def test_nonzero_remainder_exits_2_naming_the_slice(self, runner, calibrated):
        # a prequantum-cp1 document whose first fiber has amplitude 2
        path = calibrated / "cp1.json"
        dump_model(build_preset("prequantum-cpn", (1,)), path)
        doc = json.loads(path.read_text())
        doc["fiber_families"][0]["pairing"][0]["value"] = "(4)*pi^1"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["corollary", "--model", str(path),
                                      "--max-m", "2", "--max-k", "4"])
        assert result.exit_code == 2
        assert "at m=-2 is not a Laurent polynomial: nonzero remainder" in result.output


class TestVerifyCommand:
    def test_sphere_passes(self, runner, calibrated):
        result = runner.invoke(main, ["verify", "--preset", "hopf", "--n", "1",
                                      "--max-m", "50"])
        assert result.exit_code == 0
        assert "hopf-1: ok" in result.output

    def test_large_sphere_passes_through_the_binomial_oracle(self, runner, calibrated):
        # enumerating binom(m+12, 12) lattice points per value would not finish
        result = runner.invoke(main, ["verify", "--preset", "hopf", "--n", "12"])
        assert result.exit_code == 0, result.output
        assert "hopf-12: ok" in result.output

    def test_weighted_passes(self, runner, calibrated):
        result = runner.invoke(main, ["verify", "--preset", "weighted-s3",
                                      "--weights", "2,3", "--max-m", "100"])
        assert result.exit_code == 0

    def test_all_presets_pass_in_one_invocation(self, runner, calibrated):
        result = runner.invoke(main, ["verify", "--all", "--max-m", "30"])
        assert result.exit_code == 0
        assert result.output.count(": ok") == 7

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_projective_spaces_pass(self, runner, calibrated, n):
        result = runner.invoke(main, ["verify", "--preset", "prequantum-cpn", "--n", n,
                                      "--max-m", "10", "--max-k", "40"])
        assert result.exit_code == 0
        assert f"prequantum-cp{n}: ok" in result.output

    def test_projective_plane_passes_at_the_default_window(self, runner, calibrated):
        result = runner.invoke(main, ["verify", "--preset", "prequantum-cpn", "--n", "2"])
        assert result.exit_code == 0, result.output
        assert "prequantum-cp2: ok" in result.output

    def test_projective_window_too_small_asks_to_raise_max_k(self, runner, calibrated):
        result = runner.invoke(main, ["verify", "--preset", "prequantum-cpn", "--n", "2",
                                      "--max-m", "10", "--max-k", "15"])
        assert result.exit_code == 2
        assert "raise max_k" in result.output

    def test_missing_n_exits_two_naming_the_option(self, runner, calibrated):
        result = runner.invoke(main, ["verify", "--preset", "hopf"])
        assert result.exit_code == 2
        assert "--n" in result.output

    def test_non_coprime_weights_exit_two(self, runner, calibrated):
        result = runner.invoke(main, ["verify", "--preset", "weighted-s3",
                                      "--weights", "2,4"])
        assert result.exit_code == 2
        assert "coprime" in result.output

    def test_user_models_have_no_oracle(self, runner, calibrated):
        path = calibrated / "m.json"
        dump_model(preset_weighted_s3(1, 2), path)
        result = runner.invoke(main, ["verify", "--model", str(path)])
        assert result.exit_code == 3
        assert result.stderr.startswith("unsupported: ")

    def test_report_file_carries_the_full_document(self, runner, calibrated):
        out = calibrated / "verify.json"
        result = runner.invoke(main, ["verify", "--preset", "circle",
                                      "--max-m", "10", "--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())["results"][0]
        assert doc["oracle_match"] is True
        assert doc["mismatches"] == []
        assert doc["quasi_polynomial"]["period"] == 1
        assert {e["m"]: e["integer"] for e in doc["coefficients"]} == \
            {m: 1 for m in range(-10, 11)}
        assert doc["germs"][0]["terms"][0]["scalar"] == "(2)*pi^1"

    def test_wrong_conventions_exit_four_and_print_differences(
            self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CONTACT_INDEX_CALIBRATION", raising=False)
        (tmp_path / "contact-index-calibration.json").write_text(json.dumps({
            "version": 1, "poisson_sign": -1, "orientation_sign": 1,
            "todd_direction": "plus"}))
        result = runner.invoke(main, ["verify", "--preset", "hopf", "--n", "1",
                                      "--max-m", "10"])
        assert result.exit_code == 4
        assert "MISMATCH" in result.output
        assert result.output.count("m=") == 10  # first ten differing m


class TestErrorBoundary:
    """Library exceptions map to exit codes in one place, for every command."""

    def test_form_error_exits_two_naming_the_moment_covector(self, runner, calibrated):
        path = calibrated / "flat.json"
        path.write_text(json.dumps(_circle_document(moment={"mu": "1", "reeb_weight": 0})))
        result = runner.invoke(main, ["character", "--model", str(path)])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ")
        assert "moment covector" in result.stderr

    @pytest.mark.parametrize("calibration,args", [
        (None, ["character", "--preset", "circle"]),
        ("{not json", ["character", "--preset", "circle"]),
        ("calibrate", ["germ", "--preset", "circle", "--at", "1/0"]),
        ("calibrate", ["character", "--preset", "weighted-s3", "--weights", "1"]),
        ("calibrate", ["character", "--preset", "hopf"]),
        ("calibrate", ["character", "--preset", "circle", "--model", "model.json"]),
        ("calibrate", ["verify"]),
        ("calibrate", ["character", "--preset", "weighted-s3", "--weights", "2,4"]),
        ("calibrate", ["character", "--preset", "weighted-s3", "--weights=--5,7"]),
        ("calibrate", ["character", "--preset", "weighted-s3", "--weights=\u00b2,3"]),
        ("calibrate", ["germ", "--preset", "circle", "--at", "1e-5000"]),
    ], ids=["missing-calibration", "unreadable-calibration", "at-zero-denominator",
            "one-weight", "hopf-without-n", "preset-and-model", "verify-without-target",
            "weights-not-coprime", "weights-double-minus", "weights-superscript-two",
            "at-past-the-digit-limit"])
    def test_input_errors_exit_two_with_one_prefix(self, runner, tmp_path, monkeypatch,
                                                   calibration, args):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CONTACT_INDEX_CALIBRATION", raising=False)
        if calibration == "calibrate":
            assert runner.invoke(main, ["calibrate"]).exit_code == 0
        elif calibration is not None:
            (tmp_path / "contact-index-calibration.json").write_text(calibration)
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: "), result.stderr

    @pytest.mark.parametrize("field,text,message", [
        ("curv", "(1/0)*pi^0", "components[0].tangential_roots[0].curv[0]: malformed scalar"),
        ("curv", "(1*z0^1)*pi^0", "components[0].tangential_roots[0].curv[0]: malformed scalar"),
        ("curv", "(1)*pi^1",
         "components[0].tangential_roots[0].curv[0]: this field has pi-grade 0, got 1"),
        ("pairing", "(4)*pi^1", "components[0].pairing[0].value: this field has pi-grade 2, got 1"),
        ("pairing", "(1)*pi^1 + (1)*pi^2", "components[0].pairing[0].value: malformed scalar"),
    ], ids=["zero-denominator", "level-zero", "curvature-grade-1", "pairing-one-grade-off",
            "pairing-mixed-grades"])
    def test_bad_model_scalars_exit_two_naming_the_field(self, runner, calibrated, field,
                                                         text, message):
        doc = model_to_document(build_preset("hopf", (1,)))
        if field == "curv":
            doc["components"][0]["tangential_roots"][0]["curv"][0] = text
        else:
            doc["components"][0]["pairing"][0]["value"] = text
        path = calibrated / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["character", "--model", str(path)])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: cannot load model"), result.stderr
        assert f"': {message}" in result.stderr

    @pytest.mark.parametrize("args", [
        ["character", "--preset", "circle", "--max-m", "3"],
        ["dh", "--preset", "hopf", "--n", "1"],
        ["calibrate"],
    ], ids=["character", "dh", "calibrate"])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_exits_two_naming_the_path(self, runner, calibrated, args, target):
        if target == "directory":
            out = calibrated / "reports"
            out.mkdir()
        else:
            out = calibrated / "missing" / "report.json"
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"error: cannot write {str(out)!r}: "), result.stderr
        assert not list(calibrated.rglob(".contact-index-*"))

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_written_files_take_the_mode_of_a_plain_open(self, runner, tmp_path, monkeypatch,
                                                         umask, mode):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CONTACT_INDEX_CALIBRATION", raising=False)
        saved = os.umask(umask)
        try:
            assert runner.invoke(main, ["calibrate"]).exit_code == 0
            result = runner.invoke(main, ["dh", "--preset", "hopf", "--n", "1",
                                          "--out", "dh.json"])
            assert result.exit_code == 0, result.output
        finally:
            os.umask(saved)
        for name in ("contact-index-calibration.json", "dh.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name

    # FormError and EngineError reach the boundary from real inputs elsewhere in this file
    @pytest.mark.parametrize("error", [ModelError, ScalarError, DeltaError])
    def test_library_errors_exit_two(self, runner, calibrated, monkeypatch, error):
        def fail(*args):
            raise error("raised in the germ")
        monkeypatch.setattr(cli, "germ_at", fail)
        result = runner.invoke(main, ["germ", "--preset", "circle", "--at", "0/1"])
        assert result.exit_code == 2
        assert result.stderr == "error: raised in the germ\n"

    def test_other_exceptions_are_not_mapped(self, runner, calibrated, monkeypatch):
        boom = RuntimeError("not a library error")

        def fail(*args):
            raise boom
        monkeypatch.setattr(cli, "germ_at", fail)
        result = runner.invoke(main, ["germ", "--preset", "circle", "--at", "0/1"])
        assert result.exit_code == 1
        assert result.exception is boom
