"""Command-line entry point.

Subcommands: germ, character, dh, corollary, verify, calibrate.  All exact
values are serialized as structured text (rationals and cyclotomic terms as
strings) with an approximate decimal annotation for reading; floats are
never parsed back.  Every command except calibrate refuses to run without
the calibration artifact, preventing silent convention drift.

Exit codes: 0 ok, 2 configuration error, 3 unsupported model feature,
4 verification mismatch, 5 calibration failure.
"""

from __future__ import annotations

import datetime
import json
import os
import sys
import tempfile
from fractions import Fraction

import click

from . import oracle
from .catalog import ModelError, document_text, load_model
from .deltas import DeltaError, germ_to_document
from .engine import (CalibrationConfig, CalibrationError, EngineError, UnsupportedModelError,
                     assemble_character, build_preset, calibrate_conventions,
                     character_document, corollary_expand, dh_fourier, germ_at)
from .forms import FormError
from .scalars import ScalarError, _int_text, approx_display

EXIT_CONFIG = 2
EXIT_UNSUPPORTED = 3
EXIT_MISMATCH = 4
EXIT_CALIBRATION = 5

DEFAULT_CALIBRATION_FILE = "contact-index-calibration.json"
CALIBRATION_VERSION = 1

PRESET_CHOICES = ("circle", "hopf", "weighted-s3", "prequantum-cpn")
VERIFY_ALL = (
    ("circle", ()),
    ("hopf", (1,)),
    ("hopf", (2,)),
    ("weighted-s3", (1, 2)),
    ("weighted-s3", (2, 3)),
    ("weighted-s3", (3, 4)),
    ("prequantum-cpn", (1,)),
)


class ConfigError(ValueError):
    """A command-line input that cannot be used: a missing option, a bad value or file."""


def _calibration_path():
    return os.environ.get("CONTACT_INDEX_CALIBRATION", DEFAULT_CALIBRATION_FILE)


def _load_calibration():
    path = _calibration_path()
    if not os.path.exists(path):
        raise ConfigError(
            f"calibration file {path!r} not found; run `contact-index calibrate` first")
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return CalibrationConfig.from_dict(doc)
    except (OSError, ValueError, KeyError, EngineError, RecursionError) as exc:
        raise ConfigError(f"unreadable calibration file {path!r}: {exc}")


def _atomic_write(path, text):
    """Write through a temporary file and `os.replace`, with the mode of a plain open."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".contact-index-")
        umask = os.umask(0)  # read by setting; mkstemp's file is 0600 whatever the umask
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(text, out):
    if out:
        _atomic_write(out, text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)


def _stamp(doc):
    doc["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return doc


def _preset_target(preset, n, weights):
    """The (kind, params) pair that `build_preset` takes, from the options."""
    if preset == "circle":
        return "circle", ()
    if preset in ("hopf", "prequantum-cpn"):
        if n is None:
            raise ConfigError(f"--preset {preset} needs --n")
        return preset, (int(n),)
    if preset == "weighted-s3":
        if not weights:
            raise ConfigError("--preset weighted-s3 needs --weights a,b")
        parts = [p.strip() for p in weights.split(",")]
        if len(parts) != 2 or not all(p.lstrip("-").isdigit() for p in parts):
            raise ConfigError(f"--weights must be two integers 'a,b', got {weights!r}")
        return preset, (int(parts[0]), int(parts[1]))
    raise ConfigError(f"unknown preset {preset!r}")


def _resolve_model(preset, n, weights, model_path, calibration):
    given = [x for x in (preset, model_path) if x]
    if len(given) != 1:
        raise ConfigError("give exactly one of --preset or --model")
    if model_path:
        try:  # the prefix names the file once; an OSError's own text names it again
            return load_model(model_path)
        except OSError as exc:
            raise ConfigError(f"cannot load model {model_path!r}: {exc.strerror or exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"cannot load model {model_path!r}: {exc}") from exc
    return build_preset(*_preset_target(preset, n, weights), calibration)


def _parse_at(text):
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"--at must be a fraction p/q, got {text!r}")
    return frac % 1


def _report(model, calibration, **fields):
    return {"model_id": model.model_id, "calibration": calibration.as_dict(), **fields}


def _window(model, max_m, max_k):
    return model.ambient_n * max_m if max_k is None else max_k  # holds |k| <= n |m|


def _model_options(fn):
    fn = click.option("--model", "model_path", type=click.Path(), default=None,
                      help="Path to a model document (exact JSON).")(fn)
    fn = click.option("--weights", default=None, help="Weights 'a,b' for weighted-s3.")(fn)
    fn = click.option("--n", type=int, default=None, help="Dimension parameter for presets.")(fn)
    fn = click.option("--preset", type=click.Choice(PRESET_CHOICES), default=None)(fn)
    return fn


class _Main(click.Group):
    def invoke(self, ctx):
        """Run a command, mapping library exceptions onto the documented exit codes."""
        try:
            return super().invoke(ctx)
        except UnsupportedModelError as exc:
            click.echo(f"unsupported: {exc}", err=True)
            sys.exit(EXIT_UNSUPPORTED)
        except CalibrationError as exc:
            click.echo(f"calibration failure: {exc}", err=True)
            sys.exit(EXIT_CALIBRATION)
        except (ConfigError, ModelError, ScalarError, DeltaError, FormError, EngineError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)


@click.group(cls=_Main)
def main():
    """Exact index characters of elliptic contact circle actions."""


@main.command()
@_model_options
@click.option("--at", "at_text", required=True, help="Torsion point p/q.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--digits", type=click.IntRange(0, 15), default=4)
def germ(preset, n, weights, model_path, at_text, out, digits):
    """Germ of the index at one torsion point."""
    calibration = _load_calibration()
    model = _resolve_model(preset, n, weights, model_path, calibration)
    at = _parse_at(at_text)
    g = germ_at(model, at, calibration)
    doc = germ_to_document(g, at)
    for term in doc["terms"]:
        term["approx"] = approx_display(g.terms[term["derivative_order"][0]], digits)
    report = _report(model, calibration, at=f"{at.numerator}/{at.denominator}", germ=doc)
    _emit(document_text(_stamp(report)), out)


@main.command()
@_model_options
@click.option("--max-m", type=int, default=50)
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--digits", type=click.IntRange(0, 15), default=4)
def character(preset, n, weights, model_path, max_m, out, fmt, digits):
    """Fourier coefficients and the quasi-polynomial of the index character."""
    calibration = _load_calibration()
    model = _resolve_model(preset, n, weights, model_path, calibration)
    result = assemble_character(model, max_m, calibration)
    if fmt == "csv":
        lines = ["m,value"]
        for m in sorted(result.coefficients):
            value = result.integers[m]
            text = result.coefficients[m].to_text() if value is None else _int_text(value)
            lines.append(f"{m},{text}")
        _emit("\n".join(lines), out)
    else:
        _emit(document_text(_stamp(character_document(result, digits))), out)


@main.command()
@_model_options
@click.option("--out", type=click.Path(), default=None)
def dh(preset, n, weights, model_path, out):
    """The volume transform: the identity germ with the Todd factor dropped."""
    calibration = _load_calibration()
    model = _resolve_model(preset, n, weights, model_path, calibration)
    doc = germ_to_document(dh_fourier(model, calibration), Fraction(0))
    _emit(document_text(_stamp(_report(model, calibration, transform="volume", germ=doc))), out)


@main.command()
@_model_options
@click.option("--max-m", type=int, default=20)
@click.option("--max-k", type=int, default=None, help="Weight window (default n * max-m).")
@click.option("--out", type=click.Path(), default=None)
def corollary(preset, n, weights, model_path, max_m, max_k, out):
    """Per-index group characters of a rank-2 prequantum model."""
    calibration = _load_calibration()
    model = _resolve_model(preset, n, weights, model_path, calibration)
    table = corollary_expand(model, max_m, _window(model, max_m, max_k), calibration)
    _emit(document_text(_stamp(_report(model, calibration, characters=_characters(table)))), out)


def _characters(table):
    return [{"m": m, "weights": [{"weight": k, "multiplicity": mult}
                                 for k, mult in sorted(table[m].items())]}
            for m in sorted(table)]


def _verify_one(kind, params, max_m, max_k, calibration):
    """Engine-versus-oracle diff for one bundled preset.

    Returns the full report document (germs, coefficients, quasi-polynomial)
    with the oracle_match flag and the mismatch list folded in.
    """
    model = build_preset(kind, params, calibration)
    mismatches = []
    if kind == "prequantum-cpn":
        table = corollary_expand(model, max_m, _window(model, max_m, max_k), calibration)
        for m in range(-max_m, max_m + 1):
            expected = oracle.cpn_weight_multiplicities(params[0], m)
            if table[m] != expected:
                mismatches.append({"m": m, "engine": table[m],
                                   "oracle": expected})
        doc = _report(model, calibration, characters=_characters(table))
    else:
        result = assemble_character(model, max_m, calibration)
        for m in range(-max_m, max_m + 1):
            want = oracle.oracle_character(kind, params, m)
            if result.integers[m] != want:
                mismatches.append({"m": m, "engine": result.coefficients[m].to_text(),
                                   "oracle": want})
        doc = character_document(result)
    doc["oracle_match"] = not mismatches
    doc["mismatches"] = mismatches[:10]
    return doc, mismatches


@main.command()
@_model_options
@click.option("--max-m", type=int, default=50)
@click.option("--max-k", type=int, default=None, help="Weight window (default n * max-m).")
@click.option("--all", "run_all", is_flag=True, default=False,
              help="Verify every bundled preset in one invocation.")
@click.option("--out", type=click.Path(), default=None)
def verify(preset, n, weights, model_path, max_m, max_k, run_all, out):
    """Compare engine characters against the brute-force oracle (exit 4 on diff)."""
    calibration = _load_calibration()
    if model_path:
        raise UnsupportedModelError(
            "verification needs a bundled preset: user models carry no oracle")
    if run_all:
        targets = VERIFY_ALL
    elif preset is None:
        raise ConfigError("give --preset or --all")
    else:
        targets = (_preset_target(preset, n, weights),)
    report = {"max_m": max_m, "calibration": calibration.as_dict(), "results": []}
    any_mismatch = False
    for kind, params in targets:
        doc, mismatches = _verify_one(kind, params, max_m, max_k, calibration)
        report["results"].append(doc)
        status = "ok" if not mismatches else f"MISMATCH ({len(mismatches)} values)"
        click.echo(f"{doc['model_id']}: {status}")
        for d in mismatches[:10]:
            click.echo(f"  m={d['m']}: engine {d['engine']} oracle {d['oracle']}")
        any_mismatch = any_mismatch or bool(mismatches)
    if out:
        _emit(document_text(_stamp(report)), out)
    if any_mismatch:
        sys.exit(EXIT_MISMATCH)


@main.command()
@click.option("--out", type=click.Path(), default=None,
              help="Calibration file path (default: the standard artifact location).")
def calibrate(out):
    """Select and record the unique passing convention combination."""
    cfg = calibrate_conventions()
    path = out or _calibration_path()
    doc = {"version": CALIBRATION_VERSION, **cfg.as_dict()}
    _atomic_write(path, document_text(doc) + "\n")
    click.echo(f"calibration: poisson_sign={cfg.poisson_sign} "
               f"orientation_sign={cfg.orientation_sign} "
               f"todd_direction={cfg.todd_direction}")
    click.echo(f"written to {path}")


if __name__ == "__main__":
    main()
