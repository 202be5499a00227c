"""Exact symbolic calculator for index characters of contact circle actions.

The package computes the character of the natural transversally elliptic
operator of an elliptic contact circle action as an exact generalized
function: germs of delta-derivative combinations at torsion points, and the
quasi-polynomial Fourier coefficients they sum to.  Everything is exact
cyclotomic arithmetic, each stage at its own power of pi; an independent
brute-force oracle (lattice point counts, projective-space characters, Stokes
volumes) backs every bundled model.
"""

from .scalars import CyclotomicNumber, ScalarError, approx_display
from .deltas import DeltaError, DeltaGerm, fourier_contribution
from .forms import (ChernRoot, FormElement, FormError, dc_inverse,
                    integrate_component, j_form, todd)
from .catalog import (ContactModel, FixedComponentData, ModelError, dump_model,
                      load_model, model_from_document, model_to_document,
                      preset_circle, preset_hopf_sphere, preset_prequantum_cpn,
                      preset_weighted_s3, scaled_model)
from .engine import (CalibrationConfig, CalibrationError, DEFAULT_CALIBRATION,
                     EngineError, QuasiPolynomial, UnsupportedModelError,
                     assemble_character, build_preset, calibrate_conventions,
                     corollary_expand, dh_fourier, germ_at)
from . import oracle

__all__ = [
    "CyclotomicNumber", "ScalarError", "approx_display",
    "DeltaError", "DeltaGerm", "fourier_contribution",
    "ChernRoot", "FormElement", "FormError", "dc_inverse",
    "integrate_component", "j_form", "todd",
    "ContactModel", "FixedComponentData", "ModelError", "dump_model",
    "load_model", "model_from_document", "model_to_document",
    "preset_circle", "preset_hopf_sphere", "preset_prequantum_cpn",
    "preset_weighted_s3", "scaled_model",
    "CalibrationConfig", "CalibrationError", "DEFAULT_CALIBRATION",
    "EngineError", "QuasiPolynomial", "UnsupportedModelError",
    "assemble_character", "build_preset", "calibrate_conventions",
    "corollary_expand", "dh_fourier", "germ_at",
    "oracle",
]

__version__ = "0.1.0"
