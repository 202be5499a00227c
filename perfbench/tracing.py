"""Outside-in per-layer trace of the contact_index pipeline.

`Tracer.install()` replaces the public functions listed in `TARGETS` with
timing wrappers, in every `contact_index` module that binds them (the
engine imports forms and deltas functions by name, the CLI imports engine
functions by name), and `uninstall()` puts the originals back.  Nothing in
the package is edited and nothing is wrapped during an untraced run.

Two kinds of span:

* stage spans (germs, forms, Fourier, assembly, fit, reports, catalog,
  oracle, CLI invocations) nest; a stage's self time is its duration minus
  the stage spans it encloses;
* leaf timers (the cyclotomic add/mul/inverse/demote) count and time every
  call but are never subtracted from a stage's self time.

A span re-entered under its own name (a preset building another preset, the
oracle calling itself) is timed and counted once, at the outermost call.
Spans record only while `active` is set, so the benchmark's own output
checks, which call the oracle and the scalar code, stay out of the numbers.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

STAGE = "stage"
LEAF = "leaf"


def _observe_demote(stats, args, kwargs, result):
    if result.level < args[0].level:
        stats["scalars.demote"]["hits"] += 1


def _observe_germ_terms(stats, args, kwargs, result):
    st = stats["deltas.germ_terms"]
    st["max"] = max(st["max"], len(args[0].terms))


def _observe_jet_order(position):
    def observe(stats, args, kwargs, result):
        order = args[position] if len(args) > position else kwargs["jet_order"]
        stats["forms.jet_order"]["sum"] += order
    return observe


ORACLE_FUNCTIONS = ("lattice_count", "lattice_count_series", "sphere_char_oracle",
                    "cpn_chi", "cpn_chi_polynomial", "equivariant_s2_character",
                    "ball_integral", "circle_character", "oracle_character",
                    "coefficient_document")

# (module, attribute path, span name, kind, observer)
TARGETS = (
    ("scalars", "CyclotomicNumber.__add__", "scalars.add", LEAF, None),
    ("scalars", "CyclotomicNumber.__mul__", "scalars.mul", LEAF, None),
    ("scalars", "CyclotomicNumber.inverse", "scalars.inverse", LEAF, None),
    ("scalars", "CyclotomicNumber.demote", "scalars.demote", LEAF, _observe_demote),
    ("deltas", "fourier_contribution", "deltas.fourier", STAGE, _observe_germ_terms),
    ("forms", "todd", "forms.todd", STAGE, _observe_jet_order(4)),
    ("forms", "dc_inverse", "forms.dc_inverse", STAGE, _observe_jet_order(4)),
    ("forms", "j_form", "forms.j_form", STAGE, _observe_jet_order(2)),
    ("forms", "integrate_component", "forms.integrate", STAGE, None),
    ("engine", "germ_at", "engine.germ_at", STAGE, None),
    ("engine", "assemble_character", "engine.assemble", STAGE, None),
    ("engine", "fit_quasi_polynomial", "engine.fit", STAGE, None),
    ("engine", "corollary_expand", "engine.corollary", STAGE, None),
    ("engine", "residual_factors", "engine.residual", STAGE, None),
    ("engine", "dh_fourier", "engine.dh", STAGE, None),
    ("engine", "character_document", "engine.report", STAGE, None),
    ("engine", "calibrate_conventions", "engine.calibrate", STAGE, None),
    ("catalog", "preset_circle", "catalog.build", STAGE, None),
    ("catalog", "preset_hopf_sphere", "catalog.build", STAGE, None),
    ("catalog", "preset_weighted_s3", "catalog.build", STAGE, None),
    ("catalog", "preset_prequantum_cpn", "catalog.build", STAGE, None),
    ("catalog", "load_model", "catalog.load", STAGE, None),
) + tuple(("oracle", name, "oracle", STAGE, None) for name in ORACLE_FUNCTIONS)


def _new_stat():
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0,
            "hits": 0, "sum": 0, "max": 0}


class Tracer:
    """Span and counter collector; spans are kept in memory until read."""

    def __init__(self):
        self.active = False
        self.stats = defaultdict(_new_stat)
        self._stack = []           # enclosed stage time of each open stage span
        self._depth = defaultdict(int)
        self._saved = []           # (owner, attribute, original) to restore

    def reset(self):
        self.stats = defaultdict(_new_stat)

    @contextlib.contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    @contextlib.contextmanager
    def span(self, name):
        """A stage span opened by the benchmark itself (e.g. one CLI invocation)."""
        if not self.active:
            yield
            return
        token = self._enter(name, STAGE)
        try:
            yield
        finally:
            self._exit(token)

    def add(self, name, field, amount):
        self.stats[name][field] += amount

    # -- spans ---------------------------------------------------------

    def _enter(self, name, kind):
        outer = self._depth[name] == 0
        self._depth[name] += 1
        if kind == STAGE and outer:
            self._stack.append(0.0)
        return name, kind, outer, time.perf_counter()

    def _exit(self, token):
        name, kind, outer, start = token
        dt = time.perf_counter() - start
        self._depth[name] -= 1
        if not outer:
            return  # transparent: its children belong to the outermost span
        if kind == STAGE:
            enclosed = self._stack.pop()
            if self._stack:
                self._stack[-1] += dt
        st = self.stats[name]
        st["calls"] += 1
        st["s"] += dt
        st["max_s"] = max(st["max_s"], dt)
        if kind == STAGE:
            st["self_s"] += dt - enclosed

    def _wrap(self, fn, name, kind, observe):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = tracer._enter(name, kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(token)
            if observe is not None:
                observe(tracer.stats, args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "contact_index" or n.startswith("contact_index."))]
        try:
            for module_name, path, name, kind, observe in TARGETS:
                owner = sys.modules[f"contact_index.{module_name}"]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, name, kind, observe)
                if outer:       # a method: one class attribute serves every caller
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in package:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# Per-layer metrics reported by a traced run: name -> (unit, reader).
def _field(span, field):
    return lambda stats: stats[span][field] if span in stats else 0


def _ratio(span, num, den):
    def read(stats):
        st = stats.get(span)
        return st[num] / st[den] if st and st[den] else 0.0
    return read


LAYER_METRICS = {
    "scalars.mul.calls": ("count", _field("scalars.mul", "calls")),
    "scalars.mul.s": ("s", _field("scalars.mul", "s")),
    "scalars.add.calls": ("count", _field("scalars.add", "calls")),
    "scalars.add.s": ("s", _field("scalars.add", "s")),
    "scalars.inverse.calls": ("count", _field("scalars.inverse", "calls")),
    "scalars.inverse.s": ("s", _field("scalars.inverse", "s")),
    "scalars.demote.calls": ("count", _field("scalars.demote", "calls")),
    "scalars.demote.s": ("s", _field("scalars.demote", "s")),
    "scalars.demote.hit_ratio": ("ratio", _ratio("scalars.demote", "hits", "calls")),
    "forms.todd.s": ("s", _field("forms.todd", "s")),
    "forms.dc_inverse.s": ("s", _field("forms.dc_inverse", "s")),
    "forms.j_form.s": ("s", _field("forms.j_form", "s")),
    "forms.integrate.s": ("s", _field("forms.integrate", "s")),
    "forms.jet_order.sum": ("count", _field("forms.jet_order", "sum")),
    "deltas.fourier.calls": ("count", _field("deltas.fourier", "calls")),
    "deltas.fourier.s": ("s", _field("deltas.fourier", "s")),
    "deltas.germ_terms.max": ("count", _field("deltas.germ_terms", "max")),
    "engine.germ_at.calls": ("count", _field("engine.germ_at", "calls")),
    "engine.germ_at.s": ("s", _field("engine.germ_at", "s")),
    "engine.germ_at.max_s": ("s", _field("engine.germ_at", "max_s")),
    "engine.coefficients.s": ("s", _field("engine.assemble", "self_s")),
    "engine.fit.s": ("s", _field("engine.fit", "s")),
    "engine.corollary.s": ("s", _field("engine.corollary", "s")),
    "engine.corollary.self_s": ("s", _field("engine.corollary", "self_s")),
    "engine.report.s": ("s", _field("engine.report", "s")),
    "catalog.build.s": ("s", _field("catalog.build", "s")),
    "catalog.load.s": ("s", _field("catalog.load", "s")),
    "oracle.calls": ("count", _field("oracle", "calls")),
    "oracle.s": ("s", _field("oracle", "s")),
    "cli.commands": ("count", _field("cli.invoke", "calls")),
    "cli.invoke.s": ("s", _field("cli.invoke", "s")),
    "cli.self_s": ("s", _field("cli.invoke", "self_s")),
    "cli.bytes_out": ("bytes", _field("cli.bytes_out", "sum")),
}

# Metrics that count work rather than time it: they must repeat exactly.
# (cli.bytes_out is left out: the reports' generated_at stamp varies in length.)
COUNT_METRICS = tuple(name for name in LAYER_METRICS
                      if name.endswith((".calls", ".sum", ".max")) or name == "cli.commands")


class NullTracer:
    """Stands in for `Tracer` in untraced runs: records nothing."""

    active = False

    def span(self, name):
        return contextlib.nullcontext()

    def recording(self):
        return contextlib.nullcontext()

    def add(self, name, field, amount):
        pass
