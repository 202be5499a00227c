"""Seeded workloads: the drawn job lists, the timed calls and the output gate.

Every job calls public functions of `contact_index` through module
attributes (`engine.assemble_character`, not a name imported from it), so
that the trace wrappers see the benchmark's own calls too.  `Job.run` is
the timed region; `Job.problems` runs afterwards, untimed, and returns what
is wrong with the output: an empty list means it is correct.

The gate compares each output with an independent reference:

* character coefficients of circle/hopf/weighted-s3 with the brute-force
  oracle;
* prequantum-cpn slices with `oracle.equivariant_s2_character` (n = 1) or,
  for n >= 2, the sum of the slice's multiplicities with `oracle.cpn_chi`;
* every report, with its `generated_at` line removed, with its SHA-256 in
  `reference.json`, written by `record_reference.py` at the commit that
  defined the benchmark: reports must stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from click.testing import CliRunner

from contact_index import catalog, cli, engine, oracle

REFERENCE_FILE = Path(__file__).with_name("reference.json")
GENERATED_AT = re.compile(r'^ *"generated_at": "[^"]*",?\n', re.MULTILINE)

WS3_PAIRS = ((11, 13), (13, 17))
HOPF_DIMS = tuple(range(12, 21))
HOPF_MAX_M = 100
CPN_DIMS = (1, 2, 3, 4)
CPN_MAX_M = 20
GERM_WEIGHTS = (5, 7)
GERMS_PER_PASS = 3
DH_DIMS = (1, 2, 3, 4)
MODEL_WEIGHTS = (3, 4)
DEFECT_WEIGHTS = (5, 7)
CLI_DEFAULT_MAX_M = 50
MAX_PROBLEMS = 10


class JobFailure(Exception):
    """The command under test exited nonzero."""


@dataclass
class Job:
    key: str                            # names the inputs; the reference-hash key
    group: str                          # jobs of one size, for slowest_job_s
    run: Callable[[], object]           # the timed call
    report: Callable[[object], str]     # the report text of run's output
    oracle: Callable[[object, str], list]  # problems found by the oracle
    reference: dict
    known_defect: bool = False          # see the "defect" job of cli-mixed

    def problems(self, out):
        try:
            text = self.report(out)
        except JobFailure as exc:
            return [f"{self.key}: {exc}"]
        problems = self.oracle(out, text)[:MAX_PROBLEMS]
        if self.key in self.reference or not self.known_defect:
            problems += hash_problems(self.key, text, self.reference)
        return problems


@dataclass
class Context:
    """State that the jobs of one workload process share."""

    work: Path
    tracer: object
    calibration: object = None
    runner: CliRunner = None
    env: dict = field(default_factory=dict)


def load_reference():
    return json.loads(REFERENCE_FILE.read_text())


def report_hash(text):
    return hashlib.sha256(GENERATED_AT.sub("", text).encode()).hexdigest()


def json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def hash_problems(key, text, reference):
    if key not in reference:
        return [f"{key}: no reference hash recorded"]
    got = report_hash(text)
    if got != reference[key]:
        return [f"{key}: report hash {got[:12]} differs from the recorded "
                f"{reference[key][:12]}"]
    return []


def coefficient_problems(key, coefficients, max_m, expected):
    """Compare exact coefficients (m -> ExactScalar) with oracle integers."""
    problems = []
    for m in range(-max_m, max_m + 1):
        c = coefficients.get(m)
        want = expected(m)
        if c is None or not c.is_integer() or int(c.rational_value()) != want:
            problems.append(f"{key}: m={m}: engine "
                            f"{c.to_text() if c is not None else None} oracle {want}")
    return problems


# ----------------------------------------------------------------------
# ws3-torsion and hopf-dim: library calls
# ----------------------------------------------------------------------

def ws3_job(a, b, ctx, reference):
    max_m = 3 * a * b
    key = f"ws3:{a},{b}@{max_m}"

    def run():
        model = engine.build_preset("weighted-s3", (a, b), ctx.calibration)
        result = engine.assemble_character(model, max_m, ctx.calibration)
        return result, engine.character_document(result)

    def check(out, text):
        return coefficient_problems(
            key, out[0].coefficients, max_m,
            lambda m: oracle.oracle_character("weighted-s3", (a, b), m))

    return Job(key, f"weighted-s3 {min(a, b)}x{max(a, b)}", run,
               lambda out: json_text(out[1]), check, reference)


def hopf_job(n, ctx, reference):
    key = f"hopf:{n}@{HOPF_MAX_M}"

    def run():
        model = engine.build_preset("hopf", (n,), ctx.calibration)
        return engine.assemble_character(model, HOPF_MAX_M, ctx.calibration)

    def check(result, text):
        # oracle_character's cpn_chi enumerates binom(m+n, n) lattice points,
        # out of reach at n >= 12; the oracle's product formula is its second
        # route, which the oracle's own tests hold equal to cpn_chi.
        return coefficient_problems(key, result.coefficients, HOPF_MAX_M,
                                    lambda m: oracle.cpn_chi_polynomial(n, -m))

    return Job(key, f"hopf {n}", run,
               lambda result: json_text(engine.character_document(result)),
               check, reference)


def draw_ws3(rng):
    """The two anchor pairs, each in a seed-drawn orientation, in seed order."""
    pairs = [p if rng.random() < 0.5 else p[::-1] for p in WS3_PAIRS]
    rng.shuffle(pairs)
    return [("ws3", a, b) for a, b in pairs]


def draw_hopf(rng):
    """Every dimension once, in seed order, so that each seed does equal work."""
    dims = list(HOPF_DIMS)
    rng.shuffle(dims)
    return [("hopf", n) for n in dims]


# ----------------------------------------------------------------------
# cli-mixed: an in-process CLI session through click
# ----------------------------------------------------------------------

@dataclass
class CliOutcome:
    exit_code: int
    stdout: str
    stderr: str
    out_path: Path | None


def cli_job(key, group, args, out_name, ctx, reference, check, known_defect=False):
    out_path = ctx.work / out_name if out_name else None
    argv = list(args) + (["--out", str(out_path)] if out_path else [])

    def run():
        with ctx.tracer.span("cli.invoke"):
            res = ctx.runner.invoke(cli.main, argv, env=ctx.env)
        return CliOutcome(res.exit_code, res.stdout, res.stderr, out_path)

    def report(outcome):
        if outcome.exit_code != 0:
            lines = (outcome.stderr.strip() or outcome.stdout.strip()).splitlines()
            raise JobFailure(f"exit {outcome.exit_code}: {lines[0] if lines else ''}")
        text = out_path.read_text() if out_path else outcome.stdout
        ctx.tracer.add("cli.bytes_out", "sum", len(outcome.stdout.encode())
                       + (len(text.encode()) if out_path else 0))
        return text

    return Job(key, group, run, report, check, reference, known_defect)


def no_oracle(out, text):
    return []


def corollary_check(key, n):
    def check(out, text):
        slices = {c["m"]: {w["weight"]: w["multiplicity"] for w in c["weights"]}
                  for c in json.loads(text)["characters"]}
        problems = []
        for m in range(-CPN_MAX_M, CPN_MAX_M + 1):
            got = slices.get(m)
            if n == 1:
                ok = got == oracle.equivariant_s2_character(m)
            else:
                ok = got is not None and sum(got.values()) == oracle.cpn_chi(n, m)
            if not ok:
                problems.append(f"{key}: slice m={m} disagrees with the oracle: {got}")
        return problems
    return check


def character_check(key, weights, max_m):
    def check(out, text):
        coeffs = {c["m"]: c.get("integer") for c in json.loads(text)["coefficients"]}
        problems = []
        for m in range(-max_m, max_m + 1):
            want = oracle.oracle_character("weighted-s3", weights, m)
            if coeffs.get(m) != want:
                problems.append(f"{key}: m={m}: engine {coeffs.get(m)} oracle {want}")
        return problems
    return check


def verify_check(key):
    def check(out, text):
        results = json.loads(text)["results"]
        problems = [f"{key}: oracle mismatch on {r['model_id']}"
                    for r in results if not r["oracle_match"]]
        if len(results) != len(cli.VERIFY_ALL):
            problems.append(f"{key}: {len(results)} results for "
                            f"{len(cli.VERIFY_ALL)} bundled presets")
        return problems
    return check


def cli_job_for(spec, ctx, reference):
    kind = spec[0]
    if kind == "verify":
        key = "cli:verify-all"
        return cli_job(key, "verify", ["verify", "--all"], "verify.json", ctx,
                       reference, verify_check(key))
    if kind == "corollary":
        n = spec[1]
        key = f"cli:corollary-cp{n}"
        args = ["corollary", "--preset", "prequantum-cpn", "--n", str(n),
                "--max-m", str(CPN_MAX_M), "--max-k", str(n * CPN_MAX_M)]
        return cli_job(key, f"corollary cp{n}", args, f"corollary-{n}.json", ctx,
                       reference, corollary_check(key, n))
    if kind == "germ":
        a, b = GERM_WEIGHTS
        key = f"cli:germ-ws3-{a}-{b}@{spec[1]}"
        args = ["germ", "--preset", "weighted-s3", "--weights", f"{a},{b}", "--at", spec[1]]
        return cli_job(key, "germ", args, None, ctx, reference, no_oracle)
    if kind == "dh":
        key = f"cli:dh-hopf-{spec[1]}"
        args = ["dh", "--preset", "hopf", "--n", str(spec[1])]
        return cli_job(key, "dh", args, None, ctx, reference, no_oracle)
    if kind == "model":
        a, b = spec[1:]
        max_m = 3 * a * b
        key = f"cli:character-model-ws3-{a}-{b}@{max_m}"
        args = ["character", "--model", str(model_path(ctx, a, b)), "--max-m", str(max_m)]
        return cli_job(key, "character model", args, f"model-{a}-{b}-report.json", ctx,
                       reference, character_check(key, (a, b), max_m))
    if kind == "defect":
        a, b = DEFECT_WEIGHTS
        key = f"cli:character-ws3-{a}-{b}@default"
        # Known defect: the default --max-m window is too short to fit period
        # a*b, so this exits 4 ("residue 16: need at least 3 samples").  It
        # stays in the job list and counts as failed until the program is
        # fixed; without a recorded hash a fixed program meets the oracle alone.
        args = ["character", "--preset", "weighted-s3", "--weights", f"{a},{b}"]
        return cli_job(key, "character defect", args, f"defect-{a}-{b}.json", ctx,
                       reference, character_check(key, (a, b), CLI_DEFAULT_MAX_M),
                       known_defect=True)
    raise ValueError(f"unknown cli job {spec!r}")


def model_path(ctx, a, b):
    return ctx.work / f"model-ws3-{a}-{b}.json"


def germ_points():
    return [f"{p}/{q}" for q in GERM_WEIGHTS for p in range(1, q)]


def draw_cli(rng):
    """A fixed command set; the seed picks the cheap parameters and the order."""
    specs = [("verify",), ("defect",)]
    specs += [("corollary", n) for n in CPN_DIMS]
    specs += [("germ", at) for at in rng.sample(germ_points(), GERMS_PER_PASS)]
    specs.append(("dh", rng.choice(DH_DIMS)))
    specs.append(("model", *(MODEL_WEIGHTS if rng.random() < 0.5 else MODEL_WEIGHTS[::-1])))
    rng.shuffle(specs)
    return specs


# ----------------------------------------------------------------------
# workload table
# ----------------------------------------------------------------------

def setup_library(ctx, specs):
    ctx.calibration = engine.calibrate_conventions()


def setup_cli(ctx, specs):
    ctx.runner = CliRunner()
    ctx.env = {"CONTACT_INDEX_CALIBRATION": str(ctx.work / "calibration.json")}
    res = ctx.runner.invoke(cli.main, ["calibrate"], env=ctx.env)
    if res.exit_code != 0:
        raise RuntimeError(f"calibrate exited {res.exit_code}: {res.output}")
    ctx.calibration = engine.calibrate_conventions()
    for spec in specs:
        if spec[0] == "model":
            model = engine.build_preset("weighted-s3", spec[1:], ctx.calibration)
            catalog.dump_model(model, model_path(ctx, *spec[1:]))


def build_jobs(specs, ctx, reference):
    jobs = []
    for spec in specs:
        if spec[0] == "ws3":
            jobs.append(ws3_job(spec[1], spec[2], ctx, reference))
        elif spec[0] == "hopf":
            jobs.append(hopf_job(spec[1], ctx, reference))
        else:
            jobs.append(cli_job_for(spec, ctx, reference))
    return jobs


# name -> (draw the job specs from a seeded random.Random, set up the context)
WORKLOADS = {
    "ws3-torsion": (draw_ws3, setup_library),
    "hopf-dim": (draw_hopf, setup_library),
    "cli-mixed": (draw_cli, setup_cli),
}


def every_spec():
    """Every job with a recorded hash that some seed can draw."""
    specs = [("ws3", a, b) for p in WS3_PAIRS for a, b in (p, p[::-1])]
    specs += [("hopf", n) for n in HOPF_DIMS]
    specs += [("verify",)] + [("corollary", n) for n in CPN_DIMS]
    specs += [("germ", at) for at in germ_points()]
    specs += [("dh", n) for n in DH_DIMS]
    specs += [("model", *w) for w in (MODEL_WEIGHTS, MODEL_WEIGHTS[::-1])]
    return specs
