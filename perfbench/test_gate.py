"""Tests of the benchmark itself: the output gate, the trace and the seeds.

    python3 -m pytest -q perfbench/test_gate.py
"""

import random

import pytest

import run

run.import_package()

import tracing  # noqa: E402  (needs the package path set up above)
import workloads  # noqa: E402
from contact_index import engine  # noqa: E402
from contact_index.scalars import ExactScalar  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def library_context(tmp_path):
    ctx = workloads.Context(work=tmp_path, tracer=tracing.NullTracer())
    ctx.calibration = engine.DEFAULT_CALIBRATION
    return ctx


def test_gate_passes_a_correct_report(tmp_path, reference):
    job = workloads.hopf_job(12, library_context(tmp_path), reference)
    assert job.problems(job.run()) == []


def test_gate_trips_on_one_corrupted_coefficient(tmp_path, reference):
    job = workloads.hopf_job(12, library_context(tmp_path), reference)
    result = job.run()
    result.coefficients[7] = result.coefficients[7] + ExactScalar.one()
    problems = job.problems(result)
    assert any("m=7" in p and "oracle" in p for p in problems)
    assert any("report hash" in p for p in problems)


def test_known_defect_is_counted_but_does_not_fail_the_run(tmp_path, reference):
    ctx = workloads.Context(work=tmp_path, tracer=tracing.NullTracer())
    specs = [("defect",), ("dh", 1)]
    workloads.setup_cli(ctx, specs)
    records = run.run_pass(workloads.build_jobs(specs, ctx, reference), ctx)
    defect, dh = records
    assert defect.known_defect and "exit 4" in defect.problems[0]
    assert dh.problems == []
    metrics, _ = run.end_to_end([records], setup_s=1.0)
    assert metrics["ok_ratio"][0] == 0.5


def test_trace_counts_repeat_and_the_package_is_restored(tmp_path, reference):
    ctx = library_context(tmp_path)
    job = workloads.ws3_job(2, 3, ctx, reference)
    originals = {name: getattr(engine, name) for name in ("germ_at", "assemble_character")}
    t = tracing.Tracer()
    t.install()
    ctx.tracer = t
    try:
        counts = []
        for _ in range(2):
            t.reset()
            with t.recording():
                job.run()
            counts.append({name: tracing.LAYER_METRICS[name][1](t.stats)
                           for name in tracing.COUNT_METRICS})
    finally:
        t.uninstall()
    assert counts[0] == counts[1]
    assert counts[0]["engine.germ_at.calls"] == 4  # identity, 1/2, 1/3, 2/3
    assert counts[0]["scalars.demote.calls"] > 0
    assert {name: getattr(engine, name) for name in originals} == originals


def test_seeds_draw_reproducible_job_lists():
    for draw, _ in workloads.WORKLOADS.values():
        assert draw(random.Random(5)) == draw(random.Random(5))
    every = set(map(tuple, workloads.every_spec()))
    for seed in range(20):
        for draw, _ in workloads.WORKLOADS.values():
            for spec in draw(random.Random(seed)):
                assert spec in every or spec == ("defect",)


def test_speed_correction_drops_probe_time_and_rescales():
    import speed
    monitor = speed.SpeedMonitor()
    # probes at twice the reference time: the host ran at half speed
    for t in (0.0, 1.0, 2.0):
        monitor.starts.append(t)
        monitor.ends.append(t + 2 * speed.REFERENCE_PROBE_S)
    # the probes at 1.0 and 2.0 ran inside the interval: their time is dropped
    corrected = monitor.corrected(0.5, 2.5)
    assert corrected == pytest.approx((2.0 - 2 * 2 * speed.REFERENCE_PROBE_S) / 2)
