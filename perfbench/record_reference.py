"""Record the SHA-256 of every report the benchmark can ask for.

    python3 perfbench/record_reference.py

Run from the root of a source checkout.  Writes `reference.json` next to
this file; the benchmark's gate then requires every later report, with its
`generated_at` line removed, to be byte-identical to the recorded one.
Record again only on purpose, when a change alters the reports.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import tracing


def main():
    run.import_package()
    import workloads

    work = run.WORK_ROOT / "record"
    work.mkdir(parents=True)
    try:
        ctx = workloads.Context(work=work, tracer=tracing.NullTracer())
        specs = workloads.every_spec()
        workloads.setup_cli(ctx, specs)
        hashes = {}
        for job in workloads.build_jobs(specs, ctx, {}):
            out = job.run()
            text = job.report(out)
            problems = job.oracle(out, text)
            if problems:
                sys.exit(f"{job.key} disagrees with the oracle: {problems[0]}")
            hashes[job.key] = workloads.report_hash(text)
            print(job.key, hashes[job.key][:12], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
