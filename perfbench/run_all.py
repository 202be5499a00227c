"""Run every workload once and print its end-to-end metrics by name and unit.

    python3 perfbench/run_all.py --seed 1 --seconds 30

Each workload runs in its own `run.py` process, one after another, so that
each has its own peak RSS.  The exit code is 1 if any run exited nonzero,
that is, if an output check other than the known defect failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def main(argv=None):
    run.import_package()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", "0"], capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
        if not lines:
            print(f"{name}: exit {done.returncode}, no result")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: exit {done.returncode}, correct {result['correct']}, "
              f"attempted {result['attempted']}, failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
