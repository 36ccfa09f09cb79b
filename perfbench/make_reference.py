#!/usr/bin/env python3
"""Record the reference verdicts that every benchmark op is checked against.

Run from the repository root, once per workload, at the commit whose
behaviour is the reference:

    python3 perfbench/make_reference.py --workload diagnose-features --scale full

It runs every fixture of the pool (plus the warm-up fixture past its end)
once, untraced, and stores the verdicts of each. Re-recording changes what
"correct" means for every later run, so do it only when fixture parameters
change on purpose.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import REFERENCE, SETUP_REPEATS, WORK, check_threads, environment, import_program
from workloads import WORKLOADS


def record(workload_name, scale):
    check_threads()
    workload = WORKLOADS[workload_name]
    sg = import_program()
    scratch = WORK / f"reference-{workload_name}-{scale}"
    shutil.rmtree(scratch, ignore_errors=True)
    fixtures = []
    try:
        for k in range(workload.pool[scale] + 1):
            params = workload.fixture_params(scale, k)
            inputs = workload.prepare(sg, scale, k, scratch / "in" / str(k))
            out = scratch / "out" / str(k)
            out.mkdir(parents=True)
            raw = workload.run_op(sg, params, inputs, str(out))
            verdict = json.loads(json.dumps(workload.verdicts(raw, str(out))))
            fixtures.append({"k": k, "verdict": verdict})
            shutil.rmtree(out)
            print(f"{workload_name} {scale} fixture {k} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    path = REFERENCE / f"{workload_name}.json"
    data = {"workload": workload_name, "scales": {}}
    if path.exists():
        with open(path) as handle:
            data = json.load(handle)
    data["scales"][scale] = {"params": workload.params[scale], "environment": environment(),
                             "fixtures": fixtures}
    REFERENCE.mkdir(exist_ok=True)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--scale", default="full", choices=sorted(SETUP_REPEATS))
    args = parser.parse_args(argv)
    record(args.workload, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
