#!/usr/bin/env python3
"""sheafgauge benchmark: one timed or traced run of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload diagnose-features --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout. Inputs for every op
are generated from the seed and written before the timed loop; each op's
outputs are compared with the verdicts recorded in ``reference/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Working files,
the full result with its environment record and, for traced runs, the
spans go to ``.perfbench-run/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# BLAS runs on one thread, set before numpy loads it. At its default of one
# thread per CPU, OpenBLAS spin-waits on the second CPU of a small shared
# host and stalls whenever that CPU is taken, which spreads the times of the
# same op far more than the program's own work does.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, compare, op_fixtures  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-run"
REFERENCE = HERE / "reference"

END_TO_END = {"op_s_p50": "s", "op_s_p90": "s", "setup_s": "s",
              "peak_rss_mb": "MiB", "ok_ratio": "1"}

_UNITS = {"calls": "count", "self_s": "s", "unique_ratio": "1", "work_n3": "count",
          "bytes": "B", "errors": "count"}
_TRACED = (
    ("spectral.harmonic_space", "calls self_s"),
    ("spectral.indicator_profile", "self_s"),
    ("spectral.eigendecompose", "calls self_s unique_ratio"),
    ("linalg.eigh", "calls self_s work_n3 unique_ratio"),
    ("linalg.eigvalsh", "calls self_s work_n3"),
    ("spectral.local_witness", "calls self_s"),
    ("spectral.local_witness_relative", "calls self_s"),
    ("spectral.coface_energy_map", "calls self_s"),
    ("spectral.normalize_spectrum", "calls self_s"),
    ("operators.coboundary", "calls self_s unique_ratio"),
    ("operators.laplacian", "calls self_s unique_ratio"),
    ("operators.channel_set", "calls self_s"),
    ("operators.algebraic_cone", "self_s"),
    ("operators.verify_cone_equivalence", "self_s"),
    ("operators.verify_long_exact_sequence", "self_s"),
    ("operators.verify_block_decomposition", "self_s"),
    ("operators.incidence_defect", "self_s"),
    ("operators.numerical_kernel", "calls self_s"),
    ("operators.numerical_rank", "calls self_s"),
    ("spectral.verify_cone_reduction", "self_s"),
    ("diagnostics.separation_check", "self_s"),
    ("spectral.interleaving_shift", "self_s"),
    ("linalg.norm", "calls self_s"),
    ("sheaves.build_sheaf_from_features", "self_s"),
    ("sheaves.edge_stalk_intersection", "self_s"),
    ("sheaves.triangle_stalk_soft_intersection", "self_s"),
    ("sheaves.validate_sheaf", "self_s"),
    ("sheaves.sheaf_to_json_dict", "self_s"),
    ("sheaves.sheaf_from_json_dict", "self_s"),
    ("linalg.svd", "calls self_s"),
    ("sheaves.make_line_bundle", "self_s"),
    ("sheaves.add_restriction_noise", "self_s"),
    ("sheaves.hidden_twist_bundle", "self_s"),
    ("sheaves.constant_sheaf", "self_s"),
    ("complexes.build_clique_complex", "self_s"),
    ("complexes.cone_complex", "self_s"),
    ("diagnostics.run_diagnostics", "self_s"),
    ("diagnostics.experiment_magnitude", "self_s"),
    ("diagnostics.experiment_localization", "self_s"),
    ("cli.main", "self_s"),
    ("fileio.write_csv", "calls self_s bytes"),
    ("fileio.write_json", "calls self_s bytes"),
) + tuple((layer, "self_s errors") for layer in (
    "complexes", "sheaves", "operators", "spectral", "diagnostics", "fileio", "cli", "linalg"))
PER_LAYER = {f"{name}.{field}": _UNITS[field]
             for name, fields in _TRACED for field in fields.split()}
PER_LAYER["trace.overhead_ratio"] = "1"


# Fixture scales, each with the number of fresh interpreters behind setup_s.
# "smoke" holds the shrunken pools of test_smoke.py.
SETUP_REPEATS = {"full": 9, "smoke": 1}

# The host runs the same code at speeds up to 1.6x apart, in phases of
# seconds to minutes. A fixed numpy kernel, independent of the program, is
# timed before and after every op and every set-up interpreter, and their
# times are reported at the host speed where that kernel takes
# CALIBRATION_REFERENCE_S (see README.md, "Host speed").
CALIBRATION_REFERENCE_S = 0.0125
_CALIBRATION_MATRIX = np.random.default_rng(0).normal(size=(80, 80))
_CALIBRATION_MATRIX += _CALIBRATION_MATRIX.T


class BenchError(Exception):
    pass


def import_program():
    """Import sheafgauge from this checkout's ``src/`` and nowhere else."""
    package = SRC / "sheafgauge"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no sheafgauge sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sheafgauge
    import sheafgauge.cli  # noqa: F401  (binds sheafgauge.cli)

    if Path(sheafgauge.__file__).resolve().parent != package.resolve():
        raise BenchError(f"sheafgauge was imported from {sheafgauge.__file__}, not {package}")
    return sheafgauge


def check_threads():
    value = os.environ.get("SHEAFGAUGE_THREADS")
    if value not in (None, "1"):
        raise BenchError(f"SHEAFGAUGE_THREADS={value!r}: the benchmark runs with it unset (=1)")


def environment() -> dict:
    try:
        config = np.show_config(mode="dicts")
        deps = config.get("Build Dependencies", {})
        blas = {key: {field: deps.get(key, {}).get(field)
                      for field in ("name", "version", "openblas configuration")}
                for key in ("blas", "lapack")}
    except TypeError:  # numpy < 1.26 only prints its configuration
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            np.show_config()
        blas = {"show_config": buffer.getvalue()}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "thread_env": {key: value for key, value in sorted(os.environ.items())
                       if key.startswith(("OPENBLAS_", "OMP_", "MKL_"))
                       or key == "SHEAFGAUGE_THREADS"},
    }


def load_reference(workload, scale):
    path = REFERENCE / f"{workload.name}.json"
    with open(path) as handle:
        recorded = json.load(handle)["scales"].get(scale)
    if recorded is None:
        raise BenchError(f"{path} has no {scale!r} fixtures")
    if recorded["params"] != workload.params[scale]:
        raise BenchError(f"{path} was recorded for other fixture parameters; "
                         "record it again with perfbench/make_reference.py")
    fixtures = recorded["fixtures"]
    if [f["k"] for f in fixtures] != list(range(workload.pool[scale] + 1)):
        raise BenchError(f"{path} does not cover fixtures 0..{workload.pool[scale]}")
    return fixtures


def calibrate() -> float:
    """Wall time of the calibration kernel: 20 eigendecompositions of an 80x80 matrix."""
    start = time.perf_counter()
    for _ in range(20):
        np.linalg.eigh(_CALIBRATION_MATRIX)
    return time.perf_counter() - start


def at_reference_speed(times, calibrations):
    """Each time scaled by the mean of the calibrations taken on either side of it."""
    return [elapsed * 2 * CALIBRATION_REFERENCE_S / (before + after)
            for elapsed, before, after in zip(times, calibrations, calibrations[1:])]


def measure_setup(repeats):
    """Wall times of fresh interpreters importing sheafgauge and its CLI, and
    the calibrations taken before, between and after them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", "import sheafgauge, sheafgauge.cli"]
    times, calibrations = [], []
    for _ in range(repeats):
        calibrations.append(calibrate())
        start = time.perf_counter()
        child = subprocess.Popen(command, env=env, cwd=ROOT,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Polled every millisecond: Popen.wait(timeout) sleeps up to 50 ms
            # between polls, which would round the time up by as much.
            while child.poll() is None:
                if time.perf_counter() - start > 120:
                    raise BenchError("importing sheafgauge took more than 120 s")
                time.sleep(0.001)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        times.append(time.perf_counter() - start)
        if child.returncode != 0:
            raise BenchError(f"importing sheafgauge exited with {child.returncode}")
    calibrations.append(calibrate())
    return times, calibrations


def run_op(workload, sg, params, inputs, out_dir, expected, tracing=contextlib.nullcontext()):
    """Run one op; return (seconds, problems). Only the program call is timed."""
    os.makedirs(out_dir)
    seconds = 0.0
    try:
        with tracing:
            start = time.perf_counter()
            try:
                raw = workload.run_op(sg, params, inputs, str(out_dir))
            finally:
                seconds = time.perf_counter() - start
        actual = json.loads(json.dumps(workload.verdicts(raw, str(out_dir))))
        problems = compare(expected, actual)
    except Exception:  # an op that raises is a failed op; the run goes on
        problems = [traceback.format_exc(limit=3)]
    shutil.rmtree(out_dir, ignore_errors=True)
    return seconds, problems


@contextlib.contextmanager
def traced_op(tracer, op_id, in_window):
    tracer.install()
    tracer.begin_op(op_id, in_window)
    try:
        yield
    finally:
        tracer.end_op()
        tracer.uninstall()


def run(workload_name, seed, seconds, trace, scale_name="full"):
    """One run; returns (result dict, tracer or None)."""
    check_threads()
    workload = WORKLOADS[workload_name]
    sg = import_program()
    fixtures = load_reference(workload, scale_name)
    pool = workload.pool[scale_name]
    run_dir = WORK / f"run-{workload_name}-seed{seed}-trace{trace}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        # Set-up is timed first, before writing the inputs leaves the disk busy.
        setup_times, setup_calibrations = (([], []) if trace
                                           else measure_setup(SETUP_REPEATS[scale_name]))
        # Every input is written before any op is timed; fixture ``pool``
        # lies outside the pool and serves only the untimed warm-up op.
        inputs = {k: workload.prepare(sg, scale_name, k, run_dir / "in" / str(k))
                  for k in range(pool + 1)}
        cycle = workload.cycle(scale_name)
        order = op_fixtures([inputs[k]["cost"] for k in range(pool)], cycle, seed, pool)

        def op(i, k, tracing=contextlib.nullcontext()):
            return run_op(workload, sg, workload.fixture_params(scale_name, k), inputs[k],
                          run_dir / "out" / str(i), fixtures[k]["verdict"], tracing)

        _, warm_problems = op("warm-up", pool)
        # A traced run traces whole cycles and leaves every other cycle
        # untraced; its counts come from the first cycle, one op per stratum.
        tracer = Tracer() if trace else None
        min_ops = 2 * cycle if trace else cycle
        times, traced_times, untraced_times, failures, calibrations = [], [], [], [], []
        start = time.perf_counter()
        i = 0

        def more_ops():
            """Ops run in whole cycles, so every stratum weighs the same in
            every run; the run ends at the cycle boundary nearest ``seconds``."""
            if i < min_ops or i % cycle:
                return True
            elapsed = time.perf_counter() - start
            return elapsed + elapsed * cycle / (2 * i) < seconds  # + half a cycle

        while more_ops():
            k = order[i % pool]
            calibrations.append(calibrate())
            if trace and (i // cycle) % 2 == 0:
                elapsed, problems = op(i, k, traced_op(tracer, i, in_window=i < cycle))
                traced_times.append(elapsed)
            else:
                elapsed, problems = op(i, k)
                untraced_times.append(elapsed)
            times.append(elapsed)
            if problems:
                failures.append({"op": i, "fixture": k, "problems": problems[:5]})
            i += 1
        calibrations.append(calibrate())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(times)
    wall = {"op_s_p50": statistics.median(times), "op_s_p90": float(np.percentile(times, 90))}
    calibrated = at_reference_speed(times, calibrations)
    if trace:
        layer = tracer.metrics()
        layer["trace.overhead_ratio"] = (statistics.median(traced_times)
                                         / statistics.median(untraced_times))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        layer = None
        wall["setup_s"] = statistics.median(setup_times)
        metrics = {
            "op_s_p50": statistics.median(calibrated),
            "op_s_p90": float(np.percentile(calibrated, 90)),
            "setup_s": statistics.median(at_reference_speed(setup_times, setup_calibrations)),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (attempted - len(failures)) / attempted,
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in metrics.items()}
    return {
        "summary": {"correct": not failures and not warm_problems, "attempted": attempted,
                    "failed": len(failures), "metrics": metrics},
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale_name, "wall": wall, "op_seconds": times,
        "calibration_seconds": calibrations, "calibrated_op_seconds": calibrated,
        "setup_seconds": setup_times, "setup_calibration_seconds": setup_calibrations,
        "op_fixtures": [order[i % pool] for i in range(attempted)],
        "warm_up_problems": warm_problems, "failures": failures,
        "all_layers": layer, "environment": environment(),
    }, tracer


def report(result, stream=sys.stdout):
    """Human-readable lines, then the one-line JSON result last."""
    summary = result["summary"]
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"ops={attempted} failed={failed} fail_ratio={failed / attempted:g}", file=stream)
    for name, metric in summary["metrics"].items():
        print(f"#   {name:<48} {metric['value']:.6g} {metric['unit']}", file=stream)
    for name, value in result["wall"].items():
        print(f"#   {name + ' (wall, uncalibrated)':<48} {value:.6g} s", file=stream)
    for failure in result["failures"][:3] + ([{"warm-up": result["warm_up_problems"]}]
                                             if result["warm_up_problems"] else []):
        print(f"# failed: {json.dumps(failure)[:500]}", file=stream)
    print(f"# environment: {json.dumps(result['environment'], sort_keys=True)}", file=stream)
    print(json.dumps(summary), file=stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, tracer = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, KeyError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(WORK / f"result-{stem}.json", "w") as handle:
        json.dump(result, handle, indent=1)
    if tracer is not None:
        tracer.write_spans(WORK / f"spans-{stem}.json")
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
