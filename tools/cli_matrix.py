"""Run a fixed matrix of sheafgauge commands and record what each one does.

Usage: python3 tools/cli_matrix.py OUT_DIR [--compare PARENT_DIR]

The script writes its inputs into OUT_DIR with numpy and json alone, so any
two checkouts get identical inputs: a seeded G(30, 0.2) graph with noisy
rank-3 features, a seeded G(8, 0.6) graph whose vertex 7 has features
orthogonal to the rest (so its edges and triangles get zero-dimensional
stalks), a seeded G(24, 0.35) graph with features of rank 1, 2 and 3, some
with fewer rows than the ambient dimension (so every degree has stalks of
several dimensions), a constant R^2 sheaf on K5, the constant R^1 sheaf on
K5 with every stalk the line e1 of R^2 (so its padded cone is not acyclic),
a 3-vertex sheaf with no edges, a sheaf with no vertices, and two malformed
copies of the K5 R^2 sheaf (a second item for one incidence, a negative
shape entry). Only then does it put this checkout's ``src`` first on
``sys.path`` and import the package. It runs each of the 88 commands of
``COMMANDS`` in this one process, as
``sheafgauge.cli.main(argv)`` from OUT_DIR with a relative ``--out`` named
after the command, and records ``<name>.exit``, ``<name>.stdout`` and
``<name>.stderr``, the streams captured while the command ran. An exception
that escapes a command is recorded as the interpreter would report it: its
traceback on stderr and exit code 1.

To compare two checkouts, run each one's copy of this script into its own
directory, the parent's first, and pass the parent's directory to
``--compare``. Every file that differs is then printed: a ``.json`` file is
compared after ``json.load``, with each key path that differs, both values
and, for numbers, their relative difference; every other file by bytes.
The largest relative difference comes last, and the exit code is 1 when
anything differs.

Run as a script, it sets BLAS to one thread before numpy loads it, as
``perfbench/run.py`` does: some outputs move in their last bits between one
and two BLAS threads (up to about 1e-11 relative), so two checkouts run under
different settings would show moves that no code made. On one BLAS thread
and two or more CPUs, ``run_diagnostics`` solves R = L1 + eps^T eps on a
second thread beside L0 and L1, and ``verify`` runs its solves in two such
lanes (``operators._beside``), so the ``diagnose`` and ``verify`` commands
under ``padding`` take that path here; on one CPU the same solves run one
after the other, and every output is the same either way.
Imported, it changes no environment variable.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import sys
import traceback
from pathlib import Path

if __name__ == "__main__":  # one BLAS thread, before numpy loads BLAS
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["MKL_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

GENERATORS = ("trivial", "mobius", "hidden-twist", "noisy-trivial")
GROUNDINGS = ("padding", "fullrank", "deficient", "zero")
OPERATORS = ("d0", "d1", "L0", "L1", "relative", "utilization")
EXPERIMENTS = ("existence", "magnitude", "localization", "relativity")


def _commands():
    """(name, argv) of every command, in run order; each writes to --out name."""
    runs = []
    for generator, grounding in itertools.product(GENERATORS, GROUNDINGS):
        source = ["--generator", generator, "--n", "12", "--grounding", grounding]
        runs.append((f"diagnose-{generator}-{grounding}", ["diagnose", *source, "--heatmap"]))
        runs.append((f"verify-{generator}-{grounding}", ["verify", *source]))
    runs.append(("diagnose-normalize-heat", ["diagnose", "--generator", "hidden-twist", "--n",
                                             "12", "--normalize", "--weight", "heat",
                                             "--heatmap"]))
    for operator in OPERATORS:
        runs.append((f"dump-{operator}", ["dump", "--generator", "noisy-trivial", "--n", "12",
                                          "--operator", operator]))
    for experiment in EXPERIMENTS:
        runs.append((f"experiment-{experiment}", ["experiment", experiment, "--n", "50"]))
    runs.append(("experiment-localization-unif", ["experiment", "localization", "--n", "50",
                                                  "--weight", "unif", "--delta1", "3"]))
    runs.append(("build-features", ["build", "--input", "graph.json",
                                    "--features", "features.json"]))
    for grounding in GROUNDINGS:
        source = ["--input", "build-features/sheaf.json", "--grounding", grounding]
        runs.append((f"diagnose-features-{grounding}", ["diagnose", *source, "--heatmap"]))
        runs.append((f"verify-features-{grounding}", ["verify", *source]))
    for sheaf, grounding in itertools.product(("k5", "no-edges"), GROUNDINGS):
        runs.append((f"verify-{sheaf}-{grounding}",
                     ["verify", "--input", f"{sheaf}.json", "--grounding", grounding]))
    runs.append(("verify-k5-line-padding",
                 ["verify", "--input", "k5-line.json", "--grounding", "padding"]))
    runs.append(("build-zero-stalks", ["build", "--input", "zero-stalks-graph.json",
                                       "--features", "zero-stalks-features.json"]))
    sheaves = (("zero-stalks", "build-zero-stalks/sheaf.json"),
               ("no-vertices", "no-vertices.json"))
    for (label, path), grounding in itertools.product(sheaves, GROUNDINGS):
        source = ["--input", path, "--grounding", grounding]
        runs.append((f"diagnose-{label}-{grounding}", ["diagnose", *source, "--heatmap"]))
        runs.append((f"verify-{label}-{grounding}", ["verify", *source]))
    runs.append(("build-mixed-ranks", ["build", "--input", "mixed-ranks-graph.json",
                                       "--features", "mixed-ranks-features.json"]))
    source = ["--input", "build-mixed-ranks/sheaf.json", "--grounding", "padding"]
    runs.append(("diagnose-mixed-ranks-padding", ["diagnose", *source, "--heatmap"]))
    runs.append(("verify-mixed-ranks-padding", ["verify", *source]))
    runs += [
        ("error-missing-input", ["verify", "--input", "missing.json"]),
        ("error-input-and-generator", ["diagnose", "--input", "k5.json",
                                       "--generator", "mobius"]),
        ("error-magnitude-n", ["experiment", "magnitude", "--n", "2"]),
        ("error-delta0", ["diagnose", "--generator", "trivial", "--n", "10",
                          "--delta0", "100"]),
        ("error-repeated-restriction", ["verify", "--input", "repeated-restriction.json"]),
        ("error-negative-shape", ["diagnose", "--input", "negative-shape.json"]),
    ]
    return [(name, argv + ["--out", name]) for name, argv in runs]


COMMANDS = _commands()


def _matrix(m):
    m = np.asarray(m, dtype=float)
    return {"shape": list(m.shape), "data": m.reshape(-1).tolist()}


def _constant_sheaf(vertices, edges, dim, basis=None):
    """sheaf.json of the constant sheaf R^dim on the clique complex of a
    graph; every stalk has ``basis`` (by default the identity of R^dim)."""
    adjacent = {tuple(e) for e in edges}
    triangles = [t for t in itertools.combinations(range(vertices), 3)
                 if all(pair in adjacent for pair in itertools.combinations(t, 2))]
    cells = [(v,) for v in range(vertices)] + [tuple(e) for e in edges] + triangles
    faces = [(face, cell) for cell in cells if len(cell) > 1
             for face in itertools.combinations(cell, len(cell) - 1)]
    eye = _matrix(np.eye(dim))
    stalk = eye if basis is None else _matrix(basis)
    return {
        "schema_version": "1",
        "graph": {"vertices": vertices, "edges": [list(e) for e in edges]},
        "validated": True,
        "stalks": [{"cell": list(cell), "basis": stalk} for cell in sorted(cells)],
        "restrictions": [{"face": list(face), "coface": list(coface), "matrix": eye}
                         for face, coface in sorted(faces)],
    }


def _random_edges(rng, n, p):
    """Edges of a seeded G(n, p), in the order of ``np.triu_indices``."""
    upper = np.triu_indices(n, 1)
    keep = rng.random(upper[0].size) < p
    return [[int(u), int(v)] for u, v in zip(upper[0][keep], upper[1][keep])]


def write_inputs(directory: Path):
    rng = np.random.default_rng(0)
    n, ambient, rank = 30, 6, 3
    basis, _ = np.linalg.qr(rng.normal(size=(ambient, rank)))
    features = {str(v): (basis + 0.05 * rng.normal(size=(ambient, rank))).tolist()
                for v in range(n)}
    edges = _random_edges(rng, n, 0.2)
    # vertices 0-6 near one 2-frame, vertex 7 in its orthogonal complement
    frame, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(ambient, ambient)))
    zero_stalks = {str(v): (frame[:, :2] + 0.05 * rng.normal(size=(ambient, 2))).tolist()
                   for v in range(7)}
    zero_stalks["7"] = frame[:, 2:4].tolist()
    # vertex v near the first v % 3 + 1 columns of one frame; every fourth
    # vertex gives only its first 4 of the 6 rows
    mixed_rng = np.random.default_rng(2)
    mixed = {}
    for v in range(24):
        rows, width = (4 if v % 4 == 3 else ambient), v % 3 + 1
        mixed[str(v)] = (frame[:rows, :width]
                         + 0.05 * mixed_rng.normal(size=(rows, width))).tolist()
    k5 = [list(e) for e in itertools.combinations(range(5), 2)]
    repeated = _constant_sheaf(5, k5, 2)
    first = repeated["restrictions"][0]
    repeated["restrictions"].append(dict(first, matrix=_matrix(-np.eye(2))))
    negative = _constant_sheaf(5, k5, 2)
    negative["stalks"][0]["basis"]["shape"] = [-1, 2]
    inputs = {"graph.json": {"vertices": n, "edges": edges},
              "features.json": {"features": features},
              "zero-stalks-graph.json": {"vertices": 8, "edges": _random_edges(rng, 8, 0.6)},
              "zero-stalks-features.json": {"features": zero_stalks},
              "mixed-ranks-graph.json": {"vertices": 24,
                                         "edges": _random_edges(mixed_rng, 24, 0.35)},
              "mixed-ranks-features.json": {"features": mixed},
              "k5.json": _constant_sheaf(5, k5, 2),
              "k5-line.json": _constant_sheaf(5, k5, 1, basis=np.eye(2, 1)),
              "no-edges.json": _constant_sheaf(3, [], 2),
              "no-vertices.json": _constant_sheaf(0, [], 2),
              "repeated-restriction.json": repeated,
              "negative-shape.json": negative}
    for name, payload in inputs.items():
        (directory / name).write_text(json.dumps(payload, sort_keys=True) + "\n")


def _json_diffs(old, new, path=""):
    """(key path, old, new) of every JSON value of ``new`` that differs from
    the one at its path in ``old``; a key on one side only has None on the other."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key in old and key in new:
                yield from _json_diffs(old[key], new[key], f"{path}/{key}")
            else:
                yield f"{path}/{key}", old.get(key), new.get(key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _json_diffs(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def _relative(old, new):
    """|old - new| / max(|old|, |new|) of two numbers, else None."""
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in (old, new)):
        return None
    scale = max(abs(old), abs(new))
    return abs(old - new) / scale if scale else 0.0


def compare(directory: Path, parent: Path) -> list:
    """One line per file that differs between two matrix directories, and
    for JSON one per differing key path; the largest relative difference last."""
    files = {p.relative_to(root) for root in (directory, parent)
             for p in root.rglob("*") if p.is_file()}
    lines, largest = [], None
    for name in sorted(files):
        ours, theirs = directory / name, parent / name
        if not (ours.is_file() and theirs.is_file()):
            lines.append(f"{name}: only in {directory if ours.is_file() else parent}")
            continue
        if ours.read_bytes() == theirs.read_bytes():
            continue
        if name.suffix != ".json":
            lines.append(f"{name}: differs")
            continue
        diffs = list(_json_diffs(json.loads(theirs.read_text()), json.loads(ours.read_text())))
        lines.append(f"{name}: {len(diffs)} key path(s) differ" if diffs
                     else f"{name}: differs in its text alone")
        for path, old, new in diffs:
            rel = _relative(old, new)
            lines.append(f"  {path or '/'}: {old!r} -> {new!r}" + (
                "" if rel is None else f" (relative {rel:.3g}, absolute {abs(new - old):.3g})"))
            if rel is not None and (largest is None or rel > largest[0]):
                largest = (rel, f"{name}:{path}")
    if largest is not None:
        lines.append(f"largest relative difference: {largest[0]:.3g} at {largest[1]}")
    return lines


def main(argv):
    parser = argparse.ArgumentParser(prog="python3 tools/cli_matrix.py")
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--compare", type=Path, metavar="PARENT_DIR",
                        help="print every file that differs from this earlier run")
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    directory = args.out_dir.resolve()
    write_inputs(directory)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from sheafgauge.cli import main as run

    home = os.getcwd()
    os.chdir(directory)
    try:
        for name, command in COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = run(command)
                except Exception:  # recorded as the interpreter reports it: exit 1
                    traceback.print_exc()
                    code = 1
            (directory / f"{name}.exit").write_text(f"{code}\n")
            (directory / f"{name}.stdout").write_text(stdout.getvalue())
            (directory / f"{name}.stderr").write_text(stderr.getvalue())
    finally:
        os.chdir(home)
    if args.compare is None:
        return 0
    lines = compare(directory, args.compare)
    print("\n".join(lines) if lines else f"identical to {args.compare}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
