"""What the benchmark harness reads from the program, checked in tier-1.

``perfbench/run.py`` looks up every function named in its ``_TRACED``
table to wrap it, and ``perfbench/spans.py`` digests the ``.matrix`` of
coboundaries and Laplacians. The table is read from the source with
``ast``: importing ``run.py`` would apply its BLAS thread settings to this
process. ``perfbench/workloads.py`` reads the keys of the program's output
files; its ops run here on one smoke fixture each.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import sheafgauge
import sheafgauge.cli  # noqa: F401  (binds sheafgauge.cli, which the ops call)
from sheafgauge.complexes import Graph, build_clique_complex
from sheafgauge.operators import coboundary, laplacian
from sheafgauge.sheaves import constant_sheaf
from sheafgauge.spectral import eigendecompose

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RUN_PY = PERFBENCH / "run.py"


def _traced_names():
    """Every ``layer.name`` string heading an entry of ``_TRACED``."""
    tree = ast.parse(RUN_PY.read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_TRACED" for t in node.targets))
    names = []
    for node in ast.walk(value):
        if isinstance(node, ast.Tuple) and node.elts and isinstance(node.elts[0], ast.Constant):
            head = node.elts[0].value
            if isinstance(head, str) and "." in head:
                names.append(head)
    return names


def test_every_traced_program_name_is_a_public_function_of_its_module():
    checked = []
    for dotted in _traced_names():
        layer, name = dotted.split(".")
        if importlib.util.find_spec(f"sheafgauge.{layer}") is None:
            continue  # numpy layers such as linalg
        module = importlib.import_module(f"sheafgauge.{layer}")
        function = getattr(module, name, None)
        assert not name.startswith("_"), dotted
        assert inspect.isfunction(function), dotted
        assert function.__module__ == module.__name__, dotted
        checked.append(dotted)
    assert "operators.coboundary" in checked and "cli.main" in checked


def test_digested_operators_keep_their_matrix():
    sheaf = constant_sheaf(build_clique_complex(Graph(3, [(0, 1), (1, 2), (0, 2)])), 1)
    assert coboundary(sheaf, 0).matrix.shape == (3, 3)
    assert laplacian(sheaf, 1).matrix.shape == (3, 3)
    # perfbench's certify op decomposes a Laplacian as ``laplacian`` hands it out
    assert eigendecompose(laplacian(sheaf, 0)).eigenvalues.shape == (3,)


def _load_workloads():
    """``perfbench/workloads.py``, loaded by path; it is registered before it
    runs, because it defines a dataclass."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("workload", ["diagnose-features", "experiment-ensemble",
                                      "certify-grounded"])
def test_benchmark_reads_the_recorded_verdicts_from_the_outputs(tmp_path, workload):
    workloads = _load_workloads()
    bench = workloads.WORKLOADS[workload]
    inputs = bench.prepare(sheafgauge, "smoke", 0, str(tmp_path / "inputs"))
    out = tmp_path / "out"
    out.mkdir()
    raw = bench.run_op(sheafgauge, bench.fixture_params("smoke", 0), inputs, str(out))
    actual = json.loads(json.dumps(bench.verdicts(raw, str(out))))
    recorded = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())
    fixture = recorded["scales"]["smoke"]["fixtures"][0]
    assert fixture["k"] == 0
    assert workloads.compare(fixture["verdict"], actual) == []
