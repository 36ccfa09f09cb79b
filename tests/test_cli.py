import argparse
import ast
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sheafgauge
import sheafgauge.cli as cli
from conftest import count_solvers
from sheafgauge import diagnostics as diag
from sheafgauge.cli import EXPERIMENTS, GENERATORS, OPERATOR_NAMES, main
from sheafgauge.operators import laplacian


def run(args):
    return main(list(args))


def read(path):
    with open(path) as handle:
        return handle.read()


def write_inputs(tmp_path, edges=((0, 1), (1, 2), (0, 2)), vertices=3, seed=0, shape=(4, 3)):
    rng = np.random.default_rng(seed)
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"vertices": vertices, "edges": [list(e) for e in edges]}))
    base = rng.normal(size=shape)
    features = tmp_path / "features.json"
    features.write_text(json.dumps({"features": {str(v): base.tolist() for v in range(vertices)}}))
    return graph, features


def test_build_writes_sheaf(tmp_path):
    graph, features = write_inputs(tmp_path)
    out = tmp_path / "out"
    assert run(["build", "--input", str(graph), "--features", str(features),
                "--out", str(out)]) == 0
    data = json.loads(read(out / "sheaf.json"))
    assert data["schema_version"] == "1"
    assert data["validated"] is True


def test_build_sheaf_json_reads_back_bit_for_bit(tmp_path):
    from sheafgauge.complexes import Graph
    from sheafgauge.sheaves import build_sheaf_from_features, sheaf_from_json, sheaf_to_json

    # every vertex spans one 3-frame in its own basis: nontrivial maps, no violation
    rng = np.random.default_rng(5)
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.6]
    frame, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    rows = {v: frame @ rng.normal(size=(3, 3)) for v in range(8)}
    graph, features = tmp_path / "graph.json", tmp_path / "features.json"
    graph.write_text(json.dumps({"vertices": 8, "edges": edges}))
    features.write_text(json.dumps({"features": {str(v): m.tolist() for v, m in rows.items()}}))
    assert run(["build", "--input", str(graph), "--features", str(features),
                "--out", str(tmp_path / "out")]) == 0
    text = read(tmp_path / "out" / "sheaf.json")
    built = build_sheaf_from_features(Graph(8, edges), rows)
    restored = sheaf_from_json(text)
    assert restored.stalks.keys() == built.stalks.keys()
    assert restored.restrictions.keys() == built.restrictions.keys()
    assert len(built.complex.cells(2)) > 0
    for cell, stalk in built.stalks.items():
        assert np.array_equal(restored.stalks[cell].basis, stalk.basis)
    for key, m in built.restrictions.items():
        assert np.array_equal(restored.restrictions[key], m)
    # one text rule: compact and key-sorted on one line, so the library's text
    # differs from build's only by the command's params
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    del data["params"]
    assert sheaf_to_json(built) == json.dumps(data, sort_keys=True, separators=(",", ":"))


def test_build_malformed_json_names_byte_offset(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": 3, "edges": [[0, 1]')
    _, features = write_inputs(tmp_path)
    assert run(["build", "--input", str(bad), "--features", str(features),
                "--out", str(tmp_path / "o")]) == 1
    assert "byte offset" in capsys.readouterr().err


def _stored_sheaf(tmp_path, name="sheaf.json", graph=None):
    """A constant R^2 sheaf written as sheaf JSON: on K5, or on ``graph``."""
    from sheafgauge.complexes import build_clique_complex, complete_graph
    from sheafgauge.sheaves import constant_sheaf, sheaf_to_json

    complex_ = build_clique_complex(complete_graph(5) if graph is None else graph)
    path = tmp_path / name
    path.write_text(sheaf_to_json(constant_sheaf(complex_, 2)))
    return path


def _tilted_planes(tmp_path):
    """Arguments of a non-functorial build: three planes around a shared
    axis, pairwise tilted by 25 degrees. Permissive tolerances keep the
    misaligned directions, and the two-path compositions through the
    triangle disagree."""
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    e = np.eye(4)

    def plane(theta):
        tilted = np.cos(theta) * e[:, 1] + np.sin(theta) * e[:, 2]
        return np.column_stack([e[:, 0], tilted]).tolist()

    theta = np.deg2rad(25)
    feats = {"0": plane(0.0), "1": plane(theta), "2": plane(2 * theta)}
    features = tmp_path / "features.json"
    features.write_text(json.dumps({"features": feats}))
    return ["build", "--input", str(graph), "--features", str(features),
            "--edge-align-tol", "0.05", "--tri-eig-tol", "0.01"]


def test_build_functoriality_failure_exits_two(tmp_path, capsys):
    code = run(_tilted_planes(tmp_path) + ["--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "triangles" in err
    assert (tmp_path / "o" / "validation_report.json").exists()


def test_build_note_is_one_short_line(tmp_path, capsys):
    # a seeded G(30, 0.2) feature fixture fails on many triangles; the note
    # names the counts, the largest defect and five triangles, the report all
    rng = np.random.default_rng(0)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    edges = [[u, v] for u in range(30) for v in range(u + 1, 30) if rng.random() < 0.2]
    feats = {str(v): (basis @ rng.normal(size=(3, 5)) + 0.05 * rng.normal(size=(6, 5))).tolist()
             for v in range(30)}
    (tmp_path / "graph.json").write_text(json.dumps({"vertices": 30, "edges": edges}))
    (tmp_path / "features.json").write_text(json.dumps({"features": feats}))
    out = tmp_path / "o"
    assert run(["build", "--input", str(tmp_path / "graph.json"), "--features",
                str(tmp_path / "features.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    violations = json.loads(read(out / "validation_report.json"))["violations"]
    triangles = sorted({tuple(v["triangle"]) for v in violations})
    worst = max(violations, key=lambda v: v["defect"])
    assert len(triangles) > 5 and err.count("\n") == 1
    assert len(err.encode()) < 300
    assert f"{len(violations)} incidences of {len(triangles)} triangles" in err
    assert f"largest defect {worst['defect']:.3e} at {tuple(worst['triangle'])}" in err
    assert ", ".join(map(str, triangles[:5])) + ", …" in err
    assert str(triangles[5]) not in err.rpartition("; triangles ")[2]


def test_build_runs_one_functoriality_pass(tmp_path, monkeypatch):
    # the pass takes one defect per (vertex, triangle) flag, three on the one
    # triangle; the exit code, the report and the file's flag all read it
    import sheafgauge.sheaves as sheaves

    defects = []
    original = sheaves._two_path_defects
    monkeypatch.setattr(sheaves, "_two_path_defects",
                        lambda *stacks: defects.extend(original(*stacks)) or original(*stacks))
    assert run(_tilted_planes(tmp_path) + ["--out", str(tmp_path / "o")]) == 2
    assert len(defects) == 3
    assert json.loads(read(tmp_path / "o" / "sheaf.json"))["validated"] is False


def _edit_restriction(face, coface, entry, value):
    def edit(data):
        item = next(r for r in data["restrictions"]
                    if (r["face"], r["coface"]) == (face, coface))
        item["matrix"]["data"][entry] = value
    return edit


def _set_stalk_entry(data):
    data["stalks"][2]["basis"]["data"][0] = float("nan")


def _drop_stalk(data):
    data["stalks"] = [item for item in data["stalks"] if item["cell"] != [0]]


def _add_stalk(data):
    data["stalks"].append({"cell": [0, 2], "basis": data["stalks"][0]["basis"]})


def _drop_field(kind, index, name):
    def drop(data):
        del data[kind][index][name]
    return drop


def _add_restriction(data):
    data["restrictions"].append({"face": [0], "coface": [2, 3],
                                 "matrix": data["restrictions"][0]["matrix"]})


def _replace_document(data):
    return []


def _set_field(kind, index, name, value):
    def set_field(data):
        data[kind][index][name] = value
    return set_field


def _drop_top_level(name):
    def drop(data):
        del data[name]
    return drop


def _drop_matrix_data(data):
    del data["restrictions"][2]["matrix"]["data"]


def _repeat_item(kind, index, matrix):
    """Append a second item for the cell or incidence of item ``index``; its
    matrix is ``matrix`` of the original's."""
    def repeat(data):
        item = dict(data[kind][index])
        name = "basis" if kind == "stalks" else "matrix"
        item[name] = matrix(item[name])
        data[kind].append(item)
    return repeat


def _negated(payload):
    return {"shape": payload["shape"], "data": [-x for x in payload["data"]]}


def _set_stalk_shape(shape):
    def set_shape(data):
        data["stalks"][0]["basis"]["shape"] = shape
    return set_shape


@pytest.mark.parametrize("command", ["diagnose", "verify"])
@pytest.mark.parametrize("edit, message", [
    (_edit_restriction([1], [1, 2], 0, float("nan")),
     "restriction (1,) -> (1, 2) contains NaN or inf"),
    (_edit_restriction([1], [1, 2], 1, float("inf")),
     "restriction (1,) -> (1, 2) contains NaN or inf"),
    (_set_stalk_entry, "stalk item 2 field 'basis': stalk basis contains NaN or inf"),
    (_drop_stalk, "missing stalk for cell (0,)"),
    (_add_stalk, "stalk for (0, 2), not a cell of the complex"),
    (_add_restriction, "restriction (0,) -> (2, 3), not an incidence of the complex"),
    (_drop_field("stalks", 3, "basis"), "stalk item 3 lacks field 'basis'"),
    (_drop_field("restrictions", 5, "face"), "restriction item 5 lacks field 'face'"),
    (_replace_document, "sheaf is not a JSON object"),
    (lambda data: data.update(graph=[]), "sheaf field 'graph' is not a JSON object"),
    (_set_field("stalks", 1, "basis", 5), "stalk item 1 field 'basis' is not a JSON object"),
    (_set_field("stalks", 0, "cell", 0), "stalk item 0 field 'cell' is not a list of integers"),
    (lambda data: data.update(stalks={}), "sheaf field 'stalks' is not a JSON list"),
    (_drop_top_level("stalks"), "sheaf lacks field 'stalks'"),
    (_drop_top_level("graph"), "sheaf lacks field 'graph'"),
    (_drop_matrix_data, "restriction item 2 field 'matrix' lacks field 'data'"),
    # the later item used to win: the verdicts depended on the item order
    (_repeat_item("restrictions", 0, _negated),
     "restriction item 0 and restriction item 10 both give incidence (0,) < (0, 1)"),
    (_repeat_item("stalks", 3, lambda basis: basis),
     "stalk item 3 and stalk item 10 both give cell (1,)"),
    # reshape used to infer the -1, and a boolean read as an integer
    (_set_stalk_shape([-1, 2]),
     "stalk item 0 field 'basis' field 'shape' has a negative entry -1"),
    (_set_field("stalks", 0, "cell", [False]),
     "stalk item 0 field 'cell' is not a list of integers"),
    (_set_stalk_shape([2, True]),
     "stalk item 0 field 'basis' field 'shape' is not a list of integers"),
    # a bad basis names its item, as every other sheaf.json error does
    (_set_field("stalks", 3, "basis", {"shape": [2, 2], "data": [2, 0, 0, 1]}),
     "stalk item 3 field 'basis': stalk basis is not orthonormal"),
    (_set_field("stalks", 3, "basis", {"shape": [], "data": [1.0]}),
     "stalk item 3 field 'basis': stalk basis must be a 2d array"),
    (_set_field("stalks", 0, "basis", {"shape": [2, 2], "data": [1, 0, 0]}),
     "stalk item 0 field 'basis': cannot reshape array of size 3 into shape (2,2)"),
    # data is a flat list of numbers: not a string, a boolean, a scalar, a
    # nested list or a list holding a boolean or a null
    *[(_set_field(kind, 1, name, {"shape": [1, 1], "data": data}),
       f"{kind[:-1]} item 1 field {name!r} field 'data' is not a list of numbers")
      for kind, name in (("stalks", "basis"), ("restrictions", "matrix"))
      for data in ("1", True, 1, [True], [[1.0]], [None])],
    # an integer beyond the float range is an input error, not an OverflowError
    (_set_field("stalks", 1, "basis", {"shape": [1, 1], "data": [10**400]}),
     "stalk item 1 field 'basis': int too large to convert to float"),
], ids=["nan-restriction", "inf-restriction", "nan-stalk", "missing-stalk", "extra-stalk",
        "extra-restriction", "stalk-without-basis", "restriction-without-face",
        "document-not-object", "graph-not-object", "basis-not-object", "cell-not-list",
        "stalks-not-list", "sheaf-without-stalks", "sheaf-without-graph",
        "matrix-without-data", "repeated-restriction", "repeated-stalk", "negative-shape",
        "boolean-cell", "boolean-shape", "non-orthonormal-stalk", "stalk-not-2d",
        "stalk-data-not-shape"]
    + [f"{kind}-{data}-data" for kind in ("stalk", "restriction")
       for data in ("string", "boolean", "scalar", "boolean-entry", "nested", "null-entry")]
    + ["huge-integer-data"])
def test_mis_keyed_or_non_finite_sheaf_input_is_input_error(tmp_path, capsys, command, edit,
                                                            message):
    from sheafgauge.sheaves import sheaf_to_json_dict, trivial_bundle

    data = sheaf_to_json_dict(trivial_bundle(5, 2))
    replaced = edit(data)  # None: edited in place
    path = tmp_path / "sheaf.json"
    path.write_text(json.dumps(data if replaced is None else replaced))
    assert run([command, "--input", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "o").exists()


def test_diagnose_report_does_not_depend_on_heatmap(tmp_path):
    # a report is one solver's: the local maps read the spectra the report
    # reads, so asking for them changes no channel, spectrum or profile
    rng = np.random.default_rng(0)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    features = {str(v): (basis + 0.05 * rng.normal(size=(6, 3))).tolist() for v in range(30)}
    upper = np.triu_indices(30, 1)
    keep = rng.random(upper[0].size) < 0.2
    edges = [[int(u), int(v)] for u, v in zip(upper[0][keep], upper[1][keep])]
    (tmp_path / "graph.json").write_text(json.dumps({"vertices": 30, "edges": edges}))
    (tmp_path / "features.json").write_text(json.dumps({"features": features}))
    # exit 2: the noise leaves functoriality violations, and sheaf.json is written
    assert run(["build", "--input", str(tmp_path / "graph.json"), "--features",
                str(tmp_path / "features.json"), "--out", str(tmp_path / "build")]) == 2
    outs = {}
    for label, extra in (("plain", []), ("heatmap", ["--heatmap"])):
        outs[label] = tmp_path / label
        assert run(["diagnose", "--input", str(tmp_path / "build" / "sheaf.json"),
                    "--grounding", "padding", "--out", str(outs[label]), *extra]) == 0
    reports = {label: json.loads(read(out / "report.json")) for label, out in outs.items()}
    for key in ("channels", "defect_norm"):
        assert reports["plain"][key] == reports["heatmap"][key], key
    assert reports["heatmap"]["localization"] and not reports["plain"]["localization"]
    names = sorted(p.name for p in outs["plain"].glob("*.csv"))
    assert names == ["channel_spectra.csv"] + [f"profile_{c}.csv" for c in sorted(
        ("local_feasibility", "intrinsic_obstruction", "relative_cone", "ground_utilization"))]
    for name in names:
        assert (outs["plain"] / name).read_bytes() == (outs["heatmap"] / name).read_bytes(), name


@pytest.mark.parametrize("graph, features, message", [
    ({"vertices": 3, "edges": [[0, 1]]}, {"features": [[1, 0]]},
     "{features}: expected a 'features' object"),
    ({"vertices": 3, "edges": 5}, {"features": {}}, "{graph}: edges must be a list of pairs"),
    ({"vertices": 3, "edges": [1]}, {"features": {}}, "{graph}: edge 1 is not a pair"),
], ids=["features-list", "edges-not-list", "edge-not-pair"])
def test_build_mis_typed_input_is_input_error(tmp_path, capsys, graph, features, message):
    paths = {"graph": tmp_path / "graph.json", "features": tmp_path / "features.json"}
    paths["graph"].write_text(json.dumps(graph))
    paths["features"].write_text(json.dumps(features))
    assert run(["build", "--input", str(paths["graph"]), "--features", str(paths["features"]),
                "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert not (tmp_path / "o").exists()


def test_build_rejects_features_of_vertices_the_graph_lacks(tmp_path, capsys):
    # vertex 7's 9 rows used to make every stalk 9-dimensional, and build exited 0
    graph, features = write_inputs(tmp_path)
    data = json.loads(read(features))
    data["features"]["7"] = np.ones((9, 3)).tolist()
    features.write_text(json.dumps(data))
    assert run(["build", "--input", str(graph), "--features", str(features),
                "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("error: features given for vertices [7], "
                                       "which the graph lacks\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("first, second", [("1", "01"), ("0", "-0")])
def test_build_rejects_two_keys_of_one_vertex(tmp_path, capsys, first, second):
    # the later key used to win, so a stalk depended on the key order
    graph, features = write_inputs(tmp_path)
    data = json.loads(read(features))
    rows = data["features"].pop(first)
    data["features"][first] = rows
    data["features"][second] = np.ones((4, 3)).tolist()
    features.write_text(json.dumps(data))
    assert run(["build", "--input", str(graph), "--features", str(features),
                "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"error: {features}: keys {first!r} and {second!r} "
                                       f"both name vertex {int(first)}\n")
    assert not (tmp_path / "o").exists()


def test_diagnose_generator_mobius(tmp_path):
    out = tmp_path / "d"
    assert run(["diagnose", "--generator", "mobius", "--n", "10", "--out", str(out)]) == 0
    report = json.loads(read(out / "report.json"))
    local = report["channels"]["local_feasibility"]
    assert local["kernel_dim"] == 0
    assert abs(local["spectral_gap"] - 0.097887) < 1e-5
    assert (out / "channel_spectra.csv").exists()
    assert (out / "profile_local_feasibility.csv").exists()
    header = (out / "profile_local_feasibility.csv").read_text().splitlines()[0]
    assert header == "delta,dim"


def test_diagnose_trivial_kernel_one(tmp_path):
    out = tmp_path / "d"
    assert run(["diagnose", "--generator", "trivial", "--n", "10", "--out", str(out)]) == 0
    report = json.loads(read(out / "report.json"))
    assert report["channels"]["local_feasibility"]["kernel_dim"] == 1


def test_diagnose_deficient_grounding_relative_kernel(tmp_path):
    out = tmp_path / "d"
    assert run(["diagnose", "--generator", "trivial", "--n", "10",
                "--grounding", "deficient", "--out", str(out)]) == 0
    report = json.loads(read(out / "report.json"))
    assert report["channels"]["relative_cone"]["kernel_dim"] == 1


def test_normalized_channels_split_at_the_raw_kernel_dim(tmp_path):
    # the two smallest positive eigenvalues of L0 and L1 (3.95e-8) lie above the
    # raw zero cutoff, and below one computed again from the normalized lambda_max
    out = tmp_path / "out"
    assert run(["diagnose", "--generator", "hidden-twist", "--n", "12",
                "--tau", "0.007250226302712226", "--normalize", "--out", str(out)]) == 0
    channels = json.loads(read(out / "report.json"))["channels"]
    spectra = {}
    for line in read(out / "channel_spectra.csv").splitlines()[1:]:
        name, _, value = line.split(",")
        spectra.setdefault(name, []).append(float(value))
    for name in ("local_feasibility", "intrinsic_obstruction"):
        report = channels[name]
        k, gap = report["kernel_dim"], report["spectral_gap"]
        assert (k, report["normalized"]) == (0, True)
        assert gap == spectra[name][k] < 1e-7
        assert report["global_witness"] == gap
        profile = [tuple(map(float, line.split(",")))
                   for line in read(out / f"profile_{name}.csv").splitlines()[1:]]
        assert all(dim == k for delta, dim in profile if delta < gap)
        assert dict(profile)[gap] == k + 1


def _fails_before_any_work(monkeypatch):
    for name in ("_resolve_sheaf", "write_json", "write_csv"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("work started"))


def _assert_invalid_choice(err, value, choices):
    assert f"invalid choice: {value!r}" in err
    assert all(repr(choice) in err for choice in choices)


def test_diagnose_rejects_unknown_generator(tmp_path, capsys, monkeypatch):
    _fails_before_any_work(monkeypatch)
    assert run(["diagnose", "--generator", "klein", "--out", str(tmp_path / "x")]) == 1
    _assert_invalid_choice(capsys.readouterr().err, "klein", GENERATORS)
    assert not (tmp_path / "x").exists()


def test_diagnose_bad_generator_parameter_is_input_error(tmp_path, capsys):
    assert run(["diagnose", "--generator", "trivial", "--n", "2",
                "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: generator trivial:") and "n >= 4" in err
    assert not (tmp_path / "x").exists()


def _parse_error(command, flag, value):
    # an experiment's parser is named after the experiment too
    prog = " ".join(command[:2] if command[0] == "experiment" else command[:1])
    return f"sheafgauge {prog}: error: argument {flag}: must be finite, got {value!r}\n"


@pytest.mark.parametrize("command, flag", [
    (["diagnose", "--generator", "trivial"], "--delta0"),
    (["diagnose", "--generator", "trivial"], "--delta1"),
    (["experiment", "localization", "--n", "6"], "--delta1"),
])
def test_non_finite_slack_is_input_error(tmp_path, capsys, command, flag):
    assert run(command + [flag, "nan", "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == _parse_error(command, flag, "nan")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, flag, value", [
    (["diagnose", "--generator", "noisy-trivial"], "--sigma", "nan"),
    (["diagnose", "--generator", "noisy-trivial"], "--sigma", "inf"),
    (["diagnose", "--generator", "hidden-twist"], "--tau", "nan"),
    (["diagnose", "--generator", "hidden-twist"], "--tau", "inf"),
    (["experiment", "magnitude", "--n", "6"], "--sigma", "nan"),
    (["experiment", "magnitude", "--n", "6"], "--tau", "nan"),
    (["experiment", "localization", "--n", "6"], "--sigma", "inf"),
    (["diagnose", "--generator", "trivial"], "--sigma", "nan"),
    (["experiment", "localization"], "--delta1", "nan"),
    (["verify", "--generator", "trivial"], "--tau", "inf"),
    (["diagnose", "--generator", "trivial"], "--delta0", "inf"),
    (["dump", "--generator", "noisy-trivial", "--operator", "L0"], "--sigma", "nan"),
    (["build", "--input", "g.json", "--features", "f.json"], "--svd-tol", "-inf"),
    (["build", "--input", "g.json", "--features", "f.json"], "--edge-align-tol", "nan"),
    (["build", "--input", "g.json", "--features", "f.json"], "--tri-eig-tol", "inf"),
])
def test_non_finite_float_option_rejected_at_parse_time(tmp_path, capsys, command, flag,
                                                         value):
    # each is recorded in the output params, which must stay valid JSON
    assert run(command + [f"{flag}={value}", "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == _parse_error(command, flag, value)
    assert not (tmp_path / "x").exists()


def test_empty_slack_interval_is_input_error_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sheafgauge.cli._resolve_sheaf", lambda cfg: pytest.fail("built"))
    assert run(["diagnose", "--generator", "trivial", "--delta0", "1", "--delta1", "0.5",
                "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == "error: need delta0 < delta1\n"
    assert not (tmp_path / "x").exists()


def test_delta0_above_the_default_delta1_names_both(tmp_path, capsys):
    assert run(["diagnose", "--generator", "trivial", "--n", "10", "--delta0", "100",
                "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    prefix = "validation error: need delta0 < delta1, but delta0 is 100.0 and delta1 is "
    assert err.startswith(prefix)
    assert err.endswith(" (the default when no delta1 is given)\n")
    delta1, gap = err[len(prefix):].split(" (")[0].split(", twice the spectral gap ")
    # the gap of the 10-cycle's L_0 is 2 - 2 cos(2 pi / 10)
    assert float(delta1) == 2 * float(gap)
    assert abs(float(gap) - (2 - 2 * np.cos(np.pi / 5))) < 1e-12
    assert not (tmp_path / "x").exists()


def test_diagnose_three_cycle_names_the_filled_triangle(tmp_path, capsys):
    assert run(["diagnose", "--generator", "mobius", "--n", "3",
                "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: generator mobius: cycle bundles need n >= 4")
    assert "triangle (0, 1, 2)" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("args, message", [
    (["existence", "--n", "2"], "n >= 4"),
    (["existence", "--n", "3"], "triangle (0, 1, 2)"),
    (["relativity", "--n", "3"], "n >= 4"),
    (["magnitude", "--n", "6", "--seed", "-1"], "seed must be at least 0"),
    (["localization", "--n", "6", "--sigma", "-0.5"], "sigma must be at least 0"),
    (["magnitude", "--n", "2"], "n >= 4"),
    (["localization", "--n", "6", "--seed", "-2"], "seed must be at least 0"),
    (["magnitude", "--n", "6", "--sigma", "-0.25"], "sigma must be at least 0"),
])
def test_experiment_bad_parameter_is_input_error(tmp_path, capsys, args, message):
    assert run(["experiment"] + args + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: experiment {args[0]}:") and message in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", [
    ["experiment", "existence"], ["experiment", "relativity"],
    ["diagnose", "--generator", "trivial", "--n", "6"],
    ["verify", "--generator", "hidden-twist", "--n", "6"],
], ids=["existence", "relativity", "diagnose", "verify"])
@pytest.mark.parametrize("value", ["0", "-1"], ids=["zero", "negative"])
def test_stalk_dim_below_one_is_rejected_when_parsed(tmp_path, capsys, command, value):
    # 0 used to fall back to the generator default while params recorded 0
    assert run(command + ["--stalk-dim", value, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.endswith(
        f"error: argument --stalk-dim: must be at least 1, got '{value}'\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("stalk_dim, expected", [(None, 1), ("1", 1), ("3", 3)])
def test_experiment_runs_with_the_stalk_dim_it_records(tmp_path, stalk_dim, expected):
    args = ["experiment", "existence", "--n", "6", "--out", str(tmp_path)]
    assert run(args + (["--stalk-dim", stalk_dim] if stalk_dim else [])) == 0
    params = json.loads(read(tmp_path / "experiment_existence.json"))["params"]
    assert params["stalk_dim"] == expected


def test_experiment_fault_during_computation_exits_two(tmp_path, capsys, monkeypatch):
    from sheafgauge import diagnostics, operators
    from sheafgauge.spectral import PsdViolationError

    def failing(_lap, vectors=True):
        raise PsdViolationError("negative eigenvalue -1.000e+00")

    # every spectrum is made by operators.decompose, for a sheaf or a channel
    # set, or by the experiments' own values-only call of it
    for module in (operators, diagnostics):
        monkeypatch.setattr(module, "decompose", failing)
    assert run(["experiment", "magnitude", "--n", "6", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("validation error: negative eigenvalue")


def test_experiment_unknown_name_lists_valid(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.diag, "experiment_existence", lambda *a: pytest.fail("ran"))
    _fails_before_any_work(monkeypatch)
    assert run(["experiment", "bogus", "--out", str(tmp_path / "x")]) == 1
    _assert_invalid_choice(capsys.readouterr().err, "bogus", EXPERIMENTS)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("option", [["--n", "6"], ["--n=6"], ["--out", "x"], ["--seed", "1"]],
                         ids=["n", "n-equals", "out", "seed"])
def test_option_before_the_experiment_name_is_named(tmp_path, capsys, monkeypatch, option):
    # argparse took the option's value for the experiment name
    monkeypatch.setattr(cli.diag, "experiment_magnitude", lambda *a: pytest.fail("ran"))
    _fails_before_any_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert run(["experiment"] + option + ["magnitude"]) == 1
    flag = option[0].partition("=")[0]
    assert capsys.readouterr().err == (
        f"sheafgauge experiment: error: option {flag} comes before the experiment name; "
        f"the experiment comes first: sheafgauge experiment "
        f"{{existence,magnitude,localization,relativity}} {flag} ...\n")
    assert list(tmp_path.iterdir()) == []


def test_experiment_outputs_and_determinism(tmp_path):
    out = tmp_path / "e"
    args = ["experiment", "localization", "--seed", "7", "--out", str(out)]
    assert run(args) == 0
    first = {p.name: read(p) for p in out.iterdir()}
    assert run(args) == 0
    second = {p.name: read(p) for p in out.iterdir()}
    assert first == second
    assert "experiment_localization.json" in first
    assert any(name.startswith("heatmap_") for name in first)


def test_experiment_existence_shape(tmp_path):
    out = tmp_path / "e"
    assert run(["experiment", "existence", "--n", "10", "--out", str(out)]) == 0
    data = json.loads(read(out / "experiment_existence.json"))
    rows = {r["construction"]: r for r in data["rows"]}
    assert rows["trivial"]["kernel_dim"] == 1
    assert rows["mobius"]["kernel_dim"] == 0


def test_experiment_relativity_shape(tmp_path):
    out = tmp_path / "e"
    assert run(["experiment", "relativity", "--n", "10", "--out", str(out)]) == 0
    data = json.loads(read(out / "experiment_relativity.json"))
    assert data["verdict"]["base_channels_identical"] is True
    assert data["verdict"]["deficient_kernel"] == 1


def test_verify_trivial_padding_all_pass(tmp_path):
    out = tmp_path / "v"
    assert run(["verify", "--generator", "trivial", "--n", "8",
                "--grounding", "padding", "--out", str(out)]) == 0
    checks = json.loads(read(out / "certificates.json"))["checks"]
    assert {v["status"] for v in checks.values()} == {"pass"}
    assert set(checks) == {"cone_equivalence", "long_exact_sequence",
                           "cone_reduction", "separation"}


def test_verify_checks_the_cone_in_every_degree(tmp_path):
    # K5 has triangles, so its cone has tetrahedra and degree 2 is compared too
    from sheafgauge.complexes import build_clique_complex, complete_graph
    from sheafgauge.sheaves import constant_sheaf, sheaf_to_json

    sheaf_path = tmp_path / "k5.json"
    sheaf_path.write_text(sheaf_to_json(constant_sheaf(build_clique_complex(complete_graph(5)), 2)))
    out = tmp_path / "v"
    assert run(["verify", "--input", str(sheaf_path), "--grounding", "padding",
                "--out", str(out)]) == 0
    cone = json.loads(read(out / "certificates.json"))["checks"]["cone_equivalence"]
    assert cone["status"] == "pass"
    assert cone["residual_by_degree"] == {"0": 0.0, "1": 0.0, "2": 0.0}
    assert cone["max_residual"] == 0.0


def test_verify_mobius_padding_hypothesis_not_met(tmp_path):
    out = tmp_path / "v"
    assert run(["verify", "--generator", "mobius", "--n", "8",
                "--grounding", "padding", "--out", str(out)]) == 0
    checks = json.loads(read(out / "certificates.json"))["checks"]
    assert checks["cone_equivalence"]["status"] == "hypothesis-not-met"
    assert checks["cone_equivalence"]["defect_norm"] > 0


def test_verify_c1_grounding_skips_vertex_level_checks(tmp_path):
    out = tmp_path / "v"
    assert run(["verify", "--generator", "trivial", "--n", "8",
                "--grounding", "fullrank", "--out", str(out)]) == 0
    checks = json.loads(read(out / "certificates.json"))["checks"]
    assert checks["cone_equivalence"]["status"] == "hypothesis-not-met"
    assert checks["separation"]["status"] == "pass"


def _strict_json(text):
    """``text`` parsed as JSON that has no NaN or Infinity token."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_every_json_output_is_strict(tmp_path):
    from sheafgauge.complexes import Graph

    graph, features = write_inputs(tmp_path)
    (tmp_path / "tilted").mkdir()
    no_edges = _stored_sheaf(tmp_path, "no_edges.json", Graph(3, []))
    commands = [["build", "--input", str(graph), "--features", str(features)],
                _tilted_planes(tmp_path / "tilted"),
                ["diagnose", "--generator", "hidden-twist", "--heatmap"],
                ["verify", "--generator", "trivial"],
                ["dump", "--generator", "mobius", "--operator", "relative"]]
    commands += [["experiment", name] for name in EXPERIMENTS]
    # no edges: the relative channel has no positive eigenvalue, so its gap is infinite
    commands += [[command, "--input", str(no_edges), "--grounding", grounding]
                 for command in ("verify", "diagnose") for grounding in diag.GROUNDING_NAMES]
    for i, command in enumerate(commands):
        assert run(command + ["--out", str(tmp_path / "out" / str(i))]) in (0, 2), command
    written = sorted((tmp_path / "out").rglob("*.json"))
    assert len(written) == 18 and any(p.name == "validation_report.json" for p in written)
    for path in written:
        _strict_json(read(path))


def test_certificates_carry_each_report_whole(tmp_path):
    from sheafgauge.operators import ConeEquivalenceReport, LesNodeCheck, LesReport
    from sheafgauge.spectral import ConeReductionReport

    out = tmp_path / "o"
    assert run(["verify", "--input", str(_stored_sheaf(tmp_path)), "--grounding", "padding",
                "--out", str(out)]) == 0
    checks = json.loads(read(out / "certificates.json"))["checks"]
    reports = {"cone_equivalence": ConeEquivalenceReport, "long_exact_sequence": LesReport,
               "cone_reduction": ConeReductionReport, "separation": diag.SeparationReport}
    assert {name: sorted(check) for name, check in checks.items()} == \
        {name: sorted(f.name for f in dataclasses.fields(report))
         for name, report in reports.items()}
    nodes = checks["long_exact_sequence"]["nodes"]
    assert len(nodes) == 10 and any(node["dim"] for node in nodes)
    for node in nodes:
        assert sorted(node) == sorted(f.name for f in dataclasses.fields(LesNodeCheck))
        assert node["rank_in"] + node["rank_out"] == node["dim"], node


def test_dump_operator_format(tmp_path):
    out = tmp_path / "dump"
    assert run(["dump", "--generator", "mobius", "--n", "6", "--operator", "L0",
                "--out", str(out)]) == 0
    data = json.loads(read(out / "operator_L0.json"))
    assert data["shape"] == [6, 6]
    assert len(data["matrix"]) == 36
    assert data["degree"] == 0
    matrix = np.array(data["matrix"]).reshape(6, 6)
    assert np.allclose(matrix, matrix.T)


def test_dump_relative_operator(tmp_path):
    out = tmp_path / "dump"
    assert run(["dump", "--generator", "trivial", "--n", "6", "--operator", "relative",
                "--grounding", "deficient", "--out", str(out)]) == 0
    data = json.loads(read(out / "operator_relative.json"))
    assert data["provenance"] == "channel"


def test_dump_unknown_operator(tmp_path, capsys, monkeypatch):
    _fails_before_any_work(monkeypatch)
    assert run(["dump", "--generator", "trivial", "--operator", "L7",
                "--out", str(tmp_path / "x")]) == 1
    _assert_invalid_choice(capsys.readouterr().err, "L7", OPERATOR_NAMES)
    assert not (tmp_path / "x").exists()


def test_verify_exits_three_on_failed_check(tmp_path, monkeypatch):
    import sheafgauge.cli as cli
    from sheafgauge.operators import ConeEquivalenceReport

    monkeypatch.setattr(
        cli, "verify_cone_equivalence",
        lambda cone: ConeEquivalenceReport("fail", 0.0, 1.0, {}),
    )
    code = run(["verify", "--generator", "trivial", "--n", "6",
                "--grounding", "padding", "--out", str(tmp_path / "v")])
    assert code == 3


ASSEMBLY_FUNCTIONS = ("algebraic_cone", "incidence_defect", "constant_sheaf",
                      "_assemble_laplacian")


def _count_assemblies(monkeypatch):
    """Count calls of each assembly function in every sheafgauge module binding
    it, every coboundary a sheaf assembles (not those it hands out again)
    and every dense solver call on both routes; also list every matrix
    decomposed with eigenvectors (``conftest.count_solvers``)."""
    import sheafgauge.operators as operators
    import sheafgauge.sheaves as sheaves

    counts, decomposed = count_solvers(monkeypatch)
    counts["coboundary"] = 0
    assemble = sheaves.CellSheaf._assemble_coboundary

    def assembled(sheaf, j):
        counts["coboundary"] += 1
        return assemble(sheaf, j)

    monkeypatch.setattr(sheaves.CellSheaf, "_assemble_coboundary", assembled)
    for name in ASSEMBLY_FUNCTIONS:
        original = getattr(sheaves if name == "constant_sheaf" else operators, name)
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for key, module in sorted(sys.modules.items()):
            if key.startswith("sheafgauge") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts, decomposed


def test_verify_assembles_one_cone(tmp_path, monkeypatch):
    from sheafgauge.complexes import build_clique_complex, complete_graph
    from sheafgauge.sheaves import constant_sheaf, sheaf_to_json

    sheaf_path = tmp_path / "k5.json"
    sheaf_path.write_text(sheaf_to_json(constant_sheaf(build_clique_complex(complete_graph(5)), 2)))
    counts, decomposed = _count_assemblies(monkeypatch)
    assert run(["verify", "--input", str(sheaf_path), "--grounding", "padding",
                "--out", str(tmp_path / "padding")]) == 0
    # the constant sheaf is its own W (identity restrictions, stalks of the
    # padded dimension), so no constant sheaf is built. d_j of F for
    # j = -2..3 (the cone's differentials read one map past each end; the
    # end maps are empty) and d0-d2 of the geometric cone, each assembled
    # once: the channel set reads F's. L_0-L_2 of F, each assembled and
    # decomposed once: the LES reads them as F's and as W's spectra, the cone
    # reduction L_1(F) and L_0(W) with their spectra, the separation check
    # L_1(F) and its spectrum. Factored through the bundled LAPACK (dsytrd),
    # with no np.linalg.eigh call: those 3 and the relative channel;
    # eigvalsh: the cone reduction's 2 Gram blocks and 2 cone blocks;
    # dpotrf, with no np.linalg.cholesky call: the 4 cone Laplacians of the
    # LES, whose kernels one shifted factorization each proves empty, so no
    # eigenvalue of theirs is computed.
    assert counts == {"algebraic_cone": 1, "incidence_defect": 1, "constant_sheaf": 0,
                      "_assemble_laplacian": 3, "coboundary": 9, "eigh": 0, "dsytrd": 4,
                      "eigvalsh": 4, "cholesky": 0, "dpotrf": 4}
    # and no input is decomposed twice. Out of scope here: under the zero
    # grounding the relative operator R = L_1 + 0 repeats L_1.
    digests = [(m.shape, hashlib.sha1(m.tobytes()).hexdigest()) for m in decomposed]
    assert len(set(digests)) == len(digests) == 4
    counts.update(dict.fromkeys(counts, 0))
    assert run(["verify", "--input", str(sheaf_path), "--grounding", "fullrank",
                "--out", str(tmp_path / "fullrank")]) == 0
    assert counts["algebraic_cone"] == 0


@pytest.mark.parametrize("command, grounding, factored", [
    (["verify"], "deficient", 2),
    (["diagnose", "--heatmap"], "deficient", 4),
    (["diagnose", "--heatmap"], "padding", 4),
])
def test_commands_decompose_l1_once(tmp_path, monkeypatch, command, grounding, factored):
    # the deficient grounding, the channels and the separation check all read
    # the sheaf's one spectrum of L_1; every decomposition with eigenvectors
    # is factored through the bundled LAPACK, none is an np.linalg.eigh call
    from sheafgauge.complexes import build_clique_complex, complete_graph
    from sheafgauge.sheaves import constant_sheaf, sheaf_to_json

    sheaf = constant_sheaf(build_clique_complex(complete_graph(5)), 2)
    sheaf_path = tmp_path / "k5.json"
    sheaf_path.write_text(sheaf_to_json(sheaf))
    l1 = laplacian(sheaf, 1).matrix
    counts, solved = count_solvers(monkeypatch)
    assert run(command + ["--input", str(sheaf_path), "--grounding", grounding,
                          "--out", str(tmp_path / "out")]) == 0
    assert (counts["eigh"], counts["dsytrd"]) == (0, factored) and len(solved) == factored
    assert sum(m.shape == l1.shape and np.array_equal(m, l1) for m in solved) == 1


def test_side_by_side_diagnose_decomposes_each_input_once(tmp_path, monkeypatch):
    # with R decomposed on a second thread beside L0 and L1 (forced, so the
    # BLAS thread count of the test run does not decide), diagnose still
    # makes its 4 factored decompositions, L0, L1, R and the utilization,
    # none on a repeated input
    from sheafgauge.complexes import build_clique_complex, complete_graph
    from sheafgauge.sheaves import constant_sheaf, sheaf_to_json

    sheaf_path = tmp_path / "k5.json"
    sheaf_path.write_text(sheaf_to_json(constant_sheaf(build_clique_complex(complete_graph(5)), 2)))
    beside, overlapped = diag._beside, []
    monkeypatch.setattr(sheafgauge.operators, "_overlaps", lambda: True)
    monkeypatch.setattr(diag, "_beside",
                        lambda task, work: overlapped.append(task) or beside(task, work))
    counts, decomposed = count_solvers(monkeypatch)
    assert run(["diagnose", "--heatmap", "--input", str(sheaf_path), "--grounding", "padding",
                "--out", str(tmp_path / "out")]) == 0
    assert len(overlapped) == 1
    assert (counts["eigh"], counts["dsytrd"]) == (0, 4)
    digests = [(m.shape, hashlib.sha1(m.tobytes()).hexdigest()) for m in decomposed]
    assert len(set(digests)) == len(digests) == 4


_SHEAF_SOURCE = {"--input", "--generator", "--n", "--stalk-dim", "--tau", "--sigma", "--seed"}
_ENSEMBLE = {"--n", "--tau", "--sigma", "--seed", "--out"}
COMMAND_OPTIONS = {
    "build": {"--input", "--features", "--svd-tol", "--edge-align-tol", "--tri-eig-tol", "--out"},
    "diagnose": _SHEAF_SOURCE | {"--grounding", "--delta0", "--delta1", "--weight",
                                 "--normalize", "--heatmap", "--out"},
    "experiment existence": {"--n", "--stalk-dim", "--out"},
    "experiment magnitude": _ENSEMBLE,
    "experiment localization": _ENSEMBLE | {"--delta1", "--weight"},
    "experiment relativity": {"--n", "--stalk-dim", "--out"},
    "verify": _SHEAF_SOURCE | {"--grounding", "--out"},
    "dump": _SHEAF_SOURCE | {"--grounding", "--operator", "--out"},
}


def _leaf_parsers(parser, path=()):
    """(command, parser) of every command that runs, an experiment included."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield " ".join(path), parser
    for group in groups:
        for name, sub in group.choices.items():
            yield from _leaf_parsers(sub, path + (name,))


def test_each_command_takes_only_the_options_it_reads():
    options = {command: {flag for action in parser._actions for flag in action.option_strings}
               for command, parser in _leaf_parsers(cli._parser())}
    assert options == {command: flags | {"-h", "--help"}
                       for command, flags in COMMAND_OPTIONS.items()}


# a value of each option that every command once took
SHARED_OPTIONS = {"--input": "sheaf.json", "--generator": "trivial", "--n": "6",
                  "--stalk-dim": "3", "--tau": "0.3", "--sigma": "0.25", "--seed": "1",
                  "--grounding": "zero", "--delta0": "0", "--delta1": "1", "--weight": "heat",
                  "--normalize": None, "--out": "out"}
UNREAD = [(command, flag) for command, flags in COMMAND_OPTIONS.items()
          for flag in SHARED_OPTIONS if flag not in flags]
VALID = {"build": ["--input", "g.json", "--features", "f.json"],
         "verify": ["--generator", "mobius", "--n", "6"],
         "dump": ["--generator", "mobius", "--n", "6", "--operator", "L0"]}


def test_no_command_takes_a_shared_option_it_does_not_read():
    assert len(UNREAD) == 53


@pytest.mark.parametrize("command, flag", UNREAD, ids=[f"{c}{f}" for c, f in UNREAD])
def test_unread_option_is_unrecognized(tmp_path, capsys, command, flag):
    value = SHARED_OPTIONS[flag]
    args = command.split() + VALID.get(command, []) + [flag] + ([value] if value else [])
    assert run(args + ["--out", str(tmp_path / "x")]) == 1
    unrecognized = f"{flag} {value}" if value else flag
    assert capsys.readouterr().err == f"sheafgauge: error: unrecognized arguments: {unrecognized}\n"
    assert not (tmp_path / "x").exists()


# (text given, value recorded, library default) of each option a run may leave out
RECORDED = {
    "--n": ("6", 6, diag.N_DEFAULT),
    "--stalk-dim": ("2", 2, None),
    "--tau": ("0.2", 0.2, diag.TAU_DEFAULT),
    "--sigma": ("0.1", 0.1, diag.SIGMA_DEFAULT),
    "--seed": ("3", 3, diag.SEED_DEFAULT),
    "--grounding": ("fullrank", "fullrank", "padding"),
    "--delta0": ("0.01", 0.01, 0.0),
    "--delta1": ("2", 2.0, None),
    "--weight": ("inv", "inverse", "gap"),
    "--normalize": (None, True, False),
    "--heatmap": (None, True, False),
    "--svd-tol": ("1e-6", 1e-6, 1e-8),
    "--edge-align-tol": ("0.8", 0.8, 0.9),
    "--tri-eig-tol": ("0.4", 0.4, 0.5),
}
# the file each command records its params in; an experiment's is named after it
RECORD_FILE = {"build": "sheaf.json", "diagnose": "report.json", "verify": "certificates.json",
               "dump": "operator_L0.json"}
# what an experiment's own record adds: its seed count, and the stalk
# dimension a default resolves to
EXPERIMENT_PARAMS = {"experiment existence": {"stalk_dim": 1},
                     "experiment relativity": {"stalk_dim": 1},
                     "experiment magnitude": {"num_seeds": diag.NUM_SEEDS_DEFAULT},
                     "experiment localization": {"num_seeds": diag.NUM_SEEDS_DEFAULT}}
# the generator options each generator of the test does not read: null in params
UNREAD_BY_GENERATOR = {"trivial": ("tau", "sigma", "seed"), "noisy-trivial": ("tau",)}


def _dest(flag):
    return flag[2:].replace("-", "_")


@pytest.mark.parametrize("given", [False, True], ids=["defaults", "given"])
@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_params_record_each_accepted_option(tmp_path, command, given):
    # the command, then each option it accepts: as given, or at its default
    flags = COMMAND_OPTIONS[command]
    words = command.split()
    args = {"--out": str(tmp_path / "o")}
    if command == "build":
        args["--input"], args["--features"] = map(str, write_inputs(tmp_path))
    elif words[0] != "experiment":
        args["--generator"] = "noisy-trivial" if given else "trivial"
    if command == "dump":  # a channel operator: the dump that reads the grounding
        args["--operator"] = "relative"
    recorded = {flag: RECORDED[flag] for flag in sorted(flags & RECORDED.keys())}
    if given:
        args.update({flag: text for flag, (text, _, _) in recorded.items()})
    expected = dict.fromkeys(map(_dest, flags))  # None: a sheaf command's --input
    expected.update({_dest(flag): value if given else default
                     for flag, (_, value, default) in recorded.items()})
    expected.update({_dest(flag): text for flag, text in args.items() if flag not in recorded})
    expected["command"] = ":".join(words)
    for key, value in EXPERIMENT_PARAMS.get(command, {}).items():
        if expected.get(key) is None:
            expected[key] = value
    if "--generator" in args:
        expected.update(dict.fromkeys(UNREAD_BY_GENERATOR[args["--generator"]]))
    assert run(words + [word for flag, text in args.items()
                        for word in ([flag] if text is None else [flag, text])]) == 0
    name = ("operator_relative.json" if command == "dump"
            else RECORD_FILE.get(command, f"experiment_{words[-1]}.json"))
    assert json.loads(read(tmp_path / "o" / name))["params"] == expected


@pytest.mark.parametrize("operator", ["d0", "d1", "L0", "L1"])
def test_dump_of_a_sheaf_operator_records_no_grounding(tmp_path, operator):
    # only the channel operators read the grounding
    out = tmp_path / "o"
    assert run(["dump", "--generator", "trivial", "--n", "5", "--operator", operator,
                "--grounding", "fullrank", "--out", str(out)]) == 0
    params = json.loads(read(out / f"operator_{operator}.json"))["params"]
    assert "grounding" in params and params["grounding"] is None
    assert params["operator"] == operator


SHEAF_COMMANDS = (["diagnose"], ["verify"], ["dump", "--operator", "L0"])


@pytest.mark.parametrize("command", SHEAF_COMMANDS, ids=lambda c: c[0])
def test_input_with_generator_is_input_error(tmp_path, capsys, command):
    out = tmp_path / "o"
    args = command + ["--input", str(_stored_sheaf(tmp_path)), "--generator", "mobius"]
    assert run(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--input" in err and "--generator" in err
    assert not out.exists()


@pytest.mark.parametrize("command", SHEAF_COMMANDS, ids=lambda c: c[0])
def test_params_of_a_stored_sheaf_record_no_generator_option(tmp_path, command):
    out = tmp_path / "o"
    assert run(command + ["--input", str(_stored_sheaf(tmp_path)), "--n", "7", "--tau", "0.9",
                          "--out", str(out)]) == 0
    name = RECORD_FILE[command[0]]
    params = json.loads(read(out / name))["params"]
    assert {key: params[key] for key in ("generator", "n", "stalk_dim", "tau", "sigma", "seed")} \
        == dict.fromkeys(("generator", "n", "stalk_dim", "tau", "sigma", "seed"))


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["prog"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counted)
    cli._parser.cache_clear()
    try:
        for n in ("6", "7"):
            assert run(["experiment", "existence", "--n", n, "--out", str(tmp_path)]) == 0
    finally:
        cli._parser.cache_clear()
    assert built.count("sheafgauge") == 1
    assert len(built) == len(set(built)) == 1 + len(COMMAND_OPTIONS) + 1


def test_importing_the_cli_builds_no_parser():
    count = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "argparse.ArgumentParser.__init__ = "
             "lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
             "import sheafgauge.cli\n"
             "print(len(built))\n")
    src = os.path.dirname(os.path.dirname(sheafgauge.__file__))
    proc = subprocess.run([sys.executable, "-c", count], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (0, "0\n")


def test_main_runs_the_command_bound_when_it_is_called(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.generator) or 3)
    assert run(["verify", "--generator", "mobius", "--out", str(tmp_path)]) == 3
    assert seen == ["mobius"]


def test_run_config_defaults_are_the_library_defaults():
    from sheafgauge.sheaves import FeaturePipelineConfig
    from sheafgauge.spectral import WitnessConfig

    parsers = dict(_leaf_parsers(cli._parser()))
    for command, library in (("build", FeaturePipelineConfig()), ("diagnose", WitnessConfig())):
        for field in dataclasses.fields(library):
            assert parsers[command].get_default(field.name) == getattr(library, field.name)
    # the defaults every output's params record
    for command, parser in parsers.items():
        for flag in COMMAND_OPTIONS[command] & RECORDED.keys():
            assert parser.get_default(_dest(flag)) == RECORDED[flag][2], (command, flag)


def test_console_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sheafgauge.cli", "experiment", "existence", "--out",
         str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "experiment_existence.json").exists()


def test_sheaf_json_schema_version_enforced(tmp_path, capsys):
    bad = tmp_path / "sheaf.json"
    bad.write_text(json.dumps({"schema_version": "99", "graph": {}, "stalks": [],
                               "restrictions": []}))
    assert run(["diagnose", "--input", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "schema version" in capsys.readouterr().err


def _cli_matrix():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_matrix.py"
    spec = importlib.util.spec_from_file_location("cli_matrix", path)
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    return path, matrix


def _global_names(code):
    """The global names that a code object and the code nested in it read."""
    return set(code.co_names).union(
        *(_global_names(c) for c in code.co_consts if inspect.iscode(c)))


def test_cli_matrix_commands_parse():
    # tools/cli_matrix.py writes its inputs without the package, so two
    # checkouts get the same: write_inputs and every function of the tool it
    # calls use no sheafgauge name; every command it runs must parse here
    _, matrix = _cli_matrix()
    writers, todo = [], [matrix.write_inputs]
    while todo:
        writer = todo.pop()
        writers.append(writer)
        assert "sheafgauge" not in inspect.getsource(writer), writer.__name__
        for name in _global_names(writer.__code__):
            value = vars(matrix).get(name)
            origin = getattr(value, "__module__", None) or getattr(value, "__name__", "")
            assert not str(origin).startswith("sheafgauge"), (writer.__name__, name)
            if inspect.isfunction(value) and value not in writers + todo:
                todo.append(value)
    assert {w.__name__ for w in writers} == {"write_inputs", "_random_edges",
                                              "_constant_sheaf", "_matrix"}
    names = [name for name, _ in matrix.COMMANDS]
    assert len(names) == len(set(names)) == 88
    for name, argv in matrix.COMMANDS:
        args = cli._parser().parse_args(argv)
        assert args.out == name


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_cli_matrix_sets_one_blas_thread_before_numpy_only_as_a_script():
    # outputs move in their last bits between one and two BLAS threads, so
    # the script pins one thread before its numpy import; imported, it sets none
    before = {name: os.environ.get(name) for name in _BLAS_THREADS}
    path, _ = _cli_matrix()
    assert {name: os.environ.get(name) for name in _BLAS_THREADS} == before
    body = ast.parse(path.read_text()).body
    numpy_at = next(i for i, node in enumerate(body) if isinstance(node, ast.Import)
                    and "numpy" in [alias.name for alias in node.names])
    (guard,) = [node for node in body[:numpy_at] if isinstance(node, ast.If)]
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assigned = [(ast.unparse(node.targets[0]), ast.literal_eval(node.value))
                for node in ast.walk(guard) if isinstance(node, ast.Assign)]
    assert assigned == [(f"os.environ['{name}']", "1") for name in _BLAS_THREADS]


def test_cli_matrix_compare_names_each_moved_key(tmp_path):
    _, matrix = _cli_matrix()
    new, parent = tmp_path / "new", tmp_path / "parent"
    for root in (new, parent):
        (root / "run").mkdir(parents=True)
        (root / "run.exit").write_text("0\n")
    (parent / "run" / "out.json").write_text(json.dumps(
        {"rows": [{"gap": 0.5, "kernel": 1}], "flag": True, "gone": 1}))
    (new / "run" / "out.json").write_text(json.dumps(
        {"rows": [{"gap": 0.5000001, "kernel": 1}], "flag": False, "added": 2}))
    (parent / "run.stdout").write_text("a\n")
    (new / "run.stdout").write_text("b\n")
    (new / "run.stderr").write_text("")
    assert matrix.compare(parent, parent) == []
    assert matrix.compare(new, parent) == [
        "run/out.json: 4 key path(s) differ",
        "  /added: None -> 2",
        "  /flag: True -> False",
        "  /gone: 1 -> None",
        "  /rows[0]/gap: 0.5 -> 0.5000001 (relative 2e-07, absolute 1e-07)",
        "run.stderr: only in " + str(new),
        "run.stdout: differs",
        "largest relative difference: 2e-07 at run/out.json:/rows[0]/gap",
    ]


# ---------------------------------------------------------------------------
# Input errors: exit 1, one exact line on stderr and no output directory
# ---------------------------------------------------------------------------


def _graph_json(tmp_path, data):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    return path


def _features_json(tmp_path, features, name="features.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"features": features}))
    return path


@pytest.mark.parametrize("argv, message", [
    (lambda tmp: ["diagnose", "--input", str(tmp / "missing" / "x.json")],
     lambda tmp: (f"error: cannot read {tmp / 'missing' / 'x.json'}: [Errno 2] No such file "
                  f"or directory: '{tmp / 'missing' / 'x.json'}'")),
    (lambda tmp: ["diagnose"], lambda tmp: "error: need --input or --generator"),
    (lambda tmp: ["build", "--input", str(_graph_json(tmp, {"vertices": 1, "edges": []}))],
     lambda tmp: "error: build needs --input graph.json and --features features.json"),
    (lambda tmp: ["build", "--input", str(_graph_json(tmp, {"vertices": 1, "edges": []})),
                  "--features", str(_features_json(tmp, {"0": {"rows": [1.0]}}))],
     lambda tmp: (f"error: {tmp / 'features.json'}: vertex 0: float() argument must be a "
                  f"string or a real number, not 'dict'")),
    (lambda tmp: ["diagnose", "--generator", "hidden-twist", "--tau", "abc"],
     lambda tmp: "sheafgauge diagnose: error: argument --tau: invalid float value: 'abc'"),
    (lambda tmp: ["build", "--input", str(_graph_json(tmp, {"vertices": -1, "edges": []})),
                  "--features", str(_features_json(tmp, {}))],
     lambda tmp: f"error: {tmp / 'graph.json'}: vertex_count must be non-negative"),
    (lambda tmp: ["build", "--input", str(_graph_json(tmp, {"vertices": 2.5, "edges": []})),
                  "--features", str(_features_json(tmp, {}))],
     lambda tmp: f"error: {tmp / 'graph.json'}: vertex_count must be an integer"),
    (lambda tmp: ["build", "--input", str(_graph_json(tmp, {"edges": []})),
                  "--features", str(_features_json(tmp, {}))],
     lambda tmp: f"error: {tmp / 'graph.json'}: graph JSON must contain 'vertices' and 'edges'"),
    (lambda tmp: ["build", "--input", str(_graph_json(tmp, {"vertices": 1, "edges": []})),
                  "--features", str(_features_json(tmp, {"0": 5.0}))],
     lambda tmp: "error: feature matrix of vertex 0 must be a vector or a matrix"),
    (lambda tmp: ["build", "--input", str(_graph_json(tmp, {"vertices": 1, "edges": []})),
                  "--features", str(_features_json(tmp, {"0": [[[1.0]]]}))],
     lambda tmp: "error: feature matrix of vertex 0 must be a vector or a matrix"),
], ids=["unreadable-input", "no-sheaf-source", "build-without-features", "features-object",
        "tau-not-float", "negative-vertices", "float-vertices", "no-vertices",
        "scalar-features", "3d-features"])
def test_each_input_error_names_its_cause(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert run(argv(tmp_path) + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == message(tmp_path) + "\n"
    assert not out.exists()


def test_a_vertex_feature_vector_is_read_as_one_column(tmp_path):
    graph = _graph_json(tmp_path, {"vertices": 2, "edges": [[0, 1]]})
    column = {"0": [[1.0], [2.0], [0.0]], "1": [[1.0], [0.0], [0.0]]}
    vector = {**column, "0": [1.0, 2.0, 0.0]}
    sheaves = []
    for name, features in (("column", column), ("vector", vector)):
        path = _features_json(tmp_path, features, f"{name}.json")
        assert run(["build", "--input", str(graph), "--features", str(path),
                    "--out", str(tmp_path / name)]) == 0
        data = json.loads(read(tmp_path / name / "sheaf.json"))
        sheaves.append({key: data[key] for key in ("stalks", "restrictions")})
    assert sheaves[0] == sheaves[1]
    assert sheaves[1]["stalks"][0]["cell"] == [0]
    assert sheaves[1]["stalks"][0]["basis"]["shape"] == [3, 1]
