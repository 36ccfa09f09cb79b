import argparse
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sheafgauge
import sheafgauge.cli as cli
from sheafgauge.cli import EXPERIMENTS, GENERATORS, OPERATOR_NAMES, RunConfig, main
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


def test_build_malformed_json_names_byte_offset(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": 3, "edges": [[0, 1]')
    _, features = write_inputs(tmp_path)
    assert run(["build", "--input", str(bad), "--features", str(features),
                "--out", str(tmp_path / "o")]) == 1
    assert "byte offset" in capsys.readouterr().err


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


def test_build_runs_one_functoriality_pass(tmp_path, monkeypatch):
    # the pass takes one norm per (vertex, triangle) flag, three on the one
    # triangle; the exit code, the report and the file's flag all read it
    norms = []
    original = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: norms.append(a) or original(*a, **k))
    assert run(_tilted_planes(tmp_path) + ["--out", str(tmp_path / "o")]) == 2
    assert len(norms) == 3
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


@pytest.mark.parametrize("command", ["diagnose", "verify"])
@pytest.mark.parametrize("edit, message", [
    (_edit_restriction([1], [1, 2], 0, float("nan")),
     "restriction (1,) -> (1, 2) contains NaN or inf"),
    (_edit_restriction([1], [1, 2], 1, float("inf")),
     "restriction (1,) -> (1, 2) contains NaN or inf"),
    (_set_stalk_entry, "stalk basis contains NaN or inf"),
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
], ids=["nan-restriction", "inf-restriction", "nan-stalk", "missing-stalk", "extra-stalk",
        "extra-restriction", "stalk-without-basis", "restriction-without-face",
        "document-not-object", "graph-not-object", "basis-not-object", "cell-not-list",
        "stalks-not-list", "sheaf-without-stalks", "sheaf-without-graph",
        "matrix-without-data"])
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
    (["experiment", "localization", "--n", "6"], "--delta0", "inf"),
    (["build", "--input", "g.json", "--features", "f.json"], "--tri-exponent", "nan"),
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
    assert params["cli"]["stalk_dim"] == (None if stalk_dim is None else expected)


def test_experiment_fault_during_computation_exits_two(tmp_path, capsys, monkeypatch):
    from sheafgauge import operators
    from sheafgauge.spectral import PsdViolationError

    def failing(_lap):
        raise PsdViolationError("negative eigenvalue -1.000e+00")

    # every spectrum is made by operators.decompose, for a sheaf or a channel set
    monkeypatch.setattr(operators, "decompose", failing)
    assert run(["experiment", "magnitude", "--n", "6", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("validation error: negative eigenvalue")


def test_experiment_unknown_name_lists_valid(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.diag, "experiment_existence", lambda *a: pytest.fail("ran"))
    _fails_before_any_work(monkeypatch)
    assert run(["experiment", "bogus", "--out", str(tmp_path / "x")]) == 1
    _assert_invalid_choice(capsys.readouterr().err, "bogus", EXPERIMENTS)
    assert not (tmp_path / "x").exists()


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
    it, every coboundary a sheaf assembles (not those it hands out again) and
    every dense eigensolver call."""
    import sheafgauge.operators as operators
    import sheafgauge.sheaves as sheaves

    counts = {"coboundary": 0, "eigh": 0, "eigvalsh": 0}
    assemble = sheaves.CellSheaf._assemble_coboundary

    def assembled(sheaf, j):
        counts["coboundary"] += 1
        return assemble(sheaf, j)

    monkeypatch.setattr(sheaves.CellSheaf, "_assemble_coboundary", assembled)
    for solver in ("eigh", "eigvalsh"):
        def solved(m, _solver=solver, _original=getattr(np.linalg, solver)):
            counts[_solver] += 1
            return _original(m)

        monkeypatch.setattr(np.linalg, solver, solved)
    for name in ASSEMBLY_FUNCTIONS:
        original = getattr(sheaves if name == "constant_sheaf" else operators, name)
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for key, module in sorted(sys.modules.items()):
            if key.startswith("sheafgauge") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_verify_assembles_one_cone(tmp_path, monkeypatch):
    from sheafgauge.complexes import build_clique_complex, complete_graph
    from sheafgauge.sheaves import constant_sheaf, sheaf_to_json

    sheaf_path = tmp_path / "k5.json"
    sheaf_path.write_text(sheaf_to_json(constant_sheaf(build_clique_complex(complete_graph(5)), 2)))
    counts = _count_assemblies(monkeypatch)
    assert run(["verify", "--input", str(sheaf_path), "--grounding", "padding",
                "--out", str(tmp_path / "padding")]) == 0
    # d0 and d1 of F, of W and of the geometric cone: the channel set reads F's.
    # L_j of F and of W, each assembled and decomposed once: the LES reads
    # all six spectra, the cone reduction L_1(F) and L_0(W), the separation
    # check L_1(F) and its spectrum. eigh: those 6, the 4 cone Laplacians of
    # the LES and the relative channel; eigvalsh: the 6 cone-reduction blocks.
    assert counts == {"algebraic_cone": 1, "incidence_defect": 1, "constant_sheaf": 1,
                      "_assemble_laplacian": 6, "coboundary": 6, "eigh": 11, "eigvalsh": 6}
    counts.update(dict.fromkeys(counts, 0))
    assert run(["verify", "--input", str(sheaf_path), "--grounding", "fullrank",
                "--out", str(tmp_path / "fullrank")]) == 0
    assert counts["algebraic_cone"] == 0


@pytest.mark.parametrize("command, grounding, eigh", [
    (["verify"], "deficient", 2),
    (["diagnose", "--heatmap"], "deficient", 4),
    (["diagnose", "--heatmap"], "padding", 4),
])
def test_commands_decompose_l1_once(tmp_path, monkeypatch, command, grounding, eigh):
    # the deficient grounding, the channels and the separation check all read
    # the sheaf's one spectrum of L_1
    from sheafgauge.complexes import build_clique_complex, complete_graph
    from sheafgauge.sheaves import constant_sheaf, sheaf_to_json

    sheaf = constant_sheaf(build_clique_complex(complete_graph(5)), 2)
    sheaf_path = tmp_path / "k5.json"
    sheaf_path.write_text(sheaf_to_json(sheaf))
    l1 = laplacian(sheaf, 1).matrix
    solved = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: solved.append(m) or original(m))
    assert run(command + ["--input", str(sheaf_path), "--grounding", grounding,
                          "--out", str(tmp_path / "out")]) == 0
    assert len(solved) == eigh
    assert sum(m.shape == l1.shape and np.array_equal(m, l1) for m in solved) == 1


_SHEAF_SOURCE = {"--input", "--generator", "--n", "--stalk-dim", "--tau", "--sigma", "--seed"}
_ENSEMBLE = {"--n", "--tau", "--sigma", "--seed", "--out"}
COMMAND_OPTIONS = {
    "build": {"--input", "--features", "--svd-tol", "--edge-align-tol", "--tri-eig-tol",
              "--tri-exponent", "--out"},
    "diagnose": _SHEAF_SOURCE | {"--grounding", "--delta0", "--delta1", "--weight",
                                 "--normalize", "--heatmap", "--out"},
    "experiment existence": {"--n", "--stalk-dim", "--out"},
    "experiment magnitude": _ENSEMBLE,
    "experiment localization": _ENSEMBLE | {"--delta0", "--delta1", "--weight"},
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
    assert len(UNREAD) == 52


@pytest.mark.parametrize("command, flag", UNREAD, ids=[f"{c}{f}" for c, f in UNREAD])
def test_unread_option_is_unrecognized(tmp_path, capsys, command, flag):
    value = SHARED_OPTIONS[flag]
    args = command.split() + VALID.get(command, []) + [flag] + ([value] if value else [])
    assert run(args + ["--out", str(tmp_path / "x")]) == 1
    unrecognized = f"{flag} {value}" if value else flag
    assert capsys.readouterr().err == f"sheafgauge: error: unrecognized arguments: {unrecognized}\n"
    assert not (tmp_path / "x").exists()


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

    defaults = RunConfig(command="diagnose")
    for library in (FeaturePipelineConfig(), WitnessConfig()):
        for field in dataclasses.fields(library):
            assert getattr(defaults, field.name) == getattr(library, field.name)
    # the values every output's params record
    assert (defaults.svd_tol, defaults.edge_align_tol, defaults.tri_eig_tol,
            defaults.tri_exponent, defaults.delta0, defaults.delta1,
            defaults.weight) == (1e-8, 0.9, 0.5, 1.0, 0.0, None, "gap")


def test_run_config_round_trip():
    cfg = RunConfig(command="diagnose", generator="mobius", n=12, sigma=0.4,
                    weight="heat", normalize=True, out="results")
    assert RunConfig(**cfg.to_json_dict()) == cfg


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
