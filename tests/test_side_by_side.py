"""Solves side by side (``operators._beside``), when ``operators._overlaps``
says one-thread BLAS leaves a CPU idle: ``run_diagnostics`` decomposes
R = L_1 + eps^T eps on a second thread while it decomposes L_0 and L_1, and
``verify`` runs the cone Laplacians' kernels beside the cone reduction's
spectra, then F's and W's spectra in degrees 0 and 1 beside R and the top
degree's. These tests force that decision either way: the overlap moves no
bit and no byte, raises what the sequential path raises, holds at most
1 MiB more at its peak and leaves no thread behind."""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import feature_sheaf
from sheafgauge import operators
from sheafgauge.cli import main
from sheafgauge.complexes import Graph, build_clique_complex, complete_graph
from sheafgauge.diagnostics import DiagnosticsConfig, make_grounding, run_diagnostics
from sheafgauge.operators import PsdViolationError, laplacian
from sheafgauge.sheaves import CellSheaf, Stalk, constant_sheaf, sheaf_to_json

WITH_LOCAL = DiagnosticsConfig(with_local=True)


def _force(monkeypatch, overlap):
    monkeypatch.setattr(operators, "_overlaps", lambda: overlap)


def _count_threads(monkeypatch):
    """Every thread started from here on, through ``threading.Thread``."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


@pytest.mark.parametrize("normalize", [False, True])
def test_side_by_side_moves_no_bit(monkeypatch, normalize):
    cfg = DiagnosticsConfig(normalize=normalize, with_local=True)
    started = _count_threads(monkeypatch)
    reports = {}
    for overlap in (False, True):
        _force(monkeypatch, overlap)
        sheaf = feature_sheaf(0)
        before = threading.active_count()
        reports[overlap] = run_diagnostics(sheaf, make_grounding(sheaf, "padding"), cfg)
        assert threading.active_count() == before
        assert len(started) == overlap
    sequential, overlapped = reports[False], reports[True]
    assert overlapped.channels == sequential.channels
    assert overlapped.defect_norm == sequential.defect_norm
    assert set(overlapped.spectra) == set(sequential.spectra)
    for name, spectrum in sequential.spectra.items():
        assert np.array_equal(overlapped.spectra[name].eigenvalues, spectrum.eigenvalues), name
    assert set(overlapped.local_maps) == set(sequential.local_maps) == {
        "base_j0", "base_j1", "relative_cone"}
    for name, local in sequential.local_maps.items():
        assert np.array_equal(overlapped.local_maps[name].scores, local.scores), name


def test_side_by_side_under_frequent_thread_switches(monkeypatch):
    # the worker reads only its finished operator, so no interleaving of the
    # two threads moves a bit or loses a spectrum
    sheaf = feature_sheaf(0)
    expected = run_diagnostics(sheaf, make_grounding(sheaf, "padding"), WITH_LOCAL)
    _force(monkeypatch, True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(2):
            sheaf = feature_sheaf(0)
            report = run_diagnostics(sheaf, make_grounding(sheaf, "padding"), WITH_LOCAL)
            for name, spectrum in expected.spectra.items():
                assert np.array_equal(report.spectra[name].eigenvalues, spectrum.eigenvalues)
    finally:
        sys.setswitchinterval(interval)


def test_side_by_side_diagnose_writes_the_same_bytes(tmp_path, monkeypatch, capsys):
    sheaf_path = tmp_path / "sheaf.json"
    sheaf_path.write_text(sheaf_to_json(feature_sheaf(0)))
    outputs = {}
    for overlap in (False, True):
        _force(monkeypatch, overlap)
        # the report records --out, so each run writes ./out from its own directory
        directory = tmp_path / f"overlap-{overlap}"
        directory.mkdir()
        monkeypatch.chdir(directory)
        assert main(["diagnose", "--input", str(sheaf_path), "--grounding", "padding",
                     "--heatmap", "--out", "out"]) == 0
        out = directory / "out"
        files = {path.relative_to(out): path.read_bytes()
                 for path in sorted(out.rglob("*")) if path.is_file()}
        outputs[overlap] = files, capsys.readouterr().out
    assert outputs[True][0]
    assert outputs[True] == outputs[False]


def test_side_by_side_decomposes_each_channel_once(monkeypatch):
    import test_diagnostics

    _force(monkeypatch, True)
    test_diagnostics.test_run_diagnostics_decomposes_each_channel_once(monkeypatch)


@pytest.mark.parametrize("failing", [("R",), ("L1",), ("L1", "R")])
def test_side_by_side_raises_what_the_sequential_path_raises(monkeypatch, failing):
    # L_1 is decomposed before R one after the other, so L_1's error comes first
    # and neither is tried twice (the overlap may try R where L_1's error
    # would have stopped the sequential path first)
    original, started = operators.decompose, _count_threads(monkeypatch)
    errors, tried = {}, {}
    for overlap in (False, True):
        _force(monkeypatch, overlap)
        sheaf = feature_sheaf(0)
        l1 = laplacian(sheaf, 1)
        tried[overlap] = names = []

        def decompose(lap, vectors=True, _l1=l1, _names=names):
            name = "L1" if lap is _l1 else "R" if lap.degree == 1 else None
            _names.append(name)
            if name in failing:
                raise PsdViolationError(f"negative eigenvalue of {name}")
            return original(lap, vectors)

        monkeypatch.setattr(operators, "decompose", decompose)
        before = threading.active_count()
        with pytest.raises(PsdViolationError) as raised:
            run_diagnostics(sheaf, make_grounding(sheaf, "padding"), WITH_LOCAL)
        assert threading.active_count() == before
        assert len(started) == overlap
        errors[overlap] = type(raised.value), str(raised.value)
    assert errors[True] == errors[False] == (PsdViolationError,
                                             f"negative eigenvalue of {failing[0]}")
    for overlap in (False, True):
        assert tried[overlap].count("L1") == 1 and tried[overlap].count("R") <= 1


@pytest.mark.parametrize("name", ["fullrank", "deficient", "zero"])
def test_cochain_groundings_start_no_thread(monkeypatch, name):
    _force(monkeypatch, True)
    started = _count_threads(monkeypatch)
    sheaf = feature_sheaf(0)
    run_diagnostics(sheaf, make_grounding(sheaf, name), WITH_LOCAL)
    assert started == []


@pytest.mark.parametrize("threads, cpus, affinity, overlaps", [
    (1, 2, True, True), (1, 4, False, True), (1, 1, True, False), (1, 1, False, False),
    (2, 2, True, False), (None, 2, True, False),
])
def test_overlap_needs_one_blas_thread_and_two_cpus(monkeypatch, threads, cpus, affinity,
                                                    overlaps):
    lapack = operators._Lapack({}, None if threads is None else lambda: threads)
    monkeypatch.setattr(operators, "_lapack", lambda: lapack)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert operators._overlaps() is overlaps


def test_no_bundled_lapack_no_overlap(monkeypatch):
    monkeypatch.setattr(operators, "_lapack", lambda: None)
    assert operators._overlaps() is False


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _k5(dim):
    return constant_sheaf(build_clique_complex(complete_graph(5)), dim)


def _k5_line_in_r2():
    """The constant R^1 sheaf on K5 with every stalk the line e1 of R^2: its
    padded cone is not acyclic, so cone degrees 0 and 2 are decomposed."""
    line = _k5(1)
    return CellSheaf(line.complex, dict.fromkeys(line.stalks, Stalk(np.eye(2, 1))),
                     line.restrictions)


def _gnp_constant_sheaf(seed, n=40, p=0.2, dim=2):
    """The constant R^dim sheaf on a seeded G(n, p) clique complex."""
    rng = np.random.default_rng(seed)
    upper = np.triu_indices(n, 1)
    keep = rng.random(upper[0].size) < p
    edges = [(int(u), int(v)) for u, v in zip(upper[0][keep], upper[1][keep])]
    return constant_sheaf(build_clique_complex(Graph(n, edges)), dim)


VERIFY_INPUTS = {
    "k5-r2": lambda: _k5(2),
    "k5-r1-in-r2": _k5_line_in_r2,
    "features": lambda: feature_sheaf(0),
    "no-vertices": lambda: constant_sheaf(build_clique_complex(Graph(0, [])), 2),
}


def _verify(tmp_path, monkeypatch, name, grounding, overlap):
    """``verify`` of input ``name``, run from its own directory with the
    overlap forced: the exit code, stdout, stderr and certificates.json."""
    _force(monkeypatch, overlap)
    sheaf_path = tmp_path / f"{name}.json"
    if not sheaf_path.exists():
        sheaf_path.write_text(sheaf_to_json(VERIFY_INPUTS[name]()))
    # the certificates record --out, so each run writes ./out from its own directory
    directory = tmp_path / f"{name}-{grounding}-{overlap}"
    directory.mkdir()
    monkeypatch.chdir(directory)
    code = main(["verify", "--input", str(sheaf_path), "--grounding", grounding,
                 "--out", "out"])
    certificates = directory / "out" / "certificates.json"
    return code, certificates.read_bytes() if certificates.exists() else None


@pytest.mark.parametrize("name, grounding", [
    ("k5-r2", "padding"), ("k5-r1-in-r2", "padding"), ("features", "padding"),
    ("no-vertices", "padding"), ("k5-r2", "fullrank"), ("k5-r2", "deficient"),
    ("k5-r2", "zero"),
])
def test_side_by_side_verify_writes_the_same_bytes(tmp_path, monkeypatch, capsys, name,
                                                   grounding):
    started = _count_threads(monkeypatch)
    outputs = {}
    for overlap in (False, True):
        before = threading.active_count()
        outputs[overlap] = _verify(tmp_path, monkeypatch, name, grounding, overlap), \
            capsys.readouterr()
        assert threading.active_count() == before
    assert outputs[True][0][1] is not None
    assert outputs[True] == outputs[False]
    # two pairs of lanes under a vertex-level grounding, none under the others
    assert len(started) == (2 if grounding == "padding" else 0)


@pytest.mark.parametrize("overlap", [False, True])
def test_side_by_side_verify_assembles_one_cone(tmp_path, monkeypatch, overlap):
    import test_cli

    _force(monkeypatch, overlap)
    test_cli.test_verify_assembles_one_cone(tmp_path, monkeypatch)


def _failing_decompose(monkeypatch, failing):
    """``operators.decompose`` raising for the solves named in ``failing``:
    ``cone`` (a cone Laplacian's kernel), ``block`` (a cone-reduction block),
    ``R`` or ``L<j>`` (a sheaf's spectrum). Returns the list of the
    (name, degree, dimension) of each solve tried, in the order they start."""
    original, tried, lock = operators.decompose, [], threading.Lock()
    callers = {"numerical_kernel": "cone", "_eigenvalues": "block", "relative_spectrum": "R"}

    def decompose(lap, vectors=True):
        name = callers.get(sys._getframe(1).f_code.co_name, f"L{lap.degree}")
        with lock:
            tried.append((name, lap.degree, lap.dim))
        if name in failing:
            raise PsdViolationError(f"negative eigenvalue of {name}")
        return original(lap, vectors)

    monkeypatch.setattr(operators, "decompose", decompose)
    return tried


@pytest.mark.parametrize("failing", [
    ("cone",), ("block",), ("cone", "block"), ("L1",), ("R",), ("L2",), ("L1", "R"),
])
def test_side_by_side_verify_raises_what_the_sequential_path_raises(tmp_path, monkeypatch,
                                                                    capsys, failing):
    # each lane's error, and the caller's first where both lanes fail, as
    # the same lanes one after the other raise it: a validation error
    tried = _failing_decompose(monkeypatch, failing)
    outputs, solves = {}, {}
    for overlap in (False, True):
        tried.clear()
        before = threading.active_count()
        outputs[overlap] = _verify(tmp_path, monkeypatch, "k5-r1-in-r2", "padding", overlap), \
            capsys.readouterr().err
        assert threading.active_count() == before
        solves[overlap] = list(tried)
    assert outputs[True] == outputs[False] == (
        (2, None), f"validation error: negative eigenvalue of {failing[0]}\n")
    # no operator is decomposed twice (the four blocks share a name); side by
    # side, the worker's lane may run where the caller's error stops the
    # sequential path first
    for overlap in (False, True):
        named = [solve for solve in solves[overlap] if solve[0] != "block"]
        assert len(set(named)) == len(named), solves[overlap]
    assert set(solves[True]) >= set(solves[False])


def test_side_by_side_verify_peak_memory(tmp_path, monkeypatch):
    # the pairs are chosen so that the two lanes' transients together stay
    # within 1 MiB of the largest of verify's steps one after the other
    sheaf_path = tmp_path / "g40.json"
    sheaf_path.write_text(sheaf_to_json(_gnp_constant_sheaf(0)))
    peaks = {}
    for overlap in (False, True, False, True):
        _force(monkeypatch, overlap)
        tracemalloc.start()
        try:
            assert main(["verify", "--input", str(sheaf_path), "--grounding", "padding",
                         "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks[overlap] = min(peaks.get(overlap, peak), peak)
    assert peaks[True] <= peaks[False] + 2**20, peaks
