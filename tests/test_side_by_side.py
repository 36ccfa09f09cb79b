"""``run_diagnostics`` decomposes R = L_1 + eps^T eps on a second thread
while it decomposes L_0 and L_1 (``operators._beside``), when
``operators._overlaps`` says a CPU is idle. These tests force that decision
either way: the overlap moves no bit and no byte, raises what the
sequential path raises, and leaves no thread behind."""

import os
import sys
import threading

import numpy as np
import pytest

from conftest import feature_sheaf
from sheafgauge import diagnostics, operators
from sheafgauge.cli import main
from sheafgauge.diagnostics import DiagnosticsConfig, make_grounding, run_diagnostics
from sheafgauge.operators import PsdViolationError, laplacian
from sheafgauge.sheaves import sheaf_to_json

WITH_LOCAL = DiagnosticsConfig(with_local=True)


def _force(monkeypatch, overlap):
    monkeypatch.setattr(diagnostics, "_overlaps", lambda: overlap)


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
