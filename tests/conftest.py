"""Shared fixtures, the reference noise model and the acceptance-criterion
summary hook."""

from __future__ import annotations

import sys

import numpy as np
from hypothesis import settings

from sheafgauge import operators
from sheafgauge.complexes import Graph
from sheafgauge.sheaves import build_sheaf_from_features, rotation_matrix

# Property tests replay the same examples on every run and write no example
# database, so tier-1 stays deterministic and leaves no files behind.
settings.register_profile("sheafgauge", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("sheafgauge")

_CRITERIA: list[tuple[str, str, bool]] = []


def record_criterion(cid: str, description: str, passed: bool):
    """Log one acceptance criterion outcome for the terminal summary."""
    _CRITERIA.append((cid, description, passed))
    print(f"ACCEPTANCE {cid}: {'PASS' if passed else 'FAIL'} - {description}",
          file=sys.stderr)
    assert passed, f"acceptance criterion {cid} failed: {description}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for cid, description, passed in sorted(_CRITERIA):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"  {cid}: {status} - {description}")


def copy_then_compose(sheaf, sigma, seed):
    """Reference noise model: copy every restriction, then compose each edge's
    higher-endpoint map with the seeded rotation."""
    restrictions = {k: m.copy() for k, m in sheaf.restrictions.items()}
    if sigma == 0:
        return restrictions
    rng = np.random.default_rng(seed)
    for e in sheaf.complex.cells(1):
        theta = rng.normal(0.0, sigma)
        dim = sheaf.stalk_dim(e)
        if dim < 2:
            continue
        if dim == 2:
            q = rotation_matrix(theta)
        else:
            plane, _ = np.linalg.qr(rng.normal(size=(dim, 2)))
            q = np.eye(dim) + plane @ (rotation_matrix(theta) - np.eye(2)) @ plane.T
        key = ((e[1],), e)
        restrictions[key] = q @ restrictions[key]
    return restrictions


def feature_sheaf(seed):
    """A seeded G(30, 0.2) graph with noisy rank-3 features in R^6."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    features = {v: basis + 0.05 * rng.normal(size=(6, 3)) for v in range(30)}
    upper = np.triu_indices(30, 1)
    keep = rng.random(upper[0].size) < 0.2
    edges = [(int(u), int(v)) for u, v in zip(upper[0][keep], upper[1][keep])]
    return build_sheaf_from_features(Graph(30, edges), features)


def count_solvers(monkeypatch):
    """Count every dense solver call, on both routes: numpy's ``eigh``,
    ``eigvalsh`` and ``cholesky``, and the LAPACK routines that
    ``operators._lapack`` binds, ``dsytrd`` (the first stage of each
    factored eigendecomposition, its workspace query left out) and
    ``dpotrf``. Also list, in call order, a copy of every matrix decomposed
    with eigenvectors, by ``eigh`` or by ``dsytrd``."""
    counts = dict.fromkeys(("eigh", "dsytrd", "eigvalsh", "cholesky", "dpotrf"), 0)
    decomposed = []
    for solver in ("eigh", "eigvalsh", "cholesky"):
        def solved(m, _solver=solver, _original=getattr(np.linalg, solver)):
            counts[_solver] += 1
            if _solver == "eigh":
                decomposed.append(np.array(m))
            return _original(m)

        monkeypatch.setattr(np.linalg, solver, solved)
    call = operators._Lapack.__call__

    def called(lapack, routine, *args):
        if routine == "dpotrf":
            counts[routine] += 1
        elif routine == "dsytrd" and args[-1] != -1:  # not the workspace query
            counts[routine] += 1
            decomposed.append(np.array(args[2].T))  # its matrix, held in Fortran order
        return call(lapack, routine, *args)

    monkeypatch.setattr(operators._Lapack, "__call__", called)
    return counts, decomposed
