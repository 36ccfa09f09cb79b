"""Shared fixtures, the reference noise model and the acceptance-criterion
summary hook."""

from __future__ import annotations

import sys

import numpy as np
from hypothesis import settings

from sheafgauge.sheaves import rotation_matrix

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
