"""Shared fixtures and the acceptance-criterion summary hook."""

from __future__ import annotations

import sys

from hypothesis import settings

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
