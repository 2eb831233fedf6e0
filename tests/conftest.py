"""Shared pytest configuration.

Collects the one-line verdicts emitted by the acceptance suite and repeats
them in the terminal summary, where they are visible even though pytest
captures stdout during the tests themselves, and counts kernel calls for
the tests of the answers that functions and measures keep.
"""

from __future__ import annotations

import pytest

from monotonia import _backend

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def split_calls(monkeypatch):
    """The number of cells of each ``sign_split_sums`` call, as a list that grows."""
    calls = []
    reduce = _backend.sign_split_sums

    def counting(masses):
        calls.append(masses.shape[0])
        return reduce(masses)

    monkeypatch.setattr(_backend, "sign_split_sums", counting)
    return calls
