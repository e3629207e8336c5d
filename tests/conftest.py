"""Shared test plumbing: the acceptance tests register one pass/fail line
per criterion here so the lines appear in the terminal summary even when
stdout capture swallows the in-test prints; count_calls counts the calls
a pinned search makes."""

from collections import Counter

import pytest

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, *names) replaces each named function of the
    module by a wrapper that counts its calls in the returned Counter."""
    calls: Counter = Counter()

    def install(module, *names):
        for name in names:
            def counted(*args, real=getattr(module, name), name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    return install
