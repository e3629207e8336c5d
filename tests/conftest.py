"""Shared test plumbing: the acceptance tests register one pass/fail line
per criterion here so the lines appear in the terminal summary even when
stdout capture swallows the in-test prints; quick_run and full_run run
verify-paper once per session at each level, counting the calls of the
searches in RUN_SEARCHES; count_calls counts the calls a pinned search
makes.  The property tests draw their examples under one hypothesis
profile: derandomized, so every run draws the same examples, and with no
deadline, so a slow host cannot fail a correct example."""

import contextlib
import io
import json
from collections import Counter

import pytest
from hypothesis import settings

from dichroma import canon, claims, solver, structure
from dichroma.cli import main

settings.register_profile("dichroma", derandomize=True, deadline=None)
settings.load_profile("dichroma")

ACCEPTANCE_LINES: list[str] = []
# the searches whose calls a session's verify-paper run counts
RUN_SEARCHES = ((solver, "_shortest_cycle"), (structure, "_lowpoint_blocks"),
                (canon, "_canon"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _counted(calls: Counter, key, real):
    """real, counting each call under key in calls."""
    def counted(*args, **kwargs):
        calls[key] += 1
        return real(*args, **kwargs)
    return counted


def _verify_paper(workdir, *flags):
    """verify-paper --json with flags, run in workdir, where failure
    artifacts land: (exit code, JSON report, calls), calls counting the
    runs of each census by (n, k) and the calls of each of RUN_SEARCHES by
    name."""
    census = claims.dicritical_census
    calls: Counter = Counter()
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            claims, "dicritical_census",
            lambda n, k, **kwargs: calls.update([(n, k)]) or census(n, k, **kwargs),
        )
        for module, name in RUN_SEARCHES:
            mp.setattr(module, name, _counted(calls, name, getattr(module, name)))
        mp.chdir(workdir)
        with contextlib.redirect_stdout(out):
            code = main(["verify-paper", "--json", *flags])
    return code, json.loads(out.getvalue()), calls


@pytest.fixture(scope="session")
def quick_run(tmp_path_factory):
    """The session's one verify-paper run at its default level."""
    return _verify_paper(tmp_path_factory.mktemp("quick"))


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    """The session's one verify-paper --level full run, which the
    acceptance gate reads."""
    return _verify_paper(tmp_path_factory.mktemp("full"), "--level", "full")


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, *names) replaces each named function of the
    module by a wrapper that counts its calls in the returned Counter."""
    calls: Counter = Counter()

    def install(module, *names):
        for name in names:
            monkeypatch.setattr(module, name, _counted(calls, name, getattr(module, name)))
        return calls

    return install
