"""End-to-end acceptance gate: one test per promised result, each
reporting a single pass/fail line with its wall-clock budget.

Criteria 1, 2 and 4-11 read rows of the claim table in dichroma.claims
from the suite's one `verify-paper --level full` run (conftest.full_run).
Each asserts that its rows pass and counts the seconds the run reports for
them, so its budget bounds the rows' own work.  The brute-force
cross-checks live with the unit tests of the functions they check.

Criterion 3 re-runs exhaustive censuses that take hours; it is marked
`extended`, excluded by default (see pyproject), and honours the
DICHROMA_CENSUS8_CHECKPOINT / DICHROMA_CENSUS9_CHECKPOINT environment
variables so interrupted runs resume; without them its checkpoints live in
the test's own temporary directory.  Criterion 12 writes its checkpoint
under the test's own temporary directory, or at DICHROMA_T10_CHECKPOINT
when that is set.
"""

import json
import os
import time
from contextlib import contextmanager

import pytest

import conftest
from dichroma import enumeration
from dichroma.claims import CENSUS_8_3_WITNESS
from dichroma.cli import _positive_int
from dichroma.enumeration import dicritical_census, validate_census, verify_census_bound


def _record(line: str) -> None:
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


@contextmanager
def criterion(num: int, limit: float | None, description: str, spent: float = 0.0):
    """Times the block, plus spent seconds of work done before it, against
    limit, and records the criterion's pass/fail line."""
    t0 = time.monotonic() - spent
    try:
        yield
    except BaseException:
        _record(f"criterion {num:>2}: FAIL "
                f"({time.monotonic() - t0:.1f}s) {description}")
        raise
    elapsed = time.monotonic() - t0
    if limit is not None and elapsed >= limit:
        _record(f"criterion {num:>2}: FAIL ({elapsed:.1f}s over the "
                f"{limit:.0f}s budget) {description}")
        raise AssertionError(
            f"criterion {num} exceeded its {limit:.0f}s budget "
            f"({elapsed:.1f}s)"
        )
    budget = f" < {limit:.0f}s" if limit is not None else ""
    _record(f"criterion {num:>2}: PASS ({elapsed:.1f}s{budget}) {description}")


def _env_jobs() -> int:
    # parsed as the CLI parses it: a bad value fails before any work
    return _positive_int(os.environ.get("DICHROMA_JOBS", "1"))


@pytest.fixture
def rows(full_run):
    """rows(num, limit, description, *slugs): criterion num passes when the
    full run passed every named row within limit seconds of row time."""
    _, report, _ = full_run

    def check(num, limit, description, *slugs):
        spent = sum(report["timings"].get(slug, 0.0) for slug in slugs)
        with criterion(num, limit, description, spent):
            for slug in slugs:
                row = report["results"][slug]
                assert row["pass"], f"{slug}: {row['details']}"

    return check


def test_criterion_1_st11_is_4_dicritical(rows):
    rows(1, 60, "ST_11 has dichromatic number 4 and every arc deletion "
         "drops it to 3", "st11-dichromatic-4", "st11-4-dicritical")


def test_criterion_2_census_7_unique_and_6_empty(rows):
    rows(2, 600, "3-dicritical census: order 7 has a unique 20-arc witness, "
         "order 6 is empty", "census-6-3-empty", "census-7-3-min-20-unique")


@pytest.mark.extended
def test_criterion_3_census_8_and_9(tmp_path):
    # a census header does not name the build that wrote it, so a file
    # another build left in a shared directory would be trusted: the
    # defaults live with this run
    with criterion(3, None, "3-dicritical census: minimum arc counts 21 "
                   "(order 8) and 23 (order 9), each witness unique"):
        jobs = _env_jobs()
        rep8 = dicritical_census(
            8, 3, jobs=jobs,
            checkpoint=os.environ.get("DICHROMA_CENSUS8_CHECKPOINT",
                                      str(tmp_path / "census8.ckpt")),
        )
        assert rep8.count == 171
        assert rep8.min_arcs == 21
        assert rep8.witnesses == [CENSUS_8_3_WITNESS]
        assert validate_census(rep8) == []
        rep9 = dicritical_census(
            9, 3, jobs=jobs,
            checkpoint=os.environ.get("DICHROMA_CENSUS9_CHECKPOINT",
                                      str(tmp_path / "census9.ckpt")),
        )
        assert rep9.min_arcs == 23
        assert len(rep9.witnesses) == 1
        assert validate_census(rep9) == []


def test_criterion_4_order_6_tournaments(rows):
    rows(4, 5, "every tournament on 6 vertices is 2-dicolourable",
         "tournaments-6-2-dicolourable")


def test_criterion_5_stearns_bound(rows):
    rows(5, 300, "tournaments of order 4..8 form 4, 12, 56, 456 and 6880 "
         "classes, each with an induced acyclic set of floor(log2 n)+1 "
         "vertices", "stearns-tournaments", "stearns-tournaments-8")


def test_criterion_6_circulant_13_candidate(rows):
    rows(6, 300, "a 6-diregular circulant tournament on 13 vertices with "
         "maximum acyclic order 4 is found and its deletions stay dense",
         "circulant-13-no-tt5")


def test_criterion_7_reduction_equivalence(rows):
    rows(7, 300, "satisfiability matches 2-dicolourability on 50 seeded "
         "instances plus hand-embedded planar ones",
         "reduction-digon-equivalence-50")


def test_criterion_8_oriented_gadgets_and_reductions(rows):
    rows(8, 300, "oriented gadgets force their endpoints in every "
         "2-dicolouring; 20 digon-free compilations stay equivalent",
         "reduction-oriented-equivalence-20")


def test_criterion_9_structure_suite(rows):
    rows(9, 60, "500 random cacti meet the 3/2(n-1) edge bound with "
         "triangle-only tightness and have induced forests of 2n/3 "
         "vertices; the order-8 census witness passes the low-vertex check",
         "cactus-suite-500", "census-dicritical-gallai")


def test_criterion_10_bounds_suite(rows):
    rows(10, 1, "closed-form bounds reproduce the 12-row surface table and "
         "the frozen order-8 census witness is 3-dicritical",
         "surface-bounds-table")


def test_criterion_11_oracle_suites(rows):
    rows(11, 300, "on 200 seeded digraphs the solver's k-dicolourability "
         "agrees with brute force over all colour assignments",
         "solver-oracle-200")


def test_criterion_12_order_10_tournaments(tmp_path, monkeypatch):
    # a file left in the shared temp directory by another build would be
    # refused, or trusted, so the default lives with this run
    ckpt = os.environ.get("DICHROMA_T10_CHECKPOINT", str(tmp_path / "t10.ckpt"))
    orders = []  # the order of each digraph certified
    real = enumeration.canonical_labelling
    monkeypatch.setattr(enumeration, "canonical_labelling",
                        lambda d: orders.append(d.n) or real(d))
    with criterion(12, 180, "every tournament on 10 vertices is "
                   "3-dicolourable"):
        ok, cex = verify_census_bound(10, 3, jobs=_env_jobs(), checkpoint=ckpt)
        assert ok and cex is None
        with open(ckpt) as fh:
            header = json.loads(fh.readline())
        assert header["parents"] == 28308  # order-9 classes not 2-dicolourable
        # the first layer's canonical deletion: not one certificate per
        # uncovered order-9 child (260,288), nor per order-8 child (58,368)
        assert orders.count(9) <= 30000
        assert orders.count(8) == 7812
