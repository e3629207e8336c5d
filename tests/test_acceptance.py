"""End-to-end acceptance gate: one test per promised result, each
reporting a single pass/fail line with its wall-clock budget.

Criteria 1, 2 and 4-11 run the rows of the claim table in dichroma.claims
that `verify-paper --level full` runs, sharing one census across the
module; only the cross-checks that need the brute-force oracles of
tests/bruteforce.py are written out here.

Criterion 3 re-runs exhaustive censuses that take hours; it is marked
`extended`, excluded by default (see pyproject), and honours the
DICHROMA_CENSUS8_CHECKPOINT / DICHROMA_CENSUS9_CHECKPOINT environment
variables so interrupted runs resume.  Criterion 12 writes its checkpoint
under the test's own temporary directory, or at DICHROMA_T10_CHECKPOINT
when that is set.
"""

import itertools
import json
import os
import random
import tempfile
import time
from contextlib import contextmanager

import pytest

import conftest
from dichroma import enumeration
from dichroma.canon import canonical_cert
from dichroma.claims import CENSUS_8_3_WITNESS, CLAIMS, ClaimContext
from dichroma.cli import _positive_int
from dichroma.digraphs import Digraph
from dichroma.enumeration import dicritical_census, validate_census, verify_census_bound
from dichroma.solver import (
    is_list_dicolourable, max_induced_acyclic, verify_dicolouring
)
from dichroma.structure import cactus_induced_forest, random_cactus

from bruteforce import (
    brute_max_induced_acyclic,
    brute_tournament_classes,
    is_forest,
    kahn_acyclic,
    random_digraph,
)

SEED = 20260825


def _record(line: str) -> None:
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


@contextmanager
def criterion(num: int, limit: float | None, description: str):
    t0 = time.monotonic()
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


def _checkpoint(env: str, default_name: str) -> str:
    return os.environ.get(
        env, os.path.join(tempfile.gettempdir(), default_name)
    )


def _env_jobs() -> int:
    # parsed as the CLI parses it: a bad value fails before any work
    return _positive_int(os.environ.get("DICHROMA_JOBS") or "1")


@pytest.fixture(scope="module")
def claims():
    """Run claim-table rows by slug, asserting each passes; one context
    serves the module, so census(7, 3) is computed once."""
    ctx = ClaimContext(SEED, 1)
    checks = {slug: check for slug, _, _, check in CLAIMS}

    def run(*slugs):
        for slug in slugs:
            ok, details = ctx.run(checks[slug])
            assert ok, f"{slug}: {details}"

    return run


def test_criterion_1_st11_is_4_dicritical(claims):
    with criterion(1, 60, "ST_11 has dichromatic number 4 and every arc "
                   "deletion drops it to 3"):
        claims("st11-dichromatic-4", "st11-4-dicritical")


def test_criterion_2_census_7_unique_and_6_empty(claims):
    with criterion(2, 600, "3-dicritical census: order 7 has a unique "
                   "20-arc witness, order 6 is empty"):
        claims("census-6-3-empty", "census-7-3-min-20-unique")


@pytest.mark.extended
def test_criterion_3_census_8_and_9():
    with criterion(3, None, "3-dicritical census: minimum arc counts 21 "
                   "(order 8) and 23 (order 9), each witness unique"):
        jobs = _env_jobs()
        rep8 = dicritical_census(
            8, 3, jobs=jobs,
            checkpoint=_checkpoint("DICHROMA_CENSUS8_CHECKPOINT",
                                   "census8.ckpt"),
        )
        assert rep8.count == 171
        assert rep8.min_arcs == 21
        assert rep8.witnesses == [CENSUS_8_3_WITNESS]
        assert validate_census(rep8) == []
        rep9 = dicritical_census(
            9, 3, jobs=jobs,
            checkpoint=_checkpoint("DICHROMA_CENSUS9_CHECKPOINT",
                                   "census9.ckpt"),
        )
        assert rep9.min_arcs == 23
        assert len(rep9.witnesses) == 1
        assert validate_census(rep9) == []


def test_criterion_4_order_6_tournaments(claims):
    with criterion(4, 5, "all 56 tournaments on 6 vertices are "
                   "2-dicolourable"):
        claims("tournaments-6-2-dicolourable")


def test_criterion_5_stearns_bound(claims):
    with criterion(5, 300, "every tournament of order 4..8 contains an "
                   "induced acyclic set of floor(log2 n)+1 vertices"):
        claims("stearns-tournaments", "stearns-tournaments-8")
        # independent class counts up to order 6
        for n, count in ((4, 4), (5, 12)):
            assert len(brute_tournament_classes(n)) == count
        pairs = list(itertools.combinations(range(6), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            arcs = [
                (u, v) if not bits >> i & 1 else (v, u)
                for i, (u, v) in enumerate(pairs)
            ]
            seen.add(canonical_cert(Digraph.from_arcs(6, arcs)))
        assert len(seen) == 56


def test_criterion_6_circulant_13_candidate(claims):
    with criterion(6, 300, "a 6-diregular circulant tournament on 13 "
                   "vertices with maximum acyclic order 4 is found and its "
                   "deletions stay dense"):
        claims("circulant-13-no-tt5")


def test_criterion_7_reduction_equivalence(claims):
    with criterion(7, 300, "satisfiability matches 2-dicolourability on 50 "
                   "seeded instances plus hand-embedded planar ones"):
        claims("reduction-digon-equivalence-50")


def test_criterion_8_oriented_gadgets_and_reductions(claims):
    with criterion(8, 300, "oriented gadgets force their endpoints in every "
                   "2-dicolouring; 20 digon-free compilations stay "
                   "equivalent"):
        claims("reduction-oriented-equivalence-20")


def test_criterion_9_structure_suite(claims):
    with criterion(9, 60, "500 random cacti meet the 3/2(n-1) edge bound "
                   "with triangle-only tightness and the 2n/3 induced "
                   "forest bound; census graphs pass the low-vertex check"):
        claims("cactus-suite-500", "census-dicritical-gallai")
        # the row's cacti again, their forests checked by the oracle
        rng = random.Random(SEED)
        for _ in range(500):
            n = rng.randint(1, 40)
            g = random_cactus(n, seed=rng.getrandbits(32))
            assert is_forest(g, cactus_induced_forest(g))


def test_criterion_10_bounds_suite(claims):
    with criterion(10, 1, "closed-form bounds reproduce the 12-row "
                   "surface table and every census witness respects the "
                   "applicable bounds"):
        claims("surface-bounds-table")


def test_criterion_11_oracle_suites(claims):
    with criterion(11, 300, "solver, acyclic-set search and list "
                   "dicolouring agree with brute-force oracles"):
        claims("solver-oracle-200")
        rng = random.Random(SEED)
        for _ in range(100):
            d = random_digraph(rng, rng.randint(1, 12), 0.3)
            best = max_induced_acyclic(d)
            assert kahn_acyclic(d, best)
            assert len(best) == brute_max_induced_acyclic(d)
        for _ in range(100):
            d = random_digraph(rng, rng.randint(1, 8), 0.4)
            pool = range(1, 2 * d.n + 2)
            lists = [
                sorted(rng.sample(
                    pool,
                    max(d.out_degree(v), d.in_degree(v)) + 1,
                ))
                for v in range(d.n)
            ]
            col = is_list_dicolourable(d, lists)
            assert col is not None
            assert verify_dicolouring(d, col, lists=lists)


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
