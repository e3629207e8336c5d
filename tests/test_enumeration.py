import hashlib
import itertools
import json
import random
from functools import lru_cache
from math import comb

import pytest

from dichroma.canon import canonical_cert, canonical_form
from dichroma.digraphs import (
    bidirect,
    build_digraph,
    build_graph,
    is_oriented,
)
from dichroma.enumeration import (
    GEN_CAP,
    _census_graph_task,
    arboricity,
    dicritical_census,
    gen_graphs,
    gen_orientations,
    gen_tournaments,
    validate_census,
)
from dichroma.formats import d6_decode, d6_encode
from dichroma.solver import is_dicritical

from bruteforce import (
    brute_digraph_classes,
    brute_graph_classes,
    brute_orientation_classes,
    brute_tournament_classes,
    is_forest,
    random_graph,
)


def test_gen_graphs_counts():
    assert [len(gen_graphs(n, 0)) for n in range(1, 6)] == [1, 2, 4, 11, 34]
    assert len(gen_graphs(6, 0)) == 156
    assert len(gen_graphs(4, 3)) == 1  # K4 only


def test_gen_graphs_matches_bruteforce_with_floor():
    for n in range(1, 6):
        for floor in range(n):
            ours = gen_graphs(n, floor)
            brute = brute_graph_classes(n, floor)
            assert len(ours) == len(brute)
            assert all(g.n == n for g in ours)
            assert all(
                min(g.degree(v) for v in range(n)) >= floor for g in ours
            )


def _max_degree_two_count(n: int) -> int:
    """Graphs with max degree <= 2 are disjoint unions of paths and cycles,
    so the class count is a coloured-partition count: one shape per size
    below 3, two shapes (path, cycle) from size 3 on."""
    kinds = {s: (1 if s < 3 else 2) for s in range(1, n + 1)}

    @lru_cache(maxsize=None)
    def count(remaining: int, max_size: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for s in range(min(remaining, max_size), 0, -1):
            j = 1
            while j * s <= remaining:
                total += comb(kinds[s] + j - 1, j) * count(
                    remaining - j * s, s - 1
                )
                j += 1
        return total

    return count(n, n)


def test_gen_graphs_complement_crosscheck():
    # min degree >= 4 on 7 vertices is, under complement, max degree <= 2
    dense = gen_graphs(7, 4)
    assert len(dense) == _max_degree_two_count(7)
    for g in dense:
        assert min(g.degree(v) for v in range(7)) >= 4


def test_gen_graphs_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_graphs(0, 0)
    with pytest.raises(ValueError):
        gen_graphs(GEN_CAP + 1, 0)
    with pytest.raises(ValueError):
        gen_graphs(3, 3)
    with pytest.raises(ValueError):
        gen_graphs(3, -1)


def test_arboricity_examples():
    k4 = build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    k5 = build_graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    tree = build_graph(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    assert arboricity(k4) == 2
    assert arboricity(k5) == 3
    assert arboricity(c5) == 2
    assert arboricity(tree) == 1


def _brute_arboricity(g):
    """Fewest classes each inducing a forest, over all k^n assignments."""
    n = g.n
    for k in itertools.count(1):
        for colour in itertools.product(range(k), repeat=n):
            if all(
                is_forest(g, [v for v in range(n) if colour[v] == c])
                for c in range(k)
            ):
                return k


def test_arboricity_vs_bruteforce():
    graphs = [g for n in range(1, 7) for g in gen_graphs(n, 0)]
    assert len(graphs) == 208
    for g in graphs:
        assert arboricity(g) == _brute_arboricity(g)


def test_arboricity_long_path():
    # one search frame per vertex, past Python's default recursion limit
    n = 1200
    assert arboricity(build_graph(n, [(v, v + 1) for v in range(n - 1)])) == 1


def test_gen_orientations_matches_bruteforce():
    rng = random.Random(7)
    graphs = [random_graph(rng, rng.randint(1, 5), 0.5) for _ in range(12)]
    graphs.append(build_graph(4, [(a, b) for a in range(4)
                                  for b in range(a + 1, 4)]))
    cases = [(g, floors) for g in graphs for floors in ((0, 0), (1, 1))]
    # floors (2, 2) on minimum degree 4 leave a vertex little slack, so
    # degree-forced arcs bind; K6 is left out, its brute force takes seconds
    cases += [(g, (2, 2)) for g in gen_graphs(6, 4) if g.m < 15]
    for g, floors in cases:
        ours = gen_orientations(g, *floors)
        brute = brute_orientation_classes(g, *floors)
        assert len(ours) == len(brute)
        assert brute_digraph_classes(ours) == brute_digraph_classes(brute)
        for d in ours:
            assert is_oriented(d)
            assert d.m == g.m


def test_census_task_matches_unfiltered_stream():
    # the census worker prunes by dicolouring; the reference orients every
    # order-7 census graph without any colouring and checks each class
    graphs = [g for g in gen_graphs(7, 4) if arboricity(g) >= 3]
    assert len(graphs) == 13
    for g in graphs:
        g6 = d6_encode(bidirect(g))
        want = sorted(
            d6_encode(canonical_form(d))
            for d in gen_orientations(g, 2, 2)
            if is_dicritical(d, 3).is_dicritical
        )
        assert _census_graph_task((g6, 3))["dicritical"] == want


def test_gen_tournaments_counts_and_classes():
    assert [len(gen_tournaments(n)) for n in range(1, 8)] == [
        1, 1, 2, 4, 12, 56, 456,
    ]
    for n in range(1, 6):
        ours = gen_tournaments(n)
        assert all(is_oriented(d) and d.m == n * (n - 1) // 2 for d in ours)
        assert brute_digraph_classes(ours) == brute_digraph_classes(
            brute_tournament_classes(n)
        )
    with pytest.raises(ValueError):
        gen_tournaments(0)


def test_generated_representatives_are_frozen():
    # The representatives and their order feed stored results (census
    # inputs, the hard classes of the tournament bound, the benchmark
    # reference), so a reordering must fail here, not only a miscount.
    h = hashlib.sha256()
    for t in gen_tournaments(7):
        h.update(d6_encode(t).encode() + b"\n")
    for d in range(7):
        for g in gen_graphs(7, d):
            h.update(d6_encode(bidirect(g)).encode() + b"\n")
    assert h.hexdigest() == (
        "3ebf28ed2b6327e7afe48455f61fc6f2a23f27db540fc86b279863f0efb593c8"
    )


def test_census_two_dicritical_is_single_directed_cycle():
    for n in (3, 4, 5):
        rep = dicritical_census(n, 2)
        assert rep.count == 1
        assert rep.min_arcs == n
        assert len(rep.witnesses) == 1
        cyc = build_digraph(n, [(i, (i + 1) % n) for i in range(n)])
        assert canonical_cert(d6_decode(rep.witnesses[0])) == canonical_cert(cyc)
        assert validate_census(rep) == []


def test_census_six_three_is_empty():
    rep = dicritical_census(6, 3)
    assert rep.count == 0
    assert rep.min_arcs is None
    assert rep.witnesses == []
    assert validate_census(rep) == []


def test_census_jobs_agree():
    base = dicritical_census(5, 2)
    jobs = dicritical_census(5, 2, jobs=2)
    assert jobs.count == base.count
    assert jobs.min_arcs == base.min_arcs
    assert jobs.all_dicritical == base.all_dicritical


def test_census_checkpoint_resume(tmp_path):
    ck = tmp_path / "census.ckpt"
    first = dicritical_census(5, 2, checkpoint=str(ck))
    lines = [ln for ln in ck.read_text().splitlines() if ln.strip()]
    # the header binds the run; changing it would orphan old checkpoints
    assert json.loads(lines[0]) == {"kind": "census", "n": 5, "k": 2,
                                    "filter": "vertex"}
    assert len(lines) > 2

    # truncate to a genuine partial run, then resume
    partial = tmp_path / "partial.ckpt"
    partial.write_text("\n".join(lines[:2]) + "\n")
    resumed = dicritical_census(5, 2, checkpoint=str(partial))
    assert resumed.all_dicritical == first.all_dicritical
    assert resumed.count == first.count

    # a finished checkpoint answers without recomputation
    again = dicritical_census(5, 2, checkpoint=str(ck))
    assert again.all_dicritical == first.all_dicritical

    # a kill mid-write leaves the last record cut mid-line; it is dropped
    # and recomputed, giving the same file and report
    finished = ck.read_bytes()
    torn = tmp_path / "torn.ckpt"
    torn.write_bytes(finished[: finished.rstrip(b"\n").rfind(b"\n") + 10])
    resumed = dicritical_census(5, 2, checkpoint=str(torn))
    assert torn.read_bytes() == finished
    for rep in (first, resumed):
        del rep.stats["seconds"]
    assert json.dumps(resumed.to_json()) == json.dumps(first.to_json())

    # checkpoints are bound to their run parameters
    with pytest.raises(ValueError):
        dicritical_census(4, 2, checkpoint=str(ck))


def test_census_rejects_bad_parameters():
    with pytest.raises(ValueError):
        dicritical_census(4, 1)


def test_census_report_json_shape():
    rep = dicritical_census(4, 2)
    blob = rep.to_json()
    assert blob["n"] == 4 and blob["k"] == 2
    assert blob["count"] == 1
    assert set(blob["stats"]) >= {
        "graphs", "graphs_after_arboricity", "orientation_candidates",
        "seconds",
    }
