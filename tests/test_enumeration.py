import concurrent.futures
import functools
import hashlib
import itertools
import json
import os
import random
import re
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from dichroma import canon, claims, enumeration
from dichroma.canon import canonical_cert, canonical_form, canonical_labelling
from dichroma.certify import class_count
from dichroma.cli import main
from dichroma.digraphs import (
    Digraph,
    bidirect,
    circulant_tournament,
    delete_vertex,
    is_oriented,
    iter_bits,
    mask_of,
)
from dichroma.enumeration import (
    GEN_CAP,
    CensusReport,
    _census_graph_task,
    _hard_classes,
    _orientation_stream,
    arboricity,
    dicritical_census,
    gen_graphs,
    gen_tournaments,
    validate_census,
    verify_census_bound,
)
from dichroma.formats import d6_decode, d6_encode
from dichroma.solver import (
    _extend_tournament,
    _saturation_order,
    is_dicritical,
    is_k_dicolourable,
)

from bruteforce import (
    brute_arboricity,
    brute_digraph_classes,
    brute_first_lower,
    brute_graph_classes,
    brute_graph_extend,
    brute_levels,
    brute_mixed_cert,
    brute_orientation_classes,
    brute_uncovered,
    colouring_ok,
    graph,
    random_graph,
)


def test_gen_graphs_matches_bruteforce_with_floor():
    for n in range(1, 6):
        for floor in range(n):
            ours = gen_graphs(n, floor)
            brute = brute_graph_classes(n, floor)
            assert len(ours) == len(brute)
            assert all(g.n == n for g in ours)
            assert all(
                min(g.out_degree(v) for v in range(n)) >= floor for g in ours
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
        assert min(g.out_degree(v) for v in range(7)) >= 4


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
    k4 = graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    k5 = graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    c5 = graph(5, [(i, (i + 1) % 5) for i in range(5)])
    tree = graph(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    assert arboricity(k4) == 2
    assert arboricity(k5) == 3
    assert arboricity(c5) == 2
    assert arboricity(tree) == 1
    assert arboricity(graph(0, [])) == 0


def test_arboricity_work_is_frozen(count_calls):
    # the forest tests the walk makes, and the graphs the census filter
    # keeps: its vertex and colour order, not only its answers, must
    # survive changes to the walk
    calls = count_calls(enumeration, "_closes_forest_cycle")
    got = []
    for n in (7, 8):
        calls.clear()
        kept = sum(arboricity(g) >= 3 for g in gen_graphs(n, 4))
        got.append((calls["_closes_forest_cycle"], kept))
    assert got == [(1249, 13), (22096, 174)]


def test_a_faulty_forest_walk_is_caught(monkeypatch, capsys):
    # the census drops every graph the walk splits into k - 1 forests, a
    # graph no census check sees again; a forest test that never blocks
    # puts all of K4 in one class, and the leaf peel refuses it
    monkeypatch.setattr(enumeration, "_closes_forest_cycle", lambda *a: False)
    k4 = graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    with pytest.raises(RuntimeError, match="1-forest partition"):
        arboricity(k4)
    assert main(["census", "7", "3"]) == 3
    assert capsys.readouterr().err.startswith("internal error: ")


def test_arboricity_vs_bruteforce():
    graphs = [g for n in range(1, 7) for g in gen_graphs(n, 0)]
    assert len(graphs) == 208
    for g in graphs:
        assert arboricity(g) == brute_arboricity(g)


def test_arboricity_long_path():
    # one search frame per vertex, past Python's default recursion limit
    n = 1200
    assert arboricity(graph(n, [(v, v + 1) for v in range(n - 1)])) == 1


def test_gen_orientations_matches_bruteforce():
    rng = random.Random(7)
    graphs = [random_graph(rng, rng.randint(1, 5), 0.5) for _ in range(12)]
    graphs.append(graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]))
    cases = [(g, floor) for g in graphs for floor in (0, 1)]
    # floor 2 on minimum degree 4 leaves a vertex little slack, so
    # degree-forced arcs bind; K6 is left out, its brute force takes seconds
    cases += [(g, 2) for g in gen_graphs(6, 4) if g.m < 30]
    for g, floor in cases:
        ours = _orientation_stream(g, floor)[0]
        brute = brute_orientation_classes(g, floor, floor)
        assert len(ours) == len(brute)
        assert brute_digraph_classes(ours) == brute_digraph_classes(brute)
        for d in ours:
            assert is_oriented(d)
            assert 2 * d.m == g.m


def _census_tasks(n):
    return [
        (d6_encode(g), 3) for g in gen_graphs(n, 4) if arboricity(g) >= 3
    ]


def test_census_task_matches_unfiltered_stream(count_calls):
    # the census worker prunes by dicolouring; the reference orients every
    # order-7 census graph without any colouring and checks each class.
    # The worker's solver calls are frozen: 3,902 when a child tried its
    # parent's colouring alone, before the pool of its siblings' colourings
    calls = count_calls(enumeration, "is_k_dicolourable")
    tasks = _census_tasks(7)
    results = [_census_graph_task(task) for task in tasks]
    assert len(results) == 13
    assert calls["is_k_dicolourable"] == 1684
    assert sum(r["candidates"] for r in results) == 17920
    assert sum(len(r["dicritical"]) for r in results) == 3
    for (g6, _), result in zip(tasks, results):
        want = sorted(
            d6_encode(canonical_form(d))
            for d in _orientation_stream(d6_decode(g6), 2)[0]
            if is_dicritical(d, 3).is_dicritical
        )
        assert result["dicritical"] == want


def test_census_stream_and_generation_find_one_set_of_hard_tournaments():
    # two engines, one answer: the census stream on K_n with floor 0 keeps
    # the tournament classes that are not 2-dicolourable and have a labelling
    # whose first n - 1 vertices are, so (prefixes being hereditary) a
    # 2-dicolourable vertex deletion; generation's _hard_classes keeps every
    # class that is not 2-dicolourable.  A hard class the stream omits must
    # have every deletion hard (none does at these orders)
    for n, count in ((7, 4), (8, 258)):
        k_n = graph(n, itertools.combinations(range(n), 2))
        streamed = [canonical_cert(d) for d in _orientation_stream(k_n, 0, colours=2)[0]]
        seen = set(streamed)
        hard = {canonical_cert(t): t for t in map(d6_decode, _hard_classes(n, 2))}
        assert len(seen) == len(streamed) and seen <= hard.keys()
        omitted = [t for cert, t in hard.items() if cert not in seen]
        assert not any(
            is_k_dicolourable(delete_vertex(t, v), 2) is not None
            for t in omitted for v in range(n)
        )
        assert (len(streamed), len(hard)) == (count, count)


def test_stream_passes_each_candidate_its_own_solver_order(monkeypatch):
    # the stream computes the solver's vertex order once per level, from
    # g's prefix; on every order-7 census task, and on orientations of
    # random graphs, it is the order _dfs_colour computes for the candidate.
    # Each candidate also arrives with its in-rows set, derived from g's
    # prefix and not by Digraph.in_rows' transpose, and they are the
    # transpose of its rows: verify_dicolouring reads them
    asked = []
    real = enumeration.is_k_dicolourable

    def checked(d, k, seq):
        assert d._irows == tuple(
            mask_of(u for u in range(d.n) if d.rows[u] >> v & 1) for v in range(d.n)
        ), d
        assert seq == _saturation_order(d), (d, seq)
        asked.append(d.n)
        return real(d, k, seq)

    monkeypatch.setattr(enumeration, "is_k_dicolourable", checked)
    for task in _census_tasks(7):
        _census_graph_task(task)
    census = len(asked)
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 6), rng.uniform(0.3, 0.9))
        _orientation_stream(g, rng.choice((0, 1)), colours=rng.choice((1, 2)))
    assert census and len(asked) > census


def _pool_takes(pool, rows, into, t):
    """The (colouring, slot) pairs of the pool, in its order, whose class
    takes vertex t and stays acyclic in the candidate's prefix, by Kahn's
    peel on the prefix built as a Digraph; into is t's in-row."""
    child = list(rows[: t + 1])
    for w in iter_bits(into):
        child[w] |= 1 << t
    d = Digraph(t + 1, child)
    for classes in pool:
        col = [0] * (t + 1)
        for c, cmask in enumerate(classes):
            for v in iter_bits(cmask):
                col[v] = c
        for c in range(len(classes)):
            col[t] = c
            if colouring_ok(d, col):
                yield classes, c


def test_pool_answers_are_dicolourings(monkeypatch):
    # the pooled colouring and slot _extend returns is the first in pool
    # order whose class takes t, and _settles says yes exactly when one
    # does: on every order-7 census task, and on random graphs' streams
    asked = []
    real_extend, real_settles = enumeration._extend, enumeration._settles

    def extend(pool, rows, into, t):
        hit = real_extend(pool, rows, into, t)
        assert hit == next(_pool_takes(pool, rows, into, t), None)
        asked.append(hit is not None)
        return hit

    def settles(pool, rows, into, t):
        yes = real_settles(pool, rows, into, t)
        assert yes == any(_pool_takes(pool, rows, into, t))
        asked.append(yes)
        return yes

    monkeypatch.setattr(enumeration, "_extend", extend)
    monkeypatch.setattr(enumeration, "_settles", settles)
    for task in _census_tasks(7):
        _census_graph_task(task)
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 7), rng.uniform(0.3, 0.9))
        _orientation_stream(g, rng.choice((0, 1)), colours=rng.choice((1, 2)))
    assert True in asked and False in asked


def test_mixed_cert_matches_digraph_cert(monkeypatch):
    # every state the order-6 and order-7 census tasks certify, the final
    # ones included, and those of colour-free streams of random graphs, gets
    # from its level's certifier the bytes of _canon on the mixed Digraph
    # with the two cells
    certified = []
    real = enumeration._level_certifier

    def checked(g, s):
        cert_of = real(g, s)

        def both(rows):
            cert = cert_of(rows)
            assert cert == brute_mixed_cert(g.n, rows, g, s)
            certified.append(cert)
            return cert

        return both

    monkeypatch.setattr(enumeration, "_level_certifier", checked)
    for task in _census_tasks(6) + _census_tasks(7):
        _census_graph_task(task)
    assert len(certified) == 6969  # the pool changes no certificate work
    rng = random.Random(19)
    for _ in range(8):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        _orientation_stream(g, rng.choice((0, 1)))
    assert len(certified) > 6969


def test_gen_tournaments_counts_and_classes():
    for n in range(1, 6):
        ours = gen_tournaments(n)
        assert all(is_oriented(d) and d.m == n * (n - 1) // 2 for d in ours)
        k_n = graph(n, itertools.combinations(range(n), 2))
        assert brute_digraph_classes(ours) == brute_digraph_classes(
            brute_orientation_classes(k_n)
        )
    # order 6: all 2^15 labelled tournaments certify to the 56 classes
    pairs = list(itertools.combinations(range(6), 2))
    seen = set()
    for bits in range(1 << len(pairs)):
        arcs = [
            (u, v) if not bits >> i & 1 else (v, u)
            for i, (u, v) in enumerate(pairs)
        ]
        seen.add(canonical_cert(Digraph.from_arcs(6, arcs)))
    assert len(seen) == 56
    for n in (0, GEN_CAP + 1):
        with pytest.raises(ValueError):
            gen_tournaments(n)


def test_class_count_matches_oeis_and_the_generators():
    # Burnside's counts: OEIS A000568 (tournaments) and A000088 (graphs),
    # and the length of every unfiltered generated list up to order 7
    assert [class_count(n, "tournament") for n in range(13)] == [
        1, 1, 1, 2, 4, 12, 56, 456, 6880, 191536, 9733056, 903753248,
        154108311168,
    ]
    assert [class_count(n, "graph") for n in range(11)] == [
        1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168,
    ]
    for n in range(1, 8):
        assert len(gen_tournaments(n)) == class_count(n, "tournament")
        assert len(gen_graphs(n, 0)) == class_count(n, "graph")
    with pytest.raises(ValueError, match="kind"):
        class_count(4, "digraph")


def test_stearns_row_fails_when_generation_skips_a_mask(monkeypatch):
    # the order-7 Stearns row counts its list against class_count, so a
    # last level that skips one mask it should certify (here the fourth of
    # the first parent, whose class no other certified mask reaches) fails it
    least = enumeration._orbit_least
    parents = []

    def skip_one(masks, autos, t):
        kept = least(masks, autos, t)
        parents.append(t)
        if parents == [6]:
            del kept[3]
        return kept

    assert claims._stearns(None, (7,)) == (True, {"7": 456})
    monkeypatch.setattr(enumeration, "_orbit_least", skip_one)
    assert claims._stearns(None, (7,)) == (False, {"7": 455, "failed": ["count"]})


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
    # order 8, where the last level skips most certificates; these digests
    # were taken from the generators that certified every child
    tournaments = hashlib.sha256()
    for t in gen_tournaments(8):
        tournaments.update(d6_encode(t).encode() + b"\n")
    assert tournaments.hexdigest() == (
        "e255bfad9191f9df850017b59643340353fdc22740d7d8adf174854f956faf3b"
    )
    graphs = hashlib.sha256()
    for g in gen_graphs(8, 4):
        graphs.update(d6_encode(bidirect(g)).encode() + b"\n")
    assert graphs.hexdigest() == (
        "6375a88a8b1e1090c46e29c64157a412bd0eea59467a6870703f11654a108b15"
    )


def _hard_rule(n: int, k: int):
    """_hard_classes(n, k)'s extension rule, written out: a child of the
    last level is kept when brute_uncovered, the parent's cover by every
    colouring, leaves its mask."""
    left = {}

    def extend(parent: Digraph, mask: int) -> Digraph | None:
        if parent.n == n - 1:
            if parent.rows not in left:
                left[parent.rows] = set(brute_uncovered(parent, k))
            if mask not in left[parent.rows]:
                return None
        return _extend_tournament(parent, mask)

    return extend


def _generation_jobs():
    """gen_tournaments(1..7), gen_graphs(1..7, d) for every d,
    _hard_classes(7, 1) and _hard_classes(8, 2), each with an extension
    rule written apart from generation's (None for a filtered child):
    every child for gen_tournaments, bruteforce's for gen_graphs, and
    _hard_rule's."""
    jobs = [(functools.partial(gen_tournaments, n), _extend_tournament) for n in range(1, 8)]
    jobs += [
        (functools.partial(gen_graphs, n, d), brute_graph_extend(n, d))
        for n in range(1, 8) for d in range(n)
    ]
    jobs += [(functools.partial(_hard_classes, *nk), _hard_rule(*nk)) for nk in ((7, 1), (8, 2))]
    return jobs


def _each_generation(monkeypatch, jobs):
    """Runs each (job, rule) of jobs, yielding per _generate(n, extend,
    admitted) call, after it has run, n, the rule, the reps it returned
    and, per parent in the order asked, (parent, its admitted masks)."""
    runs = []
    generate = enumeration._generate

    def recorded(n, extend, admitted):
        asked = []
        reps = generate(n, extend, lambda p: asked.append((p, admitted(p))) or asked[-1][1])
        runs.append((n, reps, asked))
        return reps

    monkeypatch.setattr(enumeration, "_generate", recorded)
    for job, rule in jobs:
        job()
        n, reps, asked = runs[-1]
        yield n, rule, reps, asked
    assert len(runs) == len(jobs)


@pytest.fixture(scope="module")
def generations():
    """Every generation of _generation_jobs, walked once for the tests
    below, with brute_levels certifying every child at every level built
    once per _generate call: per call, (n, extend, the returned reps, the
    reference levels, the _first_lower calls as (ranks, masks, row), the
    _labels calls as (origin, t, under, labelling), the admitted masks as
    (parent, masks))."""
    labels, first_lower = enumeration._labels, enumeration._first_lower
    labelled, lowered, walked = [], [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            enumeration, "_labels", lambda *a: labelled.append((*a, labels(*a))) or labelled[-1][3]
        )
        mp.setattr(
            enumeration, "_first_lower",
            lambda *a: lowered.append((a[2], a[3], first_lower(*a))) or lowered[-1][2],
        )
        for n, extend, got, asked in _each_generation(mp, _generation_jobs()):
            walked.append(
                (n, extend, got, brute_levels(n, extend), lowered[:], labelled[:], asked)
            )
            labelled.clear()
            lowered.clear()
    return walked


def test_generators_match_certifying_every_child(generations):
    # the skipped children are duplicates only: same representatives, same
    # order as certifying every child, for every floor
    for n, _, got, levels, _, _, _ in generations:
        assert got == levels[-1][0], n


def test_kept_masks_match_labelling_every_deletion(generations):
    # at every level, every parent finds, per admitted mask, the first
    # deletion that ranks below it, as labelling each deletion by a fresh
    # canonical search does; the masks where none does are those it
    # certifies
    for n, _, _, levels, lowered, _, _ in generations:
        want = brute_first_lower(levels)
        assert len(lowered) == len(want), n
        for (_, masks, row), full in zip(lowered, want):
            assert row == [full[x] for x in masks], n


def test_admitted_masks_are_the_rule_s_and_unions_of_orbits(generations, monkeypatch):
    # every parent of every level admits, ascending, exactly the masks
    # whose child the independent rule keeps, and each automorphism its
    # certifying search found maps them onto themselves, as canonical
    # deletion and the orbit step need; gen_graphs(8, 4) is walked here,
    # without the fixture's reference levels
    walks = [(rule, asked) for _, rule, _, _, _, _, asked in generations]
    job = (functools.partial(gen_graphs, 8, 4), brute_graph_extend(8, 4))
    walks += [(rule, asked) for _, rule, _, asked in _each_generation(monkeypatch, [job])]
    parents = 0
    for rule, asked in walks:
        for parent, masks in asked:
            masks = list(masks)
            assert masks == [x for x in range(1 << parent.n) if rule(parent, x) is not None]
            for sigma in canonical_labelling(parent)[2]:
                assert {sum(1 << sigma[u] for u in iter_bits(x)) for x in masks} == set(masks)
            parents += 1
    assert parents == 2010  # the parents of every level of every walk


def test_level_records_match_certifying_every_child(generations):
    # every level below the last has the ranks and origins of certifying
    # every child, and each child's canonical order, searched or copied
    # from an earlier child's, relabels it onto its class's canonical form.
    # The orders of the level below the last are never read (the last
    # level copies no child), so they are checked at the levels below it.
    checked = 0
    for n, extend, _, levels, lowered, labelled, _ in generations:
        # _labels runs at order t on the origins of level t, with the
        # record of level t - 1; the last level reads only its parents' ranks
        records = {t - 1: under[1:] for _, t, under, _ in labelled if t > 1}
        for s, (reps, (ranks, _, origins)) in enumerate(levels[:-1], 1):
            got_ranks, got_orders, got_origins = records.get(
                s, (lowered[-1][0], None, origins)
            )
            called = [o for o, t, _, _ in labelled if t == s]
            assert got_ranks == ranks and got_origins == origins == called, (n, s)
            if got_orders is None or s == 1:
                continue
            below = levels[s - 2][0]
            for index, r in enumerate(ranks):
                if r == len(reps):
                    continue  # filtered
                child = extend(below[index >> s - 1], index & (1 << s - 1) - 1)
                pos = [0] * s
                for i, v in enumerate(got_orders[s * index : s * index + s]):
                    pos[v] = i
                assert child.relabel(pos).rows == canonical_form(child).rows
                checked += 1
    assert checked == 1810  # 681 searched, 1,129 copied


def test_carried_labellings_are_isomorphisms(generations):
    # every deletion P - v that generation labels, at every level below the
    # last, maps by its labelling onto exactly its representative
    checked = 0
    for n, _, _, levels, _, labelled, _ in generations:
        for s, (reps, _) in enumerate(levels[:-1], 1):
            calls = [lab for _, t, _, lab in labelled if t == s]
            assert len(calls) == len(reps), (n, s)
            for p, lab in zip(reps, calls):
                for v, (m, image) in enumerate(lab):
                    rest = [image[u] for u in range(s) if u != v]
                    assert sorted(rest) == list(range(s - 1))
                    if s > 1:
                        assert delete_vertex(p, v).relabel(rest) == levels[s - 2][0][m]
                    checked += 1
    assert checked == 9777  # (rep, deleted vertex) pairs


def test_orbit_step_skips_only_images_of_certified_masks(monkeypatch):
    # at the last level a parent certifies only the least mask of each
    # orbit of its automorphisms: every admitted mask with no deletion
    # ranking below the parent that it skips has the child, by
    # certificate, of a smaller mask it certified
    events = []  # per _first_lower call (order, masks, row), per extension (parent, mask)
    skipped = []
    first_lower, generate = enumeration._first_lower, enumeration._generate

    def lowered(j, labels, ranks, masks):
        row = first_lower(j, labels, ranks, masks)
        events.append((len(labels), masks, row))
        return row

    monkeypatch.setattr(enumeration, "_first_lower", lowered)

    def run(n, extend, admitted):
        events.clear()
        reps = generate(n, lambda p, mask: events.append((p, mask)) or extend(p, mask), admitted)
        groups = []  # per last-level parent: the masks it wants and the ones it extended
        for e in events:
            if len(e) == 3 and e[0] == n - 1:
                groups.append(([x for x, v in zip(e[1], e[2]) if v < 0], []))
            elif len(e) == 2 and e[0].n == n - 1:
                groups[-1][1].append(e)
        for wanted, extended in groups:
            kept = [mask for _, mask in extended]
            assert set(kept) <= set(wanted) and kept == sorted(kept)
            if not kept:
                assert not wanted
                continue
            parent = extended[0][0]
            certs = {mask: canonical_cert(extend(parent, mask)) for mask in kept}
            for mask in set(wanted) - set(kept):
                c = canonical_cert(extend(parent, mask))
                assert any(x < mask and certs[x] == c for x in kept), (n, mask)
                skipped.append(mask)
        return reps

    monkeypatch.setattr(enumeration, "_generate", run)
    for n in range(1, 8):
        gen_tournaments(n)
        for d in range(n):
            gen_graphs(n, d)
        for k in range(3):
            _hard_classes(n, k)
    # 4,747 when every mask reached the orbit step: the other 2,436 have
    # children the degree floor or the cover rejects, none ever certified
    assert len(skipped) == 2311


def test_filter_not_closed_under_deletion_is_refused():
    # the carried labels need every deletion of a rep to be a kept child
    # of the level below: here no order-3 child may be the directed
    # triangle, yet order-4 children of the transitive one delete to it
    def admitted(parent):
        return [
            mask for mask in range(1 << parent.n) if parent.n != 2
            or not all(r.bit_count() == 1 for r in _extend_tournament(parent, mask).rows)
        ]

    # every order-4 tournament extends the transitive triple, and order 4
    # is the last level, so no order-4 rep is labelled
    assert len(enumeration._generate(4, _extend_tournament, admitted)) == 4
    with pytest.raises(RuntimeError, match="filter below the last level"):
        enumeration._generate(5, _extend_tournament, admitted)


def test_label_dependent_filter_is_refused():
    # the transitive triple's child whose new vertex dominates only the
    # source is rejected, but not the cyclic triangle's children
    # isomorphic to it; order 4 is below the last level, so those children
    # copy the rejected one's class, and there is none
    def admitted(parent):
        return [mask for mask in range(1 << parent.n) if parent.rows != (6, 4, 0) or mask != 1]

    with pytest.raises(RuntimeError, match="an isomorphic one did not"):
        enumeration._generate(5, _extend_tournament, admitted)


def test_generator_certificate_calls_are_frozen(count_calls):
    # the number of children the generators certify: at every level, only
    # those no deletion of which ranks below their parent, and at the last
    # level only the least mask of each orbit of the parent's automorphisms.
    # Certifying every child, as brute_levels does, takes 470, 62,422 and
    # 6,416, and certifying every child below the last level 174, 11,866,
    # 2,613 and 4,334; without the orbit step these counts were 123, 8,531,
    # 977 and 999, and the hard order-8 classes certified 280 order-8
    # children, now 274.  Generation runs no canonical search but these:
    # every deletion is labelled from the level below, not searched, and
    # the automorphisms come from the searches that certified the parents.
    calls = count_calls(enumeration, "canonical_labelling")
    count_calls(canon, "_canon")
    made = []
    for gen in (
        lambda: gen_tournaments(6), lambda: gen_tournaments(8),
        lambda: gen_graphs(8, 4), lambda: _hard_classes(8, 2),
    ):
        calls.clear()
        made.append((len(gen()), calls["canonical_labelling"]))
        assert calls["_canon"] == calls["canonical_labelling"]
    assert made == [(56, 109), (6880, 7855), (424, 761), (258, 993)]


def test_census_two_dicritical_is_single_directed_cycle():
    for n in (3, 4, 5):
        rep = dicritical_census(n, 2)
        assert rep.count == 1
        assert rep.min_arcs == n
        assert len(rep.witnesses) == 1
        cyc = Digraph.from_arcs(n, [(i, (i + 1) % n) for i in range(n)])
        assert canonical_cert(d6_decode(rep.witnesses[0])) == canonical_cert(cyc)
        assert validate_census(rep) == []


def _circulant(n, diffs):
    return Digraph.from_arcs(n, [(v, (v + x) % n) for v in range(n) for x in diffs])


@pytest.mark.parametrize("k, d, lines", [
    (2, Digraph.from_arcs(2, [(0, 1), (1, 0)]), ["not oriented"]),  # 2-dicritical
    (3, _circulant(3, (1,)),
     ["not 3-dicritical: vertex 0 has in- or out-degree below 2"]),
    (3, circulant_tournament(5, (1, 2)),
     ["not 3-dicritical: already 2-dicolourable",
      "low vertices not a directed cactus"]),
    (3, _circulant(10, (1,)),
     ["not 3-dicritical: vertex 0 has in- or out-degree below 2",
      "order >= 10 with fewer than 21 arcs"]),
    (3, _circulant(10, (1, 3)),
     ["not 3-dicritical: already 2-dicolourable",
      "low vertices not a directed cactus",
      "order >= 10 with fewer than 21 arcs",
      "order >= 10 and 2-diregular"]),
], ids=["digon", "triangle", "tournament5", "cycle10", "circulant10"])
def test_validate_census_names_each_fault(k, d, lines):
    s = d6_encode(d)
    rep = CensusReport(n=d.n, k=k, all_dicritical=[s])
    assert validate_census(rep) == [f"{s}: {line}" for line in lines]


def test_validate_census_names_a_repeated_output():
    # a repeat across checkpoint records passes each record's own check
    s = dicritical_census(5, 2).all_dicritical[0]
    rep = CensusReport(n=5, k=2, all_dicritical=[s, s])
    assert rep.count == 2
    assert validate_census(rep) == [f"{s}: listed twice"]


def test_census_jobs_agree():
    base = dicritical_census(5, 2)
    jobs = dicritical_census(5, 2, jobs=2)
    assert jobs.count == base.count
    assert jobs.min_arcs == base.min_arcs
    assert jobs.all_dicritical == base.all_dicritical


def test_census_pool_is_bounded_by_tasks_and_cpus(monkeypatch):
    # a fork pool starts every worker it is asked for, so --jobs is only an
    # upper bound; an in-process pool records the request and starts none
    class Pool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def map(self, fn, tasks):
            return map(fn, tasks)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    base = dicritical_census(5, 2).to_json()  # 11 tasks
    for cpus, want in ((64, [11]), (3, [3]), (1, []), (None, [])):
        requested = []
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert dicritical_census(5, 2, jobs=1000).to_json() == base
        assert requested == want


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A finished census(5, 2) checkpoint's bytes and its report's JSON."""
    ck = tmp_path_factory.mktemp("finished") / "census.ckpt"
    rep = dicritical_census(5, 2, checkpoint=str(ck))
    return ck.read_bytes(), json.dumps(rep.to_json())


def test_census_checkpoint_resume(finished, tmp_path):
    # resuming from a cut checkpoint is test_census_resumes_from_any_cut
    blob, report = finished
    lines = [ln for ln in blob.decode().splitlines() if ln.strip()]
    # the header binds the run; changing it would orphan old checkpoints
    assert json.loads(lines[0]) == {"kind": "census", "n": 5, "k": 2,
                                    "filter": "vertex"}
    assert len(lines) > 2

    # a finished checkpoint answers without recomputation
    ck = tmp_path / "census.ckpt"
    ck.write_bytes(blob)
    again = dicritical_census(5, 2, checkpoint=str(ck))
    assert json.dumps(again.to_json()) == report

    # checkpoints are bound to their run parameters
    with pytest.raises(ValueError):
        dicritical_census(4, 2, checkpoint=str(ck))


@settings(max_examples=40)
@given(data=st.data())
def test_census_resumes_from_any_cut(finished, tmp_path_factory, data):
    # a kill may cut the file anywhere, in the header or mid-record; the
    # resumed run drops the torn line and gives the same file and report
    blob, report = finished
    cut = data.draw(st.integers(0, len(blob)), label="cut")
    ck = tmp_path_factory.mktemp("cut") / "census.ckpt"
    ck.write_bytes(blob[:cut])
    resumed = dicritical_census(5, 2, checkpoint=str(ck))
    assert ck.read_bytes() == blob
    assert json.dumps(resumed.to_json()) == report


_DKMME = '{"graph": "&DKMME?", "dicritical": ["&DCD@G?"], "candidates": 1}'


# (run, records after the header, what the refusal of the last one says)
_MALFORMED = [
    ("census", ["5"], "is not a JSON object"),
    ("census", ['["&DKMME?", [], 1]'], "is not a JSON object"),
    ("census", ['{"foo": 1}'], "lacks field 'graph'"),
    ("census", ['{"graph": "&DKMME?"}'], "lacks field 'dicritical'"),
    ("census", ['{"graph": "&DCD@G?", "dicritical": [], "candidates": 1}'],
     "names a task this run lacks"),
    ("census", ['{"graph": ["&DKMME?"], "dicritical": [], "candidates": 1}'], "wrong type"),
    ("census", [_DKMME, '{"graph": "&DKMME?", "dicritical": [], "candidates": 1}'],
     "or has already recorded"),
    ("bound", ['{"chunk": 0}'], "lacks field 'ok'"),
    # a failure with no counterexample
    ("bound", ['{"chunk": 0, "ok": false}'], "lacks field 'counterexample'"),
    ("bound", ['{"chunk": 1, "ok": true}'], "names a task"),  # the run has one chunk
    ("bound", ['{"chunk": 0, "ok": true}', '{"chunk": 0, "ok": true}'],
     "or has already recorded"),
    # fields of the wrong type
    ("census", ['{"graph": "&DKMME?", "dicritical": 5, "candidates": 1}'], "wrong type"),
    ("census", ['{"graph": "&DKMME?", "dicritical": [5], "candidates": 1}'], "wrong type"),
    ("census", ['{"graph": "&DKMME?", "dicritical": "&DCD@G?", "candidates": 1}'],
     "wrong type"),
    ("census", ['{"graph": "&DKMME?", "dicritical": [], "candidates": "1"}'], "wrong type"),
    ("census", ['{"graph": "&DKMME?", "dicritical": [], "candidates": true}'], "wrong type"),
    ("bound", ['{"chunk": 0, "ok": 1}'], "wrong type"),
    ("bound", ['{"chunk": 0, "ok": "yes"}'], "wrong type"),
    ("bound", ['{"chunk": 0, "ok": false, "counterexample": 5}'], "wrong type"),
    ("bound", ['{"chunk": false, "ok": true}'], "wrong type"),  # False == 0
    # strings that are not digraph6
    ("census", ['{"graph": "&DKMME?", "dicritical": ["junk"], "candidates": 1}'],
     "is refused: digraph6 input must start with '&'"),
    ("bound", ['{"chunk": 0, "ok": false, "counterexample": "xyz"}'],
     "is refused: digraph6 input must start with '&'"),
    # digraph6 that no orientation of the task graph is: order 2, one arc
    ("census", ['{"graph": "&DKMME?", "dicritical": ["&AO"], "candidates": 1}'],
     "&AO is not an orientation of &DKMME?"),
    # one output listed twice: the worker writes them sorted and distinct
    ("census", ['{"graph": "&DKMME?", "dicritical": ["&DCD@G?", "&DCD@G?"], "candidates": 1}'],
     "not strictly ascending"),
    # a directed triangle with a two-arc tail: an oriented graph with the
    # 5-cycle's order and size whose underlying graph is not the 5-cycle
    ("census", ['{"graph": "&DKMME?", "dicritical": ["&D?DCB?"], "candidates": 1}'],
     "&D?DCB? is not an orientation of &DKMME?"),
    # counterexamples that a run of order 4 at k = 2 cannot have found:
    # K1, and the transitive 4-tournament, which is acyclic
    ("bound", ['{"chunk": 0, "ok": false, "counterexample": "&@?"}'],
     "&@? is not an order-4 tournament"),
    ("bound", ['{"chunk": 0, "ok": false, "counterexample": "&C[p?"}'],
     "&C[p? is not an order-4 tournament with no 2-dicolouring"),
    # a count no stream can have seen: the run's total would drop by it
    ("census", ['{"graph": "&DKMME?", "dicritical": [], "candidates": -5000}'],
     "&DKMME? has a negative candidate count"),
]


@pytest.mark.parametrize("run, records, reason", _MALFORMED,
                         ids=[f"{run}-records{i}" for i, (run, *_) in enumerate(_MALFORMED)])
def test_malformed_checkpoint_records_are_refused(tmp_path, run, records, reason):
    # a stored record the run cannot read, of a task the run does not have
    # or already recorded, is refused with its line and the reason, not
    # read as a result; a repeated record must not replace the first
    ck = tmp_path / "run.ckpt"
    rerun = {
        "census": lambda: dicritical_census(5, 2, checkpoint=str(ck)),
        "bound": lambda: verify_census_bound(4, 2, checkpoint=str(ck)),
    }[run]
    rerun()
    bad = "\n".join([ck.read_text().splitlines()[0], *records]) + "\n"
    ck.write_text(bad)
    with pytest.raises(ValueError, match=f"{re.escape(str(ck))}: line {len(records) + 1} "
                                         f".*{re.escape(reason)}"):
        rerun()
    assert ck.read_text() == bad


def test_census_below_the_degree_floor_is_empty():
    # no oriented graph of order n <= 2(k-1) has minimum in- and
    # out-degree k-1, so there is nothing to generate
    for n, k in ((4, 3), (2, 2), (1, 2)):
        rep = dicritical_census(n, k)
        assert (rep.count, rep.min_arcs, rep.witnesses) == (0, None, [])
        assert rep.stats["graphs"] == 0
        assert validate_census(rep) == []
    for n in (0, GEN_CAP + 1):
        with pytest.raises(ValueError):
            dicritical_census(n, 7)


def test_census_rejects_bad_parameters():
    with pytest.raises(ValueError):
        dicritical_census(4, 1)


def test_census_report_json_shape():
    rep = dicritical_census(4, 2)
    blob = rep.to_json()
    assert blob["n"] == 4 and blob["k"] == 2
    assert blob["count"] == 1
    # no wall time: a report is reproducible, and the CLI times the run
    assert set(blob["stats"]) == {
        "graphs", "graphs_after_arboricity", "orientation_candidates",
    }
