import random
from fractions import Fraction

import pytest

from dichroma.digraphs import (
    Digraph,
    bidirect,
    build_digraph,
    build_graph,
    circulant_tournament,
)
from dichroma.structure import (
    BIDIRECTED_CLIQUE,
    BIDIRECTED_ODD_CYCLE,
    DIRECTED_CYCLE,
    OTHER,
    SINGLE_EDGE,
    block_decomposition,
    cactus_edge_bound,
    cactus_induced_forest,
    classify_blocks,
    decomposition_report,
    gallai_property_check,
    is_cactus,
    is_directed_cactus,
    is_directed_gallai_forest,
    low_vertices,
    random_cactus,
)

from bruteforce import (
    brute_cut_vertices,
    brute_max_induced_forest,
    is_forest,
    random_gallai_forest,
    random_graph,
)


def digon_path(k):
    """k digons in a path."""
    arcs = []
    for i in range(k):
        arcs += [(i, i + 1), (i + 1, i)]
    return Digraph.from_arcs(k + 1, arcs)


def test_block_decomposition_vs_bruteforce_cut_vertices():
    rng = random.Random(99)
    for _ in range(250):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.6)))
        dec = block_decomposition(g)
        assert dec.cut_vertices == brute_cut_vertices(g)
        # blocks partition the edges
        seen = set()
        for edges in dec.block_edges:
            for e in edges:
                assert e not in seen
                seen.add(e)
        assert seen == {tuple(sorted(e)) for e in g.edges()}
        # isolated vertices are reported, not silently dropped
        isolated = {v for v in range(n) if g.degree(v) == 0}
        assert set(dec.isolated) == isolated


def test_block_kinds_handcrafted():
    assert classify_blocks(build_digraph(2, [(0, 1)])) == [SINGLE_EDGE]
    assert classify_blocks(build_digraph(2, [(0, 1), (1, 0)])) == [
        BIDIRECTED_CLIQUE
    ]
    ring5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    ring4 = build_graph(4, [(i, (i + 1) % 4) for i in range(4)])
    c5 = build_digraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert classify_blocks(c5) == [DIRECTED_CYCLE]
    assert classify_blocks(bidirect(ring5)) == [BIDIRECTED_ODD_CYCLE]
    assert classify_blocks(bidirect(ring4)) == [OTHER]
    k4 = build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert classify_blocks(bidirect(k4)) == [BIDIRECTED_CLIQUE]
    tt3 = build_digraph(3, [(0, 1), (0, 2), (1, 2)])
    assert classify_blocks(tt3) == [OTHER]


def test_bidirected_triangle_counts_as_clique():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert classify_blocks(bidirect(tri)) == [BIDIRECTED_CLIQUE]


def test_cactus_recognition():
    # two triangles sharing a vertex
    g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert is_cactus(g)
    assert not is_cactus(build_graph(4, [(a, b) for a in range(4)
                                         for b in range(a + 1, 4)]))
    assert is_cactus(build_graph(1, []))


def test_directed_cactus_and_gallai_examples():
    c3 = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert is_directed_cactus(c3)
    assert is_directed_gallai_forest(c3)
    tt3 = build_digraph(3, [(0, 1), (0, 2), (1, 2)])
    assert not is_directed_cactus(tt3)
    assert not is_directed_gallai_forest(tt3)
    assert is_directed_gallai_forest(digon_path(3))
    assert not is_directed_cactus(digon_path(1))  # digon is not oriented
    bid_c4 = bidirect(build_graph(4, [(i, (i + 1) % 4) for i in range(4)]))
    assert not is_directed_gallai_forest(bid_c4)


def test_random_cactus_is_cactus_and_exact_order():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 40)
        g = random_cactus(n, seed=rng.getrandbits(32))
        assert g.n == n
        assert is_cactus(g)


def test_cactus_edge_bound_and_tightness():
    tri2 = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    m, bound, tight = cactus_edge_bound(tri2)
    assert m == 6 and bound == Fraction(3, 2) * 4 and tight
    path = build_graph(3, [(0, 1), (1, 2)])
    m, bound, tight = cactus_edge_bound(path)
    assert m == 2 and not tight
    with pytest.raises(ValueError):
        cactus_edge_bound(build_graph(4, [(a, b) for a in range(4)
                                          for b in range(a + 1, 4)]))


def test_cactus_induced_forest_is_exact_maximum():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 13)
        g = random_cactus(n, seed=rng.getrandbits(32))
        forest = cactus_induced_forest(g)
        assert is_forest(g, forest)
        assert len(forest) == brute_max_induced_forest(g)
        assert 3 * len(forest) >= 2 * n


def test_cactus_induced_forest_two_triangles():
    g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    forest = cactus_induced_forest(g)
    assert len(forest) == 4  # drop the shared vertex alone


def test_low_vertices():
    st11 = circulant_tournament(11, (1, 3, 4, 5, 9))
    assert low_vertices(st11, 6) == list(range(11))  # all 5-diregular
    assert low_vertices(st11, 7) == []
    mixed = build_digraph(3, [(0, 1), (1, 2)])
    assert low_vertices(mixed, 2) == [1]  # only the interior has d+ = d- = 1


def test_gallai_property_check():
    c3 = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert gallai_property_check(c3, 2)
    tt3 = build_digraph(3, [(0, 1), (0, 2), (1, 2)])
    assert gallai_property_check(tt3, 2)  # no low vertices to violate
    # bidirected even cycle is 2-diregular everywhere and not Gallai
    bid_c4 = bidirect(build_graph(4, [(i, (i + 1) % 4) for i in range(4)]))
    assert not gallai_property_check(bid_c4, 3)


def test_random_gallai_forest_passes_recognition():
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randint(1, 25)
        k = rng.randint(2, 4)
        d = random_gallai_forest(n, k, seed=rng.getrandbits(32))
        assert is_directed_gallai_forest(d)


def test_decomposition_report_shape():
    d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    rep = decomposition_report(d)
    assert rep["kinds"] == [DIRECTED_CYCLE]
    assert rep["cut_vertices"] == []
