import random

import pytest

from dichroma.digraphs import (
    MAX_VERTICES,
    Digraph,
    Graph,
    bidirect,
    build_digraph,
    build_graph,
    circulant_tournament,
    delete_arc,
    delete_vertex,
    has_digon,
    induced,
    is_k_diregular,
    is_oriented,
    underlying_graph,
)


def test_from_arcs_roundtrip():
    d = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert d.n == 4 and d.m == 5
    assert sorted(d.arcs()) == [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)]
    assert d.has_arc(0, 1) and not d.has_arc(1, 0)


def test_duplicate_arcs_collapse():
    d = Digraph.from_arcs(2, [(0, 1), (0, 1), (0, 1)])
    assert d.m == 1


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Digraph.from_arcs(2, [(1, 1)])


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        Digraph.from_arcs(2, [(0, 2)])
    with pytest.raises(ValueError):
        Digraph.from_arcs(MAX_VERTICES + 1, [])


def test_degrees_and_in_rows():
    d = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
    assert d.out_degree(0) == 2 and d.in_degree(0) == 0
    assert d.in_degree(2) == 2
    assert d.in_rows[2] == 0b011


def test_digon_bookkeeping():
    d = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2)])
    assert has_digon(d)
    assert not is_oriented(d)
    assert d.digon_rows[0] == 0b010
    assert is_oriented(Digraph.from_arcs(3, [(0, 1), (1, 2)]))


def test_circulant_tournament_st11_shape():
    st11 = circulant_tournament(11, (1, 3, 4, 5, 9))
    assert st11.n == 11 and st11.m == 55
    assert is_oriented(st11)
    assert is_k_diregular(st11, 5)


def test_circulant_rejects_bad_sets():
    with pytest.raises(ValueError):
        circulant_tournament(5, (1,))  # not one of each pair
    with pytest.raises(ValueError):
        circulant_tournament(4, (1,))  # even order


def test_bidirect_and_underlying():
    g = build_graph(3, [(0, 1), (1, 2)])
    d = bidirect(g)
    assert d.m == 4 and has_digon(d)
    back = underlying_graph(d)
    assert sorted(back.edges()) == sorted(g.edges())


def test_underlying_merges_digons():
    d = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2)])
    g = underlying_graph(d)
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_induced_relabels_in_order():
    d = Digraph.from_arcs(5, [(0, 2), (2, 4), (4, 0)])
    sub = induced(d, [0, 2, 4])
    assert sub.n == 3
    assert sorted(sub.arcs()) == [(0, 1), (1, 2), (2, 0)]


def test_delete_and_add():
    tri = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert delete_arc(tri, 0, 1).m == 2
    with pytest.raises(ValueError):
        delete_arc(tri, 1, 0)
    assert delete_vertex(tri, 1).n == 2


def test_graph_basics():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.degree(0) == 2
    assert len(list(g.edges())) == 4


def test_relabel_is_an_isomorphism():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 8)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.4
        ]
        d = Digraph.from_arcs(n, arcs)
        perm = list(range(n))
        rng.shuffle(perm)
        r = d.relabel(perm)
        assert r.m == d.m
        for u, v in d.arcs():
            assert r.has_arc(perm[u], perm[v])
