import random

import pytest

from dichroma.digraphs import (
    MAX_VERTICES,
    Digraph,
    bidirect,
    circulant_tournament,
    delete_arc,
    delete_vertex,
    induced,
    is_k_diregular,
    is_oriented,
    is_tournament,
)
from dichroma.enumeration import gen_graphs


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
    # against a transpose built arc by arc; 70 vertices span several words
    rng = random.Random(47)
    with_digons = 0
    for n in (1, 2, 5, 9, 70):
        for p in (0.2, 0.6):
            d = Digraph.from_arcs(
                n,
                [(u, v) for u in range(n) for v in range(n)
                 if u != v and rng.random() < p],
            )
            want = [0] * n
            for u, v in d.arcs():
                want[v] |= 1 << u
            assert d.in_rows == tuple(want)
            with_digons += not is_oriented(d)
    assert with_digons >= 4


def test_digon_bookkeeping():
    d = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2)])
    assert not is_oriented(d)
    assert d.digon_rows[0] == 0b010
    assert is_oriented(Digraph.from_arcs(3, [(0, 1), (1, 2)]))
    # the empty digraph, K1 and the transitive tournament TT4 are
    # tournaments; C(4, 2) arcs with one digon and one empty pair are not
    tt4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    for n, arcs in ((0, []), (1, []), (4, tt4)):
        assert is_tournament(Digraph.from_arcs(n, arcs))
    one_digon = Digraph.from_arcs(4, tt4[:-1] + [(1, 0)])
    assert one_digon.m == 6 and not is_tournament(one_digon)


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
    with pytest.raises(ValueError, match="difference 5 out of range"):
        circulant_tournament(5, (1, 5))
    with pytest.raises(ValueError, match="contains both 1 and 4"):
        circulant_tournament(5, (1, 4))


def test_bidirect_is_the_symmetric_closure():
    # one arc, one digon and an isolated vertex
    d = Digraph.from_arcs(4, [(0, 1), (1, 0), (2, 1)])
    g = bidirect(d)
    assert sorted(g.arcs()) == [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert bidirect(g) == g
    # a graph is already symmetric, so its digraph6 bytes stay as they are
    for h in gen_graphs(6, 2):
        assert bidirect(h) == h


def test_induced_relabels_in_order():
    d = Digraph.from_arcs(5, [(0, 2), (2, 4), (4, 0)])
    sub = induced(d, [0, 2, 4])
    assert sub.n == 3
    assert sorted(sub.arcs()) == [(0, 1), (1, 2), (2, 0)]
    with pytest.raises(ValueError, match="vertex 5 out of range"):
        induced(d, [0, 5])


def test_delete_and_add():
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert delete_arc(tri, 0, 1).m == 2
    with pytest.raises(ValueError):
        delete_arc(tri, 1, 0)
    assert delete_vertex(tri, 1).n == 2
    with pytest.raises(ValueError, match="vertex 3 out of range"):
        delete_vertex(tri, 3)


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
