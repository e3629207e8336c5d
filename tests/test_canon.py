import itertools
import random

import pytest

from dichroma.canon import canonical_cert, canonical_form, is_arc_transitive
from dichroma.digraphs import Digraph, Graph, bidirect, circulant_tournament

from bruteforce import _digraph_class_key, random_digraph, random_graph


def all_digraphs(n):
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    for bits in range(1 << len(slots)):
        yield Digraph.from_arcs(
            n, [slots[i] for i in range(len(slots)) if bits >> i & 1]
        )


def test_cert_equality_iff_isomorphic_exhaustive_n3():
    by_class = {}
    for d in all_digraphs(3):
        by_class.setdefault(_digraph_class_key(d), []).append(d)
    certs = {key: {canonical_cert(d) for d in ds} for key, ds in by_class.items()}
    # one cert per class
    assert all(len(cs) == 1 for cs in certs.values())
    # distinct classes get distinct certs
    flat = [next(iter(cs)) for cs in certs.values()]
    assert len(set(flat)) == len(flat)


def test_cert_equality_iff_isomorphic_sampled_n5():
    rng = random.Random(23)
    ds = [random_digraph(rng, 5, 0.4) for _ in range(40)]
    for a, b in itertools.combinations(ds, 2):
        same = _digraph_class_key(a) == _digraph_class_key(b)
        assert (canonical_cert(a) == canonical_cert(b)) == same


def test_relabelling_invariance():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 7)
        d = random_digraph(rng, n, 0.4)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_cert(d) == canonical_cert(d.relabel(perm))


def test_canonical_form_is_canonical():
    rng = random.Random(9)
    for _ in range(20):
        d = random_digraph(rng, rng.randint(1, 7), 0.4)
        cf = canonical_form(d)
        assert canonical_cert(cf) == canonical_cert(d)
        assert canonical_form(cf) == cf
        perm = list(range(d.n))
        rng.shuffle(perm)
        assert canonical_form(d.relabel(perm)) == cf


def test_arc_transitive_examples():
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert is_arc_transitive(tri)
    c4 = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert is_arc_transitive(c4)
    st11 = circulant_tournament(11, (1, 3, 4, 5, 9))
    assert is_arc_transitive(st11)
    tt3 = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
    assert not is_arc_transitive(tt3)
    path = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    assert not is_arc_transitive(path)


def test_roots_pin_vertices():
    # a directed path is asymmetric end to end; pinning either end differs
    path = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    assert canonical_cert(path, cells=[[0], [1, 2]]) != canonical_cert(
        path, cells=[[2], [0, 1]]
    )
    # pinning respects isomorphisms mapping pinned vertex to pinned vertex
    rev = path.relabel([2, 1, 0])
    assert canonical_cert(path, cells=[[0], [1, 2]]) == canonical_cert(
        rev, cells=[[2], [0, 1]]
    )


def test_cells_must_partition():
    d = Digraph.from_arcs(3, [(0, 1)])
    with pytest.raises(ValueError):
        canonical_cert(d, cells=[[0, 1]])
    with pytest.raises(ValueError):
        canonical_cert(d, cells=[[0, 1], [1, 2]])


def test_cells_relabelling_consistency():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 7)
        d = random_digraph(rng, n, 0.4)
        t = rng.randint(1, n - 1)
        cells = [list(range(t)), list(range(t, n))]
        perm = list(range(n))
        rng.shuffle(perm)
        pcells = [sorted(perm[v] for v in cell) for cell in cells]
        assert canonical_cert(d, cells=cells) == canonical_cert(
            d.relabel(perm), cells=pcells
        )


def test_cells_restrict_isomorphisms():
    # an undirected-square orientation whose colour split breaks symmetry
    c4 = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    whole = canonical_cert(c4)
    assert canonical_cert(c4, cells=[[0, 1, 2, 3]]) == whole
    split = canonical_cert(c4, cells=[[0, 2], [1, 3]])
    other = canonical_cert(c4, cells=[[0, 1], [2, 3]])
    assert split != other  # cell shapes agree, orbits differ


def test_graph_cert_invariance():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 7)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [0] * n
        for u in range(n):
            for v in range(n):
                if g.rows[u] >> v & 1:
                    rows[perm[u]] |= 1 << perm[v]
        assert canonical_cert(bidirect(g)) == canonical_cert(bidirect(Graph(n, rows)))
    assert canonical_cert(bidirect(random_graph(rng, 5))) != canonical_cert(
        bidirect(random_graph(rng, 6))
    )
