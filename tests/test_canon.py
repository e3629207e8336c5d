import hashlib
import itertools
import random

import pytest

from dichroma import canon
from dichroma.canon import _refine, canonical_cert, canonical_form, is_arc_transitive
from dichroma.digraphs import Digraph, Graph, bidirect, circulant_tournament, mask_of
from dichroma.enumeration import gen_tournaments

from bruteforce import _digraph_class_key, brute_refine, random_digraph, random_graph


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


def test_certificate_bytes_are_frozen():
    # Certificates are stored (census outputs, benchmark references) and
    # pick the class representatives, so their bytes, not just their
    # equality semantics, must survive changes to the search.
    rng = random.Random(2014)
    h = hashlib.sha256()
    for _ in range(600):
        n = rng.randint(1, 12)
        d = random_digraph(rng, n, rng.choice((0.15, 0.35, 0.5, 0.8)))
        h.update(canonical_cert(d))
        perm = list(range(n))
        rng.shuffle(perm)
        t = rng.randint(0, n - 1)
        h.update(canonical_cert(d, cells=[perm[:t], perm[t:]]))
    for n, conn in ((7, (1, 2, 4)), (11, (1, 3, 4, 5, 9)), (13, (1, 2, 3, 5, 6, 9))):
        h.update(canonical_cert(circulant_tournament(n, conn)))
    assert h.hexdigest() == (
        "f689270c88c8736faf319b6ab7fe6c386c67847f56c2c5f37be11145d6c7df66"
    )


def test_search_work_is_frozen(monkeypatch):
    # A changed prune can leave every certificate byte as it was; the
    # number of refinements and leaf encodings the search spends cannot.
    calls = {"_refine": 0, "_encode": 0}
    for name in calls:
        def counted(*args, real=getattr(canon, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(canon, name, counted)
    for n, conn in ((7, (1, 2, 4)), (11, (1, 3, 4, 5, 9)), (13, (1, 2, 3, 5, 6, 9))):
        canonical_cert(circulant_tournament(n, conn))
    canonical_cert(bidirect(Graph(6, [0b111111 & ~(1 << v) for v in range(6)])))
    assert calls == {"_refine": 134, "_encode": 55}
    assert len(gen_tournaments(6)) == 56
    assert calls == {"_refine": 828, "_encode": 675}


def _refine_inputs():
    rng = random.Random(1403)
    for _ in range(300):
        n = rng.randint(1, 12)
        yield random_digraph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
    for _ in range(100):
        # circulant digraphs, digons wherever the set meets its negation
        n = rng.randint(2, 12)
        conn = rng.sample(range(1, n), rng.randint(1, n - 1))
        yield Digraph.from_arcs(n, [(u, (u + s) % n) for u in range(n) for s in conn])
    for n, conn in ((5, (1, 2)), (7, (1, 2, 4)), (9, (1, 2, 3, 4)), (11, (1, 3, 4, 5, 9))):
        yield circulant_tournament(n, conn)
    yield bidirect(Graph(6, [0b111111 & ~(1 << v) for v in range(6)]))  # K6


def test_refine_matches_whole_partition_refinement():
    # _refine counts only against the cells that just split; brute_refine
    # recounts against every cell.  Same ordered partition at the root (one
    # cell or two) and at every child of one random branch of the search.
    rng = random.Random(8)
    children = 0
    for d in _refine_inputs():
        n = d.n
        rows, irows = d.rows, d.in_rows
        perm = list(range(n))
        rng.shuffle(perm)
        t = rng.randint(1, n - 1) if n > 1 else 1
        for cells in ([list(range(n))], [perm[:t], perm[t:]]):
            cells = [c for c in cells if c]
            fresh = [mask_of(c) for c in cells]
            want = brute_refine(rows, irows, cells)
            assert _refine(rows, irows, cells, fresh) == want
            while len(want) < n:
                target = next(i for i, c in enumerate(want) if len(c) > 1)
                cell = want[target]
                step = None
                for v in cell:
                    child = (
                        want[:target] + [[v], [w for w in cell if w != v]]
                        + want[target + 1:]
                    )
                    got = _refine(rows, irows, child, [1 << v])
                    assert got == brute_refine(rows, irows, child)
                    children += 1
                    if step is None or rng.random() < 0.5:
                        step = got
                want = step
    assert children > 2000
