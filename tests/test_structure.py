import hashlib
import random
from fractions import Fraction

import pytest

from dichroma import certify, structure
from dichroma.cli import main
from dichroma.digraphs import (
    Digraph,
    bidirect,
    circulant_tournament,
    is_oriented,
)
from dichroma.enumeration import arboricity, gen_graphs
from dichroma.formats import dump_digraph
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
    edge_list,
    graph,
    is_forest,
    random_digraph,
    random_gallai_forest,
    random_graph,
    random_oriented,
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
        assert seen == set(edge_list(g))
        # isolated vertices are reported, not silently dropped
        isolated = {v for v in range(n) if g.out_degree(v) == 0}
        assert set(dec.isolated) == isolated


def test_block_kinds_handcrafted():
    assert classify_blocks(Digraph.from_arcs(2, [(0, 1)])) == [SINGLE_EDGE]
    assert classify_blocks(Digraph.from_arcs(2, [(0, 1), (1, 0)])) == [
        BIDIRECTED_CLIQUE
    ]
    ring5 = graph(5, [(i, (i + 1) % 5) for i in range(5)])
    ring4 = graph(4, [(i, (i + 1) % 4) for i in range(4)])
    c5 = Digraph.from_arcs(5, [(i, (i + 1) % 5) for i in range(5)])
    assert classify_blocks(c5) == [DIRECTED_CYCLE]
    assert classify_blocks(ring5) == [BIDIRECTED_ODD_CYCLE]
    assert classify_blocks(ring4) == [OTHER]
    k4 = graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert classify_blocks(k4) == [BIDIRECTED_CLIQUE]
    # an odd cycle too, the bidirected triangle counts as a clique
    assert classify_blocks(graph(3, [(0, 1), (1, 2), (0, 2)])) == [BIDIRECTED_CLIQUE]
    tt3 = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
    assert classify_blocks(tt3) == [OTHER]


def test_cactus_recognition():
    # two triangles sharing a vertex
    g = graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert is_cactus(g)
    assert not is_cactus(graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]))
    assert is_cactus(graph(1, []))


def test_directed_cactus_and_gallai_examples():
    c3 = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert is_directed_cactus(c3)
    assert is_directed_gallai_forest(c3)
    tt3 = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
    assert not is_directed_cactus(tt3)
    assert not is_directed_gallai_forest(tt3)
    assert is_directed_gallai_forest(digon_path(3))
    assert not is_directed_cactus(digon_path(1))  # digon is not oriented
    bid_c4 = graph(4, [(i, (i + 1) % 4) for i in range(4)])
    assert not is_directed_gallai_forest(bid_c4)


def test_random_cactus_is_cactus_and_exact_order():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 40)
        g = random_cactus(n, seed=rng.getrandbits(32))
        assert g.n == n
        assert is_cactus(g)
    with pytest.raises(ValueError, match="order must be positive"):
        random_cactus(0, seed=5)


def test_cactus_edge_bound_and_tightness():
    tri2 = graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    m, bound, tight = cactus_edge_bound(tri2)
    assert m == 6 and bound == Fraction(3, 2) * 4 and tight
    path = graph(3, [(0, 1), (1, 2)])
    m, bound, tight = cactus_edge_bound(path)
    assert m == 2 and not tight
    # 3/2(n-1) would be -3/2 at n = 0, which no graph meets
    assert cactus_edge_bound(graph(0, [])) == (0, 0, True)
    with pytest.raises(ValueError):
        cactus_edge_bound(graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]))


def test_structure_decomposes_its_input_once(count_calls, tmp_path, capsys):
    # the decomposition is kept on the digraph, so the structure command's
    # report, recognisers and cactus bounds share one
    g = random_cactus(12, seed=5)
    assert block_decomposition(g) is block_decomposition(g)
    assert block_decomposition(g) == structure._lowpoint_blocks(g)
    path = tmp_path / "cactus.d6"
    path.write_text(dump_digraph(g) + "\n")
    calls = count_calls(structure, "_lowpoint_blocks")
    assert main(["structure", str(path)]) == 0
    assert "induced forest size" in capsys.readouterr().out
    assert calls["_lowpoint_blocks"] == 1


def test_graph_functions_agree_on_a_digraph_and_its_bidirection():
    # a function that takes a graph gives an oriented digraph its
    # underlying graph's answer, on random oriented cacti and graphs
    rng = random.Random(33)
    cacti = [random_cactus(rng.randint(1, 30), seed=rng.getrandbits(32))
             for _ in range(40)]
    cacti = [Digraph.from_arcs(g.n, [rng.choice(((u, v), (v, u))) for u, v in edge_list(g)])
             for g in cacti]
    others = [random_oriented(rng, rng.randint(1, 9), rng.choice((0.2, 0.4)))
              for _ in range(60)]
    for d in cacti + others:
        g = bidirect(d)
        assert is_oriented(d) and g.m == 2 * d.m
        assert arboricity(d) == arboricity(g)
        assert block_decomposition(d) == block_decomposition(g)
        assert is_cactus(d) == is_cactus(g)
        if is_cactus(g):
            assert cactus_edge_bound(d) == cactus_edge_bound(g)
            assert cactus_induced_forest(d) == cactus_induced_forest(g)
    assert all(map(is_cactus, cacti)) and 0 < sum(map(is_cactus, others)) < 60


def random_cacti(rng, parts, order):
    """The disjoint union of `parts` random cacti of 1..order vertices,
    relabelled at random, so components interleave and root anywhere."""
    cacti = [
        random_cactus(rng.randint(1, order), seed=rng.getrandbits(32))
        for _ in range(parts)
    ]
    perm = list(range(sum(c.n for c in cacti)))
    rng.shuffle(perm)
    edges, off = [], 0
    for c in cacti:
        edges += [(perm[u + off], perm[v + off]) for u, v in edge_list(c)]
        off += c.n
    return graph(len(perm), edges)


def test_cactus_induced_forest_is_exact_maximum():
    rng = random.Random(12)
    graphs = [
        random_cactus(rng.randint(1, 13), seed=rng.getrandbits(32))
        for _ in range(60)
    ]
    graphs += [random_cacti(rng, k, 14 // k) for k in (2, 3) * 20]
    for g in graphs:
        forest = cactus_induced_forest(g)
        assert forest == sorted(set(forest))
        assert is_forest(g, forest)
        assert len(forest) == brute_max_induced_forest(g)
        assert 3 * len(forest) >= 2 * g.n


def test_cactus_induced_forest_sizes_are_frozen():
    # sha256 over the maximum forest sizes of 400 cacti of up to 120
    # vertices, beyond brute force, as the two-state block dynamic program
    # computed them
    rng = random.Random(2021)
    sizes = []
    for _ in range(400):
        g = random_cacti(rng, rng.randint(1, 3), 40)
        forest = cactus_induced_forest(g)
        assert is_forest(g, forest)
        sizes.append(len(forest))
    assert hashlib.sha256(repr(sizes).encode()).hexdigest() == (
        "41e361ab213f307c02956d41ed53cf88b4b8574d2a847f4cc9b0e0ff3030669f"
    )


def test_cactus_induced_forest_two_triangles():
    g = graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    forest = cactus_induced_forest(g)
    assert len(forest) == 4  # drop the shared vertex alone


def test_cactus_induced_forest_checks_its_answer(monkeypatch):
    # a decomposition that misses the cycle block keeps the whole triangle,
    # which meets the size guarantee; the forest check catches it
    triangle = graph(3, [(0, 1), (1, 2), (2, 0)])
    monkeypatch.setattr(structure, "_require_cactus",
                        lambda g: block_decomposition(graph(g.n, [])))
    with pytest.raises(RuntimeError, match="forest check"):
        cactus_induced_forest(triangle)


def test_forest_peel_vs_bruteforce():
    # the peel at limit 1 on a graph's symmetric rows empties the forests:
    # random masks, then every mask of every graph of order up to 6
    rng = random.Random(8)
    cases = []
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 9), 0.35)
        cases.append((g, sum(1 << v for v in range(g.n) if rng.random() < 0.7)))
    cases += [(g, mask) for n in range(1, 7) for g in gen_graphs(n, 0)
              for mask in range(1 << n)]
    assert len(cases) == 200 + 11290
    for g, mask in cases:
        verts = [v for v in range(g.n) if mask >> v & 1]
        assert certify._mask_acyclic(g.rows, g.rows, mask, 1) == is_forest(g, verts)


def test_low_vertices():
    st11 = circulant_tournament(11, (1, 3, 4, 5, 9))
    assert low_vertices(st11, 6) == list(range(11))  # all 5-diregular
    assert low_vertices(st11, 7) == []
    mixed = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    assert low_vertices(mixed, 2) == [1]  # only the interior has d+ = d- = 1


def test_gallai_property_check():
    c3 = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert gallai_property_check(c3, 2)
    tt3 = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
    assert gallai_property_check(tt3, 2)  # no low vertices to violate
    # bidirected even cycle is 2-diregular everywhere and not Gallai
    bid_c4 = graph(4, [(i, (i + 1) % 4) for i in range(4)])
    assert not gallai_property_check(bid_c4, 3)


def test_random_gallai_forest_passes_recognition():
    rng = random.Random(44)
    kinds = set()
    for _ in range(40):
        d = random_gallai_forest(rng.randint(1, 25), seed=rng.getrandbits(32))
        assert is_directed_gallai_forest(d)
        kinds.update(classify_blocks(d))
    assert kinds == {SINGLE_EDGE, DIRECTED_CYCLE, BIDIRECTED_ODD_CYCLE,
                     BIDIRECTED_CLIQUE}


def test_decomposition_report_shape():
    d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    rep = decomposition_report(d)
    assert rep["kinds"] == [DIRECTED_CYCLE]
    assert rep["cut_vertices"] == []


def random_directed_cacti(rng, parts, order):
    """The disjoint union of `parts` random oriented cacti of 1..order
    vertices, each grown by attaching an arc of either direction or a
    directed cycle of length 3..6, relabelled at random."""
    arcs, n = [], 0
    for _ in range(parts):
        size, base = rng.randint(1, order), n
        n += 1
        while n - base < size:
            attach = rng.randrange(base, n)
            clen = min(rng.randint(3, 6), size - (n - base) + 1)
            if clen < 3 or rng.random() < 0.5:
                arcs.append(rng.choice(((attach, n), (n, attach))))
                n += 1
                continue
            cyc = [attach, *range(n, n + clen - 1)]
            arcs += list(zip(cyc, cyc[1:] + cyc[:1]))
            n += clen - 1
    perm = list(range(n))
    rng.shuffle(perm)
    return Digraph.from_arcs(n, [(perm[u], perm[v]) for u, v in arcs])


def test_structure_answers_are_frozen():
    # sha256 over the block kinds, the four class predicates, the low-vertex
    # checks at k = 2 and 3 and the cactus forest lists of seeded random
    # digraphs with and without digons, Gallai forests and relabelled
    # unions of random cacti, directed and undirected
    rng = random.Random(35)
    inputs = []
    for _ in range(600):
        n = rng.randint(0, 9)
        inputs.append(random_digraph(rng, n, rng.choice((0.15, 0.25, 0.35))))
        inputs.append(random_oriented(rng, n, rng.choice((0.3, 0.5, 0.7))))
    for _ in range(150):
        d = random_gallai_forest(rng.randint(2, 14), seed=rng.getrandbits(32))
        inputs += [d, Digraph.from_arcs(d.n, [*d.arcs(), rng.sample(range(d.n), 2)])]
    for _ in range(150):
        parts = rng.randint(1, 3)
        inputs.append(random_cacti(rng, parts, 30 // parts))
        inputs.append(random_directed_cacti(rng, parts, 30 // parts))
    h = hashlib.sha256()
    for d in inputs:
        cactus = is_cactus(d)
        h.update(repr((
            classify_blocks(d),
            cactus,
            is_directed_cactus(d),
            is_directed_gallai_forest(d),
            gallai_property_check(d, 2),
            gallai_property_check(d, 3),
            cactus_induced_forest(d) if cactus else None,
        )).encode())
    assert h.hexdigest() == (
        "994decbba775e20af598556e25f32865b0dc5e794549457eef3237dcd1f69cba"
    )
