import hashlib
import itertools
import random

from hypothesis import given, strategies as st

from dichroma import canon
from dichroma.canon import (
    _canon, _encode, _in_counts, _refine, canonical_cert,
    canonical_form, canonical_labelling, is_arc_transitive,
)
from dichroma.digraphs import (
    Digraph, circulant_tournament, iter_bits, mask_of,
)
from dichroma.enumeration import gen_tournaments
from dichroma.solver import _extend_tournament

from bruteforce import (
    _digraph_class_key, brute_canon, brute_encode, brute_refine, cell_cert,
    random_digraph, random_graph, random_oriented,
)


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


def test_canonical_form_is_canonical():
    rng = random.Random(9)
    for _ in range(20):
        d = random_digraph(rng, rng.randint(1, 7), 0.4)
        cf = canonical_form(d)
        assert canonical_cert(cf) == canonical_cert(d)
        cert, order, autos = canonical_labelling(d)  # the generators' one search
        assert cert == canonical_cert(d) and sorted(order) == list(range(d.n))
        assert all(d.relabel(list(sigma)) == d for sigma in autos)
    # the automorphisms handed out are automorphisms, on symmetric inputs too
    for n, conn in ((7, (1, 2, 4)), (11, (1, 3, 4, 5, 9))):
        d = circulant_tournament(n, conn)
        autos = canonical_labelling(d)[2]
        assert autos and all(d.relabel(list(sigma)) == d for sigma in autos)
    empty = Digraph(0, [])
    assert canonical_cert(empty) == b"\x00\x00"
    assert canonical_form(empty) == empty


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
    assert cell_cert(path, [[0], [1, 2]]) != cell_cert(path, [[2], [0, 1]])
    # pinning respects isomorphisms mapping pinned vertex to pinned vertex
    rev = path.relabel([2, 1, 0])
    assert cell_cert(path, [[0], [1, 2]]) == cell_cert(rev, [[2], [0, 1]])


def test_cells_restrict_isomorphisms():
    # an undirected-square orientation whose colour split breaks symmetry
    c4 = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    whole = canonical_cert(c4)
    assert cell_cert(c4, [[0, 1, 2, 3]]) == whole
    split = cell_cert(c4, [[0, 2], [1, 3]])
    other = cell_cert(c4, [[0, 1], [2, 3]])
    assert split != other  # cell shapes agree, orbits differ


@st.composite
def relabelled_digraphs(draw):
    """(digraph on at most 9 vertices, a permutation of its vertices, a
    cut point splitting them into two cells)."""
    n = draw(st.integers(1, 9))
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    bits = draw(st.integers(0, (1 << len(slots)) - 1))
    d = Digraph.from_arcs(n, [a for i, a in enumerate(slots) if bits >> i & 1])
    return d, draw(st.permutations(range(n))), draw(st.integers(0, n))


def _assert_relabelling_invariant(d, perm, t):
    image = d.relabel(perm)
    assert canonical_cert(image) == canonical_cert(d)
    cells = [list(range(t)), list(range(t, d.n))]
    pcells = [sorted(perm[v] for v in cell) for cell in cells]
    assert cell_cert(image, pcells) == cell_cert(d, cells)


@given(relabelled_digraphs())
def test_certificate_is_relabelling_invariant(case):
    _assert_relabelling_invariant(*case)


@st.composite
def relabelled_symmetric(draw):
    """(circulant digraph on at most 13 vertices with a random connection
    set, or a bidirected graph on at most 9, a permutation of its vertices,
    a cut point): inputs with automorphisms, where the search prunes by
    orbits; random digraphs are almost never symmetric."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 13))
        conn = draw(st.sets(st.integers(1, n - 1), min_size=1))
        d = Digraph.from_arcs(n, [(u, (u + s) % n) for u in range(n) for s in conn])
    else:
        n = draw(st.integers(1, 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        bits = draw(st.integers(0, (1 << len(pairs)) - 1))
        rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if bits >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        d = Digraph(n, rows)
    return d, draw(st.permutations(range(d.n))), draw(st.integers(0, d.n))


@given(relabelled_symmetric())
def test_certificate_of_symmetric_input_is_relabelling_invariant(case):
    _assert_relabelling_invariant(*case)


@given(relabelled_digraphs())
def test_canonical_form_is_idempotent(case):
    d, perm, _ = case
    form = canonical_form(d)
    assert canonical_form(form) == form
    assert canonical_form(d.relabel(perm)) == form


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
        h.update(cell_cert(d, [perm[:t], perm[t:]]))
    for n, conn in ((7, (1, 2, 4)), (11, (1, 3, 4, 5, 9)), (13, (1, 2, 3, 5, 6, 9))):
        h.update(canonical_cert(circulant_tournament(n, conn)))
    assert h.hexdigest() == (
        "f689270c88c8736faf319b6ab7fe6c386c67847f56c2c5f37be11145d6c7df66"
    )


def test_search_work_is_frozen(count_calls):
    # A changed prune can leave every certificate byte as it was; the
    # number of refinements and leaf encodings the search spends cannot.
    # The inputs are fixed lists, the second every child of every order-5
    # tournament class, so how many children a generator certifies does
    # not enter the counts.  Orbit pruning took them from 134 / 55 and
    # 686 / 551 (jump-back alone) to the counts below.
    tournaments = gen_tournaments(5)
    calls = count_calls(canon, "_refine", "_encode")
    for n, conn in ((7, (1, 2, 4)), (11, (1, 3, 4, 5, 9)), (13, (1, 2, 3, 5, 6, 9))):
        canonical_cert(circulant_tournament(n, conn))
    canonical_cert(Digraph(6, [0b111111 & ~(1 << v) for v in range(6)]))
    assert calls == {"_refine": 39, "_encode": 15}
    for t in tournaments:
        for mask in range(1 << t.n):
            canonical_cert(_extend_tournament(t, mask))
    assert calls == {"_refine": 529, "_encode": 451}


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
    yield Digraph(6, [0b111111 & ~(1 << v) for v in range(6)])  # K6


def _refine_walk(rng, d, counts) -> int:
    """Asserts that _refine with in-rows counts gives brute_refine's ordered
    partition with both counts at the root (one cell, and two unsorted
    cells) and at every child of one random branch of the search from
    each; returns the number of children."""
    n = d.n
    rows, irows = d.rows, d.in_rows
    perm = list(range(n))
    rng.shuffle(perm)
    t = rng.randint(1, n - 1) if n > 1 else 1
    children = 0
    for cells in ([list(range(n))], [perm[:t], perm[t:]]):
        cells = [c for c in cells if c]
        fresh = [mask_of(c) for c in cells]
        want = brute_refine(rows, irows, cells)
        assert _refine(rows, counts, cells, fresh) == want
        while len(want) < n:
            target = next(i for i, c in enumerate(want) if len(c) > 1)
            cell = want[target]
            step = None
            for v in cell:
                child = (
                    want[:target] + [[v], [w for w in cell if w != v]]
                    + want[target + 1:]
                )
                got = _refine(rows, counts, child, [1 << v])
                assert got == brute_refine(rows, irows, child)
                children += 1
                if step is None or rng.random() < 0.5:
                    step = got
            want = step
    return children


def test_refine_matches_whole_partition_refinement():
    # _refine counts only against the cells that just split; brute_refine
    # recounts against every cell.  Same ordered partition at the root (one
    # cell or two) and at every child of one random branch of the search.
    rng = random.Random(8)
    children = sum(_refine_walk(rng, d, d.in_rows) for d in _refine_inputs())
    assert children > 2000


def _labelled_as_brute(d) -> bool:
    """Does canonical_labelling(d) give brute_canon's pair, both counts?"""
    best, order = brute_canon(d.n, d.rows, d.in_rows, [list(range(d.n))])
    return canonical_labelling(d)[:2] == (d.n.to_bytes(2, "big") + best, order)


def test_out_counts_alone_refine_tournaments_and_graphs():
    # tournaments and bidirected graphs refine on out-counts alone: the
    # partitions are brute_refine's with both counts, at the root and at
    # the search's children, and the search takes that shortcut on them
    rng = random.Random(48)
    children = 0
    for i in range(400):
        n = rng.randint(1, 12)
        if i % 2:
            d = random_oriented(rng, n, 1.0)
        else:
            d = random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
        assert _in_counts(d) is None and _labelled_as_brute(d)
        children += _refine_walk(rng, d, None)
    for n, conn in ((7, (1, 2, 4)), (11, (1, 3, 4, 5, 9))):
        children += _refine_walk(rng, circulant_tournament(n, conn), None)
    assert children > 1500
    # n(n - 1) / 2 arcs with one digon, and a tournament less one arc: the
    # out-counts do not fix the in-counts, and on some of these out-counts
    # alone refine differently, so the search keeps both
    differs = 0
    for _ in range(200):
        n = rng.randint(3, 9)
        arcs = list(random_oriented(rng, n, 1.0).arcs())
        rng.shuffle(arcs)
        u, v = arcs[1]
        for d in (Digraph.from_arcs(n, arcs[1:] + [(v, u)]),
                  Digraph.from_arcs(n, arcs[1:])):
            assert _in_counts(d) == d.in_rows and _labelled_as_brute(d)
            whole = [list(range(n))]
            differs += _refine(d.rows, None, whole, [mask_of(whole[0])]) != brute_refine(
                d.rows, d.in_rows, whole)
    assert differs > 0


def _search_inputs(rng):
    """(digraph, cells) pairs: random digraphs, bidirected random graphs,
    circulant digraphs, unions of bidirected cliques and partial
    orientations in the census's partial-state shape, each relabelled at
    random, with one to three initial cells."""
    for _ in range(300):
        n = rng.randint(1, 12)
        yield random_digraph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))), None
    for _ in range(200):
        yield random_graph(rng, rng.randint(1, 12), rng.random()), None
    for _ in range(200):
        n = rng.randint(2, 15)
        conn = rng.sample(range(1, n), rng.randint(1, n - 1))
        yield Digraph.from_arcs(n, [(u, (u + s) % n) for u in range(n) for s in conn]), None
    for _ in range(100):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        arcs, base = [], 0
        for size in sizes:
            arcs += [(base + u, base + v) for u in range(size) for v in range(size) if u != v]
            base += size
        yield Digraph.from_arcs(base, arcs), None
    for _ in range(200):
        # oriented arcs among the processed vertices, open edges as digons
        n = rng.randint(3, 11)
        g = random_graph(rng, n, rng.random())
        t = rng.randint(1, n)
        arcs = set()
        for u in range(n):
            for v in iter_bits(g.rows[u]):
                if u < v < t:
                    arcs.add((u, v) if rng.random() < 0.5 else (v, u))
                elif v >= t:
                    arcs |= {(u, v), (v, u)}
        yield Digraph.from_arcs(n, sorted(arcs)), [list(range(t)), list(range(t, n))]


def _shrikhande_beside_circulant(rng):
    """The Shrikhande graph (Z4 x Z4, steps +-(1, 0), +-(0, 1), +-(1, 1))
    beside the 6-regular circulant on 9 vertices, steps 1, 2 and 3 either
    way, each relabelled within itself, the circulant first.  Refinement
    cannot tell the two apart, nor, once a Shrikhande vertex is
    individualised, the two orbits of its stabiliser on its non-neighbours,
    so only automorphisms that fix the path may prune there.  The least
    leaf starts in the Shrikhande graph; with the circulant's vertices
    first, the jump-back search explores the circulant's orbits quickly."""
    arcs = [(u, (u + s) % 9) for u in range(9) for s in (1, 2, 3, 6, 7, 8)]
    for a, b in itertools.product(range(4), repeat=2):
        for da, db in ((1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)):
            arcs.append((9 + 4 * a + b, 9 + 4 * ((a + da) % 4) + (b + db) % 4))
    d = Digraph.from_arcs(25, arcs)
    return d.relabel(rng.sample(range(9), 9) + rng.sample(range(9, 25), 16))


def test_search_matches_jump_back_reference():
    # Orbit pruning and the packed leaf encoding return the very (best,
    # order) pair of the search that prunes by jump-back alone.
    rng = random.Random(2024)
    cases = []
    for d, shape in _search_inputs(rng):
        n = d.n
        perm = list(range(n))
        rng.shuffle(perm)
        d = d.relabel(perm)
        if shape is not None:
            cases.append((d, [[perm[v] for v in cell] for cell in shape]))
            continue
        cuts = sorted(rng.randint(0, n) for _ in range(2))
        order = list(range(n))
        rng.shuffle(order)
        for cells in (
            [order],
            [order[: cuts[1]], order[cuts[1]:]],
            [order[: cuts[0]], order[cuts[0] : cuts[1]], order[cuts[1]:]],
        ):
            cases.append((d, [c for c in cells if c]))
    # two of these three relabellings lose the least leaf when pruning
    # uses automorphisms that move the path
    srg = random.Random(7)
    cases += [(_shrikhande_beside_circulant(srg), [list(range(25))]) for _ in range(3)]
    assert len(cases) == 2603
    for d, cells in cases:
        got = _canon(d.n, d.rows, d.in_rows, [list(c) for c in cells])
        assert got == brute_canon(d.n, d.rows, d.in_rows, cells), (d, cells)


def test_encode_matches_row_by_row_reference():
    # one to nine bytes per row, then wider rows
    rng = random.Random(64)
    for n in list(range(1, 71)) + [150, 1000]:
        for p in (0.5, 3 / n):
            if n == 1000 and p == 0.5:
                continue  # the reference takes a quarter second
            rows = [mask_of(w for w in range(n) if w != v and rng.random() < p) for v in range(n)]
            order = list(range(n))
            rng.shuffle(order)
            assert _encode(n, rows, order) == brute_encode(n, rows, order), (n, p)
