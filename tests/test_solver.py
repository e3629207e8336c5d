import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from dichroma.digraphs import (
    Digraph,
    circulant_tournament,
    mask_of,
)
from dichroma import certify, enumeration, solver
from dichroma.certify import verify_dicolouring
from dichroma.enumeration import (
    GEN_CAP, _hard_classes, gen_tournaments, verify_census_bound,
)
from dichroma.formats import d6_decode, d6_encode
from dichroma.reductions import CnfFormula, reduce_digon, solve_reduction
from dichroma.solver import (
    _bound_chunk,
    _class_masks,
    _uncovered,
    dichromatic_number,
    find_circulant_candidate,
    induced_acyclic_set,
    is_dicritical,
    is_k_dicolourable,
)

from bruteforce import (
    enumerate_dicolourings,
    brute_bound_chunk,
    brute_chromatic_number,
    brute_dichromatic_number,
    brute_dicolourable,
    brute_max_induced_acyclic,
    brute_shortest_cycle,
    brute_uncovered,
    graph,
    kahn_acyclic,
    random_digraph,
    random_oriented,
    relabelled_dfs_colour,
)


TRI = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])  # the directed triangle


def is_acyclic(d):
    """The one-colour check: verify_dicolouring's sink peel on every vertex."""
    return verify_dicolouring(d, [1] * d.n, 1)


def tt(n):
    return Digraph.from_arcs(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


def test_mask_acyclic_matches_bruteforce():
    rng = random.Random(606)
    seen = set()
    for i in range(400):
        n = rng.randint(1, 12)
        p = rng.choice((0.1, 0.2, 0.35, 0.5))
        d = random_digraph(rng, n, p) if i % 2 else random_oriented(rng, n, p)
        for _ in range(8):
            mask = rng.getrandbits(n)
            want = kahn_acyclic(d, [v for v in range(n) if mask >> v & 1])
            assert certify._mask_acyclic(d.rows, d.in_rows, mask) == want
            seen.add(want)
        assert is_acyclic(d) == kahn_acyclic(d, range(n))
    assert seen == {False, True}
    # each vertex is peeled once: a peel that rescanned the mask for sinks
    # would make 3,000 passes over a path
    n = 3000
    forward = [(v, v + 1) for v in range(n - 1)]
    backward = [(w, v) for v, w in forward]
    for arcs, far in ((forward, (1, 0)), (backward, (n - 2, n - 1))):
        assert is_acyclic(Digraph.from_arcs(n, arcs))
        # a digon at the end away from the sink: all the rest is peeled
        assert not is_acyclic(Digraph.from_arcs(n, arcs + [far]))
    # the leaf peel at limit 1 likewise: the bidirected path is a forest,
    # and one chord leaves a cycle after its two tails are peeled
    full = (1 << n) - 1
    for edges, forest in ((forward, True), (forward + [(100, n - 100)], False)):
        rows = graph(n, edges).rows
        assert certify._mask_acyclic(rows, rows, full, 1) == forest


def test_k_validation():
    with pytest.raises(ValueError):
        is_k_dicolourable(tt(2), 0)


def test_acyclic_gets_one_colour():
    col = is_k_dicolourable(tt(6), 1)
    assert col == [1] * 6
    assert verify_dicolouring(tt(6), col, 1)


def test_digon_needs_two_colours():
    d = Digraph.from_arcs(2, [(0, 1), (1, 0)])
    assert is_k_dicolourable(d, 1) is None
    col = is_k_dicolourable(d, 2)
    assert col is not None and col[0] != col[1]


def test_dichromatic_number_conventions():
    assert dichromatic_number(Digraph.from_arcs(0, [])) == (0, [])
    k, col = dichromatic_number(Digraph.from_arcs(3, []))
    assert k == 1 and col == [1, 1, 1]


def test_solver_vs_bruteforce():
    rng = random.Random(42)
    for _ in range(120):
        n = rng.randint(1, 7)
        d = random_digraph(rng, n, 0.4)
        for k in (1, 2, 3):
            got = is_k_dicolourable(d, k)
            want = brute_dicolourable(d, k)
            assert (got is None) == (want is None)
            if got is not None:
                assert verify_dicolouring(d, got, k)
        k, col = dichromatic_number(d)
        assert k == brute_dichromatic_number(d)
        assert verify_dicolouring(d, col, max(k, 1))


def test_bidirected_cliques_match_chromatic_number():
    for n in range(1, 7):
        g = graph(n, itertools.combinations(range(n), 2))
        assert dichromatic_number(g)[0] == n == brute_chromatic_number(g)


def test_monotone_under_arc_addition():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 7)
        rows = [0] * n
        prev = 1
        pool = [(u, v) for u in range(n) for v in range(n) if u != v]
        rng.shuffle(pool)
        for u, v in pool:
            rows[u] |= 1 << v
            k = dichromatic_number(Digraph(n, rows))[0]
            assert k >= prev
            prev = k


def test_verify_dicolouring_rejects_bad_input():
    assert not verify_dicolouring(TRI, [1, 1, 1], 2)
    assert not verify_dicolouring(TRI, [1, 2], 2)  # wrong length
    assert not verify_dicolouring(TRI, [1, 2, 3], 2)  # colour out of range
    assert not verify_dicolouring(TRI, [0, 1, 1], 2)
    assert verify_dicolouring(TRI, [1, 1, 2], 2)


@given(st.data())
def test_verify_dicolouring_matches_its_definition(data):
    # True exactly when the colouring has n colours, each in 1..k, and
    # every class is acyclic by Kahn's peel; wrong lengths, colours 0 and
    # k + 1 and a k too large for a list of classes are drawn too
    n = data.draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    d = Digraph.from_arcs(n, data.draw(st.sets(st.sampled_from(pairs))) if pairs else ())
    k = data.draw(st.sampled_from([1, 2, 3, 2**63]))
    size = data.draw(st.sampled_from([n, n, n, n + 1, max(n - 1, 0)]))
    colour = st.one_of(st.integers(1, min(k, 3)), st.just(k))
    col = data.draw(st.lists(colour, min_size=size, max_size=size))
    if col and data.draw(st.booleans()):  # one colour out of range
        col[data.draw(st.integers(0, size - 1))] = data.draw(st.sampled_from([0, k + 1]))
    want = (len(col) == n and all(1 <= c <= k for c in col)
            and all(kahn_acyclic(d, [v for v in range(n) if col[v] == c]) for c in set(col)))
    assert verify_dicolouring(d, col, k) == want


@given(st.data())
def test_search_in_place_matches_the_relabelled_search(data):
    # the search places the vertices in the order asked on d's own labels:
    # the colouring the relabelled search finds, mapped back, in the
    # saturation order, in random orders, and in a tournament's 0..n-1
    n = data.draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if data.draw(st.booleans()):  # a tournament: u -> v for u < v when drawn
        arcs = {(u, v) if (u, v) in arcs else (v, u) for u, v in pairs if u < v}
    d = Digraph.from_arcs(n, arcs)
    k = data.draw(st.integers(1, 3))
    seq = data.draw(st.one_of(st.none(), st.permutations(range(n))))
    seq = solver._saturation_order(d) if seq is None else list(seq)
    assert solver._dfs_colour(d, k, seq) == relabelled_dfs_colour(d, k, seq)
    assert solver._dfs_colour(d, k) == relabelled_dfs_colour(d, k)


def test_enumerate_dicolourings_matches_bruteforce_count():
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(1, 5)
        d = random_digraph(rng, n, 0.4)
        for k in (1, 2):
            got = list(enumerate_dicolourings(d, k))
            want = [
                a
                for a in itertools.product(range(1, k + 1), repeat=n)
                if verify_dicolouring(d, list(a), k)
            ]
            assert got == want  # same set, same lexicographic order


def test_colourings_are_frozen(count_calls):
    # sha256 over the returned colourings and the number of class-cycle
    # checks the search makes: its vertex and colour order, not only its
    # answers, must survive changes to the search
    calls = count_calls(solver, "_creates_cycle")
    rng = random.Random(1312)
    inputs = list(gen_tournaments(7))
    for _ in range(2000):
        n = rng.randint(1, 12)
        inputs.append(random_digraph(rng, n, rng.choice((0.1, 0.2, 0.35, 0.5))))
    h = hashlib.sha256()
    for d in inputs:
        for k in (1, 2, 3):
            h.update(repr(is_k_dicolourable(d, k)).encode() + b"\n")
    st11 = circulant_tournament(11, (1, 3, 4, 5, 9))
    h.update(repr(is_dicritical(st11, 4).arc_colourings).encode())
    assert (h.hexdigest(), calls["_creates_cycle"]) == (
        "b83aeabe61919a1dff82f72683f6734e684580b546fa659c23631e9cd9836797",
        64199,
    )


def test_tournament_colourings_are_frozen(count_calls):
    # sha256 and class-cycle checks, pinned when tournaments still took
    # the saturation search: the fixed vertex order must give its
    # colourings and make its checks
    inputs = gen_tournaments(8)
    calls = count_calls(solver, "_creates_cycle")
    h = hashlib.sha256()
    for t in inputs:
        for k in (2, 3):
            h.update(repr(is_k_dicolourable(t, k)).encode() + b"\n")
    assert (h.hexdigest(), calls["_creates_cycle"]) == (
        "ef0fb390a8f78e0a0293dbf8edadd8c81d8dabf6ad82995670d404d00ae12bfd",
        232312,
    )


def test_skeleton_colourings_are_frozen(count_calls):
    # the same pin on reduction skeletons: orders in the hundreds, each a
    # clause ring in a web of digons, where the order's digon weighting
    # decides the search; satisfiable and unsatisfiable formulas both
    calls = count_calls(solver, "_creates_cycle")
    rng = random.Random(4242)
    h = hashlib.sha256()
    for _ in range(12):
        nv = rng.randint(3, 8)
        clauses = tuple(
            tuple(rng.choice((1, -1)) * v for v in rng.sample(range(1, nv + 1), 3))
            for _ in range(rng.randint(nv, 8 * nv))
        )
        skeleton = reduce_digon(CnfFormula(nv, clauses)).skeleton
        for k in (2, 3):
            h.update(repr(is_k_dicolourable(skeleton, k)).encode() + b"\n")
    assert (h.hexdigest(), calls["_creates_cycle"]) == (
        "b54567bb20477e7965493abbddb1e998185d84dfe7cd1b38a06ea906c9088e1e",
        12289,
    )


def _walk(d, k):
    walk = solver._static_colourings(d.rows, d.in_rows, d.n, k, solver._creates_cycle)
    return [list(col) for col in walk]


def test_static_colourings_are_the_distinct_partitions():
    # each partition into at most k acyclic classes once, colours in order
    # of first use: the class sets of every colouring, without repeats
    rng = random.Random(1515)
    for i in range(300):
        n = rng.randint(0, 7)
        p = rng.choice((0.15, 0.3, 0.5, 0.7, 1.0))
        d = random_digraph(rng, n, p) if i % 3 else random_oriented(rng, n, p)
        for k in (1, 2, 3):
            got = []
            for col in _walk(d, k):
                assert all(c <= max(col[:v], default=0) + 1
                           for v, c in enumerate(col))
                assert verify_dicolouring(d, col, k)
                got.append(frozenset(_class_masks(col, k)) - {0})
            assert len(set(got)) == len(got), (d.rows, k)
            want = {
                frozenset(_class_masks(col, k)) - {0}
                for col in enumerate_dicolourings(d, k)
            }
            assert set(got) == want, (d.rows, k)


def test_static_colourings_edge_cases():
    empty = Digraph.from_arcs(0, [])
    single = Digraph.from_arcs(1, [])
    for k in (0, 1, 2):
        assert _walk(empty, k) == [[]]
    assert _walk(single, 0) == []
    assert _walk(single, 1) == _walk(single, 3) == [[1]]
    # k > n: never more classes than vertices
    assert _walk(tt(2), 5) == [[1, 1], [1, 2]]
    assert _walk(TRI, 5) == [[1, 1, 2], [1, 2, 1], [1, 2, 2], [1, 2, 3]]
    assert is_k_dicolourable(empty, 1) == []
    assert is_k_dicolourable(single, 1) == [1]
    assert is_k_dicolourable(TRI, 7) == [1, 1, 2]
    # a count past the order is read as the order, so it allocates nothing
    assert _walk(TRI, 2**63) == _walk(TRI, 3)
    assert is_k_dicolourable(TRI, 2**63) == [1, 1, 2]
    assert verify_census_bound(3, 2**63) == (True, None)
    # k = 0, which vertex arboricity walks: no colouring of a nonempty digraph
    for d in (tt(3), TRI, Digraph.from_arcs(3, [(0, 1)])):
        assert _walk(d, 0) == []


def test_dicritical_examples():
    rep = is_dicritical(TRI, 2)
    assert rep.is_dicritical and rep.k == 2
    # a directed 4-cycle with a chord is 2-chromatic but not 2-dicritical
    c4c = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    rep = is_dicritical(c4c, 2)
    assert not rep.is_dicritical
    assert rep.failing_arc is not None
    single = Digraph.from_arcs(1, [])
    assert is_dicritical(single, 1).chi == 1
    assert is_dicritical(single, 1).is_dicritical
    # at k = 1 only the order is checked, so no dichromatic number is claimed
    rep = is_dicritical(TRI, 1)
    assert not rep.is_dicritical and rep.chi is None
    # an isolated vertex fails the degree check like any other
    rep = is_dicritical(Digraph.from_arcs(3, [(0, 1), (1, 0)]), 2)
    assert not rep.is_dicritical
    assert rep.reason == "vertex 2 has in- or out-degree below 1"
    # a bidirected K5 passes the degree check at k = 4 but needs 5 colours
    rep = is_dicritical(graph(5, itertools.combinations(range(5), 2)), 4)
    assert not rep.is_dicritical and rep.reason == "not even 4-dicolourable"
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        is_dicritical(TRI, 0)


def test_dicritical_report_json():
    obj = is_dicritical(TRI, 2).to_json()
    assert obj["k"] == 2 and obj["is_dicritical"] is True


def test_shortest_cycle_matches_bfs_reference():
    # the digon and triangle steps must return the BFS's own first
    # shortest cycle, on every mask
    rng = random.Random(1977)
    groups = {
        "digons": lambda n: random_digraph(rng, n, rng.choice((0.15, 0.35, 0.6))),
        "oriented": lambda n: random_oriented(rng, n, rng.choice((0.3, 0.6, 0.85))),
        "tournaments": lambda n: random_oriented(rng, n, 1.0),
    }
    for group, draw in groups.items():
        lengths = set()
        for _ in range(40):
            d = draw(rng.randint(1, 8))
            rows, irows = d.rows, d.in_rows
            digon_mask = mask_of(v for v, r in enumerate(d.digon_rows) if r)
            for mask in range(1 << d.n):
                want = brute_shortest_cycle(rows, irows, mask)
                got = solver._shortest_cycle(rows, irows, mask, digon_mask)
                assert got == want, (group, rows, mask)
                if group == "tournaments":
                    got = solver._shortest_cycle(rows, irows, mask, 0, True)
                    assert got == want, (group, rows, mask)
                lengths.add(None if want is None else len(want))
        assert {None, 3} <= lengths, group
        assert (2 in lengths) == (group == "digons"), group
        assert 4 in lengths or group == "tournaments", group


def test_induced_acyclic_sets_are_frozen():
    # sha256 over the first-hit sets, every size from 0 to n + 1: the
    # visit order, not only the size, must survive changes to the search
    rng = random.Random(3)
    h = hashlib.sha256()
    inputs = list(gen_tournaments(7))
    for i in range(2000):
        n = rng.randint(1, 11)
        p = rng.choice((0.1, 0.25, 0.4, 0.6, 0.8, 1.0))
        d = random_digraph(rng, n, p) if i % 2 else random_oriented(rng, n, p)
        inputs.append(d)
    for d in inputs:
        for size in range(d.n + 2):
            h.update(repr(induced_acyclic_set(d, size)).encode() + b"\n")
    assert h.hexdigest() == (
        "bf7005e65bcc7f7e048198293d807a7c235623fa0cdf0ad387f6b2ae957bd472"
    )


def test_induced_acyclic_set_vs_bruteforce():
    # None exactly when the maximum is below size, else an acyclic set of
    # at least size vertices, for every size from 0 to n + 1: tournaments
    # and digraphs of three densities on up to 8 vertices, then sparse
    # digraphs on up to 12
    rng = random.Random(41)
    inputs = []
    for i in range(160):
        n = rng.randint(0, 8)
        inputs.append(random_oriented(rng, n, 1.0) if i % 2  # a tournament
                      else random_digraph(rng, n, rng.choice((0.2, 0.45, 0.7))))
    rng = random.Random(20260825)
    inputs += [random_digraph(rng, rng.randint(1, 12), 0.3) for _ in range(100)]
    for d in inputs:
        best = brute_max_induced_acyclic(d)
        for size in range(d.n + 2):
            got = induced_acyclic_set(d, size)
            if size > best:
                assert got is None, (d.rows, size)
            else:
                assert got == sorted(got) and len(got) >= size, (d.rows, size)
                assert kahn_acyclic(d, got), (d.rows, size)


def test_induced_acyclic_set_checks_its_answer(monkeypatch):
    monkeypatch.setattr(solver, "_shortest_cycle", lambda *a: None)
    with pytest.raises(RuntimeError):
        induced_acyclic_set(TRI, 3)


def test_induced_acyclic_set_deep_search():
    # digons from the hub, labelled last, to 1,200 leaves: at size 1 the
    # first branch drops the leaves one by one, one frame per leaf for a
    # recursive search; at size n it keeps the leaves by dropping the hub
    n = 1200
    star = Digraph.from_arcs(n + 1, [a for v in range(n) for a in ((v, n), (n, v))])
    assert induced_acyclic_set(star, 1) == [n]
    assert induced_acyclic_set(star, n) == list(range(n))


def test_digon_step_work_is_linear(monkeypatch):
    # on a digon matching (pairs 2i <-> 2i+1) the first branch breaks one
    # pair per node; the digon candidates scanned below each digon answer
    # [s, w] stay linear in the pairs, where rescanning every broken pair
    # from vertex 0 at each node is quadratic
    pairs = 2000
    d = Digraph.from_arcs(2 * pairs, [
        a for i in range(pairs) for a in ((2 * i, 2 * i + 1), (2 * i + 1, 2 * i))
    ])
    real, scanned = solver._shortest_cycle, []

    def counted(rows, irows, mask, digon_mask, tournament=False):
        cyc = real(rows, irows, mask, digon_mask, tournament)
        if cyc is not None and len(cyc) == 2:
            scanned.append((mask & digon_mask & ((1 << cyc[0]) - 1)).bit_count())
        return cyc

    monkeypatch.setattr(solver, "_shortest_cycle", counted)
    assert induced_acyclic_set(d, 1) == list(range(1, 2 * pairs, 2))
    assert len(scanned) == pairs and sum(scanned) <= pairs


def test_dicritical_colourings_are_verified(monkeypatch):
    # a wrong colouring from the search is caught, whichever the report
    # would carry: a non-critical digraph's (k-1)-colouring (first solve),
    # the k-colouring (second) or an arc deletion's (third); a colour past
    # k is wrong for any digraph
    real = solver._dfs_colour
    for d, k, bad in ((circulant_tournament(5, (1, 2)), 3, 1), (TRI, 2, 2), (TRI, 2, 3)):
        solves = itertools.count(1)
        monkeypatch.setattr(solver, "_dfs_colour", lambda g, j, seq: (
            [j + 1] * g.n if next(solves) == bad else real(g, j, seq)))
        with pytest.raises(RuntimeError):
            is_dicritical(d, k)


def test_a_faulty_search_is_caught_at_every_entry(monkeypatch):
    # one colour for every vertex is wrong on any digraph with a cycle;
    # is_k_dicolourable checks it, so every caller of the search is covered
    # (test_cli's test_internal_error_exit_code maps the RuntimeError that
    # dichromatic_number raises here to dichi's exit 3)
    monkeypatch.setattr(solver, "_dfs_colour", lambda d, k, seq: [1] * d.n)
    triangle = d6_encode(graph(3, [(0, 1), (1, 2), (0, 2)]))
    phi = CnfFormula(3, ((1, -2, 3),))
    for call in (
        lambda: is_k_dicolourable(TRI, 2),
        lambda: dichromatic_number(TRI),
        lambda: enumeration._census_graph_task((triangle, 2)),
        lambda: solve_reduction(reduce_digon(phi)),
    ):
        with pytest.raises(RuntimeError, match="fails verification"):
            call()


def test_max_degree_plus_one_colours_suffice():
    # one colour more than the largest degree always admits a dicolouring
    rng = random.Random(20260825)
    for _ in range(100):
        d = random_digraph(rng, rng.randint(1, 8), 0.4)
        k = 1 + max(
            max(d.out_degree(v), d.in_degree(v)) for v in range(d.n)
        )
        col = is_k_dicolourable(d, k)
        assert col is not None
        assert verify_dicolouring(d, col, k)


def test_bound_chunk_matches_per_mask_loop():
    # the cover against one solve per mask, one parent per call: same
    # verdict and the same first counterexample, failing parents included
    cases = [(n, k) for n in range(1, 7) for k in (1, 2, 3)] + [(7, 2)]
    fails = 0
    for n, k in cases:
        for i, t in enumerate(gen_tournaments(n)):
            task = (i, [d6_encode(t)], k)
            got = _bound_chunk(task)
            assert got == brute_bound_chunk(task), (n, k, task)
            fails += not got[1]
    assert fails == 1 + 2 + 4 + 12 + 56 + 10 + 265  # k=1 at n<=6, k=2 at n=6, 7
    with pytest.raises(ValueError, match="not a tournament"):
        _bound_chunk((0, [d6_encode(Digraph(2, (2, 1)))], 1))  # a digon


def test_extended_tournament_carries_its_in_rows():
    for t in gen_tournaments(5):
        for mask in range(1 << t.n):
            child = solver._extend_tournament(t, mask)
            assert child.in_rows == Digraph(child.n, child.rows).in_rows


def test_uncovered_checks_every_colouring_it_uses(monkeypatch):
    assert _uncovered(TRI, 1) == list(range(8))  # nothing to verify
    monkeypatch.setattr(certify, "verify_dicolouring", lambda *a: False)
    for t, k in ((tt(3), 2), (TRI, 2)):  # (k-1)-solve, then the walk
        with pytest.raises(RuntimeError):
            _uncovered(t, k)


def test_uncovered_matches_the_walk_over_every_colouring(count_calls, monkeypatch):
    # one colouring per partition leaves the masks that every colouring,
    # deduplicated by class set, leaves; with the (k-1) solve skipped
    # too, even where it would have succeeded
    for n in range(1, 8):
        for t in gen_tournaments(n):
            for k in (1, 2, 3):
                want = brute_uncovered(t, k)
                assert _uncovered(t, k) == want, (d6_encode(t), k)
                assert _uncovered(t, k, True) == want, (d6_encode(t), k)
    hard = [d6_decode(s) for s in _hard_classes(8, 2)]
    calls = count_calls(solver, "_creates_cycle")
    counts = []
    for cover in (brute_uncovered, _uncovered, lambda t, k: _uncovered(t, k, True)):
        calls.clear()
        assert all(cover(t, 3) == [] for t in hard)
        counts.append(calls["_creates_cycle"])
    assert counts == [28535, 28535, 3335]
    # a chunk of known-hard parents makes no (k-1) solve
    task = (0, [d6_encode(t) for t in hard], 3)
    assert _bound_chunk(task) == (0, True, None)

    def refuse(*args):
        raise AssertionError("(k-1) solve of a hard parent")

    monkeypatch.setattr(solver, "is_k_dicolourable", refuse)
    assert _bound_chunk(task + (True,)) == (0, True, None)


def test_hard_classes_are_the_classes_that_fail():
    # k = 0 is every class: no tournament with a vertex is 0-dicolourable
    for n in range(2, 9):
        classes = gen_tournaments(n)
        assert _hard_classes(n, 0) == [d6_encode(t) for t in classes], n
        for k in (1, 2):
            want = [d6_encode(t) for t in classes if is_k_dicolourable(t, k) is None]
            assert _hard_classes(n, k) == want, (n, k)
    assert len(want) == 258
    # order 1 has no level to filter, so K1 is kept whatever k
    assert [_hard_classes(1, k) for k in (0, 1, 2)] == [["&@?"]] * 3


def test_verify_census_bound_small():
    assert verify_census_bound(1, 1) == (True, None)
    for n, k in ((0, 1), (1, 0), (9, 0)):
        with pytest.raises(ValueError):
            verify_census_bound(n, k)
    serial = verify_census_bound(8, 2)
    assert serial == (False, d6_decode("&G]bwXAoEyI[O"))
    assert is_k_dicolourable(serial[1], 2) is None
    assert verify_census_bound(8, 2, jobs=2) == serial


def test_verify_census_bound_small_cases_pinned(tmp_path):
    # k = 1 and n = 2 extend every class: verdicts, parents, checkpoint bytes
    verdicts, parents, h = [], [], hashlib.sha256()
    for n, k in [(n, 1) for n in range(2, 8)] + [(2, 2), (2, 3)]:
        ck = tmp_path / f"bound-{n}-{k}.ckpt"
        ok, cex = verify_census_bound(n, k, checkpoint=str(ck))
        verdicts.append(ok or d6_encode(cex))
        h.update(ck.read_bytes())
        parents.append(json.loads(ck.read_text().splitlines()[0])["parents"])
    assert verdicts == [True, "&BP_", "&CWp_", "&D[[WW?", "&E]NFB@_", "&F^Fpw[E@_?",
                        True, True]
    assert parents == [1, 1, 2, 4, 12, 56, 1, 1]
    assert h.hexdigest() == (
        "cb32ab54db28b1ee8e1abb621f0cbf70a29d313aa78f14566a5079c972a8b69e")


def test_verify_census_bound_checks_the_cap_first(monkeypatch):
    # order GEN_CAP + 1 extends tournaments of order GEN_CAP, which is
    # allowed; one more is refused before any generation starts
    def generate(n, *args):
        raise AssertionError(f"generation of order {n} started")

    monkeypatch.setattr(enumeration, "gen_tournaments", generate)
    monkeypatch.setattr(enumeration, "_generate", generate)
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="generation cap"):
            verify_census_bound(GEN_CAP + 2, k)


def test_verify_census_bound_streaming_with_checkpoint(tmp_path):
    # k=2 fails fast, in chunk 0
    ck = tmp_path / "bound.ckpt"
    ok, cex = verify_census_bound(7, 2, checkpoint=str(ck))
    assert (ok, cex) == (False, d6_decode("&F\\F`GMsPq?"))
    assert is_k_dicolourable(cex, 2) is None
    # resuming from the finished checkpoint reproduces the verdict
    ok2, cex2 = verify_census_bound(7, 2, checkpoint=str(ck))
    assert not ok2 and cex2 == cex
    # a torn last record is dropped and recomputed
    finished = ck.read_bytes()
    ck.write_bytes(finished[:-5])
    ok3, cex3 = verify_census_bound(7, 2, checkpoint=str(ck))
    assert not ok3 and cex3 == cex
    assert ck.read_bytes() == finished


def test_bound_checkpoint_is_versioned(tmp_path):
    ck = tmp_path / "bound.ckpt"
    assert verify_census_bound(4, 2, checkpoint=str(ck)) == (True, None)
    header, record = (json.loads(ln) for ln in ck.read_text().splitlines())
    assert header == {"kind": "tournament-bound", "version": 2, "n": 4,
                      "k": 2, "parents": 1, "chunks": 1}  # the 3-cycle
    assert record == {"chunk": 0, "ok": True}
    # a finished file from before the layering: its chunks held every
    # order-3 class, so it is refused and left as it was
    old = b'{"kind": "tournament-bound", "n": 4, "k": 2, "chunks": 1}\n' \
          b'{"chunk": 0, "ok": true}\n'
    ck.write_bytes(old)
    with pytest.raises(ValueError):
        verify_census_bound(4, 2, checkpoint=str(ck))
    assert ck.read_bytes() == old


def test_find_circulant_candidate_small():
    d, s = find_circulant_candidate(3, 2)
    assert s == (1,) and d.n == 3
    # every circulant on 5 vertices qualifies: the least of them is returned
    assert find_circulant_candidate(5, 3)[1] == (1, 2)
    with pytest.raises(ValueError):
        find_circulant_candidate(3, 3)  # a triangle has no acyclic triple
    with pytest.raises(ValueError):
        find_circulant_candidate(4, 2)  # even order
