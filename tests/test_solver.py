import itertools
import random

import pytest

from dichroma.digraphs import (
    Digraph,
    bidirect,
    build_graph,
    circulant_tournament,
)
from dichroma.enumeration import verify_census_bound
from dichroma.solver import (
    dichromatic_number,
    enumerate_dicolourings,
    find_circulant_candidate,
    is_acyclic,
    is_dicritical,
    is_k_dicolourable,
    is_list_dicolourable,
    max_induced_acyclic,
    verify_dicolouring,
)

from bruteforce import (
    brute_chromatic_number,
    brute_dichromatic_number,
    brute_dicolourable,
    brute_list_dicolourable,
    brute_max_induced_acyclic,
    dicolouring_cnf,
    dpll,
    kahn_acyclic,
    random_digraph,
)


def tt(n):
    return Digraph.from_arcs(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


def test_is_acyclic_examples():
    assert is_acyclic(tt(5))
    assert not is_acyclic(Digraph.from_arcs(2, [(0, 1), (1, 0)]))
    assert not is_acyclic(circulant_tournament(11, (1, 3, 4, 5, 9)))
    assert is_acyclic(Digraph.from_arcs(0, []))


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
        g = build_graph(n, list(itertools.combinations(range(n), 2)))
        assert dichromatic_number(bidirect(g))[0] == n == brute_chromatic_number(g)


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
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert not verify_dicolouring(tri, [1, 1, 1], 2)
    assert not verify_dicolouring(tri, [1, 2], 2)  # wrong length
    assert not verify_dicolouring(tri, [1, 2, 3], 2)  # colour out of range
    assert verify_dicolouring(tri, [1, 1, 2], 2)


def test_verify_dicolouring_with_lists():
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    lists = [[1], [1, 2], [2]]
    assert verify_dicolouring(tri, [1, 1, 2], 2, lists=lists)
    assert not verify_dicolouring(tri, [1, 1, 1], 2, lists=lists)


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


def test_st11_dichromatic_number():
    st11 = circulant_tournament(11, (1, 3, 4, 5, 9))
    assert is_k_dicolourable(st11, 3) is None
    col = is_k_dicolourable(st11, 4)
    assert col is not None and verify_dicolouring(st11, col, 4)


def test_dicritical_examples():
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    rep = is_dicritical(tri, 2)
    assert rep.is_dicritical and rep.k == 2
    # a directed 4-cycle with a chord is 2-chromatic but not 2-dicritical
    c4c = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    rep = is_dicritical(c4c, 2)
    assert not rep.is_dicritical
    assert rep.failing_arc is not None
    single = Digraph.from_arcs(1, [])
    assert is_dicritical(single, 1).is_dicritical
    with pytest.raises(ValueError):
        is_dicritical(Digraph.from_arcs(3, [(0, 1)]), 2)  # isolated vertex


def test_dicritical_report_json():
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    obj = is_dicritical(tri, 2).to_json()
    assert obj["k"] == 2 and obj["is_dicritical"] is True


def test_max_induced_acyclic_vs_bruteforce():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 8)
        d = random_digraph(rng, n, 0.45)
        got = max_induced_acyclic(d)
        assert kahn_acyclic(d, got)
        assert len(got) == brute_max_induced_acyclic(d)
    acyclic = tt(7)
    assert sorted(max_induced_acyclic(acyclic)) == list(range(7))


def test_list_dicolouring_examples():
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert is_list_dicolourable(tt(4), [[1]] * 4) == [1] * 4
    assert is_list_dicolourable(tri, [[1]] * 3) is None
    col = is_list_dicolourable(tri, [[5], [5], [9]])
    assert col == [5, 5, 9]
    with pytest.raises(ValueError):
        is_list_dicolourable(tri, [[1], [1]])  # one list per vertex


def test_list_dicolouring_vs_bruteforce():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 6)
        d = random_digraph(rng, n, 0.45)
        lists = [
            rng.sample(range(1, 6), rng.randint(1, 3)) for _ in range(n)
        ]
        got = is_list_dicolourable(d, lists)
        want = brute_list_dicolourable(d, lists)
        assert (got is None) == (want is None)
        if got is not None:
            assert all(got[v] in lists[v] for v in range(n))
            assert verify_dicolouring(d, got, lists=lists)


def test_cnf_export_matches_dpll():
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(1, 5)
        d = random_digraph(rng, n, 0.5)
        for k in (1, 2):
            nvars, clauses = dicolouring_cnf(d, k)
            assert dpll(nvars, clauses) == (is_k_dicolourable(d, k) is not None)


def test_verify_census_bound_small():
    ok, cex = verify_census_bound(3, 1)
    assert not ok and cex is not None and cex.n == 3
    ok, cex = verify_census_bound(4, 2)
    assert ok and cex is None
    assert verify_census_bound(1, 1) == (True, None)
    for n, k in ((0, 1), (1, 0), (9, 0)):
        with pytest.raises(ValueError):
            verify_census_bound(n, k)
    serial = verify_census_bound(8, 2)
    assert not serial[0] and is_k_dicolourable(serial[1], 2) is None
    assert verify_census_bound(8, 2, jobs=2) == serial


def test_verify_census_bound_streaming_with_checkpoint(tmp_path):
    # k=2 fails fast, in chunk 0
    ck = tmp_path / "bound.ckpt"
    ok, cex = verify_census_bound(7, 2, checkpoint=str(ck))
    assert not ok and cex is not None and cex.n == 7
    assert is_k_dicolourable(cex, 2) is None
    assert ck.exists()
    # resuming from the finished checkpoint reproduces the verdict
    ok2, cex2 = verify_census_bound(7, 2, checkpoint=str(ck))
    assert not ok2 and cex2 == cex
    # a torn last record is dropped and recomputed
    finished = ck.read_bytes()
    ck.write_bytes(finished[:-5])
    ok3, cex3 = verify_census_bound(7, 2, checkpoint=str(ck))
    assert not ok3 and cex3 == cex
    assert ck.read_bytes() == finished


def test_find_circulant_candidate_small():
    d, s = find_circulant_candidate(3, 2)
    assert s == (1,) and d.n == 3
    with pytest.raises(ValueError):
        find_circulant_candidate(3, 3)  # a triangle has no acyclic triple
    with pytest.raises(ValueError):
        find_circulant_candidate(4, 2)  # even order
