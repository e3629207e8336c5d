"""Property tests for canonical certificates, drawn by hypothesis when it
is installed (the `test` extra); skipped otherwise."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from dichroma.canon import canonical_cert, canonical_form
from dichroma.digraphs import Digraph

from bruteforce import cell_cert

PROPERTY = settings(derandomize=True, deadline=None)


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


@PROPERTY
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


@PROPERTY
@given(relabelled_symmetric())
def test_certificate_of_symmetric_input_is_relabelling_invariant(case):
    _assert_relabelling_invariant(*case)


@PROPERTY
@given(relabelled_digraphs())
def test_canonical_form_is_idempotent(case):
    d, perm, _ = case
    form = canonical_form(d)
    assert canonical_form(form) == form
    assert canonical_form(d.relabel(perm)) == form
