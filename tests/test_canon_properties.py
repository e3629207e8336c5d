"""Property tests for canonical certificates, drawn by hypothesis when it
is installed (the `test` extra); skipped otherwise."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from dichroma.canon import canonical_cert, canonical_form
from dichroma.digraphs import Digraph

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


@PROPERTY
@given(relabelled_digraphs())
def test_certificate_is_relabelling_invariant(case):
    d, perm, t = case
    image = d.relabel(perm)
    assert canonical_cert(image) == canonical_cert(d)
    cells = [list(range(t)), list(range(t, d.n))]
    pcells = [sorted(perm[v] for v in cell) for cell in cells]
    assert canonical_cert(image, cells=pcells) == canonical_cert(d, cells=cells)


@PROPERTY
@given(relabelled_digraphs())
def test_canonical_form_is_idempotent(case):
    d, perm, _ = case
    form = canonical_form(d)
    assert canonical_form(form) == form
    assert canonical_form(d.relabel(perm)) == form
