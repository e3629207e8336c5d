"""Round-trip property tests for the digraph6 and arc-list formats, drawn by
hypothesis when it is installed (the `test` extra); skipped otherwise."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from dichroma.digraphs import Digraph
from dichroma.formats import D6_MAX, arclist_decode, arclist_encode, d6_decode, d6_encode

PROPERTY = settings(derandomize=True, deadline=None)


@st.composite
def digraphs(draw):
    """A digraph on at most D6_MAX vertices, digons allowed: one bit per
    ordered pair of distinct vertices, row u taking n-1 of them."""
    n = draw(st.integers(0, D6_MAX))
    width = n - 1
    bits = draw(st.integers(0, (1 << n * width) - 1)) if n else 0
    rows = []
    for u in range(n):
        chunk = bits >> u * width & ((1 << width) - 1)
        below = (1 << u) - 1
        rows.append(chunk & below | (chunk & ~below) << 1)  # skip bit u
    return Digraph(n, rows)


@PROPERTY
@given(digraphs())
def test_d6_round_trip(d):
    assert d6_decode(d6_encode(d)) == d


@PROPERTY
@given(digraphs())
def test_arclist_round_trip(d):
    assert arclist_decode(arclist_encode(d)) == d
