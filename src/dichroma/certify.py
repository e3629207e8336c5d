"""The checks of the searches' answers.  This module imports only digraphs
and formats (and math), so a check cannot share code with the search it
checks.

solver.is_k_dicolourable checks each colouring the search finds with
verify_dicolouring before returning it, so its callers get checked
colourings; those it does not return (the cover's walk, the induced
acyclic sets, vertex arboricity's forest partition) are checked where
they are made.  _mask_acyclic is the package's one mask checker, a peel
driven by out-degree counts and in-rows: at limit 0 it removes sinks and
passes the acyclic sets, at limit 1 on a graph's symmetric rows it
removes leaves and passes the forests.  It shares no code with the class
tests (_creates_cycle, _closes_forest_cycle) or any search, so a fault
in a search cannot pass its own answers.  class_count checks the
generators' lists by their length: it counts the classes without listing
any.
"""

from __future__ import annotations

import math
from typing import Sequence

from .digraphs import Digraph
from .formats import dump_digraph


def _mask_acyclic(rows: Sequence[int], irows: Sequence[int], mask: int, limit=0) -> bool:
    """Is the mask's (limit + 1)-core empty?  A peel: each vertex counts its
    out-neighbours in the mask, one whose count is at most limit is
    removed, and that takes one from the count of each of its in-neighbours
    there.  Limit 0 peels sinks and empties the acyclic masks; limit 1 on a
    graph's symmetric rows peels leaves and empties the forests.  Counts
    only fall, so each vertex is queued once and no pass rescans the mask."""
    out = [0] * len(rows)
    peel = []
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        out[v] = deg = (rows[v] & mask).bit_count()
        if deg <= limit:
            peel.append(v)
        m ^= low
    left = mask.bit_count() - len(peel)
    while peel:
        r = irows[peel.pop()] & mask
        while r:
            low = r & -r
            u = low.bit_length() - 1
            out[u] -= 1
            if out[u] == limit:
                peel.append(u)
                left -= 1
            r ^= low
    return not left


def verify_dicolouring(d: Digraph, colouring: Sequence[int], k: int) -> bool:
    """Independent certificate check (no use of the search code path)."""
    if len(colouring) != d.n:
        return False
    classes: dict[int, int] = {}  # a dict, not a list: k may be huge
    for v, c in enumerate(colouring):
        if not 1 <= c <= k:
            return False
        classes[c] = classes.get(c, 0) | 1 << v
    rows, irows = d.rows, d.in_rows
    for m in classes.values():
        if not _mask_acyclic(rows, irows, m):
            return False
    return True


def _verified(d: Digraph, colouring: list[int], k: int) -> list[int]:
    """The colouring, if it is a k-dicolouring of d; else RuntimeError."""
    if not verify_dicolouring(d, colouring, k):
        raise RuntimeError(
            f"{k}-dicolouring {colouring} of {dump_digraph(d)} fails verification"
        )
    return colouring


def class_count(n: int, kind: str) -> int:
    """The number of classes of tournaments (kind "tournament") or graphs
    ("graph") of order n, by Burnside's lemma over cycle types (Harary and
    Palmer, Graphical Enumeration, 1973).  A permutation with cycle lengths
    l_i fixes 2^e labelled graphs, e the sum of gcd(l_i, l_j) over pairs of
    cycles and of floor(l_i / 2) over cycles, and as many tournaments when
    every l_i is odd, else none.  A list of pairwise distinct certificates
    is complete when its length is this count; a filtered list rests
    instead on its filter being a class property, which _generate checks."""
    if kind not in ("tournament", "graph"):
        raise ValueError(f"kind must be tournament or graph, got {kind!r}")
    perms = math.factorial(n)
    total = 0
    parts = [n] if n else []  # partitions of n, reverse lexicographic
    while True:
        if kind == "graph" or all(l % 2 for l in parts):
            e = sum(l // 2 for l in parts)
            z = 1  # perms / z permutations have this cycle type
            for i, l in enumerate(parts):
                e += sum(math.gcd(l, m) for m in parts[i + 1:])
                z *= l * parts[: i + 1].count(l)
            total += perms // z << e
        ones = 0
        while parts and parts[-1] == 1:
            ones += parts.pop()
        if not parts:
            return total // perms
        # the last part above 1 loses one, and it and the ones refill
        # parts of that new size, and a remainder
        parts[-1] -= 1
        size, left = parts[-1], ones + 1
        while left > size:
            parts.append(size)
            left -= size
        parts.append(left)
