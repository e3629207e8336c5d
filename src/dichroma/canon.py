"""Canonical forms for digraphs and graphs.

Refinement plus backtracking, no external dependency.  The certificate is the
lexicographically least adjacency-matrix serialization over the leaves of an
individualization-refinement tree; equal-encoding leaves witness automorphisms
and let whole sibling branches be abandoned, which collapses the search on
highly symmetric inputs (bidirected cliques, circulant tournaments).

Refinement counts only against the cells that just split (McKay and
Piperno's splitter idea, in rounds): every cell of an equitable partition
has constant counts towards every cell, so after individualising v a child
refines against [v] alone, and each later round against the sub-cells the
previous round produced, less the last sub-cell of each split, whose counts
follow from its siblings' and its parent's.  The ordered partition, and so
every certificate byte, is that of recounting against every cell.

Only equality semantics are promised: cert(D1) == cert(D2) iff D1 and D2 are
isomorphic (respecting any given cell partition).  The labelling itself is an
implementation detail, but it is kept stable and its bytes are pinned by the
tests: generated representatives and stored results are picked by it.
"""

from __future__ import annotations

from typing import Sequence

from .digraphs import Digraph, mask_of


def _refine(out_rows, in_rows, cells, fresh):
    """Equitable refinement of an ordered partition.

    Each round splits every cell by its vertices' (out, in) counts towards
    the cells of the partition the round starts from, sub-cells in ascending
    order of the count tuples, until a round splits nothing or every cell is
    a singleton.  The result depends only on the isomorphism type and the
    initial cell order.

    Only counts towards `fresh`, the masks of the cells whose counts may
    differ inside a cell, are taken; the caller passes every cell at the
    root and the individualised [v] at a child of an equitable partition.
    Skipping the rest is exact: after a round every cell has constant counts
    towards every cell the round started from.  So a cell that did not split
    contributes a constant entry to all tuples of the next round, and the
    last sub-cell of a split contributes its parent's constant count minus
    its siblings' counts, an entry after theirs that cannot be the first to
    differ.  The other sub-cells are the next round's fresh cells, and
    comparing counts towards them alone gives the same buckets in the same
    order.  Each (out, in) pair is one fixed-width field of an int key, so
    int order is tuple order.
    """
    n = len(out_rows)
    width = n.bit_length()
    while fresh and len(cells) < n:
        new_cells = []
        new_fresh = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            for v in cell:
                ro = out_rows[v]
                ri = in_rows[v]
                key = 0
                for mk in fresh:
                    key = (
                        (key << width | (ro & mk).bit_count()) << width
                        | (ri & mk).bit_count()
                    )
                buckets.setdefault(key, []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
            else:
                subs = [buckets[key] for key in sorted(buckets)]
                new_cells += subs
                new_fresh += [mask_of(sub) for sub in subs[:-1]]
        cells = new_cells
        fresh = new_fresh
    return cells


def _encode(n, rows, order):
    """Adjacency bytes of the relabelling that maps order[i] to label i."""
    pos = [0] * n
    for new, old in enumerate(order):
        pos[old] = new
    nb = (n + 7) // 8
    shift = 8 * nb
    acc = 0
    for old in order:
        r = rows[old]
        nr = 0
        while r:
            low = r & -r
            nr |= 1 << pos[low.bit_length() - 1]
            r ^= low
        acc = acc << shift | nr
    return acc.to_bytes(nb * n, "big")


class _CanonSearch:
    __slots__ = ("n", "rows", "irows", "best", "best_order", "best_path", "path")

    def __init__(self, n, rows, irows):
        self.n = n
        self.rows = rows
        self.irows = irows
        self.best: bytes | None = None
        self.best_order: list[int] | None = None
        self.best_path: list[int] = []
        self.path: list[int] = []

    def run(self, cells):
        fresh = [mask_of(c) for c in cells]
        self._search(_refine(self.rows, self.irows, cells, fresh))

    def _search(self, cells):
        """Returns None, or the branch-path index to abandon back to."""
        target = -1
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target < 0:
            order = [c[0] for c in cells]
            enc = _encode(self.n, self.rows, order)
            if self.best is None or enc < self.best:
                self.best = enc
                self.best_order = order
                self.best_path = list(self.path)
                return None
            if enc == self.best:
                # Equal encoding: an automorphism maps this leaf onto the best
                # one, so the sibling branch where their paths first diverge
                # explores an isomorphic copy of already-covered territory.
                bp = self.best_path
                p = self.path
                j = 0
                while j < len(p) and j < len(bp) and p[j] == bp[j]:
                    j += 1
                if j >= len(p) or j >= len(bp):
                    return None
                return j
            return None
        cell = cells[target]
        prefix = cells[:target]
        suffix = cells[target + 1:]
        depth = len(self.path)
        for v in cell:
            self.path.append(v)
            rest = [w for w in cell if w != v]
            child = _refine(
                self.rows, self.irows, prefix + [[v], rest] + suffix, [1 << v]
            )
            signal = self._search(child)
            self.path.pop()
            if signal is not None:
                if signal < depth:
                    return signal
                # signal == depth: only the child just explored is abandoned
        return None


def canonical_cert(
    d: Digraph, cells: Sequence[Sequence[int]] | None = None
) -> bytes:
    """Certificate equal across digraphs iff they are isomorphic.

    An optional ordered partition restricts isomorphisms to those preserving
    each cell setwise; certs are comparable only across calls with matching
    cell shape.
    """
    n = d.n
    if n == 0:
        return b"\x00\x00"
    if cells is None:
        start = [list(range(n))]
    else:
        start = []
        covered = set()
        for cell in cells:
            for v in cell:
                if not 0 <= v < n or v in covered:
                    raise ValueError("cells must partition the vertices")
                covered.add(v)
            if cell:
                start.append(list(cell))
        if len(covered) != n:
            raise ValueError("cells must partition the vertices")
    search = _CanonSearch(n, d.rows, d.in_rows)
    search.run(start)
    if search.best is None:
        raise RuntimeError("canonical search reached no leaf")
    return n.to_bytes(2, "big") + search.best


def canonical_form(d: Digraph) -> Digraph:
    """Canonical representative of the isomorphism class of d."""
    if d.n == 0:
        return d
    search = _CanonSearch(d.n, d.rows, d.in_rows)
    search.run([list(range(d.n))])
    if search.best_order is None:
        raise RuntimeError("canonical search reached no leaf")
    pos = [0] * d.n
    for new, old in enumerate(search.best_order):
        pos[old] = new
    return d.relabel(pos)


def is_arc_transitive(d: Digraph) -> bool:
    """True iff the automorphism group acts transitively on arcs.

    Arcs (u,v), (u',v') lie in one orbit iff the certs of d with the cells
    ([u], [v], rest) and ([u'], [v'], rest') coincide.
    """
    ref = None
    for u, v in d.arcs():
        rest = [w for w in range(d.n) if w != u and w != v]
        c = canonical_cert(d, cells=([u], [v], rest))
        if ref is None:
            ref = c
        elif c != ref:
            return False
    return True
