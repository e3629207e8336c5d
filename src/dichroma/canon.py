"""Canonical forms for digraphs and graphs.

Refinement plus backtracking, no external dependency.  The certificate is the
lexicographically least adjacency-matrix serialization over the leaves of an
individualization-refinement tree; equal-encoding leaves witness automorphisms
and let whole sibling branches be abandoned, which collapses the search on
highly symmetric inputs (bidirected cliques, circulant tournaments).

Only equality semantics are promised: cert(D1) == cert(D2) iff D1 and D2 are
isomorphic (respecting any root sequence).  The labelling itself is an
implementation detail.
"""

from __future__ import annotations

from typing import Sequence

from .digraphs import Digraph, Graph, bidirect, mask_of


def _refine(out_rows, in_rows, cells):
    """Equitable refinement of an ordered partition.

    Cells are repeatedly split by (out-degree, in-degree) signatures towards
    every cell; sub-cells are ordered by signature so the result depends only
    on the isomorphism type and the initial cell order.
    """
    while True:
        masks = [mask_of(c) for c in cells]
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[tuple, list[int]] = {}
            for v in cell:
                ro = out_rows[v]
                ri = in_rows[v]
                sig = tuple(
                    ((ro & mk).bit_count(), (ri & mk).bit_count())
                    for mk in masks
                )
                buckets.setdefault(sig, []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(buckets):
                    new_cells.append(buckets[sig])
        if not changed:
            return new_cells
        cells = new_cells


def _encode(n, rows, order):
    """Adjacency bytes of the relabelling that maps order[i] to label i."""
    pos = [0] * n
    for new, old in enumerate(order):
        pos[old] = new
    nb = (n + 7) // 8
    out = bytearray()
    for old in order:
        r = rows[old]
        nr = 0
        while r:
            low = r & -r
            nr |= 1 << pos[low.bit_length() - 1]
            r ^= low
        out += nr.to_bytes(nb, "big")
    return bytes(out)


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
        self._search(_refine(self.rows, self.irows, cells))

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
            child = _refine(self.rows, self.irows, prefix + [[v], rest] + suffix)
            signal = self._search(child)
            self.path.pop()
            if signal is not None:
                if signal < depth:
                    return signal
                # signal == depth: only the child just explored is abandoned
        return None


def canonical_cert(
    d: Digraph,
    roots: Sequence[int] = (),
    cells: Sequence[Sequence[int]] | None = None,
) -> bytes:
    """Certificate equal across digraphs iff they are isomorphic.

    Optional roots are individualized in order; rooted certs are equal iff an
    isomorphism maps root sequence to root sequence elementwise.  An optional
    ordered partition restricts isomorphisms to those preserving each cell
    setwise; certs are comparable only across calls with matching cell shape.
    """
    n = d.n
    seen = set()
    for r in roots:
        if not 0 <= r < n or r in seen:
            raise ValueError(f"bad root sequence {tuple(roots)}")
        seen.add(r)
    if n == 0:
        return b"\x00\x00" + bytes([len(seen)])
    start = [[r] for r in roots]
    if cells is None:
        rest = [v for v in range(n) if v not in seen]
        if rest:
            start.append(rest)
    else:
        covered = set(seen)
        for cell in cells:
            part = [v for v in cell if v not in seen]
            for v in part:
                if not 0 <= v < n or v in covered:
                    raise ValueError("cells must partition the vertices")
                covered.add(v)
            if part:
                start.append(part)
        if len(covered) != n:
            raise ValueError("cells must partition the vertices")
    search = _CanonSearch(n, d.rows, d.in_rows)
    search.run(start)
    if search.best is None:
        raise RuntimeError("canonical search reached no leaf")
    return n.to_bytes(2, "big") + bytes([len(seen)]) + search.best


def canonical_order(d: Digraph) -> list[int]:
    """A canonical vertex order: relabelling by it gives a canonical form."""
    if d.n == 0:
        return []
    search = _CanonSearch(d.n, d.rows, d.in_rows)
    search.run([list(range(d.n))])
    if search.best_order is None:
        raise RuntimeError("canonical search reached no leaf")
    return search.best_order


def canonical_form(d: Digraph) -> Digraph:
    """Canonical representative of the isomorphism class of d."""
    order = canonical_order(d)
    pos = [0] * d.n
    for new, old in enumerate(order):
        pos[old] = new
    return d.relabel(pos)


def graph_cert(g: Graph) -> bytes:
    """Certificate for undirected graphs (via the bidirected digraph)."""
    return canonical_cert(bidirect(g))


def is_isomorphic(d1: Digraph, d2: Digraph) -> bool:
    if d1.n != d2.n or d1.m != d2.m:
        return False
    return canonical_cert(d1) == canonical_cert(d2)


def is_arc_transitive(d: Digraph) -> bool:
    """True iff the automorphism group acts transitively on arcs.

    Uses pair-rooted certificates: arcs (u,v), (u',v') lie in one orbit iff
    the certs of d rooted at (u,v) and (u',v') coincide.
    """
    ref = None
    for u, v in d.arcs():
        c = canonical_cert(d, roots=(u, v))
        if ref is None:
            ref = c
        elif c != ref:
            return False
    return True
