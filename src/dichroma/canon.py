"""Canonical forms for digraphs and graphs.

Refinement plus backtracking, no external dependency.  The certificate is the
lexicographically least adjacency-matrix serialization over the leaves of an
individualization-refinement tree, searched depth first on an explicit stack
of frames, one per individualised vertex, so no input meets Python's
recursion limit.  A leaf whose encoding equals the best one witnesses an
automorphism mapping it onto the best leaf; the frames above the first index
where the two paths diverge are then deleted, and the frame at that index
moves on to its next child.  This collapses the search on highly symmetric
inputs (bidirected cliques, circulant tournaments).

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


def _canon(n, rows, irows, cells):
    """(least leaf encoding, its vertex order) of the search from cells.

    The stack holds one [partition, index of the target cell, next child]
    frame per level, and path[i] is the vertex frame i individualised last.
    An equal leaf is the best leaf's image under an automorphism, so the
    subtree of the frame where their paths first diverge holds only images
    of what that frame already explored.
    """
    best = order = None
    best_path: list[int] = []
    path: list[int] = []
    stack = []
    cells = _refine(rows, irows, cells, [mask_of(c) for c in cells])
    while True:
        for target, cell in enumerate(cells):
            if len(cell) > 1:
                stack.append([cells, target, 0])
                break
        else:
            leaf = [c[0] for c in cells]
            enc = _encode(n, rows, leaf)
            if best is None or enc < best:
                best, order, best_path = enc, leaf, path[:]
            elif enc == best:
                # distinct leaves, so neither path is a prefix of the other
                j = 0
                while path[j] == best_path[j]:
                    j += 1
                del stack[j + 1:]
        # the deepest frame with a child left individualises its next vertex
        while stack:
            frame = stack[-1]
            parent, target, i = frame
            cell = parent[target]
            if i < len(cell):
                break
            stack.pop()
        else:
            break
        frame[2] = i + 1
        v = cell[i]
        del path[len(stack) - 1:]
        path.append(v)
        child = parent[:target] + [[v], cell[:i] + cell[i + 1:]]
        cells = _refine(rows, irows, child + parent[target + 1:], [1 << v])
    if best is None:
        raise RuntimeError("canonical search reached no leaf")
    return best, order


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
    return n.to_bytes(2, "big") + _canon(n, d.rows, d.in_rows, start)[0]


def canonical_form(d: Digraph) -> Digraph:
    """Canonical representative of the isomorphism class of d."""
    if d.n == 0:
        return d
    order = _canon(d.n, d.rows, d.in_rows, [list(range(d.n))])[1]
    pos = [0] * d.n
    for new, old in enumerate(order):
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
