"""Canonical forms for digraphs and graphs, and the census's certificates.

Refinement plus backtracking, no external dependency.  The certificate is the
lexicographically least adjacency-matrix serialization over the leaves of an
individualization-refinement tree, searched depth first on an explicit stack
of frames, one per individualised vertex, so no input meets Python's
recursion limit.  The search returns that least encoding and the first leaf
in depth-first order that reaches it.

Two prunes skip only leaves that have an earlier leaf, in depth-first order,
with the same encoding, so neither the least encoding nor the first leaf that
reaches it can move.  A leaf whose encoding equals the best one yields the
automorphism sigma: best order[i] -> leaf[i], which respects the initial
cells.  (1) Jump-back: sigma fixes every vertex the two paths individualised
above the first index where they diverge, so the rest of the frame's subtree
at that index holds only images of what the frame already explored; the
frames above it are deleted and it moves on to its next child.  This
collapses the search on highly symmetric inputs (bidirected cliques,
circulant tournaments).  (2) Orbit pruning (McKay and Piperno, Practical
graph isomorphism, II, 2014): every sigma found in the call is kept, and
each frame keeps the children it has individualised.  Before a frame at
depth j individualises v, it computes v's orbit under the kept sigma that
fix path[:j] pointwise; if the orbit holds a child u the frame explored, it
skips v.  A product h of those sigma with h(u) = v fixes the frame's
partition, so it maps subtree(u) onto subtree(v) leaf by leaf with equal
encodings, and subtree(v) comes later.  Skipping a subtree can also skip a
jump-back the plain search took inside it, so a few inputs visit leaves
that search skipped; all of them are images of explored leaves.
canonical_labelling returns the automorphisms found, and the generators'
last level certifies one child per orbit of a parent's automorphisms.

Refinement counts only against the cells that just split (McKay and
Piperno's splitter idea, in rounds): every cell of an equitable partition
has constant counts towards every cell, so after individualising v a child
refines against [v] alone, and each later round against the sub-cells the
previous round produced, less the last sub-cell of each split, whose counts
follow from its siblings' and its parent's.  The ordered partition, and so
every certificate byte, is that of recounting against every cell.  Most
cells the census splits are two vertices wide, and _refine orders those by
their first pair of counts to differ, with no key, dict or sort.  A
symmetric digraph or a tournament is refined on out-counts alone, as its
in-counts follow from them (_in_counts); the census's partial states,
with digons and arcs, keep both.  canon certifies those states a level of
the orientation stream at a time (_level_certifier): what a level fixes,
and the first round on its unprocessed cell, are built once; one pass
over a state's processed vertices builds their first-round (key, vertex)
pairs, mixed rows and in-rows, and _round, the one splitter for both
cells, turns the pairs into the cells and fresh masks _canon starts from.
A root refined to singletons is the only leaf, so no search starts.

A leaf is encoded by whole-matrix shifts (_encode): its rows packed into one
int, each new column taken from all rows at once.

Only equality semantics are promised: cert(D1) == cert(D2) iff D1 and D2 are
isomorphic.  _canon's encodings from two ordered partitions into non-empty
cells of matching shape are equal iff an isomorphism maps each cell onto its
counterpart; arc-transitivity and the census's partial states use that.
The labelling itself is an implementation detail, but it is kept stable and
its bytes are pinned by the tests: generated representatives and stored
results are picked by it.
"""

from __future__ import annotations

from .digraphs import Digraph, is_tournament, mask_of


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
    int order is tuple order.  A two-vertex cell builds no key: its counts
    are compared mask by mask in fresh order, out then in, and the lower of
    the first pair to differ goes first, as the first differing entry orders
    two tuples; no difference leaves the cell whole.

    in_rows None takes out-counts alone, which is exact when they fix the
    in-counts (_in_counts): in a symmetric digraph in = out, and in a
    tournament v's in-count towards a fresh cell M is |M| - out - [v in M].
    M and the cell being split are both cells of the partition the round
    starts from, so [v in M] is constant inside that cell.  Either way equal
    out-counts give equal in-counts, and the first entry of two (out, in)
    tuples to differ is an out-count, so the buckets and their order are
    those of both counts.
    """
    n = len(out_rows)
    width = n.bit_length()
    while fresh and len(cells) < n:
        new_cells = []
        new_fresh = []
        lone = fresh[0] if len(fresh) == 1 else 0  # a fresh mask is never 0
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            if len(cell) == 2:
                a, b = cell
                ra, rb = out_rows[a], out_rows[b]
                for mk in fresh:
                    ca, cb = (ra & mk).bit_count(), (rb & mk).bit_count()
                    if ca == cb and in_rows is not None:
                        ca, cb = (in_rows[a] & mk).bit_count(), (in_rows[b] & mk).bit_count()
                    if ca != cb:
                        if cb < ca:
                            a, b = b, a
                        new_cells += [a], [b]
                        new_fresh.append(1 << a)
                        break
                else:
                    new_cells.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            if in_rows is None:
                if lone:
                    for v in cell:
                        buckets.setdefault((out_rows[v] & lone).bit_count(), []).append(v)
                else:
                    for v in cell:
                        ro = out_rows[v]
                        key = 0
                        for mk in fresh:
                            key = key << width | (ro & mk).bit_count()
                        buckets.setdefault(key, []).append(v)
            elif lone:
                for v in cell:
                    key = (out_rows[v] & lone).bit_count() << width
                    buckets.setdefault(key | (in_rows[v] & lone).bit_count(), []).append(v)
            else:
                for v in cell:
                    ro, ri = out_rows[v], in_rows[v]
                    key = 0
                    for mk in fresh:
                        key = (key << width | (ro & mk).bit_count()) << width
                        key |= (ri & mk).bit_count()
                    buckets.setdefault(key, []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
                continue
            subs = [buckets[key] for key in sorted(buckets)]
            new_cells += subs  # an empty cell has no sub-cells: it is dropped
            for sub in subs[:-1]:
                mk = 0
                for v in sub:
                    mk |= 1 << v
                new_fresh.append(mk)
        cells = new_cells
        fresh = new_fresh
    return cells


def _round(pairs) -> tuple[list[list[int]], list[int]]:
    """One round of _refine on one cell, given as its vertices' (count
    key, vertex) pairs: the sub-cells in ascending key order, and the masks
    of all but the last, the next round's fresh cells (none when it does
    not split).  One sort of the pairs, in place, makes each run of equal
    keys a sub-cell; its vertices ascend, which is _refine's order when
    the cell's do, as the ranges _level_certifier passes do; and that
    caller keeps only the least encoding, which no order inside a cell
    moves."""
    subs: list[list[int]] = []
    fresh = []
    last = mk = None
    pairs.sort()
    for key, v in pairs:
        if key != last:
            if subs:
                fresh.append(mk)
            subs.append([v])
            last, mk = key, 1 << v
        else:
            subs[-1].append(v)
            mk |= 1 << v
    return subs, fresh


def _level_certifier(g: Digraph, s: int):
    """The certificate of a partial orientation of g, processed below s, as
    a function of its rows: n's two bytes, then _canon's encoding from the
    cells P (processed) and R of oriented arcs as arcs and open edges as
    digons.  R's rows are empty, so v in P has the row rows[v] | g[v] & R
    and the in-row g[v] ^ rows[v], and v in R has g[v] as both.  What g and
    s fix is built once: those rows of R and digons, and the first round of
    refinement against [P, R], whose keys on R depend on g alone; v in P
    counts |rows[v]| out and |g[v] & P| - |rows[v]| in towards P, and
    |g[v] & R| both ways towards R.  At s = n the keys are (out, in) per
    vertex, _refine's first round on [all]; out-counts alone split a
    tournament alike (_in_counts), so the bytes are canonical_cert's."""
    n = g.n
    edges, rest = g.rows[:s], list(g.rows[s:])
    inner = (1 << s) - 1
    digons = [e & ~inner for e in edges]
    w = n.bit_length()

    def key(out_p, in_p, to_r):  # _refine's key for counts towards [P, R]
        return ((out_p << w | in_p) << w | to_r) << w | to_r

    # per processed vertex: its key at out-count 0 (each arc out adds
    # step), its row of g and its open edges
    fixed = [(key(0, (e & inner).bit_count(), d.bit_count()), e, d)
             for e, d in zip(edges, digons)]
    step = key(1, 0, 0) - key(0, 1, 0)
    r_pairs = []
    for v, e in enumerate(rest, s):
        a = (e & inner).bit_count()
        r_pairs.append((key(a, a, (e & ~inner).bit_count()), v))
    r_cells, r_fresh = _round(r_pairs)
    head = n.to_bytes(2, "big")

    def cert(rows) -> bytes:
        # P's first-round pairs, mixed rows and in-rows in one pass
        pairs, mixed, irows = [], [], []
        for v, (b, e, d) in enumerate(fixed):
            r = rows[v]
            pairs.append((b + r.bit_count() * step, v))
            mixed.append(r | d)
            irows.append(e ^ r)
        cells, fresh = _round(pairs)
        return head + _canon(n, mixed + rest, irows + rest, cells + r_cells,
                             fresh=fresh + r_fresh)[0]

    return cert


def _encode(n, rows, order):
    """Adjacency bytes of the relabelling that maps order[i] to label i:
    row i is rows[order[i]] relabelled, nb = ceil(n / 8) bytes big-endian,
    row 0 first.

    The rows are packed into one int a, a field of 8 * nb bits each, and new
    column j is ((a >> order[j]) & COL) << j, COL holding the low bit of
    every field: n shifts of an n * 8 * nb-bit int, O(n^3 / 64) word
    operations.  Walking each row's bits instead takes O(arcs) steps.  Per
    leaf, shifts / walk, on random digraphs of out-degree 3 (sparse) and of
    arc probability 1/2 (dense): n = 8, 2.0 / 4.2 us sparse and 3.1 / 7.6
    us dense; n = 1,000 sparse, 120 / 1.1 ms (Python 3.11, 2-core x86 VM).
    The census and the generators stop at 10 vertices.
    """
    nb = (n + 7) // 8
    stride = 8 * nb
    a = 0
    for old in order:
        a = a << stride | rows[old]
    col = ((1 << stride * n) - 1) // ((1 << stride) - 1)
    enc = 0
    for old in reversed(order):
        enc = enc << 1 | a >> old & col
    return enc.to_bytes(nb * n, "big")


def _explored_image(v, gens, explored) -> bool:
    """True iff v's orbit under the automorphisms gens holds a vertex of
    explored."""
    orbit = {v}
    todo = [v]
    while todo:
        x = todo.pop()
        for s in gens:
            y = s[x]
            if y not in orbit:
                if y in explored:
                    return True
                orbit.add(y)
                todo.append(y)
    return False


def _in_counts(d: Digraph):
    """The in-rows _refine counts for d: None, for out-counts alone, when
    those fix the in-counts.  They do in a symmetric digraph, whose in-rows
    are its rows, and in a tournament, where n(n - 1) / 2 arcs and no digon
    put one arc on every pair."""
    return None if is_tournament(d) or d.in_rows == d.rows else d.in_rows


def _canon(n, rows, irows, cells, autos=None, fresh=None):
    """(least leaf encoding, its vertex order) of the search from cells.

    The stack holds one [partition, index of the target cell, next child,
    children individualised] frame per level, and path[i] is the vertex
    frame i individualised last.  autos holds the automorphisms the equal
    leaves witness, as tuples; both prunes are in the module docstring.  A
    caller that passes an empty set as autos gets them there: each respects
    the cells.  irows None refines on out-counts alone (_refine), which a
    caller asks for once per search, when _in_counts says they suffice.
    fresh, the masks _refine counts against first, is None for every
    cell, or the next fresh of a first round _level_certifier made.  A
    root refined to singletons is the one leaf, returned before the search
    is set up.
    """
    if fresh is None:
        fresh = [mask_of(c) for c in cells]
    cells = _refine(rows, irows, cells, fresh)
    if len(cells) == n:
        order = [c[0] for c in cells]
        return _encode(n, rows, order), order
    best = order = None
    best_path: list[int] = []
    path: list[int] = []
    stack = []
    if autos is None:
        autos = set()
    while True:
        if len(cells) < n:
            target = next(i for i, c in enumerate(cells) if len(c) > 1)
            stack.append([cells, target, 0, []])
        else:
            leaf = [c[0] for c in cells]
            enc = _encode(n, rows, leaf)
            if best is None or enc < best:
                best, order, best_path = enc, leaf, path[:]
            elif enc == best:
                sigma = [0] * n
                for u, w in zip(order, leaf):
                    sigma[u] = w
                autos.add(tuple(sigma))
                # distinct leaves, so neither path is a prefix of the other
                j = 0
                while path[j] == best_path[j]:
                    j += 1
                del stack[j + 1:]
        # the deepest frame with a child left individualises its next vertex
        while stack:
            frame = stack[-1]
            parent, target, i, explored = frame
            cell = parent[target]
            depth = len(stack) - 1
            if i < len(cell) and explored and autos:
                fixed = path[:depth]
                gens = [s for s in autos if all(s[p] == p for p in fixed)]
                while i < len(cell) and gens and _explored_image(
                    cell[i], gens, explored
                ):
                    i += 1
            if i < len(cell):
                break
            stack.pop()
        else:
            break
        frame[2] = i + 1
        v = cell[i]
        explored.append(v)
        del path[depth:]
        path.append(v)
        child = parent[:target] + [[v], cell[:i] + cell[i + 1:]]
        cells = _refine(rows, irows, child + parent[target + 1:], [1 << v])
    if best is None:
        raise RuntimeError("canonical search reached no leaf")
    return best, order


def canonical_cert(d: Digraph) -> bytes:
    """Certificate equal across digraphs iff they are isomorphic."""
    return canonical_labelling(d)[0]


def canonical_labelling(d: Digraph) -> tuple[bytes, list[int], set[tuple[int, ...]]]:
    """canonical_cert(d), the canonical order and automorphisms from one
    search: order[i] is the vertex of d that canonical_form labels i, and
    each automorphism sigma the search found (_canon) maps v to sigma[v]."""
    autos: set[tuple[int, ...]] = set()
    if d.n == 0:
        return b"\x00\x00", [], autos
    n = d.n
    best, order = _canon(n, d.rows, _in_counts(d), [list(range(n))], autos, [(1 << n) - 1])
    return d.n.to_bytes(2, "big") + best, order, autos


def canonical_form(d: Digraph) -> Digraph:
    """Canonical representative of the isomorphism class of d."""
    order = canonical_labelling(d)[1]
    pos = [0] * d.n
    for new, old in enumerate(order):
        pos[old] = new
    return d.relabel(pos)


def is_arc_transitive(d: Digraph) -> bool:
    """True iff the automorphism group acts transitively on arcs.

    Arcs (u,v), (u',v') lie in one orbit iff the searches of d from the
    cells ([u], [v], rest) and ([u'], [v'], rest') reach equal encodings;
    rest is left out when empty, as _canon takes non-empty cells only.
    """
    ref = None
    irows = _in_counts(d)
    for u, v in d.arcs():
        rest = [w for w in range(d.n) if w != u and w != v]
        cells = [[u], [v], rest] if rest else [[u], [v]]
        c = _canon(d.n, d.rows, irows, cells)[0]
        if ref is None:
            ref = c
        elif c != ref:
            return False
    return True
