"""Independent brute-force oracles used to cross-check the library.

The oracles recompute from first principles: no solver, canonical-form,
or generator code is reused beyond the plain data types.  Twelve references
are earlier versions of library internals, on top of the library's other
layers (the solver, canonical certificates), kept to check their faster
replacements: relabelled_dfs_colour, the colouring search run on the
digraph relabelled so that its vertex sequence becomes 0..n-1, and mapped
back, which the search placing the vertices of that sequence on their own
labels is checked against;
brute_mixed_cert, the orientation stream's partial-state
certificate as cell_cert on a built Digraph; enumerate_dicolourings, every k-dicolouring in lexicographic
order, which the solver's one colouring walker is checked against;
brute_bound_chunk, the tournament-bound worker as one solver call per
dominance mask, which the colouring cover is checked against;
brute_uncovered, the colouring cover walking every colouring and skipping
those whose class set it has seen, each class tested for an arc out of
S & C into C - S; brute_refine, the canonical search's
refinement recounting every vertex against every cell in every round;
brute_canon and brute_encode, the canonical search pruning by jump-back
alone and encoding each leaf row by row, which the orbit-pruned search and
its two leaf encodings are checked against;
brute_shortest_cycle, the cycle search of induced_acyclic_set as a BFS
from every vertex; brute_levels, the generators' level loop certifying
every child at every level, which canonical deletion is checked against,
with gen_graphs' extension rule written out as brute_graph_extend;
deletion_ranks, with brute_first_lower around it, canonical deletion
labelling every deletion by a fresh canonical search, which the labellings
that generation carries down its levels are checked against; and
brute_tournament_closed_form, the tournament lower bound's earlier closed
form in float and decimal arithmetic, which the counting bound must never
fall below.  brute_least_transitive_free is that bound's order t by the
naive loop over math.perm.
brute_d6_decode reads digraph6 bit by bit from the format the formats
module documents, which the decoder is checked against.
rotation_faces traces the faces of a rotation system, which gives the face
checker of reductions embeddings whose surface Euler's formula names.
"""

from __future__ import annotations

import decimal
import itertools
import math
import random
from typing import Iterator

from dichroma import solver
from dichroma.canon import _canon, canonical_labelling
from dichroma.certify import _verified
from dichroma.digraphs import Digraph, bidirect, is_tournament, iter_bits, mask_of
from dichroma.formats import d6_decode, d6_encode
from dichroma.solver import _class_masks, _extend_tournament, is_k_dicolourable


def graph(n: int, edges) -> Digraph:
    """The graph with the given edges, as a symmetric digraph."""
    return bidirect(Digraph.from_arcs(n, edges))


def edge_list(g: Digraph) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, of g's underlying graph, ascending."""
    rows = g.underlying_rows
    return [(u, v) for u in range(g.n) for v in iter_bits(rows[u]) if u < v]


def cell_cert(d: Digraph, cells) -> bytes:
    """The certificate of d restricted to an ordered partition of its
    vertices into cells: n's two bytes and _canon's encoding from the
    non-empty cells, as canonical_cert is from the one cell of all."""
    start = [list(c) for c in cells if c]
    return d.n.to_bytes(2, "big") + _canon(d.n, d.rows, d.in_rows, start)[0]


def kahn_acyclic(d: Digraph, verts) -> bool:
    """Acyclicity of the sub-digraph induced by verts, by repeated removal
    of in-degree-0 vertices."""
    verts = set(verts)
    indeg = {
        v: sum(1 for u in verts if u != v and d.has_arc(u, v)) for v in verts
    }
    queue = [v for v, deg in indeg.items() if deg == 0]
    removed = 0
    while queue:
        v = queue.pop()
        removed += 1
        for w in verts:
            if w != v and d.has_arc(v, w):
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
    return removed == len(verts)


def colouring_ok(d: Digraph, colouring) -> bool:
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colouring):
        classes.setdefault(c, []).append(v)
    return all(kahn_acyclic(d, cls) for cls in classes.values())


def brute_dicolourable(d: Digraph, k: int):
    """First k-dicolouring in lexicographic order, or None."""
    for assign in itertools.product(range(1, k + 1), repeat=d.n):
        if colouring_ok(d, assign):
            return list(assign)
    return None


def brute_dichromatic_number(d: Digraph) -> int:
    if d.n == 0:
        return 0
    k = 1
    while brute_dicolourable(d, k) is None:
        k += 1
    return k


def brute_max_induced_acyclic(d: Digraph) -> int:
    best = 0
    for mask in range(1 << d.n):
        verts = [v for v in range(d.n) if mask >> v & 1]
        if len(verts) > best and kahn_acyclic(d, verts):
            best = len(verts)
    return best


def brute_chromatic_number(g: Digraph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for assign in itertools.product(range(k), repeat=g.n):
            if all(
                assign[u] != assign[v] for u, v in edge_list(g)
            ):
                return k
    raise AssertionError("unreachable")


def brute_cut_vertices(g: Digraph) -> set[int]:
    """v is a cut vertex iff removing it increases the component count,
    not counting the loss of v's own membership."""

    def ncomp(skip: int | None) -> int:
        verts = [v for v in range(g.n) if v != skip]
        seen: set[int] = set()
        comps = 0
        for s in verts:
            if s in seen:
                continue
            comps += 1
            stack = [s]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(
                    w for w in verts if g.rows[x] >> w & 1 and w not in seen
                )
        return comps

    base = ncomp(None)
    return {v for v in range(g.n) if ncomp(v) > base}


def is_forest(g: Digraph, verts) -> bool:
    """Does the subgraph of g induced by verts contain no cycle?"""
    verts = sorted(set(verts))
    seen: set[int] = set()
    for s in verts:
        if s in seen:
            continue
        stack = [(s, -1)]
        seen.add(s)
        while stack:
            x, parent = stack.pop()
            for w in verts:
                if not g.rows[x] >> w & 1:
                    continue
                if w == parent:
                    parent = -1  # consume the single parent edge once
                    continue
                if w in seen:
                    return False
                seen.add(w)
                stack.append((w, x))
    return True


def brute_max_induced_forest(g: Digraph) -> int:
    best = 0
    for mask in range(1 << g.n):
        verts = [v for v in range(g.n) if mask >> v & 1]
        if len(verts) > best and is_forest(g, verts):
            best = len(verts)
    return best


def brute_arboricity(g: Digraph) -> int:
    """Fewest classes each inducing a forest, over all k^n assignments."""
    n = g.n
    for k in itertools.count(1):
        for colour in itertools.product(range(k), repeat=n):
            if all(
                is_forest(g, [v for v in range(n) if colour[v] == c])
                for c in range(k)
            ):
                return k


def _digraph_class_key(d: Digraph) -> int:
    """Smallest adjacency encoding over all vertex relabellings."""
    n = d.n
    arcs = list(d.arcs())
    return min(
        sum(1 << (perm[u] * n + perm[v]) for u, v in arcs)
        for perm in itertools.permutations(range(n))
    )


def brute_digraph_classes(digraphs) -> set[int]:
    return {_digraph_class_key(d) for d in digraphs}


def brute_orientation_classes(g: Digraph, min_in: int = 0, min_out: int = 0):
    """All orientations of g with degree floors, one per isomorphism class,
    by explicit 2^m enumeration and permutation dedup."""
    edges = edge_list(g)
    reps: dict[int, Digraph] = {}
    for bits in range(1 << len(edges)):
        arcs = [
            (u, v) if not bits >> i & 1 else (v, u)
            for i, (u, v) in enumerate(edges)
        ]
        d = Digraph.from_arcs(g.n, arcs)
        if any(
            d.out_degree(v) < min_out or d.in_degree(v) < min_in
            for v in range(d.n)
        ):
            continue
        reps.setdefault(_digraph_class_key(d), d)
    return list(reps.values())


def brute_graph_classes(n: int, min_degree: int = 0):
    """One representative per isomorphism class of simple graphs on n
    vertices with the degree floor, keyed as bidirected digraphs."""
    pairs = list(itertools.combinations(range(n), 2))
    reps: dict[int, Digraph] = {}
    for bits in range(1 << len(pairs)):
        g = graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
        if any(g.out_degree(v) < min_degree for v in range(n)):
            continue
        reps.setdefault(_digraph_class_key(g), g)
    return list(reps.values())


def rotation_faces(adj, rotation) -> list[tuple]:
    """The faces of the rotation system of the graph adj (vertex -> its
    neighbours) in which rotation[y] lists y's neighbours in cyclic order,
    as closed walks: dart (x, y) is followed by (y, the successor of x
    around y), and each face is one orbit of the darts, traced from its
    least dart."""
    succ = {(y, x): ring[(i + 1) % len(ring)]
            for y, ring in rotation.items() for i, x in enumerate(ring)}
    seen: set[tuple] = set()
    faces = []
    for dart in sorted((x, y) for x in adj for y in adj[x]):
        walk = []
        while dart not in seen:
            seen.add(dart)
            walk.append(dart[0])
            dart = (dart[1], succ[dart[1], dart[0]])
        if walk:
            faces.append(tuple(walk))
    return faces


def random_digraph(rng, n: int, p: float = 0.35) -> Digraph:
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return Digraph.from_arcs(n, arcs)


def random_oriented(rng, n: int, p: float = 0.5) -> Digraph:
    """Each pair an arc with probability p, in a random direction, so p = 1
    gives a tournament."""
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                if rng.random() < 0.5:
                    rows[u] |= 1 << v
                else:
                    rows[v] |= 1 << u
    return Digraph(n, rows)


def random_graph(rng, n: int, p: float = 0.4) -> Digraph:
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Digraph(n, rows)


def random_gallai_forest(order: int, seed: int) -> Digraph:
    """Random directed Gallai forest on order vertices, grown by attaching
    at a random vertex a single arc, a directed cycle, a bidirected odd
    cycle of length at least 5 (a bidirected triangle is a clique) or a
    bidirected clique, and a single arc when the drawn block does not fit."""
    rng = random.Random(seed)
    n, arcs = 1, []
    while n < order:
        kind = rng.choice(("arc", "dicycle", "odd-cycle", "clique"))
        size = {"arc": 2, "dicycle": rng.randint(3, 6),
                "odd-cycle": rng.choice((5, 7)), "clique": rng.randint(2, 4)}[kind]
        if n + size - 1 > order:
            kind, size = "arc", 2
        block = [rng.randrange(n), *range(n, n + size - 1)]
        n += size - 1
        cycle = list(zip(block, block[1:] + block[:1]))
        if kind == "arc":
            arcs.append(tuple(rng.sample(block, 2)))
        elif kind == "dicycle":
            arcs += cycle
        elif kind == "odd-cycle":
            arcs += cycle + [(v, u) for u, v in cycle]
        else:
            arcs += [(u, v) for u in block for v in block if u != v]
    return Digraph.from_arcs(n, arcs)


def brute_bound_chunk(args) -> tuple[int, bool, str | None]:
    """(chunk index, verdict, first counterexample): is every dominance
    extension of the chunk's parent tournaments k-dicolourable?"""
    chunk_idx, parent_d6s, k = args
    for s in parent_d6s:
        t = d6_decode(s)
        for mask in range(1 << t.n):
            child = _extend_tournament(t, mask)
            if is_k_dicolourable(child, k) is None:
                return chunk_idx, False, d6_encode(child)
    return chunk_idx, True, None


def brute_d6_decode(s: str) -> Digraph:
    """digraph6 read bit by bit from the format in the formats module
    docstring, refusing what d6_decode refuses, in its order and with its
    messages."""
    s = s.strip()
    if not s.startswith("&"):
        raise ValueError("digraph6 input must start with '&'")
    if len(s) < 2:
        raise ValueError("truncated digraph6 input")
    n = ord(s[1]) - 63
    if n not in range(63):
        raise ValueError(f"bad digraph6 order byte {s[1]!r}")
    body = s[2:]
    need = -(-n * n // 6)
    if len(body) != need:
        raise ValueError(f"digraph6 body length {len(body)}, expected {need} for n={n}")
    bits = []
    for ch in body:
        group = ord(ch) - 63
        if group not in range(64):
            raise ValueError(f"bad digraph6 character {ch!r}")
        bits += [group >> 5 - i & 1 for i in range(6)]  # big-endian
    if any(bits[n * n:]):
        raise ValueError("digraph6 padding bits must be zero")
    arcs = [(i, j) for i in range(n) for j in range(n) if bits[i * n + j]]
    if any(i == j for i, j in arcs):
        raise ValueError("digraph6 input encodes a self-loop")
    return Digraph.from_arcs(n, arcs)


def relabelled_dfs_colour(d: Digraph, k: int, seq=None) -> list[int] | None:
    """solver._dfs_colour's first colouring, colours 1..k, or None, found
    on d relabelled so that the vertex at place i of seq becomes vertex i
    (seq is _saturation_order(d) when None, and 0..n-1 in a tournament,
    whatever seq says), searched in the order 0..n-1 and mapped back."""
    rank = list(range(d.n))
    if not is_tournament(d):
        for place, v in enumerate(solver._saturation_order(d) if seq is None else seq):
            rank[v] = place
    r = d.relabel(rank)
    col = next(solver._static_colourings(r.rows, r.in_rows, r.n, k, solver._creates_cycle), None)
    return None if col is None else [col[i] for i in rank]


def enumerate_dicolourings(d: Digraph, k: int) -> Iterator[tuple[int, ...]]:
    """All k-dicolourings (colours 1..k), in lexicographic order.

    Exhaustive by design; meant for gadget-sized inputs.  The colour list
    is the search stack: vertex v holds the colour being tried, 0 while it
    is unplaced, so depth is bounded by no recursion limit.  The class
    test is read from the solver module, where a test may count its calls.
    """
    n = d.n
    rows, irows = d.rows, d.in_rows
    colour = [0] * n
    class_masks = [0] * k
    v = 0
    while v >= 0:
        if v == n:
            yield tuple(colour)
            v -= 1
            continue
        c = colour[v]  # the next colour to try, 0-based
        if c:
            class_masks[c - 1] &= ~(1 << v)
        while c < k and solver._creates_cycle(rows, irows, v, class_masks[c]):
            c += 1
        if c == k:
            colour[v] = 0
            v -= 1
        else:
            colour[v] = c + 1
            class_masks[c] |= 1 << v
            v += 1


def brute_uncovered(t: Digraph, k: int) -> list[int]:
    """The masks S, ascending, whose extension _extend_tournament(t, S) of
    the tournament t is not k-dicolourable, by the cover lemma of the
    solver's module docstring: the new vertex beats exactly S, so a cycle
    through it in class C needs some a in S & C that beats some b in C - S.
    That arc is looked for directly, so no suffix code is shared with the
    cover.  Each colouring the answer relies on passes verify_dicolouring,
    or RuntimeError is raised.
    """
    if k > 1:
        col = is_k_dicolourable(t, k - 1)
        if col is not None:
            _verified(t, col, k - 1)
            return []
    rows = t.rows
    left = list(range(1 << t.n))
    seen: set[frozenset[int]] = set()
    for col in enumerate_dicolourings(t, k):
        classes = _class_masks(col, k)
        key = frozenset(classes)
        if key in seen:
            continue
        seen.add(key)
        kept = [
            s for s in left
            if all(any(rows[a] & c & ~s for a in iter_bits(s & c)) for c in classes)
        ]
        if len(kept) < len(left):
            _verified(t, col, k)
            left = kept
            if not left:
                break
    return left


def brute_refine(out_rows, in_rows, cells):
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


def brute_encode(n, rows, order):
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


def brute_canon(n, rows, irows, cells):
    """(least leaf encoding, its vertex order) of the canonical search from
    cells, pruned only by jumping back to where an equal leaf's path leaves
    the best leaf's, each partition refined by brute_refine."""
    best = order = None
    best_path: list[int] = []
    path: list[int] = []
    stack = []
    cells = brute_refine(rows, irows, cells)
    while True:
        for target, cell in enumerate(cells):
            if len(cell) > 1:
                stack.append([cells, target, 0])
                break
        else:
            leaf = [c[0] for c in cells]
            enc = brute_encode(n, rows, leaf)
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
        cells = brute_refine(rows, irows, child + parent[target + 1:])
    if best is None:
        raise RuntimeError("canonical search reached no leaf")
    return best, order


def brute_shortest_cycle(rows, irows, mask) -> list[int] | None:
    """A shortest directed cycle within the mask, as a vertex list."""
    best: list[int] | None = None
    for s in iter_bits(mask):
        if best is not None and len(best) == 2:
            break
        # BFS from s over arcs inside mask; stop when an in-neighbour of s is hit
        tgt = irows[s] & mask
        if not tgt or not rows[s] & mask:
            continue
        parent = {s: -1}
        frontier = [s]
        depth = 0
        found = None
        while frontier and found is None:
            depth += 1
            if best is not None and depth >= len(best):
                break
            nxt = []
            for u in frontier:
                for w in iter_bits(rows[u] & mask):
                    if w in parent:
                        continue
                    parent[w] = u
                    if tgt >> w & 1:
                        found = w
                        break
                    nxt.append(w)
                if found is not None:
                    break
            frontier = nxt
        if found is not None:
            cyc = [found]
            while parent[cyc[-1]] != -1:
                cyc.append(parent[cyc[-1]])
            cyc.reverse()
            if best is None or len(cyc) < len(best):
                best = cyc
    return best


def brute_mixed_cert(n, rows, g, t):
    """Certificate of a partial orientation: oriented arcs as arcs, the not
    yet oriented edges as digons, vertices split processed/unprocessed."""
    prefix_mask = (1 << t) - 1
    mixed = list(rows)
    for v in range(n):
        open_nb = g.rows[v] & ~prefix_mask if v < t else g.rows[v]
        mixed[v] |= open_nb
    return cell_cert(Digraph(n, mixed), (range(t), range(t, n)))


def brute_graph_extend(n: int, min_degree: int):
    """gen_graphs(n, min_degree)'s extension rule, written out: a child of
    order t + 1 is kept when its every degree meets the level's floor,
    min_degree less the n - t - 1 vertices still to come."""

    def extend(g: Digraph, mask: int) -> Digraph | None:
        t = g.n
        child = [r | (mask >> i & 1) << t for i, r in enumerate(g.rows)]
        child.append(mask)
        if min(r.bit_count() for r in child) < min_degree - (n - t - 1):
            return None
        return Digraph(t + 1, child)

    return extend


def brute_levels(n: int, extend) -> list[tuple[list[Digraph], tuple]]:
    """Per order 1..n of enumeration._generate(n, extend), that level's reps
    and its record (ranks, orders, origins), made by certifying every child
    at every level: per certificate the first child in (parent, mask)
    order, sorted by certificate, and each child's canonical order from its
    own search."""
    reps = [Digraph(1, (0,))]
    levels = [(reps, ([0], b"\0", [0]))]
    for t in range(1, n):
        first: dict[bytes, tuple[int, Digraph]] = {}
        firsts: list[tuple[int, Digraph] | None] = []
        orders = bytearray()
        for parent in reps:
            for mask in range(1 << t):
                child = extend(parent, mask)
                if child is None:
                    firsts.append(None)
                    orders += bytes(t + 1)
                    continue
                cert, order, _ = canonical_labelling(child)
                firsts.append(first.setdefault(cert, (len(firsts), child)))
                orders.extend(order)
        kept = [first[c] for c in sorted(first)]
        reps = [child for _, child in kept]
        rank = {index: r for r, (index, _) in enumerate(kept)}
        ranks = [len(kept) if f is None else rank[f[0]] for f in firsts]
        levels.append((reps, (ranks, orders, [index for index, _ in kept])))
    return levels


def brute_first_lower(levels) -> list[list[int]]:
    """Per parent of every level but the last of levels (brute_levels),
    level by level, per mask S the first old vertex v of P_j, the j-th
    parent, in the order canonical deletion tries them (P_j's new vertex,
    then the rest ascending) for which P_j + S - v ranks below j, or -1;
    each deletion is labelled by a fresh canonical search
    (deletion_ranks)."""
    parents = levels[:-1]
    low = [[-1, -1]] if parents else []  # K1's children: nothing ranks below it
    for (prev, _), (reps, (ranks, _, _)) in zip(parents, parents[1:]):
        labelled = [
            _canon(q.n, q.rows, q.in_rows, [list(range(q.n))]) for q in prev
        ]
        index = {best: m for m, (best, _) in enumerate(labelled)}
        orders = [order for _, order in labelled]
        for j, parent in enumerate(reps):
            tables = deletion_ranks(parent, index, orders, ranks)
            tries = [parent.n - 1, *range(parent.n - 1)]
            low.append([
                next((v for v in tries if tables[v][s] < j), -1)
                for s in range(1 << parent.n)
            ])
    return low


def deletion_ranks(p: Digraph, index, orders, ranks) -> list[list[int]]:
    """tables[v][S]: the rank, among the order-t classes, of p + S - v for
    each old vertex v of p (order t); index maps the canonical encoding of
    each order-(t-1) class to its position m, orders[m] is its canonical
    order, and ranks[m << t-1 | mask] the rank of its child by mask."""
    t = p.n
    rows, irows = p.rows, p.in_rows
    tables = []
    for v in range(t):
        below = (1 << v) - 1
        rest = [w for w in range(t) if w != v]
        out = [rows[w] & below | rows[w] >> 1 & ~below for w in rest]
        inn = [irows[w] & below | irows[w] >> 1 & ~below for w in rest]
        best, order = _canon(t - 1, out, inn, [list(range(t - 1))])
        m = index[best]
        # order lists p - v, and orders[m] the class, in canonical order, so
        # pairing them maps p - v onto the class; S follows, bit v dropped
        image = [0] * (t - 1)
        for u, q in zip(order, orders[m]):
            image[u] = 1 << q
        image.insert(v, 0)
        mapped = [0]
        for bit in image:
            mapped += [x | bit for x in mapped]
        base = m << (t - 1)
        tables.append([ranks[base | x] for x in mapped])
    return tables


def brute_least_transitive_free(n: int) -> int:
    """The least t with perm(n, t) < 2**C(t, 2), t = 1, 2, ... in turn."""
    t = 1
    while math.perm(n, t) >= 1 << t * (t - 1) // 2:
        t += 1
    return t


def brute_tournament_closed_form(h: int) -> int:
    """The earlier tournament lower bound at Heawood number h, verbatim:
    ceil(h/(2 log2 h + 1)) in floating point, recomputed in 60-digit
    decimal arithmetic where the float ratio is within its rounding error
    of an integer; ValueError past 2**53, where ints stop being exact
    floats."""
    if h > 2**53:
        raise ValueError(
            "the tournament bound needs a Heawood number of at most 2**53; "
            f"this characteristic gives one of {h.bit_length()} bits"
        )
    x = h / (2 * math.log2(h) + 1)
    # log2, one addition and one division leave a relative error of a few
    # units of 2**-53, far below 2**-48
    if abs(x - round(x)) > x * 2**-48:
        return math.ceil(x)
    with decimal.localcontext(decimal.Context(prec=60)):
        hd = decimal.Decimal(h)
        return math.ceil(hd / (2 * hd.ln() / decimal.Decimal(2).ln() + 1))
