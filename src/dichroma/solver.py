"""Exact decision procedures for dicolouring: dicolourability, the
dichromatic number, list-dicolourability (by reduction to dicolourability),
dicriticality and maximum induced acyclic sets, plus the chunk worker that
checks dominance extensions of tournaments for the exhaustive tournament
bound (the bound itself lives with tournament generation).

The worker decides all 2^n extensions of a parent tournament T at once by
a colouring cover (_uncovered).  A new vertex beating exactly the set S can
join a colour class C of a dicolouring of T iff S & C is a sink-side suffix
of C's transitive order.  Every dicolouring of T + S restricts to one of T,
so T + S is k-dicolourable iff some k-dicolouring of T covers S that way.
One solve settles T when it is (k-1)-dicolourable, as the new vertex then
takes a class of its own; otherwise T's k-dicolourings are walked, once per
class set, until every S is covered, and the masks left over are exact.

All searches are deterministic: dynamic most-saturated-first vertex choice
with lowest-index tie-breaks, colour symmetry broken by allowing a vertex
only colours up to 1 + the number already in use.  Certificates returned by
every positive answer pass verify_dicolouring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .digraphs import Digraph, circulant_tournament, delete_arc, iter_bits
from .formats import d6_decode, d6_encode

# saturation weight for an assigned digon partner; digon partners force the
# opposite colour at k=2, so they are branched first
_DIGON_W = 1 << 20


def _mask_acyclic(rows: Sequence[int], mask: int) -> bool:
    """Kahn peel of the subdigraph induced by the mask."""
    verts = list(iter_bits(mask))
    indeg = dict.fromkeys(verts, 0)
    for v in verts:
        for w in iter_bits(rows[v] & mask):
            indeg[w] += 1
    queue = [v for v in verts if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in iter_bits(rows[v] & mask):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(verts)


def is_acyclic(d: Digraph) -> bool:
    return _mask_acyclic(d.rows, (1 << d.n) - 1)


def _creates_cycle(rows, irows, v, cmask):
    """Would adding v to the class with vertex mask cmask close a cycle?"""
    succ = rows[v] & cmask
    if not succ:
        return False
    tgt = irows[v] & cmask
    if not tgt:
        return False
    reach = 0
    frontier = succ
    while frontier:
        if frontier & tgt:
            return True
        reach |= frontier
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= rows[low.bit_length() - 1]
            f ^= low
        frontier = nxt & cmask & ~reach
    return False


def _dfs_colour(d: Digraph, k: int) -> list[int] | None:
    """Core search.  Returns 0-based colours."""
    n = d.n
    if n == 0:
        return []
    rows = d.rows
    irows = d.in_rows
    und = d.underlying_rows
    digons = d.digon_rows
    full = (1 << n) - 1

    colour = [-1] * n
    class_masks = [0] * k
    assigned = 0
    sat = [0] * n
    used = 0

    def bump(u: int, delta: int) -> None:
        for w in iter_bits(und[u]):
            sat[w] += delta
        dd = delta * _DIGON_W
        for w in iter_bits(digons[u]):
            sat[w] += dd

    def pick() -> int:
        best_v, best_s = -1, -1
        r = full & ~assigned
        while r:
            low = r & -r
            v = low.bit_length() - 1
            if sat[v] > best_s:
                best_s = sat[v]
                best_v = v
            r ^= low
        return best_v

    v0 = pick()
    stack = [[v0, list(range(min(k, 1))), 0, 0]]
    while stack:
        fr = stack[-1]
        v = fr[0]
        if colour[v] >= 0:
            c = colour[v]
            colour[v] = -1
            class_masks[c] &= ~(1 << v)
            assigned &= ~(1 << v)
            used = fr[3]
            bump(v, -1)
        placed = False
        options = fr[1]
        idx = fr[2]
        while idx < len(options):
            c = options[idx]
            idx += 1
            if not _creates_cycle(rows, irows, v, class_masks[c]):
                fr[2] = idx
                colour[v] = c
                class_masks[c] |= 1 << v
                assigned |= 1 << v
                if c == used:
                    used = c + 1
                bump(v, 1)
                placed = True
                break
        if not placed:
            stack.pop()
            continue
        if assigned == full:
            return colour[:]
        nv = pick()
        stack.append([nv, list(range(min(k, used + 1))), 0, used])
    return None


def is_k_dicolourable(d: Digraph, k: int) -> list[int] | None:
    """A k-dicolouring as a list of colours in 1..k, or None."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    res = _dfs_colour(d, k)
    if res is None:
        return None
    return [c + 1 for c in res]


def dichromatic_number(d: Digraph) -> tuple[int, list[int]]:
    """(least k with a k-dicolouring, certificate).  Empty digraph gives 0."""
    if d.n == 0:
        return 0, []
    k = 1
    while True:
        res = is_k_dicolourable(d, k)
        if res is not None:
            return k, res
        k += 1


def verify_dicolouring(
    d: Digraph,
    colouring: Sequence[int],
    k: int | None = None,
    lists: Sequence[Iterable[int]] | None = None,
) -> bool:
    """Independent certificate check (no use of the search code path)."""
    if len(colouring) != d.n:
        return False
    if k is not None and any(not 1 <= c <= k for c in colouring):
        return False
    if lists is not None:
        for v, c in enumerate(colouring):
            if c not in set(lists[v]):
                return False
    classes: dict[int, int] = {}
    for v, c in enumerate(colouring):
        classes[c] = classes.get(c, 0) | 1 << v
    return all(_mask_acyclic(d.rows, m) for m in classes.values())


def enumerate_dicolourings(d: Digraph, k: int) -> Iterator[tuple[int, ...]]:
    """All k-dicolourings (colours 1..k), in lexicographic order.

    Exhaustive by design; meant for gadget-sized inputs.  The colour list
    is the search stack: vertex v holds the colour being tried, 0 while it
    is unplaced, so depth is bounded by no recursion limit.
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
        while c < k and _creates_cycle(rows, irows, v, class_masks[c]):
            c += 1
        if c == k:
            colour[v] = 0
            v -= 1
        else:
            colour[v] = c + 1
            class_masks[c] |= 1 << v
            v += 1


def _class_masks(colouring: Sequence[int], colours: int) -> tuple[int, ...]:
    """The vertex mask of each colour 1..colours."""
    masks = [0] * colours
    for v, c in enumerate(colouring):
        masks[c - 1] |= 1 << v
    return tuple(masks)


@dataclass
class CriticalityReport:
    k: int
    is_dicritical: bool
    reason: str
    chi: int | None = None
    colouring: list[int] | None = None
    failing_arc: tuple[int, int] | None = None
    arc_colourings: list[tuple[tuple[int, int], list[int]]] = field(
        default_factory=list
    )

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "is_dicritical": self.is_dicritical,
            "reason": self.reason,
            "chi": self.chi,
            "colouring": self.colouring,
            "failing_arc": list(self.failing_arc) if self.failing_arc else None,
            "arcs": [
                {"arc": [u, v], "colouring": col}
                for (u, v), col in self.arc_colourings
            ],
        }


def is_dicritical(d: Digraph, k: int) -> CriticalityReport:
    """Exact dicriticality check: dichromatic number k and every arc deletion
    drops it.  Arc deletions suffice; vertex deletions are covered because a
    vertex of positive degree loses an arc first, and for k >= 2 the degree
    check rejects an isolated vertex, whose out-degree 0 is below k - 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        ok = d.n == 1
        return CriticalityReport(
            k=1,
            is_dicritical=ok,
            reason="single vertex" if ok else "1-dicritical means a single vertex",
            chi=1 if d.n else 0,
        )
    ir = d.in_rows
    # necessary degree bounds: a k-dicritical digraph has min in/out degree k-1
    for v in range(d.n):
        if d.rows[v].bit_count() < k - 1 or ir[v].bit_count() < k - 1:
            return CriticalityReport(
                k=k,
                is_dicritical=False,
                reason=f"vertex {v} has in- or out-degree below {k - 1}",
            )
    down = is_k_dicolourable(d, k - 1)
    if down is not None:
        return CriticalityReport(
            k=k,
            is_dicritical=False,
            reason=f"already {k - 1}-dicolourable",
            chi=None,
            colouring=down,
        )
    level = is_k_dicolourable(d, k)
    if level is None:
        return CriticalityReport(
            k=k,
            is_dicritical=False,
            reason=f"not even {k}-dicolourable",
        )
    arc_cols: list[tuple[tuple[int, int], list[int]]] = []
    for u, v in d.arcs():
        sub = is_k_dicolourable(delete_arc(d, u, v), k - 1)
        if sub is None:
            return CriticalityReport(
                k=k,
                is_dicritical=False,
                reason=f"deleting arc ({u},{v}) keeps dichromatic number {k}",
                chi=k,
                colouring=level,
                failing_arc=(u, v),
            )
        arc_cols.append(((u, v), sub))
    return CriticalityReport(
        k=k,
        is_dicritical=True,
        reason="all arc deletions verified",
        chi=k,
        colouring=level,
        arc_colourings=arc_cols,
    )


def _shortest_cycle(rows, irows, mask) -> list[int] | None:
    """A shortest directed cycle within the mask, as a vertex list, or None.

    The cycle is the one a BFS from each vertex s of the mask, ascending,
    finds first, out-neighbours scanned ascending, a later s's cycle kept
    only when strictly shorter.  Digons and triangles are found by bit
    operations instead, which gives the same cycle: the BFS from s meets a
    digon at depth 1 at the least w with s -> w -> s, and meets a triangle
    at depth 2 through the first u of its discovery order (the out-
    neighbours of s, ascending) that has an arc into an in-neighbour of s,
    at the least such in-neighbour.  A shorter cycle from a later s would
    have to be a digon.  So the answer is the first digon [s, w], s then w
    least; failing that the first triangle [s, u, x], s, then u, then x
    least.  Only a mask with no digon and no triangle runs the BFS.
    """
    m = mask
    while m:
        low = m & -m
        s = low.bit_length() - 1
        dig = rows[s] & irows[s] & mask
        if dig:
            return [s, (dig & -dig).bit_length() - 1]
        m ^= low
    m = mask
    while m:
        low = m & -m
        s = low.bit_length() - 1
        ins = irows[s] & mask
        if ins:
            out = rows[s] & mask
            while out:
                ulow = out & -out
                u = ulow.bit_length() - 1
                x = rows[u] & ins
                if x:
                    return [s, u, (x & -x).bit_length() - 1]
                out ^= ulow
        m ^= low
    best: list[int] | None = None
    for s in iter_bits(mask):
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


def max_induced_acyclic(d: Digraph) -> list[int]:
    """A maximum vertex set inducing an acyclic subdigraph, ascending.

    Branch and bound: branch over the vertices of a shortest remaining
    directed cycle (each must lose a vertex), pruning by candidate count and
    by cycles made unbreakable by earlier keep decisions.  The search runs
    depth first on an explicit stack of (mask, keep) pairs, so its depth is
    not bounded by Python's recursion limit.  A node's children go on in
    reverse, the i-th keeping the cycle vertices the earlier ones removed,
    and a child is pruned when it is popped, against the best that its
    earlier siblings' subtrees left.  The answer is confirmed by the Kahn
    peel, which shares nothing with the cycle search; RuntimeError is
    raised if it fails.
    """
    rows, irows = d.rows, d.in_rows
    best_mask = 0
    best = -1
    stack = [((1 << d.n) - 1, 0)]
    while stack:
        mask, keep = stack.pop()
        size = mask.bit_count()
        if size <= best:
            continue
        cyc = _shortest_cycle(rows, irows, mask)
        if cyc is None:
            best = size
            best_mask = mask
            continue
        children = []
        for v in cyc:
            if not keep >> v & 1:
                children.append((mask & ~(1 << v), keep))
                keep |= 1 << v
        stack.extend(reversed(children))
    if not _mask_acyclic(rows, best_mask):
        raise RuntimeError(
            f"induced set {list(iter_bits(best_mask))} is not acyclic"
        )
    return list(iter_bits(best_mask))


def is_list_dicolourable(
    d: Digraph, lists: Sequence[Iterable[int]]
) -> list[int] | None:
    """A colouring with each colour drawn from the vertex's own list, or None.

    Reduces to k-dicolourability with k the number of distinct list values:
    one new vertex per value, the new vertices a bidirected clique, and a
    digon from v to each value vertex whose value is not in v's list.  The
    clique takes all k colours, a digon keeps v out of its partner's class,
    and a value vertex has no arc inside its own class, so the colourings
    of d that the extension allows are exactly the list colourings.
    """
    if len(lists) != d.n:
        raise ValueError("one list per vertex required")
    n = d.n
    allowed = [set(lst) for lst in lists]
    values = sorted(set().union(*allowed))
    k = len(values)
    clique = ((1 << k) - 1) << n
    rows = list(d.rows) + [clique & ~(1 << (n + i)) for i in range(k)]
    for i, c in enumerate(values):
        for v in range(n):
            if c not in allowed[v]:
                rows[v] |= 1 << (n + i)
                rows[n + i] |= 1 << v
    res = _dfs_colour(Digraph(n + k, rows), k)
    if res is None:
        return None
    value_of = {res[n + i]: c for i, c in enumerate(values)}
    col = [value_of[c] for c in res[:n]]
    if not verify_dicolouring(d, col, lists=allowed):
        raise RuntimeError("list colouring failed verification")
    return col


# -- the exhaustive tournament bound's worker ------------------------------


def _extend_tournament(t: Digraph, mask: int) -> Digraph:
    """Add a vertex dominating exactly the mask-selected old vertices.

    The child carries its in-rows, the parent's updated, so canonical_cert
    need not transpose it."""
    n = t.n
    new = 1 << n
    rows = list(t.rows)
    irows = list(t.in_rows)
    for v in range(n):
        if mask >> v & 1:
            irows[v] |= new
        else:
            rows[v] |= new
    rows.append(mask)
    irows.append((new - 1) & ~mask)
    child = Digraph(n + 1, rows)
    child._irows = tuple(irows)
    return child


def _suffixes(rows: Sequence[int], cmask: int) -> frozenset[int]:
    """The sink-side suffixes of an acyclic class of a tournament, empty
    and whole class included.  The class is transitive, so its vertices
    have distinct out-degrees inside it, and a suffix is a set of the
    vertices of least such degree."""
    order = sorted(iter_bits(cmask), key=lambda v: (rows[v] & cmask).bit_count())
    sufs = [0]
    for v in order:
        sufs.append(sufs[-1] | 1 << v)
    return frozenset(sufs)


def _uncovered(t: Digraph, k: int) -> list[int]:
    """The masks S, ascending, whose extension _extend_tournament(t, S) of
    the tournament t is not k-dicolourable, by the cover lemma of the
    module docstring: the new vertex beats exactly S, so a cycle through it
    in class C needs some a in S & C that beats some b in C - S.  Each
    colouring the answer relies on passes verify_dicolouring, or
    RuntimeError is raised.
    """
    if k > 1:
        col = is_k_dicolourable(t, k - 1)
        if col is not None:
            _verified(t, col, k - 1)
            return []
    rows = t.rows
    left = list(range(1 << t.n))
    seen: set[frozenset[int]] = set()
    sufs: dict[int, frozenset[int]] = {}
    for col in enumerate_dicolourings(t, k):
        classes = _class_masks(col, k)
        key = frozenset(classes)
        if key in seen:
            continue
        seen.add(key)
        kept = left
        for c in classes:
            if c not in sufs:
                sufs[c] = _suffixes(rows, c)
            suf = sufs[c]
            kept = [s for s in kept if s & c not in suf]
        if len(kept) < len(left):
            _verified(t, col, k)
            left = kept
            if not left:
                break
    return left


def _verified(t: Digraph, colouring: Sequence[int], k: int) -> None:
    if not verify_dicolouring(t, colouring, k):
        raise RuntimeError(
            f"{k}-dicolouring {list(colouring)} of {d6_encode(t)} fails verification"
        )


def _bound_chunk(args) -> tuple[int, bool, str | None]:
    """(chunk index, verdict, first counterexample): is every dominance
    extension of the chunk's parent tournaments k-dicolourable?  The
    counterexample is the first failing parent extended by its least
    uncovered mask, the first failure of a scan over parents, then masks
    ascending."""
    chunk_idx, parent_d6s, k = args
    for s in parent_d6s:
        t = d6_decode(s)
        left = _uncovered(t, k)
        if left:
            return chunk_idx, False, d6_encode(_extend_tournament(t, left[0]))
    return chunk_idx, True, None


def find_circulant_candidate(
    n: int = 13, acyclic_order: int = 4
) -> tuple[Digraph, tuple[int, ...]]:
    """Search circulant tournaments on n vertices for one whose largest
    induced acyclic set has exactly the requested order.

    Connection sets take one difference from each pair {d, n-d}; the
    lexicographically least hit is returned with its digraph.  Raises
    ValueError when no circulant qualifies.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("circulant tournaments need odd n >= 3")
    pairs = [(d0, n - d0) for d0 in range(1, n // 2 + 1)]
    best: tuple[int, ...] | None = None
    for choice in itertools.product(*pairs):
        s = tuple(sorted(choice))
        if best is not None and s >= best:
            continue
        d = circulant_tournament(n, s)
        if len(max_induced_acyclic(d)) == acyclic_order:
            best = s
    if best is None:
        raise ValueError(
            f"no circulant tournament on {n} vertices has maximum induced "
            f"acyclic order {acyclic_order}"
        )
    return circulant_tournament(n, best), best
