"""Exact decision procedures for dicolouring: dicolourability, the
dichromatic number, dicriticality and induced acyclic sets of a given
order, plus the chunk worker that checks dominance extensions of
tournaments for the exhaustive tournament bound (the bound itself lives
with tournament generation).

The worker decides all 2^n extensions of a parent tournament T at once by
a colouring cover (_uncovered).  A new vertex beating exactly the set S can
join a colour class C of a dicolouring of T iff S & C is a sink-side suffix
of C's transitive order.  Every dicolouring of T + S restricts to one of T,
so T + S is k-dicolourable iff some k-dicolouring of T covers S that way.
One solve settles T when it is (k-1)-dicolourable, as the new vertex then
takes a class of its own; otherwise T's partitions into k acyclic classes
are walked, each once, until every S is covered, and the masks left over
are exact.  The masks are the bits of one int, bit S for mask S, and C
covers the OR over its suffixes sigma of Z << sigma, Z the masks disjoint
from C: S & C is sigma exactly when S is sigma plus such a mask.

All searches are deterministic.  _static_colourings is the package's one
colouring search: it places the vertices in the sequence it is handed,
each allowed only the colours up to 1 + the number already in use, which
breaks colour symmetry, and numbers the colours 1..k as a k-dicolouring
does, so no caller renumbers them.  The cover, the gadget checks and
vertex arboricity (with a forest test for _creates_cycle) walk it in the
order 0..n-1; _dfs_colour takes its first colouring in the sequence
_saturation_order fixes once per digraph, which a caller that knows it
passes, placing the vertices in that order on the digraph's own labels:
no copy is relabelled, and the search and its check read the digraph's
one in-rows.  The checks of their answers live in certify.

induced_acyclic_set stops at the first acyclic set of the order asked,
which decides that such a set exists and proves nothing about larger ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .certify import _mask_acyclic, _verified
from .digraphs import (
    Digraph, circulant_tournament, delete_arc, is_tournament, iter_bits, mask_of,
)
from .formats import d6_decode, d6_encode


def _creates_cycle(rows, irows, v, cmask):
    """Would adding v to the class with vertex mask cmask close a cycle?"""
    succ = rows[v] & cmask
    if not succ:
        return False
    tgt = irows[v] & cmask
    if not tgt:
        return False
    frontier = succ
    while frontier:
        if frontier & tgt:
            return True
        cmask ^= frontier  # what is reached leaves the class
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & cmask
    return False


# each vertex's successor and predecessor in the order 0..n-1, shared by
# every walk of at most 256 vertices in that order (the cover's, a
# tournament's): indexing them costs what v + 1 and v - 1 cost, so such a
# walk builds no links and does no more work per step than one written
# for that order alone
_SUCC = tuple(range(1, 257))
_PRED = tuple(range(-1, 255))


def _static_colourings(rows, irows, n: int, k: int, blocked, seq=None) -> Iterator[list[int]]:
    """Every partition of the vertices into at most k classes, each once,
    as a list of colours 1..k by vertex, numbered in order of first use
    along seq, where blocked(rows, irows, v, cmask) says whether v may not
    join the class cmask (with _creates_cycle, the classes are the acyclic
    sets).

    The vertices are placed in the order seq, a sequence of them all
    (0..n-1 when None), on the digraph's own labels, on an explicit stack
    indexed by vertex and linked by each vertex's successor and
    predecessor in seq: vertex v may take the colours up to min(k, 1 +
    the colours in use before it), tried ascending, so two colourings
    yielded differ as partitions.  The same list is yielded each time and
    changes when the walk resumes.  blocked has no default, so a caller
    passing _creates_cycle reads it from this module at call time, where a
    test may replace it to count calls.
    """
    k = min(k, n)  # at most n classes, and one mask per class
    if n == 0:
        yield []
        return
    first, last, nxt, prv = 0, n - 1, _SUCC, _PRED
    if seq is not None or n > 256:
        seq = range(n) if seq is None else seq
        nxt, prv = [0] * n, [0] * n
        for a, b in zip(seq, seq[1:]):
            nxt[a] = b
            prv[b] = a
        first, last = seq[0], seq[-1]
    colour = [0] * n
    before = [0] * n  # colours in use before each vertex
    masks = [0] * (k + 1)  # each colour's class, by colour
    v = first
    c = 1
    limit = min(k, 1)
    while True:
        while c <= limit and blocked(rows, irows, v, masks[c]):
            c += 1
        if c <= limit:
            colour[v] = c
            masks[c] |= 1 << v
            if v != last:
                used = before[v] + (c > before[v])
                v = nxt[v]
                before[v] = used
                c = 1
                limit = used + 1 if used < k else k
                continue
            yield colour
        elif v != first:
            v = prv[v]
            c = colour[v]
            limit = before[v] + 1 if before[v] < k else k
        else:
            return
        masks[c] ^= 1 << v
        c += 1


def _saturation_order(d: Digraph) -> list[int]:
    """The colouring search's vertex order, as the vertices in the order
    they are placed: next comes the unplaced vertex with the most placed
    digon partners, then the most placed neighbours in the underlying
    graph, the least index on a tie.  Each count is kept per vertex and
    raised as its neighbours are placed; a placed vertex's score drops
    below every unplaced one's."""
    n = d.n
    rows, irows = d.rows, d.in_rows
    score = [0] * n  # n per placed digon partner, plus 1 per placed neighbour
    seq = []
    left = (1 << n) - 1
    for _ in range(n):
        v = score.index(max(score))
        seq.append(v)
        score[v] = -1
        left ^= 1 << v
        r = (rows[v] | irows[v]) & left
        dig = rows[v] & irows[v]
        while r:
            low = r & -r
            score[low.bit_length() - 1] += n + 1 if dig & low else 1
            r ^= low
    return seq


def _dfs_colour(d: Digraph, k: int, seq: list[int] | None = None) -> list[int] | None:
    """Core search: the first colouring of _static_colourings on d as it
    is, colours 1..k, its vertices placed in the order seq, which is
    _saturation_order(d) when None; a caller that knows that order passes
    it.  In a tournament every unplaced vertex has every placed one as a
    neighbour and none as a digon partner, so the order is 0..n-1."""
    if is_tournament(d):  # the empty digraph is one
        seq = None
    elif seq is None:
        seq = _saturation_order(d)
    return next(_static_colourings(d.rows, d.in_rows, d.n, k, _creates_cycle, seq), None)


def is_k_dicolourable(d: Digraph, k: int, seq: list[int] | None = None) -> list[int] | None:
    """A k-dicolouring as a list of colours in 1..k, or None.  The
    colouring passes verify_dicolouring, or RuntimeError is raised.  seq,
    when given, is the search's vertex order (_dfs_colour)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    res = _dfs_colour(d, k, seq)
    return None if res is None else _verified(d, res, k)


def dichromatic_number(d: Digraph) -> tuple[int, list[int]]:
    """(least k with a k-dicolouring, certificate).  Empty digraph gives 0."""
    if d.n == 0:
        return 0, []
    for k in itertools.count(1):
        res = is_k_dicolourable(d, k)
        if res is not None:
            return k, res


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
    check rejects an isolated vertex, whose out-degree 0 is below k - 1.
    Every reported colouring comes from is_k_dicolourable, which checks it."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        ok = d.n == 1
        return CriticalityReport(
            k=1,
            is_dicritical=ok,
            reason="single vertex" if ok else "1-dicritical means a single vertex",
            chi=d.n if d.n <= 1 else None,  # not computed for larger inputs
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
        minus = delete_arc(d, u, v)
        sub = is_k_dicolourable(minus, k - 1)
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


def _shortest_cycle(
    rows, irows, mask, digon_mask, tournament: bool = False
) -> list[int] | None:
    """A shortest directed cycle within the mask, as a vertex list, or None.
    The digon_mask must hold every vertex with a digon partner inside the
    mask; the digon step scans only its vertices.  tournament says that
    the rows are a tournament's.

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
    least.  Only a mask with no digon and no triangle runs the BFS, and
    not in a tournament: there a shortest cycle is a triangle, since a
    chord of any longer cycle closes a shorter one, so the mask is acyclic.
    """
    m = mask & digon_mask
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
    if tournament:
        return None
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


def induced_acyclic_set(d: Digraph, size: int) -> list[int] | None:
    """A vertex set of at least size vertices inducing an acyclic
    subdigraph, ascending, or None when there is none: the first acyclic
    mask of a depth-first branch and bound.  The set is confirmed by the
    sink peel of _mask_acyclic, which shares nothing with the cycle
    search, or RuntimeError is raised.

    The search branches over the vertices of a shortest remaining directed
    cycle (each must lose a vertex), pruning a mask of fewer than size
    vertices and a cycle made unbreakable by earlier keep decisions.  It
    runs on an explicit stack of (mask, keep, digons) entries, so its depth
    is not bounded by Python's recursion limit.  A node's children go on in
    reverse, the i-th keeping the cycle vertices the earlier ones removed.
    digons holds the vertices that may have a digon partner in the mask: a
    digon [s, w] shows that none below s has one, and a longer cycle that
    none has, so no node rescans the pairs its ancestors broke.
    """
    rows, irows = d.rows, d.in_rows
    tournament = is_tournament(d)
    stack = [((1 << d.n) - 1, 0,
              mask_of(v for v, r in enumerate(d.digon_rows) if r))]
    while stack:
        mask, keep, digons = stack.pop()
        if mask.bit_count() < size:
            continue
        cyc = _shortest_cycle(rows, irows, mask, digons, tournament)
        if cyc is None:
            if not _mask_acyclic(rows, irows, mask):
                raise RuntimeError(
                    f"induced set {list(iter_bits(mask))} is not acyclic")
            return list(iter_bits(mask))
        digons = digons >> cyc[0] << cyc[0] if len(cyc) == 2 else 0
        children = []
        for v in cyc:
            if not keep >> v & 1:
                children.append((mask & ~(1 << v), keep, digons))
                keep |= 1 << v
        stack.extend(reversed(children))
    return None


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
    return Digraph(n + 1, rows, irows)


def _cover(rows: Sequence[int], n: int, cmask: int) -> int:
    """The masks, as bits, that the acyclic class cmask of an n-vertex
    tournament covers (module docstring); suffixes grow from its sink up."""
    z = 1
    for b in iter_bits((1 << n) - 1 & ~cmask):
        z |= z << (1 << b)
    cover, sigma = z, 0
    for v in sorted(iter_bits(cmask), key=lambda v: (rows[v] & cmask).bit_count()):
        sigma |= 1 << v
        cover |= z << sigma
    return cover


def _uncovered(t: Digraph, k: int, hard: bool = False) -> list[int]:
    """The masks S, ascending, whose extension _extend_tournament(t, S) of
    the tournament t is not k-dicolourable, by the cover lemma of the
    module docstring: the new vertex beats exactly S, so a cycle through it
    in class C needs some a in S & C that beats some b in C - S.  Each
    colouring the answer relies on passes verify_dicolouring, or
    RuntimeError is raised.  The masks not yet covered are one int's bits.

    hard says that t is known not to be (k-1)-dicolourable, which skips
    the (k-1) solve.  That solve is only a shortcut: were t
    (k-1)-dicolourable, the walk would meet a partition with an empty
    class, which covers every S.  The walk visits each partition of t
    into at most k acyclic classes once (_static_colourings); the
    colourings it leaves out are relabellings of these, with the same
    classes, and cover the same masks.  The masks left are those no
    partition covers, an intersection that does not depend on the order
    of the walk.
    """
    if k > 1 and not hard and is_k_dicolourable(t, k - 1) is not None:
        return []
    n, rows = t.n, t.rows
    left = (1 << (1 << n)) - 1  # bit S stands for mask S
    covers: dict[int, int] = {}
    for col in _static_colourings(rows, t.in_rows, n, k, _creates_cycle):
        kept = left
        for c in _class_masks(col, k):
            if c not in covers:
                covers[c] = _cover(rows, n, c)
            kept &= ~covers[c]
        if kept != left:
            _verified(t, col, k)
            left = kept
            if not left:
                break
    return list(iter_bits(left))


def _bound_chunk(args) -> tuple[int, bool, str | None]:
    """(chunk index, verdict, first counterexample): is every dominance
    extension of the chunk's parent tournaments k-dicolourable?  The
    counterexample is the first failing parent extended by its least
    uncovered mask, the first failure of a scan over parents, then masks
    ascending.  args is (chunk index, parents in digraph6, k), with an
    optional fourth item: true when no parent is (k-1)-dicolourable
    (_uncovered's hard), as verify_census_bound sends.  bench/run.py sends
    the 3-tuple, with mostly 2-dicolourable order-8 parents at k = 3, where
    the (k-1) solve is the cheaper proof: over all 6,880 order-8 classes,
    0.21 s against 0.24 s with hard forced.  A parent with the wrong arc
    count for a tournament raises ValueError, as its in-rows are taken as
    its out-rows' complements less the vertex."""
    chunk_idx, parent_d6s, k = args[:3]
    hard = len(args) > 3 and args[3]
    for s in parent_d6s:
        t = d6_decode(s)
        if 2 * t.m != t.n * (t.n - 1):
            raise ValueError(f"parent {s!r} is not a tournament")
        full = (1 << t.n) - 1
        t = Digraph(t.n, t.rows, (full ^ r ^ 1 << v for v, r in enumerate(t.rows)))
        left = _uncovered(t, k, hard)
        if left:
            return chunk_idx, False, d6_encode(_extend_tournament(t, left[0]))
    return chunk_idx, True, None


def find_circulant_candidate(
    n: int, acyclic_order: int
) -> tuple[Digraph, tuple[int, ...]]:
    """Search circulant tournaments on n vertices for one whose largest
    induced acyclic set has exactly the requested order: it has an induced
    acyclic set of that order and none of one more.

    Connection sets take one difference from each pair {d, n-d}; they are
    scanned in ascending order, and the first hit is returned with its
    digraph.  Raises ValueError when no circulant qualifies.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("circulant tournaments need odd n >= 3")
    pairs = [(d0, n - d0) for d0 in range(1, n // 2 + 1)]
    for s in sorted(tuple(sorted(choice)) for choice in itertools.product(*pairs)):
        d = circulant_tournament(n, s)
        if (induced_acyclic_set(d, acyclic_order) is not None
                and induced_acyclic_set(d, acyclic_order + 1) is None):
            return d, s
    raise ValueError(
        f"no circulant tournament on {n} vertices has maximum induced "
        f"acyclic order {acyclic_order}"
    )
