"""Isomorph-free generation of graphs, orientations and tournaments, the
vertex arboricity filter, the census of dicritical oriented graphs, and the
exhaustive tournament bound (every tournament of order n k-dicolourable).

The bound works in layers.  A tournament that is not k-dicolourable stays
not (k-1)-dicolourable after deleting any vertex, so only the order-(n-1)
classes that are not (k-1)-dicolourable need extending.  A first layer
finds them as the last level of the tournament generator, filtered by the
(k-1) colouring cover of each order-(n-2) parent; the second decides their
extensions by the k-cover, in a checkpointed, optionally parallel task loop.

Graphs and tournaments are generated by vertex extension in one level loop
(_generate).  Each level keeps, per certificate, the first child P_j + S in
(parent, mask) order and sorts the kept children by certificate, so the
representatives and their order are fixed by the certificate bytes.  A
child is certified only when it may be the first of its class (McKay's
canonical deletion, used only to reject): if deleting some old vertex v
leaves a class of rank i < j among the parents, then P_j + S is isomorphic
to some P_i + S', which passes the same filter and comes earlier.  At the
last level such a child is skipped.  Below it, the child takes the class of
P_i + S', and its canonical order is that child's composed with the
isomorphism, so every child of the level has a rank and a canonical order
for the next one without a search of its own.  The rank of P_j + S - v is
read from the level below.  No search labels P_j - v: each rep carries, per
vertex, a map of its deletion onto a rep of the level below, built from its
own parent's maps.  P_j is the child Q + S0 of a rep Q, and deleting its
new vertex leaves Q itself, unmapped.  An older v goes through Q's map for
v, which takes P_j - v onto the child of a rep R by S0 less v, mapped; the
recorded canonical orders of that child and of its rep then finish the
map.  So P_j + S - v is the child of a known rep P_i by a known mask, its
rank is one lookup, and the map with v sent to the new vertex takes
P_j + S onto P_i + S', S' being v's row mapped.  Each parent deletes its
new vertex first, a row of ranks, and each older vertex only from the masks
no deletion has settled.  Every deletion of a kept child below the last
level must have passed the filter of its level (_labels checks this).

At the last level a parent P also certifies only the least mask of each
orbit of its automorphisms acting on masks (McKay's orbit pruning; McKay,
Isomorph-free exhaustive generation, 1998).  An automorphism g of P maps
P + S onto P + g(S) and fixes the new vertex, so the two children are
isomorphic and their old-vertex deletions rank alike: both or neither pass
canonical deletion, and a filter that depends only on the class keeps both
or neither.  So the orbit's least mask, visited first, is certified
whenever another of its masks would be, and its child is the one kept.  The
automorphisms are those the search that certified P found (canon._canon's
equal leaves); the step is exact for any subgroup, and runs no search.
Below the last level every admitted child is still visited, as the next
level reads a rank and a canonical order for each.

A filter is handed to _generate as the ascending list of masks each parent
admits: every mask, the degree floor's forced vertices plus enough others,
or the tournament bound's cover.  Only those masks are ranked, orbit-walked
and built; every other child is filtered with no call.  The admitted set
depends only on the child's class, so it is a union of orbits of the
parent's automorphisms, and canonical deletion and the orbit step certify
exactly the masks they would among all children.

Partial orientations carry their unoriented edges as digons and a
processed/unprocessed vertex partition inside the certificate, so states
whose completions explore isomorphic territory collapse early; that is what
keeps dense underlying graphs (whole tournaments in the worst case) within
reach.  The children of one level share the graph, the partition and every
open edge, so one certifier per level (canon._level_certifier) builds
those parts, and the first refinement round of the unprocessed cell, once;
per child it adds the oriented rows and the processed cell's first round.
The final level uses the same certifier, with every vertex processed.
_orientation_stream loops over the levels, and _orientation_level extends
a level's states by vertex t.  No state carries in-rows: a state orients
each edge of g's prefix one way, so v's in-row is g's row of v within the
prefix xor v's out-row, and the solver's candidates are built with them.

Each orientation state carries what its parent already proved.  Degree
bounds force arcs: when vertex t is added, a back-neighbour with no out-
(in-) degree slack left must take the arc towards (from) t, so only the
submasks of the free edges are enumerated, in the same ascending order as a
full scan.  Vertices not adjacent to t keep their degrees and are not
rechecked.  In the census, every state also carries the class masks of a
(k-1)-dicolouring of its prefix.  While a parent's children are walked, it
pools dicolourings of its prefix: the parent's colouring, then its
siblings', each colouring the solver found for a sibling less t.  Siblings
share the parent's prefix, so every pooled entry is a dicolouring of it.  A
child tries to put t into a class of each pooled colouring in that order,
and the solver runs only when none takes it.  A complete orientation needs
only to know whether one does, so it first tries every pooled class that t
has no arc into or none from, which takes t with no cycle search.  Found
colourings are certificates, so the pruning is exact.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass, field
from operator import xor
from typing import Iterator, Sequence

from .canon import _level_certifier, canonical_cert, canonical_form, canonical_labelling
from .certify import _mask_acyclic
from .digraphs import (
    Digraph, bidirect, is_k_diregular, is_oriented, is_tournament, iter_bits, mask_of,
)
from .formats import checkpointed_map, d6_decode, d6_encode
from .solver import (
    _bound_chunk, _class_masks, _creates_cycle, _extend_tournament, _saturation_order,
    _static_colourings, _uncovered, is_dicritical, is_k_dicolourable,
)
from .structure import gallai_property_check

GEN_CAP = 10


def _generate(n: int, extend, admitted) -> list[Digraph]:
    """One order-n digraph per class reachable by vertex extension from K1,
    in certificate order.  admitted(parent) lists, ascending, the masks
    whose child the rule keeps (all, or those a degree floor or the
    tournament bound's cover keeps), and extend(parent, mask) builds such a
    child: its new last vertex has the row mask, meeting the parent's
    vertices in mask one way and the rest the other (adjacent or not;
    dominating or dominated).  The child of any other mask is filtered
    without a call.  Canonical deletion (module docstring) needs both to
    ignore labels: relabelling parent and mask alike gives an isomorphic
    child, and whether a child is admitted must depend only on its class,
    so the admitted masks are a union of orbits of the parent's
    automorphisms; so does the last level's orbit step, which certifies
    only the least mask of each orbit.  The carried labellings also need
    every vertex deletion of a child kept below the last level to be
    admitted at its level.  _labels raises RuntimeError when one is not,
    and _generate when a child below the last level is admitted but the
    earlier child it is isomorphic to was not.

    A level of order s is recorded as (ranks, orders, origins): the child of
    rep m of the level below by mask has index m << s-1 | mask, ranks[index]
    its rank among the level's reps (their count when filtered) and
    orders[s * index:][:s] its canonical order; origins[r] is the index of
    the child that rep r is.  The last level reads only the ranks and
    origins of the level below it, whose orders are None, and groups[r],
    the automorphisms of rep r that the search certifying it found.
    """
    reps = [Digraph(1, (0,))]
    groups = [set()]  # per rep, the automorphisms its search found
    made = ([0], b"\0", [0])  # the level of reps: K1, child of the order-0 digraph
    under = None  # the labellings of the reps below reps, and their level
    for t in range(1, n):
        ranks, _, origins = made
        if t == n - 1:
            seen: dict[bytes, Digraph] = {}  # certificate -> first child
            for j, (parent, autos) in enumerate(zip(reps, groups)):
                masks = admitted(parent)
                low = _first_lower(j, _labels(origins[j], t, under), ranks, masks)
                masks = [x for x, v in zip(masks, low) if v < 0]
                for mask in _orbit_least(masks, autos, t):
                    child = extend(parent, mask)
                    seen.setdefault(canonical_labelling(child)[0], child)
            return [seen[c] for c in sorted(seen)]
        labelled = [_labels(x, t, under) for x in origins]
        # certificate -> (index, child, automorphisms) of the first child of
        # its class, and that triple per child index, or None when filtered
        first: dict[bytes, tuple[int, Digraph, set]] = {}
        firsts: list[tuple[int, Digraph, set] | None] = [None] * (len(reps) << t)
        child_orders = bytearray((t + 1) * len(firsts))
        for j, (parent, labels) in enumerate(zip(reps, labelled)):
            masks = admitted(parent)
            for mask, v in zip(masks, _first_lower(j, labels, ranks, masks)):
                index = j << t | mask
                at = (t + 1) * index
                child = extend(parent, mask)
                if v < 0:
                    cert, order, autos = canonical_labelling(child)
                    firsts[index] = first.setdefault(cert, (index, child, autos))
                    child_orders[at : at + t + 1] = order
                else:
                    # child - v is rep r < j by psi, so the child is rep
                    # r's child x by v's row, mapped, with v as x's new
                    # vertex: it takes x's class, and x's order pulled back
                    r, psi = _onto_rep(labels[v], v, mask, made)
                    x = r << t
                    for u in iter_bits(child.rows[v]):
                        x |= 1 << psi[u]
                    if firsts[x] is None:
                        raise RuntimeError(
                            f"an order-{t + 1} child passed the filter and an"
                            " isomorphic one did not: the filter must depend"
                            " only on the child's class"
                        )
                    firsts[index] = firsts[x]
                    if t == n - 2:
                        continue  # the last level reads no order of this one
                    psi[v] = t
                    inverse = [0] * (t + 1)
                    for u, w in enumerate(psi):
                        inverse[w] = u
                    order = child_orders[(t + 1) * x : (t + 1) * (x + 1)]
                    child_orders[at : at + t + 1] = bytes(inverse[w] for w in order)
        kept = [first[c] for c in sorted(first)]
        reps = [child for _, child, _ in kept]
        groups = [autos for _, _, autos in kept]
        rank = {index: r for r, (index, _, _) in enumerate(kept)}
        # a filtered child has no class; len(kept) exceeds every parent index.
        # The entries share the int objects of the ranks, so reading them
        # allocates nothing.
        child_ranks = [len(kept) if f is None else rank[f[0]] for f in firsts]
        under = (labelled, *made)
        if t == n - 2:
            child_orders = None  # the copied children's orders are missing
        made = (child_ranks, child_orders, [index for index, _, _ in kept])
    return reps


def _half_tables(bits, half) -> tuple[list[int], list[int]]:
    """(lo, hi): the image of a mask x whose bit u goes to bits[u] is
    lo[x & (1 << half) - 1] | hi[x >> half], the images of its low and high
    halves, so a map of masks costs two lookups."""
    lo, hi = [0], [0]
    for u, bit in enumerate(bits):
        table = lo if u < half else hi
        table += [x | bit for x in table]
    return lo, hi


def _orbit_least(masks, autos, t) -> list[int]:
    """The masks, ascending, that are least in their orbit under the group
    that autos, automorphisms of an order-t parent, generate.  masks must
    be ascending and a union of orbits.  Each automorphism maps a mask by
    two half-tables, and each orbit is walked once on an explicit stack;
    its first mask in ascending order is its least."""
    if not autos:
        return masks
    half = t // 2
    cut = (1 << half) - 1
    tables = [_half_tables([1 << w for w in sigma], half) for sigma in autos]
    met = bytearray(1 << t)
    least = []
    for x in masks:
        if met[x]:
            continue
        least.append(x)
        met[x] = 1
        todo = [x]
        while todo:
            y = todo.pop()
            for lo, hi in tables:
                z = lo[y & cut] | hi[y >> half]
                if not met[z]:
                    met[z] = 1
                    todo.append(z)
    return least


def _onto_rep(label, v, mask, record) -> tuple[int, list[int] | None]:
    """(r, psi): P + mask - v, for v a vertex of a rep P of order s, is rep
    r of the level recorded as record (ranks, orders, origins), and u ->
    psi[u] maps it onto that rep, vertex s being the one mask added; psi[v]
    is not meaningful.  label = (m, image) maps P - v onto rep m of the
    level below (_labels), so P + mask - v is mapped onto m's child by mask
    less v, and the recorded canonical orders of that child and of rep r
    finish the map.  psi is None when that child was filtered."""
    m, image = label
    s = len(image)
    ranks, orders, origins = record
    sub = 0
    for u in iter_bits(mask & ~(1 << v)):
        sub |= 1 << image[u]
    index = m << s - 1 | sub
    r = ranks[index]
    if r == len(origins):
        return r, None
    at, to = s * index, s * origins[r]
    onto = [0] * s
    for a, b in zip(orders[at : at + s], orders[to : to + s]):
        onto[a] = b
    return r, [onto[x] for x in image] + [onto[s - 1]]


def _labels(origin: int, t: int, under) -> list[tuple[int, list[int]]]:
    """The deletion labellings of the order-t rep P whose child index is
    origin, built from those of its parent q (module docstring): per vertex
    v of P, (m, image), where u -> image[u] maps P - v onto rep m of the
    level below, q's; image[v] is not read.  under holds the labellings of
    the reps of q's level and that level's record (_generate).
    """
    s = t - 1
    q, mask = origin >> s, origin & ((1 << s) - 1)
    labels = []
    if s:
        labelled, *record = under
        for v, label in enumerate(labelled[q]):
            r, psi = _onto_rep(label, v, mask, record)
            if psi is None:
                raise RuntimeError(
                    f"a vertex deletion of an order-{t} child was filtered at"
                    f" order {s}: the filter below the last level must keep"
                    " every deletion of a kept child"
                )
            labels.append((r, psi))
    labels.append((q, list(range(t))))
    return labels


def _first_lower(j: int, labels, ranks, masks) -> list[int]:
    """Per mask S of masks, the admitted masks of P_j, the j-th rep of its
    level, the first old vertex v of P_j for which P_j + S - v ranks below
    j, or -1 when none does; labels are P_j's deletion labellings (_labels)
    and ranks those of its level (_generate).  Deleting P_j's new vertex
    leaves its parent's child by S less that vertex, one row of ranks, so
    that vertex is tried first; each older vertex in turn is tried only on
    the masks left."""
    t = len(labels)
    s = t - 1
    q = labels[-1][0]
    low = [s if r < j else -1 for r in ranks[q << s : q + 1 << s]]
    low += low  # the bit of P_j's new vertex is deleted with it
    left = [x for x in masks if low[x] < 0]
    half = t // 2
    cut = (1 << half) - 1
    for v, (m, image) in enumerate(labels[:-1]):
        if not left:
            break
        lo, hi = _half_tables([0 if u == v else 1 << image[u] for u in range(t)], half)
        base = m << s
        lower = [x for x in left if ranks[base | lo[x & cut] | hi[x >> half]] < j]
        if lower:
            for x in lower:
                low[x] = v
            left = [x for x in left if low[x] < 0]
    return [low[x] for x in masks]


def gen_graphs(n: int, min_degree: int) -> list[Digraph]:
    """All graphs of the given order and minimum degree, one per class, as
    symmetric digraphs.

    Vertex extension with a degree look-ahead: at order t a vertex can still
    gain at most n-t neighbours, so deg >= min_degree-(n-t) already holds in
    every extendable intermediate graph.  A child is then a graph of its
    order with min degree at least its level's floor, so deleting a vertex
    leaves one that met the floor below; canonical deletion needs that.
    Every vertex of a parent met the floor less one, so the masks a parent
    admits are forced | S for S a submask of the other vertices, with at
    least floor bits: forced holds the vertices a degree short of it.
    """
    if not 1 <= n <= GEN_CAP:
        raise ValueError(f"order must be within 1..{GEN_CAP}, got {n}")
    if min_degree < 0 or min_degree >= n:
        raise ValueError(f"min degree {min_degree} infeasible at order {n}")

    def admitted(g: Digraph) -> list[int]:
        t = g.n
        floor = min_degree - (n - t - 1)
        forced = mask_of(v for v, r in enumerate(g.rows) if r.bit_count() < floor)
        masks = (forced | sub for sub in _submasks((1 << t) - 1 ^ forced))
        return [x for x in masks if x.bit_count() >= floor]

    def extend(g: Digraph, mask: int) -> Digraph:
        t = g.n
        rows = [r | (mask >> i & 1) << t for i, r in enumerate(g.rows)] + [mask]
        return Digraph(t + 1, rows, rows)  # symmetric

    return _generate(n, extend, admitted)


def _closes_forest_cycle(rows: Sequence[int], irows, v: int, forest: int) -> bool:
    """Given that the mask forest induces a forest, does adding v close a
    cycle?  It does iff two of v's neighbours in it share a tree, so only
    their trees are searched.  The signature is solver._creates_cycle's;
    irows is not read."""
    nb = rows[v] & forest
    while nb & (nb - 1):  # two or more neighbours not yet searched
        low = nb & -nb
        nb ^= low
        tree = todo = low
        while todo:
            w = todo & -todo
            todo ^= w
            new = rows[w.bit_length() - 1] & forest & ~tree
            if new & nb:
                return True
            tree |= new
            todo |= new
    return False


def arboricity(g: Digraph) -> int:
    """Vertex arboricity of the underlying graph: fewest classes each
    inducing a forest, the least k at which solver._static_colourings
    yields a colouring; at k = 0 only the empty graph has one.  The
    underlying rows serve as in-rows too; each class stays a forest
    throughout the walk, so _closes_forest_cycle tests a placement only
    against the trees it touches.  The census drops a graph on this
    answer, so each class of the partition found is checked by the leaf
    peel of certify._mask_acyclic, which shares nothing with the walk."""
    rows = g.underlying_rows
    for k in itertools.count():
        col = next(_static_colourings(rows, rows, g.n, k, _closes_forest_cycle), None)
        if col is not None:
            break
    classes = _class_masks(col, k)
    if not all(_mask_acyclic(rows, rows, m, 1) for m in classes):
        raise RuntimeError(f"a class of a {k}-forest partition of order {g.n} has a cycle")
    return k


def _submasks(free: int) -> Iterator[int]:
    """The submasks of free, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == free:
            return
        sub = (sub - free) & free


def _extend(pool, rows, into, t):
    """(colouring, slot): the first colouring of the pool, and the first of
    its classes, that takes vertex t and stays acyclic; None when none
    does.  The pool holds dicolourings of the prefix below t, as class
    masks: the parent's colouring, then its siblings'.  rows[t] and into
    are t's out- and in-row into the prefix; _creates_cycle answers for a
    class that t has no arc into, or none from, with no search."""
    irows = {t: into}  # the one in-row _creates_cycle reads
    for classes in pool:
        for c, cmask in enumerate(classes):
            if not _creates_cycle(rows, irows, t, cmask):
                return classes, c
    return None


def _settles(pool, rows, into, t) -> bool:
    """Does a colouring of the pool take vertex t into one of its classes
    and stay acyclic (_extend)?  The answer does not depend on the order
    the classes are tried in, so every class that t has no arc into, or
    none from, is tried first, with no cycle search."""
    out = rows[t]
    for classes in pool:
        for cmask in classes:
            if not (out & cmask and into & cmask):
                return True
    return _extend(pool, rows, into, t) is not None


def _orientation_stream(
    g: Digraph,
    floor: int,
    colours: int | None = None,
) -> tuple[list[Digraph], int]:
    """Orientation classes of the graph g with in- and out-degrees at least
    floor, plus the count of raw final-level candidates that met that bound.

    With colours set, only partial states whose prefix is colours-
    dicolourable are kept (sound for hereditary targets), and only complete
    orientations that are not; the final test runs before the last
    deduplication, so the stream is then isomorph-free within that set.
    """
    if g.n == 0:
        return [], 0
    # a state is (rows, classes): the arcs among the processed prefix and,
    # with colours, the class masks of a colours-dicolouring of the prefix
    states = [((0,) * g.n, None if colours is None else (0,) * colours)]
    for t in range(g.n):
        states, candidates = _orientation_level(g, t, states, floor, colours)
    return [Digraph(g.n, rows) for rows, _ in states], candidates


def _orientation_level(g: Digraph, t: int, states, floor: int, colours: int | None):
    """(states, candidates): level t of _orientation_stream, the states'
    extensions by vertex t that the degree window allows, one per
    certificate in certificate order (at t = n - 1 the surviving complete
    orientations), and the count of those extensions, the candidates."""
    # g's prefix through t; a candidate orients each of its edges one way,
    # so v's in-row is gpre[v] ^ rows[v]
    gpre = [r & (2 << t) - 1 for r in g.rows[: t + 1]]
    back = gpre[t]
    # each back-neighbour w's out-degree in the prefix must lie in a
    # window, or the edge wt is forced: below it w -> t, above it t -> w;
    # fut counts the edges to vertices after t
    window = []
    for w in iter_bits(back):
        fut = (g.rows[w] >> t + 1).bit_count()
        window.append((w, 1 << w, floor - fut, g.rows[w].bit_count() - 1 - floor))
    lo = floor - (g.rows[t] >> t + 1).bit_count()  # window of t's own out-degree
    hi = g.rows[t].bit_count() - floor
    last = t == g.n - 1
    # the solver's vertex order for every candidate of the level: an
    # oriented digraph's depends only on its underlying graph (g's
    # prefix), as it has no digon partners (solver._saturation_order)
    seq = _saturation_order(Digraph(t + 1, gpre, gpre))
    cert_of = _level_certifier(g, t + 1)
    # each certificate's state; None for a prefix with no dicolouring
    seen: dict[bytes, tuple[tuple[int, ...], tuple[int, ...] | None] | None] = {}
    candidates = 0

    def solved(child, pool):
        """child's colours-dicolouring or None; a found one, less t, is pooled."""
        d = Digraph(t + 1, child[: t + 1], map(xor, gpre, child))
        col = is_k_dicolourable(d, colours, seq)
        if col is not None:
            pool.append(_class_masks(col[:t], colours))
        return col

    for rows, classes in states:
        into_t = out_of_t = 0
        for w, wbit, low, high in window:
            outd = rows[w].bit_count()
            if outd < low:
                into_t |= wbit
            if outd > high:
                out_of_t |= wbit
        if into_t & out_of_t:
            continue
        # dicolourings of the prefix below t: the parent's, then each
        # that the solver found for a sibling, less t
        pool = [classes]
        base = list(rows)
        for sub in _submasks(back & ~into_t & ~out_of_t):
            mask = out_of_t | sub  # t -> w for w in mask, else w -> t
            if not lo <= mask.bit_count() <= hi:
                continue
            candidates += 1
            base[t] = mask
            if last:
                # a pooled colouring that extends to t settles a final
                # candidate before any digraph is built
                if classes is not None and _settles(pool, base, back ^ mask, t):
                    continue
                child = _attach(rows, t, mask, back)
                if classes is None or solved(child, pool) is None:
                    seen.setdefault(cert_of(child), (child, None))
                continue
            child = _attach(rows, t, mask, back)
            cert = cert_of(child)
            if cert in seen:
                continue
            if classes is None:
                seen[cert] = (child, None)
            elif (hit := _extend(pool, base, back ^ mask, t)) is not None:
                pooled, c = hit
                seen[cert] = (child, pooled[:c] + (pooled[c] | 1 << t,) + pooled[c + 1 :])
            else:
                col = solved(child, pool)
                seen[cert] = None if col is None else (child, _class_masks(col, colours))
    return [s for _, s in sorted(seen.items()) if s is not None], candidates


def _attach(rows, t, mask, back) -> tuple[int, ...]:
    """rows with vertex t attached: t -> w for w in mask, w -> t for the
    rest of back."""
    child = list(rows)
    child[t] = mask
    bit = 1 << t
    into = back & ~mask
    while into:
        low = into & -into
        child[low.bit_length() - 1] |= bit
        into ^= low
    return tuple(child)


def gen_tournaments(n: int) -> list[Digraph]:
    """One tournament per isomorphism class, by vertex extension; the new
    vertex dominates exactly the mask-selected old vertices."""
    if not 1 <= n <= GEN_CAP:
        raise ValueError(f"order must be within 1..{GEN_CAP}, got {n}")
    return _generate(n, _extend_tournament, lambda parent: range(1 << parent.n))


BOUND_CHUNK = 256  # parent tournaments per task of the bound's second layer


def _hard_classes(n: int, k: int) -> list[str]:
    """The order-n tournament classes that are not k-dicolourable, in
    digraph6, with the representatives and order gen_tournaments(n) gives
    them; n >= 1 and k >= 0.  k = 0 keeps every class.  Order 1 has no
    level to filter, so n = 1 gives [K1] whatever k, which a bound may
    extend as hard: that only skips solver._uncovered's shortcut.

    Every order-n class extends some order-(n-1) class, so at the last
    level of _generate each parent admits the masks its k-cover
    (solver._uncovered) leaves, an ascending list computed once per parent.
    Hardness is a property of the class, so canonical deletion stays exact
    and the first hard child of each class is the one gen_tournaments
    keeps.
    """

    def admitted(parent: Digraph):
        return _uncovered(parent, k) if parent.n == n - 1 else range(1 << parent.n)

    return [d6_encode(t) for t in _generate(n, _extend_tournament, admitted)]


def verify_census_bound(
    n: int,
    k: int,
    jobs: int = 1,
    checkpoint: str | None = None,
) -> tuple[bool, Digraph | None]:
    """Are all tournaments of order n k-dicolourable?  By arc-monotonicity
    this extends to every oriented graph of order n.  Returns (ok,
    counterexample); the counterexample is None when ok.

    Every order-n class is a dominance extension of an order-(n-1) class,
    and solver._bound_chunk decides all 2^(n-1) extensions of a parent at
    once by its colouring cover (T + S is k-dicolourable iff a k-dicolouring
    of T has a class C with S & C a sink-side suffix of C).  An order-n
    tournament that is not k-dicolourable extends one of order n-1 that is
    not (k-1)-dicolourable: delete any vertex, and the rest cannot take k-1
    colours, or the vertex would take the k-th.  So a first layer finds
    those hard order-(n-1) classes (_hard_classes; at k = 1 every class)
    and only they are extended, without proving their hardness again.  The
    first layer runs in this process; the second runs in chunks of 256 parents,
    in parallel with jobs > 1, and resumes from the checkpoint, whose
    header records how many parents it streams.  The counterexample is the
    first failing extension of the first failing parent in class order,
    whatever the layering and the jobs.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n} k={k}")
    if n - 1 > GEN_CAP:
        raise ValueError(
            f"order {n} extends tournaments of order {n - 1}, past the"
            f" generation cap {GEN_CAP}"
        )
    if n == 1:
        return True, None  # no order-0 parent to extend
    parents = _hard_classes(n - 1, k - 1)  # hard: _uncovered skips the (k-1) solve
    tasks = [
        (i // BOUND_CHUNK, parents[i : i + BOUND_CHUNK], k, True)
        for i in range(0, len(parents), BOUND_CHUNK)
    ]
    # version 2: records are chunks of the hard parents; a file written
    # when they were chunks of every class must not be trusted
    header = {
        "kind": "tournament-bound", "version": 2, "n": n, "k": k,
        "parents": len(parents), "chunks": len(tasks),
    }
    # records come in chunk order and none is written past a failure, so
    # the first failure is the lowest failing chunk, whatever the jobs
    read = functools.partial(_bound_read, n, k)
    for _, verdict in checkpointed_map(_bound_record, tasks, read, header, checkpoint, jobs):
        if verdict is not True:
            return False, d6_decode(verdict)
    return True, None


def _bound_record(args) -> dict:
    """_bound_chunk's verdict as a checkpoint record."""
    idx, ok, counter = _bound_chunk(args)
    rec = {"chunk": idx, "ok": ok}
    if counter:
        rec["counterexample"] = counter
    return rec


def _bound_read(n: int, k: int, rec: dict) -> tuple:
    """A bound record's chunk and verdict: True, or the counterexample of a
    failing chunk.  A field of the wrong type raises TypeError, and a
    counterexample that is not digraph6, not an order-n tournament, or
    k-dicolourable, ValueError."""
    chunk, ok = rec["chunk"], rec["ok"]
    verdict = ok or rec["counterexample"]
    if type(chunk) is not int or type(ok) is not bool or not (
        ok or isinstance(verdict, str)
    ):
        raise TypeError("bound record field of the wrong type")
    if not ok:
        cex = d6_decode(verdict)
        if cex.n != n or not is_tournament(cex) or is_k_dicolourable(cex, k) is not None:
            raise ValueError(
                f"{verdict} is not an order-{n} tournament with no {k}-dicolouring")
    return chunk, verdict


@dataclass
class CensusReport:
    """A census's sorted outputs and stats; count, min_arcs and witnesses
    are derived from all_dicritical, so they cannot disagree with it."""
    n: int
    k: int
    all_dicritical: list[str]
    stats: dict = field(default_factory=dict)
    count: int = field(init=False)
    min_arcs: int | None = field(init=False)
    witnesses: list[str] = field(init=False)

    def __post_init__(self):
        arcs = [d6_decode(s).m for s in self.all_dicritical]
        self.count = len(arcs)
        self.min_arcs = min(arcs, default=None)
        self.witnesses = [
            s for s, m in zip(self.all_dicritical, arcs) if m == self.min_arcs
        ]

    def to_json(self) -> dict:
        return asdict(self)


def _census_graph_task(args) -> dict:
    g6, k = args
    g = d6_decode(g6)
    # every proper induced subdigraph of a k-dicritical digraph is
    # (k-1)-dicolourable, so prefixes that are not can be dropped
    survivors, candidates = _orientation_stream(g, k - 1, colours=k - 1)
    found = []
    for d in survivors:
        if is_dicritical(d, k).is_dicritical:
            found.append(d6_encode(canonical_form(d)))
    return {
        "graph": g6,
        "dicritical": sorted(found),
        "candidates": candidates,
    }


def _census_read(rec: dict) -> tuple:
    """A census record's graph, dicritical outputs and candidate count.  A
    field of the wrong type raises TypeError; a negative count, outputs not
    strictly ascending (as the worker writes them), or one not digraph6 or
    not an orientation of the task's graph (by certificate: outputs are
    canonical), ValueError."""
    g6, found, count = rec["graph"], rec["dicritical"], rec["candidates"]
    if not isinstance(g6, str) or type(count) is not int or not (
        isinstance(found, list) and all(isinstance(s, str) for s in found)
    ):
        raise TypeError("census record field of the wrong type")
    if count < 0:
        raise ValueError(f"{g6} has a negative candidate count")
    if any(a >= b for a, b in zip(found, found[1:])):
        raise ValueError(f"outputs of {g6} are not strictly ascending")
    cert = canonical_cert(d6_decode(g6)) if found else None
    for s in found:
        d = d6_decode(s)
        if not is_oriented(d) or canonical_cert(bidirect(d)) != cert:
            raise ValueError(f"{s} is not an orientation of {g6}")
    return g6, found, count


def dicritical_census(
    n: int,
    k: int,
    jobs: int = 1,
    checkpoint: str | None = None,
) -> CensusReport:
    """All k-dicritical oriented graphs of order n.

    Pipeline: graphs of min degree 2(k-1), vertex arboricity filter at k,
    degree bounded orientations, exact dicriticality.  Results are
    independent of the worker count.  An order n <= 2(k-1) has no such
    graph, so its census is empty.
    """
    if k < 2:
        raise ValueError("census needs k >= 2")
    if not 1 <= n <= GEN_CAP:
        raise ValueError(f"order must be within 1..{GEN_CAP}, got {n}")
    graphs = gen_graphs(n, 2 * (k - 1)) if n > 2 * (k - 1) else []
    kept = [g for g in graphs if arboricity(g) >= k]
    tasks = [(d6_encode(g), k) for g in kept]
    # keep these exact bytes: checkpoints written when the filter was a
    # choice carry "filter", must still resume, and bench/make_reference.py
    # compares against this header
    header = {"kind": "census", "n": n, "k": k, "filter": "vertex"}
    all_dicritical: list[str] = []
    candidates = 0
    # one record per task, in any order: the totals do not depend on it
    for _, found, count in checkpointed_map(
        _census_graph_task, tasks, _census_read, header, checkpoint, jobs
    ):
        all_dicritical.extend(found)
        candidates += count
    all_dicritical.sort()
    return CensusReport(
        n=n,
        k=k,
        all_dicritical=all_dicritical,
        stats={
            "graphs": len(graphs),
            "graphs_after_arboricity": len(kept),
            "orientation_candidates": candidates,
        },
    )


def validate_census(report: CensusReport) -> list[str]:
    """Re-check a census report; returns a list of failure descriptions
    (empty when everything checks out).  Each output goes through
    is_dicritical again, the census's own search, so only the colourings
    it reports are checked independently (by verify_dicolouring); its
    answers that no colouring exists are trusted search output."""
    outs = sorted(report.all_dicritical)
    problems = [f"{s}: listed twice" for s, t in zip(outs, outs[1:]) if s == t]
    k = report.k
    for s in dict.fromkeys(report.all_dicritical):
        d = d6_decode(s)
        if not is_oriented(d):
            problems.append(f"{s}: not oriented")
        crit = is_dicritical(d, k)  # tests the degree bound first
        if not crit.is_dicritical:
            problems.append(f"{s}: not {k}-dicritical: {crit.reason}")
        if not gallai_property_check(d, k):
            problems.append(f"{s}: low vertices not a directed cactus")
        if k == 3 and d.n >= 10:
            if d.m < 21:
                problems.append(f"{s}: order >= 10 with fewer than 21 arcs")
            if is_k_diregular(d, 2):
                problems.append(f"{s}: order >= 10 and 2-diregular")
    return problems
