"""Isomorph-free generation of graphs, orientations and tournaments, the
vertex arboricity filter, the census of dicritical oriented graphs, and the
exhaustive tournament bound (every tournament of order n k-dicolourable),
which streams the generated tournament classes through a checkpointed,
optionally parallel task loop.

Generation is by vertex extension with canonical-certificate rejection at
every level.  Partial orientations carry their unoriented edges as digons and
a processed/unprocessed vertex partition inside the certificate, so states
whose completions explore isomorphic territory collapse early; that is what
keeps dense underlying graphs (whole tournaments in the worst case) within
reach.

Each orientation state carries what its parent already proved.  Degree
bounds force arcs: when vertex t is added, a back-neighbour with no out-
(in-) degree slack left must take the arc towards (from) t, so only the
submasks of the free edges are enumerated, in the same ascending order as a
full scan.  Vertices not adjacent to t keep their degrees and are not
rechecked.  In the census, every state also carries the class masks of a
(k-1)-dicolouring of its prefix; a child first tries to put t into one of
its parent's classes, and the solver runs only when none takes it.  Found
colourings are certificates, so the pruning is exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .canon import canonical_cert, canonical_form
from .digraphs import (
    Digraph, Graph, bidirect, is_k_diregular, is_oriented, iter_bits, underlying_graph
)
from .formats import checkpointed_map, d6_decode, d6_encode
from .solver import (
    _bound_chunk, _creates_cycle, _extend_tournament, is_dicritical, is_k_dicolourable
)
from .structure import gallai_property_check

GEN_CAP = 10


def gen_graphs(n: int, min_degree: int) -> list[Graph]:
    """All graphs of the given order and minimum degree, one per class.

    Vertex extension with a degree look-ahead: at order t a vertex can still
    gain at most n-t neighbours, so deg >= min_degree-(n-t) already holds in
    every extendable intermediate graph.
    """
    if not 1 <= n <= GEN_CAP:
        raise ValueError(f"order must be within 1..{GEN_CAP}, got {n}")
    if min_degree < 0 or min_degree >= n:
        raise ValueError(f"min degree {min_degree} infeasible at order {n}")
    reps: list[tuple[int, ...]] = [(0,)]
    for t in range(1, n):
        floor = min_degree - (n - t - 1)
        seen: dict[bytes, tuple[int, ...]] = {}
        for rows in reps:
            for mask in range(1 << t):
                if mask.bit_count() < floor:
                    continue
                child = [r | (mask >> i & 1) << t for i, r in enumerate(rows)]
                child.append(mask)
                if floor > 0 and any(
                    r.bit_count() < floor for r in child
                ):
                    continue
                cert = canonical_cert(Digraph(t + 1, child))
                if cert not in seen:
                    seen[cert] = tuple(child)
        reps = [seen[c] for c in sorted(seen)]
    return [Graph(n, rows) for rows in reps]


def _forest_mask(rows: Sequence[int], mask: int) -> bool:
    """Is the induced undirected subgraph on mask acyclic?"""
    verts = list(iter_bits(mask))
    edges = 0
    comps = 0
    seen = 0
    for s in verts:
        edges += (rows[s] & mask).bit_count()
        if seen >> s & 1:
            continue
        comps += 1
        stack = [s]
        seen |= 1 << s
        while stack:
            v = stack.pop()
            todo = rows[v] & mask & ~seen
            seen |= todo
            for w in iter_bits(todo):
                stack.append(w)
    return edges // 2 == len(verts) - comps


def arboricity(g: Graph) -> int:
    """Vertex arboricity: fewest classes each inducing a forest."""
    n = g.n
    if n == 0:
        return 0
    rows = g.rows

    def ok(k: int) -> bool:
        masks = [0] * k

        def rec(v: int, used: int) -> bool:
            if v == n:
                return True
            for c in range(min(k, used + 1)):
                if _forest_mask(rows, masks[c] | 1 << v):
                    masks[c] |= 1 << v
                    if rec(v + 1, max(used, c + 1)):
                        return True
                    masks[c] &= ~(1 << v)
            return False

        return rec(0, 0)

    k = 1
    while not ok(k):
        k += 1
    return k


def _mixed_cert(n, rows, g, t):
    """Certificate of a partial orientation: oriented arcs as arcs, the not
    yet oriented edges as digons, vertices split processed/unprocessed."""
    prefix_mask = (1 << t) - 1
    mixed = list(rows)
    for v in range(n):
        open_nb = g.rows[v] & ~prefix_mask if v < t else g.rows[v]
        mixed[v] |= open_nb
    return canonical_cert(
        Digraph(n, mixed),
        cells=(list(range(t)), list(range(t, n))),
    )


def _submasks(free: int) -> Iterator[int]:
    """The submasks of free, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == free:
            return
        sub = (sub - free) & free


def _extend(classes, rows, irows, t):
    """The classes with vertex t added to the first that stays acyclic, or
    None.  rows[t] and irows[t] hold t's arcs to the earlier vertices."""
    for c, cmask in enumerate(classes):
        if not _creates_cycle(rows, irows, t, cmask):
            return classes[:c] + (cmask | 1 << t,) + classes[c + 1 :]
    return None


def _class_masks(colouring: Sequence[int], colours: int) -> tuple[int, ...]:
    masks = [0] * colours
    for v, c in enumerate(colouring):
        masks[c - 1] |= 1 << v
    return tuple(masks)


def _orientation_stream(
    g: Graph,
    min_in: int,
    min_out: int,
    colours: int | None = None,
) -> tuple[list[Digraph], int]:
    """Orientation classes of g with the given degree bounds, plus the count
    of raw final-level candidates that met the degree bounds.

    With colours set, only partial states whose prefix is colours-
    dicolourable are kept (sound for hereditary targets), and only complete
    orientations that are not; the final test runs before the last
    deduplication, so the stream is then isomorph-free within that set.
    """
    n = g.n
    if n == 0:
        return [], 0
    # a state is (rows, classes): the arcs among the processed prefix and,
    # with colours, the class masks of a colours-dicolouring of the prefix
    states: list[tuple[tuple[int, ...], tuple[int, ...] | None]] = [
        ((0,) * n, None if colours is None else (0,) * colours)
    ]
    candidates = 0
    irows = [0] * n  # _creates_cycle reads only the placed vertex's in-row
    for t in range(n):
        prefix = (1 << t) - 1
        back = g.rows[t] & prefix
        above = ~((2 << t) - 1)
        # each back-neighbour w's out-degree in the prefix must lie in a
        # window, or the edge wt is forced: below it w -> t, above it t -> w
        window = []
        for w in iter_bits(back):
            fut = (g.rows[w] & above).bit_count()
            deg = (g.rows[w] & prefix).bit_count()
            window.append((w, 1 << w, min_out - fut, deg + fut - min_in))
        fut = (g.rows[t] & above).bit_count()
        lo = min_out - fut  # window of t's own out-degree into the prefix
        hi = back.bit_count() + fut - min_in
        last = t == n - 1
        seen: dict[bytes, tuple[tuple[int, ...], tuple[int, ...] | None]] = {}
        rejected: set[bytes] = set()
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
            base = list(rows)
            for sub in _submasks(back & ~into_t & ~out_of_t):
                mask = out_of_t | sub  # t -> w for w in mask, else w -> t
                if not lo <= mask.bit_count() <= hi:
                    continue
                base[t] = mask
                irows[t] = back & ~mask
                if last:
                    candidates += 1
                    # a colouring of the parent that extends to t settles
                    # a final candidate before any digraph is built
                    if classes is not None:
                        if _extend(classes, base, irows, t) is not None:
                            continue
                    d = Digraph(n, _attach(rows, t, mask, back))
                    if classes is not None:
                        if is_k_dicolourable(d, colours) is not None:
                            continue
                    cert = canonical_cert(d)
                    if cert not in seen:
                        seen[cert] = (d.rows, None)
                    continue
                child = _attach(rows, t, mask, back)
                cert = _mixed_cert(n, child, g, t + 1)
                if cert in seen or cert in rejected:
                    continue
                if classes is not None:
                    child_classes = _extend(classes, base, irows, t)
                    if child_classes is None:
                        pre = Digraph(t + 1, child[: t + 1])
                        col = is_k_dicolourable(pre, colours)
                        if col is None:
                            rejected.add(cert)
                            continue
                        child_classes = _class_masks(col, colours)
                    seen[cert] = (child, child_classes)
                else:
                    seen[cert] = (child, None)
        states = [seen[c] for c in sorted(seen)]
    return [Digraph(n, rows) for rows, _ in states], candidates


def _attach(rows, t, mask, back) -> tuple[int, ...]:
    """rows with vertex t attached: t -> w for w in mask, w -> t for the
    rest of back."""
    child = list(rows)
    child[t] = mask
    bit = 1 << t
    for w in iter_bits(back & ~mask):
        child[w] |= bit
    return tuple(child)


def gen_orientations(g: Graph, min_in: int, min_out: int) -> list[Digraph]:
    """All orientations of g with minimum in/out degrees as given, one per
    isomorphism class, as digraphs on g's own vertex labels."""
    return _orientation_stream(g, min_in, min_out)[0]


def gen_tournaments(n: int) -> list[Digraph]:
    """One tournament per isomorphism class, by vertex extension."""
    if n < 1:
        raise ValueError("order must be positive")
    reps: list[Digraph] = [Digraph(1, (0,))]
    for t in range(1, n):
        seen: dict[bytes, Digraph] = {}
        for tour in reps:
            for mask in range(1 << t):
                child = _extend_tournament(tour, mask)
                cert = canonical_cert(child)
                if cert not in seen:
                    seen[cert] = child
        reps = [seen[c] for c in sorted(seen)]
    return reps


def verify_census_bound(
    n: int,
    k: int,
    jobs: int = 1,
    checkpoint: str | None = None,
) -> tuple[bool, Digraph | None]:
    """Are all tournaments of order n k-dicolourable?  By arc-monotonicity
    this extends to every oriented graph of order n.  Returns (ok,
    counterexample); the counterexample is None when ok.

    The check streams the 2^(n-1) dominance extensions of every tournament
    class of order n-1 (covering all order-n classes, duplicates harmless
    for a universal property) in chunks of 256 parents, which run in
    parallel with jobs > 1 and resume from a checkpoint.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n} k={k}")
    if n == 1:
        return True, None  # no order-0 parent to extend
    parents = gen_tournaments(n - 1)
    chunk_size = 256
    tasks = [
        (i // chunk_size, [d6_encode(t) for t in parents[i : i + chunk_size]], k)
        for i in range(0, len(parents), chunk_size)
    ]
    header = {"kind": "tournament-bound", "n": n, "k": k, "chunks": len(tasks)}
    # records come in chunk order and none is written past a failure, so
    # the first failure is the lowest failing chunk, whatever the jobs
    for rec in checkpointed_map(_bound_record, tasks, "chunk", header, checkpoint, jobs):
        if not rec["ok"]:
            return False, d6_decode(rec["counterexample"])
    return True, None


def _bound_record(args) -> dict:
    """_bound_chunk's verdict as a checkpoint record."""
    idx, ok, counter = _bound_chunk(args)
    rec = {"chunk": idx, "ok": ok}
    if counter:
        rec["counterexample"] = counter
    return rec


@dataclass
class CensusReport:
    n: int
    k: int
    count: int
    min_arcs: int | None
    witnesses: list[str]
    all_dicritical: list[str]
    stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "count": self.count,
            "min_arcs": self.min_arcs,
            "witnesses": self.witnesses,
            "all_dicritical": self.all_dicritical,
            "stats": self.stats,
        }


def _census_graph_task(args) -> dict:
    g6, k = args
    g = underlying_graph(d6_decode(g6))
    # every proper induced subdigraph of a k-dicritical digraph is
    # (k-1)-dicolourable, so prefixes that are not can be dropped
    survivors, candidates = _orientation_stream(g, k - 1, k - 1, colours=k - 1)
    found = []
    for d in survivors:
        if is_dicritical(d, k).is_dicritical:
            found.append(d6_encode(canonical_form(d)))
    return {
        "graph": g6,
        "dicritical": sorted(found),
        "candidates": candidates,
    }


def dicritical_census(
    n: int,
    k: int,
    jobs: int = 1,
    checkpoint: str | None = None,
) -> CensusReport:
    """All k-dicritical oriented graphs of order n.

    Pipeline: graphs of min degree 2(k-1), vertex arboricity filter at k,
    degree bounded orientations, exact dicriticality.  Results are
    independent of the worker count.
    """
    if k < 2:
        raise ValueError("census needs k >= 2")
    t0 = time.perf_counter()
    graphs = gen_graphs(n, 2 * (k - 1))
    kept = [g for g in graphs if arboricity(g) >= k]
    tasks = [(d6_encode(bidirect(g)), k) for g in kept]
    # keep these exact bytes: checkpoints written when the filter was a
    # choice carry "filter", must still resume, and bench/make_reference.py
    # compares against this header
    header = {"kind": "census", "n": n, "k": k, "filter": "vertex"}
    done = {
        res["graph"]: res
        for res in checkpointed_map(
            _census_graph_task, tasks, "graph", header, checkpoint, jobs
        )
    }

    all_dicritical: list[str] = []
    candidates = 0
    for g6, _ in tasks:
        res = done[g6]
        all_dicritical.extend(res["dicritical"])
        candidates += res["candidates"]
    all_dicritical.sort()
    arcs = [d6_decode(s).m for s in all_dicritical]
    min_arcs = min(arcs) if arcs else None
    witnesses = [s for s, m in zip(all_dicritical, arcs) if m == min_arcs]
    return CensusReport(
        n=n,
        k=k,
        count=len(all_dicritical),
        min_arcs=min_arcs,
        witnesses=witnesses,
        all_dicritical=all_dicritical,
        stats={
            "graphs": len(graphs),
            "graphs_after_arboricity": len(kept),
            "orientation_candidates": candidates,
            "seconds": round(time.perf_counter() - t0, 3),
        },
    )


def validate_census(report: CensusReport) -> list[str]:
    """Independent re-verification of a census report; returns a list of
    failure descriptions (empty when everything checks out)."""
    problems = []
    k = report.k
    for s in report.all_dicritical:
        d = d6_decode(s)
        if not is_oriented(d):
            problems.append(f"{s}: not oriented")
        ir = d.in_rows
        if any(
            d.rows[v].bit_count() < k - 1 or ir[v].bit_count() < k - 1
            for v in range(d.n)
        ):
            problems.append(f"{s}: degree bound violated")
        if not is_dicritical(d, k).is_dicritical:
            problems.append(f"{s}: not {k}-dicritical")
        if not gallai_property_check(d, k):
            problems.append(f"{s}: low vertices not a directed cactus")
        if k == 3 and d.n >= 10:
            if d.m < 21:
                problems.append(f"{s}: order >= 10 with fewer than 21 arcs")
            if is_k_diregular(d, 2):
                problems.append(f"{s}: order >= 10 and 2-diregular")
    if report.witnesses:
        arcs = {d6_decode(s).m for s in report.witnesses}
        if arcs != {report.min_arcs}:
            problems.append("witness arc counts disagree with min_arcs")
    return problems
