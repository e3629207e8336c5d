"""Block decompositions and the structural classes built from them:
cacti, directed cacti and directed Gallai forests.  A directed cactus is an
oriented directed Gallai forest, since the two bidirected block kinds need
digons.

A graph is a symmetric digraph.  The functions on graphs (block_decomposition,
is_cactus, cactus_edge_bound, cactus_induced_forest) read a digraph's
underlying rows, so any digraph gets its underlying graph's answer."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .certify import _mask_acyclic
from .digraphs import (
    Digraph,
    bidirect,
    induced,
    is_oriented,
    iter_bits,
    mask_of,
)

SINGLE_EDGE = "single-edge"
DIRECTED_CYCLE = "directed-cycle"
BIDIRECTED_ODD_CYCLE = "bidirected-odd-cycle"
BIDIRECTED_CLIQUE = "bidirected-clique"
OTHER = "other"


@dataclass(frozen=True)
class BlockDecomposition:
    n: int
    blocks: tuple[tuple[int, ...], ...]
    block_edges: tuple[tuple[tuple[int, int], ...], ...]
    entries: tuple[int, ...]
    cut_vertices: frozenset[int]
    isolated: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "blocks": [list(b) for b in self.blocks],
            "cut_vertices": sorted(self.cut_vertices),
            "isolated": list(self.isolated),
        }


def block_decomposition(g: Digraph) -> BlockDecomposition:
    """g's blocks, computed by _lowpoint_blocks the first time they are
    asked for and kept on g, as its in-rows are, so the recognisers and
    cactus bounds that read one digraph share one decomposition."""
    if g._blocks is None:
        g._blocks = _lowpoint_blocks(g)
    return g._blocks


def _lowpoint_blocks(g: Digraph) -> BlockDecomposition:
    """Biconnected components via an iterative lowpoint search with an edge
    stack, started at each component's least vertex.  A block closes at its
    entry, its vertex nearest that least vertex, and only after every block
    that hangs below it, so blocks come children-first.  Isolated vertices
    form no block and are listed separately.  A vertex is a cut vertex
    exactly when it lies in two or more blocks."""
    n = g.n
    adj = [list(iter_bits(r)) for r in g.underlying_rows]
    visited = [False] * n
    disc = [0] * n
    low = [0] * n
    timer = 1
    edge_stack: list[tuple[int, int]] = []
    blocks_edges: list[list[tuple[int, int]]] = []
    entries: list[int] = []
    isolated = tuple(v for v in range(n) if not adj[v])

    for s in range(n):
        if visited[s] or not adj[s]:
            continue
        visited[s] = True
        disc[s] = low[s] = timer
        timer += 1
        stack = [(s, -1, iter(adj[s]))]
        while stack:
            v, parent, it = stack[-1]
            descended = False
            for w in it:
                if w == parent:
                    continue
                if not visited[w]:
                    edge_stack.append((v, w))
                    visited[w] = True
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(adj[w])))
                    descended = True
                    break
                if disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if descended:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    blk: list[tuple[int, int]] = []
                    while edge_stack:
                        e = edge_stack.pop()
                        blk.append(e)
                        if e == (u, v):
                            break
                    blocks_edges.append(blk)
                    entries.append(u)

    blocks = []
    bedges = []
    for blk in blocks_edges:
        verts = sorted({x for e in blk for x in e})
        blocks.append(tuple(verts))
        bedges.append(tuple(sorted((min(u, w), max(u, w)) for u, w in blk)))
    in_blocks = Counter(v for b in blocks for v in b)
    return BlockDecomposition(
        n=n,
        blocks=tuple(blocks),
        block_edges=tuple(bedges),
        entries=tuple(entries),
        cut_vertices=frozenset(v for v, c in in_blocks.items() if c > 1),
        isolated=isolated,
    )


def _block_kind(d: Digraph, verts: Sequence[int], edges: Sequence[tuple[int, int]]) -> str:
    """Decided by how many of the block's edges are digons: all (a clique or
    an odd cycle), none (a single arc or a directed cycle) or some."""
    nv, ne = len(verts), len(edges)
    digons = sum(d.has_arc(u, v) and d.has_arc(v, u) for u, v in edges)
    if digons == ne:
        if ne == nv * (nv - 1) // 2:
            return BIDIRECTED_CLIQUE
        if ne == nv and nv % 2:
            return BIDIRECTED_ODD_CYCLE
    elif not digons:
        if ne == 1:
            return SINGLE_EDGE
        vset = mask_of(verts)
        if ne == nv and all((d.rows[v] & vset).bit_count() == 1 for v in verts):
            return DIRECTED_CYCLE
    return OTHER


def classify_blocks(d: Digraph) -> list[str]:
    dec = block_decomposition(d)
    return [
        _block_kind(d, verts, edges)
        for verts, edges in zip(dec.blocks, dec.block_edges)
    ]


def decomposition_report(d: Digraph) -> dict:
    report = block_decomposition(d).to_json()
    report["kinds"] = classify_blocks(d)
    return report


def _cactus_decomposition(g: Digraph) -> BlockDecomposition | None:
    """g's block decomposition if every block is a single edge or a cycle."""
    dec = block_decomposition(g)
    if all(
        len(edges) == 1 or len(edges) == len(verts)
        for verts, edges in zip(dec.blocks, dec.block_edges)
    ):
        return dec
    return None


def is_cactus(g: Digraph) -> bool:
    """Every block is a single edge or a cycle."""
    return _cactus_decomposition(g) is not None


def is_directed_cactus(d: Digraph) -> bool:
    """Oriented, with every block a single arc or a directed cycle: an
    oriented directed Gallai forest."""
    return is_oriented(d) and is_directed_gallai_forest(d)


def is_directed_gallai_forest(d: Digraph) -> bool:
    """Every block is a single arc, a directed cycle, a bidirected odd cycle
    or a bidirected clique (a digon counts as bidirected K_2)."""
    return OTHER not in classify_blocks(d)


def _require_cactus(g: Digraph) -> BlockDecomposition:
    dec = _cactus_decomposition(g)
    if dec is None:
        raise ValueError("input is not a cactus")
    return dec


def cactus_edge_bound(g: Digraph) -> tuple[int, Fraction, bool]:
    """(m, 3/2 max(n-1, 0), tight), m the number of edges.  Tight exactly
    when g is connected and every block is a triangle; the empty graph's
    bound is 0, and it is tight."""
    m = sum(len(edges) for edges in _require_cactus(g).block_edges)
    bound = Fraction(3, 2) * max(g.n - 1, 0)
    return m, bound, Fraction(m) == bound


def cactus_induced_forest(g: Digraph) -> list[int]:
    """A maximum induced forest of a cactus, which always reaches the
    ceil(2n/3) guarantee.

    In a cactus the cycles are exactly the cycle blocks, so a maximum
    induced forest drops a least vertex set that meets every cycle block.
    Take the cycle blocks in the children-first order of
    block_decomposition, and drop the entry of each block that no dropped
    vertex meets yet.  This is exact by exchange: besides this block, any
    other vertex of it lies only in blocks that hang below it.  They closed
    before it, so they were met before, and the entry meets every block
    still unmet that the other vertex would.
    """
    dec = _require_cactus(g)
    rows = g.underlying_rows
    dropped = 0
    for entry, verts, edges in zip(dec.entries, dec.blocks, dec.block_edges):
        if len(edges) > 1 and not dropped & mask_of(verts):
            dropped |= 1 << entry
    kept = [v for v in range(g.n) if not dropped >> v & 1]
    need = -(-2 * g.n // 3)
    if len(kept) < need:
        raise RuntimeError("induced forest below the cactus guarantee")
    if not _mask_acyclic(rows, rows, ((1 << g.n) - 1) & ~dropped, 1):
        raise RuntimeError("induced forest check failed: the kept set has a cycle")
    return kept


def low_vertices(d: Digraph, k: int) -> list[int]:
    """Vertices with in- and out-degree exactly k-1."""
    ir = d.in_rows
    return [
        v
        for v in range(d.n)
        if d.rows[v].bit_count() == k - 1 and ir[v].bit_count() == k - 1
    ]


def gallai_property_check(d: Digraph, k: int) -> bool:
    """Do the low vertices induce a directed Gallai forest?  On oriented
    input that is a directed cactus."""
    return is_directed_gallai_forest(induced(d, low_vertices(d, k)))


# -- seeded generator for property harnesses ------------------------------


def random_cactus(order: int, seed: int) -> Digraph:
    """Connected random cactus of the exact requested order: grow by
    attaching an edge (probability 1/2) or a cycle of length 3..6 at a
    uniformly random existing vertex."""
    if order < 1:
        raise ValueError("order must be positive")
    rng = random.Random(seed)
    n = 1
    edges: list[tuple[int, int]] = []
    while n < order:
        attach = rng.randrange(n)
        clen = rng.randint(3, 6)
        if rng.random() < 0.5 or order - n < 2:
            edges.append((attach, n))
            n += 1
            continue
        clen = min(clen, order - n + 1)
        cyc = [attach] + list(range(n, n + clen - 1))
        for i in range(clen):
            edges.append((cyc[i], cyc[(i + 1) % clen]))
        n += clen - 1
    return bidirect(Digraph.from_arcs(n, edges))
