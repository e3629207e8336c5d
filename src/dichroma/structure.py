"""Block decompositions and the structural classes built from them:
cacti, directed cacti and directed Gallai forests."""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .digraphs import Digraph, Graph, build_digraph, build_graph, iter_bits

SINGLE_EDGE = "single-edge"
DIRECTED_CYCLE = "directed-cycle"
BIDIRECTED_ODD_CYCLE = "bidirected-odd-cycle"
BIDIRECTED_CLIQUE = "bidirected-clique"
OTHER = "other"

BLOCK_KINDS = (
    SINGLE_EDGE,
    DIRECTED_CYCLE,
    BIDIRECTED_ODD_CYCLE,
    BIDIRECTED_CLIQUE,
    OTHER,
)


@dataclass(frozen=True)
class BlockDecomposition:
    n: int
    blocks: tuple[tuple[int, ...], ...]
    block_edges: tuple[tuple[tuple[int, int], ...], ...]
    cut_vertices: frozenset[int]
    isolated: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "blocks": [list(b) for b in self.blocks],
            "cut_vertices": sorted(self.cut_vertices),
            "isolated": list(self.isolated),
        }


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Biconnected components via an iterative lowpoint search with an edge
    stack.  Isolated vertices form no block and are listed separately."""
    n = g.n
    adj = [list(iter_bits(g.rows[v])) for v in range(n)]
    visited = [False] * n
    disc = [0] * n
    low = [0] * n
    timer = 1
    edge_stack: list[tuple[int, int]] = []
    blocks_edges: list[list[tuple[int, int]]] = []
    cut: set[int] = set()
    isolated = tuple(v for v in range(n) if not adj[v])

    for s in range(n):
        if visited[s] or not adj[s]:
            continue
        visited[s] = True
        disc[s] = low[s] = timer
        timer += 1
        root_children = 0
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
                    if v == s:
                        root_children += 1
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
                    if u != s:
                        cut.add(u)
                    blk: list[tuple[int, int]] = []
                    while edge_stack:
                        e = edge_stack.pop()
                        blk.append(e)
                        if e == (u, v):
                            break
                    blocks_edges.append(blk)
        if root_children >= 2:
            cut.add(s)

    blocks = []
    bedges = []
    for blk in blocks_edges:
        verts = sorted({x for e in blk for x in e})
        blocks.append(tuple(verts))
        bedges.append(tuple((min(u, w), max(u, w)) for u, w in sorted(
            (min(u, w), max(u, w)) for u, w in blk)))
    return BlockDecomposition(
        n=n,
        blocks=tuple(blocks),
        block_edges=tuple(bedges),
        cut_vertices=frozenset(cut),
        isolated=isolated,
    )


def _block_kind(d: Digraph, verts: Sequence[int], edges: Sequence[tuple[int, int]]) -> str:
    def digon(u, v):
        return d.has_arc(u, v) and d.has_arc(v, u)

    nv, ne = len(verts), len(edges)
    if ne == 1:
        u, v = edges[0]
        return BIDIRECTED_CLIQUE if digon(u, v) else SINGLE_EDGE
    all_digons = all(digon(u, v) for u, v in edges)
    if ne == nv * (nv - 1) // 2 and all_digons:
        return BIDIRECTED_CLIQUE
    if ne == nv:
        if all_digons:
            return BIDIRECTED_ODD_CYCLE if nv % 2 == 1 else OTHER
        vset = 0
        for v in verts:
            vset |= 1 << v
        if all(not digon(u, v) for u, v in edges) and all(
            (d.rows[v] & vset).bit_count() == 1 for v in verts
        ):
            return DIRECTED_CYCLE
        return OTHER
    return OTHER


def classify_blocks(d: Digraph, dec: BlockDecomposition | None = None) -> list[str]:
    from .digraphs import underlying_graph

    if dec is None:
        dec = block_decomposition(underlying_graph(d))
    return [
        _block_kind(d, verts, edges)
        for verts, edges in zip(dec.blocks, dec.block_edges)
    ]


def decomposition_report(d: Digraph) -> dict:
    from .digraphs import underlying_graph

    dec = block_decomposition(underlying_graph(d))
    report = dec.to_json()
    report["kinds"] = classify_blocks(d, dec)
    return report


def _cactus_decomposition(g: Graph) -> BlockDecomposition | None:
    """g's block decomposition if every block is a single edge or a cycle."""
    dec = block_decomposition(g)
    if all(
        len(edges) == 1 or len(edges) == len(verts)
        for verts, edges in zip(dec.blocks, dec.block_edges)
    ):
        return dec
    return None


def is_cactus(g: Graph) -> bool:
    """Every block is a single edge or a cycle."""
    return _cactus_decomposition(g) is not None


def is_directed_cactus(d: Digraph) -> bool:
    """Oriented, with every block a single arc or a directed cycle."""
    from .digraphs import has_digon

    if has_digon(d):
        return False
    return all(
        kind in (SINGLE_EDGE, DIRECTED_CYCLE) for kind in classify_blocks(d)
    )


def is_directed_gallai_forest(d: Digraph) -> bool:
    """Every block is a single arc, a directed cycle, a bidirected odd cycle
    or a bidirected clique (a digon counts as bidirected K_2)."""
    return OTHER not in classify_blocks(d)


def _require_cactus(g: Graph) -> BlockDecomposition:
    dec = _cactus_decomposition(g)
    if dec is None:
        raise ValueError("input is not a cactus")
    return dec


def cactus_edge_bound(g: Graph) -> tuple[int, Fraction, bool]:
    """(m, 3/2(n-1), tight).  Tight exactly when g is connected and every
    block is a triangle."""
    _require_cactus(g)
    bound = Fraction(3, 2) * (g.n - 1)
    return g.m, bound, Fraction(g.m) == bound


def cactus_induced_forest(g: Graph) -> list[int]:
    """A maximum induced forest of a cactus, which always reaches the
    ceil(2n/3) guarantee.

    In a cactus the induced cycles are exactly the cycle blocks, so a vertex
    set induces a forest iff it omits a vertex of every cycle block.  That
    constraint splits over the block forest and yields an exact two-state
    dynamic program (vertex kept or dropped).
    """
    dec = _require_cactus(g)
    kept = list(dec.isolated)
    vblocks: dict[int, list[int]] = defaultdict(list)
    for i, verts in enumerate(dec.blocks):
        for v in verts:
            vblocks[v].append(i)
    block_seen = [False] * len(dec.blocks)
    vertex_seen = set(dec.isolated)

    for root in range(g.n):
        if root in vertex_seen or g.rows[root] == 0:
            continue
        order = []
        child_blocks: dict[int, list[int]] = defaultdict(list)
        block_childv: dict[int, list[int]] = {}
        queue = [root]
        vertex_seen.add(root)
        while queue:
            x = queue.pop(0)
            order.append(x)
            for bi in vblocks[x]:
                if block_seen[bi]:
                    continue
                block_seen[bi] = True
                child_blocks[x].append(bi)
                childs = [w for w in dec.blocks[bi] if w != x]
                block_childv[bi] = childs
                for w in childs:
                    vertex_seen.add(w)
                    queue.append(w)

        fin: dict[int, int] = {}
        fout: dict[int, int] = {}

        def block_gain(bi: int, x_in: bool) -> tuple[int, list[bool]]:
            """Best total over the block's child subtrees and the chosen
            child states; a cycle block with x kept must drop a child."""
            childs = block_childv[bi]
            is_cycle = len(dec.block_edges[bi]) > 1
            choice = [fin[w] >= fout[w] for w in childs]
            total = sum(fin[w] if c else fout[w] for w, c in zip(childs, choice))
            if is_cycle and x_in and all(choice):
                j = min(
                    range(len(childs)),
                    key=lambda i: (fin[childs[i]] - fout[childs[i]], i),
                )
                choice[j] = False
                total -= fin[childs[j]] - fout[childs[j]]
            return total, choice

        for x in reversed(order):
            a, b = 1, 0
            for bi in child_blocks[x]:
                a += block_gain(bi, True)[0]
                b += block_gain(bi, False)[0]
            fin[x] = a
            fout[x] = b

        todo = [(root, fin[root] >= fout[root])]
        while todo:
            x, x_in = todo.pop()
            if x_in:
                kept.append(x)
            for bi in child_blocks[x]:
                _, choice = block_gain(bi, x_in)
                for w, c in zip(block_childv[bi], choice):
                    todo.append((w, c))

    kept.sort()
    need = -(-2 * g.n // 3)
    if len(kept) < need:
        raise AssertionError("induced forest below the cactus guarantee")
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
    """Do the low vertices induce a directed cactus (oriented input) or a
    directed Gallai forest (general input)?"""
    from .digraphs import has_digon, induced

    sub = induced(d, low_vertices(d, k))
    if has_digon(d):
        return is_directed_gallai_forest(sub)
    return is_directed_cactus(sub)


# -- seeded generators for property harnesses -----------------------------


def random_cactus(order: int, seed: int) -> Graph:
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
        if rng.random() < 0.5 or order - n < 2 or order - n + 1 < 3:
            edges.append((attach, n))
            n += 1
            continue
        clen = min(clen, order - n + 1)
        cyc = [attach] + list(range(n, n + clen - 1))
        for i in range(clen):
            edges.append((cyc[i], cyc[(i + 1) % clen]))
        n += clen - 1
    return build_graph(n, edges)


def random_gallai_forest(order: int, k: int, seed: int) -> Digraph:
    """Random directed Gallai forest with total degree at most 2k at every
    vertex and no bidirected clique beyond K_k.  Growth may stop early if
    every vertex runs out of degree budget."""
    if order < 1 or k < 2:
        raise ValueError("need order >= 1 and k >= 2")
    rng = random.Random(seed)
    n = 1
    arcs: list[tuple[int, int]] = []
    deg = [0]
    budget = 2 * k
    while n < order:
        room = order - n
        kinds = ["arc"]
        if room >= 2:
            kinds.append("dicycle")
            if k >= 2:
                kinds.append("bidcycle")
                kinds.append("clique")
        kind = rng.choice(kinds)
        if kind == "arc":
            cost = 1
        elif kind == "dicycle":
            cost = 2
        elif kind == "bidcycle":
            cost = 4
        else:
            size = rng.randint(2, max(2, min(k, room + 1)))
            cost = 2 * (size - 1)
        hosts = [v for v in range(n) if deg[v] + cost <= budget]
        if not hosts:
            hosts = [v for v in range(n) if deg[v] + 1 <= budget]
            if not hosts:
                break
            kind, cost = "arc", 1
        attach = rng.choice(hosts)
        if kind == "arc":
            new = n
            deg.append(1)
            deg[attach] += 1
            arcs.append((attach, new) if rng.random() < 0.5 else (new, attach))
            n += 1
        elif kind == "dicycle":
            clen = min(rng.randint(3, 6), room + 1)
            cyc = [attach] + list(range(n, n + clen - 1))
            for i in range(clen):
                arcs.append((cyc[i], cyc[(i + 1) % clen]))
            deg[attach] += 2
            deg.extend([2] * (clen - 1))
            n += clen - 1
        elif kind == "bidcycle":
            clen = min(rng.choice([3, 5]), room + 1)
            if clen % 2 == 0:
                clen -= 1
            if clen < 3:
                continue
            cyc = [attach] + list(range(n, n + clen - 1))
            for i in range(clen):
                u, w = cyc[i], cyc[(i + 1) % clen]
                arcs.append((u, w))
                arcs.append((w, u))
            deg[attach] += 4
            deg.extend([4] * (clen - 1))
            n += clen - 1
        else:
            size = max(2, min(size, room + 1))
            clique = [attach] + list(range(n, n + size - 1))
            for i, u in enumerate(clique):
                for w in clique[i + 1 :]:
                    arcs.append((u, w))
                    arcs.append((w, u))
            deg[attach] += 2 * (size - 1)
            deg.extend([2 * (size - 1)] * (size - 1))
            n += size - 1
    return build_digraph(n, arcs)


def gallai_density_bound(k: int, n: int) -> Fraction:
    """Arc-count ceiling (k-1+2/k) n for the harnessed Gallai forests."""
    return (Fraction(k - 1) + Fraction(2, k)) * n
