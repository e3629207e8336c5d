"""Core digraph and graph types.

Dense bitset representation: adjacency is a tuple of Python ints, one row per
vertex, bit j of row u set iff the arc (u, v=j) is present.  This keeps every
hot operation (degree, induced subdigraph, cycle search) a handful of integer
ops, and Python's big ints remove any word-size ceiling.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

# Hard cap on vertex count.  The combinatorial targets all fit in <= 22
# vertices; SAT reduction outputs are the only large instances and stay far
# below this.
MAX_VERTICES = 4096


def iter_bits(x: int) -> Iterator[int]:
    """Yield the indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Digraph:
    """Immutable digraph on vertices 0..n-1 (no loops, no parallel arcs).

    A digon (pair of opposite arcs) is two arcs; an oriented graph is a
    digraph with no digon.
    """

    __slots__ = ("n", "rows", "m", "_irows", "_urows")

    def __init__(self, n: int, rows: Sequence[int]):
        self.n = n
        self.rows = tuple(rows)
        self.m = sum(r.bit_count() for r in self.rows)
        self._irows: tuple[int, ...] | None = None
        self._urows: tuple[int, ...] | None = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_arcs(n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
        rows = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
        return Digraph(n, rows)

    # -- basic queries ----------------------------------------------------

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def out_degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.in_rows[v].bit_count()

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.rows[u]
            for v in iter_bits(row):
                yield (u, v)

    @property
    def in_rows(self) -> tuple[int, ...]:
        if self._irows is None:
            irows = [0] * self.n
            for u in range(self.n):
                for v in iter_bits(self.rows[u]):
                    irows[v] |= 1 << u
            self._irows = tuple(irows)
        return self._irows

    @property
    def underlying_rows(self) -> tuple[int, ...]:
        """Adjacency of the underlying undirected graph (arc union)."""
        if self._urows is None:
            ir = self.in_rows
            self._urows = tuple(self.rows[v] | ir[v] for v in range(self.n))
        return self._urows

    @property
    def digon_rows(self) -> tuple[int, ...]:
        ir = self.in_rows
        return tuple(self.rows[v] & ir[v] for v in range(self.n))

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"

    def relabel(self, perm: Sequence[int]) -> "Digraph":
        """Image under the permutation old-label -> perm[old-label]."""
        rows = [0] * self.n
        for u in range(self.n):
            r = 0
            for v in iter_bits(self.rows[u]):
                r |= 1 << perm[v]
            rows[perm[u]] = r
        return Digraph(self.n, rows)


class Graph:
    """Immutable simple undirected graph, same bitset layout as Digraph."""

    __slots__ = ("n", "rows", "m")

    def __init__(self, n: int, rows: Sequence[int]):
        self.n = n
        self.rows = tuple(rows)
        self.m = sum(r.bit_count() for r in self.rows) // 2

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, rows)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.rows[u] >> u << u):
                if v > u:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def relabel(self, perm: Sequence[int]) -> "Graph":
        rows = [0] * self.n
        for u in range(self.n):
            r = 0
            for v in iter_bits(self.rows[u]):
                r |= 1 << perm[v]
            rows[perm[u]] = r
        return Graph(self.n, rows)


# -- constructors ---------------------------------------------------------


def build_digraph(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    return Digraph.from_arcs(n, arcs)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    return Graph.from_edges(n, edges)


def circulant_tournament(n: int, diffs: Iterable[int]) -> Digraph:
    """Tournament on Z_n with arcs v -> v+d (mod n) for each difference d.

    Requires odd n and a difference set containing exactly one of {d, n-d}
    for every d, so that every unordered pair carries exactly one arc.
    """
    diffs = sorted(set(diffs))
    if n < 1 or n % 2 == 0:
        raise ValueError(f"circulant tournament needs odd order, got n={n}")
    for d in diffs:
        if not 1 <= d <= n - 1:
            raise ValueError(f"difference {d} out of range for n={n}")
        if (n - d) in diffs:
            raise ValueError(f"difference set contains both {d} and {n - d}")
    if len(diffs) != (n - 1) // 2:
        raise ValueError("difference set must cover every pair exactly once")
    return Digraph.from_arcs(
        n, [(v, (v + d) % n) for v in range(n) for d in diffs]
    )


def bidirect(g: Graph) -> Digraph:
    """Replace every edge by a digon."""
    return Digraph(g.n, g.rows)


def underlying_graph(d: Digraph) -> Graph:
    return Graph(d.n, d.underlying_rows)


def induced(d: Digraph, vertices: Iterable[int]) -> Digraph:
    """Subdigraph induced by the given vertices, relabelled in sorted order."""
    verts = sorted(set(vertices))
    for v in verts:
        if not 0 <= v < d.n:
            raise ValueError(f"vertex {v} out of range")
    pos = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    msk = mask_of(verts)
    for v in verts:
        r = 0
        for w in iter_bits(d.rows[v] & msk):
            r |= 1 << pos[w]
        rows[pos[v]] = r
    return Digraph(len(verts), rows)


def delete_arc(d: Digraph, u: int, v: int) -> Digraph:
    if not d.has_arc(u, v):
        raise ValueError(f"arc ({u}, {v}) not present")
    rows = list(d.rows)
    rows[u] &= ~(1 << v)
    return Digraph(d.n, rows)


def delete_vertex(d: Digraph, v: int) -> Digraph:
    if not 0 <= v < d.n:
        raise ValueError(f"vertex {v} out of range")
    return induced(d, [u for u in range(d.n) if u != v])


# -- predicates -----------------------------------------------------------


def is_oriented(d: Digraph) -> bool:
    """True iff the digraph has no digon."""
    ir = d.in_rows
    return all((d.rows[v] & ir[v]) == 0 for v in range(d.n))


def has_digon(d: Digraph) -> bool:
    return not is_oriented(d)


def is_k_diregular(d: Digraph, k: int) -> bool:
    ir = d.in_rows
    return all(
        d.rows[v].bit_count() == k and ir[v].bit_count() == k
        for v in range(d.n)
    )
