"""Independent brute-force oracles used to cross-check the library.

Everything here recomputes from first principles: no solver, canonical-form,
or generator code is reused beyond the plain data types.
"""

from __future__ import annotations

import itertools

from dichroma.digraphs import Digraph, Graph, induced_graph


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


def brute_list_dicolourable(d: Digraph, lists):
    domains = [sorted(lists[v]) for v in range(d.n)]
    for assign in itertools.product(*domains):
        if colouring_ok(d, assign):
            return list(assign)
    return None


def brute_max_induced_acyclic(d: Digraph) -> int:
    best = 0
    for mask in range(1 << d.n):
        verts = [v for v in range(d.n) if mask >> v & 1]
        if len(verts) > best and kahn_acyclic(d, verts):
            best = len(verts)
    return best


def brute_chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for assign in itertools.product(range(k), repeat=g.n):
            if all(
                assign[u] != assign[v] for u, v in g.edges()
            ):
                return k
    raise AssertionError("unreachable")


def brute_cut_vertices(g: Graph) -> set[int]:
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


def is_forest(g: Graph) -> bool:
    seen: set[int] = set()
    for s in range(g.n):
        if s in seen:
            continue
        stack = [(s, -1)]
        seen.add(s)
        while stack:
            x, parent = stack.pop()
            for w in range(g.n):
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


def brute_max_induced_forest(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        verts = [v for v in range(g.n) if mask >> v & 1]
        if len(verts) > best and is_forest(induced_graph(g, verts)):
            best = len(verts)
    return best


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


def brute_orientation_classes(g: Graph, min_in: int = 0, min_out: int = 0):
    """All orientations of g with degree floors, one per isomorphism class,
    by explicit 2^m enumeration and permutation dedup."""
    edges = list(g.edges())
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
    vertices with the degree floor."""
    pairs = list(itertools.combinations(range(n), 2))
    reps: dict[int, Graph] = {}
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        rows = [0] * n
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        if any(rows[v].bit_count() < min_degree for v in range(n)):
            continue
        key = None
        for perm in itertools.permutations(range(n)):
            code = 0
            for u, v in edges:
                a, b = sorted((perm[u], perm[v]))
                code |= 1 << (a * n + b)
            if key is None or code < key:
                key = code
        reps.setdefault(key, Graph(n, rows))
    return list(reps.values())


def brute_tournament_classes(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    reps: dict[int, Digraph] = {}
    for bits in range(1 << len(pairs)):
        arcs = [
            (u, v) if not bits >> i & 1 else (v, u)
            for i, (u, v) in enumerate(pairs)
        ]
        d = Digraph.from_arcs(n, arcs)
        reps.setdefault(_digraph_class_key(d), d)
    return list(reps.values())


def dpll(num_vars: int, clauses) -> bool:
    """Plain DPLL with unit propagation, for CNF cross-checks."""

    def simplify(clauses, lit):
        out = []
        for cl in clauses:
            if lit in cl:
                continue
            reduced = [x for x in cl if x != -lit]
            if not reduced:
                return None
            out.append(reduced)
        return out

    def solve(clauses) -> bool:
        while True:
            units = [cl[0] for cl in clauses if len(cl) == 1]
            if not units:
                break
            clauses = simplify(clauses, units[0])
            if clauses is None:
                return False
        if not clauses:
            return True
        var = abs(clauses[0][0])
        for lit in (var, -var):
            nxt = simplify(clauses, lit)
            if nxt is not None and solve(nxt):
                return True
        return False

    return solve([list(cl) for cl in clauses])


def random_digraph(rng, n: int, p: float = 0.35) -> Digraph:
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return Digraph.from_arcs(n, arcs)


def random_graph(rng, n: int, p: float = 0.4) -> Graph:
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, rows)
