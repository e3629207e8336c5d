"""Independent brute-force oracles used to cross-check the library.

Everything here recomputes from first principles: no solver, canonical-form,
or generator code is reused beyond the plain data types.
"""

from __future__ import annotations

import itertools
import random

from dichroma.digraphs import Digraph, Graph


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


def is_forest(g: Graph, verts) -> bool:
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


def brute_max_induced_forest(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        verts = [v for v in range(g.n) if mask >> v & 1]
        if len(verts) > best and is_forest(g, verts):
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


def dicolouring_cnf(d: Digraph, k: int) -> tuple[int, list[list[int]]]:
    """CNF satisfiable iff d is k-dicolourable.

    Variables x(v,c) = 1 + v*k + c ("v gets colour c") and order variables
    y(u,v) for u < v ("u before v"); a monochromatic arc forces its tail
    before its head, and transitivity of the order forbids monochromatic
    cycles.
    """
    n = d.n
    nx = n * k

    def x(v, c):
        return 1 + v * k + c

    pair_index = {}
    nxt = nx + 1
    for u in range(n):
        for v in range(u + 1, n):
            pair_index[(u, v)] = nxt
            nxt += 1

    def before(u, v):
        # literal meaning "u precedes v"
        if u < v:
            return pair_index[(u, v)]
        return -pair_index[(v, u)]

    clauses: list[list[int]] = []
    for v in range(n):
        clauses.append([x(v, c) for c in range(k)])
    for u, v in d.arcs():
        for c in range(k):
            clauses.append([-x(u, c), -x(v, c), before(u, v)])
    for a, b, c in itertools.combinations(range(n), 3):
        for p, q, r in itertools.permutations((a, b, c)):
            clauses.append([-before(p, q), -before(q, r), before(p, r)])
    return nxt - 1, clauses


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
            kinds += ["dicycle", "bidcycle", "clique"]
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
    return Digraph.from_arcs(n, arcs)
