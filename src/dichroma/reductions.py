"""Compilation of (planar) 3-SAT into 2-dicolourability.

Every compiled instance is its skeleton, the digon compilation of the
formula (clause rings, a named role per vertex and a digon on every
inequality link), with one copy of an inequality gadget spliced onto each
link by _splice, the interiors numbered after the skeleton.  The digon is
the trivial gadget with no interior vertex, so a digon output is its own
skeleton; the oriented gadget, for digon-free outputs, is itself spliced
from two copies of an equality gadget (a 3-dicritical oriented graph minus
one arc forces its endpoints to share a colour).  As in the paper's proof,
the oriented construction is the digon construction with each digon
replaced by a gadget, and solve_reduction decides every output on its
skeleton.  Every gadget is re-verified exhaustively when built, and
instance equivalence is checkable against a brute-force satisfiability
oracle at desk scale.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

from .certify import _verified
from .digraphs import MAX_VERTICES, Digraph, delete_arc, is_oriented
from .formats import d6_decode, read_int
from .solver import (
    _creates_cycle, _static_colourings, is_dicritical, is_k_dicolourable,
)

# the unique 20-arc 3-dicritical oriented graph of order 7 (census output),
# the seed of the oriented inequality gadget
DEFAULT_G3_D6 = "&FKD`qUFHw?"


def default_g3() -> Digraph:
    return d6_decode(DEFAULT_G3_D6)


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("negative variable count")
        for cl in self.clauses:
            if len(cl) != 3:
                raise ValueError(f"clause {cl} does not have exactly 3 literals")
            for lit in cl:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """assignment[i-1] is the value of variable i."""
        return all(
            any(
                (lit > 0) == assignment[abs(lit) - 1]
                for lit in cl
            )
            for cl in self.clauses
        )

    def brute_force_satisfiable(self) -> list[bool] | None:
        if self.num_vars > 20:
            raise ValueError("brute-force oracle capped at 20 variables")
        for bits in range(1 << self.num_vars):
            assignment = [bool(bits >> i & 1) for i in range(self.num_vars)]
            if self.evaluate(assignment):
                return assignment
        return None

    @classmethod
    def from_dimacs(cls, text: str) -> "CnfFormula":
        """Parse DIMACS CNF: one 'p cnf VARS CLAUSES' header before any
        literal, 'c' comment lines, and 0-terminated clauses of three
        literals; formats.read_int reads every integer, a literal's with
        an optional leading '-' before a nonzero value."""
        num_vars = num_clauses = None
        lits: list[int] = []
        clauses: list[tuple[int, int, int]] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                if num_vars is not None:
                    raise ValueError(f"second DIMACS header {line!r}")
                parts = line.split()
                try:  # other than two counts fails to unpack, a ValueError too
                    num_vars, num_clauses = map(
                        read_int, parts[2:] if parts[1:2] == ["cnf"] else [])
                except ValueError:
                    raise ValueError(f"bad DIMACS header {line!r}") from None
                continue
            if num_vars is None:
                raise ValueError(f"clause line {line!r} before the DIMACS header")
            for tok in line.split():
                try:
                    lit = read_int(tok, negative=True)
                except ValueError:
                    raise ValueError(f"bad DIMACS literal {tok!r} in line "
                                     f"{line!r}") from None
                if lit == 0:
                    if len(lits) != 3:
                        raise ValueError(
                            f"clause {tuple(lits)} does not have 3 literals"
                        )
                    clauses.append((lits[0], lits[1], lits[2]))
                    lits = []
                else:
                    lits.append(lit)
        if lits:
            raise ValueError("trailing literals without terminating 0")
        if num_vars is None:
            raise ValueError("missing DIMACS header")
        if num_clauses != len(clauses):
            raise ValueError(
                f"header announces {num_clauses} clauses, found {len(clauses)}"
            )
        return cls(num_vars=num_vars, clauses=tuple(clauses))


def _vname(i: int) -> str:
    return f"v{i}"


def _cname(j: int) -> str:
    return f"c{j}"


def _reach(adj: dict[str, set[str]], start: str) -> set[str]:
    """The vertices that a walk along adj reaches from start."""
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()] - seen:
            seen.add(y)
            stack.append(y)
    return seen


@dataclass(frozen=True)
class PlanarIncidenceEmbedding:
    """Faces of the plane-embedded incidence graph as cyclic walks over
    vertex names v<i> (variables, 1-based) and c<j> (clauses, 0-based).
    A 2-cell embedding is its facial walks, so the faces around each
    clause are not given but read off its corners by validate."""

    faces: tuple[tuple[str, ...], ...]

    def validate(self, phi: CnfFormula) -> tuple[tuple[int, int, int], ...]:
        """Each clause's faces in literal order, the faces of its corners
        between its first and second, second and third, and third and first
        variables; ValueError unless the faces form a sphere: every edge
        lies on two face sides, the corners at each vertex close into one
        cycle (so the faces glue into a closed surface) and the face count
        meets Euler's formula for the sphere.  A clause vertex then has
        three corners, and as they close into one cycle through its three
        distinct neighbours, each pair of them is one corner, on one face.
        """
        names = {_vname(i) for i in range(1, phi.num_vars + 1)}
        names |= {_cname(j) for j in range(len(phi.clauses))}
        adj: dict[str, set[str]] = {nm: set() for nm in names}
        cvars: list[tuple[str, ...]] = []
        for j, cl in enumerate(phi.clauses):
            vs = tuple(_vname(abs(lit)) for lit in cl)
            if len(set(vs)) != 3:
                raise ValueError(
                    f"clause {j} repeats a variable; planar wiring "
                    "needs three distinct variables per clause"
                )
            cvars.append(vs)
            adj[_cname(j)].update(vs)
            for v in vs:
                adj[v].add(_cname(j))
        # connected incidence graph required: the forcing walk of the
        # equivalence proof must reach every face vertex
        if names and _reach(adj, min(names)) != names:
            raise ValueError("incidence graph is not connected")
        # the face sides of each edge
        counts = {frozenset((x, y)): 0 for x in names for y in adj[x]}
        euler_faces = 2 - len(names) + len(counts)
        if len(self.faces) != euler_faces:
            raise ValueError(
                f"{len(self.faces)} faces supplied, Euler's formula "
                f"requires {euler_faces}"
            )
        # each corner (prev, x, next) joins prev and next around x, and
        # face_at holds its face
        corners: dict[str, dict[str, set[str]]] = {x: {} for x in names}
        face_at: dict[tuple[str, frozenset[str]], int] = {}
        for f, walk in enumerate(self.faces):
            if not walk:
                raise ValueError("empty face walk")
            for i, x in enumerate(walk):
                if x not in names:
                    raise ValueError(f"unknown vertex {x!r} in face walk")
                prev, nxt = walk[i - 1], walk[(i + 1) % len(walk)]
                e = frozenset((x, nxt))
                if e not in counts:
                    raise ValueError(
                        f"face walk uses non-edge {sorted(e)} of the "
                        "incidence graph"
                    )
                counts[e] += 1
                corners[x].setdefault(prev, set()).add(nxt)
                corners[x].setdefault(nxt, set()).add(prev)
                face_at[x, frozenset((prev, nxt))] = f
        bad = {tuple(sorted(e)) for e, c in counts.items() if c != 2}
        if bad:
            raise ValueError(f"edges not on exactly two face sides: {sorted(bad)}")
        # as every edge lies on two face sides, the corners at x form cycles
        # through x's neighbours, and on a surface they form exactly one
        for x in sorted(names):
            if adj[x] and _reach(corners[x], min(adj[x])) != adj[x]:
                raise ValueError(
                    f"the face corners at {x} do not close into one cycle, "
                    "so the faces do not form a sphere"
                )
        return tuple(
            tuple(face_at[_cname(j), frozenset(pair)]
                  for pair in ((a, b), (b, c), (c, a)))
            for j, (a, b, c) in enumerate(cvars)
        )

    @classmethod
    def from_json(cls, obj: dict) -> "PlanarIncidenceEmbedding":
        """The embedding of a JSON object's "faces"; other keys are ignored."""
        try:
            walks = obj["faces"]
            if not isinstance(walks, list):
                raise TypeError(f"faces must be a JSON list, got {type(walks).__name__}")
            for w in walks:
                if not isinstance(w, list):
                    raise TypeError(f"a face walk must be a JSON list, "
                                    f"got {type(w).__name__}")
                if not all(isinstance(x, str) for x in w):
                    raise TypeError("face walks must list vertex names")
            return cls(faces=tuple(map(tuple, walks)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed embedding JSON: {exc!r}") from None


@dataclass(frozen=True)
class Gadget:
    """A digraph whose marked endpoints u, w agree (equality gadget: a
    3-dicritical oriented graph minus its arc u->w) or differ (inequality
    gadget) in every 2-dicolouring.  extensions holds one full
    2-dicolouring per endpoint pattern, for lifting skeleton colourings
    into gadget interiors; arcs holds the digraph's arcs, listed once for
    every copy _splice installs."""

    digraph: Digraph
    u: int
    w: int
    extensions: dict[tuple[int, int], tuple[int, ...]]
    arcs: tuple[tuple[int, int], ...]


def _gadget(d: Digraph, u: int, w: int, want: set[tuple[int, int]],
            forcing: str) -> Gadget:
    """d with endpoints u, w and, per colour pattern on (u, w), the first
    2-dicolouring of d in lexicographic order; the patterns that occur must
    be exactly want.  In that order come the partitions of
    _static_colourings, coloured 1 and 2 (vertex 0 takes 1), then their
    colour swaps in reverse order."""
    walk = _static_colourings(d.rows, d.in_rows, d.n, 2, _creates_cycle)
    cols = [tuple(col) for col in walk]
    found: dict[tuple[int, int], tuple[int, ...]] = {}
    for col in cols + [tuple(3 - c for c in col) for col in reversed(cols)]:
        found.setdefault((col[u], col[w]), col)
    if set(found) != want:
        raise RuntimeError(
            f"gadget endpoints admit patterns {sorted(found)}; "
            f"{forcing} forcing failed"
        )
    return Gadget(digraph=d, u=u, w=w, extensions=found, arcs=tuple(d.arcs()))


def _splice(arcs: list[tuple[int, int]], n: int, gadget: Gadget,
            x: int, y: int) -> tuple[int, ...]:
    """Install a fresh copy of gadget from x to y: its endpoints become x
    and y, its interior vertices n, n+1, ... in ascending gadget order, and
    its arcs are appended to arcs.  Returns the map gadget vertex -> vertex."""
    fresh = itertools.count(n)
    copy = tuple(
        x if t == gadget.u else y if t == gadget.w else next(fresh)
        for t in range(gadget.digraph.n)
    )
    arcs.extend((copy[p], copy[q]) for p, q in gadget.arcs)
    return copy


def make_eq_gadget(g3: Digraph, arc: tuple[int, int]) -> Gadget:
    u, w = arc
    if not g3.has_arc(u, w):
        raise ValueError(f"({u},{w}) is not an arc of the seed digraph")
    if not is_dicritical(g3, 3).is_dicritical:
        raise ValueError("equality gadget seed must be 3-dicritical")
    return _gadget(delete_arc(g3, u, w), u, w, {(1, 1), (2, 2)}, "equality")


# the trivial inequality gadget, with no interior vertex
DIGON = _gadget(Digraph.from_arcs(2, [(0, 1), (1, 0)]), 0, 1,
                {(1, 2), (2, 1)}, "inequality")


def make_neq_gadget(eq: Gadget) -> Gadget:
    """u, v1, v2, w with the directed triangle v1->v2->w->v1 and equality
    gadgets splicing u to v1 and u to v2; endpoints u, w then disagree in
    every 2-dicolouring, without any digon."""
    n, arcs = 4, [(1, 2), (2, 3), (3, 1)]
    for target in (1, 2):
        _splice(arcs, n, eq, 0, target)
        n += eq.digraph.n - 2
    d = Digraph.from_arcs(n, arcs)
    if not is_oriented(d):
        raise RuntimeError("inequality gadget contains a digon")
    return _gadget(d, 0, 3, {(1, 2), (2, 1)}, "inequality")


@functools.cache
def default_gadgets() -> tuple[Gadget, Gadget]:
    """The equality gadget of the default seed minus its least arc and the
    oriented inequality gadget spliced from it, built and verified once per
    process, on first use."""
    g3 = default_g3()
    eq = make_eq_gadget(g3, min(g3.arcs()))
    return eq, make_neq_gadget(eq)


@dataclass(frozen=True)
class ReductionOutput:
    digraph: Digraph
    roles: dict[str, int]
    mode: str
    formula: CnfFormula
    gadget: Gadget
    # per inequality link, the map gadget vertex -> output vertex
    gadget_copies: tuple[tuple[int, ...], ...]
    # the digon compilation: the output's first skeleton.n vertices, each
    # a role, with the clause rings and a digon on every link
    skeleton: Digraph

    def to_json(self) -> dict:
        """The report's fields but the digraph, which its reader renders in
        the format it wants (formats.dump_digraph)."""
        return {
            "mode": self.mode,
            "n": self.digraph.n,
            "m": self.digraph.m,
            "roles": self.roles,
        }


def _compile(phi: CnfFormula, embedding: PlanarIncidenceEmbedding | None,
             gadget: Gadget) -> ReductionOutput:
    """The digon compilation of phi as the skeleton, then one copy of the
    gadget per inequality link, the interiors numbered after the skeleton
    in link order."""
    # a role per variable and face, per clause a ring and its t, and a bar
    # per positive literal; a gadget interior per link, nine per clause and
    # one per bar
    bars = sum(lit > 0 for clause in phi.clauses for lit in clause)
    faces = 1 if embedding is None else len(embedding.faces)
    links = 9 * len(phi.clauses) + bars
    order = (phi.num_vars + faces + 7 * len(phi.clauses) + bars
             + links * (gadget.digraph.n - 2))
    if order > MAX_VERTICES:
        raise ValueError(
            f"the output would have {order} vertices, over MAX_VERTICES = "
            f"{MAX_VERTICES}"
        )
    roles: dict[str, int] = {}

    def add(role: str) -> int:
        return roles.setdefault(role, len(roles))

    var_vertex = {i: add(f"var{i}") for i in range(1, phi.num_vars + 1)}
    if embedding is not None:
        clause_faces = embedding.validate(phi)
        face_vertex = [add(f"F{f}") for f in range(len(embedding.faces))]
    else:
        # the hub is the one face of every clause
        face_vertex = [add("hub")]
        clause_faces = ((0, 0, 0),) * len(phi.clauses)
    arcs: list[tuple[int, int]] = []
    links: list[tuple[int, int]] = []
    for j, clause in enumerate(phi.clauses):
        ring = [add(f"C{j}:{r}") for r in "xuyvzw"]
        arcs.extend(zip(ring, ring[1:] + ring[:1]))
        tc = add(f"C{j}:t")
        seps = ring[1::2]  # u, v, w
        links += [(tc, s) for s in seps]
        links += [(face_vertex[f], s) for f, s in zip(clause_faces[j], seps)]
        for pos, attach, lit in zip("xyz", ring[::2], clause):
            a = var_vertex[abs(lit)]
            if lit < 0:
                links.append((a, attach))
            else:
                bar = add(f"C{j}:{pos}bar")
                links += [(bar, a), (bar, attach)]
    n = len(roles)
    skeleton_arcs = list(arcs)
    copies = []
    for x, y in links:
        _splice(skeleton_arcs, n, DIGON, x, y)
        copies.append(_splice(arcs, n, gadget, x, y))
        n += gadget.digraph.n - 2
    kind = "digon" if gadget is DIGON else "oriented"
    return ReductionOutput(
        digraph=Digraph.from_arcs(n, arcs),
        roles=roles,
        mode=f"{kind}-{'hub' if embedding is None else 'planar'}",
        formula=phi,
        gadget=gadget,
        gadget_copies=tuple(copies),
        skeleton=Digraph.from_arcs(len(roles), skeleton_arcs),
    )


def reduce_digon(
    phi: CnfFormula,
    embedding: PlanarIncidenceEmbedding | None = None,
) -> ReductionOutput:
    """Digon-link compilation: satisfiable iff the output is 2-dicolourable.
    With an embedding the output is planar (one t_F per face); without one,
    a single hub stands in for all the face vertices.  The output is its
    own skeleton."""
    return _compile(phi, embedding, DIGON)


def reduce_oriented(
    phi: CnfFormula,
    embedding: PlanarIncidenceEmbedding | None = None,
) -> ReductionOutput:
    """Digon-free compilation: every inequality link becomes a fresh copy of
    the oriented gadget built from the default seed minus its least arc.
    The first vertices and the roles are reduce_digon's, and each copy's
    interior follows them.  The seed is not planar, so neither is the
    output."""
    return _compile(phi, embedding, default_gadgets()[1])


def decode_assignment(
    output: ReductionOutput, colouring: Sequence[int]
) -> list[bool]:
    """Read a satisfying assignment off a 2-dicolouring: the forcing
    component pins every t vertex to one colour, and a variable is true
    exactly when it shares that reference colour."""
    phi = output.formula
    if not phi.clauses:
        return [True] * phi.num_vars
    ref = colouring[output.roles["C0:t"]]
    return [
        colouring[output.roles[f"var{i}"]] == ref
        for i in range(1, phi.num_vars + 1)
    ]


def solve_reduction(output: ReductionOutput) -> list[int] | None:
    """Decide 2-dicolourability of a compiled instance on the skeleton it
    carries, its digon compilation, which for a digon output is the output
    itself: gadget interiors multiply the search space without changing the
    answer, since every copy forces its endpoints apart and supports both
    endpoint patterns (checked exhaustively when the gadget was built).  The
    skeleton colouring is lifted through the gadget copies and re-checked on
    the actual output, so the positive answer never rests on that argument.
    """
    col = is_k_dicolourable(output.skeleton, 2)
    if col is None:
        return None
    full = col + [0] * (output.digraph.n - output.skeleton.n)
    g = output.gadget
    for copy in output.gadget_copies:
        # each extension agrees with its own endpoint pattern
        ext = g.extensions[full[copy[g.u]], full[copy[g.w]]]
        for v, colour in zip(copy, ext):
            full[v] = colour
    return _verified(output.digraph, full, 2)


def verify_equivalence(output: ReductionOutput) -> bool:
    """Brute-force satisfiability of the compiled formula against solver
    2-dicolourability, plus decode checking on the satisfiable side
    (solve_reduction has already checked the colouring itself)."""
    sat = output.formula.brute_force_satisfiable()
    col = solve_reduction(output)
    if (sat is not None) != (col is not None):
        return False
    return col is None or output.formula.evaluate(decode_assignment(output, col))


def single_face_embedding(phi: CnfFormula) -> PlanarIncidenceEmbedding:
    """The one-face embedding of a tree-shaped incidence graph, e.g. a
    single clause on three distinct variables (a claw): the walk traverses
    every edge twice."""
    if len(phi.clauses) != 1:
        raise ValueError("only single-clause formulas supported here")
    a, b, c = (abs(lit) for lit in phi.clauses[0])
    cj = _cname(0)
    walk = (_vname(a), cj, _vname(b), cj, _vname(c), cj)
    return PlanarIncidenceEmbedding(faces=(walk,))
