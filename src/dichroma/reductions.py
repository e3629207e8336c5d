"""Compilation of (planar) 3-SAT into 2-dicolourability.

Two constructions share one clause topology and differ only in the
inequality gadget installed on every link: the digon, the trivial gadget
with no interior vertex, or, for digon-free outputs, an oriented gadget
spliced from copies of an equality gadget (a 3-dicritical oriented graph
minus one arc forces its endpoints to share a colour).  As in the paper's
proof, the oriented construction is the digon construction with each digon
replaced by a gadget.  Every gadget is re-verified exhaustively when built,
and instance equivalence is checkable against a brute-force satisfiability
oracle at desk scale.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .digraphs import Digraph, delete_arc, is_oriented
from .formats import d6_decode, dump_digraph
from .solver import (
    _creates_cycle, _static_colourings, _verified, is_dicritical,
    is_k_dicolourable,
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
        num_vars = None
        num_clauses = None
        lits: list[int] = []
        clauses: list[tuple[int, int, int]] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"bad DIMACS header {line!r}")
                num_vars, num_clauses = int(parts[2]), int(parts[3])
                continue
            for tok in line.split():
                lit = int(tok)
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
        if num_clauses is not None and num_clauses != len(clauses):
            raise ValueError(
                f"header announces {num_clauses} clauses, found {len(clauses)}"
            )
        return cls(num_vars=num_vars, clauses=tuple(clauses))


def _vname(i: int) -> str:
    return f"v{i}"


def _cname(j: int) -> str:
    return f"c{j}"


@dataclass(frozen=True)
class PlanarIncidenceEmbedding:
    """Faces of the plane-embedded incidence graph as cyclic walks over
    vertex names v<i> (variables, 1-based) and c<j> (clauses, 0-based),
    plus the three surrounding faces of each clause in literal order."""

    faces: tuple[tuple[str, ...], ...]
    clause_faces: tuple[tuple[int, int, int], ...]

    def validate(self, phi: CnfFormula) -> None:
        names = {_vname(i) for i in range(1, phi.num_vars + 1)}
        names |= {_cname(j) for j in range(len(phi.clauses))}
        cvars: list[tuple[int, int, int]] = []
        hedges: set[frozenset[str]] = set()
        for j, cl in enumerate(phi.clauses):
            vs = tuple(abs(lit) for lit in cl)
            if len(set(vs)) != 3:
                raise ValueError(
                    f"clause {j} repeats a variable; planar wiring "
                    "needs three distinct variables per clause"
                )
            cvars.append(vs)
            for v in vs:
                hedges.add(frozenset((_vname(v), _cname(j))))
        # connected incidence graph required: the forcing walk of the
        # equivalence proof must reach every face vertex
        adj: dict[str, set[str]] = {nm: set() for nm in names}
        for e in hedges:
            a, b = tuple(e)
            adj[a].add(b)
            adj[b].add(a)
        if names:
            seen = set()
            stack = [next(iter(sorted(names)))]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(adj[x] - seen)
            if seen != names:
                raise ValueError("incidence graph is not connected")
        euler_faces = 2 - len(names) + len(hedges)
        if len(self.faces) != euler_faces:
            raise ValueError(
                f"{len(self.faces)} faces supplied, Euler's formula "
                f"requires {euler_faces}"
            )
        counts: dict[frozenset[str], int] = {e: 0 for e in hedges}
        for walk in self.faces:
            if not walk:
                raise ValueError("empty face walk")
            ln = len(walk)
            for i, x in enumerate(walk):
                if x not in names:
                    raise ValueError(f"unknown vertex {x!r} in face walk")
                e = frozenset((x, walk[(i + 1) % ln]))
                if e not in counts:
                    raise ValueError(
                        f"face walk uses non-edge {sorted(e)} of the "
                        "incidence graph"
                    )
                counts[e] += 1
        bad = {tuple(sorted(e)) for e, c in counts.items() if c != 2}
        if bad:
            raise ValueError(f"edges not on exactly two face sides: {sorted(bad)}")
        if len(self.clause_faces) != len(phi.clauses):
            raise ValueError("need exactly one face triple per clause")

        def on_face(fi: int, a: str, c: str, b: str) -> bool:
            walk = self.faces[fi]
            ln = len(walk)
            for i, x in enumerate(walk):
                if x != c:
                    continue
                prev, nxt = walk[i - 1], walk[(i + 1) % ln]
                if (prev, nxt) in ((a, b), (b, a)):
                    return True
            return False

        for j, (f1, f2, f3) in enumerate(self.clause_faces):
            a, b, c = (_vname(v) for v in cvars[j])
            cj = _cname(j)
            for fi, (p, q) in ((f1, (a, b)), (f2, (b, c)), (f3, (c, a))):
                if not 0 <= fi < len(self.faces):
                    raise ValueError(f"clause {j}: face index {fi} out of range")
                if not on_face(fi, p, cj, q):
                    raise ValueError(
                        f"clause {j}: face {fi} does not pass through "
                        f"({p},{cj},{q})"
                    )

    @classmethod
    def from_json(cls, obj: dict) -> "PlanarIncidenceEmbedding":
        try:
            faces = tuple(tuple(w) for w in obj["faces"])
            if not all(isinstance(x, str) for w in faces for x in w):
                raise TypeError("face walks must list vertex names")
            clause_faces = tuple((a, b, c) for a, b, c in obj["clause_faces"])
            # type(), not isinstance(): a JSON true is not a face index
            if not all(type(x) is int for t in clause_faces for x in t):
                raise TypeError("clause face indices must be integers")
            return cls(faces=faces, clause_faces=clause_faces)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed embedding JSON: {exc!r}") from None


@dataclass(frozen=True)
class EqGadget:
    """A 3-dicritical oriented graph minus one arc: 2-dicolourable, and its
    marked endpoints agree in every 2-dicolouring."""

    digraph: Digraph
    u: int
    v: int


@dataclass(frozen=True)
class NeqGadget:
    digraph: Digraph
    u: int
    w: int
    # one full gadget 2-dicolouring per endpoint pattern, for lifting
    # skeleton colourings into gadget interiors
    extensions: dict[tuple[int, int], tuple[int, ...]]


def _endpoint_patterns(
    d: Digraph, a: int, b: int, want: set[tuple[int, int]], forcing: str
) -> dict[tuple[int, int], tuple[int, ...]]:
    """One 2-dicolouring of d per colour pattern on (a, b), the first in
    lexicographic order; the patterns that occur must be exactly want.
    In that order come the partitions of _static_colourings, coloured 1
    and 2 (vertex 0 takes 1), then their colour swaps in reverse order."""
    walk = _static_colourings(d.rows, d.in_rows, d.n, 2, _creates_cycle)
    cols = [tuple(c + 1 for c in col) for col in walk]
    found: dict[tuple[int, int], tuple[int, ...]] = {}
    for col in cols + [tuple(3 - c for c in col) for col in reversed(cols)]:
        found.setdefault((col[a], col[b]), col)
    if set(found) != want:
        raise RuntimeError(
            f"gadget endpoints admit patterns {sorted(found)}; "
            f"{forcing} forcing failed"
        )
    return found


def make_eq_gadget(g3: Digraph, arc: tuple[int, int]) -> EqGadget:
    u, v = arc
    if not g3.has_arc(u, v):
        raise ValueError(f"({u},{v}) is not an arc of the seed digraph")
    if not is_dicritical(g3, 3).is_dicritical:
        raise ValueError("equality gadget seed must be 3-dicritical")
    gadget = delete_arc(g3, u, v)
    _endpoint_patterns(gadget, u, v, {(1, 1), (2, 2)}, "equality")
    return EqGadget(digraph=gadget, u=u, v=v)


def _neq_gadget(d: Digraph, u: int, w: int) -> NeqGadget:
    patterns = _endpoint_patterns(d, u, w, {(1, 2), (2, 1)}, "inequality")
    return NeqGadget(digraph=d, u=u, w=w, extensions=patterns)


# the trivial inequality gadget, with no interior vertex
DIGON = _neq_gadget(Digraph.from_arcs(2, [(0, 1), (1, 0)]), 0, 1)


def make_neq_gadget(eq: EqGadget) -> NeqGadget:
    """u, v1, v2, w with the directed triangle v1->v2->w->v1 and equality
    gadgets splicing u to v1 and u to v2; endpoints u, w then disagree in
    every 2-dicolouring, without any digon."""
    g = eq.digraph
    n = 4
    arcs: list[tuple[int, int]] = [(1, 2), (2, 3), (3, 1)]
    for target in (1, 2):
        mapping = {eq.u: 0, eq.v: target}
        for x in range(g.n):
            if x not in mapping:
                mapping[x] = n
                n += 1
        arcs.extend((mapping[p], mapping[q]) for p, q in g.arcs())
    d = Digraph.from_arcs(n, arcs)
    if not is_oriented(d):
        raise RuntimeError("inequality gadget contains a digon")
    return _neq_gadget(d, 0, 3)


@functools.cache
def default_gadgets() -> tuple[EqGadget, NeqGadget]:
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
    gadget: NeqGadget
    # per inequality link, the map gadget-local vertex -> output vertex
    gadget_copies: tuple[tuple[int, ...], ...]
    embedding: PlanarIncidenceEmbedding | None = None

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.digraph.n,
            "m": self.digraph.m,
            "digraph": dump_digraph(self.digraph),
            "roles": self.roles,
        }


class _Builder:
    def __init__(self, gadget: NeqGadget):
        self.gadget = gadget
        self.arcs: list[tuple[int, int]] = []
        self.n = 0
        self.roles: dict[str, int] = {}
        self.copies: list[tuple[int, ...]] = []

    def add(self, role: str | None = None) -> int:
        v = self.n
        self.n += 1
        if role is not None:
            self.roles[role] = v
        return v

    def neq(self, x: int, y: int) -> None:
        """Install a fresh copy of the inequality gadget from x to y."""
        g = self.gadget
        mapping = {g.u: x, g.w: y}
        for t in range(g.digraph.n):
            if t not in mapping:
                mapping[t] = self.add()
        self.arcs.extend((mapping[p], mapping[q]) for p, q in g.digraph.arcs())
        self.copies.append(tuple(mapping[t] for t in range(g.digraph.n)))


def _compile(
    phi: CnfFormula,
    embedding: PlanarIncidenceEmbedding | None,
    gadget: NeqGadget,
    kind: str,
) -> ReductionOutput:
    b = _Builder(gadget)
    var_vertex = {i: b.add(f"var{i}") for i in range(1, phi.num_vars + 1)}
    if embedding is not None:
        embedding.validate(phi)
        face_vertex = [b.add(f"F{f}") for f in range(len(embedding.faces))]
        clause_faces = embedding.clause_faces
    else:
        # the hub is the one face of every clause
        face_vertex = [b.add("hub")]
        clause_faces = ((0, 0, 0),) * len(phi.clauses)
    for j, clause in enumerate(phi.clauses):
        ring = [b.add(f"C{j}:{r}") for r in "xuyvzw"]
        xc, uc, yc, vc, zc, wc = ring
        b.arcs.extend(zip(ring, ring[1:] + ring[:1]))
        tc = b.add(f"C{j}:t")
        for sep in (uc, vc, wc):
            b.neq(tc, sep)
        for f, sep in zip(clause_faces[j], (uc, vc, wc)):
            b.neq(face_vertex[f], sep)
        for pos, attach, lit in zip("xyz", (xc, yc, zc), clause):
            a = var_vertex[abs(lit)]
            if lit < 0:
                b.neq(a, attach)
            else:
                bar = b.add(f"C{j}:{pos}bar")
                b.neq(bar, a)
                b.neq(bar, attach)
    return ReductionOutput(
        digraph=Digraph.from_arcs(b.n, b.arcs),
        roles=b.roles,
        mode=f"{kind}-planar" if embedding is not None else f"{kind}-hub",
        formula=phi,
        gadget=gadget,
        gadget_copies=tuple(b.copies),
        embedding=embedding,
    )


def reduce_digon(
    phi: CnfFormula,
    embedding: PlanarIncidenceEmbedding | None = None,
) -> ReductionOutput:
    """Digon-link compilation: satisfiable iff the output is 2-dicolourable.
    With an embedding the output is planar (one t_F per face); without one,
    a single hub stands in for all the face vertices."""
    return _compile(phi, embedding, DIGON, "digon")


def reduce_oriented(
    phi: CnfFormula,
    embedding: PlanarIncidenceEmbedding | None = None,
) -> ReductionOutput:
    """Digon-free compilation: every inequality link becomes a fresh copy of
    the oriented gadget built from the default seed minus its least arc.
    The seed is not planar, so neither is the output."""
    return _compile(phi, embedding, default_gadgets()[1], "oriented")


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
    """Decide 2-dicolourability of a compiled instance.

    Every output is decided on the formula's digon compilation, which for a
    digon output is the output itself: gadget interiors multiply the search
    space without changing the answer, since every copy forces its endpoints
    apart and supports both endpoint patterns (checked exhaustively when the
    gadget was built).  The digon colouring is lifted through the recorded
    copies and re-checked on the actual output, so the positive answer never
    rests on that argument.
    """
    twin = reduce_digon(output.formula, output.embedding)
    tcol = is_k_dicolourable(twin.digraph, 2)
    if tcol is None:
        return None
    full = [0] * output.digraph.n
    for role, v in output.roles.items():
        full[v] = tcol[twin.roles[role]]
    neq = output.gadget
    for copy in output.gadget_copies:
        # each extension agrees with its own endpoint pattern
        ext = neq.extensions[full[copy[neq.u]], full[copy[neq.w]]]
        for v, colour in zip(copy, ext):
            full[v] = colour
    return _verified(output.digraph, full, 2)


def verify_equivalence(phi: CnfFormula, output: ReductionOutput) -> bool:
    """Brute-force satisfiability against solver 2-dicolourability, plus
    decode checking on the satisfiable side (solve_reduction has already
    checked the colouring itself)."""
    sat = phi.brute_force_satisfiable()
    col = solve_reduction(output)
    if (sat is not None) != (col is not None):
        return False
    return col is None or phi.evaluate(decode_assignment(output, col))


def single_face_embedding(phi: CnfFormula) -> PlanarIncidenceEmbedding:
    """The one-face embedding of a tree-shaped incidence graph, e.g. a
    single clause on three distinct variables (a claw): the walk traverses
    every edge twice."""
    if len(phi.clauses) != 1:
        raise ValueError("only single-clause formulas supported here")
    a, b, c = (abs(lit) for lit in phi.clauses[0])
    cj = _cname(0)
    walk = (_vname(a), cj, _vname(b), cj, _vname(c), cj)
    return PlanarIncidenceEmbedding(faces=(walk,), clause_faces=((0, 0, 0),))
