"""Compilation of (planar) 3-SAT into 2-dicolourability.

Two constructions share one clause topology: a digon serves as the
inequality link, or, for digon-free outputs, an oriented inequality gadget
spliced from copies of an equality gadget (a 3-dicritical oriented graph
minus one arc forces its endpoints to share a colour).  Every gadget is
re-verified exhaustively when built, and instance equivalence is checkable
against a brute-force satisfiability oracle at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .digraphs import Digraph, delete_arc, is_oriented
from .formats import d6_decode, dump_digraph
from .solver import (
    enumerate_dicolourings, is_dicritical, is_k_dicolourable, verify_dicolouring
)

# the unique 20-arc 3-dicritical oriented graph of order 7 (census output),
# default seed for the oriented inequality gadget
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

    def to_json(self) -> dict:
        return {
            "faces": [list(w) for w in self.faces],
            "clause_faces": [list(t) for t in self.clause_faces],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PlanarIncidenceEmbedding":
        try:
            faces = tuple(tuple(w) for w in obj["faces"])
            if not all(isinstance(x, str) for w in faces for x in w):
                raise TypeError("face walks must list vertex names")
            return cls(
                faces=faces,
                clause_faces=tuple(
                    (int(a), int(b), int(c)) for a, b, c in obj["clause_faces"]
                ),
            )
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
    d: Digraph, a: int, b: int
) -> dict[tuple[int, int], tuple[int, ...]]:
    found: dict[tuple[int, int], tuple[int, ...]] = {}
    for col in enumerate_dicolourings(d, 2):
        found.setdefault((col[a], col[b]), tuple(col))
    return found


def make_eq_gadget(g3: Digraph, arc: tuple[int, int]) -> EqGadget:
    u, v = arc
    if not g3.has_arc(u, v):
        raise ValueError(f"({u},{v}) is not an arc of the seed digraph")
    if not is_dicritical(g3, 3).is_dicritical:
        raise ValueError("equality gadget seed must be 3-dicritical")
    gadget = delete_arc(g3, u, v)
    patterns = _endpoint_patterns(gadget, u, v)
    if set(patterns) != {(1, 1), (2, 2)}:
        raise RuntimeError(
            "gadget endpoints admit patterns "
            f"{sorted(patterns)}; equality forcing failed"
        )
    return EqGadget(digraph=gadget, u=u, v=v)


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
    patterns = _endpoint_patterns(d, 0, 3)
    if set(patterns) != {(1, 2), (2, 1)}:
        raise RuntimeError(
            "gadget endpoints admit patterns "
            f"{sorted(patterns)}; inequality forcing failed"
        )
    return NeqGadget(digraph=d, u=0, w=3, extensions=patterns)


@dataclass
class ReductionOutput:
    digraph: Digraph
    roles: dict[str, int]
    mode: str
    formula: CnfFormula
    embedding: PlanarIncidenceEmbedding | None = None
    gadget: NeqGadget | None = None
    # per inequality link, the map gadget-local vertex -> output vertex
    gadget_copies: tuple[tuple[int, ...], ...] = ()

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.digraph.n,
            "m": self.digraph.m,
            "digraph": dump_digraph(self.digraph),
            "roles": self.roles,
        }


class _Builder:
    def __init__(self):
        self.arcs: list[tuple[int, int]] = []
        self.n = 0
        self.roles: dict[str, int] = {}

    def add(self, role: str | None = None) -> int:
        v = self.n
        self.n += 1
        if role is not None:
            self.roles[role] = v
        return v

    def arc(self, u: int, v: int) -> None:
        self.arcs.append((u, v))


def _compile(
    phi: CnfFormula,
    embedding: PlanarIncidenceEmbedding | None,
    install_neq,
    mode: str,
) -> ReductionOutput:
    b = _Builder()
    var_vertex = {i: b.add(f"var{i}") for i in range(1, phi.num_vars + 1)}
    if embedding is not None:
        embedding.validate(phi)
        face_vertex = [b.add(f"F{f}") for f in range(len(embedding.faces))]
    else:
        hub = b.add("hub")
    for j, clause in enumerate(phi.clauses):
        xc = b.add(f"C{j}:x")
        uc = b.add(f"C{j}:u")
        yc = b.add(f"C{j}:y")
        vc = b.add(f"C{j}:v")
        zc = b.add(f"C{j}:z")
        wc = b.add(f"C{j}:w")
        for p, q in ((xc, uc), (uc, yc), (yc, vc), (vc, zc), (zc, wc), (wc, xc)):
            b.arc(p, q)
        tc = b.add(f"C{j}:t")
        for sep in (uc, vc, wc):
            install_neq(b, tc, sep)
        if embedding is not None:
            f1, f2, f3 = embedding.clause_faces[j]
            install_neq(b, face_vertex[f1], uc)
            install_neq(b, face_vertex[f2], vc)
            install_neq(b, face_vertex[f3], wc)
        else:
            install_neq(b, hub, uc)
            install_neq(b, hub, vc)
            install_neq(b, hub, wc)
        for pos, attach, lit in (("x", xc, clause[0]), ("y", yc, clause[1]), ("z", zc, clause[2])):
            a = var_vertex[abs(lit)]
            if lit < 0:
                install_neq(b, a, attach)
            else:
                bar = b.add(f"C{j}:{pos}bar")
                install_neq(b, bar, a)
                install_neq(b, bar, attach)
    d = Digraph.from_arcs(b.n, b.arcs)
    return ReductionOutput(
        digraph=d, roles=b.roles, mode=mode, formula=phi, embedding=embedding
    )


def _digon_neq(b: _Builder, x: int, y: int) -> None:
    b.arc(x, y)
    b.arc(y, x)


def reduce_digon(
    phi: CnfFormula,
    embedding: PlanarIncidenceEmbedding | None = None,
) -> ReductionOutput:
    """Digon-link compilation: satisfiable iff the output is 2-dicolourable.
    With an embedding the output is planar (one t_F per face); without one,
    a single hub stands in for all the face vertices."""
    mode = "digon-planar" if embedding is not None else "digon-hub"
    return _compile(phi, embedding, _digon_neq, mode)


def reduce_oriented(
    phi: CnfFormula,
    g3: Digraph | None = None,
    arc: tuple[int, int] | None = None,
    embedding: PlanarIncidenceEmbedding | None = None,
) -> ReductionOutput:
    """Digon-free compilation: every inequality link becomes a fresh copy of
    the oriented gadget built from g3 minus the chosen arc.  The output is
    planar only when g3 is; the default seed is not."""
    if g3 is None:
        g3 = default_g3()
    if arc is None:
        arc = min(g3.arcs())
    neq = make_neq_gadget(make_eq_gadget(g3, arc))
    g = neq.digraph
    copies: list[tuple[int, ...]] = []

    def install(b: _Builder, x: int, y: int) -> None:
        mapping = {neq.u: x, neq.w: y}
        for t in range(g.n):
            if t not in mapping:
                mapping[t] = b.add()
        for p, q in g.arcs():
            b.arc(mapping[p], mapping[q])
        copies.append(tuple(mapping[t] for t in range(g.n)))

    mode = "oriented-planar" if embedding is not None else "oriented-hub"
    out = _compile(phi, embedding, install, mode)
    out.gadget = neq
    out.gadget_copies = tuple(copies)
    return out


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

    Digon outputs go straight to the solver.  Digon-free outputs are decided
    on their digon-linked twin: gadget interiors multiply the search space
    without changing the answer, since every copy forces its endpoints apart
    and supports both endpoint patterns (checked exhaustively when the gadget
    was built).  A twin colouring is lifted through the recorded copies and
    re-checked on the actual output, so the positive answer never rests on
    that argument.
    """
    if output.gadget is None:
        return is_k_dicolourable(output.digraph, 2)
    twin = reduce_digon(output.formula, output.embedding)
    tcol = is_k_dicolourable(twin.digraph, 2)
    if tcol is None:
        return None
    full = [0] * output.digraph.n
    for role, v in output.roles.items():
        full[v] = tcol[twin.roles[role]]
    neq = output.gadget
    for mapping in output.gadget_copies:
        pattern = (full[mapping[neq.u]], full[mapping[neq.w]])
        ext = neq.extensions[pattern]
        for local, colour in enumerate(ext):
            if local not in (neq.u, neq.w):
                full[mapping[local]] = colour
    if not verify_dicolouring(output.digraph, full, 2):
        raise RuntimeError("lifted colouring failed re-verification")
    return full


def verify_equivalence(phi: CnfFormula, output: ReductionOutput) -> bool:
    """Brute-force satisfiability against solver 2-dicolourability, plus
    decode checking on the satisfiable side."""
    sat = phi.brute_force_satisfiable()
    col = solve_reduction(output)
    if (sat is not None) != (col is not None):
        return False
    if col is not None:
        if not verify_dicolouring(output.digraph, col, 2):
            return False
        if not phi.evaluate(decode_assignment(output, col)):
            return False
    return True


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
