"""The paper's claims as one table of checks, run by `dichroma verify-paper`
and by the acceptance tests.

Each row of CLAIMS is (slug, description, level, check).  Quick rows run at
both levels, full rows only at full level; a quick row and its full sibling
share one check and differ only in a bound.  A check takes the run's
ClaimContext and returns (ok, details), where details name what failed and
hold no timings, so two runs with one seed report identical results.
Seeded instance loops come first and fixed extra cases after them, so the
instances a seed draws do not depend on the fixed cases.
"""

from __future__ import annotations

import itertools
import random

from .canon import is_arc_transitive
from .certify import class_count, verify_dicolouring
from .digraphs import (
    Digraph,
    circulant_tournament,
    delete_arc,
    delete_vertex,
    is_k_diregular,
    is_oriented,
)
from .enumeration import (
    dicritical_census,
    gen_tournaments,
    validate_census,
    verify_census_bound,
)
from .formats import d6_decode, dump_digraph
from .reductions import (
    DEFAULT_G3_D6,
    CnfFormula,
    PlanarIncidenceEmbedding,
    default_gadgets,
    reduce_digon,
    reduce_oriented,
    single_face_embedding,
    verify_equivalence,
)
from .solver import (
    dichromatic_number,
    find_circulant_candidate,
    is_dicritical,
    induced_acyclic_set,
    is_k_dicolourable,
)
from .structure import (
    block_decomposition,
    cactus_edge_bound,
    cactus_induced_forest,
    gallai_property_check,
    random_cactus,
)
from .surfaces import dicritical_order_bound, heawood_number, surface_table

ST11_SET = (1, 3, 4, 5, 9)
# frozen output of a completed census run, which the extended acceptance
# test re-derives; order 7's is reductions.DEFAULT_G3_D6, the gadget seed.
# Rows check only this one: census 7's outputs pass validate_census
CENSUS_8_3_WITNESS = "&GCOXA?xOqaUo"


class ClaimContext:
    """What one run of the table shares: the seed, the census worker count
    and the census reports computed so far, so each census runs once per
    run however many claims read it."""

    def __init__(self, seed: int, jobs: int):
        self.seed = seed
        self.jobs = jobs
        self.rng = random.Random(seed)
        self._censuses: dict = {}

    def census(self, n: int, k: int):
        if (n, k) not in self._censuses:
            self._censuses[n, k] = dicritical_census(n, k, jobs=self.jobs)
        return self._censuses[n, k]

    def run(self, check) -> tuple[bool, dict]:
        """check's verdict and details, its generator seeded afresh, so each
        claim draws the same instances whatever ran before it."""
        self.rng = random.Random(self.seed)
        return check(self)


def _verdict(checks: dict[str, bool], details: dict) -> tuple[bool, dict]:
    failed = [name for name, ok in checks.items() if not ok]
    return not failed, dict(details, failed=failed) if failed else details


def _st11_dichromatic(ctx):
    st11 = circulant_tournament(11, ST11_SET)
    k, _ = dichromatic_number(st11)
    return k == 4 and is_arc_transitive(st11), {"k": k}


def _st11_dicritical(ctx):
    st11 = circulant_tournament(11, ST11_SET)
    rep = is_dicritical(st11, 4)
    if st11.m != 55 or not rep.is_dicritical:
        return False, {"arcs": st11.m, "reason": rep.reason}
    # dicriticality leaves every deletion 3-dicolourable; none is 2-dicolourable
    for u, v in st11.arcs():
        if is_k_dicolourable(delete_arc(st11, u, v), 2) is not None:
            return False, {"deleted": [u, v], "two_dicolourable": True}
    return True, {"reason": rep.reason}


def _tournaments6(ctx):
    # stearns-tournaments counts the order-6 classes, which the bound never reads
    ok, cex = verify_census_bound(6, 2)
    return ok, {"counterexample": None if cex is None else dump_digraph(cex)}


def _census63(ctx):
    rep = ctx.census(6, 3)
    return rep.count == 0 and rep.min_arcs is None, {"count": rep.count}


def _census73(ctx):
    rep = ctx.census(7, 3)
    problems = validate_census(rep)
    return _verdict(
        {
            "count": rep.count == 3,
            "min_arcs": rep.min_arcs == 20,
            "witness": rep.witnesses == [DEFAULT_G3_D6],
            "validate": not problems,
        },
        {"count": rep.count, "min_arcs": rep.min_arcs,
         "witnesses": rep.witnesses, "problems": problems},
    )


def _stearns(ctx, orders):
    # the list is complete when its length is Burnside's count of classes;
    # orders are string keys, as in the JSON report, beside "failed"
    details = {}
    for n in orders:
        ts = gen_tournaments(n)
        details[str(n)] = len(ts)
        floor = n.bit_length()  # floor(log2 n) + 1
        ok, out = _verdict({
            "count": len(ts) == class_count(n, "tournament"),
            "acyclic_set": all(induced_acyclic_set(t, floor) is not None for t in ts),
        }, details)
        if not ok:
            return ok, out
    return True, details


def _circulant13(ctx):
    # the search returns a circulant only if its maximum acyclic order is 4
    d, s = find_circulant_candidate(13, 4)
    details = {"set": s}
    checks = {"set": s == (1, 2, 3, 5, 6, 9), "diregular": is_k_diregular(d, 6)}
    if not all(checks.values()):
        return _verdict(checks, details)
    for v in range(13):
        dd = delete_vertex(d, v)
        ok, out = _verdict({
            "arcs": dd.m == 66,
            "degrees": all(min(dd.out_degree(u), dd.in_degree(u)) >= 5 for u in range(dd.n)),
        }, dict(details, deleted=v))
        if not ok:
            return ok, out
    return True, details


def _surface_bounds(ctx):
    rows = [(r["surface"], r["lower"], r["upper"]) for r in surface_table()]
    expected = [
        ("sphere", 2, 3), ("N1", 3, 3), ("N2", 3, 3), ("S1", 3, 3),
        ("N3", 3, 3), ("S2, N4", 3, 4), ("N5", 3, 4), ("S3, N6", 3, 4),
        ("N7", 3, 4), ("S4, N8", 3, 4), ("N9", 3, 4), ("S5, N10", 4, 4),
    ]
    witness = d6_decode(CENSUS_8_3_WITNESS)
    st11 = circulant_tournament(11, ST11_SET)
    return _verdict(
        {
            "heawood": [heawood_number(c) for c in (0, 1, -8)] == [7, 6, 11],
            "table": rows == expected,
            "order_bounds": (dicritical_order_bound(4, -1),
                             dicritical_order_bound(4, -8)) == (13, 76),
            "witness_dicritical": is_dicritical(witness, 3).is_dicritical,
            "st11_bounds": st11.n <= dicritical_order_bound(4, -8),
        },
        {"rows": rows},
    )


def _cacti(ctx, trials):
    rng = ctx.rng
    for t in range(trials):
        n = rng.randint(1, 40)
        g = random_cactus(n, seed=rng.getrandbits(32))
        m, bound, tight = cactus_edge_bound(g)
        triangles = all(len(e) == 3 for e in block_decomposition(g).block_edges)
        # checks its forest itself: RuntimeError below ceil(2n/3) vertices
        # or on a cycle, which fails the row
        cactus_induced_forest(g)
        ok, details = _verdict(
            {
                "edge_bound": m <= bound,
                "tight_iff_triangles": tight == triangles,
            },
            {"trial": t, "n": n},
        )
        if not ok:
            return ok, details
    return True, {"trials": trials}


def _census_gallai(ctx):
    ok = gallai_property_check(d6_decode(CENSUS_8_3_WITNESS), 3)
    return ok, {"witness": CENSUS_8_3_WITNESS}


def _random_formula(rng):
    nv = rng.randint(1, 6)
    nc = rng.randint(1, 10)
    clauses = tuple(
        tuple(rng.randint(1, nv) * rng.choice((1, -1)) for _ in range(3))
        for _ in range(nc)
    )
    return CnfFormula(nv, clauses)


def _reduce_digon(ctx, trials):
    for t in range(trials):
        phi = _random_formula(ctx.rng)
        if not verify_equivalence(reduce_digon(phi)):
            return False, {"trial": t, "clauses": phi.clauses}
    one = CnfFormula(3, ((1, -2, 3),))
    claw = CnfFormula(3, ((1, 2, 3),))
    # two clauses on one variable triple, embedded by hand
    two = CnfFormula(3, ((1, 2, 3), (-1, -2, -3)))
    two_faces = PlanarIncidenceEmbedding(
        faces=(
            ("v1", "c0", "v2", "c1"),
            ("v2", "c0", "v3", "c1"),
            ("v1", "c0", "v3", "c1"),
        ),
    )
    fixed = [
        (one, None),
        (one, single_face_embedding(one)),
        (claw, single_face_embedding(claw)),
        (two, two_faces),
    ]
    for phi, emb in fixed:
        if not verify_equivalence(reduce_digon(phi, emb)):
            return False, {"clauses": phi.clauses, "planar": emb is not None}
    return True, {"trials": trials}


def _reduce_oriented(ctx, trials):
    # builds both gadgets, which raises unless their endpoint patterns are
    # exactly the forcing ones and the inequality gadget is digon-free
    default_gadgets()
    formulas = [_random_formula(ctx.rng) for _ in range(trials)]
    formulas.append(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))))
    formulas.append(CnfFormula(3, ((1, 2, 3),)))
    for t, phi in enumerate(formulas):
        out = reduce_oriented(phi)
        if not is_oriented(out.digraph):
            return False, {"trial": t}
        if not verify_equivalence(out):
            return False, {"trial": t, "clauses": phi.clauses}
    return True, {"trials": trials}


def _solver_oracle(ctx, trials):
    rng = ctx.rng
    for t in range(trials):
        n = rng.randint(1, 8)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.35
        ]
        d = Digraph.from_arcs(n, arcs)
        k = rng.randint(1, 3)
        col = is_k_dicolourable(d, k)
        brute = any(
            verify_dicolouring(d, list(assign), k)
            for assign in itertools.product(range(1, k + 1), repeat=n)
        )
        if (col is not None) != brute:
            return False, {"trial": t, "n": n, "k": k}
    return True, {"trials": trials}


CLAIMS = [
    # (slug, description, level, check)
    ("st11-dichromatic-4",
     "11-vertex circulant tournament has dichromatic number 4 and is arc-transitive",
     "quick", _st11_dichromatic),
    ("st11-4-dicritical",
     "all 55 arc deletions of the 11-vertex circulant are 3-dicolourable",
     "quick", _st11_dicritical),
    ("tournaments-6-2-dicolourable",
     "every tournament on 6 vertices is 2-dicolourable",
     "quick", _tournaments6),
    ("census-6-3-empty",
     "no 3-dicritical oriented graph on 6 vertices exists",
     "quick", _census63),
    ("census-7-3-min-20-unique",
     "3-dicritical oriented graphs on 7 vertices: minimum 20 arcs, unique witness",
     "quick", _census73),
    ("stearns-tournaments",
     "every small tournament has an induced acyclic set of floor(log2 n)+1 vertices",
     "quick", lambda ctx: _stearns(ctx, range(4, 8))),
    ("stearns-tournaments-8",
     "order-8 tournaments, as many classes as Burnside's count, meet the acyclic-set bound",
     "full", lambda ctx: _stearns(ctx, (8,))),
    ("circulant-13-no-tt5",
     "a 6-diregular circulant on 13 vertices has maximum acyclic order 4; deletions keep 60+ arcs and degrees 5+",
     "quick", _circulant13),
    ("surface-bounds-table",
     "closed-form surface bounds and the 12-row bounds table reproduce "
     "exactly; the frozen order-8 census witness is 3-dicritical",
     "quick", _surface_bounds),
    ("cactus-suite",
     "random cacti meet the edge bound and the two-thirds induced forest bound",
     "quick", lambda ctx: _cacti(ctx, 100)),
    ("cactus-suite-500",
     "500 random cacti meet the edge and induced forest bounds",
     "full", lambda ctx: _cacti(ctx, 500)),
    ("census-dicritical-gallai",
     "the frozen order-8 census witness passes the low-vertex structure check",
     "quick", _census_gallai),
    ("reduction-digon-equivalence",
     "satisfiability matches 2-dicolourability for digon-mode compilations",
     "quick", lambda ctx: _reduce_digon(ctx, 10)),
    ("reduction-digon-equivalence-50",
     "50 seeded instances verify the digon-mode equivalence",
     "full", lambda ctx: _reduce_digon(ctx, 50)),
    ("reduction-oriented-equivalence",
     "digon-free compilations keep the equivalence; gadgets verified exhaustively",
     "quick", lambda ctx: _reduce_oriented(ctx, 5)),
    ("reduction-oriented-equivalence-20",
     "20 seeded digon-free instances verify the equivalence",
     "full", lambda ctx: _reduce_oriented(ctx, 20)),
    ("solver-oracle",
     "solver agrees with brute force over all colour assignments",
     "quick", lambda ctx: _solver_oracle(ctx, 40)),
    ("solver-oracle-200",
     "200 seeded instances agree with the brute-force oracle",
     "full", lambda ctx: _solver_oracle(ctx, 200)),
]
