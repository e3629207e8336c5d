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
from fractions import Fraction

from .canon import is_arc_transitive
from .digraphs import (
    Digraph,
    circulant_tournament,
    delete_arc,
    delete_vertex,
    is_k_diregular,
    is_oriented,
)
from .enumeration import (
    _forest_mask,
    dicritical_census,
    gen_tournaments,
    validate_census,
    verify_census_bound,
)
from .formats import d6_decode, dump_digraph
from .reductions import (
    CnfFormula,
    PlanarIncidenceEmbedding,
    default_g3,
    make_eq_gadget,
    make_neq_gadget,
    reduce_digon,
    reduce_oriented,
    single_face_embedding,
    verify_equivalence,
)
from .solver import (
    dichromatic_number,
    enumerate_dicolourings,
    find_circulant_candidate,
    is_dicritical,
    is_k_dicolourable,
    max_induced_acyclic,
    verify_dicolouring,
)
from .structure import (
    block_decomposition,
    cactus_edge_bound,
    cactus_induced_forest,
    gallai_property_check,
    random_cactus,
)
from .surfaces import (
    dicritical_min_arcs, dicritical_order_bound, heawood_number, surface_table
)

ST11_SET = (1, 3, 4, 5, 9)
# frozen outputs of completed census runs; re-derived by the census checks
CENSUS_7_3_WITNESS = "&FKD`qUFHw?"
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
    classes = len(gen_tournaments(6))
    ok, cex = verify_census_bound(6, 2)
    details = {"classes": classes,
               "counterexample": None if cex is None else dump_digraph(cex)}
    return ok and classes == 56, details


def _census63(ctx):
    rep = ctx.census(6, 3)
    return rep.count == 0 and rep.min_arcs is None, {"count": rep.count}


def _census73(ctx):
    rep = ctx.census(7, 3)
    problems = validate_census(rep)
    return _verdict(
        {
            "graphs_after_arboricity": rep.stats["graphs_after_arboricity"] == 13,
            "orientation_candidates": rep.stats["orientation_candidates"] == 17920,
            "count": rep.count == 3,
            "min_arcs": rep.min_arcs == 20,
            "witness": rep.witnesses == [CENSUS_7_3_WITNESS],
            "validate": not problems,
        },
        {"count": rep.count, "min_arcs": rep.min_arcs,
         "witnesses": rep.witnesses, "problems": problems},
    )


def _stearns(ctx, orders):
    expected = {4: 4, 5: 12, 6: 56, 7: 456, 8: 6880}
    details = {}
    for n in orders:
        ts = gen_tournaments(n)
        details[n] = len(ts)
        if len(ts) != expected[n]:
            return False, details
        floor = n.bit_length()  # floor(log2 n) + 1
        if any(len(max_induced_acyclic(t)) < floor for t in ts):
            return False, details
    return True, details


def _circulant13(ctx):
    d, s = find_circulant_candidate(13, 4)
    order = len(max_induced_acyclic(d))
    details = {"set": s, "acyclic_order": order}
    if s != (1, 2, 3, 5, 6, 9) or not is_k_diregular(d, 6) or order != 4:
        return False, details
    for v in range(13):
        dd = delete_vertex(d, v)
        if dd.m != 66 or any(
            dd.out_degree(u) < 5 or dd.in_degree(u) < 5 for u in range(dd.n)
        ):
            return False, dict(details, deleted=v)
    return True, details


def _surface_bounds(ctx):
    rows = [(r["surface"], r["lower"], r["upper"]) for r in surface_table()]
    expected = [
        ("sphere", 2, 3), ("N1", 3, 3), ("N2", 3, 3), ("S1", 3, 3),
        ("N3", 3, 3), ("S2, N4", 3, 4), ("N5", 3, 4), ("S3, N6", 3, 4),
        ("N7", 3, 4), ("S4, N8", 3, 4), ("N9", 3, 4), ("S5, N10", 4, 4),
    ]
    # census witnesses against the degree and arc bounds of 3-dicriticality
    witnesses = [d6_decode(w) for w in (CENSUS_7_3_WITNESS, CENSUS_8_3_WITNESS)]
    st11 = circulant_tournament(11, ST11_SET)
    return _verdict(
        {
            "heawood": [heawood_number(c) for c in (0, 1, -8)] == [7, 6, 11],
            "table": rows == expected,
            "order_bounds": (dicritical_order_bound(4, -1, oriented=True),
                             dicritical_order_bound(4, -8, oriented=True))
            == (13, 76),
            "min_arcs": all(dicritical_min_arcs(4, n) == (3 + Fraction(1, 23)) * n
                            for n in range(1, 31)),
            "witness_degrees": all(
                min(r.bit_count() for r in (*d.rows, *d.in_rows)) >= 2
                and d.m >= 2 * d.n
                for d in witnesses
            ),
            "st11_bounds": Fraction(st11.m) >= dicritical_min_arcs(4, 11)
            and st11.n <= dicritical_order_bound(4, -8, oriented=True),
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
        forest = cactus_induced_forest(g)
        ok, details = _verdict(
            {
                "edge_bound": m <= bound,
                "tight_iff_triangles": tight == triangles,
                "forest_bound": 3 * len(forest) >= 2 * n,
                "forest": _forest_mask(g.rows, sum(1 << v for v in forest)),
            },
            {"trial": t, "n": n},
        )
        if not ok:
            return ok, details
    return True, {"trials": trials}


def _census_gallai(ctx):
    rep = ctx.census(7, 3)
    bad = [w for w in rep.all_dicritical
           if not gallai_property_check(d6_decode(w), 3)]
    ok = bool(rep.all_dicritical) and not bad
    return ok, {"checked": len(rep.all_dicritical), "bad": bad}


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
        if not verify_equivalence(phi, reduce_digon(phi)):
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
        clause_faces=((0, 1, 2), (0, 1, 2)),
    )
    fixed = [
        (one, None),
        (one, single_face_embedding(one)),
        (claw, single_face_embedding(claw)),
        (two, two_faces),
    ]
    for phi, emb in fixed:
        if not verify_equivalence(phi, reduce_digon(phi, emb)):
            return False, {"clauses": phi.clauses, "planar": emb is not None}
    return True, {"trials": trials}


def _reduce_oriented(ctx, trials):
    g3 = default_g3()
    eq = make_eq_gadget(g3, min(g3.arcs()))
    neq = make_neq_gadget(eq)
    ok, details = _verdict(
        {
            "eq_forcing": all(col[eq.u] == col[eq.v]
                              for col in enumerate_dicolourings(eq.digraph, 2)),
            "neq_oriented": is_oriented(neq.digraph),
            "neq_forcing": all(col[neq.u] != col[neq.w]
                               for col in enumerate_dicolourings(neq.digraph, 2)),
        },
        {"stage": "gadget"},
    )
    if not ok:
        return ok, details
    formulas = [_random_formula(ctx.rng) for _ in range(trials)]
    formulas.append(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))))
    formulas.append(CnfFormula(3, ((1, 2, 3),)))
    for t, phi in enumerate(formulas):
        out = reduce_oriented(phi)
        if not is_oriented(out.digraph):
            return False, {"trial": t}
        if not verify_equivalence(phi, out):
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
        if col is not None and not verify_dicolouring(d, col, k):
            return False, {"trial": t}
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
     "order-8 tournaments (6880 classes) meet the acyclic-set bound",
     "full", lambda ctx: _stearns(ctx, (8,))),
    ("circulant-13-no-tt5",
     "a 6-diregular circulant on 13 vertices has maximum acyclic order 4; deletions keep 60+ arcs and degrees 5+",
     "quick", _circulant13),
    ("surface-bounds-table",
     "closed-form surface bounds and the 12-row bounds table reproduce exactly",
     "quick", _surface_bounds),
    ("cactus-suite",
     "random cacti meet the edge bound and the two-thirds induced forest bound",
     "quick", lambda ctx: _cacti(ctx, 100)),
    ("cactus-suite-500",
     "500 random cacti meet the edge and induced forest bounds",
     "full", lambda ctx: _cacti(ctx, 500)),
    ("census-dicritical-gallai",
     "every census 3-dicritical graph passes the low-vertex structure check",
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
