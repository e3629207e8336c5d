"""Command-line front end: solving, census runs, surface bounds, SAT
compilation, structure reports, and the claim-verification driver.

Exit codes: 0 success, 1 a verified claim or property fails, 2 usage or
parse errors.  DICHROMA_JOBS sets the default worker count.  All randomness
sits behind --seed with a fixed default, so reruns are bit-reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

from .digraphs import Digraph, circulant_tournament, is_k_diregular, is_oriented
from .formats import dump_digraph, load_digraph


@dataclass
class RunReport:
    command: str
    inputs: str
    results: dict
    timings: dict = field(default_factory=dict)
    seed: int | None = None

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "timings": {k: round(v, 3) for k, v in self.timings.items()},
            "seed": self.seed,
        }


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _jobs(args) -> int:
    if getattr(args, "jobs", None):
        return args.jobs
    env = os.environ.get("DICHROMA_JOBS")
    return int(env) if env else 1


def _emit(args, report: RunReport, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        for ln in lines:
            print(ln)


def cmd_dichi(args) -> int:
    from .solver import dichromatic_number, verify_dicolouring

    text = _read_text(args.path)
    d = load_digraph(text, args.format)
    t0 = time.time()
    k, col = dichromatic_number(d)
    if not verify_dicolouring(d, col, max(k, 1)):
        raise RuntimeError("the solver's dicolouring failed verification")
    report = RunReport(
        command="dichi",
        inputs=_digest(text),
        results={"n": d.n, "m": d.m, "k": k, "colouring": col},
        timings={"solve": time.time() - t0},
    )
    _emit(args, report, [f"k={k}", "colouring: " + " ".join(map(str, col))])
    return 0


def cmd_census(args) -> int:
    from .enumeration import dicritical_census, validate_census

    t0 = time.time()
    rep = dicritical_census(
        args.n,
        args.k,
        jobs=_jobs(args),
        checkpoint=args.checkpoint,
        filter=args.filter,
    )
    problems = validate_census(rep)
    report = RunReport(
        command="census",
        inputs=f"n={args.n} k={args.k} filter={args.filter}",
        results=dict(rep.to_json(), problems=problems),
        timings={"census": time.time() - t0},
    )
    lines = [
        f"count={rep.count} min_arcs={rep.min_arcs} "
        f"unique={len(rep.witnesses) == 1}"
    ]
    lines += [f"witness {w}" for w in rep.witnesses]
    if problems:
        lines += [f"PROBLEM {p}" for p in problems]
    _emit(args, report, lines)
    return 1 if problems else 0


def cmd_bounds(args) -> int:
    from .surfaces import (
        dichromatic_bounds,
        parse_surface,
        surface_from_characteristic,
        surface_table,
    )

    results: dict = {}
    lines: list[str] = []
    if args.surface:
        s = parse_surface(args.surface)
        rec = dichromatic_bounds(s)
        results[s.name] = {"lower": rec.lower, "upper": rec.upper,
                           "provenance": list(rec.provenance)}
        lines.append(f"[{rec.lower},{rec.upper}]")
    elif args.range:
        lo, hi = args.range
        if lo > hi:
            raise ValueError("empty characteristic range")
        for c in range(hi, lo - 1, -1):
            for kind in ("orientable", "nonorientable"):
                try:
                    s = surface_from_characteristic(c, kind)
                except ValueError:
                    continue
                rec = dichromatic_bounds(s)
                results[s.name] = {"lower": rec.lower, "upper": rec.upper}
                lines.append(
                    f"{s.name:>6}  c={c:>3}  [{rec.lower},{rec.upper}]"
                )
    else:
        for row in surface_table():
            results[row["surface"]] = row
            lines.append(
                f"{row['surface']:>22}  c={row['euler_characteristic']:>3}  "
                f"[{row['lower']},{row['upper']}]"
            )
    report = RunReport(
        command="bounds",
        inputs=args.surface or (f"range {args.range}" if args.range else "table"),
        results=results,
    )
    _emit(args, report, lines)
    return 0


def cmd_reduce(args) -> int:
    from .reductions import (
        CnfFormula,
        PlanarIncidenceEmbedding,
        reduce_digon,
        reduce_oriented,
        verify_equivalence,
    )

    text = _read_text(args.path)
    phi = CnfFormula.from_dimacs(text)
    embedding = None
    if args.mode == "planar":
        if not args.embedding:
            raise ValueError("planar mode needs --embedding FILE")
        with open(args.embedding) as fh:
            embedding = PlanarIncidenceEmbedding.from_json(json.load(fh))
    t0 = time.time()
    if args.gadget == "digon":
        out = reduce_digon(phi, embedding)
    else:
        out = reduce_oriented(phi, embedding=embedding)
    timings = {"reduce": time.time() - t0}
    results = out.to_json()
    code = 0
    if args.verify:
        t0 = time.time()
        ok = verify_equivalence(phi, out)
        timings["verify"] = time.time() - t0
        results["equivalence"] = ok
        code = 0 if ok else 1
    report = RunReport(
        command="reduce", inputs=_digest(text), results=results, timings=timings
    )
    lines = [f"mode={out.mode} n={out.digraph.n} m={out.digraph.m}"]
    out_fmt = None if args.format == "dimacs" else args.format
    lines.append(dump_digraph(out.digraph, out_fmt))
    lines.append("roles " + json.dumps(out.roles, sort_keys=True))
    if args.verify:
        lines.append(f"equivalence={results['equivalence']}")
    _emit(args, report, lines)
    return code


def cmd_structure(args) -> int:
    from .structure import (
        cactus_edge_bound,
        cactus_induced_forest,
        decomposition_report,
        is_cactus,
        is_directed_cactus,
        is_directed_gallai_forest,
    )
    from .digraphs import underlying_graph

    text = _read_text(args.path)
    d = load_digraph(text, args.format)
    g = underlying_graph(d)
    rep = decomposition_report(d)
    rep["is_cactus"] = is_cactus(g)
    rep["is_oriented"] = is_oriented(d)
    rep["is_directed_cactus"] = is_directed_cactus(d)
    rep["is_directed_gallai_forest"] = is_directed_gallai_forest(d)
    lines = [
        f"blocks={len(rep['blocks'])} cut_vertices={rep['cut_vertices']}",
        "kinds " + " ".join(rep["kinds"]),
        f"cactus={rep['is_cactus']} directed_cactus={rep['is_directed_cactus']} "
        f"gallai_forest={rep['is_directed_gallai_forest']}",
    ]
    if rep["is_cactus"]:
        m, bound, tight = cactus_edge_bound(g)
        forest = cactus_induced_forest(g)
        rep["edge_bound"] = {"m": m, "bound": str(bound), "tight": tight}
        rep["induced_forest_size"] = len(forest)
        lines.append(f"edges {m} <= {bound} (tight={tight})")
        lines.append(f"induced forest size {len(forest)}")
    report = RunReport(command="structure", inputs=_digest(text), results=rep)
    _emit(args, report, lines)
    return 0


def cmd_critical_check(args) -> int:
    from .solver import is_dicritical

    text = _read_text(args.path)
    d = load_digraph(text, args.format)
    t0 = time.time()
    rep = is_dicritical(d, args.k)
    report = RunReport(
        command="critical-check",
        inputs=_digest(text),
        results=rep.to_json(),
        timings={"check": time.time() - t0},
    )
    lines = [f"dicritical={rep.is_dicritical} k={args.k}"]
    if not rep.is_dicritical:
        lines.append(f"reason: {rep.reason}")
        if rep.failing_arc is not None:
            lines.append(f"failing arc: {rep.failing_arc}")
    _emit(args, report, lines)
    return 0 if rep.is_dicritical else 1


# -- verify-paper claim suite ---------------------------------------------


def _claim_st11_dichromatic(rng, jobs):
    from .canon import is_arc_transitive
    from .solver import dichromatic_number

    st11 = circulant_tournament(11, (1, 3, 4, 5, 9))
    k, _ = dichromatic_number(st11)
    return k == 4 and is_arc_transitive(st11), {"k": k}


def _claim_st11_dicritical(rng, jobs):
    from .solver import is_dicritical

    st11 = circulant_tournament(11, (1, 3, 4, 5, 9))
    rep = is_dicritical(st11, 4)
    return rep.is_dicritical, {"reason": rep.reason}


def _claim_tournaments6(rng, jobs):
    from .solver import verify_census_bound

    ok, cex = verify_census_bound(6, 2)
    return ok, {"counterexample": None if cex is None else dump_digraph(cex)}


def _claim_census63(rng, jobs):
    from .enumeration import dicritical_census

    rep = dicritical_census(6, 3)
    return rep.count == 0, {"count": rep.count}


def _claim_census73(rng, jobs):
    from .enumeration import dicritical_census, validate_census

    rep = dicritical_census(7, 3, jobs=jobs)
    problems = validate_census(rep)
    ok = rep.min_arcs == 20 and len(rep.witnesses) == 1 and not problems
    return ok, {"min_arcs": rep.min_arcs, "witnesses": rep.witnesses,
                "problems": problems}


def _claim_stearns(rng, jobs, nmax):
    from .enumeration import gen_tournaments
    from .solver import max_induced_acyclic

    expected = {4: 4, 5: 12, 6: 56, 7: 456, 8: 6880}
    details = {}
    for n in range(4, nmax + 1):
        ts = gen_tournaments(n)
        details[n] = len(ts)
        if len(ts) != expected[n]:
            return False, details
        floor = n.bit_length()  # floor(log2 n) + 1
        if any(len(max_induced_acyclic(t)) < floor for t in ts):
            return False, details
    return True, details


def _claim_circulant13(rng, jobs):
    from .digraphs import delete_vertex
    from .solver import find_circulant_candidate, max_induced_acyclic

    d, s = find_circulant_candidate(13, 4)
    if not is_k_diregular(d, 6):
        return False, {"set": s}
    for v in range(13):
        dd = delete_vertex(d, v)
        if dd.m < 60:
            return False, {"set": s, "deleted": v}
        if any(
            dd.out_degree(u) < 5 or dd.in_degree(u) < 5 for u in range(dd.n)
        ):
            return False, {"set": s, "deleted": v}
    return True, {"set": s, "acyclic_order": len(max_induced_acyclic(d))}


def _claim_surface_bounds(rng, jobs):
    from fractions import Fraction

    from .surfaces import (
        dicritical_min_arcs,
        dicritical_order_bound,
        heawood_number,
        surface_table,
    )

    checks = [
        heawood_number(0) == 7,
        heawood_number(1) == 6,
        heawood_number(-8) == 11,
        dicritical_order_bound(4, -1, oriented=True) == 13,
        dicritical_order_bound(4, -8, oriented=True) == 76,
        dicritical_min_arcs(4, 23) == Fraction(70),
        dicritical_min_arcs(4, 1) == Fraction(70, 23),
    ]
    table = surface_table()
    expected = [
        ("sphere", 2, 3), ("N1", 3, 3), ("N2", 3, 3), ("S1", 3, 3),
        ("N3", 3, 3), ("S2, N4", 3, 4), ("N5", 3, 4), ("S3, N6", 3, 4),
        ("N7", 3, 4), ("S4, N8", 3, 4), ("N9", 3, 4), ("S5, N10", 4, 4),
    ]
    rows = [(r["surface"], r["lower"], r["upper"]) for r in table]
    return all(checks) and rows == expected, {"rows": rows}


def _claim_cacti(rng, jobs, trials):
    from .digraphs import induced_graph
    from .structure import (
        cactus_edge_bound,
        cactus_induced_forest,
        random_cactus,
    )

    for t in range(trials):
        n = rng.randint(1, 40)
        g = random_cactus(n, seed=rng.getrandbits(32))
        m, bound, tight = cactus_edge_bound(g)
        if m > bound:
            return False, {"trial": t, "n": n}
        forest = cactus_induced_forest(g)
        if 3 * len(forest) < 2 * n:
            return False, {"trial": t, "n": n, "forest": len(forest)}
        sub = induced_graph(g, forest)
        # a graph is a forest iff m = n - number of components
        comps = 0
        seen = 0
        for v in range(sub.n):
            if seen >> v & 1:
                continue
            comps += 1
            stack = [v]
            while stack:
                x = stack.pop()
                if seen >> x & 1:
                    continue
                seen |= 1 << x
                stack.extend(
                    w for w in range(sub.n)
                    if sub.rows[x] >> w & 1 and not seen >> w & 1
                )
        if len(list(sub.edges())) != sub.n - comps:
            return False, {"trial": t, "n": n, "not_forest": True}
    return True, {"trials": trials}


def _claim_census_gallai(rng, jobs):
    from .enumeration import dicritical_census
    from .formats import load_digraph as load
    from .structure import gallai_property_check

    rep = dicritical_census(7, 3, jobs=jobs)
    bad = [w for w in rep.all_dicritical
           if not gallai_property_check(load(w), 3)]
    return not bad, {"checked": len(rep.all_dicritical), "bad": bad}


def _random_formula(rng, max_vars=6, max_clauses=10):
    from .reductions import CnfFormula

    nv = rng.randint(1, max_vars)
    nc = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(nc):
        clauses.append(tuple(
            rng.randint(1, nv) * rng.choice((1, -1)) for _ in range(3)
        ))
    return CnfFormula(nv, tuple(clauses))


def _claim_reduce_digon(rng, jobs, trials):
    from .reductions import (
        CnfFormula,
        reduce_digon,
        single_face_embedding,
        verify_equivalence,
    )

    for t in range(trials):
        phi = _random_formula(rng)
        if not verify_equivalence(phi, reduce_digon(phi)):
            return False, {"trial": t, "clauses": phi.clauses}
    phi = CnfFormula(3, ((1, -2, 3),))
    emb = single_face_embedding(phi)
    hub = reduce_digon(phi)
    planar = reduce_digon(phi, emb)
    ok = verify_equivalence(phi, hub) and verify_equivalence(phi, planar)
    return ok, {"trials": trials}


def _claim_reduce_oriented(rng, jobs, trials):
    from .reductions import (
        default_g3,
        make_eq_gadget,
        make_neq_gadget,
        reduce_oriented,
        verify_equivalence,
    )

    neq = make_neq_gadget(make_eq_gadget(default_g3(), (0, 2)))
    if not is_oriented(neq.digraph):
        return False, {"stage": "gadget"}
    for t in range(trials):
        phi = _random_formula(rng)
        out = reduce_oriented(phi)
        if not is_oriented(out.digraph):
            return False, {"trial": t}
        if not verify_equivalence(phi, out):
            return False, {"trial": t, "clauses": phi.clauses}
    return True, {"trials": trials}


def _claim_solver_oracle(rng, jobs, trials):
    import itertools

    from .solver import is_k_dicolourable, verify_dicolouring

    for t in range(trials):
        n = rng.randint(1, 7)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.35
        ]
        d = Digraph.from_arcs(n, arcs)
        k = rng.randint(1, 3)
        col = is_k_dicolourable(d, k)
        brute = None
        for assign in itertools.product(range(1, k + 1), repeat=n):
            if verify_dicolouring(d, list(assign), k):
                brute = assign
                break
        if (col is None) != (brute is None):
            return False, {"trial": t, "n": n, "k": k}
        if col is not None and not verify_dicolouring(d, col, k):
            return False, {"trial": t}
    return True, {"trials": trials}


_CLAIMS = [
    # (slug, description, level, fn)
    ("st11-dichromatic-4",
     "11-vertex circulant tournament has dichromatic number 4 and is arc-transitive",
     "quick", _claim_st11_dichromatic),
    ("st11-4-dicritical",
     "all 55 arc deletions of the 11-vertex circulant are 3-dicolourable",
     "quick", _claim_st11_dicritical),
    ("tournaments-6-2-dicolourable",
     "every tournament on 6 vertices is 2-dicolourable",
     "quick", _claim_tournaments6),
    ("census-6-3-empty",
     "no 3-dicritical oriented graph on 6 vertices exists",
     "quick", _claim_census63),
    ("census-7-3-min-20-unique",
     "3-dicritical oriented graphs on 7 vertices: minimum 20 arcs, unique witness",
     "quick", _claim_census73),
    ("stearns-tournaments",
     "every small tournament has an induced acyclic set of floor(log2 n)+1 vertices",
     "quick", lambda rng, jobs: _claim_stearns(rng, jobs, 7)),
    ("stearns-tournaments-8",
     "order-8 tournaments (6880 classes) meet the acyclic-set bound",
     "full", lambda rng, jobs: _claim_stearns(rng, jobs, 8)),
    ("circulant-13-no-tt5",
     "a 6-diregular circulant on 13 vertices has maximum acyclic order 4; deletions keep 60+ arcs and degrees 5+",
     "quick", _claim_circulant13),
    ("surface-bounds-table",
     "closed-form surface bounds and the 12-row bounds table reproduce exactly",
     "quick", _claim_surface_bounds),
    ("cactus-suite",
     "random cacti meet the edge bound and the two-thirds induced forest bound",
     "quick", lambda rng, jobs: _claim_cacti(rng, jobs, 100)),
    ("cactus-suite-500",
     "500 random cacti meet the edge and induced forest bounds",
     "full", lambda rng, jobs: _claim_cacti(rng, jobs, 500)),
    ("census-dicritical-gallai",
     "every census 3-dicritical graph passes the low-vertex structure check",
     "quick", _claim_census_gallai),
    ("reduction-digon-equivalence",
     "satisfiability matches 2-dicolourability for digon-mode compilations",
     "quick", lambda rng, jobs: _claim_reduce_digon(rng, jobs, 10)),
    ("reduction-digon-equivalence-50",
     "50 seeded instances verify the digon-mode equivalence",
     "full", lambda rng, jobs: _claim_reduce_digon(rng, jobs, 50)),
    ("reduction-oriented-equivalence",
     "digon-free compilations keep the equivalence; gadgets verified exhaustively",
     "quick", lambda rng, jobs: _claim_reduce_oriented(rng, jobs, 5)),
    ("reduction-oriented-equivalence-20",
     "20 seeded digon-free instances verify the equivalence",
     "full", lambda rng, jobs: _claim_reduce_oriented(rng, jobs, 20)),
    ("solver-oracle",
     "solver agrees with brute force over all colour assignments",
     "quick", lambda rng, jobs: _claim_solver_oracle(rng, jobs, 40)),
    ("solver-oracle-200",
     "200 seeded instances agree with the brute-force oracle",
     "full", lambda rng, jobs: _claim_solver_oracle(rng, jobs, 200)),
]


def cmd_verify_paper(args) -> int:
    import random

    jobs = _jobs(args)
    failures = []
    timings: dict[str, float] = {}
    results: dict[str, dict] = {}
    t_all = time.time()
    for slug, desc, level, fn in _CLAIMS:
        if args.level == "quick" and level != "quick":
            continue
        rng = random.Random(args.seed)
        t0 = time.time()
        try:
            ok, details = fn(rng, jobs)
        except Exception as exc:  # a crash is a failure, not a verdict
            ok, details = False, {"error": repr(exc)}
        dt = time.time() - t0
        timings[slug] = dt
        results[slug] = {"pass": ok, "details": details}
        status = "PASS" if ok else "FAIL"
        if not args.json:
            print(f"{status}  {slug:<38} {dt:6.1f}s  {desc}")
        if not ok:
            failures.append(slug)
            path = os.path.abspath(f"dichroma-failure-{slug}.json")
            with open(path, "w") as fh:
                json.dump(
                    {"claim": slug, "description": desc, "details": details},
                    fh, indent=2, default=str,
                )
            if not args.json:
                print(f"      counterexample artifact: {path}")
    report = RunReport(
        command="verify-paper",
        inputs=f"level={args.level}",
        results=results,
        timings=timings,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True, default=str))
    else:
        total = len(results)
        print(
            f"{total} claims, {total - len(failures)} passed, "
            f"{len(failures)} failed ({time.time() - t_all:.1f}s)"
        )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dichroma",
        description="exact dicolouring, dicritical census, surface bounds, "
        "and 3-SAT compilation for digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=("d6", "arclist")):
        p.add_argument("--json", action="store_true",
                       help="emit a JSON run report")
        if fmt:
            p.add_argument("--format", choices=fmt, default=None,
                           help="input format override (default: sniff)")

    p = sub.add_parser("dichi", help="dichromatic number with certificate")
    p.add_argument("path", nargs="?", default="-",
                   help="digraph file or - for stdin")
    add_common(p)
    p.set_defaults(func=cmd_dichi)

    p = sub.add_parser("census", help="isomorph-free dicritical census")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--filter", choices=("vertex", "edge"), default="vertex")
    add_common(p, fmt=None)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("bounds", help="dichromatic number bounds per surface")
    p.add_argument("--surface", default=None,
                   help="surface name (sphere, torus, N2, S5, ...)")
    p.add_argument("--range", type=int, nargs=2, metavar=("LO", "HI"),
                   default=None, help="Euler characteristic range")
    add_common(p, fmt=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("reduce", help="compile 3-SAT into 2-dicolourability")
    p.add_argument("path", nargs="?", default="-",
                   help="DIMACS CNF file or - for stdin")
    p.add_argument("--mode", choices=("hub", "planar"), default="hub")
    p.add_argument("--gadget", choices=("digon", "oriented"), default="digon")
    p.add_argument("--embedding", default=None,
                   help="JSON face data (planar mode)")
    p.add_argument("--verify", action="store_true",
                   help="also run the brute-force equivalence check")
    add_common(p, fmt=("d6", "arclist", "dimacs"))
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("structure", help="block decomposition and recognition")
    p.add_argument("path", nargs="?", default="-")
    add_common(p)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("critical-check", help="verify k-dicriticality")
    p.add_argument("path", nargs="?", default="-")
    p.add_argument("k", type=int)
    add_common(p)
    p.set_defaults(func=cmd_critical_check)

    p = sub.add_parser("verify-paper",
                       help="run the claim suite and print a pass/fail table")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--seed", type=int, default=20260825)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_paper)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
