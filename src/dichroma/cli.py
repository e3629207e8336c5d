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

from .claims import CLAIMS as _CLAIMS  # bench/make_reference.py reads cli._CLAIMS
from .claims import ClaimContext
from .digraphs import is_oriented
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
    )
    problems = validate_census(rep)
    report = RunReport(
        command="census",
        inputs=f"n={args.n} k={args.k}",
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


def cmd_verify_paper(args) -> int:
    ctx = ClaimContext(args.seed, _jobs(args))
    failures = []
    timings: dict[str, float] = {}
    results: dict[str, dict] = {}
    t_all = time.time()
    for slug, desc, level, check in _CLAIMS:
        if args.level == "quick" and level != "quick":
            continue
        t0 = time.time()
        try:
            ok, details = ctx.run(check)
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
