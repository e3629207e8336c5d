"""Command-line front end: solving, census runs, surface bounds, SAT
compilation, structure reports, and the claim-verification driver.

Exit codes: 0 success, 1 a verified claim or property fails, 2 usage or
parse errors, 3 an internal error (a self-check of the program failed),
141 a closed stdout.  DICHROMA_JOBS is the default of --jobs.  All
randomness sits behind --seed with a fixed default, so reruns are bit-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from .claims import CLAIMS as _CLAIMS  # bench/make_reference.py reads cli._CLAIMS
from .claims import ClaimContext
from .digraphs import is_oriented
from .enumeration import dicritical_census, validate_census
from .formats import dump_digraph, excerpt, load_digraph, read_int, read_json
from .reductions import (
    CnfFormula,
    PlanarIncidenceEmbedding,
    reduce_digon,
    reduce_oriented,
    verify_equivalence,
)
from .solver import dichromatic_number, is_dicritical
from .structure import (
    cactus_edge_bound,
    cactus_induced_forest,
    decomposition_report,
    is_cactus,
    is_directed_cactus,
    is_directed_gallai_forest,
)
from .surfaces import (
    bounds_row,
    parse_surface,
    surface_names,
    surface_table,
)

# the most Euler characteristics one bounds --range covers, two rows each
RANGE_LIMIT = 10_000


def _read(path: str, what: str) -> str:
    """The text of the file at path.  An empty path is a usage error, not
    the working directory that Path("") names."""
    if not path:
        raise ValueError(f"empty {what} path ''")
    return Path(path).read_text()


def _load(args, parse=load_digraph):
    """The digest of the text at args.path (- for stdin) and parse(text)."""
    text = sys.stdin.read() if args.path == "-" else _read(args.path, "input")
    return hashlib.sha256(text.encode()).hexdigest()[:16], parse(text)


def _int_arg(text: str) -> int:
    """read_int(text, negative=True); argparse prints an ArgumentTypeError's message."""
    try:
        return read_int(text, negative=True)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    """A worker count, from --jobs or DICHROMA_JOBS."""
    try:
        if (jobs := read_int(text)) >= 1:
            return jobs
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"worker count (--jobs, DICHROMA_JOBS) must be "
                                     f"a positive integer, got {excerpt(text)}")


def _jobs(args) -> int:
    """--jobs, else DICHROMA_JOBS, else 1; an empty DICHROMA_JOBS is a bad
    count, not an unset one."""
    return args.jobs or _positive_int(os.environ.get("DICHROMA_JOBS", "1"))


def _emit(args, inputs: str, results: dict, lines: list[str],
          timings: dict | None = None, seed: int | None = None) -> None:
    """Print the run report under --json, else the plain lines."""
    if args.json:
        report = {
            "command": args.command,
            "inputs": inputs,
            "results": results,
            "timings": {k: round(v, 3) for k, v in (timings or {}).items()},
            "seed": seed,
        }
        print(json.dumps(report, sort_keys=True, default=str))
    else:
        print(*lines, sep="\n")
    sys.stdout.flush()  # a closed stdout fails in main's handler, not at exit


def cmd_dichi(args) -> int:
    digest, d = _load(args)
    t0 = time.perf_counter()
    k, col = dichromatic_number(d)
    _emit(args, digest, {"n": d.n, "m": d.m, "k": k, "colouring": col},
          [f"k={k}", "colouring: " + " ".join(map(str, col))],
          {"solve": time.perf_counter() - t0})
    return 0


def cmd_census(args) -> int:
    t0 = time.perf_counter()
    rep = dicritical_census(args.n, args.k, jobs=_jobs(args),
                            checkpoint=args.checkpoint)
    problems = validate_census(rep)
    timings = {"census": time.perf_counter() - t0}
    lines = [f"count={rep.count} min_arcs={rep.min_arcs} "
             f"unique={len(rep.witnesses) == 1}"]
    lines += [f"witness {w}" for w in rep.witnesses]
    lines += [f"PROBLEM {p}" for p in problems]
    _emit(args, f"n={args.n} k={args.k}", dict(rep.to_json(), problems=problems),
          lines, timings)
    return 1 if problems else 0


def cmd_bounds(args) -> int:
    line = "{surface:>22}  c={euler_characteristic:>3}  [{lower},{upper}]"
    if args.surface is not None:
        rows = [bounds_row(*parse_surface(args.surface))]
        line = "[{lower},{upper}]"
    elif args.range is not None:
        lo, hi = args.range
        top = min(hi, 2)  # no surface has c > 2
        if top < lo:
            raise ValueError(f"no surface has Euler characteristic in [{lo}, {hi}]")
        if top - lo >= RANGE_LIMIT:
            raise ValueError(
                f"a range holds at most {RANGE_LIMIT} Euler characteristics; "
                f"[{lo}, {top}] holds {top - lo + 1}"
            )
        rows = [bounds_row(name, c) for c in range(top, lo - 1, -1)
                for name in surface_names(c)]
    else:
        rows = surface_table()
    _emit(args, args.surface or (f"range {args.range}" if args.range else "table"),
          {row["surface"]: row for row in rows},
          [line.format(**row) for row in rows])
    return 0


def cmd_reduce(args) -> int:
    digest, phi = _load(args, CnfFormula.from_dimacs)
    embedding = None
    if args.embedding is not None:
        embedding = PlanarIncidenceEmbedding.from_json(
            read_json(_read(args.embedding, "--embedding")))
    t0 = time.perf_counter()
    reducer = reduce_digon if args.gadget == "digon" else reduce_oriented
    out = reducer(phi, embedding)
    timings = {"reduce": time.perf_counter() - t0}
    rendered = dump_digraph(out.digraph, args.format)
    results = dict(out.to_json(), digraph=rendered)
    lines = [f"mode={out.mode} n={out.digraph.n} m={out.digraph.m}", rendered,
             "roles " + json.dumps(out.roles, sort_keys=True)]
    if args.verify:
        t0 = time.perf_counter()
        results["equivalence"] = verify_equivalence(out)
        timings["verify"] = time.perf_counter() - t0
        lines.append(f"equivalence={results['equivalence']}")
    _emit(args, digest, results, lines, timings)
    return 0 if results.get("equivalence", True) else 1


def cmd_structure(args) -> int:
    digest, d = _load(args)
    rep = decomposition_report(d)
    rep["is_cactus"] = is_cactus(d)
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
        m, bound, tight = cactus_edge_bound(d)
        forest = cactus_induced_forest(d)
        rep["edge_bound"] = {"m": m, "bound": str(bound), "tight": tight}
        rep["induced_forest_size"] = len(forest)
        lines.append(f"edges {m} <= {bound} (tight={tight})")
        lines.append(f"induced forest size {len(forest)}")
    _emit(args, digest, rep, lines)
    return 0


def cmd_critical_check(args) -> int:
    digest, d = _load(args)
    t0 = time.perf_counter()
    rep = is_dicritical(d, args.k)
    timings = {"check": time.perf_counter() - t0}
    lines = [f"dicritical={rep.is_dicritical} k={args.k}"]
    if not rep.is_dicritical:
        lines.append(f"reason: {rep.reason}")
        if rep.failing_arc is not None:
            lines.append(f"failing arc: {rep.failing_arc}")
    _emit(args, digest, rep.to_json(), lines, timings)
    return 0 if rep.is_dicritical else 1


def cmd_verify_paper(args) -> int:
    ctx = ClaimContext(args.seed, _jobs(args))
    failures = []
    timings: dict[str, float] = {}
    results: dict[str, dict] = {}
    t_all = time.perf_counter()
    for slug, desc, level, check in _CLAIMS:
        if args.level == "quick" and level != "quick":
            continue
        t0 = time.perf_counter()
        try:
            ok, details = ctx.run(check)
        except Exception as exc:  # a crash is a failure, not a verdict
            ok, details = False, {"error": repr(exc)}
        dt = time.perf_counter() - t0
        timings[slug] = dt
        results[slug] = {"pass": ok, "details": details}
        if not args.json:
            print(f"{'PASS' if ok else 'FAIL'}  {slug:<38} {dt:6.1f}s  {desc}")
        if not ok:
            failures.append(slug)
            path = os.path.abspath(f"dichroma-failure-{slug}.json")
            try:
                with open(path, "w") as fh:
                    json.dump(
                        {"claim": slug, "description": desc, "details": details},
                        fh, indent=2, default=str,
                    )
            except OSError as exc:  # a failed claim still exits 1, not 2
                print(f"cannot write counterexample artifact {path}: {exc}",
                      file=sys.stderr)
            else:
                if not args.json:
                    print(f"      counterexample artifact: {path}")
    total = len(results)
    summary = (f"{total} claims, {total - len(failures)} passed, "
               f"{len(failures)} failed ({time.perf_counter() - t_all:.1f}s)")
    _emit(args, f"level={args.level}", results, [summary], timings, args.seed)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dichroma",
        description="exact dicolouring, dicritical census, surface bounds, "
        "and 3-SAT compilation for digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the arguments subcommands share, each declared once
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true",
                        help="emit a JSON run report")
    source = argparse.ArgumentParser(add_help=False, parents=[report])
    source.add_argument("path", nargs="?", default="-",
                        help="input file (see README, Formats), or - for stdin")
    jobs = argparse.ArgumentParser(add_help=False, parents=[report])
    jobs.add_argument("--jobs", type=_positive_int)

    sub.add_parser("dichi", parents=[source], help="dichromatic number "
                   "with certificate").set_defaults(func=cmd_dichi)

    p = sub.add_parser("census", parents=[jobs],
                       help="isomorph-free dicritical census")
    p.add_argument("n", type=_int_arg)
    p.add_argument("k", type=_int_arg)
    p.add_argument("--checkpoint")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("bounds", parents=[report],
                       help="dichromatic number bounds per surface")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--surface", help="surface name (sphere, torus, N2, S5, ...)")
    which.add_argument("--range", type=_int_arg, nargs=2, metavar=("LO", "HI"),
                       help="Euler characteristic range")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("reduce", parents=[source],
                       help="compile 3-SAT into 2-dicolourability")
    p.add_argument("--gadget", choices=("digon", "oriented"), default="digon")
    p.add_argument("--embedding", help="JSON face data; one face vertex per "
                   "face instead of a single hub")
    p.add_argument("--verify", action="store_true",
                   help="also run the brute-force equivalence check")
    p.add_argument("--format", choices=("d6", "arclist"),
                   help="output digraph format, printed and in the JSON "
                   "report (default: digraph6 when it fits, else arc list)")
    p.set_defaults(func=cmd_reduce)

    sub.add_parser("structure", parents=[source], help="block decomposition "
                   "and recognition").set_defaults(func=cmd_structure)

    p = sub.add_parser("critical-check", parents=[source],
                       help="verify k-dicriticality")
    p.add_argument("k", type=_int_arg)
    p.set_defaults(func=cmd_critical_check)

    p = sub.add_parser("verify-paper", parents=[jobs],
                       help="run the claim suite and print a pass/fail table")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=_int_arg, default=20260825)
    p.set_defaults(func=cmd_verify_paper)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # stdout's reader left, as head does: exit as a
        # shell reports SIGPIPE, 128 + 13, with /dev/null taking the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
