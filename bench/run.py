#!/usr/bin/env python3
"""Benchmark of dichroma's exhaustive searches.

Run from the repository root, for example

    python3 bench/run.py --workload census8 --seed 1 --seconds 12 --trace 0

Each workload drives the package in-process with one worker, on inputs
drawn from --seed.  It plans one pass of work from the seed and from the
reference costs in bench/reference.json (measured on a 2-core x86 box,
Python 3.11.7), so that the same seed and --seconds give the same work on
every commit, and runs that pass several times, about --seconds in all.
The pass is a list of units (census tasks, generator calls, bound chunks,
claim suites).  Each unit's wall and CPU seconds are scaled to a nominal
machine speed by SpeedProbe, and wall_s and cpu_s sum, over the units, the
median across the passes.  Every output is checked against a known answer,
and the work counters read from the program's outputs must be identical
in every pass.

The last line of standard output is one JSON object: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The line
before it gives the machine, the source, the seed, the work counters and,
untraced, the raw unscaled times.

Set-up builds a workload's inputs and is timed on its own, scaled the same
way (median of SETUP_REPS builds).  A traced run builds the inputs once and then runs
each unit twice in a row, untraced and with the tracer from bench/spans.py
installed, and reports per-layer self times and call counts and the
tracing overhead (traced minus untraced time).  Why each workload was
chosen is in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

SETUP_REPS = 3
PASSES = 4  # passes of the planned work, at least
K = 3  # the census and tournament bounds are for 3-dicriticality


def _load_package():
    """Import dichroma from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dichroma" / "__init__.py").is_file():
        raise SystemExit(f"error: no dichroma package under {src}")
    sys.path.insert(0, str(src))
    import dichroma

    if Path(dichroma.__file__).resolve().parent != (src / "dichroma").resolve():
        raise SystemExit(f"error: imported dichroma from {dichroma.__file__}")
    from dichroma import canon, cli, enumeration, formats, solver  # noqa: F401


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def degree_digest(classes) -> str:
    """Digest of the sorted out-degree sequences of a class list: the same
    for any choice of class representatives."""
    return _digest(sorted(sorted(r.bit_count() for r in c.rows) for c in classes))


class Result:
    """One unit's outcome: the units of work it attempted and failed, its
    work counters and, for verify-paper, the per-claim seconds."""

    def __init__(self, units, failed=0, problem=None, counters=(), claim_s=None):
        self.units = units
        self.failed = failed
        self.problem = problem
        self.counters = dict(counters)
        self.claim_s = claim_s or {}


# -- workloads ------------------------------------------------------------


class Census8:
    """Order-8 underlying graphs through the census worker.

    Graphs whose reference task time is at most a quarter of the pass are
    sorted by that time and cut into consecutive strata.  One graph is drawn
    at random from every even stratum; from the odd stratum after it comes
    the graph that brings the pair's reference time closest to the sum of
    the two strata means.  So every seed gets the same number of graphs and
    nearly the same reference cost.
    """

    name = "census8"
    passes = PASSES

    def __init__(self, ref, seed, seconds):
        graphs = ref["census8"]["graphs"]
        self.ref = {g["graph"]: g for g in graphs}
        budget = seconds / self.passes
        pool = [g for g in graphs if g["seconds"] is not None and g["seconds"] <= budget / 4]
        pool.sort(key=lambda g: (g["seconds"], g["graph"]))
        size = max(1, round(sum(g["seconds"] for g in pool) / budget))
        strata = [pool[i : i + size] for i in range(0, len(pool), size)]
        rng = random.Random(seed)
        picks = []
        for i, stratum in enumerate(strata):
            if i % 2 == 0:
                picks.append(rng.choice(stratum))
                continue
            target = sum(
                statistics.mean(g["seconds"] for g in s) for s in strata[i - 1 : i + 1]
            )
            drawn = picks[-1]["seconds"]
            picks.append(min(stratum, key=lambda g: abs(drawn + g["seconds"] - target)))
        rng.shuffle(picks)
        self.sample = [g["graph"] for g in picks]
        self.pass_cost = sum(self.ref[g6]["seconds"] for g6 in self.sample)

    def setup(self):
        from dichroma import enumeration, formats
        from dichroma.digraphs import bidirect

        graphs = enumeration.gen_graphs(8, 2 * (K - 1))
        kept = [g for g in graphs if enumeration.arboricity(g) >= K]
        tasks = [formats.d6_encode(bidirect(g)) for g in kept]
        if sorted(tasks) != sorted(self.ref):
            raise SystemExit("error: generated order-8 census inputs differ from the reference")
        return self.sample

    def unit(self, g6) -> Result:
        from dichroma import enumeration

        res = enumeration._census_graph_task((g6, K))
        want = self.ref[g6]
        ok = (res["graph"], res["candidates"], res["dicritical"]) == (
            g6, want["candidates"], want["dicritical"])
        return Result(
            1,
            failed=0 if ok else 1,
            problem=None if ok else f"{g6}: census task differs from the order-8 reference",
            counters={"candidates": res["candidates"], "found": len(res["dicritical"])},
        )


class Isogen:
    """Isomorph-free generation: order-8 tournaments and order-8 graphs of
    minimum degree 4.  The seed only orders the two generator calls of a
    pass; the work is the same for every seed."""

    name = "isogen"
    passes = PASSES
    pass_cost = 3.3  # reference seconds of one call of each generator

    def __init__(self, ref, seed, seconds):
        self.ref = ref["isogen"]
        self.plan = ["tournaments", "graphs"]
        random.Random(seed).shuffle(self.plan)

    def setup(self):
        # warm-up at smaller orders, so lazy start-up costs stay out of timing
        from dichroma import enumeration

        enumeration.gen_tournaments(6)
        enumeration.gen_graphs(7, 4)
        return self.plan

    def unit(self, call) -> Result:
        from dichroma import enumeration

        if call == "tournaments":
            classes = enumeration.gen_tournaments(8)
        else:
            classes = enumeration.gen_graphs(8, 4)
        want = self.ref[call]
        ok = len(classes) == want["classes"] and degree_digest(classes) == want["invariant"]
        return Result(
            len(classes),
            failed=0 if ok else len(classes),
            problem=None if ok else f"{call}: {len(classes)} classes, want {want['classes']}",
            counters={call: len(classes)},
        )


class TournamentBound:
    """Order-8 tournament classes extended by every dominance mask and
    decided for 3-dicolourability by the chunk worker of criterion 12."""

    name = "tournament-bound"
    passes = PASSES
    CLASS_S = 0.0105  # reference seconds to decide one class (256 tournaments)
    CHUNK = 8  # classes per unit: short units let the speed probe follow the load

    def __init__(self, ref, seed, seconds):
        self.classes = ref["isogen"]["tournaments"]["classes"]
        size = min(self.classes, max(1, round(seconds / self.passes / self.CLASS_S)))
        self.picks = random.Random(seed).sample(range(self.classes), size)
        self.pass_cost = size * self.CLASS_S

    def setup(self):
        from dichroma import enumeration, formats

        tours = enumeration.gen_tournaments(8)
        if len(tours) != self.classes:  # OEIS A000568
            raise SystemExit(f"error: {len(tours)} order-8 tournament classes, want {self.classes}")
        d6s = [formats.d6_encode(tours[i]) for i in self.picks]
        starts = range(0, len(d6s), self.CHUNK)
        return [(n, d6s[i : i + self.CHUNK]) for n, i in enumerate(starts)]

    def unit(self, chunk) -> Result:
        from dichroma import solver

        idx, parents = chunk
        got, ok, counter = solver._bound_chunk((idx, parents, K))
        units = len(parents) << 8
        ok = got == idx and ok and counter is None
        return Result(
            units,
            failed=0 if ok else units,
            problem=None if ok else f"chunk {idx}: counterexample {counter}",
            counters={"tournaments": units},
        )


class VerifyFull:
    """The paper re-check users run: verify-paper --level full, in a
    temporary working directory so failure artifacts stay out of the tree."""

    name = "verify-full"
    pass_cost = 8.5  # reference seconds of one full claim suite
    passes = 3

    def __init__(self, ref, seed, seconds):
        self.claims = ref["verify-full"]["claims"]
        self.seed = seed

    def setup(self):
        # warm-up through the same front end: the order-6 census
        code, _ = self._cli(["census", "6", "3", "--json"])
        if code != 0:
            raise SystemExit("error: census 6 3 failed in set-up")
        return ["full"]

    @staticmethod
    def _cli(argv):
        from dichroma import cli

        WORK.mkdir(exist_ok=True)
        here = os.getcwd()
        buf = io.StringIO()
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            finally:
                os.chdir(here)
        return code, buf.getvalue()

    def unit(self, level) -> Result:
        code, text = self._cli(
            ["verify-paper", "--level", level, "--json", "--seed", str(self.seed)]
        )
        rep = json.loads(text)
        results = rep["results"]
        failing = [s for s in self.claims if results.get(s, {}).get("pass") is not True]
        unexpected = sorted(set(results) - set(self.claims))
        ok = code == 0 and not failing and not unexpected
        return Result(
            len(self.claims),
            failed=0 if ok else max(1, len(failing)),
            problem=None if ok else f"exit {code}, failing {failing}, unexpected {unexpected}",
            counters={
                "claims_passed": len(self.claims) - len(failing),
                "details": _digest({s: r["details"] for s, r in results.items()}),
            },
            claim_s=rep["timings"],
        )


WORKLOADS = {w.name: w for w in (Census8, Isogen, TournamentBound, VerifyFull)}


# -- driving ----------------------------------------------------------------


def timed_unit(wl, x):
    cpu0 = _cpu()
    t0 = time.perf_counter()
    res = wl.unit(x)
    return res, time.perf_counter() - t0, _cpu() - cpu0


def _probe_rows(n=14):
    rng = random.Random(7)
    return [sum(1 << w for w in range(n) if w != v and rng.random() < 0.3) for v in range(n)]


PROBE_ROWS = _probe_rows()


def probe_work() -> int:
    """A fixed piece of bitset search, written here and never changed, so
    its time measures the machine and not the program: Kahn peels of 32
    vertex subsets of a fixed 14-vertex digraph."""
    n = len(PROBE_ROWS)
    peeled = 0
    for start in range(0, 1 << n, 1 << (n - 5)):
        mask = ((1 << n) - 1) & ~start
        indeg = {
            v: sum(1 for w in range(n) if PROBE_ROWS[w] >> v & 1 and mask >> w & 1)
            for v in range(n)
            if mask >> v & 1
        }
        queue = [v for v, d in indeg.items() if d == 0]
        while queue:
            v = queue.pop()
            peeled += 1
            r = PROBE_ROWS[v] & mask
            while r:
                low = r & -r
                w = low.bit_length() - 1
                r ^= low
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
    return peeled


class SpeedProbe:
    """Times probe_work() from a SIGALRM handler every INTERVAL seconds of
    wall time, to see how fast the machine runs while a unit runs.

    On a machine shared with other tenants, the same work here took up to
    1.9 times as long from one second to the next, in stretches lasting
    from seconds to minutes.  Scaling a unit's time by NOMINAL over the
    median probe time seen during the unit removes much of that: over ten
    census8 runs on a loaded 2-core x86 VM, the interquartile range of the
    raw pass times was 19% of their median and that of the scaled ones 5%.
    Under load the probe slows somewhat more than the program does, so
    scaled times then read a little low.  The probe adds about one percent
    to the work, the same on every commit.
    """

    INTERVAL = 0.08
    NOMINAL = 5.2e-4  # probe seconds on an unloaded 2-core x86 box

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_work()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scaled(self, fn, *args):
        """fn(*args), its wall and CPU seconds scaled to nominal speed, and
        its raw wall seconds."""
        seen = len(self.samples)
        cpu0 = _cpu()
        t0 = time.perf_counter()
        res = fn(*args)
        wall = time.perf_counter() - t0
        cpu = _cpu() - cpu0
        if len(self.samples) == seen:
            self._tick(None, None)
        scale = self.NOMINAL / statistics.median(self.samples[seen:])
        return res, wall * scale, cpu * scale, wall


class Run:
    """Units attempted and failed, problems, and the work counters of each
    pass, which must all be identical."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes: list[dict] = []

    def add(self, res: Result, pass_no: int) -> None:
        while len(self.passes) <= pass_no:
            self.passes.append({})
        self.attempted += res.units
        self.failed += res.failed
        if res.problem and len(self.problems) < 20:
            self.problems.append(res.problem)
        counters = self.passes[pass_no]
        for key, val in res.counters.items():
            counters[key] = counters.get(key, 0) + val if isinstance(val, int) else val

    def counters_agree(self) -> bool:
        return all(c == self.passes[0] for c in self.passes)


def measure(wl, inputs, seconds, run: Run, probe: SpeedProbe) -> tuple[dict, float]:
    """Run the planned pass several times; each unit's time is the median
    of its scaled times across the passes.  Also returns the raw wall time
    counted the same way."""
    passes = max(wl.passes, round(seconds / wl.pass_cost))
    walls = [[] for _ in inputs]
    cpus = [[] for _ in inputs]
    raws = [[] for _ in inputs]
    for p in range(passes):
        for i, x in enumerate(inputs):
            res, wall, cpu, raw = probe.scaled(wl.unit, x)
            run.add(res, p)
            walls[i].append(wall)
            cpus[i].append(cpu)
            raws[i].append(raw)
    wall = sum(map(statistics.median, walls))
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "throughput": {"value": run.attempted // passes / wall, "unit": "1/s"},
        "cpu_s": {"value": sum(map(statistics.median, cpus)), "unit": "s"},
    }
    return metrics, sum(map(statistics.median, raws))


def measure_traced(wl, inputs, run: Run, claims) -> dict:
    from spans import Tracer, layer_metrics  # bench/ is on sys.path

    tracer = Tracer()
    wall = traced_wall = 0.0
    claim_s: dict[str, float] = {}
    for x in inputs:
        # untraced and traced back to back, so both see the same machine load
        res, dt, _ = timed_unit(wl, x)
        run.add(res, 0)
        wall += dt
        for slug, secs in res.claim_s.items():
            claim_s[slug] = claim_s.get(slug, 0.0) + secs
        with tracer:
            res, dt, _ = timed_unit(wl, x)
        run.add(res, 1)
        traced_wall += dt
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{wl.name}.tsv")
    return layer_metrics(tracer, wall, traced_wall, claim_s, claims)


def context(args) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            commit = path.read_text().strip() if path.is_file() else None
        else:
            commit = ref
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "dichroma").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": src.hexdigest()[:16],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    _load_package()
    ref = json.loads((BENCH / "reference.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload](ref, args.seed, args.seconds)

    run = Run()
    extra = {}
    if args.trace:
        inputs = wl.setup()
        metrics = measure_traced(wl, inputs, run, ref["verify-full"]["claims"])
        declared = spec["per_layer"]
    else:
        with SpeedProbe() as probe:
            setups = [probe.scaled(wl.setup) for _ in range(SETUP_REPS)]
            inputs = setups[0][0]
            metrics, raw = measure(wl, inputs, args.seconds, run, probe)
        metrics["setup_s"] = {"value": statistics.median(s[1] for s in setups), "unit": "s"}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        declared = spec["end_to_end"]
        extra = {
            "raw_wall_s": raw,
            "raw_setup_s": statistics.median(s[3] for s in setups),
            "probe_median_us": 1e6 * statistics.median(probe.samples),
        }
    if {m["name"]: m["unit"] for m in declared} != {k: v["unit"] for k, v in metrics.items()}:
        raise SystemExit("error: reported metrics differ from those BENCHMARK.json declares")

    agree = run.counters_agree()
    if not agree:
        run.problems.append(f"work counters differ between passes: {run.passes}")
    for p in run.problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(
        {"context": context(args), "counters": run.passes[0], **extra}, sort_keys=True
    ))
    print(json.dumps({
        "correct": run.failed == 0 and agree,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if run.failed == 0 and agree else 1


if __name__ == "__main__":
    sys.exit(main())
