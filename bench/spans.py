"""Span tracing for the benchmark's traced runs.

A Tracer patches the functions of each dichroma layer (the package
modules) with wrappers that record one span per call: its name, start, end
and parent, the parent taken from a span stack.  Spans are kept in compact
arrays and turned into per-layer self times and counts after the run.
Nothing in the dichroma package itself is changed; the wrappers live here,
and uninstall() puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

PACKAGE = "dichroma"
LAYERS = (
    "canon",
    "solver",
    "enumeration",
    "formats",
    "structure",
    "reductions",
    "surfaces",
    "cli",
)

# private entry points the benchmark drives directly: the census worker
# (one underlying graph through the orientation stream) and the tournament
# bound chunk worker
PRIVATE_ENTRY = {
    "enumeration": ("_census_graph_task",),
    "solver": ("_bound_chunk",),
}

NONE = -1  # span value of a call that returned None
RAISED = -2  # span value of a call that raised


def _default_value(result) -> int:
    return NONE if result is None else 1


# what a span keeps of its result; everything else keeps only None/not None
_VALUE = {
    "enumeration.gen_graphs": len,
    "enumeration.gen_tournaments": len,
    "enumeration.gen_orientations": len,
    "enumeration._census_graph_task": lambda r: r["candidates"],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_arg_n = array("i")  # order of a Digraph first argument, else -1
        self.sp_value = array("q")
        self.sp_t0 = array("d")
        self.sp_t1 = array("d")
        self.kept: dict[int, object] = {}  # span -> result, census tasks only
        self.stack: list[int] = []
        self._patches_made: list | None = None

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        value_of = _VALUE.get(name, _default_value)
        keep = name == "enumeration._census_graph_task"
        stack = self.stack
        sp_name, sp_parent, sp_arg_n = self.sp_name, self.sp_parent, self.sp_arg_n
        sp_value, sp_t0, sp_t1 = self.sp_value, self.sp_t0, self.sp_t1
        kept = self.kept
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(sp_name)
            sp_name.append(nid)
            sp_parent.append(stack[-1] if stack else -1)
            first = args[0] if args else None
            sp_arg_n.append(first.n if hasattr(first, "rows") else -1)
            sp_value.append(RAISED)
            sp_t1.append(0.0)
            stack.append(idx)
            sp_t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                sp_t1[idx] = clock()
                stack.pop()
            sp_value[idx] = value_of(result)
            if keep:
                kept[idx] = result
            return result

        return traced

    def _patches(self) -> list[tuple[object, str, object, object]]:
        """(module, name, original, wrapper) for every layer function, in
        every dichroma module that binds it."""
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        patches = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            private = PRIVATE_ENTRY.get(layer, ())
            for attr, obj in sorted(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in private:
                    continue
                wrapped = self._wrap(obj, f"{layer}.{attr}")
                for m in modules:
                    for bound, val in vars(m).items():
                        if val is obj:
                            patches.append((m, bound, obj, wrapped))
        return patches

    def install(self) -> None:
        if self._patches_made is None:
            self._patches_made = self._patches()
        for m, bound, _, wrapped in self._patches_made:
            setattr(m, bound, wrapped)

    def uninstall(self) -> None:
        for m, bound, obj, _ in self._patches_made or ():
            setattr(m, bound, obj)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self) -> list[tuple[str, int, float, float, int, int]]:
        """(name, parent, duration, self time, arg order, value) per span.

        Self time is the span's duration minus the durations of its direct
        children, which nest strictly inside it on one thread.
        """
        n = len(self.sp_name)
        dur = [self.sp_t1[i] - self.sp_t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.sp_parent[i]
            if p >= 0:
                child[p] += dur[i]
        return [
            (
                self.names[self.sp_name[i]],
                self.sp_parent[i],
                dur[i],
                dur[i] - child[i],
                self.sp_arg_n[i],
                self.sp_value[i],
            )
            for i in range(n)
        ]

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, one per span."""
        with open(path, "w") as fh:
            fh.write("index\tname\tparent\tstart\tend\targ_n\tvalue\n")
            for i in range(len(self.sp_name)):
                fh.write(
                    f"{i}\t{self.names[self.sp_name[i]]}\t{self.sp_parent[i]}\t"
                    f"{self.sp_t0[i]:.9f}\t{self.sp_t1[i]:.9f}\t"
                    f"{self.sp_arg_n[i]}\t{self.sp_value[i]}\n"
                )


COLOUR = ("solver.is_k_dicolourable", "solver.is_list_dicolourable")
GEN = ("enumeration.gen_graphs", "enumeration.gen_tournaments", "enumeration.gen_orientations")
ARBORICITY = ("enumeration.arboricity", "enumeration.edge_arboricity")
TASK = "enumeration._census_graph_task"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall: float, traced_wall: float, claim_s: dict, claims) -> dict:
    """Per-layer self times and work counts from a traced pass.

    wall is the untraced time of the same work; claim_s holds the per-claim
    seconds verify-paper reported on the untraced pass.
    """
    from dichroma.formats import d6_decode

    spans = tracer.spans()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, list[int]] = {}
    for i, (name, _, _, self_s, _, _) in enumerate(spans):
        layer_self[name.split(".", 1)[0]] += self_s
        by_name.setdefault(name, []).append(i)

    def of(names):
        return [i for n in names for i in by_name.get(n, ())]

    def self_of(names):
        return sum(spans[i][3] for i in of(names))

    def layer(i):
        return spans[i][0].split(".", 1)[0]

    canon_entry = [
        i for i, s in enumerate(spans)
        if s[0].startswith("canon.") and (s[1] < 0 or layer(s[1]) != "canon")
    ]
    colour = of(COLOUR)
    colour_self = self_of(COLOUR)
    tasks = of([TASK])
    task_order = {i: d6_decode(tracer.kept[i]["graph"]).n for i in tasks}
    prefix = final = prefix_pass = final_pass = 0
    for i in colour:
        order = task_order.get(spans[i][1])
        if order is None:
            continue  # not a filter call of a census task
        if spans[i][4] < order:
            prefix += 1
            prefix_pass += spans[i][5] != NONE
        else:
            final += 1
            final_pass += spans[i][5] == NONE
    gen = of(GEN)
    gen_ids = set(gen)
    classes = sum(spans[i][5] for i in gen)
    gen_certs = sum(
        1 for i in by_name.get("canon.canonical_cert", ()) if spans[i][1] in gen_ids
    )
    dicritical = of(["solver.is_dicritical"])
    acyclic = of(["solver.max_induced_acyclic"])
    span_self = sum(s[3] for s in spans)

    values = {
        "canon.calls": (len(canon_entry), "count"),
        "canon.us_per_call": (1e6 * _ratio(layer_self["canon"], len(canon_entry)), "us"),
        "solver.colour_calls": (len(colour), "count"),
        "solver.colour_self_s": (colour_self, "s"),
        "solver.colour_us_per_call": (1e6 * _ratio(colour_self, len(colour)), "us"),
        "solver.colour_yes_ratio": (
            _ratio(sum(spans[i][5] != NONE for i in colour), len(colour)), "ratio"),
        "solver.dicritical_calls": (len(dicritical), "count"),
        "solver.dicritical_self_s": (self_of(["solver.is_dicritical"]), "s"),
        "solver.acyclic_calls": (len(acyclic), "count"),
        "solver.acyclic_self_s": (self_of(["solver.max_induced_acyclic"]), "s"),
        "enumeration.stream_self_s": (self_of([TASK]), "s"),
        "enumeration.candidates": (sum(spans[i][5] for i in tasks), "count"),
        "enumeration.prefix_pass_ratio": (_ratio(prefix_pass, prefix), "ratio"),
        "enumeration.final_pass_ratio": (_ratio(final_pass, final), "ratio"),
        "enumeration.found": (sum(len(tracer.kept[i]["dicritical"]) for i in tasks), "count"),
        "enumeration.gen_self_s": (self_of(GEN), "s"),
        "enumeration.classes": (classes, "count"),
        "enumeration.certs_per_class": (_ratio(gen_certs, classes), "ratio"),
        "enumeration.arboricity_s": (sum(spans[i][2] for i in of(ARBORICITY)), "s"),
    }
    for name in LAYERS:
        values[f"{name}.self_s"] = (layer_self[name], "s")
    for slug in claims:
        values[f"cli.claim_s.{slug}"] = (claim_s.get(slug, 0.0), "s")
    values.update({
        "trace.spans": (len(spans), "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (wall, "s"),
        "trace.overhead_s": (traced_wall - wall, "s"),
        "trace.overhead_frac": (_ratio(traced_wall - wall, wall), "ratio"),
        "trace.span_self_s": (span_self, "s"),
        "trace.span_coverage": (_ratio(span_self, traced_wall), "ratio"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
