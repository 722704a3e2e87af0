"""Per-layer tracing for the doctrines benchmark, installed from outside the library.

`install()` wraps every public module-level function of each layer (a module
of the `doctrines` package) and rebinds the wrapper wherever the original is
bound: in its own module and under every `from .x import f` name in the other
modules. One wrapper per function means a call is recorded once, whichever
name it was reached through. Methods of the library's classes are not
wrapped, so their time counts toward the layer that calls them.

Each call becomes a span (id, function, start, end, parent id, self time).
Self time is the span minus the full footprint of its child spans, wrapper
cost included, so tracing cost does not leak into a layer's self time. Spans
stay in memory in the request's process until the request ends and go back
to the benchmark with its result. `PassStats` sums a pass of requests, and
`aggregate` turns traced passes into the per-layer metrics in `METRICS`.
Counts are read from the arguments and results of wrapped calls, so they
repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("cli", "suite", "temporal", "instances", "comonad", "adjunction", "interior", "doctrine", "fincat", "order")


class Recorder:
    """Spans and counts of one request process.

    Spans are packed six numbers each (see SPAN_FIELDS) into one array of
    doubles, which keeps a request with millions of helper calls small."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("d")
        self.counts: Counter = Counter()
        self.stack: list[list] = []
        self.ids = itertools.count()

    def functions(self) -> dict[str, list]:
        """Calls, self time and total time per wrapped function."""
        out = {}
        s = self.spans
        for i in range(0, len(s), 6):
            row = out.setdefault(self.names[int(s[i + 1])], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s[i + 5]
            row[2] += s[i + 3] - s[i + 2]
        return out


SPAN_FIELDS = ("id", "function", "start", "end", "parent", "self")


def install() -> Recorder:
    """Wrap every layer's public functions; returns the recorder they feed."""
    rec = Recorder()
    package = importlib.import_module("doctrines")
    modules = {layer: importlib.import_module(f"doctrines.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            public = not attr.startswith("_") and getattr(obj, "__module__", None) == mod.__name__
            if public and (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                wrapped[id(obj)] = (obj, _wrap(rec, f"{layer}.{attr}", obj))
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return rec


def _wrap(rec: Recorder, name: str, fn):
    fid = len(rec.names)
    rec.names.append(name)
    count = COUNTERS.get(name)
    clock = time.perf_counter
    ids, stack, push, counts = rec.ids, rec.stack, rec.spans.extend, rec.counts

    def wrapper(*args, **kwargs):
        t_in = clock()
        sid = next(ids)
        parent = stack[-1][0] if stack else -1
        frame = [sid, 0.0]
        stack.append(frame)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            stack.pop()
            push((sid, fid, t0, t1, parent, t1 - t0 - frame[1]))
            if stack:
                stack[-1][1] += clock() - t_in
        if count is not None:
            t_count = clock()
            count(counts, args, result)
            if stack:
                stack[-1][1] += clock() - t_count
        return result

    return functools.update_wrapper(wrapper, fn)


# ---------------------------------------------------------------- counters


def _lattice_entries(c, args, lat):
    c["order.lattice_table_entries"] += 2 * len(lat.carrier.elements) ** 2


def _monotone_pairs(c, args, result):
    c["order.monotone_pairs"] += len(args[0].src.relation)


def _gfp_trace(c, args, trace):
    c["temporal.gfp_iterations"] += len(trace) - 2
    c["temporal.psi_reads"] += len(trace) - 1
    c["temporal.psi_built"] += 2 ** len(args[0].states)


def _fibers_built(c, args, result):
    parts = result if isinstance(result, tuple) else (result,)
    docs = {}
    for part in parts:
        for doc in (part, getattr(part, "doctrine", None), getattr(part, "p", None), getattr(part, "q", None)):
            if hasattr(doc, "fibers") and hasattr(doc, "base"):
                docs[id(doc)] = doc
    c["instances.fiber_elements_built"] += sum(
        len(f.elements) for doc in docs.values() for f in doc.fibers.values()
    )


def _arrows(c, n):
    c["fincat.law_scans"] += 1
    c["fincat.arrows_scanned"] += n


def _composable_pairs(c, args, result):
    base = args[0].base
    sources = Counter(s for (_, s, _) in base.arrows)
    c["doctrine.composable_pairs"] += sum(sources[d] for (_, _, d) in base.arrows)


def _interior_elements(c, args, result):
    doc = args[0].doctrine
    c["interior.fiber_elements"] += sum(len(doc.fibers[x].elements) for x in doc.base.objects)


COUNTERS = {
    "order.powerset_lattice": _lattice_entries,
    "order.lattice_from_poset": _lattice_entries,
    "order.monotone_violations": _monotone_pairs,
    "temporal.gfp_modality_trace": _gfp_trace,
    "fincat.category_violations": lambda c, a, r: _arrows(c, len(a[1])),
    "fincat.functor_violations": lambda c, a, r: _arrows(c, len(a[0].src.arrows)),
    "fincat.nat_violations": lambda c, a, r: _arrows(c, len(a[0].src.src.arrows)),
    "fincat.adjunction_cat": lambda c, a, r: _arrows(c, len(a[0].src.arrows) + len(a[0].dst.arrows)),
    "fincat.comonad_cat_violations": lambda c, a, r: _arrows(c, len(a[0].src.arrows)),
    "doctrine.doctrine_violations": _composable_pairs,
    "interior.interior_violations": _interior_elements,
}

# The instance builders: every `instances` function that returns a built doctrine.
BUILDERS = ("powerset_doctrine", "kripke_doctrine", "fam_doctrine", "topological_doctrine", "quantale_doctrine", "presheaf_instance", "forall_instance")
COUNTERS.update({f"instances.{b}": _fibers_built for b in BUILDERS})

GROUPS = {
    "order.poset_build": ("poset_violations", "check_poset", "close_relation", "fin_poset", "chain_poset", "antichain_poset", "sub_poset", "product_poset", "powerset_poset"),
    "temporal.gfp_modality": ("gfp_modality", "gfp_modality_trace"),
    "temporal.oracle": ("oracle_for", "g_oracle", "ag_oracle", "eg_oracle"),
    "instances.builders": BUILDERS,
    "cli.parse": ("parse", "parse_text", "tokenize"),
}

CRITERIA = (
    "interior_suite", "am_modality", "factorization", "factorization2", "comonad_suite", "comparison",
    "local_adjunction", "triviality", "bang_laws", "temporal", "presheaf_oracle",
)

# ----------------------------------------------------------------- metrics


class PassStats:
    """Calls, self time and total time per function over one pass, plus counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.refusals = 0

    def add(self, functions: dict[str, list], counts: dict, refusals: int):
        for name, (calls, self_s, total_s) in functions.items():
            self.calls[name] += calls
            self.self_s[name] += self_s
            self.total_s[name] += total_s
        self.counts.update(counts)
        self.refusals += refusals

    def group(self, group: str) -> tuple[str, ...]:
        layer = group.split(".")[0]
        return tuple(f"{layer}.{f}" for f in GROUPS.get(group, (group.split(".", 1)[1],)))

    def group_self(self, group: str) -> float:
        return sum(self.self_s[n] for n in self.group(group))

    def layer_self(self, layer: str) -> float:
        return sum(v for n, v in self.self_s.items() if n.split(".")[0] == layer)


def _metric_table():
    """(name, unit, better, value of one pass) for every per-layer metric."""
    table = [(f"{layer}.self_s", "s", "lower", lambda p, l=layer: p.layer_self(l)) for layer in LAYERS if layer != "suite"]

    def calls(fn):
        return (f"{fn}.calls", "count", "lower", lambda p: p.calls[fn])

    def self_of(group):
        return (f"{group}.self_s", "s", "lower", lambda p: p.group_self(group))

    def count(name):
        return (name, "count", "lower", lambda p: p.counts[name])

    table += [
        calls("order.powerset_lattice"), self_of("order.powerset_lattice"), count("order.lattice_table_entries"),
        self_of("order.gfp_trace"),
        calls("order.monotone_violations"), self_of("order.monotone_violations"), count("order.monotone_pairs"),
        self_of("order.poset_build"),
        calls("temporal.gfp_modality"), self_of("temporal.gfp_modality"), count("temporal.gfp_iterations"),
        ("temporal.oracle.calls", "count", "lower", lambda p: sum(p.calls[f"temporal.{f}"] for f in ("g_oracle", "ag_oracle", "eg_oracle"))),
        self_of("temporal.oracle"),
        ("temporal.psi_used_ratio", "ratio", "higher", lambda p: p.counts["temporal.psi_reads"] / max(p.counts["temporal.psi_built"], 1)),
        self_of("instances.builders"), count("instances.fiber_elements_built"),
        count("fincat.law_scans"), count("fincat.arrows_scanned"),
        calls("doctrine.doctrine_violations"), count("doctrine.composable_pairs"),
        calls("interior.interior_violations"), count("interior.fiber_elements"),
        calls("adjunction.adjunction_violations"), self_of("adjunction.factorize2_report"),
        calls("comonad.em_doctrine"), self_of("comonad.em_doctrine"), self_of("comonad.em_universal_factor"),
        calls("cli.main"), self_of("cli.main"), self_of("cli.parse"), self_of("cli.build_workspace"),
        ("cli.refusals", "count", "lower", lambda p: p.refusals),
    ]
    for i, crit in enumerate(CRITERIA, start=1):
        table.append((f"suite.criterion_{i:02d}_s", "s", "lower", lambda p, n=f"suite.criterion_{crit}": p.total_s[n]))
    return table


METRICS = _metric_table()
OVERHEAD = ("trace.overhead_frac", "frac", "lower")


def aggregate(passes: list[PassStats], overhead: float) -> dict:
    """Per-layer metrics: counts from the first traced pass (every pass repeats
    them), times as the median over traced passes, and the tracing overhead
    (traced run_s over plain run_s, minus 1)."""
    out = {}
    for name, unit, _, value in METRICS:
        vals = [value(p) for p in passes]
        out[name] = {"value": vals[0] if unit in ("count", "ratio") else float(statistics.median(vals)), "unit": unit}
    out[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
    return out
