"""Layer sweeps of the order kernel, the Kripke doctrine, the quantale
doctrine, the function category, the temporal oracle sweep and the temporal
and topological doctrines, the whole `check` of a Kripke chain and of a
chain of one-element presheaves, and the import of the command line,
written to a BENCH_*.json file, and a check that two checkouts write the
same reports; standard library only.

    python tools/layer_sweep.py layers --parent ../parent --change . --out BENCH_17.json
    python tools/layer_sweep.py layers --parent ../parent --change . --rows presheaf-worlds --out BENCH_38.json
    python tools/layer_sweep.py import --parent ../parent --change . --out BENCH_18.json
    python tools/layer_sweep.py end-to-end --parent ../parent --change . \\
        --workload modal --seeds 40 41 42 --out BENCH_17.json
    python tools/layer_sweep.py reports --parent ../parent --change . --seeds 0 1 2 3 4 5
    python tools/layer_sweep.py suite --parent ../parent --change . --out BENCH_33.json

`layers` times, on Kripke chains of 8-17 worlds with one carrier D = {x}:
`powerset_poset` of the worlds, `_pointwise_fiber` with one key over that
powerset, the `kripke_doctrine` build, `monotone_violations` of its box at
D, `interior_violations` of its operator and `em_doctrine(mc(op))`. `_pointwise_fiber` with two keys is
timed on 3-6 worlds: its fiber has 4^n elements and 9^n related pairs, so
at 8 worlds it would hold 43 M pairs as a pair set. The quantale row times,
on the 4-chain Łukasiewicz quantale Q (x⊗y = max(0, x+y−3) on ranks 0-3)
over one carrier X of 2-4 points, `quantale_doctrine`, `adjunction_violations`
of its vertical adjunction and `em_doctrine(mc(bang))` together, from a
fresh build each time; its fiber Q^X has 4^|X| elements. `bang_law_violations`
is timed on the same Q and X twice, with Q's own core and with `fake_core(q)`,
which keeps every element, so law (2) fails and its witnesses are listed; its
rows keep the label `bang_law_suite`, the function's earlier name, so that
they compare with the rows recorded before.
`full_function_category` is timed at A = 243, 428 and 1,024 arrows: on 3
carriers of 3 points, on carriers of 4 and 3 points, and on 2 carriers of 4
points; its rows also have the interpreter's peak RSS.

The CHANGE_ONLY rows run on the change checkout alone, since before
composites were looked up on demand they took 18 s and 937 MB, and 40 s and
2 GB: `full_function_category` at A = 3,125 (one carrier of 5 points) and at
A = 46,656 (one carrier of 6 points, which ran out of memory before the
function categories walked by decreasing image size), and
on the same Q over one carrier X of 5 points, `quantale_doctrine`, then
`em_doctrine(mc(bang))` of its bang, each timed once per interpreter, with
the interpreter's peak RSS after both. `temporal.oracle_mismatches`,
the 2^n sweep that checks the gfp box against its oracle for every subset, is
timed on a seeded random tree (both lifts, 0-3 successors per state) and a
seeded random stream of 10-20 states; `temporal.gfp_modality`, the one-α
box of the `temporal` command, is timed on the same tree and stream over
100 seeded subsets α, each boxed on its own under every lift of the kind.
Each measurement runs in a fresh interpreter that imports the library from
one checkout's `src`, compiled to bytecode beforehand (an interpreter that
may not write bytecode would otherwise compile each edited module on every
import, in the time and peak RSS of its row), and the two checkouts take
turns at each size, `ROUNDS` times; a row is the best of each side's
timings (`REPEATS` per interpreter), to 4 significant digits. A temporal row is the best of
`TEMPORAL_ROUNDS` interpreters, each timing the sweep once, since the sweep
before its bitmask rewrite took over a minute at 18 states, and the sweep
before its planes 19 s at 20. A `check` row runs the
command line's `check` on a Kripke chain of 12-18 worlds once per fresh
interpreter, and records the best time and the least peak RSS of the
interpreter over `ROUNDS` of them; a `presheaf check` row does the same on
a chain of 8-16 worlds with a presheaf of one element at each, whose 2^n
families the presheaf oracle checks one by one (16 worlds on the change
checkout alone). A `temporal_doctrine` row (`--hom-states`, 4-8 states)
builds the doctrine over two seeded random streams (the stream lift) and
over two seeded random trees (the forall lift, 0-3 successors per state),
most of whose cost before the hom search was testing every function
between them (8 states on the change checkout alone: two streams took
139 s); a `topological_doctrine` row (`--space-points`, 3-7 points) builds
it over two chain spaces, whose opens are the up-sets of the chain. Each
is timed once per interpreter, with the interpreter's peak RSS.
`--rows` limits `layers` to the rows of the named size flags. `measure`
writes each row as one JSON line as soon as it is timed, so a run killed
during a slow row keeps the rows before it.

`import` times `import doctrines.cli` in fresh `python -S` interpreters
(no site hook imports anything first), each importing from one checkout's
`src` compiled to bytecode beforehand, the two sides taking turns one
interpreter at a time, `IMPORT_ROUNDS` per side. Its row has each
side's best and median time and the number of modules the import loaded.
Each of those interpreters then runs `main(["--json", "check", FILE])` on
the model of the CLI tests (`bench/workloads.py` GATE_MODEL), its report
written to a `StringIO`: the `cold check` row times the whole of it, import
included, as a command process pays it. Last, each interpreter times its
first `parse_argv` call on each command line of `PARSE_ARGV`: a fully
spelled one, which the parser reads itself, and one it hands to argparse
(`--js` abbreviates `--json`). The `cold check` and the two `parse` rows
have each side's best and median time.

`suite` times each acceptance criterion of `suite.run_acceptance`, in the
order it runs them, at each seed the `gate` workload asks `--json suite` at
(7, 1, 2 and 3): one fresh interpreter per side and seed runs the eleven
criteria once each, as a `suite` request's process does, and the two sides
take turns, `ROUNDS` times; a row is each side's best time for one
criterion at one seed. Then at each of those seeds one more interpreter per
side runs the criteria once under a profile hook, and a `suite_kept_builds`
row records exact counts: the runs of the code of each build the change
keeps with `order.kept`, by build and in all (a build the parent does not
keep is counted by its own code), and how many lookups `order.kept`
answered with the result kept on an equal value. Last, the `suite import`
row times `from doctrines import suite` after `import doctrines.cli`, as the
`suite` command pays it, in fresh `python -S` interpreters from each
checkout's `src`, the two sides taking turns one interpreter at a time,
`IMPORT_ROUNDS` per side: each side's best and median time, and the number
of modules it loaded.

`end-to-end` copies the `src` and `bench` of both checkouts to a temporary
directory, runs `bench/run.py` in the two copies in turn, alternating which
goes first, adds every run to those already recorded for the workload, and
records the per-side medians of all of them.

`reports` copies the `src` of both checkouts to a temporary directory and
runs every distinct request of `bench/workloads.py` `requests_for` for the
`temporal`, `modal` and `gate` workloads at each seed, as the benchmark
writes it (with `--json`) and without `--json`, once on each copy, each run
in a fresh `python -S` interpreter reading the same model file. It prints
each request whose exit status, stdout or stderr differs between the two,
then the count, and exits 1 if any differs.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import GATE_MODEL, Request, requests_for  # noqa: E402
ONE_KEY_WORLDS = range(8, 18)
TWO_KEY_WORLDS = range(3, 7)
REPEATS = 3  # timings per layer in one interpreter
ROUNDS = 4  # interpreters per checkout and size, so a row is the best of 12 timings
# arrows A = Σ |Y|^|X| over ordered pairs of carriers -> the carrier sizes
FUNCTION_CARRIERS = {243: (3, 3, 3), 428: (4, 3), 1024: (4, 4), 3125: (5,), 46656: (6,)}
QUANTALE_POINTS = range(2, 6)
# (flag, size) of the rows measured on the change checkout alone
CHANGE_ONLY = {("--arrows", 3125), ("--arrows", 46656), ("--quantale-points", 5), ("--presheaf-worlds", 16),
               ("--hom-states", 8)}
TEMPORAL_STATES = range(10, 21, 2)
TEMPORAL_ROUNDS = 2
ONE_ALPHA_COUNT = 100  # one box takes well under a millisecond, so a row times 100
CHECK_WORLDS = range(12, 19)
PRESHEAF_WORLDS = (8, 10, 12, 16)
HOM_STATES = range(4, 9)
SPACE_POINTS = range(3, 8)
# the size flags of `measure` that `layers` sweeps, as `--rows` names them
SIZE_FLAGS = ("worlds", "arrows", "quantale-points", "states", "check-worlds", "presheaf-worlds", "hom-states",
              "space-points")
SUITE_SEEDS = (7, 1, 2, 3)  # the seeds of the `gate` workload's `--json suite` requests
# the criteria of `suite.run_acceptance` in its order, and those that take the seed
CRITERIA = ("interior_suite", "am_modality", "factorization", "factorization2", "comonad_suite", "comparison",
            "local_adjunction", "triviality", "bang_laws", "temporal", "presheaf_oracle")
SEEDED = ("am_modality", "temporal")
IMPORT_ROUNDS = 20
# a command line `parse_argv` reads itself, and one it hands to argparse
PARSE_ARGV = {
    "exact": ["--json", "--max-size", "1000000000000000", "temporal", "FILE", "--coalgebra", "M", "--op", "EG",
              "--alpha", "{s0,s1}"],
    "handed on": ["--js", "check", "F"],
}
# run as `python -S -c IMPORT_PROBE SRC FILE`: the seconds `import
# doctrines.cli` takes, the number of modules it adds, the seconds of the
# import and a `--json check` of FILE together, and the seconds of the first
# `parse_argv` call on each PARSE_ARGV command line, in that order
IMPORT_PROBE = (
    "import io, sys, time; sys.path.insert(0, sys.argv[1]); n = len(sys.modules); t = time.perf_counter(); "
    "import doctrines.cli; out = [time.perf_counter() - t, len(sys.modules) - n]\n"
    "stdout, sys.stdout = sys.stdout, io.StringIO(); rc = doctrines.cli.main(['--json', 'check', sys.argv[2]])\n"
    "sys.stdout = stdout; out.append(time.perf_counter() - t)\n"
    "if rc != 0: raise SystemExit(f'check exited {rc}')\n"
    f"for argv in {list(PARSE_ARGV.values())!r}:\n"
    "    t = time.perf_counter(); doctrines.cli.parse_argv(argv); out.append(time.perf_counter() - t)\n"
    "print(*out)"
)
# run as `python -S -c SUITE_IMPORT_PROBE SRC`: the seconds `from doctrines
# import suite` takes after `import doctrines.cli`, and the modules it adds
SUITE_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import doctrines.cli; n = len(sys.modules); "
    "t = time.perf_counter(); from doctrines import suite; print(time.perf_counter() - t, len(sys.modules) - n)"
)
METRICS = ("setup_s", "run_s", "latency_p50_s", "latency_tail_s", "peak_rss_mb", "ops_ok_frac")
REPORT_WORKLOADS = ("temporal", "modal", "gate")
# run as `python -S -c RUN_CLI SRC ARGV...`: the command line on the library in SRC
RUN_CLI = "import sys; sys.path.insert(0, sys.argv.pop(1)); from doctrines.cli import main; sys.exit(main(sys.argv[1:]))"


def _sig(s: float) -> float:
    """`s` to 4 significant digits, so a sub-millisecond row keeps as many as a slow one."""
    return float(f"{s:.4g}")


def _best(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return min(times)


def _rss_mb() -> float:
    """This interpreter's peak RSS so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kilobytes on Linux


def measure(n: int):
    """The layer rows at n worlds, each yielded as soon as it is timed in this interpreter."""
    from doctrines.comonad import em_doctrine, mc
    from doctrines.instances import KripkeFrame, _pointwise_fiber, kripke_doctrine
    from doctrines.interior import InteriorOp, interior_violations
    from doctrines.order import monotone_violations, powerset_poset

    worlds = [f"w{i}" for i in range(n)]
    p = powerset_poset(worlds)
    if n in TWO_KEY_WORLDS:
        yield {"layer": "_pointwise_fiber", "keys": 2, "worlds": n, "s": _best(lambda: _pointwise_fiber(["x", "y"], [p, p]))}
        return
    frame = KripkeFrame(tuple(worlds), frozenset((a, b) for i, a in enumerate(worlds) for b in worlds[i:]))
    built = []

    def build():
        built.clear()
        built.append(kripke_doctrine(frame, {"D": ["x"]}))

    def fresh_op():
        """A new operator value, so no verdict or construction kept on it is reused."""
        return InteriorOp(built[-1][0], built[-1][1].parts)

    rows = [
        ("powerset_poset", lambda: powerset_poset(worlds)),
        ("_pointwise_fiber", lambda: _pointwise_fiber(["x"], [p])),
        ("kripke_doctrine", build),
        ("monotone_violations", lambda: monotone_violations(fresh_op().parts["D"])),
        ("interior_violations", lambda: interior_violations(fresh_op())),
        ("em_doctrine(mc(op))", lambda: em_doctrine(mc(fresh_op()))),
    ]
    for name, fn in rows:
        yield {"layer": name, "keys": 1, "worlds": n, "s": _best(fn)}


def measure_quantale(n: int):
    """The quantale rows at |X| = n, timed in this interpreter."""
    from doctrines.adjunction import adjunction_violations
    from doctrines.comonad import em_doctrine, mc
    from doctrines.instances import bang_law_violations, fake_core, quantale_doctrine, valid_quantale
    from doctrines.order import chain_poset, lattice_from_poset

    ranks = ["0", "a", "b", "1"]
    tensor = {(x, y): ranks[max(0, i + j - 3)] for i, x in enumerate(ranks) for j, y in enumerate(ranks)}
    q = valid_quantale("luk4", lattice_from_poset(chain_poset(ranks)), tensor, "1")
    sets = {"X": [f"x{i}" for i in range(n)]}
    if ("--quantale-points", n) in CHANGE_ONLY:
        t = time.perf_counter()
        bang = quantale_doctrine(q, sets)[2]
        built = time.perf_counter() - t
        t = time.perf_counter()
        em_doctrine(mc(bang))
        em = time.perf_counter() - t
        rss_mb = _rss_mb()
        yield {"layer": "quantale_doctrine", "points": n, "s": built, "peak_rss_mb": rss_mb}
        yield {"layer": "em_doctrine(mc(bang))", "points": n, "s": em, "peak_rss_mb": rss_mb}
        return

    def run():
        _, adj, bang = quantale_doctrine(q, sets)
        adjunction_violations(adj)
        em_doctrine(mc(bang))

    yield {"layer": "quantale", "points": n, "s": _best(run)}
    for core, override in {"real": None, "fake": fake_core(q)}.items():
        yield {"layer": "bang_law_suite", "core": core, "points": n, "s": _best(lambda: bang_law_violations(q, sets, override))}


def measure_function_category(arrows: int):
    """The `full_function_category` row at `arrows` arrows, timed in this
    interpreter, and the interpreter's peak RSS."""
    from doctrines.fincat import full_function_category

    sets = {f"X{i}": [f"x{i}_{j}" for j in range(m)] for i, m in enumerate(FUNCTION_CARRIERS[arrows])}
    s = _best(lambda: full_function_category(sets))
    rss_mb = _rss_mb()
    yield {"layer": "full_function_category", "arrows": arrows, "s": s, "peak_rss_mb": rss_mb}


def measure_temporal(n: int):
    """The `oracle_mismatches` rows at n states, a tree and a stream, timed once
    each in this interpreter on a coalgebra built afresh, so nothing kept on
    it from an earlier call is reused; then the `gfp_modality` rows, the
    `temporal` command's path, on the same coalgebras: `ONE_ALPHA_COUNT`
    seeded subsets α each boxed on its own under every lift of the kind."""
    from doctrines.temporal import gfp_modality, oracle_mismatches

    lifts = {"tree": ["forall", "exists"], "stream": ["stream"]}

    def coalgebra(kind: str):
        return _seeded_coalgebra(kind, n, "M", f"{kind}:{n}")

    def one_alpha_each(kind: str) -> float:
        c = coalgebra(kind)
        rng = random.Random(f"alpha:{kind}:{n}")
        alphas = [frozenset(s for s in c.states if rng.random() < 0.75) for _ in range(ONE_ALPHA_COUNT)]
        return _best(lambda: [gfp_modality(c, lift, a) for a in alphas for lift in lifts[kind]])

    for kind in ("tree", "stream"):
        yield {"layer": "oracle_mismatches", "kind": kind, "states": n,
               "s": _best(lambda: oracle_mismatches(coalgebra(kind), lifts[kind]), 1)}
    for kind in ("tree", "stream"):
        yield {"layer": "gfp_modality", "kind": kind, "states": n, "alphas": ONE_ALPHA_COUNT, "s": one_alpha_each(kind)}


def _seeded_coalgebra(kind: str, n: int, name: str, seed: str):
    """A coalgebra of n states drawn from `seed`: one successor per state, or 0-3."""
    from doctrines.temporal import FCoalgebra

    rng = random.Random(seed)
    states = tuple(f"s{i}" for i in range(n))
    if kind == "stream":
        return FCoalgebra(name, kind, states, {s: rng.choice(states) for s in states})
    return FCoalgebra(name, kind, states, {s: tuple(rng.choice(states) for _ in range(rng.randint(0, 3))) for s in states})


def measure_homs(n: int):
    """The `temporal_doctrine` rows at n states: on two seeded streams and on
    two seeded trees (the forall lift), each timed once in this interpreter,
    with the interpreter's peak RSS."""
    from doctrines.temporal import temporal_doctrine

    for kind, lift in (("stream", "stream"), ("tree", "forall")):
        pair = [_seeded_coalgebra(kind, n, name, f"{kind}:{n}:{name}") for name in "AB"]
        s = _best(lambda: temporal_doctrine(pair, lift), 1)
        yield {"layer": "temporal_doctrine", "kind": kind, "states": n, "s": s, "peak_rss_mb": _rss_mb()}


def measure_spaces(n: int):
    """The `topological_doctrine` row at n points: on two chain spaces of n
    points, whose opens are the n + 1 up-sets of the chain, timed once in
    this interpreter, with the interpreter's peak RSS."""
    from doctrines.instances import FiniteTopSpace, topological_doctrine

    def chain_space(name: str):
        points = tuple(f"{name}{i}" for i in range(n))
        return FiniteTopSpace(name, points, frozenset(frozenset(points[k:]) for k in range(n + 1)))

    spaces = [chain_space("a"), chain_space("b")]
    s = _best(lambda: topological_doctrine(spaces), 1)
    yield {"layer": "topological_doctrine", "points": n, "s": s, "peak_rss_mb": _rss_mb()}


def _chain(n: int) -> tuple[list[str], str]:
    """The worlds of an n-world chain and the `rel` entry of its covers."""
    worlds = [f"w{i}" for i in range(n)]
    return worlds, f"rel: {' '.join(f'{a}->{b}' for a, b in zip(worlds, worlds[1:]))}"


def measure_check(n: int):
    """The `check` row at n worlds: `doctrines --json check` on an n-world
    Kripke chain with one carrier, timed once in this interpreter, and the
    interpreter's peak RSS, import included."""
    worlds, rel = _chain(n)
    yield from _check_row("check", n, f"kripke-frame K {{ worlds: {' '.join(worlds)}; {rel}; closure: refl-trans; sets: D=x }}\n")


def measure_presheaf_check(n: int):
    """The `presheaf check` row at n worlds: as the `check` row, on an n-world
    chain and a presheaf holding one element at each world, acting along
    every arrow."""
    worlds, rel = _chain(n)
    model = (f"kripke-frame K {{ worlds: {' '.join(worlds)}; {rel} }}\n"
             f"presheaf P {{ frame: K; at: {' '.join(f'{w}={{a}}' for w in worlds)}; "
             f"act: {' '.join(f'{a}->{b}=a>a' for i, a in enumerate(worlds) for b in worlds[i + 1:])} }}\n")
    yield from _check_row("presheaf check", n, model)


def _check_row(layer: str, n: int, model: str):
    """`doctrines --json check` on `model`, timed once in this interpreter,
    and the interpreter's peak RSS, import included."""
    from doctrines.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.dct"
        path.write_text(model)
        t = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--json", "--max-size", str(10**15), "check", str(path)])
        s = time.perf_counter() - t
    if code != 0:
        raise SystemExit(f"{layer} on the {n}-world chain exited {code}")
    rss_mb = _rss_mb()
    yield {"layer": layer, "worlds": n, "s": s, "peak_rss_mb": rss_mb}


def measure_suite(seed: int):
    """The `suite` rows at `seed`: each criterion timed once, in order, in
    this interpreter, as one `suite` request runs them."""
    from doctrines import suite

    for i, name in enumerate(CRITERIA, start=1):
        run = getattr(suite, f"criterion_{name}")
        t = time.perf_counter()
        passed, _ = run(seed) if name in SEEDED else run()
        s = time.perf_counter() - t
        if not passed:
            raise SystemExit(f"criterion {i} failed at seed {seed}")
        yield {"layer": "suite", "criterion": i, "seed": seed, "s": s}


def measure_suite_counts(seed: int):
    """The counts of a `suite` request at `seed`, with the eleven criteria
    run once in this interpreter: the library's kept builds, as
    `module.name`; the runs of each library function's own code, by the same
    name (a kept build's code is its `__wrapped__`); and how many lookups
    `order.kept` answered with the result kept on an equal value (0 on a
    library that keeps by object alone)."""
    import importlib

    from doctrines import order, suite

    library = Path(order.__file__).parent
    modules = [importlib.import_module(f"doctrines.{path.stem}") for path in sorted(library.glob("[a-z]*.py"))]
    kept_code = order.kept(len).__code__  # the code every kept function shares
    kept = sorted(
        f"{m.__name__.split('.')[-1]}.{fn.__wrapped__.__qualname__}"
        for m in modules
        for fn in vars(m).values()
        if getattr(fn, "__code__", None) is kept_code and fn.__module__ == m.__name__
    )
    runs, answered = {}, [0]
    lookup = getattr(order, "_equal_copy", None)
    if lookup is not None:
        def counted(refs, v):
            found = lookup(refs, v)
            answered[0] += found is not None
            return found

        order._equal_copy = counted

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(str(library)):
            name = f"{Path(frame.f_code.co_filename).stem}.{frame.f_code.co_qualname}"
            runs[name] = runs.get(name, 0) + 1

    sys.setprofile(profile)
    try:
        passed = all((getattr(suite, f"criterion_{c}")(seed) if c in SEEDED else getattr(suite, f"criterion_{c}")())[0]
                     for c in CRITERIA)
    finally:
        sys.setprofile(None)
    if not passed:
        raise SystemExit(f"a criterion failed at seed {seed}")
    yield {"seed": seed, "kept": kept, "runs": runs, "equal_value_answers": answered[0]}


ABOUT = ("Written by tools/layer_sweep.py. layers: seconds, the best timing of the parent and of the change "
         "checkout, measured in turns on one machine; a check, presheaf check, full_function_category, "
         "temporal_doctrine, topological_doctrine or CHANGE_ONLY row also has each side's least peak RSS in MB; a CHANGE_ONLY row has the change side alone. "
         "import: `import doctrines.cli` in fresh `python -S` interpreters taking turns, each side's best and "
         "median seconds and the modules it loaded. cold_check: in the same interpreters, the import and a "
         "`--json check` of the CLI tests' model together, each side's best and median seconds. parse: then, in "
         "the same interpreters, the first `parse_argv` "
         "call on a command line it reads itself and on one it hands to argparse, each side's best and median "
         "seconds. suite: each acceptance criterion at each gate seed, a fresh interpreter per side and seed, each "
         "side's best seconds. suite_kept_builds: at each gate seed, one fresh interpreter per side running the "
         "criteria once: the runs of the code of the change's kept builds, in all and by build, and the lookups "
         "order.kept answered with an equal value's result. suite_import: `from doctrines import suite` after "
         "`import doctrines.cli` in fresh `python -S` interpreters taking turns, each side's best and median "
         "seconds and the modules it loaded. end_to_end: every bench/run.py run of both, and their "
         "medians.")


def _load(path: Path) -> dict:
    out = json.loads(path.read_text()) if path.exists() else {"layers": [], "end_to_end": []}
    out.setdefault("import", [])
    out["about"] = ABOUT
    out["machine"] = {"python": platform.python_version(), "cpus": os.cpu_count(), "platform": platform.platform()}
    return out


def _compile(sides: list) -> None:
    """Byte-compile the library of each (side, checkout), so no measured interpreter compiles it."""
    for _, checkout in sides:
        compileall.compile_dir(checkout / "src" / "doctrines", quiet=1)


def _measure_in_turns(rows: dict, sides: list, flag: str, n: int, rounds: int) -> None:
    """`measure flag n` in one fresh interpreter per side and round, the
    sides taking turns; each row it returns joins `rows`, keeping each
    side's best time and least peak RSS."""
    _compile(sides)
    at_size = {}
    for k in range(rounds):
        for side, checkout in sides if k % 2 == 0 else sides[::-1]:
            child = subprocess.run(
                [sys.executable, __file__, "measure", "--src", str(checkout / "src"), flag, str(n)],
                capture_output=True, text=True, check=True,
            )
            for r in map(json.loads, child.stdout.splitlines()):
                s, rss = r.pop("s"), r.pop("peak_rss_mb", None)
                key = tuple(r.items())
                row = at_size[key] = rows.setdefault(key, r)
                row[f"{side}_s"] = _sig(min(s, row.get(f"{side}_s", s)))
                if rss is not None:
                    row[f"{side}_peak_rss_mb"] = round(min(rss, row.get(f"{side}_peak_rss_mb", rss)), 1)
    print(list(at_size.values()), flush=True)


def layers(args) -> None:
    out = _load(args.out)
    rows = {}
    sizes = [("--worlds", n) for n in [*TWO_KEY_WORLDS, *ONE_KEY_WORLDS]] + [("--arrows", a) for a in FUNCTION_CARRIERS]
    sizes += [("--quantale-points", n) for n in QUANTALE_POINTS]
    sizes += [("--states", n) for n in TEMPORAL_STATES] + [("--check-worlds", n) for n in CHECK_WORLDS]
    sizes += [("--presheaf-worlds", n) for n in PRESHEAF_WORLDS]
    sizes += [("--hom-states", n) for n in HOM_STATES] + [("--space-points", n) for n in SPACE_POINTS]
    if args.rows:
        sizes = [(flag, n) for flag, n in sizes if flag[2:] in args.rows]
    for flag, n in sizes:
        sides = [("parent", args.parent), ("change", args.change)]
        if (flag, n) in CHANGE_ONLY:
            sides = sides[1:]
        _measure_in_turns(rows, sides, flag, n, TEMPORAL_ROUNDS if flag == "--states" else ROUNDS)
    out["layers"] = sorted(
        rows.values(),
        key=lambda r: (r["layer"], r.get("keys", 0), r.get("kind", ""), r.get("core", ""), r.get("worlds", 0),
                       r.get("arrows", 0), r.get("points", 0), r.get("states", 0)),
    )
    args.out.write_text(json.dumps(out, indent=1) + "\n")


def suite_rows(args) -> None:
    out = _load(args.out)
    rows, sides = {}, [("parent", args.parent), ("change", args.change)]
    for seed in SUITE_SEEDS:
        _measure_in_turns(rows, sides, "--suite-seed", seed, ROUNDS)
    out["suite"] = sorted(rows.values(), key=lambda r: (r["criterion"], SUITE_SEEDS.index(r["seed"])))
    out["suite_kept_builds"] = []
    for seed in SUITE_SEEDS:
        counts = {}
        for side, checkout in sides:
            child = subprocess.run(
                [sys.executable, __file__, "measure", "--src", str(checkout / "src"), "--suite-counts", str(seed)],
                capture_output=True, text=True, check=True,
            )
            counts[side] = json.loads(child.stdout)
        row = {"seed": seed, "builds": counts["change"]["kept"]}
        for side, c in counts.items():
            by_build = {name: c["runs"].get(name, 0) for name in row["builds"]}
            row[f"{side}_builds_run"] = sum(by_build.values())
            row[f"{side}_equal_value_answers"] = c["equal_value_answers"]
            row[f"{side}_runs_by_build"] = by_build
        print(row, flush=True)
        out["suite_kept_builds"].append(row)
    out["suite_import"] = [_import_row("suite import", _probe_in_turns(sides, SUITE_IMPORT_PROBE))]
    print(out["suite_import"][0], flush=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")


def _probe_in_turns(sides: list, probe: str, *args: str) -> dict:
    """The stdout fields of `python -S -c probe SRC *args` in `IMPORT_ROUNDS`
    fresh interpreters per side, each from its checkout's `src` compiled to
    bytecode beforehand, the sides taking turns one interpreter at a time:
    {side: [the fields of each run]}."""
    _compile(sides)
    runs = {side: [] for side, _ in sides}
    for i in range(2 * IMPORT_ROUNDS):
        side, checkout = sides[i % 2]
        argv = [sys.executable, "-S", "-c", probe, str(checkout / "src"), *args]
        runs[side].append(subprocess.run(argv, capture_output=True, text=True, check=True).stdout.split())
    return runs


def _timed(row: dict, runs: dict, field: int) -> dict:
    """`row` with its interpreter count and each side's best and median of the seconds in `field` of its runs."""
    row["interpreters"] = IMPORT_ROUNDS
    for side, fields in runs.items():
        sample = [float(f[field]) for f in fields]
        row.update({f"{side}_s": _sig(min(sample)), f"{side}_median_s": _sig(statistics.median(sample))})
    return row


def _import_row(layer: str, runs: dict) -> dict:
    """The row of an import whose probe prints its seconds, then the modules it added."""
    row = _timed({"layer": layer}, runs, 0)
    row.update((f"{side}_modules", int(fields[-1][1])) for side, fields in runs.items())
    return row


def import_rows(args) -> None:
    out = _load(args.out)
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.dct"
        model.write_text(GATE_MODEL)
        runs = _probe_in_turns([("parent", args.parent), ("change", args.change)], IMPORT_PROBE, str(model))
    out["import"] = [_import_row("import doctrines.cli", runs)]
    out["cold_check"] = [_timed({"layer": "cold check", "argv": ["--json", "check", "FILE"]}, runs, 2)]
    out["parse"] = [
        _timed({"layer": "parse_argv", "read": read, "argv": argv}, runs, 3 + k)
        for k, (read, argv) in enumerate(PARSE_ARGV.items())
    ]
    for row in out["import"] + out["cold_check"] + out["parse"]:
        print(row, flush=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")


def end_to_end(args) -> None:
    out = _load(args.out)
    earlier = [e for e in out["end_to_end"] if e["workload"] == args.workload]
    runs = earlier[0]["runs"] if earlier else []
    with tempfile.TemporaryDirectory() as tmp:
        # each side runs from a copy of its `src` and `bench` taken before
        # the first run, so an edit to a checkout during the sweep reaches no run
        sides = []
        for side, checkout in [("parent", args.parent), ("change", args.change)]:
            for part in ("src", "bench"):
                shutil.copytree(checkout / part, Path(tmp) / side / part,
                                ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
            sides.append((side, Path(tmp) / side))
        for k, seed in enumerate(args.seeds):
            for side, copy in sides if k % 2 == 0 else sides[::-1]:
                proc = subprocess.run(
                    [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed), "--seconds", "40"],
                    cwd=copy, capture_output=True, text=True, check=True,
                )
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                run = {"side": side, "seed": seed, "correct": result["correct"],
                       **{m: result["metrics"][m]["value"] for m in METRICS}}
                runs.append(run)
                print(run, flush=True)
    medians = {
        side: {m: statistics.median(r[m] for r in runs if r["side"] == side) for m in METRICS}
        for side in ("parent", "change")
    }
    out["end_to_end"] = [e for e in out["end_to_end"] if e["workload"] != args.workload]
    out["end_to_end"].append({"workload": args.workload, "median": medians, "runs": runs})
    args.out.write_text(json.dumps(out, indent=1) + "\n")


def _report(src: Path, argv: list[str], cwd: Path) -> tuple:
    """Exit status, stdout and stderr of the command line `argv` on the
    library in `src`, the copy's own path written as SRC (a traceback names it)."""
    proc = subprocess.run([sys.executable, "-S", "-c", RUN_CLI, str(src), *argv], cwd=cwd, capture_output=True, text=True)
    return proc.returncode, proc.stdout.replace(str(src), "SRC"), proc.stderr.replace(str(src), "SRC")


def reports(args) -> int:
    requests = dict.fromkeys(
        Request(argv, r.model)
        for workload in REPORT_WORKLOADS
        for seed in args.seeds
        for r in requests_for(workload, seed)
        for argv in (r.argv, tuple(a for a in r.argv if a != "--json"))
    )
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        copies = {}
        for side, checkout in [("parent", args.parent), ("change", args.change)]:
            copies[side] = Path(tmp) / side / "src"
            shutil.copytree(checkout / "src", copies[side], ignore=shutil.ignore_patterns("__pycache__"))
        model = Path(tmp) / "model.dct"
        for r in requests:
            if r.model is not None:
                model.write_text(r.model)
            got = {side: _report(src, r.cli_argv(str(model)), Path(tmp)) for side, src in copies.items()}
            parts = [part for part, a, b in zip(("exit status", "stdout", "stderr"), got["parent"], got["change"]) if a != b]
            if parts:
                differ += 1
                print(f"{r.key} {' '.join(r.argv)}: {', '.join(parts)} differ", flush=True)
    print(f"{differ} of {len(requests)} requests differ")
    return 1 if differ else 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    lay = sub.add_parser("layers")
    lay.add_argument("--parent", type=Path, required=True)
    lay.add_argument("--change", type=Path, default=ROOT)
    lay.add_argument("--out", type=Path, required=True)
    lay.add_argument("--rows", nargs="+", choices=SIZE_FLAGS, help="sweep only the rows of these size flags")
    one = sub.add_parser("measure")
    one.add_argument("--src", type=Path, required=True)
    size = one.add_mutually_exclusive_group(required=True)
    size.add_argument("--worlds", type=int)
    size.add_argument("--arrows", type=int, choices=sorted(FUNCTION_CARRIERS))
    size.add_argument("--quantale-points", type=int)
    size.add_argument("--states", type=int)
    size.add_argument("--check-worlds", type=int)
    size.add_argument("--presheaf-worlds", type=int)
    size.add_argument("--hom-states", type=int)
    size.add_argument("--space-points", type=int)
    size.add_argument("--suite-seed", type=int)
    size.add_argument("--suite-counts", type=int)
    imp = sub.add_parser("import")
    imp.add_argument("--parent", type=Path, required=True)
    imp.add_argument("--change", type=Path, default=ROOT)
    imp.add_argument("--out", type=Path, required=True)
    e2e = sub.add_parser("end-to-end")
    e2e.add_argument("--parent", type=Path, required=True)
    e2e.add_argument("--change", type=Path, default=ROOT)
    e2e.add_argument("--workload", required=True)
    e2e.add_argument("--seeds", type=int, nargs="+", required=True)
    e2e.add_argument("--out", type=Path, required=True)
    sui = sub.add_parser("suite")
    sui.add_argument("--parent", type=Path, required=True)
    sui.add_argument("--change", type=Path, default=ROOT)
    sui.add_argument("--out", type=Path, required=True)
    rep = sub.add_parser("reports")
    rep.add_argument("--parent", type=Path, required=True)
    rep.add_argument("--change", type=Path, default=ROOT)
    rep.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    if args.mode == "measure":
        sys.path.insert(0, str(args.src.resolve()))
        rows = {
            "worlds": measure, "arrows": measure_function_category, "quantale_points": measure_quantale,
            "states": measure_temporal, "check_worlds": measure_check, "presheaf_worlds": measure_presheaf_check,
            "hom_states": measure_homs, "space_points": measure_spaces, "suite_seed": measure_suite,
            "suite_counts": measure_suite_counts,
        }
        dest, size = next((dest, getattr(args, dest)) for dest in rows if getattr(args, dest) is not None)
        # one line per row, written as soon as it is timed, so a killed run keeps the rows it finished
        for row in rows[dest](size):
            print(json.dumps(row), flush=True)
    elif args.mode == "layers":
        layers(args)
    elif args.mode == "import":
        import_rows(args)
    elif args.mode == "suite":
        suite_rows(args)
    elif args.mode == "reports":
        raise SystemExit(reports(args))
    else:
        end_to_end(args)


if __name__ == "__main__":
    main()
