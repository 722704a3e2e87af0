"""Benchmark of the doctrines command line, run from the root of a checkout.

    python3 bench/run.py --workload temporal --seed 3 --seconds 40 --trace 0

One client sends the workload's fixed request list (see workloads.py) in a
closed loop. Each request is `doctrines.cli.main(argv)` on a generated model
file, run by serve.py in a fresh interpreter that has only imported
`doctrines.cli`, so every request starts as cold as a new CLI process and no
in-process cache carries over. (Forks of one parent would also start cold,
but a forked request copies every page it writes, which no CLI process
pays.) A round sends every request once, and a short request `reps` times
in a row (see workloads.Request). A run is `ROUNDS` rounds, about 40 s at
the commit that defined the benchmark. Each request's latency is the best
of its timings in the run: the work is deterministic, and the machine's
speed only adds to it.

Each request's exit status, verdict names with pass flags, and `outputs`
are compared with the expectation recorded in expected.json; a mismatch, a
traceback or a refusal counts as a failed request.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates plain and
traced passes and prints the per-layer metrics of tracing.py; it also writes
the first traced pass, one line per request tagged with its model sizes, to
.bench_work/trace-<workload>-<seed>.jsonl.gz. The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import gzip
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"

ROUNDS = 3
TAIL_BEYOND = 10
REQUEST_TIMEOUT_S = 120
# The reference kernel's time at REF_QUANTILE of a run on the 2-vCPU VM the
# benchmark was defined on (Python 3.11): the unit of every reported time
# (see machine_factor).
REF_NOMINAL_S = 0.015
REF_QUANTILE = 0.25

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_request(argv: list[str], traced: bool = False) -> dict:
    """Run one request in a fresh interpreter; returns what serve.py reports.
    A request whose process times out, crashes or prints nothing is timed by
    the wall time of its whole process, so a failure never reads as fast."""
    cmd = [sys.executable, "-S", str(BENCH / "serve.py"), "1" if traced else "0", *argv]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": None, "latency": time.perf_counter() - start, "error": "request timed out"}
    if done.returncode != 0 or not done.stdout:
        tail = done.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return {"rc": None, "latency": time.perf_counter() - start, "error": f"request process exited {done.returncode}: {tail[0]}"}
    return pickle.loads(done.stdout)


def reference_kernel() -> int:
    """A fixed pure-Python workload that uses nothing of the library: meets
    and joins of subsets of a 10-element set, looked up in a dict, as the
    library's lattice tables do. About 15 ms."""
    subsets = [frozenset(i for i in range(10) if m >> i & 1) for m in range(1 << 10)]
    index = {u: k for k, u in enumerate(subsets)}
    acc = 0
    for a in subsets[::9]:
        for b in subsets[::7]:
            acc += index[a & b] + index[a | b]
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def machine_factor(ref_times: list[float]) -> float:
    """How much faster than nominal the machine ran during a run.

    A shared host has slow phases that last minutes and slow every process
    by up to 1.9 times, so runs of the same code minutes apart differ by
    more than any best-of within a run removes. The client times the
    reference kernel after every request process; a time metric is its raw
    value times REF_NOMINAL_S over a low quantile of those timings, so it
    reads in seconds of a machine as fast as nominal. The kernel does not
    depend on the library, so a change to the library moves the metric by
    exactly the change in its raw time."""
    low = statistics.quantiles(ref_times, n=100, method="inclusive")[round(100 * REF_QUANTILE) - 1]
    return REF_NOMINAL_S / low


def failure(result: dict, want) -> str | None:
    """Why a request failed, or None when it matched its recorded expectation."""
    if result.get("error"):
        return result["error"].strip().splitlines()[-1]
    if result.get("refusals"):
        return "refused by the size guard"
    if want is None:
        return "no recorded expectation"
    got = [result["rc"], result["verdicts"], result["outputs"]]
    if got != want:
        return f"expected {want}, got {got}"
    return None


class Workload:
    """A workload's requests, their model files, and their expectations."""

    def __init__(self, name: str, seed: int, expected: dict):
        self.name, self.seed = name, seed
        self.requests = workloads.requests_for(name, seed)
        self.expected = expected
        WORK.mkdir(exist_ok=True)
        self.ref_times: list[float] = []
        self.argvs = []
        for req in self.requests:
            path = None
            if req.model is not None:
                path = WORK / f"{req.key}.dct"
                path.write_text(req.model)
            self.argvs.append(req.cli_argv(str(path) if path else None))

    def run_pass(self, traced: bool = False, repeat: bool = True) -> list[dict]:
        """One round: each request's result, from its best of `reps` runs in a
        row when `repeat` (traced rounds run each request once, so their counts
        stay per round). `samples` and `failed` count the request's processes."""
        results = []
        for req, argv in zip(self.requests, self.argvs):
            runs = []
            for _ in range(req.reps if repeat and not traced else 1):
                result = run_request(argv, traced)
                self.ref_times.append(time_reference())
                result["failure"] = failure(result, self.expected.get(req.key))
                if result["failure"]:
                    print(f"bench: FAILED {' '.join(argv)}: {result['failure']}", file=sys.stderr)
                runs.append(result)
            result = min(runs, key=lambda r: r["latency"])
            result.update(
                import_s=min((r["import_s"] for r in runs if "import_s" in r), default=None),
                rss_mb=max((r["rss_mb"] for r in runs if "rss_mb" in r), default=None),
                failure=next((r["failure"] for r in runs if r["failure"]), None),
                samples=len(runs),
                failed=sum(1 for r in runs if r["failure"]),
            )
            results.append({k: v for k, v in result.items() if v is not None or k == "failure"})
        return results


def rounds(work: Workload, seconds: float) -> list[list[dict]]:
    """ROUNDS rounds of `work`, so each request's best timing is taken over
    the same number of samples whatever the speed of program or machine;
    on a machine so slow that two rounds took `seconds`, two."""
    start = time.perf_counter()
    passes = []
    while len(passes) < ROUNDS and (len(passes) < 2 or time.perf_counter() - start < seconds):
        passes.append(work.run_pass())
    return passes


def best(passes: list[list[dict]], key: str) -> list[float]:
    """Each request's lowest `key` over the passes of a run, in list order,
    leaving out requests whose process never reported it."""
    values = ([r[key] for r in timings if key in r] for timings in zip(*passes))
    return [min(v) for v in values if v]


def tail(sample: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it: (percentile, value)."""
    ordered = sorted(sample)
    k = max(len(ordered) - TAIL_BEYOND, 1)
    return 100.0 * k / len(ordered), ordered[k - 1]


def attempted(results: list[dict]) -> int:
    return sum(r["samples"] for r in results)


def end_to_end(passes: list[list[dict]], factor: float = 1.0) -> tuple[dict, dict]:
    """The end-to-end metrics of a run, times scaled by `factor` (see machine_factor).

    The latency sample is the same at any machine or program speed:
    ROUNDS copies of the request list, each request at its best latency
    of the run. So run_s, the median and the tail are the same statistics of
    the same requests on every commit."""
    latency = best(passes, "latency")
    sample = sorted(x for x in latency for _ in range(ROUNDS))
    pct, tail_s = tail(sample)
    results = [r for p in passes for r in p]
    failed = sum(r["failed"] for r in results)
    metrics = {
        "setup_s": (statistics.median(best(passes, "import_s") or [0.0]), "s"),
        "run_s": (sum(latency), "s"),
        "latency_p50_s": (statistics.median(sample), "s"),
        "latency_tail_s": (tail_s, "s"),
        "peak_rss_mb": (max(r.get("rss_mb", 0.0) for r in results), "MB"),
        "ops_ok_frac": (1 - failed / attempted(results), "frac"),
    }
    notes = {
        "passes": len(passes), "requests": attempted(results), "latency_samples": len(sample),
        "tail_percentile": pct, "failed": failed, "machine_factor": factor,
        "raw": {k: v for k, (v, u) in metrics.items() if u == "s"},
    }
    return scaled(metrics, factor), notes


def scaled(metrics: dict, factor: float) -> dict:
    """Result entries from (value, unit) pairs, times in seconds multiplied by `factor`."""
    return {k: {"value": v * factor if u == "s" else v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(work: Workload, seconds: float) -> tuple[dict, dict, list[dict], list[dict]]:
    """Alternate plain and traced passes: per-layer metrics, notes, the first
    traced pass, and the results of every pass."""
    plain, traced_passes, stats, first = [], [], [], None
    start, last = time.perf_counter(), 0.0
    while not stats or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        plain.append(work.run_pass(repeat=False))
        traced = work.run_pass(traced=True)
        last = time.perf_counter() - t0
        traced_passes.append(traced)
        ps = tracing.PassStats()
        for r in traced:
            if "functions" in r:
                ps.add(r["functions"], r["counts"], r["refusals"])
        stats.append(ps)
        first = first or traced
    overhead = sum(best(traced_passes, "latency")) / sum(best(plain, "latency")) - 1
    factor = machine_factor(work.ref_times)
    metrics = scaled({k: (m["value"], m["unit"]) for k, m in tracing.aggregate(stats, overhead).items()}, factor)
    results = [r for p in plain + traced_passes for r in p]
    notes = {"passes": len(stats), "samples": attempted(results), "failed": sum(r["failed"] for r in results), "machine_factor": factor}
    return metrics, notes, first, results


def write_trace(work: Workload, traced: list[dict]) -> Path:
    """One gzipped JSON line per request of a traced pass: its argv, model
    sizes, per-layer and per-function times, and every span as
    [id, function, start_us, duration_us, parent id], start relative to the request."""
    path = WORK / f"trace-{work.name}-{work.seed}.jsonl.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for i, (req, argv, r) in enumerate(zip(work.requests, work.argvs, traced)):
            functions = r.get("functions", {})
            spans = r.get("spans", ())
            origin = min(spans[2::6], default=0.0)
            line = {
                "request": i,
                "argv": argv,
                "sizes": req.sizes,
                "latency_s": r["latency"],
                "layers": {layer: sum(v[1] for n, v in functions.items() if n.split(".")[0] == layer) for layer in tracing.LAYERS},
                "functions": functions,
                "names": r.get("names", []),
                "spans": [
                    [int(spans[j]), int(spans[j + 1]), round((spans[j + 2] - origin) * 1e6), round((spans[j + 3] - spans[j + 2]) * 1e6), int(spans[j + 4])]
                    for j in range(0, len(spans), 6)
                ],
            }
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "doctrines" / "cli.py").is_file():
        print(f"bench: no doctrines sources under {SRC}", file=sys.stderr)
        return 2
    # Requests import the package from bytecode, as an installed CLI does,
    # even where the environment stops Python from writing it
    # (PYTHONDONTWRITEBYTECODE); compiling on every import would double setup_s.
    compileall.compile_dir(SRC / "doctrines", quiet=1)
    work = Workload(args.workload, args.seed, json.loads(EXPECTED.read_text()))
    if args.trace:
        metrics, notes, first, results = per_layer(work, args.seconds)
        notes["trace_file"] = str(write_trace(work, first).relative_to(ROOT))
    else:
        passes = rounds(work, args.seconds)
        metrics, notes = end_to_end(passes, machine_factor(work.ref_times))
        results = [r for p in passes for r in p]
    print(f"bench: {args.workload} seed {args.seed}: {json.dumps(notes)}", file=sys.stderr)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing makes set iteration order, and so every count, repeat across runs.
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED="0"))
    # The client and every request process share one CPU, so the reference
    # kernel times the CPU the requests run on (see machine_factor): on a
    # shared host each virtual CPU has slow phases of its own.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.exit(main())
