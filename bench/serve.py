"""Run one CLI request in this fresh interpreter and report it to the benchmark.

    python3 -S bench/serve.py TRACE ARGV...

The benchmark starts it with `-S`, so no site hook (a `.pth` file of some
installed package) imports modules before the request or takes part in its
timing. The process imports `doctrines.cli` from the checkout's `src/` (timing the
import), wraps the layers when TRACE is 1, then times `main(ARGV)` from just
before the call until the report has been written to an in-memory stdout.
Nothing else of the library runs first, so the request sees library state
exactly as a new CLI process does. The result is pickled to standard output.
"""

import os
import sys
import time

# os.path, not pathlib: a module imported here would be left out of the
# timed import of the package.
BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def outcome(rc, stdout: str) -> dict:
    """What a request is checked on: exit status, verdicts with pass flags,
    outputs without the suite's free-text `criteria-details`, and refusals."""
    import hashlib
    import json

    def digest(obj) -> str:
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]

    out = {"rc": rc, "verdicts": None, "outputs": None, "refusals": 0}
    if rc in (0, 1):
        report = json.loads(stdout)
        out["verdicts"] = digest([[v["name"], v["pass"]] for v in report["verdicts"]])
        out["outputs"] = digest({k: v for k, v in report["outputs"].items() if k != "criteria-details"})
        out["refusals"] = sum(1 for v in report["verdicts"] for w in v["witnesses"] if w.startswith("refused:"))
    return out


def serve(traced: bool, argv: list[str]) -> dict:
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import doctrines.cli as cli

    import_s = time.perf_counter() - t0
    import io
    import resource
    import traceback

    rec = None
    if traced:
        sys.path.insert(0, BENCH)
        import tracing

        rec = tracing.install()
    stdout = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, stdout
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:
        rc, error = None, traceback.format_exc()
    latency = time.perf_counter() - t0
    sys.stdout = real_stdout
    result = {
        "latency": latency,
        "import_s": import_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error": error,
    }
    try:
        result.update(outcome(rc, stdout.getvalue()))
    except (ValueError, KeyError, TypeError):
        result.update(rc=rc, error=error or "unreadable report:\n" + stdout.getvalue()[:2000])
    if rec is not None:
        result.update(names=rec.names, spans=rec.spans, functions=rec.functions(), counts=dict(rec.counts))
    return result


if __name__ == "__main__":
    import pickle

    payload = pickle.dumps(serve(sys.argv[1] == "1", sys.argv[2:]))
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()
    # Skip freeing the request's objects one by one at exit: after a large
    # request that takes a noticeable share of a round, and no measured time
    # includes it.
    os._exit(0)
