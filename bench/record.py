"""Record the expected outcome of every benchmark request at the current commit.

    python3 bench/record.py

Runs each distinct request of every workload, for every seed in the seed
space, once in a fresh interpreter (two at a time) and writes its exit status
and the digests of its verdicts and outputs to expected.json. Re-record only
when a change to the reports is intended: the benchmark counts any
difference as a failed request.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import run
import workloads


def main() -> int:
    os.environ["PYTHONHASHSEED"] = "0"  # as in run.py
    todo = {}
    for name in sorted(workloads.WORKLOADS):
        for seed in range(workloads.SEED_SPACE):
            work = run.Workload(name, seed, {})
            todo.update((req.key, argv) for req, argv in zip(work.requests, work.argvs))
    expected = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for key, result in zip(todo, pool.map(run.run_request, todo.values())):
            if result.get("error") or result.get("refusals"):
                sys.exit(f"record: {' '.join(todo[key])}: {result.get('error') or 'refused'}")
            expected[key] = [result["rc"], result["verdicts"], result["outputs"]]
    run.EXPECTED.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    print(f"record: {len(expected)} requests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
