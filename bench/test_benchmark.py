"""Checks of the benchmark itself, on cut-down request lists so they run in seconds."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _small(name: str, seed: int = 3) -> run.Workload:
    """The workload at `seed` without its largest models, its suite runs and its derive requests."""
    work = run.Workload(name, seed, json.loads(run.EXPECTED.read_text()))
    keep = [
        i for i, r in enumerate(work.requests)
        if r.sizes.get("states", 0) <= 5 and r.sizes.get("worlds", 0) <= 6
        and "suite_seed" not in r.sizes and "derive" not in r.argv
    ]
    work.requests = [work.requests[i] for i in keep]
    work.argvs = [work.argvs[i] for i in keep]
    return work


def _counts(work: run.Workload) -> dict:
    stats = tracing.PassStats()
    for r in work.run_pass(traced=True):
        assert not r["failure"], r["failure"]
        stats.add(r["functions"], r["counts"], r["refusals"])
    metrics = tracing.aggregate([stats], 0.0)
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")}


def test_planted_wrong_expectation_counts_as_failed():
    work = _small("gate")
    key = work.requests[0].key
    rc, verdicts, outputs = work.expected[key]
    work.expected = dict(work.expected, **{key: [rc, verdicts, "0" * 16]})
    metrics, notes = run.end_to_end([work.run_pass()])
    # The request is sent `reps` times in the round, and each of its processes fails.
    assert notes["failed"] == work.requests[0].reps > 1
    assert notes["requests"] == sum(r.reps for r in work.requests)
    assert 0 < metrics["ops_ok_frac"]["value"] < 1


def test_latency_sample_is_the_same_whatever_the_pass_count():
    fast = [{"latency": 0.01 * (i + 1), "import_s": 0.1, "rss_mb": 30.0, "failure": None, "samples": 1, "failed": 0} for i in range(20)]
    slow = [dict(r, latency=2 * r["latency"], import_s=0.2) for r in fast]
    three, notes = run.end_to_end([fast, slow, slow])
    six, _ = run.end_to_end([slow, slow, fast, slow, slow, slow])
    assert three == six
    assert notes["latency_samples"] == 20 * run.ROUNDS
    assert three["run_s"]["value"] == pytest.approx(2.1)
    assert three["setup_s"]["value"] == 0.1
    # Ten samples beyond it: the three slowest requests, each counted ROUNDS
    # times, and one more count of the fourth-slowest.
    assert three["latency_tail_s"]["value"] == pytest.approx(0.17)


def test_times_are_reported_at_nominal_machine_speed():
    assert run.machine_factor([2 * run.REF_NOMINAL_S] * 40) == pytest.approx(0.5)
    results = [{"latency": 0.2, "import_s": 0.1, "rss_mb": 30.0, "failure": None, "samples": 1, "failed": 0}]
    raw, _ = run.end_to_end([results])
    half, notes = run.end_to_end([results], factor=0.5)
    for name, metric in raw.items():
        want = metric["value"] / 2 if metric["unit"] == "s" else metric["value"]
        assert half[name]["value"] == pytest.approx(want)
    assert notes["raw"]["run_s"] == pytest.approx(0.2)


def test_every_declared_metric_is_printed_with_its_unit(monkeypatch, capsys):
    cut = _small("gate").requests
    monkeypatch.setattr(workloads, "requests_for", lambda name, seed: cut)
    monkeypatch.setattr(run, "ROUNDS", 1)
    for flag, section in (("0", "end_to_end"), ("1", "per_layer")):
        assert run.main(["--workload", "gate", "--seed", "1", "--seconds", "0", "--trace", flag]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_traced_counts_repeat_and_predicted_zeros_hold():
    modal, temporal = _small("modal"), _small("temporal")
    first = _counts(modal)
    assert first == _counts(modal)
    assert first["temporal.gfp_modality.calls"] == 0
    assert first["instances.fiber_elements_built"] > 0
    on_temporal = _counts(temporal)
    assert on_temporal["doctrine.doctrine_violations.calls"] == 0
    assert on_temporal["temporal.gfp_modality.calls"] > 0
    assert on_temporal["cli.refusals"] == 0


def test_workloads_repeat_by_seed_and_avoid_library_generators():
    for name in workloads.WORKLOADS:
        a = workloads.requests_for(name, 5)
        assert a == workloads.requests_for(name, 5 + workloads.SEED_SPACE)
        assert all(r.key in json.loads(run.EXPECTED.read_text()) for r in a)
    source = (run.BENCH / "workloads.py").read_text()
    for generator in ("random_coalgebra", "random_subset", "random_vertical_adjunction"):
        assert generator not in source
