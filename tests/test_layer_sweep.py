"""Smoke test of tools/layer_sweep.py: its `measure` mode, which every layer
row of a BENCH_*.json file comes from, still finds and times each layer, and
its `reports` mode finds a planted difference between two checkouts."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ONE_KEY_LAYERS = (
    "powerset_poset", "_pointwise_fiber", "kripke_doctrine", "monotone_violations", "interior_violations",
    "em_doctrine(mc(op))",
)


def _measure(flag: str, size: int) -> list[dict]:
    argv = [sys.executable, str(ROOT / "tools" / "layer_sweep.py"), "measure", "--src", str(ROOT / "src"), flag, str(size)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_layer_sweep_measures_the_two_key_row_and_every_one_key_layer():
    two_key, one_key = _measure("--worlds", 3), _measure("--worlds", 8)
    assert [(r["layer"], r["keys"], r["worlds"]) for r in two_key] == [("_pointwise_fiber", 2, 3)]
    assert [(r["layer"], r["keys"], r["worlds"]) for r in one_key] == [(layer, 1, 8) for layer in ONE_KEY_LAYERS]
    assert all(r["s"] > 0 for r in two_key + one_key)


def test_layer_sweep_measures_the_function_category_row():
    rows = _measure("--arrows", 243)
    assert [(r["layer"], r["arrows"]) for r in rows] == [("full_function_category", 243)]
    assert rows[0]["s"] > 0 and rows[0]["peak_rss_mb"] > 0


def test_layer_sweep_measures_the_change_only_rows_with_their_peak_rss():
    assert _sweep_module().CHANGE_ONLY == {
        ("--arrows", 3125), ("--arrows", 46656), ("--quantale-points", 5), ("--presheaf-worlds", 16),
        ("--hom-states", 8),
    }
    rows = [*_measure("--arrows", 3125), *_measure("--arrows", 46656), *_measure("--quantale-points", 5),
            *_measure("--presheaf-worlds", 16), *_measure("--hom-states", 8)]
    assert [(r["layer"], r.get("arrows"), r.get("points"), r.get("worlds"), r.get("states")) for r in rows] == [
        ("full_function_category", 3125, None, None, None),
        ("full_function_category", 46656, None, None, None),
        ("quantale_doctrine", None, 5, None, None),
        ("em_doctrine(mc(bang))", None, 5, None, None),
        ("presheaf check", None, None, 16, None),
        ("temporal_doctrine", None, None, None, 8),
        ("temporal_doctrine", None, None, None, 8),
    ]
    assert all(r["s"] > 0 and r["peak_rss_mb"] > 0 for r in rows)


def test_layer_sweep_runs_the_change_only_rows_on_the_change_checkout_alone(tmp_path, monkeypatch):
    sweep = _sweep_module()
    seen, real_run = {}, subprocess.run

    def run(argv, **kwargs):
        if "measure" not in argv:  # `platform` asks the system, not a checkout
            return real_run(argv, **kwargs)
        seen.setdefault((argv[-2], int(argv[-1])), []).append(Path(argv[argv.index("--src") + 1]).parent.name)
        row = {"layer": argv[-2], "size": int(argv[-1]), "s": 1.0}
        return subprocess.CompletedProcess(argv, 0, json.dumps(row) + "\n", "")

    monkeypatch.setattr(sweep.subprocess, "run", run)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["layer_sweep.py", "layers", "--parent", str(tmp_path / "parent"),
                                      "--change", str(tmp_path / "change"), "--out", str(out)])
    sweep.main()
    assert {size for size, sides in seen.items() if "parent" not in sides} == sweep.CHANGE_ONLY
    assert all(sides.count("change") == len(sides) for size, sides in seen.items() if size in sweep.CHANGE_ONLY)
    assert all(sorted(set(sides)) == ["change", "parent"] for size, sides in seen.items() if size not in sweep.CHANGE_ONLY)
    rows = {(r["layer"], r["size"]): r for r in json.loads(out.read_text())["layers"]}
    assert "parent_s" not in rows["--arrows", 3125] and rows["--arrows", 1024]["parent_s"] == 1.0


def test_layer_sweep_measures_the_quantale_row():
    # the bang rows time `bang_law_violations` under its earlier name, as recorded before
    rows = _measure("--quantale-points", 2)
    assert [(r["layer"], r.get("core"), r["points"]) for r in rows] == [
        ("quantale", None, 2),
        ("bang_law_suite", "real", 2),
        ("bang_law_suite", "fake", 2),
    ]
    assert all(r["s"] > 0 for r in rows)


def test_layer_sweep_measures_the_temporal_sweep_rows():
    rows = _measure("--states", 10)
    assert [(r["layer"], r["kind"], r["states"]) for r in rows] == [
        ("oracle_mismatches", "tree", 10),
        ("oracle_mismatches", "stream", 10),
        ("gfp_modality", "tree", 10),
        ("gfp_modality", "stream", 10),
    ]
    assert all(r["s"] > 0 for r in rows)
    assert [r["alphas"] for r in rows[2:]] == [100, 100]


def test_layer_sweep_measures_the_chain_check_row_with_its_peak_rss():
    rows = _measure("--check-worlds", 4)
    assert [(r["layer"], r["worlds"]) for r in rows] == [("check", 4)]
    assert rows[0]["s"] > 0 and rows[0]["peak_rss_mb"] > 0


def test_layer_sweep_measures_the_presheaf_chain_check_row_with_its_peak_rss():
    assert _sweep_module().PRESHEAF_WORLDS == (8, 10, 12, 16)
    rows = _measure("--presheaf-worlds", 8)
    assert [(r["layer"], r["worlds"]) for r in rows] == [("presheaf check", 8)]
    assert rows[0]["s"] > 0 and rows[0]["peak_rss_mb"] > 0


def test_layer_sweep_runs_only_the_rows_it_is_asked_for(tmp_path, monkeypatch):
    sweep = _sweep_module()
    seen, real_run = [], subprocess.run

    def run(argv, **kwargs):
        if "measure" not in argv:  # `platform` asks the system, not a checkout
            return real_run(argv, **kwargs)
        seen.append((argv[-2], int(argv[-1]), Path(argv[argv.index("--src") + 1]).parent.name))
        return subprocess.CompletedProcess(argv, 0, json.dumps({"layer": "presheaf check", "worlds": int(argv[-1]), "s": 1.0}) + "\n", "")

    monkeypatch.setattr(sweep.subprocess, "run", run)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["layer_sweep.py", "layers", "--parent", str(tmp_path / "parent"), "--change",
                                      str(tmp_path / "change"), "--rows", "presheaf-worlds", "--out", str(out)])
    sweep.main()
    # 8, 10 and 12 worlds on both sides in turns, 16 on the change alone
    assert {flag for flag, _, _ in seen} == {"--presheaf-worlds"}
    assert [side for _, n, side in seen if n == 12] == ["parent", "change", "change", "parent"] * (sweep.ROUNDS // 2)
    assert [side for _, n, side in seen if n == 16] == ["change"] * sweep.ROUNDS
    rows = json.loads(out.read_text())["layers"]
    assert [(r["worlds"], "parent_s" in r) for r in rows] == [(8, True), (10, True), (12, True), (16, False)]


def test_layer_sweep_measures_each_suite_criterion_at_a_seed():
    from doctrines import suite

    sweep = _sweep_module()
    # the runners of `run_acceptance`, one per title, each taking the seed if it is seeded
    assert len(sweep.CRITERIA) == len(suite.TITLES) and set(sweep.SEEDED) <= set(sweep.CRITERIA)
    assert all(callable(getattr(suite, f"criterion_{name}")) for name in sweep.CRITERIA)
    rows = _measure("--suite-seed", 3)
    assert [(r["layer"], r["criterion"], r["seed"]) for r in rows] == [("suite", i, 3) for i in range(1, 12)]
    assert all(r["s"] > 0 for r in rows)


def test_layer_sweep_runs_the_suite_rows_at_the_gate_seeds_in_turns(tmp_path, monkeypatch):
    sweep = _sweep_module()
    seen, real_run = [], subprocess.run

    def run(argv, **kwargs):
        if sweep.SUITE_IMPORT_PROBE in argv:
            side = Path(argv[-1]).parent.name
            seen.append(("suite import", None, side))
            return subprocess.CompletedProcess(argv, 0, "0.002 15\n" if side == "parent" else "0.001 2\n", "")
        if "measure" not in argv:  # `platform` asks the system, not a checkout
            return real_run(argv, **kwargs)
        side, seed = Path(argv[argv.index("--src") + 1]).parent.name, int(argv[-1])
        seen.append((argv[-2], seed, side))
        if argv[-2] == "--suite-counts":
            runs = {"a.b": 2, "a.c": 5} if side == "parent" else {"a.b": 1, "a.c": 3, "a.d": 7}
            row = {"seed": seed, "kept": ["a.b", "a.c"], "runs": runs, "equal_value_answers": int(side == "change")}
        else:
            row = {"layer": "suite", "criterion": 1, "seed": seed, "s": 1.0 if side == "parent" else 0.5}
        return subprocess.CompletedProcess(argv, 0, json.dumps(row) + "\n", "")

    monkeypatch.setattr(sweep.subprocess, "run", run)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["layer_sweep.py", "suite", "--parent", str(tmp_path / "parent"),
                                      "--change", str(tmp_path / "change"), "--out", str(out)])
    sweep.main()
    timed = [(seed, side) for flag, seed, side in seen if flag == "--suite-seed"]
    assert [side for seed, side in timed if seed == 7] == ["parent", "change", "change", "parent"] * (sweep.ROUNDS // 2)
    assert [seed for seed, _ in timed[:: 2 * sweep.ROUNDS]] == [7, 1, 2, 3]
    # then one counting interpreter per side and seed, after all the timings,
    # and last the import of `suite`, the sides in turns
    counted = len(timed) + 8
    assert seen[len(timed):counted] == [("--suite-counts", seed, side) for seed in (7, 1, 2, 3) for side in ("parent", "change")]
    assert seen[counted:] == [("suite import", None, side) for side in ("parent", "change")] * sweep.IMPORT_ROUNDS
    written = json.loads(out.read_text())
    assert written["suite"] == [
        {"layer": "suite", "criterion": 1, "seed": seed, "parent_s": 1.0, "change_s": 0.5} for seed in (7, 1, 2, 3)
    ]
    # the change's kept builds, counted on both sides; a run of other code is not one
    assert written["suite_kept_builds"] == [
        {"seed": seed, "builds": ["a.b", "a.c"], "parent_builds_run": 7, "parent_equal_value_answers": 0,
         "parent_runs_by_build": {"a.b": 2, "a.c": 5}, "change_builds_run": 4, "change_equal_value_answers": 1,
         "change_runs_by_build": {"a.b": 1, "a.c": 3}}
        for seed in (7, 1, 2, 3)
    ]
    assert written["suite_import"] == [
        {"layer": "suite import", "interpreters": sweep.IMPORT_ROUNDS, "parent_s": 0.002, "parent_median_s": 0.002,
         "change_s": 0.001, "change_median_s": 0.001, "parent_modules": 15, "change_modules": 2}
    ]


def test_the_suite_import_loads_only_suite_and_the_c_mersenne_twister():
    sweep = _sweep_module()
    row = sweep._import_row("suite import", sweep._probe_in_turns([("parent", ROOT), ("change", ROOT)],
                                                                  sweep.SUITE_IMPORT_PROBE))
    assert row["interpreters"] == sweep.IMPORT_ROUNDS
    for side in ("parent", "change"):
        # `doctrines.suite` and `_random`: the suite keeps its bundled values
        # in its own memo, so it loads no `functools`
        assert row[f"{side}_modules"] == 2 and 0 < row[f"{side}_s"] <= row[f"{side}_median_s"]


def test_layer_sweep_counts_the_kept_builds_and_the_equal_values_of_a_suite_request():
    (row,) = _measure("--suite-counts", 3)
    assert row["seed"] == 3 and {"order.monotone_violations", "comonad.em_doctrine"} <= set(row["kept"])
    assert all(row["runs"].get(name, 0) > 0 for name in ("comonad.em_doctrine", "adjunction.adjunction_violations"))
    assert row["equal_value_answers"] > 0


def _sweep_module():
    spec = importlib.util.spec_from_file_location("layer_sweep", ROOT / "tools" / "layer_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_layer_sweep_sizes_reach_17_worlds_and_an_18_world_check_on_both_sides():
    sweep = _sweep_module()
    assert max(sweep.ONE_KEY_WORLDS) == 17
    assert list(sweep.CHECK_WORLDS) == [12, 13, 14, 15, 16, 17, 18] and not hasattr(sweep, "CHANGE_ONLY_CHECK_WORLDS")


def test_layer_sweep_times_the_temporal_sweep_up_to_20_states():
    assert list(_sweep_module().TEMPORAL_STATES) == [10, 12, 14, 16, 18, 20]
    rows = _measure("--states", 20)
    assert [(r["layer"], r["states"]) for r in rows] == [("oracle_mismatches", 20)] * 2 + [("gfp_modality", 20)] * 2
    assert all(r["s"] > 0 for r in rows)


def test_layer_sweep_rows_keep_4_significant_digits():
    # 5 decimals kept one digit of a 20 us row; 4 significant digits keep four at any size
    sig = _sweep_module()._sig
    assert [sig(s) for s in (2.345678e-05, 0.000123449, 0.0123456, 19.31234)] == [2.346e-05, 0.0001234, 0.01235, 19.31]


def test_layer_sweep_times_the_command_line_import_in_turns(tmp_path):
    out = tmp_path / "bench.json"
    argv = [sys.executable, str(ROOT / "tools" / "layer_sweep.py"), "import", "--parent", str(ROOT), "--change", str(ROOT)]
    subprocess.run([*argv, "--out", str(out)], capture_output=True, text=True, check=True, timeout=300)
    [row] = json.loads(out.read_text())["import"]
    assert row["layer"] == "import doctrines.cli" and row["interpreters"] >= 20
    [check] = json.loads(out.read_text())["cold_check"]
    assert (check["layer"], check["argv"], check["interpreters"]) == ("cold check", ["--json", "check", "FILE"], 20)
    for side in ("parent", "change"):
        assert 0 < row[f"{side}_s"] <= row[f"{side}_median_s"]
        # the package and every module but `suite`, which loads on demand
        assert row[f"{side}_modules"] >= 10
        # the import is part of the cold check
        assert row[f"{side}_s"] < check[f"{side}_s"] <= check[f"{side}_median_s"]


def test_layer_sweep_times_parse_argv_on_an_exact_and_a_handed_on_command_line(tmp_path):
    out = tmp_path / "bench.json"
    argv = [sys.executable, str(ROOT / "tools" / "layer_sweep.py"), "import", "--parent", str(ROOT), "--change", str(ROOT)]
    subprocess.run([*argv, "--out", str(out)], capture_output=True, text=True, check=True, timeout=300)
    exact, handed_on = json.loads(out.read_text())["parse"]
    assert (exact["layer"], exact["read"], exact["argv"][:2]) == ("parse_argv", "exact", ["--json", "--max-size"])
    assert (handed_on["layer"], handed_on["read"], handed_on["argv"]) == ("parse_argv", "handed on", ["--js", "check", "F"])
    for row in (exact, handed_on):
        assert row["interpreters"] >= 20
        for side in ("parent", "change"):
            assert 0 < row[f"{side}_s"] <= row[f"{side}_median_s"]
    # the handed-on line imports argparse and builds its parsers: milliseconds, against microseconds
    assert handed_on["change_median_s"] > 10 * exact["change_median_s"]


def test_end_to_end_runs_use_copies_of_both_checkouts_taken_before_the_first_run(tmp_path, monkeypatch):
    # an edit to a checkout during a sweep must reach no run: the first run
    # edits the change checkout's source, and every later run still reads
    # the copy taken before it
    sweep = _sweep_module()
    checkouts = {}
    for side in ("parent", "change"):
        for part in ("src", "bench"):
            (tmp_path / side / part).mkdir(parents=True)
            (tmp_path / side / part / "marker.py").write_text(f"{side} {part}\n")
        checkouts[side] = tmp_path / side
    metrics = {m: {"value": 1.0} for m in sweep.METRICS}
    seen, real_run = [], subprocess.run

    def run(argv, cwd=None, **kwargs):
        if cwd is None:  # `platform` asks the system, not a checkout
            return real_run(argv, **kwargs)
        cwd = Path(cwd)
        seen.append((cwd, (cwd / "src" / "marker.py").read_text(), (cwd / "bench" / "marker.py").read_text()))
        (checkouts["change"] / "src" / "marker.py").write_text("edited\n")
        return subprocess.CompletedProcess(argv, 0, json.dumps({"correct": True, "metrics": metrics}) + "\n", "")

    monkeypatch.setattr(sweep.subprocess, "run", run)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["layer_sweep.py", "end-to-end", "--parent", str(checkouts["parent"]), "--change",
                                      str(checkouts["change"]), "--workload", "modal", "--seeds", "1", "2", "--out", str(out)])
    sweep.main()
    assert [text for _, text, _ in seen] == ["parent src\n", "change src\n", "change src\n", "parent src\n"]
    assert [text for _, _, text in seen] == ["parent bench\n", "change bench\n", "change bench\n", "parent bench\n"]
    assert all(tmp_path not in cwd.parents for cwd, _, _ in seen)
    assert [r["side"] for r in json.loads(out.read_text())["end_to_end"][0]["runs"]] == ["parent", "change", "change", "parent"]


def test_reports_finds_no_difference_against_itself_and_finds_a_planted_one(tmp_path, monkeypatch, capsys):
    # the `check` of the CLI tests' model, with and without --json, at two seeds that give the same requests
    sweep = _sweep_module()
    every = sweep.requests_for
    checks = lambda workload, seed: [r for r in every(workload, seed) if r.argv[-2:] == ("check", "FILE")]
    monkeypatch.setattr(sweep, "requests_for", lambda workload, seed: checks(workload, seed) if workload == "gate" else [])
    shutil.copytree(ROOT / "src", tmp_path / "change" / "src", ignore=shutil.ignore_patterns("__pycache__"))

    def reports() -> tuple[int, list[str]]:
        monkeypatch.setattr(sys, "argv", ["layer_sweep.py", "reports", "--parent", str(ROOT), "--change",
                                          str(tmp_path / "change"), "--seeds", "0", "1"])
        with pytest.raises(SystemExit) as raised:
            sweep.main()
        return raised.value.code, capsys.readouterr().out.splitlines()

    assert reports() == (0, ["0 of 2 requests differ"])
    cli = tmp_path / "change" / "src" / "doctrines" / "cli.py"
    cli.write_text(cli.read_text().replace('f"RESULT: ', 'f"RESULTS: '))
    code, lines = reports()
    # only the request without --json prints the result line
    [check] = checks("gate", 0)
    assert code == 1 and lines[1:] == ["1 of 2 requests differ"]
    assert lines[0].endswith(f" {' '.join(check.argv[1:])}: stdout differ")


def test_layer_sweep_measures_the_temporal_and_topological_doctrine_rows():
    rows = [*_measure("--hom-states", 4), *_measure("--space-points", 3)]
    assert [(r["layer"], r.get("kind"), r.get("states"), r.get("points")) for r in rows] == [
        ("temporal_doctrine", "stream", 4, None), ("temporal_doctrine", "tree", 4, None),
        ("topological_doctrine", None, None, 3),
    ]
    assert all(r["s"] > 0 and r["peak_rss_mb"] > 0 for r in rows)
    sweep = _sweep_module()
    assert (list(sweep.HOM_STATES), list(sweep.SPACE_POINTS)) == ([4, 5, 6, 7, 8], [3, 4, 5, 6, 7])


def test_layer_sweep_measure_writes_each_row_as_soon_as_it_is_timed(monkeypatch, capsys):
    # a run killed while it times its third row has written the first two
    sweep, timed = _sweep_module(), []

    def best(fn, repeats=sweep.REPEATS):
        if len(timed) == 2:
            raise KeyboardInterrupt
        timed.append(fn)
        return 1.0

    monkeypatch.setattr(sweep, "_best", best)
    monkeypatch.setattr(sys, "argv", ["layer_sweep.py", "measure", "--src", str(ROOT / "src"), "--worlds", "8"])
    with pytest.raises(KeyboardInterrupt):
        sweep.main()
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["layer"], r["s"]) for r in rows] == [(layer, 1.0) for layer in ONE_KEY_LAYERS[:2]]
