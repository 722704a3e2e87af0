import contextlib
import gc
import io
import json
import re
import subprocess
import sys
import time
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from doctrines.cli import (
    ModelDocument,
    ParseError,
    UsageExit,
    Workspace,
    _dumps,
    build_workspace,
    main,
    parse_argv,
    parse_text,
    render_text,
    run,
)
from util import argparse_flags, identity_one_arrow

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

MODEL = """
# sample workbench model
kripke-frame K { worlds: w1 w2; rel: w1->w2; closure: refl-trans; sets: D=x }
topspace sier { points: bot top; opens: {} {top} {bot,top} }
quantale L3 { elements: 0 h 1; pairs: 0->h h->1; unit: 1;
              tensor: 0*0=0 0*h=0 0*1=0 h*h=0 h*1=h 1*1=1; sets: X=x }
coalgebra M { kind: tree; states: s0 s1 s2; step: s0=(s1,s2) s1=(s1) s2=() }
query g1 { run: temporal; coalgebra: M; op: EG; alpha: {s0,s1} }
"""


def _cli(*args, inp=None):
    return subprocess.run(
        [sys.executable, "-m", "doctrines.cli", *args],
        capture_output=True,
        text=True,
    )


def test_parse_frame_closure_example():
    doc = parse_text("kripke-frame K { worlds: w1 w2; rel: w1->w2; closure: refl-trans }")
    d = doc.declarations[0]
    assert d.kind == "kripke-frame" and d.name == "K"
    assert d.get("rel") == ["w1->w2"]


def test_parse_empty_file_is_empty_document():
    assert parse_text("") == ModelDocument(())
    assert parse_text("# only a comment\n") == ModelDocument(())


def serialize(doc: ModelDocument) -> str:
    lines = []
    for d in doc.declarations:
        body = "; ".join(f"{k}: " + " ".join(atoms) for k, atoms in d.entries)
        lines.append(f"{d.kind} {d.name} {{ {body} }}")
    return "\n".join(lines) + "\n"


def test_parse_serialize_roundtrip():
    doc = parse_text(MODEL)
    again = parse_text(serialize(doc))
    assert again == doc
    assert parse_text(serialize(again)) == again


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_parse_serialize_roundtrip_on_generated_models(workload):
    texts = [r.model for seed in range(4) for r in workloads.requests_for(workload, seed) if r.model]
    assert texts
    for text in texts:
        doc = parse_text(text)
        assert parse_text(serialize(doc)) == doc, text


def test_parse_duplicate_name_rejected():
    with pytest.raises(ParseError, match="duplicate name"):
        parse_text("poset P { elements: a }\nposet P { elements: b }")


def test_parse_unknown_kind_rejected_with_position():
    with pytest.raises(ParseError) as e:
        parse_text("widget W { size: 3 }")
    assert e.value.line == 1


def test_parse_duplicate_key_rejected():
    with pytest.raises(ParseError, match="duplicate key"):
        parse_text("poset P { elements: a; elements: b }")


def test_run_check_on_model():
    doc = parse_text(MODEL)
    report = run(doc, "check", {"seed": 7, "max_size": 200000})
    assert all(v["pass"] for v in report["verdicts"])
    assert report["outputs"]["query g1"] == "{s0,s1}"


def test_check_query_reads_the_verdicts_of_its_exact_target():
    # KX fails its laws; a query on K reads K's verdicts and not KX's, while
    # `--target K` keeps its substring match and reports both
    text = (
        "kripke-frame K { worlds: w1 w2; rel: w1->w2; closure: refl-trans; sets: D=x }\n"
        "kripke-frame KX { worlds: 1 2 3; rel: 1->2 2->3; closure: refl; sets: D=x }\n"
        "query k { run: check; target: K }\n"
        "query kx { run: check; target: KX }\n"
        "query missing { run: check; target: KY }\n"
    )
    verdicts = {v["name"]: v for v in run(parse_text(text), "check", {"seed": 7, "max_size": 200000})["verdicts"]}
    assert not verdicts["kripke-frame KX"]["pass"] and verdicts["kripke-frame K"]["pass"]
    assert verdicts["query k"] == {"name": "query k", "pass": True, "witnesses": []}
    assert verdicts["query kx"]["witnesses"] == ["target 'KX' has failing or missing verdicts"]
    assert verdicts["query missing"]["witnesses"] == ["target 'KY' has failing or missing verdicts"]
    targeted = run(parse_text(text), "check", {"seed": 7, "max_size": 200000, "target": "K"})["verdicts"]
    assert {"kripke-frame K", "kripke-frame KX"} <= {v["name"] for v in targeted}


def test_run_check_dangling_query_reference_is_usage_error():
    from doctrines.cli import BuildError

    doc = parse_text("query g { run: temporal; coalgebra: NOPE; op: EG; alpha: {} }")
    with pytest.raises(BuildError, match="NOPE"):
        run(doc, "check", {"seed": 7, "max_size": 200000})


def test_cli_exit_zero_on_clean_model(tmp_path):
    f = tmp_path / "m.dct"
    f.write_text(MODEL)
    r = _cli("check", str(f))
    assert r.returncode == 0, r.stdout + r.stderr
    assert "RESULT: PASS" in r.stdout


def test_cli_exit_one_on_failing_law(tmp_path):
    f = tmp_path / "m.dct"
    # non-transitive frame with sets: interior law suite fails with a witness
    f.write_text(
        "kripke-frame B { worlds: 1 2 3; rel: 1->2 2->3; closure: refl; sets: D=x }"
    )
    r = _cli("check", str(f))
    assert r.returncode == 1
    assert "FAIL" in r.stdout
    assert "axiom 4" in r.stdout


def test_cli_exit_two_on_parse_error(tmp_path):
    f = tmp_path / "m.dct"
    f.write_text("widget W { size: 3 }")
    r = _cli("check", str(f))
    assert r.returncode == 2
    assert "parse error" in r.stderr


@pytest.mark.parametrize(
    "text",
    [
        "query q { run: }",
        "coalgebra M { kind: ; states: a; step: a=a }",
    ],
)
def test_cli_exit_two_on_empty_entry(tmp_path, text):
    f = tmp_path / "m.dct"
    f.write_text(text)
    r = _cli("check", str(f))
    assert r.returncode == 2, r.stdout + r.stderr
    assert "empty entry" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_exit_two_on_missing_file():
    r = _cli("check", "/nonexistent/path.dct")
    assert r.returncode == 2


def test_cli_exit_two_on_a_model_file_that_is_not_utf8(tmp_path, capsys):
    f = tmp_path / "m.dct"
    f.write_bytes(b"poset P { elements: \xff\xfe }")
    assert main(["check", str(f)]) == 2
    assert capsys.readouterr().err == f"cannot read file: {f}\n"


def test_cli_exit_two_on_a_directory_given_as_the_model_file(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"cannot read file: {tmp_path}\n"


def test_cli_exit_two_on_unknown_command():
    r = _cli("frobnicate")
    assert r.returncode == 2


def test_cli_temporal_command(tmp_path):
    f = tmp_path / "m.dct"
    f.write_text(MODEL)
    r = _cli("temporal", "--coalgebra", "M", "--op", "EG", "--alpha", "{s0,s1}", str(f))
    assert r.returncode == 0
    assert '"{s0,s1}"' in r.stdout


def test_cli_derive_and_factor_and_em(tmp_path):
    f = tmp_path / "m.dct"
    f.write_text(MODEL)
    r = _cli("derive", "--from", "L3.adjunction", "--modality", str(f))
    assert r.returncode == 0 and "derive L3.adjunction modality" in r.stdout
    r = _cli("factor", "--from", "L3.adjunction", str(f))
    assert r.returncode == 0 and "factor-stable L3.adjunction" in r.stdout
    r = _cli("em", "--from", "K.box", str(f))
    assert r.returncode == 0 and "em-adjunction K.box" in r.stdout


def test_cli_factor_names_the_witnesses_of_a_failing_refined_factorization(tmp_path, capsys, monkeypatch):
    from doctrines import adjunction

    # a planted stable subdoctrine that keeps every element of L3^{x}: λ = ι
    # misses h, and P(η)∘ρL = r sends 0 and h both to 0
    monkeypatch.setattr(adjunction, "stable_subdoctrine", lambda op: (op.doctrine, identity_one_arrow(op.doctrine)))
    f = tmp_path / "m.dct"
    f.write_text(MODEL)
    assert main(["--json", "factor", str(f), "--from", "L3.adjunction"]) == 1
    report = json.loads(capsys.readouterr().out)
    verdicts = {v["name"]: v for v in report["verdicts"]}
    assert verdicts["factor-composites L3.adjunction"]["pass"]
    assert verdicts["factor-stable L3.adjunction"]["witnesses"][:2] == [
        "lambda misses the stable element (X,[x:h])",
        "eta.rho' identifies (X,[x:0]) and (X,[x:h])",
    ]
    assert report["outputs"]["factor L3.adjunction"] == {"lambda-surjective": {"X": False}, "eta-rho-injective": {"X": False}}


def test_cli_kripke_frame_names_each_pair_with_an_undeclared_world(tmp_path, capsys):
    text = "kripke-frame K { worlds: a; rel: c->a a->b; sets: D=x }"
    assert _main(tmp_path, text, "check") == 1
    assert capsys.readouterr().out.startswith(
        "doctrines check report (seed=7, max-size=200000)\n"
        "FAIL kripke-frame K\n"
        "  - relation mentions unknown world: (a,b)\n"
        "  - relation mentions unknown world: (c,a)\n"
    )


def test_cli_max_size_refusal(tmp_path):
    f = tmp_path / "m.dct"
    f.write_text(MODEL)
    r = _cli("--max-size", "4", "check", str(f))
    assert r.returncode == 1
    assert "refused" in r.stdout


def test_cli_suite_json_deterministic_and_exit_codes():
    first = _cli("--json", "--seed", "7", "suite")
    second = _cli("--json", "--seed", "7", "suite")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["seed"] == 7
    assert all(v["pass"] for v in report["verdicts"])
    assert len(report["verdicts"]) == 11


@pytest.mark.parametrize("error", [ValueError("planted"), KeyError("planted")], ids=["ValueError", "KeyError"])
def test_a_criterion_that_raises_fails_and_the_others_report_as_before(monkeypatch, capsys, error):
    from doctrines import suite

    assert main(["--json", "suite"]) == 0
    before = json.loads(capsys.readouterr().out)

    def broken(A):
        raise error

    monkeypatch.setattr(suite, "factorize", broken)
    assert main(["--json", "suite"]) == 1
    after = json.loads(capsys.readouterr().out)
    named = f"raised {type(error).__name__}: {error}"
    name = "criterion 3: factorization through the base change"
    assert after["verdicts"][2] == {"name": name, "pass": False, "witnesses": [named]}
    assert after["outputs"]["criteria-details"]["criterion 3"] == [named]
    # every other criterion reports as before
    del before["verdicts"][2], after["verdicts"][2]
    del before["outputs"]["criteria-details"]["criterion 3"], after["outputs"]["criteria-details"]["criterion 3"]
    assert after == before


def _main(tmp_path, text, *args):
    """Run the CLI in-process on `text`; any escaping exception fails the test."""
    f = tmp_path / "m.dct"
    f.write_text(text)
    return main([args[0], str(f), *args[1:]])


def test_cli_temporal_alpha_with_unknown_state_is_usage_error(tmp_path, capsys):
    text = "coalgebra M { kind: tree; states: s1 s2; step: s1=(s1) s2=() }"
    rc = _main(tmp_path, text, "temporal", "--coalgebra", "M", "--op", "EG", "--alpha", "{s0}")
    assert rc == 2
    assert "alpha mentions unknown states ['s0']" in capsys.readouterr().err


def test_cli_temporal_op_of_the_wrong_kind_is_failing_verdict(tmp_path, capsys):
    # the engine boxes α under any lift, so the verdict is the oracle's refusal
    text = "coalgebra T { kind: tree; states: a b; step: a=(b) b=() }"
    assert _main(tmp_path, text, "temporal", "--coalgebra", "T", "--op", "G", "--alpha", "{a}") == 1
    out = capsys.readouterr().out
    assert "FAIL temporal G T\n  - temporal failed: g_oracle needs a stream coalgebra" in out
    text = "coalgebra S { kind: stream; states: a b; step: a=b b=b }"
    assert _main(tmp_path, text, "temporal", "--coalgebra", "S", "--op", "AG", "--alpha", "{a,b}") == 1
    out = capsys.readouterr().out
    assert "FAIL temporal AG S\n  - temporal failed: ag_oracle needs a tree coalgebra" in out


STREAM = "coalgebra S { kind: stream; states: s1 s2; step: s1=s2 s2=s1 }"


@pytest.mark.parametrize(
    "text, args, atom",
    [
        (STREAM, ("temporal", "--coalgebra", "S", "--op", "G", "--alpha", "s1"), "s1"),
        (f"{STREAM}\nquery q {{ run: temporal; coalgebra: S; op: G; alpha: s1 }}", ("check",), "s1"),
        ("topspace X { points: a b; opens: {} a {a,b} }", ("check",), "a"),
    ],
)
def test_cli_set_atom_without_braces_is_usage_error(tmp_path, capsys, text, args, atom):
    assert _main(tmp_path, text, *args) == 2
    assert f"expected a set '{{a,b}}', got '{atom}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, verdict",
    [
        (("em", "--from", "K.box"), "em K.box"),
        (("derive", "--from", "K.box", "--comonad"), "derive K.box comonad"),
        (("derive", "--from", "K.box", "--adjunction"), "derive K.box adjunction"),
    ],
)
def test_cli_construction_on_invalid_interior_is_failing_verdict(tmp_path, capsys, args, verdict):
    text = "kripke-frame K { worlds: w1 w2; rel: w1->w2; closure: none; sets: D=x }"
    assert _main(tmp_path, text, *args) == 1
    out = capsys.readouterr().out
    assert f"FAIL {verdict}" in out
    assert "invalid interior operator: axiom T fails" in out


@pytest.mark.parametrize(
    "text",
    [
        "poset P { elements: a b; pairs: a->b; closure: refl-tran }",
        "kripke-frame K { worlds: w1 w2; rel: w1->w2; closure: refl-tran }",
        "quantale Q { elements: 0 1; pairs: 0->1; closure: refl-tran; unit: 1; tensor: 0*0=0 0*1=0 1*1=1 }",
    ],
)
def test_cli_unknown_closure_is_usage_error(tmp_path, capsys, text):
    assert _main(tmp_path, text, "check") == 2
    assert "unknown closure 'refl-tran'" in capsys.readouterr().err


def _chain_frame(worlds: int) -> str:
    chain = [f"c{i}" for i in range(worlds)]
    rel = " ".join(f"{a}->{b}" for a, b in zip(chain, chain[1:]))
    return f"kripke-frame K {{ worlds: {' '.join(chain)}; rel: {rel}; sets: D=x }}"


def test_cli_size_guard_counts_work(tmp_path, capsys):
    states = [f"s{i}" for i in range(14)]
    step = " ".join(f"{s}=({t})" for s, t in zip(states, states[1:] + states[:1]))
    tree = f"coalgebra T {{ kind: tree; states: {' '.join(states)}; step: {step} }}"
    # one carrier D=x: one reindexing map on a fiber of 2^W elements, and one
    # composable pair comparing two maps on it, 2^(W+1) + 1 in all: 262,145
    # at 17 worlds
    for text, refusal in (
        (_chain_frame(17), "FAIL kripke-doctrine K\n  - refused: estimated work 262145 exceeds --max-size 200000"),
        (tree, "FAIL coalgebra-oracle T\n  - refused: estimated work"),
    ):
        assert _main(tmp_path, text, "check") == 1
        assert refusal in capsys.readouterr().out
    # 16 worlds: 131,073, admitted
    for text in (MODEL, _chain_frame(12), _chain_frame(16)):
        assert _main(tmp_path, text, "check") == 0
        assert "refused" not in capsys.readouterr().out
    # at the exact boundary: 8,193 at 12 worlds is refused one below and admitted at it
    work = 2**13 + 1
    (tmp_path / "m.dct").write_text(_chain_frame(12))
    assert main(["--max-size", str(work - 1), "check", str(tmp_path / "m.dct")]) == 1
    assert f"FAIL kripke-doctrine K\n  - refused: estimated work {work} exceeds --max-size {work - 1}" in capsys.readouterr().out
    assert main(["--max-size", str(work), "check", str(tmp_path / "m.dct")]) == 0
    assert "refused" not in capsys.readouterr().out


def _cycle_tree(n: int) -> str:
    states = [f"s{i}" for i in range(n)]
    step = " ".join(f"{s}=({t})" for s, t in zip(states, states[1:] + states[:1]))
    return f"coalgebra T {{ kind: tree; states: {' '.join(states)}; step: {step} }}"


def test_cli_coalgebra_size_guard_admits_12_cycle_states_and_refuses_13(tmp_path, capsys):
    # the plane sweep in 64-bit words, ⌈2ⁿ/64⌉·(n³ + (n+1)·(n+edges)):
    # 64·(1,728 + 13·24) = 130,560 at 12 states, 128·(2,197 + 14·26) =
    # 327,808 at 13, on either side of the default --max-size as before
    assert _main(tmp_path, _cycle_tree(12), "check") == 0
    assert "refused" not in capsys.readouterr().out
    assert _main(tmp_path, _cycle_tree(13), "check") == 1
    out = capsys.readouterr().out
    assert "FAIL coalgebra-oracle T\n  - refused: estimated work 327808 exceeds --max-size 200000" in out


GOEDEL_5 = (
    "quantale G { elements: 0 a b c 1; pairs: 0->a a->b b->c c->1; unit: 1; tensor: "
    + " ".join(f"{x}*{y}={x}" for i, x in enumerate("0abc1") for y in "0abc1"[i:])
    + "; sets: X=x,y,z }"
)


def test_cli_quantale_size_guard_counts_the_build_and_no_fiber_of_the_bang_laws(tmp_path, capsys):
    # the function doctrine over X: 27 maps on 5³ elements, and 27² composable
    # pairs each a lookup and a comparison on 5³ elements, 27·125 + 27²·126 =
    # 95,229, under the default --max-size; the bang laws build no fiber of a
    # valid quantale
    assert _main(tmp_path, GOEDEL_5, "check") == 0
    out = capsys.readouterr().out
    assert "PASS quantale-bang-laws G" in out and out.endswith("RESULT: PASS (4/4)\n")


def test_each_declared_quantale_with_sets_is_scanned_once(tmp_path, capsys):
    # the quantale verdict's scan is kept on the quantale (order.kept), so
    # the precondition of the bang laws reads it; a profile hook counts the
    # runs of the scan's own code
    from doctrines import instances

    scan, scanned = instances.quantale_violations.__wrapped__.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is scan:
            scanned.append(frame.f_locals["q"].name)

    text = MODEL + GOEDEL_5 + "\nquantale B { elements: 0 1; pairs: 0->1; unit: 1; tensor: 0*0=0 0*1=0 1*1=1 }\n"
    sys.setprofile(profile)
    try:
        code = _main(tmp_path, text, "check")
    finally:
        sys.setprofile(None)
    out = capsys.readouterr().out
    assert code == 0 and "PASS quantale-bang-laws L3" in out and "PASS quantale-bang-laws G" in out
    assert scanned == ["L3", "G", "B"]


def test_no_quantale_of_the_benchmark_or_test_models_makes_the_bang_laws_build_a_fiber(tmp_path, monkeypatch):
    import doctrines.cli as cli
    import doctrines.instances as instances

    def refuse(domain, codomain):
        raise AssertionError(f"bang_law_violations built the fiber {list(codomain.elements)}^{list(domain)}")

    checked = []

    def bang_law_violations(q, sets):
        # the doctrine build reads `_function_fiber` too, so refuse it only here
        with pytest.MonkeyPatch.context() as inside:
            inside.setattr(instances, "_function_fiber", refuse)
            bad = instances.bang_law_violations(q, sets)
        checked.append((q.name, not bad))
        return bad

    monkeypatch.setattr(cli, "bang_law_violations", bang_law_violations)
    models = {r.model for w in workloads.WORKLOADS for seed in range(8) for r in workloads.requests_for(w, seed)}
    models = sorted(m for m in models | {MODEL, GOEDEL_5} if m and "quantale " in m)
    for text in models:
        with contextlib.redirect_stdout(io.StringIO()):
            _main(tmp_path, text, "check")
    assert len(checked) == len(models) and all(passed for _, passed in checked)
    # every quantale the benchmark declares is among them
    assert all(any(tensor in m for m in models) for _, _, tensor in workloads.QUANTALES_3 + workloads.QUANTALES_4)


def test_cli_bang_laws_give_one_witness_per_failing_element(tmp_path, capsys, monkeypatch):
    import doctrines.cli as cli
    import doctrines.instances as instances

    # the fake core keeps h, whose square is 0, so law (2) fails at each of
    # the 19 elements of L3^{x,y,z} with an h coordinate
    f = tmp_path / "m.dct"
    f.write_text(MODEL.replace("sets: X=x }", "sets: X=x,y,z }"))
    assert main(["--json", "check", str(f)]) == 0
    passing = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(cli, "bang_law_violations", lambda q, sets: instances.bang_law_violations(q, sets, instances.fake_core(q)))
    assert main(["--json", "check", str(f)]) == 1
    failing = json.loads(capsys.readouterr().out)
    [verdict] = [v for v in failing["verdicts"] if v["name"] == "quantale-bang-laws L3"]
    assert verdict.pop("pass") is False and verdict.pop("witnesses_omitted") == 11
    witnesses = verdict.pop("witnesses")
    assert witnesses[:2] == ["law (2) fails at (X,[x:0;y:0;z:h])", "law (2) fails at (X,[x:0;y:h;z:0])"]
    assert len(witnesses) == 8 and all(w.startswith("law (2) fails at (X,[") for w in witnesses)
    # every other verdict as in the passing report
    verdict.update({"pass": True, "witnesses": []})
    assert failing == passing


def test_cli_presheaf_size_guard_is_counted_not_enumerated(tmp_path, capsys):
    # 40^40 candidate transformations and 2^40 families: a guard that steps
    # through either would never return
    elements = ",".join(f"e{i}" for i in range(40))
    text = f"kripke-frame K {{ worlds: w }}\npresheaf P {{ frame: K; at: w={{{elements}}} }}"
    assert _main(tmp_path, text, "check") == 1
    out = capsys.readouterr().out
    assert f"FAIL presheaf-instance K\n  - refused: estimated work {40**40} exceeds --max-size 200000" in out


@pytest.mark.parametrize(
    "model, work",
    [
        # 5^5 * 5^5 candidate transformations of a 2-world chain presheaf into itself
        ("kripke-frame K { worlds: w1 w2; rel: w1->w2 }\npresheaf P { frame: K; "
         "at: w1={a,b,c,d,e} w2={a,b,c,d,e}; act: w1->w2=a>a,b>b,c>c,d>d,e>e }", 5**10),
        # 3,125 natural endo-transformations of a 1-world presheaf: the law
        # scans, 3125 * 32 + 3125^2 * 33, and on each of the 32 families the
        # oracle's tests along the one generator, the identity: 5 on the first
        # pass and 5 after each of at most 5 removals
        ("kripke-frame K { worlds: w }\npresheaf P { frame: K; at: w={a,b,c,d,e} }", 3125 * 32 + 3125**2 * 33 + 32 * 5 * 6),
    ],
    ids=["candidates", "law-scans"],
)
def test_cli_presheaf_guard_counts_the_transformations_before_building_them(tmp_path, capsys, model, work):
    start = time.perf_counter()
    assert _main(tmp_path, model, "check") == 1
    assert time.perf_counter() - start < 1
    assert f"FAIL presheaf-instance K\n  - refused: estimated work {work} exceeds --max-size 200000" in capsys.readouterr().out


def _one_element_chain(n: int) -> str:
    """A chain of n worlds and a presheaf holding one element at each."""
    worlds = [f"w{i}" for i in range(n)]
    return (
        f"kripke-frame K {{ worlds: {' '.join(worlds)}; rel: {' '.join(f'{a}->{b}' for a, b in zip(worlds, worlds[1:]))} }}\n"
        f"presheaf P {{ frame: K; at: {' '.join(f'{w}={{a}}' for w in worlds)}; "
        f"act: {' '.join(f'{a}->{b}=a>a' for i, a in enumerate(worlds) for b in worlds[i + 1:])} }}"
    )


def _chain_oracle_tests(n: int) -> int:
    """The guard's count of the oracle's membership tests on the n-world
    chain: on each of 2^n families, along each of the n identities and n - 1
    covers, one test on the first pass and one after the removal at its target."""
    return 2**n * 2 * (2 * n - 1)


def test_cli_presheaf_guard_admits_the_12_world_chain_and_counts_its_oracle_tests(tmp_path, capsys):
    # one natural transformation and 4,096 families: the law scans, 4096 + 1 * 1 * 4097,
    # and 188,416 membership tests for the oracle
    assert _main(tmp_path, _one_element_chain(12), "check") == 0
    assert "PASS presheaf-oracle K" in capsys.readouterr().out
    work = 4096 + 1 * 1 * 4097 + _chain_oracle_tests(12)
    (tmp_path / "m.dct").write_text(_one_element_chain(12))
    assert main(["--max-size", str(work - 1), "check", str(tmp_path / "m.dct")]) == 1
    assert f"refused: estimated work {work} exceeds --max-size {work - 1}" in capsys.readouterr().out


class _CountingAction(dict):
    """An action that counts its lookups: the oracle makes one per membership test."""

    lookups = 0

    def __getitem__(self, x):
        _CountingAction.lookups += 1
        return super().__getitem__(x)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_cli_presheaf_guard_bounds_the_membership_tests_its_oracle_makes(n):
    from doctrines.instances import FinPresheaf, subpresheaf_gfp

    [d] = build_workspace(parse_text(_one_element_chain(n)), 0).presheaves["K"]
    counted = FinPresheaf(d.name, d.base, d.at, {f: _CountingAction(act) for f, act in d.act.items()})
    _CountingAction.lookups = 0
    for parts in product([frozenset(), frozenset({"a"})], repeat=n):
        subpresheaf_gfp(counted, parts)
    assert 0 < _CountingAction.lookups <= _chain_oracle_tests(n)


@pytest.mark.parametrize(
    "model",
    [
        # a world whose name holds the `:` that a family label puts after each world
        "kripke-frame K { worlds: w:1 w2; rel: w:1->w2 }\npresheaf P { frame: K; at: w:1={a} w2={a}; act: w:1->w2=a>a }",
        # an element whose name holds the `;` that a family label puts between worlds
        "kripke-frame K { worlds: w1 w2; rel: w1->w2 }\npresheaf P { frame: K; at: w1={a;b} w2={a;b}; act: w1->w2=a;b>a;b }",
    ],
    ids=["world-w:1", "element-a;b"],
)
def test_cli_presheaf_oracle_reads_no_label_back(tmp_path, capsys, model):
    assert _main(tmp_path, model, "check") == 0
    assert "PASS presheaf-oracle K" in capsys.readouterr().out


DISCRETE_4 = "{} {a} {b} {c} {d} {a,b} {a,c} {a,d} {b,c} {b,d} {c,d} {a,b,c} {a,b,d} {a,c,d} {b,c,d} {a,b,c,d}"


def test_cli_topological_size_guard_bounds_the_law_scans(tmp_path, capsys):
    # each of the 9 homs admits all 256 functions: A = 2,304 arrows, each an
    # inverse-image map on a 16-element fiber, and 3 * 768^2 = 1,769,472
    # composable pairs, each one lookup plus a comparison on a 16-element fiber
    text = "\n".join(f"topspace {n} {{ points: a b c d; opens: {DISCRETE_4} }}" for n in "ABC")
    t0 = time.perf_counter()
    assert _main(tmp_path, text, "check") == 1
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr().out
    assert "FAIL topological-doctrine\n  - refused: estimated work 30117888 exceeds --max-size 200000" in out
    # stage 1 refuses before testing a function: 2 * 2 * 12^12 of them
    points = " ".join(f"p{i}" for i in range(12))
    text = "\n".join(f"topspace {n} {{ points: {points}; opens: {{}} {{{points.replace(' ', ',')}}} }}" for n in "AB")
    assert _main(tmp_path, text, "check") == 1
    assert f"refused: estimated work {4 * 12 ** 12} exceeds" in capsys.readouterr().out


def test_cli_size_guards_admit_every_benchmark_and_test_model():
    # every guard at the default --max-size, on each model the benchmark
    # generates at seeds 0-7 and on the CLI tests' MODEL and GOEDEL_5
    models = {r.model for w in ("temporal", "modal", "gate") for seed in range(8) for r in workloads.requests_for(w, seed)}
    models = sorted(m for m in models | {MODEL, GOEDEL_5} if m)
    assert any("topspace" in m for m in models)
    for text in models:
        ws = build_workspace(parse_text(text), 200000)
        assert [v["name"] for v in ws.verdicts if any(w.startswith("refused:") for w in v["witnesses"])] == []
        if "topspace" in text:
            assert [v["name"] for v in ws.verdicts if v["name"].startswith("topological")] == [
                "topological-doctrine",
                "topological-interior",
            ]
            assert all(v["pass"] for v in ws.verdicts)


def test_cut_witnesses_are_counted(monkeypatch):
    ws = Workspace(200000)
    ws.verdict("planted", [f"w{i}" for i in range(11)])
    ws.verdict("eight", [f"w{i}" for i in range(8)])
    assert ws.verdicts[0] == {
        "name": "planted", "pass": False, "witnesses": [f"w{i}" for i in range(8)], "witnesses_omitted": 3,
    }
    assert "witnesses_omitted" not in ws.verdicts[1]
    from doctrines import suite

    criterion = {"id": 1, "title": "planted", "pass": False, "details": [f"d{i}" for i in range(11)]}
    monkeypatch.setattr(suite, "run_acceptance", lambda seed: {"criteria": [criterion]})
    report = run(None, "suite", {})
    assert report["verdicts"][0]["witnesses_omitted"] == 3
    assert render_text(report).splitlines()[2:11] == [*(f"  - d{i}" for i in range(8)), "  (+3 more)"]


# a one-object doctrine D on the one-point poset P, for the cases below
ONE_OBJECT = """poset P { elements: a }
category C { objects: x; arrows: i=x->x; identities: x=i; compose: i.i=i }
doctrine D { base: C; fiber: x=P }
"""


TWO_ELEMENT = """poset P { elements: a b; pairs: a->b }
category C { objects: x; arrows: i=x->x; identities: x=i; compose: i.i=i }
doctrine D { base: C; fiber: x=P }
"""
# each site that reads a map graph from model text, with the graph at GRAPH
GRAPH_SITES = {
    "reindex i": "doctrine E { base: C; fiber: x=P; reindex: i=GRAPH }",
    "box x": "interior I { doctrine: D; box: x=GRAPH }",
    "lam x": "adjunction A { p: D; q: D; lam: x=GRAPH; rho: x=a>a,b>b }",
    "rho x": "adjunction A { p: D; q: D; lam: x=a>a,b>b; rho: x=GRAPH }",
    "kappa x": "comonad W { p: D; kappa: x=GRAPH }",
}
MALFORMED_GRAPHS = {
    "a>a": "not total: no image for b",
    "a>a,b>z": "image outside target poset: b -> z",
    "a>a,b>b,c>a": "graph mentions unknown source element: c",
}


@pytest.mark.parametrize("site", GRAPH_SITES)
@pytest.mark.parametrize("graph", MALFORMED_GRAPHS)
def test_cli_a_malformed_map_graph_fails_the_build_of_its_declaration(tmp_path, capsys, site, graph):
    declaration = GRAPH_SITES[site].replace("GRAPH", graph)
    f = tmp_path / "m.dct"
    f.write_text(TWO_ELEMENT + declaration)
    assert main(["--json", "check", str(f)]) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    kind, name = declaration.split()[:2]
    assert verdicts[-1] == {"name": f"{kind} {name}", "pass": False, "witnesses": [f"build failed: {site}: {MALFORMED_GRAPHS[graph]}"]}
    assert all(v["pass"] for v in verdicts[:-1])


@pytest.mark.parametrize(
    "text, duplicate",
    [
        ("kripke-frame K { worlds: w1 w1 w2; rel: w1->w2; sets: D=x }", "'w1' in 'worlds'"),
        ("coalgebra M { kind: stream; states: a a b; step: a=b b=a }", "'a' in 'states'"),
        ("topspace S { points: p p; opens: {} {p} }", "'p' in 'points'"),
        ("kripke-frame K { worlds: w1 w2; rel: w1->w2; sets: D=x D=y }", "'D' in 'sets'"),
        ("quantale Q { elements: 0 1; pairs: 0->1; unit: 1; tensor: 0*0=0 0*1=0 1*1=1; sets: X=x,x }", "'x' in 'sets'"),
        ("kripke-frame K { worlds: w1 w2; rel: w1->w2 }\npresheaf P { frame: K; at: w1={a,a} w2={a}; act: w1->w2=a>a }", "'a' in 'at'"),
        # the left-hand keys of map-valued entries, and the sources inside one 'a>b' map
        ("coalgebra M { kind: stream; states: a b; step: a=a a=b b=b }", "'a' in 'step'"),
        ("kripke-frame K { worlds: w1 w2; rel: w1->w2 }\npresheaf P { frame: K; at: w1={a} w1={a} w2={a}; act: w1->w2=a>a }", "'w1' in 'at'"),
        ("kripke-frame K { worlds: w1 w2; rel: w1->w2 }\npresheaf P { frame: K; at: w1={a} w2={a}; act: w1->w2=a>a w1->w2=a>a }", "'w1->w2' in 'act'"),
        ("kripke-frame K { worlds: w1 w2; rel: w1->w2 }\npresheaf P { frame: K; at: w1={a,b} w2={a,b}; act: w1->w2=a>a,a>b,b>b }", "'a' in 'act'"),
        ("quantale Q { elements: 0 1; pairs: 0->1; unit: 1; tensor: 0*0=0 0*1=0 1*1=1 1*1=0 }", "'1*1' in 'tensor'"),
        ("category C { objects: x; arrows: i=x->x; identities: x=i x=i; compose: i.i=i }", "'x' in 'identities'"),
        ("category C { objects: x; arrows: i=x->x; identities: x=i; compose: i.i=i i.i=i }", "'i.i' in 'compose'"),
        (f"{ONE_OBJECT}doctrine E {{ base: C; fiber: x=P x=P }}", "'x' in 'fiber'"),
        (f"{ONE_OBJECT}doctrine E {{ base: C; fiber: x=P; reindex: i=a>a i=a>a }}", "'i' in 'reindex'"),
        (f"{ONE_OBJECT}interior I {{ doctrine: D; box: x=a>a x=a>a }}", "'x' in 'box'"),
        (f"{ONE_OBJECT}adjunction A {{ p: D; q: D; lam: x=a>a x=a>a; rho: x=a>a }}", "'x' in 'lam'"),
        (f"{ONE_OBJECT}adjunction A {{ p: D; q: D; lam: x=a>a; rho: x=a>a x=a>a }}", "'x' in 'rho'"),
        (f"{ONE_OBJECT}comonad W {{ p: D; k-obj: x=x x=x; k-arr: i=i; kappa: x=a>a }}", "'x' in 'k-obj'"),
        (f"{ONE_OBJECT}comonad W {{ p: D; k-obj: x=x; k-arr: i=i i=i; kappa: x=a>a }}", "'i' in 'k-arr'"),
        (f"{ONE_OBJECT}comonad W {{ p: D; mu: x=i x=i; kappa: x=a>a }}", "'x' in 'mu'"),
        (f"{ONE_OBJECT}comonad W {{ p: D; nu: x=i x=i; kappa: x=a>a }}", "'x' in 'nu'"),
        (f"{ONE_OBJECT}comonad W {{ p: D; kappa: x=a>a x=a>a }}", "'x' in 'kappa'"),
    ],
)
def test_cli_duplicate_identifier_is_usage_error(tmp_path, capsys, text, duplicate):
    assert _main(tmp_path, text, "check") == 2
    assert f"duplicate identifier {duplicate}" in capsys.readouterr().err


TWO_WORLDS = "kripke-frame K { worlds: c0 c1; rel: c0->c1 }\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # a map entry written as a scalar
        (f"{ONE_OBJECT}doctrine E {{ base: C; fiber: x=P; reindex: i=a }}", "doctrine E: entry 'reindex' expects a map 'name=a>b,c>d', got 'i=a'"),
        (f"{ONE_OBJECT}interior I {{ doctrine: D; box: x=a }}", "interior I: entry 'box' expects a map 'name=a>b,c>d', got 'x=a'"),
        (f"{ONE_OBJECT}comonad W {{ p: D; kappa: x=a }}", "comonad W: entry 'kappa' expects a map 'name=a>b,c>d', got 'x=a'"),
        (f"{TWO_WORLDS}presheaf S {{ frame: K; at: c0={{a}} c1={{a}}; act: c0->c1=a }}", "presheaf S: entry 'act' expects a map 'name=a>b,c>d', got 'c0->c1=a'"),
        # a scalar entry written as a map
        (f"{ONE_OBJECT}comonad W {{ p: D; mu: x=a>b; kappa: x=a>a }}", "comonad W: entry 'mu' expects 'name=value', got the map 'x=a>b'"),
        ("category C { objects: x; arrows: i=x->x; identities: x=a>b; compose: i.i=i }", "category C: entry 'identities' expects 'name=value', got the map 'x=a>b'"),
        # an atom without its '='
        ("category C { objects: a; arrows: f; identities: a=f }", "category C: entry 'arrows' expects 'name=a->b', got 'f'"),
        ("category C { objects: x; arrows: i=x->x; identities: x=i; compose: i.i }", "category C: entry 'compose' expects 'name=value', got 'i.i'"),
        ("category C { objects: x; arrows: i=x->x; identities: x }", "category C: entry 'identities' expects 'name=value', got 'x'"),
        (f"{ONE_OBJECT}doctrine E {{ base: C; fiber: x }}", "doctrine E: entry 'fiber' expects 'name=value', got 'x'"),
        (f"{ONE_OBJECT}interior I {{ doctrine: D; box: x }}", "interior I: entry 'box' expects 'name=value', got 'x'"),
        ("kripke-frame K { worlds: c0 c1; rel: c0->c1; sets: p }", "kripke-frame K: entry 'sets' expects 'name=value', got 'p'"),
        ("quantale Q { elements: 0 1; pairs: 0->1; unit: 1; tensor: 0*0=0 0*1 1*1=1 }", "quantale Q: entry 'tensor' expects 'name=value', got '0*1'"),
        ("coalgebra M { kind: stream; states: a b; step: a=b b }", "coalgebra M: entry 'step' expects 'name=value', got 'b'"),
        (f"{TWO_WORLDS}presheaf S {{ frame: K; at: c0={{a}} c1 }}", "presheaf S: entry 'at' expects 'name=value', got 'c1'"),
        # a name without its separator
        ("category C { objects: x; arrows: i=x->x; identities: x=i; compose: ii=i }", "category C: entry 'compose' expects a composite 'g.f', got 'ii'"),
        ("quantale Q { elements: 0 1; pairs: 0->1; unit: 1; tensor: 0*0=0 01=0 1*1=1 }", "quantale Q: entry 'tensor' expects a product 'a*b', got '01'"),
        (f"{TWO_WORLDS}presheaf S {{ frame: K; at: c0={{a}} c1={{a}}; act: c0=a>a }}", "presheaf S: entry 'act' expects an arrow 'v->w', got 'c0'"),
    ],
)
def test_cli_map_entry_of_the_wrong_shape_is_usage_error(tmp_path, capsys, text, message):
    assert _main(tmp_path, text, "check") == 2
    assert message in capsys.readouterr().err


def test_cli_presheaf_without_the_action_along_a_composite_is_usage_error(tmp_path, capsys):
    # the refl-trans closure of w1->w2->w3 has the arrow w1<=w3, whose action
    # is determined by the other two but must still be written out
    text = (
        "kripke-frame K { worlds: w1 w2 w3; rel: w1->w2 w2->w3 }\n"
        "presheaf P { frame: K; at: w1={a} w2={a} w3={a}; act: w1->w2=a>a w2->w3=a>a }"
    )
    assert _main(tmp_path, text, "check") == 2
    assert "presheaf P: missing action along w1<=w3" in capsys.readouterr().err


CHAIN_F = "kripke-frame F { worlds: w1 w2; rel: w1->w2 }\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (f"{CHAIN_F}presheaf S {{ frame: F; at: w1={{a}} w2={{a,b}} zz={{c}}; act: w1->w2=a>a w2->w1=b>a }}",
         "presheaf S: unresolved world 'zz'"),
        (f"{CHAIN_F}presheaf S {{ frame: F; at: w1={{a}} w2={{a,b}}; act: w1->w2=a>a w2->w1=b>a }}",
         "presheaf S: unresolved arrow 'w2->w1'"),
        (f"{ONE_OBJECT}doctrine E {{ base: C; fiber: x=P zz=P }}", "doctrine E: unresolved object 'zz'"),
    ],
)
def test_cli_a_name_another_declaration_does_not_declare_is_usage_error(tmp_path, capsys, text, message):
    assert _main(tmp_path, text, "check") == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize(
    "text, verdict, witnesses",
    [
        (f"{CHAIN_F}presheaf S {{ frame: F; at: w1={{a}} w2={{a,b}}; act: w1->w2=a>a,q>b }}", "presheaf S",
         ["action along w1<=w2 mentions unknown element q"]),
        ("quantale L { elements: 0 1; pairs: 0->1; unit: 1; tensor: 0*0=0 0*1=0 1*1=1 1*zz=0 }", "quantale L",
         ["tensor mentions unknown element: (1,zz)"]),
        ("quantale L { elements: 0 1; pairs: 0->1; unit: zz; tensor: 0*0=0 0*1=0 1*1=1 }", "quantale L",
         ["unit mentions unknown element: zz", "unit law fails at 0", "unit law fails at 1"]),
        ("quantale L { elements: 0 1; pairs: 0->1; unit: zz; tensor: 0*0=0 0*1=0 1*1=1 0*zz=0 1*zz=1 zz*zz=zz }",
         "quantale L",
         ["unit mentions unknown element: zz", "tensor mentions unknown element: (0,zz)",
          "tensor mentions unknown element: (1,zz)", "tensor mentions unknown element: (zz,zz)",
          "unit law fails at 0", "unit law fails at 1"]),
        ("coalgebra M { kind: stream; states: s0; step: s0=s0 zz=s0 }", "coalgebra M", ["step at unknown state: zz"]),
    ],
)
def test_cli_a_block_that_names_its_own_undeclared_element_fails_its_verdict(tmp_path, capsys, text, verdict, witnesses):
    # the quantale's model wrote 1*zz and not zz*1, so it gets one witness
    f = tmp_path / "m.dct"
    f.write_text(text)
    assert main(["--json", "check", str(f)]) == 1
    found = {v["name"]: v for v in json.loads(capsys.readouterr().out)["verdicts"]}
    assert found[verdict]["witnesses"] == witnesses


def test_cli_user_category_named_like_a_frame_base_does_not_shadow_it(tmp_path, capsys):
    # a discrete category under the name a frame's base category once took
    # in the category namespace; the presheaf must still see the chain c0 <= c1
    text = (
        "kripke-frame C { worlds: c0 c1; rel: c0->c1 }\n"
        "category __frame_base_C { objects: c0 c1; arrows: i0=c0->c0 i1=c1->c1;"
        " identities: c0=i0 c1=i1; compose: i0.i0=i0 i1.i1=i1 }\n"
        "presheaf D { frame: C; at: c0={d0} c1={d1} }"
    )
    assert _main(tmp_path, text, "check") == 2
    assert "presheaf D: missing action along c0<=c1" in capsys.readouterr().err


COLLIDING_COALGEBRAS = """
poset P { elements: p0 p1; pairs: p0->p1 }
category C { objects: a|b a; arrows: c=a|b->a|b b|c=a->a; identities: a|b=c a=b|c; compose: c.c=c b|c.b|c=b|c }
doctrine D { base: C; fiber: a|b=P a=P }
comonad K { p: D; kappa: a|b=p0>p0,p1>p1 a=p0>p0,p1>p1 }
"""


def test_cli_coalgebras_whose_names_collide_fail_the_em_build(tmp_path, capsys):
    # the identity coalgebras <a|b|c> of object a|b (identity c) and of
    # object a (identity b|c) print alike; the model itself is valid
    assert _main(tmp_path, COLLIDING_COALGEBRAS, "check") == 0
    capsys.readouterr()
    f = tmp_path / "m.dct"
    assert main(["--json", "em", str(f), "--from", "K"]) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [(v["name"], v["pass"]) for v in verdicts][-2:] == [("comonad K", True), ("em K", False)]
    assert verdicts[-1]["witnesses"] == ["em failed: repeated coalgebra name '<a|b|c>'"]


def test_cli_searches_the_maps_between_each_pair_of_spaces_once(monkeypatch):
    from doctrines import cli, instances

    searched = Counter()
    search = instances._open_continuous_maps

    def counting(s, t):
        searched[s.name, t.name] += 1
        return search(s, t)

    monkeypatch.setattr(instances, "_open_continuous_maps", counting)
    # and under any name the command line binds it to
    monkeypatch.setattr(cli, "_open_continuous_maps", counting, raising=False)
    text = "topspace sier { points: bot top; opens: {} {top} {bot,top} }\ntopspace V { points: a b c; opens: {} {a} {a,b,c} }"
    ws = build_workspace(parse_text(text), 200000)
    assert {v["name"]: v["pass"] for v in ws.verdicts}["topological-doctrine"]
    # the guard's count and the build share one search per ordered pair
    assert searched == {pair: 1 for pair in product(("sier", "V"), repeat=2)}


def test_cli_world_names_whose_subset_labels_collide_fail_the_build(tmp_path, capsys):
    # {a,b} labels both the subset {'a,b'} and the subset {'a', 'b'}
    assert _main(tmp_path, "kripke-frame K { worlds: a,b a b; rel: a->b; sets: D=x }", "check") == 1
    assert "build failed: repeated poset element '{a,b}'" in capsys.readouterr().out


def test_cli_a_failed_doctrine_build_is_its_own_verdict(tmp_path, capsys):
    # the frame itself is fine; only the doctrine over it cannot be built
    f = tmp_path / "m.dct"
    f.write_text("kripke-frame K { worlds: a,b a b; rel: a->b; sets: D=x }")
    assert main(["--json", "check", str(f)]) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [(v["name"], v["pass"]) for v in verdicts] == [("kripke-frame K", True), ("kripke-doctrine K", False)]
    assert verdicts[1]["witnesses"] == ["build failed: repeated poset element '{a,b}'"]


MODEL_TOKENS = re.findall(r"\S+|\n", MODEL)
MUTATION_COMMANDS = [
    ("check",),
    ("em", "--from", "K.box"),
    ("derive", "--from", "K.box", "--comonad"),
    ("derive", "--from", "L3.adjunction", "--modality"),
    ("factor", "--from", "L3.adjunction"),
    ("temporal", "--coalgebra", "M", "--op", "EG", "--alpha", "{s0,s1}"),
]


@st.composite
def mutated_model(draw):
    """MODEL with one to three short token runs deleted, inserted from
    elsewhere in MODEL, or duplicated in place."""
    tokens = list(MODEL_TOKENS)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(range(len(tokens) + 1)))
        k = draw(st.sampled_from((1, 2, 3)))
        op = draw(st.sampled_from(("delete", "insert", "duplicate")))
        if op == "delete":
            del tokens[i : i + k]
        elif op == "insert":
            j = draw(st.sampled_from(range(len(MODEL_TOKENS))))
            tokens[i:i] = MODEL_TOKENS[j : j + k]
        else:
            tokens[i:i] = tokens[i : i + k]
    return " ".join(tokens)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=mutated_model())
def test_cli_exit_code_contract_holds_on_mutated_models(tmp_path_factory, text):
    try:
        doc = parse_text(text)
    except ParseError:
        pass
    else:
        assert parse_text(serialize(doc)) == doc, text
    f = tmp_path_factory.mktemp("mut") / "m.dct"
    f.write_text(text)
    for command in MUTATION_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main([command[0], str(f), *command[1:]])
        assert rc in (0, 1, 2), (rc, text, command)


COMMAND_NAMES = ("check", "derive", "em", "factor", "temporal", "suite")
LONG_OPTIONS = (
    "--json", "--seed", "--max-size", "--target", "--from", "--modality", "--comonad",
    "--adjunction", "--coalgebra", "--op", "--alpha", "--help",
)
# every spelling of a long option: the full name and each shorter prefix
SPELLINGS = {o: tuple(o[:k] for k in range(3, len(o) + 1)) for o in LONG_OPTIONS}
VALUES = ("7", "-3", "x", "{s0}", "h")
# an attached value may start with `-` too: `--op=--`, `--op=-`, `--op=-x`
ATTACHED = (*VALUES, "--", "-", "-x")
ARGV_TOKENS = (
    *COMMAND_NAMES,
    *(p for o in LONG_OPTIONS for p in SPELLINGS[o]),
    *(f"{o}={v}" for o in LONG_OPTIONS for v in ATTACHED),
    *VALUES,
    "FILE", "-", "--", "-h", "--bogus",
)
# (required, optional) parts after the command; a part is the option that
# takes a value, a bare flag, or FILE; ONE_OF is derive's exactly-one-of group
ONE_OF = ("--modality", "--comonad", "--adjunction")
COMMAND_PARTS = {
    "check": (("FILE",), ("--target",)),
    "derive": (("FILE", "--from", ONE_OF), ()),
    "em": (("FILE", "--from"), ()),
    "factor": (("FILE", "--from"), ()),
    "temporal": (("FILE", "--coalgebra", "--op"), ("--alpha",)),
    "suite": ((), ()),
}
BENCH_ARGV = sorted(
    {r.argv for w in workloads.WORKLOADS for seed in range(8) for r in workloads.requests_for(w, seed)}
)


@st.composite
def command_lines(draw):
    """A well-formed command line (options in any order, spelled in full or
    by a prefix, with `=value` or a separate value, some repeated, FILE
    possibly after `--`), then up to three tokens inserted, deleted or
    replaced."""

    def valued(option):
        spelled = draw(st.sampled_from(SPELLINGS[option]))
        numeric = option in ("--seed", "--max-size")
        if draw(st.booleans()):
            return [spelled, draw(st.sampled_from(VALUES[:2] if numeric else VALUES))]
        return [f"{spelled}={draw(st.sampled_from(VALUES[:2] if numeric else ATTACHED))}"]

    def part(p):
        if p == "FILE":
            return draw(st.sampled_from((["FILE"], ["--", "FILE"])))
        if p == ONE_OF:
            return [draw(st.sampled_from(ONE_OF))]
        return valued(p)

    name = draw(st.sampled_from(COMMAND_NAMES))
    required, optional = COMMAND_PARTS[name]
    parts = [part(p) for p in required] + [part(p) for p in optional if draw(st.booleans())]
    parts += [part(p) for p in required + optional if p != "FILE" and draw(st.integers(0, 3)) == 0]
    parts = draw(st.permutations(parts))
    head = [draw(st.sampled_from((["--json"], valued("--seed"), valued("--max-size")))) for _ in range(draw(st.integers(0, 2)))]
    argv = [t for chunk in head for t in chunk] + [name] + [t for chunk in parts for t in chunk]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2, 3)))):
        i = draw(st.integers(0, len(argv)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        token = draw(st.sampled_from(ARGV_TOKENS))
        if op == "insert":
            argv.insert(i, token)
        elif argv:
            argv[min(i, len(argv) - 1) : min(i, len(argv) - 1) + 1] = [token] if op == "replace" else []
    return argv


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """A directory holding MODEL in a file named FILE."""
    d = tmp_path_factory.mktemp("model")
    (d / "FILE").write_text(MODEL)
    return d


def _agrees_with_argparse(argv, model_dir):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            want = argparse_flags(argv)
        except SystemExit as e:
            want = e.code
    try:
        got = parse_argv(argv)
    except UsageExit as e:
        got = e.status
    assert got == want, argv
    if isinstance(want, int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == want, argv
        if want == 0:
            assert out.getvalue().startswith("usage: doctrines"), argv
        else:
            assert err.getvalue().startswith("usage: doctrines") and "doctrines: error: " in err.getvalue(), argv
            assert "Traceback" not in err.getvalue()
    elif want["command"] != "suite":
        # a command line both parsers accept runs, with FILE naming MODEL
        err = io.StringIO()
        with contextlib.chdir(model_dir), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(argv)
        assert status in (0, 1, 2) and "Traceback" not in err.getvalue(), argv


@settings(max_examples=800, derandomize=True, deadline=None)
@given(argv=st.one_of(command_lines(), command_lines(), st.lists(st.sampled_from(ARGV_TOKENS), max_size=8)))
def test_parse_argv_agrees_with_argparse(model_dir, argv):
    _agrees_with_argparse(argv, model_dir)


for _argv in BENCH_ARGV:
    test_parse_argv_agrees_with_argparse = example(argv=list(_argv))(test_parse_argv_agrees_with_argparse)


NEGATIVE_NUMBER_EDGES = ["-5", "-5\n", "-5\n\n", "-.5", "-1.", "-1.5", "-1.5.2", "-٣", "-", "--5", "-5 "]


@pytest.mark.parametrize(
    "argv",
    [
        ["temporal", "--coalgebra", "M", "--op=EG", "FILE", "--alp", "{s0}"],
        ["--seed", "-3", "--max=5", "derive", "--mod", "--from", "A", "--", "FILE"],
        ["check", "FILE", "--target", "a", "--target", "b"],
        ["derive", "FILE", "--from", "A", "--modality", "--comonad"],
        ["check", "FILE", "--"],
        ["check", "--", "--"],
        ["check", "-hh"],
        ["check", "-hx"],
        ["--json=h", "suite"],
        ["-h=h"],
        ["-h="],
        ["--bogus", "check", "-h"],
        ["check", "-h", "--=x"],
        ["--json", "--", "check", "FILE"],
        ["--seed", "--", "check", "FILE"],
        [],
        # argparse reads `^-\d+$|^-\d*\.\d+$` as a negative number, not an option
        *(["--seed", token, "suite"] for token in NEGATIVE_NUMBER_EDGES),
        *(["check", "FILE", "--target", token] for token in NEGATIVE_NUMBER_EDGES),
    ],
)
def test_parse_argv_agrees_with_argparse_on_edge_cases(model_dir, argv):
    _agrees_with_argparse(argv, model_dir)


def test_parse_argv_reads_the_grammar():
    assert parse_argv(["temporal", "--coalgebra", "M", "--op=EG", "FILE", "--alp", "{s0}", "--alpha", "{s1}"]) == {
        "json": False, "seed": 7, "max_size": 200000, "command": "temporal",
        "coalgebra": "M", "op": "EG", "alpha": "{s1}", "file": "FILE",
    }
    assert parse_argv(["--js", "--seed=-3", "suite"]) == {"json": True, "seed": -3, "max_size": 200000, "command": "suite"}


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed=--", "suite"],
        ["check", "FILE", "--target=--"],
        ["temporal", "FILE", "--coalgebra", "M", "--op=--"],
        ["temporal", "FILE", "--coalgebra=--", "--op", "EG"],
        ["em", "FILE", "--from=--"],
    ],
)
def test_an_attached_double_dash_value_is_a_usage_error(tmp_path, capsys, argv):
    # argparse drops the value `--` of `--op=--` and stores [] for the option
    f = tmp_path / "m.dct"
    f.write_text(MODEL)
    assert main([str(f) if a == "FILE" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: doctrines") and "doctrines: error: argument --" in err
    assert "Traceback" not in err


# the fully spelled `temporal` example of the README's command-line section
README_TEMPORAL = ["temporal", "--coalgebra", "M", "--op", "EG", "FILE", "--alpha", "{s0}"]


def test_every_benchmark_command_line_is_read_without_argparse():
    # a command line that parse_argv hands to argparse pays for importing it
    # and building its parsers; no benchmark request may pay that
    argvs = [list(argv) for argv in BENCH_ARGV] + [README_TEMPORAL]
    probe = (
        f"import json, sys; sys.path.insert(0, {str(ROOT / 'src')!r}); from doctrines.cli import parse_argv; "
        f"flags = [parse_argv(argv) for argv in {argvs!r}]; "
        "print(json.dumps([flags, sorted(set(sys.modules).intersection({'argparse', 'gettext', 'shutil'}))]))"
    )
    r = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True)
    flags, loaded = json.loads(r.stdout)
    assert flags == [argparse_flags(argv) for argv in argvs]
    assert loaded == []


# strings that meet every escape of `json.dumps`: controls, DEL, lone
# surrogates and characters beyond the BMP
JSON_TEXT = st.text(st.characters(blacklist_categories=())) | st.text('\x00\x08\x0c\x1f\x7f"\\\n\r\t\ud800\udfff\U0001f600é∘ ')
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(max_value=-(2**64)) | JSON_TEXT,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(JSON_TEXT, inner),
    max_leaves=20,
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(value=JSON_VALUES)
@example(value={"a": [1, (True, None), []], "": {}, "\x7f\ud800\U0001f600\\": -(2**100)})
def test_report_writer_writes_what_json_dumps_writes(value):
    assert _dumps(value, "\n") == json.dumps(value, indent=2)
    assert _dumps(value) == json.dumps(value)


@pytest.mark.parametrize(
    "value, kind",
    [(0.5, "float"), ({"a": [0, {"b": 1.5}]}, "float"), ({1: "a"}, "int"), ([{"a": {(0, 1): 0}}], "tuple"), ({b"x"}, "set")],
)
def test_report_writer_names_a_type_it_cannot_write(value, kind):
    for nl in (None, "\n"):
        with pytest.raises(TypeError, match=kind):
            _dumps(value, nl)


def _runs_in_process(tmp_path, requests) -> list:
    """Exit status, stdout and stderr of `main` on each (argv, model text)
    of `requests`, in this process; FILE in an argv names the model's file."""
    f = tmp_path / "m.dct"
    out = []
    for argv, model in requests:
        if model is not None:
            f.write_text(model)
        with contextlib.redirect_stdout(io.StringIO()) as o, contextlib.redirect_stderr(io.StringIO()) as e:
            rc = main([str(f) if a == "FILE" else a for a in argv])
        out.append((rc, o.getvalue(), e.getvalue()))
    return out


SEED_3_REQUESTS = [(r.argv, r.model) for w in workloads.WORKLOADS for r in workloads.requests_for(w, 3)]


def test_every_seed_3_benchmark_report_is_written_as_json_dumps_writes_it(tmp_path, monkeypatch):
    import doctrines.cli as cli

    reports, run_report = [], cli.run
    monkeypatch.setattr(cli, "run", lambda *args: reports.append(run_report(*args)) or reports[-1])
    requests = SEED_3_REQUESTS + [(tuple(a for a in argv if a != "--json"), model) for argv, model in SEED_3_REQUESTS]
    assert all(argv[0] == "--json" for argv, _ in SEED_3_REQUESTS)
    written = _runs_in_process(tmp_path, requests)
    assert len(reports) == len(requests)
    monkeypatch.setattr(cli, "_dumps", json.dumps)  # `render_text` with json's compact lines
    for (argv, _), (_, stdout, stderr), report in zip(requests, written, reports):
        assert stderr == ""
        assert stdout == (json.dumps(report, indent=2) + "\n" if "--json" in argv else render_text(report)), argv


THREE_OBJECTS = """category C { objects: x y z; arrows: i=x->x j=y->y k=z->z f=x->y g=y->z h=x->z;
             identities: x=i y=j z=k; compose: i.i=i j.j=j k.k=k f.i=f j.f=f g.j=g k.g=g h.i=h k.h=h g.f=h }
"""


def test_certificates_that_never_certify_change_no_report(tmp_path, monkeypatch):
    # a certificate may only certify a pass: with each one refusing, every
    # law runs its literal scan, and each report and exit status stays
    from doctrines import order, suite

    requests = [(("--json", "--seed", str(seed), "suite"), None) for seed in (7, 1, 2, 3)]
    requests += [(("--json", "check", "FILE"), MODEL), *SEED_3_REQUESTS]
    # no benchmark model declares a category, the one place Light's test runs
    requests.append((("--json", "check", "FILE"), THREE_OBJECTS))

    def runs():
        # the suite's bundled values are built afresh, so no verdict kept on
        # them in the other run is read
        for value in vars(suite).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        return _runs_in_process(tmp_path, requests)

    certified = runs()
    refused_in = set()

    def never(checks):
        refused_in.add(sys._getframe(1).f_code.co_name)
        return False

    certify = order._certified
    for name, module in list(sys.modules.items()):
        if name.startswith("doctrines.") and getattr(module, "_certified", None) is certify:
            monkeypatch.setattr(module, "_certified", never)
    assert runs() == certified
    assert refused_in == {
        "_meets_certified", "monotone_violations", "functor_violations", "doctrine_violations", "category_violations"
    }


def test_only_the_builders_know_the_name_formats(tmp_path, monkeypatch):
    # each name is printed by the builder of its category alone: every other
    # site finds an arrow by its payload and a coalgebra by its structure
    # arrow, so with other injective formats the suite and an EM build pass
    from doctrines import fincat, instances, suite

    def clear():
        for value in vars(suite).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    clear()
    formats = {
        (fincat, "function_arrow_name"): lambda s, d, graph, order: repr(("fn", s, d, tuple(graph[e] for e in order))),
        (fincat, "coalgebra_object_name"): lambda x, c: repr(("coalgebra", x, c)),
        (fincat, "coalgebra_arrow_name"): lambda s, d, f: repr(("em", s, d, f)),
        (instances, "presheaf_arrow_name"): lambda d, e, phi: repr(
            ("nat", d.name, e.name, tuple(tuple(phi[w][x] for x in d.at[w]) for w in d.base.objects))
        ),
    }
    for (module, name), fmt in formats.items():
        monkeypatch.setattr(module, name, fmt)
    try:
        for seed in (7, 1, 2, 3):
            report = suite.run_acceptance(seed)
            assert [c["id"] for c in report["criteria"] if not c["pass"]] == [], seed
            assert report["pass"], seed
        [(rc, out, err)] = _runs_in_process(tmp_path, [(("--json", "em", "FILE", "--from", "K.box"), MODEL)])
        assert (rc, err) == (0, "")
        assert "('coalgebra', " in out
    finally:
        # the values built under these formats are dropped with the formats
        clear()


def _planted_certificate_failures() -> dict:
    """One planted failure per certificate site, each a thunk returning its
    verdict: the complement map on pw(2), which keeps no meet and no order;
    a map that reverses a chain, which has no meet certificate to try; a
    functor from Z/2 that sends the generator to an idempotent; a doctrine
    over Z/2 whose reindexing along the generator is constant; and a
    declared one-object category whose composition has identities but does
    not associate."""
    from doctrines.doctrine import Doctrine, doctrine_violations
    from doctrines.fincat import Functor, category_violations, functor_violations
    from doctrines.order import chain_poset, graph_map, identity_map, monotone_violations, powerset_poset
    from util import one_object_monoid_category

    chain = chain_poset(["a", "b", "c"])
    z2 = one_object_monoid_category("*", ["e", "s"], "e", {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"})
    idem = one_object_monoid_category("*", ["e", "z"], "e", {("e", "e"): "e", ("e", "z"): "z", ("z", "e"): "z", ("z", "z"): "z"})
    two = chain_poset(["0", "1"])
    table = {("e", x): x for x in "eab"} | {(x, "e"): x for x in "eab"}
    table |= {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "a"}
    pw2 = powerset_poset(["p", "q"])
    complement = {"{}": "{p,q}", "{p}": "{q}", "{q}": "{p}", "{p,q}": "{}"}
    return {
        "_meets_certified": lambda: monotone_violations(graph_map(pw2, pw2, complement)),
        "monotone_violations": lambda: monotone_violations(graph_map(chain, chain, {"a": "c", "b": "b", "c": "a"})),
        "functor_violations": lambda: functor_violations(Functor(z2, idem, {"*": "*"}, {"e": "e", "s": "z"})),
        "doctrine_violations": lambda: doctrine_violations(
            Doctrine(z2, {"*": two}, {"e": identity_map(two), "s": graph_map(two, two, {"0": "0", "1": "0"})})
        ),
        "category_violations": lambda: category_violations(["*"], [(x, "*", "*") for x in "eab"], {"*": "e"}, table),
    }


def test_only_the_literal_scan_names_a_failure_each_certificate_misses(monkeypatch):
    # the converse of the literal-only run: on each planted failure the
    # certificate misses and the literal scan names the witnesses, and a
    # certificate forced to pass would hide them all
    from doctrines import order

    literal = {site: verdict() for site, verdict in _planted_certificate_failures().items()}
    assert literal == {
        # every strict inclusion is reversed
        "_meets_certified": [
            f"order not preserved on ({a},{b})"
            for a, b in [("{p}", "{p,q}"), ("{q}", "{p,q}"), ("{}", "{p,q}"), ("{}", "{p}"), ("{}", "{q}")]
        ],
        "monotone_violations": ["order not preserved on (a,b)", "order not preserved on (a,c)", "order not preserved on (b,c)"],
        "functor_violations": ["composition not preserved on (s,s)"],
        "doctrine_violations": ["contravariance fails on (s,s)"],
        # every triple of the two non-identities fails
        "category_violations": [f"associativity fails on ({f},{g},{h})" for h in "ab" for g in "ab" for f in "ab"],
    }
    certified_in = set()

    def always(checks):
        certified_in.add(sys._getframe(1).f_code.co_name)
        return True

    certify = order._certified
    for name, module in list(sys.modules.items()):
        if name.startswith("doctrines.") and getattr(module, "_certified", None) is certify:
            monkeypatch.setattr(module, "_certified", always)
    assert {site: verdict() for site, verdict in _planted_certificate_failures().items()} == dict.fromkeys(literal, [])
    assert certified_in == set(literal)


def test_a_monotone_map_that_keeps_no_meet_falls_back_to_the_cover_certificate(monkeypatch):
    # ∅ ↦ ∅ and every other subset ↦ ⊤ is monotone but sends {p} ∧ {q} = ∅
    # to ∅, not to ⊤ ∧ ⊤: the meet certificate misses it and the covers pass it
    from doctrines import order

    pw2 = order.powerset_poset(["p", "q"])
    m = order.graph_map(pw2, pw2, {"{}": "{}", "{p}": "{p,q}", "{q}": "{p,q}", "{p,q}": "{p,q}"})
    asked, certify = [], order._certified

    def recorded(checks):
        asked.append((sys._getframe(1).f_code.co_name, certify(checks)))
        return asked[-1][1]

    monkeypatch.setattr(order, "_certified", recorded)
    assert order.monotone_violations(m) == []
    assert asked == [("_meets_certified", False), ("monotone_violations", True)]


def _modules_a_check_loads(tmp_path, names: set, argvs=(("--json", "check", "FILE"),), model=MODEL) -> str:
    """The exit status of each of `argvs` (by default `--json check`), run on
    `model` one after another in one fresh `python -S` interpreter, and which
    of `names` it has loaded by the end."""
    f = tmp_path / "m.dct"
    f.write_text(model)
    argvs = [[str(f) if a == "FILE" else a for a in argv] for argv in argvs]
    probe = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import doctrines.cli; "
        f"rc = ''.join(str(doctrines.cli.main(argv)) for argv in {argvs!r}); "
        f"loaded = sorted(set(sys.modules).intersection({sorted(names)!r})); "
        "sys.stderr.write(f'{rc} {loaded}')"
    )
    run = subprocess.run([sys.executable, "-S", "-c", probe], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return run.stderr


def test_cli_call_imports_no_argparse_gettext_locale_or_shutil(tmp_path):
    assert _modules_a_check_loads(tmp_path, {"argparse", "gettext", "locale", "shutil"}) == "0 []"


def test_cli_call_imports_no_code_generator_or_typing(tmp_path):
    # dataclasses would run `exec` for each method it makes, and pulls in
    # inspect, ast, dis and tokenize
    assert _modules_a_check_loads(tmp_path, {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}) == "0 []"


def test_cli_call_imports_no_functools_collections_or_math(tmp_path):
    # the modules name `collections.abc` types in annotations alone, which
    # `from __future__ import annotations` never evaluates, `order.kept`
    # sets what `functools.wraps` would, and the presheaf guard multiplies
    # in a loop: `math` is a shared library, loaded from disk
    assert _modules_a_check_loads(tmp_path, {"functools", "collections", "collections.abc", "math"},
                                  model=MODEL + "kripke-frame C { worlds: c0 c1; rel: c0->c1 }\n"
                                  "presheaf D { frame: C; at: c0={a} c1={a}; act: c0->c1=a>a }\n") == "0 []"


def test_cli_call_imports_no_random(tmp_path):
    # the seeded generators live in `suite`, which only the suite command imports
    assert _modules_a_check_loads(tmp_path, {"random"}) == "0 []"
    # and the suite draws on `_random`, the C core of `random.Random`, so after
    # the command line's own import it loads those two alone
    probe = (
        f"import io, sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import doctrines.cli; "
        "before = set(sys.modules); sys.stdout = io.StringIO(); "
        "rc = doctrines.cli.main(['--json', '--seed', '7', 'suite']); "
        "sys.stderr.write(f'{rc} {sorted(set(sys.modules) - before)}')"
    )
    run = subprocess.run([sys.executable, "-S", "-c", probe], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert run.stderr == "0 ['_random', 'doctrines.suite']"


def test_cli_call_imports_no_json_re_or_enum(tmp_path):
    # the reports are written by `cli._dumps`: importing `json` loads its
    # decoder, which imports `re` and `enum` and compiles its patterns
    assert workloads.GATE_MODEL == MODEL
    argvs = [(*flags, *cmd) for cmd in workloads.GATE_COMMANDS for flags in (("--json",), ())]
    argvs.append(("--json", "--seed", "7", "suite"))
    assert _modules_a_check_loads(tmp_path, {"json", "re", "enum"}, argvs) == "0" * len(argvs) + " []"


def test_cli_import_moves_its_objects_out_of_the_collectors_generations():
    probe = f"import gc, sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import doctrines.cli; print(gc.get_freeze_count())"
    r = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True)
    assert int(r.stdout) > 1_000


GC_EXITS = {
    "passes": ("--json check FILE", MODEL, 0),
    "fails": ("check FILE", "topspace S { points: a b; opens: {a} }", 1),
    "usage": ("--json check", MODEL, 2),
    "parse": ("check FILE", "poset P { elements: a", 2),
    "build": ("em FILE --from nowhere", MODEL, 2),
    "unreadable": ("check MISSING", MODEL, 2),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", list(GC_EXITS))
def test_cli_leaves_the_collector_as_it_found_it_on_every_exit(tmp_path, capsys, case, enabled):
    words, text, status = GC_EXITS[case]
    f = tmp_path / "m.dct"
    f.write_text(text)
    argv = [{"FILE": str(f), "MISSING": str(tmp_path / "missing.dct")}.get(w, w) for w in words.split()]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == status
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_cli_runs_a_suite_without_a_collection_and_library_calls_still_collect(capsys):
    from doctrines import suite

    def clear():
        for value in vars(suite).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    assert gc.isenabled()
    clear()
    gc.callbacks.append(record)
    try:
        assert main(["--json", "--seed", "7", "suite"]) == 0
        assert collections == []
        # the same work called in process collects as the caller's setting says
        clear()
        assert suite.run_acceptance(7)["pass"]
        assert collections
    finally:
        gc.callbacks.remove(record)
    capsys.readouterr()
