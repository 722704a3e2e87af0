import contextlib
import io
import json
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from doctrines.cli import (
    ModelDocument,
    ParseError,
    main,
    parse_text,
    run,
    serialize,
)

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


def test_parse_serialize_roundtrip():
    doc = parse_text(MODEL)
    again = parse_text(serialize(doc))
    assert again == doc
    assert parse_text(serialize(again)) == again


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


def test_cli_size_guard_counts_work(tmp_path, capsys):
    chain = [f"c{i}" for i in range(12)]
    rel = " ".join(f"{a}->{b}" for a, b in zip(chain, chain[1:]))
    frame = f"kripke-frame K {{ worlds: {' '.join(chain)}; rel: {rel}; sets: D=x }}"
    states = [f"s{i}" for i in range(14)]
    step = " ".join(f"{s}=({t})" for s, t in zip(states, states[1:] + states[:1]))
    tree = f"coalgebra T {{ kind: tree; states: {' '.join(states)}; step: {step} }}"
    for text, name in ((frame, "kripke-doctrine K"), (tree, "coalgebra-oracle T")):
        assert _main(tmp_path, text, "check") == 1
        out = capsys.readouterr().out
        assert f"FAIL {name}\n  - refused: estimated work" in out
    assert _main(tmp_path, MODEL, "check") == 0
    assert "refused" not in capsys.readouterr().out


def test_cli_presheaf_size_guard_is_counted_not_enumerated(tmp_path, capsys):
    # 2^40 families: a guard that steps through them would never return
    elements = ",".join(f"e{i}" for i in range(40))
    text = f"kripke-frame K {{ worlds: w }}\npresheaf P {{ frame: K; at: w={{{elements}}} }}"
    assert _main(tmp_path, text, "check") == 1
    out = capsys.readouterr().out
    assert "FAIL presheaf-instance K\n  - refused: estimated work 1099511627776 exceeds --max-size 200000" in out


# a one-object doctrine D on the one-point poset P, for the cases below
ONE_OBJECT = """poset P { elements: a }
category C { objects: x; arrows: i=x->x; identities: x=i; compose: i.i=i }
doctrine D { base: C; fiber: x=P }
"""


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
