import json
import subprocess
import sys

import pytest

from doctrines.cli import (
    ModelDocument,
    ParseError,
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
