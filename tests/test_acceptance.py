"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-11 run through the shared suite module (also reachable via the
CLI `suite` command); criterion 12 exercises the CLI process boundary.
"""

import json
import subprocess
import sys
import time

from doctrines import adjunction
from doctrines import suite as S
from doctrines.instances import fake_core, lukasiewicz3


SEED = 7


def _report(n: int, result: tuple[bool, list[str]], budget: float | None = None, elapsed: float | None = None):
    """Print criterion n's pass/fail line (and its details when it fails),
    assert that it passed, and return its details."""
    passed, details = result
    extra = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {n}: {'PASS' if passed else 'FAIL'} - {S.TITLES[n - 1]}{extra}")
    if not passed:
        for d in details:
            print("   ", d)
    assert passed, details
    if budget is not None and elapsed is not None:
        assert elapsed < budget, f"criterion {n} exceeded {budget}s"
    return details


def test_criterion_01_interior_law_suite():
    t = time.time()
    details = _report(1, S.criterion_interior_suite(), budget=10.0, elapsed=time.time() - t)
    assert any("witnessed" in d for d in details)


def test_criterion_02_adjunction_to_modality():
    t = time.time()
    details = _report(2, S.criterion_am_modality(SEED), budget=30.0, elapsed=time.time() - t)
    assert any("50 seeded random" in d and "50 pass" in d for d in details)


def test_criterion_03_factorization():
    _report(3, S.criterion_factorization())


def test_criterion_04_factorization_refined():
    _report(4, S.criterion_factorization2())


def test_criterion_05_comonad_suite():
    _report(5, S.criterion_comonad_suite())


def test_criterion_06_modality_comparison():
    named = " ".join(_report(6, S.criterion_comparison()))
    assert "quantale" in named and "presheaf" in named


def test_criterion_07_local_adjunction():
    _report(7, S.criterion_local_adjunction())


def test_criterion_08_triviality_dichotomies():
    details = _report(8, S.criterion_triviality())
    assert any("luk3" in d and "as expected" in d for d in details)


def test_criterion_09_bang_laws():
    details = _report(9, S.criterion_bang_laws())
    assert any("fake core" in d and "law (2) fails" in d for d in details)


def test_failing_bang_laws_show_their_first_three_witnesses(monkeypatch):
    real = S.bang_law_violations

    def fake_everywhere(q, sets, core_override=None):
        return real(q, sets, core_override=core_override or fake_core(q))

    monkeypatch.setattr(S, "bang_law_violations", fake_everywhere)
    passed, details = S.criterion_bang_laws()
    assert not passed
    # the fake core keeps every element of luk3, and h ≤ h⊗h = 0 fails
    sets = {"X": ["x"], "Y": ["x", "y"], "Z": ["x", "y", "z"]}
    bad = real(lukasiewicz3(), sets, core_override=fake_core(lukasiewicz3()))
    assert len([w for w in bad if w.startswith("law (2) ")]) > 3
    assert details[:2] == [
        "bool: laws (1)-(4) hold on fibers up to size 3",
        "luk3: law (2) fails at (X,[x:h]); law (2) fails at (Y,[x:0;y:h]); law (2) fails at (Y,[x:h;y:0])",
    ]


def test_failing_refined_factorization_shows_its_first_three_witnesses(monkeypatch):
    real = adjunction.factorize2_report

    def planted(A):
        surjective, injective = real(A)
        x = A.p.base.objects[0]
        missed = (f"lambda misses the stable element ({x},m0)", f"lambda misses the stable element ({x},m1)")
        surjective = {**surjective, x: (*missed, f"lambda leaves the stable fiber at ({x},o0)")}
        return surjective, {**injective, x: (f"eta.rho' identifies ({x},c0) and ({x},c1)",)}

    monkeypatch.setattr(adjunction, "factorize2_report", planted)
    passed, details = S.criterion_factorization2()
    assert not passed
    adjunctions = S.bundled_adjunctions()
    assert len(details) == len(adjunctions)
    for (name, A), line in zip(adjunctions, details):
        x = A.p.base.objects[0]
        assert line == (
            f"{name}: lambda misses the stable element ({x},m0); lambda misses the stable element ({x},m1); "
            f"lambda leaves the stable fiber at ({x},o0)"
        )


def test_criterion_10_temporal_oracles():
    t = time.time()
    _report(10, S.criterion_temporal(SEED), budget=20.0, elapsed=time.time() - t)


def test_criterion_10_fails_when_the_mask_chain_drops_a_state(monkeypatch):
    # the sweep of 400 random boxes compares each chain's end with the
    # oracle, so a chain helper that loses a state of the box is caught
    real = S._gfp_chain
    dropped = []

    def drop_lowest(c, lift, alpha):
        chain = real(c, lift, alpha)
        if chain[-1]:
            dropped.append(alpha)
        return chain[:-1] + [chain[-1] & (chain[-1] - 1)]

    monkeypatch.setattr(S, "_gfp_chain", drop_lowest)
    passed, details = S.criterion_temporal(SEED)
    assert not passed and dropped
    assert details[0].endswith(": 0 mismatches")
    assert details[1] == f"100 seeded random coalgebras (|A| <= 8): {len(dropped)} mismatches, 0 over the iteration bound"


def test_criterion_11_presheaf_oracle():
    _report(11, S.criterion_presheaf_oracle())


def test_suite_scans_each_value_and_builds_each_em_doctrine_once():
    # verdicts, EM doctrines, stable subdoctrines, ma adjunctions, mc comonads
    # and identity transformations are kept
    # on their values (order.kept), so the suite, which passes one value
    # through several constructions, scans or builds from it only once; a
    # profile hook counts the runs of each kept build's own code per value
    from doctrines import adjunction, comonad, fincat, interior

    builds = {
        fn.__wrapped__.__code__: name
        for module in (fincat, interior, adjunction, comonad)
        for name, fn in vars(module).items()
        if callable(fn) and getattr(fn, "__module__", None) == module.__name__ and hasattr(fn, "__wrapped__")
    }
    assert len(builds) == 18
    calls = {}

    def profile(frame, event, arg):
        name = builds.get(frame.f_code) if event == "call" else None
        if name is not None:
            value = frame.f_locals[frame.f_code.co_varnames[0]]
            # holding the value keeps its id from being reused
            calls.setdefault((name, id(value)), [value, 0])[1] += 1

    # the bundled values are built afresh, so nothing an earlier test kept on
    # them hides a build from the count
    for value in vars(S).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    sys.setprofile(profile)
    try:
        passed = S.run_acceptance(SEED)["pass"]
    finally:
        sys.setprofile(None)
    assert passed
    assert {name for name, _ in calls} >= {
        "adjunction_violations",
        "factorization_violations",
        "factorize2_report",
        "comonad_violations",
        "interior_violations",
        "em_doctrine",
        "ma",
        "mc",
        "stable_subdoctrine",
        "identity_nat",
        "nat_violations",
    }
    assert [(name, n) for (name, _), (_, n) in calls.items() if n > 1] == []


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "doctrines.cli", *args], capture_output=True, text=True
    )


def test_criterion_12_cli_determinism_and_exit_codes(tmp_path):
    first = _cli("--json", "--seed", "7", "suite")
    second = _cli("--json", "--seed", "7", "suite")
    ok = (
        first.returncode == 0
        and first.stdout == second.stdout
        and json.loads(first.stdout)["seed"] == 7
    )
    # exit-code contract: 0 all-pass, 1 any-fail, 2 usage/parse error
    good = tmp_path / "good.dct"
    good.write_text("poset P { elements: a b; pairs: a->b }\n")
    bad = tmp_path / "bad.dct"
    bad.write_text("poset P { elements: a b; pairs: a->b b->a; closure: refl-trans }\n")
    ugly = tmp_path / "ugly.dct"
    ugly.write_text("widget W { }\n")
    codes = (
        _cli("check", str(good)).returncode,
        _cli("check", str(bad)).returncode,
        _cli("check", str(ugly)).returncode,
    )
    ok = ok and codes == (0, 1, 2)
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE 12: {status} - CLI determinism and exit codes (codes={codes})")
    assert ok
