"""Metamorphic reordering: permuting the declaration order of worlds,
points, states, elements and carrier members in every `modal` and `gate`
model of benchmark seeds 0-3 changes no exit status, no verdict's pass flag
and no verdict's witness count (shown plus `witnesses_omitted`). The order
of a walk, a search or an element table decides no pass flag."""

import contextlib
import io
import json
import random
import re
import sys
from pathlib import Path

from doctrines.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

SEEDS = (0, 1, 2, 3)
# a list of atoms, and the two entries whose atoms hold lists: `sets`
# (NAME=a,b,…) and a presheaf's `at` (world={a,b,…})
LISTS = re.compile(r"\b(worlds|points|states|elements):([^;}]*)")
MEMBERS = re.compile(r"\b(sets|at):((?:[^;{}]|\{[^{}]*\})*)")


def permuted(model: str, rng: random.Random) -> str:
    """`model` with every list of declared names in a seeded order."""

    def shuffled(atoms: list) -> list:
        return rng.sample(atoms, len(atoms))

    def names(m):
        return f"{m[1]}: {' '.join(shuffled(m[2].split()))} "

    def members(m):
        def entry(atom: str) -> str:
            key, body = atom.split("=", 1)
            braced = body.startswith("{")
            inner = ",".join(shuffled([x for x in body.strip("{}").split(",") if x]))
            return f"{key}={{{inner}}}" if braced else f"{key}={inner}"

        return f"{m[1]}: {' '.join(shuffled([entry(a) for a in m[2].split()]))} "

    return MEMBERS.sub(members, LISTS.sub(names, model))


def _outcome(tmp_path, argv, model) -> tuple:
    """The exit status and, per verdict, its name, pass flag and witness count."""
    f = tmp_path / "m.dct"
    f.write_text(model)
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        rc = main([str(f) if a == "FILE" else a for a in argv])
    if rc == 2:
        return rc, None
    verdicts = json.loads(out.getvalue())["verdicts"]
    return rc, [(v["name"], v["pass"], len(v["witnesses"]) + v.get("witnesses_omitted", 0)) for v in verdicts]


def _requests():
    seen = set()
    for workload in ("modal", "gate"):
        for seed in SEEDS:
            for r in workloads.requests_for(workload, seed):
                if r.model is not None and (r.argv, r.model) not in seen:
                    seen.add((r.argv, r.model))
                    yield r.argv, r.model


def test_the_reordering_keeps_every_declared_name_and_moves_most_lists():
    rng = random.Random("reorder")
    models = {model for _, model in _requests()}
    moved = 0
    for model in models:
        again = permuted(model, rng)
        assert sorted(re.findall(r"[\w.]+", again)) == sorted(re.findall(r"[\w.]+", model))
        moved += again != model
    assert moved >= 0.9 * len(models)


def test_permuting_declaration_orders_keeps_every_exit_status_pass_flag_and_witness_count(tmp_path):
    rng = random.Random("reorder")
    failing = 0
    for argv, model in _requests():
        want = _outcome(tmp_path, argv, model)
        assert _outcome(tmp_path, argv, permuted(model, rng)) == want, (argv, model)
        failing += want[0] == 1
    assert failing  # the planted frames that are not transitive fail on both sides
