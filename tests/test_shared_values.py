"""Keeping by value: `order.kept` hands a value the result its build kept on
an equal value over the same base, which must change no report. Each oracle
here runs with the lookup forced never to match, so every value builds its
own, and compares."""

import contextlib
import gc
import io
import sys
from pathlib import Path
from weakref import ref

import pytest

from doctrines import order, suite
from doctrines.cli import main
from doctrines.comonad import ma
from doctrines.doctrine import Doctrine
from doctrines.interior import identity_interior, interior_violations, stable_subdoctrine
from doctrines.order import FinPoset, MonotoneMap
from util import powerset_doctrine_over

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def _fresh_bundles():
    """Build the suite's bundled values afresh, so nothing kept on them in
    an earlier run is read."""
    for value in vars(suite).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def _counted(monkeypatch) -> list:
    """The values the lookup answers with, from now on."""
    found, lookup = [], order._equal_copy
    monkeypatch.setattr(order, "_equal_copy", lambda refs, v: found.append(lookup(refs, v)) or found[-1])
    return found


def _never_shared(monkeypatch):
    monkeypatch.setattr(order, "_equal_copy", lambda refs, v: None)


@pytest.mark.parametrize("seed", range(6))
def test_the_suite_reports_the_same_with_sharing_forced_off(seed, monkeypatch):
    _fresh_bundles()
    found = _counted(monkeypatch)
    shared = suite.run_acceptance(seed)
    assert shared["pass"] and any(u is not None for u in found)  # equal copies were found
    _fresh_bundles()
    _never_shared(monkeypatch)
    assert suite.run_acceptance(seed) == shared


def _reports(tmp_path, requests) -> list:
    f, out = tmp_path / "m.dct", []
    for r in requests:
        _fresh_bundles()
        if r.model is not None:
            f.write_text(r.model)
        with contextlib.redirect_stdout(io.StringIO()) as o, contextlib.redirect_stderr(io.StringIO()) as e:
            rc = main(r.cli_argv(str(f)))
        out.append((rc, o.getvalue(), e.getvalue()))
    return out


def test_every_gate_and_modal_report_is_the_same_with_sharing_forced_off(tmp_path, monkeypatch):
    requests = list(dict.fromkeys(r for w in ("gate", "modal") for seed in range(4) for r in workloads.requests_for(w, seed)))
    shared = _reports(tmp_path, requests)
    _never_shared(monkeypatch)
    assert _reports(tmp_path, requests) == shared


def _relabelled(d: Doctrine) -> Doctrine:
    """d with each fiber element standing for another value: equal to d
    under ==, which leaves values out, over the same base object."""
    fibers = {x: FinPoset(f.elements, f.codes, values=tuple(("other", v) for v in f.values)) for x, f in d.fibers.items()}
    reindex = {t: MonotoneMap(fibers[d.base.dst(t)], fibers[d.base.src(t)], m.images) for t, m in d.reindex.items()}
    return Doctrine(d.base, fibers, reindex)


def test_equal_values_whose_fibers_carry_other_values_share_no_construction():
    d = powerset_doctrine_over({"A": ["a1"], "B": ["b1", "b2"]})
    op, other = identity_interior(d), identity_interior(_relabelled(d))
    assert op == other and op.doctrine.base is other.doctrine.base
    assert interior_violations(op) == interior_violations(other) == []
    assert ma(op) is not ma(other) and stable_subdoctrine(op) is not stable_subdoctrine(other)
    # each construction reads its own operator's values
    assert stable_subdoctrine(other)[0].fibers["B"].values == other.doctrine.fibers["B"].values
    assert ma(other).q.fibers["B"].values[0] == ("other", frozenset())
    # an equal copy whose fibers carry the same values shares them
    assert ma(identity_interior(_relabelled(d))) is ma(other)


def test_values_with_one_digest_that_differ_under_eq_share_nothing():
    # the digest leaves reindexing out, so == decides: a doctrine whose
    # reindexing along t sends every element to the top differs
    d = powerset_doctrine_over({"A": ["a1"], "B": ["b1", "b2"]})
    t = next(t for t in d.base.arrow_names() if d.base.src(t) != d.base.dst(t))
    m = d.reindex[t]
    moved = MonotoneMap(m.src, m.dst, (len(m.dst.elements) - 1,) * len(m.images))
    op, other = identity_interior(d), identity_interior(Doctrine(d.base, d.fibers, {**d.reindex, t: moved}))
    assert order._digest_of(op) == order._digest_of(other) and op != other
    assert stable_subdoctrine(op)[0].reindex[t].images == m.images != moved.images
    assert stable_subdoctrine(other)[0].reindex[t].images == moved.images


def test_the_equal_value_table_goes_with_its_base_and_keeps_no_value_alive():
    op = identity_interior(powerset_doctrine_over({"A": ["a1"], "B": ["b1", "b2"]}))
    assert interior_violations(op) == [] and op.doctrine.base._kept[order._DIGEST]
    gone_op, gone_base = ref(op), ref(op.doctrine.base)
    gc.disable()
    try:
        del op
        # the base's table holds the operator by weak reference, so it goes
        # at once, without waiting for the cycle collector
        assert gone_op() is None
    finally:
        gc.enable()
    gc.collect()
    assert gone_base() is None
