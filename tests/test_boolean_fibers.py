"""Boolean fibers built from their codes: the powerset and one-key pointwise
fibers, and their sub-posets, against the eager references in tests/util.py;
the reads a passing Kripke `check` makes; the coatom certificate of T and 4
in `interior_violations` against the literal loop; and the relation scans
that walk sorted successors against the loops that test every pair."""

import contextlib
import io
import random
import sys
from itertools import product
from pathlib import Path

import pytest

from doctrines import interior, order
from doctrines.cli import main
from doctrines.instances import KripkeFrame, _pointwise_fiber, frame_violations, kripke_doctrine
from doctrines.interior import InteriorOp, interior_violations
from doctrines.order import (
    MonotoneMap,
    _Lazy,
    _coded,
    close_relation,
    poset_violations,
    powerset_poset,
    sub_poset,
)
from util import (
    close_relation_reference,
    frame_violations_reference,
    interior_t4_reference,
    one_key_fiber_eager,
    poset_violations_reference,
    powerset_poset_eager,
    sub_poset_eager,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

GROUNDS = [tuple(f"g{i}" for i in range(n)) for n in range(11)]


def _same(lazy, eager):
    """`lazy` matches `eager` in every read: label and value at each
    position while nothing is read whole, then elements, codes, values,
    covers, the position of each label and of each value, == and hash."""
    n = len(eager.elements)
    assert len(lazy.elements) == len(lazy.values) == n
    assert [lazy.elements[i] for i in range(n)] == list(eager.elements)
    assert [lazy.values[i] for i in range(n)] == list(eager.values)
    assert n == 0 or lazy.elements[-1] == eager.elements[-1]
    assert tuple(lazy.elements) == tuple(eager.elements) and tuple(lazy.values) == tuple(eager.values)
    assert lazy.codes == eager.codes
    assert sorted(lazy.hasse()) == sorted(eager.hasse())
    assert {a: lazy.index(a) for a in eager.elements} == {a: i for i, a in enumerate(eager.elements)}
    assert "no such label" not in lazy and not any(lazy.leq("no such label", a) for a in eager.elements)
    assert lazy.by_value == eager.by_value
    assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)


def _unread(p) -> bool:
    return all(xs.__class__ is not _Lazy or xs._full is None for xs in (p.elements, p.values))


@pytest.mark.parametrize("ground", GROUNDS, ids=len)
def test_a_powerset_and_its_one_key_fiber_match_their_eager_references(ground):
    p = powerset_poset(ground)
    assert p.elements.__class__ is _Lazy and _unread(p)
    fiber = _pointwise_fiber(["k"], [p])
    _same(p, powerset_poset_eager(ground))
    _same(fiber, one_key_fiber_eager("k", powerset_poset_eager(ground)))
    # a fiber over a factor read whole reads it too, position by position
    _same(_pointwise_fiber(["k"], [p]), one_key_fiber_eager("k", p))


@pytest.mark.parametrize("ground", GROUNDS, ids=len)
def test_sub_posets_of_boolean_fibers_match_their_eager_references(ground):
    rng = random.Random(f"sub:{len(ground)}")
    for whole, eager in ((powerset_poset, powerset_poset_eager),
                         (lambda g: _pointwise_fiber(["k"], [powerset_poset(g)]),
                          lambda g: one_key_fiber_eager("k", powerset_poset_eager(g)))):
        n = 2 ** len(ground)
        for density in (0.1, 0.5, 0.9, 1.0):
            kept = [i for i in range(n) if rng.random() < density]
            got, want = sub_poset(whole(ground), kept), sub_poset_eager(eager(ground), kept)
            _same(got, want)
            assert got.within == (None if len(kept) == n else tuple(kept))


def test_two_boolean_fibers_on_one_ground_are_equal_unread():
    ground = tuple(f"w{i}" for i in range(8))
    p, q = powerset_poset(ground), powerset_poset(ground)
    f, g = _pointwise_fiber(["x"], [p]), _pointwise_fiber(["x"], [q])
    assert p == q and f == g and p.value_key == q.value_key and f.value_key == g.value_key
    assert all(map(_unread, (p, q, f, g)))
    assert p != f and f != _pointwise_fiber(["y"], [p]) and p != powerset_poset(ground[::-1])


def test_value_keys_are_equal_exactly_when_the_values_are():
    # every poset here keeps its points in the order of one ground, so no
    # two with equal values can differ in key
    ground = ("a", "b", "c", "d")
    rng = random.Random(3)
    posets = []
    for r in range(5):
        for part in ((ground[:r]), tuple(x for x in ground if rng.random() < 0.5)):
            p = powerset_poset(part)
            posets += [p, _pointwise_fiber(["k"], [p])]
    whole = powerset_poset(ground)
    for _ in range(40):
        kept = [i for i in range(16) if rng.random() < 0.4]
        posets += [sub_poset(whole, kept), sub_poset(_pointwise_fiber(["k"], [whole]), kept)]
    # a sub-poset is the one-key fiber over the sub-poset of its factor
    posets.append(_pointwise_fiber(["k"], [sub_poset(whole, [0, 1, 2, 4])]))
    posets.append(sub_poset(_pointwise_fiber(["k"], [whole]), [0, 1, 2, 4]))
    assert all(map(_coded, posets))
    for p in posets:
        for q in posets:
            assert (p.value_key == q.value_key) == (tuple(p.values) == tuple(q.values))
    assert posets[-1].value_key == posets[-2].value_key


@pytest.mark.parametrize("ground", [("a,b", "a", "b"), ("", "a"), ("a", "a")])
def test_a_ground_whose_labels_could_collide_builds_and_scans_them(ground):
    with pytest.raises(ValueError) as eager:
        powerset_poset_eager(ground)
    with pytest.raises(ValueError) as lazy:
        powerset_poset(ground)
    assert str(lazy.value) == str(eager.value)


def test_a_ground_of_odd_names_builds_labels_and_values_as_the_reference():
    ground = ("{", "}", "[x]", "a:b", "a;b", "é")
    p = powerset_poset(ground)
    assert p.elements.__class__ is _Lazy
    _same(p, powerset_poset_eager(ground))
    assert tuple(powerset_poset(("a,b", "c")).elements) == tuple(powerset_poset_eager(("a,b", "c")).elements)


def _chain_model(n: int) -> str:
    worlds = [f"w{i}" for i in range(n)]
    rel = " ".join(f"{a}->{b}" for a, b in zip(worlds, worlds[1:]))
    return f"kripke-frame K {{ worlds: {' '.join(worlds)}; rel: {rel}; closure: refl-trans; sets: D=x }}\n"


def _reads_of_wide_fibers(monkeypatch, tmp_path, argv, width):
    """Exit status of `argv` on the 12-world chain, and each label or value
    of a `width`-element sequence computed, one by one or whole."""
    reads, get, whole = [], _Lazy.__getitem__, _Lazy.tuple

    def counted_get(self, i):
        if self._full is None and len(self) == width:
            reads.append(("one", i))
        return get(self, i)

    def counted_whole(self):
        if self._full is None and len(self) == width:
            reads.append(("whole", len(self)))
        return whole(self)

    monkeypatch.setattr(_Lazy, "__getitem__", counted_get)
    monkeypatch.setattr(_Lazy, "tuple", counted_whole)
    f = tmp_path / "chain.dct"
    f.write_text(_chain_model(12))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main([str(f) if a == "FILE" else a for a in argv])
    return rc, reads


def test_a_passing_kripke_check_builds_no_label_or_value_of_its_fibers(monkeypatch, tmp_path):
    rc, reads = _reads_of_wide_fibers(monkeypatch, tmp_path, ["--json", "check", "FILE"], 4096)
    assert (rc, reads) == (0, [])
    # the hook sees them: the box tables print every label
    rc, reads = _reads_of_wide_fibers(monkeypatch, tmp_path, ["--json", "derive", "FILE", "--from", "K.box", "--modality"], 4096)
    assert rc == 0 and ("whole", 4096) in reads


def _box_doctrine(k: int):
    """The doctrine of `kripke_doctrine` on k worlds over one carrier of one
    point, whose one fiber is pw(k) (as functions {x} → pw(k))."""
    return kripke_doctrine(KripkeFrame(tuple(f"w{i}" for i in range(k)), frozenset()), {"D": ["x"]})[0]


def _verdicts(doc, images, monkeypatch):
    """interior_violations of the box `images` on the fiber of `doc`, with
    every certificate, then with the interior scan's refused, each on a
    fresh operator, and the literal T and 4 loop."""
    fiber = doc.fibers["D"]
    op = InteriorOp(doc, {"D": MonotoneMap(fiber, fiber, tuple(images))})
    certified = interior_violations(op)
    keeps = order._keeps_meets(op.parts["D"])
    with monkeypatch.context() as m:
        m.setattr(interior, "_certified", lambda checks: False)
        literal = interior_violations(InteriorOp(doc, {"D": MonotoneMap(fiber, fiber, tuple(images))}))
    return certified, literal, keeps, interior_t4_reference(op)


def _monotone_endomaps(fiber):
    """Every monotone endomap of a powerset fiber, as image positions: each
    position in turn gets an image above those of the subsets before it."""
    n, codes, out = len(fiber.codes), fiber.codes, []
    below = [[j for j in range(i) if not codes[j] & ~codes[i]] for i in range(n)]

    def extend(images):
        i = len(images)
        if i == n:
            out.append(tuple(images))
            return
        for y in range(n):
            if all(not codes[images[j]] & ~codes[y] for j in below[i]):
                extend(images + [y])

    extend([])
    return out


def test_the_coatom_certificate_agrees_with_the_literal_loop_on_every_endomap_of_pw2(monkeypatch):
    doc = _box_doctrine(2)
    kept_meets = failing = 0
    for images in product(range(4), repeat=4):
        certified, literal, keeps, reference = _verdicts(doc, images, monkeypatch)
        assert certified == literal, images
        if not any(w.startswith("box at") for w in certified):
            assert [w for w in certified if w.startswith("axiom")] == reference
        kept_meets += keeps
        failing += keeps and bool(certified)
    assert kept_meets and failing and kept_meets > failing


def test_the_coatom_certificate_agrees_with_the_literal_loop_on_every_monotone_endomap_of_pw3(monkeypatch):
    # a map that is not monotone fails before T and 4 are read on either route
    doc = _box_doctrine(3)
    maps = _monotone_endomaps(doc.fibers["D"])
    assert len(maps) == 20**3  # a monotone function into 2 per world, 20 on three points (Dedekind)
    kept_meets = failing = 0
    for images in maps:
        certified, literal, keeps, reference = _verdicts(doc, images, monkeypatch)
        assert certified == literal == [w for w in reference], images
        kept_meets += keeps
        failing += keeps and bool(certified)
    assert kept_meets and failing and kept_meets > failing


def _seeded_box(rng, k):
    """A seeded endomap of pw(k) as image positions: the Kripke box of a
    random relation, or of its reflexive and transitive closure (kinds 0
    and 3), which keep meets and ⊤; that box cut down to a random code,
    which keeps meets but not ⊤; or that box with everything above ⊥ moved
    up, which keeps no meets."""
    codes, at = order._subset_codes(k)
    succ = [sum(1 << j for j in range(k) if rng.random() < rng.choice((0.2, 0.5, 0.8))) for _ in range(k)]
    kind = rng.randrange(4)
    if kind == 3:
        for w in range(k):
            succ[w] |= 1 << w
        for v in range(k):  # Warshall: w reaches what v reaches once it reaches v
            for w in range(k):
                if succ[w] >> v & 1:
                    succ[w] |= succ[v]
    box = [sum(1 << w for w in range(k) if not succ[w] & ~c) for c in codes]
    if kind == 1:
        cut = rng.randrange(1 << k)
        box = [b & cut for b in box]
    elif kind == 2:
        box = [b if c == 0 else b | box[0] | (1 << rng.randrange(k)) for b, c in zip(box, codes)]
    return [at[b] for b in box], kind


def test_the_coatom_certificate_agrees_with_the_literal_loop_on_seeded_boxes_of_pw4_to_pw6(monkeypatch):
    rng = random.Random("coatoms")
    docs = {k: _box_doctrine(k) for k in (4, 5, 6)}
    seen = set()
    for _ in range(300):
        k = rng.choice((4, 5, 6))
        images, kind = _seeded_box(rng, k)
        certified, literal, keeps, reference = _verdicts(docs[k], images, monkeypatch)
        assert certified == literal, (k, images)
        if not any(w.startswith("box at") for w in certified):
            assert certified == reference
        seen.add((kind, keeps, bool(certified)))
    # passing and failing boxes that keep meets, and boxes that do not
    assert {(3, True, False), (0, True, True), (1, True, True)} <= seen and any(not keeps for _, keeps, _ in seen)


def _relations(points, extra, rng, count):
    for _ in range(count):
        elements = points + [e for e in extra if rng.random() < 0.2]
        universe = elements + [e for e in extra if rng.random() < 0.3]
        p = rng.choice((0.15, 0.35, 0.6))
        yield elements, {(a, b) for a in universe for b in universe if rng.random() < p}


def _every_small_relation():
    for n in range(4):
        points = [f"p{i}" for i in range(n)]
        pairs = [(a, b) for a in points for b in points]
        for bits in range(2 ** len(pairs)):
            yield points, {pair for j, pair in enumerate(pairs) if bits >> j & 1}


def _seeded_relations():
    rng = random.Random("relations")
    for _ in range(300):
        n = rng.randint(4, 8)
        yield from _relations([f"p{i}" for i in range(n)], ["q", "r"], rng, 1)


def _scan_all(cases):
    kinds = set()
    for elements, rel in cases:
        for closure in ("none", "refl", "trans", "refl-trans"):
            assert close_relation(elements, rel, closure) == close_relation_reference(elements, rel, closure)
        got = poset_violations(elements, rel)
        assert got == poset_violations_reference(elements, rel)
        frame = KripkeFrame(tuple(elements), frozenset(rel))
        assert frame_violations(frame) == frame_violations_reference(frame)
        kinds.update(w.split(":")[0].split(" ")[0] for w in got)
    return kinds


def test_the_relation_scans_agree_with_their_references_on_every_relation_on_three_points():
    assert _scan_all(_every_small_relation()) == {"reflexivity", "transitivity", "antisymmetry"}


def test_the_relation_scans_agree_with_their_references_on_seeded_relations():
    assert _scan_all(_seeded_relations()) == {"relation", "reflexivity", "transitivity", "antisymmetry"}


def test_refusing_the_coatom_certificate_changes_no_report(tmp_path, monkeypatch):
    # the meet certificates still pass, so each box that keeps meets reaches
    # the coatoms, is refused there and runs the literal loop
    requests = [(r.argv, r.model) for w in ("modal", "gate") for s in (0, 3) for r in workloads.requests_for(w, s)
                if r.model is not None]
    f = tmp_path / "m.dct"

    def runs():
        out = []
        for argv, model in requests:
            f.write_text(model)
            with contextlib.redirect_stdout(io.StringIO()) as o:
                rc = main([str(f) if a == "FILE" else a for a in argv])
            out.append((rc, o.getvalue()))
        return out

    certified, refused = runs(), []
    monkeypatch.setattr(interior, "_certified", lambda checks: refused.append(1) and False)
    assert runs() == certified
    assert len(refused) > len(requests)
