import random

import pytest

from doctrines.doctrine import Doctrine, OneArrow, doctrine_violations, one_arrow_violations
from doctrines.fincat import discrete_category, identity_functor
from doctrines.interior import (
    InteriorOp,
    interior_violations,
    modal_one_arrow_violations,
    identity_interior,
    stable_elements,
    stable_subdoctrine,
)
from doctrines.order import graph_map, identity_map, label_subset, monotone_violations, powerset_poset, subset_label
from doctrines.suite import bundled_interior_ops

from util import graph_of, identity_one_arrow, interior_violations_reference, powerset_doctrine_over


def _one_fiber_doctrine(ground):
    base = discrete_category(["*"])
    fiber = powerset_poset(ground)
    return Doctrine(base, {"*": fiber}, {base.id("*"): identity_map(fiber)})


def _kripke_box_map(worlds, rel, fiber):
    def succ(w):
        return {v for (u, v) in rel if u == w}

    mapping = {}
    for lbl in fiber.elements:
        a = label_subset(lbl)
        mapping[lbl] = subset_label({w for w in worlds if succ(w) <= a}, worlds)
    return graph_map(fiber, fiber, mapping)


def test_identity_interior_passes_everywhere():
    d = powerset_doctrine_over({"A": ["a1"], "B": ["b1", "b2"]})
    assert interior_violations(identity_interior(d)) == []


def test_kripke_interior_on_preorder_frame_passes():
    worlds = ["w1", "w2"]
    rel = {("w1", "w1"), ("w2", "w2"), ("w1", "w2")}
    d = _one_fiber_doctrine(worlds)
    op = InteriorOp(d, {"*": _kripke_box_map(worlds, rel, d.fibers["*"])})
    assert interior_violations(op) == []


def test_non_transitive_frame_fails_axiom_4_with_witness():
    worlds = ["1", "2", "3"]
    rel = {("1", "1"), ("2", "2"), ("3", "3"), ("1", "2"), ("2", "3")}
    d = _one_fiber_doctrine(worlds)
    op = InteriorOp(d, {"*": _kripke_box_map(worlds, rel, d.fibers["*"])})
    out = interior_violations(op)
    assert any("axiom 4 fails" in v for v in out)
    # brute-force witness: j({1,2}) = {1} but j(j({1,2})) = {}
    assert any("{1,2}" in v for v in out)


def test_interior_verdict_repeats_as_a_fresh_list():
    worlds = ["1", "2", "3"]
    rel = {("1", "1"), ("2", "2"), ("3", "3"), ("1", "2"), ("2", "3")}
    d = _one_fiber_doctrine(worlds)
    op = InteriorOp(d, {"*": _kripke_box_map(worlds, rel, d.fibers["*"])})
    first, second = interior_violations(op), interior_violations(op)
    assert first and first == second and first is not second
    first.append("tampered")
    assert interior_violations(op) == second


def test_stable_elements_identity_is_whole_fiber():
    d = powerset_doctrine_over({"A": ["a1"]})
    op = identity_interior(d)
    assert stable_elements(op, "A") == d.fibers["A"].elements


def test_kripke_stable_elements_match_membership_condition():
    worlds = ["w1", "w2"]
    rel = {("w1", "w1"), ("w2", "w2"), ("w1", "w2")}
    d = _one_fiber_doctrine(worlds)
    box = _kripke_box_map(worlds, rel, d.fibers["*"])
    op = InteriorOp(d, {"*": box})
    got = stable_elements(op, "*")
    # A is stable iff every w with R(w) ⊆ A lies in A and conversely
    expected = tuple(l for l in d.fibers["*"].elements if box.apply(l) == l)
    assert got == expected == ("{}", "{w2}", "{w1,w2}")


def test_stable_subdoctrine_identity_keeps_everything():
    d = powerset_doctrine_over({"A": ["a1"]})
    stable, inc = stable_subdoctrine(identity_interior(d))
    assert stable.fibers["A"].elements == d.fibers["A"].elements
    assert doctrine_violations(stable) == []
    assert one_arrow_violations(inc) == []


def test_stable_subdoctrine_inclusion_is_modal_from_identity_to_box():
    # kripke-style operator over a genuine multi-object base: postcomposition
    d = powerset_doctrine_over({"A": ["a1"], "B": ["b1", "b2"]})
    # interior: intersect with a fixed "open core" per object; natural only
    # when the cores are compatible, so use the identity on A and a real core on B?
    # Use instead the operator dropping all elements: box(S) = {} is natural.
    op = InteriorOp(
        d,
        {
            x: graph_map(d.fibers[x], d.fibers[x], {l: "{}" for l in d.fibers[x].elements})
            for x in d.base.objects
        },
    )
    assert interior_violations(op) == []
    stable, inc = stable_subdoctrine(op)
    from doctrines.interior import identity_interior as idop

    assert modal_one_arrow_violations(inc, idop(stable), op) == []


def test_stable_elements_rejects_non_idempotent_box():
    # non-transitive frame: j({1,2}) = {1} is in the image but j({1}) = {}
    worlds = ["1", "2", "3"]
    rel = {("1", "1"), ("2", "2"), ("3", "3"), ("1", "2"), ("2", "3")}
    d = _one_fiber_doctrine(worlds)
    op = InteriorOp(d, {"*": _kripke_box_map(worlds, rel, d.fibers["*"])})
    with pytest.raises(ValueError, match="not idempotent"):
        stable_elements(op, "*")
    with pytest.raises(ValueError, match="not idempotent"):
        stable_subdoctrine(op)


def test_stable_subdoctrine_rejects_non_natural_box():
    # idempotent in each fiber, but {b1,b2} is stable at B while its
    # reindexing along any arrow into B is not stable at A
    d = powerset_doctrine_over({"A": ["a1"], "B": ["b1", "b2"]})
    fa, fb = d.fibers["A"], d.fibers["B"]
    box_a = graph_map(fa, fa, {lbl: "{}" for lbl in fa.elements})
    box_b = graph_map(fb, fb, {lbl: lbl if lbl == "{b1,b2}" else "{}" for lbl in fb.elements})
    op = InteriorOp(d, {"A": box_a, "B": box_b})
    with pytest.raises(ValueError, match="does not preserve stability"):
        stable_subdoctrine(op)


def test_modal_one_arrow_identity_case():
    d = powerset_doctrine_over({"A": ["a1"]})
    op = identity_interior(d)
    assert modal_one_arrow_violations(identity_one_arrow(d), op, op) == []


def test_modal_one_arrow_violation_witnessed():
    worlds = ["w1", "w2"]
    rel = {("w1", "w1"), ("w2", "w2"), ("w1", "w2")}
    d = _one_fiber_doctrine(worlds)
    box = _kripke_box_map(worlds, rel, d.fibers["*"])
    op = InteriorOp(d, {"*": box})
    ident = identity_interior(d)
    arrow = OneArrow(d, d, identity_functor(d.base), {"*": identity_map(d.fibers["*"])})
    # id ∘ j ≤ id ∘ id holds (j deflationary): passes toward identity operator
    assert modal_one_arrow_violations(arrow, op, ident) == []
    # but from the identity operator toward j it fails: id ≰ j pointwise
    out = modal_one_arrow_violations(arrow, ident, op)
    assert any("modal inequality fails" in v for v in out)


@pytest.mark.parametrize("name", ["topological", "temporal-G", "kripke-chain3", "fam-chain2"])
def test_planted_box_value_agrees_with_the_reference_and_names_only_its_object(name):
    op = dict(bundled_interior_ops())[name]
    P = op.doctrine
    assert interior_violations(op) == interior_violations_reference(op) == []
    singles = set()
    for x in P.base.objects:
        box = op.parts[x]
        touching = {t for t in P.base.arrow_names() if x in (P.base.src(t), P.base.dst(t))}
        for a in box.src.elements:
            for value in box.dst.elements:
                changed = graph_map(box.src, box.dst, {**graph_of(box), a: value})
                if value == box.apply(a) or monotone_violations(changed):
                    continue
                planted = InteriorOp(P, {**op.parts, x: changed})
                got = interior_violations(planted)
                assert got == interior_violations_reference(planted)
                for v in got:
                    if v.startswith("naturality fails along "):
                        assert v[len("naturality fails along ") :] in touching
                    else:
                        assert v.startswith((f"axiom T fails at ({x},", f"axiom 4 fails at ({x},", f"idempotence fails at {x}"))
                if len(got) == 1:
                    singles.add(got[0])
    assert singles


def test_interior_naturality_square_off_its_boundary_is_reported_not_composed():
    op = dict(bundled_interior_ops())["topological"]
    P = op.doctrine
    t = next(t for t in P.base.arrow_names() if P.fibers[P.base.src(t)] != P.fibers[P.base.dst(t)])
    y = P.base.dst(t)
    planted = InteriorOp(Doctrine(P.base, P.fibers, {**P.reindex, t: identity_map(P.fibers[y])}), op.parts)
    assert interior_violations(planted) == [f"reindexing along {t} has wrong boundary"]
    # the reference composes both sides of the square, so it raises as composition does
    with pytest.raises(ValueError, match="^compose_maps: boundary mismatch$"):
        interior_violations_reference(planted)


def _modal_arrows(op):
    """Modal 1-arrows between interior operators, built from `op` on P: the
    identity and the box itself from op to op, the identity from op to the
    identity operator, and the inclusion of the stable subdoctrine."""
    P = op.doctrine
    stable, inclusion = stable_subdoctrine(op)
    return [
        (identity_one_arrow(P), op, op),
        (OneArrow(P, P, identity_functor(P.base), dict(op.parts)), op, op),
        (identity_one_arrow(P), op, identity_interior(P)),
        (inclusion, identity_interior(stable), op),
    ]


def test_modal_arrows_between_interior_operators_map_stable_elements_to_stable_elements():
    # modal_one_arrow_violations checks only the modal inequality: between
    # interior operators it implies box'(f(box a)) = f(box a), pinned here
    rng = random.Random(15)
    for name, op in bundled_interior_ops():
        for arrow, op_src, op_dst in _modal_arrows(op):
            assert interior_violations(op_src) == interior_violations(op_dst) == [], name
            assert modal_one_arrow_violations(arrow, op_src, op_dst) == [], name
            for x in arrow.src.base.objects:
                f, box, box2 = arrow.parts[x], op_src.parts[x], op_dst.parts[arrow.functor.obj_map[x]]
                elements = tuple(arrow.src.fibers[x].elements)
                for alpha in rng.sample(elements, min(len(elements), 16)):
                    image = f.apply(box.apply(alpha))
                    assert box2.apply(image) == image, (name, x, alpha)
