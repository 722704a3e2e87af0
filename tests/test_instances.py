import random
import re
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from doctrines.adjunction import adjunction_violations, galois_violations, triviality_violations
from doctrines.doctrine import Doctrine, doctrine_violations, one_arrow_violations, power_doctrine
from doctrines.fincat import (
    all_functions,
    category_violations,
    full_function_category,
    function_arrow_name,
    poset_category,
)
from doctrines.interior import (
    interior_violations,
    modal_one_arrow_violations,
    identity_interior,
    stable_elements,
)
from doctrines import instances
from doctrines.instances import (
    FinPresheaf,
    FiniteQuantale,
    FiniteTopSpace,
    IndexedFamily,
    KripkeFrame,
    QuantaleCore,
    bang_law_violations,
    bool_quantale,
    conjunction_adjunction,
    conjunction_modality,
    fake_core,
    fam_doctrine,
    forall_instance,
    frame_violations,
    interior_of,
    kripke_doctrine,
    lukasiewicz3,
    largest_subpresheaf,
    lukasiewicz3,
    powerset_doctrine,
    presheaf_instance,
    presheaf_oracle_mismatches,
    presheaf_violations,
    quantale_core,
    quantale_doctrine,
    quantale_violations,
    subpresheaf_gfp,
    topological_doctrine,
    valid_quantale,
)
from doctrines.instances import _function_fiber, _pointwise_fiber
from doctrines.order import (
    chain_poset,
    fin_poset,
    graph_map,
    identity_map,
    is_identity_map,
    label_subset,
    lattice_from_poset,
    poset_from_pairs,
    powerset_poset,
    product_poset,
    sub_poset,
    subset_label,
    subsets_in_order,
)

from doctrines.suite import SPACES
from doctrines.temporal import FCoalgebra, temporal_doctrine
from util import (
    antichain_poset,
    assignments,
    bang_law_violations_reference,
    composition_table,
    constant_family_arrow,
    covers_by_definition,
    fin_category,
    forgetful_top_arrow,
    function_category_reference,
    graph_of,
    inverse_image_reference,
    keeps_parts,
    kripke_box,
    one_object_monoid_category,
    open_continuous_maps,
    postcomposition_reference,
    powerset_doctrine_over,
    powerset_lattice,
    powerset_monoid_quantale,
    precomposition_reference,
    presheaf_base_reference,
    product_data_violations_reference,
    quantale_core_reference,
    quantale_core_violations_reference,
    random_chain_presheaves,
    residuation_failures_reference,
    small_commutative_tables,
    subobject_doctrine_finset,
    subset_map_reference,
    subpresheaf_union_reference,
)


CHAIN2 = KripkeFrame(("w1", "w2"), frozenset({("w1", "w1"), ("w2", "w2"), ("w1", "w2")}))


def test_kripke_box_examples():
    assert kripke_box(CHAIN2, frozenset({"w1", "w2"})) == {"w1", "w2"}
    assert kripke_box(CHAIN2, frozenset()) == frozenset()
    assert kripke_box(CHAIN2, frozenset({"w2"})) == {"w2"}
    with pytest.raises(ValueError):
        kripke_box(CHAIN2, frozenset({"zz"}))


def test_frame_violations_on_non_preorder():
    bad = KripkeFrame(("1", "2", "3"), frozenset({("1", "1"), ("2", "2"), ("3", "3"), ("1", "2"), ("2", "3")}))
    assert any("transitive" in v for v in frame_violations(bad))
    assert frame_violations(CHAIN2) == []


def test_kripke_doctrine_singleton_set_is_pw_w():
    doc, op = kripke_doctrine(CHAIN2, {"D": ["d"]})
    assert doctrine_violations(doc) == []
    assert interior_violations(op) == []
    assert len(doc.fibers["D"].elements) == 4


def test_kripke_doctrine_pointwise_matches_box():
    doc, op = kripke_doctrine(CHAIN2, {"D": ["x", "y"]})
    assert interior_violations(op) == []
    assert len(doc.fibers["D"].elements) == 16
    # pointwise comparison against the frame-level box
    from util import _decode_fun_label

    for lbl in doc.fibers["D"].elements:
        alpha = _decode_fun_label(lbl, ["x", "y"])
        image = _decode_fun_label(op.parts["D"].apply(lbl), ["x", "y"])
        for e in ("x", "y"):
            assert label_subset(image[e]) == kripke_box(CHAIN2, label_subset(alpha[e]))


def test_kripke_doctrine_non_preorder_reported():
    bad = KripkeFrame(("1", "2", "3"), frozenset({("1", "1"), ("2", "2"), ("3", "3"), ("1", "2"), ("2", "3")}))
    doc, op = kripke_doctrine(bad, {"D": ["d"]})
    out = interior_violations(op)
    assert any("axiom 4" in v for v in out)


def test_fam_doctrine_single_world_reduces_to_identity_on_parts():
    one = KripkeFrame(("w",), frozenset({("w", "w")}))
    fam = IndexedFamily("X", ("a",), {"w": frozenset({"a"})})
    doc, op = fam_doctrine(one, [fam])
    assert doctrine_violations(doc) == []
    assert interior_violations(op) == []
    # box is the identity: intersection over the singleton successor set
    for lbl in doc.fibers["X"].elements:
        assert op.parts["X"].apply(lbl) == lbl


def test_fam_doctrine_two_world_chain_intersects_parts():
    famX = IndexedFamily("X", ("a", "b"), {"w1": frozenset({"a"}), "w2": frozenset({"a", "b"})})
    doc, op = fam_doctrine(CHAIN2, [famX])
    assert doctrine_violations(doc) == []
    assert interior_violations(op) == []
    from doctrines.instances import family_element_label

    lbl = family_element_label(
        frozenset({"a", "b"}),
        {"w1": frozenset({"a", "b"}), "w2": frozenset({"b"})},
        ("a", "b"),
        ("w1", "w2"),
    )
    got = op.parts["X"].apply(lbl)
    want = family_element_label(
        frozenset({"a", "b"}),
        {"w1": frozenset({"b"}), "w2": frozenset({"b"})},
        ("a", "b"),
        ("w1", "w2"),
    )
    assert got == want


def test_constant_family_arrow_is_modal():
    arrow, op_src, op_dst = constant_family_arrow(CHAIN2, {"S": ["s", "t"]})
    assert one_arrow_violations(arrow) == []
    assert modal_one_arrow_violations(arrow, op_src, op_dst) == []


def _spaces():
    discrete = FiniteTopSpace(
        "disc",
        ("d1", "d2"),
        frozenset({frozenset(), frozenset({"d1"}), frozenset({"d2"}), frozenset({"d1", "d2"})}),
    )
    indiscrete = FiniteTopSpace("ind", ("i1", "i2"), frozenset({frozenset(), frozenset({"i1", "i2"})}))
    sierpinski = FiniteTopSpace(
        "sier", ("bot", "top"), frozenset({frozenset(), frozenset({"top"}), frozenset({"bot", "top"})})
    )
    return [discrete, indiscrete, sierpinski]


def test_interior_of_examples():
    disc, ind, sier = _spaces()
    assert interior_of(disc, frozenset({"d1"})) == {"d1"}
    assert interior_of(ind, frozenset({"i1"})) == frozenset()
    assert interior_of(sier, frozenset({"bot"})) == frozenset()
    assert interior_of(sier, frozenset({"top"})) == {"top"}


def test_topological_doctrine_and_interior():
    doc, op = topological_doctrine(_spaces())
    assert doctrine_violations(doc) == []
    assert interior_violations(op) == []
    # stable elements at each space are exactly the opens
    for s in _spaces():
        got = set(stable_elements(op, s.name))
        want = {subset_label(u, s.points) for u in s.opens}
        assert got == want


def test_naturality_fails_for_a_continuous_non_open_map():
    # from Sierpinski to itself: the constant-to-bot map is continuous but not
    # open, and the naturality equality with the interior breaks on it
    sier = _spaces()[2]
    maps = open_continuous_maps(sier, sier)
    assert {"bot": "bot", "top": "bot"} not in maps
    g = {"bot": "bot", "top": "bot"}
    continuous = all(
        frozenset(p for p in sier.points if g[p] in u) in sier.opens for u in sier.opens
    )
    assert continuous
    # t^{-1}(int({bot})) = {} but int(t^{-1}({bot})) = everything
    a = frozenset({"bot"})
    pre_int = frozenset(p for p in sier.points if g[p] in interior_of(sier, a))
    int_pre = interior_of(sier, frozenset(p for p in sier.points if g[p] in a))
    assert pre_int != int_pre


def test_forgetful_top_arrow_is_modal():
    arrow, op_src, op_dst = forgetful_top_arrow(_spaces())
    assert one_arrow_violations(arrow) == []
    assert modal_one_arrow_violations(arrow, op_src, op_dst) == []


def test_quantale_cores():
    b = bool_quantale()
    cb = quantale_core(b)
    assert cb.elements == ("0", "1")
    luk = lukasiewicz3()
    cl = quantale_core(luk)
    assert cl.elements == ("0", "1")
    assert cl.r.apply("h") == "0"
    z2 = powerset_monoid_quantale(
        ["e", "a"], {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}, "e"
    )
    cz = quantale_core(z2)
    assert cz.elements == ("{}", "{e}")


@pytest.mark.parametrize("ground", ["abc", "abcd"])
def test_quantale_core_refuses_a_table_that_is_not_a_quantale(ground):
    # pw(ground) with x⊗y = x∩y, except that an intersection of exactly two
    # points counts as empty: the filter x ≤ 1, x ≤ x⊗x keeps the subsets of
    # size other than 2, closed under ⊗ but not under binary joins. The table
    # is not associative, so it is no quantale: on a quantale the core holds
    # every binary join (the proof in `quantale_core`, run literally over
    # small quantales in test_every_small_quantale_passes_the_core_references)
    lat = powerset_lattice(ground)

    def tensor(x, y):
        both = label_subset(x) & label_subset(y)
        return subset_label(() if len(both) == 2 else both, ground)

    els = lat.carrier.elements
    q = FiniteQuantale("pairs-vanish", lat, {(x, y): tensor(x, y) for x in els for y in els}, subset_label(ground, ground))
    first = re.escape("invalid quantale pairs-vanish: associativity fails at ({a},{a,b},{a,b}); ")
    with pytest.raises(ValueError, match="^" + first):
        quantale_core(q)


def test_quantale_doctrine_bool_bang_is_identity():
    q = bool_quantale()
    doc, adj, bang = quantale_doctrine(q, {"X": ["x"]})
    assert adjunction_violations(adj) == []
    assert bang == identity_interior(doc)


def test_quantale_doctrine_luk3_bang():
    q = lukasiewicz3()
    doc, adj, bang = quantale_doctrine(q, {"X": ["x"]})
    assert adjunction_violations(adj) == []
    assert galois_violations(adj) == []
    # !(x ↦ h) = (x ↦ 0), !(x ↦ 1) = (x ↦ 1)
    assert bang.parts["X"].apply("[x:h]") == "[x:0]"
    assert bang.parts["X"].apply("[x:1]") == "[x:1]"


def test_luk3_triviality_dichotomy():
    q = lukasiewicz3()
    doc, adj, bang = quantale_doctrine(q, {"X": ["x"]})
    assert triviality_violations(adj) == []
    # lambda is injective, so rho∘lambda = id; lambda is not surjective, so
    # lambda∘rho is not the identity
    assert all(is_identity_map(adj.rho[x], adj.p.fibers[x], adj.lam[x]) for x in adj.p.base.objects)
    assert not any(is_identity_map(adj.lam[x], adj.q.fibers[x], adj.rho[x]) for x in adj.p.base.objects)


def test_bang_law_violations_positive_and_fake_core():
    for q in (bool_quantale(), lukasiewicz3()):
        assert bang_law_violations(q, {"X": ["x"], "Y": ["x", "y"]}) == []
    luk = lukasiewicz3()
    bad = bang_law_violations(luk, {"X": ["x"]}, core_override=fake_core(luk))
    assert bad and all(w.startswith("law (2) fails at ") for w in bad)


def _z2():
    return powerset_monoid_quantale(
        ["e", "a"], {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}, "e"
    )


def _identity_core(q):
    """Every element kept and ! the identity: a planted core that fails law 1
    wherever the unit is not the top."""
    carrier = q.lattice.carrier
    return QuantaleCore(carrier.elements, carrier, identity_map(carrier), identity_map(carrier))


BANG_SETS = {"E": [], "X": ["x"], "Y": ["y1", "y2"]}


@pytest.mark.parametrize("make", [bool_quantale, lukasiewicz3, _z2], ids=["bool", "luk3", "z2"])
@pytest.mark.parametrize("core", ["real", "fake", "identity"])
def test_bang_law_violations_equal_the_literal_loops(make, core):
    q = make()
    override = {"real": None, "fake": fake_core(q), "identity": _identity_core(q)}[core]
    want = bang_law_violations_reference(q, BANG_SETS, override or quantale_core(q))
    assert bang_law_violations(q, BANG_SETS, core_override=override) == want
    for keys in BANG_SETS.values():
        assert residuation_failures_reference(q, keys) == []


def test_bang_law_controls_fail_where_expected():
    luk, z2 = lukasiewicz3(), _z2()
    assert any(w.startswith("law (2) ") for w in bang_law_violations(luk, BANG_SETS, core_override=fake_core(luk)))
    assert any(w.startswith("law (1) ") for w in bang_law_violations(z2, BANG_SETS, core_override=_identity_core(z2)))


def _bottom_core(q):
    """Only ⊥ kept, so ! is constant ⊥: a planted core that fails law 3 alone."""
    carrier, bottom = q.lattice.carrier, q.lattice.bottom
    sub = sub_poset(carrier, [bottom])
    iota = graph_map(sub, carrier, {bottom: bottom})
    return QuantaleCore((bottom,), sub, iota, graph_map(carrier, sub, {x: bottom for x in carrier.elements}))


@pytest.mark.parametrize("make", [bool_quantale, lukasiewicz3, _z2], ids=["bool", "luk3", "z2"])
def test_a_core_without_the_unit_fails_law_3_on_every_nonempty_set(make):
    q = make()
    core = _bottom_core(q)
    bad = bang_law_violations(q, BANG_SETS, core_override=core)
    assert bad == bang_law_violations_reference(q, BANG_SETS, core)
    assert bad == ["law (3) fails at (X,unit)", "law (3) fails at (Y,unit)"]


def test_a_core_that_rounds_h_up_fails_law_4_where_a_coordinate_pair_is_h_h():
    # ! sends h to 1 on luk3, so !h⊗!h = 1 while !(h⊗h) = !0 = 0
    q = lukasiewicz3()
    carrier = q.lattice.carrier
    sub = sub_poset(carrier, ["0", "1"])
    iota = graph_map(sub, carrier, {"0": "0", "1": "1"})
    core = QuantaleCore(("0", "1"), sub, iota, graph_map(carrier, sub, {"0": "0", "h": "1", "1": "1"}))
    bad = bang_law_violations(q, BANG_SETS, core_override=core)
    assert bad == bang_law_violations_reference(q, BANG_SETS, core)
    assert all(w.startswith("law (4) fails at ") for w in bad)
    # one pair on X; on Y, 9·9 pairs less the 8·8 with no coordinate pair (h, h)
    assert bad[0] == "law (4) fails at (X,[x:h],[x:h])" and len(bad) == 1 + 81 - 64


def _planted_non_residuated():
    """The chain 0 ≤ h ≤ 1 with ⊗ the minimum except h⊗h = 1: ⊗ is not
    monotone, so h⊗h ≤ h fails while h ≤ (h ⇒ h) = 1 holds."""
    rank = {"0": 0, "h": 1, "1": 2}
    tensor = {(a, b): min(a, b, key=rank.get) for a in rank for b in rank}
    tensor[("h", "h")] = "1"
    return FiniteQuantale("planted", lattice_from_poset(chain_poset(list(rank))), tensor, "1")


@pytest.mark.parametrize("keys", [[], ["x"], ["x", "y"]])
def test_residuation_on_a_planted_tensor_equals_the_literal_loop(keys):
    q = _planted_non_residuated()
    want = residuation_failures_reference(q, keys)
    # on the empty set the fiber has one element and the law holds
    assert bool(want) == bool(keys)
    # the tensor fails `quantale_violations`, so no set is decided
    first = re.escape(f"invalid quantale planted: {quantale_violations(q)[0]}")
    with pytest.raises(ValueError, match=first):
        bang_law_violations(q, {"X": keys}, core_override=fake_core(q))


DIAMOND = fin_poset(["b", "l", "r", "t"], [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")])
POINTWISE_FACTORS = {
    "chains": [chain_poset(["0", "1", "2"]), chain_poset(["a", "b"])],
    "diamonds": [DIAMOND, DIAMOND],
    "antichains": [antichain_poset(["p", "q"]), antichain_poset(["u", "v", "w"])],
    "mixed": [DIAMOND, chain_poset(["0", "1"]), antichain_poset(["p", "q"]), powerset_poset(["a", "b"])],
    "V": [fin_poset(["b", "l", "r"], [("b", "l"), ("b", "r")])] * 3,
    "none": [],
}


@pytest.mark.parametrize("name", POINTWISE_FACTORS)
def test_pointwise_fiber_covers_equal_the_definition(name):
    factors = POINTWISE_FACTORS[name]
    fiber = _pointwise_fiber([f"k{i}" for i in range(len(factors))], factors)
    want = covers_by_definition(fiber)
    assert set(fiber.hasse()) == want and len(fiber.hasse()) == len(want)
    assert set(poset_from_pairs(fiber.elements, fiber.relation).hasse()) == want


def _two_chain_presheaves():
    base = poset_category(chain_poset(["w1", "w2"]))
    d1 = FinPresheaf(
        "D1",
        base,
        {"w1": ("a", "b"), "w2": ("a", "b")},
        {
            "w1<=w1": {"a": "a", "b": "b"},
            "w2<=w2": {"a": "a", "b": "b"},
            "w1<=w2": {"a": "a", "b": "b"},
        },
    )
    d2 = FinPresheaf(
        "D2",
        base,
        {"w1": ("a",), "w2": ("a", "b")},
        {
            "w1<=w1": {"a": "a"},
            "w2<=w2": {"a": "a", "b": "b"},
            "w1<=w2": {"a": "a"},
        },
    )
    return [d1, d2]


def test_presheaf_instance_laws_and_oracle():
    presheaves = _two_chain_presheaves()
    adj, families, op = presheaf_instance(presheaves)
    assert adjunction_violations(adj) == []
    assert interior_violations(op) == []
    for d in presheaves:
        fiber, box = families.fibers[d.name], op.parts[d.name]
        for i, parts in enumerate(fiber.values):
            direct = tuple(largest_subpresheaf(d, dict(zip(d.base.objects, parts))).values())
            assert direct == subpresheaf_gfp(d, parts) == subpresheaf_union_reference(d, parts)
            assert fiber.values[box.images[i]] == direct


def test_presheaf_box_example_on_constant_presheaf():
    presheaves = _two_chain_presheaves()
    adj, families, op = presheaf_instance(presheaves)
    # α = ({a},{a,b}) on the constant 2-element presheaf: already a subpresheaf
    assert op.parts["D1"].apply("[w1:{a};w2:{a,b}]") == "[w1:{a};w2:{a,b}]"
    # α = ({a,b},{b}) prunes at w1 to the part that stays in α at w2
    assert op.parts["D1"].apply("[w1:{a,b};w2:{b}]") == "[w1:{b};w2:{b}]"


def test_presheaf_oracle_mismatches_reports_planted_disagreement_in_fiber_order(monkeypatch):
    presheaves = _two_chain_presheaves()
    _, families, op = presheaf_instance(presheaves)
    assert presheaf_oracle_mismatches(presheaves, op) == []
    # an oracle that is wrong exactly on the top family of each presheaf
    real = instances.subpresheaf_gfp
    tops = {d.name: families.fibers[d.name].values[-1] for d in presheaves}

    def wrong_at_top(d, parts):
        got = real(d, parts)
        return tuple(frozenset() for _ in got) if parts == tops[d.name] else got

    monkeypatch.setattr(instances, "subpresheaf_gfp", wrong_at_top)
    assert presheaf_oracle_mismatches(presheaves, op) == [(d.name, families.fibers[d.name].elements[-1]) for d in presheaves]


def test_presheaf_stable_elements_are_subpresheaves():
    presheaves = _two_chain_presheaves()
    adj, families, op = presheaf_instance(presheaves)
    from doctrines.instances import is_subpresheaf

    for d in presheaves:
        fiber = families.fibers[d.name]
        want = {lbl for lbl, parts in zip(fiber.elements, fiber.values) if is_subpresheaf(d, dict(zip(d.base.objects, parts)))}
        assert set(stable_elements(op, d.name)) == want


def _assert_oracle_equals_reference(d):
    for parts in product(*(subsets_in_order(d.at[w]) for w in d.base.objects)):
        assert subpresheaf_gfp(d, parts) == subpresheaf_union_reference(d, parts), (d, parts)


def _chain_presheaf(worlds, at, step, top_first=False):
    """The presheaf on the chain `worlds` with carriers `at` acting along each
    cover w_i ≤ w_i+1 by step[i], and along the longer arrows by composites;
    its base declares the worlds in chain order, or with `top_first` in the
    reverse order."""
    act = {}
    for i, w in enumerate(worlds):
        along = {x: x for x in at[w]}
        for j in range(i, len(worlds)):
            act[f"{w}<={worlds[j]}"] = along
            if j + 1 < len(worlds):
                along = {x: step[j][y] for x, y in along.items()}
    order = fin_poset(worlds[::-1] if top_first else worlds, list(zip(worlds, worlds[1:])))
    return FinPresheaf("D", poset_category(order), at, act)


@pytest.mark.parametrize("top_first", [False, True], ids=["bottom-first", "top-first"])
@pytest.mark.parametrize("n", range(1, 9))
def test_presheaf_gfp_equals_the_subfamily_union_on_one_element_chains(n, top_first):
    # declared top first, a removal at a world fails a generator the worklist has already passed
    worlds = [f"w{i}" for i in range(n)]
    d = _chain_presheaf(worlds, dict.fromkeys(worlds, ("a",)), [{"a": "a"}] * (n - 1), top_first)
    _assert_oracle_equals_reference(d)


@pytest.mark.parametrize("seed", range(6))
def test_presheaf_gfp_equals_the_subfamily_union_on_random_chains(seed):
    # up to 4 worlds of 1-2 elements, at most 8 in all, with random maps along the covers
    rng = random.Random(seed)
    worlds = [f"w{i}" for i in range(rng.randint(2, 4))]
    at = {w: ("x", "y")[: rng.randint(1, 2)] for w in worlds}
    step = [{x: rng.choice(at[v]) for x in at[w]} for w, v in zip(worlds, worlds[1:])]
    _assert_oracle_equals_reference(_chain_presheaf(worlds, at, step, top_first=seed % 2 == 1))
    for d in random_chain_presheaves(rng):
        _assert_oracle_equals_reference(d)


def _two_element_presheaves(worlds, covers):
    """Every presheaf with carrier {x, y} at each world of the poset on
    `worlds`, in that order, that `covers` generates, whose action along each
    arrow between two worlds is not the identity: each such assignment of
    maps, kept when it is functorial."""
    base = poset_category(fin_poset(worlds, covers))
    carrier = ("x", "y")
    moving = [dict(zip(carrier, image)) for image in product(carrier, repeat=2) if image != carrier]
    between = [f for (f, w, v) in base.arrows if w != v]
    out = []
    for maps in product(moving, repeat=len(between)):
        act = {base.id(w): {x: x for x in carrier} for w in base.objects} | dict(zip(between, maps))
        d = FinPresheaf("D", base, dict.fromkeys(base.objects, carrier), act)
        if presheaf_violations(d) == []:
            out.append(d)
    return out


@pytest.mark.parametrize(
    "worlds, covers",
    [
        ("blrt", [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")]),
        ("trlb", [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")]),
        ("blr", [("b", "l"), ("b", "r")]),
        ("rlb", [("b", "l"), ("b", "r")]),
    ],
    ids=["diamond", "diamond-top-first", "V", "V-top-first"],
)
def test_presheaf_gfp_equals_the_subfamily_union_off_chains(worlds, covers):
    presheaves = _two_element_presheaves(list(worlds), covers)
    assert presheaves
    for d in presheaves:
        _assert_oracle_equals_reference(d)


def test_presheaf_gfp_equals_the_subfamily_union_on_a_monoid():
    # {e, f, g = f∘f} with f∘g = g∘f = g, generated by f, which moves x to y
    # and y to z: removing y from {x, y} fails x along the same generator,
    # which the worklist must examine again
    table = {("e", m): m for m in "efg"} | {(m, "e"): m for m in "efg"} | {(m, n): "g" for m in "fg" for n in "fg"}
    base = one_object_monoid_category("*", ["e", "f", "g"], "e", table)
    act = {"e": {"x": "x", "y": "y", "z": "z"}, "f": {"x": "y", "y": "z", "z": "z"}, "g": dict.fromkeys("xyz", "z")}
    d = FinPresheaf("D", base, {"*": ("x", "y", "z")}, act)
    assert presheaf_violations(d) == []
    _assert_oracle_equals_reference(d)
    assert subpresheaf_gfp(d, (frozenset({"x", "y"}),)) == (frozenset(),)


def test_presheaf_gfp_equals_the_subfamily_union_on_the_benchmark_presheaves(monkeypatch):
    from doctrines.cli import build_workspace, parse_text

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    models = {r.model for seed in range(workloads.SEED_SPACE) for r in workloads.requests_for("modal", seed)}
    groups = [g for m in sorted(models) if "presheaf" in m for g in build_workspace(parse_text(m), 0).presheaves.values()]
    assert groups
    for group in groups:
        for d in group:
            _assert_oracle_equals_reference(d)


def test_one_world_presheaf_instance_trivial():
    base = poset_category(chain_poset(["w"]))
    d = FinPresheaf("D", base, {"w": ("a", "b")}, {"w<=w": {"a": "a", "b": "b"}})
    adj, families, op = presheaf_instance([d])
    assert op == identity_interior(families)


def test_subobject_doctrine_matches_powerset():
    sets = {"A": ["a1", "a2"], "B": ["b1"]}
    sub = subobject_doctrine_finset(sets)
    pw = powerset_doctrine(sets)
    assert sub == pw
    assert doctrine_violations(sub) == []


def test_conjunction_modality_examples():
    d = powerset_doctrine_over({"A": ["a1", "a2"]})
    adj = conjunction_adjunction(d)
    assert adjunction_violations(adj) == []
    op = conjunction_modality(d)

    # ({a1},{a2}) ↦ ({},{})
    assert op.parts["A"].apply("({a1}|{a2})") == "({}|{})"
    # (top,β) ↦ (β,β)
    assert op.parts["A"].apply("({a1,a2}|{a2})") == "({a2}|{a2})"
    # (α,α) ↦ (α,α)
    assert op.parts["A"].apply("({a1}|{a1})") == "({a1}|{a1})"


def test_forall_instance_examples():
    adj, op = forall_instance({"Y": ["y"]}, "X", ["0", "1"])
    assert adjunction_violations(adj) == []
    assert interior_violations(op) == []
    # α = {(y,0)} fails at (y,1): box is empty
    assert op.parts["Y"].apply("{y*0}") == "{}"
    # the full relation is fixed
    assert op.parts["Y"].apply("{y*0,y*1}") == "{y*0,y*1}"


def test_forall_instance_singleton_x_is_identity():
    adj, op = forall_instance({"Y": ["y", "z"]}, "X", ["0"])
    for lbl in op.doctrine.fibers["Y"].elements:
        got = op.parts["Y"].apply(lbl)
        assert label_subset(got) == {f"{e}*0" for e in ("y", "z") if f"{e}*0" in label_subset(lbl)}


def test_conjunction_verdict_names_reindexing_that_does_not_preserve_meets():
    # x → y with P(y) = pw{a,b} and reindexing along t: S ↦ (S nonempty) into
    # the 2-chain, monotone but not meet-preserving: {a} ∧ {b} = {} ↦ 0,
    # while 1 ∧ 1 = 1. The meet ρ is then not natural along t.
    base = fin_category(
        ["x", "y"],
        [("id_x", "x", "x"), ("id_y", "y", "y"), ("t", "x", "y")],
        {"x": "id_x", "y": "id_y"},
        {("id_x", "id_x"): "id_x", ("id_y", "id_y"): "id_y", ("t", "id_x"): "t", ("id_y", "t"): "t"},
    )
    fy, fx = powerset_poset(["a", "b"]), chain_poset(["0", "1"])
    nonempty = graph_map(fy, fx, {s: "1" if label_subset(s) else "0" for s in fy.elements})
    planted = Doctrine(base, {"x": fx, "y": fy}, {"id_x": identity_map(fx), "id_y": identity_map(fy), "t": nonempty})
    assert doctrine_violations(planted) == []
    assert adjunction_violations(conjunction_adjunction(planted)) == ["(ii) right: naturality fails along t"]


def _lukasiewicz4():
    """The 4-chain Łukasiewicz quantale of `tools/layer_sweep.py`'s quantale rows."""
    ranks = ["0", "a", "b", "1"]
    tensor = {(x, y): ranks[max(0, i + j - 3)] for i, x in enumerate(ranks) for j, y in enumerate(ranks)}
    return valid_quantale("luk4", lattice_from_poset(chain_poset(ranks)), tensor, "1")


def test_every_small_quantale_passes_the_core_references():
    # `quantale_core` checks nothing but `quantale_violations`; its docstring
    # proves the rest, run here literally on every commutative quantale on a
    # lattice of at most 4 elements, in size order, and on the named ones
    tables = small_commutative_tables()
    quantales = [q for q in tables if not quantale_violations(q)]
    assert (len(tables), len(quantales)) == (392, 25)
    quantales = [bool_quantale(), lukasiewicz3(), _lukasiewicz4(), *quantales]
    quantales.sort(key=lambda q: len(q.lattice.carrier.elements))
    failures = []
    for q in quantales:
        try:
            core = quantale_core(q)
        except (KeyError, ValueError) as e:
            failures.append((q.name, [f"raised {type(e).__name__}: {e}"]))
            continue
        bad = [] if core.elements == quantale_core_reference(q) else ["core is not {x | x ≤ 1, x ≤ x⊗x}"]
        bad += quantale_core_violations_reference(q, core)
        if bad:
            failures.append((q.name, bad[:3]))
    assert failures == []


def _forall_corpus():
    """Y-sets of 1-2 objects of 1-3 points each and X of 1-3 points, by
    object count, then points, whose products Y×X hold at most 6 points:
    the base holds the functions between the Y-sets and their products by
    X alone, so a 6-point product adds only its f×id_X and g∘π₁."""
    for k in (1, 2):
        for sizes in combinations_with_replacement(range(1, 4), k):
            for n in range(1, 4):
                if max(sizes) * n <= 6:
                    y_sets = {f"Y{i}": [f"y{j}" for j in range(m)] for i, m in enumerate(sizes)}
                    yield y_sets, [f"x{j}" for j in range(n)]


def test_forall_instance_passes_power_doctrine_the_product_data_it_proves(monkeypatch):
    # `power_doctrine` checks nothing; `forall_instance`'s docstring proves
    # the data it passes, which the checks power_doctrine once made (and the
    # projections read off labels (e, x) ↦ e and (e, x) ↦ x) run on here
    passed = []

    def recording(P, sub, products, times):
        passed.append((P, sub, products, times))
        return power_doctrine(P, sub, products, times)

    monkeypatch.setattr(instances, "power_doctrine", recording)
    failures = []
    for y_sets, xs in _forall_corpus():
        try:
            verdict = adjunction_violations(forall_instance(y_sets, "X", xs)[0])
        except (KeyError, ValueError) as e:
            verdict = [f"raised {type(e).__name__}: {e}"]
        ((P, sub, products, times),) = passed
        passed.clear()
        proj1, proj2 = {}, {}
        for y, els in y_sets.items():
            pairs = [f"{e}*{x}" for e in els for x in xs]
            proj1[y] = function_arrow_name(f"{y}xX", y, {f"{e}*{x}": e for e in els for x in xs}, pairs)
            proj2[y] = tuple(xs.index(x) for e in els for x in xs)
        bad = [f"first projection for {y} is not (e, x) ↦ e" for y in y_sets if products[y].proj1 != proj1[y]]
        bad += product_data_violations_reference(P, sub, "X", products, proj2, times) + verdict
        if bad:
            failures.append(({y: len(els) for y, els in y_sets.items()}, len(xs), bad[:3]))
    assert failures == []


def test_bang_laws_on_powerset_monoid_quantale():
    z2 = powerset_monoid_quantale(
        ["e", "a"], {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}, "e"
    )
    assert bang_law_violations(z2, {"X": ["x"]}) == []


def _all_pairs_order(labels, below):
    """Reference: the order on `labels` by testing every pair."""
    return poset_from_pairs(labels, [(l1, l2) for l1 in labels for l2 in labels if below(l1, l2)])


def _all_pairs_function_fiber(domain, codomain):
    decode = assignments(domain, codomain)
    return _all_pairs_order(
        list(decode), lambda l1, l2: all(codomain.leq(decode[l1][d], decode[l2][d]) for d in domain)
    )


FIBER_CODOMAINS = [powerset_poset([f"w{i}" for i in range(n)]) for n in range(5)] + [
    chain_poset(["0", "1", "2", "3"]),
    fin_poset(["b", "l", "r"], [("b", "l"), ("b", "r")]),  # a V: l and r have no join
]


@pytest.mark.parametrize("codomain", FIBER_CODOMAINS, ids=lambda c: f"{len(c.elements)}el")
@pytest.mark.parametrize("size", range(3))
def test_function_fiber_equals_all_pairs_reference(codomain, size):
    domain = [f"d{i}" for i in range(size)]
    got = _function_fiber(domain, codomain)
    want = _all_pairs_function_fiber(domain, codomain)
    assert got.elements == want.elements
    assert got.relation == want.relation
    # each element's value is the tuple of the values its label assigns
    decode = assignments(domain, codomain)
    assert got.values == tuple(tuple(codomain.value(decode[lbl][e]) for e in domain) for lbl in got.elements)


def test_presheaf_fibers_equal_all_pairs_reference():
    group = _two_chain_presheaves()
    _, families, _ = presheaf_instance(group)
    for d in group:
        worlds = list(d.base.objects)
        decode = {}
        for combo in product(*[subsets_in_order(d.at[w]) for w in worlds]):
            parts = dict(zip(worlds, combo))
            decode["[" + ";".join(f"{w}:{subset_label(parts[w], d.at[w])}" for w in worlds) + "]"] = parts
        want = _all_pairs_order(
            list(decode), lambda l1, l2: all(decode[l1][w] <= decode[l2][w] for w in worlds)
        )
        got = families.fibers[d.name]
        assert got.elements == want.elements
        assert got.relation == want.relation


@pytest.mark.parametrize("frame", [CHAIN2, KripkeFrame(("u",), frozenset({("u", "u")}))], ids=["2w", "1w"])
def test_fam_doctrine_fibers_equal_all_pairs_reference(frame):
    from doctrines.instances import family_element_label

    worlds = frame.worlds
    fams = [
        IndexedFamily("X", ("a", "b"), {w: frozenset({"a"}) for w in worlds}),
        IndexedFamily("Y", ("c", "d", "e"), {w: frozenset({"c", "e"}) for w in worlds}),
    ]
    doc, _ = fam_doctrine(frame, fams)
    for f in fams:
        decode = {}
        for c in subsets_in_order(f.carrier):
            inside = [e for e in f.carrier if e in c]
            for combo in product(subsets_in_order(inside), repeat=len(worlds)):
                parts = dict(zip(worlds, combo))
                decode[family_element_label(c, parts, f.carrier, worlds)] = (c, parts)
        want = _all_pairs_order(
            list(decode),
            lambda l1, l2: decode[l1][0] <= decode[l2][0]
            and all(decode[l1][1][w] <= decode[l2][1][w] for w in worlds),
        )
        got = doc.fibers[f.name]
        assert got.elements == want.elements
        assert got.relation == want.relation


def _two_world_families(worlds):
    """Two families whose parts grow along the worlds, so the parts test
    differs from world to world."""
    return [
        IndexedFamily("X", ("a", "b"), {w: frozenset("a" if i == 0 else "ab") for i, w in enumerate(worlds)}),
        IndexedFamily("Y", ("c", "d", "e"), {w: frozenset("c" if i == 0 else "ce") for i, w in enumerate(worlds)}),
    ]


@pytest.mark.parametrize("frame", [CHAIN2, KripkeFrame(("u",), frozenset({("u", "u")}))], ids=["2w", "1w"])
def test_fam_doctrine_base_equals_reference_loops(frame):
    fams = {f.name: f for f in _two_world_families(frame.worlds)}
    doc, _ = fam_doctrine(frame, list(fams.values()))

    def homs(x, y):
        return [g for g in all_functions(fams[x].carrier, fams[y].carrier) if keeps_parts(fams[x], fams[y], frame.worlds, g)]

    assert doc.base == function_category_reference({n: f.carrier for n, f in fams.items()}, homs)


def test_topological_doctrine_equals_reference_loops():
    doc, _ = topological_doctrine(SPACES)
    by_name = {s.name: s for s in SPACES}
    sets = {s.name: s.points for s in SPACES}
    base = function_category_reference(sets, lambda x, y: open_continuous_maps(by_name[x], by_name[y]))
    assert doc.base == base
    assert doc == inverse_image_reference(base, sets)


def test_presheaf_base_equals_reference_search():
    rng = random.Random(17)
    for group in [_two_chain_presheaves()] + [random_chain_presheaves(rng) for _ in range(20)]:
        _, families, _ = presheaf_instance(group)
        base = families.base
        assert base == presheaf_base_reference(group)
        assert category_violations(base.objects, base.arrows, base.identities, composition_table(base)) == []


KRIPKE_CASES = [
    (CHAIN2, {"D": ["x"], "E": ["x", "y"]}),
    (KripkeFrame(("u", "v"), frozenset({("u", "u"), ("v", "v"), ("u", "v"), ("v", "u")})), {"D": ["x", "y"]}),
]


@pytest.mark.parametrize("frame, sets", KRIPKE_CASES, ids=["chain2", "clique2"])
def test_kripke_doctrine_maps_equal_reference_loops(frame, sets):
    doc, op = kripke_doctrine(frame, sets)
    base = full_function_category(sets)
    wposet = powerset_poset(frame.worlds)
    assert {a: graph_of(m) for a, m in doc.reindex.items()} == precomposition_reference(base, sets, wposet)
    box = subset_map_reference(wposet, frame.worlds, lambda a: kripke_box(frame, a))
    for x in sets:
        assert graph_of(op.parts[x]) == postcomposition_reference(sets[x], wposet, box)


@pytest.mark.parametrize("q", [bool_quantale(), lukasiewicz3()], ids=["bool", "luk3"])
def test_quantale_doctrine_maps_equal_reference_loops(q):
    sets = {"X": ["x"], "Y": ["x", "y"]}
    Qdoc, adj, _ = quantale_doctrine(q, sets)
    core = quantale_core(q)
    base = full_function_category(sets)
    assert adj.q is Qdoc
    assert {a: graph_of(m) for a, m in Qdoc.reindex.items()} == precomposition_reference(base, sets, q.lattice.carrier)
    assert {a: graph_of(m) for a, m in adj.p.reindex.items()} == precomposition_reference(base, sets, core.sub)
    for x in sets:
        assert graph_of(adj.lam[x]) == postcomposition_reference(sets[x], core.sub, graph_of(core.iota))
        assert graph_of(adj.rho[x]) == postcomposition_reference(sets[x], q.lattice.carrier, graph_of(core.r))


M3 = fin_poset(["0", "a", "b", "c", "1"], [("0", x) for x in "abc"] + [(x, "1") for x in "abc"])


def _meet_quantale(poset, unit):
    lat = lattice_from_poset(poset)
    return FiniteQuantale("meet", lat, dict(lat.meet), unit)


def test_quantale_distributivity_reports_each_failing_binary_join_once():
    # M3 is not distributive: a ∧ (b ∨ c) = a but (a ∧ b) ∨ (a ∧ c) = 0
    assert quantale_violations(_meet_quantale(M3, "1")) == [
        "tensor does not distribute over the join of ['b', 'c'] at a",
        "tensor does not distribute over the join of ['a', 'c'] at b",
        "tensor does not distribute over the join of ['a', 'b'] at c",
    ]
    # 10 elements: above the size where every family used to be walked
    big = _meet_quantale(product_poset(M3, chain_poset(["0", "1"])), "(1|1)")
    got = quantale_violations(big)
    assert len(got) == len(set(got)) == 24


def test_repeated_object_names_are_rejected():
    fam = IndexedFamily("X", ("a",), {w: frozenset("a") for w in CHAIN2.worlds})
    stream = FCoalgebra("A", "stream", ("s",), {"s": "s"})
    builds = [
        lambda: fam_doctrine(CHAIN2, [fam, fam]),
        lambda: topological_doctrine([SPACES[0], SPACES[0]]),
        lambda: temporal_doctrine([stream, stream], "stream"),
    ]
    for build in builds:
        with pytest.raises(ValueError, match="duplicate"):
            build()
