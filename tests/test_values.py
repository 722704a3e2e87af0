"""Fiber elements keep their values: every builder gives each element a
distinct value, and `order.value_map` reads a map between fibers off a
function on values, as the label-printing maps it replaced did."""

import random

import pytest

from doctrines.doctrine import square_doctrine
from doctrines.fincat import full_function_category
from doctrines.instances import (
    IndexedFamily,
    KripkeFrame,
    _function_doctrine,
    _pointwise_fiber,
    _postcompose,
    fam_doctrine,
    powerset_doctrine,
)
from doctrines.order import (
    FinPoset,
    chain_poset,
    check_poset,
    fin_poset,
    identity_map,
    poset_from_pairs,
    powerset_poset,
    product_poset,
    sub_poset,
    value_graph,
    value_map,
)
from util import graph_of, kripke_box, postcomposition_reference, precomposition_reference, subset_map_reference

CHAIN2 = KripkeFrame(("w1", "w2"), frozenset({("w1", "w1"), ("w2", "w2"), ("w1", "w2")}))
DIAMOND = fin_poset(["b", "l", "r", "t"], [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")])


def _fam_fiber():
    fam = IndexedFamily("X", ("a", "b"), {"w1": frozenset("a"), "w2": frozenset("ab")})
    return fam_doctrine(CHAIN2, [fam])[0].fibers["X"]


BUILT = {
    "poset_from_pairs": lambda: poset_from_pairs(["x", "y"], [("x", "x"), ("y", "y"), ("x", "y")]),
    "check_poset": lambda: check_poset(["x", "y"], [("x", "x"), ("y", "y")]),
    "fin_poset": lambda: DIAMOND,
    "chain_poset": lambda: chain_poset(["0", "1", "2"]),
    "sub_poset": lambda: sub_poset(powerset_poset(["a", "b", "c"]), [0, 1, 5]),
    "product_poset": lambda: product_poset(powerset_poset(["a"]), DIAMOND),
    "powerset_poset": lambda: powerset_poset(["a", "b", "c"]),
    "_pointwise_fiber": lambda: _pointwise_fiber(["k", "m"], [powerset_poset(["a", "b"]), DIAMOND]),
    "fam_doctrine": _fam_fiber,
    "square_doctrine": lambda: square_doctrine(powerset_doctrine({"A": ["a1", "a2"]}))[0].fibers["A"],
}


@pytest.mark.parametrize("name", BUILT)
def test_every_builder_gives_distinct_values_and_the_identity_by_value(name):
    p = BUILT[name]()
    assert len(p.values) == len(set(p.values)) == len(p.elements)
    assert value_map(p, p, lambda v: v) == identity_map(p)
    assert [p.by_value[p.value(a)] for a in p.elements] == list(range(len(p.elements)))


def test_builders_set_the_values_the_invariant_names():
    assert powerset_poset(["a", "b"]).values == (frozenset(), frozenset("a"), frozenset("b"), frozenset("ab"))
    assert chain_poset(["0", "1"]).values == ("0", "1")
    fiber = _pointwise_fiber(["k", "m"], [chain_poset(["0", "1"]), powerset_poset(["a"])])
    assert fiber.values == (("0", frozenset()), ("0", frozenset("a")), ("1", frozenset()), ("1", frozenset("a")))
    kept = sub_poset(powerset_poset(["a", "b"]), [2, 3])
    assert kept.values == (frozenset("b"), frozenset("ab"))
    pairs = product_poset(chain_poset(["0", "1"]), powerset_poset(["a"]))
    assert pairs.values[1] == ("0", frozenset("a"))
    assert (frozenset("a"), (frozenset(), frozenset("a"))) in _fam_fiber().values


def test_an_image_value_outside_the_target_raises_naming_the_source_element():
    p = powerset_poset(["a"])
    with pytest.raises(ValueError, match=r"^the image of '\{\}' is not a value of the target poset$"):
        value_map(p, p, lambda s: s | {"z"})


def test_a_repeated_value_raises_as_a_repeated_element_does():
    with pytest.raises(ValueError, match="^repeated poset value 0$"):
        FinPoset(("x", "y", "z"), (1, 2, 4), values=(1, 0, 0))
    with pytest.raises(ValueError, match="^repeated poset element 'x'$"):
        FinPoset(("x", "x"), (1, 2))


def test_values_take_no_part_in_equality():
    p = chain_poset(["0", "1"])
    assert FinPoset(p.elements, p.codes, values=(5, 6)) == p
    assert hash(FinPoset(p.elements, p.codes, values=(5, 6))) == hash(p)


def test_value_graph_reads_a_map_on_values():
    p, q = powerset_poset(["a", "b"]), chain_poset(["0", "1"])
    m = value_map(p, q, lambda s: "1" if s else "0")
    assert value_graph(m) == {s: ("1" if s else "0") for s in p.values}


def _random_ground(rng, prefix):
    return [f"{prefix}{i}" for i in range(rng.randint(0, 4))]


@pytest.mark.parametrize("seed", range(20))
def test_powerset_maps_by_value_equal_the_label_comprehension(seed):
    rng = random.Random(seed)
    src_ground, dst_ground = _random_ground(rng, "a"), _random_ground(rng, "b")
    src, dst = powerset_poset(src_ground), powerset_poset(dst_ground)
    table = {s: frozenset(rng.sample(dst_ground, rng.randint(0, len(dst_ground)))) for s in src.values}
    assert graph_of(value_map(src, dst, table.__getitem__)) == subset_map_reference(src, dst_ground, table.__getitem__)
    # inverse image along a random function, the reindexing of the powerset doctrine
    if src_ground:
        g = {e: rng.choice(src_ground) for e in dst_ground}

        def pre(s):
            return frozenset(e for e in dst_ground if g[e] in s)

        assert graph_of(value_map(src, dst, pre)) == subset_map_reference(src, dst_ground, pre)


CODOMAINS = [powerset_poset(["w1", "w2"]), chain_poset(["0", "h", "1"]), DIAMOND]


@pytest.mark.parametrize("seed", range(12))
def test_function_doctrine_maps_by_value_equal_the_label_reindexing(seed):
    rng = random.Random(seed)
    sets = {name: [f"{name.lower()}{i}" for i in range(rng.randint(0, 2))] for name in ("X", "Y")}
    codomain = rng.choice(CODOMAINS)
    base = full_function_category(sets)
    doc = _function_doctrine(base, sets, codomain)
    assert {a: graph_of(m) for a, m in doc.reindex.items()} == precomposition_reference(base, sets, codomain)
    f = {a: rng.choice(codomain.elements) for a in codomain.elements}
    # f as the target position of each codomain position
    parts = _postcompose(doc, doc, sets, [codomain.index(f[a]) for a in codomain.elements], len(codomain.elements))
    for x in sets:
        assert graph_of(parts[x]) == postcomposition_reference(sets[x], codomain, f)


def test_postcomposition_from_a_one_element_codomain_reads_the_number_of_keys():
    # every fiber of the source has one element, so its size cannot tell n
    sets = {"X": [], "Y": ["y0"], "Z": ["z0", "z1", "z2"]}
    one, two = chain_poset(["a"]), chain_poset(["a", "b"])
    base = full_function_category(sets)
    src, dst = _function_doctrine(base, sets, one), _function_doctrine(base, sets, two)
    parts = _postcompose(src, dst, sets, [1], 2)
    for x in sets:
        # f∘α is the constant b, whatever n is
        assert [dst.fibers[x].values[i] for i in parts[x].images] == [("b",) * len(sets[x])]


def test_kripke_box_by_value_equals_the_label_comprehension():
    wposet = powerset_poset(CHAIN2.worlds)
    box = value_map(wposet, wposet, lambda a: kripke_box(CHAIN2, a))
    assert graph_of(box) == subset_map_reference(wposet, CHAIN2.worlds, lambda a: kripke_box(CHAIN2, a))
