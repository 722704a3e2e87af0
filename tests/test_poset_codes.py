"""Fibers ordered by bit codes: the code builders against the pair-set
references, products coded by concatenating their factors' codes,
extensional equality across codings of one order, the Kripke box table
against its frozenset oracle, and each Boolean fiber coded by its subsets'
bitmasks on the passing paths."""

import json
import random
from itertools import product

import pytest

from doctrines import instances, order
from doctrines.cli import main
from doctrines.instances import KripkeFrame, _pointwise_fiber, kripke_doctrine, lukasiewicz3, quantale_doctrine
from doctrines.order import (
    FinPoset,
    chain_poset,
    graph_map,
    monotone_violations,
    poset_from_pairs,
    powerset_poset,
    product_poset,
    sub_poset,
)
from test_poset_masks import NINE_WORLD_MODEL, _same_order
from util import down, kripke_box, pointwise_fiber_reference, powerset_poset_reference

SEEDS = range(12)


def _same_as_reference(got, want):
    """`got` holds exactly the order of the pair-set poset `want`, through
    every reader of the interface."""
    _same_order(got, want)
    assert got == want and want == got and hash(got) == hash(want)
    for a in got.elements:
        assert got.up(a) == want.up(a) and down(got, a) == down(want, a)
        assert [got.leq(a, b) for b in got.elements] == [want.leq(a, b) for b in want.elements]


def _restricted(p, kept):
    keep = set(kept)
    return poset_from_pairs(
        [e for e in p.elements if e in keep], {(a, b) for (a, b) in p.relation if a in keep and b in keep}
    )


def _concatenated_codes(factors):
    """The codes of the product of `factors` in position order: each
    factor's code in a block as wide as its widest code, the first factor's
    block highest."""
    widths = [max(f.codes, default=0).bit_length() for f in factors]
    shifts = [sum(widths[k + 1:]) for k in range(len(factors))]
    return tuple(sum(c << s for c, s in zip(combo, shifts)) for combo in product(*(f.codes for f in factors)))


def _ground(rng, prefix, top=3):
    return [f"{prefix}{i}" for i in range(rng.randint(0, top))]


@pytest.mark.parametrize("n", range(7))
def test_powerset_poset_has_codes_equal_to_the_pair_set_reference(n):
    ground = [f"p{i}" for i in range(n)]
    got = powerset_poset(ground)
    assert got.codes == tuple(sum(1 << ground.index(x) for x in v) for v in got.values)
    _same_as_reference(got, powerset_poset_reference(ground))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("keys", [1, 2, 3])
def test_pointwise_fiber_of_powersets_has_codes_equal_to_the_reference(seed, keys):
    rng = random.Random(f"pointwise:{seed}:{keys}")
    factors = [powerset_poset(_ground(rng, f"g{k}_", 3 if keys < 3 else 2)) for k in range(keys)]
    names = [f"k{k}" for k in range(keys)]
    got = _pointwise_fiber(names, factors)
    assert got.codes == _concatenated_codes(factors)
    _same_as_reference(got, pointwise_fiber_reference(names, factors))


@pytest.mark.parametrize("seed", SEEDS)
def test_pointwise_fiber_of_mixed_factors_has_masks_equal_to_the_reference(seed):
    rng = random.Random(f"mixed:{seed}")
    factors = [powerset_poset(_ground(rng, "g", 2)), chain_poset(["0", "1", "2"][: rng.randint(1, 3)])]
    factors += [rng.choice([powerset_poset(_ground(rng, "h", 2)), chain_poset(["x", "y"])])]
    rng.shuffle(factors)
    names = ["k0", "k1", "k2"]
    got = _pointwise_fiber(names, factors)
    # a chain factor is coded by its down-sets, 1, 3, 7, …, in its own block
    chains = [f for f in factors if isinstance(f.values[0], str)]
    assert chains and all(f.codes == tuple((2 << i) - 1 for i in range(len(f.elements))) for f in chains)
    assert got.codes == _concatenated_codes(factors)
    _same_as_reference(got, pointwise_fiber_reference(names, factors))


@pytest.mark.parametrize("seed", SEEDS)
def test_sub_poset_of_a_code_poset_keeps_codes_and_derives_its_covers(seed):
    rng = random.Random(f"sub:{seed}")
    pointwise = _pointwise_fiber(["k", "m"], [powerset_poset(["a", "b"])] * 2)
    p = rng.choice([powerset_poset(_ground(rng, "g", 4)), pointwise])
    kept = [e for e in p.elements if rng.random() < 0.6]
    got = sub_poset(p, map(p.index, kept))
    assert got.codes == tuple(p.codes[p.index(e)] for e in got.elements) and got.covers is None
    _same_as_reference(got, _restricted(p, kept))
    assert got.values == tuple(p.value(e) for e in got.elements)


@pytest.mark.parametrize("seed", SEEDS)
def test_product_poset_of_code_posets_has_codes_equal_to_the_reference(seed):
    rng = random.Random(f"product:{seed}")
    p = powerset_poset(_ground(rng, "a"))
    q = powerset_poset(_ground(rng, "b"))
    q = sub_poset(q, [i for i in range(len(q.elements)) if rng.random() < 0.7])
    label = lambda a, b: f"({a}|{b})"
    want = poset_from_pairs(
        [label(a, b) for a in p.elements for b in q.elements],
        {(label(a, b), label(c, d)) for (a, c) in p.relation for (b, d) in q.relation},
    )
    got = product_poset(p, q)
    assert got.codes == _concatenated_codes([p, q])
    _same_as_reference(got, want)
    chain = chain_poset(["0", "1"])
    mixed = product_poset(p, chain)
    assert chain.codes == (1, 3) and mixed.codes == _concatenated_codes([p, chain])
    _same_as_reference(mixed, poset_from_pairs(mixed.elements, mixed.relation))


def test_equality_and_hash_are_on_the_order_not_its_encoding():
    p = powerset_poset(["a", "b"])
    downsets = poset_from_pairs(p.elements, p.relation)
    # each element coded by the positions of its down-set: {} {a} {b} {a,b}
    assert downsets.codes == (0b1, 0b11, 0b101, 0b1111) and p.codes == (0, 1, 2, 3)
    assert p == downsets and downsets == p and hash(p) == hash(downsets)
    # other codes, the same order: {a} and {b} swap their bits
    assert FinPoset(p.elements, codes=(0, 2, 1, 3)) == p
    # other codes, another order: {a} <= {b} here
    assert FinPoset(p.elements, codes=(0, 1, 3, 7)) != p
    assert FinPoset(p.elements, codes=(0, 1, 3, 7)) != downsets
    assert chain_poset(p.elements) != p and p != chain_poset(p.elements)
    assert FinPoset(p.elements, codes=(0, 1, 3, 7)) == chain_poset(p.elements)
    with pytest.raises(TypeError, match="missing required arguments: 'codes'"):
        FinPoset(p.elements)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_non_monotone_map_on_a_code_poset_gets_the_witnesses_of_its_mask_twin(seed):
    rng = random.Random(f"monotone:{seed}")
    whole = powerset_poset(["a", "b", "c"])
    p = rng.choice([whole, sub_poset(whole, map(whole.index, ["{}", "{a}", "{b}", "{a,b}", "{a,b,c}"]))])
    twin = poset_from_pairs(p.elements, p.relation)  # the same order, coded by down-sets
    mapping = {a: rng.choice(p.elements) for a in p.elements}
    got = monotone_violations(graph_map(p, p, mapping))
    assert got == monotone_violations(graph_map(twin, twin, mapping))
    assert got == sorted(
        f"order not preserved on ({a},{b})" for (a, b) in p.relation if (mapping[a], mapping[b]) not in p.relation
    )


def test_the_modal_quantale_fiber_has_27_codes_of_9_bits():
    # the 3-chain Lukasiewicz quantale of the modal workload at |X| = 3
    q = lukasiewicz3()
    keys = ["x0", "x1", "x2"]
    doc, _, _ = quantale_doctrine(q, {"X": keys})
    fiber, chain = doc.fibers["X"], q.lattice.carrier
    assert chain.codes == (1, 3, 7)
    assert fiber.codes == tuple(a << 6 | b << 3 | c for a in chain.codes for b in chain.codes for c in chain.codes)
    assert len(fiber.codes) == 27 and max(fiber.codes).bit_length() == 9
    want = pointwise_fiber_reference(keys, [chain] * 3)
    assert fiber.elements == want.elements
    assert [[fiber.leq(a, b) for b in fiber.elements] for a in fiber.elements] == [
        [want.leq(a, b) for b in want.elements] for a in want.elements
    ]


def _random_frame(rng, n):
    """Any relation on n worlds: not reflexive, not transitive, in general."""
    worlds = tuple(f"w{i}" for i in range(n))
    return KripkeFrame(worlds, frozenset((a, b) for a in worlds for b in worlds if rng.random() < 0.3))


@pytest.mark.parametrize("seed", SEEDS)
def test_the_box_table_built_on_codes_equals_the_frozenset_oracle(seed):
    rng = random.Random(f"box:{seed}")
    frame = _random_frame(rng, rng.randint(0, 6))
    doc, op = kripke_doctrine(frame, {"D": ["x"]})
    fiber, box = doc.fibers["D"], op.parts["D"]
    # one key: every value is the 1-tuple of a subset, and every subset occurs
    assert sorted(len(v[0]) for v in fiber.values) == sorted(len(s) for s in powerset_poset(frame.worlds).values)
    for a in fiber.elements:
        assert fiber.value(box.apply(a)) == (kripke_box(frame, fiber.value(a)[0]),)


def test_the_box_oracle_is_tried_on_frames_that_are_not_preorders():
    kinds = set()
    for seed in SEEDS:
        rng = random.Random(f"box:{seed}")
        frame = _random_frame(rng, rng.randint(0, 6))
        rel, worlds = frame.rel, frame.worlds
        kinds.add(("reflexive", all((w, w) in rel for w in worlds)))
        kinds.add(("transitive", all((a, d) in rel for (a, b) in rel for (c, d) in rel if b == c)))
    assert {("reflexive", False), ("transitive", False)} <= kinds


def test_passing_paths_never_build_a_boolean_fibers_masks(tmp_path, monkeypatch, capsys):
    built, products = [], []
    post_init, product_order = FinPoset.__post_init__, order.product_order

    def kept(self):
        post_init(self)
        built.append(self)

    def recorded(factors):
        got = product_order(factors)
        products.append((list(factors), got))
        return got

    monkeypatch.setattr(FinPoset, "__post_init__", kept)
    monkeypatch.setattr(order, "product_order", recorded)
    monkeypatch.setattr(instances, "product_order", recorded)
    model = tmp_path / "k9.dct"
    model.write_text(NINE_WORLD_MODEL)
    commands = [
        ["check", str(model)],
        ["em", str(model), "--from", "K.box"],
        *(["derive", str(model), "--from", "K.box", kind] for kind in ("--modality", "--comonad", "--adjunction")),
    ]
    for argv in commands:
        assert main(["--json", "--max-size", str(10**15), *argv]) == 0, argv
        assert all(v["pass"] for v in json.loads(capsys.readouterr().out)["verdicts"])
    # a Boolean fiber's values are subsets, or tuples of subsets
    subsets = lambda v: isinstance(v, frozenset) or isinstance(v, tuple) and all(isinstance(x, frozenset) for x in v)
    boolean = [p for p in built if all(map(subsets, p.values))]
    assert max(len(p.elements) for p in boolean) == 2**9
    # a subset's code has one bit per point, where its down-set code would have 2^|subset|
    size = lambda v: len(v) if isinstance(v, frozenset) else sum(map(len, v))
    assert [p for p in boolean if any(c.bit_count() != size(v) for c, v in zip(p.codes, p.values))] == []
    assert [got for factors, got in products if got != _concatenated_codes(factors)] == []
    # a one-key fiber over pw(W) keeps the codes of its powerset, so it builds no product
    full = [p for p in boolean if len(p.elements) == 2**9]
    powersets = [p for p in full if isinstance(p.values[0], frozenset)]
    assert len(full) > len(powersets) > 0 and all(any(p.codes is q.codes for q in powersets) for p in full)
    assert [p for p in built if "relation" in vars(p)] == []
