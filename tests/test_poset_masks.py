"""Posets ordered by bit codes, on posets that are not Boolean lattices:
`fin_poset` codes each element by its down-set, and the pointwise, sub- and
product builders agree with the pair-set references; the pair set is built
only by a failing check."""

import json
from itertools import product

from hypothesis import given, settings, strategies as st

from doctrines.cli import main
from doctrines.instances import KripkeFrame, _pointwise_fiber, kripke_doctrine
from doctrines.order import (
    FinPoset,
    close_relation,
    fin_poset,
    graph_map,
    monotone_violations,
    poset_from_pairs,
    powerset_poset,
    product_poset,
    sub_poset,
)
from util import covers_by_definition, down, pointwise_fiber_reference


def _is_linear_extension(declared, pairs):
    rank = {e: r for r, e in enumerate(declared)}
    return all(rank[i] < rank[j] for i, j in pairs)


@st.composite
def shuffled_posets(draw, prefix="e", max_size=4):
    """A random poset with at least one strict pair, its elements declared in
    an order that is not a linear extension of it."""
    n = draw(st.integers(2, max_size))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(lambda p: p[0] < p[1]),
            min_size=1,
            max_size=5,
        )
    )
    declared = draw(st.permutations(range(n)))
    if _is_linear_extension(declared, pairs):
        declared = declared[::-1]
    labels = [f"{prefix}{i}" for i in range(n)]
    return fin_poset([labels[i] for i in declared], [(labels[i], labels[j]) for i, j in pairs])


def _same_order(got, want):
    assert got.elements == want.elements
    assert got.relation == want.relation
    assert sorted(got.hasse()) == sorted(want.hasse())
    assert set(got.hasse()) == covers_by_definition(want)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(p=shuffled_posets(max_size=5))
def test_masks_encode_the_closed_relation(p):
    rank = {e: r for r, e in enumerate(p.elements)}
    assert any(rank[a] > rank[b] for (a, b) in p.relation)
    assert p.relation == close_relation(p.elements, p.relation, "refl-trans")
    assert poset_from_pairs(p.elements, p.relation) == p
    assert p.codes == tuple(sum(1 << j for j, b in enumerate(p.elements) if (b, a) in p.relation) for a in p.elements)
    for a in p.elements:
        assert p.up(a) == tuple(b for b in p.elements if (a, b) in p.relation)
        assert down(p, a) == tuple(b for b in p.elements if (b, a) in p.relation)
        assert [p.leq(a, b) for b in p.elements] == [(a, b) in p.relation for b in p.elements]
    assert not p.leq(p.elements[0], "not an element")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), keys=st.integers(1, 3))
def test_pointwise_fiber_equals_the_pair_set_reference(data, keys):
    factors = [data.draw(shuffled_posets(prefix=f"f{k}_", max_size=4 if keys < 3 else 3)) for k in range(keys)]
    names = [f"k{k}" for k in range(keys)]
    got = _pointwise_fiber(names, factors)
    _same_order(got, pointwise_fiber_reference(names, factors))
    # the factors keep their labels as values, so each value is the assignment itself
    assert got.values == tuple(product(*(f.elements for f in factors)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_sub_poset_equals_the_pair_set_reference(data):
    p = data.draw(shuffled_posets(max_size=6))
    wanted = data.draw(st.lists(st.sampled_from(p.elements), unique=True))
    keep = set(wanted)
    want = poset_from_pairs(
        [e for e in p.elements if e in keep], {(a, b) for (a, b) in p.relation if a in keep and b in keep}
    )
    _same_order(sub_poset(p, map(p.index, wanted)), want)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(p=shuffled_posets(prefix="a"), q=shuffled_posets(prefix="b"))
def test_product_poset_equals_the_pair_set_reference(p, q):
    label = lambda a, b: f"({a}|{b})"
    want = poset_from_pairs(
        [label(a, b) for a in p.elements for b in q.elements],
        {(label(a, b), label(c, d)) for (a, c) in p.relation for (b, d) in q.relation},
    )
    _same_order(product_poset(p, q), want)


NINE_WORLDS = [f"w{i}" for i in range(9)]
NINE_WORLD_MODEL = (
    f"kripke-frame K {{ worlds: {' '.join(NINE_WORLDS)}; "
    f"rel: {' '.join(f'{a}->{b}' for a, b in zip(NINE_WORLDS, NINE_WORLDS[1:]))}; "
    "closure: refl-trans; sets: D=x }\n"
)


def test_passing_paths_never_build_the_pair_set(tmp_path, monkeypatch, capsys):
    built = []
    post_init = FinPoset.__post_init__

    def kept(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(FinPoset, "__post_init__", kept)
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
    assert max(len(p.elements) for p in built) == 2**9
    assert [p for p in built if "relation" in vars(p)] == []


def test_a_planted_non_monotone_map_still_gets_its_literal_witnesses():
    rel = frozenset((a, b) for i, a in enumerate(NINE_WORLDS) for b in NINE_WORLDS[i:])
    doc, _ = kripke_doctrine(KripkeFrame(tuple(NINE_WORLDS), rel), {"D": ["x"]})
    fiber = doc.fibers["D"]
    # one key: the fiber's codes are the worlds' subset bitmasks
    assert fiber.codes == powerset_poset(NINE_WORLDS).codes
    bottom, top = fiber.elements[0], fiber.elements[-1]
    m = graph_map(fiber, fiber, {a: bottom if a == top else a for a in fiber.elements})
    assert "relation" not in vars(fiber)
    want = sorted(f"order not preserved on ({a},{top})" for a in fiber.elements if a not in (bottom, top))
    assert monotone_violations(m) == want
    # the fiber has bit codes; the literal scan walked `up` and built no pair set
    assert "relation" not in vars(fiber)
    assert monotone_violations(graph_map(fiber, fiber, {a: a for a in fiber.elements})) == []
