"""The hom searches against the brute-force filters they replaced: the
coalgebra homomorphisms of `temporal_doctrine`, the open continuous maps of
`topological_doctrine` and the part-keeping functions of `fam_doctrine`,
each list equal to the filter's, in the same order, with the states or
points also declared in reverse; and the closure proof of
`concrete_category` on a searched hom list with one composite taken out."""

import random
from itertools import chain, combinations, product

import pytest

from doctrines.fincat import all_functions, full_function_category
from doctrines.instances import FiniteTopSpace, IndexedFamily, _open_continuous_maps, _part_keeping_maps
from doctrines.suite import CHAIN2, FAMILIES, random_coalgebra
from doctrines.temporal import FCoalgebra, _homomorphisms
from util import is_homomorphism, keeps_parts, open_continuous_maps


def images_of(graphs, src, dst) -> list[tuple[int, ...]]:
    """Each graph of `graphs` as the positions in `dst` of the images of `src`."""
    return [tuple(dst.index(g[e]) for e in src) for g in graphs]


def _homomorphisms_reference(c1, c2):
    return images_of([h for h in all_functions(c1.states, c2.states) if is_homomorphism(c1, c2, h)], c1.states, c2.states)


def _reversed_coalgebra(c):
    return FCoalgebra(c.name, c.kind, c.states[::-1], c.step)


def _reversed_space(s):
    return FiniteTopSpace(s.name, s.points[::-1], s.opens)


def _streams(max_states):
    for n in range(1, max_states + 1):
        states = tuple(f"s{i}" for i in range(n))
        for image in product(states, repeat=n):
            yield FCoalgebra("C", "stream", states, dict(zip(states, image)))


def _trees(max_states, max_branching):
    for n in range(1, max_states + 1):
        states = tuple(f"s{i}" for i in range(n))
        tuples = [t for k in range(max_branching + 1) for t in product(states, repeat=k)]
        for image in product(tuples, repeat=n):
            yield FCoalgebra("C", "tree", states, dict(zip(states, image)))


def _topologies(max_points):
    """Every topology on 1 to max_points points: the families of subsets
    that hold the empty set and the whole space and are closed under union
    and intersection."""
    for n in range(1, max_points + 1):
        points = tuple(f"p{i}" for i in range(n))
        subsets = [frozenset(c) for c in chain.from_iterable(combinations(points, k) for k in range(1, n))]
        for k in range(len(subsets) + 1):
            for middle in combinations(subsets, k):
                opens = frozenset({frozenset(), frozenset(points), *middle})
                if all(u | v in opens and u & v in opens for u in opens for v in opens):
                    yield FiniteTopSpace("S", points, opens)


def _random_space(rng, max_points, name):
    """The up-sets of a random preorder on 1 to max_points points: a random
    relation, closed reflexively and transitively."""
    n = rng.randint(1, max_points)
    points = tuple(f"p{i}" for i in range(n))
    up = [1 << i | sum(1 << j for j in range(n) if rng.random() < 0.3) for i in range(n)]
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    opens = frozenset(
        frozenset(p for i, p in enumerate(points) if mask >> i & 1)
        for mask in range(1 << n)
        if all(up[i] & ~mask == 0 for i in range(n) if mask >> i & 1)
    )
    return FiniteTopSpace(name, points, opens)


def _assert_coalgebra_searches_agree(pairs):
    for c1, c2 in pairs:
        assert _homomorphisms(c1, c2) == _homomorphisms_reference(c1, c2)


def _assert_space_searches_agree(pairs):
    for s, t in pairs:
        assert _open_continuous_maps(s, t) == images_of(open_continuous_maps(s, t), s.points, t.points)


def test_the_coalgebra_search_lists_every_small_pair_as_the_filter_does():
    streams, trees = list(_streams(3)), list(_trees(2, 2))
    assert (len(streams), len(trees)) == (32, 52)
    _assert_coalgebra_searches_agree(product(streams, repeat=2))
    _assert_coalgebra_searches_agree(product(trees, repeat=2))


def test_the_coalgebra_search_lists_seeded_pairs_as_the_filter_does_in_either_declaration():
    rng = random.Random(43)
    for kind in ("stream", "tree"):
        for _ in range(300):
            c1, c2 = random_coalgebra(rng, kind, 6, "A"), random_coalgebra(rng, kind, 6, "B")
            if len(c2.states) ** len(c1.states) > 5**5:  # the filter walks them all
                c1 = random_coalgebra(rng, kind, 5, "A")
            _assert_coalgebra_searches_agree([(c1, c2), (_reversed_coalgebra(c1), _reversed_coalgebra(c2))])


def test_the_space_search_lists_every_pair_of_topologies_on_three_points_as_the_filter_does():
    spaces = list(_topologies(3))
    assert len(spaces) == 1 + 4 + 29
    _assert_space_searches_agree(product(spaces, repeat=2))


def test_the_space_search_lists_seeded_pairs_as_the_filter_does_in_either_declaration():
    rng = random.Random(44)
    for _ in range(300):
        s, t = _random_space(rng, 5, "S"), _random_space(rng, 5, "T")
        _assert_space_searches_agree([(s, t), (_reversed_space(s), _reversed_space(t))])


def _random_family(rng, worlds, name):
    carrier = tuple(f"e{i}" for i in range(rng.randint(0, 3)))
    parts = {w: frozenset(e for e in carrier if rng.random() < 0.5) for w in worlds}
    return IndexedFamily(name, carrier, parts)


def test_the_part_keeping_product_lists_what_the_filter_keeps():
    rng = random.Random(45)
    cases = [(s, d, CHAIN2.worlds) for s in FAMILIES for d in FAMILIES]
    for _ in range(100):
        worlds = tuple(f"w{i}" for i in range(rng.randint(1, 3)))
        cases.append((_random_family(rng, worlds, "S"), _random_family(rng, worlds, "D"), worlds))
    for s, d, worlds in cases:
        kept = [g for g in all_functions(s.carrier, d.carrier) if keeps_parts(s, d, worlds, g)]
        assert _part_keeping_maps(s, d, worlds) == images_of(kept, s.carrier, d.carrier)


def test_a_searched_hom_list_missing_a_composite_is_not_a_category():
    # C is a 2-cycle and D a 2-cycle beside a fixed point: C -> D holds the
    # inclusion, the swapped inclusion and the map onto the fixed point
    cycle = FCoalgebra("C", "stream", ("a", "b"), {"a": "b", "b": "a"})
    both = FCoalgebra("D", "stream", ("a", "b", "c"), {"a": "b", "b": "a", "c": "c"})
    sets = {"C": cycle.states, "D": both.states}
    homs = {(x.name, y.name): _homomorphisms(x, y) for x in (cycle, both) for y in (cycle, both)}
    assert homs["C", "D"] == [(0, 1), (1, 0), (2, 2)] and homs["D", "C"] == []
    full_function_category(sets, homs)  # closed as searched
    # without the swapped inclusion, which is the swap of D after the
    # inclusion and the inclusion after the swap of C, the walk names the
    # first of those pairs it composes
    swap_c, swap_d, inclusion = "C->C:a>b,b>a", "D->D:a>b,b>a,c>c", "C->D:a>a,b>b"
    named = [f"not a category: composition undefined for ({g},{f})" for g, f in [(swap_d, inclusion), (inclusion, swap_c)]]
    with pytest.raises(ValueError) as caught:
        full_function_category(sets, {**homs, ("C", "D"): [(0, 1), (2, 2)]})
    assert str(caught.value) in named
