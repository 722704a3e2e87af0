import random
import re

import pytest

from doctrines.comonad import DoctrineComonad, comonad_violations, em_doctrine, mc
from doctrines.doctrine import Doctrine
from doctrines.instances import lukasiewicz3, presheaf_instance, quantale_doctrine
from doctrines.fincat import (
    FinCategory,
    Functor,
    NatTransformation,
    adjunction_cat,
    all_functions,
    category_violations,
    check_category,
    comonad_cat_violations,
    functor_violations,
    nat_violations,
    coalgebra_category,
    compose_functors,
    compose_images,
    concrete_category,
    discrete_category,
    fin_functor,
    fin_nat,
    full_function_category,
    generating_arrows,
    identity_functor,
    identity_nat,
    is_identity_functor,
    poset_category,
    same_functor_composite,
)
from doctrines.order import chain_poset, fin_poset, identity_map, powerset_poset
from doctrines.suite import bundled_adjunctions, bundled_comonads, bundled_interior_ops, two_chain_presheaves

from util import (
    category_violations_reference,
    closure,
    composition_table,
    fin_category,
    function_category_reference,
    function_graph,
    functor_violations_reference,
    hom_sizes_by_closure,
    one_object_monoid_category,
    payload_graph,
    payload_search_reference,
    presheaf_base_reference,
    random_chain_presheaves,
    random_function_category,
)


# Constant functors and whiskering, which only these tests use.
def constant_functor(C: FinCategory, D: FinCategory, obj: str) -> Functor:
    return Functor(C, D, {x: obj for x in C.objects}, {a: D.id(obj) for a in C.arrow_names()})


def whisker_functor_nat(H: Functor, t: NatTransformation) -> NatTransformation:
    """H·t : H∘F ⇒ H∘G, components H(t_X)."""
    return NatTransformation(
        compose_functors(H, t.src),
        compose_functors(H, t.dst),
        {x: H.arr_map[t.components[x]] for x in t.src.src.objects},
    )


def whisker_nat_functor(t: NatTransformation, H: Functor) -> NatTransformation:
    """t·H : F∘H ⇒ G∘H, components t_{H X}."""
    return NatTransformation(
        compose_functors(t.src, H),
        compose_functors(t.dst, H),
        {x: t.components[H.obj_map[x]] for x in H.src.objects},
    )


def test_discrete_category_valid():
    got = check_category(*_parts(discrete_category(["a", "b"])))
    assert isinstance(got, FinCategory)


def _parts(c):
    return c.objects, c.arrows, c.identities, composition_table(c)


def test_z2_monoid_category():
    table = {
        ("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e",
    }
    c = one_object_monoid_category("*", ["e", "a"], "e", table)
    # 8 composable triples, all associative by construction
    triples = [
        (h, g, f)
        for h in c.arrow_names()
        for g in c.arrow_names()
        for f in c.arrow_names()
    ]
    assert len(triples) == 8
    got = check_category(*_parts(c))
    assert isinstance(got, FinCategory)


Z2 = (["e", "a"], {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"})
# e, a nilpotent n with n∘n = z, and z absorbing; commutative
NILPOTENT = (
    ["e", "n", "z"],
    {("e", x): x for x in "enz"} | {(x, "e"): x for x in "nz"} | {(x, y): "z" for x in "nz" for y in "nz"},
)


def _planted_comonad(monoid, k_arrows, mu, nu):
    """⟨K, μ, ν⟩ on a one-object monoid category with the given components,
    built by `fin_functor` and `fin_nat`, so K is a functor and μ, ν are
    natural; and the same triple on the doctrine with one point per object."""
    elements, table = monoid
    C = one_object_monoid_category("*", elements, "e", table)
    K = fin_functor(C, C, {"*": "*"}, k_arrows)
    mu = fin_nat(K, compose_functors(K, K), {"*": mu})
    nu = fin_nat(K, identity_functor(C), {"*": nu})
    point = chain_poset(["t"])
    P = Doctrine(C, {"*": point}, {f: identity_map(point) for f in elements})
    return (K, mu, nu), DoctrineComonad(P, K, {"*": identity_map(point)}, mu, nu)


COUNIT = ["counit law (K nu) mu = id fails at *", "counit law (nu K) mu = id fails at *"]


@pytest.mark.parametrize(
    ("mu", "nu", "want"),
    [("e", "e", []), ("e", "a", COUNIT), ("a", "e", COUNIT)],
    ids=["identity", "wrong nu", "wrong mu"],
)
def test_a_wrong_counit_or_comultiplication_on_z2_fails_the_counit_laws(mu, nu, want):
    # Z2 is commutative, so every component is natural; with K = Id the
    # counit laws read ν∘μ = e, and coassociativity μ∘μ = μ∘μ always holds
    triple, c = _planted_comonad(Z2, {"e": "e", "a": "a"}, mu, nu)
    assert comonad_cat_violations(*triple) == want
    assert comonad_violations(c) == ["(i) " + v for v in want]


def test_a_wrong_comultiplication_on_a_nilpotent_monoid_fails_coassociativity():
    # K sends every arrow to e, so μ = n is natural, and ν = z is natural since
    # z absorbs; K(μ)∘μ = n while μ∘μ = z, and K(ν)∘μ = n, ν∘μ = z
    triple, c = _planted_comonad(NILPOTENT, {"e": "e", "n": "e", "z": "e"}, "n", "z")
    want = [*COUNIT, "coassociativity fails at *"]
    assert comonad_cat_violations(*triple) == want
    assert comonad_violations(c) == ["(i) " + v for v in want]
    # the comonad scan is the one check of the K-laws before the coalgebras are built
    with pytest.raises(ValueError, match="^" + re.escape("invalid comonad: " + "; ".join("(i) " + v for v in want)) + "$"):
        em_doctrine(c)


def test_planted_associativity_failure_reports_the_triple():
    # identity laws hold but b∘(a∘b) = e while (b∘a)∘b = b
    arrows = [("e", "*", "*"), ("a", "*", "*"), ("b", "*", "*")]
    table = {("e", x): x for x in ("e", "a", "b")}
    table.update({(x, "e"): x for x in ("a", "b")})
    table.update({("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "a", ("b", "b"): "e"})
    got = check_category(["*"], arrows, {"*": "e"}, table)
    assert isinstance(got, list)
    assert any("associativity fails on" in v and "a" in v and "b" in v for v in got)


def test_poset_category_and_hom_sizes():
    c = poset_category(chain_poset(["x", "y", "z"]))
    got = check_category(*_parts(c))
    assert isinstance(got, FinCategory)
    sizes = hom_sizes_by_closure(c)
    for a in c.objects:
        for b in c.objects:
            assert sizes.get((a, b), 0) == len(c.hom(a, b))


def test_function_enumeration_in_product_order_with_empty_edge_cases():
    assert list(all_functions([], [])) == [{}]
    assert list(all_functions([], ["x"])) == [{}]
    assert list(all_functions(["a"], [])) == []
    assert list(all_functions(["a", "b"], ["x", "y"])) == [
        {"a": "x", "b": "x"},
        {"a": "x", "b": "y"},
        {"a": "y", "b": "x"},
        {"a": "y", "b": "y"},
    ]


def test_full_function_category_laws_and_graphs():
    sets = {"A": ["a1", "a2"], "B": ["b1"]}
    c = full_function_category(sets)
    got = check_category(*_parts(c))
    assert isinstance(got, FinCategory)
    assert len(c.hom("A", "A")) == 4
    assert len(c.hom("A", "B")) == 1
    assert len(c.hom("B", "A")) == 2
    for n in c.arrow_names():
        g = payload_graph(sets, c, n)
        assert set(g) == set(sets[c.src(n)])
        assert function_graph(n) == dict(g)


def test_identity_and_constant_functor():
    c = poset_category(chain_poset(["x", "y"]))
    assert functor_violations(identity_functor(c)) == []
    assert functor_violations(constant_functor(c, c, "y")) == []


def test_broken_functor_reports_witness():
    c = poset_category(chain_poset(["x", "y"]))
    d = discrete_category(["x", "y"])
    F = Functor(c, d, {"x": "x", "y": "y"}, {a: d.id(c.src(a)) for a in c.arrow_names()})
    bad = functor_violations(F)
    assert any("boundary not preserved" in v for v in bad)


def test_functor_verdict_repeats_as_a_fresh_list_and_identity_functors_are_shared():
    c = poset_category(chain_poset(["x", "y"]))
    d = discrete_category(["x", "y"])
    F = Functor(c, d, {"x": "x", "y": "y"}, {a: d.id(c.src(a)) for a in c.arrow_names()})
    first, second = functor_violations(F), functor_violations(F)
    assert first and first == second and first is not second
    first.append("tampered")
    assert functor_violations(F) == second
    assert identity_functor(c) is identity_functor(c)
    assert identity_functor(c) == Functor(c, c, {x: x for x in c.objects}, {a: a for a in c.arrow_names()})
    twin = poset_category(chain_poset(["x", "y"]))
    assert identity_functor(twin) is not identity_functor(c) and identity_functor(twin) == identity_functor(c)


def test_identity_nat_and_whiskering():
    c = poset_category(chain_poset(["x", "y"]))
    F = identity_functor(c)
    t = identity_nat(F)
    assert nat_violations(t) == []
    G = constant_functor(c, c, "y")
    # components x ↦ the unique arrow x→y give a nat transformation Id ⇒ const_y
    s = fin_nat(F, G, {"x": "x<=y", "y": "y<=y"})
    assert nat_violations(whisker_functor_nat(identity_functor(c), s)) == []
    assert nat_violations(whisker_nat_functor(s, identity_functor(c))) == []


def test_nat_component_swapped_fails():
    c = poset_category(chain_poset(["x", "y"]))
    F = identity_functor(c)
    G = constant_functor(c, c, "y")
    t = NatTransformation(F, G, {"x": "x<=x", "y": "y<=y"})
    assert nat_violations(t) != []


def test_identity_adjunction():
    c = poset_category(chain_poset(["x", "y"]))
    I = identity_functor(c)
    assert adjunction_cat(I, I, identity_nat(I), identity_nat(I)) == []


def test_rounding_adjunction_between_poset_categories():
    # left adjoint to the inclusion {0,2} ↪ {0,1,2}: round up to the subchain
    big = poset_category(chain_poset(["0", "1", "2"]))
    small = poset_category(chain_poset(["0", "2"]))
    inc = fin_functor(
        small, big,
        {"0": "0", "2": "2"},
        {a: a for a in small.arrow_names()},
    )
    up = {"0": "0", "1": "2", "2": "2"}
    L = fin_functor(
        big, small,
        up,
        {a: f"{up[big.src(a)]}<={up[big.dst(a)]}" for a in big.arrow_names()},
    )
    eta = fin_nat(identity_functor(big), compose_functors(inc, L),
                  {x: f"{x}<={up[x]}" for x in big.objects})
    eps = fin_nat(compose_functors(L, inc), identity_functor(small),
                  {x: f"{x}<={x}" for x in small.objects})
    assert adjunction_cat(L, inc, eta, eps) == []


def test_adjunction_with_wrong_eta_reports_object():
    big = poset_category(chain_poset(["0", "1", "2"]))
    I = identity_functor(big)
    eta = NatTransformation(I, I, {"0": "0<=0", "1": "1<=2", "2": "2<=2"})
    eps = identity_nat(I)
    bad = adjunction_cat(I, I, eta, eps)
    assert bad


def _meet_comonad_on_diamond():
    # diamond poset bottom ≤ a,b ≤ top; K = meet with a
    p = fin_poset(["bot", "a", "b", "top"], [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
    c = poset_category(p)
    k = {"bot": "bot", "a": "a", "b": "bot", "top": "a"}
    K = fin_functor(c, c, k, {n: f"{k[c.src(n)]}<={k[c.dst(n)]}" for n in c.arrow_names()})
    mu = fin_nat(K, compose_functors(K, K), {x: f"{k[x]}<={k[x]}" for x in c.objects})
    nu = fin_nat(K, identity_functor(c), {x: f"{k[x]}<={x}" for x in c.objects})
    return c, K, mu, nu


def test_coalgebra_category_identity_comonad():
    c = poset_category(chain_poset(["x", "y"]))
    I = identity_functor(c)
    data = coalgebra_category(I, identity_nat(I), identity_nat(I))
    # only c = id qualifies, so EM ≅ C
    assert len(data.category.objects) == len(c.objects)
    assert functor_violations(data.forgetful) == []


def test_coalgebra_category_meet_comonad():
    c, K, mu, nu = _meet_comonad_on_diamond()
    data = coalgebra_category(K, mu, nu)
    carriers = sorted(data.forgetful.obj_map.values())
    # coalgebras are exactly the objects below a
    assert carriers == ["a", "bot"]
    # forgetful is faithful: injective on hom-sets
    for o1 in data.category.objects:
        for o2 in data.category.objects:
            imgs = [data.forgetful.arr_map[f] for f in data.category.hom(o1, o2)]
            assert len(set(imgs)) == len(imgs)


def test_coalgebra_category_rejects_bad_structure():
    c, K, mu, nu = _meet_comonad_on_diamond()
    data = coalgebra_category(K, mu, nu)
    # b ≤ Kb = bot fails, so b carries no coalgebra
    assert all(data.forgetful.obj_map[o] != "b" for o in data.category.objects)


def test_functor_composition_associative_on_instances():
    c = poset_category(chain_poset(["x", "y"]))
    F = constant_functor(c, c, "y")
    G = identity_functor(c)
    H = constant_functor(c, c, "y")
    assert compose_functors(H, compose_functors(G, F)) == compose_functors(compose_functors(H, G), F)
    assert compose_functors(identity_functor(c), F) == F
    assert compose_functors(F, identity_functor(c)) == F


def _swap_composite(composition, arrows, g, f):
    """The table with g∘f replaced by the next arrow of the same hom-set."""
    ends = {n: (s, d) for (n, s, d) in arrows}
    hom = [n for (n, s, d) in arrows if (s, d) == ends[composition[(g, f)]]]
    table = dict(composition)
    table[(g, f)] = hom[(hom.index(table[(g, f)]) + 1) % len(hom)]
    return table


def _non_identity_pair(c):
    """The first composable pair (g, f) of non-identities whose composite's
    hom-set has another arrow."""
    ids = set(c.identities.values())
    for (g, gs, _) in c.arrows:
        for (f, _, fd) in c.arrows:
            if fd == gs and not {g, f} & ids and len(c.hom(c.src(f), c.dst(g))) > 1:
                return g, f
    raise AssertionError("no such pair")


def test_planted_non_associative_table_gives_the_literal_witnesses():
    c = full_function_category({"A": ["a1", "a2"], "B": ["b1", "b2"]})
    g, f = _non_identity_pair(c)
    table = _swap_composite(composition_table(c), c.arrows, g, f)
    got = category_violations(c.objects, c.arrows, c.identities, table)
    assert got == category_violations_reference(c.objects, c.arrows, c.identities, table)
    assert got and all(v.startswith("associativity fails on") for v in got)


def test_planted_functor_with_one_wrong_composite_image_gives_the_literal_witnesses():
    c = full_function_category({"A": ["a1", "a2"], "B": ["b1", "b2"]})
    g, f = _non_identity_pair(c)
    gf = c.comp(g, f)
    hom = c.hom(c.src(gf), c.dst(gf))
    arr_map = {a: a for a in c.arrow_names()}
    arr_map[gf] = hom[(hom.index(gf) + 1) % len(hom)]
    F = Functor(c, c, {x: x for x in c.objects}, arr_map)
    got = functor_violations(F)
    assert got == functor_violations_reference(F)
    assert got and all(v.startswith("composition not preserved on") for v in got)


def _one_object_table(rng):
    """A random table on one object with the identity laws built in."""
    elements = ["e"] + [f"m{i}" for i in range(rng.randint(1, 3))]
    table = {(x, y): rng.choice(elements) for x in elements for y in elements}
    table.update({("e", x): x for x in elements})
    table.update({(x, "e"): x for x in elements})
    return ["*"], [(x, "*", "*") for x in elements], {"*": "e"}, table


def test_category_laws_agree_with_the_literal_scan_on_random_tables():
    rng = random.Random(20211)
    verdicts = set()
    for _ in range(150):
        if rng.random() < 0.5:
            table = _one_object_table(rng)
        else:
            c, _ = random_function_category(rng)
            table = _parts(c)
            if rng.random() < 0.6:
                g, f = rng.choice([(g, f) for (g, gs, _) in c.arrows for (f, _, fd) in c.arrows if fd == gs])
                table = table[:3] + (_swap_composite(table[3], c.arrows, g, f),)
        want = category_violations_reference(*table)
        assert category_violations(*table) == want
        verdicts.add(bool(want))
    assert verdicts == {True, False}


def test_functor_laws_agree_with_the_literal_scan_on_random_functors():
    rng = random.Random(1407)
    verdicts = set()
    for _ in range(60):
        c, _ = random_function_category(rng)
        arr_map = {a: a for a in c.arrow_names()}
        for _ in range(rng.randint(0, 2)):
            a = rng.choice(c.arrow_names())
            arr_map[a] = rng.choice(c.hom(c.src(a), c.dst(a)))
        F = Functor(c, c, {x: x for x in c.objects}, arr_map)
        want = functor_violations_reference(F)
        assert functor_violations(F) == want
        verdicts.add(bool(want))
    assert verdicts == {True, False}


def test_bundled_functors_agree_with_the_literal_scan():
    functors = [em_doctrine(c).coalgebras.forgetful for _, c in bundled_comonads()]
    for _, A in bundled_adjunctions():
        functors += [A.left, A.right]
    for F in functors:
        assert functor_violations(F) == functor_violations_reference(F) == []


def _bundled_categories():
    found = [op.doctrine.base for _, op in bundled_interior_ops()]
    found += [A.p.base for _, A in bundled_adjunctions()] + [A.q.base for _, A in bundled_adjunctions()]
    found += [em_doctrine(c).coalgebras.category for _, c in bundled_comonads()]
    found.append(poset_category(powerset_poset(["p", "q", "r"])))
    found.append(full_function_category({x: [f"{x}{i}" for i in range(3)] for x in "ABC"}))
    return found


def test_generators_generate_every_arrow():
    rng = random.Random(77)
    cats = _bundled_categories() + [random_function_category(rng)[0] for _ in range(40)]
    posets = functions = coalgebras = 0
    for c in cats:
        table = composition_table(c)
        walk = list(c.arrows)
        if all(n == f"{s}<={d}" for n, s, d in c.arrows):
            # a poset category walks its identities, then its covers (the
            # arrows that are no composite of two others), then the rest
            posets += 1
            ids = set(c.identities.values())
            composites = {table[g, f] for g, f in table if g not in ids and f not in ids}
            walk.sort(key=lambda a: 0 if a[0] in ids else 1 if a[0] not in composites else 2)
        elif c.compose is compose_images:
            # a `full_function_category` walks by decreasing image size,
            # declared order within a size
            functions += 1
            walk.sort(key=lambda a: -len(set(c.payload[a[0]])))
        elif isinstance(getattr(c.compose, "__self__", None), FinCategory):
            # a coalgebra category, composed as its base arrows, walks the
            # arrows over the base's generators first, in their order
            coalgebras += 1
            first = {g: i for i, g in enumerate(c.compose.__self__.generators)}
            walk.sort(key=lambda a: first.get(c.payload[a[0]], len(first)))
        assert c.generators == generating_arrows(walk, table.__getitem__)
        assert closure(c.arrows, table, c.generators) == set(c.arrow_names())
    assert posets >= 2 and functions >= 2 and coalgebras >= 2


def test_a_poset_category_walks_identities_then_covers_and_keeps_its_declared_arrows():
    chain = chain_poset([f"w{i}" for i in range(12)])
    c = poset_category(chain)
    els = chain.elements
    assert c.arrows == tuple((f"{a}<={b}", a, b) for i, a in enumerate(els) for b in els[i:])
    assert c.generators == tuple(f"{a}<={a}" for a in els) + tuple(f"{a}<={b}" for a, b in zip(els, els[1:]))
    # walking the arrows as declared keeps all 78 as generators, and 364 composites
    assert (len(c.arrows), len(c.generators), len(c.composites)) == (78, 23, 144)
    for p in (powerset_poset(["p", "q", "r"]), fin_poset(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])):
        c = poset_category(p)
        covers = {(p.elements[i], p.elements[j]) for i, j in p.hasse()}
        assert {(c.src(g), c.dst(g)) for g in c.generators} == covers | {(x, x) for x in p.elements}
        assert closure(c.arrows, composition_table(c), c.generators) == set(c.arrow_names())


class _CountingDict(dict):
    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_associativity_is_certified_on_generators_without_the_literal_scan():
    c = full_function_category({x: [f"{x}{i}" for i in range(3)] for x in "ABC"})
    table = composition_table(c)
    # Light's test walks the arrows as the table declares them, not in the
    # category's own walk order, so G counts the generators that walk finds
    G = len(generating_arrows(list(c.arrows), table.__getitem__))
    table = _CountingDict(table)
    assert category_violations(c.objects, c.arrows, c.identities, table) == []
    A, hom_in = len(c.arrows), len(c.arrows) // len(c.objects)
    # boundaries, identity laws, the search for G (each reached arrow times
    # each generator), then 1 + 2·|in| per (generator, f) plus |in| per generator
    bound = A * hom_in + 2 * A + A * G + G * hom_in * (2 + 2 * hom_in)
    literal = 4 * A * hom_in**2
    assert A == 243 and G < 40
    assert table.lookups <= bound < literal // 5


@pytest.mark.parametrize("points, declared, walked", [(4, (36, 9216), (5, 1280)), (5, (156, 487500), (6, 18750))])
def test_a_function_category_walks_by_decreasing_image_size(points, declared, walked):
    # the identity, the points − 1 adjacent transpositions and one idempotent
    # of rank points − 1 generate every function of one carrier (Howie 1995);
    # the declared order keeps every function no earlier one reaches
    sets = {"X": [f"x{i}" for i in range(points)]}
    c = full_function_category(sets)
    assert (len(c.generators), len(c.composites)) == walked
    assert [len(set(c.payload[g])) for g in c.generators] == [points] * points + [points - 1]
    key = {n: c.payload[n] for n in c.arrow_names()}
    declared_walk = concrete_category(["X"], c.arrows, key, {"X": tuple(range(points))}, compose_images, c.arrows)
    assert (len(declared_walk.generators), len(declared_walk.composites)) == declared
    # every function is a generator after a function already reached
    reached, todo = set(c.generators), list(c.generators)
    while todo:
        x = todo.pop()
        for y in {c.comp(g, x) for g in c.generators} - reached:
            reached.add(y)
            todo.append(y)
    assert reached == set(c.arrow_names())


def test_the_coalgebras_of_a_vertical_comonad_keep_the_base_generators():
    # K is the identity, so each base arrow carries one arrow between the one
    # coalgebra per object, and the walk over the base's generators first
    # keeps them and asks the base for no composite its own walk did not keep
    _, _, bang = quantale_doctrine(lukasiewicz3(), {"X": [f"x{i}" for i in range(4)]})
    base = bang.doctrine.base
    kept = dict(base.composites)
    em = em_doctrine(mc(bang)).coalgebras.category
    assert [em.payload[g] for g in em.generators] == list(base.generators) and len(base.generators) == 5
    assert base.composites == kept and len(em.composites) == 1280


def _tables(F):
    return F.src, F.dst, dict(F.obj_map), dict(F.arr_map)


def test_functor_comparisons_agree_with_built_composites_on_random_endofunctors():
    rng = random.Random(1903)
    seen = set()
    for _ in range(60):
        c, _ = random_function_category(rng)

        def draw():
            """A constant endofunctor, or the identity tables with at most
            one arrow sent elsewhere in its hom-set."""
            if rng.random() < 0.3:
                return constant_functor(c, c, rng.choice(c.objects))
            arr = {a: a for a in c.arrow_names()}
            a = rng.choice(c.arrow_names())
            arr[a] = rng.choice(c.hom(c.src(a), c.dst(a)))
            return Functor(c, c, {x: x for x in c.objects}, arr)

        G, F, G2, F2 = draw(), draw(), draw(), draw()
        composite, other = compose_functors(G, F), compose_functors(G2, F2)
        same = _tables(composite) == _tables(other)
        assert same_functor_composite(G, F, G2, F2) == same
        assert same_functor_composite(G, F, composite)
        assert same_functor_composite(G, F, G2) == (_tables(composite) == _tables(G2))
        assert is_identity_functor(G, c) == (_tables(G) == _tables(identity_functor(c)))
        seen.add((same, is_identity_functor(G, c)))
    assert {s for s, _ in seen} == {True, False} and {i for _, i in seen} == {True, False}


def test_functor_comparison_off_its_boundary_raises_as_composition_does():
    c = poset_category(chain_poset(["x", "y"]))
    d = discrete_category(["x"])
    F = constant_functor(d, c, "x")
    with pytest.raises(ValueError, match="^compose_functors: boundary mismatch$"):
        compose_functors(F, F)
    with pytest.raises(ValueError, match="^compose_functors: boundary mismatch$"):
        same_functor_composite(F, F, F)
    assert not is_identity_functor(F, c) and not is_identity_functor(F, d)


def test_adjunction_with_a_unit_off_its_boundary_names_it():
    big = poset_category(chain_poset(["0", "1", "2"]))
    I = identity_functor(big)
    K = constant_functor(big, big, "2")
    eta = NatTransformation(I, K, {x: f"{x}<=2" for x in big.objects})
    assert adjunction_cat(I, I, eta, identity_nat(I)) == ["eta has wrong boundary (expected Id => RL)"]
    eps = NatTransformation(K, I, {x: f"{x}<=2" for x in big.objects})
    assert adjunction_cat(I, I, identity_nat(I), eps) == ["eps has wrong boundary (expected LR => Id)"]


# concrete_category and its five callers, each against a reference that fills
# the whole table by its own loops and proves the laws by the full scan


def _random_poset(rng):
    n = rng.randint(1, 5)
    names = [f"e{i}" for i in range(n)]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    rng.shuffle(names)
    return fin_poset(names, pairs)


def _assert_lawful(c):
    assert category_violations(*_parts(c)) == []


def test_discrete_and_poset_categories_equal_check_category_tables():
    rng = random.Random(14)
    for _ in range(30):
        p = _random_poset(rng)
        got = discrete_category(p.elements)
        assert got == check_category(
            p.elements,
            [(f"id_{x}", x, x) for x in p.elements],
            {x: f"id_{x}" for x in p.elements},
            {(f"id_{x}", f"id_{x}"): f"id_{x}" for x in p.elements},
        )
        _assert_lawful(got)
        got = poset_category(p)
        arrows = [(f"{a}<={b}", a, b) for a in p.elements for b in p.elements if p.leq(a, b)]
        composition = {(g, f): f"{fs}<={gd}" for (g, gs, gd) in arrows for (f, fs, fd) in arrows if fd == gs}
        want = check_category(p.elements, arrows, {x: f"{x}<={x}" for x in p.elements}, composition)
        assert isinstance(want, FinCategory) and got == want
        _assert_lawful(got)


def test_function_categories_equal_the_reference_loops():
    rng = random.Random(15)
    for _ in range(30):
        want, sets = random_function_category(rng)
        admitted = {(want.src(n), want.dst(n), tuple(function_graph(n).values())) for n in want.arrow_names()}
        got = full_function_category(sets, lambda x, y, g: (x, y, tuple(g.values())) in admitted)
        assert got == want
        assert {n: payload_graph(sets, got, n) for n in got.arrow_names()} == {n: function_graph(n) for n in want.arrow_names()}
        _assert_lawful(got)
        full = full_function_category(sets)
        assert full == function_category_reference(sets, lambda x, y: list(all_functions(sets[x], sets[y])))
        _assert_lawful(full)


def _coalgebra_reference(K, mu, nu):
    """The category of coalgebras by the loops `coalgebra_category` ran before
    it looked composites up: every composable pair named, the laws proved by
    the full scan."""
    C = K.src
    objs, carrier = [], {}
    for x in C.objects:
        for c in C.hom(x, K.obj_map[x]):
            if C.comp(nu.components[x], c) == C.id(x) and C.comp(K.arr_map[c], c) == C.comp(mu.components[x], c):
                objs.append(f"<{x}|{c}>")
                carrier[f"<{x}|{c}>"] = (x, c)
    arrows, base = [], {}
    for o1 in objs:
        for o2 in objs:
            for f in C.hom(carrier[o1][0], carrier[o2][0]):
                if C.comp(carrier[o2][1], f) == C.comp(K.arr_map[f], carrier[o1][1]):
                    arrows.append((f"{o1}=>{o2}:{f}", o1, o2))
                    base[f"{o1}=>{o2}:{f}"] = f
    identities = {o: f"{o}=>{o}:{C.id(carrier[o][0])}" for o in objs}
    composition = {
        (g, f): f"{fs}=>{gd}:{C.comp(base[g], base[f])}" for (g, gs, gd) in arrows for (f, fs, fd) in arrows if fd == gs
    }
    em = fin_category(objs, arrows, identities, composition)
    return em, fin_functor(em, C, {o: carrier[o][0] for o in objs}, base)


def _random_interior_comonad(rng):
    """K = the greatest member of a random set S below each element, on a
    random poset category, when every element has one (else S = everything)."""
    p = _random_poset(rng)
    for _ in range(20):
        keep = [x for x in p.elements if rng.random() < 0.6]
        below = {x: [s for s in keep if p.leq(s, x)] for x in p.elements}
        top = {x: [s for s in below[x] if all(p.leq(t, s) for t in below[x])] for x in p.elements}
        if all(top.values()):
            k = {x: top[x][0] for x in p.elements}
            break
    else:
        k = {x: x for x in p.elements}
    c = poset_category(p)
    K = fin_functor(c, c, k, {t: f"{k[c.src(t)]}<={k[c.dst(t)]}" for t in c.arrow_names()})
    mu = fin_nat(K, compose_functors(K, K), {x: f"{k[x]}<={k[x]}" for x in c.objects})
    nu = fin_nat(K, identity_functor(c), {x: f"{k[x]}<={x}" for x in c.objects})
    return K, mu, nu


def test_coalgebra_categories_equal_the_reference_loops():
    rng = random.Random(16)
    comonads = [(c.k, c.mu, c.nu) for _, c in bundled_comonads()] + [_random_interior_comonad(rng) for _ in range(30)]
    for K, mu, nu in comonads:
        data = coalgebra_category(K, mu, nu)
        em, U = _coalgebra_reference(K, mu, nu)
        assert data.category == em
        assert _tables(data.forgetful) == _tables(U)
        assert functor_violations(data.forgetful) == []
        _assert_lawful(data.category)


def test_concrete_category_rejects_planted_misses():
    sets = {"A": ["a0", "a1", "a2"]}
    rotations = {("a0", "a1", "a2"), ("a1", "a2", "a0")}  # identity and one rotation, not its square
    rotation = "A->A:a0>a1,a1>a2,a2>a0"
    with pytest.raises(ValueError, match="^" + re.escape(f"not a category: composition undefined for ({rotation},{rotation})") + "$"):
        full_function_category(sets, lambda x, y, g: tuple(g.values()) in rotations)
    with pytest.raises(ValueError, match="^not a category: missing identity for A$"):
        full_function_category(sets, lambda x, y, g: len(set(g.values())) == 1)

    def thin(g, f):
        return ()

    with pytest.raises(ValueError, match="^not a category: duplicate arrow names$"):
        concrete_category(["x"], [("i", "x", "x"), ("i", "x", "x")], {"i": ()}, {"x": ()}, thin)
    # a repeated key: j would be looked up as i
    with pytest.raises(ValueError, match="^not a category: arrows i and j share a payload$"):
        concrete_category(["x"], [("i", "x", "x"), ("j", "x", "x")], {"i": (), "j": ()}, {"x": ()}, thin)
    with pytest.raises(ValueError, match="^not a category: arrow i has dangling src/dst; missing identity for x$"):
        concrete_category(["x"], [("i", "x", "y")], {"i": ()}, {"x": ()}, thin)


def _composable_pairs(c):
    return [(g, f) for (g, gs, _) in c.arrows for (f, _, fd) in c.arrows if fd == gs]


def _assert_composites_agree(got, want):
    """got.comp and want.comp agree on every composable pair, asked twice of
    got: once looked up, once kept."""
    pairs = _composable_pairs(got)
    assert pairs and got.arrows == want.arrows
    wanted = [want.comp(g, f) for g, f in pairs]
    assert [got.comp(g, f) for g, f in pairs] == wanted == [got.comp(g, f) for g, f in pairs]


def test_composites_agree_with_the_full_table_references():
    rng = random.Random(30)
    for c in _bundled_categories():
        _assert_composites_agree(c, payload_search_reference(c))
    for _ in range(40):
        want, sets = random_function_category(rng)
        admitted = {(want.src(n), want.dst(n), tuple(function_graph(n).values())) for n in want.arrow_names()}
        _assert_composites_agree(full_function_category(sets, lambda x, y, g: (x, y, tuple(g.values())) in admitted), want)
    comonads = [(c.k, c.mu, c.nu) for _, c in bundled_comonads()] + [_random_interior_comonad(rng) for _ in range(20)]
    for K, mu, nu in comonads:
        _assert_composites_agree(coalgebra_category(K, mu, nu).category, _coalgebra_reference(K, mu, nu)[0])
    for group in [list(two_chain_presheaves())] + [random_chain_presheaves(rng) for _ in range(20)]:
        _assert_composites_agree(presheaf_instance(group)[1].base, presheaf_base_reference(group))


def test_a_built_category_keeps_only_the_composites_of_its_generator_walk():
    # the walk asks for each generator after each arrow into its source, and
    # nothing fills the table of every composable pair
    sets = {x: [f"{x}{i}" for i in range(3)] for x in "ABC"}
    c = full_function_category(sets)
    walked = {(g, f) for g in c.generators for f in c.into[c.src(g)]}
    assert set(c.composites) == walked and len(walked) < len(_composable_pairs(c)) // 5
    g, f = next(pair for pair in _composable_pairs(c) if pair not in walked)
    want = function_category_reference(sets, lambda x, y: list(all_functions(sets[x], sets[y])))
    assert c.comp(g, f) == c.composites[g, f] == want.comp(g, f)
    a_to_b = c.hom("A", "B")[0]
    with pytest.raises(KeyError):
        c.comp(a_to_b, a_to_b)
    assert (a_to_b, a_to_b) not in c.composites


def test_categories_on_one_arrow_set_with_different_composites_differ():
    z2 = one_object_monoid_category("*", Z2[0], "e", Z2[1])
    idempotent = one_object_monoid_category("*", Z2[0], "e", {**Z2[1], ("a", "a"): "a"})
    assert (z2.objects, z2.arrows, z2.identities) == (idempotent.objects, idempotent.arrows, idempotent.identities)
    assert z2 != idempotent and z2 == one_object_monoid_category("*", Z2[0], "e", Z2[1])
