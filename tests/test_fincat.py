import pytest

from doctrines.fincat import (
    FinCategory,
    Functor,
    NatTransformation,
    adjunction_cat,
    all_functions,
    check_category,
    functor_violations,
    nat_violations,
    coalgebra_category,
    compose_functors,
    constant_functor,
    discrete_category,
    fin_functor,
    fin_nat,
    full_function_category,
    function_graph,
    hom_sizes_by_closure,
    identity_functor,
    identity_nat,
    one_object_monoid_category,
    poset_category,
    whisker_functor_nat,
    whisker_nat_functor,
)
from doctrines.order import chain_poset, fin_poset


def test_discrete_category_valid():
    got = check_category(*_parts(discrete_category(["a", "b"])))
    assert isinstance(got, FinCategory)


def _parts(c):
    return c.objects, c.arrows, c.identities, c.composition


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
    fc = full_function_category({"A": ["a1", "a2"], "B": ["b1"]})
    c = fc.category
    got = check_category(*_parts(c))
    assert isinstance(got, FinCategory)
    assert len(c.hom("A", "A")) == 4
    assert len(c.hom("A", "B")) == 1
    assert len(c.hom("B", "A")) == 2
    for n in c.arrow_names():
        g = fc.graphs[n]
        assert set(g) == set({"A": ["a1", "a2"], "B": ["b1"]}[c.src(n)])
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
    carriers = sorted(data.carrier.values())
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
    assert all(data.carrier[o] != "b" for o in data.category.objects)


def test_functor_composition_associative_on_instances():
    c = poset_category(chain_poset(["x", "y"]))
    F = constant_functor(c, c, "y")
    G = identity_functor(c)
    H = constant_functor(c, c, "y")
    assert compose_functors(H, compose_functors(G, F)) == compose_functors(compose_functors(H, G), F)
    assert compose_functors(identity_functor(c), F) == F
    assert compose_functors(F, identity_functor(c)) == F
