import random

import pytest

from doctrines.adjunction import adjunction_violations, identity_adjunction, left_arrow
from doctrines.comonad import comonad_violations, em_doctrine, identity_comonad
from doctrines.doctrine import (
    Doctrine,
    OneArrow,
    ProductData,
    TwoArrow,
    base_change,
    doctrine_violations,
    one_arrow_violations,
    two_arrow_violations,
    compose_one_arrows,
    identity_parts,
    power_doctrine,
    square_doctrine,
    sub_doctrine,
)
from doctrines.fincat import (
    FinCategory,
    NatTransformation,
    compose_functors,
    discrete_category,
    full_function_category,
    function_arrow_name,
    identity_functor,
    poset_category,
)
from doctrines.interior import InteriorOp, interior_violations
from doctrines.order import FinPoset, chain_poset, compose_maps, graph_map, identity_map, monotone_violations
from doctrines.suite import (
    bundled_adjunctions,
    bundled_comonads,
    bundled_interior_ops,
    presheaf_restriction_base_change,
    rounding_base_change,
)

from util import (
    covers_by_definition,
    doctrine_violations_reference,
    fin_category,
    graph_of,
    identity_one_arrow,
    identity_two_arrow,
    inverse_image_reference,
    monotone_violations_reference,
    naturality_reference,
    powerset_doctrine_over,
    random_function_category,
)


# Constant doctrines and the composites of 2-arrows, which only these tests use.
def constant_doctrine(base: FinCategory, fiber: FinPoset) -> Doctrine:
    return Doctrine(
        base,
        {x: fiber for x in base.objects},
        {a: identity_map(fiber) for a in base.arrow_names()},
    )


def vertical_compose_two_arrows(z: TwoArrow, t: TwoArrow) -> TwoArrow:
    """Componentwise composite of t: a ⇒ a' and z: a' ⇒ a''."""
    if t.dst != z.src:
        raise ValueError("vertical_compose_two_arrows: middle 1-arrow mismatch")
    D = t.src.dst.base
    theta = NatTransformation(
        t.theta.src,
        z.theta.dst,
        {
            x: D.comp(z.theta.components[x], t.theta.components[x])
            for x in t.src.src.base.objects
        },
    )
    return TwoArrow(t.src, z.dst, theta)


def whisker_arrow_two(b: OneArrow, t: TwoArrow) -> TwoArrow:
    """Left whiskering b·t for b composable after both boundaries of t."""
    theta = NatTransformation(
        compose_functors(b.functor, t.src.functor),
        compose_functors(b.functor, t.dst.functor),
        {x: b.functor.arr_map[t.theta.components[x]] for x in t.src.src.base.objects},
    )
    return TwoArrow(compose_one_arrows(b, t.src), compose_one_arrows(b, t.dst), theta)


def whisker_two_arrow(t: TwoArrow, a: OneArrow) -> TwoArrow:
    """Right whiskering t·a for a composable before both boundaries of t."""
    theta = NatTransformation(
        compose_functors(t.src.functor, a.functor),
        compose_functors(t.dst.functor, a.functor),
        {x: t.theta.components[a.functor.obj_map[x]] for x in a.src.base.objects},
    )
    return TwoArrow(compose_one_arrows(t.src, a), compose_one_arrows(t.dst, a), theta)


SETS3 = {"A": ["a1"], "B": ["b1", "b2"], "C": ["c1", "c2"]}


def test_constant_doctrine_passes():
    base = poset_category(chain_poset(["x", "y"]))
    d = constant_doctrine(base, chain_poset(["0", "1"]))
    assert doctrine_violations(d) == []


def test_powerset_doctrine_passes_law_scan():
    d = powerset_doctrine_over(SETS3)
    assert doctrine_violations(d) == []


def test_corrupted_reindex_names_the_pair():
    d = powerset_doctrine_over({"A": ["a1"], "B": ["b1"], "C": ["c1"]})
    f = next(a for a in d.base.arrow_names() if d.base.src(a) == "A" and d.base.dst(a) == "B")
    g = next(a for a in d.base.arrow_names() if d.base.src(a) == "B" and d.base.dst(a) == "C")
    gf = d.base.comp(g, f)
    # corrupt the composite's table only; the corrupted map stays monotone
    bad = dict(d.reindex)
    m = bad[gf]
    bad[gf] = graph_map(m.src, m.dst, {lbl: "{}" for lbl in m.src.elements})
    harmed = Doctrine(d.base, d.fibers, bad)
    out = doctrine_violations(harmed)
    assert any("contravariance fails" in v and g in v and f in v for v in out)


def test_identity_one_arrow_and_composition_unit():
    d = powerset_doctrine_over(SETS3)
    i = identity_one_arrow(d)
    assert one_arrow_violations(i) == []
    assert compose_one_arrows(i, i) == i


def test_one_arrow_naturality_violation_witnessed():
    d = powerset_doctrine_over({"A": ["a1"], "B": ["b1"]})
    i = identity_one_arrow(d)
    parts = dict(i.parts)
    parts["A"] = graph_map(d.fibers["A"], d.fibers["A"], {"{}": "{}", "{a1}": "{}"})
    broken = OneArrow(d, d, i.functor, parts)
    assert any("naturality fails" in v for v in one_arrow_violations(broken))


def test_a_reindexing_map_with_the_wrong_boundary_is_reported_not_composed():
    # one object, the 2-chain as its fiber, reindexed along id_* by a map of the 3-chain;
    # every law scan reports the square along id_*, none composes it
    base = discrete_category(["*"])
    two = chain_poset(["0", "1"])
    bad = Doctrine(base, {"*": two}, {"id_*": identity_map(chain_poset(["0", "1", "2"]))})
    good = Doctrine(base, {"*": two}, {"id_*": identity_map(two)})
    assert doctrine_violations(bad) == ["reindexing along id_* has wrong boundary"]
    assert one_arrow_violations(identity_one_arrow(bad)) == ["source reindexing along id_* has wrong boundary"]
    into_bad = OneArrow(good, bad, identity_functor(base), identity_parts(good))
    assert one_arrow_violations(into_bad) == ["target reindexing along id_* has wrong boundary"]
    assert comonad_violations(identity_comonad(bad)) == ["(ii) source reindexing along id_* has wrong boundary"]
    assert adjunction_violations(identity_adjunction(bad)) == [
        "(ii) left: source reindexing along id_* has wrong boundary",
        "(ii) right: source reindexing along id_* has wrong boundary",
    ]
    assert interior_violations(InteriorOp(bad, identity_parts(bad))) == ["reindexing along id_* has wrong boundary"]


def test_triple_composition_associativity_table_equality():
    d = powerset_doctrine_over(SETS3)
    sq, diag = square_doctrine(d)
    sq2, diag2 = square_doctrine(sq)
    left = compose_one_arrows(diag2, diag)
    # associativity on a triple: ((diag2∘diag)∘id) = (diag2∘(diag∘id))
    i = identity_one_arrow(d)
    assert compose_one_arrows(compose_one_arrows(diag2, diag), i) == compose_one_arrows(
        diag2, compose_one_arrows(diag, i)
    )
    assert one_arrow_violations(left) == []


def test_identity_two_arrow_and_vertical_composition():
    d = powerset_doctrine_over({"A": ["a1"], "B": ["b1"]})
    i = identity_one_arrow(d)
    t = identity_two_arrow(i)
    assert two_arrow_violations(t) == []
    tt = vertical_compose_two_arrows(t, t)
    assert two_arrow_violations(tt) == []


def test_two_arrow_mismatched_middle_rejected():
    d = powerset_doctrine_over({"A": ["a1"]})
    sq, diag = square_doctrine(d)
    t = identity_two_arrow(identity_one_arrow(d))
    z = identity_two_arrow(diag)
    with pytest.raises(ValueError):
        vertical_compose_two_arrows(z, t)


def test_two_arrow_lax_violation_witnessed():
    # on a one-object base, compare the identity with a strictly smaller map
    d = powerset_doctrine_over({"A": ["a1"]})
    i = identity_one_arrow(d)
    drop = OneArrow(
        d, d, i.functor,
        {"A": graph_map(d.fibers["A"], d.fibers["A"], {"{}": "{}", "{a1}": "{}"})},
    )
    # drop ≤ id holds; id ≤ drop fails at {a1}
    ok = TwoArrow(drop, i, identity_two_arrow(i).theta)
    assert two_arrow_violations(ok) == []
    bad = TwoArrow(i, drop, identity_two_arrow(i).theta)
    out = two_arrow_violations(bad)
    assert any("(A,{a1})" in v for v in out)


def test_whiskering_preserves_two_arrow_validity():
    d = powerset_doctrine_over({"A": ["a1"], "B": ["b1"]})
    i = identity_one_arrow(d)
    drop = OneArrow(
        d, d, i.functor,
        {
            "A": graph_map(d.fibers["A"], d.fibers["A"], {"{}": "{}", "{a1}": "{}"}),
            "B": graph_map(d.fibers["B"], d.fibers["B"], {"{}": "{}", "{b1}": "{}"}),
        },
    )
    t = TwoArrow(drop, i, identity_two_arrow(i).theta)
    assert two_arrow_violations(whisker_arrow_two(i, t)) == []
    assert two_arrow_violations(whisker_two_arrow(t, i)) == []


def test_square_doctrine_fiber_sizes_and_diagonal():
    d = powerset_doctrine_over({"A": ["a1"]})
    sq, diag = square_doctrine(d)
    assert doctrine_violations(sq) == []
    assert len(sq.fibers["A"].elements) == 4
    assert one_arrow_violations(diag) == []
    assert diag.parts["A"].apply("{a1}") == "({a1}|{a1})"


def test_square_of_one_point_fibers_is_isomorphic_to_p():
    base = poset_category(chain_poset(["x"]))
    d = constant_doctrine(base, chain_poset(["*"]))
    sq, _ = square_doctrine(d)
    assert len(sq.fibers["x"].elements) == 1


def _product_fragment():
    # Y = {y}, X = {0,1}, chosen product carriers as pair labels
    sets = {
        "Y": ["y"],
        "X": ["0", "1"],
        "YxX": ["y*0", "y*1"],
    }
    return dict(sets), full_function_category(sets)


def test_power_doctrine_with_terminal_factor_is_identity():
    sets = {"Y": ["y", "z"], "One": ["*"]}
    d = powerset_doctrine_over(sets)
    # chosen product of anything with the terminal object is the object itself
    products = {obj: ProductData(obj, d.base.id(obj)) for obj in d.base.objects}
    times = {f: f for f in d.base.arrow_names()}
    powered, weakening = power_doctrine(d, d.base, products, times)
    assert doctrine_violations(powered) == []
    assert powered.fibers == d.fibers
    assert one_arrow_violations(weakening) == []


def test_power_doctrine_powerset_instance():
    base_sets, _ = _product_fragment()
    d = powerset_doctrine_over(base_sets)
    proj1 = function_arrow_name("YxX", "Y", {"y*0": "y", "y*1": "y"}, base_sets["YxX"])
    products = {"Y": ProductData("YxX", proj1)}
    # restrict to the single object Y, where product data is total
    sub = fin_category(
        ["Y"],
        [(a, "Y", "Y") for a in d.base.hom("Y", "Y")],
        {"Y": d.base.id("Y")},
        {(g, f): d.base.comp(g, f) for g in d.base.hom("Y", "Y") for f in d.base.hom("Y", "Y")},
    )
    times = {a: d.base.id("YxX") for a in sub.arrow_names()}
    powered, weakening = power_doctrine(d, sub, products, times)
    assert doctrine_violations(powered) == []
    assert len(powered.fibers["Y"].elements) == 4
    assert one_arrow_violations(weakening) == []


def test_compose_meet_after_diagonal_is_tabled_composite():
    # composing the meet 1-arrow after the diagonal gives the fiberwise
    # composite table; on powerset fibers the composite is the identity
    from doctrines.instances import conjunction_adjunction
    from doctrines.adjunction import left_arrow, right_arrow
    from doctrines.order import compose_maps

    d = powerset_doctrine_over({"A": ["a1", "a2"]})
    adj = conjunction_adjunction(d)
    diag = left_arrow(adj)
    meet = right_arrow(adj)
    comp = compose_one_arrows(meet, diag)
    for x in d.base.objects:
        assert comp.parts[x] == compose_maps(meet.parts[x], diag.parts[x])
        assert graph_of(comp.parts[x]) == {a: a for a in d.fibers[x].elements}


BASE_CHANGES = [rounding_base_change, presheaf_restriction_base_change]


@pytest.mark.parametrize("adjunction", BASE_CHANGES)
def test_base_change_along_the_identity_is_the_doctrine(adjunction):
    A = adjunction()
    for P in (A.p, A.q):
        assert base_change(P, identity_functor(P.base)) == P


@pytest.mark.parametrize("adjunction", BASE_CHANGES)
def test_base_change_composes_and_gives_doctrines(adjunction):
    # L: C → D and R: D → C; P over C and Q over D
    A = adjunction()
    for P, G, F in ((A.q, A.left, A.right), (A.p, A.right, A.left)):
        along_gf = base_change(P, compose_functors(G, F))
        assert base_change(base_change(P, G), F) == along_gf
        assert doctrine_violations(base_change(P, G)) == []
        assert doctrine_violations(along_gf) == []


def test_sub_doctrine_keeping_every_element_is_the_doctrine():
    P = rounding_base_change().q
    sub, inclusion = sub_doctrine(P, {x: range(len(P.fibers[x].elements)) for x in P.base.objects}, "unused {t} {a}")
    assert sub == P
    assert inclusion == OneArrow(P, P, identity_functor(P.base), identity_parts(P))


@pytest.mark.parametrize(
    "leaves",
    ["reindexing along {t} does not preserve stability", "reindexing along {t} leaves the EM fiber at {a}"],
)
def test_sub_doctrine_not_closed_under_reindexing_names_the_first_witness(leaves):
    # over the chain 0 <= 2, reindexing along 0<=2 sends {q} to {}, which is not kept at 0
    P = rounding_base_change().q
    keep = {x: [P.fibers[x].index(a) for a in keep] for x, keep in {"0": ["{p}"], "2": ["{p}", "{q}", "{p,q}"]}.items()}
    with pytest.raises(ValueError) as err:
        sub_doctrine(P, keep, leaves)
    assert str(err.value) == leaves.format(t="0<=2", a="{q}")


def _with_value(d, a, lbl, value):
    """d with the reindexing along a sending lbl to value."""
    reindex = dict(d.reindex)
    m = reindex[a]
    reindex[a] = graph_map(m.src, m.dst, {**graph_of(m), lbl: value})
    return Doctrine(d.base, d.fibers, reindex)


def test_planted_monotone_reindexing_swap_gives_the_literal_contravariance_witnesses():
    d = powerset_doctrine_over({"A": ["a1", "a2"], "B": ["b1", "b2"]})
    ids = set(d.base.identities.values())
    harmed = next(
        h
        for a in d.base.arrow_names()
        if a not in ids
        for lbl in d.reindex[a].src.elements
        for value in d.reindex[a].dst.elements
        if value != d.reindex[a].apply(lbl)
        for h in [_with_value(d, a, lbl, value)]
        if monotone_violations(h.reindex[a]) == []
    )
    got = doctrine_violations(harmed)
    assert got == doctrine_violations_reference(harmed)
    assert got and all(v.startswith("contravariance fails on") for v in got)


def test_doctrine_laws_agree_with_the_literal_scan_on_random_doctrines():
    rng = random.Random(3105)
    verdicts = set()
    for _ in range(60):
        c, sets = random_function_category(rng)
        d = inverse_image_reference(c, sets)
        if rng.random() < 0.6:
            a = rng.choice(c.arrow_names())
            m = d.reindex[a]
            d = _with_value(d, a, rng.choice(m.src.elements), rng.choice(m.dst.elements))
        want = doctrine_violations_reference(d)
        assert doctrine_violations(d) == want
        verdicts.add(bool(want))
    assert verdicts == {True, False}


def test_bundled_doctrines_agree_with_the_literal_scan():
    found = [op.doctrine for _, op in bundled_interior_ops()]
    found += [P for _, A in bundled_adjunctions() for P in (A.p, A.q)]
    found += [em_doctrine(c).em for _, c in bundled_comonads()]
    for d in found:
        assert doctrine_violations(d) == doctrine_violations_reference(d) == []


def test_bundled_fibers_and_fiber_maps_agree_with_the_definitions():
    docs, maps = [], []
    for _, op in bundled_interior_ops():
        docs.append(op.doctrine)
        maps += op.parts.values()
    for _, A in bundled_adjunctions():
        docs += [A.p, A.q]
        maps += [*A.lam.values(), *A.rho.values()]
    for _, c in bundled_comonads():
        docs += [c.p, em_doctrine(c).em]
        maps += c.kappa.values()
    maps += [m for d in docs for m in d.reindex.values()]
    fibers = {id(f): f for d in docs for f in d.fibers.values()}
    for f in fibers.values():
        assert set(f.hasse()) == covers_by_definition(f)
    for m in maps:
        assert monotone_violations(m) == monotone_violations_reference(m) == []


@pytest.mark.parametrize("name", ["quantale-luk3", "base-change-rounding", "ma-topological"])
def test_planted_reindexing_value_fails_only_its_naturality_square(name):
    # P.reindex[t] enters only the square along t, which fails exactly when
    # the fiber map at the source of t tells the new value from the old one
    arrow = left_arrow(dict(bundled_adjunctions())[name])
    P = arrow.src
    assert one_arrow_violations(arrow) == naturality_reference(arrow) == []
    failed = 0
    for t in P.base.arrow_names():
        m, fx = P.reindex[t], arrow.parts[P.base.src(t)]
        for lbl in m.src.elements:
            for value in m.dst.elements:
                planted = _with_value(P, t, lbl, value)
                if value == m.apply(lbl) or monotone_violations(planted.reindex[t]):
                    continue
                a = OneArrow(planted, arrow.dst, arrow.functor, arrow.parts)
                got = one_arrow_violations(a)
                assert got == naturality_reference(a)
                assert got == ([f"naturality fails along {t}"] if fx.apply(value) != fx.apply(m.apply(lbl)) else [])
                failed += bool(got)
    assert failed


def test_naturality_square_off_its_boundary_is_reported_as_the_reference_reports_it():
    arrow = left_arrow(dict(bundled_adjunctions())["base-change-rounding"])
    P = arrow.src
    t = next(t for t in P.base.arrow_names() if P.fibers[P.base.src(t)] != P.fibers[P.base.dst(t)])
    # the reindexing along t: X → Y now lands in the fiber at Y, not at X
    y = P.base.dst(t)
    planted = Doctrine(P.base, P.fibers, {**P.reindex, t: identity_map(P.fibers[y])})
    a = OneArrow(planted, arrow.dst, arrow.functor, arrow.parts)
    want = [f"source reindexing along {t} has wrong boundary"]
    assert one_arrow_violations(a) == naturality_reference(a) == want
