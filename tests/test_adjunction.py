import random
from dataclasses import dataclass

import pytest

from doctrines import adjunction
from doctrines.adjunction import (
    AdjMorphism,
    DoctrineAdjunction,
    am_functor,
    am_modality,
    base_change_adjunction,
    adj_morphism_violations,
    adjunction_violations,
    factorization_violations,
    factorize,
    factorize2_report,
    factorize2_violations,
    galois_violations,
    identity_adjunction,
    is_vertical,
    left_arrow,
    right_arrow,
    triviality_violations,
    vertical_adjunction,
    vertical_modality,
)
from doctrines.comonad import cmd_of_adjunction
from doctrines.doctrine import Doctrine, TwoArrow, compose_one_arrows, identity_parts, two_arrow_violations
from doctrines.fincat import (
    Functor,
    NatTransformation,
    compose_functors,
    discrete_category,
    fin_functor,
    fin_nat,
    identity_functor,
    identity_nat,
    poset_category,
)
from doctrines.interior import interior_violations, identity_interior, stable_subdoctrine
from doctrines.order import (
    chain_poset,
    compose_maps,
    graph_map,
    identity_map,
    is_identity_map,
    monotone_violations,
    powerset_poset,
    value_map,
)
from doctrines.suite import bundled_adjunctions, random_vertical_adjunction

from util import (
    compose_reference,
    graph_of,
    identity_one_arrow,
    identity_two_arrow,
    lax_inequalities_reference,
    moved_image,
    one_object_monoid_category,
    powerset_doctrine_over,
    same_graph_reference,
)


# AM on 2-cells, identity and composite adjunction morphisms, and the unit
# and counit as 2-arrows: the library builds none of them, these tests check them.
def eta_two_arrow(A: DoctrineAdjunction) -> TwoArrow:
    return TwoArrow(
        identity_one_arrow(A.p),
        compose_one_arrows(right_arrow(A), left_arrow(A)),
        A.eta,
    )


def eps_two_arrow(A: DoctrineAdjunction) -> TwoArrow:
    return TwoArrow(
        compose_one_arrows(left_arrow(A), right_arrow(A)),
        identity_one_arrow(A.q),
        A.eps,
    )


def identity_adj_morphism(A: DoctrineAdjunction) -> AdjMorphism:
    return AdjMorphism(
        A,
        A,
        identity_functor(A.p.base),
        identity_parts(A.p),
        identity_functor(A.q.base),
        identity_parts(A.q),
        identity_nat(A.right),
    )


def compose_adj_morphisms(n: AdjMorphism, m: AdjMorphism) -> AdjMorphism:
    """n∘m for m: A→B, n: B→C."""
    if m.dst != n.src:
        raise ValueError("compose_adj_morphisms: boundary mismatch")
    theta = {}
    for y in m.src.q.base.objects:
        theta[y] = n.dst.p.base.comp(
            n.theta.components[m.fun_q.obj_map[y]],
            n.fun_p.arr_map[m.theta.components[y]],
        )
    return AdjMorphism(
        m.src,
        n.dst,
        compose_functors(n.fun_p, m.fun_p),
        {
            x: compose_maps(n.parts_p[m.fun_p.obj_map[x]], m.parts_p[x])
            for x in m.src.p.base.objects
        },
        compose_functors(n.fun_q, m.fun_q),
        {
            y: compose_maps(n.parts_q[m.fun_q.obj_map[y]], m.parts_q[y])
            for y in m.src.q.base.objects
        },
        NatTransformation(
            compose_functors(compose_functors(n.fun_p, m.fun_p), m.src.right),
            compose_functors(n.dst.right, compose_functors(n.fun_q, m.fun_q)),
            theta,
        ),
    )


@dataclass(frozen=True)
class AdjTwoCell:
    src: AdjMorphism
    dst: AdjMorphism
    alpha: TwoArrow  # between the p-side 1-arrows
    beta: TwoArrow  # between the q-side 1-arrows


def adj_two_cell_violations(c: AdjTwoCell) -> list[str]:
    out = []
    out.extend("alpha: " + v for v in two_arrow_violations(c.alpha))
    out.extend("beta: " + v for v in two_arrow_violations(c.beta))
    if out:
        return out
    m, n = c.src, c.dst
    B = m.dst
    for x in m.src.p.base.objects:
        if B.left.arr_map[c.alpha.theta.components[x]] != c.beta.theta.components[m.src.left.obj_map[x]]:
            out.append(f"L^B alpha != beta L^A at {x}")
    basePB = B.p.base
    for y in m.src.q.base.objects:
        lhs = basePB.comp(n.theta.components[y], c.alpha.theta.components[m.src.right.obj_map[y]])
        rhs = basePB.comp(B.right.arr_map[c.beta.theta.components[y]], m.theta.components[y])
        if lhs != rhs:
            out.append(f"theta square fails at {y}")
    return out


def am_functor_2cell(c: AdjTwoCell) -> TwoArrow:
    return TwoArrow(am_functor(c.src), am_functor(c.dst), c.alpha.theta)


def test_identity_adjunction_passes():
    d = powerset_doctrine_over({"A": ["a1"], "B": ["b1"]})
    A = identity_adjunction(d)
    assert adjunction_violations(A) == []
    assert is_vertical(A)
    assert two_arrow_violations(eta_two_arrow(A)) == []
    assert two_arrow_violations(eps_two_arrow(A)) == []


def test_identity_vertical_modality_is_identity():
    d = powerset_doctrine_over({"A": ["a1"]})
    op = vertical_modality(identity_adjunction(d))
    assert op == identity_interior(d)


def _galois_failing_adjunction() -> DoctrineAdjunction:
    """One object with the fiber 0 < 1 < 2 on both sides, reindexed along
    the identity by {0↦0, 1↦2, 2↦2}, so P(id) ≠ id; λ = id and ρ = P(id).
    No adjunction scan checks the doctrine laws, and this one passes."""
    base = discrete_category(["*"])
    fib = chain_poset(["0", "1", "2"])
    up = graph_map(fib, fib, {"0": "0", "1": "2", "2": "2"})
    d = Doctrine(base, {"*": fib}, {"id_*": up})
    return vertical_adjunction(d, d, {"*": identity_map(fib)}, {"*": up})


def test_vertical_modality_refuses_a_pair_that_is_not_galois():
    A = _galois_failing_adjunction()
    assert adjunction_violations(A) == []
    assert galois_violations(A) == ["galois fails at (*,2,1)"]
    # the adjunction scan proves the Galois property on doctrines only
    with pytest.raises(ValueError, match=r"^vertical_modality requires doctrines: p: reindex\(id_\*\) is not the identity; q: "):
        vertical_modality(A)


def test_a_passing_adjunction_scan_has_an_empty_galois_scan():
    # `vertical_modality` relies on this instead of scanning the Galois property
    cases = [random_vertical_adjunction(random.Random(seed)) for seed in range(200)]
    cases += [A for _, A in bundled_adjunctions() if is_vertical(A)]
    assert len(cases) > 200
    for A in cases:
        if not adjunction_violations(A):
            assert galois_violations(A) == []


def test_am_modality_refuses_an_induced_operator_that_is_not_interior():
    # λ∘P(id)∘ρ sends 1 to 2, so axiom T fails though the adjunction scan passes
    A = _galois_failing_adjunction()
    assert adjunction_violations(A) == []
    with pytest.raises(ValueError, match=r"^induced modality is not interior: axiom T fails at \(\*,1\)$"):
        am_modality(A)

def _bad_galois_pair() -> DoctrineAdjunction:
    """λ the identity and ρ constantly {}: only the lax inequalities fail."""
    d = powerset_doctrine_over({"A": ["a1"]})
    fib = d.fibers["A"]
    lam = {"A": identity_map(fib)}
    rho = {"A": graph_map(fib, fib, {l: "{}" for l in fib.elements})}
    return vertical_adjunction(d, d, lam, rho)


def test_bad_galois_pair_tagged_iii():
    out = adjunction_violations(_bad_galois_pair())
    assert out and all(v.startswith("(iii)") for v in out)


def test_adjunction_verdict_repeats_as_a_fresh_list():
    A = _bad_galois_pair()
    first, second = adjunction_violations(A), adjunction_violations(A)
    assert first and first == second and first is not second
    first.append("tampered")
    assert adjunction_violations(A) == second


@pytest.mark.parametrize("build", [am_modality, factorize, cmd_of_adjunction])
def test_construction_on_an_invalid_adjunction_raises_the_same_error_every_time(build):
    A = _bad_galois_pair()
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as raised:
            build(A)
        messages.append(str(raised.value))
    assert messages[0] == messages[1] and messages[0].startswith("invalid adjunction: (iii)")


def test_constructions_are_built_once_per_adjunction(seed=59):
    A = random_vertical_adjunction(random.Random(seed))
    assert am_modality(A) is am_modality(A)
    assert factorize(A) is factorize(A)
    # an equal adjunction built on its own over the same base finds them kept
    B = DoctrineAdjunction(A.p, A.q, A.left, dict(A.lam), A.right, dict(A.rho), A.eta, A.eps)
    assert B == A and am_modality(B) is am_modality(A) and factorize(B) is factorize(A)


def test_is_vertical_reads_the_identity_off_the_tables():
    z2 = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}
    base = one_object_monoid_category("*", ["e", "a"], "e", z2)
    fiber = powerset_poset(["p"])
    d = Doctrine(base, {"*": fiber}, {t: identity_map(fiber) for t in base.arrow_names()})
    A = identity_adjunction(d)
    assert is_vertical(A)
    # an identity functor built on its own, not the shared one, still reads as the identity
    i = Functor(base, base, {"*": "*"}, {"e": "e", "a": "a"})
    assert is_vertical(DoctrineAdjunction(A.p, A.q, i, A.lam, A.right, A.rho, NatTransformation(i, i, {"*": "e"}), A.eps))
    # η with the non-identity component a, and L sending a to e, are not vertical
    assert not is_vertical(DoctrineAdjunction(A.p, A.q, A.left, A.lam, A.right, A.rho, NatTransformation(i, i, {"*": "a"}), A.eps))
    not_identity = Functor(base, base, {"*": "*"}, {"e": "e", "a": "e"})
    assert not is_vertical(DoctrineAdjunction(A.p, A.q, not_identity, A.lam, A.right, A.rho, A.eta, A.eps))


def test_random_vertical_adjunctions_valid_and_galois(seed=11):
    rng = random.Random(seed)
    for _ in range(10):
        A = random_vertical_adjunction(rng)
        assert adjunction_violations(A) == []
        assert galois_violations(A) == []
        op = vertical_modality(A)
        assert interior_violations(op) == []


def _random_vertical_adjunction_reference(rng, max_objects=2, max_ground=4):
    """`random_vertical_adjunction` as the library built it on frozensets:
    fresh powersets and base per sample, λ and ρ computed on values and read
    back through `value_map`, with the same rng calls in the same order."""
    objs = [f"X{i}" for i in range(rng.randint(1, max_objects))]
    base = discrete_category(objs)
    p_fibers, q_fibers, lam, rho = {}, {}, {}, {}
    for x in objs:
        g1 = [f"a{i}" for i in range(rng.randint(1, max_ground))]
        g2 = [f"b{i}" for i in range(rng.randint(1, max_ground))]
        p_fibers[x], q_fibers[x] = powerset_poset(g1), powerset_poset(g2)
        targets = {a: frozenset(rng.sample(g2, rng.randint(0, len(g2)))) for a in g1}
        lam[x] = value_map(p_fibers[x], q_fibers[x], lambda s: frozenset().union(*(targets[a] for a in s)))
        rho[x] = value_map(q_fibers[x], p_fibers[x], lambda b: frozenset(a for a in g1 if targets[a] <= b))
    P = Doctrine(base, p_fibers, {base.id(x): identity_map(p_fibers[x]) for x in objs})
    Q = Doctrine(base, q_fibers, {base.id(x): identity_map(q_fibers[x]) for x in objs})
    return vertical_adjunction(P, Q, lam, rho)


def test_code_built_random_vertical_adjunctions_equal_the_frozenset_reference():
    for seed in range(200):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            A, want = random_vertical_adjunction(rng), _random_vertical_adjunction_reference(ref_rng)
            assert A.lam == want.lam and A.rho == want.rho
            assert A == want
        # both drew the same numbers, so the next sample starts alike too
        assert rng.getstate() == ref_rng.getstate()


def test_vertical_and_am_modality_agree_on_verticals(seed=5):
    rng = random.Random(seed)
    for _ in range(10):
        A = random_vertical_adjunction(rng)
        doc, op = am_modality(A)
        assert doc == A.q
        assert op == vertical_modality(A)


def _rounding_base_adjunction():
    big = poset_category(chain_poset(["0", "1", "2"]))
    small = poset_category(chain_poset(["0", "2"]))
    up = {"0": "0", "1": "2", "2": "2"}
    L = fin_functor(big, small, up, {a: f"{up[big.src(a)]}<={up[big.dst(a)]}" for a in big.arrow_names()})
    R = fin_functor(small, big, {"0": "0", "2": "2"}, {a: a for a in small.arrow_names()})
    eta = fin_nat(identity_functor(big), compose_functors(R, L), {x: f"{x}<={up[x]}" for x in big.objects})
    eps = fin_nat(compose_functors(L, R), identity_functor(small), {x: f"{x}<={x}" for x in small.objects})
    return big, small, L, R, eta, eps


def _doctrine_over_small(small):
    f0 = powerset_poset(["p"])
    f2 = powerset_poset(["p", "q"])
    fibers = {"0": f0, "2": f2}
    reindex = {
        small.id("0"): identity_map(f0),
        small.id("2"): identity_map(f2),
        "0<=2": graph_map(f2, f0, {"{}": "{}", "{p}": "{p}", "{q}": "{}", "{p,q}": "{p}"}),
    }
    return Doctrine(small, fibers, reindex)


def test_base_change_adjunction_rounding_instance():
    big, small, L, R, eta, eps = _rounding_base_adjunction()
    Q = _doctrine_over_small(small)
    A = base_change_adjunction(Q, L, R, eta, eps)
    assert adjunction_violations(A) == []
    assert not is_vertical(A)
    doc, op = am_modality(A)
    # the base-change adjunction never contributes modality content
    assert op == identity_interior(doc)


def test_base_change_adjunction_leaves_an_invalid_base_adjunction_to_its_verdict():
    # unchecked, like vertical_adjunction: the "(i)" part of the adjunction scan names the fault
    big, small, L, R, eta, eps = _rounding_base_adjunction()
    no_unit = NatTransformation(identity_functor(big), identity_functor(big), big.identities)
    A = base_change_adjunction(_doctrine_over_small(small), L, R, no_unit, eps)
    assert adjunction_violations(A) == ["(i) eta has wrong boundary (expected Id => RL)"]


def test_factorize_base_change_has_identity_vertical_part():
    big, small, L, R, eta, eps = _rounding_base_adjunction()
    Q = _doctrine_over_small(small)
    A = base_change_adjunction(Q, L, R, eta, eps)
    vert, bc = factorize(A)
    assert adjunction_violations(vert) == []
    assert adjunction_violations(bc) == []
    assert vert == identity_adjunction(vert.p)
    assert factorization_violations(A) == []


def test_factorize_vertical_has_identity_base_change_part(seed=3):
    A = random_vertical_adjunction(random.Random(seed))
    vert, bc = factorize(A)
    assert adjunction_violations(vert) == []
    assert adjunction_violations(bc) == []
    assert bc == identity_adjunction(A.q)
    assert factorization_violations(A) == []


def test_factorize_composites_on_rounding_and_random(seed=17):
    rng = random.Random(seed)
    for _ in range(5):
        A = random_vertical_adjunction(rng)
        assert factorization_violations(A) == []


def test_triviality_violations_identity():
    d = powerset_doctrine_over({"A": ["a1"]})
    A = identity_adjunction(d)
    assert triviality_violations(A) == []
    for x in d.base.objects:
        assert is_identity_map(A.lam[x], d.fibers[x], A.rho[x]) and is_identity_map(A.rho[x], d.fibers[x], A.lam[x])


def test_triviality_violations_random(seed=23):
    rng = random.Random(seed)
    for _ in range(15):
        assert triviality_violations(random_vertical_adjunction(rng)) == []


def test_triviality_rejects_non_adjoint_pair():
    d = powerset_doctrine_over({"A": ["a1"]})
    fib = d.fibers["A"]
    lam = {"A": identity_map(fib)}
    rho = {"A": graph_map(fib, fib, {l: "{}" for l in fib.elements})}
    A = vertical_adjunction(d, d, lam, rho)
    with pytest.raises(ValueError):
        triviality_violations(A)


def test_factorization_and_triviality_violations_are_empty_on_every_bundled_adjunction():
    for name, A in bundled_adjunctions():
        assert factorization_violations(A) == [], name
        if is_vertical(A):
            assert triviality_violations(A) == [], name


def test_factorization_violations_name_the_object_of_a_planted_vertical_leg(monkeypatch):
    # over a base of its own, so no equal adjunction's kept scan answers
    A = identity_adjunction(powerset_doctrine_over({"A": ["a1"], "B": ["b1", "b2"]}))
    vertical, base_change = factorize(A)
    planted = DoctrineAdjunction(
        vertical.p, vertical.q, vertical.left, {**vertical.lam, "B": moved_image(vertical.lam["B"])},
        vertical.right, vertical.rho, vertical.eta, vertical.eps,
    )
    monkeypatch.setattr(adjunction, "factorize", lambda A: (planted, base_change))
    assert factorization_violations(A) == ["left composite differs from the original left 1-arrow at B"]


def test_triviality_violations_name_the_object_of_a_planted_non_adjoint_pair(monkeypatch):
    # λ the identity, ρ constant at ⊥ on B: there λρλ ≠ λ, and both
    # dichotomies split, as λ is bijective but neither λρ nor ρλ is the
    # identity; on A both maps are identities
    d = powerset_doctrine_over({"A": ["a1"], "B": ["b1", "b2"]})
    lam = {x: identity_map(d.fibers[x]) for x in d.base.objects}
    rho = {**lam, "B": graph_map(d.fibers["B"], d.fibers["B"], {b: "{}" for b in d.fibers["B"].elements})}
    A = vertical_adjunction(d, d, lam, rho)
    with pytest.raises(ValueError, match="invalid adjunction"):
        triviality_violations(A)
    monkeypatch.setattr(adjunction, "adjunction_violations", lambda A: [])
    assert triviality_violations(A) == [
        "lam.rho.lam != lam at B",
        "lam.rho = id is False, rho injective False, lam surjective True at B",
        "rho.lam = id is False, lam injective True, rho surjective False at B",
    ]


def test_factorize2_identity_all_bijections():
    d = powerset_doctrine_over({"A": ["a1"]})
    A = identity_adjunction(d)
    assert factorize2_violations(A) == []
    assert factorize2_report(A) == ({"A": ()}, {"A": ()})


def test_factorize2_random(seed=29):
    rng = random.Random(seed)
    for _ in range(10):
        A = random_vertical_adjunction(rng)
        assert factorize2_violations(A) == []
        # no scan asks for it: the stable subdoctrine keeps the box's fixed points
        op = am_modality(A)[1]
        stable = stable_subdoctrine(op)[0]
        for x in A.p.base.objects:
            box = op.parts[x]
            assert all(box.apply(s) == s for s in stable.fibers[x].elements)


def test_factorize2_on_base_change_instance():
    big, small, L, R, eta, eps = _rounding_base_adjunction()
    Q = _doctrine_over_small(small)
    assert factorize2_violations(base_change_adjunction(Q, L, R, eta, eps)) == []


def test_the_refined_factorization_repeats_the_bottom_squares_of_the_factorization(monkeypatch):
    A = identity_adjunction(powerset_doctrine_over({"A": ["a1"], "B": ["b1", "b2"]}))
    vertical, base_change = factorize(A)
    planted = DoctrineAdjunction(
        vertical.p, vertical.q, vertical.left, {**vertical.lam, "B": moved_image(vertical.lam["B"])},
        vertical.right, vertical.rho, vertical.eta, vertical.eps,
    )
    monkeypatch.setattr(adjunction, "factorize", lambda A: (planted, base_change))
    bottom = ["left composite differs from the original left 1-arrow at B"]
    assert factorization_violations(A) == bottom
    assert bottom[0] in factorize2_violations(A)


def test_the_bottom_squares_and_the_refined_tables_are_scanned_once_per_adjunction(monkeypatch):
    A = random_vertical_adjunction(random.Random(61))
    first = factorization_violations(A), factorize2_report(A)
    monkeypatch.setattr(adjunction, "factorize", None)  # a second scan would call it
    assert (factorization_violations(A), factorize2_report(A)) == first
    assert factorize2_report(A) is first[1]


def test_identity_adj_morphism_and_am_functor(seed=31):
    A = random_vertical_adjunction(random.Random(seed))
    m = identity_adj_morphism(A)
    assert adj_morphism_violations(m) == []
    arrow = am_functor(m)
    assert arrow == identity_one_arrow(am_modality(A)[0])
    from doctrines.interior import modal_one_arrow_violations

    _, op = am_modality(A)
    assert modal_one_arrow_violations(arrow, op, op) == []


def test_am_functor_distributes_over_composition(seed=37):
    A = random_vertical_adjunction(random.Random(seed))
    m = identity_adj_morphism(A)
    n = identity_adj_morphism(A)
    comp = compose_adj_morphisms(n, m)
    assert adj_morphism_violations(comp) == []
    assert am_functor(comp) == compose_one_arrows(am_functor(n), am_functor(m))


def test_broken_theta_names_object(seed=41):
    A = random_vertical_adjunction(random.Random(seed))
    good = identity_adj_morphism(A)
    # replace one theta component with a wrong (non-identity) arrow if one exists
    comps = dict(good.theta.components)
    x = A.q.base.objects[0]
    bad = AdjMorphism(A, A, good.fun_p, good.parts_p, good.fun_q, good.parts_q,
                      fin_nat(good.theta.src, good.theta.dst, comps))
    assert adj_morphism_violations(bad) == []
    # corrupting the eta square: swap parts_p for a non-commuting family
    drop = {
        xx: graph_map(A.p.fibers[xx], A.p.fibers[xx], {l: A.p.fibers[xx].elements[0] for l in A.p.fibers[xx].elements})
        for xx in A.p.base.objects
    }
    harmed = AdjMorphism(A, A, good.fun_p, drop, good.fun_q, good.parts_q, good.theta)
    out = adj_morphism_violations(harmed)
    assert out


def test_identity_two_cell(seed=43):
    A = random_vertical_adjunction(random.Random(seed))
    m = identity_adj_morphism(A)
    cell = AdjTwoCell(m, m, identity_two_arrow(p_arrow_of(m)), identity_two_arrow(q_arrow_of(m)))
    assert adj_two_cell_violations(cell) == []
    two = am_functor_2cell(cell)
    assert two_arrow_violations(two) == []


def p_arrow_of(m):
    from doctrines.adjunction import p_arrow

    return p_arrow(m)


def q_arrow_of(m):
    from doctrines.adjunction import q_arrow

    return q_arrow(m)


def test_vertical_factor_reproduces_the_modality(seed=53):
    rng = random.Random(seed)
    for _ in range(5):
        A = random_vertical_adjunction(rng)
        vert, _ = factorize(A)
        assert vertical_modality(vert) == am_modality(A)[1]


def _with_fiber_value(A, side, x, a, value):
    """A with λ_x (side "lam") or ρ_x (side "rho") sending a to value."""
    maps = dict(getattr(A, side))
    m = maps[x]
    maps[x] = graph_map(m.src, m.dst, {**graph_of(m), a: value})
    lam, rho = (maps, A.rho) if side == "lam" else (A.lam, maps)
    return DoctrineAdjunction(A.p, A.q, A.left, lam, A.right, rho, A.eta, A.eps)


def test_lowered_lambda_value_fails_only_its_eta_inequality():
    # λ(α) ≤ β iff α ≤ ρ(β), so α ≤ ρ(v) fails for every v below λ(α); no
    # other inequality moves, and monotone λ keeps the discrete-base squares
    rng = random.Random(1207)
    planted = 0
    for _ in range(20):
        A = random_vertical_adjunction(rng)
        assert adjunction_violations(A) == lax_inequalities_reference(A) == []
        for x in A.p.base.objects:
            lam, qf = A.lam[x], A.q.fibers[x]
            for a in lam.src.elements:
                for v in qf.elements:
                    B = _with_fiber_value(A, "lam", x, a, v)
                    if v == lam.apply(a) or not qf.leq(v, lam.apply(a)) or monotone_violations(B.lam[x]):
                        continue
                    assert adjunction_violations(B) == lax_inequalities_reference(B) == [
                        f"(iii) eta: lax inequality fails at ({x},{a})"
                    ]
                    planted += 1
    assert planted


def test_adjunction_violations_agree_with_the_reference_on_random_vertical_adjunctions():
    rng = random.Random(2203)
    verdicts = set()
    for _ in range(100):
        A = random_vertical_adjunction(rng)
        if rng.random() < 0.7:
            side = rng.choice(("lam", "rho"))
            x = rng.choice(A.p.base.objects)
            m = getattr(A, side)[x]
            B = _with_fiber_value(A, side, x, rng.choice(m.src.elements), rng.choice(m.dst.elements))
            if not monotone_violations(getattr(B, side)[x]):
                A = B
        got = adjunction_violations(A)
        assert got == lax_inequalities_reference(A)
        verdicts.add(bool(got))
    assert verdicts == {True, False}



def test_planted_q_part_fails_only_the_lambda_coincidence():
    # raising g at a value of λ keeps g monotone above the identity, so the
    # θ inequality ρ ≤ ρ∘g still holds and only g∘λ = λ∘f fails
    rng = random.Random(4409)
    planted = 0
    for _ in range(20):
        A = random_vertical_adjunction(rng)
        m = identity_adj_morphism(A)
        for x in A.q.base.objects:
            q = A.q.fibers[x]
            for b in {A.lam[x].apply(a) for a in A.p.fibers[x].elements}:
                for v in q.elements:
                    part = graph_map(q, q, {**graph_of(m.parts_q[x]), b: v})
                    if v == b or not q.leq(b, v) or monotone_violations(part):
                        continue
                    harmed = AdjMorphism(A, A, m.fun_p, m.parts_p, m.fun_q, {**m.parts_q, x: part}, m.theta)
                    want = [
                        f"lambda coincidence fails at {y}"
                        for y in A.p.base.objects
                        if not same_graph_reference(
                            compose_reference(harmed.parts_q[y], A.lam[y]), compose_reference(A.lam[y], harmed.parts_p[y])
                        )
                    ]
                    assert adj_morphism_violations(harmed) == want == [f"lambda coincidence fails at {x}"]
                    planted += 1
    assert planted
