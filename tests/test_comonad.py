import random
from dataclasses import dataclass

import pytest

from doctrines import comonad
from doctrines.adjunction import (
    AdjMorphism,
    DoctrineAdjunction,
    am_modality,
    adjunction_violations,
    identity_adjunction,
    left_arrow,
    vertical_modality,
)
from doctrines.comonad import (
    DoctrineComonad,
    comonad_violations,
    cm_modality,
    cmd_arrow,
    cmd_of_adjunction,
    comparison_arrow,
    em_adjunction,
    em_doctrine,
    em_universal_factor,
    identity_comonad,
    local_adjunction_modal_violations,
    local_adjunction_violations,
    ma,
    ma_em_violations,
    mc,
    modality_comparison_violations,
)
from doctrines.doctrine import (
    Doctrine,
    OneArrow,
    TwoArrow,
    compose_one_arrows,
    one_arrow_violations,
    two_arrow_violations,
    identity_parts,
)
from doctrines.fincat import (
    Functor,
    NatTransformation,
    compose_functors,
    discrete_category,
    fin_functor,
    fin_nat,
    identity_functor,
    identity_nat,
    nat_violations,
    poset_category,
    same_functor_composite,
)
from doctrines.interior import InteriorOp, interior_violations, identity_interior, stable_subdoctrine
from doctrines.order import chain_poset, fin_poset, graph_map, identity_map, label_subset, powerset_poset, subset_label
from doctrines.suite import (
    bundled_adjunctions,
    bundled_comonads,
    bundled_interior_ops,
    bundled_quantale_doctrines,
    identity_powerset_adjunction,
    random_vertical_adjunction,
)

from util import (
    antichain_poset,
    closure_idempotence_reference,
    comparison_landing_reference,
    constant_family_arrow,
    em_fibers_reference,
    em_universal_two_arrow,
    fin_category,
    forgetful_top_arrow,
    graph_of,
    identity_one_arrow,
    identity_two_arrow,
    injective_reference,
    moved_image,
    one_object_monoid_category,
    powerset_doctrine_over,
)


# MC on 1-arrows and 2-cells, and the unit of the comonad/adjunction
# comparison: the library builds none of them, these tests check them.
def unit_comparison_morphism(A: DoctrineAdjunction) -> AdjMorphism:
    """The unit of the comonad/adjunction 2-adjunction at A: the adjunction
    homomorphism from A into the EM adjunction of its induced comonad, built
    from the comparison arrow on the one side and the identity on the other."""
    B = em_adjunction(cmd_of_adjunction(A))
    comp = comparison_arrow(A)
    emcat = B.p.base
    theta = NatTransformation(
        compose_functors(comp.functor, A.right),
        compose_functors(B.right, identity_functor(A.q.base)),
        {
            y: emcat.id(comp.functor.obj_map[A.right.obj_map[y]])
            for y in A.q.base.objects
        },
    )
    return AdjMorphism(
        A,
        B,
        comp.functor,
        dict(comp.parts),
        identity_functor(A.q.base),
        identity_parts(A.q),
        theta,
    )


@dataclass(frozen=True)
class CmdMorphism:
    """A morphism of comonads: a 1-arrow of doctrines plus a 2-cell θ: FK ⇒ JF
    commuting with counits and comultiplications."""

    src: DoctrineComonad
    dst: DoctrineComonad
    arrow: OneArrow
    theta: NatTransformation


def cmd_morphism_violations(m: CmdMorphism) -> list[str]:
    out = []
    if m.arrow.src != m.src.p or m.arrow.dst != m.dst.p:
        return ["arrow boundary mismatch"]
    out.extend("arrow: " + v for v in one_arrow_violations(m.arrow))
    if out:
        return out
    F = m.arrow.functor
    K, J = m.src.k, m.dst.k
    if not same_functor_composite(F, K, m.theta.src) or not same_functor_composite(J, F, m.theta.dst):
        return ["theta has wrong functor boundary"]
    out.extend("theta: " + v for v in nat_violations(m.theta))
    if out:
        return out
    baseB = m.dst.p.base
    for x in m.src.p.base.objects:
        lhs = baseB.comp(m.dst.nu.components[F.obj_map[x]], m.theta.components[x])
        if lhs != F.arr_map[m.src.nu.components[x]]:
            out.append(f"counit diagram fails at {x}")
        lhs = baseB.comp(
            J.arr_map[m.theta.components[x]],
            baseB.comp(m.theta.components[K.obj_map[x]], F.arr_map[m.src.mu.components[x]]),
        )
        rhs = baseB.comp(m.dst.mu.components[F.obj_map[x]], m.theta.components[x])
        if lhs != rhs:
            out.append(f"comultiplication diagram fails at {x}")
    if out:
        return out
    lhs_arrow = compose_one_arrows(m.arrow, cmd_arrow(m.src))
    rhs_arrow = compose_one_arrows(cmd_arrow(m.dst), m.arrow)
    out.extend("theta 2-arrow: " + v for v in two_arrow_violations(TwoArrow(lhs_arrow, rhs_arrow, m.theta)))
    return out


def mc_morphism(arrow: OneArrow, op_src: InteriorOp, op_dst: InteriorOp) -> CmdMorphism:
    """MC on 1-arrows: a modal 1-arrow becomes a comonad morphism with θ = id."""
    theta = NatTransformation(
        compose_functors(arrow.functor, identity_functor(arrow.src.base)),
        compose_functors(identity_functor(arrow.dst.base), arrow.functor),
        {x: arrow.dst.base.id(arrow.functor.obj_map[x]) for x in arrow.src.base.objects},
    )
    return CmdMorphism(mc(op_src), mc(op_dst), arrow, theta)


@dataclass(frozen=True)
class CmdTwoCell:
    src: CmdMorphism
    dst: CmdMorphism
    alpha: TwoArrow


def cmd_two_cell_violations(c: CmdTwoCell) -> list[str]:
    out = list("alpha: " + v for v in two_arrow_violations(c.alpha))
    if out:
        return out
    m, n = c.src, c.dst
    if c.alpha.src != m.arrow or c.alpha.dst != n.arrow:
        return ["alpha does not connect the two morphism arrows"]
    baseB = m.dst.p.base
    J, K = m.dst.k, m.src.k
    for x in m.src.p.base.objects:
        lhs = baseB.comp(J.arr_map[c.alpha.theta.components[x]], m.theta.components[x])
        rhs = baseB.comp(n.theta.components[x], c.alpha.theta.components[K.obj_map[x]])
        if lhs != rhs:
            out.append(f"two-cell square fails at {x}")
    return out


def diamond_comonad():
    """Meet-with-`a` comonad on the diamond poset, with a fiber family that
    prunes down to the `q`-component; EM fibers come out as proper suborders."""
    p = fin_poset(["bot", "a", "b", "top"], [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
    base = poset_category(p)
    attach = {"bot": ["p"], "a": ["p", "q"], "b": ["p", "r"], "top": ["p", "q", "r"]}
    fibers = {x: powerset_poset(attach[x]) for x in base.objects}
    reindex = {}
    for t in base.arrow_names():
        x, y = base.src(t), base.dst(t)
        reindex[t] = graph_map(
            fibers[y],
            fibers[x],
            {
                lbl: subset_label(label_subset(lbl) & set(attach[x]), attach[x])
                for lbl in fibers[y].elements
            },
        )
    doc = Doctrine(base, fibers, reindex)
    k = {"bot": "bot", "a": "a", "b": "bot", "top": "a"}
    K = fin_functor(base, base, k, {t: f"{k[base.src(t)]}<={k[base.dst(t)]}" for t in base.arrow_names()})
    mu = fin_nat(K, compose_functors(K, K), {x: f"{k[x]}<={k[x]}" for x in base.objects})
    nu = fin_nat(K, identity_functor(base), {x: f"{k[x]}<={x}" for x in base.objects})
    kappa = {}
    for x in base.objects:
        prune = {"bot": set(), "a": {"q"}, "b": set(), "top": {"q"}}[x]
        kappa[x] = graph_map(
            fibers[x],
            fibers[k[x]],
            {
                lbl: subset_label(label_subset(lbl) & prune, attach[k[x]])
                for lbl in fibers[x].elements
            },
        )
    return DoctrineComonad(doc, K, kappa, mu, nu)


def test_identity_comonad_passes():
    d = powerset_doctrine_over({"A": ["a1"], "B": ["b1"]})
    assert comonad_violations(identity_comonad(d)) == []


def test_diamond_comonad_passes():
    assert comonad_violations(diamond_comonad()) == []


def _inflated_diamond_comonad() -> DoctrineComonad:
    """The diamond comonad with κ at `a` inflated to the identity: the
    counit inequality breaks at {p}."""
    c = diamond_comonad()
    kappa = dict(c.kappa)
    kappa["a"] = identity_map(c.p.fibers["a"])
    return DoctrineComonad(c.p, c.k, kappa, c.mu, c.nu)


def test_diamond_comonad_planted_kappa_fails_iii():
    out = comonad_violations(_inflated_diamond_comonad())
    assert out and any(v.startswith("(iii)") or "naturality" in v for v in out)


def test_comonad_verdict_repeats_as_a_fresh_list():
    c = _inflated_diamond_comonad()
    first, second = comonad_violations(c), comonad_violations(c)
    assert first and first == second and first is not second
    first.append("tampered")
    assert comonad_violations(c) == second


def test_em_doctrine_of_an_invalid_comonad_raises_the_same_error_every_time():
    c = _inflated_diamond_comonad()
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as raised:
            em_doctrine(c)
        messages.append(str(raised.value))
    assert messages[0] == messages[1] and messages[0].startswith("invalid comonad: ")


def test_em_doctrine_and_induced_comonad_are_built_once(seed=61):
    c = diamond_comonad()
    assert em_doctrine(c) is em_doctrine(c)
    A = random_vertical_adjunction(random.Random(seed))
    assert cmd_of_adjunction(A) is cmd_of_adjunction(A)
    assert em_doctrine(cmd_of_adjunction(A)) is em_doctrine(cmd_of_adjunction(A))


def test_em_doctrine_identity_comonad_keeps_fibers():
    d = powerset_doctrine_over({"A": ["a1"]})
    bundle = em_doctrine(identity_comonad(d))
    assert len(bundle.em.base.objects) == 1
    o = bundle.em.base.objects[0]
    assert bundle.em.fibers[o].elements == d.fibers["A"].elements
    assert one_arrow_violations(bundle.forgetful) == []
    assert two_arrow_violations(em_universal_two_arrow(identity_comonad(d))) == []


def test_em_doctrine_diamond_fibers_are_proper_suborders():
    c = diamond_comonad()
    bundle = em_doctrine(c)
    carriers = sorted(bundle.coalgebras.forgetful.obj_map.values())
    assert carriers == ["a", "bot"]
    by_carrier = {bundle.coalgebras.forgetful.obj_map[o]: o for o in bundle.em.base.objects}
    assert bundle.em.fibers[by_carrier["a"]].elements == ("{}", "{q}")
    assert bundle.em.fibers[by_carrier["bot"]].elements == ("{}",)


def test_em_adjunction_identity_and_diamond():
    d = powerset_doctrine_over({"A": ["a1"]})
    A = em_adjunction(identity_comonad(d))
    assert adjunction_violations(A) == []
    A2 = em_adjunction(diamond_comonad())
    assert adjunction_violations(A2) == []


def test_cm_modality_matches_am_of_em_adjunction():
    for c in (identity_comonad(powerset_doctrine_over({"A": ["a1"]})), diamond_comonad()):
        op = cm_modality(c)
        assert interior_violations(op) == []
        doc, op2 = am_modality(em_adjunction(c))
        assert doc == op.doctrine
        assert op2 == op


def test_cmd_of_adjunction_roundtrip_data():
    for c in (identity_comonad(powerset_doctrine_over({"A": ["a1"]})), diamond_comonad()):
        back = cmd_of_adjunction(em_adjunction(c))
        assert back.k == c.k
        for y in c.p.base.objects:
            assert graph_of(back.kappa[y]) == graph_of(c.kappa[y])
        assert back.mu.components == dict(c.mu.components)
        assert back.nu.components == dict(c.nu.components)


def test_cmd_of_adjunction_on_random_verticals(seed=7):
    rng = random.Random(seed)
    for _ in range(5):
        A = random_vertical_adjunction(rng)
        c = cmd_of_adjunction(A)
        assert comonad_violations(c) == []
        # em fibers are the stable elements of the induced modality
        from doctrines.adjunction import vertical_modality

        op = vertical_modality(A)
        stable, _ = stable_subdoctrine(op)
        bundle = em_doctrine(c)
        for o in bundle.em.base.objects:
            x = bundle.coalgebras.forgetful.obj_map[o]
            assert bundle.em.fibers[o].elements == stable.fibers[x].elements


def test_comparison_arrow_and_modality_comparison(seed=13):
    rng = random.Random(seed)
    for _ in range(5):
        A = random_vertical_adjunction(rng)
        comp = comparison_arrow(A)
        assert one_arrow_violations(comp) == []
        assert modality_comparison_violations(A) == []


def test_comparison_identity_adjunction():
    d = powerset_doctrine_over({"A": ["a1"]})
    A = identity_adjunction(d)
    assert modality_comparison_violations(A) == []


def test_mc_and_ma_on_interior_ops():
    d = powerset_doctrine_over({"A": ["a1"], "B": ["b1", "b2"]})
    drop = InteriorOp(
        d,
        {
            x: graph_map(d.fibers[x], d.fibers[x], {l: "{}" for l in d.fibers[x].elements})
            for x in d.base.objects
        },
    )
    for op in (identity_interior(d), drop):
        c = mc(op)
        assert comonad_violations(c) == []
        A = ma(op)
        assert adjunction_violations(A) == []
        assert ma_em_violations(op) == []
        # inclusion ⊣ box: inclusion(s) ≤ β ⟺ s ≤ box(β)
        from doctrines.adjunction import galois_violations

        assert galois_violations(A) == []


def test_ma_and_stable_subdoctrine_are_built_once_per_operator():
    d = powerset_doctrine_over({"A": ["a1"], "B": ["b1", "b2"]})
    op = identity_interior(d)
    assert ma(op) is ma(op)
    assert stable_subdoctrine(op) is stable_subdoctrine(op)
    assert ma(op).p is stable_subdoctrine(op)[0]
    # a separately built equal operator over the same base finds them kept
    other = identity_interior(d)
    assert other is not op and other == op
    assert ma(other) is ma(op) and stable_subdoctrine(other) is stable_subdoctrine(op)


def test_ma_of_an_invalid_operator_raises_the_same_error_every_time():
    d = powerset_doctrine_over({"A": ["a1"]})
    # every fiber element sent to the top: inflationary, so axiom T fails
    op = InteriorOp(
        d,
        {
            x: graph_map(d.fibers[x], d.fibers[x], {l: d.fibers[x].elements[-1] for l in d.fibers[x].elements})
            for x in d.base.objects
        },
    )
    # an equal copy over the same base raises the same error too
    copy = InteriorOp(d, dict(op.parts))
    messages = []
    for value in (op, op, copy):
        with pytest.raises(ValueError) as raised:
            ma(value)
        messages.append(str(raised.value))
    assert messages[0] == messages[1] == messages[2] and messages[0].startswith("invalid interior operator: ")
    # a build that raises keeps nothing, for no copy: each operator keeps the
    # verdict that ma read and its digest, and no adjunction
    kept = {"doctrines.interior.interior_violations", "doctrines.order._digest"}
    assert op._kept.keys() == copy._kept.keys() == kept


def test_local_adjunction_violations(seed=19):
    rng = random.Random(seed)
    for _ in range(5):
        A = random_vertical_adjunction(rng)
        assert local_adjunction_violations(A) == []


def test_local_adjunction_violations_identity():
    d = powerset_doctrine_over({"A": ["a1"]})
    assert local_adjunction_violations(identity_adjunction(d)) == []


def test_local_adjunction_modal_triangle(seed=19):
    d = powerset_doctrine_over({"A": ["a1"], "B": ["b1", "b2"]})
    drop = InteriorOp(
        d,
        {
            x: graph_map(d.fibers[x], d.fibers[x], {l: "{}" for l in d.fibers[x].elements})
            for x in d.base.objects
        },
    )
    for op in (identity_interior(d), drop):
        assert local_adjunction_modal_violations(op) == []
    # and AM(MA(op)) recovers op on the nose
    for op in (identity_interior(d), drop):
        doc, op2 = am_modality(ma(op))
        assert doc == op.doctrine
        assert op2 == op


def test_cmd_morphism_identity_and_mc_of_modal_arrow():
    d = powerset_doctrine_over({"A": ["a1"]})
    op = identity_interior(d)
    m = mc_morphism(identity_one_arrow(d), op, op)
    assert cmd_morphism_violations(m) == []
    cell = CmdTwoCell(m, m, identity_two_arrow(identity_one_arrow(d)))
    assert cmd_two_cell_violations(cell) == []


def test_cmd_morphism_broken_theta():
    c = diamond_comonad()
    base = c.p.base
    arrow = identity_one_arrow(c.p)
    # theta with a wrong component: use nu-shaped components (Kx ≤ x arrows)
    theta = NatTransformation(
        compose_functors(arrow.functor, c.k),
        compose_functors(c.k, arrow.functor),
        {x: base.id(c.k.obj_map[x]) for x in base.objects},
    )
    good = CmdMorphism(c, c, arrow, theta)
    assert cmd_morphism_violations(good) == []
    bad_theta = NatTransformation(
        theta.src, theta.dst, dict(theta.components) | {"top": "bot<=a"}
    )
    bad = CmdMorphism(c, c, arrow, bad_theta)
    assert cmd_morphism_violations(bad) != []


def test_em_universal_factor_at_forgetful_is_identity():
    c = diamond_comonad()
    bundle = em_doctrine(c)
    factor = em_universal_factor(c, bundle.forgetful, em_universal_two_arrow(c).theta)
    assert factor == identity_one_arrow(bundle.em)


def test_em_universal_factor_of_comparison_data(seed=3):
    A = random_vertical_adjunction(random.Random(seed))
    c = cmd_of_adjunction(A)
    xi = NatTransformation(
        A.left,
        compose_functors(c.k, A.left),
        {x: A.left.arr_map[A.eta.components[x]] for x in A.p.base.objects},
    )
    factor = em_universal_factor(c, left_arrow(A), xi)
    assert factor == comparison_arrow(A)


def test_em_universal_factor_rejects_broken_xi():
    # identity comonad over the Z/2 one-object base: the non-identity arrow is
    # natural (abelian monoid) but fails the counit coherence
    table = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}
    base = one_object_monoid_category("*", ["e", "a"], "e", table)
    fiber = antichain_poset(["u", "v"])
    d = Doctrine(
        base,
        {"*": fiber},
        {"e": identity_map(fiber), "a": graph_map(fiber, fiber, {"u": "v", "v": "u"})},
    )
    c = identity_comonad(d)
    x = identity_one_arrow(d)
    xi = NatTransformation(x.functor, compose_functors(c.k, x.functor), {"*": "a"})
    with pytest.raises(ValueError, match="counit coherence"):
        em_universal_factor(c, x, xi)


def test_nabla_on_nonvertical_base_change():
    from doctrines.adjunction import base_change_adjunction
    from doctrines.order import chain_poset

    big = poset_category(chain_poset(["0", "1", "2"]))
    small = poset_category(chain_poset(["0", "2"]))
    up = {"0": "0", "1": "2", "2": "2"}
    L = fin_functor(big, small, up, {a: f"{up[big.src(a)]}<={up[big.dst(a)]}" for a in big.arrow_names()})
    R = fin_functor(small, big, {"0": "0", "2": "2"}, {a: a for a in small.arrow_names()})
    eta = fin_nat(identity_functor(big), compose_functors(R, L), {x: f"{x}<={up[x]}" for x in big.objects})
    eps = fin_nat(compose_functors(L, R), identity_functor(small), {x: f"{x}<={x}" for x in small.objects})
    f0 = powerset_poset(["p"])
    f2 = powerset_poset(["p", "q"])
    Q = Doctrine(
        small,
        {"0": f0, "2": f2},
        {
            small.id("0"): identity_map(f0),
            small.id("2"): identity_map(f2),
            "0<=2": graph_map(f2, f0, {"{}": "{}", "{p}": "{p}", "{q}": "{}", "{p,q}": "{p}"}),
        },
    )
    A = base_change_adjunction(Q, L, R, eta, eps)
    assert local_adjunction_violations(A) == []


def test_comparison_and_local_adjunction_violations_are_empty_on_every_bundled_instance():
    for name, A in bundled_adjunctions():
        assert modality_comparison_violations(A) == [], name
        assert local_adjunction_violations(A) == [], name
    for name, op in bundled_interior_ops():
        assert ma_em_violations(op) == [], name
        assert local_adjunction_modal_violations(op) == [], name


def test_modality_comparison_violations_name_the_object_of_a_planted_box(monkeypatch):
    _, A, _ = bundled_quantale_doctrines()["luk3"]
    o = comparison_arrow(A).functor.obj_map["Y"]
    real = comonad.cm_modality

    def planted(c):
        op = real(c)
        return InteriorOp(op.doctrine, {**op.parts, o: moved_image(op.parts[o])})

    monkeypatch.setattr(comonad, "cm_modality", planted)
    assert "box tables differ at Y" in modality_comparison_violations(A)
    assert not any(" X" in w for w in modality_comparison_violations(A))


def test_ma_em_violations_name_the_object_of_a_planted_right_adjoint(monkeypatch):
    op = bundled_interior_ops()[0][1]  # the identity operator over A and B
    real = comonad.em_adjunction

    def planted(c):
        A = real(c)
        return DoctrineAdjunction(A.p, A.q, A.left, A.lam, A.right, {**A.rho, "B": moved_image(A.rho["B"])}, A.eta, A.eps)

    monkeypatch.setattr(comonad, "em_adjunction", planted)
    assert ma_em_violations(op) == ["right adjoint fiber map mismatch at B"]


def _planted_nabla(monkeypatch, side: str):
    """Make `comonad.nabla` move one image of its fiber map at B on `side`."""
    real = comonad.nabla

    def planted(A):
        n = real(A)
        parts = {"p": dict(n.parts_p), "q": dict(n.parts_q)}
        parts[side]["B"] = moved_image(parts[side]["B"])
        return AdjMorphism(n.src, n.dst, n.fun_p, parts["p"], n.fun_q, parts["q"], n.theta)

    monkeypatch.setattr(comonad, "nabla", planted)


def test_local_adjunction_violations_name_the_object_of_a_planted_nabla(monkeypatch):
    _planted_nabla(monkeypatch, "q")
    bad = local_adjunction_violations(identity_powerset_adjunction())
    assert "AM(nabla) is not the identity at B" in bad
    assert not any(w.endswith(" A") for w in bad)


def test_local_adjunction_modal_violations_name_the_object_of_a_planted_nabla(monkeypatch):
    _planted_nabla(monkeypatch, "p")
    op = bundled_interior_ops()[0][1]  # the identity operator over A and B
    assert local_adjunction_modal_violations(op) == ["nabla's p fiber map is not the identity at B"]


def test_unit_comparison_morphism_on_bundled_and_random(seed=47):
    from doctrines.adjunction import adj_morphism_violations, am_functor, am_modality
    from doctrines.interior import modal_one_arrow_violations

    cases = [identity_adjunction(powerset_doctrine_over({"A": ["a1"]}))]
    rng = random.Random(seed)
    cases.extend(random_vertical_adjunction(rng) for _ in range(4))
    for A in cases:
        m = unit_comparison_morphism(A)
        assert adj_morphism_violations(m) == []
        arrow = am_functor(m)
        _, op_a = am_modality(A)
        _, op_b = am_modality(m.dst)
        # the modal image maps stable elements to stable elements
        assert modal_one_arrow_violations(arrow, op_a, op_b) == []


def test_mc_morphism_on_real_modal_arrows():
    from doctrines.instances import KripkeFrame
    from doctrines.suite import SPACES

    frame = KripkeFrame(("w1", "w2"), frozenset({("w1", "w1"), ("w2", "w2"), ("w1", "w2")}))
    arrow, op_src, op_dst = constant_family_arrow(frame, {"S": ["s", "t"]})
    m = mc_morphism(arrow, op_src, op_dst)
    assert cmd_morphism_violations(m) == []
    arrow2, op2_src, op2_dst = forgetful_top_arrow(list(SPACES))
    m2 = mc_morphism(arrow2, op2_src, op2_dst)
    assert cmd_morphism_violations(m2) == []


# The EM constructions no longer re-check what the comonad and adjunction
# scans imply; these tests assert the dropped checks against references.
def _comonads_with_em_doctrines():
    rng = random.Random(71)
    yield from bundled_comonads()
    for name, op in bundled_interior_ops():
        yield f"mc-{name}", mc(op)
    for i in range(10):
        yield f"mc-random-vertical-{i}", mc(vertical_modality(random_vertical_adjunction(rng)))
    for name, A in _adjunctions_with_comparison_arrows():
        yield f"cmd-{name}", cmd_of_adjunction(A)


def _adjunctions_with_comparison_arrows():
    """The bundled adjunctions, then the suite's 50 seeded random vertical
    adjunctions (seed 7)."""
    yield from bundled_adjunctions()
    rng = random.Random(7)
    for i in range(50):
        yield f"random-vertical-{i}", random_vertical_adjunction(rng)


def test_em_fibers_inclusions_and_universal_two_arrow_agree_with_the_references():
    assert comonad_violations(_inflated_diamond_comonad())
    for name, c in _comonads_with_em_doctrines():
        assert comonad_violations(c) == [], name
        bundle = em_doctrine(c)
        assert {o: bundle.em.fibers[o].elements for o in bundle.em.base.objects} == em_fibers_reference(c), name
        assert all(injective_reference(bundle.forgetful.parts[o]) for o in bundle.em.base.objects), name
        universal = em_universal_two_arrow(c)
        assert two_arrow_violations(universal) == [], name
        factor = em_universal_factor(c, bundle.forgetful, universal.theta)
        assert compose_one_arrows(bundle.forgetful, factor) == bundle.forgetful, name


def test_comparison_arrows_and_universal_factors_agree_with_the_references():
    for name, A in _adjunctions_with_comparison_arrows():
        c = cmd_of_adjunction(A)
        assert comparison_landing_reference(A) == [], name
        xi = NatTransformation(
            A.left,
            compose_functors(c.k, A.left),
            {x: A.left.arr_map[A.eta.components[x]] for x in A.p.base.objects},
        )
        factor = em_universal_factor(c, left_arrow(A), xi)
        assert compose_one_arrows(em_doctrine(c).forgetful, factor) == left_arrow(A), name
        assert factor == comparison_arrow(A), name


def test_em_doctrine_refuses_a_closure_that_is_not_deflationary():
    # the comonad laws scan no doctrine law: here P(id) is constant, so the
    # identity comonad's closure P(id)∘κ inflates 0 to 2 though its scan passes
    base = discrete_category(["*"])
    fiber = chain_poset(["0", "1", "2"])
    d = Doctrine(base, {"*": fiber}, {"id_*": graph_map(fiber, fiber, {"0": "2", "1": "2", "2": "2"})})
    K = identity_functor(base)
    kappa = graph_map(fiber, fiber, {"0": "0", "1": "0", "2": "2"})
    c = DoctrineComonad(d, K, {"*": kappa}, identity_nat(K), identity_nat(K))
    assert comonad_violations(c) == []
    with pytest.raises(ValueError, match=r"^closure not deflationary at \(<\*\|id_\*>,0\)$"):
        em_doctrine(c)


def test_cm_modality_refuses_a_box_that_is_not_monotone():
    # C ≅ D by i and j, and K sends both onto D, so ⟨C, i⟩ is a coalgebra
    # whose box is P(i)∘κ_C. The comonad scan and the EM build never check
    # that P(i) is monotone, and here it is not: it sends 0 < 1 to the two
    # minimal points p, q of the fiber p < b > q, so the box sends p ≤ b to
    # p and q
    arrows = [("id_C", "C", "C"), ("id_D", "D", "D"), ("i", "C", "D"), ("j", "D", "C")]
    between = {(s, d): a for a, s, d in arrows}  # one arrow each way: g∘f is the one from f's source to g's target
    comp = {(g, f): between[fs, gd] for g, gs, gd in arrows for f, fs, fd in arrows if fd == gs}
    base = fin_category(["C", "D"], arrows, {"C": "id_C", "D": "id_D"}, comp)
    vee, two = fin_poset(["p", "q", "b"], [("p", "b"), ("q", "b")]), chain_poset(["0", "1"])
    kappa = graph_map(vee, two, {"p": "0", "q": "1", "b": "1"})
    section = graph_map(two, vee, {"0": "p", "1": "q"})
    P = Doctrine(base, {"C": vee, "D": two}, {"id_C": identity_map(vee), "id_D": identity_map(two), "i": section, "j": kappa})
    K = fin_functor(base, base, {"C": "D", "D": "D"}, {a: "id_D" for a, _, _ in arrows})
    mu = fin_nat(K, compose_functors(K, K), {"C": "id_D", "D": "id_D"})
    nu = fin_nat(K, identity_functor(base), {"C": "j", "D": "id_D"})
    c = DoctrineComonad(P, K, {"C": kappa, "D": identity_map(two)}, mu, nu)
    assert comonad_violations(c) == []
    assert {o: f.elements for o, f in em_doctrine(c).em.fibers.items()} == {"<C|i>": ("p", "q"), "<D|id_D>": ("0", "1")}
    with pytest.raises(ValueError, match=r"^comonadic modality is not interior: box at <C\|i>: order not preserved on \(p,b\)$"):
        cm_modality(c)


def test_every_em_closure_whose_comonad_scan_passes_is_idempotent():
    # em_doctrine does not check cl∘cl = cl: its docstring proves it from the scan
    cases = [*bundled_comonads(), *((f"mc-{name}", mc(op)) for name, op in bundled_interior_ops())]
    cases += [(f"cmd-{name}", cmd_of_adjunction(A)) for name, A in _adjunctions_with_comparison_arrows()]
    for name, c in cases:
        assert comonad_violations(c) == [], name
        assert closure_idempotence_reference(c) == [], name
    # the reference does flag a closure that is not idempotent, here
    # P(id_*) = {0↦0, 1↦0, 2↦1} with κ = id; the comultiplication inequality fails first
    base = discrete_category(["*"])
    fiber = chain_poset(["0", "1", "2"])
    d = Doctrine(base, {"*": fiber}, {"id_*": graph_map(fiber, fiber, {"0": "0", "1": "0", "2": "1"})})
    K = identity_functor(base)
    c = DoctrineComonad(d, K, {"*": identity_map(fiber)}, identity_nat(K), identity_nat(K))
    assert closure_idempotence_reference(c) == [("<*|id_*>", "2")]
    assert "(iii) comultiplication inequality fails at (*,2)" in comonad_violations(c)


def test_em_universal_factor_refuses_an_x_whose_functor_leaves_a_hom_set():
    # X sends bot<=a to the identity of bot, outside the hom-set (bot, a)
    c = identity_comonad(diamond_comonad().p)
    base = c.p.base
    x_arrow = identity_one_arrow(c.p)
    X = Functor(base, base, dict(x_arrow.functor.obj_map), dict(x_arrow.functor.arr_map) | {"bot<=a": "bot<=bot"})
    x_bad = OneArrow(c.p, c.p, X, dict(x_arrow.parts))
    xi = NatTransformation(X, compose_functors(c.k, X), {x: base.id(x) for x in base.objects})
    with pytest.raises(ValueError, match=r"^x is not a 1-arrow: functor: boundary not preserved at bot<=a"):
        em_universal_factor(c, x_bad, xi)
