"""Comonads on doctrines, the Eilenberg-Moore doctrine with its universal
property, the induced adjunction and modality, the comonad/adjunction
comparisons, and the interior-operator round trip (vertical comonads)."""

from __future__ import annotations

from .adjunction import (
    AdjMorphism,
    DoctrineAdjunction,
    adj_morphism_violations,
    adjunction_violations,
    am_functor,
    am_modality,
    vertical_adjunction,
)
from .doctrine import (
    Doctrine,
    OneArrow,
    _table_digest,
    base_change,
    identity_parts,
    one_arrow_violations,
    sub_doctrine,
)
from .fincat import (
    CoalgebraData,
    FinCategory,
    Functor,
    NatTransformation,
    coalgebra_category,
    comonad_cat_violations,
    compose_functors,
    identity_functor,
    identity_nat,
    is_identity_functor,
    nat_violations,
)
from .interior import InteriorOp, interior_violations, modal_one_arrow_violations, stable_subdoctrine
from .order import MonotoneMap, _require, compose_maps, is_identity_map, kept, restrict_map, value_class


@value_class
class DoctrineComonad:
    """The quadruple presentation of a comonad on a doctrine. A value is
    never changed after it is built, tables included, so its law verdict,
    its Eilenberg-Moore doctrine and its EM adjunction are computed once and
    kept on it, and shared with an equal comonad alive over the same base
    category object (`order.kept`, which reads `_digest()` and `_base()`)."""

    p: Doctrine
    k: Functor
    kappa: Mapping[str, MonotoneMap]  # X -> P X → P(K X)
    mu: NatTransformation  # K ⇒ K K
    nu: NatTransformation  # K ⇒ Id

    def _base(self):
        return self.p.base

    def _digest(self) -> tuple:
        return _table_digest((self.p,), (self.kappa,))


def cmd_arrow(c: DoctrineComonad) -> OneArrow:
    return OneArrow(c.p, c.p, c.k, dict(c.kappa))


@kept
def comonad_violations(c: DoctrineComonad) -> list[str]:
    """Empty list iff the base comonad laws, the 1-arrow, and both lax
    inequalities hold; violations carry (i)/(ii)/(iii) tags. A fresh list on
    every call."""
    out = []
    if c.k.src != c.p.base or c.k.dst != c.p.base:
        return ["(i) K is not an endofunctor of the base"]
    out.extend("(i) " + v for v in comonad_cat_violations(c.k, c.mu, c.nu))
    if out:
        return out
    out.extend("(ii) " + v for v in one_arrow_violations(cmd_arrow(c)))
    if out:
        return out
    P = c.p
    for x in P.base.objects:
        kx = c.k.obj_map[x]
        comul = compose_maps(P.reindex[c.mu.components[x]], compose_maps(c.kappa[kx], c.kappa[x])).images
        lhs, counit, fib, els = c.kappa[x].images, P.reindex[c.nu.components[x]].images, P.fibers[kx], P.fibers[x].elements
        for i in range(len(els)):
            if not fib.leq_at(lhs[i], comul[i]):
                out.append(f"(iii) comultiplication inequality fails at ({x},{els[i]})")
            if not fib.leq_at(lhs[i], counit[i]):
                out.append(f"(iii) counit inequality fails at ({x},{els[i]})")
    return out


def identity_comonad(P: Doctrine) -> DoctrineComonad:
    i = identity_functor(P.base)
    return DoctrineComonad(
        P,
        i,
        identity_parts(P),
        identity_nat(i),
        identity_nat(i),
    )


@value_class
class EMDoctrineBundle:
    em: Doctrine
    forgetful: OneArrow
    coalgebras: CoalgebraData


@kept
def em_doctrine(c: DoctrineComonad) -> EMDoctrineBundle:
    """The Eilenberg-Moore doctrine: over the category of coalgebras, the fiber
    at ⟨C,c⟩ is the suborder of elements below their own comonadic closure;
    those are exactly the fixed points of the idempotent P(c)∘κ_C. Built
    once per comonad; an invalid comonad raises.

    One pass over each closure table cl = P(c)∘κ_C checks deflation,
    cl a ≤ a, which the comonad scan does not imply. The rest follows from
    it and the scan, and is not checked:
    - cl is idempotent. On a finite base μ is invertible (each μ along C, KC,
      K²C, … is split by ν, so invertible once the tower repeats, and
      K(ν_Y)∘μ_Y = id with ν natural along μ_X makes μ_X invertible when μ_KX
      is), so Kc = K(ν_C)⁻¹ = μ_C for each coalgebra c. κ_C's naturality along
      c and the comultiplication inequality give κ_C a ≤ P(μ_C)κ_KC κ_C a =
      κ_C(cl a), κ_C monotone and cl a ≤ a the reverse; by antisymmetry
      κ_C(cl a) = κ_C a, and cl(cl a) = cl a;
    - the EM fiber {a | a ≤ cl a} is the fixed-point set of cl, by deflation
      and antisymmetry;
    - the forgetful fiber maps are injective: they are `sub_doctrine`'s
      inclusions, the identity on elements."""
    _require(comonad_violations(c), "invalid comonad")
    P = c.p
    data = coalgebra_category(c.k, c.mu, c.nu)
    keep = {}
    for o in data.category.objects:
        carrier = data.forgetful.obj_map[o]
        closure = compose_maps(P.reindex[data.structure[o]], c.kappa[carrier]).images
        fib = P.fibers[carrier]
        for i in range(len(closure)):
            if not fib.leq_at(closure[i], i):
                raise ValueError(f"closure not deflationary at ({o},{fib.elements[i]})")
        keep[o] = [i for i, j in enumerate(closure) if i == j]
    em, inclusion = sub_doctrine(
        base_change(P, data.forgetful), keep, "reindexing along {t} leaves the EM fiber at {a}"
    )
    return EMDoctrineBundle(em, OneArrow(em, P, data.forgetful, inclusion.parts), data)


def _into_coalgebras(
    data: CoalgebraData, D: FinCategory, structure: Mapping[str, str], arr_map: Mapping[str, str]
) -> Functor:
    """The functor D → EM sending d to the coalgebra whose structure arrow is
    `structure[d]` and t to the EM arrow over the base arrow `arr_map[t]`
    between those: coalgebras are found by their structure arrow, EM arrows
    by their ends and base arrow. The caller proves each `structure[d]` a
    coalgebra and each `arr_map[t]` a coalgebra arrow."""
    em = data.category
    obj = {d: data.by_structure[structure[d]] for d in D.objects}
    arr = {t: em.named[obj[D.src(t)], obj[D.dst(t)], arr_map[t]] for t in D.arrow_names()}
    return Functor(D, em, obj, arr)


@kept
def em_adjunction(c: DoctrineComonad) -> DoctrineAdjunction:
    """The adjunction ⟨EM, P, U, u, K̂, κ, η, ν⟩ with K̂ the free-coalgebra
    functor, ⟨KX, μ_X⟩ on objects and K on arrows (a coalgebra arrow by μ's
    naturality), and η at ⟨X,c⟩ the structure arrow c itself. Built once
    per comonad."""
    bundle = em_doctrine(c)
    P, base = c.p, c.p.base
    data = bundle.coalgebras
    emcat = data.category
    free = _into_coalgebras(data, base, c.mu.components, c.k.arr_map)
    eta = NatTransformation(
        identity_functor(emcat),
        compose_functors(free, data.forgetful),
        {o: emcat.named[o, free.obj_map[data.forgetful.obj_map[o]], data.structure[o]] for o in emcat.objects},
    )
    nu = {x: c.nu.components[x] for x in base.objects}
    eps = NatTransformation(compose_functors(data.forgetful, free), identity_functor(base), nu)
    rho = {x: restrict_map(c.kappa[x], P.fibers[x], bundle.em.fibers[free.obj_map[x]]) for x in base.objects}
    return DoctrineAdjunction(bundle.em, P, data.forgetful, dict(bundle.forgetful.parts), free, rho, eta, eps)


def cm_modality(c: DoctrineComonad) -> InteriorOp:
    """The comonadic interior operator box at ⟨X,c⟩ = P(c)∘κ_X on the doctrine
    ⟨X,c⟩ ↦ P(X) over the coalgebra category. T and 4 follow from what
    `em_doctrine` checks, but monotonicity and naturality rest on P's
    reindexing, which no comonad scan checks: P(c) may reverse order when
    c is no identity, so the box is checked here."""
    data = em_doctrine(c).coalgebras
    doc = base_change(c.p, data.forgetful)
    parts = {
        o: compose_maps(c.p.reindex[data.structure[o]], c.kappa[data.forgetful.obj_map[o]])
        for o in data.category.objects
    }
    op = InteriorOp(doc, parts)
    _require(interior_violations(op), "comonadic modality is not interior")
    return op


@kept
def cmd_of_adjunction(A: DoctrineAdjunction) -> DoctrineComonad:
    """The comonad ⟨LR, (λR)ρ, LηR, ε⟩ on Q induced by an adjunction, built
    once per adjunction."""
    _require(adjunction_violations(A), "invalid adjunction")
    K = compose_functors(A.left, A.right)
    kappa = {
        y: compose_maps(A.lam[A.right.obj_map[y]], A.rho[y]) for y in A.q.base.objects
    }
    mu = NatTransformation(
        K,
        compose_functors(K, K),
        {y: A.left.arr_map[A.eta.components[A.right.obj_map[y]]] for y in A.q.base.objects},
    )
    nu = NatTransformation(
        K, identity_functor(A.q.base), {y: A.eps.components[y] for y in A.q.base.objects}
    )
    return DoctrineComonad(A.q, K, kappa, mu, nu)


@kept
def comparison_arrow(A: DoctrineAdjunction) -> OneArrow:
    """The comparison 1-arrow into the EM doctrine of the induced comonad
    (K = LR, μ = LηR, ν = ε): X ↦ ⟨LX, Lη_X⟩, L on arrows, λ on fibers, built
    once per adjunction. The adjunction scan makes it land there, so nothing
    is checked again.
    ⟨LX, Lη_X⟩ is a coalgebra by a triangle identity (ε_LX∘Lη_X = id) and by
    L applied to η's naturality square at η_X (LRLη_X∘Lη_X = Lη_RLX∘Lη_X).
    λ_X is monotone and natural along η_X, so it turns the unit's lax
    inequality a ≤ P(η_X)ρ_LX λ_X a into λ_X a ≤ Q(Lη_X)κ_LX λ_X a."""
    bundle = em_doctrine(cmd_of_adjunction(A))
    base = A.p.base
    structure = {x: A.left.arr_map[A.eta.components[x]] for x in base.objects}
    functor = _into_coalgebras(bundle.coalgebras, base, structure, A.left.arr_map)
    parts = {x: restrict_map(A.lam[x], A.p.fibers[x], bundle.em.fibers[functor.obj_map[x]]) for x in base.objects}
    return OneArrow(A.p, bundle.em, functor, parts)


def modality_comparison_violations(A: DoctrineAdjunction) -> list[str]:
    """The adjunction modality equals the comonadic modality along the
    comparison functor K, box table by box table, and ⟨K, id⟩ is a modal
    1-arrow between the two."""
    ql, op_a = am_modality(A)
    op_k = cm_modality(cmd_of_adjunction(A))
    K = comparison_arrow(A).functor
    out = [f"box tables differ at {x}" for x in A.p.base.objects if op_a.parts[x] != op_k.parts[K.obj_map[x]]]
    k_id = OneArrow(ql, op_k.doctrine, K, identity_parts(ql))
    out.extend("comparison arrow: " + v for v in modal_one_arrow_violations(k_id, op_a, op_k))
    return out


@kept
def mc(op: InteriorOp) -> DoctrineComonad:
    """An interior operator is exactly a vertical comonad, built once per
    operator, so its Eilenberg-Moore doctrine is too."""
    _require(interior_violations(op), "invalid interior operator")
    P = op.doctrine
    i = identity_functor(P.base)
    return DoctrineComonad(P, i, dict(op.parts), identity_nat(i), identity_nat(i))


@kept
def ma(op: InteriorOp) -> DoctrineAdjunction:
    """The stable-subdoctrine adjunction ⟨Id, inclusion⟩ ⊣ ⟨Id, box⟩, built
    once per operator."""
    _require(interior_violations(op), "invalid interior operator")
    P = op.doctrine
    stable, inclusion = stable_subdoctrine(op)
    rho = {x: restrict_map(op.parts[x], P.fibers[x], stable.fibers[x]) for x in P.base.objects}
    return vertical_adjunction(stable, P, dict(inclusion.parts), rho)


def ma_em_violations(op: InteriorOp) -> list[str]:
    """ma(op) is the EM adjunction of mc(op) after identifying ⟨X,id⟩ with
    X: the same fibers, and the same fiber maps image by image."""
    direct = ma(op)
    via_em = em_adjunction(mc(op))
    base = op.doctrine.base
    rename = {em_doctrine(mc(op)).coalgebras.by_structure[base.id(x)]: x for x in base.objects}
    if sorted(rename) != sorted(via_em.p.base.objects):
        return ["EM base of the vertical comonad is not the original base"]
    out = []
    for o, x in rename.items():
        stable = direct.p.fibers[x].elements
        if via_em.p.fibers[o].elements != stable:
            out.append(f"stable fiber mismatch at {x}")
            continue
        # both fibers list the same elements, so equal positions are equal images
        if via_em.rho[x].images != direct.rho[x].images:
            out.append(f"right adjoint fiber map mismatch at {x}")
        if via_em.lam[o].images != direct.lam[x].images:
            out.append(f"left adjoint fiber map mismatch at {x}")
    return out


def nabla(A: DoctrineAdjunction) -> AdjMorphism:
    """The counit of the local adjunction: MA(AM(A)) → A."""
    ql, op = am_modality(A)
    src = ma(op)
    parts_p = {}
    for x in A.p.base.objects:
        rho_prime = compose_maps(A.p.reindex[A.eta.components[x]], A.rho[A.left.obj_map[x]])
        parts_p[x] = restrict_map(rho_prime, src.p.fibers[x], A.p.fibers[x])
    theta = NatTransformation(
        compose_functors(identity_functor(A.p.base), src.right),
        compose_functors(A.right, A.left),
        dict(A.eta.components),
    )
    return AdjMorphism(
        src, A, identity_functor(A.p.base), parts_p, A.left, identity_parts(ql), theta
    )


def local_adjunction_violations(A: DoctrineAdjunction) -> list[str]:
    """The triangle laws of the local adjunction between the modality and
    adjunction constructions: nabla is a homomorphism MA(AM(A)) → A, and its
    modal image AM(nabla) is the identity 1-arrow of AM(A), table by table."""
    n = nabla(A)
    out = ["nabla: " + v for v in adj_morphism_violations(n)]
    arrow = am_functor(n)
    ql = am_modality(A)[0]
    if arrow.src != ql or arrow.dst != ql or not is_identity_functor(arrow.functor, ql.base):
        out.append("AM(nabla) is not the identity on objects and arrows")
    out.extend(
        f"AM(nabla) is not the identity at {x}"
        for x in ql.base.objects
        if not is_identity_map(arrow.parts[x], ql.fibers[x])
    )
    return out


def local_adjunction_modal_violations(op: InteriorOp) -> list[str]:
    """nabla at MA(⟨P,box⟩) is the identity morphism of MA(⟨P,box⟩): both
    functors, every fiber map and every component of θ, table by table."""
    A = ma(op)
    n = nabla(A)
    out = [] if n.src == A and n.dst == A else ["nabla at MA is not an endomorphism of MA"]
    for side, F, parts, D in (("p", n.fun_p, n.parts_p, A.p), ("q", n.fun_q, n.parts_q, A.q)):
        if not is_identity_functor(F, D.base):
            out.append(f"nabla's {side} functor is not the identity")
        out.extend(
            f"nabla's {side} fiber map is not the identity at {x}"
            for x in D.base.objects
            if not is_identity_map(parts[x], D.fibers[x])
        )
    base = A.p.base
    out.extend(
        f"theta is not the identity at {y}"
        for y in A.q.base.objects
        if n.theta.components[y] != base.id(A.right.obj_map[y])
    )
    return out


def em_universal_factor(c: DoctrineComonad, x_arrow: OneArrow, xi: NatTransformation) -> OneArrow:
    """Factor a coherent pair ⟨⟨X,x⟩, ξ⟩ through the forgetful 1-arrow
    ⟨U, incl⟩ of the EM doctrine: d ↦ ⟨Xd, ξ_d⟩, t ↦ Xt, and x_d on fibers.
    The input checks (x a 1-arrow into P, ξ: X ⇒ KX natural, and the counit,
    comultiplication and lax coherences) leave nothing to check on the
    result: ⟨Xd, ξ_d⟩ is a coalgebra by the two coherences; Xt is a
    coalgebra morphism, since X is a functor and ξ is natural; x_d lands in
    the EM fiber by the lax coherence; and U reads back X, incl back x.
    It is the only factorization. A factor F over X with 2-cell ξ sends d to
    the coalgebra whose structure arrow is ξ_d, and there is one coalgebra
    per structure arrow. EM arrows are found by their ends and base arrow, so
    U F = X fixes F on arrows, and the injective inclusion fixes its fiber
    maps."""
    P = c.p
    if x_arrow.dst != P:
        raise ValueError("x must land in the comonad's doctrine")
    _require(one_arrow_violations(x_arrow), "x is not a 1-arrow")
    X = x_arrow.functor
    if xi.src != X or xi.dst != compose_functors(c.k, X):
        raise ValueError("xi must be a natural transformation X ⇒ K X")
    _require(nat_violations(xi), "xi not natural")
    base = P.base
    for d in x_arrow.src.base.objects:
        xd = X.obj_map[d]
        if base.comp(c.nu.components[xd], xi.components[d]) != base.id(xd):
            raise ValueError(f"counit coherence fails at {d}")
        lhs = base.comp(c.k.arr_map[xi.components[d]], xi.components[d])
        rhs = base.comp(c.mu.components[xd], xi.components[d])
        if lhs != rhs:
            raise ValueError(f"comultiplication coherence fails at {d}")
    for d in x_arrow.src.base.objects:
        xd = X.obj_map[d]
        closure = compose_maps(P.reindex[xi.components[d]], c.kappa[xd]).images
        for i, v in enumerate(x_arrow.parts[d].images):
            if not P.fibers[xd].leq_at(v, closure[v]):
                raise ValueError(f"lax coherence fails at ({d},{x_arrow.src.fibers[d].elements[i]})")

    bundle = em_doctrine(c)
    functor = _into_coalgebras(bundle.coalgebras, x_arrow.src.base, xi.components, X.arr_map)
    obj = functor.obj_map
    parts = {
        d: restrict_map(x_arrow.parts[d], x_arrow.src.fibers[d], bundle.em.fibers[obj[d]])
        for d in x_arrow.src.base.objects
    }
    return OneArrow(x_arrow.src, bundle.em, functor, parts)
