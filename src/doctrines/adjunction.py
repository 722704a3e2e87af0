"""Adjunctions between doctrines, the induced interior modalities, the
vertical/base-change factorization, the refined factorization through the
stable subdoctrine, triviality dichotomies, and adjunction morphisms."""

from __future__ import annotations

from .doctrine import (
    Doctrine,
    OneArrow,
    TwoArrow,
    _table_digest,
    base_change,
    compose_one_arrows,
    identity_parts,
    one_arrow_violations,
    two_arrow_violations,
)
from .fincat import (
    Functor,
    NatTransformation,
    adjunction_cat,
    identity_functor,
    identity_nat,
    is_identity_functor,
    same_functor_composite,
)
from .interior import InteriorOp, interior_violations, stable_subdoctrine
from .order import MonotoneMap, _require, compose_maps, is_identity_map, kept, restrict_map, same_composite, value_class


@value_class
class DoctrineAdjunction:
    """The octuple presentation of an adjunction between doctrines. A value
    is never changed after it is built, tables included, so its law verdict
    and the constructions derived from it are computed once and kept on it,
    and shared with an equal adjunction alive over the same base category
    object (`order.kept`, which reads `_digest()` and `_base()`)."""

    p: Doctrine
    q: Doctrine
    left: Functor
    lam: Mapping[str, MonotoneMap]  # X -> P X → Q(L X)
    right: Functor
    rho: Mapping[str, MonotoneMap]  # Y -> Q Y → P(R Y)
    eta: NatTransformation  # Id ⇒ R L
    eps: NatTransformation  # L R ⇒ Id

    def _base(self):
        return self.p.base

    def _digest(self) -> tuple:
        return _table_digest((self.p, self.q), (self.lam, self.rho))


def left_arrow(A: DoctrineAdjunction) -> OneArrow:
    return OneArrow(A.p, A.q, A.left, dict(A.lam))


def right_arrow(A: DoctrineAdjunction) -> OneArrow:
    return OneArrow(A.q, A.p, A.right, dict(A.rho))


@kept
def adjunction_violations(A: DoctrineAdjunction) -> list[str]:
    """Empty list iff the Cat adjunction, both 1-arrows, and both lax 2-arrows
    are valid; violations carry (i)/(ii)/(iii) tags with witnesses. A fresh
    list on every call."""
    out = []
    if A.left.src != A.p.base or A.left.dst != A.q.base:
        return ["(i) left functor boundary mismatch"]
    if A.right.src != A.q.base or A.right.dst != A.p.base:
        return ["(i) right functor boundary mismatch"]
    out.extend("(i) " + v for v in adjunction_cat(A.left, A.right, A.eta, A.eps))
    if out:
        return out
    out.extend("(ii) left: " + v for v in one_arrow_violations(left_arrow(A)))
    out.extend("(ii) right: " + v for v in one_arrow_violations(right_arrow(A)))
    if out:
        return out
    # (i) and (ii) have proved what two_arrow_violations checks before the lax
    # inequalities: both 2-arrows join parallel 1-arrows, and η: Id ⇒ RL and
    # ε: LR ⇒ Id are natural transformations with those boundaries
    P, Q, L, R = A.p, A.q, A.left, A.right
    for x in P.base.objects:
        lam, rho, back = A.lam[x].images, A.rho[L.obj_map[x]].images, P.reindex[A.eta.components[x]].images
        leq, els = P.fibers[x].leq_at, P.fibers[x].elements
        out.extend(f"(iii) eta: lax inequality fails at ({x},{els[i]})" for i in range(len(els)) if not leq(i, back[rho[lam[i]]]))
    for y in Q.base.objects:
        ry = R.obj_map[y]
        lam, rho, back = A.lam[ry].images, A.rho[y].images, Q.reindex[A.eps.components[y]].images
        leq, els = Q.fibers[L.obj_map[ry]].leq_at, Q.fibers[y].elements
        out.extend(f"(iii) eps: lax inequality fails at ({y},{els[j]})" for j in range(len(els)) if not leq(lam[rho[j]], back[j]))
    return out


def identity_adjunction(P: Doctrine) -> DoctrineAdjunction:
    i = identity_functor(P.base)
    ids = identity_parts(P)
    return DoctrineAdjunction(P, P, i, ids, i, dict(ids), identity_nat(i), identity_nat(i))


def vertical_adjunction(P: Doctrine, Q: Doctrine, lam, rho) -> DoctrineAdjunction:
    """Identity base functors and identity unit/counit."""
    if P.base != Q.base:
        raise ValueError("vertical adjunction needs a shared base")
    i = identity_functor(P.base)
    return DoctrineAdjunction(P, Q, i, dict(lam), i, dict(rho), identity_nat(i), identity_nat(i))


def is_vertical(A: DoctrineAdjunction) -> bool:
    """Identity base functors, and η and ε the identity transformation of the
    identity functor."""
    C = A.p.base
    return (
        A.q.base == C
        and all(is_identity_functor(F, C) for F in (A.left, A.right, A.eta.src, A.eta.dst, A.eps.src, A.eps.dst))
        and A.eta.components == C.identities == A.eps.components
    )


def galois_violations(A: DoctrineAdjunction) -> list[str]:
    """Fiberwise adjunction λ_X(α) ≤ β ⟺ α ≤ ρ_X(β), for vertical A."""
    out = []
    for x in A.p.base.objects:
        lam, rho = A.lam[x].images, A.rho[x].images
        pf, qf = A.p.fibers[x], A.q.fibers[x]
        for i in range(len(pf.elements)):
            for j in range(len(qf.elements)):
                if qf.leq_at(lam[i], j) != pf.leq_at(i, rho[j]):
                    out.append(f"galois fails at ({x},{pf.elements[i]},{qf.elements[j]})")
    return out


def vertical_modality(A: DoctrineAdjunction) -> InteriorOp:
    """The interior operator λ∘ρ on Q for a vertical adjunction. The
    adjunction scan proves the fiberwise Galois property (`galois_violations`),
    which is not checked again, once reindexing along each identity is the
    identity in P and in Q, as in any doctrine: then the scan makes λ and ρ
    monotone with a ≤ ρλa and λρb ≤ b, so λa ≤ b gives a ≤ ρλa ≤ ρb, and
    a ≤ ρb gives λa ≤ λρb ≤ b. With it λ∘ρ is interior, which is not checked
    either: λρ is monotone and natural, as λ and ρ are; T, λρβ ≤ β, is Galois
    at ρβ ≤ ρβ; and 4, λρβ ≤ λρλρβ, is λ applied to ρβ ≤ ρλρβ, Galois at
    λρβ ≤ λρβ."""
    if not is_vertical(A):
        raise ValueError("vertical_modality requires identity base functors and identity unit/counit")
    _require(adjunction_violations(A), "invalid adjunction")
    bad = [
        f"{side}: reindex(id_{x}) is not the identity"
        for side, D in (("p", A.p), ("q", A.q))
        for x in D.base.objects
        if not is_identity_map(D.reindex[D.base.id(x)], D.fibers[x])
    ]
    _require(bad, "vertical_modality requires doctrines")
    return InteriorOp(A.q, {x: compose_maps(A.lam[x], A.rho[x]) for x in A.q.base.objects})


def am_doctrine(A: DoctrineAdjunction) -> Doctrine:
    """The doctrine X ↦ Q(L X) over the base of P."""
    return base_change(A.q, A.left)


@kept
def am_modality(A: DoctrineAdjunction) -> tuple[Doctrine, InteriorOp]:
    """The interior operator λ ∘ P(η) ∘ (ρ at L−) on the doctrine X ↦ Q(L X),
    built once per adjunction."""
    _require(adjunction_violations(A), "invalid adjunction")
    doc = am_doctrine(A)
    parts = {}
    for x in A.p.base.objects:
        lx = A.left.obj_map[x]
        parts[x] = compose_maps(
            A.lam[x], compose_maps(A.p.reindex[A.eta.components[x]], A.rho[lx])
        )
    op = InteriorOp(doc, parts)
    _require(interior_violations(op), "induced modality is not interior")
    return doc, op


def base_change_adjunction(
    Q: Doctrine, L: Functor, R: Functor, eta: NatTransformation, eps: NatTransformation
) -> DoctrineAdjunction:
    """Lift a Cat-adjunction on bases to ⟨QL, Q, L, id, R, Qε⟩, unchecked:
    like `vertical_adjunction`, its verdict is `adjunction_violations`, whose
    "(i)" part scans ⟨L, R, η, ε⟩ as a Cat-adjunction. `factorize`, its one
    caller in the library, builds it only from an A that passed that scan on
    ⟨A.left, A.right, A.eta, A.eps⟩, the same four values, so its base
    adjunction holds there without a second scan."""
    p = base_change(Q, L)
    rho = {y: Q.reindex[eps.components[y]] for y in Q.base.objects}
    return DoctrineAdjunction(p, Q, L, identity_parts(p), R, rho, eta, eps)


@kept
def factorize(A: DoctrineAdjunction) -> tuple[DoctrineAdjunction, DoctrineAdjunction]:
    """Split A into a vertical adjunction into QL followed by the base-change
    adjunction; composing the two legs gives back A's 1-arrows on the nose.
    Built once per adjunction."""
    _require(adjunction_violations(A), "invalid adjunction")
    ql = am_doctrine(A)
    rho_prime = {}
    for x in A.p.base.objects:
        lx = A.left.obj_map[x]
        rho_prime[x] = compose_maps(A.p.reindex[A.eta.components[x]], A.rho[lx])
    vertical = vertical_adjunction(A.p, ql, dict(A.lam), rho_prime)
    base_change = base_change_adjunction(A.q, A.left, A.right, A.eta, A.eps)
    return vertical, base_change


def _composite_differences(b: OneArrow, a: OneArrow, c: OneArrow) -> list[str]:
    """Where b∘a differs from c, compared pointwise without building b∘a:
    `on objects and arrows` when the functors differ, else `at X` for each
    object X whose fiber maps differ. Raises as `compose_one_arrows` does
    when b and a do not compose."""
    if a.dst != b.src:
        raise ValueError("compose_one_arrows: boundary mismatch")
    if a.src != c.src or b.dst != c.dst:
        return ["between other doctrines"]
    if not same_functor_composite(b.functor, a.functor, c.functor):
        return ["on objects and arrows"]
    return [
        f"at {x}"
        for x in a.src.base.objects
        if not same_composite(b.parts[a.functor.obj_map[x]], a.parts[x], c.parts[x])
    ]


@kept
def factorization_violations(A: DoctrineAdjunction) -> list[str]:
    """The two legs of `factorize` compose back to A's left and right
    1-arrows, compared pointwise: the bottom two squares of the refined
    factorization. Scanned once per adjunction; a fresh list on every call."""
    vertical, base_change = factorize(A)
    left = _composite_differences(left_arrow(base_change), left_arrow(vertical), left_arrow(A))
    right = _composite_differences(right_arrow(vertical), right_arrow(base_change), right_arrow(A))
    return [f"left composite differs from the original left 1-arrow {w}" for w in left] + [
        f"right composite differs from the original right 1-arrow {w}" for w in right
    ]


def triviality_violations(A: DoctrineAdjunction) -> list[str]:
    """For a vertical adjunction, at each object: λρλ = λ, ρλρ = ρ, and both
    dichotomies, λρ = id ⟺ ρ injective ⟺ λ surjective and ρλ = id ⟺ λ
    injective ⟺ ρ surjective, all by enumeration. A dichotomy's witness
    shows its three truth values."""
    if not is_vertical(A):
        raise ValueError("triviality_violations requires a vertical adjunction")
    _require(adjunction_violations(A), "invalid adjunction")
    out = []
    for x in A.p.base.objects:
        lam, rho, pf, qf = A.lam[x], A.rho[x], A.p.fibers[x], A.q.fibers[x]
        lm, rm = lam.images, rho.images
        if any(lm[rm[u]] != u for u in lm):
            out.append(f"lam.rho.lam != lam at {x}")
        if any(rm[lm[v]] != v for v in rm):
            out.append(f"rho.lam.rho != rho at {x}")
        lam_image, rho_image = len(set(lm)), len(set(rm))  # positions: all of a fiber iff as many
        lr_id = is_identity_map(lam, qf, rho)
        rho_inj, lam_surj = rho_image == len(qf.elements), lam_image == len(qf.elements)
        if not lr_id == rho_inj == lam_surj:
            out.append(f"lam.rho = id is {lr_id}, rho injective {rho_inj}, lam surjective {lam_surj} at {x}")
        rl_id = is_identity_map(rho, pf, lam)
        lam_inj, rho_surj = lam_image == len(pf.elements), rho_image == len(pf.elements)
        if not rl_id == lam_inj == rho_surj:
            out.append(f"rho.lam = id is {rl_id}, lam injective {lam_inj}, rho surjective {rho_surj} at {x}")
    return out


@kept
def factorize2_report(A: DoctrineAdjunction) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
    """The two per-object tables of the refined factorization that `factor`
    prints, each object's witnesses: where λ misses a stable element or leaves
    the stable fiber, and where P(η)∘ρL identifies two stable elements. Built
    once per adjunction."""
    _, op = am_modality(A)
    stable = stable_subdoctrine(op)[0]
    rho_prime = factorize(A)[0].rho
    surjective, injective = {}, {}
    for x in A.p.base.objects:
        lam, rho, fiber = A.lam[x], rho_prime[x], stable.fibers[x]
        # the stable fiber is a sub-poset of QL at x, the target of λ and the
        # source of ρ′, at the positions `within` it keeps there
        at = range(len(fiber.elements)) if fiber.within is None else fiber.within
        image, kept, els = set(lam.images), set(at), fiber.elements
        missed = [f"lambda misses the stable element ({x},{els[j]})" for j, i in enumerate(at) if i not in image]
        outside = sorted(lam.dst.elements[i] for i in image if i not in kept)
        surjective[x] = (*missed, *(f"lambda leaves the stable fiber at ({x},{s})" for s in outside))
        seen, collisions = {}, []
        for j, i in enumerate(at):
            v = rho.images[i]
            if v in seen:
                collisions.append(f"eta.rho' identifies ({x},{els[seen[v]]}) and ({x},{els[j]})")
            seen[v] = j
        injective[x] = tuple(collisions)
    return surjective, injective


def factorize2_violations(A: DoctrineAdjunction) -> list[str]:
    """The refined factorization through the stable subdoctrine: λ onto the
    stable fibers and P(η)∘ρL injective on them (`factorize2_report`), the
    four commuting composites, the bottom two of which are
    `factorization_violations`, and the two new adjunctions of the diagram.

    That the box is the identity on every stable element is not scanned:
    `stable_subdoctrine` keeps at each object exactly `stable_elements`, the
    elements the box fixes."""
    surjective, injective = factorize2_report(A)
    out = [w for table in (surjective, injective) for found in table.values() for w in found]
    _, op = am_modality(A)
    stable, inclusion = stable_subdoctrine(op)
    rho_prime = factorize(A)[0].rho
    lam_bar = {x: restrict_map(A.lam[x], A.p.fibers[x], stable.fibers[x]) for x in A.p.base.objects}
    rho_bar = {x: restrict_map(rho_prime[x], stable.fibers[x], A.p.fibers[x]) for x in A.p.base.objects}
    upper_left = vertical_adjunction(A.p, stable, lam_bar, rho_bar)
    rho_upper = {}
    for y in A.q.base.objects:
        ry = A.right.obj_map[y]
        boxed = compose_maps(op.parts[ry], A.q.reindex[A.eps.components[y]])
        rho_upper[y] = restrict_map(boxed, A.q.fibers[y], stable.fibers[ry])
    upper_right = DoctrineAdjunction(stable, A.q, A.left, dict(inclusion.parts), A.right, rho_upper, A.eta, A.eps)
    top_left = _composite_differences(left_arrow(upper_right), left_arrow(upper_left), left_arrow(A))
    top_right = _composite_differences(right_arrow(upper_left), right_arrow(upper_right), right_arrow(A))
    out += [f"top_left_then_top_right_equals_left fails {w}" for w in top_left]
    out += [f"top_right_then_top_left_adjoints_equal_right fails {w}" for w in top_right]
    out += factorization_violations(A)
    out += [f"upper_left_adjunction: {w}" for w in adjunction_violations(upper_left)]
    out += [f"upper_right_adjunction: {w}" for w in adjunction_violations(upper_right)]
    return out


@value_class
class AdjMorphism:
    """A homomorphism of doctrine adjunctions ⟨F, f, G, g, θ⟩."""

    src: DoctrineAdjunction
    dst: DoctrineAdjunction
    fun_p: Functor
    parts_p: Mapping[str, MonotoneMap]
    fun_q: Functor
    parts_q: Mapping[str, MonotoneMap]
    theta: NatTransformation  # F R^A ⇒ R^B G


def p_arrow(m: AdjMorphism) -> OneArrow:
    return OneArrow(m.src.p, m.dst.p, m.fun_p, dict(m.parts_p))


def q_arrow(m: AdjMorphism) -> OneArrow:
    return OneArrow(m.src.q, m.dst.q, m.fun_q, dict(m.parts_q))


def adj_morphism_violations(m: AdjMorphism) -> list[str]:
    out = []
    out.extend("p-arrow: " + v for v in one_arrow_violations(p_arrow(m)))
    out.extend("q-arrow: " + v for v in one_arrow_violations(q_arrow(m)))
    if out:
        return out
    A, B = m.src, m.dst
    if not same_functor_composite(m.fun_q, A.left, B.left, m.fun_p):
        out.append("G L^A != L^B F")
        return out
    basePB = B.p.base
    for x in A.p.base.objects:
        lhs = basePB.comp(m.theta.components[A.left.obj_map[x]], m.fun_p.arr_map[A.eta.components[x]])
        rhs = B.eta.components[m.fun_p.obj_map[x]]
        if lhs != rhs:
            out.append(f"eta square fails at {x}")
    baseQB = B.q.base
    for y in A.q.base.objects:
        lhs = baseQB.comp(B.eps.components[m.fun_q.obj_map[y]], B.left.arr_map[m.theta.components[y]])
        rhs = m.fun_q.arr_map[A.eps.components[y]]
        if lhs != rhs:
            out.append(f"eps square fails at {y}")
    if out:
        return out
    left = compose_one_arrows(p_arrow(m), right_arrow(A))
    right = compose_one_arrows(right_arrow(B), q_arrow(m))
    out.extend("theta: " + v for v in two_arrow_violations(TwoArrow(left, right, m.theta)))
    for x in A.p.base.objects:
        if not same_composite(m.parts_q[A.left.obj_map[x]], A.lam[x], B.lam[m.fun_p.obj_map[x]], m.parts_p[x]):
            out.append(f"lambda coincidence fails at {x}")
    return out


def am_functor(m: AdjMorphism) -> OneArrow:
    """The modal 1-arrow ⟨F, g at L^A−⟩ between the induced modal doctrines."""
    src_doc, _ = am_modality(m.src)
    dst_doc, _ = am_modality(m.dst)
    return OneArrow(
        src_doc,
        dst_doc,
        m.fun_p,
        {x: m.parts_q[m.src.left.obj_map[x]] for x in m.src.p.base.objects},
    )

