"""Doctrines (posets indexed over a finite category), their 1-arrows and
lax 2-arrows, and the derived doctrines: change of base, full sub-doctrines,
and the square/power doctrines used by the connective modalities.

Reindexing is stored contravariantly: the map attached to an arrow t: X → Y
goes fiber(Y) → fiber(X). All equalities between maps are extensional.
"""

from __future__ import annotations

from operator import attrgetter

from .fincat import (
    FinCategory,
    Functor,
    NatTransformation,
    compose_functors,
    functor_violations,
    identity_functor,
    nat_violations,
)
from .order import (
    FinPoset,
    MonotoneMap,
    _certified,
    _unions,
    compose_maps,
    identity_map,
    is_identity_map,
    monotone_violations,
    powerset_poset,
    product_poset,
    restrict_map,
    same_composite,
    sub_poset,
    value_class,
    value_graph,
    value_map,
)


@value_class
class Doctrine:
    base: FinCategory
    fibers: Mapping[str, FinPoset]
    reindex: Mapping[str, MonotoneMap]  # arrow name -> fiber(dst) → fiber(src)


def _reindex_fits(d: Doctrine, t: str) -> bool:
    """Whether the reindexing along t goes fiber(dst t) → fiber(src t)."""
    m = d.reindex[t]
    return m.src == d.fibers[d.base.dst(t)] and m.dst == d.fibers[d.base.src(t)]


def doctrine_violations(d: Doctrine) -> list[str]:
    """Empty list iff identity and composition contravariance laws hold."""
    out = []
    for x in d.base.objects:
        if x not in d.fibers:
            out.append(f"missing fiber at {x}")
    for a in d.base.arrow_names():
        if a not in d.reindex:
            out.append(f"missing reindexing along {a}")
    if out:
        return out
    for a in d.base.arrow_names():
        if not _reindex_fits(d, a):
            out.append(f"reindexing along {a} has wrong boundary")
            continue
        out.extend(f"reindexing along {a}: {v}" for v in monotone_violations(d.reindex[a]))
    if out:
        return out
    for x in d.base.objects:
        if not is_identity_map(d.reindex[d.base.id(x)], d.fibers[x]):
            out.append(f"reindex(id_{x}) is not the identity")
    # The arrows g with P(g∘f) = P f∘P g for every f are closed under
    # composition (the base and map composition are associative).
    B, P = d.base, d.reindex
    if not out and _certified(
        same_composite(P[f], P[g], P[B.comp(g, f)]) for g in B.generators for f in B.into[B.src(g)]
    ):
        return out
    for g in B.arrow_names():
        for f in B.arrow_names():
            if B.dst(f) == B.src(g) and not same_composite(P[f], P[g], P[B.comp(g, f)]):
                out.append(f"contravariance fails on ({g},{f})")
    return out


def inverse_image_doctrine(base: FinCategory, sets: Mapping[str, Sequence[str]]) -> Doctrine:
    """Powerset fibers over the function category `base` on `sets` (as
    `full_function_category` builds it), reindexed along g: X → Y by
    inverse image, B ↦ {e ∈ X | g(e) ∈ B}, on codes: the preimage of a
    union is the union of its points' preimages, so the preimage of a code
    t is that of t without its low bit, joined with its low bit's."""
    fibers = {x: powerset_poset(sets[x]) for x in base.objects}
    reindex = {}
    for (a, s, d) in base.arrows:
        points = [0] * len(sets[d])
        for i, j in enumerate(base.payload[a]):
            points[j] |= 1 << i
        pre, at = _unions(points), fibers[s]._by_code
        reindex[a] = MonotoneMap(fibers[d], fibers[s], tuple(at[pre[t]] for t in fibers[d].codes))
    return Doctrine(base, fibers, reindex)


def base_change(P: Doctrine, F: Functor) -> Doctrine:
    """P∘F: over each object X of F's source the fiber of P at F X,
    reindexed along F t."""
    return Doctrine(
        F.src,
        {x: P.fibers[F.obj_map[x]] for x in F.src.objects},
        {t: P.reindex[F.arr_map[t]] for t in F.src.arrow_names()},
    )


@value_class
class OneArrow:
    """A doctrine morphism ⟨F, f⟩: functor on bases plus a fiberwise family
    f_X: srcfiber(X) → dstfiber(F X), natural in X. Its verdict is not
    kept: the library builds each 1-arrow it checks afresh for that check."""

    src: Doctrine
    dst: Doctrine
    functor: Functor
    parts: Mapping[str, MonotoneMap]


def _table_digest(doctrines, families) -> tuple:
    """The `_digest()` of a value over `doctrines` with the fiber-map
    `families` (`order.kept` reads it to find an equal copy): the keys of
    each mapping, then each fiber's `value_key`, which stands for its values
    (== leaves them out) without computing them, or each fiber map's image
    tuple, in the order the mapping iterates them, all in one flat tuple.
    Two values that == finds equal have the same keys in each mapping, so
    equal digests pair each key with equal values on both. Functor, unit and
    counit tables are left to ==, which a matching digest runs anyway."""
    out = []
    for d in doctrines:
        out += d.fibers
        out += map(_value_keys, d.fibers.values())
    for parts in families:
        out += parts
        out += map(_images, parts.values())
    return tuple(out)


_value_keys, _images = attrgetter("value_key"), attrgetter("images")


def one_arrow_violations(a: OneArrow) -> list[str]:
    """Empty list iff the fiber family is natural (as an equality of maps)."""
    out = []
    P, Q = a.src, a.dst
    if a.functor.src != P.base or a.functor.dst != Q.base:
        return ["functor boundary mismatch"]
    out.extend("functor: " + v for v in functor_violations(a.functor))
    for x in P.base.objects:
        m = a.parts.get(x)
        if m is None:
            out.append(f"missing fiber map at {x}")
        elif m.src != P.fibers[x] or m.dst != Q.fibers[a.functor.obj_map[x]]:
            out.append(f"fiber map at {x} has wrong boundary")
        else:
            out.extend(f"fiber map at {x}: {v}" for v in monotone_violations(m))
    if out:
        return out
    for t in P.base.arrow_names():
        x, y, ft = P.base.src(t), P.base.dst(t), a.functor.arr_map[t]
        try:
            natural = same_composite(a.parts[x], P.reindex[t], Q.reindex[ft], a.parts[y])
        except ValueError:  # a reindexing map is off its boundary, named below
            natural = False
        if not natural:
            out.append(
                f"source reindexing along {t} has wrong boundary" if not _reindex_fits(P, t)
                else f"target reindexing along {ft} has wrong boundary" if not _reindex_fits(Q, ft)
                else f"naturality fails along {t}"
            )
    return out


def identity_parts(P: Doctrine) -> dict[str, MonotoneMap]:
    """The identity map of every fiber of P."""
    return {x: identity_map(P.fibers[x]) for x in P.base.objects}


def compose_one_arrows(b: OneArrow, a: OneArrow) -> OneArrow:
    """b∘a: functor part composes, fiber part is (b at F_a X) ∘ (a at X)."""
    if a.dst != b.src:
        raise ValueError("compose_one_arrows: boundary mismatch")
    return OneArrow(
        a.src,
        b.dst,
        compose_functors(b.functor, a.functor),
        {
            x: compose_maps(b.parts[a.functor.obj_map[x]], a.parts[x])
            for x in a.src.base.objects
        },
    )


def sub_doctrine(P: Doctrine, keep: Mapping[str, Sequence[int]], leaves: str) -> tuple[Doctrine, OneArrow]:
    """The full sub-doctrine of P on the elements at the increasing positions
    `keep[X]` of each fiber, reindexed by restriction, with its inclusion
    1-arrow. Raises ValueError(leaves.format(t=..., a=...)) at the first
    arrow t and element a, in base order, whose reindexed image is not kept."""
    fibers = {x: sub_poset(P.fibers[x], keep[x]) for x in P.base.objects}
    ordered = {x: sorted(set(keep[x])) for x in P.base.objects}
    kept = {x: set(at) for x, at in ordered.items()}
    reindex = {}
    for t in P.base.arrow_names():
        x, y = P.base.src(t), P.base.dst(t)
        m = P.reindex[t]
        for j in ordered[y]:
            if m.images[j] not in kept[x]:
                raise ValueError(leaves.format(t=t, a=P.fibers[y].elements[j]))
        reindex[t] = restrict_map(m, fibers[y], fibers[x])
    sub = Doctrine(P.base, fibers, reindex)
    inclusion = {x: restrict_map(identity_map(P.fibers[x]), fibers[x], P.fibers[x]) for x in P.base.objects}
    return sub, OneArrow(sub, P, identity_functor(P.base), inclusion)


@value_class
class TwoArrow:
    """A lax 2-cell θ between parallel 1-arrows: natural transformation of the
    functor parts with f_X ≤ Q(θ_X) ∘ f'_X pointwise."""

    src: OneArrow
    dst: OneArrow
    theta: NatTransformation


def two_arrow_violations(t: TwoArrow) -> list[str]:
    out = []
    a, b = t.src, t.dst
    if a.src != b.src or a.dst != b.dst:
        return ["boundary 1-arrows do not share doctrines"]
    if t.theta.src != a.functor or t.theta.dst != b.functor:
        return ["theta has wrong functor boundary"]
    out.extend("theta: " + v for v in nat_violations(t.theta))
    if out:
        return out
    Q = a.dst
    for x in a.src.base.objects:
        fx, gx = a.parts[x].images, b.parts[x].images
        rein, fib, els = Q.reindex[t.theta.components[x]].images, Q.fibers[a.functor.obj_map[x]], a.src.fibers[x].elements
        out.extend(f"lax inequality fails at ({x},{els[i]})" for i in range(len(els)) if not fib.leq_at(fx[i], rein[gx[i]]))
    return out


def square_doctrine(P: Doctrine) -> tuple[Doctrine, OneArrow]:
    """The doctrine of componentwise-ordered pairs, with the diagonal 1-arrow;
    a pair's value is the pair of its components' values."""
    fibers = {x: product_poset(P.fibers[x], P.fibers[x]) for x in P.base.objects}
    reindex = {}
    for t in P.base.arrow_names():
        m = value_graph(P.reindex[t])
        reindex[t] = value_map(fibers[P.base.dst(t)], fibers[P.base.src(t)], lambda ab: (m[ab[0]], m[ab[1]]))
    squared = Doctrine(P.base, fibers, reindex)
    diagonal = OneArrow(
        P,
        squared,
        identity_functor(P.base),
        {x: value_map(P.fibers[x], fibers[x], lambda a: (a, a)) for x in P.base.objects},
    )
    return squared, diagonal


@value_class
class ProductData:
    """Chosen binary product of a base object with the fixed object: the
    product object and its first projection."""

    prod_obj: str
    proj1: str


def restrict_doctrine(P: Doctrine, sub: FinCategory) -> Doctrine:
    """P over a subcategory of its base (objects and arrows must belong to it)."""
    inclusion = Functor(sub, P.base, {x: x for x in sub.objects}, {a: a for a in sub.arrow_names()})
    return base_change(P, inclusion)


def power_doctrine(
    P: Doctrine,
    sub: FinCategory,
    products: Mapping[str, ProductData],
    times: Mapping[str, str],
) -> tuple[Doctrine, OneArrow]:
    """The doctrine Y ↦ P(Y×X) over `sub` with reindexing along f×id_X, plus
    the weakening 1-arrow built from the first projections.

    `sub` is the part of P's base where chosen products with a fixed object
    X are supplied: `products[Y]` gives the product Y×X inside P's base and
    its first projection Y×X → Y, and `times[f]` gives f×id_X: Y×X → Z×X
    for every arrow f: Y → Z of `sub`, the one arrow that commutes with both
    projections. Nothing is checked: the caller builds that data correct, as
    `instances.forall_instance` does. Then Y ↦ Y×X, f ↦ f×id_X is a functor,
    since id×id_X and (g×id_X)∘(f×id_X) commute with the projections as
    id and (g∘f)×id_X do, and such an arrow is unique."""
    powered = base_change(P, Functor(sub, P.base, {y: products[y].prod_obj for y in sub.objects}, times))
    weakening = OneArrow(
        restrict_doctrine(P, sub),
        powered,
        identity_functor(sub),
        {y: P.reindex[products[y].proj1] for y in sub.objects},
    )
    return powered, weakening
