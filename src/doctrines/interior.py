"""Interior modal operators on doctrines: the T/4 law suite, stable elements,
the stable subdoctrine, and morphisms that respect the operators."""

from __future__ import annotations

from .doctrine import Doctrine, OneArrow, _reindex_fits, _table_digest, identity_parts, one_arrow_violations, sub_doctrine
from .order import MonotoneMap, _certified, _keeps_meets, kept, monotone_violations, same_composite, value_class


@value_class
class InteriorOp:
    """A natural family of monotone fiber endomaps that is deflationary (T)
    and satisfies the 4 axiom, hence is idempotent. A value is never changed
    after it is built, `parts` included, so its law verdict, its stable
    subdoctrine, its adjunction `comonad.ma` and its comonad `comonad.mc` are
    computed once and kept on it, and shared with an equal operator alive
    over the same base category object (`order.kept`, which reads
    `_digest()` and `_base()`)."""

    doctrine: Doctrine
    parts: Mapping[str, MonotoneMap]

    def _base(self):
        return self.doctrine.base

    def _digest(self) -> tuple:
        return _table_digest((self.doctrine,), (self.parts,))


def identity_interior(P: Doctrine) -> InteriorOp:
    return InteriorOp(P, identity_parts(P))


@kept
def interior_violations(op: InteriorOp) -> list[str]:
    """Empty list iff naturality, T, and 4 hold everywhere (T and 4 make
    each box idempotent); a fresh list on every call.

    T and 4 of a box m on a Boolean fiber of k bits are decided on its top ⊤
    and its k coatoms ⊤∖b when m kept the meet certificate of
    `monotone_violations` (`order._keeps_meets`), through `order._certified`,
    with the literal loop over every element on a miss. Proof. The meet
    certificate gives m(x) = m(⊤) ∧ ⋀_{b∉x} m(⊤∖b) for every x
    (`order._meets_certified`), and the bits missing from x ∧ y are those
    missing from x or from y, so m preserves meets. T at the coatoms gives
    m(x) ≤ ⋀_{b∉x} (⊤∖b) = x. x is the meet of ⊤ and the ⊤∖b with b∉x, so
    m(m(x)) = m(m(⊤)) ∧ ⋀_{b∉x} m(m(⊤∖b)), and 4 at ⊤ and the coatoms gives
    that this is ≥ m(⊤) ∧ ⋀_{b∉x} m(⊤∖b) = m(x)."""
    out = []
    P = op.doctrine
    for x in P.base.objects:
        m = op.parts.get(x)
        if m is None:
            out.append(f"missing box at {x}")
        elif m.src != P.fibers[x] or m.dst != P.fibers[x]:
            out.append(f"box at {x} is not a fiber endomap")
        else:
            out.extend(f"box at {x}: {v}" for v in monotone_violations(m))
    if out:
        return out
    for t in P.base.arrow_names():
        x, y = P.base.src(t), P.base.dst(t)
        try:
            natural = same_composite(op.parts[x], P.reindex[t], P.reindex[t], op.parts[y])
        except ValueError:  # the reindexing map is off its boundary, named below
            natural = False
        if not natural:
            out.append(
                f"naturality fails along {t}" if _reindex_fits(P, t) else f"reindexing along {t} has wrong boundary"
            )
    for x in P.base.objects:
        box, fib = op.parts[x].images, P.fibers[x]
        if _keeps_meets(op.parts[x]) and (at := fib._by_code) is not None:
            # T and 4 at i: the code of □i lies in those of i and of □□i
            top, c = len(at) - 1, fib.codes
            tops = [at[top], *[at[top ^ 1 << b] for b in range(top.bit_length())]]
            if _certified([not c[box[i]] & ~(c[i] & c[box[box[i]]]) for i in tops]):
                continue
        els = fib.elements
        for i in range(len(els)):
            if not fib.leq_at(box[i], i):
                out.append(f"axiom T fails at ({x},{els[i]})")
            if not fib.leq_at(box[i], box[box[i]]):
                out.append(f"axiom 4 fails at ({x},{els[i]})")
    # no idempotence check: T at □a and 4 give □□a ≤ □a ≤ □□a, and fibers are antisymmetric
    return out


def _fixed_positions(op: InteriorOp, x: str) -> list[int]:
    """The positions the box at x fixes, which must be its image."""
    box = op.parts[x].images
    fixed = [i for i, b in enumerate(box) if b == i]
    if fixed != sorted(set(box)):
        raise ValueError(f"box at {x} is not idempotent: its image differs from its fixed points")
    return fixed


def stable_elements(op: InteriorOp, x: str) -> tuple[str, ...]:
    """Fixed points of the box at x; equals the image of the box. Only their
    labels are read."""
    return tuple(map(op.doctrine.fibers[x].elements.__getitem__, _fixed_positions(op, x)))


@kept
def stable_subdoctrine(op: InteriorOp) -> tuple[Doctrine, OneArrow]:
    """The doctrine of box-stable elements over the same base, with its
    inclusion 1-arrow; reindexing is the restriction of the ambient one.
    Built once per operator."""
    P = op.doctrine
    keep = {x: _fixed_positions(op, x) for x in P.base.objects}
    return sub_doctrine(P, keep, "reindexing along {t} does not preserve stability")


def modal_one_arrow_violations(a: OneArrow, op_src: InteriorOp, op_dst: InteriorOp) -> list[str]:
    """Empty list iff f_X ∘ box_X ≤ box'_{FX} ∘ f_X everywhere.

    Precondition: both operators are interior operators (their
    `interior_violations` are empty). Then the inequality alone makes f map
    stable elements to stable elements, so that equality is not checked
    again: at □α it gives f(□α) = f(□□α) ≤ □′f(□α), and T for □′ gives
    □′f(□α) ≤ f(□α)."""
    out = one_arrow_violations(a)
    if out:
        return out
    if op_src.doctrine != a.src or op_dst.doctrine != a.dst:
        return ["operators do not live on the arrow's doctrines"]
    F = a.functor
    for x in a.src.base.objects:
        fx, box, box2 = a.parts[x].images, op_src.parts[x].images, op_dst.parts[F.obj_map[x]].images
        fib2, els = a.dst.fibers[F.obj_map[x]], a.src.fibers[x].elements
        out.extend(f"modal inequality fails at ({x},{els[i]})" for i in range(len(els)) if not fib2.leq_at(fx[box[i]], box2[fx[i]]))
    return out
