"""Finite categories, functors, and natural transformations with full law checking.

A category is its arrows with their payloads and the payload operation
`compose`: g∘f is looked up by its payload when it is first asked for.
"""

from __future__ import annotations

from itertools import product

from .order import Field, FinPoset, _certified, _require, derived, kept, value_class


@value_class
class FinCategory:
    """A category given by its arrows, their payloads and `compose`. Only
    `concrete_category` constructs one, so every instance is associative with
    identities: the law checks on a generating set of arrows in
    `functor_violations` and `doctrine_violations` rely on that. == compares
    objects, arrows, identities and every composite."""

    objects: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (name, src, dst)
    identities: Mapping[str, str]  # object -> arrow name
    payload: Mapping[str, Hashable] = Field()  # arrow name -> payload
    compose: Callable[[Hashable, Hashable], Hashable] = Field()
    named: Mapping[tuple, str] = Field()  # (src, dst, payload) -> arrow name
    generators: tuple[str, ...] = Field()
    composites: dict = Field()  # (g, f) -> g∘f, kept once asked for
    _by_name: dict = Field(init=False)
    _names: tuple = Field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_name", {n: (s, d) for (n, s, d) in self.arrows})
        object.__setattr__(self, "_names", tuple(n for (n, _, _) in self.arrows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinCategory):
            return NotImplemented
        return self is other or (
            (self.objects, self.arrows, self.identities) == (other.objects, other.arrows, other.identities)
            and all(self.comp(g, f) == other.comp(g, f) for (g, s, _) in self.arrows for f in self.into[s])
        )

    def src(self, a: str) -> str:
        return self._by_name[a][0]

    def dst(self, a: str) -> str:
        return self._by_name[a][1]

    def has_arrow(self, a: str) -> bool:
        return a in self._by_name

    def id(self, x: str) -> str:
        return self.identities[x]

    def comp(self, g: str, f: str) -> str:
        """g∘f, defined when dst(f) = src(g): the arrow src(f) → dst(g) with
        payload compose(payload g, payload f), kept the first time it is asked for."""
        c = self.composites.get((g, f))
        if c is None:
            (s, m), (m2, d) = self._by_name[f], self._by_name[g]
            if m != m2:
                raise KeyError((g, f))
            c = self.composites[g, f] = self.named[s, d, self.compose(self.payload[g], self.payload[f])]
        return c

    def arrow_names(self) -> tuple[str, ...]:
        return self._names

    @derived
    def into(self) -> dict[str, list[str]]:
        """The arrows into each object, in declaration order."""
        found = {x: [] for x in self.objects}
        for (n, _, d) in self.arrows:
            found[d].append(n)
        return found

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return tuple(n for (n, s, d) in self.arrows if s == x and d == y)


def generating_arrows(arrows: Sequence[tuple[str, str, str]], composite: Callable[[tuple], str]) -> tuple[str, ...]:
    """Arrows that generate all arrows under composition, `composite((g, f))`
    naming g∘f, chosen in declaration order: an arrow is added when no
    right-fold composite g1∘(g2∘(…)) of those added before it reaches it. The
    walk asks for each generator g after each arrow x into src(g), once."""
    dst = {n: d for (n, _, d) in arrows}
    gens, out_of, reached, into = [], {}, set(), {}
    for (n, s, _) in arrows:
        if n in reached:
            continue
        gens.append(n)
        out_of.setdefault(s, []).append(n)
        todo = [n] + [composite((n, x)) for x in into.get(s, ())]
        while todo:
            x = todo.pop()
            if x not in reached:
                reached.add(x)
                into.setdefault(dst[x], []).append(x)
                todo.extend(composite((g, x)) for g in out_of.get(dst[x], ()))
    return tuple(gens)


def _shape_violations(objects: Sequence[str], arrows: Sequence, identities: Mapping[str, str]) -> list[str]:
    """Repeated names, dangling arrows and missing or misplaced identities."""
    out, known = [], set(objects)
    names = [n for (n, _, _) in arrows]
    if len(set(names)) != len(names):
        out.append("duplicate arrow names")
    if len(known) != len(objects):
        out.append("duplicate object names")
    by_name = {n: (s, d) for (n, s, d) in arrows}
    for (n, s, d) in arrows:
        if s not in known or d not in known:
            out.append(f"arrow {n} has dangling src/dst")
    for x in objects:
        i = identities.get(x)
        if i is None or i not in by_name:
            out.append(f"missing identity for {x}")
        elif by_name[i] != (x, x):
            out.append(f"identity of {x} is not an endo-arrow")
    return out


def category_violations(
    objects: Sequence[str],
    arrows: Sequence[tuple[str, str, str]],
    identities: Mapping[str, str],
    composition: Mapping[tuple[str, str], str],
) -> list[str]:
    out = _shape_violations(objects, arrows, identities)
    if out:
        return out
    by_name = {n: (s, d) for (n, s, d) in arrows}
    for (gn, gs, gd) in arrows:
        for (fn, fs, fd) in arrows:
            if fd == gs:
                c = composition.get((gn, fn))
                if c is None:
                    out.append(f"composition undefined for ({gn},{fn})")
                elif c not in by_name or by_name[c] != (fs, gd):
                    out.append(f"composite ({gn},{fn}) has wrong boundary")
    if out:
        return out
    for (fn, fs, fd) in arrows:
        if composition[(fn, identities[fs])] != fn:
            out.append(f"right identity law fails at {fn}")
        if composition[(identities[fd], fn)] != fn:
            out.append(f"left identity law fails at {fn}")
    if not out:
        # Light's test: the middle arrows g that associate are closed under ∘.
        ins, outs = {x: [] for x in objects}, {x: [] for x in objects}
        for (n, s, d) in arrows:
            ins[d].append(n)
            outs[s].append(n)
        walked = generating_arrows(arrows, composition.__getitem__)
        gh = {g: [composition[(g, h)] for h in ins[by_name[g][0]]] for g in walked}
        if _certified(
            [composition[(f, x)] for x in gh[g]] == [composition[(fg, h)] for h in ins[by_name[g][0]]]
            for g in gh
            for f in outs[by_name[g][1]]
            for fg in [composition[(f, g)]]
        ):
            return out
    for (hn, hs, hd) in arrows:
        for (gn, gs, gd) in arrows:
            if hd != gs:
                continue
            for (fn, fs, fd) in arrows:
                if gd != fs:
                    continue
                if composition[(fn, composition[(gn, hn)])] != composition[(composition[(fn, gn)], hn)]:
                    out.append(f"associativity fails on ({fn},{gn},{hn})")
    return out


def check_category(
    objects: Sequence[str],
    arrows: Sequence[tuple[str, str, str]],
    identities: Mapping[str, str],
    composition: Mapping[tuple[str, str], str],
) -> FinCategory | list[str]:
    """A valid category, or the exact failing law instances: after the law
    scan, `concrete_category` with each arrow's name as its payload and the
    checked table as `compose`."""
    bad = category_violations(objects, arrows, identities, composition)
    if bad:
        return bad
    table = dict(composition)
    return concrete_category(objects, arrows, {n: n for (n, _, _) in arrows}, identities, lambda g, f: table[g, f])


def concrete_category(
    objects: Sequence[str],
    arrows: Sequence[tuple[str, str, str]],
    payload: Mapping[str, Hashable],
    identity: Mapping[str, Hashable],
    compose: Callable[[Hashable, Hashable], Hashable],
    walk: Sequence[tuple[str, str, str]] | None = None,
) -> FinCategory:
    """The subcategory of a known category whose arrows `(name, src, dst)`
    carry `payload[name]`, with `identity[x]` the payload of x's identity and
    `compose(g, f)` that of g∘f, an operation the caller guarantees associative
    and unital. Identities and composites are found by looking up (src, dst,
    payload), a composite only when it is asked for. `walk` lists the same
    arrows in the order `generating_arrows` takes them, by default `arrows`.

    The walk of `generating_arrows` proves the arrows closed under
    composition: it asks for every composite g∘x of a generator g after an
    arrow x, and every arrow is a right fold g1∘(g2∘(…∘gk)) of generators, so
    for composable f the payload of g∘f is that of g1∘(g2∘(…∘(gk∘f))), each
    step of which composes a generator after an arrow. A miss raises `not a
    category: composition undefined for (g,f)`; a repeated name or (src,
    dst, payload) key, a dangling arrow or a missing identity raises first."""
    ends, name_of, composites = {n: (s, d) for (n, s, d) in arrows}, {}, {}
    for (n, s, d) in arrows:
        name_of.setdefault((s, d, payload[n]), n)
    identities = {x: name_of[x, x, identity[x]] for x in objects if (x, x, identity[x]) in name_of}
    shared = [(name_of[s, d, payload[n]], n) for (n, s, d) in arrows if name_of[s, d, payload[n]] != n]
    bad = _shape_violations(objects, arrows, identities) or [f"arrows {i} and {j} share a payload" for i, j in shared]
    _require(bad, "not a category")

    def composite(gf: tuple[str, str]) -> str:
        g, f = gf
        c = name_of.get((ends[f][0], ends[g][1], compose(payload[g], payload[f])))
        if c is None:
            raise ValueError(f"not a category: composition undefined for ({g},{f})")
        composites[gf] = c
        return c

    gens = generating_arrows(arrows if walk is None else walk, composite)  # fills `composites`
    return FinCategory(tuple(objects), tuple(arrows), identities, payload, compose, name_of, gens, composites)


def _thin_category(
    objects: Sequence[str], arrows: Sequence[tuple[str, str, str]], walk: Sequence[tuple[str, str, str]] | None = None
) -> FinCategory:
    """At most one arrow between two objects, so every payload is ()."""
    return concrete_category(
        objects, arrows, {n: () for n, *_ in arrows}, dict.fromkeys(objects, ()), lambda g, f: (), walk
    )


def discrete_category(objects: Sequence[str]) -> FinCategory:
    return _thin_category(objects, [(f"id_{x}", x, x) for x in objects])


def poset_category(p: FinPoset) -> FinCategory:
    """The category with at most one arrow x→y, present iff x ≤ y, declared
    out of each object in turn. The generator walk takes the identities
    first, then the covers, then the other arrows, each of which is a chain
    of covers and so already reached: the covers and identities are the
    generators, where the declared order would keep every arrow of a chain."""
    arrows = [(f"{a}<={b}", a, b) for a in p.elements for b in p.up(a)]
    covers = {(p.elements[i], p.elements[j]) for i, j in p.hasse()}
    rank = lambda t: 0 if t[1] == t[2] else 1 if t[1:] in covers else 2
    return _thin_category(p.elements, arrows, sorted(arrows, key=rank))


def function_arrow_name(src_obj: str, dst_obj: str, mapping: Mapping[str, str], src_order: Sequence[str]) -> str:
    graph = ",".join(f"{e}>{mapping[e]}" for e in src_order)
    return f"{src_obj}->{dst_obj}:{graph}"


def compose_images(g: tuple[int, ...], f: tuple[int, ...]) -> tuple[int, ...]:
    """g∘f for functions given as image positions in source order."""
    return tuple(g[i] for i in f)


def full_function_category(
    sets: Mapping[str, Sequence[str]],
    admits: Callable[[str, str, Mapping[str, str]], bool] | None = None,
) -> FinCategory:
    """The category on the named finite carriers whose arrows are the
    functions `admits(src, dst, graph)` accepts (every function when `admits`
    is None), named by `function_arrow_name`, with the position in sets[dst]
    of each image, in source order, as payload, and composed as functions.
    The accepted functions must contain the identities and be closed under
    composition; `concrete_category` rejects them otherwise.

    The generator walk takes the arrows by decreasing image size, in
    declaration order within a size. Any walk order proves closure, since
    the walk composes every generator after every arrow it has reached (see
    `concrete_category`); this one decides how few generators it keeps. The
    full transformation monoid on n points is generated by its bijections
    and one idempotent of rank n − 1 (Howie, *Fundamentals of Semigroup
    Theory*, 1995), so on one carrier the walk keeps n + 1: the identity,
    the n − 1 adjacent transpositions and one such idempotent, where the
    declared order keeps every function no earlier one reaches (6 of 3,125
    arrows at 5 points against 156)."""
    names = list(sets)
    arrows, images = [], {}
    for a, b in product(names, names):
        for image in product(range(len(sets[b])), repeat=len(sets[a])):
            mapping = {e: sets[b][i] for e, i in zip(sets[a], image)}
            if admits is None or admits(a, b, mapping):
                n = function_arrow_name(a, b, mapping, sets[a])
                arrows.append((n, a, b))
                images[n] = image
    walk = sorted(arrows, key=lambda t: -len(set(images[t[0]])))
    return concrete_category(names, arrows, images, {a: tuple(range(len(sets[a]))) for a in names}, compose_images, walk)


def all_functions(src: Iterable[str], dst: Iterable[str]):
    """Every function src → dst as a graph dict, images in `itertools.product`
    order; one empty function when src is empty, none when only dst is."""
    src = tuple(src)
    return (dict(zip(src, images)) for images in product(dst, repeat=len(src)))


@value_class
class Functor:
    """A functor given by its object and arrow tables. A value is never
    changed after it is built, tables included, so its law verdict is
    computed once and kept on it (`order.kept`)."""

    src: FinCategory
    dst: FinCategory
    obj_map: Mapping[str, str]
    arr_map: Mapping[str, str]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Functor):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and all(self.obj_map[x] == other.obj_map[x] for x in self.src.objects)
            and all(self.arr_map[a] == other.arr_map[a] for a in self.src.arrow_names())
        )


@kept
def functor_violations(F: Functor) -> list[str]:
    """Empty list iff F maps into its target and preserves boundaries,
    identities and composition; a fresh list on every call."""
    out = []
    for x in F.src.objects:
        if x not in F.obj_map:
            out.append(f"unmapped object {x}")
        elif F.obj_map[x] not in F.dst.objects:
            out.append(f"object image outside target: {x}")
    for a in F.src.arrow_names():
        if a not in F.arr_map:
            out.append(f"unmapped arrow {a}")
        elif not F.dst.has_arrow(F.arr_map[a]):
            out.append(f"arrow image outside target: {a}")
    if out:
        return out
    for a in F.src.arrow_names():
        if F.dst.src(F.arr_map[a]) != F.obj_map[F.src.src(a)] or F.dst.dst(F.arr_map[a]) != F.obj_map[F.src.dst(a)]:
            out.append(f"boundary not preserved at {a}")
    if out:
        return out
    for x in F.src.objects:
        if F.arr_map[F.src.id(x)] != F.dst.id(F.obj_map[x]):
            out.append(f"identity not preserved at {x}")
    # The arrows g with F(g∘f) = F g∘F f for every f are closed under
    # composition, since both categories are associative.
    C = F.src
    if not out and _certified(
        F.arr_map[C.comp(g, f)] == F.dst.comp(F.arr_map[g], F.arr_map[f]) for g in C.generators for f in C.into[C.src(g)]
    ):
        return out
    for g in F.src.arrow_names():
        for f in F.src.arrow_names():
            if F.src.dst(f) == F.src.src(g):
                if F.arr_map[F.src.comp(g, f)] != F.dst.comp(F.arr_map[g], F.arr_map[f]):
                    out.append(f"composition not preserved on ({g},{f})")
    return out


def fin_functor(src, dst, obj_map, arr_map) -> Functor:
    F = Functor(src, dst, dict(obj_map), dict(arr_map))
    _require(functor_violations(F), "not a functor")
    return F


@kept
def identity_functor(C: FinCategory) -> Functor:
    """The identity functor of C, one shared value per category."""
    return Functor(C, C, {x: x for x in C.objects}, {a: a for a in C.arrow_names()})


def compose_functors(G: Functor, F: Functor) -> Functor:
    """G∘F (apply F first)."""
    if F.dst != G.src:
        raise ValueError("compose_functors: boundary mismatch")
    return Functor(
        F.src,
        G.dst,
        {x: G.obj_map[F.obj_map[x]] for x in F.src.objects},
        {a: G.arr_map[F.arr_map[a]] for a in F.src.arrow_names()},
    )


def is_identity_functor(H: Functor, C: FinCategory) -> bool:
    """Whether H is the identity functor of C, read off H's tables."""
    return (
        H.src == C
        and H.dst == C
        and all(H.obj_map[x] == x for x in C.objects)
        and all(H.arr_map[a] == a for a in C.arrow_names())
    )


def same_functor_composite(G: Functor, F: Functor, G2: Functor, F2: Functor | None = None) -> bool:
    """Whether G∘F is the same functor as G2∘F2 (as G2 when `F2` is None),
    compared object by object and arrow by arrow up to the first difference,
    without building either composite. Raises as `compose_functors` does
    when a pair does not compose."""
    if F.dst != G.src or (F2 is not None and F2.dst != G2.src):
        raise ValueError("compose_functors: boundary mismatch")
    if F.src != (G2.src if F2 is None else F2.src) or G.dst != G2.dst:
        return False
    C = F.src
    if F2 is None:
        return all(G.obj_map[F.obj_map[x]] == G2.obj_map[x] for x in C.objects) and all(
            G.arr_map[F.arr_map[a]] == G2.arr_map[a] for a in C.arrow_names()
        )
    return all(G.obj_map[F.obj_map[x]] == G2.obj_map[F2.obj_map[x]] for x in C.objects) and all(
        G.arr_map[F.arr_map[a]] == G2.arr_map[F2.arr_map[a]] for a in C.arrow_names()
    )


@value_class
class NatTransformation:
    """A natural transformation given by its components, never changed after
    it is built, so its verdict is kept on it as a functor's is."""

    src: Functor
    dst: Functor
    components: Mapping[str, str]  # object of src.src -> arrow of src.dst


@kept
def nat_violations(t: NatTransformation) -> list[str]:
    """Empty list iff every component has the right boundary and every
    naturality square commutes; a fresh list on every call."""
    out = []
    F, G = t.src, t.dst
    if F.src != G.src or F.dst != G.dst:
        return ["boundary functors do not share categories"]
    C, D = F.src, F.dst
    for x in C.objects:
        a = t.components.get(x)
        if a is None:
            out.append(f"missing component at {x}")
        elif not D.has_arrow(a) or D.src(a) != F.obj_map[x] or D.dst(a) != G.obj_map[x]:
            out.append(f"component at {x} has wrong boundary")
    if out:
        return out
    for f in C.arrow_names():
        x, y = C.src(f), C.dst(f)
        if D.comp(t.components[y], F.arr_map[f]) != D.comp(G.arr_map[f], t.components[x]):
            out.append(f"naturality square fails at {f}")
    return out


def fin_nat(src, dst, components) -> NatTransformation:
    t = NatTransformation(src, dst, dict(components))
    _require(nat_violations(t), "not natural")
    return t


@kept
def identity_nat(F: Functor) -> NatTransformation:
    """The identity transformation of F, one shared value per functor."""
    return NatTransformation(F, F, {x: F.dst.id(F.obj_map[x]) for x in F.src.objects})


def adjunction_cat(L: Functor, R: Functor, eta: NatTransformation, eps: NatTransformation) -> list[str]:
    """Triangle identities for L ⊣ R, checked objectwise; empty list iff they hold."""
    out = []
    C, D = L.src, L.dst
    if R.src != D or R.dst != C:
        return ["boundary mismatch: R must go back from the target of L"]
    if not is_identity_functor(eta.src, C) or not same_functor_composite(R, L, eta.dst):
        out.append("eta has wrong boundary (expected Id => RL)")
    if not same_functor_composite(L, R, eps.src) or not is_identity_functor(eps.dst, D):
        out.append("eps has wrong boundary (expected LR => Id)")
    if out:
        return out
    out.extend("eta: " + v for v in nat_violations(eta))
    out.extend("eps: " + v for v in nat_violations(eps))
    if out:
        return out
    for x in C.objects:
        lhs = D.comp(eps.components[L.obj_map[x]], L.arr_map[eta.components[x]])
        if lhs != D.id(L.obj_map[x]):
            out.append(f"triangle (eps L)(L eta) = id fails at {x}")
    for y in D.objects:
        lhs = C.comp(R.arr_map[eps.components[y]], eta.components[R.obj_map[y]])
        if lhs != C.id(R.obj_map[y]):
            out.append(f"triangle (R eps)(eta R) = id fails at {y}")
    return out


def comonad_cat_violations(K: Functor, mu: NatTransformation, nu: NatTransformation) -> list[str]:
    """Counit and coassociativity laws for ⟨K,μ,ν⟩ on K.src; empty list iff they hold."""
    out = []
    C = K.src
    if K.dst != C:
        return ["K is not an endofunctor"]
    if mu.src != K or not same_functor_composite(K, K, mu.dst):
        out.append("mu has wrong boundary (expected K => KK)")
    if nu.src != K or not is_identity_functor(nu.dst, C):
        out.append("nu has wrong boundary (expected K => Id)")
    if out:
        return out
    out.extend("mu: " + v for v in nat_violations(mu))
    out.extend("nu: " + v for v in nat_violations(nu))
    if out:
        return out
    for x in C.objects:
        kx = K.obj_map[x]
        if C.comp(K.arr_map[nu.components[x]], mu.components[x]) != C.id(kx):
            out.append(f"counit law (K nu) mu = id fails at {x}")
        if C.comp(nu.components[kx], mu.components[x]) != C.id(kx):
            out.append(f"counit law (nu K) mu = id fails at {x}")
        lhs = C.comp(K.arr_map[mu.components[x]], mu.components[x])
        rhs = C.comp(mu.components[kx], mu.components[x])
        if lhs != rhs:
            out.append(f"coassociativity fails at {x}")
    return out


@value_class
class CoalgebraData:
    """Category of coalgebras for a base comonad, plus the forgetful functor,
    the structure arrow of each coalgebra object, and the coalgebra of each
    structure arrow: c: C → KC fixes its carrier C, so there is one per arrow."""

    category: FinCategory
    forgetful: Functor
    structure: Mapping[str, str]  # coalgebra object -> base arrow c: C → KC
    by_structure: Mapping[str, str]  # base arrow c: C → KC -> coalgebra object


def coalgebra_object_name(base_obj: str, structure_arrow: str) -> str:
    return f"<{base_obj}|{structure_arrow}>"


def coalgebra_arrow_name(src: str, dst: str, base_arrow: str) -> str:
    return f"{src}=>{dst}:{base_arrow}"


def coalgebra_category(K: Functor, mu: NatTransformation, nu: NatTransformation) -> CoalgebraData:
    """Eilenberg-Moore category of ⟨K,μ,ν⟩: objects are pairs ⟨C,c⟩ with the
    counit/coassociativity squares, arrows are base arrows commuting with the
    structure maps, composed as base arrows. Two coalgebras named alike raise.

    The generator walk takes the arrows over the base's generators first,
    in the base's generator order, then the rest as declared: over a
    vertical comonad (K the identity) every base arrow carries one arrow
    between the one coalgebra per object, so the walk keeps the base's
    generators and asks only for composites the base walk has kept.

    ⟨K,μ,ν⟩ must be a comonad on the base, which is not checked here:
    `comonad.em_doctrine`, the one caller in the library, builds it only from
    a comonad that passed `comonad_violations`, whose "(i)" part is
    `comonad_cat_violations` on the same K, μ and ν."""
    C = K.src
    structure = {}
    for x in C.objects:
        for c in C.hom(x, K.obj_map[x]):
            if C.comp(nu.components[x], c) == C.id(x) and C.comp(K.arr_map[c], c) == C.comp(mu.components[x], c):
                name = coalgebra_object_name(x, c)
                if name in structure:
                    raise ValueError(f"repeated coalgebra name {name!r}")
                structure[name] = c
    objs, carrier = list(structure), {o: C.src(c) for o, c in structure.items()}
    arrows, arrow_base = [], {}
    for o1, o2 in product(objs, objs):
        for f in C.hom(carrier[o1], carrier[o2]):
            if C.comp(structure[o2], f) == C.comp(K.arr_map[f], structure[o1]):
                n = coalgebra_arrow_name(o1, o2, f)
                arrows.append((n, o1, o2))
                arrow_base[n] = f
    first = {g: i for i, g in enumerate(C.generators)}
    walk = sorted(arrows, key=lambda t: first.get(arrow_base[t[0]], len(first)))
    em = concrete_category(objs, arrows, arrow_base, {o: C.id(carrier[o]) for o in objs}, C.comp, walk)
    # U is a functor by construction: its arrow map reads off the payloads
    return CoalgebraData(em, Functor(em, C, carrier, arrow_base), structure, {c: o for o, c in structure.items()})
