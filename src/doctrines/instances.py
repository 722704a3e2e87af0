"""Concrete doctrines and interior operators: Kripke frames (plain and
family-indexed), finite topological spaces, finite commutative quantales with
the exponential ("bang") modality, finite presheaves with the
largest-subpresheaf modality, and the conjunction/universal-quantifier
connective modalities.

Every construction is validated eagerly or proves what it leaves unchecked,
with an independent oracle where the induced operator has a second definition.
"""

from __future__ import annotations

from itertools import combinations, product

from .adjunction import DoctrineAdjunction, vertical_adjunction, vertical_modality
from .doctrine import (
    Doctrine,
    ProductData,
    inverse_image_doctrine,
    power_doctrine,
    restrict_doctrine,
    square_doctrine,
    sub_doctrine,
)
from .fincat import (
    FinCategory,
    all_functions,
    compose_images,
    concrete_category,
    full_function_category,
)
from .interior import InteriorOp
from .order import (
    Field,
    FinLattice,
    FinPoset,
    MonotoneMap,
    _positions,
    _require,
    _unions,
    chain_poset,
    kept,
    lattice_from_poset,
    powerset_poset,
    product_order,
    sub_poset,
    subset_label,
    subsets_in_order,
    value_class,
    value_map,
)


# ---------------------------------------------------------------------------
# Kripke frames


@value_class
class KripkeFrame:
    worlds: tuple[str, ...]
    rel: frozenset[tuple[str, str]]
    _successors: dict = Field(init=False)

    def __post_init__(self):
        succ: dict = {}
        for (u, v) in self.rel:
            succ.setdefault(u, set()).add(v)
        object.__setattr__(self, "_successors", {u: frozenset(vs) for u, vs in succ.items()})

    def successors(self, w: str) -> frozenset[str]:
        return self._successors.get(w, frozenset())


def frame_violations(frame: KripkeFrame) -> list[str]:
    worlds = set(frame.worlds)
    out = [f"relation mentions unknown world: ({a},{b})" for a, b in sorted(frame.rel) if not {a, b} <= worlds]
    for w in frame.worlds:
        if (w, w) not in frame.rel:
            out.append(f"not reflexive at {w}")
    for (a, b) in sorted(frame.rel):
        for (c, d) in sorted(frame.rel):
            if b == c and (a, d) not in frame.rel:
                out.append(f"not transitive: {a}->{b}->{d}")
    return out


def _pointwise_fiber(keys: Sequence[str], factors: Sequence[FinPoset]) -> FinPoset:
    """Poset of all assignments of an element of factors[i] to keys[i],
    labelled `[k:e;…]`, joined from each key's `k:e` parts, valued
    by the tuple of the factors' values in key order, and ordered pointwise
    by `product_order`; m is covered by raising one value to a cover of it
    in its factor. A one-key fiber keeps its factor's codes and covers, so
    one over a powerset is Boolean and derives its covers on first use."""
    parts = [[f"{k}:{e}" for e in f.elements] for k, f in zip(keys, factors)]
    labels = tuple("[" + ";".join(combo) + "]" for combo in product(*parts))
    values = tuple(product(*(f.values for f in factors)))
    if len(factors) == 1:
        return FinPoset(labels, factors[0].codes, factors[0].covers, values)
    # raising the value at key k from c to a cover d moves the assignment's
    # position by (d - c) times the stride of k
    stride, raises = 1, []
    for f in reversed(factors):
        steps = [[] for _ in f.elements]
        for (c, d) in f.hasse():
            steps[c].append((d - c) * stride)
        raises.insert(0, steps)
        stride *= len(f.elements)
    positions = _positions(len(labels))
    covers = [
        (i, positions[i + step])
        for i, combo in zip(positions, product(*(range(len(f.elements)) for f in factors)))
        for steps, c in zip(raises, combo)
        for step in steps[c]
    ]
    return FinPoset(labels, product_order(factors), tuple(covers), values)


def _function_fiber(domain: Sequence[str], codomain: FinPoset) -> FinPoset:
    """Poset of all functions domain → codomain, ordered pointwise."""
    return _pointwise_fiber(domain, [codomain] * len(domain))


def _digit_images(parts: Sequence[Sequence[int]], size: int) -> tuple[int, ...]:
    """Σ_k parts[k][a_k] for every tuple of digits a, in `itertools.product`
    order (first digit slowest), built digit by digit: the images of a map
    between function fibers whose target position is a sum of one term per
    digit of the source position, as the shared positions of a target of
    `size` elements."""
    images = [0]
    for part in parts:
        images = [p + q for p in images for q in part]
    return tuple(map(_positions(size).__getitem__, images))


def _function_doctrine(base: FinCategory, sets: Mapping[str, Sequence[str]], codomain: FinPoset) -> Doctrine:
    """The doctrine codomain^X over the function category `base` on `sets`, reindexed along g: s → d by
    precomposition α ↦ α∘g. With c = |codomain|, a fiber position is the
    mixed-radix number Σ_k α_k·c^(|s|−1−k) of α's codomain positions, so α∘g
    sits at Σ_j α_j·w_j, where w_j is the sum of the c^(|s|−1−k) over the
    k with g(e_k) = e′_j."""
    fibers = {x: _function_fiber(sets[x], codomain) for x in base.objects}
    c = len(codomain.elements)
    reindex = {}
    for (a, s, d) in base.arrows:
        weights, n = [0] * len(sets[d]), len(sets[s])
        for k, j in enumerate(base.payload[a]):
            weights[j] += c ** (n - 1 - k)
        parts = [[digit * w for digit in range(c)] for w in weights]
        reindex[a] = MonotoneMap(fibers[d], fibers[s], _digit_images(parts, len(fibers[s].elements)))
    return Doctrine(base, fibers, reindex)


def _postcompose(src: Doctrine, dst: Doctrine, table: Sequence[int], width: int) -> dict[str, MonotoneMap]:
    """The fiber maps α ↦ f∘α from the function doctrine `src` to `dst`, one
    per object, where table[i] is the position of f(i) among the `width`
    elements of the target codomain, for i a position of the source
    codomain: on n keys, f∘α sits at Σ_k table[α_k]·width^(n−1−k). n is the
    length of a fiber element's value, the tuple of its codomain values."""
    out = {}
    for x in src.base.objects:
        fiber, size = src.fibers[x], len(dst.fibers[x].elements)
        n = len(fiber.values[0])
        parts = [[t * width ** (n - 1 - k) for t in table] for k in range(n)]
        out[x] = MonotoneMap(fiber, dst.fibers[x], _digit_images(parts, size))
    return out


def powerset_doctrine(sets: Mapping[str, Sequence[str]]) -> Doctrine:
    """Powerset doctrine over the full function category, inverse-image reindexing."""
    return inverse_image_doctrine(full_function_category(sets), sets)


def kripke_doctrine(frame: KripkeFrame, sets: Mapping[str, Sequence[str]]) -> tuple[Doctrine, InteriorOp]:
    """Fibers are world-valued predicates pw(W)^D over the full function
    category on `sets`; the operator postcomposes with the frame box. The
    interior laws hold iff the frame is a preorder (interior_violations reports
    the failure otherwise). A code's box: the worlds whose successors it holds."""
    wposet = powerset_poset(frame.worlds)
    doc = _function_doctrine(full_function_category(sets), sets, wposet)
    # w is outside the box of c iff a successor of w is outside c, so the
    # worlds outside it are the union, over the v outside c, of v's predecessors
    at, worlds = wposet._by_code, frame.worlds
    pred = [sum(1 << i for i, w in enumerate(worlds) if v in frame.successors(w)) for v in worlds]
    outside, top = _unions(pred), len(at) - 1
    box = [at[top ^ outside[top ^ c]] for c in wposet.codes]
    return doc, InteriorOp(doc, _postcompose(doc, doc, box, len(box)))


# ---------------------------------------------------------------------------
# W-indexed families


@value_class
class IndexedFamily:
    name: str
    carrier: tuple[str, ...]
    parts: Mapping[str, frozenset[str]]  # world -> subset of carrier


def family_element_label(carrier_subset, parts, carrier_order, worlds) -> str:
    c = subset_label(carrier_subset, carrier_order)
    body = ";".join(f"{w}:{subset_label(parts[w], carrier_order)}" for w in worlds)
    return f"({c}|{body})"


def _part_keeping_maps(s: IndexedFamily, d: IndexedFamily, worlds: Sequence[str]) -> list[tuple[int, ...]]:
    """The functions g: s → d that send each member of the part of s at
    every world into the part of d at that world, as the position in d of
    the image of each element of s, in `itertools.product` order: the
    product, over the carrier of s in order, of the positions each element
    may go to, those in the part of d at every world whose part of s holds
    the element. The identities keep parts, and so does h∘g when g and h
    do, so they form a category."""
    allowed = [
        [j for j, y in enumerate(d.carrier) if all(y in d.parts[w] for w in worlds if e in s.parts[w])]
        for e in s.carrier
    ]
    return list(product(*allowed))


def fam_doctrine(frame: KripkeFrame, families: Sequence[IndexedFamily]) -> tuple[Doctrine, InteriorOp]:
    """Subfamily-style doctrine over the category of W-indexed families on the
    given objects; fiber elements are a sub-carrier plus world-indexed parts
    inside it, reindexed by plain pointwise inverse image. The operator
    intersects the parts over all successor worlds."""
    worlds = frame.worlds
    fams = {f.name: f for f in families}
    if len(fams) != len(families):
        raise ValueError("duplicate family names")

    homs = {(s.name, d.name): _part_keeping_maps(s, d, worlds) for s in families for d in families}
    base = full_function_category({f.name: f.carrier for f in families}, homs)

    fibers = {}
    for f in families:
        # (c, p) is coded by c's carrier bitmask beside each p[w]'s, so
        # (c, p) ≤ (c', p'), that is c ⊆ c' and each p[w] ⊆ p'[w], is inclusion of codes
        labels, codes, values = [], [], []
        for carrier_sub in subsets_in_order(f.carrier):
            sub_order = [e for e in f.carrier if e in carrier_sub]
            for parts in product(subsets_in_order(sub_order), repeat=len(worlds)):
                labels.append(family_element_label(carrier_sub, dict(zip(worlds, parts)), f.carrier, worlds))
                bits = enumerate(e in part for part in (carrier_sub, *parts) for e in f.carrier)
                codes.append(sum(1 << b for b, held in bits if held))
                values.append((carrier_sub, parts))
        fibers[f.name] = FinPoset(tuple(labels), tuple(codes), values=tuple(values))

    def inverse_image(s, d, image):
        def pre(part):
            return frozenset(e for e, i in zip(fams[s].carrier, image) if fams[d].carrier[i] in part)

        return lambda cp: (pre(cp[0]), tuple(map(pre, cp[1])))

    reindex = {n: value_map(fibers[d], fibers[s], inverse_image(s, d, base.payload[n])) for (n, s, d) in base.arrows}
    doc = Doctrine(base, fibers, reindex)

    successors = [[worlds.index(v) for v in sorted(frame.successors(w))] for w in worlds]

    def box(cp):
        c, p = cp
        return c, tuple(frozenset.intersection(*[p[v] for v in vs]) if vs else c for vs in successors)

    parts_maps = {f.name: value_map(fibers[f.name], fibers[f.name], box) for f in families}
    return doc, InteriorOp(doc, parts_maps)


# ---------------------------------------------------------------------------
# Finite topological spaces


@value_class
class FiniteTopSpace:
    name: str
    points: tuple[str, ...]
    opens: frozenset[frozenset[str]]


def space_violations(s: FiniteTopSpace) -> list[str]:
    out = []
    pts = frozenset(s.points)
    if frozenset() not in s.opens:
        out.append("empty set not open")
    if pts not in s.opens:
        out.append("whole space not open")
    for u in s.opens:
        if not u <= pts:
            out.append("open set outside the space")
        for v in s.opens:
            if u | v not in s.opens:
                out.append(f"not closed under union: {sorted(u)} ∪ {sorted(v)}")
            if u & v not in s.opens:
                out.append(f"not closed under intersection: {sorted(u)} ∩ {sorted(v)}")
    return out


def interior_of(space: FiniteTopSpace, a: frozenset[str]) -> frozenset[str]:
    acc = frozenset()
    for u in space.opens:
        if u <= a:
            acc |= u
    return acc


def _least_opens(s: FiniteTopSpace) -> list[int]:
    """Per point x, the mask of point positions of U_x, the least open
    holding x: the intersection of the opens that do, which is open, as a
    topology is closed under finite intersections and holds the whole space."""
    at, least = {p: i for i, p in enumerate(s.points)}, [(1 << len(s.points)) - 1] * len(s.points)
    for u in s.opens:
        mask = sum(1 << at[p] for p in u)
        for p in u:
            least[at[p]] &= mask
    return least


def _open_continuous_maps(s: FiniteTopSpace, t: FiniteTopSpace) -> list[tuple[int, ...]]:
    """Every open continuous map g: s → t of two spaces that pass
    `space_violations`, as the position in t of the image of each point of
    s, in `itertools.product` order. The identities are open and continuous,
    and so is h∘g when g and h are, since (h∘g)⁻¹ = g⁻¹∘h⁻¹ and
    (h∘g)[u] = h[g[u]], so they form a category.

    Found by search, not by testing all |t|^|s| functions. A finite space
    is the preorder x ⊑ y iff y ∈ U_x, whose up-sets are its opens
    (Alexandroff, "Diskrete Räume", Mat. Sbornik 2, 1937), and g is open and
    continuous iff g[U_x] = U_g(x) at every x, the back-and-forth condition
    of a bounded morphism (Blackburn, de Rijke and Venema, *Modal Logic*,
    2001, ch. 2): continuity gives g[U_x] ⊆ U_g(x), as g⁻¹(U_g(x)) is an
    open holding x, and openness the converse, as g[U_x] is an open holding
    g(x); conversely the preimage of an open V holds U_x with each of its
    points x, so it is a union of opens, and g[U] is the union of the U_g(x)
    over the x in U. So the search gives the points of s their images in
    order, each image in turn, drops a branch where two assigned points
    break monotonicity (y ∈ U_x with g(y) ∉ U_g(x)), and checks
    g[U_x] = U_g(x) once the last point of U_x is assigned. Each map is
    reached once, and smaller images are tried first: product order."""
    up_s, up_t = _least_opens(s), _least_opens(t)
    n = len(up_s)
    # per point k, the earlier points in U_k and those whose U_y holds k, and
    # the x whose U_x is complete once k is assigned
    inside = [[y for y in range(k) if up_s[k] >> y & 1] for k in range(n)]
    around = [[y for y in range(k) if up_s[y] >> k & 1] for k in range(n)]
    closes = [[x for x in range(n) if up_s[x].bit_length() - 1 == k] for k in range(n)]
    g, out, k = [-1] * n, [], 0
    while k >= 0:  # a loop, not a recursion, so the search leaves no reference cycle behind
        if k == n:
            out.append(tuple(g))
            k -= 1
            continue
        g[k] += 1
        v = g[k]
        if v == len(up_t):
            g[k] = -1
            k -= 1
        elif (
            all(up_t[v] >> g[y] & 1 for y in inside[k])
            and all(up_t[g[y]] >> v & 1 for y in around[k])
            and all(_image_mask(g, up_s[x]) == up_t[g[x]] for x in closes[k])
        ):
            k += 1
    return out


def _image_mask(g: Sequence[int], mask: int) -> int:
    """The mask of the images under g of the positions set in `mask`."""
    image = 0
    while mask:
        image |= 1 << g[(mask & -mask).bit_length() - 1]
        mask &= mask - 1
    return image


def open_continuous_homs(spaces: Sequence[FiniteTopSpace]) -> dict[tuple[str, str], list[tuple[int, ...]]]:
    """The open continuous maps of every ordered pair of spaces, by name, as
    `_open_continuous_maps` lists them; each space must pass `space_violations`."""
    return {(s.name, t.name): _open_continuous_maps(s, t) for s in spaces for t in spaces}


def topological_doctrine(
    spaces: Sequence[FiniteTopSpace], homs: Mapping[tuple[str, str], list[tuple[int, ...]]] | None = None
) -> tuple[Doctrine, InteriorOp]:
    """Powerset fibers over the category of open continuous maps, with the
    topological interior as operator; its naturality holds as an equality.
    `homs` passes the `open_continuous_homs` of `spaces` when the caller has
    them, so that no map is searched for twice."""
    for s in spaces:
        _require(space_violations(s), f"invalid space {s.name}")
    if len({s.name for s in spaces}) != len(spaces):
        raise ValueError("duplicate space names")
    if homs is None:
        homs = open_continuous_homs(spaces)
    points = {s.name: s.points for s in spaces}
    base = full_function_category(points, homs)
    doc = inverse_image_doctrine(base, points)
    parts = {s.name: value_map(doc.fibers[s.name], doc.fibers[s.name], lambda a: interior_of(s, a)) for s in spaces}
    return doc, InteriorOp(doc, parts)


# ---------------------------------------------------------------------------
# Finite commutative quantales


@value_class
class FiniteQuantale:
    """A finite commutative quantale. A value is never changed after it is
    built, `tensor` included, so its law verdict is computed once and kept
    on it (`order.kept`)."""

    name: str
    lattice: FinLattice
    tensor: Mapping[tuple[str, str], str]
    unit: str


@kept
def quantale_violations(q: FiniteQuantale) -> list[str]:
    """Every failing quantale law with its witness; a fresh list on every call."""
    els = q.lattice.carrier.elements
    out = [] if q.unit in els else [f"unit mentions unknown element: {q.unit}"]
    out += [f"tensor mentions unknown element: ({a},{b})" for a, b in sorted(q.tensor) if a not in els or b not in els]
    for a in els:
        if q.tensor.get((a, q.unit)) != a or q.tensor.get((q.unit, a)) != a:
            out.append(f"unit law fails at {a}")
        for b in els:
            if (a, b) not in q.tensor or q.tensor[(a, b)] not in els:
                out.append(f"tensor missing or outside carrier at ({a},{b})")
                return out
            if q.tensor[(a, b)] != q.tensor[(b, a)]:
                out.append(f"commutativity fails at ({a},{b})")
            for c in els:
                if q.tensor[(q.tensor[(a, b)], c)] != q.tensor[(a, q.tensor[(b, c)])]:
                    out.append(f"associativity fails at ({a},{b},{c})")
    # distributivity over every finite join holds iff it holds over the empty
    # join and over each binary one
    lat = q.lattice
    for x in els:
        if q.tensor[(x, lat.bottom)] != lat.bottom:
            out.append(f"tensor does not distribute over the join of [] at {x}")
        for a, b in combinations(els, 2):
            if q.tensor[(x, lat.join[(a, b)])] != lat.join[(q.tensor[(x, a)], q.tensor[(x, b)])]:
                out.append(f"tensor does not distribute over the join of {sorted((a, b))} at {x}")
    return out


def valid_quantale(name, lattice, tensor, unit) -> FiniteQuantale:
    q = FiniteQuantale(name, lattice, dict(tensor), unit)
    _require(quantale_violations(q), f"invalid quantale {name}")
    return q


def bool_quantale() -> FiniteQuantale:
    lat = lattice_from_poset(chain_poset(["0", "1"]))
    tensor = {(a, b): lat.meet[(a, b)] for a in "01" for b in "01"}
    return valid_quantale("bool", lat, tensor, "1")


def lukasiewicz3() -> FiniteQuantale:
    """The 3-chain 0 ≤ h ≤ 1 with x⊗y = max(0, x+y−1)."""
    lat = lattice_from_poset(chain_poset(["0", "h", "1"]))
    val = {"0": 0.0, "h": 0.5, "1": 1.0}
    back = {0.0: "0", 0.5: "h", 1.0: "1"}
    tensor = {
        (a, b): back[max(0.0, val[a] + val[b] - 1.0)]
        for a in val
        for b in val
    }
    return valid_quantale("luk3", lat, tensor, "1")


@value_class
class QuantaleCore:
    elements: tuple[str, ...]
    sub: FinPoset
    iota: MonotoneMap  # sub → Q
    r: MonotoneMap  # Q → sub


def _core_of(q: FiniteQuantale, elements: list[str]) -> QuantaleCore:
    """The sub-poset of Q on `elements`, its inclusion ι and r(x) =
    ⋁{y ∈ elements | y ≤ x}. r lands in `elements` when they hold ⊥ and
    each binary join of two of them; the callers' sets do."""
    order, join = q.lattice.carrier, q.lattice.join
    sub = sub_poset(order, elements)
    iota = MonotoneMap(sub, order, tuple(map(order.index, elements)))
    r = []
    for x in order.elements:
        below = q.lattice.bottom
        for y in elements:
            if order.leq(y, x):
                below = join[(below, y)]
        r.append(sub.index(below))
    return QuantaleCore(tuple(elements), sub, iota, MonotoneMap(order, sub, tuple(r)))


def quantale_core(q: FiniteQuantale) -> QuantaleCore:
    """The core C = {x | x ≤ 1, x ≤ x⊗x} of Q, a sub-quantale, with its
    inclusion ι and the right adjoint r(x) = ⋁{y ∈ C | y ≤ x}. Raises
    ValueError, with `valid_quantale`'s wording, unless Q passes
    `quantale_violations`; nothing else is checked, since that scan implies
    the rest:
    - ⊗ is monotone: a ≤ b gives x⊗b = x⊗(a∨b) = (x⊗a)∨(x⊗b) ≥ x⊗a;
    - 1 ∈ C, as 1⊗1 = 1, and ⊥ ∈ C;
    - a, b ∈ C gives a⊗b ≤ 1⊗1 = 1 and (a⊗b)⊗(a⊗b) = (a⊗a)⊗(b⊗b) ≥ a⊗b, so
      a⊗b ∈ C; and a∨b ≤ 1 and (a∨b)⊗(a∨b) ≥ (a⊗a)∨(b⊗b) ≥ a∨b, so a∨b ∈ C;
    - so C holds every finite join of its elements, and r(x) ∈ C; r(x) ≤ x,
      so ι∘r ≤ id; r(y) = y for y ∈ C, so r∘ι = id; and for y ∈ C, y ≤ x
      iff y ≤ r(x), the Galois property ι ⊣ r."""
    _require(quantale_violations(q), f"invalid quantale {q.name}")
    order = q.lattice.carrier
    return _core_of(q, [x for x in order.elements if order.leq(x, q.unit) and order.leq(x, q.tensor[(x, x)])])


def quantale_doctrine(
    q: FiniteQuantale, sets: Mapping[str, Sequence[str]]
) -> tuple[Doctrine, DoctrineAdjunction, InteriorOp]:
    """The doctrines Q^(−) and core^(−) over a finite-set fragment, the
    vertical adjunction ⟨ι∘−⟩ ⊣ ⟨r∘−⟩ between them, and the induced bang."""
    core = quantale_core(q)
    base = full_function_category(sets)
    Qdoc = _function_doctrine(base, sets, q.lattice.carrier)
    Cdoc = _function_doctrine(base, sets, core.sub)
    lam = _postcompose(Cdoc, Qdoc, core.iota.images, len(core.iota.dst.elements))
    rho = _postcompose(Qdoc, Cdoc, core.r.images, len(core.r.dst.elements))
    adj = vertical_adjunction(Cdoc, Qdoc, lam, rho)
    bang = vertical_modality(adj)
    return Qdoc, adj, bang


def bang_law_violations(
    q: FiniteQuantale, sets: Mapping[str, Sequence[str]], core_override: QuantaleCore | None = None
) -> list[str]:
    """The four exponential laws of the bang operator ! = ι∘r on every fiber
    Q^X, decided on Q: one witness `law (N) fails at W` per element, pair or
    fiber W where law N fails, law by law and each in set and fiber order.
    `core_override` lets tests plant a fake core. Raises ValueError, with
    `valid_quantale`'s wording, unless Q passes `quantale_violations`.

    Such a Q is residuated (Rosenthal, *Quantales and their Applications*,
    1990): ⊗ distributes over ⊥ and binary joins, so x⊗− preserves every join
    of the finite lattice and is monotone. With x⇒y = ⋁{z | x⊗z ≤ y},
    x⊗(x⇒y) = ⋁{x⊗z | x⊗z ≤ y} ≤ y, so z ≤ (x⇒y) gives x⊗z ≤ y, and x⊗z ≤ y
    puts z in the join. The same holds pointwise on each fiber, so no
    residuation table is needed.

    The order, unit, ⊗ and ! of Q^X are pointwise, so an element α of Q^X
    fails law (1) !α ≤ 1 or law (2) !α ≤ !α⊗!α iff one of its coordinates
    does in Q; a pair (α, β) fails law (4) !α⊗!β ≤ !(α⊗β) iff one of its
    coordinate pairs does; and law (3) 1 ≤ !1 fails on a nonempty X iff it
    fails on Q, while the one-element fiber of the empty X satisfies all four.
    A fiber is built only to name the witnesses of a law that fails on Q, in
    the fiber's own order.

    With the core `quantale_core(q)` nothing fails, so no fiber is built:
    !x is in the core, whose elements lie below 1 and below their own square,
    giving (1) and (2); (3) 1 is in the core, so r(1) = 1; (4) the core is
    closed under ⊗, and !x⊗!y ≤ x⊗y by monotonicity, so !x⊗!y is a core
    element below x⊗y, and r(x⊗y) is the largest one."""
    _require(quantale_violations(q), f"invalid quantale {q.name}")
    core = core_override if core_override is not None else quantale_core(q)
    order, t = q.lattice.carrier, q.tensor
    bang = {x: core.iota.apply(core.r.apply(x)) for x in order.elements}
    v = order.value
    fails1 = {v(x) for x, b in bang.items() if not order.leq(b, q.unit)}
    fails2 = {v(x) for x, b in bang.items() if not order.leq(b, t[(b, b)])}
    fails3 = not order.leq(q.unit, bang[q.unit])
    fails4 = {(v(x), v(y)) for x in bang for y in bang if not order.leq(t[(bang[x], bang[y])], bang[t[(x, y)]])}
    if not (fails1 or fails2 or fails3 or fails4):
        return []
    law1, law2, law3, law4 = [], [], [], []
    for name, keys in sets.items():
        fiber = _function_fiber(keys, order)
        elements = list(zip(fiber.elements, fiber.values))
        law1 += [f"({name},{a})" for a, alpha in elements if not fails1.isdisjoint(alpha)]
        law2 += [f"({name},{a})" for a, alpha in elements if not fails2.isdisjoint(alpha)]
        if fails3 and keys:
            law3.append(f"({name},unit)")
        if fails4:
            law4 += [
                f"({name},{a},{b})"
                for a, alpha in elements
                for b, beta in elements
                if not fails4.isdisjoint(zip(alpha, beta))
            ]
    return [f"law ({n}) fails at {w}" for n, law in enumerate((law1, law2, law3, law4), 1) for w in law]


def fake_core(q: FiniteQuantale) -> QuantaleCore:
    """The down-set of elements below the unit, which holds ⊥ and binary joins:
    no idempotence filter, so not a valid core; the bang laws' negative control."""
    order = q.lattice.carrier
    return _core_of(q, [x for x in order.elements if order.leq(x, q.unit)])


# ---------------------------------------------------------------------------
# Finite presheaves


@value_class
class FinPresheaf:
    """A finite-set-valued functor on a finite base category; the action sends
    an arrow f: w → v to a function at(w) → at(v)."""

    name: str
    base: FinCategory
    at: Mapping[str, tuple[str, ...]]
    act: Mapping[str, Mapping[str, str]]


def presheaf_violations(d: FinPresheaf) -> list[str]:
    out = []
    for w in d.base.objects:
        if w not in d.at:
            out.append(f"missing carrier at {w}")
    for f in d.base.arrow_names():
        if f not in d.act:
            out.append(f"missing action along {f}")
    if out:
        return out
    for f in d.base.arrow_names():
        w, v = d.base.src(f), d.base.dst(f)
        out += [f"action along {f} mentions unknown element {e}" for e in sorted(set(d.act[f]) - set(d.at[w]))]
        for e in d.at[w]:
            if d.act[f].get(e) not in d.at[v]:
                out.append(f"action along {f} not into the target carrier at {e}")
    if out:
        return out
    for w in d.base.objects:
        if any(d.act[d.base.id(w)][e] != e for e in d.at[w]):
            out.append(f"identity action fails at {w}")
    for g in d.base.arrow_names():
        for f in d.base.arrow_names():
            if d.base.dst(f) == d.base.src(g):
                for e in d.at[d.base.src(f)]:
                    if d.act[d.base.comp(g, f)][e] != d.act[g][d.act[f][e]]:
                        out.append(f"functoriality fails on ({g},{f}) at {e}")
    return out


def presheaf_nat_transformations(d: FinPresheaf, e: FinPresheaf) -> list[dict]:
    """All natural families of functions d ⇒ e, by brute force."""
    worlds, B = list(d.base.objects), d.base
    phis = (dict(zip(worlds, combo)) for combo in product(*(all_functions(d.at[w], e.at[w]) for w in worlds)))
    return [
        phi
        for phi in phis
        if all(phi[B.dst(f)][d.act[f][x]] == e.act[f][phi[B.src(f)][x]] for f in B.arrow_names() for x in d.at[B.src(f)])
    ]


def presheaf_arrow_name(d: FinPresheaf, e: FinPresheaf, phi: Mapping[str, Mapping[str, str]]) -> str:
    """The name of the natural transformation phi: d ⇒ e as an arrow of the
    category of presheaves of `presheaf_instance`."""
    return f"{d.name}=>{e.name}#" + ",".join(
        f"{w}:" + "".join(f"{x}>{phi[w][x]};" for x in d.at[w]) for w in d.base.objects
    )


@kept
def _arrows_out(d: FinPresheaf) -> dict[str, list[tuple[Mapping[str, str], str]]]:
    """The action and target world of every arrow out of each world."""
    out = {w: [] for w in d.base.objects}
    for (f, w, v) in d.base.arrows:
        out[w].append((d.act[f], v))
    return out


def is_subpresheaf(d: FinPresheaf, parts: Mapping[str, frozenset]) -> bool:
    return all(act[x] in parts[v] for w, out in _arrows_out(d).items() for act, v in out for x in parts[w])


def largest_subpresheaf(d: FinPresheaf, parts: Mapping[str, frozenset]) -> dict:
    """Direct characterization: keep x at w iff every action image stays in
    the family."""
    out_of = _arrows_out(d)
    return {w: frozenset(x for x in parts[w] if all(act[x] in parts[v] for act, v in out_of[w])) for w in out_of}


@kept
def _generator_steps(d: FinPresheaf) -> tuple[tuple, ...]:
    """The steps of `subpresheaf_gfp` on d, read from `d.base.generators`
    alone: per world position v, the (action, source position, v) of each
    generator into the world at v."""
    B, at = d.base, {w: i for i, w in enumerate(d.base.objects)}
    into = [[] for _ in B.objects]
    for g in B.generators:
        w, v = at[B.src(g)], at[B.dst(g)]
        into[v].append((d.act[g], w, v))
    return tuple(map(tuple, into))


def subpresheaf_gfp(d: FinPresheaf, parts: Sequence[frozenset]) -> tuple[frozenset, ...]:
    """Independent oracle: the largest subpresheaf inside the family `parts`
    (in world order), a greatest fixed point (Tarski, Pacific J. Math. 5(2),
    1955) computed by removal: remove each x at w whose action along a
    generator g: w → v of `d.base` leaves the current family, until nothing
    changes. A removal at w can only fail the generators into w, so only
    they are examined again. The result R is the union of the closed
    subfamilies of `parts`: it is closed under the generators, so under
    every arrow, a composite of them acting by the composite of their
    actions (d is a functor); and removal keeps every closed S ⊆ `parts`,
    as the image of an x in S stays in S. It shares neither algorithm nor
    arrows with `largest_subpresheaf`, one pass over every arrow."""
    into = _generator_steps(d)
    family, todo = list(parts), [step for steps in into for step in steps]
    while todo:
        act, w, v = todo.pop()
        gone = {x for x in family[w] if act[x] not in family[v]}
        if gone:
            family[w] -= gone
            todo += into[w]
    return tuple(family)


def presheaf_instance(
    presheaves: Sequence[FinPresheaf], homs: Mapping[tuple[str, str], list[dict]] | None = None
) -> tuple[DoctrineAdjunction, Doctrine, InteriorOp]:
    """The vertical adjunction between the subpresheaf doctrine and the
    all-families doctrine over the category of the given presheaves, and the
    induced largest-subpresheaf interior operator on families. `homs` passes
    their `presheaf_nat_transformations` by pair of names, when the caller has them.

    This is the finitely realizable vertical factor of the geometric-morphism
    construction; the operator it induces is the geometric one."""
    for d in presheaves:
        _require(presheaf_violations(d), f"invalid presheaf {d.name}")
    if any(d.base != presheaves[0].base for d in presheaves):
        raise ValueError("presheaves must share a base")
    by_name = {d.name: d for d in presheaves}
    arrows, images = [], {}
    for d in presheaves:
        for e in presheaves:
            for phi in presheaf_nat_transformations(d, e) if homs is None else homs[d.name, e.name]:
                n = presheaf_arrow_name(d, e, phi)
                arrows.append((n, d.name, e.name))
                images[n] = tuple(tuple(e.at[w].index(phi[w][x]) for x in d.at[w]) for w in d.base.objects)
    identity = {d.name: tuple(tuple(range(len(d.at[w]))) for w in d.base.objects) for d in presheaves}
    base = concrete_category(
        [d.name for d in presheaves], arrows, images, identity, lambda g, f: tuple(map(compose_images, g, f))
    )

    # families ordered pointwise: labels are `[w:{…};…]`, values the tuples
    # of parts in world order
    worlds = list(presheaves[0].base.objects)
    fibers = {d.name: _pointwise_fiber(worlds, [powerset_poset(d.at[w]) for w in worlds]) for d in presheaves}
    # each family's largest subpresheaf, by one pass over the arrows, held as
    # the fiber's own value; that result is closed, act_g(act_f x) =
    # act_{g∘f} x, so the subpresheaves are the families equal to their own
    largest = {}
    for d in presheaves:
        at, values = fibers[d.name].by_value, fibers[d.name].values
        largest[d.name] = {v: values[at[tuple(largest_subpresheaf(d, dict(zip(worlds, v))).values())]] for v in values}
    keep = {n: [a for a, v in zip(fibers[n].elements, fibers[n].values) if largest[n][v] == v] for n in fibers}
    reindex = {}
    for (n, sn, dn) in arrows:
        rows, at, to = images[n], by_name[sn].at, by_name[dn].at
        reindex[n] = value_map(
            fibers[dn],
            fibers[sn],
            lambda parts: tuple(
                frozenset(x for x, j in zip(at[w], row) if to[w][j] in p) for w, row, p in zip(worlds, rows, parts)
            ),
        )
    Qdoc = Doctrine(base, fibers, reindex)
    Pdoc, inclusion = sub_doctrine(Qdoc, keep, "reindexing along {t} leaves the subpresheaves at {a}")
    rho = {n: value_map(fibers[n], Pdoc.fibers[n], largest[n].__getitem__) for n in fibers}
    adj = vertical_adjunction(Pdoc, Qdoc, inclusion.parts, rho)
    op = vertical_modality(adj)
    return adj, Qdoc, op


def presheaf_oracle_mismatches(presheaves: Sequence[FinPresheaf], op: InteriorOp) -> list[tuple[str, str]]:
    """Every (presheaf, family) on which the box of `presheaf_instance`
    disagrees with `subpresheaf_gfp`, families in fiber order."""
    out = []
    for d in presheaves:
        fiber, box = op.doctrine.fibers[d.name], op.parts[d.name]
        for i, parts in enumerate(fiber.values):
            if fiber.values[box.images[i]] != subpresheaf_gfp(d, parts):
                out.append((d.name, fiber.elements[i]))
    return out


# ---------------------------------------------------------------------------
# Connective modalities


def conjunction_adjunction(P: Doctrine) -> DoctrineAdjunction:
    """Diagonal ⊣ meet between P and its square, whose fibers must be lattices;
    unchecked, like `vertical_adjunction`. ρ is natural iff reindexing keeps
    binary meets, so where it does not, `adjunction_violations` reports
    `(ii) right: naturality fails along t`."""
    meets = {x: lattice_from_poset(P.fibers[x]).meet for x in P.base.objects}
    squared, diagonal = square_doctrine(P)
    rho = {}
    for x in P.base.objects:
        value = P.fibers[x].value
        meet = {(value(a), value(b)): value(c) for (a, b), c in meets[x].items()}
        rho[x] = value_map(squared.fibers[x], P.fibers[x], meet.__getitem__)
    return vertical_adjunction(P, squared, dict(diagonal.parts), rho)


def conjunction_modality(P: Doctrine) -> InteriorOp:
    """(α,β) ↦ (α∧β, α∧β) on the square doctrine."""
    return vertical_modality(conjunction_adjunction(P))


def forall_instance(
    y_sets: Mapping[str, Sequence[str]], x_name: str, x_elements: Sequence[str]
) -> tuple[DoctrineAdjunction, InteriorOp]:
    """Weakening ⊣ universal quantification over a finite powerset fragment:
    the fragment is closed with chosen products Y×X, the left adjoint is
    reindexing along the first projection, and the right adjoint is the
    pointwise ∀ over the X component.

    The base of P is the part of the function category that this reads: the
    Y-sets and their products Y×X, with every function Y → Y′, each f×id_X:
    Y×X → Y′×X, and each g∘π₁: Y×X → Y′, where Y×X lists (e_i, x_j) at
    i·|X| + j, π₁ sends it to i and f×id_X to f(i)·|X| + j. These hold the
    identities, id_Y and id_Y×id_X, and are closed under composition:
    (f′×id_X)∘(f×id_X) = (f′∘f)×id_X, (g∘π₁)∘(f×id_X) = (g∘f)∘π₁, since
    π₁∘(f×id_X) = f∘π₁, and g′∘(g∘π₁) = (g′∘g)∘π₁; no arrow enters a
    product from a Y-set, so no other pair composes.

    The product data passed to `power_doctrine` is right by construction:
    each arrow of `P.base` is found in `P.base.named` by its source, target
    and image positions, so it has the boundary of its key, and f×id_X
    followed by π₁ is i·|X| + j ↦ f(i), π₁ followed by f."""
    def pair_elem(y, x):
        return f"{y}*{x}"

    prods = {y: f"{y}x{x_name}" for y in y_sets}
    all_sets = {y: list(els) for y, els in y_sets.items()}
    all_sets.update({prods[y]: [pair_elem(e, x) for e in els for x in x_elements] for y, els in y_sets.items()})
    names = list(y_sets)
    sub = full_function_category(y_sets)
    n = len(x_elements)
    homs = {}
    for f in sub.arrow_names():
        s, d, image = sub.src(f), sub.dst(f), sub.payload[f]
        homs.setdefault((s, d), set()).add(image)
        homs.setdefault((prods[s], prods[d]), set()).add(tuple(i * n + j for i in image for j in range(n)))
        homs.setdefault((prods[s], d), set()).add(tuple(i for i in image for _ in range(n)))
    # sets, since with X empty every f×id_X and g∘π₁ is the empty function
    base = full_function_category(all_sets, {pair: sorted(images) for pair, images in homs.items()})
    P = inverse_image_doctrine(base, all_sets)
    arrow = P.base.named
    products = {
        y: ProductData(prods[y], arrow[prods[y], y, tuple(i for i in range(len(y_sets[y])) for _ in range(n))])
        for y in names
    }
    times = {
        f: arrow[prods[sub.src(f)], prods[sub.dst(f)], tuple(i * n + j for i in sub.payload[f] for j in range(n))]
        for f in sub.arrow_names()
    }
    powered, weakening = power_doctrine(P, sub, products, times)
    restricted = restrict_doctrine(P, sub)
    rho = {
        y: value_map(
            powered.fibers[y],
            restricted.fibers[y],
            lambda alpha: frozenset(e for e in y_sets[y] if all(pair_elem(e, x) in alpha for x in x_elements)),
        )
        for y in names
    }
    adj = vertical_adjunction(restricted, powered, dict(weakening.parts), rho)
    return adj, vertical_modality(adj)
