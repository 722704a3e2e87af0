"""Finite posets, monotone maps, lattices, and the greatest-fixed-point engine.

Everything here is exhaustively finite: element identifiers are opaque
strings, enumeration order is declaration order, and all law checks are
literal scans over the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, Sequence, Union


@dataclass(frozen=True)
class FinPoset:
    """A finite poset: elements in declaration order plus the full leq relation."""

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    _position: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        position = {}
        for i, e in enumerate(self.elements):
            position.setdefault(e, i)
        object.__setattr__(self, "_position", position)

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.relation

    def index(self, a: str) -> int:
        try:
            return self._position[a]
        except KeyError:
            raise ValueError(f"{a!r} is not an element of the poset") from None

    def down(self, a: str) -> tuple[str, ...]:
        return tuple(x for x in self.elements if self.leq(x, a))

    def up(self, a: str) -> tuple[str, ...]:
        return tuple(x for x in self.elements if self.leq(a, x))

    def __contains__(self, a: str) -> bool:
        return a in self._position


def poset_violations(elements: Sequence[str], relation: Iterable[tuple[str, str]]) -> list[str]:
    """Every violated poset axiom, each with a minimal witness."""
    elems = list(elements)
    rel = set(relation)
    out = []
    seen = set()
    for e in elems:
        if e in seen:
            out.append(f"duplicate element identifier: {e}")
        seen.add(e)
    for (a, b) in sorted(rel):
        if a not in seen or b not in seen:
            out.append(f"relation mentions unknown element: ({a},{b})")
    for e in elems:
        if (e, e) not in rel:
            out.append(f"reflexivity: missing ({e},{e})")
    for (a, b) in sorted(rel):
        for (c, d) in sorted(rel):
            if b == c and (a, d) not in rel:
                out.append(f"transitivity: {a}<={b} and {b}<={d} but not {a}<={d}")
    for (a, b) in sorted(rel):
        if a != b and (b, a) in rel and a < b:
            out.append(f"antisymmetry: ({a},{b})")
    return out


def check_poset(
    elements: Sequence[str], relation: Iterable[tuple[str, str]]
) -> Union[FinPoset, list[str]]:
    """The poset if all axioms hold, otherwise the violation list."""
    bad = poset_violations(elements, relation)
    if bad:
        return bad
    return FinPoset(tuple(elements), frozenset(relation))


def close_relation(
    elements: Sequence[str], pairs: Iterable[tuple[str, str]], closure: str = "none"
) -> frozenset[tuple[str, str]]:
    """Close a relation reflexively and/or transitively."""
    rel = set(pairs)
    if closure in ("refl", "refl-trans"):
        rel.update((e, e) for e in elements)
    if closure in ("trans", "refl-trans"):
        changed = True
        while changed:
            changed = False
            for (a, b) in list(rel):
                for (c, d) in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
    return frozenset(rel)


def fin_poset(
    elements: Sequence[str],
    pairs: Iterable[tuple[str, str]] = (),
    closure: str = "refl-trans",
) -> FinPoset:
    """Build a poset, closing the given pairs; raises on any axiom violation."""
    rel = close_relation(elements, pairs, closure)
    got = check_poset(elements, rel)
    if isinstance(got, list):
        raise ValueError("not a poset: " + "; ".join(got))
    return got


def chain_poset(labels: Sequence[str]) -> FinPoset:
    pairs = [(labels[i], labels[j]) for i in range(len(labels)) for j in range(i, len(labels))]
    return FinPoset(tuple(labels), frozenset(pairs))


def antichain_poset(labels: Sequence[str]) -> FinPoset:
    return FinPoset(tuple(labels), frozenset((x, x) for x in labels))


def sub_poset(p: FinPoset, elements: Sequence[str]) -> FinPoset:
    wanted = set(elements)
    keep = [e for e in p.elements if e in wanted]
    rel = frozenset((a, b) for (a, b) in p.relation if a in wanted and b in wanted)
    return FinPoset(tuple(keep), rel)


def product_poset(p: FinPoset, q: FinPoset, label=None) -> FinPoset:
    """Componentwise-ordered product; labels default to '(a|b)'."""
    if label is None:
        label = lambda a, b: f"({a}|{b})"
    elems = tuple(label(a, b) for a in p.elements for b in q.elements)
    names = {(a, b): label(a, b) for a in p.elements for b in q.elements}
    rel = frozenset(
        (names[(a, b)], names[(c, d)]) for (a, c) in p.relation for (b, d) in q.relation
    )
    return FinPoset(elems, rel)


@dataclass(frozen=True)
class MonotoneMap:
    """A total order-preserving map given by its graph."""

    src: FinPoset
    dst: FinPoset
    mapping: Mapping[str, str]

    def apply(self, x: str) -> str:
        return self.mapping[x]

    def graph(self) -> tuple[tuple[str, str], ...]:
        return tuple((x, self.mapping[x]) for x in self.src.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonotoneMap):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.graph() == other.graph()
        )


def monotone_violations(m: MonotoneMap) -> list[str]:
    """Empty list iff order-preservation holds on every related pair."""
    out = []
    for x in m.src.elements:
        if x not in m.mapping:
            out.append(f"not total: no image for {x}")
        elif m.mapping[x] not in m.dst:
            out.append(f"image outside target poset: {x} -> {m.mapping[x]}")
    for k in m.mapping:
        if k not in m.src:
            out.append(f"graph mentions unknown source element: {k}")
    if out:
        return out
    for (a, b) in m.src.relation:
        if not m.dst.leq(m.mapping[a], m.mapping[b]):
            out.append(f"order not preserved on ({a},{b})")
    return sorted(out)


def monotone_map(src: FinPoset, dst: FinPoset, mapping: Mapping[str, str]) -> MonotoneMap:
    m = MonotoneMap(src, dst, dict(mapping))
    bad = monotone_violations(m)
    if bad:
        raise ValueError("not monotone: " + "; ".join(bad))
    return m


def identity_map(p: FinPoset) -> MonotoneMap:
    return MonotoneMap(p, p, {x: x for x in p.elements})


def compose_maps(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    if f.dst != g.src:
        raise ValueError("compose_maps: boundary mismatch")
    return MonotoneMap(f.src, g.dst, {x: g.mapping[f.mapping[x]] for x in f.src.elements})


def restrict_map(m: MonotoneMap, src: FinPoset, dst: FinPoset) -> MonotoneMap:
    """m on the elements of `src`, into `dst` (unchecked: every image must lie in `dst`)."""
    return MonotoneMap(src, dst, {x: m.mapping[x] for x in src.elements})


def constant_map(src: FinPoset, dst: FinPoset, value: str) -> MonotoneMap:
    return MonotoneMap(src, dst, {x: value for x in src.elements})


@dataclass(frozen=True)
class FinLattice:
    carrier: FinPoset
    meet: Mapping[tuple[str, str], str]
    join: Mapping[tuple[str, str], str]
    top: str
    bottom: str


def _brute_inf(p: FinPoset, a: str, b: str):
    lower = [x for x in p.elements if p.leq(x, a) and p.leq(x, b)]
    best = [x for x in lower if all(p.leq(y, x) for y in lower)]
    return best[0] if len(best) == 1 else None


def _brute_sup(p: FinPoset, a: str, b: str):
    upper = [x for x in p.elements if p.leq(a, x) and p.leq(b, x)]
    best = [x for x in upper if all(p.leq(x, y) for y in upper)]
    return best[0] if len(best) == 1 else None


def lattice_violations(l: FinLattice) -> list[str]:
    """Tables must agree with brute-force inf/sup; top/bottom must be extreme."""
    out = []
    p = l.carrier
    for a in p.elements:
        if not p.leq(a, l.top):
            out.append(f"top is not above {a}")
        if not p.leq(l.bottom, a):
            out.append(f"bottom is not below {a}")
    for a in p.elements:
        for b in p.elements:
            inf, sup = _brute_inf(p, a, b), _brute_sup(p, a, b)
            if inf is None:
                out.append(f"no meet for ({a},{b})")
            elif l.meet.get((a, b)) != inf:
                out.append(f"meet table wrong at ({a},{b}): {l.meet.get((a,b))} != {inf}")
            if sup is None:
                out.append(f"no join for ({a},{b})")
            elif l.join.get((a, b)) != sup:
                out.append(f"join table wrong at ({a},{b}): {l.join.get((a,b))} != {sup}")
    return out


def lattice_from_poset(p: FinPoset) -> FinLattice:
    """Compute meet/join tables by brute force; raises if the order is not a lattice."""
    if not p.elements:
        raise ValueError("empty carrier has no lattice structure")
    meet, join = {}, {}
    for a in p.elements:
        for b in p.elements:
            inf, sup = _brute_inf(p, a, b), _brute_sup(p, a, b)
            if inf is None or sup is None:
                raise ValueError(f"not a lattice: ({a},{b}) has no meet/join")
            meet[(a, b)], join[(a, b)] = inf, sup
    tops = [x for x in p.elements if all(p.leq(y, x) for y in p.elements)]
    bots = [x for x in p.elements if all(p.leq(x, y) for y in p.elements)]
    return FinLattice(p, meet, join, tops[0], bots[0])


def subset_label(xs: Iterable[str], ground: Sequence[str]) -> str:
    """Canonical label of a subset: members in ground declaration order."""
    members = set(xs)
    return "{" + ",".join(e for e in ground if e in members) + "}"


def label_subset(label: str) -> frozenset[str]:
    body = label.strip()[1:-1]
    return frozenset(x for x in body.split(",") if x)


def subsets_in_order(ground: Sequence[str]) -> list[frozenset[str]]:
    """All subsets, ordered by size then by positions of members."""
    out = []
    for r in range(len(ground) + 1):
        for combo in combinations(ground, r):
            out.append(frozenset(combo))
    return out


def powerset_poset(ground: Sequence[str]) -> FinPoset:
    """Subsets in `subsets_in_order` order under inclusion. Each subset, as a
    bitmask m of ground positions, walks only its supersets (t ↦ (t+1) | m),
    so the build costs the 3ⁿ related pairs rather than 4ⁿ tests."""
    n = len(ground)
    label_of = {}
    for r in range(n + 1):
        for combo in combinations(range(n), r):
            label_of[sum(1 << i for i in combo)] = subset_label((ground[i] for i in combo), ground)
    full = (1 << n) - 1
    rel = set()
    for m, lbl in label_of.items():
        t = m
        while True:
            rel.add((lbl, label_of[t]))
            if t == full:
                break
            t = (t + 1) | m
    return FinPoset(tuple(label_of.values()), frozenset(rel))


def powerset_lattice(ground: Sequence[str]) -> FinLattice:
    """The lattice of all subsets of `ground` under inclusion."""
    p = powerset_poset(ground)
    meet, join = {}, {}
    for a in p.elements:
        sa = label_subset(a)
        for b in p.elements:
            sb = label_subset(b)
            meet[(a, b)] = subset_label(sa & sb, ground)
            join[(a, b)] = subset_label(sa | sb, ground)
    return FinLattice(p, meet, join, subset_label(ground, ground), subset_label((), ground))


def gfp_trace(lattice: FinLattice, f: MonotoneMap) -> list[str]:
    """Iterates x0=top, x_{n+1}=f(x_n) until stationary; rejects non-monotone f."""
    if f.src != lattice.carrier or f.dst != lattice.carrier:
        raise ValueError("gfp: f is not an endomap of the lattice carrier")
    bad = monotone_violations(f)
    if bad:
        raise ValueError("gfp: f is not monotone: " + "; ".join(bad))
    x = lattice.top
    trace = [x]
    while True:
        nxt = f.apply(x)
        trace.append(nxt)
        if nxt == x:
            return trace
        x = nxt


def gfp(lattice: FinLattice, f: MonotoneMap) -> str:
    """Greatest fixed point of a monotone endomap, by iteration from top."""
    return gfp_trace(lattice, f)[-1]


def post_fixed_join(lattice: FinLattice, f: MonotoneMap) -> str:
    """Join of all post-fixed points; independent oracle for `gfp`."""
    acc = lattice.bottom
    for x in lattice.carrier.elements:
        if lattice.carrier.leq(x, f.apply(x)):
            acc = lattice.join[(acc, x)]
    return acc


def poset_height(p: FinPoset) -> int:
    """Length (number of elements) of the longest chain."""
    best = {e: 1 for e in p.elements}
    changed = True
    while changed:
        changed = False
        for (a, b) in p.relation:
            if a != b and best[b] < best[a] + 1:
                best[b] = best[a] + 1
                changed = True
    return max(best.values()) if best else 0
