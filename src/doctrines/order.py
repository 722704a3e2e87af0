"""Finite posets, monotone maps and lattices.

Everything here is exhaustively finite: element identifiers are opaque
strings, enumeration order is declaration order, and every failing law is
reported by a literal scan over the data.
"""

from __future__ import annotations

from itertools import chain, combinations
from operator import attrgetter, eq

from _weakref import ref  # weakref.ref, without the weakref module's containers to import

_REQUIRED = object()


class Field:
    """A field of a `value_class` that ==, hash and repr leave out, in place
    of a plain default: it starts at `default` unless the constructor gives
    it (which it cannot without `init`)."""

    def __init__(self, default=None, init=True):
        self.default, self.init = default, init


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def value_class(cls):
    """Make `cls` a frozen value over the fields its body annotates, in
    order, as `dataclasses.dataclass(frozen=True)` does for what the library
    uses, with shared methods instead of generated code (whose `exec` every
    command line would pay at import). A field is required unless assigned a
    default or a `Field`, and read by ==, hash and repr unless it is a
    `Field`. The constructor takes the init fields by position or keyword,
    raises TypeError on a missing, unknown, repeated or surplus one, sets
    each field by `object.__setattr__` (which keeps CPython's fast attribute
    reads), then calls the class's `__post_init__`, looked up at each
    construction. Assigning or deleting an attribute raises AttributeError.
    ==, hash and repr read the fields in order; a class keeps its own
    `__eq__`, `__hash__` and `__repr__`, and gets the field hash when it
    defines only `__eq__`."""
    own = cls.__dict__
    specs, shown = {}, []  # shown: the fields ==, hash and repr read
    for name in own.get("__annotations__", ()):
        spec = own.get(name, _REQUIRED)
        if name in own:
            delattr(cls, name)
        if not isinstance(spec, Field):
            shown.append(name)
            spec = Field(spec)
        specs[name] = spec
    names = tuple(specs)
    init = tuple(n for n, s in specs.items() if s.init)
    defaults = {n: s.default for n, s in specs.items() if s.default is not _REQUIRED}
    positional = len(names) if init == names else -1  # the arity of the fast path
    fields_of = attrgetter(*shown)
    key = fields_of if len(shown) > 1 else lambda self: (fields_of(self),)

    def bind(args, kwargs) -> list:
        """The value of each field, in order, for a constructor call."""
        if len(args) > len(init):
            raise TypeError(f"{cls.__name__}() takes {len(init)} arguments but {len(args)} were given")
        given = dict(zip(init, args))
        for name, value in kwargs.items():
            if name not in init:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            given[name] = value
        missing = [n for n in init if n not in given and n not in defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required arguments: {', '.join(map(repr, missing))}")
        return [given[n] if n in given else defaults[n] for n in names]

    def __init__(self, *args, **kwargs):
        values = args if len(args) == positional and not kwargs else bind(args, kwargs)
        i = 0  # an index, not zip: no pair to build and unpack per field
        for name in names:
            object.__setattr__(self, name, values[i])
            i += 1
        post_init = own.get("__post_init__")
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in shown)})"

    if own.get("__hash__") is None:
        cls.__hash__ = __hash__
    for name, method in (("__eq__", __eq__), ("__repr__", __repr__)):
        if name not in own:
            setattr(cls, name, method)
    cls.__init__, cls.__setattr__, cls.__delattr__ = __init__, _frozen, _frozen
    return cls


class derived:
    """A property computed from a value on its first read and then held on
    the value as a plain attribute, set by `object.__setattr__` (a value
    class is frozen). `functools.cached_property` writes the instance's
    `__dict__` instead, which makes every later attribute read on the value
    slower (see `kept`)."""

    def __init__(self, compute):
        self.compute, self.__doc__ = compute, compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, value, owner=None):
        if value is None:
            return self
        found = self.compute(value)
        object.__setattr__(value, self.name, found)
        return found


def kept(build):
    """`build` kept on the value it is called with, which must never change
    after it is built: the first call stores `build(v)` under the build's
    dotted name in the dict the value holds as its `_kept` attribute, which is
    no field, so ==, hash and repr do not see it. The dict is set on first use
    by `object.__setattr__`, and `v.__dict__` is never read: CPython keeps a
    value's attributes inline until something asks for its `__dict__`, and
    every attribute read on it is about three times slower after that.

    A value whose class defines `_digest()` and `_base()` (adjunctions,
    comonads and interior operators) is kept by value as well: on its first
    call it takes the result the build kept on an equal value over the same
    base category object, if one is alive (`_equal_copy`), instead of
    building again, so the paper's comparisons, which reach one adjunction,
    comonad or operator along several routes, scan and build each value once.
    The base holds the table of those values, by weak reference
    (`_by_value`). Any other value is keyed by the object alone. A build
    that raises keeps nothing, for no equal copy either, and raises again; a
    list comes back as a fresh copy."""
    key = f"{build.__module__}.{build.__qualname__}"

    def get(v):
        kept_on = getattr(v, "_kept", None)
        if kept_on is None or key not in kept_on:
            found = _by_value(key, build, v) if hasattr(v, "_digest") else build(v)
            _kept_on(v)[key] = found
        else:
            found = kept_on[key]
        return found.copy() if type(found) is list else found

    # what functools.wraps would set, without importing functools and collections
    get.__module__, get.__name__, get.__qualname__ = build.__module__, build.__name__, build.__qualname__
    get.__doc__, get.__wrapped__ = build.__doc__, build
    return get


def _kept_on(v) -> dict:
    """The dict of results kept on v, set as its `_kept` attribute on first use."""
    kept_on = getattr(v, "_kept", None)
    if kept_on is None:
        kept_on = {}
        object.__setattr__(v, "_kept", kept_on)
    return kept_on


_DIGEST = "doctrines.order._digest"  # a name no build has: on a value its digest, on a base its table


def _digest_of(v) -> tuple:
    """`v._digest()`, computed once per value and kept on it."""
    kept_on = _kept_on(v)
    if _DIGEST not in kept_on:
        kept_on[_DIGEST] = v._digest()
    return kept_on[_DIGEST]


def _by_value(key: str, build, v):
    """build(v), or the result `key`'s build kept on an alive value equal to v
    (`_equal_copy`) over the same base category object. The base holds the
    table, {build key: {digest: weak references to the values the build has
    kept a result on}}, so it goes with the base and keeps no value alive."""
    refs = _kept_on(v._base()).setdefault(_DIGEST, {}).setdefault(key, {}).setdefault(_digest_of(v), [])
    copy = _equal_copy(refs, v)
    found = build(v) if copy is None else copy._kept[key]
    refs.append(ref(v))
    return found


def _equal_copy(refs, v):
    """The first alive value of `refs`, which share v's digest, that equals
    v, or None. Equal digests mean equal fiber values, which == leaves out
    and constructions read, and equal fiber-map images, so an equal copy of
    v built by another route is found by one dict lookup and one ==."""
    for r in refs:
        u = r()
        if u is not None and u == v:
            return u
    return None


_POSITIONS: list[int] = []


def _positions(n: int) -> list[int]:
    """0, 1, … as one shared list of at least n ints: positions, covers and
    images share one int object per position (above 256 each computed int is new)."""
    _POSITIONS.extend(range(len(_POSITIONS), n))
    return _POSITIONS


class _Lazy:
    """A read-only sequence of n items computed from their positions, as a
    Boolean poset's labels and values are: item i is `one(i)`, computed
    again on each read, until the sequence is first read whole, which
    computes every item by `every()` in one pass and keeps the tuple after
    that. `len` reads nothing. `key` determines the items and is compared
    without reading them, so two such sequences with equal keys are equal
    unread, as `FinPoset.__eq__` compares labels. Equal to a tuple of the
    same items, with that tuple's hash."""

    __slots__ = ("_n", "_one", "_every", "_full", "key")

    def __init__(self, n: int, one, every, key: tuple):
        self._n, self._one, self._every, self._full, self.key = n, one, every, None, key

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if self._full is None and i.__class__ is int and -self._n <= i < self._n:
            return self._one(i % self._n)
        return self.tuple()[i]

    def tuple(self) -> tuple:
        """Every item, computed in one pass on the first call and kept."""
        if self._full is None:
            self._full = self._every()
        return self._full

    def __iter__(self):
        return iter(self.tuple())

    def __eq__(self, other):
        if other.__class__ is _Lazy:
            return self.key == other.key or self._n == other._n and self.tuple() == other.tuple()
        if other.__class__ is tuple:
            return self._n == len(other) and self.tuple() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.tuple())

    def __repr__(self) -> str:
        return repr(self.tuple())


def _picked(items, kept: tuple[int, ...]):
    """The items at the positions `kept`: a tuple from a tuple, and from a
    `_Lazy` a `_Lazy` whose whole read reads each kept item of `items`, from
    its tuple once that has been read whole."""
    if items.__class__ is not _Lazy:
        return tuple(map(items.__getitem__, kept))
    return _Lazy(len(kept), lambda i: items[kept[i]], lambda: tuple(map(items.__getitem__, kept)), (sub_poset, items, kept))


_SUBSETS = object()  # the tag of a value key in code form


def _coded_key(depth: int, names: tuple[str, ...], codes) -> tuple:
    """The value key of values in code form: value i is the frozenset of the
    `names` at the bits of codes[i], in `depth` 1-tuples. The names no code
    holds are dropped and the codes packed onto the rest, so two such
    sequences whose points come in the same order have equal keys iff they
    have equal values."""
    codes, used = tuple(codes), 0
    for c in codes:
        used |= c
    if used != (1 << len(names)) - 1:
        if used & (used + 1):  # a name below the highest held is not held: pack each code
            packed = {1 << j: 1 << r for r, j in enumerate(j for j in range(len(names)) if used >> j & 1)}
            codes = tuple(sum(map(packed.__getitem__, _bits(c))) for c in codes)
        names = tuple(n for j, n in enumerate(names) if used >> j & 1)
    return _SUBSETS, depth, names, codes


def _bits(code: int) -> list[int]:
    """The powers of two that sum to `code`, lowest first."""
    out = []
    while code:
        out.append(low := code & -code)
        code ^= low
    return out


def _coded(p: FinPoset) -> bool:
    """Whether p's value key is in code form (`_coded_key`)."""
    return bool(p.value_key) and p.value_key[0] is _SUBSETS


@value_class
class FinPoset:
    """A finite poset: elements in declaration order, the order as bit codes,
    and its covering pairs.

    `codes[i]` is an int with elements[i] <= elements[j] iff
    codes[i] & ~codes[j] == 0 (`leq_at`): the poset embeds in the Boolean
    lattice of its codes' bits (Davey and Priestley, *Introduction to
    Lattices and Order*, 2002), and every finite poset does, by a ↦ ↓a.
    `powerset_poset` codes a subset by its bitmask, and `fam_doctrine` a
    family by its carrier's and parts' bitmasks side by side; `poset_from_pairs`
    and `chain_poset` code an element by its down-set (bit j set iff
    elements[j] <= it); products concatenate their factors' codes, since
    ↓(a, b) = ↓a × ↓b (`product_order`); `sub_poset` keeps the codes it is
    given. Two builders can code one order differently, so equality and hash
    are on the elements and their order, not on the codes.

    Value invariant: `values[i]` is the hashable value elements[i] stands
    for, distinct across the poset, set by its builder: a powerset element's
    frozenset, a pointwise element's tuple of its factors' values, a family's
    (carrier subset, tuple of parts); `sub_poset` and `product_poset` carry
    their inputs' values over, and every other builder leaves the label
    itself. Values take no part in equality or hash. A map between fibers is
    the function on values it computes, read back through `value_map`, so no
    label is parsed or printed again. `value_key`, fixed when the poset is
    built, is what `doctrine._table_digest` reads for the values, hashable
    without computing them: the values tuple itself, or for values in code
    form (a powerset's, a one-key fiber's over such a factor, and those of a
    `sub_poset` of either) the names their codes hold and those codes, packed
    onto the names some code holds (`_coded_key`). Equal keys mean equal
    values, and equal values mean equal keys whichever of these routes built
    them, when their points come in one order.

    When labels and values are computed. Most builders pass tuples, and a
    repeated element or value raises here. `powerset_poset` (when its labels
    are distinct), the one-key `instances._pointwise_fiber` over it, and a
    `sub_poset` of either pass `_Lazy` sequences: item i is computed on its
    first read (the ground points at the bits of codes[i]; the factor's, or
    the input's, item there), all of them in one pass on a whole read (a
    sub-poset's reads its input's kept items), and `len` reads nothing. They are distinct without a scan: distinct codes
    are distinct subsets of distinct points, with distinct frozensets, and
    distinct labels when no point is empty or holds a comma (else
    `powerset_poset` builds and scans them), since the text between the
    braces then splits at its commas into the members; `[k:e]` and (v,) are
    injective in e and v; a sub-poset keeps distinct items. So a law scan
    on positions builds no label, and `_position` and `by_value` are dicts
    built on their first read.

    Invariant: every instance is a partial order on distinct elements. Only
    the builders `poset_from_pairs` (from a relation that is already a
    partial order, as `check_poset` passes it after its axiom scan),
    `chain_poset`, `sub_poset`, `product_poset`, `powerset_poset`,
    `instances._pointwise_fiber` and `instances.fam_doctrine` construct one,
    each from codes that encode a partial order by construction. The
    cover certificate of `monotone_violations` relies on it: every a <= b is
    a chain of covers, and the target's <= is reflexive and transitive.

    `covers` is the Hasse diagram on positions, the (i, j) with elements[i] <
    elements[j] and nothing strictly between: passed by a builder that
    enumerates the order by its structure, else derived by `hasse()` on
    first use. `relation`, the label pairs a <= b, is built on first use for
    callers that want it; the library never reads it. `within`, set by
    `sub_poset` alone, holds the position in its input of each element when
    it keeps fewer than all, so `restrict_map` maps positions.

    A Boolean poset, one whose codes are exactly 0 … 2ᵏ−1 (`powerset_poset`
    and the pointwise fibers over powersets), is the lattice of subsets of k
    bits; `_by_code`, its position of each code, is built once on first use
    (shared by every powerset of k points) and read by the maps that compute
    on codes, by `hasse()`, by the meet certificate of `monotone_violations`
    and by the coatom certificate of `interior_violations`."""

    elements: tuple[str, ...]
    codes: tuple[int, ...]
    covers: tuple[tuple[int, int], ...] | None = Field()
    values: tuple | None = Field()
    within: tuple[int, ...] | None = Field()
    value_key: tuple | None = Field()

    def __post_init__(self):
        if self.values is None:
            object.__setattr__(self, "values", self.elements)
        if self.value_key is None:
            object.__setattr__(self, "value_key", self.values)
        if self.elements.__class__ is _Lazy:  # distinct by construction (see the docstring); `_position` on first use
            return
        position = dict(zip(self.elements, _positions(len(self.elements))))
        if len(position) != len(self.elements):
            repeated = next(e for i, e in enumerate(self.elements) if position[e] != i)
            raise ValueError(f"repeated poset element {repeated!r}")
        if self.values is not self.elements:
            last = {v: i for i, v in enumerate(self.values)}
            if len(last) != len(self.values):
                repeated = next(v for i, v in enumerate(self.values) if last[v] != i)
                raise ValueError(f"repeated poset value {repeated!r}")
        object.__setattr__(self, "_position", position)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinPoset):
            return NotImplemented
        return self is other or self.elements == other.elements and (
            self.codes is other.codes or self.codes == other.codes or all(self.up(a) == other.up(a) for a in self.elements)
        )

    def __hash__(self) -> int:
        return hash(self.elements)

    @derived
    def _position(self) -> dict:
        """The position of each element: built with the poset, save for one
        whose labels are computed (`_Lazy`), where it is built on first use."""
        return dict(zip(self.elements, _positions(len(self.elements))))

    @derived
    def by_value(self) -> dict:
        """The position of each value, built on first use."""
        return dict(zip(self.values, _positions(len(self.values))))

    def value(self, a: str):
        return self.values[self._position[a]]

    @derived
    def relation(self) -> frozenset[tuple[str, str]]:
        return frozenset((a, b) for a in self.elements for b in self.up(a))

    @derived
    def _by_code(self) -> list[int] | None:
        """The position of each code when the codes are exactly 0 … 2ᵏ−1,
        else None: n distinct codes (distinct, since the order is
        antisymmetric) of at most n − 1, for n a power of two; for the codes
        of a powerset of k points, shared with every other."""
        n, codes = len(self.codes), self.codes
        if not n or n & (n - 1):
            return None
        shared = _SUBSET_CODES.get(n.bit_length() - 1)
        if shared is not None and codes is shared[0]:
            return shared[1]
        if max(codes) != n - 1:
            return None
        return sorted(_positions(n)[:n], key=codes.__getitem__)

    def hasse(self) -> tuple[tuple[int, int], ...]:
        """The covering pairs, derived once when no builder passed them. In a
        Boolean poset a code's covers add one missing bit each, k·2ᵏ⁻¹ pairs
        read off `_by_code`. Otherwise, in order of size, j covers i iff its
        code strictly contains i's and no cover found before, O(n²) tests on
        n codes."""
        if self.covers is None:
            at, positions = self._by_code, _positions(len(self.codes))
            if at is not None:
                bits = [1 << b for b in range(len(at).bit_length() - 1)]
                covers = [(i, at[c | b]) for i, c in zip(positions, self.codes) for b in bits if not c & b]
            else:
                covers = []
                by_size = sorted(zip(self.codes, positions), key=lambda cj: cj[0].bit_count())
                for i, c in zip(positions, self.codes):
                    found = []
                    for d, j in by_size:
                        if d != c and not c & ~d and all(f & ~d for f in found):
                            found.append(d)
                            covers.append((i, j))
            object.__setattr__(self, "covers", tuple(covers))
        return self.covers

    def leq_at(self, i: int, j: int) -> bool:
        """Whether elements[i] <= elements[j], by their codes."""
        return not self.codes[i] & ~self.codes[j]

    def leq(self, a: str, b: str) -> bool:
        try:
            return self.leq_at(self._position[a], self._position[b])
        except KeyError:
            return False

    def index(self, a: str) -> int:
        try:
            return self._position[a]
        except KeyError:
            raise ValueError(f"{a!r} is not an element of the poset") from None

    def up(self, a: str) -> tuple[str, ...]:
        c = self.codes[self._position[a]]
        return tuple(x for x, d in zip(self.elements, self.codes) if not c & ~d)

    def __contains__(self, a: str) -> bool:
        return a in self._position


def poset_from_pairs(elements: Sequence[str], relation: Iterable[tuple[str, str]]) -> FinPoset:
    """The poset on `elements` whose <= is `relation`, which must already be
    a partial order on them (unchecked: `check_poset` checks first)."""
    position = {e: i for i, e in enumerate(elements)}
    codes = [0] * len(elements)
    for a, b in relation:
        codes[position[b]] |= 1 << position[a]
    return FinPoset(tuple(elements), tuple(codes))


def product_order(factors: Sequence[FinPoset]) -> tuple[int, ...]:
    """The codes of the product of `factors` in lexicographic position
    order: the factors' codes concatenated, first factor highest, since
    ↓(a, b) = ↓a × ↓b (pw(A) × pw(B) ≅ pw(A + B))."""
    codes = [0]
    for f in factors:
        width = max(f.codes, default=0).bit_length()
        codes = [c << width | d for c in codes for d in f.codes]
    return tuple(codes)


def _sorted_successors(pairs: list[tuple[str, str]]) -> dict[str, list[str]]:
    """The d of each (c, d) of the sorted `pairs`, listed under c in sorted
    order: for a pair (a, b), the (b, d) among them in sorted order are the
    d listed under b."""
    out = {}
    for c, d in pairs:
        out.setdefault(c, []).append(d)
    return out


def poset_violations(elements: Sequence[str], relation: Iterable[tuple[str, str]]) -> list[str]:
    """Every violated poset axiom, each with a minimal witness: transitivity
    in sorted pair order, each (a, b) against its b's successors in sorted
    order."""
    elems = list(elements)
    rel = set(relation)
    pairs = sorted(rel)
    out = []
    seen = set()
    for e in elems:
        if e in seen:
            out.append(f"duplicate element identifier: {e}")
        seen.add(e)
    for (a, b) in pairs:
        if a not in seen or b not in seen:
            out.append(f"relation mentions unknown element: ({a},{b})")
    for e in elems:
        if (e, e) not in rel:
            out.append(f"reflexivity: missing ({e},{e})")
    above = _sorted_successors(pairs)
    for (a, b) in pairs:
        out.extend(f"transitivity: {a}<={b} and {b}<={d} but not {a}<={d}" for d in above.get(b, ()) if (a, d) not in rel)
    for (a, b) in pairs:
        if a != b and (b, a) in rel and a < b:
            out.append(f"antisymmetry: ({a},{b})")
    return out


def _require(witnesses: list[str], what: str) -> None:
    """The precondition of a construction defined only on values that pass a
    law scan: raises ValueError `what: ` and the first three of the scan's
    `witnesses` unless there are none."""
    if witnesses:
        raise ValueError(f"{what}: " + "; ".join(witnesses[:3]))


def check_poset(
    elements: Sequence[str], relation: Iterable[tuple[str, str]]
) -> FinPoset | list[str]:
    """The poset if all axioms hold, otherwise the violation list."""
    bad = poset_violations(elements, relation)
    if bad:
        return bad
    return poset_from_pairs(elements, relation)


def close_relation(
    elements: Sequence[str], pairs: Iterable[tuple[str, str]], closure: str = "none"
) -> frozenset[tuple[str, str]]:
    """Close a relation reflexively and/or transitively: the transitive
    closure pairs each a with everything a walk along successors reaches
    from it in one step or more."""
    rel = set(pairs)
    if closure in ("refl", "refl-trans"):
        rel.update((e, e) for e in elements)
    if closure in ("trans", "refl-trans"):
        succ = {}
        for a, b in rel:
            succ.setdefault(a, []).append(b)
        for a, first in succ.items():
            reached, todo = set(first), list(first)
            while todo:
                for d in succ.get(todo.pop(), ()):
                    if d not in reached:
                        reached.add(d)
                        todo.append(d)
            rel.update((a, d) for d in reached)
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
        _require(got, "not a poset")
    return got


def chain_poset(labels: Sequence[str]) -> FinPoset:
    """The chain labels[0] < labels[1] < …, element i coded by its down-set."""
    n, at = len(labels), _positions(len(labels))
    return FinPoset(tuple(labels), tuple((2 << i) - 1 for i in range(n)), tuple(zip(at[:n], at[1:n])))


def sub_poset(p: FinPoset, positions: Iterable[int]) -> FinPoset:
    """The induced order on the elements of p at `positions`, in p's order,
    with their codes and values kept, and those positions as `within`. Every
    element kept keeps p's labels and values as they are, computed or not."""
    kept = sorted(set(positions))
    if len(kept) == len(p.elements):
        return FinPoset(p.elements, p.codes, values=p.values, value_key=p.value_key)
    kept, key = tuple(kept), p.value_key
    return FinPoset(
        _picked(p.elements, kept), _picked(p.codes, kept), values=_picked(p.values, kept), within=kept,
        value_key=_coded_key(key[1], key[2], map(key[3].__getitem__, kept)) if _coded(p) else None,
    )


def product_poset(p: FinPoset, q: FinPoset) -> FinPoset:
    """Componentwise-ordered product; (a, b) is labelled '(a|b)' and valued
    by the pair of their values."""
    elems = tuple(f"({a}|{b})" for a in p.elements for b in q.elements)
    values = tuple((u, v) for u in p.values for v in q.values)
    return FinPoset(elems, product_order([p, q]), values=values)


@value_class
class MonotoneMap:
    """A total map: `images[i]` is the position in `dst` of the image of
    src.elements[i]. Builders total into `dst` by construction make one, and
    `graph_map` from a graph read from outside; `monotone_violations` checks
    that it preserves the order, once per map (`kept`)."""

    src: FinPoset
    dst: FinPoset
    images: tuple[int, ...]

    def apply(self, x: str) -> str:
        return self.dst.elements[self.images[self.src._position[x]]]


def graph_map(src: FinPoset, dst: FinPoset, graph: Mapping[str, str]) -> MonotoneMap:
    """The map whose graph, label to label, is `graph`; raises ValueError at
    the first source element without an image or with one outside `dst`,
    then at the first key of `graph` that is no source element."""
    at = dst._position
    for x in src.elements:
        if x not in graph:
            raise ValueError(f"not total: no image for {x}")
        if graph[x] not in at:
            raise ValueError(f"image outside target poset: {x} -> {graph[x]}")
    if len(graph) != len(src.elements):
        raise ValueError(f"graph mentions unknown source element: {next(k for k in graph if k not in src)}")
    return MonotoneMap(src, dst, tuple(at[graph[x]] for x in src.elements))


def value_map(src: FinPoset, dst: FinPoset, f) -> MonotoneMap:
    """The map sending each element of `src` to the element of `dst` whose
    value is f(its value), looked up in `dst.by_value`; raises ValueError
    naming the first source element whose image value `dst` does not hold."""
    at, images = dst.by_value, []
    for v in src.values:
        try:
            images.append(at[f(v)])
        except KeyError:
            raise ValueError(f"the image of {src.elements[len(images)]!r} is not a value of the target poset") from None
    return MonotoneMap(src, dst, tuple(images))


def value_graph(m: MonotoneMap) -> dict:
    """The map `m` as a function on values: each source value to its image's value."""
    return dict(zip(m.src.values, map(tuple(m.dst.values).__getitem__, m.images)))


def _certified(checks) -> bool:
    """Whether every one of `checks` holds: a certificate that a law scan
    passes, so the literal scan is skipped. It is the one seam of the
    library's certificates (meets and covers in `monotone_violations`,
    generators in `functor_violations` and `doctrine_violations`, Light's
    test in `category_violations`, ⊤ and the coatoms in
    `interior_violations`). A certificate may only certify a pass: on
    False the literal scan runs and names the witnesses, so a run where it
    always returns False reports the same."""
    return all(checks)


def _meets_certified(m: MonotoneMap) -> bool:
    """Whether m, out of a Boolean poset, keeps the one-pass meet
    certificate, which proves it monotone: with C(x) the code of m(x), top
    ⊤ = 2ᵏ−1 and b the lowest bit missing from x, C(x) == C(x | b) & C(⊤ ^ b)
    for every x ≠ ⊤, 2ᵏ steps where the covers take k·2ᵏ⁻¹.

    Proof. By induction on the number of bits missing from x, C(x) = C(⊤) &
    ⋀_{b∉x} C(⊤ ^ b): at x = ⊤ the meet is empty; else x | b misses the bits
    of x but b, and C(⊤ ^ b) is the one term more. If x ⊆ y, every bit
    missing from y is missing from x, so C(x) holds every term of C(y) and is
    a subset of it, that is m(x) <= m(y) in the target's order by codes. A
    monotone map that does not preserve these meets misses the certificate,
    and the cover certificate decides it."""
    codes, images, at = m.dst.codes, m.images, m.src._by_code
    c, top = [codes[images[i]] for i in at], len(at) - 1
    return _certified(c[x] == c[x | (b := ~x & (x + 1))] & c[top ^ b] for x in range(top))


_MEETS = "doctrines.order._meets_certified"  # kept on a map that passed the meet certificate


def _keeps_meets(m: MonotoneMap) -> bool:
    """Whether `monotone_violations(m)` has run and certified m by the meet
    certificate, which then also proves that m preserves binary meets."""
    return _MEETS in getattr(m, "_kept", ())


@kept
def monotone_violations(m: MonotoneMap) -> list[str]:
    """Empty list iff order-preservation holds on every related pair; checked
    by the meet certificate first when the source is Boolean, then on the
    covering pairs of the source. Scanned once per map; a fresh list on
    every call. A pass of the meet certificate is kept on m (`_keeps_meets`)."""
    # every a <= b is a chain of covers and the target's <= is reflexive and
    # transitive, so preserving the covers certifies a pass; on a miss the
    # scan below finds the witnesses
    if m.src._by_code is not None and _meets_certified(m):
        _kept_on(m)[_MEETS] = True
        return []
    images, codes = m.images, m.dst.codes
    if _certified(not codes[images[i]] & ~codes[images[j]] for (i, j) in m.src.hasse()):
        return []
    out, scan = [], list(zip(m.src.elements, m.src.codes, images))
    for a, c, u in scan:
        out.extend(f"order not preserved on ({a},{b})" for b, d, v in scan if not c & ~d and codes[u] & ~codes[v])
    return sorted(out)


def _unions(masks: Sequence[int]) -> list[int]:
    """The union of the masks[j] with bit j in t, for every t < 2^len(masks):
    the unions at t and at t + 2ʲ differ by masks[j] alone, so each step
    doubles the table, 2ⁿ unions in all."""
    unions = [0]
    for mask in masks:
        unions += [u | mask for u in unions]
    return unions


@kept
def identity_map(p: FinPoset) -> MonotoneMap:
    """The identity of p, one shared value per poset, so its monotone
    verdict is scanned once per poset."""
    return MonotoneMap(p, p, tuple(_positions(len(p.elements))[: len(p.elements)]))


def compose_maps(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    if f.dst != g.src:
        raise ValueError("compose_maps: boundary mismatch")
    return MonotoneMap(f.src, g.dst, tuple(map(g.images.__getitem__, f.images)))


def same_composite(g: MonotoneMap, f: MonotoneMap, g2: MonotoneMap, f2: MonotoneMap | None = None) -> bool:
    """Whether g∘f is the same map as g2∘f2 (as g2 when `f2` is None),
    compared image by image up to the first difference, without building
    either composite. Raises as `compose_maps` does when a pair does not
    compose."""
    if f.dst != g.src or (f2 is not None and f2.dst != g2.src):
        raise ValueError("compose_maps: boundary mismatch")
    if f.src != (g2.src if f2 is None else f2.src) or g.dst != g2.dst:
        return False
    rhs = g2.images if f2 is None else map(g2.images.__getitem__, f2.images)
    return all(map(eq, map(g.images.__getitem__, f.images), rhs))


def is_identity_map(m: MonotoneMap, p: FinPoset, f: MonotoneMap | None = None) -> bool:
    """Whether m (m∘f when `f` is given) is the identity map of p, compared
    image by image up to the first difference, without building the
    composite. Raises as `compose_maps` does when f and m do not compose."""
    if f is not None and f.dst != m.src:
        raise ValueError("compose_maps: boundary mismatch")
    if (m if f is None else f).src != p or m.dst != p:
        return False
    images = m.images if f is None else map(m.images.__getitem__, f.images)
    return all(map(eq, images, range(len(p.elements))))


def restrict_map(m: MonotoneMap, src: FinPoset, dst: FinPoset) -> MonotoneMap:
    """m on the elements of `src`, into `dst`, on positions: each of `src`
    and `dst` is m's end itself (or equal to it) or a `sub_poset` of it,
    whose `within` gives the position there of each of its elements
    (unchecked: every image must lie in `dst`)."""
    images = m.images
    if src.within is not None and len(src.elements) < len(m.src.elements):
        images = map(images.__getitem__, src.within)
    if dst.within is not None and len(dst.elements) < len(m.dst.elements):
        images = map(dict(zip(dst.within, _positions(len(dst.within)))).__getitem__, images)
    return MonotoneMap(src, dst, tuple(images))


@value_class
class FinLattice:
    carrier: FinPoset
    meet: Mapping[tuple[str, str], str]
    join: Mapping[tuple[str, str], str]
    bottom: str


def _brute_inf(p: FinPoset, a: str, b: str):
    lower = [x for x in p.elements if p.leq(x, a) and p.leq(x, b)]
    best = [x for x in lower if all(p.leq(y, x) for y in lower)]
    return best[0] if len(best) == 1 else None


def _brute_sup(p: FinPoset, a: str, b: str):
    upper = [x for x in p.elements if p.leq(a, x) and p.leq(b, x)]
    best = [x for x in upper if all(p.leq(x, y) for y in upper)]
    return best[0] if len(best) == 1 else None


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
    bots = [x for x in p.elements if all(p.leq(x, y) for y in p.elements)]
    return FinLattice(p, meet, join, bots[0])


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


def _combinations(ground: Sequence[str]):
    """Every tuple of members of `ground` in position order, by size and
    then lexicographically by positions (`itertools.combinations` order)."""
    return (combo for r in range(len(ground) + 1) for combo in combinations(ground, r))


_SUBSET_CODES: dict[int, tuple[tuple[int, ...], list[int]]] = {}


def _subset_codes(k: int) -> tuple[tuple[int, ...], list[int]]:
    """The bitmasks of the subsets of k points in `_combinations` order, and
    the position of each bitmask, built once per k and shared, on the shared
    position ints. The r-subsets of the points from s on, in that order, are
    s joined to each (r−1)-subset of the points from s + 1, then the
    r-subsets of those, so the table grows from the last point down."""
    if k not in _SUBSET_CODES:
        at = _positions(1 << k)
        rows = [[0]]  # rows[r]: the r-subsets of the points from s on
        for s in range(k - 1, -1, -1):
            bit = 1 << s
            rows = [[0], *(list(map(at.__getitem__, map(bit.__or__, rows[r - 1]))) + (rows[r] if r < len(rows) else [])
                           for r in range(1, len(rows) + 1))]
        codes = tuple(chain.from_iterable(rows))
        by_code = [0] * len(codes)
        list(map(by_code.__setitem__, codes, at))
        _SUBSET_CODES[k] = codes, by_code
    return _SUBSET_CODES[k]


def _members(ground: Sequence[str], code: int) -> list[str]:
    """The points of `ground` at the bits of `code`, in ground order."""
    return [ground[b.bit_length() - 1] for b in _bits(code)]


def powerset_poset(ground: Sequence[str]) -> FinPoset:
    """Subsets in `subsets_in_order` order under inclusion, labelled as by
    `subset_label` and coded by their bitmask of ground positions: a Boolean
    poset, whose covers `hasse()` derives on first use. It holds its ground
    and the shared codes of its size (`_subset_codes`); its labels and
    frozenset values are computed on first read (see `FinPoset`), unless a
    ground point is empty, holds a comma or is repeated: then two labels
    could be one, so they are built here and a repeated one raises."""
    ground = tuple(ground)
    codes = _subset_codes(len(ground))[0]
    key = (_SUBSETS, 0, ground, codes)
    every_label = lambda: tuple("{" + ",".join(combo) + "}" for combo in _combinations(ground))
    every_value = lambda: tuple(subsets_in_order(ground))
    if len(set(ground)) < len(ground) or any(not e or "," in e for e in ground):
        return FinPoset(every_label(), codes, values=every_value(), value_key=key)
    labels = _Lazy(len(codes), lambda i: "{" + ",".join(_members(ground, codes[i])) + "}", every_label, (powerset_poset, ground))
    values = _Lazy(len(codes), lambda i: frozenset(_members(ground, codes[i])), every_value, key)
    return FinPoset(labels, codes, values=values, value_key=key)
