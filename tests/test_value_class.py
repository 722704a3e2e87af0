"""The library's frozen value classes (`order.value_class`) are built,
compared, hashed and shown as `dataclasses.dataclass(frozen=True)` builds
them: each test compares a class with its dataclass twin, declared by the
same body, or pins what the library's own classes keep. `order.kept` keeps
a build's result on a value without changing what the value is."""

import dataclasses

import pytest

from doctrines.cli import ModelDocument
from doctrines.order import Field, FinPoset, MonotoneMap, chain_poset, graph_map, identity_map, kept, value_class

FROZEN = dataclasses.dataclass(frozen=True)


def _point(decorate, field):
    @decorate
    class Point:
        x: int
        y: int = 0
        label: str = field(default="p")
        _total: int = field(init=False, default=None)

        def __post_init__(self):
            object.__setattr__(self, "_total", self.x + self.y)

    return Point


# a `Field` is left out of ==, hash and repr, as a dataclass field with
# repr=False and compare=False is
Point = _point(value_class, Field)
Twin = _point(FROZEN, lambda **options: dataclasses.field(repr=False, compare=False, **options))

CALLS = [
    ((1,), {}),
    ((1, 2), {}),
    ((1, 2, "q"), {}),
    ((), {"x": 1}),
    ((1,), {"y": 2}),
    ((), {"label": "r", "x": 3}),
]
BAD_CALLS = [
    ((), {}),  # missing
    ((), {"y": 2}),  # missing
    ((1, 2, "q", 4), {}),  # surplus
    ((1,), {"x": 2}),  # repeated
    ((1,), {"z": 3}),  # unknown
    ((1,), {"_total": 3}),  # not an init field
]


@pytest.mark.parametrize("args, kwargs", CALLS)
def test_a_constructor_call_sets_the_fields_a_dataclass_sets(args, kwargs):
    got, want = Point(*args, **kwargs), Twin(*args, **kwargs)
    assert vars(got) == vars(want)
    assert repr(got) == repr(want)
    assert hash(got) == hash(want)


@pytest.mark.parametrize("args, kwargs", BAD_CALLS)
def test_a_missing_unknown_repeated_or_surplus_argument_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Twin(*args, **kwargs)
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_assigning_or_deleting_an_attribute_raises_attribute_error():
    p = Point(1, 2)
    for name in ("x", "label", "_total", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, 5)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert vars(p) == {"x": 1, "y": 2, "label": "p", "_total": 3}
    m = identity_map(chain_poset(["a"]))
    with pytest.raises(AttributeError):
        m.images = ()


def test_fields_out_of_the_comparison_stay_out_of_eq_and_hash():
    assert Point(1, 2, "a") == Point(1, 2, "b") and hash(Point(1, 2, "a")) == hash(Point(1, 2, "b"))
    assert Point(1, 2) != Point(2, 1)
    # instances of another class are never equal, even with the same fields
    assert Point(1, 2) != Twin(1, 2) and Twin(1, 2) != Point(1, 2)
    # the values and covers of a poset take no part in its equality
    p = chain_poset(["a", "b"])
    assert FinPoset(p.elements, p.codes, values=("u", "v")) == FinPoset(p.elements, p.codes, covers=p.hasse())


def test_a_single_compared_field_hashes_as_a_one_tuple():
    One, OneTwin = (decorate(type("One", (), {"__annotations__": {"n": "int"}})) for decorate in (value_class, FROZEN))
    assert hash(One(5)) == hash(OneTwin(5)) == hash((5,))
    assert One(5) == One(5) != One(6)
    assert hash(ModelDocument(())) == hash(((),))


def test_a_class_keeps_its_own_eq_and_hash_and_one_with_only_eq_gets_the_field_hash():
    def named(decorate):
        @decorate
        class Named:
            name: str
            tag: int

            def __eq__(self, other):
                return isinstance(other, Named) and self.name == other.name

        return Named

    Named, NamedTwin = named(value_class), named(FROZEN)
    assert Named("a", 1) == Named("a", 2)
    assert hash(Named("a", 1)) == hash(NamedTwin("a", 1)) == hash(("a", 1))
    # FinPoset hashes its elements alone; MonotoneMap compares and hashes its
    # fields, the two posets and the images, so a graph in any key order is
    # the same value
    p = chain_poset(["a", "b"])
    assert hash(p) == hash(("a", "b"))
    m = graph_map(p, p, {"b": "b", "a": "a"})
    assert m == identity_map(p) and hash(m) == hash(identity_map(p)) == hash((p, p, (0, 1)))


def test_library_reprs_show_the_repr_fields_in_order():
    assert repr(chain_poset(["a", "b"])) == "FinPoset(elements=('a', 'b'), codes=(1, 3))"
    p = chain_poset(["a"])
    assert repr(identity_map(p)) == f"MonotoneMap(src={p!r}, dst={p!r}, images=(0,))"


def test_post_init_is_looked_up_at_each_construction(monkeypatch):
    seen = []
    monkeypatch.setattr(Point, "__post_init__", lambda self: seen.append(self.x))
    Point(4)
    # a class without a __post_init__ of its own calls one patched in later
    monkeypatch.setattr(MonotoneMap, "__post_init__", lambda self: seen.append(len(self.images)), raising=False)
    identity_map(chain_poset(["a", "b"]))
    assert seen == [4, 2]
    monkeypatch.undo()
    assert Point(4)._total == 4
    identity_map(chain_poset(["a", "b"]))
    assert seen == [4, 2]


def test_every_value_class_shares_one_constructor_and_keeps_no_defaults_on_the_class():
    assert Point.__init__.__code__ is MonotoneMap.__init__.__code__ is FinPoset.__init__.__code__
    assert not any(hasattr(FinPoset, name) for name in ("codes", "covers", "values", "within", "value_key"))


def _kept_norm():
    """A kept build that records each value it runs on."""
    runs = []

    def norm(p):
        runs.append(p)
        return [p.x, p.y]

    return kept(norm), norm, runs


def test_a_kept_entry_leaves_eq_hash_and_repr_unchanged():
    get, norm, runs = _kept_norm()
    p, q = Point(1, 2), Point(1, 2)
    before = (p == q, hash(p), repr(p))
    assert get(p) == [1, 2] and get(p) == [1, 2] and runs == [p]
    # the entry sits in the dict p holds as `_kept`, which is no field
    assert vars(p).keys() - vars(q).keys() == {"_kept"} and p._kept.keys() == {f"{__name__}.{norm.__qualname__}"}
    assert (p == q, hash(p), repr(p)) == before == (True, hash(q), repr(q))


def test_a_build_that_raises_keeps_nothing_and_raises_again():
    runs = []

    def fails(p):
        runs.append(p)
        raise ValueError(f"no build for {p.x}")

    get, p = kept(fails), Point(1, 2)
    for _ in range(2):
        with pytest.raises(ValueError, match="no build for 1"):
            get(p)
    assert runs == [p, p]
    assert vars(p) == vars(Point(1, 2))


def test_a_kept_list_comes_back_as_a_fresh_copy_and_anything_else_as_itself():
    get, _, runs = _kept_norm()
    p = Point(3)
    first, second = get(p), get(p)
    assert first == second == [3, 0] and first is not second
    first.append("tampered")
    assert get(p) == [3, 0] and len(runs) == 1
    pair = kept(lambda p: (p.x, []))
    assert pair(p) is pair(p)


@value_class
class Over:
    """A value over a base object that opts in to keeping by value."""

    base: object
    x: int
    y: int = 0

    def _base(self):
        return self.base

    def _digest(self):
        return (self.x,)


class Base:
    """A base object, compared by identity."""


def test_an_equal_value_finds_the_entry_only_when_its_class_has_a_digest():
    # a Point has no `_digest`: a separately built equal one gets its own entry
    get, _, runs = _kept_norm()
    p, q = Point(1, 2), Point(1, 2)
    assert p == q and get(p) == get(q) and get(p) == get(q)
    assert runs == [p, q] and runs[0] is p and runs[1] is q
    # one that has: an equal value over the same base object finds the entry,
    # one that differs beyond its digest or lies over another base does not
    pair = kept(lambda v: runs.append(v) or (v.x, v.y))
    base, runs[:] = Base(), []
    first = Over(base, 1, 2)
    same, other_y, other_base = Over(base, 1, 2), Over(base, 1, 3), Over(Base(), 1, 2)
    assert pair(first) is pair(same) and pair(other_y) == (1, 3) and pair(other_base) == (1, 2)
    assert runs == [first, other_y, other_base]


def test_a_kept_function_carries_the_name_module_and_doc_of_its_build():
    get, norm, _ = _kept_norm()
    assert (get.__module__, get.__name__, get.__qualname__, get.__wrapped__) == (
        norm.__module__,
        "norm",
        norm.__qualname__,
        norm,
    )
    # the library's kept functions, as the per-layer tracing finds them
    from doctrines import comonad

    assert comonad.em_doctrine.__module__ == "doctrines.comonad" and comonad.em_doctrine.__name__ == "em_doctrine"
    assert comonad.em_doctrine.__doc__ == comonad.em_doctrine.__wrapped__.__doc__
