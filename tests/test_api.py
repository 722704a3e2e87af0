"""Static checks on the library source: one name per law, real checks only.

Each law has one public name, its `*_violations` function, which returns a
witness list: only `check_poset` and `check_category` carry a `check_` name,
no public name ends in `_check` or `_checks`, and only the acceptance
suite's report, `run_acceptance`, returns a dict with a "pass" key. A public function whose body only passes its own
parameters on to another function is a second name for that function, and
so are a public function that only reads an attribute of its one parameter
and a `cached_property` or `order.derived` property that only passes `self`
to a module-level function (a verdict or construction is kept on its value by `order.kept` on the one
public function). Invariants are enforced by raising, never by `assert`,
which `python -O` strips. A module imports only the names it uses,
and only from the package itself or the standard library. Every module-level
function, class and name bound by assignment (dunder names such as
`__version__` aside) is named by a library module, `__init__` included,
outside its own definition: a definition that only tests, the benchmark or
the tools name belongs with them, not in the library, and so does a method
or field of a library class that no code reads. The temporal oracles reach
no code of the fixed-point engine they check.
"""

import ast
import builtins
import importlib
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "doctrines").glob("*.py"))


def _functions(tree: ast.Module):
    """Module-level functions and the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, ast.FunctionDef))


def _params(fn: ast.FunctionDef) -> list[str]:
    return [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]


def _returned(fn: ast.FunctionDef) -> ast.expr | None:
    """What `fn` returns when its body, past a docstring and any imports, is
    only a `return`."""
    body = [s for s in fn.body if not isinstance(s, (ast.Import, ast.ImportFrom))]
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
        body = body[1:]
    return body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None


def _unwrapped(node, wrapper: str):
    """The argument of `wrapper(x)` when `node` is that call, else `node`."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == wrapper and len(node.args) == 1:
        return node.args[0] if not node.keywords else node
    return node


def _is_alias(fn: ast.FunctionDef) -> bool:
    """Whether the body is only `return g(<fn's own parameters>)`."""
    call = _returned(fn)
    if not isinstance(call, ast.Call):
        return False
    passed = list(call.args) + [k.value for k in call.keywords]
    return all(isinstance(a, ast.Name) for a in passed) and [a.id for a in passed] == _params(fn)


def _reads_an_attribute(fn: ast.FunctionDef) -> bool:
    """Whether the body is only `return p.<attr>` or `return list(p.<attr>)`
    on fn's one parameter p."""
    read = _unwrapped(_returned(fn), "list")
    return (
        isinstance(read, ast.Attribute) and isinstance(read.value, ast.Name) and [read.value.id] == _params(fn)
    )


def _forwards_self(fn: ast.FunctionDef) -> bool:
    """Whether `fn` is a `cached_property` or an `order.derived` property
    whose body only returns `g(self)` or `tuple(g(self))` for a module-level
    function g."""
    if not any(getattr(d, "id", getattr(d, "attr", None)) in ("cached_property", "derived") for d in fn.decorator_list):
        return False
    call = _unwrapped(_returned(fn), "tuple")
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and not call.keywords
        and [getattr(a, "id", None) for a in call.args] == _params(fn)[:1] == ["self"]
    )


def _aliases(source: str) -> list[str]:
    """Public functions and methods that only forward their parameters,
    public module-level functions that only read an attribute, and cached
    properties that only forward `self`, in source order."""
    tree = ast.parse(source)
    return [
        fn.name
        for fn in _functions(tree)
        if not fn.name.startswith("_") and (_is_alias(fn) or fn in tree.body and _reads_an_attribute(fn))
        or _forwards_self(fn)
    ]


def test_no_public_function_only_forwards_its_parameters():
    found = [f"{path.name}: {name}" for path in SOURCES for name in _aliases(path.read_text())]
    assert found == []


def test_no_assert_statements_in_the_library():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_alias_scan_flags_a_planted_alias_and_nothing_else():
    source = '''
def law_violations(a, b):
    return []


def check_law(a, b):
    """A second name for the law."""
    return law_violations(a, b)


def check_law_by_keyword(a, b):
    return law_violations(a, b=b)


def first_violation(a, b):
    return law_violations(a, b)[0]


def law_holds(a, b):
    return law_violations(b, a)


def _private_alias(a, b):
    return law_violations(a, b)


def law_verdict(a):
    """A verdict read off the value."""
    return a._verdict


def law_verdict_copy(a):
    return list(a._verdict)


def law_field(a, b):
    return a.field


def law_size(a):
    return len(a.parts)


def _private_read(a):
    return a._verdict


class Law:
    def violations(self):
        return law_violations(self)

    def parts(self):
        return self.parts

    @cached_property
    def _verdict(self):
        return tuple(law_violations(self))

    @cached_property
    def _built(self):
        """A construction imported late."""
        from .other import build

        return build(self)

    @cached_property
    def _counted(self):
        return len(law_violations(self))

    @cached_property
    def _pair(self):
        return law_violations(self, self)

    @cached_property
    def _method(self):
        return self.build()

    @derived
    def _kept_verdict(self):
        return law_violations(self)

    @derived
    def _kept_count(self):
        return len(law_violations(self))
'''
    assert _aliases(source) == [
        "check_law",
        "check_law_by_keyword",
        "law_verdict",
        "law_verdict_copy",
        "violations",
        "_verdict",
        "_built",
        "_kept_verdict",
    ]


def _unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads;
    `__future__` imports are exempt."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.extend((a.asname or a.name).split(".")[0] for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_unused_imports_in_the_library():
    # __init__.py imports in order to re-export
    found = [
        f"{path.name}: {name}"
        for path in SOURCES
        if path.name != "__init__.py"
        for name in _unused_imports(path.read_text())
    ]
    assert found == []


def test_no_unused_imports_in_the_tests_and_tools():
    paths = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    found = [f"{path.parent.name}/{path.name}: {name}" for path in paths for name in _unused_imports(path.read_text())]
    assert found == []


def test_unused_import_scan_flags_a_planted_import_and_nothing_else():
    source = """
from __future__ import annotations

import os.path
import random
from itertools import product as cartesian
from typing import Mapping, Sequence

from .order import powerset_poset, subset_label


def label(xs: Sequence[str]) -> str:
    return subset_label(xs, sorted(xs)) + os.path.sep + str(cartesian)


def draw(rng: random.Random) -> int:
    return rng.randrange(3)
"""
    assert _unused_imports(source) == ["Mapping", "powerset_poset"]


def _foreign_imports(source: str) -> list[str]:
    """Modules an import statement anywhere in `source` names that are
    neither relative nor in the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return [m for m in found if m.split(".")[0] not in sys.stdlib_module_names]


def test_library_imports_only_the_standard_library():
    assert [f"{path.name}: {m}" for path in SOURCES for m in _foreign_imports(path.read_text())] == []


def test_foreign_import_scan_flags_planted_imports_and_nothing_else():
    source = """
from __future__ import annotations

import os.path
import numpy as np
from collections.abc import Mapping
from hypothesis import given

from . import order
from .order import subset_label


def f():
    import scipy.sparse
    from .suite import run_acceptance
"""
    assert _foreign_imports(source) == ["numpy", "hypothesis", "scipy.sparse"]


def _identifiers(nodes) -> Counter:
    """How often each name is read: as a variable, an attribute or an imported name."""
    found = Counter()
    for node in nodes:
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
    return found


def _references(corpus: list[str]) -> Counter:
    used = Counter()
    for text in corpus:
        used += _identifiers(ast.walk(ast.parse(text)))
    return used


def _definitions(tree: ast.Module):
    """(name, node) for each module-level function, class and name bound by
    assignment, dunder names aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store) and not name.id.startswith("__"):
                        yield name.id, node


def _unreferenced(source: str, used: Counter) -> list[str]:
    """Module-level definitions of `source` that the corpus counted in `used`
    (which holds `source` too) names nowhere outside their own definition."""
    return [name for name, node in _definitions(ast.parse(source)) if used[name] == _identifiers(ast.walk(node))[name]]


def test_every_library_function_and_class_is_referenced():
    used = _references([path.read_text() for path in SOURCES])
    found = [f"{path.name}: {name}" for path in SOURCES for name in _unreferenced(path.read_text(), used)]
    assert found == []


def test_dead_code_scan_flags_planted_definitions_and_nothing_else():
    source = '''
def used():
    return helper()


def helper():
    return 1


def recursive(n):
    return recursive(n - 1) if n else 0


class Unused:
    def again(self):
        return Unused()


def _private():
    return 0


def tested_only():
    return 2


LIMIT: int = 3
KINDS, UNUSED = ("a", "b"), ("c",)
__version__ = "0"
'''
    other = '''
from .lib import used

value = lib._private() + LIMIT + len(KINDS)
'''
    test = '''
from doctrines.lib import tested_only


def test_tested_only():
    assert tested_only() == 2
'''
    assert _unreferenced(source, _references([source, other])) == ["recursive", "Unused", "tested_only", "UNUSED"]
    # the test file's reference would pass tested_only; the scan reads library modules only
    assert _unreferenced(source, _references([source, other, test])) == ["recursive", "Unused", "UNUSED"]


def _placed(node, where: str = "<module>"):
    """Every node below `node` with where it sits: the enclosing function as
    `outer.inner` (methods as `Class.method`), or `<module>`."""
    for child in ast.iter_child_nodes(node):
        yield child, where
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if where == "<module>" else f"{where}.{child.name}"
        yield from _placed(child, inner)


def _callers(source: str, name: str) -> list[str]:
    """Where `source` calls `name`, as a bare or attribute call."""
    return [
        where
        for node, where in _placed(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
        )
    ]


def test_only_the_checked_constructors_build_a_fin_category():
    # functor_violations and doctrine_violations certify composition on a
    # generating set of arrows, which is sound only for associative categories;
    # concrete_category proves the arrows closed, and check_category calls it
    found = {f"{path.stem}.{where}" for path in SOURCES for where in _callers(path.read_text(), "FinCategory")}
    assert found == {"fincat.concrete_category"}


def test_constructor_scan_flags_planted_calls_and_nothing_else():
    source = '''
from . import fincat
from .fincat import FinCategory


def check_category(a):
    return FinCategory(a)


def shortcut(a):
    return FinCategory(a)


class Builder:
    def build(self):
        def inner():
            return fincat.FinCategory(1)

        return inner()


EMPTY = FinCategory(())


def is_category(x):
    return isinstance(x, FinCategory)
'''
    assert _callers(source, "FinCategory") == ["check_category", "shortcut", "Builder.build.inner", "<module>"]


# a module imports what it needs at its top; the late imports keep `suite`,
# and `random` with it, off the command path until `suite` runs, and
# `argparse`, with the `gettext` and `shutil` it loads, off every fully
# spelled command line: only one that `parse_argv` hands on builds parsers
LATE_IMPORTS = {"cli.run: suite", "cli._argparse_flags: argparse"}


def _late_imports(source: str) -> list[str]:
    """`where: module` for each import statement inside a function or class."""
    return [
        f"{where}: {node.module if isinstance(node, ast.ImportFrom) else node.names[0].name}"
        for node, where in _placed(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom)) and where != "<module>"
    ]


def test_no_library_function_imports_late_but_the_suite_command():
    found = {f"{path.stem}.{hit}" for path in SOURCES for hit in _late_imports(path.read_text())}
    assert found == LATE_IMPORTS


def test_late_import_scan_flags_planted_imports_and_nothing_else():
    source = '''
import os
from .order import kept


def run():
    from .suite import run_acceptance

    return run_acceptance


class Value:
    def _ma(self):
        import json
        from .comonad import ma

        return ma(self)
'''
    assert _late_imports(source) == ["run: suite", "Value._ma: json", "Value._ma: comonad"]


# the builders that may construct a FinPoset, directly or through
# poset_from_pairs: each builds a partial order, which the cover certificate
# of monotone_violations needs
FIN_POSET_BUILDERS = {
    "order.poset_from_pairs",
    "order.check_poset",
    "order.chain_poset",
    "order.sub_poset",
    "order.product_poset",
    "order.powerset_poset",
    "instances._pointwise_fiber",
    "instances.fam_doctrine",
}


def _unlisted_callers(sources: dict, name: str, allowed: set) -> list[str]:
    """The `module.where` places in `sources` (module stem to text) that call
    `name` and are not in `allowed`."""
    found = [f"{stem}.{where}" for stem, text in sources.items() for where in _callers(text, name)]
    return [where for where in found if where not in allowed]


def test_only_the_named_builders_build_a_fin_poset():
    sources = {path.stem: path.read_text() for path in SOURCES}
    for name in ("FinPoset", "poset_from_pairs"):
        assert any(_callers(text, name) for text in sources.values())
        assert _unlisted_callers(sources, name, FIN_POSET_BUILDERS) == []


def test_fin_poset_scan_flags_planted_calls_and_nothing_else():
    order = '''
def powerset_poset(ground):
    return FinPoset(tuple(ground), frozenset(), ())


def shortcut(elements):
    return FinPoset(elements, frozenset())
'''
    instances = '''
from . import order


def _pointwise_fiber(keys, factors):
    return order.FinPoset((), frozenset())


class Fibers:
    def build(self):
        return [order.FinPoset((), frozenset()) for _ in range(2)]


def is_poset(x):
    return isinstance(x, order.FinPoset)
'''
    sources = {"order": order, "instances": instances}
    assert _unlisted_callers(sources, "FinPoset", FIN_POSET_BUILDERS) == ["order.shortcut", "instances.Fibers.build"]


# the builders that may construct a MonotoneMap, each with why it is total
# into its target by construction, except graph_map, which checks a graph
# read from outside the library
MONOTONE_MAP_BUILDERS = {
    "order.graph_map": "checks that a graph read from outside is total into dst",
    "order.value_map": "looks each image value up in dst.by_value, raising on a miss",
    "order.identity_map": "the positions of p itself",
    "order.compose_maps": "indexes g's images by f's, positions of g.src = f.dst",
    "order.restrict_map": "maps positions through each end's `within`, the positions sub_poset kept",
    "instances._core_of": "positions read off the carrier and the sub-poset by `index`",
    "instances._function_doctrine": (
        "α∘g has a codomain digit at each key of s, so its digit sum is a position of the fiber at s"
    ),
    "instances._postcompose": (
        "table gives a target codomain position per digit, so the digit sum is a position of the target fiber"
    ),
    "doctrine.inverse_image_doctrine": (
        "a preimage is a code of the source ground's bits, and a powerset holds every such code (_by_code)"
    ),
    "temporal.temporal_doctrine": "each box is a code of the coalgebra's states, read back through _by_code",
    "suite.random_vertical_adjunction": (
        "a union of atom masks, or a mask of atoms, is a code of a powerset, read back through _by_code"
    ),
}


def test_only_the_named_builders_build_a_monotone_map():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert _unlisted_callers(sources, "MonotoneMap", MONOTONE_MAP_BUILDERS) == []
    # every listed builder still builds one
    assert {f"{stem}.{where}" for stem, text in sources.items() for where in _callers(text, "MonotoneMap")} == (
        set(MONOTONE_MAP_BUILDERS)
    )


def test_monotone_map_scan_flags_planted_calls_and_nothing_else():
    order = '''
def graph_map(src, dst, graph):
    return MonotoneMap(src, dst, tuple(graph.values()))


def from_labels(src, dst, labels):
    return MonotoneMap(src, dst, labels)
'''
    cli = '''
from . import order
from .order import MonotoneMap


def _build_interior(ws, d):
    parts: dict[str, MonotoneMap] = {}
    return [order.MonotoneMap(p, p, ()) for p in ws.posets], parts


def _resolve_fiber(ws, name):
    return isinstance(ws.posets[name], MonotoneMap)
'''
    sources = {"order": order, "cli": cli}
    assert _unlisted_callers(sources, "MonotoneMap", MONOTONE_MAP_BUILDERS) == ["order.from_labels", "cli._build_interior"]


# the builders that may construct a Functor, each with why it is a functor
# or where its laws are checked
FUNCTOR_BUILDERS = {
    "fincat.fin_functor": "the checked constructor: raises unless functor_violations is empty",
    "fincat.identity_functor": "the identity tables of a category",
    "fincat.compose_functors": "composes the tables of two functors whose boundaries it checks",
    "fincat.coalgebra_category": "U reads each coalgebra arrow's payload, which composes as in the base",
    "doctrine.restrict_doctrine": "the inclusion of a subcategory, its objects and arrows as themselves",
    "doctrine.power_doctrine": "f ↦ f×id_X, which instances.forall_instance finds by its image positions, "
    "so that it commutes with both projections",
    "comonad._into_coalgebras": "a base functor lifted along structure arrows its callers prove coalgebras: "
    "the free coalgebras (K on arrows, a coalgebra arrow by μ's naturality), the comparison arrow (L, landing in "
    "coalgebras by the adjunction's triangle laws) and the universal factor (X, into the coalgebras ξ that its "
    "coherence scan admits)",
    "suite.presheaf_restriction_base_change": "restriction to the world w2, a functor by evaluation",
    "cli._build_comonad": "K read from model text, whose laws the comonad verdict checks (functor_violations)",
}


def test_only_the_named_builders_build_a_functor():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert _unlisted_callers(sources, "Functor", FUNCTOR_BUILDERS) == []
    # every listed builder still builds one
    assert {f"{stem}.{where}" for stem, text in sources.items() for where in _callers(text, "Functor")} == (
        set(FUNCTOR_BUILDERS)
    )


def test_functor_scan_flags_planted_calls_and_nothing_else():
    fincat = '''
def identity_functor(C):
    return Functor(C, C, {}, {})


def opposite(C):
    return Functor(C, C, {x: x for x in C.objects}, {})
'''
    cli = '''
from . import fincat
from .fincat import Functor


def _build_comonad(ws, d):
    K: Functor = fincat.Functor(ws.base, ws.base, {}, {})
    return K


def _build_doctrine(ws, d):
    return isinstance(ws.k, Functor), [fincat.Functor(b, b, {}, {}) for b in ws.bases]
'''
    sources = {"fincat": fincat, "cli": cli}
    assert _unlisted_callers(sources, "Functor", FUNCTOR_BUILDERS) == ["fincat.opposite", "cli._build_doctrine"]


# a map between fibers is read off the values its elements keep
# (order.value_map), and an oracle reads the values too; a label is parsed
# back into a subset only where model text is read
LABEL_READERS = {"cli._set_atom"}


def test_only_the_model_reader_parses_a_subset_label():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert any(_callers(text, "label_subset") for text in sources.values())
    assert _unlisted_callers(sources, "label_subset", LABEL_READERS) == []


def test_label_reader_scan_flags_planted_calls_and_nothing_else():
    cli = '''
from .order import label_subset


def _set_atom(atom):
    return label_subset(atom)


def _frame_worlds(atom):
    return sorted(label_subset(atom))
'''
    instances = '''
from . import order


def presheaf_oracle_mismatches(labels, d):
    return {w: order.label_subset(v) for w, v in labels}


def kripke_doctrine(frame, sets):
    box = {lbl: order.label_subset(lbl) for lbl in sets}
    return box, order.subset_label(box, frame)


READER = order.label_subset
'''
    sources = {"cli": cli, "instances": instances}
    assert _unlisted_callers(sources, "label_subset", LABEL_READERS) == [
        "cli._frame_worlds", "instances.presheaf_oracle_mismatches", "instances.kripke_doctrine"
    ]


# law checks compare maps and functors pointwise (order.same_composite,
# order.is_identity_map, fincat.same_functor_composite,
# fincat.is_identity_functor) instead of building the two sides and
# comparing the results
BUILT_TO_COMPARE = {
    "compose_maps", "compose_functors", "identity_functor", "identity_map",
    "compose_one_arrows", "identity_one_arrow", "identity_adj_morphism",
}


def _built_by(node) -> str | None:
    """The name of the BUILT_TO_COMPARE function `node` calls, if it is such a call."""
    if isinstance(node, ast.Call):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name in BUILT_TO_COMPARE:
            return name
    return None


def _compared_constructions(source: str) -> list[str]:
    """`function: call`, sorted, for each operand of an `==` or `!=`
    comparison inside a `*_violations` function or method of `source` that
    is a call to one of BUILT_TO_COMPARE, or a plain name the function
    assigns such a call to."""
    found = []
    for fn in _functions(ast.parse(source)):
        if not fn.name.endswith("_violations"):
            continue
        named = {
            target.id: _built_by(node.value)
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and _built_by(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(fn):
            if not isinstance(node, ast.Compare) or not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for operand in (node.left, *node.comparators):
                name = named.get(operand.id) if isinstance(operand, ast.Name) else _built_by(operand)
                if name:
                    found.append(f"{fn.name}: {name}")
    return sorted(found)


def test_no_law_check_compares_a_map_or_functor_it_built():
    assert [f"{path.name}: {hit}" for path in SOURCES for hit in _compared_constructions(path.read_text())] == []


def test_compared_construction_scan_flags_planted_comparisons_and_nothing_else():
    source = '''
from . import fincat
from .order import compose_maps, identity_map


def reindex_violations(d, x, g, f, h):
    out = []
    if d.reindex[x] != identity_map(d.fibers[x]):
        out.append("identity")
    if compose_maps(g, f) == h:
        out.append("composite")
    if fincat.compose_functors(g, f) != h or h is identity_map(x):
        out.append("functor")
    gf = compose_maps(g, f)
    if gf != h:
        out.append("named composite")
    if compose_maps(g, f).apply(x) == x or g <= identity_map(x):
        out.append("not flagged: an image and an order")
    return out


class Arrow:
    def law_violations(self):
        return [] if fincat.identity_functor(self.base) == self.functor else ["not the identity"]


def factorization_violations(A, b, a):
    out = [] if compose_one_arrows(b, a) == left_arrow(A) else ["left composite"]
    ident = identity_adj_morphism(A)
    if nabla(A) != ident or identity_one_arrow(A.p) != b:
        out.append("not the identity")
    return out


def factor(g, f, h):
    return compose_maps(g, f) == h
'''
    assert _compared_constructions(source) == [
        "factorization_violations: compose_one_arrows",
        "factorization_violations: identity_adj_morphism",
        "factorization_violations: identity_one_arrow",
        "law_violations: identity_functor",
        "reindex_violations: compose_functors",
        "reindex_violations: compose_maps",
        "reindex_violations: compose_maps",
        "reindex_violations: identity_map",
    ]


# Each law has one name, its `*_violations` function; only `check_poset` and
# `check_category` carry a `check_` name, because they validate and construct
CHECK_NAMED = {"check_poset", "check_category"}


def _check_names(source: str) -> list[str]:
    """Public functions and methods of `source` named `check_*`, `*_check`
    or `*_checks`, in source order."""
    return [
        fn.name
        for fn in _functions(ast.parse(source))
        if not fn.name.startswith("_") and (fn.name.startswith("check_") or fn.name.endswith(("_check", "_checks")))
    ]


def test_only_check_poset_and_check_category_carry_a_check_name():
    found = [name for path in SOURCES for name in _check_names(path.read_text())]
    assert sorted(found) == sorted(CHECK_NAMED)


def test_check_name_scan_flags_planted_names_and_nothing_else():
    source = '''
def check_poset(elements, pairs):
    return elements


def triviality_checks(A):
    return {"pass": True}


def modality_comparison_check(A):
    return []


def _local_check(A):
    return []


def checked_violations(A):
    return []


class Law:
    def law_check(self):
        return []
'''
    assert _check_names(source) == ["check_poset", "triviality_checks", "modality_comparison_check", "law_check"]


# The library's one report: the acceptance suite's criteria. Every verdict,
# the refined factorization and the bang laws included, is a `*_violations`
# witness list.
REPORTS = {"suite.run_acceptance"}


def _own_nodes(fn: ast.FunctionDef):
    """The nodes of fn's body outside the functions, lambdas and classes it defines."""
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    todo = [n for n in fn.body if not isinstance(n, nested)]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, nested))


def _holds_pass(node) -> bool:
    return isinstance(node, ast.Dict) and any(isinstance(k, ast.Constant) and k.value == "pass" for k in node.keys)


def _pass_reports(source: str) -> list[str]:
    """Functions and methods of `source`, nested ones included, that return
    a dict with a "pass" key: a dict display holding the key, or a name the
    function binds to one or sets the key on; sorted."""
    found = []
    for fn in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef)):
        nodes = list(_own_nodes(fn))
        named = set()
        for node in nodes:
            for target in node.targets if isinstance(node, ast.Assign) else ():
                if isinstance(target, ast.Name) and _holds_pass(node.value):
                    named.add(target.id)
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and isinstance(target.slice, ast.Constant)
                    and target.slice.value == "pass"
                ):
                    named.add(target.value.id)
        returned = [n.value for n in nodes if isinstance(n, ast.Return)]
        if any(_holds_pass(v) or isinstance(v, ast.Name) and v.id in named for v in returned):
            found.append(fn.name)
    return sorted(found)


def test_only_the_reports_return_a_dict_with_a_pass_key():
    found = {f"{path.stem}.{name}" for path in SOURCES for name in _pass_reports(path.read_text())}
    assert found == REPORTS


def test_pass_report_scan_flags_planted_reports_and_nothing_else():
    source = '''
def law_report(a):
    return {"pass": not a, "witnesses": a}


def built_report(a):
    report = {"absorption": a}
    report["pass"] = not a
    return report


def displayed(a):
    rep = {"pass": True}
    return rep


def recorded(self, a):
    v = {"name": a, "pass": not a}
    self.verdicts.append(v)


def law_violations(a):
    return [f"pass {x}" for x in a]


def rows(a):
    def row(b):
        return {"pass": b}

    return [row(b) for b in a]


class Suite:
    def run(self):
        return {"criteria": [], "pass": True}

    def passed(self, rep):
        return rep["pass"]
'''
    assert _pass_reports(source) == ["built_report", "displayed", "law_report", "row", "run"]


# A construction's precondition is one call of the guard `order._require`,
# the one place a witness list becomes the text of an error
def _joins_witnesses(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "join"
        and isinstance(node.func.value, ast.Constant)
        and node.func.value.value == "; "
    )


def _joined_raises(source: str) -> list[str]:
    """Functions and methods of `source`, nested ones included, that raise
    an exception built from a `"; ".join(...)`; sorted."""
    return sorted(
        fn.name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(node, ast.Raise) and node.exc is not None and any(map(_joins_witnesses, ast.walk(node.exc)))
            for node in _own_nodes(fn)
        )
    )


def test_only_the_guard_raises_an_error_that_joins_witnesses():
    found = [f"{path.stem}.{name}" for path in SOURCES for name in _joined_raises(path.read_text())]
    assert found == ["order._require"]


def test_joined_raise_scan_flags_planted_raises_and_nothing_else():
    source = '''
def _require(witnesses, what):
    if witnesses:
        raise ValueError(f"{what}: " + "; ".join(witnesses[:3]))


def em_doctrine(c):
    bad = comonad_violations(c)
    if bad:
        raise ValueError("invalid comonad: " + "; ".join(bad[:5]))
    return c


def outer(c):
    def inner(bad):
        raise KeyError(f"missing: {'; '.join(bad)}")

    return inner


def other_separator(c):
    raise ValueError(f"unknown closure (expected one of {', '.join(c)})")


def joined_but_not_raised(details, bad):
    details.append("; ".join(bad))
    raise ValueError(bad[0])


class Scan:
    def run(self, bad):
        if bad:
            raise RuntimeError("laws fail: " + "; ".join(bad))
'''
    assert _joined_raises(source) == ["_require", "em_doctrine", "inner", "run"]


def _reads(corpus: list[str]) -> set[str]:
    """Every attribute name the corpus reads."""
    return {
        node.attr
        for text in corpus
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _base_class(node):
    """The class a base-class expression names: a builtin or `module.Class`."""
    if isinstance(node, ast.Name):
        return getattr(builtins, node.id, None)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return getattr(importlib.import_module(node.value.id), node.attr, None)
    return None


def _unread_members(source: str, corpus: list[str]) -> list[str]:
    """`Class.member` for each method and annotated field of a class of
    `source`, nested classes included, whose name the corpus never reads as
    an attribute. Special methods, which the language calls, and overrides of
    a method of a base class outside `source` are exempt."""
    read = _reads(corpus)
    found = []
    for cls in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef)):
        bases = [_base_class(b) for b in cls.bases]
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            special = name.startswith("__") and name.endswith("__")
            if not special and not any(hasattr(b, name) for b in bases if b is not None) and name not in read:
                found.append(f"{cls.name}.{name}")
    return found


def test_every_member_of_a_library_class_is_read():
    corpus = [path.read_text() for d in ("src", "tests", "tools", "bench") for path in sorted((ROOT / d).rglob("*.py"))]
    found = [f"{path.stem}.{member}" for path in SOURCES for member in _unread_members(path.read_text(), corpus)]
    assert found == []


def test_unread_member_scan_flags_planted_members_and_nothing_else():
    library = '''
import argparse


@value_class
class Pair:
    left: str
    right: str
    unused: int = 0

    def swap(self):
        return Pair(self.right, self.left)

    def never(self):
        return 1

    def __eq__(self, other):
        return self.left == other.left

    def __contains__(self, a):
        return a in (self.left, self.right)


def parser():
    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

        def extra(self):
            return 0

    return Parser
'''
    reader = '''
def use(p):
    p.unused = 3
    return p.left, p.swap()
'''
    # a write is no read, and neither is a name in a string
    assert _unread_members(library, [library, reader, "'never extra'"]) == ["Pair.unused", "Pair.never", "Parser.extra"]


# Law verdicts and derived constructions are kept on the value they belong
# to (adjunction, comonad, interior operator, functor; `order.kept`), which
# is sound only while no value changes after it is built: library code never
# writes into the tables a value holds, and sets its own fields only while it
# is built, in the value-class constructor and in `__post_init__`.
TABLE_FIELDS = {
    "lam", "rho", "kappa", "parts", "reindex", "fibers",
    "obj_map", "arr_map", "components", "mapping", "identities", "payload", "composites",
}
MUTATORS = {"update", "pop", "popitem", "setdefault", "clear", "__setitem__", "__delitem__"}
# FinPoset.hasse fills its `covers` field, which takes no part in equality,
# with the covering pairs of its own codes, once; FinCategory.comp keeps each
# composite in its `composites` field the first time it is asked for, which
# takes no part in equality either: a composite is a function of the
# payloads and `compose`, and == compares composites by asking `comp`;
# order._kept_on sets the dict of results `order.kept` keeps on a value, and
# order.derived a property computed from the value, each an attribute that is
# no field, once
MEMO_WRITES = {
    "order.FinPoset.hasse: object.__setattr__",
    "fincat.FinCategory.comp: composites",
    "order._kept_on: object.__setattr__",
    "order.derived.__get__: object.__setattr__",
}
# the constructor every value class shares (order.value_class) sets each
# field once, before the value is returned
CONSTRUCTION_WRITES = {"order.value_class.__init__: object.__setattr__"}


def _value_writes(source: str) -> list[str]:
    """`where: what` for each write into a table field of a value (`x.lam[k] = v`,
    `x.lam[k] |= v`, `del x.lam[k]`, `x.lam = v`, `x.lam.update(…)` and the
    other MUTATORS), and for each `object.__setattr__` call outside `__post_init__`."""
    found = []
    for node, where in _placed(ast.parse(source)):
        if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(node.ctx, (ast.Store, ast.Del)):
            field = node.value if isinstance(node, ast.Subscript) else node
            if isinstance(field, ast.Attribute) and field.attr in TABLE_FIELDS:
                found.append(f"{where}: {field.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            f = node.func
            if f.attr in MUTATORS and isinstance(f.value, ast.Attribute) and f.value.attr in TABLE_FIELDS:
                found.append(f"{where}: {f.value.attr}.{f.attr}")
            elif f.attr == "__setattr__" and isinstance(f.value, ast.Name) and f.value.id == "object":
                if not where.endswith("__post_init__"):
                    found.append(f"{where}: object.__setattr__")
    return found


def test_no_library_code_writes_into_a_built_value():
    found = [f"{path.stem}.{hit}" for path in SOURCES for hit in _value_writes(path.read_text())]
    assert sorted(found) == sorted(MEMO_WRITES | CONSTRUCTION_WRITES)


def test_value_write_scan_flags_planted_writes_and_nothing_else():
    source = '''
class Value:
    def __post_init__(self):
        object.__setattr__(self, "_index", {})

    def memo(self):
        object.__setattr__(self, "_index", {})


def build(parts, fibers):
    parts["x"] = 1
    table = {}
    table["y"] = fibers["x"]
    return Value(parts)


def tamper(op, A, F, t, d):
    op.parts["x"] = None
    A.lam["x"] |= A.rho["x"]
    del F.obj_map["a"]
    F.arr_map.update({})
    t.components.setdefault("x", "id")
    first, A.kappa["x"] = 1, 2
    d.reindex = {}


def read(op, d):
    d._cache["x"] = 1
    return op.parts["x"], op.parts.get("x"), dict(op.parts), d.fibers.copy()
'''
    assert _value_writes(source) == [
        "Value.memo: object.__setattr__",
        "tamper: parts",
        "tamper: lam",
        "tamper: obj_map",
        "tamper: arr_map.update",
        "tamper: components.setdefault",
        "tamper: kappa",
        "tamper: reindex",
    ]


# Value classes are built by order.value_class, with shared methods: the
# library generates and compiles no code, so importing it loads neither
# `dataclasses` (which runs `exec` for every method it makes and pulls in
# `inspect` and `ast`) nor `typing`.
CODE_GENERATORS = {"dataclasses", "typing"}
COMPILERS = {"exec", "compile"}


def _code_generation(source: str) -> list[str]:
    """`line: what` for each import of a CODE_GENERATORS module and each
    call of a builtin in COMPILERS, by its bare name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(f"{node.lineno}: import {a.name}" for a in node.names if a.name.split(".")[0] in CODE_GENERATORS)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] in CODE_GENERATORS:
            found.append(f"{node.lineno}: from {node.module}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in COMPILERS:
            found.append(f"{node.lineno}: {node.func.id}")
    return found


def test_library_imports_no_code_generator_and_compiles_no_code():
    assert [f"{path.name}:{hit}" for path in SOURCES for hit in _code_generation(path.read_text())] == []


def test_code_generation_scan_flags_planted_imports_and_calls_and_nothing_else():
    source = """
from __future__ import annotations

import re
import typing
from collections.abc import Mapping
from dataclasses import dataclass
from . import typing as local


def make(name):
    import dataclasses_json
    from typing import NamedTuple

    exec(f"def {name}(): pass")
    return compile("1", "<x>", "eval"), re.compile(name), local.compile(name)
"""
    assert _code_generation(source) == [
        "5: import typing",
        "7: from dataclasses",
        "13: from typing",
        "15: exec",
        "16: compile",
    ]


# the G, AG and EG oracles decide what the fixed-point engine computes, so
# they must not share its code: neither they nor any temporal.py function,
# method or module-level name they reach may name the engine
ORACLES = ("oracle_for", "_oracle_mask", "_oracle_planes")
ENGINE = ("_pred_masks", "_gfp_chain", "_gfp_planes")


def _is_engine(name: str) -> bool:
    return name in ENGINE or name.startswith("gfp_modality")


def _oracle_reach(source: str) -> dict[str, set]:
    """The definitions of `source` (functions, methods and module-level names)
    that the ORACLES reach through names and attributes, without passing
    through the engine, each with the names it reads."""
    tree = ast.parse(source)
    defs = {fn.name: fn for fn in _functions(tree)}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            defs.update((t.id, node.value) for t in node.targets if isinstance(t, ast.Name))
    reached, todo = {}, [name for name in ORACLES if name in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached[name] = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
        reached[name] |= {n.attr for n in ast.walk(defs[name]) if isinstance(n, ast.Attribute)}
        todo.extend(n for n in reached[name] if n in defs and not _is_engine(n))
    return reached


def _engine_names_reached_by_oracles(source: str) -> list[str]:
    return sorted(f"{where}: {name}" for where, names in _oracle_reach(source).items() for name in names if _is_engine(name))


def test_temporal_oracles_reach_no_engine_code():
    source = (ROOT / "src" / "doctrines" / "temporal.py").read_text()
    assert {"oracle_for", "_oracle_mask", "_eg_mask", "_oracle_graph", "_oracle_planes", "_member_planes"} <= set(
        _oracle_reach(source)
    )
    assert _engine_names_reached_by_oracles(source) == []


def test_engine_lists_every_temporal_function_the_box_reaches():
    # an engine helper missing from ENGINE would let an oracle call it
    # unflagged, so every function the box entry points reach is on ENGINE,
    # or is one of the three shared helpers that read no step
    tree = ast.parse((ROOT / "src" / "doctrines" / "temporal.py").read_text())
    defs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    reached, todo = set(), ["gfp_modality", "gfp_modality_trace", "_gfp_planes"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name) and n.id in defs)
    assert {n for n in reached if not _is_engine(n)} == {"_known_lift", "_mask_states", "_member_planes"}
    assert set(ENGINE) <= reached


def test_oracle_independence_scan_flags_planted_engine_references_and_nothing_else():
    source = '''
def _pred_masks(c, lift):
    return [0 for s in c.states]


def _gfp_planes(c, lift):
    return _pred_masks(c, lift)


def _shortcut(c, lift, alpha):
    return _gfp_planes(c, lift)[alpha]


_STEP = _pred_masks


class FCoalgebra:
    def _graph(self):
        return _STEP


def oracle_for(c, lift, alpha):
    return _shortcut(c, lift, alpha)


def _oracle_mask(c, lift, alpha):
    return c._graph(), temporal.gfp_modality_trace, _pred_masks(c, lift)


def _oracle_planes(c, lift):
    return _member_planes(len(c.states)), _gfp_planes(c, lift)


def unrelated(c):
    return gfp_modality(c), _pred_masks(c, "forall")
'''
    assert _engine_names_reached_by_oracles(source) == [
        "_STEP: _pred_masks",
        "_oracle_mask: _pred_masks",
        "_oracle_mask: gfp_modality_trace",
        "_oracle_planes: _gfp_planes",
        "_shortcut: _gfp_planes",
    ]


# each name format is known by one builder, the one that prints the names
# of its category: every other site finds an arrow in `FinCategory.named` by
# its ends and payload, and a coalgebra by its structure arrow
NAME_BUILDERS = {
    "function_arrow_name": {"fincat.full_function_category"},
    "coalgebra_object_name": {"fincat.coalgebra_category"},
    "coalgebra_arrow_name": {"fincat.coalgebra_category"},
    "presheaf_arrow_name": {"instances.presheaf_instance"},
}


def _poset_arrow_formats(source: str) -> list[str]:
    """Where `source` has an f-string that is two values joined by `<=`,
    the format of a poset arrow's name; a message that only contains such a
    join, as a witness sentence does, is not a name."""
    return [
        where
        for node, where in _placed(ast.parse(source))
        if isinstance(node, ast.JoinedStr)
        and [type(v) for v in node.values] == [ast.FormattedValue, ast.Constant, ast.FormattedValue]
        and node.values[1].value == "<="
    ]


def test_each_name_format_is_known_by_its_builder_alone():
    sources = {path.stem: path.read_text() for path in SOURCES}
    for name, builders in NAME_BUILDERS.items():
        assert {f"{stem}.{where}" for stem, text in sources.items() for where in _callers(text, name)} == builders
    found = [f"{stem}.{where}" for stem, text in sources.items() for where in _poset_arrow_formats(text)]
    assert found == ["fincat.poset_category"]


def test_name_format_scans_flag_planted_formats_and_nothing_else():
    fincat = '''
def poset_category(p):
    return [(f"{a}<={b}", a, b) for a in p.elements for b in p.up(a)]


def full_function_category(sets):
    return function_arrow_name("X", "Y", {}, ())


def poset_violations(rel):
    return [f"transitivity: {a}<={b} and {b}<={c} but not {a}<={c}" for a, b, c in rel]
'''
    suite = '''
from . import fincat


def diamond_comonad(base, k):
    return {t: f"{k[base.src(t)]}<={k[base.dst(t)]}" for t in base.arrow_names()}


class Fixture:
    def product(self, y):
        return fincat.function_arrow_name(y, "Y", {}, ())
'''
    sources = {"fincat": fincat, "suite": suite}
    assert _unlisted_callers(sources, "function_arrow_name", NAME_BUILDERS["function_arrow_name"]) == [
        "suite.Fixture.product"
    ]
    found = [f"{stem}.{where}" for stem, text in sources.items() for where in _poset_arrow_formats(text)]
    assert found == ["fincat.poset_category", "suite.diamond_comonad"]
