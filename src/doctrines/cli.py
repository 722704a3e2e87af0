"""Command-line interface: parse model files in a line-oriented block format,
dispatch law suites and derivations, and emit deterministic reports.

Format: `kind name { key: atoms; ... }` with whitespace-separated atoms,
relations written `a->b`, map entries written `x=a>b,c>d`, sets written
`{a,b}`, and `#` comments. Exit status: 0 all verdicts pass, 1 any verdict
fails, 2 usage or parse error.
"""

from __future__ import annotations

import gc
import sys

from . import __version__
from .adjunction import (
    adjunction_violations,
    am_modality,
    factorization_violations,
    factorize,
    factorize2_report,
    factorize2_violations,
    galois_violations,
    vertical_adjunction,
)
from .comonad import (
    cm_modality,
    cmd_of_adjunction,
    comonad_violations,
    em_adjunction,
    ma,
    mc,
    DoctrineComonad,
)
from .doctrine import Doctrine, doctrine_violations
from .fincat import (
    Functor,
    NatTransformation,
    check_category,
    compose_functors,
    identity_functor,
    poset_category,
)
from .instances import (
    FinPresheaf,
    FiniteTopSpace,
    KripkeFrame,
    bang_law_violations,
    frame_violations,
    kripke_doctrine,
    open_continuous_homs,
    presheaf_instance,
    presheaf_nat_transformations,
    presheaf_oracle_mismatches,
    presheaf_violations,
    quantale_doctrine,
    quantale_violations,
    space_violations,
    topological_doctrine,
    FiniteQuantale,
)
from .interior import InteriorOp, interior_violations
from .order import (
    check_poset,
    close_relation,
    graph_map,
    identity_map,
    label_subset,
    lattice_from_poset,
    subset_label,
    value_class,
)
from .temporal import (
    FCoalgebra,
    coalgebra_violations,
    gfp_modality,
    oracle_for,
    oracle_mismatches,
)

KINDS = (
    "poset",
    "category",
    "doctrine",
    "interior",
    "adjunction",
    "comonad",
    "kripke-frame",
    "quantale",
    "topspace",
    "presheaf",
    "coalgebra",
    "query",
)

LIFT_OF_OP = {"G": "stream", "AG": "forall", "EG": "exists"}


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"parse error at line {line}, column {col}: {message}")
        self.line, self.col, self.message = line, col, message


class BuildError(Exception):
    pass


@value_class
class Declaration:
    kind: str
    name: str
    entries: tuple[tuple[str, tuple[str, ...]], ...]

    def get(self, key: str, default=None):
        for k, atoms in self.entries:
            if k == key:
                return list(atoms)
        return default

    def need(self, key: str) -> list[str]:
        got = self.get(key)
        if got is None:
            raise BuildError(f"{self.kind} {self.name}: missing entry '{key}'")
        if not got:
            raise BuildError(f"{self.kind} {self.name}: empty entry '{key}'")
        return got


@value_class
class ModelDocument:
    declarations: tuple[Declaration, ...]


def tokenize(text: str):
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col = 1
        for chunk in line.split():
            col = line.index(chunk, col - 1) + 1
            rest = chunk
            # peel standalone punctuation off the ends
            pre, post = [], []
            while rest and rest[0] == ";":
                pre.append((";", lineno, col))
                rest = rest[1:]
            while rest and rest[-1] == ";":
                post.insert(0, (";", lineno, col + len(rest) - 1))
                rest = rest[:-1]
            while rest and rest[-1] == "}" and rest != "}" and "{" not in rest:
                post.insert(0, ("}", lineno, col + len(rest) - 1))
                rest = rest[:-1]
            tokens.extend(pre)
            if rest:
                tokens.append((rest, lineno, col))
            tokens.extend(post)
            col += len(chunk)
    return tokens


def parse_text(text: str) -> ModelDocument:
    tokens = tokenize(text)
    decls = []
    names = set()
    i = 0
    n = len(tokens)
    while i < n:
        kind, line, col = tokens[i]
        if kind not in KINDS:
            raise ParseError(line, col, f"unknown block kind '{kind}'")
        if i + 2 >= n:
            raise ParseError(line, col, "unexpected end of file in block header")
        name = tokens[i + 1][0]
        if name in names:
            raise ParseError(tokens[i + 1][1], tokens[i + 1][2], f"duplicate name '{name}'")
        names.add(name)
        if tokens[i + 2][0] != "{":
            raise ParseError(tokens[i + 2][1], tokens[i + 2][2], "expected '{' after block name")
        i += 3
        entries = []
        current_key = None
        atoms: list[str] = []
        seen_keys = set()
        while True:
            if i >= n:
                raise ParseError(line, col, f"unterminated block '{name}'")
            tok, tl, tc = tokens[i]
            if tok == "}":
                if current_key is not None:
                    entries.append((current_key, tuple(atoms)))
                i += 1
                break
            if tok == ";":
                if current_key is not None:
                    entries.append((current_key, tuple(atoms)))
                    current_key, atoms = None, []
                i += 1
                continue
            if tok.endswith(":") and len(tok) > 1 and not tok.startswith("{"):
                if current_key is not None:
                    entries.append((current_key, tuple(atoms)))
                key = tok[:-1]
                if key in seen_keys:
                    raise ParseError(tl, tc, f"duplicate key '{key}' in block '{name}'")
                seen_keys.add(key)
                current_key, atoms = key, []
                i += 1
                continue
            if current_key is None:
                raise ParseError(tl, tc, f"expected 'key:' before atom '{tok}'")
            atoms.append(tok)
            i += 1
        decls.append(Declaration(kind, name, tuple(entries)))
    return ModelDocument(tuple(decls))


def parse(path: str) -> ModelDocument:
    with open(path, encoding="utf-8") as fh:
        return parse_text(fh.read())


def _set_atom(atom: str) -> frozenset:
    """The members of a set atom '{a,b}'; an atom without braces is a BuildError."""
    if len(atom) < 2 or atom[0] != "{" or atom[-1] != "}":
        raise BuildError(f"expected a set '{{a,b}}', got '{atom}'")
    return label_subset(atom)


def _split(d: Declaration, key: str, atom: str, sep: str, form: str) -> list[str]:
    """`atom` of entry `key` cut at its first `sep`; an atom without `sep` is
    a BuildError that names the entry and the expected `form`."""
    if sep not in atom:
        raise BuildError(f"{d.kind} {d.name}: entry '{key}' expects {form}, got '{atom}'")
    return atom.split(sep, 1)


def _pairs(d: Declaration, key: str) -> list[tuple[str, str]]:
    """The relation atoms 'a->b' of entry `key` as pairs."""
    return [tuple(_split(d, key, atom, "->", "a relation atom 'a->b'")) for atom in d.get(key, [])]


def _map_entry(d: Declaration, key: str, atom: str, shape: type):
    """'x=a>b,c>d' -> ('x', {'a': 'b', 'c': 'd'}) when `shape` is dict (an
    empty body is the empty map); 'x=v' -> ('x', 'v') when it is str. An atom
    without '=' or of the other shape, or a source that repeats inside the
    map, is a BuildError."""
    name, body = _split(d, key, atom, "=", "'name=value'")
    if shape is str:
        if ">" in body:
            raise BuildError(f"{d.kind} {d.name}: entry '{key}' expects 'name=value', got the map '{atom}'")
        return name, body
    pairs = [part.split(">", 1) for part in body.split(",")] if body else []
    if any(len(pair) != 2 for pair in pairs):
        raise BuildError(f"{d.kind} {d.name}: entry '{key}' expects a map 'name=a>b,c>d', got '{atom}'")
    _distinct(d, key, [a for a, _ in pairs])
    return name, dict(pairs)


def _map_entries(d: Declaration, key: str, atoms, shape: type) -> dict:
    """The `_map_entry` atoms of entry `key`, each of `shape`, as one dict; a
    name that repeats is a BuildError."""
    entries = [_map_entry(d, key, atom, shape) for atom in atoms]
    _distinct(d, key, [name for name, _ in entries])
    return dict(entries)


def _entries(d: Declaration, key: str, atoms) -> list:
    """The `name=body` atoms of entry `key` as [name, body] pairs; an atom
    without '=', or a name that repeats, is a BuildError."""
    pairs = [_split(d, key, atom, "=", "'name=value'") for atom in atoms]
    _distinct(d, key, [name for name, _ in pairs])
    return pairs


CLOSURES = ("none", "refl", "trans", "refl-trans")


def _closure(d: Declaration) -> str:
    closure = (d.get("closure") or ["refl-trans"])[0]
    if closure not in CLOSURES:
        raise BuildError(
            f"{d.kind} {d.name}: unknown closure '{closure}' (expected one of {', '.join(CLOSURES)})"
        )
    return closure


def _distinct(d: Declaration, key: str, names):
    """`names` as a list, or a BuildError naming the first one that repeats."""
    seen = set()
    for n in names:
        if n in seen:
            raise BuildError(f"{d.kind} {d.name}: duplicate identifier '{n}' in '{key}'")
        seen.add(n)
    return list(names)


def _named_sets(d: Declaration):
    pairs = _entries(d, "sets", d.get("sets", []))
    return {key: _distinct(d, "sets", [e for e in body.split(",") if e]) for key, body in pairs}


WITNESSES_SHOWN = 8


class Workspace:
    """Everything built from a document, plus the law-suite verdicts."""

    def __init__(self, max_size: int):
        self.max_size = max_size
        self.posets = {}
        self.categories = {}
        self.frames = {}
        self.frame_bases = {}  # frame name -> its poset category, apart from user categories
        self.spaces = []
        self.presheaves = {}
        self.coalgebras = {}
        self.doctrines = {}
        self.interiors = {}
        self.adjunctions = {}
        self.comonads = {}
        self.queries = []
        self.verdicts = []
        self.outputs = {}

    def verdict(self, name: str, witnesses: list[str]):
        """Record a verdict under `name`, passing iff there are no witnesses,
        with the first WITNESSES_SHOWN of them and, when there are more, how
        many were left out."""
        v = {"name": name, "pass": not witnesses, "witnesses": [str(w) for w in witnesses[:WITNESSES_SHOWN]]}
        if len(witnesses) > WITNESSES_SHOWN:
            v["witnesses_omitted"] = len(witnesses) - WITNESSES_SHOWN
        self.verdicts.append(v)

    def attempt(self, name: str, construct, *args):
        """`construct(*args)`, or None after recording the KeyError or
        ValueError it raised as a failed build under `name`."""
        try:
            return construct(*args)
        except (KeyError, ValueError) as e:
            self.verdict(name, [f"build failed: {e}"])
            return None

    def build(self, name: str, count: int, construct, *args):
        """`construct(*args)` as `attempt` makes it, or None after refusing
        `name` when `count`, its estimated work, exceeds --max-size."""
        if count > self.max_size:
            self.verdict(name, [f"refused: estimated work {count} exceeds --max-size {self.max_size}"])
            return None
        return self.attempt(name, construct, *args)


def _hom_work(fiber: dict, hom: dict) -> int:
    """Work of building and law-checking a doctrine with `fiber[X]` elements
    at each object X over a category with `hom[X, Y]` arrows X → Y. The
    first term bounds the reindexing maps: along each arrow X → Y, one unit
    per element of the fiber at Y for its image and its step of the meet
    certificate, which proves a map out of a Boolean fiber monotone. The
    second term bounds the literal contravariance scan, which runs when the
    check on generators misses: per composable pair X → Y → Z, a composite
    lookup and a comparison of two maps on the fiber at Z. A non-Boolean
    fiber C^Y (a quantale's Q^Y) is checked on its covers instead,
    |Y|·cov(C)/|C| of them per element for a C of cov(C) covers, so its
    maps can cost that factor more than the first term counts (under |Y|
    when C is a chain)."""
    return sum(hom[a, b] * fiber[b] for a in fiber for b in fiber) + sum(
        hom[a, b] * hom[b, c] * (1 + fiber[c]) for a in fiber for b in fiber for c in fiber
    )


def _function_homs(sets, c: int) -> tuple[dict, dict]:
    """The counts `_hom_work` reads for a doctrine of functions into a poset
    of c elements over the full function category on `sets`: c^|X| elements
    at X and |Y|^|X| arrows X → Y."""
    n = {x: len(points) for x, points in sets.items()}
    return {x: c**m for x, m in n.items()}, {(x, y): n[y] ** n[x] for x in n for y in n}


def _build_poset(ws: Workspace, d: Declaration):
    elements = d.need("elements")
    pairs = _pairs(d, "pairs")
    closure = _closure(d)
    rel = close_relation(elements, pairs, closure)
    got = check_poset(elements, rel)
    if isinstance(got, list):
        ws.verdict(f"poset {d.name}", got)
    else:
        ws.posets[d.name] = got
        ws.verdict(f"poset {d.name}", [])


def _build_category(ws: Workspace, d: Declaration):
    objects = d.need("objects")
    arrows = []
    for atom in d.get("arrows", []):
        name, typ = _split(d, "arrows", atom, "=", "'name=a->b'")
        arrows.append((name, *_split(d, "arrows", typ, "->", "'name=a->b'")))
    identities = _map_entries(d, "identities", d.need("identities"), str)
    composition = {}
    for lhs, result in _entries(d, "compose", d.get("compose", [])):
        g, f = _split(d, "compose", lhs, ".", "a composite 'g.f'")
        composition[(g, f)] = result
    got = check_category(objects, arrows, identities, composition)
    if isinstance(got, list):
        ws.verdict(f"category {d.name}", got)
    else:
        ws.categories[d.name] = got
        ws.verdict(f"category {d.name}", [])


def _build_frame(ws: Workspace, d: Declaration):
    worlds = _distinct(d, "worlds", d.need("worlds"))
    pairs = _pairs(d, "rel")
    closure = _closure(d)
    rel = close_relation(worlds, pairs, closure)
    frame = KripkeFrame(tuple(worlds), rel)
    ws.frames[d.name] = frame
    ws.verdict(f"kripke-frame {d.name}", frame_violations(frame))
    sets = _named_sets(d)
    if sets:
        count = _hom_work(*_function_homs(sets, 2 ** len(frame.worlds)))
        built = ws.build(f"kripke-doctrine {d.name}", count, kripke_doctrine, frame, sets)
        if built is None:
            return
        doc, op = built
        ws.doctrines[f"{d.name}.doctrine"] = doc
        ws.interiors[f"{d.name}.box"] = op
        ws.verdict(f"kripke-doctrine {d.name}", doctrine_violations(doc))
        ws.verdict(f"kripke-interior {d.name}", interior_violations(op))


def _build_quantale(ws: Workspace, d: Declaration):
    elements = d.need("elements")
    pairs = _pairs(d, "pairs")
    closure = _closure(d)
    rel = close_relation(elements, pairs, closure)
    got = check_poset(elements, rel)
    if isinstance(got, list):
        ws.verdict(f"quantale {d.name}", got)
        return
    try:
        lat = lattice_from_poset(got)
    except ValueError as e:
        ws.verdict(f"quantale {d.name}", [str(e)])
        return
    unit = d.need("unit")[0]
    tensor = {}
    for lhs, result in _entries(d, "tensor", d.need("tensor")):
        a, b = _split(d, "tensor", lhs, "*", "a product 'a*b'")
        tensor[(a, b)] = result
        if a in got and b in got:  # a product naming an unknown element is one witness, as written
            tensor.setdefault((b, a), result)
    q = FiniteQuantale(d.name, lat, tensor, unit)
    bad = quantale_violations(q)
    ws.verdict(f"quantale {d.name}", bad)
    if bad:
        return
    sets = _named_sets(d)
    if sets:
        # the bang laws build no fiber of a valid quantale (`bang_law_violations`)
        count = _hom_work(*_function_homs(sets, len(elements)))
        built = ws.build(f"quantale-doctrine {d.name}", count, quantale_doctrine, q, sets)
        if built is None:
            return
        doc, adj, bang = built
        ws.doctrines[f"{d.name}.doctrine"] = doc
        ws.adjunctions[f"{d.name}.adjunction"] = adj
        ws.interiors[f"{d.name}.bang"] = bang
        ws.verdict(f"quantale-adjunction {d.name}", adjunction_violations(adj))
        ws.verdict(f"quantale-bang {d.name}", interior_violations(bang))
        ws.verdict(f"quantale-bang-laws {d.name}", bang_law_violations(q, sets))


def _build_topspace(ws: Workspace, d: Declaration):
    points = _distinct(d, "points", d.need("points"))
    opens = frozenset(_set_atom(a) for a in d.need("opens"))
    space = FiniteTopSpace(d.name, tuple(points), opens)
    bad = space_violations(space)
    ws.verdict(f"topspace {d.name}", bad)
    if not bad:
        ws.spaces.append(space)


def _build_presheaf(ws: Workspace, d: Declaration):
    frame_name = d.need("frame")[0]
    frame = ws.frames.get(frame_name)
    if frame is None:
        raise BuildError(f"presheaf {d.name}: unresolved frame '{frame_name}'")
    got = check_poset(frame.worlds, frame.rel)
    if isinstance(got, list):
        raise BuildError(f"presheaf {d.name}: frame '{frame_name}' must be an antisymmetric preorder")
    if frame_name not in ws.frame_bases:
        ws.frame_bases[frame_name] = poset_category(got)
    base = ws.frame_bases[frame_name]
    at = {}
    for key, body in _entries(d, "at", d.need("at")):
        if key not in base.objects:
            raise BuildError(f"presheaf {d.name}: unresolved world '{key}'")
        if body.startswith("{") and body.endswith("}"):
            body = body[1:-1]
        at[key] = tuple(_distinct(d, "at", [e for e in body.split(",") if e]))
    act = {}
    for key, mapping in _map_entries(d, "act", d.get("act", []), dict).items():
        src, dst = _split(d, "act", key, "->", "an arrow 'v->w'")
        arrow = base.named.get((src, dst, ()))
        if arrow is None:
            raise BuildError(f"presheaf {d.name}: unresolved arrow '{key}'")
        act[arrow] = mapping
    for w in base.objects:
        act.setdefault(base.id(w), {e: e for e in at.get(w, ())})
    # every non-identity arrow of the frame, composites included, needs an explicit action
    for f in base.arrow_names():
        if f not in act:
            raise BuildError(f"presheaf {d.name}: missing action along {f}")
    psh = FinPresheaf(d.name, base, at, act)
    bad = presheaf_violations(psh)
    ws.verdict(f"presheaf {d.name}", bad)
    if not bad:
        ws.presheaves.setdefault(frame_name, []).append(psh)


def _build_coalgebra(ws: Workspace, d: Declaration):
    kind = d.need("kind")[0]
    states = _distinct(d, "states", d.need("states"))
    step = {}
    for key, body in _entries(d, "step", d.need("step")):
        if kind == "stream":
            step[key] = body
        else:
            inner = body.strip()
            if not (inner.startswith("(") and inner.endswith(")")):
                raise BuildError(f"coalgebra {d.name}: tree step must be a tuple, got '{body}'")
            inner = inner[1:-1]
            step[key] = tuple(t for t in inner.split(",") if t)
    c = FCoalgebra(d.name, kind, tuple(states), step)
    bad = coalgebra_violations(c)
    ws.verdict(f"coalgebra {d.name}", bad)
    if not bad:
        ws.coalgebras[d.name] = c
        # the sweep on planes of 2ⁿ bits, counted in 64-bit words: the EG
        # oracle's n³ Warshall steps, then up to n + 1 engine rounds of
        # n + edges plane operations; n³ also bounds the n² planes it keeps
        n, edges = len(states), sum(len(c.successors(s)) for s in c.states)
        count = (2**n + 63) // 64 * (n**3 + (n + 1) * (n + edges))
        lifts = ["stream"] if kind == "stream" else ["forall", "exists"]
        mism = ws.build(f"coalgebra-oracle {d.name}", count, oracle_mismatches, c, lifts)
        if mism is not None:
            ws.verdict(f"coalgebra-oracle {d.name}", [f"{lift} at {sorted(alpha)}" for lift, alpha in mism])


def _resolve_fiber(ws: Workspace, name: str):
    if name in ws.posets:
        return ws.posets[name]
    raise BuildError(f"unresolved poset reference '{name}'")


def _graph_maps(d: Declaration, key: str, atoms, ends) -> dict:
    """The `name=a>b,c>d` atoms of entry `key` as `graph_map`s between the posets
    `ends(name)`; a refused graph fails the build, naming the entry and the name."""
    maps = {}
    for name, graph in _map_entries(d, key, atoms, dict).items():
        src, dst = ends(name)
        try:
            maps[name] = graph_map(src, dst, graph)
        except ValueError as e:
            raise ValueError(f"{key} {name}: {e}") from None
    return maps


def _build_doctrine(ws: Workspace, d: Declaration):
    base_name = d.need("base")[0]
    base = ws.categories.get(base_name)
    if base is None:
        raise BuildError(f"doctrine {d.name}: unresolved category '{base_name}'")
    fibers = {}
    for obj, ref in _entries(d, "fiber", d.need("fiber")):
        if obj not in base.objects:
            raise BuildError(f"doctrine {d.name}: unresolved object '{obj}'")
        fibers[obj] = _resolve_fiber(ws, ref)

    def ends(arrow):
        if not base.has_arrow(arrow):
            raise BuildError(f"doctrine {d.name}: unresolved arrow '{arrow}'")
        return fibers[base.dst(arrow)], fibers[base.src(arrow)]

    reindex = _graph_maps(d, "reindex", d.get("reindex", []), ends)
    for x in base.objects:
        ident = base.id(x)
        if ident not in reindex and x in fibers:
            reindex[ident] = identity_map(fibers[x])
    doc = Doctrine(base, fibers, reindex)
    bad = doctrine_violations(doc)
    ws.verdict(f"doctrine {d.name}", bad)
    if not bad:
        ws.doctrines[d.name] = doc


def _build_interior(ws: Workspace, d: Declaration):
    ref = d.need("doctrine")[0]
    doc = ws.doctrines.get(ref)
    if doc is None:
        raise BuildError(f"interior {d.name}: unresolved doctrine '{ref}'")
    op = InteriorOp(doc, _graph_maps(d, "box", d.need("box"), lambda x: (doc.fibers[x], doc.fibers[x])))
    bad = interior_violations(op)
    ws.verdict(f"interior {d.name}", bad)
    if not bad:
        ws.interiors[d.name] = op


def _build_adjunction(ws: Workspace, d: Declaration):
    p = ws.doctrines.get(d.need("p")[0])
    q = ws.doctrines.get(d.need("q")[0])
    if p is None or q is None:
        raise BuildError(f"adjunction {d.name}: unresolved doctrine reference")
    lam = _graph_maps(d, "lam", d.need("lam"), lambda x: (p.fibers[x], q.fibers[x]))
    rho = _graph_maps(d, "rho", d.need("rho"), lambda y: (q.fibers[y], p.fibers[y]))
    A = vertical_adjunction(p, q, lam, rho)
    bad = adjunction_violations(A)
    ws.verdict(f"adjunction {d.name}", bad)
    if not bad:
        ws.adjunctions[d.name] = A
        ws.verdict(f"adjunction-galois {d.name}", galois_violations(A))


def _build_comonad(ws: Workspace, d: Declaration):
    p = ws.doctrines.get(d.need("p")[0])
    if p is None:
        raise BuildError(f"comonad {d.name}: unresolved doctrine reference")
    base = p.base
    if d.get("k-obj") is not None:
        obj_map = _map_entries(d, "k-obj", d.need("k-obj"), str)
        arr_map = _map_entries(d, "k-arr", d.need("k-arr"), str)
        K = Functor(base, base, obj_map, arr_map)
    else:
        K = identity_functor(base)
    if d.get("mu") is not None:
        mu = NatTransformation(K, compose_functors(K, K), _map_entries(d, "mu", d.need("mu"), str))
    else:
        mu = NatTransformation(K, compose_functors(K, K), {x: base.id(K.obj_map[x]) for x in base.objects})
    if d.get("nu") is not None:
        nu = NatTransformation(K, identity_functor(base), _map_entries(d, "nu", d.need("nu"), str))
    else:
        nu = NatTransformation(K, identity_functor(base), {x: base.id(x) for x in base.objects})
    kappa = _graph_maps(d, "kappa", d.need("kappa"), lambda x: (p.fibers[x], p.fibers[K.obj_map[x]]))
    c = DoctrineComonad(p, K, kappa, mu, nu)
    bad = comonad_violations(c)
    ws.verdict(f"comonad {d.name}", bad)
    if not bad:
        ws.comonads[d.name] = c


BUILDERS = {
    "poset": _build_poset,
    "category": _build_category,
    "kripke-frame": _build_frame,
    "quantale": _build_quantale,
    "topspace": _build_topspace,
    "presheaf": _build_presheaf,
    "coalgebra": _build_coalgebra,
    "doctrine": _build_doctrine,
    "interior": _build_interior,
    "adjunction": _build_adjunction,
    "comonad": _build_comonad,
}


def build_workspace(doc: ModelDocument, max_size: int) -> Workspace:
    ws = Workspace(max_size)
    for d in doc.declarations:
        if d.kind == "query":
            ws.queries.append(d)
            continue
        ws.attempt(f"{d.kind} {d.name}", BUILDERS[d.kind], ws, d)
    # cross-declaration groups
    if ws.spaces:
        # two stages: the functions the search for open continuous maps can
        # reach, then the law scans over the maps it finds
        homs = None
        count = sum(len(t.points) ** len(s.points) for s in ws.spaces for t in ws.spaces)
        if count <= ws.max_size:
            homs = open_continuous_homs(ws.spaces)
            hom = {pair: len(maps) for pair, maps in homs.items()}
            count = _hom_work({s.name: 2 ** len(s.points) for s in ws.spaces}, hom)
        built = ws.build("topological-doctrine", count, topological_doctrine, ws.spaces, homs)
        if built is not None:
            tdoc, top = built
            ws.doctrines["topological.doctrine"] = tdoc
            ws.interiors["topological.interior"] = top
            ws.verdict("topological-doctrine", doctrine_violations(tdoc))
            ws.verdict("topological-interior", interior_violations(top))
    for frame_name, group in ws.presheaves.items():
        # two stages, as for the spaces: the Π_w |e(w)|^|d(w)| families of functions d → e to test
        # for naturality, then the law scans on the 2^n families of a presheaf of n elements over
        # the natural transformations, plus the membership tests of its oracle on each family:
        # along each generating arrow u → w, |d(u)| tests on the first pass and again after each
        # removal at w, of which there are at most |d(w)|
        homs = None
        count = 0
        for d in group:
            for e in group:
                candidates = 1  # not math.prod: `math` loads a shared library, which every command would pay
                for w in d.base.objects:
                    candidates *= len(e.at[w]) ** len(d.at[w])
                count += candidates
        if count <= ws.max_size:
            homs = {(d.name, e.name): presheaf_nat_transformations(d, e) for d in group for e in group}
            families = {d.name: 2 ** sum(len(d.at[w]) for w in d.base.objects) for d in group}
            B = group[0].base
            tests = {d.name: sum(len(d.at[B.src(g)]) * (1 + len(d.at[B.dst(g)])) for g in B.generators) for d in group}
            hom = {pair: len(phis) for pair, phis in homs.items()}
            count = _hom_work(families, hom) + sum(families[p] * tests[p] for p in families)
        built = ws.build(f"presheaf-instance {frame_name}", count, presheaf_instance, group, homs)
        if built is None:
            continue
        adj, families, op = built
        ws.adjunctions[f"presheaf.{frame_name}.adjunction"] = adj
        ws.doctrines[f"presheaf.{frame_name}.families"] = families
        ws.interiors[f"presheaf.{frame_name}.box"] = op
        ws.verdict(f"presheaf-adjunction {frame_name}", adjunction_violations(adj))
        ws.verdict(f"presheaf-interior {frame_name}", interior_violations(op))
        mism = [f"{name} at {lbl}" for name, lbl in presheaf_oracle_mismatches(group, op)]
        ws.verdict(f"presheaf-oracle {frame_name}", mism)
    return ws


def _run_queries(ws: Workspace):
    for q in ws.queries:
        try:
            mode = q.need("run")[0]
            if mode == "temporal":
                cname = q.need("coalgebra")[0]
                c = ws.coalgebras.get(cname)
                if c is None:
                    raise BuildError(f"query {q.name}: unresolved coalgebra '{cname}'")
                op = q.need("op")[0]
                lift = LIFT_OF_OP.get(op)
                if lift is None:
                    raise BuildError(f"query {q.name}: unknown temporal op '{op}'")
                alpha = _set_atom(q.need("alpha")[0])
                _temporal_into(ws, f"query {q.name}", c, lift, alpha, "fixpoint {got} differs from oracle {want}")
            elif mode == "check":
                target = q.need("target")[0]
                found = [v for v in ws.verdicts if v["name"].split(" ", 1)[-1] == target]
                ws.verdict(
                    f"query {q.name}",
                    [] if found and all(v["pass"] for v in found) else [f"target '{target}' has failing or missing verdicts"],
                )
            elif mode == "derive":
                src = q.need("from")[0]
                what = q.need("what")[0]
                _derive_into(ws, f"query {q.name}", src, what)
            else:
                raise BuildError(f"query {q.name}: unknown run mode '{mode}'")
        except (KeyError, ValueError) as e:
            ws.verdict(f"query {q.name}", [f"query failed: {e}"])


def _temporal_into(ws: Workspace, label: str, c: FCoalgebra, lift: str, alpha: frozenset, differs: str):
    """Box α on c, output it under `label`, and check it against its oracle;
    `differs` words a disagreement, formatted with the sorted `got` and `want`."""
    got = gfp_modality(c, lift, alpha)
    want = oracle_for(c, lift, alpha)
    ws.outputs[label] = subset_label(got, c.states)
    ws.verdict(label, [] if got == want else [differs.format(got=sorted(got), want=sorted(want))])


def _derive_into(ws: Workspace, label: str, src: str, what: str):
    if src in ws.adjunctions:
        A = ws.adjunctions[src]
        if what == "modality":
            doc, op = am_modality(A)
            ws.outputs[label] = _box_tables(op)
            ws.verdict(label, interior_violations(op))
        elif what == "comonad":
            c = cmd_of_adjunction(A)
            ws.verdict(label, comonad_violations(c))
        else:
            raise BuildError(f"{label}: cannot derive '{what}' from an adjunction")
    elif src in ws.comonads:
        c = ws.comonads[src]
        if what == "modality":
            op = cm_modality(c)
            ws.outputs[label] = _box_tables(op)
            ws.verdict(label, interior_violations(op))
        elif what == "adjunction":
            A = em_adjunction(c)
            ws.verdict(label, adjunction_violations(A))
        else:
            raise BuildError(f"{label}: cannot derive '{what}' from a comonad")
    elif src in ws.interiors:
        op = ws.interiors[src]
        if what == "comonad":
            ws.verdict(label, comonad_violations(mc(op)))
        elif what == "adjunction":
            ws.verdict(label, adjunction_violations(ma(op)))
        elif what == "modality":
            ws.outputs[label] = _box_tables(op)
            ws.verdict(label, interior_violations(op))
        else:
            raise BuildError(f"{label}: cannot derive '{what}' from an interior operator")
    else:
        raise BuildError(f"{label}: unresolved source '{src}'")


def _box_tables(op: InteriorOp) -> dict:
    return {
        x: {a: op.parts[x].apply(a) for a in op.doctrine.fibers[x].elements}
        for x in op.doctrine.base.objects
    }


def run(document: ModelDocument | None, command: str, flags: dict) -> dict:
    """Build the document, execute `command`, and produce the report object."""
    seed = flags.get("seed", 7)
    max_size = flags.get("max_size", 200000)
    report = {
        "tool": "doctrines",
        "version": __version__,
        "command": command,
        "seed": seed,
        "max_size": max_size,
        "verdicts": [],
        "outputs": {},
    }
    if command == "suite":
        from .suite import run_acceptance

        acc = run_acceptance(seed)
        ws = Workspace(max_size)
        for c in acc["criteria"]:
            # a failing criterion always has details: each one reports every case it ran
            ws.verdict(f"criterion {c['id']}: {c['title']}", [] if c["pass"] else c["details"])
        report["verdicts"] = ws.verdicts
        report["outputs"]["criteria-details"] = {
            f"criterion {c['id']}": c["details"] for c in acc["criteria"]
        }
        return report
    ws = build_workspace(document, max_size)
    if command == "check":
        target = flags.get("target")
        _run_queries(ws)
        if target:
            ws.verdicts = [v for v in ws.verdicts if target in v["name"]]
            if not ws.verdicts:
                raise BuildError(f"no verdicts match target '{target}'")
    elif command == "derive":
        src = flags.get("from")
        what = flags.get("what")
        if not src or not what:
            raise BuildError("derive needs --from and one of --modality/--comonad/--adjunction")
        label = f"derive {src} {what}"
        try:
            _derive_into(ws, label, src, what)
        except (KeyError, ValueError) as e:
            ws.verdict(label, [f"derive failed: {e}"])
    elif command == "em":
        src = flags.get("from")
        if src not in ws.interiors and src not in ws.comonads:
            raise BuildError(f"em: unresolved comonad or interior '{src}'")
        try:
            c = mc(ws.interiors[src]) if src in ws.interiors else ws.comonads[src]
            A = em_adjunction(c)
        except (KeyError, ValueError) as e:
            ws.verdict(f"em {src}", [f"em failed: {e}"])
        else:
            ws.outputs[f"em {src}"] = {
                "coalgebras": list(A.p.base.objects),
                "fibers": {o: list(A.p.fibers[o].elements) for o in A.p.base.objects},
            }
            ws.verdict(f"em {src}", doctrine_violations(A.p))
            ws.verdict(f"em-adjunction {src}", adjunction_violations(A))
    elif command == "factor":
        src = flags.get("from")
        A = ws.adjunctions.get(src)
        if A is None:
            raise BuildError(f"factor: unresolved adjunction '{src}'")
        vert, bc = factorize(A)
        ws.verdict(f"factor-vertical {src}", adjunction_violations(vert))
        ws.verdict(f"factor-base-change {src}", adjunction_violations(bc))
        ws.verdict(f"factor-composites {src}", factorization_violations(A))
        ws.verdict(f"factor-stable {src}", factorize2_violations(A))
        surjective, injective = factorize2_report(A)
        ws.outputs[f"factor {src}"] = {
            "lambda-surjective": {x: not found for x, found in surjective.items()},
            "eta-rho-injective": {x: not found for x, found in injective.items()},
        }
    elif command == "temporal":
        cname = flags.get("coalgebra")
        c = ws.coalgebras.get(cname)
        if c is None:
            raise BuildError(f"temporal: unresolved coalgebra '{cname}'")
        opname = flags.get("op")
        lift = LIFT_OF_OP.get(opname)
        if lift is None:
            raise BuildError(f"temporal: unknown op '{opname}' (expected G, AG or EG)")
        alpha = _set_atom(flags.get("alpha", "{}"))
        unknown = sorted(alpha - set(c.states))
        if unknown:
            raise BuildError(f"temporal: alpha mentions unknown states {unknown}")
        label = f"temporal {opname} {cname}"
        try:
            _temporal_into(ws, label, c, lift, alpha, "fixpoint differs from oracle {want}")
        except (KeyError, ValueError) as e:
            ws.verdict(label, [f"temporal failed: {e}"])
    else:
        raise BuildError(f"unknown command '{command}'")
    report["verdicts"] = ws.verdicts
    report["outputs"] = ws.outputs
    return report


# The escapes of `json.dumps` with `ensure_ascii`, the default. The command
# line writes JSON and reads none, so it writes it here: importing `json`
# loads its decoder, with `re` and `enum`, and compiles the decoder's patterns.
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}


def _quote(s: str) -> str:
    """`s` as a JSON string; TypeError if `s`, a dict key, is not a str."""
    if type(s) is not str:
        raise TypeError(f"keys must be str, not {type(s).__name__}")
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    out = []
    for c in s:
        n = ord(c)
        if c in _ESCAPES:
            out.append(_ESCAPES[c])
        elif 0x20 <= n < 0x7F:
            out.append(c)
        elif n < 0x10000:
            out.append(f"\\u{n:04x}")
        else:  # a surrogate pair
            n -= 0x10000
            out.append(f"\\u{0xD800 | (n >> 10):04x}\\u{0xDC00 | (n & 0x3FF):04x}")
    return '"' + "".join(out) + '"'


def _dumps(v, nl: str | None = None) -> str:
    """`json.dumps(v)` for the values a report holds: str, int, bool, None,
    lists, tuples and dicts with str keys; TypeError names any other type.
    With `nl`, a newline and the indent of v's line, it is `json.dumps(v,
    indent=2)` placed at that depth: `_dumps(v, "\\n")` is the whole of it."""
    t = type(v)
    if t is str:
        return _quote(v)
    if t is dict or t is list or t is tuple:
        ends = "{}" if t is dict else "[]"
        if not v:
            return ends
        inner = nl and nl + "  "
        if t is dict:
            items = [_quote(k) + ": " + _dumps(x, inner) for k, x in v.items()]
        else:
            items = [_dumps(x, inner) for x in v]
        if nl is None:
            return ends[0] + ", ".join(items) + ends[1]
        return ends[0] + inner + ("," + inner).join(items) + nl + ends[1]
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if t is int:
        return repr(v)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def render_text(report: dict) -> str:
    lines = [
        f"doctrines {report['command']} report (seed={report['seed']}, max-size={report['max_size']})"
    ]
    for v in report["verdicts"]:
        lines.append(("PASS " if v["pass"] else "FAIL ") + v["name"])
        for w in v["witnesses"]:
            lines.append(f"  - {w}")
        if "witnesses_omitted" in v:
            lines.append(f"  (+{v['witnesses_omitted']} more)")
    for key, value in report["outputs"].items():
        lines.append(f"{key}: {_dumps(value)}")
    n = len(report["verdicts"])
    good = sum(1 for v in report["verdicts"] if v["pass"])
    lines.append(f"RESULT: {'PASS' if good == n else 'FAIL'} ({good}/{n})")
    return "\n".join(lines) + "\n"


# Plain classes, not value classes: an option is only read, never compared,
# hashed or frozen.
class Option:
    """One `--name` of the command line. With a `metavar` it takes one value,
    converted by `convert`; without, it is a flag that stores `const`. An
    option that is not required starts at `default`."""

    def __init__(self, dest, help, metavar=None, convert=str, const=True, default=None, required=False):
        self.dest, self.help, self.metavar, self.convert = dest, help, metavar, convert
        self.const, self.default, self.required = const, default, required


class Level:
    """The options of the top level or of one command, its positional (FILE,
    COMMAND or none), and the flags of which exactly one must be given."""

    def __init__(self, help, options, positional="FILE", one_of=()):
        self.help, self.options, self.positional, self.one_of = help, options, positional, one_of


FROM = Option("from", "the declared or built object to start from", "NAME", required=True)

TOP = Level(
    __doc__,
    {
        "--json": Option("json", "emit a structured report", default=False),
        "--seed": Option("seed", "seed for randomized suites", "INT", int, default=7),
        "--max-size": Option("max_size", "refuse enumerations above this size", "INT", int, default=200000),
    },
    "COMMAND",
)

COMMANDS = {
    "check": Level(
        "run every law suite declared in a model file",
        {"--target": Option("target", "restrict the report to verdicts matching a name", "NAME")},
    ),
    "derive": Level(
        "run a construction and report its law suite",
        {
            "--from": FROM,
            "--modality": Option("what", "derive the interior operator", const="modality"),
            "--comonad": Option("what", "derive the comonad", const="comonad"),
            "--adjunction": Option("what", "derive the adjunction", const="adjunction"),
        },
        one_of=("--modality", "--comonad", "--adjunction"),
    ),
    "em": Level("dump the Eilenberg-Moore doctrine of a comonad", {"--from": FROM}),
    "factor": Level("both factorization theorems for an adjunction", {"--from": FROM}),
    "temporal": Level(
        "G/AG/EG queries with oracle cross-checks",
        {
            "--coalgebra": Option("coalgebra", "the coalgebra to query", "NAME", required=True),
            "--op": Option("op", "G, AG or EG", "OP", required=True),
            "--alpha": Option("alpha", "the states of alpha, as {s0,s1}", "SET", default="{}"),
        },
    ),
    "suite": Level("run the full acceptance suite", {}, None),
}


class UsageExit(Exception):
    """The command line ends the program before any command runs: `text` is
    the help (status 0) or the usage and error (status 2)."""

    def __init__(self, status: int, text: str):
        super().__init__(text)
        self.status, self.text = status, text


def parse_argv(argv: list[str]) -> dict:
    """The `flags` of a command line: `json`, `seed`, `max_size`, `command`,
    the model `file` and the command's options. A command line is read here
    when every option in it is spelled in full and given once, each value is
    attached (`--op=EG`) or the next word and does not start with `-`, and
    it has the command, its required options, its FILE and exactly one of its
    `one_of` flags; any other goes to `_argparse_flags`. Raises UsageExit on
    `-h` and on a malformed command line."""
    flags, level, seen = {}, TOP, set()
    words = iter(argv)
    for word in words:
        if not word.startswith("-"):
            if level is TOP and word in COMMANDS:
                flags["command"], level = word, COMMANDS[word]
            elif level is TOP or not level.positional or "file" in flags:
                return _argparse_flags(argv)
            else:
                flags["file"] = word
            continue
        s, eq, value = word.partition("=")
        o = level.options.get(s)
        if o is None or s in seen or (eq and o.metavar is None):
            return _argparse_flags(argv)
        seen.add(s)
        if o.metavar is None:
            flags[o.dest] = o.const
            continue
        if not eq:
            value = next(words, "-")  # a missing value hands the line on as well
        if value.startswith("-"):  # argparse drops a value `--`, even an attached one
            return _argparse_flags(argv)
        try:
            flags[o.dest] = o.convert(value)
        except ValueError:
            return _argparse_flags(argv)
    if (
        level is TOP
        or (level.positional and "file" not in flags)
        or any(o.required and s not in seen for s, o in level.options.items())
        or (level.one_of and len(seen.intersection(level.one_of)) != 1)
    ):
        return _argparse_flags(argv)
    for lv in (TOP, level):
        for s, o in lv.options.items():
            if s not in lv.one_of:
                flags.setdefault(o.dest, o.default)
    return flags


def _argparse_flags(argv: list[str]) -> dict:
    """The `flags` of any command line, read by argparse parsers built from
    `TOP` and `COMMANDS`, with help and errors raised as UsageExit. argparse
    is imported here, off the path of a fully spelled command line: with the
    `gettext`, `locale` and `shutil` it loads, building the parsers costs
    several milliseconds, more than most commands."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            raise UsageExit(0, self.format_help().rstrip("\n"))

        def error(self, message):
            raise UsageExit(2, f"{self.format_usage()}doctrines: error: {message}")

    def add(parser, level):
        if level.positional == "FILE":
            parser.add_argument("file", metavar="FILE")
        group = parser.add_mutually_exclusive_group(required=True) if level.one_of else None
        for s, o in level.options.items():
            into = group if s in level.one_of else parser
            if o.metavar is None:
                into.add_argument(s, dest=o.dest, action="store_const", const=o.const, default=o.default, help=o.help)
            else:
                into.add_argument(
                    s, dest=o.dest, metavar=o.metavar, type=o.convert, default=o.default, required=o.required,
                    help=o.help,
                )

    top = Parser(prog="doctrines", description=TOP.help, formatter_class=argparse.RawDescriptionHelpFormatter)
    add(top, TOP)
    commands = top.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, level in COMMANDS.items():
        add(commands.add_parser(name, help=level.help, description=level.help), level)
    flags = vars(top.parse_args(argv))
    for level in (TOP, COMMANDS[flags["command"]]):
        for s, o in level.options.items():
            if isinstance(flags[o.dest], list):  # argparse drops an attached `--` (`--op=--`) and stores []
                top.error(f"argument {s}: expected one argument")
    return flags


def main(argv=None) -> int:
    """Run one command line and return its exit status. The cyclic collector
    is paused while it runs and left as the caller had it: a command leaves
    little cyclic garbage (at most 1,145 objects over the benchmark's seed-3
    requests), while each collection pass during it would walk the
    containers it has built and keeps (the import's are frozen below)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    try:
        flags = parse_argv(sys.argv[1:] if argv is None else argv)
    except UsageExit as e:
        print(e.text, file=sys.stderr if e.status else sys.stdout)
        return e.status
    try:
        document = None if flags["command"] == "suite" else parse(flags["file"])
    except (OSError, UnicodeDecodeError):
        print(f"cannot read file: {flags['file']}", file=sys.stderr)
        return 2
    except ParseError as e:
        print(str(e), file=sys.stderr)
        return 2
    try:
        report = run(document, flags["command"], flags)
    except BuildError as e:
        print(str(e), file=sys.stderr)
        return 2
    if flags["json"]:
        sys.stdout.write(_dumps(report, "\n") + "\n")
    else:
        sys.stdout.write(render_text(report))
    return 0 if all(v["pass"] for v in report["verdicts"]) else 1


# The import's objects live as long as the process: frozen out of the
# collector's generations (an O(1) splice), no collection in a command visits them.
gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
