"""Seeded workload generators for the doctrines benchmark.

Every workload is a fixed list of CLI requests (argv plus the text of the
model file it reads), built only from the seed. The generators here are the
benchmark's own: they never call the library's random generators, so a change
to the library cannot change what the benchmark sends.

Seeds are reduced modulo `SEED_SPACE`, the number of seeds whose expected
outcomes are recorded in `expected.json`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from itertools import combinations

SEED_SPACE = 32

# Far above any honest work estimate for the models below (the largest, an
# 8-state coalgebra check, scans about 2^8 * 2^8 * 3^8 pairs), so the size
# guard never refuses a benchmark request and the run measures the work.
MAX_SIZE = 10**15


@dataclass(frozen=True)
class Request:
    """One CLI invocation: `argv` names the model file as FILE. `reps` is how
    many times a round of the benchmark sends it in a row: a short request
    that holds the median or the tail of the latency sample gets more, so
    its best timing rests on more samples."""

    argv: tuple[str, ...]
    model: str | None
    sizes: dict = field(default_factory=dict, compare=False, hash=False)
    reps: int = field(default=1, compare=False, hash=False)

    @property
    def key(self) -> str:
        """Stable identity of the request, independent of where the model is written."""
        text = " ".join(self.argv) + "\0" + (self.model or "")
        return hashlib.sha256(text.encode()).hexdigest()[:20]

    def cli_argv(self, path: str | None) -> list[str]:
        return [path if a == "FILE" else a for a in self.argv]


def _cli(*args: str) -> tuple[str, ...]:
    return ("--json", "--max-size", str(MAX_SIZE)) + args


# ---------------------------------------------------------------- temporal

# (states, kind) per coalgebra. Cost grows as 4^n (powerset lattice) and
# 6^n (2^n oracle sweep, each scanning 3^n pairs), so sizes are fixed and the
# seed varies only the transition structure and the queried predicates.
# The mix puts the median request in the middle of the requests on the two
# 6-state trees, and the tail in the middle of those on the 7-state tree,
# never at the edge between two sizes, where a little noise moves it far.
TEMPORAL_MODELS = ((5, "stream"), (5, "tree"), (6, "stream"), (6, "tree"), (6, "tree"), (7, "stream"), (7, "tree"), (8, "stream"))
TEMPORAL_OPS = {"stream": ("G",), "tree": ("AG", "EG")}
# The median of the latency sample falls among the requests on the 6-state
# trees (about 90 ms each) and the tail among those on the 7-state tree (about
# 0.4 s): a round sends them more often, so their best timings rest on more samples.
TEMPORAL_REPS = {(6, "tree"): 3, (7, "tree"): 2}


def _coalgebra_text(rng: random.Random, name: str, n: int, kind: str) -> str:
    """Random successors; a tree's branching degrees (0 to 3, fixed in number
    per size) are shuffled over its states, so the lift work varies little by seed."""
    states = [f"s{i}" for i in range(n)]
    if kind == "stream":
        step = " ".join(f"{s}={rng.choice(states)}" for s in states)
    else:
        degrees = [i % 4 for i in range(n)]
        rng.shuffle(degrees)
        step = " ".join(
            f"{s}=(" + ",".join(rng.choice(states) for _ in range(k)) + ")" for s, k in zip(states, degrees)
        )
    return f"coalgebra {name} {{ kind: {kind}; states: {' '.join(states)}; step: {step} }}\n"


def _subset(rng: random.Random, items: list[str], k: int) -> str:
    members = set(rng.sample(items, k))
    return "{" + ",".join(x for x in items if x in members) + "}"


def temporal_requests(rng: random.Random) -> list[Request]:
    out = []
    for n, kind in TEMPORAL_MODELS:
        model = _coalgebra_text(rng, "M", n, kind)
        sizes, reps = {"states": n, "kind": kind}, TEMPORAL_REPS.get((n, kind), 1)
        out.append(Request(_cli("check", "FILE"), model, sizes, reps))
        for op in TEMPORAL_OPS[kind]:
            alpha = _subset(rng, [f"s{i}" for i in range(n)], round(0.75 * n))
            out.append(Request(_cli("temporal", "FILE", "--coalgebra", "M", "--op", op, "--alpha", alpha), model, sizes, reps))
    return out


# ------------------------------------------------------------------- modal

KRIPKE_WORLDS = (6, 7, 8, 9)

# Finite commutative quantales on small lattices, as (elements, covers, tensor).
# The tensor lists each unordered pair once; the CLI fills in symmetry.
QUANTALES_3 = (
    ("0 h 1", "0->h h->1", "0*0=0 0*h=0 0*1=0 h*h=0 h*1=h 1*1=1"),  # Lukasiewicz
    ("0 h 1", "0->h h->1", "0*0=0 0*h=0 0*1=0 h*h=h h*1=h 1*1=1"),  # Goedel
)
QUANTALES_4 = (
    ("0 a b 1", "0->a a->b b->1", "0*0=0 0*a=0 0*b=0 0*1=0 a*a=a a*b=a a*1=a b*b=b b*1=b 1*1=1"),  # Goedel chain
    ("0 a b 1", "0->a a->b b->1", "0*0=0 0*a=0 0*b=0 0*1=0 a*a=0 a*b=0 a*1=a b*b=a b*1=b 1*1=1"),  # Lukasiewicz chain
    ("0 a b 1", "0->a 0->b a->1 b->1", "0*0=0 0*a=0 0*b=0 0*1=0 a*a=a a*b=0 a*1=a b*b=b b*1=b 1*1=1"),  # Boolean square
)
ATOMS = "pqrstuvxyz"
DERIVE_KINDS = ("--modality", "--comonad", "--adjunction")


def _preorder_pairs(rng: random.Random, points: list[str], p: float) -> list[tuple[str, str]]:
    """Random forward edges plus one back edge, so one class of points merges."""
    pairs = [(a, b) for i, a in enumerate(points) for b in points[i + 1:] if rng.random() < p]
    a, b = sorted(rng.sample(range(len(points)), 2))
    return pairs + [(points[b], points[a])]


def _above(points: list[str], pairs: list[tuple[str, str]]) -> dict[str, set[str]]:
    """Each point's up-set in the reflexive-transitive closure of `pairs`."""
    above = {p: {p} for p in points}
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            new = above[b] - above[a]
            if new:
                above[a] |= new
                changed = True
    return above


def _upsets(points: list[str], above: dict[str, set[str]]) -> list[tuple[str, ...]]:
    return [
        combo
        for r in range(len(points) + 1)
        for combo in combinations(points, r)
        if all(above[x] <= set(combo) for x in combo)
    ]


# Closure size and number of up-sets (the stable elements of the box) of the
# typical random preorder at each size. Kripke work grows with both, so frames
# are drawn until both match exactly: the structure varies by seed, the work barely.
KRIPKE_SHAPE = {6: (13, 18), 7: (16, 24), 8: (21, 32), 9: (26, 42)}


def _kripke_pairs(rng: random.Random, worlds: list[str]) -> list[tuple[str, str]]:
    rel, ups = KRIPKE_SHAPE[len(worlds)]
    while True:
        pairs = _preorder_pairs(rng, worlds, 0.25)
        above = _above(worlds, pairs)
        if sum(map(len, above.values())) == rel and len(_upsets(worlds, above)) == ups:
            return pairs


def _carrier_sets(rng: random.Random, names: str, sizes: tuple[int, ...]) -> str:
    atoms = rng.sample(ATOMS, max(sizes))
    return " ".join(f"{name}={','.join(sorted(rng.sample(atoms, k)))}" for name, k in zip(names, sizes))


def _kripke_text(name: str, worlds: list[str], pairs, sets: str, closure: str = "refl-trans") -> str:
    rel = " ".join(f"{a}->{b}" for a, b in pairs)
    return f"kripke-frame {name} {{ worlds: {' '.join(worlds)}; rel: {rel}; closure: {closure}; sets: {sets} }}\n"


def _box_requests(model: str, source: str, sizes: dict) -> list[Request]:
    out = [Request(_cli("check", "FILE"), model, sizes), Request(_cli("em", "FILE", "--from", source), model, sizes)]
    out += [Request(_cli("derive", "FILE", "--from", source, k), model, sizes) for k in DERIVE_KINDS]
    return out


def _adjunction_requests(model: str, adj: str, box: str, sizes: dict) -> list[Request]:
    out = [Request(_cli("check", "FILE"), model, sizes), Request(_cli("em", "FILE", "--from", box), model, sizes)]
    out += [Request(_cli("derive", "FILE", "--from", adj, k), model, sizes) for k in ("--modality", "--comonad")]
    out.append(Request(_cli("factor", "FILE", "--from", adj), model, sizes))
    return out


def _quantale_text(rng: random.Random, spec, set_sizes: tuple[int, ...]) -> str:
    elements, covers, tensor = spec
    sets = _carrier_sets(rng, "XYZ", set_sizes)
    unit = elements.split()[-1]
    return f"quantale Q {{ elements: {elements}; pairs: {covers}; unit: {unit}; tensor: {tensor}; sets: {sets} }}\n"


# Spaces as the Alexandrov topologies of fixed small orders: Sierpinski, a
# 3-chain, a V and a wedge. The seed renames points and reorders the spaces.
SPACE_ORDERS = (((0, 1),), ((0, 1), (1, 2)), ((0, 1), (0, 2)), ((0, 2), (1, 2)))


def _topspace_text(rng: random.Random, name: str, order) -> str:
    n = 1 + max(max(pair) for pair in order)
    points = rng.sample([f"{name.lower()}{c}" for c in ATOMS[:n]], n)
    pairs = [(points[a], points[b]) for a, b in order]
    opens = " ".join("{" + ",".join(u) + "}" for u in _upsets(points, _above(points, pairs)))
    return f"topspace {name} {{ points: {' '.join(points)}; opens: {opens} }}\n"


def _presheaf_text(rng: random.Random, name: str, frame: str, worlds: list[str]) -> tuple[str, int]:
    """A covariant set-valued functor on a chain: random maps between
    consecutive worlds, composites filled in so functoriality holds."""
    at = {w: tuple(f"{name.lower()}{i}" for i in range(rng.randint(1, 2))) for w in worlds}
    step = [{e: rng.choice(at[worlds[i + 1]]) for e in at[worlds[i]]} for i in range(len(worlds) - 1)]
    acts = []
    for i, w in enumerate(worlds):
        image = {e: e for e in at[w]}
        for j in range(i + 1, len(worlds)):
            image = {e: step[j - 1][v] for e, v in image.items()}
            acts.append(f"{w}->{worlds[j]}=" + ",".join(f"{e}>{v}" for e, v in image.items()))
    at_text = " ".join(f"{w}={{{','.join(at[w])}}}" for w in worlds)
    return f"presheaf {name} {{ frame: {frame}; at: {at_text}; act: {' '.join(acts)} }}\n", sum(map(len, at.values()))


def modal_requests(rng: random.Random) -> list[Request]:
    out = []
    for n in KRIPKE_WORLDS:
        worlds = [f"w{i}" for i in range(n)]
        model = _kripke_text("K", worlds, _kripke_pairs(rng, worlds), "D=x")
        out += _box_requests(model, "K.box", {"worlds": n, "carriers": [1]})
    worlds = ["w0", "w1", "w2"]
    model = _kripke_text("K", worlds, _preorder_pairs(rng, worlds, 0.5), _carrier_sets(rng, "DEF", (1, 2, 2)))
    out += _box_requests(model, "K.box", {"worlds": 3, "carriers": [1, 2, 2]})
    # Reflexive but not transitive: axiom 4 must fail, so the expected exit is 1.
    chain = [f"v{i}" for i in range(rng.randint(3, 5))]
    planted = _kripke_text("B", chain, zip(chain, chain[1:]), "D=x", closure="refl")
    out.append(Request(_cli("check", "FILE"), planted, {"worlds": len(chain), "carriers": [1]}))
    for spec, set_sizes in ((rng.choice(QUANTALES_3), (1, 2, 3)), (rng.choice(QUANTALES_4), (1, 2))):
        model = _quantale_text(rng, spec, set_sizes)
        out += _adjunction_requests(model, "Q.adjunction", "Q.bang", {"carrier": len(spec[0].split()), "carriers": list(set_sizes)})
    orders = rng.sample(SPACE_ORDERS, len(SPACE_ORDERS))
    spaces = "".join(_topspace_text(rng, f"S{i}", order) for i, order in enumerate(orders))
    out += _box_requests(spaces, "topological.interior", {"points": [1 + max(map(max, o)) for o in orders]})
    worlds = ["c0", "c1"]
    frame = f"kripke-frame C {{ worlds: {' '.join(worlds)}; rel: c0->c1; closure: refl-trans }}\n"
    parts = [_presheaf_text(rng, name, "C", worlds) for name in ("D", "E")]
    model = frame + "".join(text for text, _ in parts)
    out += _adjunction_requests(model, "presheaf.C.adjunction", "presheaf.C.box", {"worlds": 2, "elements": [k for _, k in parts]})
    return out


# -------------------------------------------------------------------- gate

# The model of the CLI tests, verbatim: the ROADMAP gate runs on it.
GATE_MODEL = """
# sample workbench model
kripke-frame K { worlds: w1 w2; rel: w1->w2; closure: refl-trans; sets: D=x }
topspace sier { points: bot top; opens: {} {top} {bot,top} }
quantale L3 { elements: 0 h 1; pairs: 0->h h->1; unit: 1;
              tensor: 0*0=0 0*h=0 0*1=0 h*h=0 h*1=h 1*1=1; sets: X=x }
coalgebra M { kind: tree; states: s0 s1 s2; step: s0=(s1,s2) s1=(s1) s2=() }
query g1 { run: temporal; coalgebra: M; op: EG; alpha: {s0,s1} }
"""

GATE_COMMANDS = (
    ("check", "FILE"),
    ("check", "FILE", "--target", "K"),
    ("derive", "FILE", "--from", "L3.adjunction", "--modality"),
    ("derive", "FILE", "--from", "L3.adjunction", "--comonad"),
    ("derive", "FILE", "--from", "K.box", "--adjunction"),
    ("derive", "FILE", "--from", "topological.interior", "--comonad"),
    ("em", "FILE", "--from", "K.box"),
    ("em", "FILE", "--from", "L3.bang"),
    ("factor", "FILE", "--from", "L3.adjunction"),
    ("temporal", "FILE", "--coalgebra", "M", "--op", "EG", "--alpha", "{s0,s1}"),
    ("temporal", "FILE", "--coalgebra", "M", "--op", "AG", "--alpha", "{s0,s1,s2}"),
)
# The suite at its default seed 7 and three more. They are fixed, so the gate
# is the same at every benchmark seed: the suite's cost moves by about a fifth
# from one suite seed to another, which drawing them per run turned into noise.
GATE_SUITE_SEEDS = (7, 1, 2, 3)
# A MODEL request takes about 10 ms and holds the median; a suite request
# takes about 1.7 s.
GATE_MODEL_REPS = 3


def gate_requests(rng: random.Random) -> list[Request]:
    sizes = {"worlds": 2, "points": 2, "carrier": 3, "states": 3}
    out = [Request(_cli(*cmd), GATE_MODEL, sizes, GATE_MODEL_REPS) for cmd in GATE_COMMANDS]
    for s in GATE_SUITE_SEEDS:
        out.append(Request(("--json", "--seed", str(s), "--max-size", str(MAX_SIZE), "suite"), None, {"suite_seed": s}))
    return out


WORKLOADS = {"temporal": temporal_requests, "modal": modal_requests, "gate": gate_requests}


def requests_for(workload: str, seed: int) -> list[Request]:
    """The fixed request list of `workload` at `seed`."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed % SEED_SPACE}"))
