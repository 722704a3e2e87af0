"""Bundled instances and the acceptance suite.

Every concrete structure the abstract constructions are exercised on lives here: the
frames, spaces, quantales, presheaves, coalgebras, the derived operators,
adjunctions and comonads, plus one runner per acceptance criterion. The CLI
`suite` command and the pytest acceptance module both call `run_acceptance`.
"""

from __future__ import annotations

from functools import lru_cache

from _random import Random  # random.Random's C core, without random.py's imports

from .adjunction import (
    DoctrineAdjunction,
    adjunction_violations,
    am_modality,
    base_change_adjunction,
    factorization_violations,
    factorize,
    factorize2_violations,
    identity_adjunction,
    is_vertical,
    left_arrow,
    triviality_violations,
    vertical_adjunction,
    vertical_modality,
)
from .comonad import (
    DoctrineComonad,
    cm_modality,
    cmd_of_adjunction,
    comonad_violations,
    comparison_arrow,
    em_adjunction,
    em_universal_factor,
    identity_comonad,
    local_adjunction_modal_violations,
    local_adjunction_violations,
    ma,
    ma_em_violations,
    mc,
    modality_comparison_violations,
)
from .doctrine import Doctrine
from .fincat import (
    Functor,
    NatTransformation,
    compose_functors,
    discrete_category,
    fin_functor,
    fin_nat,
    identity_functor,
    poset_category,
)
from .instances import (
    FinPresheaf,
    FiniteTopSpace,
    IndexedFamily,
    KripkeFrame,
    bang_law_violations,
    bool_quantale,
    conjunction_adjunction,
    conjunction_modality,
    fake_core,
    fam_doctrine,
    forall_instance,
    kripke_doctrine,
    lukasiewicz3,
    powerset_doctrine,
    presheaf_instance,
    presheaf_oracle_mismatches,
    is_subpresheaf,
    quantale_doctrine,
    topological_doctrine,
)
from .interior import InteriorOp, identity_interior, interior_violations, stable_elements
from .order import (
    MonotoneMap,
    _unions,
    chain_poset,
    fin_poset,
    graph_map,
    identity_map,
    is_identity_map,
    powerset_poset,
    value_map,
)
from .temporal import (
    STREAM,
    FCoalgebra,
    _gfp_chain,
    _oracle_mask,
    oracle_mismatches,
    temporal_doctrine,
)


# ---------------------------------------------------------------------------
# Bundled instances


CHAIN2 = KripkeFrame(("w1", "w2"), frozenset({("w1", "w1"), ("w2", "w2"), ("w1", "w2")}))
CHAIN3 = KripkeFrame(
    ("u1", "u2", "u3"),
    frozenset(
        {("u1", "u1"), ("u2", "u2"), ("u3", "u3"), ("u1", "u2"), ("u2", "u3"), ("u1", "u3")}
    ),
)
CLIQUE2 = KripkeFrame(
    ("v1", "v2"), frozenset({("v1", "v1"), ("v2", "v2"), ("v1", "v2"), ("v2", "v1")})
)
NON_TRANSITIVE = KripkeFrame(
    ("1", "2", "3"),
    frozenset({("1", "1"), ("2", "2"), ("3", "3"), ("1", "2"), ("2", "3")}),
)

SPACES = (
    FiniteTopSpace(
        "disc",
        ("d1", "d2"),
        frozenset({frozenset(), frozenset({"d1"}), frozenset({"d2"}), frozenset({"d1", "d2"})}),
    ),
    FiniteTopSpace("ind", ("i1", "i2"), frozenset({frozenset(), frozenset({"i1", "i2"})})),
    FiniteTopSpace(
        "sier",
        ("bot", "top"),
        frozenset({frozenset(), frozenset({"top"}), frozenset({"bot", "top"})}),
    ),
)

STREAM_A = FCoalgebra("A", "stream", ("s0", "s1"), {"s0": "s1", "s1": "s1"})
STREAM_B = FCoalgebra("B", "stream", ("t",), {"t": "t"})
TREE_T = FCoalgebra("T", "tree", ("s0", "s1", "s2"), {"s0": ("s1", "s2"), "s1": ("s1",), "s2": ()})
TREE_S = FCoalgebra("S", "tree", ("u", "v"), {"u": ("v", "v"), "v": ("v",)})


@lru_cache(maxsize=1)
def bundled_kripke():
    return {
        "kripke-chain2": kripke_doctrine(CHAIN2, {"D": ["x"], "E": ["x", "y"]}),
        "kripke-chain3": kripke_doctrine(CHAIN3, {"D": ["x"]}),
        "kripke-clique2": kripke_doctrine(CLIQUE2, {"D": ["x"]}),
    }


@lru_cache(maxsize=1)
def bundled_fam():
    fams = [
        IndexedFamily("X1", ("a",), {"w1": frozenset({"a"}), "w2": frozenset({"a"})}),
        IndexedFamily("X2", ("a", "b"), {"w1": frozenset({"a"}), "w2": frozenset({"a", "b"})}),
    ]
    return fam_doctrine(CHAIN2, fams)


@lru_cache(maxsize=1)
def bundled_topological():
    return topological_doctrine(SPACES)


@lru_cache(maxsize=1)
def bundled_quantale_doctrines():
    return {
        "bool": quantale_doctrine(bool_quantale(), {"X": ["x"], "Y": ["x", "y"]}),
        "luk3": quantale_doctrine(lukasiewicz3(), {"X": ["x"], "Y": ["x", "y"]}),
    }


@lru_cache(maxsize=1)
def two_chain_presheaves():
    base = poset_category(chain_poset(["w1", "w2"]))
    d1 = FinPresheaf(
        "D1",
        base,
        {"w1": ("a", "b"), "w2": ("a", "b")},
        {
            "w1<=w1": {"a": "a", "b": "b"},
            "w2<=w2": {"a": "a", "b": "b"},
            "w1<=w2": {"a": "a", "b": "b"},
        },
    )
    d2 = FinPresheaf(
        "D2",
        base,
        {"w1": ("a",), "w2": ("a", "b")},
        {"w1<=w1": {"a": "a"}, "w2<=w2": {"a": "a", "b": "b"}, "w1<=w2": {"a": "a"}},
    )
    return (d1, d2)


@lru_cache(maxsize=1)
def bundled_presheaf():
    return presheaf_instance(list(two_chain_presheaves()))


@lru_cache(maxsize=1)
def bundled_temporal():
    return {
        "temporal-G": temporal_doctrine([STREAM_A, STREAM_B], "stream"),
        "temporal-AG": temporal_doctrine([TREE_T, TREE_S], "forall"),
        "temporal-EG": temporal_doctrine([TREE_T, TREE_S], "exists"),
    }


@lru_cache(maxsize=1)
def diamond_comonad() -> DoctrineComonad:
    p = fin_poset(
        ["bot", "a", "b", "top"], [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")]
    )
    base = poset_category(p)
    attach = {"bot": ["p"], "a": ["p", "q"], "b": ["p", "r"], "top": ["p", "q", "r"]}
    fibers = {x: powerset_poset(attach[x]) for x in base.objects}
    reindex = {}
    for t in base.arrow_names():
        kept = set(attach[base.src(t)])
        reindex[t] = value_map(fibers[base.dst(t)], fibers[base.src(t)], lambda a: a & kept)
    doc = Doctrine(base, fibers, reindex)
    k = {"bot": "bot", "a": "a", "b": "bot", "top": "a"}
    # a poset arrow's payload is (), so it is found by its ends alone
    K = fin_functor(base, base, k, {t: base.named[k[base.src(t)], k[base.dst(t)], ()] for t in base.arrow_names()})
    mu = fin_nat(K, compose_functors(K, K), {x: base.id(k[x]) for x in base.objects})
    nu = fin_nat(K, identity_functor(base), {x: base.named[k[x], x, ()] for x in base.objects})
    prune = {"bot": set(), "a": {"q"}, "b": set(), "top": {"q"}}
    kappa = {x: value_map(fibers[x], fibers[k[x]], lambda a: a & prune[x]) for x in base.objects}
    return DoctrineComonad(doc, K, kappa, mu, nu)


@lru_cache(maxsize=1)
def presheaf_restriction_base_change() -> DoctrineAdjunction:
    """Base-change along the restriction of 2-chain presheaves to the terminal
    world: the finitely closable presheaf-restriction adjunction."""
    d1, d2 = two_chain_presheaves()
    adj, families, op = bundled_presheaf()
    psh_base = families.base
    Q = powerset_doctrine({"S": ["a", "b"]})
    set_base = Q.base
    # L restricts a presheaf (and a natural transformation) to the world w2:
    # D1 and D2 list a, b at w2 as S does, so a payload's w2 row is a function on S
    arr_map = {n: set_base.named["S", "S", p[1]] for n, p in psh_base.payload.items()}
    L = Functor(psh_base, set_base, {"D1": "S", "D2": "S"}, arr_map)
    # R sends the set S to the constant presheaf on it, which is D1
    r_arr = {g: psh_base.named["D1", "D1", (p, p)] for g, p in set_base.payload.items()}
    R = fin_functor(set_base, psh_base, {"S": "D1"}, r_arr)
    # η at D acts along w1<=w2 at w1 and is the identity at w2, found by its
    # image positions in D1, which lists a, b at both worlds
    pos, eta_comps = d1.at["w1"].index, {}
    for d in (d1, d2):
        rows = (tuple(pos(d.act["w1<=w2"][x]) for x in d.at["w1"]), tuple(map(pos, d.at["w2"])))
        eta_comps[d.name] = psh_base.named[d.name, "D1", rows]
    eta = NatTransformation(identity_functor(psh_base), compose_functors(R, L), eta_comps)
    eps = NatTransformation(compose_functors(L, R), identity_functor(set_base), {"S": set_base.id("S")})
    return base_change_adjunction(Q, L, R, eta, eps)


@lru_cache(maxsize=1)
def rounding_base_change() -> DoctrineAdjunction:
    big = poset_category(chain_poset(["0", "1", "2"]))
    small = poset_category(chain_poset(["0", "2"]))
    up = {"0": "0", "1": "2", "2": "2"}
    L = fin_functor(big, small, up, {a: small.named[up[big.src(a)], up[big.dst(a)], ()] for a in big.arrow_names()})
    R = fin_functor(small, big, {"0": "0", "2": "2"}, {a: a for a in small.arrow_names()})
    eta = fin_nat(identity_functor(big), compose_functors(R, L), {x: big.named[x, up[x], ()] for x in big.objects})
    eps = fin_nat(compose_functors(L, R), identity_functor(small), {x: small.id(x) for x in small.objects})
    f0 = powerset_poset(["p"])
    f2 = powerset_poset(["p", "q"])
    Q = Doctrine(
        small,
        {"0": f0, "2": f2},
        {
            small.id("0"): identity_map(f0),
            small.id("2"): identity_map(f2),
            "0<=2": graph_map(f2, f0, {"{}": "{}", "{p}": "{p}", "{q}": "{}", "{p,q}": "{p}"}),
        },
    )
    return base_change_adjunction(Q, L, R, eta, eps)


@lru_cache(maxsize=1)
def identity_powerset_adjunction() -> DoctrineAdjunction:
    doc = powerset_doctrine({"A": ["a1"], "B": ["b1", "b2"]})
    return identity_adjunction(doc)


# the bundled operators and adjunctions built from one doctrine share it, so
# each construction reached from both is found kept on an equal value over
# the same base (`order.kept`) and built once
@lru_cache(maxsize=1)
def conjunction_doctrine() -> Doctrine:
    return powerset_doctrine({"A": ["a1", "a2"]})


@lru_cache(maxsize=1)
def bundled_forall() -> tuple[DoctrineAdjunction, InteriorOp]:
    return forall_instance({"Y": ["y"]}, "X", ["0", "1"])


@lru_cache(maxsize=1)
def bundled_interior_ops() -> list[tuple[str, InteriorOp]]:
    ops = []
    ops.append(("identity", identity_interior(identity_powerset_adjunction().p)))
    for name, (d, op) in bundled_kripke().items():
        ops.append((name, op))
    ops.append(("fam-chain2", bundled_fam()[1]))
    ops.append(("topological", bundled_topological()[1]))
    for qname, (qdoc, qadj, bang) in bundled_quantale_doctrines().items():
        ops.append((f"bang-{qname}", bang))
    ops.append(("presheaf", bundled_presheaf()[2]))
    for tname, (tdoc, top) in bundled_temporal().items():
        ops.append((tname, top))
    ops.append(("conjunction", conjunction_modality(conjunction_doctrine())))
    ops.append(("forall", bundled_forall()[1]))
    return ops


@lru_cache(maxsize=1)
def bundled_adjunctions() -> list[tuple[str, DoctrineAdjunction]]:
    out = [("identity", identity_powerset_adjunction())]
    for qname, (qdoc, qadj, bang) in bundled_quantale_doctrines().items():
        out.append((f"quantale-{qname}", qadj))
    out.append(("conjunction", conjunction_adjunction(conjunction_doctrine())))
    out.append(("forall", bundled_forall()[0]))
    out.append(("presheaf-vertical", bundled_presheaf()[0]))
    out.append(("ma-topological", ma(bundled_topological()[1])))
    out.append(("ma-kripke-chain2", ma(bundled_kripke()["kripke-chain2"][1])))
    out.append(("base-change-rounding", rounding_base_change()))
    out.append(("base-change-presheaf-restriction", presheaf_restriction_base_change()))
    out.append(("em-diamond", em_adjunction(diamond_comonad())))
    return out


@lru_cache(maxsize=1)
def bundled_comonads() -> list[tuple[str, DoctrineComonad]]:
    doc = powerset_doctrine({"A": ["a1"]})
    out = [("identity", identity_comonad(doc))]
    out.append(("mc-kripke-chain2", mc(bundled_kripke()["kripke-chain2"][1])))
    out.append(("mc-topological", mc(bundled_topological()[1])))
    out.append(("cmd-quantale-luk3", cmd_of_adjunction(bundled_quantale_doctrines()["luk3"][1])))
    out.append(("cmd-presheaf", cmd_of_adjunction(bundled_presheaf()[0])))
    out.append(("diamond", diamond_comonad()))
    return out


# ---------------------------------------------------------------------------
# Seeded random instances


class Rng(Random):
    """The suite's seeded draws on the Mersenne Twister (Matsumoto and
    Nishimura, ACM TOMACS 8(1), 1998): the C core of `random.Random` gives
    `Rng(seed)` the state of `random.Random(seed)` for an int seed, and
    `random()`. The three draws the suite makes are computed here as
    `random.py` computes them, so they equal `random.Random`'s and depend on
    no sampling code outside the library, and `random` is never imported."""

    def randrange(self, n: int) -> int:
        """A draw from range(n), as `random.py`'s `_randbelow_with_getrandbits`."""
        if n <= 0:
            raise ValueError("empty range for randrange()")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return r

    def randint(self, a: int, b: int) -> int:
        return a + self.randrange(b - a + 1)

    def sample(self, population, k: int) -> list:
        """k distinct members of `population` in selection order, as the pool
        branch of `random.Random.sample`, which it takes for every population
        of at most 21; a larger one raises, and so does k above its size."""
        n = len(population)
        if n > 21:
            raise ValueError("Rng.sample draws from populations of at most 21")
        pool, out = list(population), []
        for i in range(k):
            j = self.randrange(n - i)
            out.append(pool[j])
            pool[j] = pool[n - i - 1]  # the last unselected member fills the vacancy
        return out


@lru_cache(maxsize=None)
def _atoms_powerset(letter: str, k: int):
    """The powerset of the atoms letter0 … letter(k−1), built once per process."""
    return powerset_poset([f"{letter}{i}" for i in range(k)])


@lru_cache(maxsize=None)
def _discrete_base(n: int):
    """The discrete category on X0 … X(n−1), built once per process."""
    return discrete_category([f"X{i}" for i in range(n)])


def random_vertical_adjunction(rng: Random, max_objects: int = 2, max_ground: int = 4) -> DoctrineAdjunction:
    """Sample a vertical adjunction over a discrete base: per fiber, a
    join-preserving map between powersets (union along a random assignment
    of atoms to subsets) together with its right adjoint, both computed on
    the fibers' bit codes. Atom i goes to the mask targets[i]; λ sends a
    code to the union of its atoms' targets (`_unions`), and ρ sends b to
    the code of the atoms whose target lies inside b."""
    n_obj = rng.randint(1, max_objects)
    base = _discrete_base(n_obj)
    p_fibers, q_fibers, lam, rho = {}, {}, {}, {}
    for x in base.objects:
        k1, k2 = rng.randint(1, max_ground), rng.randint(1, max_ground)
        p = p_fibers[x] = _atoms_powerset("a", k1)
        q = q_fibers[x] = _atoms_powerset("b", k2)
        # rng.sample picks the same positions of range(k2) as of the atoms b0 … b(k2−1)
        targets = [sum(1 << j for j in rng.sample(range(k2), rng.randint(0, k2))) for _ in range(k1)]
        unions, p_at, q_at = _unions(targets), p._by_code, q._by_code
        lam[x] = MonotoneMap(p, q, tuple(q_at[unions[a]] for a in p.codes))
        rho[x] = MonotoneMap(q, p, tuple(
            p_at[sum(1 << i for i, t in enumerate(targets) if not t & ~b)] for b in q.codes
        ))
    P = Doctrine(base, p_fibers, {base.id(x): identity_map(p_fibers[x]) for x in base.objects})
    Q = Doctrine(base, q_fibers, {base.id(x): identity_map(q_fibers[x]) for x in base.objects})
    return vertical_adjunction(P, Q, lam, rho)


def random_coalgebra(rng: Random, kind: str, max_states: int, name: str = "M") -> FCoalgebra:
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    if kind == STREAM:
        step = {s: states[rng.randrange(n)] for s in states}
    else:
        step = {s: tuple(states[rng.randrange(n)] for _ in range(rng.randint(0, 3))) for s in states}
    return FCoalgebra(name, kind, states, step)


# ---------------------------------------------------------------------------
# Acceptance criteria


def _case(details: list[str], name: str, bad: list[str], holds: str) -> bool:
    """Record one case of a criterion, `name: holds` or `name: ` and the
    first three witnesses in `bad`; whether it passed."""
    details.append(f"{name}: " + ("; ".join(bad[:3]) if bad else holds))
    return not bad


def criterion_interior_suite() -> tuple[bool, list[str]]:
    details = []
    ok = True
    for name, op in bundled_interior_ops():
        ok &= _case(details, name, interior_violations(op), f"laws hold on {len(op.doctrine.base.objects)} objects")
    _, bad_op = kripke_doctrine(NON_TRANSITIVE, {"D": ["x"]})
    bad = interior_violations(bad_op)
    witnessed = any("axiom 4 fails" in v for v in bad)
    details.append(
        "planted non-transitive frame: axiom 4 violation "
        + (f"witnessed ({[v for v in bad if 'axiom 4' in v][0]})" if witnessed else "MISSING")
    )
    ok = ok and witnessed
    return ok, details


def criterion_am_modality(seed: int) -> tuple[bool, list[str]]:
    details = []
    ok = True
    for name, A in bundled_adjunctions():
        try:
            am_modality(A)
        except ValueError as e:
            bad = [str(e)]
        else:
            bad = []
        ok &= _case(details, name, bad, "induced operator passes")
    rng = Rng(seed)
    failures = 0
    for i in range(50):
        A = random_vertical_adjunction(rng)
        bad = adjunction_violations(A)
        if bad:
            failures += 1
            continue
        try:
            am_modality(A)
        except ValueError:
            failures += 1
    details.append(f"50 seeded random vertical adjunctions: {50 - failures} pass")
    ok = ok and failures == 0
    return ok, details


def criterion_factorization() -> tuple[bool, list[str]]:
    details = []
    ok = True
    for name, A in bundled_adjunctions():
        vert, bc = factorize(A)
        bad = adjunction_violations(vert) + adjunction_violations(bc)
        bad += factorization_violations(A)
        if not bad and vertical_modality(vert) != am_modality(A)[1]:
            bad = ["vertical factor does not reproduce the induced modality"]
        ok &= _case(details, name, bad, "both factors valid, composites match bit-exactly")
    return ok, details


def criterion_factorization2() -> tuple[bool, list[str]]:
    details = []
    ok = True
    for name, A in bundled_adjunctions():
        holds = f"surjective/injective with witnesses on {len(A.p.base.objects)} objects"
        ok &= _case(details, name, factorize2_violations(A), holds)
    return ok, details


def criterion_comonad_suite() -> tuple[bool, list[str]]:
    details = []
    ok = True
    for name, c in bundled_comonads():
        bad = comonad_violations(c)
        if not bad:
            A = em_adjunction(c)  # raises unless the EM fibers are the closure fixpoints
            bad = adjunction_violations(A)
        if not bad and cm_modality(c) != am_modality(A)[1]:
            bad = ["comonadic and adjunction modalities differ"]
        ok &= _case(details, name, bad, "em fibers, adjunction, and modality agree")
    for name, op in bundled_interior_ops():
        ok &= _case(details, name, ma_em_violations(op), "MA coincides with the EM adjunction of MC")
    for name, A in bundled_adjunctions():
        c = cmd_of_adjunction(A)
        xi = NatTransformation(
            A.left,
            compose_functors(c.k, A.left),
            {x: A.left.arr_map[A.eta.components[x]] for x in A.p.base.objects},
        )
        try:
            factor = em_universal_factor(c, left_arrow(A), xi)
        except ValueError as e:
            bad = [str(e)]
        else:
            bad = [] if factor == comparison_arrow(A) else ["universal factorization differs from the comparison arrow"]
        ok &= _case(details, name, bad, "universal factorization unique and equals the comparison arrow")
    return ok, details


def criterion_comparison() -> tuple[bool, list[str]]:
    details = []
    ok = True
    targets = [(n, A) for n, A in bundled_adjunctions() if n.startswith("quantale") or n.startswith("presheaf")]
    for name, A in targets:
        ok &= _case(details, name, modality_comparison_violations(A), "tables equal, comparison arrow modal")
    return ok, details


def criterion_local_adjunction() -> tuple[bool, list[str]]:
    details = []
    ok = True
    for name, A in bundled_adjunctions():
        ok &= _case(details, name, local_adjunction_violations(A), "AM(nabla) is the identity modal arrow")
    for name, op in bundled_interior_ops():
        ok &= _case(details, name, local_adjunction_modal_violations(op), "nabla at MA is the identity morphism")
    return ok, details


def criterion_triviality() -> tuple[bool, list[str]]:
    details = []
    ok = True
    for name, A in bundled_adjunctions():
        if not is_vertical(A):
            continue
        ok &= _case(details, name, triviality_violations(A), "absorption and both dichotomies verified")
    _, luk, _ = bundled_quantale_doctrines()["luk3"]
    objects = luk.p.base.objects
    rl = all(is_identity_map(luk.rho[x], luk.p.fibers[x], luk.lam[x]) for x in objects)
    lr = not any(is_identity_map(luk.lam[x], luk.q.fibers[x], luk.rho[x]) for x in objects)
    if rl and lr:
        details.append("luk3: rho.lambda = id with lambda.rho != id, as expected")
    else:
        ok = False
        details.append("luk3: expected strictness pattern missing")
    return ok, details


def criterion_bang_laws() -> tuple[bool, list[str]]:
    details = []
    ok = True
    sets = {"X": ["x"], "Y": ["x", "y"], "Z": ["x", "y", "z"]}
    for q in (bool_quantale(), lukasiewicz3()):
        ok &= _case(details, q.name, bang_law_violations(q, sets), "laws (1)-(4) hold on fibers up to size 3")
    luk = lukasiewicz3()
    law2 = [w for w in bang_law_violations(luk, {"X": ["x"]}, core_override=fake_core(luk)) if w.startswith("law (2) ")]
    if law2:
        details.append("fake core: " + law2[0].replace(" at ", " with witness ", 1))
    else:
        ok = False
        details.append("fake core: law (2) unexpectedly held")
    return ok, details


def criterion_temporal(seed: int) -> tuple[bool, list[str]]:
    details = []
    ok = True
    rng = Rng(seed)
    exhaustive = [(STREAM_A, "stream"), (TREE_T, "forall"), (TREE_T, "exists"), (TREE_S, "forall"), (TREE_S, "exists")]
    for _ in range(5):
        exhaustive.append((random_coalgebra(rng, "stream", 5, "R"), "stream"))
        t = random_coalgebra(rng, "tree", 5, "R")
        exhaustive.append((t, "forall"))
        exhaustive.append((t, "exists"))
    mismatches = sum(len(oracle_mismatches(c, [lift])) for c, lift in exhaustive)
    details.append(f"exhaustive subsets on {len(exhaustive)} coalgebras (|A| <= 5): {mismatches} mismatches")
    ok = ok and mismatches == 0
    over_bound = 0
    random_mismatches = 0
    for i in range(100):
        kind = "stream" if i % 2 == 0 else "tree"
        c = random_coalgebra(rng, kind, 8, f"M{i}")
        lift = "stream" if kind == "stream" else ("forall" if i % 4 == 1 else "exists")
        for _ in range(4):
            # each state's bit drawn by one rng.random(), in state order
            alpha = sum(1 << x for x in range(len(c.states)) if rng.random() < 0.5)
            chain = _gfp_chain(c, lift, alpha)
            if len(chain) - 2 > len(c.states) + 1:
                over_bound += 1
            if chain[-1] != _oracle_mask(c, lift, alpha):
                random_mismatches += 1
    details.append(f"100 seeded random coalgebras (|A| <= 8): {random_mismatches} mismatches, {over_bound} over the iteration bound")
    ok = ok and random_mismatches == 0 and over_bound == 0
    return ok, details


def criterion_presheaf_oracle() -> tuple[bool, list[str]]:
    details = []
    ok = True
    adj, families, op = bundled_presheaf()
    mismatch = len(presheaf_oracle_mismatches(two_chain_presheaves(), op))
    details.append(f"box equals union-of-subfamilies oracle on every family ({mismatch} mismatches)")
    ok = ok and mismatch == 0
    stable_ok = True
    for d in two_chain_presheaves():
        fiber, worlds = families.fibers[d.name], d.base.objects
        want = {lbl for lbl, parts in zip(fiber.elements, fiber.values) if is_subpresheaf(d, dict(zip(worlds, parts)))}
        if set(stable_elements(op, d.name)) != want:
            stable_ok = False
    details.append("stable elements are exactly the subpresheaves" if stable_ok else "stable elements differ from subpresheaves")
    ok = ok and stable_ok
    return ok, details


# Criterion i is the i-th runner `run_acceptance` calls; each runner returns
# whether it passed and one detail line per case it ran
TITLES = (
    "interior law suite",
    "adjunction-to-modality coherence",
    "factorization through the base change",
    "refined factorization through stable elements",
    "comonad suite",
    "modality comparison",
    "local adjunction triangle laws",
    "triviality dichotomies",
    "exponential (bang) laws",
    "temporal oracle equivalence",
    "presheaf modality oracle",
)


def run_acceptance(seed: int = 7) -> dict:
    """All library-level acceptance criteria (CLI determinism is criterion 12
    and lives in the CLI tests, since it exercises the process boundary). A
    criterion whose construction raises KeyError or ValueError fails with
    one detail line naming the error, and the rest still run."""
    runs = [
        criterion_interior_suite,
        lambda: criterion_am_modality(seed),
        criterion_factorization,
        criterion_factorization2,
        criterion_comonad_suite,
        criterion_comparison,
        criterion_local_adjunction,
        criterion_triviality,
        criterion_bang_laws,
        lambda: criterion_temporal(seed),
        criterion_presheaf_oracle,
    ]
    criteria = []
    for i, (title, run) in enumerate(zip(TITLES, runs), start=1):
        try:
            ok, details = run()
        except (KeyError, ValueError) as e:
            ok, details = False, [f"raised {type(e).__name__}: {e}"]
        criteria.append({"id": i, "title": title, "pass": ok, "details": details})
    return {
        "seed": seed,
        "criteria": criteria,
        "pass": all(c["pass"] for c in criteria),
    }
