import random
from itertools import chain, combinations

import pytest

from doctrines.doctrine import doctrine_violations
from doctrines.fincat import all_functions
from doctrines import temporal
from doctrines.interior import interior_violations
from doctrines.order import graph_map, label_subset, subset_label, subsets_in_order
from doctrines.suite import STREAM_A, STREAM_B, TREE_S, TREE_T, random_coalgebra
from doctrines.temporal import (
    FCoalgebra,
    _is_homomorphism,
    gfp_modality,
    gfp_modality_trace,
    oracle_for,
    oracle_mismatches,
    temporal_doctrine,
)
from util import (
    ag_oracle_reference,
    eg_oracle_reference,
    function_category_reference,
    g_oracle_reference,
    gfp_trace,
    inverse_image_reference,
    post_fixed_join,
    powerset_lattice,
    random_subset,
)


def coalgebra_homomorphisms(c1: FCoalgebra, c2: FCoalgebra) -> list[dict]:
    """All step-compatible functions, by brute force."""
    if c1.kind != c2.kind:
        return []
    return [h for h in all_functions(c1.states, c2.states) if _is_homomorphism(c1, c2, h)]


STREAM2 = FCoalgebra("A", "stream", ("s0", "s1"), {"s0": "s1", "s1": "s1"})
TREE3 = FCoalgebra(
    "T", "tree", ("s0", "s1", "s2"), {"s0": ("s1", "s2"), "s1": ("s1",), "s2": ()}
)


def all_subsets(states):
    return [frozenset(c) for c in chain.from_iterable(combinations(states, r) for r in range(len(states) + 1))]


def test_stream_example_from_orbit():
    # orbit of s0 reaches s1, which is outside alpha
    assert gfp_modality(STREAM2, "stream", frozenset({"s0"})) == frozenset()
    assert oracle_for(STREAM2, "stream", frozenset({"s0"})) == frozenset()
    # alpha = everything: top is a fixed point
    assert gfp_modality(STREAM2, "stream", frozenset({"s0", "s1"})) == {"s0", "s1"}


def test_tree_exists_example():
    alpha = frozenset({"s0", "s1"})
    assert oracle_for(TREE3, "exists", alpha) == {"s0", "s1"}
    assert gfp_modality(TREE3, "exists", alpha) == {"s0", "s1"}


def test_tree_forall_examples():
    # leaf in alpha is included: no successors
    assert oracle_for(TREE3, "forall", frozenset({"s2"})) == {"s2"}
    assert oracle_for(TREE3, "forall", frozenset(TREE3.states)) == set(TREE3.states)
    # s0 reaches the leaf s2; dropping s2 excludes s0
    assert oracle_for(TREE3, "forall", frozenset({"s0", "s1"})) == {"s1"}
    assert gfp_modality(TREE3, "forall", frozenset({"s0", "s1"})) == {"s1"}


def test_eg_empty_alpha_and_self_loop():
    assert oracle_for(TREE3, "exists", frozenset()) == frozenset()
    loop = FCoalgebra("L", "tree", ("x",), {"x": ("x",)})
    assert oracle_for(loop, "exists", frozenset({"x"})) == {"x"}


def test_g_oracle_three_cycle():
    cyc = FCoalgebra("C", "stream", ("a", "b", "c"), {"a": "b", "b": "c", "c": "a"})
    assert oracle_for(cyc, "stream", frozenset({"a", "b"})) == frozenset()
    assert oracle_for(cyc, "stream", frozenset({"a", "b", "c"})) == {"a", "b", "c"}


def test_gfp_equals_oracles_exhaustively_small():
    rng = random.Random(5)
    cases = [(STREAM2, "stream"), (TREE3, "forall"), (TREE3, "exists")]
    for _ in range(8):
        cases.append((random_coalgebra(rng, "stream", 5, "R"), "stream"))
        t = random_coalgebra(rng, "tree", 5, "R")
        cases.append((t, "forall"))
        cases.append((t, "exists"))
    for c, lift in cases:
        for alpha in all_subsets(c.states):
            assert gfp_modality(c, lift, alpha) == oracle_for(c, lift, alpha)


def test_gfp_iteration_bound_and_deflationary():
    rng = random.Random(9)
    for _ in range(30):
        kind = "stream" if rng.random() < 0.5 else "tree"
        c = random_coalgebra(rng, kind, 8, "R")
        lift = "stream" if kind == "stream" else ("forall" if rng.random() < 0.5 else "exists")
        alpha = random_subset(rng, c.states)
        trace = gfp_modality_trace(c, lift, alpha)
        # trace includes the start at top and the repeated fixpoint entry
        assert len(trace) - 2 <= len(c.states) + 1
        out = trace[-1]
        assert out <= alpha
        assert gfp_modality(c, lift, out) == out


def test_monotone_in_alpha():
    rng = random.Random(13)
    for _ in range(20):
        c = random_coalgebra(rng, "tree", 6, "R")
        small = random_subset(rng, c.states)
        big = small | random_subset(rng, c.states)
        for lift in ("forall", "exists"):
            assert gfp_modality(c, lift, small) <= gfp_modality(c, lift, big)


def test_temporal_doctrine_single_coalgebra():
    doc, op = temporal_doctrine([STREAM2], "stream")
    assert doctrine_violations(doc) == []
    assert interior_violations(op) == []


def test_temporal_doctrine_with_quotient_homomorphism():
    a = FCoalgebra("A", "stream", ("s0", "s1"), {"s0": "s1", "s1": "s0"})
    b = FCoalgebra("B", "stream", ("t",), {"t": "t"})
    homs = coalgebra_homomorphisms(a, b)
    assert {"s0": "t", "s1": "t"} in homs
    doc, op = temporal_doctrine([a, b], "stream")
    assert doctrine_violations(doc) == []
    assert interior_violations(op) == []


def test_temporal_doctrine_trees_both_lifts():
    t2 = FCoalgebra("S", "tree", ("u", "v"), {"u": ("v", "v"), "v": ("v",)})
    for lift in ("forall", "exists"):
        doc, op = temporal_doctrine([TREE3, t2], lift)
        assert doctrine_violations(doc) == []
        assert interior_violations(op) == []


def test_random_suite_oracle_equivalence_seeded():
    rng = random.Random(7)
    for i in range(100):
        kind = "stream" if i % 2 == 0 else "tree"
        c = random_coalgebra(rng, kind, 8, f"M{i}")
        lift = "stream" if kind == "stream" else ("forall" if i % 4 == 1 else "exists")
        for _ in range(6):
            alpha = random_subset(rng, c.states)
            assert gfp_modality(c, lift, alpha) == oracle_for(c, lift, alpha)


def test_lift_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        temporal_doctrine([STREAM2], "forall")
    for lift, c, need in (("stream", TREE3, "g_oracle needs a stream"), ("forall", STREAM2, "ag_oracle needs a tree"),
                          ("exists", STREAM2, "eg_oracle needs a tree")):
        with pytest.raises(ValueError, match=f"^{need} coalgebra$"):
            oracle_for(c, lift, frozenset())
    with pytest.raises(ValueError, match="unknown lift"):
        oracle_for(TREE3, "always", frozenset())


@pytest.mark.parametrize("alpha", [frozenset(), frozenset({"s0"}), frozenset(TREE_T.states)])
def test_unknown_lift_is_rejected_for_every_alpha(alpha):
    for run in (gfp_modality, gfp_modality_trace):
        with pytest.raises(ValueError, match="^unknown lift always$"):
            run(TREE_T, "always", alpha)
    for run in (temporal._gfp_planes, lambda c, lift: oracle_mismatches(c, [lift])):
        with pytest.raises(ValueError, match="^unknown lift always$"):
            run(TREE_T, "always")


def test_temporal_doctrine_rejects_an_unknown_lift_before_any_work():
    # no coalgebra kind goes with "always", and B, whose step is missing,
    # would fail its own check if the lift were not rejected first
    broken = FCoalgebra("B", "stream", ("x",), {})
    for group in ([STREAM_A], [broken], [TREE_T]):
        with pytest.raises(ValueError, match="^unknown lift always$"):
            temporal_doctrine(group, "always")


def _psi_table_trace(c, lift, alpha, lat):
    """The Ψ-chain the way a generic lattice engine sees it: Ψ tabulated on
    every subset (successor predicates written out here), then
    `order.gfp_trace` from the top."""
    def holds(s, beta):
        if lift == "stream":
            return c.step[s] in beta
        kids = c.step[s]
        return all(t in beta for t in kids) if lift == "forall" else any(t in beta for t in kids)

    mapping = {}
    for lbl in lat.carrier.elements:
        beta = label_subset(lbl)
        mapping[lbl] = subset_label([s for s in c.states if s in alpha and holds(s, beta)], c.states)
    f = graph_map(lat.carrier, lat.carrier, mapping)
    return [label_subset(x) for x in gfp_trace(lat, f)], label_subset(post_fixed_join(lat, f))


def _engine_cases():
    rng = random.Random(11)
    cases = [(STREAM_A, "stream"), (TREE_T, "forall"), (TREE_T, "exists"), (TREE_S, "forall"), (TREE_S, "exists")]
    for _ in range(6):
        cases.append((random_coalgebra(rng, "stream", 6, "R"), "stream"))
        t = random_coalgebra(rng, "tree", 6, "R")
        cases.append((t, "forall"))
        cases.append((t, "exists"))
    return cases


@pytest.mark.parametrize("c,lift", _engine_cases())
def test_psi_chain_equals_table_engine_and_oracles_for_every_alpha(c, lift):
    lat = powerset_lattice(c.states)
    for alpha in all_subsets(c.states):
        trace = gfp_modality_trace(c, lift, alpha)
        table_trace, post_fixed = _psi_table_trace(c, lift, alpha, lat)
        assert trace == table_trace
        assert trace[-1] == post_fixed == oracle_for(c, lift, alpha)


def test_oracle_mismatches_reports_planted_disagreement_in_sweep_order(monkeypatch):
    # an oracle that is wrong exactly on alpha = {s1}, for either lift; the
    # sweep reads its oracle for every alpha from temporal._oracle_planes,
    # lane alpha a bit mask by position in TREE_T.states (s0 -> 1, s1 -> 2,
    # s2 -> 4), so s0's plane is flipped in lane 2
    real = temporal._oracle_planes
    planted = frozenset({"s1"})

    def wrong_at_s1(c, lift):
        got = real(c, lift)
        return [got[0] ^ 1 << 2, *got[1:]]

    monkeypatch.setattr(temporal, "_oracle_planes", wrong_at_s1)
    assert oracle_mismatches(TREE_T, ["forall", "exists"]) == [("forall", planted), ("exists", planted)]


def test_oracle_mismatches_are_listed_by_size_then_positions(monkeypatch):
    # the XOR of the planes yields alpha lowest lane first; the report runs
    # {s1}, {s2}, {s0,s2}, {s0,s1,s2}, as subsets_in_order lists them, and
    # {s2} (lane 4) before {s0,s1} (lane 3)
    real = temporal._oracle_planes
    lanes = sum(1 << alpha for alpha in (7, 5, 4, 2))
    monkeypatch.setattr(temporal, "_oracle_planes", lambda c, lift: [real(c, lift)[0] ^ lanes, *real(c, lift)[1:]])
    want = [frozenset(s) for s in ({"s1"}, {"s2"}, {"s0", "s2"}, {"s0", "s1", "s2"})]
    assert oracle_mismatches(TREE_T, ["exists"]) == [("exists", a) for a in want]
    assert [a for a in subsets_in_order(TREE_T.states) if a in want] == want
    monkeypatch.setattr(temporal, "_oracle_planes", lambda c, lift: [real(c, lift)[0] ^ 0b11000, *real(c, lift)[1:]])
    assert oracle_mismatches(TREE_T, ["exists"]) == [("exists", frozenset({"s2"})), ("exists", frozenset({"s0", "s1"}))]


def _sweep_cases():
    """Seeded random streams and trees of 0 to 10 states; tree steps hold 0
    to 3 successors, so empty tuples, repeats and self-loops all occur."""
    rng = random.Random(16)
    for n in range(11):
        for k in range(3 if n < 9 else 2):
            states = tuple(f"q{i}" for i in range(n))
            yield FCoalgebra(f"S{n}_{k}", "stream", states, {s: rng.choice(states) for s in states}), ("stream",)
            step = {s: tuple(rng.choice(states) for _ in range(rng.randint(0, 3))) for s in states}
            yield FCoalgebra(f"T{n}_{k}", "tree", states, step), ("forall", "exists")


def test_sweep_cases_hold_every_step_shape():
    trees = [c for c, _ in _sweep_cases() if c.kind == "tree"]
    kids = [c.step[s] for c in trees for s in c.states]
    assert {len(c.states) for c, _ in _sweep_cases()} == set(range(11))
    assert () in kids and any(len(set(k)) < len(k) for k in kids)
    assert any(s in c.step[s] for c in trees for s in c.states)
    assert any(c.step[s] == s for c, _ in _sweep_cases() if c.kind == "stream" for s in c.states)


REFERENCES = {"stream": g_oracle_reference, "forall": ag_oracle_reference, "exists": eg_oracle_reference}


@pytest.mark.parametrize("c, lifts", list(_sweep_cases()), ids=lambda x: getattr(x, "name", ""))
def test_oracles_and_sweep_table_equal_their_references_for_every_alpha(c, lifts):
    for lift in lifts:
        planes = temporal._gfp_planes(c, lift)
        for mask, alpha in enumerate(_masked_subsets(c.states)):
            want = REFERENCES[lift](c, alpha)
            assert oracle_for(c, lift, alpha) == want
            assert _lane(planes, mask) == _mask_of(c.states, gfp_modality(c, lift, alpha))
    assert oracle_mismatches(c, lifts) == []


def _masked_subsets(states):
    """Every subset of `states`, the one at index m holding the states at the bits of m."""
    return [frozenset(s for i, s in enumerate(states) if m >> i & 1) for m in range(1 << len(states))]


def _mask_of(states, subset):
    return sum(1 << i for i, s in enumerate(states) if s in subset)


def _lane(planes, alpha):
    """Lane alpha of per-state planes: the mask of the states whose plane has bit alpha."""
    return sum(1 << x for x, p in enumerate(planes) if p >> alpha & 1)


@pytest.mark.parametrize("c, lifts", list(_sweep_cases()), ids=lambda x: getattr(x, "name", ""))
def test_every_lane_of_the_planes_is_its_one_alpha_box_and_oracle(c, lifts):
    # both plane sweeps build their lanes from the shared _member_planes, so
    # each lane is held to the one-alpha engine and oracle, which do not
    for lift in lifts:
        engine, oracle = temporal._gfp_planes(c, lift), temporal._oracle_planes(c, lift)
        assert len(engine) == len(oracle) == len(c.states)
        assert all(0 <= p < 1 << (1 << len(c.states)) for p in engine + oracle)
        for mask, alpha in enumerate(_masked_subsets(c.states)):
            assert _lane(engine, mask) == _mask_of(c.states, gfp_modality_trace(c, lift, alpha)[-1])
            assert _lane(oracle, mask) == temporal._oracle_mask(c, lift, mask)


@pytest.mark.parametrize("c", [c for c, lifts in _sweep_cases() if lifts == ("stream",)], ids=lambda c: c.name)
def test_every_lift_boxes_a_stream_as_the_stream_lift_does(c):
    # one successor per state: "all successors" and "some successor" both
    # mean "the successor", in the one-α chain and in the sweep's planes alike
    planes = {lift: temporal._gfp_planes(c, lift) for lift in ("stream", "forall", "exists")}
    for mask, alpha in enumerate(_masked_subsets(c.states)):
        want = gfp_modality(c, "stream", alpha)
        for lift in ("forall", "exists"):
            assert gfp_modality(c, lift, alpha) == want
        assert {lift: _lane(p, mask) for lift, p in planes.items()} == dict.fromkeys(planes, _mask_of(c.states, want))


def _coalgebra_groups():
    """The bundled groups, then seeded random groups of one to three
    coalgebras with at most 4 states each."""
    yield [STREAM_A, STREAM_B], "stream"
    yield [TREE_T, TREE_S], "forall"
    rng = random.Random(11)
    for _ in range(16):
        kind, lift = rng.choice([("stream", "stream"), ("tree", "forall"), ("tree", "exists")])
        yield [random_coalgebra(rng, kind, 4, name=f"C{i}") for i in range(rng.randint(1, 3))], lift


@pytest.mark.parametrize("group, lift", list(_coalgebra_groups()))
def test_temporal_doctrine_equals_reference_loops(group, lift):
    doc, _ = temporal_doctrine(group, lift)
    by_name = {c.name: c for c in group}
    sets = {c.name: c.states for c in group}
    base = function_category_reference(sets, lambda x, y: coalgebra_homomorphisms(by_name[x], by_name[y]))
    assert doc.base == base
    assert doc == inverse_image_reference(base, sets)
