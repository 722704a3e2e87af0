"""Finite-scale temporal semantics: stream and finitely-branching-tree
coalgebras, the predicate lifts driving a greatest-fixed-point box operator,
independent reachability and strongly-connected-component oracles for G, AG
and EG, and the packaging of the operator as an interior operator over a
finite category of coalgebra homomorphisms.

One engine computes every box, on bit masks: Ψ(β) = α ∩ step⁻¹(lift(β)) is
iterated down from the full state set, so no infinite unfolding is ever
materialized. `_gfp_chain` boxes one α (the suite, and through
`gfp_modality_trace` the `temporal` command and queries), one mask per step;
`_gfp_planes` boxes every α at once (the oracle sweep and
`temporal_doctrine`) on planes, ints of 2ⁿ bits whose bit α is the answer at
α, so one bitwise operation takes one step in every lane. Both read the step
from `_pred_masks`, kept on the coalgebra, whose docstring proves Ψ monotone
and the chains descending. The oracles decide the same property by
reachability or Tarjan's components for one α (`oracle_for`), and on
planes for every α by reachability or a Warshall closure of α-paths
(`_oracle_planes`, which the sweep XORs with the engine's), from their own
reading of the step.
"""

from __future__ import annotations

from .doctrine import Doctrine, inverse_image_doctrine
from .fincat import full_function_category
from .interior import InteriorOp
from .order import MonotoneMap, _require, derived, kept, value_class


STREAM, TREE = "stream", "tree"


@value_class
class FCoalgebra:
    """A finite coalgebra: one successor per state (stream) or a finite
    ordered tuple of successors (tree, possibly empty)."""

    name: str
    kind: str  # "stream" | "tree"
    states: tuple[str, ...]
    step: Mapping[str, object]  # state -> state (stream) or tuple of states (tree)

    def successors(self, s: str) -> tuple[str, ...]:
        if self.kind == STREAM:
            return (self.step[s],)
        return tuple(self.step[s])

    @derived
    def _oracle_graph(self) -> tuple[list[list[int]], list[int], list[int]]:
        """The oracles' own reading of the step, made once from `successors`:
        per state, its distinct successor positions, its successor mask, and
        its reflexive reachable mask, found by DFS."""
        index = {s: i for i, s in enumerate(self.states)}
        succ = [sorted({index[t] for t in self.successors(s)}) for s in self.states]
        reach = []
        for x in range(len(succ)):
            seen, frontier = 1 << x, [x]
            while frontier:
                for t in succ[frontier.pop()]:
                    if not seen >> t & 1:
                        seen |= 1 << t
                        frontier.append(t)
            reach.append(seen)
        return succ, [sum(1 << t for t in kids) for kids in succ], reach


def coalgebra_violations(c: FCoalgebra) -> list[str]:
    if c.kind not in (STREAM, TREE):
        return [f"unknown kind {c.kind}"]
    out = [f"step at unknown state: {s}" for s in sorted(c.step) if s not in c.states]
    for s in c.states:
        if s not in c.step:
            out.append(f"step missing at {s}")
        elif c.kind == STREAM and c.step[s] not in c.states:
            out.append(f"stream step leaves the state set at {s}")
        elif c.kind == TREE and any(t not in c.states for t in c.step[s]):
            out.append(f"tree step leaves the state set at {s}")
    return out


def gfp_modality(c: FCoalgebra, lift: str, alpha: frozenset[str]) -> frozenset[str]:
    """Greatest fixed point of Ψ(β) = α ∩ step⁻¹(lift β) on the powerset of
    the state set, reached by iterating Ψ down from the full state set."""
    return gfp_modality_trace(c, lift, alpha)[-1]


@kept
def _pred_masks(c: FCoalgebra) -> tuple[int, ...]:
    """The engine's one reading of the step, kept on the coalgebra: per
    state t, the mask of the states that have t as a successor. With pre(γ)
    the union of pred[t] over t in γ, the states whose lift holds on β are
    Φ(β) = pre(β) for the stream and exists lifts and S ∖ pre(S ∖ β) for
    forall, and Ψ_α(β) = α ∩ Φ(β).

    Ψ_α is monotone for every α and lift: pre is a union over the members
    of its argument, so β ⊆ β′ gives pre(β) ⊆ pre(β′) and
    S ∖ pre(S ∖ β) ⊆ S ∖ pre(S ∖ β′). A chain from a post-fixed point X,
    Ψ_α(X) ⊆ X, therefore descends (Ψ_α(βₖ) ⊆ βₖ gives
    Ψ_α(βₖ₊₁) ⊆ Ψ_α(βₖ) = βₖ₊₁), reaches a fixed point within |X| steps,
    and that fixed point is νΨ_α whenever νΨ_α ⊆ X (Tarski, Pacific J. Math.
    5, 1955): by induction νΨ_α = Ψ_α(νΨ_α) ⊆ Ψ_α(βₖ) = βₖ₊₁. The full set S
    is such an X for every α."""
    index = {s: i for i, s in enumerate(c.states)}
    pred = [0] * len(index)
    for i, s in enumerate(c.states):
        for t in c.successors(s):
            pred[index[t]] |= 1 << i
    return tuple(pred)


def _gfp_chain(c: FCoalgebra, lift: str, alpha: int) -> list[int]:
    """The Ψ-chain of α on masks, after rejecting an unknown lift: β₀ = S,
    βₖ₊₁ = Ψ(βₖ), ending with the repeated fixed point; each step ORs the
    `_pred_masks` of β's members (or of S ∖ β's)."""
    _known_lift(lift)
    pred = _pred_masks(c)
    full = (1 << len(pred)) - 1
    chain = [full]
    while True:
        beta = chain[-1]
        gamma = full ^ beta if lift == "forall" else beta
        pre = 0
        for t, p in enumerate(pred):
            if gamma >> t & 1:
                pre |= p
        chain.append(alpha & ~pre if lift == "forall" else alpha & pre)
        if chain[-1] == beta:
            return chain


def gfp_modality_trace(c: FCoalgebra, lift: str, alpha: frozenset[str]) -> list[frozenset[str]]:
    """The Ψ-chain β₀ = S, βₖ₊₁ = Ψ(βₖ), ending with the repeated fixed
    point, as state sets (`_gfp_chain`)."""
    if not alpha <= set(c.states):
        raise ValueError("alpha mentions unknown states")
    a = sum(1 << i for i, s in enumerate(c.states) if s in alpha)
    return [_mask_states(c, m) for m in _gfp_chain(c, lift, a)]


def _mask_states(c: FCoalgebra, mask: int) -> frozenset[str]:
    return frozenset(s for i, s in enumerate(c.states) if mask >> i & 1)


def _member_planes(n: int) -> list[int]:
    """Per state x < n, the plane V[x] of 2ⁿ lanes whose bit α is set iff
    bit x of α is: 2ˣ clear lanes, then 2ˣ set ones, doubled by shifts until
    it spans every lane. It reads no step, so the engine and the oracles
    share it."""
    planes = []
    for x in range(n):
        plane, width = ((1 << (1 << x)) - 1) << (1 << x), 2 << x
        while width < 1 << n:
            plane |= plane << width
            width <<= 1
        planes.append(plane)
    return planes


def _gfp_planes(c: FCoalgebra, lift: str) -> list[int]:
    """νΨ_α for every α ⊆ S at once, as planes: per state x, an int of 2ⁿ
    bits whose bit α says whether x ∈ νΨ_α.

    Z_x starts all ones, and each round sets every Z_x ← V[x] ∧ ⋁ Z_t
    (stream, exists) or V[x] ∧ ⋀ Z_t (forall) from the previous round's
    planes, t over x's successors as `_pred_masks` lists them, until no
    plane changes. Bitwise operations act lane by lane. So if lane α holds
    the set βₖ after round k, round k + 1 keeps x in lane α iff x ∈ α and
    some successor (stream, exists) or every successor (forall) of x is in
    βₖ: lane α holds βₖ₊₁ = α ∩ Φ(βₖ), and from β₀ = S it runs exactly
    `gfp_modality_trace`'s chain for α. A lane at its fixed point keeps it,
    so the rounds stop once the longest chain repeats, within n + 1 rounds,
    and each lane α then holds νΨ_α (`_pred_masks`)."""
    _known_lift(lift)
    pred = _pred_masks(c)
    member = _member_planes(len(pred))
    succ = [[t for t, p in enumerate(pred) if p >> x & 1] for x in range(len(pred))]
    planes = [(1 << (1 << len(pred))) - 1] * len(pred)
    while True:
        nxt = []
        for x, kids in enumerate(succ):
            if lift == "forall":
                z = member[x]
                for t in kids:
                    z &= planes[t]
            else:
                z = 0
                for t in kids:
                    z |= planes[t]
                z &= member[x]
            nxt.append(z)
        if nxt == planes:
            return planes
        planes = nxt


def _eg_mask(c: FCoalgebra, alpha: int) -> int:
    """EG as Clarke, Emerson and Sistla decide it: the states of α from which,
    inside the α-induced subgraph, a nontrivial strongly connected component
    (two or more states, or one with a self-loop) is reachable. Tarjan's
    algorithm emits components sinks first, so the backward closure is one
    test per component as it is emitted, and the pass is O(n + e)."""
    succ, masks, _ = c._oracle_graph
    order, low, stack, on, good = {}, {}, [], 0, 0
    for root in range(len(succ)):
        if root in order or not alpha >> root & 1:
            continue
        work = [(root, iter(succ[root]))]
        while work:
            v, kids = work[-1]
            if v not in order:
                order[v] = low[v] = len(order)
                stack.append(v)
                on |= 1 << v
            for w in kids:
                if alpha >> w & 1 and w not in order:
                    work.append((w, iter(succ[w])))
                    break
                if on >> w & 1 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    comp = out = 0
                    while not comp >> v & 1:
                        w = stack.pop()
                        comp |= 1 << w
                        out |= masks[w]
                    on ^= comp
                    if comp != 1 << v or masks[v] >> v & 1 or out & good:
                        good |= comp
    return good


# each lift's oracle and the coalgebra kind it reads
_ORACLES = {"stream": ("g_oracle", STREAM), "forall": ("ag_oracle", TREE), "exists": ("eg_oracle", TREE)}


def _known_lift(lift: str) -> tuple[str, str]:
    """The oracle name and coalgebra kind of `lift`; rejects an unknown lift."""
    if lift not in _ORACLES:
        raise ValueError(f"unknown lift {lift}")
    return _ORACLES[lift]


def _oracle_mask(c: FCoalgebra, lift: str, alpha: int) -> int:
    """The oracle for `lift` on α, states as bits. G and AG: the states whose
    reflexive reachable set lies in α; EG: `_eg_mask`."""
    name, kind = _known_lift(lift)
    if c.kind != kind:
        raise ValueError(f"{name} needs a {kind} coalgebra")
    if lift == "exists":
        return _eg_mask(c, alpha)
    return sum(1 << x for x, r in enumerate(c._oracle_graph[2]) if not r & ~alpha)


def oracle_for(c: FCoalgebra, lift: str, alpha: frozenset[str]) -> frozenset[str]:
    """The G, AG or EG oracle for the stream, forall or exists lift."""
    return _mask_states(c, _oracle_mask(c, lift, sum(1 << i for i, s in enumerate(c.states) if s in alpha)))


def _oracle_planes(c: FCoalgebra, lift: str) -> list[int]:
    """The oracle for `lift` on every α at once, in the planes of
    `_gfp_planes`, from `_oracle_graph` alone. G and AG: per state x, the
    AND of V[t] over x's reflexive reachable set. EG: a Warshall closure
    (JACM 9(1), 1962) of R[x][y], the lanes with an α-path x → y of length
    ≥ 1, from the edges x → y in lanes V[x] ∧ V[y]; x has an infinite
    α-path iff it lies on an α-cycle or reaches a state that does, so EG
    at x is V[x] ∧ (R[x][x] ∨ ⋁_y R[x][y] ∧ R[y][y]). Every lane of R[x][y]
    has x ∈ α, and the y = x term is R[x][x], so that is ⋁_y R[x][y] ∧
    R[y][y]."""
    name, kind = _known_lift(lift)
    if c.kind != kind:
        raise ValueError(f"{name} needs a {kind} coalgebra")
    succ, _, reach = c._oracle_graph
    member = _member_planes(len(succ))
    if lift != "exists":
        planes = []
        for r in reach:
            z = (1 << (1 << len(succ))) - 1
            for t, v in enumerate(member):
                if r >> t & 1:
                    z &= v
            planes.append(z)
        return planes
    paths = [[0] * len(succ) for _ in succ]
    for x, kids in enumerate(succ):
        for t in kids:
            paths[x][t] = member[x] & member[t]
    for k, via in enumerate(paths):
        for row in paths:
            head = row[k]
            if head:
                for y, tail in enumerate(via):
                    if tail:
                        row[y] |= head & tail
    cycles = [row[y] for y, row in enumerate(paths)]
    planes = []
    for row in paths:
        z = 0
        for head, cycle in zip(row, cycles):
            z |= head & cycle
        planes.append(z)
    return planes


def oracle_mismatches(c: FCoalgebra, lifts: Sequence[str]) -> list[tuple[str, frozenset[str]]]:
    """Every (lift, α) on which the box of `_gfp_planes` disagrees with
    `_oracle_planes`: the set bits of their XOR, α running over all subsets
    of the states by size, then by positions of members."""
    out = []
    for lift in lifts:
        diff = 0
        for got, want in zip(_gfp_planes(c, lift), _oracle_planes(c, lift)):
            diff |= got ^ want
        bad = []
        while diff:
            bad.append((diff & -diff).bit_length() - 1)
            diff &= diff - 1
        bad.sort(key=lambda m: (m.bit_count(), [i for i in range(len(c.states)) if m >> i & 1]))
        out.extend((lift, _mask_states(c, alpha)) for alpha in bad)
    return out


def _homomorphisms(c1: FCoalgebra, c2: FCoalgebra) -> list[tuple[int, ...]]:
    """Every homomorphism h: c₁ → c₂ of two coalgebras of one kind, that is
    every function with h∘step₁ = step₂∘h, successors in order, as the
    position in c₂ of the image of each state of c₁, in `itertools.product`
    order. The identities are homomorphisms, and so is k∘h when h: c₁ → c₂
    and k: c₂ → c₃ are, since (k∘h)∘step₁ = k∘step₂∘h = step₃∘(k∘h)
    successor by successor, so they form a category.

    Found by search, not by testing all |c₂|^|c₁| functions: the first
    unassigned state s takes each state v of c₂ in turn, and h(s) = v forces
    h(t_i) = u_i for the i-th successors t_i of s and u_i of v, and so on
    along the successors; a clash, or successor tuples of unequal length,
    ends the branch. A state is assigned only with its successors' images
    forced, so a total assignment that never clashed satisfies the equation
    at every state, and every homomorphism is reached, since from its own
    choices at the free states it forces its own values. A forced state
    depends on the earlier choices alone, so two results first differ at a
    free state, where the smaller image was tried first: product order."""
    at1 = {s: i for i, s in enumerate(c1.states)}
    at2 = {s: i for i, s in enumerate(c2.states)}
    succ1 = [tuple(map(at1.__getitem__, c1.successors(s))) for s in c1.states]
    succ2 = [tuple(map(at2.__getitem__, c2.successors(s))) for s in c2.states]
    n, m = len(succ1), len(succ2)
    h, out = [None] * n, []

    def assign(s: int, v: int, trail: list[int]) -> bool:
        todo = [(s, v)]
        while todo:
            s, v = todo.pop()
            if h[s] is not None:
                if h[s] != v:
                    return False
            elif len(succ1[s]) != len(succ2[v]):
                return False
            else:
                h[s] = v
                trail.append(s)
                todo.extend(zip(succ1[s], succ2[v]))
        return True

    # per free state on the search path: [the state, its next image to try,
    # the states its current image assigned]; a loop, not a recursion, so the
    # search leaves no reference cycle behind
    branches, s = [], 0
    while True:
        while s < n and h[s] is not None:
            s += 1
        if s == n:
            out.append(tuple(h))
        else:
            branches.append([s, 0, []])
        while branches:
            branch = branches[-1]
            for t in branch[2]:
                h[t] = None
            branch[2] = []
            if branch[1] == m:
                branches.pop()
            else:
                branch[1] += 1
                if assign(branch[0], branch[1] - 1, branch[2]):
                    s = branch[0] + 1
                    break
        else:
            return out


def temporal_doctrine(coalgebras: Sequence[FCoalgebra], lift: str) -> tuple[Doctrine, InteriorOp]:
    """Powerset fibers over the category of coalgebra homomorphisms, with the
    greatest-fixed-point box as operator; naturality across homomorphisms is
    part of the interior-law check. Each box is read off the lanes of one
    `_gfp_planes`, since a powerset fiber codes a subset by its bitmask of
    state positions."""
    kind = _known_lift(lift)[1]
    for c in coalgebras:
        _require(coalgebra_violations(c), f"invalid coalgebra {c.name}")
        if c.kind != kind:
            raise ValueError(f"{kind} lift over a non-{kind} coalgebra")
    by_name = {c.name: c for c in coalgebras}
    if len(by_name) != len(coalgebras):
        raise ValueError("duplicate coalgebra names")
    states = {c.name: c.states for c in coalgebras}
    base = full_function_category(states, {(a.name, b.name): _homomorphisms(a, b) for a in coalgebras for b in coalgebras})
    doc = inverse_image_doctrine(base, states)
    parts = {}
    for c in coalgebras:
        fib, planes = doc.fibers[c.name], _gfp_planes(c, lift)
        position = fib._by_code
        parts[c.name] = MonotoneMap(fib, fib, tuple(
            position[sum(1 << x for x, p in enumerate(planes) if p >> code & 1)] for code in fib.codes
        ))
    return doc, InteriorOp(doc, parts)
