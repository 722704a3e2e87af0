"""Finite-scale temporal semantics: stream and finitely-branching-tree
coalgebras, the predicate lifts driving a greatest-fixed-point box operator,
independent reachability and strongly-connected-component oracles for G, AG
and EG, and the packaging of the operator as an interior operator over a
finite category of coalgebra homomorphisms.

A box iterates Ψ(β) = α ∩ step⁻¹(lift(β)) from the full state set, one subset
per step, so it never materializes any infinite unfolding; the oracle sweep
boxes every α at once on bit masks. The oracles decide the same property by
reachability or Tarjan's components, from their own reading of the step.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import combinations

from .doctrine import Doctrine, inverse_image_doctrine
from .fincat import full_function_category
from .interior import InteriorOp
from .order import subset_label, value_class, value_map


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

    @cached_property
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
    out = []
    if c.kind not in (STREAM, TREE):
        return [f"unknown kind {c.kind}"]
    for s in c.states:
        if s not in c.step:
            out.append(f"step missing at {s}")
        elif c.kind == STREAM and c.step[s] not in c.states:
            out.append(f"stream step leaves the state set at {s}")
        elif c.kind == TREE and any(t not in c.states for t in c.step[s]):
            out.append(f"tree step leaves the state set at {s}")
    return out


def step_satisfies_lift(c: FCoalgebra, lift: str, s: str, beta: frozenset[str]) -> bool:
    """Whether the step at s lands in the lifted predicate."""
    if lift == "stream":
        return c.step[s] in beta
    kids = c.step[s]
    if lift == "forall":
        return all(t in beta for t in kids)
    if lift == "exists":
        return any(t in beta for t in kids)
    raise ValueError(f"unknown lift {lift}")


def gfp_modality(c: FCoalgebra, lift: str, alpha: frozenset[str]) -> frozenset[str]:
    """Greatest fixed point of Ψ(β) = α ∩ step⁻¹(lift β) on the powerset of
    the state set, reached by iterating Ψ down from the full state set."""
    return gfp_modality_trace(c, lift, alpha)[-1]


def _psi_monotone_violation(c: FCoalgebra, lift: str, alpha: frozenset[str]) -> str | None:
    """The first cover pair on which Ψ fails to be monotone, or None.

    A state s enters Ψ(β) iff s is in α and its lift predicate holds of β,
    and the predicate reads β only through β ∩ succ(s). So Ψ is monotone
    exactly when, for every s in α, the predicate is monotone on the subsets
    of the distinct successors of s; covers suffice, k·2^(k-1) pairs for k
    successors."""
    for s in c.states:
        if s not in alpha:
            continue
        kids = tuple(dict.fromkeys(c.successors(s)))
        for r in range(len(kids) + 1):
            for lower in combinations(kids, r):
                low = frozenset(lower)
                if not step_satisfies_lift(c, lift, s, low):
                    continue
                for t in kids:
                    if t not in low and not step_satisfies_lift(c, lift, s, low | {t}):
                        return (
                            f"at state {s}: lift {lift} holds on {subset_label(low, kids)}"
                            f" but not on {subset_label(low | {t}, kids)}"
                        )
    return None


def gfp_modality_trace(c: FCoalgebra, lift: str, alpha: frozenset[str]) -> list[frozenset[str]]:
    """The Ψ-chain β₀ = S, βₖ₊₁ = Ψ(βₖ), ending with the repeated fixed point.
    Rejects a non-monotone Ψ and a chain that fails to descend."""
    if not alpha <= set(c.states):
        raise ValueError("alpha mentions unknown states")
    _require_psi_monotone(c, lift, alpha)
    return _psi_chain(c, lift, alpha)


def _require_psi_monotone(c: FCoalgebra, lift: str, alpha: frozenset[str]) -> None:
    bad = _psi_monotone_violation(c, lift, alpha)
    if bad is not None:
        raise ValueError("gfp: Ψ is not monotone " + bad)


def _psi_chain(c: FCoalgebra, lift: str, alpha: frozenset[str]) -> list[frozenset[str]]:
    """The Ψ-chain itself, for a Ψ already known to be monotone; rejects a
    chain that fails to descend."""
    beta = frozenset(c.states)
    trace = [beta]
    while True:
        nxt = frozenset(
            s for s in c.states if s in alpha and step_satisfies_lift(c, lift, s, beta)
        )
        if not nxt <= beta:
            raise ValueError(
                f"gfp: Ψ-chain does not descend at step {len(trace)}:"
                f" it adds {subset_label(nxt - beta, c.states)}"
            )
        trace.append(nxt)
        if nxt == beta:
            return trace
        beta = nxt


def _mask_states(c: FCoalgebra, mask: int) -> frozenset[str]:
    return frozenset(s for i, s in enumerate(c.states) if mask >> i & 1)


def _gfp_table(c: FCoalgebra, lift: str) -> list[int]:
    """νΨ_α for every α ⊆ S, states as bits. pre[γ] holds the states with a
    successor in γ (one OR per entry), so Ψ_α(β) = α ∩ Φ(β) with Φ(β) = pre[β]
    for the stream and exists lifts and S ∖ pre[S ∖ β] for forall: one read.

    α runs down from S, and below S its chain starts at the fixed point X of
    α″ = α plus its lowest missing state. That is sound: Ψ_α(X) = α ∩ Φ(X) ⊆
    α″ ∩ Φ(X) = X, so νΨ_α ⊆ X and the monotone Ψ_α descends from X to νΨ_α."""
    pred = [sum(1 << i for i, s in enumerate(c.states) if t in c.successors(s)) for t in c.states]
    pre = [0] * (1 << len(pred))
    for gamma in range(1, len(pre)):
        pre[gamma] = pre[gamma & (gamma - 1)] | pred[(gamma & -gamma).bit_length() - 1]
    full = len(pre) - 1
    gfp = [0] * len(pre)
    for alpha in range(full, -1, -1):
        beta = full if alpha == full else gfp[alpha | (alpha + 1) & ~alpha]
        while True:
            nxt = alpha & ~pre[full ^ beta] if lift == "forall" else alpha & pre[beta]
            if nxt & ~beta:
                raise ValueError(f"gfp: Ψ-chain of {sorted(_mask_states(c, alpha))} does not descend")
            if nxt == beta:
                break
            beta = nxt
        gfp[alpha] = beta
    return gfp


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


_ORACLES = {"stream": ("g_oracle", STREAM), "forall": ("ag_oracle", TREE), "exists": ("eg_oracle", TREE)}


def _oracle_mask(c: FCoalgebra, lift: str, alpha: int) -> int:
    """The oracle for `lift` on α, states as bits. G and AG: the states whose
    reflexive reachable set lies in α; EG: `_eg_mask`."""
    if lift not in _ORACLES:
        raise ValueError(f"unknown lift {lift}")
    name, kind = _ORACLES[lift]
    if c.kind != kind:
        raise ValueError(f"{name} needs a {kind} coalgebra")
    if lift == "exists":
        return _eg_mask(c, alpha)
    return sum(1 << x for x, r in enumerate(c._oracle_graph[2]) if not r & ~alpha)


def oracle_for(c: FCoalgebra, lift: str, alpha: frozenset[str]) -> frozenset[str]:
    return _mask_states(c, _oracle_mask(c, lift, sum(1 << i for i, s in enumerate(c.states) if s in alpha)))


def g_oracle(c: FCoalgebra, alpha: frozenset[str]) -> frozenset[str]:
    """Orbit oracle for streams: x qualifies iff its orbit lies in alpha."""
    return oracle_for(c, "stream", alpha)


def ag_oracle(c: FCoalgebra, alpha: frozenset[str]) -> frozenset[str]:
    """Reachability oracle for trees: x qualifies iff all it reaches lies in alpha."""
    return oracle_for(c, "forall", alpha)


def eg_oracle(c: FCoalgebra, alpha: frozenset[str]) -> frozenset[str]:
    """Cycle oracle for trees: x qualifies iff inside alpha it reaches a nontrivial strongly connected component."""
    return oracle_for(c, "exists", alpha)


def oracle_mismatches(c: FCoalgebra, lifts: Sequence[str]) -> list[tuple[str, frozenset[str]]]:
    """Every (lift, α) on which the box of `_gfp_table` disagrees with its
    oracle, α running over all subsets of the states by size, then by
    positions of members. Ψ's monotonicity is checked once per lift, over all
    states: Ψ_α is monotone iff the lift is monotone at every state of α, so a
    failure is first met at the singleton of the first failing state, with
    the same message a per-α check would raise there."""
    out = []
    for lift in lifts:
        _require_psi_monotone(c, lift, frozenset(c.states))
        bad = [alpha for alpha, got in enumerate(_gfp_table(c, lift)) if got != _oracle_mask(c, lift, alpha)]
        bad.sort(key=lambda m: (m.bit_count(), [i for i in range(len(c.states)) if m >> i & 1]))
        out.extend((lift, _mask_states(c, alpha)) for alpha in bad)
    return out


def _is_homomorphism(c1: FCoalgebra, c2: FCoalgebra, h: Mapping[str, str]) -> bool:
    """Whether h commutes with the steps of two coalgebras of one kind:
    h∘step₁ = step₂∘h, successors in order."""
    if c1.kind == STREAM:
        return all(h[c1.step[s]] == c2.step[h[s]] for s in c1.states)
    return all(tuple(h[t] for t in c1.step[s]) == tuple(c2.step[h[s]]) for s in c1.states)


def temporal_doctrine(coalgebras: Sequence[FCoalgebra], lift: str) -> tuple[Doctrine, InteriorOp]:
    """Powerset fibers over the category of coalgebra homomorphisms, with the
    greatest-fixed-point box as operator; naturality across homomorphisms is
    part of the interior-law check."""
    for c in coalgebras:
        bad = coalgebra_violations(c)
        if bad:
            raise ValueError(f"invalid coalgebra {c.name}: " + "; ".join(bad[:3]))
        if lift == "stream" and c.kind != STREAM:
            raise ValueError("stream lift over a non-stream coalgebra")
        if lift in ("forall", "exists") and c.kind != TREE:
            raise ValueError("tree lift over a non-tree coalgebra")
    by_name = {c.name: c for c in coalgebras}
    if len(by_name) != len(coalgebras):
        raise ValueError("duplicate coalgebra names")
    fc = full_function_category(
        {c.name: c.states for c in coalgebras}, lambda a, b, h: _is_homomorphism(by_name[a], by_name[b], h)
    )
    doc = inverse_image_doctrine(fc)
    parts = {
        c.name: value_map(doc.fibers[c.name], doc.fibers[c.name], lambda alpha: gfp_modality(c, lift, alpha))
        for c in coalgebras
    }
    return doc, InteriorOp(doc, parts)

