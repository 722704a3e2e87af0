"""Finite-scale temporal semantics: stream and finitely-branching-tree
coalgebras, the predicate lifts driving a greatest-fixed-point box operator,
independent path/orbit/SCC oracles for G, AG and EG, and the packaging of the
operator as an interior operator over a finite category of coalgebra
homomorphisms.

The operator iterates Ψ(β) = α ∩ step⁻¹(lift(β)) from the full state set, one
subset per step, so it never materializes any infinite unfolding; the oracles
decide the same property by explicit orbit, reachability, or cycle arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from .doctrine import Doctrine, inverse_image_doctrine
from .fincat import full_function_category
from .interior import InteriorOp
from .order import subset_label, subsets_in_order, value_map


STREAM, TREE = "stream", "tree"


@dataclass(frozen=True)
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


def g_oracle(c: FCoalgebra, alpha: frozenset[str]) -> frozenset[str]:
    """Orbit oracle for streams: x qualifies iff every iterate stays in alpha."""
    if c.kind != STREAM:
        raise ValueError("g_oracle needs a stream coalgebra")
    out = set()
    for x in c.states:
        seen = []
        cur = x
        ok = True
        while cur not in seen:
            if cur not in alpha:
                ok = False
                break
            seen.append(cur)
            cur = c.step[cur]
        if ok:
            out.add(x)
    return frozenset(out)


def _reachable(c: FCoalgebra, x: str) -> frozenset[str]:
    seen = {x}
    frontier = [x]
    while frontier:
        s = frontier.pop()
        for t in c.successors(s):
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return frozenset(seen)


def ag_oracle(c: FCoalgebra, alpha: frozenset[str]) -> frozenset[str]:
    """Reachability oracle for trees: x qualifies iff everything reachable
    from x (including x) lies in alpha."""
    if c.kind != TREE:
        raise ValueError("ag_oracle needs a tree coalgebra")
    return frozenset(x for x in c.states if _reachable(c, x) <= alpha)


def eg_oracle(c: FCoalgebra, alpha: frozenset[str]) -> frozenset[str]:
    """Cycle oracle for trees: x qualifies iff inside the alpha-induced
    subgraph some cycle is reachable from x; decided by transitive closure,
    independently of the fixed-point iteration."""
    if c.kind != TREE:
        raise ValueError("eg_oracle needs a tree coalgebra")
    nodes = [s for s in c.states if s in alpha]
    reach = {(a, b): False for a in nodes for b in nodes}
    for a in nodes:
        for b in c.successors(a):
            if b in alpha:
                reach[(a, b)] = True
    for k in nodes:
        for a in nodes:
            for b in nodes:
                if reach[(a, k)] and reach[(k, b)]:
                    reach[(a, b)] = True
    cyclic = [s for s in nodes if reach[(s, s)]]
    return frozenset(
        x for x in nodes if any(x == s or reach[(x, s)] for s in cyclic)
    )


def oracle_for(c: FCoalgebra, lift: str, alpha: frozenset[str]) -> frozenset[str]:
    if lift == "stream":
        return g_oracle(c, alpha)
    if lift == "forall":
        return ag_oracle(c, alpha)
    if lift == "exists":
        return eg_oracle(c, alpha)
    raise ValueError(f"unknown lift {lift}")


def oracle_mismatches(c: FCoalgebra, lifts: Sequence[str]) -> list[tuple[str, frozenset[str]]]:
    """Every (lift, α) on which the box disagrees with its oracle, α running
    over all subsets of the states by size, then by positions of members.

    Ψ's monotonicity is checked once per lift, over all states: Ψ_α is
    monotone iff the lift is monotone at every state of α, so a failure is
    first met at the singleton of the first failing state, with the same
    message a per-α check would raise there."""
    out = []
    for lift in lifts:
        _require_psi_monotone(c, lift, frozenset(c.states))
        for alpha in subsets_in_order(c.states):
            if _psi_chain(c, lift, alpha)[-1] != oracle_for(c, lift, alpha):
                out.append((lift, alpha))
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


def random_coalgebra(rng: random.Random, kind: str, max_states: int, name: str = "M") -> FCoalgebra:
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    if kind == STREAM:
        step = {s: states[rng.randrange(n)] for s in states}
    else:
        step = {
            s: tuple(states[rng.randrange(n)] for _ in range(rng.randint(0, 3)))
            for s in states
        }
    return FCoalgebra(name, kind, states, step)


def random_subset(rng: random.Random, states: Sequence[str]) -> frozenset[str]:
    return frozenset(s for s in states if rng.random() < 0.5)
