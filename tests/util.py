"""Shared builders and reference oracles for tests. The references are
deliberately independent of the doctrines.instances constructors (only
`valid_quantale` is borrowed, to validate a quantale) so those can be
cross-checked against these. The constructions at the end, which the
library does not use, build on them."""

import argparse
from functools import reduce
from itertools import combinations, product
from typing import Mapping, Sequence

from doctrines.doctrine import Doctrine, OneArrow, TwoArrow, compose_one_arrows, identity_parts
from doctrines.comonad import cmd_arrow, cmd_of_adjunction, em_doctrine
from doctrines.fincat import (
    FinCategory,
    Functor,
    NatTransformation,
    all_functions,
    check_category,
    coalgebra_category,
    coalgebra_object_name,
    compose_functors,
    full_function_category,
    function_arrow_name,
    identity_functor,
    identity_nat,
    poset_category,
)
from doctrines.instances import (
    FinPresheaf,
    FiniteTopSpace,
    IndexedFamily,
    FiniteQuantale,
    KripkeFrame,
    fam_doctrine,
    family_element_label,
    kripke_doctrine,
    powerset_doctrine,
    presheaf_nat_transformations,
    topological_doctrine,
    valid_quantale,
)
from doctrines.interior import InteriorOp, identity_interior
from doctrines.order import (
    FinLattice,
    FinPoset,
    MonotoneMap,
    chain_poset,
    fin_poset,
    graph_map,
    label_subset,
    lattice_from_poset,
    poset_from_pairs,
    powerset_poset,
    subset_label,
)


def powerset_doctrine_over(sets):
    """Powerset doctrine over the full function category on `sets`,
    with inverse-image reindexing."""
    return inverse_image_reference(full_function_category(sets), sets)


def inverse_image_reference(base, sets):
    """Powerset fibers over the function category `base` on `sets`, reindexed
    by inverse image along the graph each arrow's name spells."""
    fibers = {x: powerset_poset(sets[x]) for x in base.objects}
    reindex = {}
    for a in base.arrow_names():
        src_obj, dst_obj = base.src(a), base.dst(a)
        g = function_graph(a)
        graph = {}
        for lbl in fibers[dst_obj].elements:
            target = label_subset(lbl)
            preimage = [e for e in sets[src_obj] if g[e] in target]
            graph[lbl] = subset_label(preimage, sets[src_obj])
        reindex[a] = graph_map(fibers[dst_obj], fibers[src_obj], graph)
    return Doctrine(base, fibers, reindex)


def composition_table(C) -> dict:
    """g∘f for every composable pair (g, f) of C, asked of `C.comp`: the
    full table, which a category no longer stores."""
    return {(g, f): C.comp(g, f) for (g, gs, _) in C.arrows for f in C.into[gs]}


def fin_category(objects, arrows, identities, composition) -> FinCategory:
    """The category of the given tables after the full law scan of
    `check_category`, raising on a failing law."""
    got = check_category(objects, arrows, identities, composition)
    if isinstance(got, list):
        raise ValueError("not a category: " + "; ".join(got[:5]))
    return got


def function_category_reference(sets, homs):
    """The category on the carriers `sets` whose arrows x → y are the graphs
    `homs(x, y)` lists, by the arrow, identity and composition loops that the
    Kripke-family, topological and temporal instances each wrote out."""
    arrows, graphs = [], {}
    for x in sets:
        for y in sets:
            for g in homs(x, y):
                n = function_arrow_name(x, y, g, sets[x])
                arrows.append((n, x, y))
                graphs[n] = g
    identities = {x: function_arrow_name(x, x, {e: e for e in sets[x]}, sets[x]) for x in sets}
    composition = {}
    for (gn, gs, gd) in arrows:
        for (fn, fs, fd) in arrows:
            if fd == gs:
                comp = {e: graphs[gn][graphs[fn][e]] for e in sets[fs]}
                composition[(gn, fn)] = function_arrow_name(fs, gd, comp, sets[fs])
    return fin_category(list(sets), arrows, identities, composition)


def is_homomorphism(c1, c2, h: Mapping[str, str]) -> bool:
    """The brute-force filter `temporal_doctrine` once ran on every function:
    whether h commutes with the steps of two coalgebras of one kind,
    h∘step₁ = step₂∘h, successors in order."""
    if c1.kind == "stream":
        return all(h[c1.step[s]] == c2.step[h[s]] for s in c1.states)
    return all(tuple(h[t] for t in c1.step[s]) == tuple(c2.step[h[s]]) for s in c1.states)


def open_and_continuous(s: FiniteTopSpace, t: FiniteTopSpace, g: Mapping[str, str]) -> bool:
    """The brute-force filter `topological_doctrine` once ran on every
    function: whether g: s → t is continuous (each open of t has an open
    preimage) and open (each open of s has an open image)."""
    continuous = all(frozenset(p for p in s.points if g[p] in u) in s.opens for u in t.opens)
    return continuous and all(frozenset(g[p] for p in u) in t.opens for u in s.opens)


def open_continuous_maps(s: FiniteTopSpace, t: FiniteTopSpace) -> list[dict]:
    """All functions that are both continuous and open, by brute force."""
    return [g for g in all_functions(s.points, t.points) if open_and_continuous(s, t, g)]


def keeps_parts(s: IndexedFamily, d: IndexedFamily, worlds, g: Mapping[str, str]) -> bool:
    """The brute-force filter `fam_doctrine` once ran on every function:
    whether g sends each member of the part of s at every world into the
    part of d at that world."""
    return all(g[e] in d.parts[w] for w in worlds for e in s.parts[w])


def random_function_category(rng):
    """The category of finite sets generated by a few random functions
    between one to three carriers of one to three points, closed under
    composition by brute force."""
    sets = {x: [f"{x.lower()}{i}" for i in range(rng.randint(1, 3))] for x in "XYZ"[: rng.randint(1, 3)]}
    reached = {(x, x, tuple(sets[x])) for x in sets}
    for _ in range(rng.randint(0, 4)):
        x, y = rng.choice(list(sets)), rng.choice(list(sets))
        reached.add((x, y, tuple(rng.choice(sets[y]) for _ in sets[x])))
    changed = True
    while changed:
        changed = False
        for (x, y, f) in list(reached):
            for (y2, z, g) in list(reached):
                if y2 == y:
                    gf = (x, z, tuple(g[sets[y].index(e)] for e in f))
                    if gf not in reached:
                        reached.add(gf)
                        changed = True

    def homs(x, y):
        return [dict(zip(sets[x], f)) for (a, b, f) in sorted(reached) if (a, b) == (x, y)]

    return function_category_reference(sets, homs), sets


def payload_search_reference(C) -> FinCategory:
    """C from its full table, each composite g∘f found by a search over the
    arrows src(f) → dst(g) for the payload compose(payload g, payload f),
    with no index and nothing kept, and the laws proved by the full scan:
    the reference for `FinCategory.comp` on any category."""
    composition = {}
    for (g, gs, gd) in C.arrows:
        for (f, fs, fd) in C.arrows:
            if fd == gs:
                p = C.compose(C.payload[g], C.payload[f])
                composition[(g, f)] = next(n for (n, s, d) in C.arrows if (s, d) == (fs, gd) and C.payload[n] == p)
    return fin_category(C.objects, C.arrows, C.identities, composition)


def presheaf_base_reference(group):
    """The category of the presheaves `group`, each composite found by a
    search over the arrows and the laws proved by the full scan."""
    by_name = {d.name: d for d in group}
    arrows, comps = [], {}
    for d in group:
        for e in group:
            for phi in presheaf_nat_transformations(d, e):
                n = f"{d.name}=>{e.name}#" + ",".join(
                    f"{w}:" + "".join(f"{x}>{phi[w][x]};" for x in d.at[w]) for w in d.base.objects
                )
                arrows.append((n, d.name, e.name))
                comps[n] = phi
    identities = {}
    for d in group:
        ident = {w: {x: x for x in d.at[w]} for w in d.base.objects}
        identities[d.name] = next(n for (n, s, t) in arrows if s == d.name and t == d.name and comps[n] == ident)
    composition = {}
    for (gn, gs, gd) in arrows:
        for (fn, fs, fd) in arrows:
            if fd == gs:
                phi = {
                    w: {x: comps[gn][w][comps[fn][w][x]] for x in by_name[fs].at[w]}
                    for w in by_name[fs].base.objects
                }
                composition[(gn, fn)] = next(n for (n, s, t) in arrows if s == fs and t == gd and comps[n] == phi)
    return fin_category([d.name for d in group], arrows, identities, composition)


def random_chain_presheaves(rng):
    """Two or three presheaves on a chain of one to three worlds, each with
    random maps along the covers, composed along the longer arrows."""
    worlds = [f"w{i}" for i in range(rng.randint(1, 3))]
    base = poset_category(chain_poset(worlds))
    group = []
    for k in range(rng.randint(2, 3)):
        at = {w: tuple(f"x{i}" for i in range(rng.randint(1, 2))) for w in worlds}
        step = [{x: rng.choice(at[v]) for x in at[w]} for w, v in zip(worlds, worlds[1:])]
        act = {}
        for i, w in enumerate(worlds):
            along = {x: x for x in at[w]}
            for j in range(i, len(worlds)):
                act[f"{w}<={worlds[j]}"] = along
                if j + 1 < len(worlds):
                    along = {x: step[j][y] for x, y in along.items()}
        group.append(FinPresheaf(f"D{k}", base, at, act))
    return group


def subpresheaf_union_reference(d, parts):
    """The union of every subfamily of the family `parts` (its parts in world
    order) that is closed under the action along every arrow: 2^m candidates
    for a family of m elements, 3^n over all the families of a presheaf of n
    elements. The reference for `instances.subpresheaf_gfp`."""
    at = {w: i for i, w in enumerate(d.base.objects)}
    acc = [frozenset()] * len(parts)
    for cand in product(*([frozenset(c) for r in range(len(p) + 1) for c in combinations(p, r)] for p in parts)):
        if all(d.act[f][x] in cand[at[v]] for (f, w, v) in d.base.arrows for x in cand[at[w]]):
            acc = list(map(frozenset.union, acc, cand))
    return tuple(acc)


def category_violations_reference(objects, arrows, identities, composition):
    """Every category law by the literal scan, associativity on every
    composable triple: the reference for `fincat.category_violations`."""
    out = []
    names = [n for (n, _, _) in arrows]
    if len(set(names)) != len(names):
        out.append("duplicate arrow names")
    if len(set(objects)) != len(objects):
        out.append("duplicate object names")
    by_name = {n: (s, d) for (n, s, d) in arrows}
    for (n, s, d) in arrows:
        if s not in objects or d not in objects:
            out.append(f"arrow {n} has dangling src/dst")
    for x in objects:
        i = identities.get(x)
        if i is None or i not in by_name:
            out.append(f"missing identity for {x}")
        elif by_name[i] != (x, x):
            out.append(f"identity of {x} is not an endo-arrow")
    if out:
        return out
    for (gn, gs, gd) in arrows:
        for (fn, fs, fd) in arrows:
            if fd == gs:
                c = composition.get((gn, fn))
                if c is None:
                    out.append(f"composition undefined for ({gn},{fn})")
                elif c not in by_name or by_name[c] != (fs, gd):
                    out.append(f"composite ({gn},{fn}) has wrong boundary")
    if out:
        return out
    for (fn, fs, fd) in arrows:
        if composition[(fn, identities[fs])] != fn:
            out.append(f"right identity law fails at {fn}")
        if composition[(identities[fd], fn)] != fn:
            out.append(f"left identity law fails at {fn}")
    for (hn, hs, hd) in arrows:
        for (gn, gs, gd) in arrows:
            if hd != gs:
                continue
            for (fn, fs, fd) in arrows:
                if gd != fs:
                    continue
                if composition[(fn, composition[(gn, hn)])] != composition[(composition[(fn, gn)], hn)]:
                    out.append(f"associativity fails on ({fn},{gn},{hn})")
    return out


def functor_violations_reference(F):
    """Every functor law by the literal scan, composition on every composable
    pair, read off the raw tables: the reference for `fincat.functor_violations`."""
    out = []
    C, D = F.src, F.dst
    c_ends = {n: (s, d) for (n, s, d) in C.arrows}
    d_ends = {n: (s, d) for (n, s, d) in D.arrows}
    for x in C.objects:
        if x not in F.obj_map:
            out.append(f"unmapped object {x}")
        elif F.obj_map[x] not in D.objects:
            out.append(f"object image outside target: {x}")
    for (a, _, _) in C.arrows:
        if a not in F.arr_map:
            out.append(f"unmapped arrow {a}")
        elif F.arr_map[a] not in d_ends:
            out.append(f"arrow image outside target: {a}")
    if out:
        return out
    for (a, s, d) in C.arrows:
        if d_ends[F.arr_map[a]] != (F.obj_map[s], F.obj_map[d]):
            out.append(f"boundary not preserved at {a}")
    if out:
        return out
    for x in C.objects:
        if F.arr_map[C.identities[x]] != D.identities[F.obj_map[x]]:
            out.append(f"identity not preserved at {x}")
    c_table, d_table = composition_table(C), composition_table(D)
    for (g, gs, _) in C.arrows:
        for (f, _, fd) in C.arrows:
            if fd == gs:
                if F.arr_map[c_table[(g, f)]] != d_table[(F.arr_map[g], F.arr_map[f])]:
                    out.append(f"composition not preserved on ({g},{f})")
    return out


def graph_of(m: MonotoneMap) -> dict[str, str]:
    """The graph of `m`, label to label."""
    return {a: m.dst.elements[i] for a, i in zip(m.src.elements, m.images)}


def monotone_violations_reference(m):
    """Every monotonicity failure of `m` by the literal scan of every related
    pair of its source, on its graph: the reference for
    `order.monotone_violations`."""
    graph = graph_of(m)
    return sorted(
        f"order not preserved on ({a},{b})" for (a, b) in m.src.relation if (graph[a], graph[b]) not in m.dst.relation
    )


def doctrine_violations_reference(d):
    """Every doctrine law by the literal scan, contravariance on every
    composable pair, with maps compared by their graphs: the reference for
    `doctrine.doctrine_violations`."""
    out = []
    B = d.base
    ends = {n: (s, t) for (n, s, t) in B.arrows}
    for x in B.objects:
        if x not in d.fibers:
            out.append(f"missing fiber at {x}")
    for (a, _, _) in B.arrows:
        if a not in d.reindex:
            out.append(f"missing reindexing along {a}")
    if out:
        return out
    for (a, s, t) in B.arrows:
        m = d.reindex[a]
        if m.src != d.fibers[t] or m.dst != d.fibers[s]:
            out.append(f"reindexing along {a} has wrong boundary")
            continue
        out.extend(f"reindexing along {a}: {v}" for v in monotone_violations_reference(m))
    if out:
        return out
    for x in B.objects:
        m = graph_of(d.reindex[B.identities[x]])
        if any(m[e] != e for e in d.fibers[x].elements):
            out.append(f"reindex(id_{x}) is not the identity")
    table = composition_table(B)
    for (g, gs, _) in B.arrows:
        for (f, _, fd) in B.arrows:
            if fd == gs:
                lhs, pf, pg = (graph_of(d.reindex[n]) for n in (table[(g, f)], f, g))
                if any(lhs[e] != pf[pg[e]] for e in lhs):
                    out.append(f"contravariance fails on ({g},{f})")
    return out


def compose_reference(g, f):
    """g∘f as a map built by its own loop, refusing with the error of
    `order.compose_maps` when f does not land in the source of g."""
    if (f.dst.elements, f.dst.relation) != (g.src.elements, g.src.relation):
        raise ValueError("compose_maps: boundary mismatch")
    gg, fg = graph_of(g), graph_of(f)
    return graph_map(f.src, g.dst, {x: gg[fg[x]] for x in f.src.elements})


def same_graph_reference(m, n):
    """Whether m and n have the same source, target and graph, compared as
    whole tuples."""

    def whole(k):
        ends = (k.src.elements, k.src.relation, k.dst.elements, k.dst.relation)
        return ends, tuple(graph_of(k).items())

    return whole(m) == whole(n)


def naturality_reference(a):
    """The naturality witnesses of the 1-arrow `a`, both sides of every
    square composed and compared by their graphs: the reference for the last
    step of `doctrine.one_arrow_violations`. A square whose reindexing map
    does not go fiber(dst) → fiber(src) is reported and not composed."""
    P, Q, F = a.src, a.dst, a.functor
    out = []
    for (t, x, y) in P.base.arrows:
        r, s = P.reindex[t], Q.reindex[F.arr_map[t]]
        if (r.src, r.dst) != (P.fibers[y], P.fibers[x]):
            out.append(f"source reindexing along {t} has wrong boundary")
            continue
        if (s.src, s.dst) != (Q.fibers[F.obj_map[y]], Q.fibers[F.obj_map[x]]):
            out.append(f"target reindexing along {F.arr_map[t]} has wrong boundary")
            continue
        lhs = compose_reference(a.parts[x], r)
        rhs = compose_reference(s, a.parts[y])
        if not same_graph_reference(lhs, rhs):
            out.append(f"naturality fails along {t}")
    return out


def interior_violations_reference(op):
    """Every interior-operator law by the literal scan, naturality and
    idempotence by composing maps and comparing graphs: the reference for
    `interior.interior_violations`."""
    P = op.doctrine
    out = []
    for x in P.base.objects:
        m = op.parts.get(x)
        if m is None:
            out.append(f"missing box at {x}")
        elif m.src != P.fibers[x] or m.dst != P.fibers[x]:
            out.append(f"box at {x} is not a fiber endomap")
        else:
            out.extend(f"box at {x}: {v}" for v in monotone_violations_reference(m))
    if out:
        return out
    for (t, x, y) in P.base.arrows:
        lhs = compose_reference(op.parts[x], P.reindex[t])
        rhs = compose_reference(P.reindex[t], op.parts[y])
        if not same_graph_reference(lhs, rhs):
            out.append(f"naturality fails along {t}")
    for x in P.base.objects:
        box, rel = graph_of(op.parts[x]), P.fibers[x].relation
        for a in P.fibers[x].elements:
            if (box[a], a) not in rel:
                out.append(f"axiom T fails at ({x},{a})")
            if (box[a], box[box[a]]) not in rel:
                out.append(f"axiom 4 fails at ({x},{a})")
    if out:
        return out
    for x in P.base.objects:
        if not same_graph_reference(compose_reference(op.parts[x], op.parts[x]), op.parts[x]):
            out.append(f"idempotence fails at {x}")
    return out


def lax_inequalities_reference(A):
    """The step (iii) witnesses of `adjunction.adjunction_violations`: α ≤
    P(η_X)(ρ_{LX}(λ_X α)) and λ_{RY}(ρ_Y β) ≤ Q(ε_Y) β, with each side's
    composite built as a map first."""
    P, Q, L, R = A.p, A.q, A.left, A.right
    out = []
    for x in P.base.objects:
        unit = graph_of(compose_reference(P.reindex[A.eta.components[x]], compose_reference(A.rho[L.obj_map[x]], A.lam[x])))
        rel = P.fibers[x].relation
        out.extend(
            f"(iii) eta: lax inequality fails at ({x},{a})" for a in P.fibers[x].elements if (a, unit[a]) not in rel
        )
    for y in Q.base.objects:
        ry = R.obj_map[y]
        counit, back = graph_of(compose_reference(A.lam[ry], A.rho[y])), graph_of(Q.reindex[A.eps.components[y]])
        rel = Q.fibers[L.obj_map[ry]].relation
        out.extend(
            f"(iii) eps: lax inequality fails at ({y},{b})"
            for b in Q.fibers[y].elements
            if (counit[b], back[b]) not in rel
        )
    return out


def em_fibers_reference(c):
    """The EM fibers by definition, by coalgebra name: the elements below
    their own closure P(c)∘κ_C, composed as a map. `comonad.em_doctrine`
    keeps the closure's fixed points and no longer compares the two."""
    data = coalgebra_category(c.k, c.mu, c.nu)
    out = {}
    for o in data.category.objects:
        x = data.forgetful.obj_map[o]
        closure, rel = graph_of(compose_reference(c.p.reindex[data.structure[o]], c.kappa[x])), c.p.fibers[x].relation
        out[o] = tuple(a for a in c.p.fibers[x].elements if (a, closure[a]) in rel)
    return out


def closure_idempotence_reference(c):
    """The (coalgebra name, element) pairs at which the closure
    cl = P(c)∘κ_C, composed as a map, has cl(cl a) ≠ cl a. `comonad.em_doctrine`
    no longer checks idempotence: its docstring proves it from the scan."""
    data = coalgebra_category(c.k, c.mu, c.nu)
    out = []
    for o in data.category.objects:
        x = data.forgetful.obj_map[o]
        cl = graph_of(compose_reference(c.p.reindex[data.structure[o]], c.kappa[x]))
        out.extend((o, a) for a in c.p.fibers[x].elements if cl[cl[a]] != cl[a])
    return out


def injective_reference(m):
    """Whether the map `m` sends distinct elements to distinct images."""
    return len(set(graph_of(m).values())) == len(m.src.elements)


def em_universal_two_arrow(c):
    """The universal 2-arrow of the EM doctrine of the comonad `c`, from the
    forgetful 1-arrow U to the comonad's 1-arrow after it, with component c
    at each coalgebra ⟨C,c⟩. It is valid: its boundaries hold by
    construction, each c: C → KC is a base arrow, its naturality square at an
    EM arrow f is c'∘f = Kf∘c, the condition `coalgebra_category` picks
    arrows by, and its lax inequality a ≤ P(c)κ_C a holds at every fixed
    point of the closure P(c)∘κ_C, which the EM fiber at ⟨C,c⟩ is."""
    bundle = em_doctrine(c)
    U = bundle.coalgebras.forgetful
    theta = NatTransformation(U, compose_functors(c.k, U), dict(bundle.coalgebras.structure))
    return TwoArrow(bundle.forgetful, compose_one_arrows(cmd_arrow(c), bundle.forgetful), theta)


def comparison_landing_reference(A):
    """The two raises `comonad.comparison_arrow` no longer has, from A's
    tables and the fixed points of its comonad's closures: each ⟨LX, Lη_X⟩
    is a coalgebra, and λ_X sends every element into the EM fiber there."""
    fibers = em_fibers_reference(cmd_of_adjunction(A))
    out = []
    for x in A.p.base.objects:
        o = coalgebra_object_name(A.left.obj_map[x], A.left.arr_map[A.eta.components[x]])
        if o not in fibers:
            out.append(f"comparison object {o} is not a coalgebra")
            continue
        lam = graph_of(A.lam[x])
        out.extend(
            f"lambda does not land in the EM fiber at ({x},{a})" for a in A.p.fibers[x].elements if lam[a] not in fibers[o]
        )
    return out

def kripke_box(frame, a):
    """The worlds of `frame` whose every successor lies in the subset `a`, by
    frozenset inclusion: the box oracle for `instances.kripke_doctrine`,
    which computes its box table on bit codes."""
    if not a <= set(frame.worlds):
        raise ValueError("subset mentions unknown worlds")
    return frozenset(w for w in frame.worlds if frame.successors(w) <= a)


def covers_by_definition(p):
    """The position pairs (i, j) of the a < b of `p` with no element strictly
    between them, by testing every triple: the reference for `FinPoset.hasse`."""
    rel = p.relation
    return {
        (p.index(a), p.index(b))
        for (a, b) in rel
        if a != b and not any(c not in (a, b) and (a, c) in rel and (c, b) in rel for c in p.elements)
    }


def powerset_poset_reference(ground):
    """The inclusion order on the subsets of `ground`, in `powerset_poset`
    order, as a set of pairs: each subset, as a bitmask m of ground
    positions, walks only its supersets (t ↦ (t+1) | m), so the build costs
    the 3ⁿ related pairs."""
    n = len(ground)
    label_of = {}
    for r in range(n + 1):
        for combo in combinations(range(n), r):
            label_of[sum(1 << i for i in combo)] = subset_label((ground[i] for i in combo), ground)
    full = (1 << n) - 1
    rel = set()
    for m, lbl in label_of.items():
        t = m
        while True:
            rel.add((lbl, label_of[t]))
            if t == full:
                break
            t = (t + 1) | m
    return poset_from_pairs(list(label_of.values()), rel)


def fun_label(mapping: Mapping[str, str], domain: Sequence[str]) -> str:
    """The label of an assignment in a function fiber, `[d:v;…]` in domain
    order: the reference for the labels of `instances._pointwise_fiber`."""
    return "[" + ";".join(f"{d}:{mapping[d]}" for d in domain) + "]"


def pointwise_fiber_reference(keys, factors):
    """The pointwise order on the assignments of an element of factors[i] to
    keys[i], in `instances._pointwise_fiber` order and labels, as a set of
    pairs: the assignments above m are the product of the up-sets of its
    values, Π|≤ᵢ| related pairs."""
    keys = list(keys)
    label_of = {combo: fun_label(dict(zip(keys, combo)), keys) for combo in product(*(f.elements for f in factors))}
    ups = []
    for f in factors:
        up = {c: [] for c in f.elements}
        for (a, b) in f.relation:
            up[a].append(b)
        ups.append(up)
    rel = set()
    for combo, lbl in label_of.items():
        for above in product(*(up[c] for up, c in zip(ups, combo))):
            rel.add((lbl, label_of[above]))
    return poset_from_pairs(list(label_of.values()), rel)


def assignments(domain, codomain):
    """Every assignment of an element of `codomain` to each member of
    `domain`, as a dict, by its `fun_label`, in `itertools.product` order."""
    out = {}
    for combo in product(codomain.elements, repeat=len(domain)):
        m = dict(zip(domain, combo))
        out[fun_label(m, domain)] = m
    return out


def subset_map_reference(src, ground, f):
    """The graph of the map sending each subset in the powerset fiber `src`
    to f(it) ⊆ `ground`, by parsing and printing labels: the reference for
    `order.value_map` on powerset fibers."""
    return {lbl: subset_label(f(label_subset(lbl)), ground) for lbl in src.elements}


def precomposition_reference(base, sets, codomain):
    """Along each arrow g: X → Y of the function category `base` on `sets`,
    read off the arrow's name, the graph of
    α ↦ α∘g between the fibers of functions into `codomain`, on labels: the
    reference for the reindexing of `instances._function_doctrine`."""
    out = {}
    for a in base.arrow_names():
        s, d = base.src(a), base.dst(a)
        g = function_graph(a)
        out[a] = {
            lbl: fun_label({e: alpha[g[e]] for e in sets[s]}, sets[s])
            for lbl, alpha in assignments(sets[d], codomain).items()
        }
    return out


def postcomposition_reference(domain, codomain, f):
    """The graph of α ↦ f∘α on the fiber of functions `domain` → `codomain`,
    on labels, f given by `codomain` label: the reference for
    `instances._postcompose`."""
    return {lbl: fun_label({e: f[alpha[e]] for e in domain}, domain) for lbl, alpha in assignments(domain, codomain).items()}


def _pointwise(q, keys):
    """The functions keys → Q as tuples of values in `itertools.product`
    order, their labels, and the pointwise order, ⊗ and unit."""
    order = q.lattice.carrier.relation
    fns = list(product(q.lattice.carrier.elements, repeat=len(keys)))

    def label(f):
        return "[" + ";".join(f"{e}:{v}" for e, v in zip(keys, f)) + "]"

    def leq(f, g):
        return all((a, b) in order for a, b in zip(f, g))

    def star(f, g):
        return tuple(q.tensor[(a, b)] for a, b in zip(f, g))

    return fns, label, leq, star, tuple(q.unit for _ in keys)


def residuation_failures_reference(q, keys):
    """Every triple (α, β, γ) of Q^keys, labelled, at which α⊗γ ≤ β and
    γ ≤ (α⇒β) disagree, by the literal loop over the fiber with ⇒ the join of
    {z : a⊗z ≤ b} pointwise: empty on every quantale that passes
    `quantale_violations`, as `instances.bang_law_violations`' docstring proves."""
    fns, label, leq, star, _ = _pointwise(q, keys)
    carrier = q.lattice.carrier

    def residual(a, b):
        best = q.lattice.bottom
        for z in carrier.elements:
            if (q.tensor[(a, z)], b) in carrier.relation:
                best = q.lattice.join[(best, z)]
        return best

    out = []
    for f in fns:
        for g in fns:
            imp = tuple(residual(a, b) for a, b in zip(f, g))
            for h in fns:
                if leq(star(f, h), g) != leq(h, imp):
                    out.append((label(f), label(g), label(h)))
    return out


def bang_law_violations_reference(q, sets, core):
    """The witnesses of `instances.bang_law_violations` by the literal loops
    over every fiber, with ! = ι∘r applied pointwise through the raw maps."""
    laws = {1: [], 2: [], 3: [], 4: []}
    iota, r = graph_of(core.iota), graph_of(core.r)
    for name, keys in sets.items():
        fns, label, leq, star, unit = _pointwise(q, keys)

        def bang(f):
            return tuple(iota[r[v]] for v in f)

        for f in fns:
            if not leq(bang(f), unit):
                laws[1].append(f"({name},{label(f)})")
            if not leq(bang(f), star(bang(f), bang(f))):
                laws[2].append(f"({name},{label(f)})")
        if not leq(unit, bang(unit)):
            laws[3].append(f"({name},unit)")
        for f in fns:
            for g in fns:
                if not leq(star(bang(f), bang(g)), bang(star(f, g))):
                    laws[4].append(f"({name},{label(f)},{label(g)})")
    return [f"law ({n}) fails at {w}" for n, found in laws.items() for w in found]


def powerset_lattice(ground):
    """The lattice of all subsets of `ground` under inclusion."""
    p = powerset_poset(ground)
    meet, join = {}, {}
    for a in p.elements:
        sa = label_subset(a)
        for b in p.elements:
            sb = label_subset(b)
            meet[(a, b)] = subset_label(sa & sb, ground)
            join[(a, b)] = subset_label(sa | sb, ground)
    return FinLattice(p, meet, join, subset_label((), ground))


def gfp_trace(lattice, f):
    """Iterates x0=top, x_{n+1}=f(x_n) until stationary; rejects non-monotone f."""
    if f.src != lattice.carrier or f.dst != lattice.carrier:
        raise ValueError("gfp: f is not an endomap of the lattice carrier")
    bad = monotone_violations_reference(f)
    if bad:
        raise ValueError("gfp: f is not monotone: " + "; ".join(bad))
    x = reduce(lambda a, b: lattice.join[a, b], lattice.carrier.elements)  # the top, the join of all
    trace = [x]
    while True:
        nxt = f.apply(x)
        trace.append(nxt)
        if nxt == x:
            return trace
        x = nxt


def gfp(lattice, f):
    """Greatest fixed point of a monotone endomap, by iteration from top."""
    return gfp_trace(lattice, f)[-1]


def post_fixed_join(lattice, f):
    """Join of all post-fixed points; independent oracle for `gfp`."""
    acc = lattice.bottom
    for x in lattice.carrier.elements:
        if lattice.carrier.leq(x, f.apply(x)):
            acc = lattice.join[(acc, x)]
    return acc


def random_subset(rng, states: Sequence[str]) -> frozenset[str]:
    """A seeded subset of `states`: each member drawn by one rng.random(), in
    state order, as the suite draws the bits of its α."""
    return frozenset(s for s in states if rng.random() < 0.5)


def g_oracle_reference(c, alpha):
    """Orbit walk: x qualifies iff every iterate of the stream step stays in alpha."""
    if c.kind != "stream":
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


def _reachable_reference(c, x):
    seen = {x}
    frontier = [x]
    while frontier:
        s = frontier.pop()
        for t in c.successors(s):
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return frozenset(seen)


def ag_oracle_reference(c, alpha):
    """Per-state reachability: x qualifies iff everything reachable from x
    (including x) lies in alpha."""
    if c.kind != "tree":
        raise ValueError("ag_oracle needs a tree coalgebra")
    return frozenset(x for x in c.states if _reachable_reference(c, x) <= alpha)


def eg_oracle_reference(c, alpha):
    """Floyd–Warshall: x qualifies iff inside the alpha-induced subgraph x
    reaches a state that reaches itself in one step or more."""
    if c.kind != "tree":
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
    return frozenset(x for x in nodes if any(x == s or reach[(x, s)] for s in cyclic))


def poset_height(p):
    """Length (number of elements) of the longest chain."""
    best = {e: 1 for e in p.elements}
    changed = True
    while changed:
        changed = False
        for (a, b) in p.relation:
            if a != b and best[b] < best[a] + 1:
                best[b] = best[a] + 1
                changed = True
    return max(best.values()) if best else 0


def powerset_monoid_quantale(elements, op, unit):
    """pw(M) for a finite commutative monoid M, with elementwise products."""
    lat = powerset_lattice(elements)
    tensor = {}
    for l1 in lat.carrier.elements:
        s1 = label_subset(l1)
        for l2 in lat.carrier.elements:
            s2 = label_subset(l2)
            prod_set = {op[(a, b)] for a in s1 for b in s2}
            tensor[(l1, l2)] = subset_label(prod_set, elements)
    return valid_quantale("pw-monoid", lat, tensor, subset_label({unit}, elements))


def small_lattices():
    """Every lattice of at most 4 elements up to isomorphism, by name: the
    chains of 1-4 elements and the square 2×2."""
    chains = {f"chain{n}": ["0", "a", "b"][: n - 1] + ["1"] if n > 1 else ["0"] for n in range(1, 5)}
    out = {name: lattice_from_poset(chain_poset(labels)) for name, labels in chains.items()}
    square = fin_poset(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    out["square"] = lattice_from_poset(square)
    return out


def small_commutative_tables():
    """Every commutative tensor table on a lattice of `small_lattices`, with
    every unit, whose unit row is the identity and whose ⊥ row is ⊥, as
    FiniteQuantale values named lattice/unit/index: any other table fails
    the unit law or distributivity over the empty join. So a unit ⊥ occurs
    on the 1-element lattice alone, where both rows agree."""
    out = []
    for name, lat in small_lattices().items():
        els, bottom = lat.carrier.elements, lat.bottom
        for unit in els:
            if unit == bottom and len(els) > 1:
                continue
            free = [x for x in els if x not in (unit, bottom)]
            pairs = [(a, b) for i, a in enumerate(free) for b in free[i:]]
            for k, values in enumerate(product(els, repeat=len(pairs))):
                tensor = {}
                for x in els:
                    tensor[(unit, x)] = tensor[(x, unit)] = x
                    tensor[(bottom, x)] = tensor[(x, bottom)] = bottom
                for (a, b), v in zip(pairs, values):
                    tensor[(a, b)] = tensor[(b, a)] = v
                out.append(FiniteQuantale(f"{name}/{unit}/{k}", lat, tensor, unit))
    return out


def quantale_core_reference(q) -> tuple[str, ...]:
    """The core {x | x ≤ 1, x ≤ x⊗x} of Q by the literal filter over the
    carrier's relation, in carrier order."""
    rel = q.lattice.carrier.relation
    return tuple(x for x in q.lattice.carrier.elements if (x, q.unit) in rel and (x, q.tensor[(x, x)]) in rel)


def quantale_core_violations_reference(q, core) -> list[str]:
    """The checks `instances.quantale_core` made of a core until its
    docstring proved them, as written, each a witness in place of a raise:
    the core holds 1, ⊥ and the ⊗ and binary join of any two members; the
    join r_x of the members below x is a member, below x, equal to x on a
    member, and has the Galois property. Added to those: ⊗ is monotone (the
    proof's first step), ι is the inclusion and `core.r` sends each x to
    r_x. Empty on every quantale that passes `quantale_violations`."""
    lat, rel, t = q.lattice, q.lattice.carrier.relation, q.tensor
    els, core_els = lat.carrier.elements, list(core.elements)
    out = [
        f"tensor not monotone at ({x},{a},{b})"
        for x in els
        for a in els
        for b in els
        if (a, b) in rel and (t[(x, a)], t[(x, b)]) not in rel
    ]
    if graph_of(core.iota) != {y: y for y in core_els}:
        out.append("iota is not the inclusion")
    if q.unit not in core_els:
        out.append("unit escaped the core")
    for a in core_els:
        for b in core_els:
            if t[(a, b)] not in core_els:
                out.append(f"core not closed under tensor at ({a},{b})")
    if lat.bottom not in core_els:
        out.append("core not closed under the join of []")
    for a, b in combinations(core_els, 2):
        if lat.join[(a, b)] not in core_els:
            out.append(f"core not closed under the join of {sorted((a, b))}")
    r_map = {}
    for x in els:
        join = lat.bottom
        for y in core_els:
            if (y, x) in rel:
                join = lat.join[(join, y)]
        if join not in core_els:
            out.append(f"coreflection escapes the core at {x}")
        r_map[x] = join
    if graph_of(core.r) != r_map:
        out.append("r is not the join of the core below each element")
    for x in els:
        if (r_map[x], x) not in rel:
            out.append(f"iota∘r not deflationary at {x}")
    for y in core_els:
        if r_map[y] != y:
            out.append(f"r∘iota not identity at {y}")
    for y in core_els:
        for x in els:
            if ((y, x) in rel) != ((y, r_map[x]) in rel):
                out.append(f"galois property fails at ({y},{x})")
    return out


def product_data_violations_reference(P, sub, x_obj, products, proj2, times) -> list[str]:
    """The checks `doctrine.power_doctrine` made of its product data until
    its caller's construction proved them, as written, each a witness in
    place of a raise, with the second projections Y×X → X given apart as
    image positions `proj2[Y]`, since `ProductData` does not hold them and
    the base need not hold X. Each object of `sub` has a product whose first
    projection has the right boundary, and each arrow f of `sub` an f×id_X
    between the products that commutes with both projections."""
    out = []
    for y in sub.objects:
        if y not in products:
            out.append(f"product data missing for ({y},{x_obj})")
            continue
        pd = products[y]
        if P.base.src(pd.proj1) != pd.prod_obj or P.base.dst(pd.proj1) != y:
            out.append(f"first projection for {y} has wrong boundary")
    if out:
        return out
    for f in sub.arrow_names():
        if f not in times:
            out.append(f"product data missing arrow {f}×id")
            continue
        y, z = sub.src(f), sub.dst(f)
        fx = times[f]
        if P.base.src(fx) != products[y].prod_obj or P.base.dst(fx) != products[z].prod_obj:
            out.append(f"{f}×id has wrong boundary")
            continue
        if P.base.comp(products[z].proj1, fx) != P.base.comp(f, products[y].proj1):
            out.append(f"{f}×id does not commute with first projections")
        if tuple(proj2[z][i] for i in P.base.payload[fx]) != proj2[y]:
            out.append(f"{f}×id does not commute with second projections")
    return out


def subobject_doctrine_finset(sets):
    """Subobject doctrine over a finite-set fragment with reindexing computed
    by an explicit pullback (pairs construction), not by inverse image; it is
    the powerset doctrine up to a natural fiberwise bijection."""
    base = full_function_category(sets)
    fibers = {x: powerset_poset(sets[x]) for x in base.objects}
    reindex = {}
    for a in base.arrow_names():
        s, d = base.src(a), base.dst(a)
        g = function_graph(a)
        graph = {}
        for lbl in fibers[d].elements:
            target = label_subset(lbl)
            pullback_pairs = [(e, m) for e in sets[s] for m in target if g[e] == m]
            graph[lbl] = subset_label({e for (e, _) in pullback_pairs}, sets[s])
        reindex[a] = graph_map(fibers[d], fibers[s], graph)
    return Doctrine(base, fibers, reindex)


def closure(arrows, composition, start):
    """The arrows reached from `start` by composing reached pairs until
    nothing new appears."""
    dst = {n: d for (n, _, d) in arrows}
    src = {n: s for (n, s, _) in arrows}
    reached = set(start)
    changed = True
    while changed:
        changed = False
        for g in list(reached):
            for f in list(reached):
                if dst[f] == src[g] and composition[(g, f)] not in reached:
                    reached.add(composition[(g, f)])
                    changed = True
    return reached


def hom_sizes_by_closure(C):
    """Hom-set sizes via closure of identities and generators under composition;
    cross-check against the literal arrow list filter."""
    sizes = {}
    for a in closure(C.arrows, composition_table(C), set(C.identities.values()) | set(C.arrow_names())):
        key = (C.src(a), C.dst(a))
        sizes[key] = sizes.get(key, 0) + 1
    return sizes


def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line grammar as argparse parsers: the reference that
    `doctrines.cli.parse_argv` must agree with."""
    ap = argparse.ArgumentParser(prog="doctrines")
    ap.add_argument("--json", action="store_true", help="emit a structured report")
    ap.add_argument("--seed", type=int, default=7, help="seed for randomized suites")
    ap.add_argument("--max-size", type=int, default=200000, help="refuse enumerations above this size")
    sub = ap.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check", help="run every law suite declared in a model file")
    p_check.add_argument("file")
    p_check.add_argument("--target", help="restrict the report to verdicts matching a name")
    p_derive = sub.add_parser("derive", help="run a construction and report its law suite")
    p_derive.add_argument("file")
    p_derive.add_argument("--from", dest="source", required=True)
    g = p_derive.add_mutually_exclusive_group(required=True)
    g.add_argument("--modality", action="store_true")
    g.add_argument("--comonad", action="store_true")
    g.add_argument("--adjunction", action="store_true")
    p_em = sub.add_parser("em", help="dump the Eilenberg-Moore doctrine of a comonad")
    p_em.add_argument("file")
    p_em.add_argument("--from", dest="source", required=True)
    p_factor = sub.add_parser("factor", help="both factorization theorems for an adjunction")
    p_factor.add_argument("file")
    p_factor.add_argument("--from", dest="source", required=True)
    p_temporal = sub.add_parser("temporal", help="G/AG/EG queries with oracle cross-checks")
    p_temporal.add_argument("file")
    p_temporal.add_argument("--coalgebra", required=True)
    p_temporal.add_argument("--op", required=True)
    p_temporal.add_argument("--alpha", default="{}")
    sub.add_parser("suite", help="run the full acceptance suite")
    return ap


def argparse_flags(argv) -> dict:
    """The `flags` of `argv` as argparse reads it; raises SystemExit (0 after
    help, 2 on a malformed command line) where argparse exits, and where it
    drops an attached `--` (`--op=--`) and stores [] for the option."""
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if any(isinstance(v, list) for v in vars(args).values()):
        parser.error("expected one argument")
    flags = {"json": args.json, "seed": args.seed, "max_size": args.max_size, "command": args.command}
    if args.command != "suite":
        flags["file"] = args.file
    if args.command == "derive":
        flags["from"] = args.source
        flags["what"] = "modality" if args.modality else ("comonad" if args.comonad else "adjunction")
    elif args.command in ("em", "factor"):
        flags["from"] = args.source
    elif args.command == "temporal":
        flags.update({"coalgebra": args.coalgebra, "op": args.op, "alpha": args.alpha})
    elif args.command == "check":
        flags["target"] = args.target
    return flags


# Constructions the library does not use, shared by several test modules.
def function_graph(cat_arrow_name: str) -> dict[str, str]:
    """Recover the graph of a full_function_category arrow from its name."""
    body = cat_arrow_name.split(":", 1)[1]
    if not body:
        return {}
    return dict(pair.split(">") for pair in body.split(","))


def payload_graph(sets, C, a) -> dict[str, str]:
    """The graph of the arrow a of a function category C on `sets`, read off
    its payload of image positions."""
    return {e: sets[C.dst(a)][i] for e, i in zip(sets[C.src(a)], C.payload[a])}


def one_object_monoid_category(obj: str, elements: Sequence[str], unit: str, table: Mapping[tuple[str, str], str]) -> FinCategory:
    arrows = [(e, obj, obj) for e in elements]
    return fin_category([obj], arrows, {obj: unit}, dict(table))


def identity_one_arrow(P: Doctrine) -> OneArrow:
    return OneArrow(P, P, identity_functor(P.base), identity_parts(P))


def identity_two_arrow(a: OneArrow) -> TwoArrow:
    return TwoArrow(a, a, identity_nat(a.functor))


def moved_image(m: MonotoneMap) -> MonotoneMap:
    """m with the image of its first source element moved to another element
    of its target: a fault planted in a construction a check compares."""
    graph = graph_of(m)
    a = m.src.elements[0]
    return graph_map(m.src, m.dst, {**graph, a: next(b for b in m.dst.elements if b != graph[a])})


def down(p: FinPoset, a: str) -> tuple[str, ...]:
    """The elements of p below a, in p's order."""
    return tuple(x for x in p.elements if p.leq(x, a))


def antichain_poset(labels: Sequence[str]) -> FinPoset:
    return FinPoset(tuple(labels), codes=tuple(1 << i for i in range(len(labels))), covers=())


def constant_family_arrow(
    frame: KripkeFrame, sets: Mapping[str, Sequence[str]]
) -> tuple[OneArrow, InteriorOp, InteriorOp]:
    """The 1-arrow from world-valued predicates to constant families:
    an element s lands in the part at w iff w satisfies the predicate at s."""
    src_doc, src_op = kripke_doctrine(frame, sets)
    families = [
        IndexedFamily(name, tuple(sets[name]), {w: frozenset(sets[name]) for w in frame.worlds})
        for name in sets
    ]
    dst_doc, dst_op = fam_doctrine(frame, families)
    fams = {f.name: f for f in families}
    obj_map = {name: name for name in sets}
    arr_map = {}
    for a in src_doc.base.arrow_names():
        s, d = src_doc.base.src(a), src_doc.base.dst(a)
        # same graph, renamed as a family arrow
        g_body = a.split(":", 1)[1]
        arr_map[a] = f"{s}->{d}:{g_body}"
    functor = Functor(src_doc.base, dst_doc.base, obj_map, arr_map)
    parts = {}
    for name in sets:
        graph = {}
        fib = src_doc.fibers[name]
        for lbl in fib.elements:
            # decode the function label back through reconstruction
            alpha = _decode_fun_label(lbl, sets[name])
            fam_parts = {
                w: frozenset(s for s in sets[name] if w in label_subset(alpha[s]))
                for w in frame.worlds
            }
            graph[lbl] = family_element_label(
                frozenset(sets[name]), fam_parts, fams[name].carrier, frame.worlds
            )
        parts[name] = graph_map(fib, dst_doc.fibers[name], graph)
    return OneArrow(src_doc, dst_doc, functor, parts), src_op, dst_op


def _decode_fun_label(lbl: str, domain: Sequence[str]) -> dict:
    body = lbl[1:-1]
    if not body:
        return {}
    out = {}
    for chunk in body.split(";"):
        k, v = chunk.split(":", 1)
        out[k] = v
    return out


def forgetful_top_arrow(spaces: Sequence[FiniteTopSpace]) -> tuple[OneArrow, InteriorOp, InteriorOp]:
    """⟨U, id⟩ from the topological doctrine to the plain powerset doctrine."""
    src_doc, src_op = topological_doctrine(spaces)
    sets = {s.name: list(s.points) for s in spaces}
    dst_doc = powerset_doctrine(sets)
    obj_map = {s.name: s.name for s in spaces}
    arr_map = {a: a for a in src_doc.base.arrow_names()}
    functor = Functor(src_doc.base, dst_doc.base, obj_map, arr_map)
    return OneArrow(src_doc, dst_doc, functor, identity_parts(src_doc)), src_op, identity_interior(dst_doc)
