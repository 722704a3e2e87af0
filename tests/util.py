"""Shared builders for tests; deliberately independent of doctrines.instances
so instance constructors can be cross-checked against these."""

from doctrines.doctrine import Doctrine
from doctrines.fincat import fin_category, full_function_category, function_arrow_name, function_graph
from doctrines.order import MonotoneMap, label_subset, powerset_poset, subset_label


def powerset_doctrine_over(sets):
    """Powerset doctrine over the full function category on `sets`,
    with inverse-image reindexing."""
    return inverse_image_reference(full_function_category(sets).category, sets)


def inverse_image_reference(base, sets):
    """Powerset fibers over the function category `base` on `sets`, reindexed
    by inverse image along the graph each arrow's name spells."""
    fibers = {x: powerset_poset(sets[x]) for x in base.objects}
    reindex = {}
    for a in base.arrow_names():
        src_obj, dst_obj = base.src(a), base.dst(a)
        g = function_graph(a)
        mapping = {}
        for lbl in fibers[dst_obj].elements:
            target = label_subset(lbl)
            preimage = [e for e in sets[src_obj] if g[e] in target]
            mapping[lbl] = subset_label(preimage, sets[src_obj])
        reindex[a] = MonotoneMap(fibers[dst_obj], fibers[src_obj], mapping)
    return Doctrine(base, fibers, reindex)


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
