"""Shared builders for tests; deliberately independent of doctrines.instances
so instance constructors can be cross-checked against these."""

import argparse

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
    help, 2 on a malformed command line) where argparse exits."""
    args = build_arg_parser().parse_args(argv)
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
