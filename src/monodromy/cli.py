"""Command-line front end.

Exit codes: 0 success, 1 check failure, 2 usage error.  All output is
deterministic for a fixed seed; JSON payloads carry "schema": 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote  # C, unlike indent=2 dumps
from math import prod
from typing import Callable

from .action import act_word, algebraic_basis, tree_basis
from .commutators import MAX_LEMMA_TRIALS, lemma_suite
from .complexes import build_complex, h1, load_complex_file, parse_complex_spec
from .fibre import betti_one, build_fibre_graph, rank_formula, to_dot
from .groups import GroupSpecParseError, SizeLimitError, cell_cap, parse_group_spec
from .intmatrix import abelianize, representation_report
from .verify import run_criteria
from .words import format_words, parse_word

SCHEMA = 1


def _groups(args):
    return parse_group_spec(args.groups)


def _basis_for(groups, choice):
    if choice == "algebraic" or (choice == "auto" and len(groups) == 2):
        return algebraic_basis(groups)
    return tree_basis(build_fibre_graph(groups))


def _dumps(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` byte for byte, in one pass: a list of
    ints or strs (by `type`: a bool prints `true`) is joined at once; a non-str key raises."""
    kind, inner = type(value), indent + "  "
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds, sep = set(map(type, value)), f",\n{inner}"
        body = (_join_ints(value, sep) if kinds == {int} else sep.join(map(_quote, value))
                if kinds == {str} else sep.join(_dumps(v, inner) for v in value))
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, dict):
        items = (f"{_quote(k)}: {_dumps(v, inner)}" for k, v in sorted(value.items()))
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}" if value else "{}"
    return json.dumps(value)  # floats and other scalars


def _join_ints(values, sep: str) -> str:
    """`sep.join(map(repr, values))` for exact ints, each run of zeros printed at once."""
    zero, out, last = "0" + sep, [], 0
    for k, v in compress(enumerate(values), values):
        out.append(f"{zero * (k - last)}{v!r}{sep}")
        last = k + 1
    return ("".join(out) + zero * (len(values) - last))[:-len(sep)]


def _emit(args, payload: dict, text: Callable[[], str]):
    """Print the payload as JSON, or the text, built only in text mode."""
    if args.format == "json":
        payload["schema"] = SCHEMA
        print(_dumps(payload))
    else:
        print(text())


def cmd_rank(args):
    orders = [G.order for G in _groups(args)]
    n = rank_formula(orders)
    _emit(args, {"orders": orders, "rank": n}, lambda: str(n))
    return 0


def cmd_graph(args):
    groups = _groups(args)
    g = build_fibre_graph(groups)
    if args.emit == "dot":
        print(to_dot(g))
        return 0
    nverts, rank = prod(G.order for G in groups), betti_one(g)
    payload = {"vertices": nverts, "edges": rank + nverts - 1, "tree_edges": nverts - 1,
               "cotree_edges": rank, "betti_one": rank}
    _emit(args, payload, lambda: f"vertices={payload['vertices']} edges={payload['edges']} "
                                 f"betti_one={payload['betti_one']}")
    return 0


def cmd_basis(args):
    groups = _groups(args)
    basis = _basis_for(groups, args.basis)
    witnesses = format_words(basis.witnesses)
    payload = {"kind": basis.kind, "symbols": list(basis.symbols), "witnesses": witnesses}
    _emit(args, payload, lambda: "\n".join(f"{sym} = {wit}"
                                           for sym, wit in zip(basis.symbols, witnesses)))
    return 0


def cmd_act(args):
    groups = _groups(args)
    basis = _basis_for(groups, args.basis)
    w = parse_word(args.element, groups)
    phi = act_word(w, basis)
    images = {sym: basis.format_image(img) for sym, img in zip(basis.symbols, phi.images)}
    payload = {"basis": list(basis.symbols), "element": str(w), "images": images}
    _emit(args, payload, lambda: "\n".join(f"{sym} -> {text}" for sym, text in images.items()))
    return 0


def cmd_matrix(args):
    groups = _groups(args)
    w = parse_word(args.element, groups)
    rank, cap = rank_formula([G.order for G in groups]), cell_cap()
    if not rank:
        raise ValueError(f"rank 0 for --groups {args.groups}: a trivial kernel has no matrix")
    if rank * rank > cap:  # refused before any walk: the matrix is dense
        raise SizeLimitError(f"rank {rank}: its matrix of rank^2 = {rank * rank} "
                             f"entries exceeds cap {cap}")
    basis = _basis_for(groups, args.basis)
    mat = abelianize(act_word(w, basis))
    payload = {"basis": list(basis.symbols),
               "convention": "columns-as-images",
               "element": str(w),
               "determinant": mat.det(),
               "entries": mat.to_lists()}
    _emit(args, payload, mat.pretty)
    return 0


def cmd_report(args):
    groups = _groups(args)
    if len(groups) != 2:
        print("report needs exactly two groups", file=sys.stderr)
        return 2
    rep = representation_report(groups[0], groups[1], seed=args.seed)
    _emit(args, rep, lambda: "\n".join(f"{key}: {value}" for key, value in rep.items()))
    checks = ("cross_factor_commute", "faithful", "non_ia_certificate",
              "kernel_words_act_trivially")
    return 0 if all(rep[k] for k in checks) else 1


def cmd_lemma_check(args):
    for flag, value in (("--trials", args.trials), ("--depth", args.depth)):
        if value < 0:
            raise ValueError(f"{flag} must be non-negative, got {value}")
    if args.trials > MAX_LEMMA_TRIALS:
        raise ValueError(f"--trials must be at most {MAX_LEMMA_TRIALS}, got {args.trials}")
    trials, depth = args.trials, min(args.depth, 5)
    delta, expansion, magnus = lemma_suite(_groups(args), random.Random(args.seed),
                                           trials, depth)
    payload = {"delta_identity": {"passed": delta, "total": trials},
               "product_expansion": {"passed": expansion, "total": trials},
               "magnus_weights": {"passed": magnus, "total": depth}}
    _emit(args, payload, lambda: f"delta-identity: {delta}/{trials}\n"
                                 f"product-expansion: {expansion}/{trials}\n"
                                 f"magnus-weights (k<= {depth}): {magnus}/{depth}")
    return 0 if (delta, expansion, magnus) == (trials, trials, depth) else 1


def cmd_homology(args):
    groups = _groups(args)
    if args.complex.startswith("@"):
        K = load_complex_file(args.complex[1:], n=len(groups))
    else:
        K = parse_complex_spec(args.complex, n=len(groups))
    cx = build_complex(groups, K)
    betti, torsion = h1(cx)
    payload = {"betti": betti, "torsion": torsion,
               "cells": dict(zip(("vertices", "edges", "squares"), cx.counts))}
    _emit(args, payload, lambda: f"betti={betti} torsion={torsion or 'none'}")
    return 0


def cmd_verify(args):
    criteria = [{"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in run_criteria(seed=args.seed)]
    ok = all(c["ok"] for c in criteria)
    _emit(args, {"criteria": criteria, "ok": ok},
          lambda: "\n".join(f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}"
                            for c in criteria))
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monodromy",
        description="Monodromy of the fibration over a product of finite groups: "
                    "fibre graphs, kernel words, automorphisms, integer matrices, homology.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=0)
        return p

    p = add("rank", help="rank of the kernel free group")
    p.add_argument("--groups", required=True)

    p = add("graph", help="fibre graph counts or DOT")
    p.add_argument("--groups", required=True)
    p.add_argument("--emit", choices=("dot",), default=None)

    p = add("basis", help="basis symbols and kernel-word witnesses")
    p.add_argument("--groups", required=True)
    p.add_argument("--basis", choices=("algebraic", "tree", "auto"), default="auto")

    p = add("act", help="images of the basis under one element")
    p.add_argument("--groups", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--basis", choices=("algebraic", "tree", "auto"), default="auto")

    p = add("matrix", help="abelianized matrix of one element")
    p.add_argument("--groups", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--basis", choices=("algebraic", "tree", "auto"), default="auto")

    p = add("report", help="matrix-level certificates for a pair of groups")
    p.add_argument("--groups", required=True)

    p = add("lemma-check", help="commutator-calculus property checks")
    p.add_argument("--groups", required=True)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--trials", type=int, default=200)

    p = add("homology", help="H1 of the cubical model over a complex")
    p.add_argument("--groups", required=True)
    p.add_argument("--complex", required=True,
                   help="facet syntax K={1;2;3;1,2}, or @file with one facet per line")

    add("verify", help="run the full acceptance suite")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)  # built on the first call, then kept
    try:
        # the handler is looked up on each call, not held by the kept parser
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, GroupSpecParseError, OSError) as exc:
        # an unreadable input file is a usage error; OSError's text names the path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
