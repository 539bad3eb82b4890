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
from json.encoder import encode_basestring_ascii as _quote  # C, unlike indent=2 dumps
from math import prod
from typing import Callable, Iterable, Sequence

from .action import algebraic_basis, image_texts, outer_representative, tree_basis
from .commutators import MAX_LEMMA_TRIALS, lemma_suite
from .complexes import build_complex, h1, load_complex_file, parse_complex_spec
from .fibre import betti_one, build_fibre_graph, rank_formula, to_dot, witness_texts
from .groups import check_size, clip, clip_int, parse_group_spec, printable_int
from .intmatrix import columns, determinant, representation_report
from .verify import run_criteria
from .words import format_words, parse_word, project

SCHEMA = 1


def _basis_for(groups, choice):
    if choice == "algebraic" or (choice == "auto" and len(groups) == 2):
        return algebraic_basis(groups)
    return tree_basis(build_fibre_graph(groups))


def _dumps(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` byte for byte, in one pass: a list of
    ints or strs (by `type`: a bool prints `true`) is joined at once; a non-str key raises.
    A callable value writes its own JSON at the indent it is given."""
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
        body = (sep.join(map(int.__repr__, value)) if kinds == {int}
                else sep.join(map(_quote, value))
                if kinds == {str} else sep.join(_dumps(v, inner) for v in value))
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, dict):
        items = (f"{_quote(k)}: {_dumps(v, inner)}" for k, v in sorted(value.items()))
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}" if value else "{}"
    if callable(value):
        return value(indent)
    return json.dumps(value)  # floats and other scalars


def _join_ints(nonzeros: Iterable[tuple[int, int]], length: int, sep: str,
               width: int = 0) -> str:
    """A row of `length` exact ints, given as its (position, value) nonzeros in ascending
    order, each right-aligned to `width` and joined by `sep`; each run of zeros at once."""
    spec = f">{width}"
    zero, out, last = f"{0:{spec}}{sep}", [], 0
    for k, v in nonzeros:
        out.append(f"{zero * (k - last)}{v:{spec}}{sep}")
        last = k + 1
    return ("".join(out) + zero * (length - last))[:-len(sep)]


def _sparse_rows(cols: list[dict[int, int]]) -> list[list[tuple[int, int]]]:
    """The rows of the square matrix whose column j is cols[j], as (column, nonzero) pairs."""
    rows: list[list[tuple[int, int]]] = [[] for _ in cols]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i].append((j, v))  # j ascends, so each row comes out sorted
    return rows


def _rows_text(rows: list[list[tuple[int, int]]]) -> str:
    """The matrix as text: each entry right-aligned to the widest, one line per row."""
    width = max((len(repr(v)) for row in rows for _, v in row), default=1)
    return "\n".join([_join_ints(row, len(rows), " ", width) for row in rows])


def _rows_json(rows: list[list[tuple[int, int]]], indent: str) -> str:
    """The matrix as a JSON list of rows, as `_dumps` writes the dense lists at `indent`."""
    inner = indent + "  "
    sep = f",\n{inner}  "
    body = f",\n{inner}".join([f"[\n{inner}  {_join_ints(row, len(rows), sep)}\n{inner}]"
                               for row in rows])
    return f"[\n{inner}{body}\n{indent}]"


def _images_json(symbols: Sequence[str], images: Sequence[str], indent: str) -> str:
    """`act`'s image texts as a JSON object keyed by symbol.  Both bases name their symbols
    and tokens in plain ASCII (`w[i,j]`, `c<k>`), which JSON writes as it is, so nothing is
    escaped."""
    if not images:
        return "{}"
    inner = indent + "  "
    items = [f'"{symbols[k]}": "{images[k]}"'
             for k in sorted(range(len(symbols)), key=symbols.__getitem__)]
    return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"


def _emit(args, payload: dict, text: Callable[[], str]):
    """Print the payload as JSON, or the text, which is called only in text mode."""
    if args.format == "json":
        payload["schema"] = SCHEMA
        print(_dumps(payload))
    else:
        print(text())


def cmd_rank(args):
    orders = [G.order for G in parse_group_spec(args.groups)]
    n = printable_int(rank_formula(orders), f"the rank for --groups {clip(args.groups)}")
    _emit(args, {"orders": orders, "rank": n}, lambda: str(n))
    return 0


def cmd_graph(args):
    groups = parse_group_spec(args.groups)
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
    groups = parse_group_spec(args.groups)
    basis = _basis_for(groups, args.basis)
    # the tree basis spells its witnesses off the grid, building no `Word`
    witnesses = (witness_texts(basis.groups) if basis.kind == "tree"
                 else format_words(basis.witnesses))
    payload = {"kind": basis.kind, "symbols": list(basis.symbols), "witnesses": witnesses}
    _emit(args, payload, lambda: "\n".join(f"{sym} = {wit}"
                                           for sym, wit in zip(basis.symbols, witnesses)))
    return 0


def cmd_act(args):
    groups = parse_group_spec(args.groups)
    basis = _basis_for(groups, args.basis)
    w = parse_word(args.element, groups)
    images = image_texts(w, basis)
    payload = {"basis": list(basis.symbols), "element": str(w),
               "images": functools.partial(_images_json, basis.symbols, images)}
    _emit(args, payload, lambda: "\n".join(f"{sym} -> {img}"
                                           for sym, img in zip(basis.symbols, images)))
    return 0


def cmd_matrix(args):
    groups = parse_group_spec(args.groups)
    w = parse_word(args.element, groups)
    rank = rank_formula([G.order for G in groups])
    # refused before any walk, as the output is dense; a bad cap before rank 0
    check_size(rank * rank, f"rank {clip_int(rank)}: its matrix of rank^2 = "
                            f"{clip_int(rank * rank)} entries")
    if not rank:
        raise ValueError(f"rank 0 for --groups {clip(args.groups)}: "
                         f"a trivial kernel has no matrix")
    basis = _basis_for(groups, args.basis)
    # read off the state (P cancels in H1), each column's letters counted once
    rows = _sparse_rows(columns(outer_representative(w, basis)))
    _emit(args, {"basis": list(basis.symbols),
                 "convention": "columns-as-images",
                 "element": str(w),
                 "determinant": determinant(groups, project(w)),
                 "entries": functools.partial(_rows_json, rows)},
          functools.partial(_rows_text, rows))
    return 0


def cmd_report(args):
    groups = parse_group_spec(args.groups)
    if len(groups) != 2:
        raise ValueError(f"report needs exactly two groups, got {len(groups)} "
                         f"from --groups {clip(args.groups)}")
    rep = representation_report(groups[0], groups[1], seed=args.seed)
    _emit(args, rep, lambda: "\n".join(f"{key}: {value}" for key, value in rep.items()))
    checks = ("cross_factor_commute", "faithful", "non_ia_certificate",
              "kernel_words_act_trivially")
    return 0 if all(rep[k] for k in checks) else 1


def cmd_lemma_check(args):
    for flag, value in (("--trials", args.trials), ("--depth", args.depth)):
        if value < 0:
            raise ValueError(f"{flag} must be non-negative, got {clip_int(value)}")
    if args.trials > MAX_LEMMA_TRIALS:
        raise ValueError(f"--trials must be at most {MAX_LEMMA_TRIALS}, got "
                         f"{clip_int(args.trials)}")
    trials, depth = args.trials, min(args.depth, 5)
    delta, expansion, magnus = lemma_suite(parse_group_spec(args.groups),
                                           random.Random(args.seed), trials, depth)
    payload = {"delta_identity": {"passed": delta, "total": trials},
               "product_expansion": {"passed": expansion, "total": trials},
               "magnus_weights": {"passed": magnus, "total": depth}}
    _emit(args, payload, lambda: f"delta-identity: {delta}/{trials}\n"
                                 f"product-expansion: {expansion}/{trials}\n"
                                 f"magnus-weights (k<= {depth}): {magnus}/{depth}")
    return 0 if (delta, expansion, magnus) == (trials, trials, depth) else 1


def cmd_homology(args):
    groups = parse_group_spec(args.groups)
    if args.complex.startswith("@"):
        K = load_complex_file(args.complex[1:], n=len(groups))
    else:
        K = parse_complex_spec(args.complex, n=len(groups))
    cx = build_complex(groups, K)
    payload = {"betti": h1(cx), "torsion": [],  # H1 is free
               "cells": dict(zip(("vertices", "edges", "squares"), cx.counts))}
    _emit(args, payload, lambda: f"betti={payload['betti']} torsion=none")
    return 0


def cmd_verify(args):
    criteria = [{"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in run_criteria(seed=args.seed)]
    ok = all(c["ok"] for c in criteria)
    _emit(args, {"criteria": criteria, "ok": ok},
          lambda: "\n".join(f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}"
                            for c in criteria))
    return 0 if ok else 1


def _int_arg(text: str) -> int:
    """int(text) for an integer flag, refused with the value cut as error lines echo it."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {clip(text)!r}") from None


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
        p.add_argument("--seed", type=_int_arg, default=0)
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

    p = add("matrix", help="integer matrix of one element on H1 of the kernel")
    p.add_argument("--groups", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--basis", choices=("algebraic", "tree", "auto"), default="auto")

    p = add("report", help="matrix-level certificates for a pair of groups")
    p.add_argument("--groups", required=True)

    p = add("lemma-check", help="commutator-calculus property checks")
    p.add_argument("--groups", required=True)
    p.add_argument("--depth", type=_int_arg, default=5)
    p.add_argument("--trials", type=_int_arg, default=200)

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
    except (ValueError, OSError) as exc:
        # an unreadable input file is a usage error; OSError's text names the path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
