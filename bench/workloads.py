"""Benchmark inputs and the correctness gate, independent of the package.

Each workload is a fixed list of CLI tasks generated from the workload
seed.  Every task carries the values an independent oracle predicts for its
output (``expect``); ``check`` compares the program's exit code and stdout
against them.  Nothing here imports ``monodromy``: the oracles are closed
forms and a separate free-product reduction, so a defect in the package
cannot hide itself by also breaking its own check.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass
from math import gcd, lcm, prod

WORKLOADS = ("pipeline", "verify")

S3_CLASSIC_ORDER = ["1", "(12)", "(13)", "(23)", "(123)", "(132)"]

CRITERIA = ["1-rank-formula", "2-z2z3-matrices", "3-z2s3-matrices",
            "4-cyclic-pairs", "5-telescope-roundtrip", "6-geometric-algebraic",
            "7-inner-triviality", "8-lemma-suite", "9-homology", "10-display-note"]


@dataclass
class Task:
    kind: str          # which oracle checks the output
    argv: list[str]    # passed to monodromy.cli.main
    expect: dict       # oracle values; "rc" is the expected exit code


# --- closed forms over group specs -------------------------------------------

def element_orders(item: str) -> list[int]:
    """Order of each element, indexed the way the package indexes them.

    C<n>: element k is x^k.  D<n>: element i + n*f is r^i s^f.  S<n>:
    permutations in lexicographic one-line order, except S3, which uses the
    worked-example listing 1,(12),(13),(23),(123),(132).
    """
    kind, n = item[0], int(item[1:])
    if kind == "C":
        return [n // gcd(n, k) for k in range(n)]
    if kind == "D":
        return [n // gcd(n, i) for i in range(n)] + [2] * n
    if n == 3:
        return [1, 2, 2, 2, 3, 3]
    orders = []
    for perm in sorted(itertools.permutations(range(n))):
        seen, order = set(), 1
        for start in range(n):
            length, i = 0, start
            while i not in seen:
                seen.add(i)
                i = perm[i]
                length += 1
            if length:
                order = lcm(order, length)
        orders.append(order)
    return orders


def rank_formula(orders) -> int:
    total = prod(orders)
    return (len(orders) - 1) * total - sum(total // m for m in orders) + 1


def report_determinants(item_g: str, item_h: str) -> tuple[list[int], list[int]]:
    """det of each generator matrix: sgn(left multiplication)^(|other| - 1).

    Left multiplication by an element of order o permutes the group in
    |G|/o cycles of length o, so its sign is (-1)^((o-1)|G|/o).
    """
    og, oh = element_orders(item_g), element_orders(item_h)

    def sgn(orders, o):
        return (-1) ** ((o - 1) * (len(orders) // o))

    return ([sgn(og, o) ** (len(oh) - 1) for o in og],
            [sgn(oh, o) ** (len(og) - 1) for o in oh])


def complex_edges(facets) -> set[frozenset]:
    return {frozenset(p) for f in facets for p in itertools.combinations(sorted(f), 2)}


def b1_formula(orders, facets) -> int:
    """sum over J, |J| >= 2, of (c(K_J) - 1) * prod_{j in J} (m_j - 1).

    The stable splitting of polyhedral products (Bahri-Bendersky-Cohen-
    Gitler); c counts connected components of the full subcomplex K_J.
    """
    n = len(orders)
    edges = complex_edges(facets)
    total = 0
    for size in range(2, n + 1):
        for J in itertools.combinations(range(1, n + 1), size):
            root = {v: v for v in J}

            def find(v):
                while root[v] != v:
                    v = root[v]
                return v

            for e in edges:
                if e <= set(J):
                    a, b = (find(v) for v in e)
                    root[a] = b
            components = len({find(v) for v in J})
            total += (components - 1) * prod(orders[j - 1] - 1 for j in J)
    return total


def cell_counts(orders, facets) -> dict:
    total = prod(orders)
    edges = sum((m - 1) * (total // m) for m in orders)
    squares = sum((orders[i - 1] - 1) * (orders[j - 1] - 1)
                  * (total // (orders[i - 1] * orders[j - 1]))
                  for i, j in (sorted(e) for e in complex_edges(facets)))
    return {"vertices": total, "edges": edges, "squares": squares}


# --- free-product words over cyclic factors ----------------------------------

_LETTER = re.compile(r"x([0-9]+)(?:\^(-?[0-9]+))?$")


def format_letters(letters) -> str:
    return "*".join(f"x{f + 1}" if k == 1 else f"x{f + 1}^{k}" for f, k in letters)


def parse_cyclic_word(text: str) -> list[tuple[int, int]]:
    if text == "e":
        return []
    out = []
    for token in text.split("*"):
        m = _LETTER.match(token)
        if m is None:
            raise ValueError(f"unexpected letter {token!r}")
        out.append((int(m.group(1)) - 1, int(m.group(2) or 1)))
    return out


def reduce_cyclic(letters, orders) -> list[tuple[int, int]]:
    stack: list[tuple[int, int]] = []
    for f, k in letters:
        k %= orders[f]
        if not k:
            continue
        if stack and stack[-1][0] == f:
            merged = (stack.pop()[1] + k) % orders[f]
            if merged:
                stack.append((f, merged))
        else:
            stack.append((f, k))
    return stack


def invert_cyclic(letters, orders) -> list[tuple[int, int]]:
    return [(f, -k % orders[f]) for f, k in reversed(letters)]


def random_reduced_word(rng: random.Random, orders, length: int) -> list[tuple[int, int]]:
    out, prev = [], None
    for _ in range(length):
        f = rng.choice([i for i in range(len(orders)) if i != prev])
        out.append((f, rng.randrange(1, orders[f])))
        prev = f
    return out


# --- task generation ---------------------------------------------------------

def _cli_seed(rng: random.Random) -> str:
    return str(rng.randrange(10**6))


def _report_tasks(rng):
    tasks = []
    for g, h in (("S4", "C3"), ("S3", "D5"), ("D4", "S3"), ("C6", "C7")):
        seed = _cli_seed(rng)
        dets_g, dets_h = report_determinants(g, h)
        orders = [len(element_orders(g)), len(element_orders(h))]
        tasks.append(Task("report", ["report", "--groups", f"{g},{h}", "--format", "json",
                                     "--seed", seed],
                          {"rc": 0, "orders": orders, "rank": (orders[0] - 1) * (orders[1] - 1),
                           "det1": dets_g, "det2": dets_h, "seed": int(seed)}))
    return tasks


# (orders, facets on 1-based vertices)
HOMOLOGY_CASES = [
    ([3] * 5, [[1], [2], [3], [4], [5]]),
    ([3] * 4, [[1, 2, 3, 4]]),
    ([3] * 4, [[1, 2], [2, 3], [3, 4], [4, 1]]),
    ([5] * 3, [[1], [2], [3]]),
    ([2] * 6, [[1, 2, 3], [3, 4], [4, 5, 6], [6, 1]]),
]


def _homology_tasks(rng):
    tasks = []
    for orders, facets in HOMOLOGY_CASES:
        # relabel the coordinates; every factor is the same group, so the
        # answer is unchanged while the matrices the program builds are not
        perm = list(range(1, len(orders) + 1))
        rng.shuffle(perm)
        relabelled = [sorted(perm[v - 1] for v in f) for f in facets]
        rng.shuffle(relabelled)
        spec = "K={" + ";".join(",".join(map(str, f)) for f in relabelled) + "}"
        groups = ",".join(f"C{m}" for m in orders)
        tasks.append(Task("homology", ["homology", "--groups", groups, "--complex", spec,
                                       "--format", "json", "--seed", _cli_seed(rng)],
                          {"rc": 0, "betti": b1_formula(orders, relabelled), "torsion": [],
                           "cells": cell_counts(orders, relabelled)}))
    return tasks


def _s3_word(rng, length):
    """Tokens of a random reduced word over S3 x C4 x C3 in CLI syntax."""
    orders = [6, 4, 3]
    letters = random_reduced_word(rng, orders, length)
    return [f"s1:{S3_CLASSIC_ORDER[k]}" if f == 0 else format_letters([(f, k)])
            for f, k in letters]


def _s3_kernel_word(rng, terms):
    """Product of conjugated commutators [a, b], a and b in different factors."""
    orders = [6, 4, 3]
    s3_inverse = {"(123)": "(132)", "(132)": "(123)"}

    def token(f, k, inverse=False):
        if f == 0:
            name = S3_CLASSIC_ORDER[k]
            return "s1:" + (s3_inverse.get(name, name) if inverse else name)
        return format_letters([(f, -k % orders[f] if inverse else k)])

    out = []
    for _ in range(terms):
        conj = random_reduced_word(rng, orders, 2)
        fa, fb = rng.sample(range(3), 2)
        a, b = rng.randrange(1, orders[fa]), rng.randrange(1, orders[fb])
        body = [(fa, a, False), (fb, b, False), (fa, a, True), (fb, b, True)]
        out += [token(f, k) for f, k in conj]
        out += [token(*x) for x in body]
        out += [token(f, k, True) for f, k in reversed(conj)]
    return out


# The two act words are fixed.  The cost of acting by a seeded 8-letter word
# on C8^3 varies with the word (coefficient of variation 0.15-0.2 over 20
# words, counted in function calls), which would swamp a regression; the
# seed varies the matrix words and the kernel word instead.
ACT_WORDS = [[(0, 3), (1, 5), (2, 1), (0, 2), (1, 7), (2, 4), (0, 1), (1, 2)],
             [(1, 3), (0, 5), (2, 6), (0, 2), (2, 7), (1, 4), (0, 1), (2, 2)]]


def _tree_action_tasks(rng):
    tasks = []
    c8 = [8, 8, 8]
    for word in ACT_WORDS:
        tasks.append(Task("act", ["act", "--groups", "C8,C8,C8", "--basis", "tree",
                                  "--element", format_letters(word), "--format", "json"],
                          {"rc": 0, "rank": rank_formula(c8), "word": [list(x) for x in word]}))
    word = format_letters(random_reduced_word(rng, [3] * 4, 8))
    tasks.append(Task("matrix", ["matrix", "--groups", "C3,C3,C3,C3", "--basis", "tree",
                                 "--element", word, "--format", "json"],
                      {"rc": 0, "rank": rank_formula([3] * 4), "abs_det": 1}))
    tasks.append(Task("matrix", ["matrix", "--groups", "S3,C4,C3", "--basis", "tree",
                                 "--element", "*".join(_s3_word(rng, 8)), "--format", "json"],
                      {"rc": 0, "rank": rank_formula([6, 4, 3]), "abs_det": 1}))
    tasks.append(Task("kernel-matrix", ["matrix", "--groups", "S3,C4,C3", "--basis", "tree",
                                        "--element", "*".join(_s3_kernel_word(rng, 3)),
                                        "--format", "json"],
                      {"rc": 0, "rank": rank_formula([6, 4, 3]), "identity": True}))
    tasks.append(Task("basis", ["basis", "--groups", "C8,C8,C8", "--basis", "tree",
                                "--format", "json"],
                      {"rc": 0, "rank": rank_formula(c8)}))
    return tasks


def _verify_tasks(rng):
    return [Task("verify", ["verify", "--seed", _cli_seed(rng)],
                 {"rc": 1, "failing": ["4-cyclic-pairs"], "criteria": len(CRITERIA)})]


# A workload's task lists; each list draws from its own seeded generator.
#   pipeline: the dense report, the cubical H1 and the tree-basis action in
#     one list, so one run covers each layer a planned change targets;
#   verify: the ten-criterion suite, many tiny inputs, the only user of the
#     commutators layer.
# On a shared VM whose slow phases last minutes, one 60 s run of the three
# pipeline lists is steadier than three runs of 20 s.
PARTS = {"pipeline": {"report": _report_tasks, "homology": _homology_tasks,
                      "tree-action": _tree_action_tasks},
         "verify": {"verify": _verify_tasks}}


def build(workload: str, seed: int) -> list[Task]:
    return [task for part, make in PARTS[workload].items()
            for task in make(random.Random(f"{part}:{seed}"))]


# --- the gate ----------------------------------------------------------------

def digest(rc: int, out: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


def _json(out):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _check_report(task, out):
    e, data = task.expect, _json(out)
    if data is None:
        return "output is not JSON"
    certs = ("cross_factor_commute", "faithful", "non_ia_certificate",
             "kernel_words_act_trivially")
    if not all(data.get(k) is True for k in certs):
        return "a certificate is false"
    if data.get("orders") != e["orders"] or data.get("rank") != e["rank"]:
        return "orders or rank differ from the closed form"
    dets = data.get("determinants", {})
    if dets.get("factor1") != e["det1"] or dets.get("factor2") != e["det2"]:
        return "determinants differ from sgn(left multiplication)^(|other|-1)"
    if data.get("seed") != e["seed"]:
        return "seed not echoed"
    return None


def _check_homology(task, out):
    e, data = task.expect, _json(out)
    if data is None:
        return "output is not JSON"
    if data.get("betti") != e["betti"]:
        return f"betti {data.get('betti')} != formula {e['betti']}"
    if data.get("torsion") != e["torsion"]:
        return "unexpected torsion"
    if data.get("cells") != e["cells"]:
        return "cell counts differ from the closed form"
    return None


def _check_basis(task, out):
    data = _json(out)
    if data is None:
        return "output is not JSON"
    orders = [int(g[1:]) for g in task.argv[2].split(",")]
    symbols, witnesses = data.get("symbols", []), data.get("witnesses", [])
    if data.get("kind") != "tree" or len(symbols) != task.expect["rank"] \
            or len(witnesses) != len(symbols):
        return "basis size differs from rank_formula"
    for w in witnesses:
        proj = [0] * len(orders)
        for f, k in parse_cyclic_word(w):
            proj[f] += k
        if any(p % m for p, m in zip(proj, orders)):
            return f"witness {w} is not in the kernel"
    return None


def _check_act(task, out, basis_out):
    data, basis = _json(out), _json(basis_out or "")
    if data is None or basis is None:
        return "output (or the matching basis output) is not JSON"
    orders = [int(g[1:]) for g in task.argv[2].split(",")]
    symbols = basis["symbols"]
    images = data.get("images", {})
    if len(symbols) != task.expect["rank"] or sorted(images) != sorted(symbols):
        return "images do not cover the basis"
    witnesses = {s: parse_cyclic_word(w) for s, w in zip(symbols, basis["witnesses"])}
    g = [tuple(x) for x in task.expect["word"]]
    g_inv = invert_cyclic(g, orders)
    for sym in symbols:
        # g . w_sym . g^-1 must equal the product of witnesses the image names
        lhs = reduce_cyclic(g + witnesses[sym] + g_inv, orders)
        rhs = []
        if images[sym] != "e":
            for tok in images[sym].split("*"):
                name, _, power = tok.partition("^")
                wit = witnesses[name]
                rhs += invert_cyclic(wit, orders) if power == "-1" else wit
        if reduce_cyclic(rhs, orders) != lhs:
            return f"image of {sym} is not the conjugate of its witness"
    return None


def _det_of(entries):
    """Exact determinant by fraction-free elimination (test-size matrices)."""
    a = [row[:] for row in entries]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _check_matrix(task, out):
    e, data = task.expect, _json(out)
    if data is None:
        return "output is not JSON"
    entries = data.get("entries", [])
    n = e["rank"]
    if len(data.get("basis", [])) != n or len(entries) != n \
            or any(len(r) != n for r in entries):
        return "matrix shape differs from rank_formula"
    if data.get("convention") != "columns-as-images":
        return "convention changed"
    if "identity" in e:
        is_identity = all(v == (i == j) for i, r in enumerate(entries) for j, v in enumerate(r))
        if is_identity != e["identity"] or data.get("determinant") != 1:
            return "kernel word does not act as the identity on H1"
        return None
    if abs(data.get("determinant", 0)) != e["abs_det"]:
        return "determinant is not a unit"
    if _det_of(entries) != data["determinant"]:
        return "reported determinant differs from the entries' determinant"
    return None


def _check_verify(task, out):
    e = task.expect
    lines = out.splitlines()
    names = [ln.split(":")[0].split(" ", 1)[-1] for ln in lines]
    if len(lines) != e["criteria"] or names != CRITERIA[:len(lines)]:
        return "criterion lines missing or out of order"
    failing = [n for ln, n in zip(lines, names) if not ln.startswith("PASS ")]
    if failing != e["failing"]:
        return f"failing criteria {failing} != {e['failing']}"
    return None


def check(task: Task, rc: int, out: str, outputs: dict, expected_digest: str | None):
    """Return None if the task's output passes the gate, else the reason.

    ``outputs`` maps (kind, group list) to each task's stdout in the same
    pass; the act oracle reads the basis witnesses from it.
    """
    if rc != task.expect["rc"]:
        return f"exit code {rc} != {task.expect['rc']}"
    if expected_digest is not None and digest(rc, out) != expected_digest:
        return "output digest differs from the recorded one"
    if task.kind == "report":
        return _check_report(task, out)
    if task.kind == "homology":
        return _check_homology(task, out)
    if task.kind == "basis":
        return _check_basis(task, out)
    if task.kind == "act":
        return _check_act(task, out, outputs.get(("basis", task.argv[2])))
    if task.kind in ("matrix", "kernel-matrix"):
        return _check_matrix(task, out)
    return _check_verify(task, out)


def _corrupted(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: _corrupted(value[key])}
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return value[:-1] + [_corrupted(value[-1])] if value else [2]
    raise TypeError(f"cannot corrupt {value!r}")


def self_check(tasks, results, outputs, recorded) -> list[str]:
    """Corrupt each expected value in turn; every corruption must be caught.

    Runs on the first task of each kind, against its real output; with
    ``recorded`` digests it also corrupts the digest.  Returns the
    corruptions the gate failed to flag (empty when the gate works).
    """
    missed, seen = [], set()
    for i, task in enumerate(tasks):
        if task.kind in seen:
            continue
        seen.add(task.kind)
        rc, out = results[i]
        for key in task.expect:
            bad = Task(task.kind, task.argv, {**task.expect, key: _corrupted(task.expect[key])})
            if check(bad, rc, out, outputs, None) is None:
                missed.append(f"{task.kind}.{key}")
        if recorded is not None:
            if check(task, rc, out, outputs, "0" * 64) is None:
                missed.append(f"{task.kind}.digest")
    return missed
