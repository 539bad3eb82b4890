"""End-to-end verification suite.

Each criterion function returns (ok, detail).  The CLI `verify` subcommand
and the acceptance tests both run these; every check is exact integer
arithmetic, and the randomized ones are reproducible from the seed.
"""

from __future__ import annotations

import itertools
import random
from math import prod

from .action import (act_word, algebraic_basis, decompose, outer_representative, recompose,
                     tree_basis)
from .commutators import lemma_suite
from .complexes import build_complex, full_simplex, h1, parse_complex_spec, zero_complex
from .fibre import build_fibre_graph, place_values, rank_formula
from .groups import S3_CLASSIC_ORDER, make_cyclic, make_symmetric
from .intmatrix import (IntMatrix, abelianize, columns, compose_columns, cyclic_closed_form,
                        cyclic_columns, dense)
from .words import conjugate, random_kernel_words, single

S3_MATRICES = {
    # classic basis order {1,(12),(13),(23),(123),(132)}; columns are images
    "(12)": [[-1, -1, -1, -1, -1],
             [0, 0, 0, 0, 1],
             [0, 0, 0, 1, 0],
             [0, 0, 1, 0, 0],
             [0, 1, 0, 0, 0]],
    "(13)": [[0, 0, 0, 1, 0],
             [-1, -1, -1, -1, -1],
             [0, 0, 0, 0, 1],
             [1, 0, 0, 0, 0],
             [0, 0, 1, 0, 0]],
    "(23)": [[0, 0, 0, 0, 1],
             [0, 0, 0, 1, 0],
             [-1, -1, -1, -1, -1],
             [0, 1, 0, 0, 0],
             [1, 0, 0, 0, 0]],
    "(123)": [[0, 0, 1, 0, 0],
              [1, 0, 0, 0, 0],
              [0, 1, 0, 0, 0],
              [-1, -1, -1, -1, -1],
              [0, 0, 0, 1, 0]],
    "(132)": [[0, 1, 0, 0, 0],
              [0, 0, 1, 0, 0],
              [1, 0, 0, 0, 0],
              [0, 0, 0, 0, 1],
              [-1, -1, -1, -1, -1]],
}


def _fail(msg):
    return False, msg


def criterion_1_rank_formula(seed: int = 0):
    if rank_formula([2, 3]) != 2:
        return _fail("rank_formula(2,3) != 2")
    if rank_formula([2, 6]) != 5:
        return _fail("rank_formula(2,6) != 5")
    lists = [orders for n in range(1, 5) for orders in itertools.product(range(1, 6), repeat=n)]
    for orders in lists:
        # each vertex but the basepoint must top exactly one tree edge; tree
        # edges rise in index, so the tree spans and E - V + 1 is the Betti number.
        # Coordinate i has V/m_i lines of m_i - 1 edges; its tree edges (the
        # coordinates after i are 0) at position p - 1 top p T_i + h m_i T_i,
        # one slice per p.  If V - 1 tops land on V - 1 vertices, not the
        # basepoint, each other vertex is topped exactly once.
        nverts = prod(orders)
        topped, ntops = bytearray(nverts), 0
        for m, tail in zip(orders, place_values(orders)):
            for p in range(1, m):
                count = len(range(p * tail, nverts, m * tail))
                topped[p * tail::m * tail] = b"\1" * count
                ntops += count
        if topped[0] or ntops != nverts - 1 or topped.count(1) != nverts - 1:
            return _fail(f"staircase tree does not span at orders {orders}")
        nedges = sum(nverts // m * (m - 1) for m in orders)
        if nedges - nverts + 1 != rank_formula(orders):
            return _fail(f"betti mismatch at orders {orders}")
    return True, f"rank formula matches graph Betti number on {len(lists)} group lists"


def criterion_2_z2z3_matrices(seed: int = 0):
    m1, m2 = cyclic_closed_form(2, 3)
    if m1 != -IntMatrix.identity(2):
        return _fail(f"M1 != -I2: {m1.entries}")
    if m2.transpose() != IntMatrix([[-1, 1], [-1, 0]]):
        return _fail(f"M2 transpose mismatch: {m2.entries}")
    if m1 ** 2 != IntMatrix.identity(2) or m2 ** 3 != IntMatrix.identity(2):
        return _fail("orders of M1/M2 wrong")
    if m1 * m2 != m2 * m1:
        return _fail("M1, M2 do not commute")
    return True, "Z2*Z3 generator matrices, orders and commutation verified"


def _s3_setup():
    groups = (make_cyclic(2), make_symmetric(3))
    basis = algebraic_basis(groups)
    letters = {"x": (0, 1)} | {name: (1, k) for k, name in enumerate(S3_CLASSIC_ORDER) if k}
    return {name: abelianize(outer_representative(single(groups, *t), basis))
            for name, t in letters.items()}


def criterion_3_z2s3_matrices(seed: int = 0):
    mats = _s3_setup()
    if mats["x"] != -IntMatrix.identity(5):
        return _fail("matrix of x is not -I5")
    for name, expected in S3_MATRICES.items():
        if mats[name] != IntMatrix(expected):
            return _fail(f"matrix of {name} differs from the published one")
    for name, want in [("(12)", -1), ("(13)", -1), ("(23)", -1),
                       ("(123)", 1), ("(132)", 1)]:
        if mats[name].det() != want:
            return _fail(f"det of {name} != {want}")
    for name in S3_CLASSIC_ORDER[1:]:
        if mats["x"] * mats[name] != mats[name] * mats["x"]:
            return _fail(f"matrix of x does not commute with {name}")
    if mats["(13)"] * mats["(132)"] == mats["(132)"] * mats["(13)"]:
        return _fail("(13) and (132) matrices unexpectedly commute")
    return True, "all six 5x5 matrices verbatim; determinants and (non-)commutation verified"


def _powers(cols: list[dict[int, int]], top: int) -> list[list[dict[int, int]]]:
    """The sparse columns of [M^0, M^1, ..., M^top], each the running product of the one before."""
    out = [[{i: 1} for i in range(len(cols))]]
    for _ in range(top):
        out.append(compose_columns(out[-1], cols))
    return out


def criterion_4_cyclic_pairs(seed: int = 0):
    failures = []
    cyclic = {n: make_cyclic(n) for n in range(2, 7)}
    for r in range(2, 7):
        for m in range(2, 7):
            m1, m2 = cyclic_columns(cyclic[r], cyclic[m])
            pow1, pow2 = _powers(m1, r), _powers(m2, m)
            if not (pow1[r] == pow1[0] and pow2[m] == pow2[0]):
                failures.append(f"generator matrix order wrong for ({r},{m})")
            if compose_columns(m1, m2) != compose_columns(m2, m1):
                failures.append(f"matrices do not commute for ({r},{m})")
            for i in range(r):
                for j in range(m):
                    # M1^i M2^j = I iff M1^i = M2^(m-j), exact once M2^m = I is checked above
                    if (pow1[i] == pow2[-j % m]) != (i == 0 and j == 0):
                        failures.append(f"faithfulness fails at ({r},{m}) i={i} j={j}")
            d1 = dense(m1).det()
            if d1 != (-1) ** ((r - 1) * (m - 1)):
                failures.append(f"det M1 wrong for ({r},{m})")
            if (r % 2 or m % 2) and (d1 != 1 or dense(m2).det() != 1):
                failures.append(f"matrices not in SL for ({r},{m})")
    if failures:
        # (2,2) is a genuine degenerate case: the kernel is F_1, both
        # generators act by inversion, and the rank-1 image cannot separate
        # a group of order 4.  Reported honestly rather than excluded.
        return _fail("; ".join(failures))
    return True, "orders, commutation, faithfulness and determinants for all 2<=r,m<=6"


def _pair_suites():
    return [
        ("C4*C3", (make_cyclic(4), make_cyclic(3))),
        ("C2*S3", (make_cyclic(2), make_symmetric(3))),
    ]


def criterion_5_telescope_roundtrip(seed: int = 0, trials: int = 1000):
    for label, groups in _pair_suites():
        basis = algebraic_basis(groups)
        words = random_kernel_words(random.Random(seed), groups, max_letters=12)
        # range first: zip stops on it before it asks the stream for a word past the last
        for t, w in zip(range(trials), words):
            if recompose(basis, decompose(basis, w)) != w:
                return _fail(f"round-trip failed in {label} at trial {t}: {w}")
    return True, f"{trials} random kernel words per pair decompose and recompose exactly"


def criterion_6_geometric_algebraic(seed: int = 0):
    groups = (make_cyclic(3), make_cyclic(4))
    basis = algebraic_basis(groups)
    tree = tree_basis(build_fibre_graph(groups))
    checked = 0
    for factor, G in enumerate(groups):
        for k in range(1, G.order):
            t = single(groups, factor, k)
            phi = act_word(t, basis)
            for sym in range(basis.rank):
                lhs = conjugate(t, basis.witnesses[sym])
                rhs = recompose(basis, phi.images[sym])
                if decompose(tree, lhs) != decompose(tree, rhs):
                    return _fail(f"tree decompositions differ for t={t} symbol {sym}")
                checked += 1
    return True, f"closed-form and conjugation images agree in the tree basis ({checked} cases)"


def criterion_7_inner_triviality(seed: int = 0, trials: int = 200):
    for label, groups in [("C3*C4", (make_cyclic(3), make_cyclic(4)))] + _pair_suites()[1:]:
        basis = algebraic_basis(groups)
        identity = [{k: 1} for k in range(basis.rank)]
        words = random_kernel_words(random.Random(seed), groups, max_letters=10)
        for _, w in zip(range(trials), words):
            if columns(act_word(w, basis)) != identity:
                return _fail(f"kernel word acts nontrivially on H1 in {label}: {w}")
    return True, f"{trials} random kernel words per pair abelianize to the identity"


def criterion_8_lemma_suite(seed: int = 0, trials: int = 500):
    groups = (make_cyclic(3), make_cyclic(4), make_cyclic(2))
    delta, expansion, magnus = lemma_suite(groups, random.Random(seed), trials, depth=5)
    if delta != trials:
        return _fail(f"delta identity fails on {trials - delta} of {trials} trials")
    if expansion != trials:
        return _fail(f"product expansion fails on {trials - expansion} of {trials} trials")
    if magnus != 5:
        return _fail(f"Magnus weights wrong at {5 - magnus} of the depths k<=5")
    return True, f"delta identity and product expansion on {trials} trials; Magnus weights exact for k<=5"


def criterion_9_homology(seed: int = 0):
    cyclic = {m: make_cyclic(m) for m in range(1, 4)}
    c2 = cyclic[2]
    got = h1(build_complex([c2] * 3, zero_complex(3)))
    if got != 5:
        return _fail(f"h1(K0; C2^3) = {got}, expected 5")
    k_edge = parse_complex_spec("K={1;2;3;1,2}")
    got = h1(build_complex([c2] * 3, k_edge))
    if got != 3:
        return _fail(f"h1(K0+edge; C2^3) = {got}, expected 3")
    for n in range(1, 4):
        for orders in itertools.product(range(1, 4), repeat=n):
            groups = [cyclic[m] for m in orders]
            got = h1(build_complex(groups, full_simplex(n)))
            if got:
                return _fail(f"full simplex not acyclic for orders {orders}: {got}")
    # monotonicity over all complexes on 3 vertices
    all_edges = [frozenset(p) for p in itertools.combinations(range(1, 4), 2)]
    complexes = []
    for r in range(4):
        for combo in itertools.combinations(all_edges, r):
            facets = [frozenset({v}) for v in (1, 2, 3)] + list(combo)
            complexes.append((set(combo), parse_complex_spec(
                "{" + ";".join(",".join(map(str, sorted(f))) for f in facets) + "}")))
    complexes.append((set(all_edges), full_simplex(3)))
    for orders in itertools.product((2, 3), repeat=3):
        groups = [cyclic[m] for m in orders]
        bettis = [(edges, h1(build_complex(groups, K))) for edges, K in complexes]
        for e1, b1 in bettis:
            for e2, b2 in bettis:
                if e1 <= e2 and b2 > b1:
                    return _fail(f"monotonicity fails for orders {orders}")
    return True, "figure counts, contractible full simplices, and monotonicity all hold"


def criterion_10_display_note(seed: int = 0):
    m1, m2 = cyclic_closed_form(3, 3)
    if m1 * m2 != m2 * m1:
        return _fail("M1, M2 do not commute for r=m=3")
    published = IntMatrix([[1, -1, -1, 1], [1, 0, -1, 0], [0, 0, -1, 1], [0, 0, -1, 0]])
    ours = m1 * m2
    verbatim = "matches" if ours in (published, published.transpose()) else "does not match"
    return True, ("structural content (commutation) verified; the printed 4x4 product "
                  f"{verbatim} the derived matrix under either convention, as documented")


CRITERIA = [
    ("1-rank-formula", criterion_1_rank_formula),
    ("2-z2z3-matrices", criterion_2_z2z3_matrices),
    ("3-z2s3-matrices", criterion_3_z2s3_matrices),
    ("4-cyclic-pairs", criterion_4_cyclic_pairs),
    ("5-telescope-roundtrip", criterion_5_telescope_roundtrip),
    ("6-geometric-algebraic", criterion_6_geometric_algebraic),
    ("7-inner-triviality", criterion_7_inner_triviality),
    ("8-lemma-suite", criterion_8_lemma_suite),
    ("9-homology", criterion_9_homology),
    ("10-display-note", criterion_10_display_note),
]


def run_criteria(seed: int = 0):
    """Yield (name, ok, detail) for each criterion, in order, as it finishes."""
    for name, fn in CRITERIA:
        ok, detail = fn(seed=seed)
        yield name, ok, detail
