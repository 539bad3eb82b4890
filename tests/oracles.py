"""Oracles imported by the tests (not collected).

The pair encoding of signed symbol words: a symbol is (k, +1|-1), not the
int +-(k + 1) of `words`; `free_reduce_pairs` and `invert_pairs` are the
free reduction and inverse written for it, and `encode` maps a pair word
to the int encoding.

`dense_counts` is the dense abelianization: one full column of signed
letter counts per image, the loop `intmatrix.columns` replaces.  `pretty`
prints a dense matrix as `matrix` printed it before it wrote sparse rows.

The elimination oracles for `complexes.h1`: `elimination_h1` is H1 of the
cubical model by elimination: ker d1 is free on the E - V + 1 cotree edges
of the staircase tree, so H1 is the cokernel of d2 on the cotree rows.
`sparse_rank_torsion` pivots on the unit entries first and hands any
leftover block to the dense `smith_normal_form`, so torsion is computed,
not assumed away.

`two_reduce_kernel_word` is `words.random_kernel_word` as first written:
the same draws, reduced once to project them and once more after the
letters that cancel the projection are appended.  `two_reduce_random_word`
is `words.random_word` beside it.  Both draw with `rng.randrange`, as
`randrange_letters` does; `words` draws from `rng.getrandbits` and must
give the same words and leave `rng` in the same state.

`randrange_lemma_draws` draws the pairs and triples that
`commutators.lemma_suite` checks, with `rng.randrange` and `rng.choice`,
and `degree_6_7_lemma_suite` is `lemma_suite` as it was before each Magnus
series stopped at the degree that decides its check: on those draws, with
every series truncated at degrees 6 and 7.

`walk_each` walks each witness of a basis letter by letter with
`Basis.walk`: the oracle of `Basis.walks`, which builds no witness.

`edges` lists a simplicial complex's 1-faces, for the flag and BBCG
checks of tests/test_complexes.py.

`elimination_det` runs the same unit-pivot elimination (`_eliminate_units`)
on a square matrix, and `rational_elimination` only on the block it
leaves: the oracle of `intmatrix.determinant` at ranks where
`IntMatrix.det` is too slow.  `rational_elimination` (rank and det by
Gaussian elimination over fractions) and `leibniz_det` (the sum over
permutations, for small n) are the oracles of `IntMatrix.det` and
`IntMatrix.rank`, which share one fraction-free elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress, permutations
from math import prod
from typing import Sequence

from monodromy.commutators import (delta_identity_check, fl_commutator, iterated_commutator,
                                   letters, magnus_weight, product_expansion_check)
from monodromy.complexes import CubicalComplex, SimplicialComplex
from monodromy.fibre import place_values
from monodromy.intmatrix import IntMatrix
from monodromy.words import free_reduce, project, reduce_word


def signed(k: int, sign: int) -> int:
    """Symbol k with sign +1 or -1, in the int encoding."""
    return sign * (k + 1)


def encode(seq: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    return tuple(signed(k, sign) for k, sign in seq)


def free_reduce_pairs(seq) -> tuple:
    """Free reduction of pair-encoded symbols: cancel each (k, s) next to (k, -s)."""
    out: list = []
    for k, sign in seq:
        if out and out[-1] == (k, -sign):
            out.pop()
        else:
            out.append((k, sign))
    return tuple(out)


def invert_pairs(seq) -> tuple:
    return tuple((k, -sign) for k, sign in reversed(seq))


def dense_counts(phi) -> list[list[int]]:
    """Column j lists the signed count of every symbol in image j, zeros included."""
    n = phi.basis.rank
    cols = []
    for img in phi.images:
        col = [0] * n
        for x in img:
            if x > 0:
                col[x - 1] += 1
            else:
                col[-x - 1] -= 1
        cols.append(col)
    return cols


def pretty(m: IntMatrix) -> str:
    """The text layout of a dense matrix: each entry right-aligned to the widest, one line
    per row.  The oracle of the sparse-row writer that `matrix` prints with."""
    width = max((len(str(v)) for row in m.entries for v in filter(None, row)), default=1)
    zero = "0".rjust(width)  # the entries are mostly zero: pad it once
    return "\n".join(" ".join([str(v).rjust(width) if v else zero for v in row])
                     for row in m.entries)


def smith_normal_form(M: IntMatrix) -> tuple[list[int], int]:
    """Invariant factors d1 | d2 | ... (positive) and the rank."""
    a = [row[:] for row in M.entries]
    rows, cols = M.rows, M.cols
    n = min(rows, cols)
    t = 0
    while t < n:
        # a pivot of minimal absolute value in the trailing block, first in row order
        pivot = min(((abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols)
                     if a[i][j]), default=None)
        if pivot is None:
            break
        _, pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]

        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                for j in range(t, cols):
                    a[i][j] -= q * a[t][j]
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                for i in range(t, rows):
                    a[i][j] -= q * a[i][t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the block
        offender = next((i for i in range(t + 1, rows) for j in range(t + 1, cols)
                         if a[i][j] % a[t][t]), None)
        if offender is not None:
            for j in range(t, cols):
                a[t][j] += a[offender][j]
            continue
        if a[t][t] < 0:
            for j in range(t, cols):
                a[t][j] = -a[t][j]
        t += 1
    factors = [a[i][i] for i in range(t)]
    return factors, len(factors)


def _eliminate_units(columns: Sequence[dict[int, int]]):
    """Pivot on unit entries of sparse columns, sparsest column first.

    Each column maps row index -> entry.  A pass visits the live columns in
    order of nonzero count, and in each one pivots on the +-1 entry whose
    row has the fewest nonzeros.  Each pivot (i, j, p) is a unimodular
    Schur-complement step: column operations clear row i outside column j,
    then row i and column j leave the matrix.  Passes repeat until no
    column has a unit entry.  Returns the pivots in order and the leftover
    nonzero columns {j: {row: entry}}, none of which has a unit entry.
    """
    cols: dict[int, dict[int, int]] = {}
    rows: dict[int, set[int]] = {}
    for j, column in enumerate(columns):
        col = {i: v for i, v in column.items() if v}
        if col:
            cols[j] = col
            for i in col:
                rows.setdefault(i, set()).add(j)

    pivots: list[tuple[int, int, int]] = []
    while True:
        before = len(pivots)
        for j in sorted(cols, key=lambda j: len(cols[j])):
            pivot = cols.get(j)  # None once an earlier pivot of this pass emptied it
            units = [i for i, v in pivot.items() if v in (1, -1)] if pivot else ()
            if not units:
                continue
            i = min(units, key=lambda i: len(rows[i]))
            del cols[j]
            for r in pivot:
                rows[r].discard(j)
            p = pivot.pop(i)
            for k in rows.pop(i):
                # col_k -= (a_ik / p) col_j clears row i; 1/p == p for a unit
                col = cols[k]
                f = col.pop(i) * p
                for r, v in pivot.items():
                    new = col.get(r, 0) - f * v
                    if new:
                        col[r] = new
                        rows[r].add(k)
                    else:
                        del col[r]
                        rows[r].discard(k)
                if not col:
                    del cols[k]
            pivots.append((i, j, p))
        if len(pivots) == before:
            return pivots, cols


def _permutation_sign(perm: Sequence[int]) -> int:
    """+1 or -1: a cycle of length L contributes (-1)^(L-1)."""
    sign, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            if k != start:
                sign = -sign
    return sign


def leibniz_det(entries: Sequence[Sequence[int]]) -> int:
    """The determinant as the signed sum of n! products: for n up to about 6."""
    n = len(entries)
    return sum(_permutation_sign(p) * prod(entries[i][p[i]] for i in range(n))
               for p in permutations(range(n)))


def rational_elimination(entries: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(rank, det) by Gaussian elimination over exact fractions; det is 0 unless
    the matrix is square of full rank.  Each pivot row is divided through, so
    no division has to come out exact, unlike in the fraction-free routine."""
    a = [[Fraction(v) for v in row] for row in entries]
    rows, cols = len(a), len(a[0])
    rank, det = 0, Fraction(1)
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv], det = a[piv], a[rank], -det
        det *= a[rank][col]
        a[rank] = [v / a[rank][col] for v in a[rank]]
        for r in range(rank + 1, rows):
            if a[r][col]:
                f = a[r][col]
                a[r] = [v - f * p for v, p in zip(a[r], a[rank])]
        rank += 1
    assert det.denominator == 1
    return rank, det.numerator if rows == cols == rank else 0


def rational_rank(mat: IntMatrix) -> int:
    return rational_elimination(mat.entries)[0]


def elimination_det(m: IntMatrix) -> int:
    """Exact determinant: unit pivots first, `rational_elimination` on what is left.

    The unit eliminations are column operations, which keep the
    determinant, and leave the pivot rows and columns block-triangular
    against the rest once both are put in pivot order.  So det =
    sgn(sigma) * prod(pivots) * det(leftover block), where sigma sends
    each pivot row to its pivot column and the leftover rows to the
    leftover columns in sorted order.  A column that empties gives 0.
    """
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    # compress keeps the nonzero (row, entry) pairs of each column in C
    sparse = [dict(compress(enumerate(col), col)) for col in zip(*m.entries)]
    pivots, cols = _eliminate_units(sparse)
    if len(pivots) + len(cols) < n:
        return 0
    sigma = [-1] * n
    value = 1
    for i, j, p in pivots:
        sigma[i] = j
        value *= p
    left_rows = [i for i in range(n) if sigma[i] < 0]
    left_cols = sorted(cols)
    for i, j in zip(left_rows, left_cols):
        sigma[i] = j
    if left_cols:
        value *= rational_elimination([[cols[j].get(i, 0) for j in left_cols]
                                       for i in left_rows])[1]
    return _permutation_sign(sigma) * value


def sparse_rank_torsion(columns: Sequence[dict[int, int]]) -> tuple[int, list[int]]:
    """(rank, invariant factors > 1) of a matrix given as sparse columns.

    Each unit pivot of `_eliminate_units` splits off an invariant factor 1.
    Only a leftover block without a unit entry goes to the dense
    `smith_normal_form`.
    """
    pivots, cols = _eliminate_units(columns)
    rank = len(pivots)
    if not cols:
        return rank, []
    live = {r: n for n, r in enumerate(sorted({r for col in cols.values() for r in col}))}
    block = [[0] * len(cols) for _ in live]
    for c, col in enumerate(cols.values()):
        for r, v in col.items():
            block[live[r]][c] = v
    factors, block_rank = smith_normal_form(IntMatrix(block))
    return rank + block_rank, [d for d in factors if d > 1]


def elimination_h1(cx: CubicalComplex) -> tuple[int, list[int]]:
    """(first Betti number, invariant factors > 1) by eliminating d2 on the cotree rows."""
    nverts, nedges, _ = cx.counts
    n, tails = len(cx.groups), place_values(cx.orders)
    columns = []
    for faces in cx._square_boundaries():
        # row x * n + i is edge (x, i); the tree rows, x % T_i == 0, are dropped
        columns.append({x * n + i: s for x, i, s in faces if x % tails[i]})
    rank, torsion = sparse_rank_torsion(columns)
    return nedges - nverts + 1 - rank, torsion


def walk_each(basis, start: int) -> tuple[tuple[int, ...], ...]:
    """The walk of each witness from `start`, one letter at a time."""
    runs = []
    for wit in basis.witnesses:
        raw: list[int] = []
        basis.walk(wit.letters, start, raw)
        runs.append(tuple(raw))
    return tuple(runs)


def edges(K: SimplicialComplex) -> set[frozenset[int]]:
    """The 1-faces of K: each pair of vertices on a common facet."""
    return {frozenset(p) for f in K.facets for p in combinations(f, 2)}


def randrange_letters(rng, groups, count: int) -> list[tuple[int, int]]:
    """`count` letter draws, each a factor and then a non-identity element of it, by randrange."""
    raw = []
    for _ in range(count):
        f = rng.randrange(len(groups))
        if groups[f].order > 1:
            raw.append((f, rng.randrange(1, groups[f].order)))
    return raw


def two_reduce_kernel_word(rng, groups, max_letters: int = 10):
    """A random kernel word: the raw draws reduced and projected, closed up and reduced again."""
    raw = randrange_letters(rng, groups, rng.randrange(max_letters))
    fix = [(i, groups[i].inverse(p)) for i, p in enumerate(project(reduce_word(raw, groups))) if p]
    return reduce_word(raw + fix, groups)


def two_reduce_random_word(rng, groups, max_letters: int = 8):
    """A random word: 1 to max_letters - 1 raw draws, reduced."""
    return reduce_word(randrange_letters(rng, groups, rng.randrange(1, max_letters)), groups)


def randrange_lemma_draws(groups, rng, trials: int) -> tuple[list, list]:
    """The word pairs of the delta identity and the free-letter triples of the
    product expansion, in the order `commutators.lemma_suite` draws them."""
    pairs = []
    for _ in range(trials):
        g = two_reduce_random_word(rng, groups)
        pairs.append((g, two_reduce_random_word(rng, groups)))
    triples = [tuple(free_reduce(ord(rng.choice("abcde")) * rng.choice((1, -1))
                                 for _ in range(rng.randrange(1, 5)))
                     for _ in range(3))
               for _ in range(trials)]
    return pairs, triples


def degree_6_7_lemma_suite(groups, rng, trials: int, depth: int) -> tuple[int, int, int]:
    """The pass counts of `commutators.lemma_suite`, every Magnus series truncated at 6 and 7."""
    pairs, triples = randrange_lemma_draws(groups, rng, trials)
    delta = sum(delta_identity_check(g, f) for g, f in pairs)
    expansion = sum(product_expansion_check(*ws) for ws in triples)
    magnus = 0
    for k in range(1, depth + 1):
        f = iterated_commutator(letters(*"abcde"[:k]))
        magnus += (magnus_weight(f, 6) == k
                   and magnus_weight(fl_commutator(letters("z")[0], f), 7) == k + 1)
    return delta, expansion, magnus
