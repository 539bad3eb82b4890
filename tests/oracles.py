"""Oracles imported by the tests (not collected).

The pair encoding of signed symbol words: a symbol is (k, +1|-1), not the
int +-(k + 1) of `words`; `free_reduce_pairs` and `invert_pairs` are the
free reduction and inverse written for it, and `encode` maps a pair word
to the int encoding.

The elimination oracles for `complexes.h1`: `elimination_h1` is H1 of the
cubical model by elimination: ker d1 is free on the E - V + 1 cotree edges
of the staircase tree, so H1 is the cokernel of d2 on the cotree rows.
`sparse_rank_torsion` pivots on the unit entries first and hands any
leftover block to the dense `smith_normal_form`, so torsion is computed,
not assumed away.
"""

from __future__ import annotations

from typing import Sequence

from monodromy.complexes import CubicalComplex
from monodromy.fibre import place_values
from monodromy.intmatrix import IntMatrix, _eliminate_units


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
